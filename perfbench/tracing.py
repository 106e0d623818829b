"""In-memory span recorder that wraps library functions by module attribute.

The benchmark traces softalign from the outside: it replaces a module
attribute (``trainer._gather_views``, ``synthgen.generate``, ...) with a
wrapper that records one span per call and then calls the original. The
library's own code looks these names up on the module at call time, so the
wrapper sees every internal call without any change to ``src/``.

A span is ``(id, parent, name, start, end)``; ids are ``(pid, n)`` so spans
recorded in forked worker processes never collide with the parent's. A
worker writes its spans to ``spans-<pid>.jsonl`` in the spill directory as
soon as one of its top-level spans ends (pool workers exit without running
exit handlers), and the parent reads those files back with
:meth:`Tracer.collect`.

A wrapped name that no longer exists is recorded in :attr:`Tracer.absent`
instead of raising, so renaming a library internal drops that layer's
numbers to zero rather than breaking the benchmark.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span store plus the wrappers it has installed."""

    def __init__(self, spill_dir: Path):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._installed: list[tuple] = []
        self._stack: list[tuple] = []
        self._next = 0
        self._paused = False
        self._owner = os.getpid()
        self._spill_dir = Path(spill_dir)

    # -- installation -------------------------------------------------------

    def wrap(self, module, attr: str, name, label=None) -> None:
        """Record every call of ``module.attr`` as a span.

        ``label(args, kwargs)``, when given, returns a suffix appended to
        ``name`` (for example the modality a head call serves).
        """
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return orig(*args, **kwargs)
            span_name = name
            if label is not None:
                try:
                    span_name = f"{name}.{label(args, kwargs)}"
                except (IndexError, KeyError, AttributeError):
                    span_name = f"{name}.unknown"
            pid = os.getpid()
            sid = (pid, tracer._next)
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, span_name, t0, t1))
                if pid != tracer._owner and (parent is None or parent[0] != pid):
                    tracer._spill(pid)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, orig))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original function."""
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed.clear()

    @contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's own checks) are not recorded."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- worker spill and collection ----------------------------------------

    def _spill(self, pid: int) -> None:
        mine = [s for s in self.spans if s[0][0] == pid]
        if not mine:
            return
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self._spill_dir / f"spans-{pid}.jsonl", "a") as fh:
            for sid, parent, name, t0, t1 in mine:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")
        self.spans = [s for s in self.spans if s[0][0] != pid]

    def collect(self) -> None:
        """Move the spans that worker processes spilled into this tracer."""
        if not self._spill_dir.is_dir():
            return
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    sid, parent, name, t0, t1 = json.loads(line)
                    self.spans.append((tuple(sid), tuple(parent) if parent else None,
                                       name, t0, t1))
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"id": list(sid),
                                     "parent": list(parent) if parent else None,
                                     "name": name, "start": t0, "end": t1}) + "\n")

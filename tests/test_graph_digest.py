"""The tree keeps the bits recorded in ``tools/graph_digest.txt``.

``tools/graph_digest.py`` digests the loss graph, its oracle and the data,
training, eval and output paths; its committed output is the bitwise
contract of every refactor. The tool runs in a subprocess: it sets
``SALB_LOG`` and starts a process pool. Its bits depend on numpy and on
the OpenBLAS kernels, so where the file's header names another numpy,
OpenBLAS or core than this environment's, the test skips and names the
field.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "graph_digest.py"
DIGEST = ROOT / "tools" / "graph_digest.txt"


def _fields(header: str) -> dict:
    return dict(item.split("=", 1) for item in header.lstrip("# ").split())


def _label(line: str) -> str:
    return line.split()[0].split("=")[0] if line.strip() else "(empty)"


def test_digest_matches_committed_file():
    spec = importlib.util.spec_from_file_location("graph_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    want = DIGEST.read_text().splitlines()
    committed, here = _fields(want[0]), _fields(tool.environment_line())
    differ = [f"{key} {committed.get(key)} in the file, {here.get(key)} here"
              for key in sorted(set(committed) | set(here))
              if committed.get(key) != here.get(key)]
    if differ:
        pytest.skip(f"{DIGEST.name} was made elsewhere: {'; '.join(differ)}")

    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(TOOL)], cwd=ROOT, capture_output=True,
                         text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    moved = [_label(w) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want), (
        f"{len(got)} lines, {DIGEST.name} has {len(want)}; differing: {moved}")
    assert not moved, f"lines that differ from {DIGEST.name}: {moved}"

"""Environment record written into every result, and the comparison rule.

Two results are only comparable when they come from the same machine and
backend; :func:`differences` names every field that differs.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# fields that must match for two results to be compared
MACHINE_FIELDS = ("cpu_model", "nproc", "backend", "python", "numpy", "scipy",
                  "blas", "blas_threads")


def _git(root: Path, *args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "--no-optional-locks", "-C", str(root), *args],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def record(root: Path, seed: int) -> dict:
    """Versions, machine, backend, BLAS threading and the git state of ``root``."""
    import numpy as np
    import scipy

    from softalign import backend

    top = _git(root, "rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == root.resolve()
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if in_git else None
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": backend.active_backend(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "seed": seed,
    }


def differences(a: dict, b: dict) -> list[str]:
    """Machine and backend fields on which two environment records differ."""
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
            for k in MACHINE_FIELDS if a.get(k) != b.get(k)]

"""Dense float64 matrix kernels shared by every other module.

A "matrix" throughout the package is a 2-D C-contiguous float64 ndarray
with finite entries; :func:`as_matrix` is the single validation gate.
Randomness always flows through a seeded ``numpy.random.Generator`` so
that identical seeds give bitwise-identical draws.
"""

from __future__ import annotations

import numpy as np

from . import backend
from .errors import ShapeMismatch, ZeroRow

# Seeds are 64-bit unsigned integers.
Seed = int

_MIN_ROW_NORM = 1e-300


def as_matrix(x, name: str = "matrix", dtype=np.float64) -> np.ndarray:
    """Validate and coerce ``x`` to a finite 2-D array of ``dtype``.

    Everything but the finite-difference oracle, which validates its
    extended-precision inputs without rounding them, uses float64.
    """
    m = np.ascontiguousarray(x, dtype=dtype)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt((m * m).sum(axis=1))


def l2_normalize_rows(m) -> np.ndarray:
    """Scale every row to unit Euclidean norm.

    Raises:
        ZeroRow: if any row norm is below 1e-300 (direction undefined).
    """
    m = as_matrix(m)
    norms = row_norms(m)
    if (norms < _MIN_ROW_NORM).any():
        bad = int(np.argmax(norms < _MIN_ROW_NORM))
        raise ZeroRow(f"row {bad} has norm {norms[bad]:.3e}, cannot normalize")
    return m / norms[:, None]


def gram(a, b) -> np.ndarray:
    """Pairwise dot products: out[i, j] = <row_i(a), row_j(b)>."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"gram needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    return a @ b.T


def stable_row_softmax(logits) -> np.ndarray:
    """Row-wise softmax with max subtraction; every row sums to 1."""
    z = as_matrix(logits, "logits")
    return backend.softmax_rows(z)


def gaussian_matrix(rows: int, cols: int, seed: Seed) -> np.ndarray:
    """I.i.d. standard-normal matrix, deterministic given the seed."""
    if rows < 1 or cols < 1:
        raise ShapeMismatch(f"gaussian_matrix needs rows, cols >= 1, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols))

"""Hot numeric kernels: row softmax variants, their VJP, KL rows and AdamW.

Plain numpy, dtype-generic: the trainer runs them on float64 and the
finite-difference oracle on ``longdouble``. The masked variants operate
on square matrices and exclude the diagonal from the row normalization;
their diagonal outputs are exactly 0.

This is the package's only kernel path. The module keeps its own name
(rather than living in :mod:`softalign.numkit`) because the benchmark
harness imports it as ``softalign.backend``, records
:func:`active_backend` in its environment record and times
``backend.adamw_update`` by wrapping the module attribute; callers
therefore reach every kernel through the module, not a copied reference.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"


def softmax_rows(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=1, keepdims=True)


def logsoftmax_rows(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def masked_softmax_rows(z: np.ndarray) -> np.ndarray:
    masked = z.copy()
    np.fill_diagonal(masked, -np.inf)
    zmax = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - zmax)
    np.fill_diagonal(e, 0.0)
    return e / e.sum(axis=1, keepdims=True)


def masked_logsoftmax_rows(z: np.ndarray) -> np.ndarray:
    masked = z.copy()
    np.fill_diagonal(masked, -np.inf)
    zmax = masked.max(axis=1, keepdims=True)
    shifted = masked - zmax
    e = np.exp(shifted)
    np.fill_diagonal(e, 0.0)
    lse = np.log(e.sum(axis=1, keepdims=True))
    out = shifted - lse
    np.fill_diagonal(out, 0.0)
    return out


def softmax_vjp_rows(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (p * g).sum(axis=1, keepdims=True)
    return p * (g - inner)


def kl_term_rows(a: np.ndarray, log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    # sum_j a_ij * (log_a_ij - log_b_ij); entries with a_ij == 0 contribute 0
    return (a * (log_a - log_b)).sum(axis=1)


def adamw_update(p, g, m, v, lr, wd, beta1, beta2, eps, bc1, bc2):
    """One in-place AdamW step on flat parameter ``p`` and moments ``m``, ``v``."""
    p *= 1.0 - lr * wd
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

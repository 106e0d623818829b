"""Hot numeric kernels: row (log-)softmax, its VJP, KL rows and AdamW.

Plain numpy, dtype-generic: the trainer runs them on float64 and the
finite-difference oracle on ``longdouble``. Every row kernel reduces over
the last axis, so it takes one matrix or a stack of them with a leading
batch axis, ``(B, N, N)``, and treats each slice as it would on its own.
A row that leaves its diagonal out of the normalization gets a ``-inf``
diagonal first (:func:`fill_diagonal`): the softmax is then exactly 0
there and the log-softmax ``-inf``.

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


def fill_diagonal(x: np.ndarray, value) -> None:
    """Set the diagonal of every trailing ``(N, N)`` matrix of ``x`` in place.

    ``value`` is a scalar or broadcasts against the ``(..., N)`` diagonals.
    The write goes through a strided view of the flattened matrices, so
    ``x`` must be C-contiguous (every caller passes a fresh array).
    """
    if not x.flags.c_contiguous:
        raise ValueError("fill_diagonal needs a C-contiguous array")
    n = x.shape[-1]
    x.reshape(*x.shape[:-2], n * n)[..., ::n + 1] = value


def softmax_rows(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=-1, keepdims=True)


def logsoftmax_rows(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def softmax_vjp_rows(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (p * g).sum(axis=-1, keepdims=True)
    return p * (g - inner)


def kl_term_rows(a: np.ndarray, log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    # sum_j a_ij * (log_a_ij - log_b_ij); entries with a_ij == 0 contribute 0
    return (a * (log_a - log_b)).sum(axis=-1)


def adamw_update(p, g, m, v, lr, wd, beta1, beta2, eps, bc1, bc2):
    """One in-place AdamW step on flat parameter ``p`` and moments ``m``, ``v``."""
    p *= 1.0 - lr * wd
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

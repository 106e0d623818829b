"""Hot numeric kernels: the row softmax and log-softmax, its VJP and AdamW.

Plain numpy, dtype-generic: the trainer runs them on float64 and the
finite-difference oracle on ``longdouble``. Every row kernel reduces over
the last axis, so it takes one matrix or a stack of them with a leading
batch axis, ``(B, N, N)``, and treats each slice as it would on its own;
a row's result depends on that row alone, so a block of rows gives the
same bits as the whole matrix. A row that leaves its diagonal out of the
normalization gets a ``-inf`` diagonal first (:func:`fill_diagonal`): the
softmax is then exactly 0 there and the log-softmax ``-inf``.
:func:`softmax_logsoftmax_rows` is the one softmax: it returns the
softmax and the log-softmax from one exp pass.

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


def fill_diagonal(x: np.ndarray, value, offset: int = 0) -> None:
    """Set the diagonal of every trailing ``(R, N)`` matrix of ``x`` in place.

    ``x`` holds rows ``offset .. offset + R - 1`` of ``(N, N)`` matrices,
    so entry ``(k, offset + k)`` of each is set. ``value`` is a scalar or
    broadcasts against the ``(..., R)`` diagonals. The write goes through
    a strided view of the flattened matrices, so ``x`` must be
    C-contiguous (every caller passes a fresh array).
    """
    if not x.flags.c_contiguous:
        raise ValueError("fill_diagonal needs a C-contiguous array")
    r, n = x.shape[-2:]
    if not 0 <= offset <= n - r:
        raise ValueError(f"rows {offset}..{offset + r - 1} are not rows of a "
                         f"{n} x {n} matrix")
    x.reshape(*x.shape[:-2], r * n)[..., offset::n + 1] = value


def softmax_logsoftmax_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row softmax and log-softmax of ``z`` from one max, shift, exp and
    sum; the tests hold both to the bits of the two-pass formulas."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    e /= total
    shifted -= np.log(total)
    return e, shifted


def softmax_vjp_rows(p: np.ndarray, g: np.ndarray, out=None) -> np.ndarray:
    """``p * (g - sum_j p_j g_j)``; ``out`` may be ``g`` itself."""
    inner = (p * g).sum(axis=-1, keepdims=True)
    out = np.subtract(g, inner, out=out)
    out *= p
    return out


def adamw_update(p, g, m, v, lr, wd, beta1, beta2, eps, bc1, bc2):
    """One in-place AdamW step on flat parameter ``p`` and moments ``m``, ``v``."""
    p *= 1.0 - lr * wd
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

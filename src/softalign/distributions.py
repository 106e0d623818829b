"""Similarity distributions and softened targets.

Builds every probability object the objectives consume: temperature-scaled
cross-modal and intra-modal softmax distributions, one-hot / label-smoothed
/ mixed targets, and negative-disentangled distributions (positive entry
dropped, negatives renormalized).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import BatchTooSmall, DegenerateRow, ShapeMismatch
from .numkit import as_matrix, gram

TAU_MIN = 0.01
TAU_MAX = 100.0

# Off-diagonal mass below this means the positive has fully saturated the
# row and no negative structure is recoverable.
MIN_NEGATIVE_MASS = 1e-12


@dataclass
class Temperature:
    """Learnable softmax temperature, parameterized as log(1/tau).

    The effective 1/tau is exp(log_inv_tau) clamped to [0.01, 100], which
    keeps tau itself inside [0.01, 100]. The log parameterization keeps the
    temperature positive under gradient updates.
    """

    log_inv_tau: float

    @classmethod
    def from_tau(cls, tau: float) -> "Temperature":
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        return cls(log_inv_tau=float(-np.log(tau)))

    @property
    def inv_tau(self) -> float:
        return float(min(max(np.exp(self.log_inv_tau), 1.0 / TAU_MAX), 1.0 / TAU_MIN))

    @property
    def tau(self) -> float:
        return 1.0 / self.inv_tau

    @property
    def clamp_active(self) -> bool:
        raw = np.exp(self.log_inv_tau)
        return bool(raw < 1.0 / TAU_MAX or raw > 1.0 / TAU_MIN)


@dataclass(frozen=True)
class NegDisentangled:
    """Row distributions with the positive (diagonal) entry removed.

    ``inner`` has shape (N, N-1); column j of row i corresponds to the
    original column j when j < i and to column j+1 otherwise (the diagonal
    is skipped). Every row sums to 1.
    """

    inner: np.ndarray
    batch_size: int

    def original_index(self, i: int, j: int) -> int:
        """Original column index of entry (i, j) in the compact layout."""
        return j if j < i else j + 1


def check_row_stochastic(m: np.ndarray, atol: float = 1e-9) -> None:
    """Raise if ``m`` is not row-stochastic within ``atol``."""
    m = as_matrix(m, "distribution")
    if (m < -atol).any() or (m > 1.0 + atol).any():
        raise ValueError("entries outside [0, 1]")
    err = np.abs(m.sum(axis=1) - 1.0).max()
    if err > atol:
        raise ValueError(f"row sums deviate from 1 by {err:.3e}")


def _check_pair(v: np.ndarray, t: np.ndarray) -> None:
    if v.shape != t.shape:
        raise ShapeMismatch(f"embedding batches differ: {v.shape} vs {t.shape}")
    if v.shape[0] < 2:
        raise BatchTooSmall(f"need at least 2 rows, got {v.shape[0]}")


def cross_modal_dist(v, t, tau: Temperature) -> np.ndarray:
    """Row softmax of pairwise similarities between two unit-row batches.

    out[i, j] = softmax_j(<v_i, t_j> / tau). The reverse direction is the
    same call with the arguments swapped.
    """
    v = as_matrix(v, "v")
    t = as_matrix(t, "t")
    _check_pair(v, t)
    return backend.softmax_rows(gram(v, t) * tau.inv_tau)


def intra_modal_dist(x, tau: Temperature) -> np.ndarray:
    """Self-similarity distribution of one batch; diagonal included."""
    x = as_matrix(x, "x")
    _check_pair(x, x)
    return backend.softmax_rows(gram(x, x) * tau.inv_tau)


def one_hot_targets(n: int) -> np.ndarray:
    """Identity targets: the paired sample is the only positive."""
    if n < 1:
        raise BatchTooSmall(f"need n >= 1, got {n}")
    return np.eye(n)


def label_smooth_targets(n: int, alpha: float) -> np.ndarray:
    """Smoothed targets: 1-alpha on the diagonal, alpha/(n-1) elsewhere."""
    if n < 2:
        raise BatchTooSmall(f"need n >= 2, got {n}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    out = np.full((n, n), alpha / (n - 1))
    np.fill_diagonal(out, 1.0 - alpha)
    return out


def mix_targets(onehot, soft, beta: float) -> np.ndarray:
    """Convex mix (1-beta)*onehot + beta*soft, entrywise."""
    onehot = as_matrix(onehot, "onehot")
    soft = as_matrix(soft, "soft")
    if onehot.shape != soft.shape:
        raise ShapeMismatch(f"target shapes differ: {onehot.shape} vs {soft.shape}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    return (1.0 - beta) * onehot + beta * soft


def disentangle_negatives(p) -> NegDisentangled:
    """Drop each row's diagonal entry and renormalize the rest.

    Raises:
        DegenerateRow: if a row's off-diagonal mass is below 1e-12 (the
            positive has fully saturated; negative ratios are meaningless).
    """
    p = as_matrix(p, "p")
    n = p.shape[0]
    if p.shape[1] != n:
        raise ShapeMismatch(f"need a square matrix, got {p.shape}")
    if n < 2:
        raise BatchTooSmall(f"need at least 2 rows, got {n}")
    # compact (N, N-1) layout skipping the diagonal; summing the compact
    # entries avoids the cancellation of 1 - p_ii on saturated rows
    mask = ~np.eye(n, dtype=bool)
    compact = p[mask].reshape(n, n - 1)
    neg_mass = compact.sum(axis=1)
    if (neg_mass < MIN_NEGATIVE_MASS).any():
        bad = int(np.argmax(neg_mass < MIN_NEGATIVE_MASS))
        raise DegenerateRow(
            f"row {bad} has off-diagonal mass {neg_mass[bad]:.3e} < {MIN_NEGATIVE_MASS}"
        )
    compact = compact / neg_mass[:, None]
    return NegDisentangled(inner=compact, batch_size=n)

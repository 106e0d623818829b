"""Matrix validation, row normalization and rank helpers shared by every module.

A "matrix" throughout the package is a 2-D C-contiguous float64 ndarray
with finite entries; :func:`as_matrix` is the single validation gate,
:func:`all_finite` the one finite test (of that gate, training values and
loaded files), and :func:`l2_normalize_rows` the one row normalizer
(embeddings, synthetic concept vectors); its :func:`row_norms` is the
zero-row rule the loss graph shares, and :func:`first_flagged_row` names
the row that rule or the graph's negative-mass rule rejects. The row
kernels live in :mod:`softalign.backend`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, ZeroRow

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
    if not all_finite(m):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def all_finite(x) -> bool:
    """Whether every entry of ``x`` is finite: a finite sum proves it with
    no temporary, where a dot product would copy an unaligned view of a
    mapped file; only an overflow needs the elementwise scan."""
    flat = np.ravel(x)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(np.add.reduce(flat)) or np.isfinite(flat).all())


def row_norms(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Euclidean norms over the last axis of ``m``, a matrix or a stack.

    Raises:
        ZeroRow: naming ``name`` and the first row whose norm is below
            1e-300 (direction undefined).
    """
    norms = np.sqrt((m * m).sum(axis=-1))
    low = norms < _MIN_ROW_NORM
    if low.any():
        bad, where = first_flagged_row(low)
        raise ZeroRow(f"{name}: {where} has norm {norms[bad]:.3e}, cannot normalize")
    return norms


def first_flagged_row(low: np.ndarray, r0: int = 0) -> tuple[tuple, str]:
    """The index of the first True entry of ``low``, a flag per row (of a
    stack, on its first axis), and its label ``"row i"`` or ``"row i of
    stack entry b"``, with the row counted from the block's first row ``r0``."""
    bad = np.unravel_index(int(np.argmax(low)), low.shape)
    return bad, f"row {r0 + bad[-1]}" + (f" of stack entry {bad[0]}" if len(bad) > 1 else "")


def l2_normalize_rows(m) -> np.ndarray:
    """Scale every row to unit Euclidean norm (``ZeroRow``: :func:`row_norms`)."""
    m = as_matrix(m)
    return m / row_norms(m)[:, None]


def floored_log(m: np.ndarray, floor: float) -> np.ndarray:
    """Entrywise log in which only exact zeros are replaced by ``floor``.

    Positive entries keep their exact log, however small, so a reference
    computed from stored probabilities agrees with one computed in log
    space; the floor only keeps ``0 * log(0)`` terms finite. The log runs
    on ``m`` itself unless it has an entry that is not positive (zero,
    negative or NaN); then only those entries of a copy are replaced.
    """
    low = ~(m > 0.0)
    if low.any():
        m = m.copy()
        m[low] = floor
    return np.log(m)


def off_diagonal_view(m: np.ndarray) -> np.ndarray:
    """An (n - 1, n) view of a square matrix's off-diagonal entries.

    Past the first entry, the flat matrix splits into rows of n + 1 whose
    last entry is the next diagonal one, so dropping that column leaves
    exactly the off-diagonal entries, in row-major order when the view is
    read in C order, with no n x n mask and no copy.
    """
    n = m.shape[0]
    return m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def off_diagonal_ranks(m: np.ndarray) -> np.ndarray:
    """``average_ranks(off_diagonal_view(m))``, bit for bit, from half the sort.

    A symmetric ``m`` (``np.array_equal(m, m.T)``, so no NaN) holds each
    off-diagonal value twice, at (i, j) and (j, i). Its strict upper
    triangle is gathered row by row and ranked alone: a tie group of size
    k there is a group of size 2k in the full set, with the k smaller
    twin pairs below it, so its mean rank r becomes 2r - 1/2. The ranks
    are integers or halves, so that is exact. Each triangle rank is then
    written to both twins. Any other ``m`` has its whole view ranked as
    it lies, since :func:`average_ranks` reads any strides (a NaN sends it
    to its argsort path, on a flat copy).
    """
    if not np.array_equal(m, m.T):
        return average_ranks(off_diagonal_view(m))
    n = m.shape[0]
    upper = np.empty(n * (n - 1) // 2, dtype=m.dtype)
    start = 0
    for i in range(n - 1):
        upper[start:start + n - 1 - i] = m[i, i + 1:]
        start += n - 1 - i
    ranks = average_ranks(upper)
    del upper
    ranks *= 2
    ranks -= 0.5
    out = np.empty(n * (n - 1))
    # row i of the off-diagonal entries skips column i: (i, j > i) sits in
    # its column j - 1, and its twin (j, i) in row j's column i
    rows = out.reshape(n, n - 1)
    start = 0
    for i in range(n - 1):
        seg = ranks[start:start + n - 1 - i]
        rows[i, i:] = seg
        rows[i + 1:, i] = seg
        start += n - 1 - i
    return out


# average_ranks falls back to argsort when more sorted entries than this
# need re-sorting by their full key: past it the fallback is as fast
_MAX_RESORTED = 1 << 18
# entries whose indices average_ranks packs per step
_INDEX_CHUNK = 1 << 20


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-D, 1-based ranks of ``x`` read in C order; ties share their mean rank.

    ``x`` may have any shape and strides, such as an
    :func:`off_diagonal_view`; float64 input needs no flat copy besides
    its sort key. It is ranked with one in-place ``ndarray.sort`` of uint64
    keys, not ``np.argsort``. ``x + 0.0`` makes -0.0 and 0.0 one value;
    flipping the sign bit of non-negatives and every bit of negatives
    maps the floats to unsigned integers in the same order (the full
    key). For m entries, the top ``64 - bits`` bits of the full key with
    the entry's index in the low ``bits = (m - 1).bit_length()`` bits
    give a packed key, so sorting the packed keys sorts the entries, up
    to runs of neighbours whose truncated keys collide. Only those runs
    can hold ties or misordered entries. Their full keys are compared
    pairwise, and the runs found out of order are re-sorted by full key;
    runs of equal values, such as the twin entries of a symmetric
    matrix, need no re-sort. Tie groups get the same mean rank as
    :func:`_argsort_average_ranks`, bit for bit.

    Other dtypes, input with a NaN, and input where more than
    ``_MAX_RESORTED`` entries need re-sorting take the argsort path, on
    ``x.reshape(-1)``.
    """
    if x.dtype != np.float64 or np.isnan(x).any():
        return _argsort_average_ranks(x.reshape(-1))
    m = x.size
    bits = max(m - 1, 0).bit_length()
    # -0.0 + 0.0 == 0.0: one key for zero. The sum is a fresh array laid
    # out like x, so for a C-ordered view, flattening it copies nothing
    key = (x + 0.0).reshape(-1).view(np.uint64)
    # all ones for negatives, the sign bit alone for the rest
    packed = (key.view(np.int64) >> 63).view(np.uint64)
    packed |= np.uint64(1 << 63)
    key ^= packed
    np.right_shift(key, bits, out=packed)
    packed <<= bits
    for start in range(0, m, _INDEX_CHUNK):  # no m-entry index array
        stop = min(start + _INDEX_CHUNK, m)
        packed[start:stop] |= np.arange(start, stop, dtype=np.uint64)
    packed.sort()
    # neighbours whose truncated keys are equal
    collide = (packed[1:] ^ packed[:-1]) < np.uint64(1 << bits)
    packed &= np.uint64((1 << bits) - 1)
    order = packed.view(np.int64)
    # lo[j] and hi[j] are the full keys at sorted positions at[j], at[j] + 1
    at = np.flatnonzero(collide)
    del collide
    lo, hi = key[order[at]], key[order[at + 1]]
    desc = hi < lo
    if desc.any():
        # the collision runs holding a descent, as sorted positions
        opens = np.ones(at.size, dtype=bool)
        opens[1:] = at[1:] != at[:-1] + 1
        run = np.cumsum(opens) - 1
        bad = np.zeros(run[-1] + 1, dtype=bool)
        bad[run[desc]] = True
        redo = bad[run]
        span = at[redo]
        pos = np.union1d(span, span + 1)
        if pos.size > _MAX_RESORTED:
            del key, lo, hi, packed, order
            return _argsort_average_ranks(x.reshape(-1))
        # runs sit in increasing key order, so one sort re-sorts each run
        idx = order[pos]
        order[pos] = idx[np.argsort(key[idx], kind="stable")]
        lo[redo], hi[redo] = key[order[span]], key[order[span + 1]]
    cont = at[hi == lo] + 1  # sorted positions tied with their predecessor
    del key, lo, hi, desc, at
    sorted_ranks = np.arange(1, m + 1, dtype=np.float64)
    if cont.size:
        new = np.ones(cont.size, dtype=bool)
        new[1:] = cont[1:] != cont[:-1] + 1
        starts = cont[new] - 1
        ends = cont[np.append(new[1:], True)] + 1
        # the same mean as _argsort_average_ranks: groups [b_k, b_{k+1})
        mean = 0.5 * (starts + ends + 1)
        sorted_ranks[cont] = mean[np.cumsum(new) - 1]
        sorted_ranks[starts] = mean
    ranks = np.empty(m)
    ranks[order] = sorted_ranks
    return ranks


def _argsort_average_ranks(x: np.ndarray) -> np.ndarray:
    """:func:`average_ranks` by ``np.argsort``, for any orderable dtype."""
    order = np.argsort(x)  # tie order is irrelevant: ties share a rank
    xs = x[order]
    first = np.concatenate(([True], xs[1:] != xs[:-1]))
    bounds = np.concatenate((np.flatnonzero(first), [x.size]))
    group = np.cumsum(first) - 1
    ranks = np.empty(x.size)
    # a tie group spanning sorted positions [b_k, b_{k+1}) holds ranks
    # b_k + 1 .. b_{k+1}, whose mean is (b_k + b_{k+1} + 1) / 2
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks

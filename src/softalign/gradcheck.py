"""Analytic gradients of every objective, verified by central differences.

The forward math mirrors :mod:`softalign.objectives` but is computed in
log space (log-softmax instead of log of stored probabilities), which
keeps every term smooth; both paths floor only exact zeros inside logs
(:func:`softalign.numkit.floored_log`), and
``tests/test_gradcheck.py::test_graph_matches_reference`` checks that
they agree to 1e-12 relative on every selector, divergence and
supervision form. A selector sums the weighted terms
:meth:`LossConfig.terms` lists, each a v2l and an l2v direction with
fixed (:func:`_clip_direction`) or softened (:func:`_soft_direction`)
targets; the relation-enhanced case of the latter drops the positive
from both rows, renormalizes the negatives and chains the target
gradient through that renormalization. A direction returns its
unweighted per-row values, already scaled (-1 for cross-entropy, 0.5 for
symmetric KL and JS; exact in binary); the weight scales its gradient
and the sum.
Gradients are hand-derived per stage and composed:

* softmax rows:       dz = p * (g - sum_j p_j g_j)         (vjp)
* forward KL:         dz_pred = p - t
* reverse KL:         dz_pred = vjp(p, log p - log t)
* JS:                 dz_pred = vjp(p, 0.5 * log(p / m)),  m = (t + p) / 2
* target mixing:      dG = beta * dT
* disentangling:      dT_offdiag = (h - sum_j h_j q_j) / s,  dT_diag = 0
* logits:             z = (x yT) / tau;  dx = dz y / tau,  dy = dzT x / tau
* temperature:        d log(1/tau) = sum(dz * z)           (0 when clamped)
* row normalization:  dx_raw = (dx - <dx, x> x) / ||x_raw||

With ``stop_gradient_targets`` the softened targets are treated as
constants: their branches receive no gradient, and the finite-difference
oracle evaluates the forward against targets frozen at the base point
(one ``targets`` table, filled by a :func:`_run` at that point and passed
back) so both sides differentiate the same function. The oracle perturbs
only the inputs :meth:`LossConfig.live_inputs` names.

The forward makes few passes over the N x N matrices and keeps them in
cache. Each logits key runs one fused softmax/log-softmax; each guidance
key builds one plain target, from which its disentangled one is derived;
symmetric KL derives both KLs, the prediction VJP and the target
gradient from one log-ratio, and JS each side's KL and gradient from one
log-ratio to the mixture. Once the logits exist, the terms walk the
rows in blocks of ``_BLOCK_ROWS`` (:func:`_run`), so a block's
temporaries fit a core's L2 cache at N=512; the matmuls on either side
stay whole-matrix and serial. A batch of several blocks runs them on a
thread pool with up to one thread per usable CPU; a one-block batch
starts no thread. A block does only elementwise work and row reductions,
no BLAS call, and keeps its own rows of each logits gradient; once every
block has ended, each gradient is stitched from them in row order. Every
kernel and reduction works row by row in the same order as the unfused
formulas, and every block adds its contributions to each key in the same
order, so values and gradients keep their bits for any block size and
thread count. An error about a degenerate row names its row in the whole
batch; with several degenerate rows, the first block in row order that
holds one decides which error is raised.

The forward also takes inputs with a leading batch axis, ``(B, N, D)``:
row kernels reduce over the last axis, logits are batched matmuls and a
direction's value is one number per stack entry, so :func:`_run` returns
a ``(B,)`` value. Inputs without the axis broadcast against those with
it. The finite-difference oracle stacks all ``±eps`` perturbations of one
input and evaluates them in one forward. The backward (:meth:`_Graph.finalize`)
takes plain ``(N, D)`` matrices only.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import backend
from .distributions import (
    MIN_NEGATIVE_MASS,
    Temperature,
    label_smooth_targets,
    one_hot_targets,
)
from .errors import BatchTooSmall, DegenerateRow, ShapeMismatch
from .numkit import as_matrix, floored_log, row_norms
from .objectives import BUNDLE_INPUTS, LOSS_VARIANTS, SUPERVISION_FORMS, LossConfig

SELECTORS = LOSS_VARIANTS

_INPUT_NAMES = ("v", "t", "r", "a")


def _as_input(x, name: str, dtype) -> np.ndarray:
    """One graph input: an ``(N, D)`` matrix through :func:`as_matrix`, or a
    ``(B, N, D)`` stack of them validated the same way."""
    if np.ndim(x) != 3:
        return as_matrix(x, name, dtype)
    x = np.asarray(x)
    b, n, d = x.shape
    return as_matrix(x.reshape(b * n, d), name, dtype).reshape(b, n, d)


@dataclass(frozen=True)
class GradientBundle:
    """Gradients w.r.t. the four raw (pre-normalization) embedding batches
    and the log(1/tau) parameter(s)."""

    d_v: np.ndarray
    d_t: np.ndarray
    d_r: np.ndarray
    d_a: np.ndarray
    d_log_inv_tau: float
    d_log_inv_tau_guidance: Optional[float] = None

    def by_name(self, name: str) -> np.ndarray:
        return getattr(self, f"d_{name}")


@dataclass(frozen=True)
class ParamCheck:
    name: str
    max_rel_err: float
    max_abs_err: float
    passed: bool


@dataclass(frozen=True)
class GradCheckReport:
    """Comparison of analytic vs central-difference gradients."""

    selector: str
    n: int
    d: int
    epsilon: float
    tolerance: float
    passed: bool
    params: tuple[ParamCheck, ...] = field(default_factory=tuple)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    @property
    def max_abs_err(self) -> float:
        return max((p.max_abs_err for p in self.params), default=0.0)

    def to_dict(self) -> dict:
        d = asdict(self)
        params = d.pop("params")
        return {**d, "max_rel_err": self.max_rel_err,
                "max_abs_err": self.max_abs_err, "params": list(params)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# computation graph
# ---------------------------------------------------------------------------

# rows of the N x N loss matrices one block of the graph works on: at
# N=512 a float64 block temporary is 256 KB, so a direction's temporaries
# stay in a core's 2 MiB L2 cache; a batch of at most this many rows is
# one block
_BLOCK_ROWS = 64


class _Graph:
    """Shared state of one forward (and optional backward) evaluation.

    It holds the inputs, the whole ``(N, N)`` logits, cached by (source,
    destination, temperature group) and computed by :meth:`logits` before
    any block starts, and each logits key's whole gradient, stitched from
    the blocks' (:class:`_Block`) rows, which :meth:`finalize` pushes
    through the temperature scaling and row normalization.
    ``targets``, when given, maps ``(first row of the block, guidance
    logits key, disentangled)`` to that block's softened targets
    ``(t, log t, s)`` (:func:`_targets`): an entry already in it is used
    as is, a missing one is computed and stored.
    """

    def __init__(self, v, t, r, a, tau: Temperature, cfg: LossConfig,
                 guidance_tau: Optional[Temperature] = None,
                 want_grad: bool = False,
                 targets: Optional[dict] = None,
                 dtype=np.float64):
        # inputs are validated in the graph dtype, so the oracle's
        # extended-precision perturbations are not rounded to float64
        raw = {name: _as_input(x, name, dtype)
               for name, x in zip(_INPUT_NAMES, (v, t, r, a))}
        n = raw["v"].shape[-2]
        for name in _INPUT_NAMES:
            if raw[name].shape[-2] != n:
                raise ShapeMismatch(
                    f"batch sizes differ: v has {n} rows, {name} has {raw[name].shape[-2]}"
                )
        if n < 2:
            raise BatchTooSmall(f"need at least 2 rows, got {n}")
        if raw["v"].shape[-1] != raw["t"].shape[-1]:
            raise ShapeMismatch(f"v/t shapes differ: {raw['v'].shape} vs {raw['t'].shape}")
        if raw["r"].shape[-1] != raw["a"].shape[-1]:
            raise ShapeMismatch(f"r/a shapes differ: {raw['r'].shape} vs {raw['a'].shape}")
        if want_grad and any(m.ndim == 3 for m in raw.values()):
            raise ValueError("the backward takes (N, D) inputs, not stacks")

        self.cfg = cfg
        self.n = n
        self.want_grad = want_grad
        self.targets = targets

        self.raw = raw
        self.norms = {k: row_norms(m, f"input {k}") for k, m in raw.items()}
        self.unit = {k: raw[k] / self.norms[k][..., None] for k in raw}

        self.split = cfg.split_guidance_temperature
        if self.split and guidance_tau is None:
            raise ValueError("split_guidance_temperature=True needs a guidance_tau")
        self.temps = {"pred": tau}
        if self.split:
            self.temps["guid"] = guidance_tau
        # clamped 1/tau evaluated in the graph dtype so perturbing
        # log_inv_tau stays smooth at the oracle's precision
        self._inv_tau = {group: temp.inv_tau_in(dtype)
                         for group, temp in self.temps.items()}

        self._z: dict = {}
        self._dz: dict = {}

    def key(self, src: str, dst: str, guidance: bool) -> tuple:
        return (src, dst, "guid" if guidance and self.split else "pred")

    def logits(self, key) -> None:
        """Run the whole-matrix matmul of logits ``key`` once."""
        if key not in self._z:
            src, dst, group = key
            z = self.unit[src] @ np.swapaxes(self.unit[dst], -1, -2)
            z *= self._inv_tau[group]
            self._z[key] = z

    def finalize(self) -> GradientBundle:
        d_unit = {k: np.zeros_like(m) for k, m in self.unit.items()}
        d_log = {"pred": 0.0, "guid": 0.0}
        for (src, dst, group), dz in self._dz.items():
            inv_tau = self._inv_tau[group]
            d_unit[src] += inv_tau * (dz @ self.unit[dst])
            d_unit[dst] += inv_tau * (dz.T @ self.unit[src])
            if not self.temps[group].clamp_active:
                d_log[group] += float((dz * self._z[(src, dst, group)]).sum())
        d_raw = {}
        for name in _INPUT_NAMES:
            x = self.unit[name]
            g = d_unit[name]
            inner = (g * x).sum(axis=1, keepdims=True)
            d_raw[name] = (g - inner * x) / self.norms[name][:, None]
        return GradientBundle(
            d_v=d_raw["v"], d_t=d_raw["t"], d_r=d_raw["r"], d_a=d_raw["a"],
            d_log_inv_tau=d_log["pred"],
            d_log_inv_tau_guidance=d_log["guid"] if self.split else None,
        )


class _Block:
    """Rows ``r0 .. r1 - 1`` of a graph's loss terms and their caches.

    A block reads only logits its graph already holds, keeps its rows of
    each logits gradient in :attr:`dz` and writes only its own entries of
    the target table, so blocks of one graph can run at the same time. The
    row kernels of a logits key are cached as a ``(softmax, log-softmax)``
    pair per ``(key, offdiag)`` (:meth:`rows`).
    """

    def __init__(self, graph: _Graph, r0: int, r1: int):
        self.graph = graph
        self.cfg, self.n, self.want_grad = graph.cfg, graph.n, graph.want_grad
        self.r0, self.r1 = r0, r1
        self._rows: dict = {}
        # its rows of each logits gradient, in first-contribution key order
        self.dz: dict = {}
        # without a table (training) a block's targets live only as long
        # as the block
        self.table = {} if graph.targets is None else graph.targets

    def z(self, key) -> np.ndarray:
        """The block's rows of logits ``key``."""
        return self.graph._z[key][..., self.r0:self.r1, :]

    def rows(self, key, offdiag: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``(softmax, log-softmax)`` of the block's rows of logits ``key``;
        ``offdiag`` gives them for a ``-inf`` diagonal, after checking the
        plain rows' off-diagonal mass, with the diagonal's log zeroed."""
        if (key, offdiag) not in self._rows:
            if offdiag:
                _off_diagonal(self.rows(key)[0], "prediction", self.r0)
                z = self.z(key).copy()
                backend.fill_diagonal(z, -np.inf, self.r0)
                p, ln_p = backend.softmax_logsoftmax_rows(z)
                # the dropped positive's log is -inf: zeroed like t's
                backend.fill_diagonal(ln_p, 0.0, self.r0)
            else:
                p, ln_p = backend.softmax_logsoftmax_rows(self.z(key))
            self._rows[key, offdiag] = (p, ln_p)
        return self._rows[key, offdiag]

    def add_dz(self, key, contribution: np.ndarray) -> None:
        """Add a fresh ``contribution`` to the block's rows of the gradient
        w.r.t. logits ``key``; the block may keep the array itself."""
        if key in self.dz:
            self.dz[key] += contribution
        else:
            self.dz[key] = contribution


# ---------------------------------------------------------------------------
# per-direction terms
# ---------------------------------------------------------------------------

def _clip_direction(block: _Block, pred_key, weight: float,
                    targets: np.ndarray) -> np.ndarray:
    """Cross-entropy of fixed targets (the block's rows) against one
    softmax direction: the per-row values ``-sum targets * log p``.
    ``weight`` scales the gradient only."""
    p, ln_p = block.rows(pred_key)
    rows = -(targets * ln_p).sum(axis=-1)
    if block.want_grad and weight != 0.0:
        dz = p - targets
        dz *= weight / block.n
        block.add_dz(pred_key, dz)
    return rows


def _off_diagonal(rows: np.ndarray, side: str, r0: int) -> tuple[np.ndarray, np.ndarray]:
    """A copy of the block ``rows`` from ``r0`` with its diagonal zeroed and
    each row's off-diagonal mass; rejects rows below the floor."""
    q = rows.copy()
    backend.fill_diagonal(q, 0.0, r0)
    # summed directly: 1 - rows_ii loses ~8 digits when the softmax saturates
    mass = q.sum(axis=-1)
    low = mass < MIN_NEGATIVE_MASS
    if low.any():
        bad = np.unravel_index(int(np.argmax(low)), mass.shape)
        where = f"row {r0 + bad[-1]}" + (f" of stack entry {bad[0]}" if len(bad) > 1 else "")
        raise DegenerateRow(
            f"{side} {where} has off-diagonal mass {mass[bad]:.3e}; "
            "cannot renormalize negatives"
        )
    return q, mass


def _targets(block: _Block, guid_key, disentangled: bool):
    """The block's softened targets from guidance ``guid_key`` as
    (t, log t, s), kept in the target table under
    ``(block.r0, guid_key, disentangled)``.

    Plain, ``t = (1 - beta) I + beta G`` is built as ``beta G`` plus
    ``1 - beta`` on the diagonal, and ``s`` is None. Disentangled, the
    plain ``t``'s diagonal is dropped and the rest divided by the
    off-diagonal mass ``s`` (diagonals of ``t`` and ``log t`` are 0).
    """
    key = (block.r0, guid_key, disentangled)
    if key in block.table:
        return block.table[key]
    floor = block.cfg.target_floor
    if disentangled:
        q, s = _off_diagonal(_targets(block, guid_key, False)[0], "target", block.r0)
        q /= s[..., None]
        # a 1 on the diagonal gives the 0 of log t there (log 1 is +0)
        backend.fill_diagonal(q, 1.0, block.r0)
        ln_q = floored_log(q, floor)
        backend.fill_diagonal(q, 0.0, block.r0)
        entry = (q, ln_q, s)
    else:
        beta = block.cfg.beta
        t = beta * block.rows(guid_key)[0]
        diagonal = np.diagonal(t, block.r0, -2, -1)
        backend.fill_diagonal(t, diagonal + (1.0 - beta), block.r0)
        entry = (t, floored_log(t, floor), None)
    block.table[key] = entry
    return entry


def _soft_direction(block: _Block, pred_key, guid_key, weight: float,
                    disentangled: bool) -> np.ndarray:
    """One direction of the softened-target divergence on the block's rows:
    the per-row divergences, scaled by 0.5 for symmetric KL and JS.

    ``weight`` scales the gradient only. ``disentangled`` gives the
    relation-enhanced term: the positive is dropped from both rows and
    the negatives renormalized, so the prediction side is the softmax of
    the logits with a ``-inf`` diagonal, the diagonals of ``p``, ``log p``,
    ``t`` and ``log t`` are all 0 (a log or a division that would not be
    finite there sees 1 instead), the target gradient is zeroed on the
    diagonal and chained through the renormalization. Temporaries are
    updated in place; every value keeps the bits of the unfused formulas.
    """
    cfg = block.cfg
    p, ln_p = block.rows(pred_key, offdiag=disentangled)
    t, ln_t, s = _targets(block, guid_key, disentangled)
    # the finite-difference oracle runs this forward-only, so gradient
    # terms are built only when asked for
    grad_p = block.want_grad and weight != 0.0
    grad_t = grad_p and not cfg.stop_gradient_targets
    # dz: gradient w.r.t. the prediction logits; h: w.r.t. the targets t,
    # before the chain through s and the guidance softmax
    dz = h = None

    mode = cfg.divergence
    if mode == "forward_kl":
        log_ratio = ln_t - ln_p
        rows = (t * log_ratio).sum(axis=-1)
        if grad_p:
            dz = p - t
        if grad_t:
            h = log_ratio
            h += 1.0
    elif mode == "symmetric_kl":
        # one log-ratio gm serves both KLs: KL(t||p) = -sum t gm, and
        # KL(p||t) = sum p gm is the inner product of the VJP of gm
        gm = ln_p - ln_t
        pg = p * gm
        kl_pt = pg.sum(axis=-1)
        rows = 0.5 * (kl_pt - (t * gm).sum(axis=-1))
        if grad_p:
            # 0.5 (p - t) + 0.5 vjp(p, gm)
            dz = p - t
            dz *= 0.5
            np.subtract(gm, kl_pt[..., None], out=pg)
            pg *= p
            pg *= 0.5
            dz += pg
        if grad_t:
            # 0.5 (log t - log p + 1) - 0.5 p / t
            if disentangled:
                ratio = t.copy()
                backend.fill_diagonal(ratio, 1.0, block.r0)
                np.divide(p, ratio, out=ratio)
            else:
                ratio = p / t
            ratio *= 0.5
            h = np.subtract(1.0, gm, out=gm)
            h *= 0.5
            h -= ratio
    elif mode == "js":
        ln_m = t + p
        ln_m *= 0.5
        if disentangled:  # log 1 = +0 on the diagonal, as for p and t
            backend.fill_diagonal(ln_m, 1.0, block.r0)
        np.log(ln_m, out=ln_m)
        # one log-ratio per side gives its KL to m and, halved, its gradient
        gt = ln_t - ln_m
        gp = np.subtract(ln_p, ln_m, out=ln_m)
        rows = 0.5 * ((t * gt).sum(axis=-1) + (p * gp).sum(axis=-1))
        if grad_p:
            gp *= 0.5
            dz = backend.softmax_vjp_rows(p, gp, out=gp)
        if grad_t:
            h = np.multiply(gt, 0.5, out=gt)
    else:  # pragma: no cover - LossConfig validates
        raise ValueError(f"unknown divergence {mode!r}")

    c = weight / block.n
    if dz is not None:
        dz *= c
        block.add_dz(pred_key, dz)
    if h is not None:
        if disentangled:
            # through q = t / s with s the off-diagonal sum:
            # (h - sum_k h_k q_k) / s off the diagonal, 0 on it. Any form
            # that differs by a per-row constant is equal after the softmax
            # VJP, but a constant of size 1/s leaves rounding times 1/s
            # behind when the guidance row saturates and s is tiny
            backend.fill_diagonal(h, 0.0, block.r0)
            h -= (h * t).sum(axis=-1, keepdims=True)
            h /= s[..., None]
            backend.fill_diagonal(h, 0.0, block.r0)
        h *= cfg.beta
        h = backend.softmax_vjp_rows(block.rows(guid_key)[0], h, out=h)
        h *= c
        block.add_dz(guid_key, h)
    return rows


# ---------------------------------------------------------------------------
# selector-level runner
# ---------------------------------------------------------------------------

def _direction_value(parts) -> np.ndarray:
    """A direction's value: the mean of its blocks' per-row values."""
    return np.concatenate(parts, axis=-1).mean(axis=-1)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(run_block, starts: range) -> list:
    """``run_block(r0)`` for each block start, in row order.

    The blocks run on a thread pool of one thread per usable CPU, at most
    one per block, that lives for this call; each block runs under the
    caller's ``np.errstate``. Every block runs to its end; the error of
    the first failing block in row order is raised, as the serial loop
    would raise it.
    """
    workers = min(len(starts), _usable_cpus())
    if workers == 1:
        return [run_block(r0) for r0 in starts]
    from concurrent.futures import ThreadPoolExecutor
    err = np.geterr()

    def run_under_errstate(r0: int):
        with np.errstate(**err):
            return run_block(r0)
    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run_under_errstate, r0) for r0 in starts]
    return [f.result() for f in futures]


def _run(selector: str, v, t, r, a, tau: Temperature, cfg: LossConfig,
         guidance_tau: Optional[Temperature] = None,
         want_grad: bool = False,
         targets: Optional[dict] = None,
         dtype=np.float64):
    """Evaluate one loss selector; returns (value, components, graph).

    ``components`` holds each term's unweighted value under its component
    name, and the value under the selector's name and ``total``. With a
    ``(B, N, D)`` stack among the inputs, each of them is a ``(B,)`` array.
    ``targets`` is the graph's softened-target table (see :class:`_Graph`).
    The logits every term reads are computed first; then each block of
    ``_BLOCK_ROWS`` rows runs both directions of every term
    (:func:`_map_blocks`), and a direction's per-row values are averaged
    over the blocks in row order.
    """
    cfg.check(selector)
    graph = _Graph(v, t, r, a, tau, cfg, guidance_tau, want_grad=want_grad,
                   targets=targets, dtype=dtype)
    n = graph.n
    k_it = graph.key("v", "t", guidance=False)
    k_ti = graph.key("t", "v", guidance=False)
    terms = cfg.terms(selector)
    fixed = {}  # each fixed-target kind's (N, N) targets
    guidance = {}  # each guidance bundle's (v2l, l2v) logits keys
    for _, bundle, kind, _ in terms:
        if kind == "clip":
            fixed[kind] = one_hot_targets(n)
        elif kind == "label_smooth":
            fixed[kind] = label_smooth_targets(n, cfg.alpha)
        else:
            names = BUNDLE_INPUTS[bundle]
            guidance[bundle] = tuple(
                graph.key(names[src], names[dst], guidance=True)
                for src, dst in SUPERVISION_FORMS[cfg.supervision_form])
    graph.logits(k_it)
    graph.logits(k_ti)
    if not targets:  # a filled table holds every softened target already
        for keys in guidance.values():
            for key in keys:
                graph.logits(key)

    def run_block(r0: int) -> tuple[dict, list]:
        """The block's gradient rows (:attr:`_Block.dz`) and each term's
        (v2l rows, l2v rows) on the block; the block and its row caches
        end here."""
        block = _Block(graph, r0, min(r0 + _BLOCK_ROWS, n))
        out = []
        for _, bundle, kind, weight in terms:
            w = 0.5 * weight  # each direction carries half the term
            if kind in fixed:
                y = fixed[kind][r0:block.r1]
                out.append((_clip_direction(block, k_it, w, y),
                            _clip_direction(block, k_ti, w, y)))
            else:
                g_v2l, g_l2v = guidance[bundle]
                disentangled = kind == "soft_re"
                out.append((
                    _soft_direction(block, k_it, g_v2l, w, disentangled),
                    _soft_direction(block, k_ti, g_l2v, w, disentangled)))
        return block.dz, out

    dzs, blocks = zip(*_map_blocks(run_block, range(0, n, _BLOCK_ROWS)))
    # finalize sums the keys in this order, which every block must share
    keys = [list(dz) for dz in dzs]
    assert all(k == keys[0] for k in keys), keys
    for key in keys[0]:  # each block's rows, in row order, then dropped
        graph._dz[key] = np.concatenate([dz.pop(key) for dz in dzs])
    components: dict = {}
    value = 0.0
    for i, (component, _, _, weight) in enumerate(terms):
        w = 0.5 * weight
        v2l = _direction_value([out[i][0] for out in blocks])
        l2v = _direction_value([out[i][1] for out in blocks])
        components[component] = 0.5 * v2l + 0.5 * l2v
        value += w * v2l + w * l2v
    if selector == "total":  # soft_re reads 0 when lambda_re leaves it out
        components.setdefault("soft_re", np.zeros_like(value))
    components[selector] = value
    components["total"] = value
    return value, components, graph


def forward_value(selector: str, v, t, r, a, tau: Temperature, cfg: LossConfig,
                  guidance_tau: Optional[Temperature] = None) -> float:
    """Forward value of one loss selector (no gradients)."""
    value, _, _ = _run(selector, v, t, r, a, tau, cfg, guidance_tau)
    return float(value)


def backward(selector: str, v, t, r, a, tau: Temperature, cfg: LossConfig,
             guidance_tau: Optional[Temperature] = None
             ) -> tuple[float, GradientBundle]:
    """Forward value plus exact gradients w.r.t. all raw inputs and tau."""
    value, _, graph = _run(selector, v, t, r, a, tau, cfg, guidance_tau,
                           want_grad=True)
    return float(value), graph.finalize()


def backward_with_components(
    selector: str, v, t, r, a, tau: Temperature, cfg: LossConfig,
    guidance_tau: Optional[Temperature] = None
) -> tuple[float, dict, GradientBundle]:
    """Like :func:`backward` but also returns the component values."""
    value, components, graph = _run(selector, v, t, r, a, tau, cfg,
                                    guidance_tau, want_grad=True)
    components = {k: float(x) for k, x in components.items()}
    return float(value), components, graph.finalize()


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_difference_grad(selector: str, v, t, r, a, tau: Temperature,
                           cfg: LossConfig, epsilon: float = 1e-5,
                           guidance_tau: Optional[Temperature] = None
                           ) -> GradientBundle:
    """Central-difference gradients, one batched forward per input.

    Perturbations are applied to the pre-normalization inputs. For each
    input the forward differentiates (:meth:`LossConfig.live_inputs`; the
    difference of any other is exactly zero and is recorded without a
    forward), the ``2k`` copies perturbed by ``+eps``
    (stack rows ``0..k-1``) and ``-eps`` (rows ``k..2k-1``) at each of its
    ``k`` coordinates are stacked along a leading axis and evaluated in
    one :func:`_run`; the temperature derivatives take two scalar
    forwards each. With ``stop_gradient_targets`` the softened targets are
    computed once at the base point and held fixed, matching the function
    the analytic backward differentiates. The forward passes run in
    extended precision where the platform provides it, which keeps the
    difference quotient's rounding floor far below the comparison
    tolerance; the perturbation math itself is the plain central formula.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    dtype = np.longdouble if np.finfo(np.longdouble).eps < 1e-18 else np.float64
    inputs = {name: as_matrix(x, name, dtype)
              for name, x in zip(_INPUT_NAMES, (v, t, r, a))}
    frozen = None
    if cfg.stop_gradient_targets:
        frozen = {}
        _run(selector, inputs["v"], inputs["t"], inputs["r"], inputs["a"],
             tau, cfg, guidance_tau, targets=frozen, dtype=dtype)

    def f(tau_eval: Temperature, g_tau_eval: Optional[Temperature], **stack):
        args = {**inputs, **stack}
        value, _, _ = _run(selector, args["v"], args["t"], args["r"],
                           args["a"], tau_eval, cfg,
                           guidance_tau=g_tau_eval, targets=frozen,
                           dtype=dtype)
        return value

    live = cfg.live_inputs(selector)
    grads = {}
    for name in _INPUT_NAMES:
        x = inputs[name]
        if name not in live:
            grads[name] = np.zeros(x.shape)
            continue
        k = x.size
        coord = np.arange(k)
        stack = np.repeat(x.reshape(1, k), 2 * k, axis=0)
        stack[coord, coord] = x.reshape(-1) + epsilon
        stack[k + coord, coord] = x.reshape(-1) - epsilon
        values = f(tau, guidance_tau, **{name: stack.reshape(2 * k, *x.shape)})
        diff = (values[:k] - values[k:]) / (2.0 * epsilon)
        grads[name] = diff.astype(np.float64).reshape(x.shape)

    def d_log_inv(temp: Temperature, at) -> float:
        """The central difference in ``temp``'s log(1/tau); ``at(shifted)``
        is the forward with ``shifted`` in ``temp``'s place."""
        ell = temp.log_inv_tau
        return float((at(Temperature(ell + epsilon)) - at(Temperature(ell - epsilon)))
                     / (2.0 * epsilon))

    d_log = d_log_inv(tau, lambda shifted: f(shifted, guidance_tau))
    d_log_g = None
    if cfg.split_guidance_temperature and guidance_tau is not None:
        d_log_g = d_log_inv(guidance_tau, lambda shifted: f(tau, shifted))
    return GradientBundle(
        d_v=grads["v"], d_t=grads["t"], d_r=grads["r"], d_a=grads["a"],
        d_log_inv_tau=d_log, d_log_inv_tau_guidance=d_log_g,
    )


def _param_check(name: str, analytic: np.ndarray, numeric: np.ndarray,
                 tolerance: float) -> ParamCheck:
    analytic = np.atleast_1d(np.asarray(analytic, dtype=np.float64))
    numeric = np.atleast_1d(np.asarray(numeric, dtype=np.float64))
    diff = np.abs(analytic - numeric)
    big = np.abs(analytic) > 1e-8
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(big, diff / np.where(scale > 0, scale, 1.0), 0.0)
    max_rel = float(rel.max()) if big.any() else 0.0
    max_abs = float(diff.max())
    passed = bool((rel[big] < tolerance).all() if big.any() else True)
    passed = passed and bool((diff[~big] < tolerance).all()
                             if (~big).any() else True)
    return ParamCheck(name=name, max_rel_err=max_rel, max_abs_err=max_abs,
                      passed=passed)


def check_gradients(selector: str, seed: int, n: int, d: int,
                    cfg: Optional[LossConfig] = None,
                    tolerance: float = 1e-5,
                    epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    Inputs are seeded standard-normal raw batches; failures are report
    content, not exceptions.
    """
    if cfg is None:
        cfg = LossConfig()
    if not 2 <= n <= 16:
        raise ValueError(f"n must be in [2, 16], got {n}")
    if not 1 <= d <= 32:
        raise ValueError(f"d must be in [1, 32], got {d}")
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    rng = np.random.default_rng(seed)
    v, t, r, a = (rng.standard_normal((n, d)) for _ in range(4))
    tau = Temperature.from_tau(cfg.tau_init)
    g_tau = Temperature.from_tau(cfg.tau_init) if cfg.split_guidance_temperature else None

    _, analytic = backward(selector, v, t, r, a, tau, cfg, guidance_tau=g_tau)
    numeric = finite_difference_grad(selector, v, t, r, a, tau, cfg,
                                     epsilon=epsilon, guidance_tau=g_tau)

    checks = [
        _param_check(name, analytic.by_name(name), numeric.by_name(name),
                     tolerance)
        for name in _INPUT_NAMES
    ]
    checks.append(_param_check("log_inv_tau", analytic.d_log_inv_tau,
                               numeric.d_log_inv_tau, tolerance))
    if cfg.split_guidance_temperature:
        checks.append(_param_check(
            "log_inv_tau_guidance", analytic.d_log_inv_tau_guidance,
            numeric.d_log_inv_tau_guidance, tolerance))
    return GradCheckReport(
        selector=selector, n=n, d=d, epsilon=epsilon, tolerance=tolerance,
        passed=all(c.passed for c in checks), params=tuple(checks),
    )

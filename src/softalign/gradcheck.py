"""Analytic gradients of every objective, verified by central differences.

The forward math mirrors :mod:`softalign.objectives` but is computed in
log space (log-softmax instead of log of stored probabilities), which
keeps every term smooth; the two paths agree to ~1e-12 and are
cross-checked in the test suite. Gradients are hand-derived per stage and
composed:

* softmax rows:       dz = p * (g - sum_j p_j g_j)         (vjp)
* forward KL:         dz_pred = p - t
* reverse KL:         dz_pred = vjp(p, log p - log t)
* JS:                 dz_pred = vjp(p, 0.5 * log(p / m)),  m = (t + p) / 2
* target mixing:      dG = beta * dT
* disentangling:      dT_offdiag = h / s,  dT_diag = sum_j h_j q_j / s
* logits:             z = (x yT) / tau;  dx = dz y / tau,  dy = dzT x / tau
* temperature:        d log(1/tau) = sum(dz * z)           (0 when clamped)
* row normalization:  dx_raw = (dx - <dx, x> x) / ||x_raw||

With ``stop_gradient_targets`` the softened targets are treated as
constants: their branches receive no gradient, and the finite-difference
oracle evaluates the forward against targets frozen at the base point so
both sides differentiate the same function.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import backend
from .distributions import (
    MIN_NEGATIVE_MASS,
    TAU_MAX,
    TAU_MIN,
    Temperature,
    label_smooth_targets,
)
from .errors import BatchTooSmall, DegenerateRow, ShapeMismatch
from .numkit import as_matrix
from .objectives import (
    LOSS_VARIANTS,
    SOFT_TARGET_VARIANTS,
    SUPERVISION_FORMS,
    LossConfig,
)

SELECTORS = LOSS_VARIANTS

_INPUT_NAMES = ("v", "t", "r", "a")


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
        return {
            "selector": self.selector,
            "n": self.n,
            "d": self.d,
            "epsilon": self.epsilon,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_rel_err": self.max_rel_err,
            "max_abs_err": self.max_abs_err,
            "params": [
                {
                    "name": p.name,
                    "max_rel_err": p.max_rel_err,
                    "max_abs_err": p.max_abs_err,
                    "passed": p.passed,
                }
                for p in self.params
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# computation graph
# ---------------------------------------------------------------------------

def _guarded_log(m: np.ndarray, floor: float) -> np.ndarray:
    # log of positive entries is exact; only true zeros hit the floor
    return np.log(np.where(m > 0.0, m, floor))


class _Graph:
    """Shared state of one forward (and optional backward) evaluation.

    Logits and softmax matrices are cached by (source, destination,
    temperature group); gradient contributions accumulate per logits key
    and are pushed through the temperature scaling and row normalization
    in :meth:`finalize`.
    """

    def __init__(self, v, t, r, a, tau: Temperature, cfg: LossConfig,
                 guidance_tau: Optional[Temperature] = None,
                 want_grad: bool = False,
                 frozen_targets: Optional[dict] = None,
                 target_collector: Optional[dict] = None,
                 dtype=np.float64):
        # inputs are validated in the graph dtype, so the oracle's
        # extended-precision perturbations are not rounded to float64
        raw = {name: as_matrix(x, name, dtype)
               for name, x in zip(_INPUT_NAMES, (v, t, r, a))}
        n = raw["v"].shape[0]
        for name in _INPUT_NAMES:
            if raw[name].shape[0] != n:
                raise ShapeMismatch(
                    f"batch sizes differ: v has {n} rows, {name} has {raw[name].shape[0]}"
                )
        if n < 2:
            raise BatchTooSmall(f"need at least 2 rows, got {n}")
        if raw["v"].shape != raw["t"].shape:
            raise ShapeMismatch(f"v/t shapes differ: {raw['v'].shape} vs {raw['t'].shape}")
        if raw["r"].shape != raw["a"].shape:
            raise ShapeMismatch(f"r/a shapes differ: {raw['r'].shape} vs {raw['a'].shape}")

        self.cfg = cfg
        self.n = n
        self.want_grad = want_grad
        self.frozen = frozen_targets
        self.collector = target_collector

        self.raw = raw
        self.norms = {k: np.sqrt((m * m).sum(axis=1)) for k, m in raw.items()}
        for name, nr in self.norms.items():
            if (nr < 1e-300).any():
                raise ValueError(f"input {name} has a zero row")
        self.unit = {k: raw[k] / self.norms[k][:, None] for k in raw}

        self.split = cfg.split_guidance_temperature
        if self.split and guidance_tau is None:
            raise ValueError("split_guidance_temperature=True needs a guidance_tau")
        self.temps = {"pred": tau}
        if self.split:
            self.temps["guid"] = guidance_tau
        # clamped 1/tau evaluated in the graph dtype so perturbing
        # log_inv_tau stays smooth at the oracle's precision
        self._inv_tau = {
            group: np.clip(np.exp(dtype(temp.log_inv_tau)),
                           dtype(1.0 / TAU_MAX), dtype(1.0 / TAU_MIN))
            for group, temp in self.temps.items()
        }

        self._z: dict = {}
        self._soft: dict = {}
        self._logsoft: dict = {}
        self._masked: dict = {}
        self._masked_log: dict = {}
        self._dz: dict = {}
        self._eye = np.eye(n, dtype=dtype)
        self._offdiag = ~np.eye(n, dtype=bool)

    def _group(self, guidance: bool) -> str:
        return "guid" if (guidance and self.split) else "pred"

    def key(self, src: str, dst: str, guidance: bool) -> tuple:
        return (src, dst, self._group(guidance))

    def z(self, key) -> np.ndarray:
        if key not in self._z:
            src, dst, group = key
            sims = self.unit[src] @ self.unit[dst].T
            self._z[key] = sims * self._inv_tau[group]
        return self._z[key]

    def softmax(self, key) -> np.ndarray:
        if key not in self._soft:
            self._soft[key] = backend.softmax_rows(self.z(key))
        return self._soft[key]

    def logsoftmax(self, key) -> np.ndarray:
        if key not in self._logsoft:
            self._logsoft[key] = backend.logsoftmax_rows(self.z(key))
        return self._logsoft[key]

    def masked_softmax(self, key) -> np.ndarray:
        if key not in self._masked:
            self._masked[key] = backend.masked_softmax_rows(self.z(key))
        return self._masked[key]

    def masked_logsoftmax(self, key) -> np.ndarray:
        if key not in self._masked_log:
            self._masked_log[key] = backend.masked_logsoftmax_rows(self.z(key))
        return self._masked_log[key]

    def vjp(self, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        return backend.softmax_vjp_rows(p, g)

    def kl_term_rows(self, a, log_a, log_b) -> np.ndarray:
        return backend.kl_term_rows(a, log_a, log_b)

    def add_dz(self, key, contribution: np.ndarray) -> None:
        if key in self._dz:
            self._dz[key] += contribution
        else:
            self._dz[key] = contribution.copy()

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


def _guidance_keys(graph: _Graph, form: str, r_name: str, a_name: str):
    """Logit keys of the (v2l, l2v) guidance distributions for a form."""
    names = {"r": r_name, "a": a_name}
    return tuple(graph.key(names[src], names[dst], guidance=True)
                 for src, dst in SUPERVISION_FORMS[form])


# ---------------------------------------------------------------------------
# per-direction terms
# ---------------------------------------------------------------------------

def _clip_direction(graph: _Graph, pred_key, weight: float,
                    targets: np.ndarray):
    """Cross-entropy of fixed targets against one softmax direction."""
    ln_p = graph.logsoftmax(pred_key)
    value = weight * -(targets * ln_p).sum(axis=1).mean()
    if graph.want_grad and weight != 0.0:
        p = graph.softmax(pred_key)
        graph.add_dz(pred_key, (weight / graph.n) * (p - targets))
    return value


def _plain_targets(graph: _Graph, guid_key, tag) -> tuple[np.ndarray, np.ndarray]:
    cfg = graph.cfg
    if graph.frozen is not None:
        return graph.frozen[tag]
    g = graph.softmax(guid_key)
    t = (1.0 - cfg.beta) * graph._eye + cfg.beta * g
    ln_t = _guarded_log(t, cfg.target_floor)
    if graph.collector is not None:
        graph.collector[tag] = (t, ln_t)
    return t, ln_t


def _soft_plain_direction(graph: _Graph, pred_key, guid_key, weight: float,
                          tag):
    """One direction of the softened-target loss on full distributions."""
    cfg = graph.cfg
    n = graph.n
    p = graph.softmax(pred_key)
    ln_p = graph.logsoftmax(pred_key)
    t, ln_t = _plain_targets(graph, guid_key, tag)
    mode = cfg.divergence
    c = weight / n
    grads_to_targets = (
        graph.want_grad and not cfg.stop_gradient_targets and weight != 0.0
    )

    if mode == "forward_kl":
        value = graph.kl_term_rows(t, ln_t, ln_p).mean()
        if graph.want_grad and weight != 0.0:
            graph.add_dz(pred_key, c * (p - t))
        if grads_to_targets:
            h = cfg.beta * (ln_t - ln_p + 1.0)
            g = graph.softmax(guid_key)
            graph.add_dz(guid_key, c * graph.vjp(g, h))
    elif mode == "symmetric_kl":
        u = ln_p - ln_t
        fwd = graph.kl_term_rows(t, ln_t, ln_p)
        rev = graph.kl_term_rows(p, ln_p, ln_t)
        value = 0.5 * (fwd + rev).mean()
        if graph.want_grad and weight != 0.0:
            dz = 0.5 * (p - t) + 0.5 * graph.vjp(p, u)
            graph.add_dz(pred_key, c * dz)
        if grads_to_targets:
            h = cfg.beta * (0.5 * (ln_t - ln_p + 1.0) - 0.5 * (p / t))
            g = graph.softmax(guid_key)
            graph.add_dz(guid_key, c * graph.vjp(g, h))
    elif mode == "js":
        m = 0.5 * (t + p)
        ln_m = np.log(m)
        value = 0.5 * (graph.kl_term_rows(t, ln_t, ln_m)
                       + graph.kl_term_rows(p, ln_p, ln_m)).mean()
        if graph.want_grad and weight != 0.0:
            graph.add_dz(pred_key, c * graph.vjp(p, 0.5 * (ln_p - ln_m)))
        if grads_to_targets:
            h = cfg.beta * 0.5 * (ln_t - ln_m)
            g = graph.softmax(guid_key)
            graph.add_dz(guid_key, c * graph.vjp(g, h))
    else:  # pragma: no cover - LossConfig validates
        raise ValueError(f"unknown divergence {mode!r}")
    return weight * value


def _disent_targets(graph: _Graph, guid_key, tag):
    cfg = graph.cfg
    if graph.frozen is not None:
        return graph.frozen[tag]
    g = graph.softmax(guid_key)
    t = (1.0 - cfg.beta) * graph._eye + cfg.beta * g
    # sum the off-diagonal entries directly: computing 1 - t_ii instead
    # loses ~8 digits when the guidance softmax saturates
    s = (t * graph._offdiag).sum(axis=1)
    if (s < MIN_NEGATIVE_MASS).any():
        bad = int(np.argmax(s < MIN_NEGATIVE_MASS))
        raise DegenerateRow(
            f"target row {bad} has off-diagonal mass {s[bad]:.3e}; "
            "cannot renormalize negatives (beta too small?)"
        )
    q_t = t / s[:, None]
    np.fill_diagonal(q_t, 0.0)
    ln_q_t = _guarded_log(q_t, cfg.target_floor)
    np.fill_diagonal(ln_q_t, 0.0)
    if graph.collector is not None:
        graph.collector[tag] = (q_t, ln_q_t, s)
    return q_t, ln_q_t, s


def _soft_disent_direction(graph: _Graph, pred_key, guid_key, weight: float,
                           tag):
    """One direction of the relation-enhanced (negative-disentangled) loss."""
    cfg = graph.cfg
    n = graph.n
    p_full = graph.softmax(pred_key)
    pred_neg_mass = (p_full * graph._offdiag).sum(axis=1)
    if (pred_neg_mass < MIN_NEGATIVE_MASS).any():
        bad = int(np.argmax(pred_neg_mass < MIN_NEGATIVE_MASS))
        raise DegenerateRow(
            f"prediction row {bad} has off-diagonal mass {pred_neg_mass[bad]:.3e}"
        )
    q_p = graph.masked_softmax(pred_key)
    ln_q_p = graph.masked_logsoftmax(pred_key)
    q_t, ln_q_t, s = _disent_targets(graph, guid_key, tag)
    mode = cfg.divergence
    c = weight / n
    grads_to_targets = (
        graph.want_grad and not cfg.stop_gradient_targets and weight != 0.0
    )
    off = graph._offdiag

    def _target_chain(h: np.ndarray) -> None:
        # h: free gradient w.r.t. q_t (diagonal entries must be zero)
        d_t = np.where(off, h / s[:, None], 0.0)
        diag_grad = (h * q_t).sum(axis=1) / s
        d_t[np.arange(n), np.arange(n)] = diag_grad
        g = graph.softmax(guid_key)
        graph.add_dz(guid_key, c * graph.vjp(g, cfg.beta * d_t))

    if mode == "forward_kl":
        value = graph.kl_term_rows(q_t, ln_q_t, ln_q_p).mean()
        if graph.want_grad and weight != 0.0:
            graph.add_dz(pred_key, c * (q_p - q_t))
        if grads_to_targets:
            _target_chain(np.where(off, ln_q_t - ln_q_p + 1.0, 0.0))
    elif mode == "symmetric_kl":
        u = np.where(off, ln_q_p - ln_q_t, 0.0)
        fwd = graph.kl_term_rows(q_t, ln_q_t, ln_q_p)
        rev = graph.kl_term_rows(q_p, ln_q_p, ln_q_t)
        value = 0.5 * (fwd + rev).mean()
        if graph.want_grad and weight != 0.0:
            dz = 0.5 * (q_p - q_t) + 0.5 * graph.vjp(q_p, u)
            graph.add_dz(pred_key, c * dz)
        if grads_to_targets:
            ratio = np.where(off, q_p / np.where(off, q_t, 1.0), 0.0)
            h = np.where(off, 0.5 * (ln_q_t - ln_q_p + 1.0) - 0.5 * ratio, 0.0)
            _target_chain(h)
    elif mode == "js":
        m = 0.5 * (q_t + q_p)
        ln_m = np.where(off, np.log(np.where(off, m, 1.0)), 0.0)
        value = 0.5 * (graph.kl_term_rows(q_t, ln_q_t, ln_m)
                       + graph.kl_term_rows(q_p, ln_q_p, ln_m)).mean()
        if graph.want_grad and weight != 0.0:
            h_p = np.where(off, 0.5 * (ln_q_p - ln_m), 0.0)
            graph.add_dz(pred_key, c * graph.vjp(q_p, h_p))
        if grads_to_targets:
            _target_chain(np.where(off, 0.5 * (ln_q_t - ln_m), 0.0))
    else:  # pragma: no cover
        raise ValueError(f"unknown divergence {mode!r}")
    return weight * value


# ---------------------------------------------------------------------------
# selector-level runner
# ---------------------------------------------------------------------------

def _run(selector: str, v, t, r, a, tau: Temperature, cfg: LossConfig,
         guidance_tau: Optional[Temperature] = None,
         want_grad: bool = False,
         frozen_targets: Optional[dict] = None,
         target_collector: Optional[dict] = None,
         dtype=np.float64):
    """Evaluate one loss selector; returns (value, components, graph)."""
    cfg.check(selector)
    graph = _Graph(v, t, r, a, tau, cfg, guidance_tau,
                   want_grad=want_grad, frozen_targets=frozen_targets,
                   target_collector=target_collector, dtype=dtype)
    k_it = graph.key("v", "t", guidance=False)
    k_ti = graph.key("t", "v", guidance=False)
    with_re = cfg.uses_relation_term(selector)
    components: dict = {}

    def soft_pair(bundle: str, disentangled: bool, weight: float) -> float:
        r_name, a_name = ("r", "a") if bundle == "ra" else ("v", "t")
        g_v2l, g_l2v = _guidance_keys(graph, cfg.supervision_form, r_name, a_name)
        fn = _soft_disent_direction if disentangled else _soft_plain_direction
        kind = "re" if disentangled else "soft"
        v2l = fn(graph, k_it, g_v2l, 0.5 * weight, (bundle, "v2l", kind))
        l2v = fn(graph, k_ti, g_l2v, 0.5 * weight, (bundle, "l2v", kind))
        return v2l + l2v

    if selector == "clip":
        y = graph._eye
        value = (_clip_direction(graph, k_it, 0.5, y)
                 + _clip_direction(graph, k_ti, 0.5, y))
        components["clip"] = value
    elif selector == "label_smooth":
        smoothed = label_smooth_targets(graph.n, cfg.alpha)
        value = (_clip_direction(graph, k_it, 0.5, smoothed)
                 + _clip_direction(graph, k_ti, 0.5, smoothed))
        components["label_smooth"] = value
    elif selector == "soft":
        value = soft_pair("ra", disentangled=False, weight=1.0)
        components["soft"] = value
    elif selector == "soft_re":
        value = soft_pair("ra", disentangled=True, weight=1.0)
        components["soft_re"] = value
    elif selector == "total":
        soft = soft_pair("ra", disentangled=False, weight=1.0)
        soft_re = (soft_pair("ra", disentangled=True, weight=cfg.lambda_re)
                   / cfg.lambda_re) if with_re else 0.0
        y = graph._eye
        clip = (_clip_direction(graph, k_it, 0.5 * cfg.mu_clip, y)
                + _clip_direction(graph, k_ti, 0.5 * cfg.mu_clip, y))
        clip_value = clip / cfg.mu_clip if cfg.mu_clip > 0.0 else (
            0.5 * -(np.diagonal(graph.logsoftmax(k_it))
                    + np.diagonal(graph.logsoftmax(k_ti))).mean()
        )
        value = soft + cfg.lambda_re * soft_re + cfg.mu_clip * clip_value
        components.update(
            soft=soft, soft_re=soft_re, clip=clip_value, total=value
        )
    else:  # mixed_gamma
        gamma = cfg.gamma
        value = 0.0
        if gamma > 0.0:
            value += soft_pair("ra", disentangled=False, weight=gamma)
            if with_re:
                value += soft_pair("ra", disentangled=True,
                                   weight=gamma * cfg.lambda_re)
        if gamma < 1.0:
            value += soft_pair("it", disentangled=False, weight=1.0 - gamma)
            if with_re:
                value += soft_pair("it", disentangled=True,
                                   weight=(1.0 - gamma) * cfg.lambda_re)
        components["mixed_gamma"] = value
    components.setdefault("total", value)
    return value, components, graph


def forward_value(selector: str, v, t, r, a, tau: Temperature, cfg: LossConfig,
                  guidance_tau: Optional[Temperature] = None,
                  frozen_targets: Optional[dict] = None) -> float:
    """Forward value of one loss selector (no gradients)."""
    value, _, _ = _run(selector, v, t, r, a, tau, cfg, guidance_tau,
                       frozen_targets=frozen_targets)
    return float(value)


def loss_components(selector: str, v, t, r, a, tau: Temperature,
                    cfg: LossConfig,
                    guidance_tau: Optional[Temperature] = None) -> dict:
    """Named component values of one selector evaluation."""
    _, components, _ = _run(selector, v, t, r, a, tau, cfg, guidance_tau)
    return components


def collect_targets(selector: str, v, t, r, a, tau: Temperature,
                    cfg: LossConfig,
                    guidance_tau: Optional[Temperature] = None,
                    dtype=np.float64) -> dict:
    """Softened targets evaluated at the given point, keyed per term.

    Used to freeze the teacher side when differentiating under
    ``stop_gradient_targets``.
    """
    collector: dict = {}
    _run(selector, v, t, r, a, tau, cfg, guidance_tau,
         target_collector=collector, dtype=dtype)
    return collector


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

def _live_inputs(selector: str, cfg: LossConfig) -> set:
    """Inputs the differentiated forward actually consumes.

    With ``stop_gradient_targets`` the guidance branch is frozen at the
    base point, so perturbing a pure-guidance input cannot change the
    forward; its central difference is exactly zero and is recorded
    without evaluation.
    """
    live = {"v", "t"}
    if (selector in SOFT_TARGET_VARIANTS and not cfg.stop_gradient_targets
            and (selector != "mixed_gamma" or cfg.gamma > 0.0)):
        live |= {"r", "a"}
    return live


def finite_difference_grad(selector: str, v, t, r, a, tau: Temperature,
                           cfg: LossConfig, epsilon: float = 1e-5,
                           guidance_tau: Optional[Temperature] = None
                           ) -> GradientBundle:
    """Central-difference gradients, coordinate by coordinate.

    Perturbations are applied to the pre-normalization inputs. With
    ``stop_gradient_targets`` the softened targets are computed once at
    the base point and held fixed, matching the function the analytic
    backward differentiates. The forward passes run in extended precision
    where the platform provides it, which keeps the difference quotient's
    rounding floor far below the comparison tolerance; the perturbation
    math itself is the plain central formula.
    """
    if not 1e-7 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon must be in [1e-7, 1e-3], got {epsilon}")
    dtype = np.longdouble if np.finfo(np.longdouble).eps < 1e-18 else np.float64
    # copies: the loop below perturbs them in place
    inputs = {name: as_matrix(x, name, dtype).copy()
              for name, x in zip(_INPUT_NAMES, (v, t, r, a))}
    frozen = None
    if cfg.stop_gradient_targets:
        frozen = collect_targets(selector, inputs["v"], inputs["t"],
                                 inputs["r"], inputs["a"], tau, cfg,
                                 guidance_tau, dtype=dtype)

    def f(tau_eval: Temperature, g_tau_eval: Optional[Temperature]):
        value, _, _ = _run(selector, inputs["v"], inputs["t"], inputs["r"],
                           inputs["a"], tau_eval, cfg,
                           guidance_tau=g_tau_eval, frozen_targets=frozen,
                           dtype=dtype)
        return value

    live = _live_inputs(selector, cfg)
    grads = {}
    for name in _INPUT_NAMES:
        x = inputs[name]
        g = np.zeros(x.shape)
        if name in live:
            flat = x.reshape(-1)
            gflat = g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + epsilon
                f_plus = f(tau, guidance_tau)
                flat[idx] = orig - epsilon
                f_minus = f(tau, guidance_tau)
                flat[idx] = orig
                gflat[idx] = float((f_plus - f_minus) / (2.0 * epsilon))
        grads[name] = g

    ell = tau.log_inv_tau
    d_log = float(
        (f(Temperature(ell + epsilon), guidance_tau)
         - f(Temperature(ell - epsilon), guidance_tau)) / (2.0 * epsilon)
    )
    d_log_g = None
    if cfg.split_guidance_temperature and guidance_tau is not None:
        ell_g = guidance_tau.log_inv_tau
        d_log_g = float(
            (f(tau, Temperature(ell_g + epsilon))
             - f(tau, Temperature(ell_g - epsilon))) / (2.0 * epsilon)
        )
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

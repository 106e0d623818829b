"""Scalar loss terms of the soft cross-modal alignment objective.

Everything here works in distribution space: the contrastive cross-entropy
baseline, forward/symmetric KL and JS divergences, the softened-target
losses under intra-modal guidance, their negative-disentangled
("relation-enhanced") variants, the combined objective, and the
guidance-mixing ablation loss. This module is the independent reference
forward: training and the gradients run on the log-space graph in
:mod:`softalign.gradcheck`, and the acceptance criteria check that graph
against the values computed here.

It also holds the rules of the objective's configuration: which loss
variants exist, which weighted terms each one sums (:meth:`LossConfig.terms`,
which the graph evaluates and :meth:`LossConfig.check` reads), which
guidance distributions each supervision form assigns (``SUPERVISION_FORMS``),
which batches each guidance bundle reads (``BUNDLE_INPUTS``), and so which
inputs a variant differentiates (:meth:`LossConfig.live_inputs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import config
from .config import flag
from .distributions import (
    NegDisentangled,
    Temperature,
    cross_modal_dist,
    disentangle_negatives,
    mix_targets,
    one_hot_targets,
)
from .errors import BatchTooSmall, DegenerateTargets, ShapeMismatch
from .numkit import as_matrix, floored_log

DIVERGENCES = ("forward_kl", "symmetric_kl", "js")
# supervision form -> the (source, destination) batches of its v2l and l2v
# guidance distributions; "r" is the ROI batch, "a" the tag batch
SUPERVISION_FORMS = {
    "R2R_A2A": (("r", "r"), ("a", "a")),
    "A2A_R2R": (("a", "a"), ("r", "r")),
    "R2A_A2R": (("r", "a"), ("a", "r")),
    "A2R_R2A": (("a", "r"), ("r", "a")),
}
# guidance bundle -> the batches it reads in place of the ROI ("r") and tag
# ("a") batches: ``ra`` those batches, ``it`` the image and text batches
BUNDLE_INPUTS = {"ra": {"r": "r", "a": "a"}, "it": {"r": "v", "a": "t"}}
LOSS_VARIANTS = ("clip", "label_smooth", "soft", "soft_re", "total", "mixed_gamma")

Dist = Union[np.ndarray, NegDisentangled]


@dataclass(frozen=True)
class LossConfig:
    """All scalar hyperparameters of the objective."""

    tau_init: float = flag(0.07, "initial learnable temperature", gt=0)
    alpha: float = flag(0.2, "label smoothing amount", ge=0, lt=1)
    beta: float = flag(0.3, "soft-target mixing coefficient", ge=0, le=1)
    gamma: float = flag(1.0, "guidance mixing weight", ge=0, le=1)
    lambda_re: float = flag(1.0, "relation-enhanced term weight", ge=0)
    mu_clip: float = flag(0.5, "contrastive term weight", ge=0)
    divergence: str = flag("symmetric_kl", "soft-loss divergence", DIVERGENCES)
    supervision_form: str = flag("R2R_A2A", "guidance assignment", SUPERVISION_FORMS)
    stop_gradient_targets: bool = flag(True, "detach softened targets")
    target_floor: float = flag(1e-12, "floor inside logs", gt=0)
    split_guidance_temperature: bool = flag(
        False, "learn a separate temperature for the guidance branch")

    def __post_init__(self):
        config.check(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LossConfig":
        return config.from_dict(cls, d)

    def terms(self, variant: str) -> tuple[tuple[str, str, str, float], ...]:
        """The terms ``variant`` sums, in order: (component, bundle, kind, weight).

        ``kind`` is ``clip`` or ``label_smooth`` (fixed targets), or ``soft``
        or ``soft_re`` (softened targets, plain or relation-enhanced).
        ``bundle`` is where the guidance comes from: ``ra`` the ROI/tag
        batches, ``it`` the image/text batches; the fixed-target kinds use
        no guidance and say ``it``. ``component`` names the term's
        unweighted value. ``total`` is soft + lambda_re * soft_re +
        mu_clip * clip; ``mixed_gamma`` is gamma * (soft + lambda_re *
        soft_re, guided by ra) + (1 - gamma) * (the same guided by it). A
        soft_re term or a bundle whose weight is 0 is left out.
        """
        if variant not in LOSS_VARIANTS:
            raise ValueError(
                f"unknown loss variant {variant!r}; expected one of {LOSS_VARIANTS}"
            )
        if variant in ("clip", "label_smooth", "soft", "soft_re"):
            bundle = "ra" if variant.startswith("soft") else "it"
            return ((variant, bundle, variant, 1.0),)
        guided = [(kind, w) for kind, w in (("soft", 1.0), ("soft_re", self.lambda_re))
                  if w > 0.0]
        if variant == "total":
            return (*((kind, "ra", kind, w) for kind, w in guided),
                    ("clip", "it", "clip", self.mu_clip))
        bundles = (("ra", self.gamma), ("it", 1.0 - self.gamma))
        return tuple((f"{kind}_{bundle}", bundle, kind, gw * w)
                     for bundle, gw in bundles if gw > 0.0
                     for kind, w in guided)

    def live_inputs(self, variant: str) -> set:
        """The inputs ("v", "t", "r", "a") ``variant`` differentiates: v and t,
        and unless ``stop_gradient_targets`` freezes the guidance, the
        batches each guided term's bundle reads (``BUNDLE_INPUTS``)."""
        guided = () if self.stop_gradient_targets else (
            BUNDLE_INPUTS[bundle].values()
            for _, bundle, kind, _ in self.terms(variant) if kind in ("soft", "soft_re"))
        return {"v", "t"}.union(*guided)

    def check(self, variant: str) -> None:
        """Reject a loss variant this config cannot evaluate.

        At beta=0 the softened targets are one-hot: the reversed KL term of
        a non-forward divergence is unbounded on them, and the
        negative-disentangled targets have no mass left to renormalize.
        """
        kinds = {kind for _, _, kind, _ in self.terms(variant)}
        if self.beta != 0.0 or not kinds & {"soft", "soft_re"}:
            return
        if self.divergence != "forward_kl":
            raise DegenerateTargets(
                "beta=0 makes the targets one-hot; the reversed KL term is "
                "unbounded there. Use divergence='forward_kl' or beta > 0."
            )
        if "soft_re" in kinds:
            raise DegenerateTargets(
                "beta=0 gives one-hot targets with no negative mass to "
                "renormalize; the relation-enhanced term is undefined. "
                "Set beta > 0 or disable it (lambda_re=0)."
            )


@dataclass(frozen=True)
class LossBreakdown:
    """Component values of one objective evaluation.

    ``total = soft + lambda_re * soft_re + mu_clip * clip``; each term is
    already averaged over its two directions, and ``soft_re`` is 0 when
    ``lambda_re`` is.
    """

    clip: float
    soft: float
    soft_re: float
    total: float


@dataclass(frozen=True)
class DistBundle:
    """Similarity distributions one objective evaluation consumes.

    ``p_ra``/``p_ar`` (cross ROI-to-tag and tag-to-ROI) are only present
    when the supervision form needs them.
    """

    p_it: np.ndarray
    p_ti: np.ndarray
    p_rr: np.ndarray
    p_aa: np.ndarray
    p_ra: Optional[np.ndarray] = None
    p_ar: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.p_it.shape[0]

    def guidance(self, form: str) -> tuple[np.ndarray, np.ndarray]:
        """(v2l guidance, l2v guidance) for a supervision form."""
        if form not in SUPERVISION_FORMS:
            raise ValueError(f"unknown supervision form {form!r}")
        pair = tuple(getattr(self, f"p_{src}{dst}")
                     for src, dst in SUPERVISION_FORMS[form])
        if pair[0] is None or pair[1] is None:
            raise ValueError(
                f"supervision form {form} needs the cross distributions "
                "p_ra/p_ar, which this bundle does not carry"
            )
        return pair


# ---------------------------------------------------------------------------
# divergences on explicit distributions
# ---------------------------------------------------------------------------

def _unwrap_pair(a: Dist, b: Dist) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(a, NegDisentangled) != isinstance(b, NegDisentangled):
        raise ShapeMismatch("mixed plain and neg-disentangled operands")
    if isinstance(a, NegDisentangled):
        a, b = a.inner, b.inner
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    return a, b


def cross_entropy_rows(targets: Dist, preds: Dist, floor: float = 1e-12) -> float:
    """Mean over rows of -sum_j t_ij * log(p_ij), with 0*log(.) = 0."""
    t, p = _unwrap_pair(targets, preds)
    return float(-(t * floored_log(p, floor)).sum(axis=1).mean())


def kl_rows(targets: Dist, preds: Dist, floor: float = 1e-12) -> float:
    """Mean over rows of KL(target_i || pred_i)."""
    t, p = _unwrap_pair(targets, preds)
    rows = (t * (floored_log(t, floor) - floored_log(p, floor))).sum(axis=1)
    return float(rows.mean())


def sym_kl_rows(a: Dist, b: Dist, floor: float = 1e-12) -> float:
    """Half the sum of both directed KL divergences."""
    return 0.5 * (kl_rows(a, b, floor) + kl_rows(b, a, floor))


def js_rows(a: Dist, b: Dist, floor: float = 1e-12) -> float:
    """Jensen-Shannon divergence, bounded by ln 2."""
    a_m, b_m = _unwrap_pair(a, b)
    mid = 0.5 * (a_m + b_m)
    return 0.5 * (kl_rows(a_m, mid, floor) + kl_rows(b_m, mid, floor))


def _divergence(targets: Dist, preds: Dist, mode: str, floor: float) -> float:
    if mode == "forward_kl":
        return kl_rows(targets, preds, floor)
    if mode == "symmetric_kl":
        return sym_kl_rows(targets, preds, floor)
    if mode == "js":
        return js_rows(targets, preds, floor)
    raise ValueError(f"unknown divergence {mode!r}")


# ---------------------------------------------------------------------------
# embedding-level objectives
# ---------------------------------------------------------------------------

def _clip_pair(p_it: np.ndarray, p_ti: np.ndarray, floor: float) -> float:
    """One-hot cross-entropy of both directions' predictions, averaged."""
    y = one_hot_targets(p_it.shape[0])
    return 0.5 * (cross_entropy_rows(y, p_it, floor) + cross_entropy_rows(y, p_ti, floor))


def clip_loss(v, t, tau: Temperature, floor: float = 1e-12) -> float:
    """One-hot contrastive cross-entropy, averaged over both directions."""
    return _clip_pair(cross_modal_dist(v, t, tau), cross_modal_dist(t, v, tau), floor)


def build_distributions(
    v, t, r, a, tau: Temperature, cfg: LossConfig,
    guidance_tau: Optional[Temperature] = None,
) -> DistBundle:
    """All distributions one objective evaluation needs, built once.

    ``guidance_tau`` overrides the temperature of the guidance branch when
    ``cfg.split_guidance_temperature`` is set; otherwise the shared ``tau``
    scales every similarity matrix.
    """
    g_tau = guidance_tau if (cfg.split_guidance_temperature and guidance_tau is not None) else tau
    p_it = cross_modal_dist(v, t, tau)
    p_ti = cross_modal_dist(t, v, tau)
    p_rr = cross_modal_dist(r, r, g_tau)
    p_aa = cross_modal_dist(a, a, g_tau)
    p_ra = p_ar = None
    if any(src != dst for src, dst in SUPERVISION_FORMS[cfg.supervision_form]):
        p_ra = cross_modal_dist(r, a, g_tau)
        p_ar = cross_modal_dist(a, r, g_tau)
    return DistBundle(p_it=p_it, p_ti=p_ti, p_rr=p_rr, p_aa=p_aa, p_ra=p_ra, p_ar=p_ar)


def _mixed_targets(dists: DistBundle, cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    g_v2l, g_l2v = dists.guidance(cfg.supervision_form)
    y = one_hot_targets(dists.n)
    return mix_targets(y, g_v2l, cfg.beta), mix_targets(y, g_l2v, cfg.beta)


def _check_soft_preconditions(dists: DistBundle, cfg: LossConfig,
                              variant: str) -> None:
    shapes = {dists.p_it.shape, dists.p_ti.shape, dists.p_rr.shape, dists.p_aa.shape}
    if len(shapes) != 1:
        raise ShapeMismatch(f"distribution shapes differ: {sorted(shapes)}")
    n = dists.n
    if dists.p_it.shape != (n, n):
        raise ShapeMismatch(f"distributions must be square, got {dists.p_it.shape}")
    cfg.check(variant)


def _direction_mean(dists: DistBundle, cfg: LossConfig, wrap) -> float:
    """Mean over both directions of the softened targets' divergence from
    the predictions, each first passed through ``wrap``."""
    t_v2l, t_l2v = _mixed_targets(dists, cfg)
    floor = cfg.target_floor
    v2l = _divergence(wrap(t_v2l), wrap(dists.p_it), cfg.divergence, floor)
    l2v = _divergence(wrap(t_l2v), wrap(dists.p_ti), cfg.divergence, floor)
    return 0.5 * (v2l + l2v)


def soft_loss(dists: DistBundle, cfg: LossConfig) -> float:
    """Softened-target alignment loss, averaged over both directions."""
    _check_soft_preconditions(dists, cfg, "soft")
    return _direction_mean(dists, cfg, lambda p: p)


def relation_enhanced_soft_loss(dists: DistBundle, cfg: LossConfig) -> float:
    """Soft loss on distributions with the positive dropped and renormalized."""
    _check_soft_preconditions(dists, cfg, "soft_re")
    if dists.n < 2:
        raise BatchTooSmall("relation-enhanced loss needs N >= 2")
    return _direction_mean(dists, cfg, disentangle_negatives)


def _guided_terms(dists: DistBundle, cfg: LossConfig) -> tuple[float, float]:
    """(soft, soft_re) for one guidance bundle; soft_re is 0 at lambda_re 0."""
    soft = soft_loss(dists, cfg)
    soft_re = relation_enhanced_soft_loss(dists, cfg) if cfg.lambda_re > 0.0 else 0.0
    return soft, soft_re


def softclip_total(
    v, t, r, a, tau: Temperature, cfg: LossConfig,
    guidance_tau: Optional[Temperature] = None,
) -> LossBreakdown:
    """Full objective: soft + lambda_re * soft_re + mu_clip * clip.

    The relation-enhanced term is skipped (reported as 0) when
    ``lambda_re == 0``, which keeps configurations whose disentangled
    targets would be degenerate (e.g. beta=0) evaluable.
    """
    dists = build_distributions(v, t, r, a, tau, cfg, guidance_tau)
    soft, soft_re = _guided_terms(dists, cfg)
    clip = _clip_pair(dists.p_it, dists.p_ti, cfg.target_floor)
    total = soft + cfg.lambda_re * soft_re + cfg.mu_clip * clip
    return LossBreakdown(clip=clip, soft=soft, soft_re=soft_re, total=total)


def mixed_guidance_loss(
    v, t, r, a, tau: Temperature, gamma: float, cfg: LossConfig,
    guidance_tau: Optional[Temperature] = None,
) -> float:
    """Mix of ROI/tag-guided and image/text-self-similarity-guided losses.

    gamma weights the ROI/tag guidance term, (1-gamma) the term whose
    guidance comes from the image and text batches' own self-similarities.
    The contrastive (CLIP) term is excluded.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    bundle_ra = build_distributions(v, t, r, a, tau, cfg, guidance_tau)
    bundle_it = build_distributions(v, t, v, t, tau, cfg, guidance_tau)
    soft_ra, re_ra = _guided_terms(bundle_ra, cfg)
    soft_it, re_it = _guided_terms(bundle_it, cfg)
    return (gamma * (soft_ra + cfg.lambda_re * re_ra)
            + (1.0 - gamma) * (soft_it + cfg.lambda_re * re_it))

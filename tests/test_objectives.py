import math
from dataclasses import replace

import numpy as np
import pytest

from softalign import backend
from softalign.distributions import (
    Temperature,
    disentangle_negatives,
    label_smooth_targets,
    mix_targets,
    one_hot_targets,
)
from softalign.errors import BatchTooSmall, DegenerateTargets, ShapeMismatch
from softalign.numkit import l2_normalize_rows
from softalign.objectives import (
    DistBundle,
    LossConfig,
    build_distributions,
    clip_loss,
    cross_entropy_rows,
    js_rows,
    kl_rows,
    mixed_guidance_loss,
    relation_enhanced_soft_loss,
    soft_loss,
    softclip_total,
    sym_kl_rows,
)

# frozen via 50-digit arithmetic
MINUS_LOG_E_OVER_E1 = 0.31326168751822283405
KL_HALF_NINE_ONE = 0.51082562376599068321
SYM_KL_82_28 = 0.83177661667193437130
MINUS_LOG_08 = 0.22314355131420975577
LN2 = 0.69314718055994530942


def unit_batches(rng, n=4, d=8, count=4):
    return tuple(l2_normalize_rows(rng.standard_normal((n, d)))
                 for _ in range(count))


class TestCrossEntropyRows:
    def test_one_hot_self(self):
        y = one_hot_targets(3)
        assert cross_entropy_rows(y, y) == 0.0

    def test_ln_two(self):
        got = cross_entropy_rows(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert abs(got - LN2) < 1e-15

    def test_point_eight(self):
        got = cross_entropy_rows(np.array([[1.0, 0.0]]), np.array([[0.8, 0.2]]))
        assert abs(got - MINUS_LOG_08) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_entropy_rows(np.eye(2), np.eye(3))


class TestClipLoss:
    def test_orthonormal_two(self):
        eye = np.eye(2)
        got = clip_loss(eye, eye, Temperature.from_tau(1.0))
        assert abs(got - MINUS_LOG_E_OVER_E1) < 1e-12

    def test_swap_symmetric(self, rng):
        v, t, _, _ = unit_batches(rng)
        tau = Temperature.from_tau(0.07)
        assert abs(clip_loss(v, t, tau) - clip_loss(t, v, tau)) < 1e-12

    def test_aligned_sharp_temperature_near_zero(self):
        v = np.eye(4)
        assert clip_loss(v, v, Temperature.from_tau(0.01)) < 1e-6


class TestDivergences:
    def test_kl_identical_zero(self, rng):
        p = rng.dirichlet(np.ones(5), size=4)
        assert kl_rows(p, p) == 0.0

    def test_kl_frozen_value(self):
        got = kl_rows(np.array([[0.5, 0.5]]), np.array([[0.9, 0.1]]))
        assert abs(got - KL_HALF_NINE_ONE) < 1e-15

    def test_kl_gibbs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            a = rng.dirichlet(np.ones(n), size=3)
            b = rng.dirichlet(np.ones(n), size=3)
            assert kl_rows(a, b) >= -1e-12
            if np.abs(a - b).max() > 1e-6:
                assert kl_rows(a, b) > 0.0

    def test_kl_floors_only_exact_zeros(self):
        # a tiny positive prediction keeps its exact log; flooring it at
        # 1e-12 would understate the divergence by about 0.5 * 18.4
        t = np.array([[0.5, 0.5, 0.0]])
        p = np.array([[1.0 - 1e-12, 1e-20, 1e-12]])
        exact = 0.5 * (math.log(0.5 / (1.0 - 1e-12)) + math.log(0.5 / 1e-20))
        assert abs(kl_rows(t, p) - exact) < 1e-12 * exact

    def test_sym_kl_frozen_value(self):
        a, b = np.array([[0.8, 0.2]]), np.array([[0.2, 0.8]])
        assert abs(sym_kl_rows(a, b) - SYM_KL_82_28) < 1e-15

    def test_sym_kl_symmetric(self, rng):
        a = rng.dirichlet(np.ones(6), size=5)
        b = rng.dirichlet(np.ones(6), size=5)
        assert sym_kl_rows(a, b) == sym_kl_rows(b, a)

    def test_js_identical_zero(self, rng):
        p = rng.dirichlet(np.ones(4), size=3)
        assert js_rows(p, p) == 0.0

    def test_js_disjoint_supports(self):
        got = js_rows(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert abs(got - LN2) < 1e-12

    def test_js_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            a = rng.dirichlet(np.ones(n) * 0.3, size=2)
            b = rng.dirichlet(np.ones(n) * 0.3, size=2)
            assert 0.0 <= js_rows(a, b) <= LN2 + 1e-12

    def test_disentangled_operands(self, rng):
        a = disentangle_negatives(rng.dirichlet(np.ones(5), size=5))
        b = disentangle_negatives(rng.dirichlet(np.ones(5), size=5))
        assert kl_rows(a, b) >= 0.0
        with pytest.raises(ShapeMismatch):
            kl_rows(a, rng.dirichlet(np.ones(5), size=5))


def _bundle(rng, n=4, d=8, cfg=None, tau=None):
    cfg = cfg or LossConfig()
    tau = tau or Temperature.from_tau(cfg.tau_init)
    v, t, r, a = unit_batches(rng, n, d)
    return build_distributions(v, t, r, a, tau, cfg), (v, t, r, a), tau


class TestSoftLoss:
    def test_beta_zero_forward_kl_is_clip(self, rng):
        cfg = LossConfig(beta=0.0, divergence="forward_kl")
        bundle, (v, t, _, _), tau = _bundle(rng, cfg=cfg)
        assert abs(soft_loss(bundle, cfg) - clip_loss(v, t, tau)) < 1e-9

    def test_targets_equal_predictions_zero(self, rng):
        cfg = LossConfig(beta=1.0)
        bundle, _, _ = _bundle(rng, cfg=cfg)
        same = DistBundle(p_it=bundle.p_it, p_ti=bundle.p_ti,
                          p_rr=bundle.p_it, p_aa=bundle.p_ti)
        assert abs(soft_loss(same, cfg)) < 1e-12

    def test_supervision_swap_identical_when_guidance_equal(self, rng):
        bundle, _, _ = _bundle(rng)
        shared = DistBundle(p_it=bundle.p_it, p_ti=bundle.p_ti,
                            p_rr=bundle.p_rr, p_aa=bundle.p_rr)
        a = soft_loss(shared, LossConfig(supervision_form="R2R_A2A"))
        b = soft_loss(shared, LossConfig(supervision_form="A2A_R2R"))
        assert a == b

    def test_cross_forms_need_cross_distributions(self, rng):
        bundle, _, _ = _bundle(rng)
        with pytest.raises(ValueError):
            soft_loss(bundle, LossConfig(supervision_form="R2A_A2R"))

    def test_unknown_supervision_form_named(self, rng):
        bundle, _, _ = _bundle(rng)
        with pytest.raises(ValueError, match="unknown supervision form 'R2T'"):
            bundle.guidance("R2T")

    @pytest.mark.parametrize("loss, shapes, error, match", [
        (soft_loss, [(3, 3), (3, 3), (4, 4), (3, 3)], ShapeMismatch,
         r"shapes differ: \[\(3, 3\), \(4, 4\)\]"),
        (soft_loss, [(3, 4)] * 4, ShapeMismatch, r"must be square, got \(3, 4\)"),
        (relation_enhanced_soft_loss, [(1, 1)] * 4, BatchTooSmall, "N >= 2"),
    ], ids=["shapes-differ", "not-square", "re-one-row"])
    def test_distributions_rejected_naming_them(self, loss, shapes, error, match):
        bundle = DistBundle(*(np.full(shape, 1.0 / shape[1]) for shape in shapes))
        with pytest.raises(error, match=match):
            loss(bundle, LossConfig())

    def test_cross_form_buildable(self, rng):
        cfg = LossConfig(supervision_form="R2A_A2R")
        bundle, _, _ = _bundle(rng, cfg=cfg)
        assert bundle.p_ra is not None and bundle.p_ar is not None
        assert np.isfinite(soft_loss(bundle, cfg))

    def test_degenerate_targets_rejected(self, rng):
        for div in ("symmetric_kl", "js"):
            cfg = LossConfig(beta=0.0, divergence=div)
            bundle, _, _ = _bundle(rng, cfg=cfg)
            with pytest.raises(DegenerateTargets):
                soft_loss(bundle, cfg)

    def test_relation_term_at_beta_zero_rejected(self, rng):
        # the reference raises what LossConfig.check and the graph raise
        cfg = LossConfig(beta=0.0, divergence="forward_kl")
        bundle, _, _ = _bundle(rng, cfg=cfg)
        assert np.isfinite(soft_loss(bundle, cfg))
        with pytest.raises(DegenerateTargets):
            relation_enhanced_soft_loss(bundle, cfg)


def _brute_relation_enhanced(bundle, cfg):
    """Independent oracle: explicit per-row lists, no shared code paths."""
    n = bundle.n
    beta, mode = cfg.beta, cfg.divergence

    def drop_and_renorm(row, i):
        vals = [row[j] for j in range(n) if j != i]
        s = sum(vals)
        return [x / s for x in vals]

    def kl(t, p):
        return sum(ti * (math.log(ti) - math.log(pi))
                   for ti, pi in zip(t, p) if ti > 0)

    def div(t, p):
        if mode == "forward_kl":
            return kl(t, p)
        if mode == "symmetric_kl":
            return 0.5 * (kl(t, p) + kl(p, t))
        mid = [(a + b) / 2 for a, b in zip(t, p)]
        return 0.5 * (kl(t, mid) + kl(p, mid))

    g_v2l, g_l2v = bundle.guidance(cfg.supervision_form)
    total = 0.0
    for pred, guid in ((bundle.p_it, g_v2l), (bundle.p_ti, g_l2v)):
        acc = 0.0
        for i in range(n):
            t_row = [(1 - beta) * (1.0 if j == i else 0.0) + beta * guid[i][j]
                     for j in range(n)]
            acc += div(drop_and_renorm(t_row, i), drop_and_renorm(pred[i], i))
        total += acc / n
    return total / 2.0


class TestRelationEnhancedSoftLoss:
    def test_two_sample_batch_always_zero(self, rng):
        for div in ("forward_kl", "symmetric_kl", "js"):
            cfg = LossConfig(divergence=div)
            bundle, _, _ = _bundle(rng, n=2, cfg=cfg)
            assert abs(relation_enhanced_soft_loss(bundle, cfg)) < 1e-15

    def test_matched_negative_ratios_zero(self, rng):
        # predictions share the targets' negative ratios but not the
        # positive mass; disentangling removes the difference
        cfg = LossConfig()
        bundle, _, _ = _bundle(rng, n=5, cfg=cfg)
        y = one_hot_targets(5)
        targets = mix_targets(y, bundle.p_rr, cfg.beta)
        pred = targets.copy()
        diag = np.diagonal(targets)
        new_diag = 0.5 * diag
        scale = (1 - new_diag) / (1 - diag)
        pred *= scale[:, None]
        pred[np.arange(5), np.arange(5)] = new_diag
        rigged = DistBundle(p_it=pred, p_ti=pred,
                            p_rr=bundle.p_rr, p_aa=bundle.p_rr)
        assert abs(relation_enhanced_soft_loss(rigged, cfg)) < 1e-12

    def test_positive_logit_rescaling_invariance(self, rng):
        # shifting only the diagonal logits changes the positive mass but
        # not the disentangled distributions
        cfg = LossConfig()
        z = rng.standard_normal((4, 4)) * 3
        p1 = backend.softmax_logsoftmax_rows(z)[0]
        p2 = backend.softmax_logsoftmax_rows(z + 1.7 * np.eye(4))[0]
        guid = rng.dirichlet(np.ones(4), size=4)
        b1 = DistBundle(p_it=p1, p_ti=p1, p_rr=guid, p_aa=guid)
        b2 = DistBundle(p_it=p2, p_ti=p2, p_rr=guid, p_aa=guid)
        got1 = relation_enhanced_soft_loss(b1, cfg)
        got2 = relation_enhanced_soft_loss(b2, cfg)
        assert abs(got1 - got2) < 1e-9

    @pytest.mark.parametrize("div", ["forward_kl", "symmetric_kl", "js"])
    def test_brute_force_oracle(self, div):
        rng = np.random.default_rng(31)
        cfg = LossConfig(divergence=div)
        bundle, _, _ = _bundle(rng, n=4, cfg=cfg)
        got = relation_enhanced_soft_loss(bundle, cfg)
        want = _brute_relation_enhanced(bundle, cfg)
        assert abs(got - want) < 1e-12


class TestSoftclipTotal:
    def test_breakdown_identity(self, rng):
        v, t, r, a = unit_batches(rng, 5, 8)
        cfg = LossConfig()
        bd = softclip_total(v, t, r, a, Temperature.from_tau(0.07), cfg)
        want = bd.soft + cfg.lambda_re * bd.soft_re + cfg.mu_clip * bd.clip
        assert abs(bd.total - want) < 1e-12

    def test_weights_zero_reduce_to_soft(self, rng):
        v, t, r, a = unit_batches(rng)
        cfg = LossConfig(lambda_re=0.0, mu_clip=0.0)
        bd = softclip_total(v, t, r, a, Temperature.from_tau(0.07), cfg)
        assert bd.total == bd.soft
        assert bd.soft_re == 0.0

    def test_no_caching_oracle(self, rng):
        # recompute every distribution from scratch through the public ops
        v, t, r, a = unit_batches(rng, 4, 8)
        tau = Temperature.from_tau(0.07)
        cfg = LossConfig()
        bd = softclip_total(v, t, r, a, tau, cfg)
        from softalign.distributions import cross_modal_dist

        p_it = cross_modal_dist(v, t, tau)
        p_ti = cross_modal_dist(t, v, tau)
        y = one_hot_targets(4)
        t_v2l = mix_targets(y, cross_modal_dist(r, r, tau), cfg.beta)
        t_l2v = mix_targets(y, cross_modal_dist(a, a, tau), cfg.beta)
        soft = 0.5 * (sym_kl_rows(t_v2l, p_it) + sym_kl_rows(t_l2v, p_ti))
        soft_re = 0.5 * (
            sym_kl_rows(disentangle_negatives(t_v2l), disentangle_negatives(p_it))
            + sym_kl_rows(disentangle_negatives(t_l2v), disentangle_negatives(p_ti))
        )
        clip = 0.5 * (cross_entropy_rows(y, p_it) + cross_entropy_rows(y, p_ti))
        want = soft + cfg.lambda_re * soft_re + cfg.mu_clip * clip
        assert abs(bd.total - want) < 1e-12

    def test_reduction_identity(self, rng):
        cfg = LossConfig(beta=0.0, divergence="forward_kl",
                         lambda_re=0.0, mu_clip=0.0)
        tau = Temperature.from_tau(0.07)
        for _ in range(20):
            v, t, r, a = unit_batches(rng, 4, 8)
            bd = softclip_total(v, t, r, a, tau, cfg)
            assert abs(bd.total - clip_loss(v, t, tau)) < 1e-9

    def test_affine_in_lambda_mu(self, rng):
        v, t, r, a = unit_batches(rng)
        tau = Temperature.from_tau(0.07)

        def total(lam, mu):
            return softclip_total(
                v, t, r, a, tau, LossConfig(lambda_re=lam, mu_clip=mu)
            ).total

        for lo, hi in ((0.0, 1.0), (0.25, 2.0)):
            mid = 0.5 * (lo + hi)
            assert abs(total(mid, 0.5) - 0.5 * (total(lo, 0.5) + total(hi, 0.5))) < 1e-12
            assert abs(total(1.0, mid) - 0.5 * (total(1.0, lo) + total(1.0, hi))) < 1e-12

    def test_batch_permutation_invariance(self, rng):
        v, t, r, a = unit_batches(rng, 6, 8)
        tau = Temperature.from_tau(0.07)
        cfg = LossConfig()
        sigma = rng.permutation(6)
        base = softclip_total(v, t, r, a, tau, cfg)
        perm = softclip_total(v[sigma], t[sigma], r[sigma], a[sigma], tau, cfg)
        assert abs(base.total - perm.total) < 1e-9
        assert abs(clip_loss(v, t, tau) - clip_loss(v[sigma], t[sigma], tau)) < 1e-9


class TestMixedGuidanceLoss:
    def test_endpoints(self, rng):
        v, t, r, a = unit_batches(rng)
        tau = Temperature.from_tau(0.07)
        cfg = LossConfig()
        at_ra = mixed_guidance_loss(v, t, r, a, tau, 1.0, cfg)
        at_it = mixed_guidance_loss(v, t, r, a, tau, 0.0, cfg)
        bundle_ra = build_distributions(v, t, r, a, tau, cfg)
        want_ra = (soft_loss(bundle_ra, cfg)
                   + cfg.lambda_re * relation_enhanced_soft_loss(bundle_ra, cfg))
        assert abs(at_ra - want_ra) < 1e-12
        bundle_it = build_distributions(v, t, v, t, tau, cfg)
        want_it = (soft_loss(bundle_it, cfg)
                   + cfg.lambda_re * relation_enhanced_soft_loss(bundle_it, cfg))
        assert abs(at_it - want_it) < 1e-12

    def test_linearity(self, rng):
        v, t, r, a = unit_batches(rng)
        tau = Temperature.from_tau(0.07)
        cfg = LossConfig()
        lo = mixed_guidance_loss(v, t, r, a, tau, 0.0, cfg)
        mid = mixed_guidance_loss(v, t, r, a, tau, 0.5, cfg)
        hi = mixed_guidance_loss(v, t, r, a, tau, 1.0, cfg)
        assert abs(mid - 0.5 * (lo + hi)) < 1e-12

    def test_gamma_validated(self, rng):
        v, t, r, a = unit_batches(rng)
        with pytest.raises(ValueError):
            mixed_guidance_loss(v, t, r, a, Temperature.from_tau(0.07), 1.5,
                                LossConfig())


class TestLossConfig:
    def test_defaults_match_training_recipe(self):
        cfg = LossConfig()
        assert cfg.tau_init == 0.07
        assert cfg.alpha == 0.2
        assert cfg.beta == 0.3
        assert cfg.lambda_re == 1.0
        assert cfg.mu_clip == 0.5
        assert cfg.divergence == "symmetric_kl"
        assert cfg.stop_gradient_targets

    @pytest.mark.parametrize("kw", [
        dict(alpha=1.0), dict(beta=1.5), dict(gamma=-0.1),
        dict(lambda_re=-1.0), dict(tau_init=0.0),
        dict(divergence="l2"), dict(supervision_form="X2Y"),
        dict(target_floor=0.0),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            LossConfig(**kw)


def test_label_smoothing_matches_closed_form_sweep():
    for n in range(3, 65):
        out = label_smooth_targets(n, 0.2)
        assert abs(out[0, 0] - 0.8) < 1e-15
        assert abs(out[0, 1] - 0.2 / (n - 1)) < 1e-16

import json
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from softalign.distributions import (
    TAU_MAX,
    TAU_MIN,
    Temperature,
    cross_modal_dist,
    label_smooth_targets,
)
from softalign.errors import (
    BatchTooSmall,
    DegenerateRow,
    DegenerateTargets,
    ShapeMismatch,
    SoftalignError,
)
from softalign.numkit import l2_normalize_rows
from softalign.objectives import (
    DIVERGENCES,
    LOSS_VARIANTS,
    SUPERVISION_FORMS,
    LossConfig,
    cross_entropy_rows,
)
from softalign import backend, gradcheck, objectives
from softalign import cpus as cpu_owner
from softalign.gradcheck import (
    backward,
    check_gradients,
    finite_difference_grad,
    forward_value,
)


def random_inputs(seed, n=4, d=8):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n, d)) for _ in range(4))


class TestClosedForms:
    def test_softmax_cross_entropy_subgradient(self):
        # d/dz of CE(one-hot, softmax(z)) is p - y: at p = [0.8, 0.2] the
        # gradient w.r.t. the logits is [-0.2, 0.2]
        z = np.log(np.array([[0.8, 0.2]]))
        y = np.array([[1.0, 0.0]])
        eps = 1e-6
        grad = np.empty(2)
        for j in range(2):
            zp, zm = z.copy(), z.copy()
            zp[0, j] += eps
            zm[0, j] -= eps
            grad[j] = (
                cross_entropy_rows(y, backend.softmax_logsoftmax_rows(zp)[0])
                - cross_entropy_rows(y, backend.softmax_logsoftmax_rows(zm)[0])
            ) / (2 * eps)
        np.testing.assert_allclose(grad, [-0.2, 0.2], atol=1e-9)

    def test_duplicate_rows_get_equal_gradients(self):
        v, t, r, a = random_inputs(0, n=4, d=6)
        for m in (v, t, r, a):
            m[2] = m[0]
        _, g = backward("total", v, t, r, a, Temperature.from_tau(0.07),
                        LossConfig())
        for d in (g.d_v, g.d_t, g.d_r, g.d_a):
            np.testing.assert_allclose(d[2], d[0], atol=1e-12)

    def test_permutation_equivariance(self):
        v, t, r, a = random_inputs(11, n=6, d=8)
        tau = Temperature.from_tau(0.07)
        cfg = LossConfig(stop_gradient_targets=False)
        sigma = np.random.default_rng(2).permutation(6)
        for selector in LOSS_VARIANTS:
            val, g = backward(selector, v, t, r, a, tau, cfg)
            val_p, g_p = backward(selector, v[sigma], t[sigma], r[sigma],
                                  a[sigma], tau, cfg)
            assert abs(val - val_p) < 1e-9
            for name in ("v", "t", "r", "a"):
                np.testing.assert_allclose(
                    g_p.by_name(name), g.by_name(name)[sigma], atol=1e-9
                )
            assert abs(g.d_log_inv_tau - g_p.d_log_inv_tau) < 1e-9


class TestBackwardAgainstFiniteDifferences:
    @pytest.mark.parametrize("selector", LOSS_VARIANTS)
    @pytest.mark.parametrize("stop_grad", [True, False])
    def test_default_config(self, selector, stop_grad):
        cfg = LossConfig(stop_gradient_targets=stop_grad)
        rep = check_gradients(selector, seed=0, n=4, d=8, cfg=cfg)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("divergence", ["forward_kl", "js"])
    def test_alternative_divergences(self, divergence):
        for stop_grad in (True, False):
            cfg = LossConfig(divergence=divergence, gamma=0.4,
                             stop_gradient_targets=stop_grad)
            for selector in ("soft", "soft_re", "total", "mixed_gamma"):
                rep = check_gradients(selector, seed=2, n=4, d=8, cfg=cfg)
                assert rep.passed, (stop_grad, rep.to_json())

    @pytest.mark.parametrize("form", ["A2A_R2R", "R2A_A2R", "A2R_R2A"])
    def test_supervision_forms(self, form):
        cfg = LossConfig(supervision_form=form, stop_gradient_targets=False)
        rep = check_gradients("total", seed=1, n=4, d=8, cfg=cfg)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
    def test_mixed_gamma_weights(self, gamma):
        cfg = LossConfig(gamma=gamma, stop_gradient_targets=False)
        rep = check_gradients("mixed_gamma", seed=5, n=4, d=8, cfg=cfg)
        assert rep.passed, rep.to_json()

    def test_split_guidance_temperature(self):
        for sg in (True, False):
            cfg = LossConfig(split_guidance_temperature=True,
                             stop_gradient_targets=sg)
            rep = check_gradients("total", seed=4, n=4, d=8, cfg=cfg)
            assert rep.passed, rep.to_json()
            names = [p.name for p in rep.params]
            assert "log_inv_tau_guidance" in names

    def test_label_smooth_variant(self):
        # trainer-only selector, same machinery
        v, t, r, a = random_inputs(6)
        cfg = LossConfig()
        tau = Temperature.from_tau(0.07)
        val, g = backward("label_smooth", v, t, r, a, tau, cfg)
        fd = finite_difference_grad("label_smooth", v, t, r, a, tau, cfg)
        np.testing.assert_allclose(g.d_v, fd.d_v, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(g.d_t, fd.d_t, rtol=1e-6, atol=1e-9)
        assert val > 0


class TestStopGradientSemantics:
    def test_guidance_gradients_exactly_zero(self):
        v, t, r, a = random_inputs(7)
        cfg = LossConfig(stop_gradient_targets=True)
        tau = Temperature.from_tau(0.07)
        for selector in ("soft", "soft_re", "total"):
            _, g = backward(selector, v, t, r, a, tau, cfg)
            assert not g.d_r.any()
            assert not g.d_a.any()

    def test_guidance_gradients_flow_when_enabled(self):
        v, t, r, a = random_inputs(7)
        cfg = LossConfig(stop_gradient_targets=False)
        _, g = backward("soft", v, t, r, a, Temperature.from_tau(0.07), cfg)
        assert np.abs(g.d_r).max() > 0
        assert np.abs(g.d_a).max() > 0

    def test_fd_freezes_targets(self):
        # with frozen targets the forward is constant in r and a, so the
        # central differences vanish identically
        v, t, r, a = random_inputs(8)
        cfg = LossConfig(stop_gradient_targets=True)
        fd = finite_difference_grad("total", v, t, r, a,
                                    Temperature.from_tau(0.07), cfg)
        assert not fd.d_r.any()
        assert not fd.d_a.any()


class TestFiniteDifferenceProperties:
    def test_constant_loss_zero_gradient(self):
        # the relation-enhanced term at N=2 is identically zero
        v, t, r, a = random_inputs(9, n=2, d=4)
        cfg = LossConfig(stop_gradient_targets=False)
        tau = Temperature.from_tau(0.07)
        assert forward_value("soft_re", v, t, r, a, tau, cfg) < 1e-15
        fd = finite_difference_grad("soft_re", v, t, r, a, tau, cfg)
        for d in (fd.d_v, fd.d_t, fd.d_r, fd.d_a):
            np.testing.assert_allclose(d, 0.0, atol=1e-9)
        assert abs(fd.d_log_inv_tau) < 1e-9

    @pytest.mark.parametrize("divergence", DIVERGENCES)
    def test_constant_loss_exact_zero_analytic_gradient(self, divergence):
        # seed 393 saturates the ROI guidance rows (off-diagonal target
        # mass s about 6e-12): a target gradient carrying a per-row
        # constant of size 1/s leaves ~5e-5 of rounding in d log(1/tau)
        # of this identically-zero loss
        rng = np.random.default_rng(393)
        v, t, r, a = (rng.standard_normal((2, 2)) for _ in range(4))
        cfg = LossConfig(divergence=divergence, stop_gradient_targets=False)
        _, g = backward("soft_re", v, t, r, a, Temperature.from_tau(0.07), cfg)
        for d in (g.d_v, g.d_t, g.d_r, g.d_a):
            assert not d.any()
        assert g.d_log_inv_tau == 0.0

    def test_extended_precision_inputs_not_rounded(self):
        # a perturbed oracle input must reach the graph unrounded
        ld = np.longdouble
        v, t, r, a = (x.astype(ld) for x in random_inputs(3, n=3, d=4))
        v[0, 0] = ld(1) + ld("1e-5")
        graph = gradcheck._Graph(v, t, r, a, Temperature.from_tau(0.07),
                                 LossConfig(), dtype=ld)
        for name, x in zip("vtra", (v, t, r, a)):
            assert graph.raw[name].dtype == ld
            assert np.array_equal(graph.raw[name], x)

    def test_epsilon_range_enforced(self):
        v, t, r, a = random_inputs(0, n=2, d=4)
        tau = Temperature.from_tau(0.07)
        for eps in (1e-8, 1e-2):
            with pytest.raises(ValueError):
                finite_difference_grad("clip", v, t, r, a, tau, LossConfig(),
                                       epsilon=eps)


def _per_coordinate_fd(selector, v, t, r, a, tau, cfg, epsilon=1e-5):
    """The oracle's input gradients one coordinate at a time: two scalar
    longdouble forwards per coordinate of every input."""
    ld = np.longdouble
    inputs = {name: np.array(x, dtype=ld) for name, x in zip("vtra", (v, t, r, a))}
    frozen = None
    if cfg.stop_gradient_targets:
        frozen = {}
        gradcheck._run(selector, *inputs.values(), tau, cfg, targets=frozen,
                       dtype=ld)
    grads = {}
    for name, x in inputs.items():
        g = np.zeros(x.shape)
        for i in np.ndindex(x.shape):
            values = []
            for step in (epsilon, -epsilon):
                bumped = dict(inputs)
                bumped[name] = x.copy()
                bumped[name][i] += step
                value, _, _ = gradcheck._run(selector, *bumped.values(), tau, cfg,
                                             targets=frozen, dtype=ld)
                values.append(value)
            g[i] = float((values[0] - values[1]) / (2.0 * epsilon))
        grads[name] = g
    return grads


@pytest.mark.parametrize("divergence", DIVERGENCES)
@pytest.mark.parametrize("stop_grad", [True, False])
@pytest.mark.parametrize("selector", LOSS_VARIANTS)
def test_batched_oracle_matches_per_coordinate_loop(selector, stop_grad,
                                                    divergence):
    # n != d, so a perturbation written at the transposed index would
    # land on a different coordinate (or outside the matrix)
    v, t, r, a = random_inputs(21, n=3, d=5)
    cfg = LossConfig(divergence=divergence, stop_gradient_targets=stop_grad,
                     gamma=0.4)
    tau = Temperature.from_tau(0.07)
    batched = finite_difference_grad(selector, v, t, r, a, tau, cfg)
    looped = _per_coordinate_fd(selector, v, t, r, a, tau, cfg)
    for name in "vtra":
        np.testing.assert_allclose(batched.by_name(name), looped[name],
                                   rtol=0, atol=1e-12, err_msg=name)


def test_oracle_stack_names_the_degenerate_entry():
    # one stacked copy saturates a disentangled target row; the error
    # names both the row and the stack entry
    v, t, r, a = random_inputs(3, n=3, d=4)
    tau = Temperature.from_tau(0.07)
    stack = np.repeat(r[None], 2, axis=0)
    stack[1] = 0.0
    stack[1, :, 0] = [1.0, -1.0, -1.0]
    a_close = stack[1].copy()
    with pytest.raises(DegenerateRow, match=r"row \d+ of stack entry 1"):
        gradcheck._run("soft_re", v, t, stack, a_close, tau,
                       LossConfig(beta=1.0, stop_gradient_targets=False))


class TestCheckGradients:
    def test_report_fields_and_json(self):
        rep = check_gradients("clip", seed=1, n=2, d=4)
        assert rep.epsilon == 1e-5
        assert rep.tolerance == 1e-5
        assert rep.passed
        payload = json.loads(rep.to_json())
        assert payload["passed"] is True
        assert payload["selector"] == "clip"
        assert list(payload) == ["selector", "n", "d", "epsilon", "tolerance",
                                 "passed", "max_rel_err", "max_abs_err", "params"]
        assert [list(p) for p in payload["params"]] == [
            ["name", "max_rel_err", "max_abs_err", "passed"]] * 5
        assert {p["name"] for p in payload["params"]} == {
            "v", "t", "r", "a", "log_inv_tau"
        }
        for p in payload["params"]:
            assert p["max_rel_err"] < 1e-5

    def test_zero_tolerance_fails(self):
        rep = check_gradients("total", seed=0, n=4, d=8, tolerance=0.0)
        assert not rep.passed

    @pytest.mark.parametrize("tolerance", [-1e-9, float("nan"), float("inf")])
    def test_tolerance_limits(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            check_gradients("clip", seed=0, n=2, d=4, tolerance=tolerance)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            check_gradients("clip", seed=0, n=32, d=8)
        with pytest.raises(ValueError):
            check_gradients("clip", seed=0, n=4, d=64)

    def test_unknown_selector(self):
        v, t, r, a = random_inputs(0, n=2, d=4)
        with pytest.raises(ValueError):
            backward("cosine", v, t, r, a, Temperature.from_tau(0.07),
                     LossConfig())

    @pytest.mark.parametrize("edit, cfg, error, match", [
        (lambda x: {**x, "t": x["t"][:3]}, LossConfig(), ShapeMismatch,
         "v has 4 rows, t has 3"),
        (lambda x: {k: m[:1] for k, m in x.items()}, LossConfig(), BatchTooSmall,
         "at least 2 rows, got 1"),
        (lambda x: {**x, "t": x["t"][:, :5]}, LossConfig(), ShapeMismatch,
         r"v/t shapes differ: \(4, 8\) vs \(4, 5\)"),
        (lambda x: {**x, "a": x["a"][:, :5]}, LossConfig(), ShapeMismatch,
         r"r/a shapes differ: \(4, 8\) vs \(4, 5\)"),
        (lambda x: {k: np.stack([m, m]) for k, m in x.items()}, LossConfig(),
         ValueError, r"\(N, D\) inputs, not stacks"),
        (lambda x: x, LossConfig(split_guidance_temperature=True), ValueError,
         "needs a guidance_tau"),
    ], ids=["rows-differ", "one-row", "v-t-widths", "r-a-widths", "stack",
            "split-without-guidance-tau"])
    def test_backward_rejects_inputs_naming_them(self, edit, cfg, error, match):
        inputs = edit(dict(zip("vtra", random_inputs(0))))
        with pytest.raises(error, match=match):
            backward("total", *inputs.values(), Temperature.from_tau(0.07), cfg)


class TestForwardValueSemantics:
    def test_degenerate_targets_propagate(self):
        v, t, r, a = random_inputs(3)
        cfg = LossConfig(beta=0.0, divergence="symmetric_kl")
        with pytest.raises(DegenerateTargets):
            forward_value("soft", v, t, r, a, Temperature.from_tau(0.07), cfg)

    def test_matches_backward_value(self):
        v, t, r, a = random_inputs(4)
        cfg = LossConfig()
        tau = Temperature.from_tau(0.07)
        for selector in LOSS_VARIANTS:
            val, _ = backward(selector, v, t, r, a, tau, cfg)
            assert abs(val - forward_value(selector, v, t, r, a, tau, cfg)) < 1e-12

    def test_clamped_temperature_has_zero_gradient(self):
        v, t, r, a = random_inputs(5)
        tau = Temperature.from_tau(1e-6)  # clamped at the floor
        assert tau.clamp_active
        _, g = backward("clip", v, t, r, a, tau, LossConfig())
        assert g.d_log_inv_tau == 0.0


@pytest.mark.parametrize("lambda_re", [0.0, 1.0])
@pytest.mark.parametrize("divergence", DIVERGENCES)
@pytest.mark.parametrize("beta", [0.0, 0.3])
@pytest.mark.parametrize("selector", LOSS_VARIANTS)
def test_loss_config_check_matches_graph(selector, beta, divergence, lambda_re):
    degenerate = (
        beta == 0.0
        and selector in ("soft", "soft_re", "total", "mixed_gamma")
        and (divergence != "forward_kl" or selector == "soft_re"
             or (selector in ("total", "mixed_gamma") and lambda_re > 0.0))
    )
    v, t, r, a = random_inputs(7)
    tau = Temperature.from_tau(0.07)
    # gamma 0 and 1 leave one guidance bundle out of mixed_gamma
    for gamma in (0.0, 1.0):
        cfg = LossConfig(beta=beta, divergence=divergence, lambda_re=lambda_re,
                         gamma=gamma)
        if not degenerate:
            cfg.check(selector)
            assert np.isfinite(forward_value(selector, v, t, r, a, tau, cfg))
            continue
        with pytest.raises(SoftalignError) as by_check:
            cfg.check(selector)
        with pytest.raises(SoftalignError) as by_graph:
            forward_value(selector, v, t, r, a, tau, cfg)
        assert type(by_check.value) is type(by_graph.value) is DegenerateTargets


def test_loss_config_check_rejects_unknown_variant():
    with pytest.raises(ValueError):
        LossConfig().check("cosine")


def test_loss_config_terms():
    cfg = LossConfig(lambda_re=0.5, mu_clip=0.0, gamma=0.25)
    assert cfg.terms("label_smooth") == (
        ("label_smooth", "it", "label_smooth", 1.0),)
    assert cfg.terms("soft_re") == (("soft_re", "ra", "soft_re", 1.0),)
    assert cfg.terms("total") == (
        ("soft", "ra", "soft", 1.0), ("soft_re", "ra", "soft_re", 0.5),
        ("clip", "it", "clip", 0.0))
    assert cfg.terms("mixed_gamma") == (
        ("soft_ra", "ra", "soft", 0.25), ("soft_re_ra", "ra", "soft_re", 0.125),
        ("soft_it", "it", "soft", 0.75), ("soft_re_it", "it", "soft_re", 0.375))
    off = LossConfig(lambda_re=0.0, gamma=1.0)
    assert [kind for _, _, kind, _ in off.terms("total")] == ["soft", "clip"]
    assert off.terms("mixed_gamma") == (("soft_ra", "ra", "soft", 1.0),)


@pytest.mark.parametrize("lambda_re", [0.0, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("stop_grad", [True, False])
@pytest.mark.parametrize("selector", LOSS_VARIANTS)
def test_live_inputs_match_analytic_gradients(selector, stop_grad, gamma,
                                              lambda_re):
    # the oracle skips exactly the inputs whose analytic gradient is zero
    cfg = LossConfig(stop_gradient_targets=stop_grad, gamma=gamma,
                     lambda_re=lambda_re)
    v, t, r, a = random_inputs(12, n=4, d=5)
    _, g = backward(selector, v, t, r, a, Temperature.from_tau(0.07), cfg)
    live = cfg.live_inputs(selector)
    for name in ("v", "t", "r", "a"):
        assert bool(g.by_name(name).any()) == (name in live), name


@pytest.mark.parametrize("lambda_re, mu_clip", [(0.0, 0.5), (1.0, 0.0), (0.0, 0.0)])
def test_total_components_of_left_out_terms(lambda_re, mu_clip):
    # mu_clip=0 still reports the contrastive value; lambda_re=0 reports 0
    v, t, r, a = map(l2_normalize_rows, random_inputs(13, n=5, d=6))
    tau = Temperature.from_tau(0.07)
    cfg = LossConfig(lambda_re=lambda_re, mu_clip=mu_clip)
    value, comps, _ = gradcheck.backward_with_components(
        "total", v, t, r, a, tau, cfg)
    ref = objectives.softclip_total(v, t, r, a, tau, cfg)
    assert abs(comps["clip"] - objectives.clip_loss(v, t, tau)) <= 1e-12
    assert abs(comps["soft"] - ref.soft) <= 1e-12
    if lambda_re == 0.0:
        assert comps["soft_re"] == 0.0
    assert comps["total"] == value
    assert abs(value - ref.total) <= 1e-12 * abs(ref.total)


def _reference_value(selector, v, t, r, a, tau, cfg, g_tau):
    """The same selector evaluated by the objectives.py reference forward."""
    if selector == "clip":
        return objectives.clip_loss(v, t, tau, cfg.target_floor)
    if selector == "label_smooth":
        y = label_smooth_targets(v.shape[0], cfg.alpha)
        return 0.5 * (cross_entropy_rows(y, cross_modal_dist(v, t, tau))
                      + cross_entropy_rows(y, cross_modal_dist(t, v, tau)))
    if selector == "mixed_gamma":
        return objectives.mixed_guidance_loss(v, t, r, a, tau, cfg.gamma, cfg,
                                              guidance_tau=g_tau)
    if selector == "total":
        return objectives.softclip_total(v, t, r, a, tau, cfg,
                                         guidance_tau=g_tau).total
    dists = objectives.build_distributions(v, t, r, a, tau, cfg, g_tau)
    if selector == "soft":
        return objectives.soft_loss(dists, cfg)
    return objectives.relation_enhanced_soft_loss(dists, cfg)


def _outcome(fn):
    try:
        return fn()
    except SoftalignError as exc:
        return type(exc)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("form", list(SUPERVISION_FORMS))
@pytest.mark.parametrize("stop_grad", [True, False])
@pytest.mark.parametrize("divergence", DIVERGENCES)
@pytest.mark.parametrize("selector", LOSS_VARIANTS)
def test_graph_matches_reference(selector, divergence, stop_grad, form, split):
    # beta=0 makes some combinations infeasible: both paths must then
    # raise the same error
    tau = Temperature.from_tau(0.07)
    g_tau = Temperature.from_tau(0.2) if split else None
    for n in (2, 5, 12):
        v, t, r, a = map(l2_normalize_rows, random_inputs(n, n=n, d=6))
        for beta in (0.0, 0.3):
            cfg = LossConfig(beta=beta, divergence=divergence, gamma=0.4,
                             stop_gradient_targets=stop_grad,
                             supervision_form=form,
                             split_guidance_temperature=split)
            graph = _outcome(lambda: forward_value(
                selector, v, t, r, a, tau, cfg, guidance_tau=g_tau))
            ref = _outcome(lambda: _reference_value(
                selector, v, t, r, a, tau, cfg, g_tau))
            if isinstance(ref, type) or isinstance(graph, type):
                assert graph is ref, (n, beta, graph, ref)
            else:
                assert abs(graph - ref) <= 1e-12 * max(1.0, abs(ref)), (n, beta)


def _reference_components(selector, v, t, r, a, tau, cfg, g_tau):
    """Every component the graph reports for ``selector``, from the
    objectives.py reference forward on unit rows."""
    value = _reference_value(selector, v, t, r, a, tau, cfg, g_tau)
    comps = {selector: value, "total": value}
    if selector == "total":
        ref = objectives.softclip_total(v, t, r, a, tau, cfg, guidance_tau=g_tau)
        comps.update(clip=ref.clip, soft=ref.soft, soft_re=ref.soft_re)
    elif selector == "mixed_gamma":
        inputs = {"ra": (v, t, r, a), "it": (v, t, v, t)}
        term = {"soft": objectives.soft_loss,
                "soft_re": objectives.relation_enhanced_soft_loss}
        for component, bundle, kind, _ in cfg.terms(selector):
            dists = objectives.build_distributions(*inputs[bundle], tau, cfg, g_tau)
            comps[component] = term[kind](dists, cfg)
    return comps


# log(1/tau) at the clamp edges, tau = TAU_MAX and tau = TAU_MIN
_CLAMP_EDGES = (float(-np.log(TAU_MAX)), float(-np.log(TAU_MIN)))
# tau 0.07 and 0.2, both clamp edges, and the whole range between and
# beyond them
_LOG_INV_TAUS = st.one_of(
    st.sampled_from([float(-np.log(0.07)), float(-np.log(0.2)), *_CLAMP_EDGES]),
    st.floats(_CLAMP_EDGES[0] - 2.0, _CLAMP_EDGES[1] + 2.0))


@settings(derandomize=True, deadline=None, max_examples=1200)
@given(selector=st.sampled_from(LOSS_VARIANTS),
       divergence=st.sampled_from(DIVERGENCES),
       form=st.sampled_from(list(SUPERVISION_FORMS)),
       stop_grad=st.booleans(), split=st.booleans(),
       beta=st.sampled_from([0.0, 0.3, 1.0]),
       n=st.one_of(st.integers(2, 16), st.integers(65, 130)),
       d=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       log_inv_tau=_LOG_INV_TAUS, log_inv_tau_g=_LOG_INV_TAUS)
def test_graph_matches_reference_property(selector, divergence, form, stop_grad,
                                          split, beta, n, d, seed,
                                          log_inv_tau, log_inv_tau_g):
    # N from 65 runs the graph in two or three row blocks on every usable
    # CPU. Values and components come from the per-row values of every
    # block; without stop-gradient the gradients, stitched from the blocks'
    # rows, must give the reference's derivative along a random direction.
    # Values and errors are compared at every temperature, clamped or not;
    # a temperature's gradient only where the central difference stays on
    # one side of its clamp
    rng = np.random.default_rng(seed)
    raw = [rng.standard_normal((n, d)) for _ in range(4)]
    tau = Temperature(log_inv_tau)
    g_tau = Temperature(log_inv_tau_g) if split else None
    cfg = LossConfig(beta=beta, divergence=divergence, gamma=0.4,
                     stop_gradient_targets=stop_grad, supervision_form=form,
                     split_guidance_temperature=split)
    graph = _outcome(lambda: gradcheck.backward_with_components(
        selector, *raw, tau, cfg, guidance_tau=g_tau))
    ref = _outcome(lambda: _reference_components(
        selector, *map(l2_normalize_rows, raw), tau, cfg, g_tau))
    if isinstance(ref, type) or isinstance(graph, type):
        assert graph is ref, (graph, ref)
        return
    value, comps, grads = graph
    assert comps[selector] == comps["total"] == value
    assert set(comps) == set(ref)
    # scaled by max(1, |ref|): a component that is exactly 0 (the it bundle
    # under R2A_A2R at beta 1 targets its own prediction) reads +-1e-17
    for name, want in ref.items():
        assert abs(comps[name] - want) <= 1e-12 * max(1.0, abs(want)), name
    if stop_grad:
        return
    step = [rng.standard_normal((n, d)) for _ in range(4)]
    step_tau, step_g_tau = rng.standard_normal(2)
    h = 1e-6

    def one_sided(temp, u):
        """Whether log(1/tau) +- 2 h u lie on one side of the clamp."""
        return (Temperature(temp.log_inv_tau + 2 * h * u).clamp_active
                == Temperature(temp.log_inv_tau - 2 * h * u).clamp_active)
    if not one_sided(tau, step_tau):
        step_tau = 0.0
    if split and not one_sided(g_tau, step_g_tau):
        step_g_tau = 0.0

    def reference_at(s):
        moved = [l2_normalize_rows(x + s * h * u) for x, u in zip(raw, step)]
        tau_s = Temperature(tau.log_inv_tau + s * h * step_tau)
        g_tau_s = (Temperature(g_tau.log_inv_tau + s * h * step_g_tau)
                   if split else None)
        return _reference_value(selector, *moved, tau_s, cfg, g_tau_s)
    # the fourth-order stencil: a raw row of small norm makes the third
    # derivative large enough to defeat the plain central difference
    numeric = (8 * (reference_at(1) - reference_at(-1))
               - (reference_at(2) - reference_at(-2))) / (12 * h)
    analytic = (sum(float((grads.by_name(name) * u).sum())
                    for name, u in zip("vtra", step))
                + grads.d_log_inv_tau * step_tau
                + (grads.d_log_inv_tau_guidance * step_g_tau if split else 0.0))
    assert abs(analytic - numeric) <= 1e-6 * max(1.0, abs(numeric)), (
        analytic, numeric)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(form=st.sampled_from(list(SUPERVISION_FORMS)),
       stop_grad=st.booleans(), split=st.booleans(),
       n=st.one_of(st.integers(2, 16), st.integers(65, 130)),
       d=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       log_inv_tau=_LOG_INV_TAUS, log_inv_tau_g=_LOG_INV_TAUS)
def test_total_reduces_to_clip_property(form, stop_grad, split, n, d, seed,
                                        log_inv_tau, log_inv_tau_g):
    # criterion 2 on the graph that trains: at beta=0 the softened targets
    # are one-hot, so forward KL is the contrastive cross-entropy, and
    # lambda_re=mu_clip=0 leaves that term alone in the total
    rng = np.random.default_rng(seed)
    raw = [rng.standard_normal((n, d)) for _ in range(4)]
    tau = Temperature(log_inv_tau)
    g_tau = Temperature(log_inv_tau_g) if split else None
    cfg = LossConfig(beta=0.0, divergence="forward_kl", lambda_re=0.0,
                     mu_clip=0.0, stop_gradient_targets=stop_grad,
                     supervision_form=form, split_guidance_temperature=split)
    total, _, _ = gradcheck.backward_with_components(
        "total", *raw, tau, cfg, guidance_tau=g_tau)
    clip, _, _ = gradcheck.backward_with_components(
        "clip", *raw, tau, cfg, guidance_tau=g_tau)
    assert abs(total - clip) <= 1e-12 * max(1.0, abs(clip)), (total, clip)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(selector=st.sampled_from(["soft_re", "total", "mixed_gamma"]),
       divergence=st.sampled_from(DIVERGENCES),
       form=st.sampled_from(list(SUPERVISION_FORMS)),
       stop_grad=st.booleans(), split=st.booleans(),
       beta=st.sampled_from([0.3, 1.0]) | st.floats(1e-3, 1.0),
       d=st.integers(1, 32), seed=st.integers(0, 2**32 - 1),
       log_inv_tau=_LOG_INV_TAUS, log_inv_tau_g=_LOG_INV_TAUS)
def test_two_sample_relation_term_is_zero_property(selector, divergence, form,
                                                   stop_grad, split, beta, d,
                                                   seed, log_inv_tau,
                                                   log_inv_tau_g):
    # criterion 4 on the graph that trains: at N=2 each row keeps one
    # negative, so both renormalized rows are [0, 1] and every relation-
    # enhanced component is exactly 0, or both forwards find a degenerate row
    rng = np.random.default_rng(seed)
    raw = [rng.standard_normal((2, d)) for _ in range(4)]
    tau = Temperature(log_inv_tau)
    g_tau = Temperature(log_inv_tau_g) if split else None
    cfg = LossConfig(beta=beta, divergence=divergence, gamma=0.4,
                     stop_gradient_targets=stop_grad, supervision_form=form,
                     split_guidance_temperature=split)
    graph = _outcome(lambda: gradcheck.backward_with_components(
        selector, *raw, tau, cfg, guidance_tau=g_tau))
    ref = _outcome(lambda: _reference_value(
        selector, *map(l2_normalize_rows, raw), tau, cfg, g_tau))
    if isinstance(ref, type) or isinstance(graph, type):
        assert graph is ref, (graph, ref)
        return
    _, comps, _ = graph
    relation = {name: x for name, x in comps.items() if name.startswith("soft_re")}
    assert relation and all(x == 0.0 for x in relation.values()), relation


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(selector=st.sampled_from(LOSS_VARIANTS),
       divergence=st.sampled_from(DIVERGENCES),
       form=st.sampled_from(list(SUPERVISION_FORMS)),
       split=st.booleans(), beta=st.sampled_from([0.3, 1.0]),
       dtype=st.sampled_from([np.float64, np.longdouble]),
       stacked=st.tuples(st.just(True), st.booleans(), st.booleans(), st.booleans()),
       b=st.integers(1, 3),
       n=st.one_of(st.integers(2, 16), st.integers(65, 100)),
       d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       log_inv_tau=_LOG_INV_TAUS, log_inv_tau_g=_LOG_INV_TAUS)
def test_stacked_run_equals_each_slice_property(selector, divergence, form, split,
                                                beta, dtype, stacked, b, n, d,
                                                seed, log_inv_tau, log_inv_tau_g,
                                                same_bits):
    # the oracle stacks the perturbations of one input into a (B, N, D)
    # forward and reads entry i as the forward of perturbation i: each
    # entry's value and components must be that slice's, bit for bit, with
    # the unstacked inputs broadcast. v, which every selector reads, is
    # always stacked; N from 65 spans two row blocks
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((b, n, d) if s else (n, d)).astype(dtype)
              for s in stacked]
    tau = Temperature(log_inv_tau)
    g_tau = Temperature(log_inv_tau_g) if split else None
    cfg = LossConfig(beta=beta, divergence=divergence, gamma=0.4,
                     supervision_form=form, split_guidance_temperature=split)

    def run(xs):
        return _outcome(lambda: gradcheck._run(selector, *xs, tau, cfg, g_tau,
                                               dtype=dtype)[:2])
    whole = run(inputs)
    slices = [run([x[i] if s else x for x, s in zip(inputs, stacked)])
              for i in range(b)]
    errors = {s for s in slices if isinstance(s, type)}
    if errors or isinstance(whole, type):
        assert whole in errors, (whole, slices)
        return
    value, comps = whole
    assert value.shape == (b,)
    for name, x in comps.items():
        assert x.shape == (b,) and x.dtype == dtype, (name, x.shape, x.dtype)
    for i, (value_i, comps_i) in enumerate(slices):
        assert same_bits(value[i], value_i), i
        assert set(comps) == set(comps_i)
        for name, x in comps.items():
            assert same_bits(x[i], comps_i[name]), (i, name)


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _divergence_rows(divergence, beta, disentangled, pred, guid):
    """The graph's per-row divergences of one direction: prediction logits
    ``pred`` against the targets it softens from guidance logits ``guid``."""
    n = pred.shape[0]
    cfg = LossConfig(beta=beta, divergence=divergence)
    graph = gradcheck._Graph(*np.ones((4, n, 1)), Temperature(0.0), cfg)
    k_pred, k_guid = graph.key("v", "t", False), graph.key("r", "a", True)
    graph._z[k_pred], graph._z[k_guid] = pred, guid
    block = gradcheck._Block(graph, 0, n)
    return gradcheck._soft_direction(block, k_pred, k_guid, 0.0, disentangled)


def _distributions(beta, disentangled, pred, guid):
    """(p, t) of that direction, computed here: the softmax rows of
    ``pred``, and ``beta`` times those of ``guid`` plus ``1 - beta`` on the
    diagonal; disentangled, both lose their diagonal and are renormalized."""
    n = pred.shape[0]
    p, t = _softmax(pred), beta * _softmax(guid) + (1.0 - beta) * np.eye(n)
    if disentangled:
        off = 1.0 - np.eye(n)
        p, t = p * off, t * off
        p /= p.sum(axis=1, keepdims=True)
        t /= t.sum(axis=1, keepdims=True)
    return p, t


@settings(derandomize=True, deadline=None, max_examples=300)
@given(divergence=st.sampled_from(DIVERGENCES), disentangled=st.booleans(),
       same=st.booleans(),
       beta=st.sampled_from([1.0]) | st.floats(0.05, 1.0),
       scale=st.sampled_from([1.0, 30.0, 300.0]) | st.floats(0.0, 300.0),
       n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_divergence_rows_property(divergence, disentangled, same, beta, scale,
                                  n, seed):
    # criterion 5 on the graph's rows. KL >= 0, and 0 only for equal rows,
    # as Pinsker's bound KL(t || p) >= |t - p|_1^2 / 2: symmetric KL
    # averages two such KLs, JS two halves against the mixture, so
    # JS >= |t - p|_1^2 / 8. Symmetric KL is symmetric, and JS lies in
    # [0, ln 2]. Logits up to +-300 saturate rows without underflowing a
    # probability to 0; ``same`` makes the targets the prediction itself
    rng = np.random.default_rng(seed)
    pred = scale * rng.uniform(-1.0, 1.0, (n, n))
    guid = pred.copy() if same else scale * rng.uniform(-1.0, 1.0, (n, n))
    if same:
        beta = 1.0
    try:
        rows = _divergence_rows(divergence, beta, disentangled, pred, guid)
    except DegenerateRow:
        return  # a saturated row has no negative mass to renormalize
    p, t = _distributions(beta, disentangled, pred, guid)
    l1 = np.abs(p - t).sum(axis=1)
    bound = 0.125 * l1 ** 2 if divergence == "js" else 0.5 * l1 ** 2
    assert (rows >= bound - 1e-12).all(), (rows, bound)
    if same:
        assert (np.abs(rows) <= 1e-12).all(), rows
    if divergence == "js":
        assert (rows <= np.log(2.0) + 1e-12).all(), rows
    elif divergence == "symmetric_kl" and beta == 1.0:
        # the same rows with the prediction and guidance logits swapped
        swapped = _divergence_rows(divergence, beta, disentangled, guid, pred)
        assert (np.abs(rows - swapped) <= 1e-12 * np.maximum(1.0, rows)).all()


def _near_duplicates(n, cos, noise, rng):
    """Two (n, n + 1) batches whose rows, within and across them, all meet
    at cosine about ``cos``, plus Gaussian ``noise``."""
    base = np.hstack([np.full((n, 1), np.sqrt(cos)), np.sqrt(1.0 - cos) * np.eye(n)])
    return [base + noise * rng.standard_normal(base.shape) for _ in range(2)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(selector=st.sampled_from(LOSS_VARIANTS),
       divergence=st.sampled_from(DIVERGENCES),
       form=st.sampled_from(list(SUPERVISION_FORMS)),
       stop_grad=st.booleans(), split=st.booleans(),
       beta=st.sampled_from([0.3, 1.0]) | st.floats(1e-3, 1.0),
       gap=st.floats(10.0, 35.0), gap_g=st.floats(10.0, 35.0),
       log_noise=st.floats(-12.0, -2.0),
       n=st.one_of(st.integers(2, 16), st.integers(65, 80)),
       seed=st.integers(0, 2**32 - 1),
       log_inv_tau=st.floats(3.0, 5.5), log_inv_tau_g=st.floats(3.0, 5.5))
def test_near_saturated_rows_match_reference_property(
        selector, divergence, form, stop_grad, split, beta, gap, gap_g,
        log_noise, n, seed, log_inv_tau, log_inv_tau_g):
    # drawn on purpose: v and t are near duplicates, and so are r and a,
    # so a softmax row's positive outweighs each negative by about e^gap
    # (e^gap_g for the guidance). Off-diagonal masses then fall near the
    # 1e-12 floor, on either side of it, for the prediction and the
    # guidance apart. The graph's forward must equal the reference's, or
    # both must raise the same error
    rng = np.random.default_rng(seed)
    tau = Temperature(log_inv_tau)
    g_tau = Temperature(log_inv_tau_g) if split else None
    noise = 10.0 ** log_noise
    raw = [*_near_duplicates(n, max(0.0, 1.0 - gap * tau.tau), noise, rng),
           *_near_duplicates(n, max(0.0, 1.0 - gap_g * (g_tau or tau).tau),
                             noise, rng)]
    cfg = LossConfig(beta=beta, divergence=divergence, gamma=0.4,
                     stop_gradient_targets=stop_grad, supervision_form=form,
                     split_guidance_temperature=split)
    graph = _outcome(lambda: gradcheck._run(selector, *raw, tau, cfg, g_tau)[1])
    ref = _outcome(lambda: _reference_components(
        selector, *map(l2_normalize_rows, raw), tau, cfg, g_tau))
    if isinstance(ref, type) or isinstance(graph, type):
        assert graph is ref, (graph, ref)
        return
    assert set(graph) == set(ref)
    for name, want in ref.items():
        assert abs(graph[name] - want) <= 1e-12 * max(1.0, abs(want)), name


@settings(derandomize=True, deadline=None, max_examples=300)
@given(selector=st.sampled_from(LOSS_VARIANTS),
       divergence=st.sampled_from(DIVERGENCES),
       stop_grad=st.booleans(),
       n=st.integers(2, 8), d=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_check_gradients_property(selector, divergence, stop_grad, n, d, seed):
    cfg = LossConfig(divergence=divergence, stop_gradient_targets=stop_grad)
    try:
        rep = check_gradients(selector, seed=seed, n=n, d=d, cfg=cfg)
    except DegenerateRow:
        # a saturated disentangled row at the base point is rejected by
        # design; anywhere else it is a failure
        rng = np.random.default_rng(seed)
        v, t, r, a = (rng.standard_normal((n, d)) for _ in range(4))
        with pytest.raises(DegenerateRow):
            forward_value(selector, v, t, r, a,
                          Temperature.from_tau(cfg.tau_init), cfg)
        reject()
    assert rep.passed, rep.to_json()


def _graph_bits(selector, v, t, r, a, tau, cfg, g_tau):
    """Value, components and gradients of one backward, or the error type."""
    try:
        value, comps, g = gradcheck.backward_with_components(
            selector, v, t, r, a, tau, cfg, guidance_tau=g_tau)
    except SoftalignError as exc:
        return type(exc)
    return [value, *(comps[k] for k in sorted(comps)),
            *(g.by_name(name) for name in "vtra"),
            g.d_log_inv_tau, g.d_log_inv_tau_guidance]


def _assert_all_same_bits(got, want, same_bits):
    if isinstance(want, type):
        assert got is want
        return
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert (x is None and y is None) or same_bits(x, y)


@pytest.mark.parametrize("n", [5, 12])
@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("stop_grad", [True, False])
@pytest.mark.parametrize("divergence", DIVERGENCES)
def test_row_blocks_give_the_one_block_bits(divergence, stop_grad, split, block,
                                            n, monkeypatch, same_bits):
    v, t, r, a = random_inputs(n, n=n, d=6)
    tau = Temperature.from_tau(0.07)
    g_tau = Temperature.from_tau(0.2) if split else None
    cfg = LossConfig(divergence=divergence, stop_gradient_targets=stop_grad,
                     gamma=0.4, split_guidance_temperature=split)
    assert gradcheck._BLOCK_ROWS >= n  # the reference runs as one block
    whole = {s: _graph_bits(s, v, t, r, a, tau, cfg, g_tau) for s in LOSS_VARIANTS}
    monkeypatch.setattr(gradcheck, "_BLOCK_ROWS", block)
    for selector in LOSS_VARIANTS:
        _assert_all_same_bits(_graph_bits(selector, v, t, r, a, tau, cfg, g_tau),
                              whole[selector], same_bits)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("selector", ["soft_re", "mixed_gamma"])
def test_row_blocks_give_the_one_block_oracle(selector, block, monkeypatch,
                                              same_bits):
    # stop-gradient: the oracle's frozen target table holds one entry per
    # block, filled at the base point and read by the stacked forwards
    v, t, r, a = random_inputs(14, n=5, d=3)
    tau = Temperature.from_tau(0.07)
    cfg = LossConfig(stop_gradient_targets=True, gamma=0.4)
    whole = finite_difference_grad(selector, v, t, r, a, tau, cfg)
    monkeypatch.setattr(gradcheck, "_BLOCK_ROWS", block)
    blocked = finite_difference_grad(selector, v, t, r, a, tau, cfg)
    for name in "vtra":
        assert same_bits(blocked.by_name(name), whole.by_name(name)), name
    assert same_bits(blocked.d_log_inv_tau, whole.d_log_inv_tau)


@pytest.mark.parametrize("block", [1, 2, 3, 64])
@pytest.mark.parametrize("side", ["prediction", "target"])
def test_degenerate_row_of_a_later_block_names_its_global_row(side, block,
                                                              monkeypatch):
    # row 3 points away from the four equal rows, so its off-diagonal mass
    # is about 4 exp(-2 / 0.05)
    far = np.zeros((5, 4))
    far[:, 0] = [-1.0, -1.0, -1.0, 1.0, -1.0]
    v, t, r, a = random_inputs(15, n=5, d=4)
    if side == "prediction":
        v, t = far, far.copy()
    else:
        r, a = far, far.copy()
    monkeypatch.setattr(gradcheck, "_BLOCK_ROWS", block)
    with pytest.raises(DegenerateRow, match=f"^{side} row 3 has"):
        gradcheck.backward("soft_re", v, t, r, a, Temperature.from_tau(0.05),
                           LossConfig(beta=1.0))


# ---------------------------------------------------------------------------
# row blocks on a thread pool
# ---------------------------------------------------------------------------

def _recording_kernel(seen: set):
    """The row kernel every block runs, adding its thread and errstate to ``seen``."""
    kernel = backend.softmax_logsoftmax_rows

    def recording(z):
        seen.add((threading.get_ident(), tuple(sorted(np.geterr().items()))))
        return kernel(z)
    return recording


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` makes the graph see ``k`` usable CPUs and returns the
    (thread, errstate) pairs its blocks run under from then on."""
    seen = set()
    monkeypatch.setattr(backend, "softmax_logsoftmax_rows", _recording_kernel(seen))

    def use(count: int) -> set:
        monkeypatch.setattr(cpu_owner, "_usable_cpus", lambda: count)
        seen.clear()
        return seen
    return use


def _threads(seen: set) -> set:
    return {thread for thread, _ in seen}


@pytest.mark.parametrize("n", [65, 130, 200])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("stop_grad", [True, False])
@pytest.mark.parametrize("divergence", DIVERGENCES)
def test_threaded_blocks_give_the_serial_bits(divergence, stop_grad, split, n,
                                              cpus, same_bits):
    v, t, r, a = random_inputs(n, n=n, d=6)
    tau = Temperature.from_tau(0.07)
    g_tau = Temperature.from_tau(0.2) if split else None
    cfg = LossConfig(divergence=divergence, stop_gradient_targets=stop_grad,
                     gamma=0.4, split_guidance_temperature=split)
    seen = cpus(1)
    serial = {s: _graph_bits(s, v, t, r, a, tau, cfg, g_tau) for s in LOSS_VARIANTS}
    assert _threads(seen) == {threading.get_ident()}
    seen = cpus(2)
    for selector in LOSS_VARIANTS:
        _assert_all_same_bits(_graph_bits(selector, v, t, r, a, tau, cfg, g_tau),
                              serial[selector], same_bits)
    assert seen and threading.get_ident() not in _threads(seen)


def test_more_threads_than_cores_lose_no_gradient_rows(cpus, same_bits):
    # eight one-block threads with a short switch interval run at once,
    # each keeping its own gradient rows; a block whose rows were lost or
    # stitched in the wrong place would change the bits
    v, t, r, a = random_inputs(18, n=512, d=6)
    tau = Temperature.from_tau(0.07)
    cfg = LossConfig(stop_gradient_targets=False, lambda_re=1.0, gamma=0.5)
    cpus(1)
    serial = _graph_bits("mixed_gamma", v, t, r, a, tau, cfg, None)
    seen = cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _assert_all_same_bits(_graph_bits("mixed_gamma", v, t, r, a, tau, cfg, None),
                                  serial, same_bits)
    finally:
        sys.setswitchinterval(interval)
    assert threading.get_ident() not in _threads(seen)


def test_blocked_backward_peak_memory_is_bounded():
    # each block's caches die with it and the gradients are stitched after
    # the blocks end: the peak stays near 20 (N, N) float64 matrices, where
    # blocks kept alive until the stitch reach about 45
    n = 512
    v, t, r, a = random_inputs(22, n=n, d=16)
    tau = Temperature.from_tau(0.07)
    cfg = LossConfig(stop_gradient_targets=False, lambda_re=1.0, gamma=0.5)
    gradcheck.backward("mixed_gamma", v, t, r, a, tau, cfg)  # warm-up
    tracemalloc.start()
    try:
        gradcheck.backward("mixed_gamma", v, t, r, a, tau, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("side", ["prediction", "target"])
def test_threaded_blocks_raise_the_first_degenerate_row(side, cpus):
    # rows 70 and 129, in the second and third blocks, each point along an
    # axis of their own, away from the other 128 equal rows: both rows'
    # off-diagonal mass is about 129 exp(-1 / 0.02)
    far = np.zeros((130, 3))
    far[:, 0] = -1.0
    far[70] = [0.0, 1.0, 0.0]
    far[129] = [0.0, 0.0, 1.0]
    v, t, r, a = random_inputs(16, n=130, d=3)
    if side == "prediction":
        v, t = far, far.copy()
    else:
        r, a = far, far.copy()
    messages = []
    for count in (1, 2):
        cpus(count)
        with pytest.raises(DegenerateRow, match=f"^{side} row 70 has") as info:
            gradcheck.backward("soft_re", v, t, r, a, Temperature.from_tau(0.02),
                               LossConfig(beta=1.0))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_threaded_blocks_see_the_callers_errstate(cpus):
    v, t, r, a = random_inputs(17, n=130, d=6)
    seen = cpus(2)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        caller = tuple(sorted(np.geterr().items()))
        gradcheck.backward("mixed_gamma", v, t, r, a, Temperature.from_tau(0.07),
                           LossConfig(gamma=0.4))
    assert caller != tuple(sorted(np.geterr().items()))
    assert {state for _, state in seen} == {caller}
    assert threading.get_ident() not in _threads(seen)


def test_one_block_batch_starts_no_thread():
    code = (
        "import sys, threading\n"
        "import numpy as np\n"
        "from softalign import gradcheck\n"
        "from softalign.distributions import Temperature\n"
        "from softalign.objectives import LossConfig\n"
        "before = threading.active_count()\n"
        "rng = np.random.default_rng(0)\n"
        "v, t, r, a = (rng.standard_normal((64, 6)) for _ in range(4))\n"
        "gradcheck.backward('mixed_gamma', v, t, r, a, Temperature.from_tau(0.07),\n"
        "                   LossConfig(gamma=0.4))\n"
        "print('concurrent.futures' in sys.modules, before, threading.active_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported, before, after = proc.stdout.split()
    assert imported == "False" and before == after


@pytest.mark.parametrize("selector", ["total", "mixed_gamma"])
def test_blocks_in_any_order_give_the_serial_bits(selector, cpus, same_bits,
                                                  monkeypatch):
    # the last block runs first; the stitch must still put each block's
    # rows in row order, and finalize sum the keys in the first block's order
    v, t, r, a = random_inputs(19, n=200, d=6)
    tau, g_tau = Temperature.from_tau(0.07), Temperature.from_tau(0.2)
    cfg = LossConfig(stop_gradient_targets=False, lambda_re=1.0, gamma=0.5,
                     split_guidance_temperature=True)
    cpus(1)
    serial = _graph_bits(selector, v, t, r, a, tau, cfg, g_tau)

    def backwards(fn, items):
        return [fn(item) for item in reversed(list(items))][::-1]
    monkeypatch.setattr(cpu_owner, "map_tasks", backwards)
    _assert_all_same_bits(_graph_bits(selector, v, t, r, a, tau, cfg, g_tau),
                          serial, same_bits)


def test_blocks_that_contribute_in_different_orders_are_refused(cpus,
                                                                monkeypatch):
    # finalize sums the keys in the order of the blocks' first
    # contributions, so a block that skipped a key is refused
    v, t, r, a = random_inputs(20, n=130, d=6)
    add_dz = gradcheck._Block.add_dz

    def skip_in_second_block(block, key, contribution):
        if block.r0 == 64 and key[:2] == ("t", "v"):
            return
        add_dz(block, key, contribution)
    monkeypatch.setattr(gradcheck._Block, "add_dz", skip_in_second_block)
    cpus(1)
    with pytest.raises(AssertionError):
        gradcheck.backward("clip", v, t, r, a, Temperature.from_tau(0.07),
                           LossConfig())


def test_a_filled_target_table_skips_the_guidance_logits(monkeypatch):
    # the oracle's frozen targets leave the guidance softmax unread, so the
    # forwards that reuse them compute only the two prediction logits
    v, t, r, a = random_inputs(21, n=5, d=4)
    tau, cfg = Temperature.from_tau(0.07), LossConfig(lambda_re=1.0, gamma=0.5)
    frozen = {}
    gradcheck._run("mixed_gamma", v, t, r, a, tau, cfg, targets=frozen)
    computed = []
    logits = gradcheck._Graph.logits

    def recording(graph, key):
        computed.append(key)
        logits(graph, key)
    monkeypatch.setattr(gradcheck._Graph, "logits", recording)
    gradcheck._run("mixed_gamma", v, t, r, a, tau, cfg, targets=frozen)
    assert computed == [("v", "t", "pred"), ("t", "v", "pred")]

import json

import numpy as np
import pytest

from softalign.distributions import Temperature
from softalign.errors import DegenerateTargets
from softalign.numkit import stable_row_softmax
from softalign.objectives import LossConfig, cross_entropy_rows
from softalign import gradcheck
from softalign.gradcheck import (
    SELECTORS,
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
                cross_entropy_rows(y, stable_row_softmax(zp))
                - cross_entropy_rows(y, stable_row_softmax(zm))
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
        for selector in SELECTORS:
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
    @pytest.mark.parametrize("selector", SELECTORS)
    @pytest.mark.parametrize("stop_grad", [True, False])
    def test_default_config(self, selector, stop_grad):
        cfg = LossConfig(stop_gradient_targets=stop_grad)
        rep = check_gradients(selector, seed=0, n=4, d=8, cfg=cfg)
        assert rep.passed, rep.to_json()

    @pytest.mark.parametrize("divergence", ["forward_kl", "js"])
    def test_alternative_divergences(self, divergence):
        cfg = LossConfig(divergence=divergence, stop_gradient_targets=False)
        for selector in ("soft", "soft_re", "total"):
            rep = check_gradients(selector, seed=2, n=4, d=8, cfg=cfg)
            assert rep.passed, rep.to_json()

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


class TestCheckGradients:
    def test_report_fields_and_json(self):
        rep = check_gradients("clip", seed=1, n=2, d=4)
        assert rep.epsilon == 1e-5
        assert rep.tolerance == 1e-5
        assert rep.passed
        payload = json.loads(rep.to_json())
        assert payload["passed"] is True
        assert payload["selector"] == "clip"
        assert {p["name"] for p in payload["params"]} == {
            "v", "t", "r", "a", "log_inv_tau"
        }
        for p in payload["params"]:
            assert p["max_rel_err"] < 1e-5

    def test_zero_tolerance_fails(self):
        rep = check_gradients("total", seed=0, n=4, d=8, tolerance=0.0)
        assert not rep.passed

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
        for selector in SELECTORS:
            val, _ = backward(selector, v, t, r, a, tau, cfg)
            assert abs(val - forward_value(selector, v, t, r, a, tau, cfg)) < 1e-12

    def test_clamped_temperature_has_zero_gradient(self):
        v, t, r, a = random_inputs(5)
        tau = Temperature.from_tau(1e-6)  # clamped at the floor
        assert tau.clamp_active
        _, g = backward("clip", v, t, r, a, tau, LossConfig())
        assert g.d_log_inv_tau == 0.0

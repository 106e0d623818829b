import math

import numpy as np
import pytest

from softalign import backend
from softalign.distributions import (
    TAU_MAX,
    TAU_MIN,
    NegDisentangled,
    Temperature,
    cross_modal_dist,
    disentangle_negatives,
    label_smooth_targets,
    mix_targets,
    one_hot_targets,
)
from softalign.errors import BatchTooSmall, DegenerateRow, ShapeMismatch
from softalign.numkit import l2_normalize_rows

E = math.e
# e/(e+1) to 20 digits, via 50-digit arithmetic
E_OVER_E1 = 0.73105857863000487925


class TestTemperature:
    def test_from_tau_roundtrip(self):
        tau = Temperature.from_tau(0.07)
        assert abs(tau.tau - 0.07) < 1e-15
        assert abs(tau.inv_tau - 1.0 / 0.07) < 1e-12

    def test_clamp(self):
        assert Temperature.from_tau(1e-6).tau == TAU_MIN
        assert Temperature.from_tau(1e6).tau == TAU_MAX
        assert Temperature.from_tau(1e-6).clamp_active
        assert not Temperature.from_tau(0.07).clamp_active

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Temperature.from_tau(0.0)


class TestCrossModalDist:
    def test_identity_embeddings_tau_one(self):
        eye = np.eye(2)
        out = cross_modal_dist(eye, eye, Temperature.from_tau(1.0))
        expected = np.array([[E_OVER_E1, 1 - E_OVER_E1],
                             [1 - E_OVER_E1, E_OVER_E1]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_sharp_temperature_saturates_diagonal(self, rng):
        v = l2_normalize_rows(rng.standard_normal((6, 16)))
        out = cross_modal_dist(v, v, Temperature.from_tau(0.01))
        np.testing.assert_allclose(np.diagonal(out), 1.0, atol=1e-6)

    def test_duplicate_gallery_rows_give_equal_columns(self, rng):
        v = l2_normalize_rows(rng.standard_normal((4, 8)))
        t = l2_normalize_rows(rng.standard_normal((4, 8)))
        t[2] = t[0]
        out = cross_modal_dist(v, t, Temperature.from_tau(0.5))
        np.testing.assert_allclose(out[:, 0], out[:, 2], atol=0)

    def test_layering_matches_softmax_of_gram(self, rng):
        v = l2_normalize_rows(rng.standard_normal((5, 8)))
        t = l2_normalize_rows(rng.standard_normal((5, 8)))
        tau = Temperature.from_tau(0.07)
        direct = cross_modal_dist(v, t, tau)
        layered = backend.softmax_logsoftmax_rows((v @ t.T) * tau.inv_tau)[0]
        np.testing.assert_array_equal(direct, layered)

    def test_permutation_equivariance(self, rng):
        v = l2_normalize_rows(rng.standard_normal((6, 8)))
        t = l2_normalize_rows(rng.standard_normal((6, 8)))
        tau = Temperature.from_tau(0.3)
        sigma = rng.permutation(6)
        base = cross_modal_dist(v, t, tau)
        permuted = cross_modal_dist(v[sigma], t[sigma], tau)
        np.testing.assert_allclose(permuted, base[sigma][:, sigma], atol=1e-12)

    def test_errors(self):
        tau = Temperature.from_tau(1.0)
        with pytest.raises(BatchTooSmall):
            cross_modal_dist(np.ones((1, 3)), np.ones((1, 3)), tau)
        with pytest.raises(ShapeMismatch):
            cross_modal_dist(np.eye(2), np.eye(3), tau)


class TestIntraModalDist:
    """One batch against itself: ``cross_modal_dist(x, x, tau)``."""

    def test_orthonormal_closed_form(self):
        out = cross_modal_dist(np.eye(3), np.eye(3), Temperature.from_tau(1.0))
        diag, off = E / (E + 2), 1 / (E + 2)
        expected = np.full((3, 3), off)
        np.fill_diagonal(expected, diag)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_rows_uniform(self):
        x = np.tile(l2_normalize_rows(np.array([[1.0, 2.0, 2.0]])), (5, 1))
        out = cross_modal_dist(x, x, Temperature.from_tau(0.07))
        np.testing.assert_allclose(out, 0.2, atol=1e-12)


class TestTargets:
    def test_one_hot(self):
        np.testing.assert_array_equal(one_hot_targets(1), [[1.0]])
        np.testing.assert_array_equal(one_hot_targets(3), np.eye(3))
        assert (one_hot_targets(7).sum(axis=1) == 1.0).all()

    def test_label_smoothing_closed_form(self):
        out = label_smooth_targets(3, 0.2)
        expected = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        np.testing.assert_allclose(out, expected, atol=1e-16)

    def test_label_smoothing_zero_alpha(self):
        np.testing.assert_array_equal(label_smooth_targets(4, 0.0), np.eye(4))

    def test_label_smoothing_row_sums(self):
        for n in (2, 5, 33):
            sums = label_smooth_targets(n, 0.2).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-14)

    def test_label_smoothing_errors(self):
        with pytest.raises(BatchTooSmall):
            label_smooth_targets(1, 0.2)
        with pytest.raises(ValueError):
            label_smooth_targets(3, 1.0)

    def test_mix_forced_arithmetic(self):
        onehot = np.array([[1.0, 0.0, 0.0]])
        soft = np.array([[0.5, 0.3, 0.2]])
        out = mix_targets(onehot, soft, 0.3)
        np.testing.assert_allclose(out, [[0.85, 0.09, 0.06]], atol=1e-15)

    def test_mix_endpoints(self, rng):
        a = np.abs(rng.standard_normal((3, 3)))
        b = np.abs(rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(mix_targets(a, b, 0.0), a)
        np.testing.assert_array_equal(mix_targets(a, b, 1.0), b)

    def test_mix_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mix_targets(np.eye(3), np.eye(4), 0.3)

    @pytest.mark.parametrize("build, error, match", [
        (lambda: one_hot_targets(0), BatchTooSmall, "need n >= 1, got 0"),
        (lambda: mix_targets(np.eye(2), np.eye(2), 1.5), ValueError,
         r"beta must be in \[0, 1\], got 1.5"),
    ], ids=["one-hot-empty", "mix-beta"])
    def test_target_inputs_rejected_naming_them(self, build, error, match):
        with pytest.raises(error, match=match):
            build()


class TestDisentangleNegatives:
    def test_forced_row(self):
        p = np.array([[0.85, 0.09, 0.06],
                      [0.09, 0.85, 0.06],
                      [0.09, 0.06, 0.85]])
        out = disentangle_negatives(p)
        np.testing.assert_allclose(out.inner[0], [0.6, 0.4], atol=1e-12)

    def test_uniform_row(self):
        out = disentangle_negatives(np.full((4, 4), 0.25))
        np.testing.assert_allclose(out.inner, 1.0 / 3.0, atol=1e-15)

    def test_ratio_preservation_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            p = rng.dirichlet(np.ones(n), size=n)
            out = disentangle_negatives(p)
            i = int(rng.integers(0, n))
            cols = [j for j in range(n) if j != i]
            j, k = rng.choice(cols, size=2, replace=False)
            cj, ck = cols.index(j), cols.index(k)
            got = out.inner[i, cj] / out.inner[i, ck]
            want = p[i, j] / p[i, k]
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_rows_renormalized(self, rng):
        p = rng.dirichlet(np.ones(6), size=6)
        out = disentangle_negatives(p)
        np.testing.assert_allclose(out.inner.sum(axis=1), 1.0, atol=1e-9)
        assert out.inner.shape == (6, 5)

    def test_index_map(self):
        # column j of row i holds original column j for j < i, else j + 1
        p = np.array([[0.5, 0.3, 0.2],
                      [0.1, 0.6, 0.3],
                      [0.4, 0.4, 0.2]])
        out = disentangle_negatives(p)
        for i, cols in enumerate(([1, 2], [0, 2], [0, 1])):
            np.testing.assert_allclose(out.inner[i], p[i, cols] / p[i, cols].sum(),
                                       rtol=1e-15)

    def test_one_hot_degenerate(self):
        mixed = mix_targets(one_hot_targets(3), np.full((3, 3), 1 / 3), 0.0)
        with pytest.raises(DegenerateRow):
            disentangle_negatives(mixed)

    def test_errors(self):
        with pytest.raises(BatchTooSmall):
            disentangle_negatives(np.array([[1.0]]))
        with pytest.raises(ShapeMismatch):
            disentangle_negatives(np.full((2, 3), 0.5))


def _assert_row_stochastic(m: np.ndarray, atol: float = 1e-9) -> None:
    assert ((m >= -atol) & (m <= 1.0 + atol)).all()
    np.testing.assert_allclose(m.sum(axis=1), 1.0, rtol=0, atol=atol)


class TestRowStochasticInvariants:
    def test_constructors_produce_distributions(self):
        rng = np.random.default_rng(5)
        tau = Temperature.from_tau(0.07)
        for n in (2, 3, 8, 17, 64):
            x = l2_normalize_rows(rng.standard_normal((n, 12)))
            y = l2_normalize_rows(rng.standard_normal((n, 12)))
            for dist in (cross_modal_dist(x, y, tau), cross_modal_dist(x, x, tau),
                         one_hot_targets(n), label_smooth_targets(n, 0.2)):
                _assert_row_stochastic(dist)
            mixed = mix_targets(one_hot_targets(n),
                                cross_modal_dist(x, x, tau), 0.3)
            _assert_row_stochastic(mixed)
            disent = disentangle_negatives(mixed)
            assert isinstance(disent, NegDisentangled)
            np.testing.assert_allclose(disent.inner.sum(axis=1), 1.0, atol=1e-9)
            assert (disent.inner >= 0).all()

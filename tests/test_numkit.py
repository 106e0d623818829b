import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from softalign import backend, numkit
from softalign.distributions import Temperature, cross_modal_dist
from softalign.errors import ShapeMismatch, ZeroRow
from softalign.numkit import all_finite, as_matrix, average_ranks, l2_normalize_rows

# 1/tau = 1, so the logits are the dot products themselves
TAU_ONE = Temperature(0.0)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        out = l2_normalize_rows(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]], atol=0)

    def test_random_rows_unit_norm(self, rng):
        m = rng.standard_normal((5, 7))
        norms = np.sqrt((l2_normalize_rows(m) ** 2).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_idempotent(self, rng):
        m = rng.standard_normal((6, 4)) * 10
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_direction_preserved(self, rng):
        m = rng.standard_normal((4, 3))
        out = l2_normalize_rows(m)
        # each output row is a positive multiple of its input row
        scale = (m * out).sum(axis=1) / (out * out).sum(axis=1)
        np.testing.assert_allclose(out * scale[:, None], m, atol=1e-12)
        assert (scale > 0).all()

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRow, match=r"^matrix: row 1 has norm 0\.000e\+00"):
            l2_normalize_rows(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_zero_row_of_a_stack_names_its_entry(self, rng):
        # the loss graph's (B, N, D) inputs take the same rule
        m = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(numkit.row_norms(m), np.sqrt((m * m).sum(axis=-1)))
        m[1, 2] = 0.0
        with pytest.raises(ZeroRow, match=r"^input v: row 2 of stack entry 1 has norm 0\.000e\+00"):
            numkit.row_norms(m, "input v")


class TestValidation:
    @pytest.mark.parametrize("x, match", [
        (np.ones(3), r"v must be 2-D, got shape \(3,\)"),
        (np.ones((0, 3)), r"v must be non-empty, got shape \(0, 3\)"),
        (np.ones((3, 0)), r"v must be non-empty, got shape \(3, 0\)"),
    ], ids=["1-d", "no-rows", "no-columns"])
    def test_as_matrix_rejects_shapes_naming_them(self, x, match):
        with pytest.raises(ShapeMismatch, match=match):
            as_matrix(x, "v")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5, 11])
    def test_all_finite_finds_one_entry(self, value, at):
        x = np.arange(12.0).reshape(3, 4)
        assert all_finite(x)
        x.reshape(-1)[at] = value
        assert not all_finite(x)
        assert not all_finite(x.T)  # a non-contiguous view

    def test_all_finite_past_an_overflowing_sum_of_squares(self):
        # the squares overflow, so only the elementwise scan can decide
        x = np.full((2, 3), 1e200)
        assert all_finite(x) and all_finite(-x)
        x[1, 2] = np.inf
        assert not all_finite(x)

    def test_all_finite_past_an_overflowing_sum(self):
        # the sum overflows, so only the elementwise scan can decide
        x = np.full((2, 3), 1e308)
        assert all_finite(x) and all_finite(-x)
        x[1, 2] = -np.inf
        assert not all_finite(x)

    def test_all_finite_on_an_unaligned_view_copies_nothing(self):
        # a dot product would copy the view (twice); the sum buffers it
        buf = bytearray(8 * 100_000 + 2)
        x = np.frombuffer(buf, np.float64, 100_000, 2)
        assert not x.flags.aligned
        tracemalloc.start()
        try:
            assert all_finite(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * x.nbytes

    def test_all_finite_on_scalars_and_empty_arrays(self):
        assert all_finite(1.0) and all_finite(np.zeros((0, 3)))
        assert not all_finite(float("nan"))


class TestGram:
    """The pairwise dot products the similarity distributions softmax:
    ``cross_modal_dist(v, t, tau)`` rows are ``softmax((v @ t.T) / tau)``."""

    def test_identity(self):
        e = np.e
        out = cross_modal_dist(np.eye(3), np.eye(3), TAU_ONE)
        expected = np.full((3, 3), 1.0 / (e + 2.0))
        np.fill_diagonal(expected, e / (e + 2.0))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_orthogonal_rows(self):
        # every v row is orthogonal to every t row: all logits are 0
        v = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        t = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        np.testing.assert_array_equal(cross_modal_dist(v, t, TAU_ONE),
                                      np.full((2, 2), 0.5))

    def test_cauchy_schwarz_on_unit_rows(self, rng):
        # unit rows bound each logit by 1/tau, so a row's largest
        # probability is at most exp(2/tau) times its smallest
        a = l2_normalize_rows(rng.standard_normal((8, 5)))
        b = l2_normalize_rows(rng.standard_normal((8, 5)))
        tau = Temperature.from_tau(0.5)
        out = cross_modal_dist(a, b, tau)
        ratio = out.max(axis=1) / out.min(axis=1)
        assert (ratio <= np.exp(2.0 * tau.inv_tau) * (1 + 1e-12)).all()

    def test_transpose_symmetry(self, rng):
        # the reverse direction softmaxes the transposed products, so the
        # two log-distributions differ by a row term plus a column term
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        diff = (np.log(cross_modal_dist(a, b, TAU_ONE))
                - np.log(cross_modal_dist(b, a, TAU_ONE)).T)
        centred = (diff - diff.mean(axis=0, keepdims=True)
                   - diff.mean(axis=1, keepdims=True) + diff.mean())
        np.testing.assert_allclose(centred, 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_modal_dist(np.ones((2, 3)), np.ones((2, 4)), TAU_ONE)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            cross_modal_dist(np.array([[1.0, np.nan], [0.0, 1.0]]),
                             np.eye(2), TAU_ONE)
        with pytest.raises(ValueError):
            l2_normalize_rows(np.array([[np.inf, 1.0]]))


class TestStableRowSoftmax:
    """The max-subtracted row softmax: ``backend.softmax_logsoftmax_rows``'s
    first array."""

    def test_equal_logits(self):
        for c in (-1000.0, 0.0, 3.7, 1e8):
            out = backend.softmax_logsoftmax_rows(np.array([[c, c]]))[0]
            np.testing.assert_allclose(out, [[0.5, 0.5]], atol=1e-15)

    def test_log_two_closed_form(self):
        out = backend.softmax_logsoftmax_rows(np.array([[np.log(2.0), 0.0]]))[0]
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_extreme_logits_no_overflow(self):
        # exp(-1000) / (1 + exp(-1000)) = 5.0759588975e-435 exactly, which
        # underflows float64; the stable path must give [1, 0] with no NaN
        out = backend.softmax_logsoftmax_rows(np.array([[1000.0, 0.0]]))[0]
        assert np.isfinite(out).all()
        assert out[0, 0] == 1.0
        assert abs(out[0, 1] - 5.0759588975e-435) < 1e-300

    def test_rows_sum_to_one(self, rng):
        out = backend.softmax_logsoftmax_rows(rng.standard_normal((10, 6)) * 30)[0]
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_shift_invariance(self, rng):
        z = rng.standard_normal((7, 5)) * 5
        shift = rng.standard_normal((7, 1)) * 100
        np.testing.assert_allclose(backend.softmax_logsoftmax_rows(z)[0],
                                   backend.softmax_logsoftmax_rows(z + shift)[0],
                                   atol=1e-12)


def _off_diagonal(m):
    """The off-diagonal entries of a square matrix, row-major, by the eye mask."""
    return m[~np.eye(len(m), dtype=bool)]


class TestOffDiagonal:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_eye_mask(self, rng, n):
        m = rng.standard_normal((n, n))
        view = numkit.off_diagonal_view(m)
        assert view.shape == (max(n - 1, 0), n)
        assert view.size == 0 or np.shares_memory(view, m)
        got = view.reshape(-1)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      _off_diagonal(m).view(np.uint64))


@st.composite
def _square_inputs(draw):
    """(kind, matrix): symmetric ones with rounded ties and signed-zero
    twins, and ones made asymmetric by one nudged entry or a NaN."""
    kind = draw(st.sampled_from(["symmetric", "signed_zeros", "nudged", "nan"]))
    n = draw(st.one_of(st.just(2), st.integers(2, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.round(rng.standard_normal((n, n)), draw(st.integers(0, 6)))
    m = a + a.T
    if kind == "signed_zeros":
        # zeroed twins get a sign each, so (i, j) may be 0.0 and (j, i) -0.0
        m[np.abs(m) < 1.0] = 0.0
        m[(m == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    i = draw(st.integers(0, n - 1))
    j = (i + draw(st.integers(1, n - 1))) % n
    if kind == "nudged":
        m[i, j] = np.nextafter(m[i, j], np.inf)
    elif kind == "nan":
        m[i, j] = m[j, i] = np.nan
    return kind, m


class TestOffDiagonalRanks:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=_square_inputs())
    def test_equals_ranking_every_entry(self, case):
        kind, m = case
        n = m.shape[0]
        with mock.patch.object(numkit, "average_ranks",
                               wraps=numkit.average_ranks) as rank:
            got = numkit.off_diagonal_ranks(m)
        want = numkit._argsort_average_ranks(_off_diagonal(m))
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        # a symmetric matrix is ranked from its upper triangle, any other in full
        ranked = n * (n - 1) // 2 if kind in ("symmetric", "signed_zeros") else n * (n - 1)
        assert [call.args[0].size for call in rank.call_args_list] == [ranked]


class TestFlooredLog:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("floor", [1e-12, 5e-324])
    def test_equals_the_log_of_the_floored_copy(self, dtype, floor, rng, same_bits):
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([0.0, -0.0, tiny, 3 * tiny, np.finfo(dtype).tiny, 1e-300,
                            1.0, np.inf, -1.0, -tiny, np.nan], dtype=dtype)
        m = rng.choice(special, (7, 9)).astype(dtype)
        m[0] = rng.random(9)  # one row of ordinary probabilities
        before = m.copy()
        with np.errstate(all="raise"):  # the floored log warns about nothing
            got = numkit.floored_log(m, floor)
            want = np.log(np.where(m > 0.0, m, floor))
        assert same_bits(got, want)
        assert same_bits(m, before)
        positive = rng.random((3, 4)).astype(dtype)
        assert same_bits(numkit.floored_log(positive, floor), np.log(positive))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            -2.2250738585072014e-308, np.inf, -np.inf, 1.0, np.nextafter(1.0, 2.0)]


def _assert_ranks_exact(x):
    got = average_ranks(x)
    assert got.dtype == np.float64
    for want in (numkit._argsort_average_ranks(x),
                 np.asarray(rankdata(x, method="average"), dtype=np.float64)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def _rank_inputs(draw):
    """float64 arrays built to hit ties, twin ties and truncated-key collisions."""
    kind = draw(st.sampled_from(["floats", "special", "ulps", "symmetric"]))
    edge = draw(st.integers(0, 12))
    size = draw(st.one_of(st.integers(0, 300),
                          st.sampled_from([1 << edge, (1 << edge) + 1])))
    if kind == "symmetric":
        n = draw(st.integers(1, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        a = np.round(np.random.default_rng(seed).standard_normal((n, n)),
                     draw(st.integers(0, 6)))
        return _off_diagonal(a + a.T)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "floats":
        pool = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=50))
        return rng.choice(np.array(pool), size)
    if kind == "special":
        return rng.choice(np.array(_SPECIAL), size)
    # neighbours a few ulps apart share the truncated key at any width
    base = draw(st.floats(allow_nan=False, allow_infinity=False))
    spread = draw(st.sampled_from([2, 64, 1 << 12]))
    bits = np.float64(base).view(np.int64) + rng.integers(0, spread, size)
    x = bits.view(np.float64)
    return x[np.isfinite(x)]


class TestAverageRanks:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(x=_rank_inputs())
    def test_equals_rankdata_and_argsort_path(self, x):
        _assert_ranks_exact(x)

    def test_default_size_similarities(self, rng):
        v = numkit.l2_normalize_rows(rng.standard_normal((300, 16)))
        t = numkit.l2_normalize_rows(rng.standard_normal((300, 16)))
        _assert_ranks_exact(_off_diagonal(v @ t.T))

    def test_int64_above_2_53_takes_the_argsort_path(self, monkeypatch):
        calls = []
        argsort_path = numkit._argsort_average_ranks

        def spy(x):
            calls.append(x.dtype)
            return argsort_path(x)

        monkeypatch.setattr(numkit, "_argsort_average_ranks", spy)
        # distinct as int64, equal once rounded to float64
        x = np.array([2**53 + 1, 2**53, 2**53 + 3, 2**53 + 1, 2**53 + 2], dtype=np.int64)
        got = average_ranks(x)
        assert calls[0] == np.int64
        np.testing.assert_array_equal(got, [2.5, 1.0, 5.0, 2.5, 4.0])
        np.testing.assert_array_equal(got, rankdata(x, method="average"))

    def test_nan_input_ranks_as_the_argsort_path(self):
        neg_nan = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
        x = np.array([np.nan, 1.0, neg_nan, -np.inf, np.nan, 0.0, np.inf])
        got = average_ranks(x)
        np.testing.assert_array_equal(got, numkit._argsort_average_ranks(x))
        # argsort sorts NaNs of either sign last, each in a group of its own
        np.testing.assert_array_equal(got[[3, 5, 1, 6]], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("bound, fallbacks", [(0, 1), (1 << 30, 0)])
    def test_collision_bound_falls_back_to_argsort(self, monkeypatch, bound,
                                                   fallbacks):
        calls = []
        argsort_path = numkit._argsort_average_ranks

        def spy(x):
            calls.append(x.size)
            return argsort_path(x)

        monkeypatch.setattr(numkit, "_argsort_average_ranks", spy)
        monkeypatch.setattr(numkit, "_MAX_RESORTED", bound)
        # one-ulp neighbours in descending index order: every run needs a re-sort
        x = (np.float64(0.75).view(np.int64) + np.arange(999, -1, -1)).view(np.float64)
        got = average_ranks(x)
        assert len(calls) == fallbacks
        np.testing.assert_array_equal(got, np.arange(1000, 0, -1, dtype=np.float64))
        _assert_ranks_exact(x)

    @pytest.mark.parametrize("view", ["off_diagonal", "transposed", "stepped"])
    @pytest.mark.parametrize("path", ["fast", "nan", "int64", "resort_bound"])
    def test_strided_view_ranks_as_its_flat_copy(self, rng, monkeypatch, view, path):
        calls = []
        argsort_path = numkit._argsort_average_ranks

        def spy(x):
            calls.append(x.shape)
            return argsort_path(x)

        monkeypatch.setattr(numkit, "_argsort_average_ranks", spy)
        monkeypatch.setattr(numkit, "_INDEX_CHUNK", 64)  # indices packed in chunks
        m = np.round(rng.standard_normal((30, 30)), 1)
        if path == "nan":
            m[3, 6] = np.nan
        elif path == "int64":
            m = (10 * m).astype(np.int64)
        elif path == "resort_bound":
            # one-ulp neighbours in descending order collide and need a re-sort
            monkeypatch.setattr(numkit, "_MAX_RESORTED", 0)
            m = (np.float64(0.75).view(np.int64)
                 + np.arange(900, 0, -1).reshape(30, 30)).view(np.float64)
        x = {"off_diagonal": numkit.off_diagonal_view(m), "transposed": m.T,
             "stepped": m[1::2, ::3]}[view]
        assert not x.flags.c_contiguous
        flat = x.reshape(-1)
        assert not np.shares_memory(flat, m)
        got, want = average_ranks(x), average_ranks(flat)
        assert got.shape == (x.size,)
        assert got.tobytes() == want.tobytes()
        assert len(calls) == (0 if path == "fast" else 2)

    @pytest.mark.parametrize("shape", ["tie_free_1m", "symmetric_1000"])
    def test_peak_memory_at_most_the_argsort_path(self, rng, shape):
        if shape == "tie_free_1m":
            x = rng.permutation(1_000_000).astype(np.float64)
        else:
            a = rng.standard_normal((1000, 1000))
            x = _off_diagonal(a + a.T)

        def peak(rank):
            tracemalloc.start()
            try:
                rank(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(average_ranks) <= peak(numkit._argsort_average_ranks)

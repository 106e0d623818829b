import concurrent.futures
import csv
import json
import multiprocessing
import os
import struct
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from softalign import cli, numkit, synthgen, trainer
from softalign.errors import ConfigError, GalleryTooSmall
from softalign.harness import (
    RESULT_COLUMNS,
    _corrcoef_in_place,
    _point_row,
    _run_one_point,
    _run_points,
    ablation_points,
    ablation_suite,
    ablation_variants,
    beta_points,
    gamma_points,
    gamma_sweep,
    logit_profile,
    retrieval_eval,
    retrieval_metrics,
    sweep,
    train_and_eval,
    write_json,
    write_results_csv,
)
from softalign.synthgen import SynthDataset, SynthSpec, generate
from softalign.trainer import (
    TrainConfig,
    forward_batch,
    init_state,
    save_checkpoint,
    train,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SynthSpec(n_samples=120, n_concepts=10, latent_dim=16,
                              d_image=12, d_text=10, d_roi=14, d_tag=8,
                              rois_per_image=3, seed=9))


@pytest.fixture(scope="module")
def tiny_config():
    return TrainConfig(epochs=3, batch_size=30, seed=2)


def _assert_states_equal(got, want):
    """Bitwise-equal parameters, AdamW moments and step."""
    assert got.step == want.step
    for store in ("params", "m", "v"):
        a, b = getattr(got, store), getattr(want, store)
        assert list(a) == list(b)
        for name in a:
            assert a[name].tobytes() == b[name].tobytes(), (store, name)


class TestRetrievalMetrics:
    def test_oracle_model_is_perfect(self, tiny_dataset):
        rel = tiny_dataset.relevance
        res = retrieval_metrics(rel, tiny_dataset.relevance_ranks())
        assert res.r1_v2t == 1.0 and res.r1_t2v == 1.0
        assert abs(res.spearman - 1.0) < 1e-12

    def test_recalls_monotone(self, tiny_dataset, tiny_config):
        state, _ = train(tiny_dataset, tiny_config)
        res = retrieval_eval(state, tiny_dataset)
        assert res.r1_v2t <= res.r5_v2t <= res.r10_v2t
        assert res.r1_t2v <= res.r5_t2v <= res.r10_t2v

    def test_untrained_encoders_near_chance(self):
        ds = generate(SynthSpec(n_samples=200, n_concepts=10, latent_dim=16,
                                d_image=12, d_text=10, d_roi=14, d_tag=8,
                                rois_per_image=3, seed=13))
        state = init_state(ds.spec, TrainConfig(seed=3))
        res = retrieval_eval(state, ds)
        assert 0.0 <= res.r1_v2t <= 0.05
        assert 0.0 <= res.r1_t2v <= 0.05

    def test_tie_break_by_lower_index(self):
        sims = np.array([[0.5, 0.5, 0.1],
                         [0.2, 0.9, 0.1],
                         [0.3, 0.3, 0.3]])
        res = retrieval_metrics(sims, numkit.off_diagonal_ranks(np.eye(3)))
        # row 0: tie at rank 0 resolved to column 0 -> hit
        # row 2: ties at columns 0,1 come before column 2 -> rank 2
        assert res.r1_v2t == pytest.approx(2 / 3)

    def test_gallery_too_small(self, tiny_dataset, tiny_config):
        ds = generate(replace(tiny_dataset.spec, n_samples=9))
        with pytest.raises(GalleryTooSmall):
            retrieval_eval(init_state(ds.spec, tiny_config), ds)

    @pytest.mark.parametrize("tied", [False, True])
    def test_spearman_matches_scipy(self, tied):
        # the shipped column, over the off-diagonal entries, with the
        # relevance ranked by scipy and by the dataset's ranker
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        n = 60
        rel = rng.standard_normal((n, n))
        rel = rel + rel.T
        sims = 0.4 * rel + rng.standard_normal((n, n))
        if tied:
            sims, rel = np.round(sims, 1), np.round(rel)
        off = ~np.eye(n, dtype=bool)
        want = stats.spearmanr(sims[off], rel[off]).statistic
        for ranks in (stats.rankdata(rel[off], method="average"),
                      numkit.off_diagonal_ranks(rel)):
            got = retrieval_metrics(sims, ranks).spearman
            assert abs(got - want) < 1e-12


    def test_peak_memory_bounded_by_the_pairs(self):
        # B is one float64 per off-diagonal pair. Ranking the similarities
        # peaks near 3 B; a flat copy of them, or np.corrcoef stacking the
        # two rank vectors into a fresh array, would add 1-2 B more
        n = 1000
        rng = np.random.default_rng(8)
        rel = rng.standard_normal((n, n))
        rel += rel.T
        ranks = numkit.off_diagonal_ranks(rel)
        sims = rng.standard_normal((n, n))
        tracemalloc.start()
        try:
            retrieval_metrics(sims, ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * 8 * n * (n - 1)

    @pytest.mark.parametrize("m", [3, 7, 60, 5000])
    def test_corrcoef_in_place_is_bitwise_corrcoef(self, m):
        # rank vectors: a permutation, and tied mean ranks
        for seed in range(20):
            rng = np.random.default_rng((m, seed))
            a = rng.permutation(m).astype(np.float64) + 1.0
            b = numkit.average_ranks(np.round(0.3 * a + rng.standard_normal(m) * m, -1))
            if np.ptp(b) == 0.0:
                continue
            want = np.corrcoef(a, b)[0, 1]
            got = _corrcoef_in_place(np.stack([a, b]))
            assert struct.pack("<d", got) == struct.pack("<d", want)

    @pytest.mark.parametrize("sims, relevance, message", [
        ((3, 4), (3, 4), r"square similarity matrix, got \(3, 4\)"),
        ((3, 3), (4, 4), r"n\(n - 1\) = 6 ranks, got shape \(12,\)"),
        ((1, 1), (1, 1), r"at least 2 samples for an off-diagonal pair, got \(1, 1\)"),
        ((0, 0), (0, 0), r"at least 2 samples for an off-diagonal pair, got \(0, 0\)"),
    ], ids=["not-square", "mismatched", "one-sample", "no-sample"])
    def test_non_square_or_mismatched_matrices_named(self, sims, relevance, message):
        # mismatched: the ranks of another relevance than the similarities'
        ranks = np.arange(1.0, relevance[0] * (relevance[1] - 1) + 1)
        with pytest.raises(ValueError, match=message):
            retrieval_metrics(np.ones(sims), ranks)

    @pytest.mark.parametrize("size", [0, 59 * 60 - 1, 59 * 60 + 1, 2 * 59 * 60])
    def test_wrong_length_relevance_ranks_named(self, size):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=rf"n\(n - 1\) = 3540 ranks, got shape \({size},\)"):
            retrieval_metrics(rng.standard_normal((60, 60)),
                              np.arange(size, dtype=np.float64))


class TestRelevanceRankCache:
    """An eval reads the dataset's relevance ranks, ranked once."""

    def test_full_set_bitwise_equal_to_uncached(self, tiny_config, monkeypatch):
        ds = generate(SynthSpec(n_samples=90, n_concepts=8, latent_dim=12,
                                d_image=10, d_text=9, d_roi=11, d_tag=7,
                                rois_per_image=3, seed=4))
        state, _ = train(ds, tiny_config)
        v, t, _, _ = forward_batch(state, ds, np.arange(ds.n))
        # the relevance ranked here, in full, by the eye mask
        full = numkit.average_ranks(ds.relevance[~np.eye(ds.n, dtype=bool)])
        expected = retrieval_metrics(v @ t.T, full).to_dict()
        ranked = []
        average_ranks = numkit.average_ranks

        def counting(x):
            ranked.append(x.size)
            return average_ranks(x)

        monkeypatch.setattr(numkit, "average_ranks", counting)
        first = retrieval_eval(state, ds).to_dict()
        assert len(ranked) == 2  # the similarities, then the relevance
        ranks = ds.relevance_ranks()
        assert not ranks.flags.writeable
        with pytest.raises(ValueError):
            ranks[0] = 0.0
        second = retrieval_eval(state, ds).to_dict()
        ds.pooled_rois("max")
        after_pooling = retrieval_eval(state, ds).to_dict()
        assert len(ranked) == 4  # only the similarities are ranked again
        assert ds.relevance_ranks() is ranks
        for result in (first, second, after_pooling):
            assert list(result) == list(expected)
            assert all(result[k] == expected[k] for k in expected)


class TestLogitProfile:
    def test_uniform_model(self, tiny_dataset, tiny_config):
        # collapse every embedding to one point: all similarities equal,
        # every sorted position is exactly 1/n
        state = init_state(tiny_dataset.spec, tiny_config)
        for mod in ("image", "text"):
            state.params[f"{mod}.w1"][:] = 0.0
            state.params[f"{mod}.w2"][:] = 0.0
            state.params[f"{mod}.b2"][:] = 1.0
        prof = logit_profile(state, tiny_dataset, direction="v2t")
        n = tiny_dataset.n
        np.testing.assert_allclose(prof.positions, 1.0 / n, atol=1e-12)
        assert abs(prof.full_sum - 1.0) < 1e-9

    def test_saturated_model_concentrates_top1(self):
        # separable data (one distinct concept per sample), trained to
        # alignment, then temperature forced to the clamp floor: nearly
        # all probability mass lands on position 1
        ds = generate(SynthSpec(
            n_samples=60, n_concepts=60, concepts_per_sample=1,
            latent_dim=128, d_image=16, d_text=14, d_roi=12, d_tag=10,
            rois_per_image=3, noise_sigma_image=0.01, noise_sigma_text=0.01,
            noise_sigma_roi=0.01, noise_sigma_tag=0.01,
            faulty_positive_rate=0.0, seed=3,
        ))
        state, _ = train(ds, TrainConfig(epochs=30, peak_lr=5e-3,
                                         batch_size=30, seed=2))
        state.params["tau_log_inv"][0] = np.log(1.0 / 0.005)  # clamps to 0.01
        assert state.temperature.tau == 0.01
        prof = logit_profile(state, ds, direction="t2v")
        assert prof.top1 > 0.9
        assert prof.top11_50 < 0.05

    def test_positions_non_increasing_and_sum(self, tiny_dataset, tiny_config):
        state, _ = train(tiny_dataset, tiny_config)
        for direction in ("v2t", "t2v"):
            prof = logit_profile(state, tiny_dataset, direction=direction)
            assert (np.diff(prof.positions) <= 1e-15).all()
            assert abs(prof.full_sum - 1.0) < 1e-9
            assert abs(prof.top1 - prof.positions[0]) < 1e-15
            split_sum = prof.top1 + prof.top2_10 + prof.top11_50
            assert split_sum <= 1.0 + 1e-12

    def test_gallery_too_small(self, tiny_dataset, tiny_config):
        ds = generate(replace(tiny_dataset.spec, n_samples=49))
        with pytest.raises(GalleryTooSmall):
            logit_profile(init_state(ds.spec, tiny_config), ds)

    def test_bad_direction(self, tiny_dataset, tiny_config):
        state, _ = train(tiny_dataset, tiny_config)
        with pytest.raises(ValueError):
            logit_profile(state, tiny_dataset, direction="sideways")


class TestAblationVariants:
    def test_variant_mapping(self, tiny_config):
        variants = dict(ablation_variants(tiny_config))
        assert list(variants) == ["clip", "label_smooth", "soft_fkl",
                                  "soft_re_fkl", "softclip"]
        clip = variants["clip"]
        assert clip.loss_variant == "clip"
        assert clip.loss.mu_clip == 1.0 and clip.loss.lambda_re == 0.0
        full = variants["softclip"]
        assert full.loss_variant == "total"
        assert full.loss.divergence == "symmetric_kl"
        assert full.loss.beta == 0.3
        assert full.loss.lambda_re == 1.0 and full.loss.mu_clip == 0.5
        fkl = variants["soft_fkl"]
        assert fkl.loss.divergence == "forward_kl" and fkl.loss.lambda_re == 0.0

    def test_suite_rows_share_seed_and_hash(self, tiny_dataset, tiny_config):
        rows, states = ablation_suite(tiny_dataset, tiny_config)
        assert [r.variant for r in rows] == list(dict(ablation_variants(tiny_config)))
        assert len({r.seed for r in rows}) == 1
        assert len({r.dataset_hash for r in rows}) == 1
        assert set(states) == {r.variant for r in rows}
        for r in rows:
            assert np.isfinite(r.final_loss)
        # each state is the one its variant's config trains
        for name, cfg in ablation_variants(tiny_config):
            want, _ = train(tiny_dataset, cfg)
            _assert_states_equal(states[name], want)


    def test_points_concatenate_variants_over_seeds(self, tiny_config):
        assert ablation_points(tiny_config, [4, 1]) == (
            ablation_variants(replace(tiny_config, seed=4))
            + ablation_variants(replace(tiny_config, seed=1)))
        with pytest.raises(ConfigError):
            ablation_points(tiny_config, [])


class TestSweeps:
    def test_beta_point_matches_default_run(self, tiny_dataset, tiny_config):
        rows = sweep(tiny_dataset, beta_points(tiny_config, [0.3]))
        with_re = [r for r in rows if r.variant == "with_re"][0]
        cfg = replace(tiny_config, loss_variant="total",
                      loss=replace(tiny_config.loss, beta=0.3, lambda_re=1.0))
        direct, _ = train_and_eval(tiny_dataset, cfg, "with_re")
        assert with_re.result == direct.result
        assert with_re.final_loss == direct.final_loss

    @pytest.mark.parametrize("lambda_re", [0.5, 0.0])
    def test_with_re_points_take_lambda_re_as_given(self, tiny_config, lambda_re):
        base = replace(tiny_config, loss=replace(tiny_config.loss, lambda_re=lambda_re))
        points = beta_points(base, [0.3])
        assert [(name, cfg.loss.lambda_re) for name, cfg in points] == [
            ("with_re", lambda_re), ("without_re", 0.0)]

    def test_beta_zero_skipped_under_symmetric(self, tiny_dataset, tiny_config, caplog):
        with caplog.at_level("WARNING", logger="softalign"):
            rows = sweep(tiny_dataset, beta_points(tiny_config, [0.0, 0.5]))
        assert {r.beta for r in rows} == {0.5}
        assert any("DegenerateTargets" in rec.message for rec in caplog.records)

    def test_beta_zero_forward_kl_runs_without_relation(self, tiny_dataset,
                                                        tiny_config, caplog):
        base = replace(tiny_config,
                       loss=replace(tiny_config.loss, divergence="forward_kl"))
        with caplog.at_level("WARNING", logger="softalign"):
            rows = sweep(tiny_dataset, beta_points(base, [0.0, 0.5]))
        assert [(r.variant, r.beta) for r in rows] == [
            ("without_re", 0.0), ("with_re", 0.5), ("without_re", 0.5)]
        assert any("DegenerateTargets" in rec.message for rec in caplog.records)

    def test_beta_one_stable(self, tiny_dataset, tiny_config):
        rows = sweep(tiny_dataset, beta_points(tiny_config, [1.0]))
        assert len(rows) == 2
        for r in rows:
            assert np.isfinite(r.final_loss)
            assert np.isfinite(r.result.spearman)

    def test_gamma_rows(self, tiny_dataset, tiny_config):
        rows = gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0])
        assert [r.gamma for r in rows] == [0.0, 1.0]
        for r in rows:
            assert r.variant == "mixed"
            assert np.isfinite(r.final_loss)

    def test_every_point_logs(self, tiny_dataset, tiny_config, caplog):
        with caplog.at_level("INFO", logger="softalign"):
            gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0])
        assert [r.message for r in caplog.records if "suite point" in r.message] == [
            "suite point mixed (beta 0.3, gamma 0, seed 2)",
            "suite point mixed (beta 0.3, gamma 1, seed 2)",
        ]

    def test_parallel_jobs_match_serial(self, tiny_dataset, tiny_config):
        serial = gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0], jobs=1)
        parallel = gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0], jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers inherit the dataset only under fork")
    def test_pool_never_pickles_the_dataset(self, tiny_dataset, tiny_config,
                                            monkeypatch):
        def refuse(self):
            raise AssertionError("pickled the dataset")

        monkeypatch.setattr(SynthDataset, "__getstate__", refuse)
        serial = gamma_sweep(tiny_dataset, tiny_config, [0.0, 0.5, 1.0], jobs=1)
        parallel = gamma_sweep(tiny_dataset, tiny_config, [0.0, 0.5, 1.0], jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers inherit the parent's cache only under fork")
    @pytest.mark.parametrize("aggregation", ["mean", "max", "attention"])
    def test_parent_fills_the_cache_before_forking(self, tiny_config, monkeypatch,
                                                   aggregation, sha256_runs):
        spec = SynthSpec(n_samples=60, n_concepts=8, latent_dim=8, d_image=6,
                         d_text=5, d_roi=7, d_tag=4, rois_per_image=3, seed=21)
        dataset = generate(spec)
        # the relevance is ranked in full, or from its upper triangle
        relevance_entries = (numkit.off_diagonal_view(dataset.relevance),
                             dataset.relevance[np.triu_indices(spec.n_samples, 1)])
        parent = os.getpid()
        rank, pools = numkit.average_ranks, dict(synthgen.ROI_POOLS)

        def parent_only_rank(x):
            # forked workers inherit this patch: the relevance is ranked only
            # in the parent; a worker ranks the similarities alone
            if os.getpid() != parent and any(
                    x.shape == entries.shape and np.array_equal(x, entries)
                    for entries in relevance_entries):
                raise AssertionError("a worker ranked the relevance")
            return rank(x)

        def parent_only_pool(mode):
            def pool(a, axis):
                if os.getpid() != parent:
                    raise AssertionError(f"a worker pooled the ROIs by {mode}")
                return pools[mode](a, axis=axis)
            return pool

        monkeypatch.setattr(numkit, "average_ranks", parent_only_rank)
        for mode in pools:
            monkeypatch.setitem(synthgen.ROI_POOLS, mode, parent_only_pool(mode))
        cfg = replace(tiny_config, roi_aggregation=aggregation, batch_size=20)
        parallel = gamma_sweep(dataset, cfg, [0.0, 1.0], jobs=2)
        pooled = set() if aggregation == "attention" else {aggregation}
        assert set(dataset._cache) == {"relevance_ranks", "hash"} | pooled
        assert len(sha256_runs) == 1
        serial = gamma_sweep(generate(spec), cfg, [0.0, 1.0], jobs=1)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=pytest.mark.skipif(
            "fork" not in multiprocessing.get_all_start_methods(),
            reason="workers inherit the parent's hash only under fork"))])
    def test_sweep_hashes_once_per_process(self, tiny_config, jobs, sha256_runs):
        dataset = generate(SynthSpec(n_samples=60, n_concepts=8, latent_dim=8,
                                     d_image=6, d_text=5, d_roi=7, d_tag=4,
                                     rois_per_image=3, seed=22))
        rows = gamma_sweep(dataset, tiny_config, [0.0, 0.5, 1.0], jobs=jobs)
        assert len(sha256_runs) == 1
        assert {r.dataset_hash for r in rows} == {dataset._cache["hash"]}

    @pytest.mark.parametrize("gammas, jobs, workers", [
        ([0.5], 4, None), ([0.0, 1.0], 5, 2), ([0.0, 0.5, 1.0], 2, 2)])
    def test_no_more_workers_than_points(self, tiny_dataset, tiny_config,
                                         monkeypatch, gammas, jobs, workers):
        started = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        points = gamma_points(tiny_config, gammas)
        serial = _run_points(tiny_dataset, points, 1, _run_one_point)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        runs = _run_points(tiny_dataset, points, jobs, _run_one_point)
        rows = _run_points(tiny_dataset, points, jobs, _point_row)
        assert started == ([] if workers is None else [workers, workers])
        # rows and the states the workers send back equal the serial run's;
        # the row-only task sends back the rows alone
        want = [r.to_dict() for r, _ in serial]
        assert [r.to_dict() for r, _ in runs] == want
        assert [r.to_dict() for r in rows] == want
        for (_, got), (_, want) in zip(runs, serial):
            _assert_states_equal(got, want)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused_before_training(self, tiny_dataset,
                                                      tiny_config, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("a point trained")

        monkeypatch.setattr(trainer, "train", refuse)
        points = gamma_points(tiny_config, [0.0, 1.0])
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            sweep(tiny_dataset, points, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0], jobs=jobs)


class TestEmission:
    def test_csv_schema_and_determinism(self, tiny_dataset, tiny_config, tmp_path):
        rows, _ = ablation_suite(tiny_dataset, tiny_config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(rows, p1)
        rows2, _ = ablation_suite(tiny_dataset, tiny_config)
        write_results_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        with open(p1) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == list(RESULT_COLUMNS)
            assert len(list(reader)) == 5

    def test_json_mirrors_csv(self, tiny_dataset, tiny_config, tmp_path):
        rows, _ = ablation_suite(tiny_dataset, tiny_config)
        jpath = tmp_path / "r.json"
        write_json([row.to_dict() for row in rows], jpath)
        payload = json.loads(jpath.read_text())
        assert len(payload) == 5
        assert set(payload[0]) == set(RESULT_COLUMNS)

    def test_row_columns_follow_the_fields(self, tiny_dataset, tiny_config):
        assert RESULT_COLUMNS == (
            "variant", "beta", "gamma", "seed", "dataset_hash",
            "r1_v2t", "r5_v2t", "r10_v2t", "r1_t2v", "r5_t2v", "r10_t2v",
            "spearman", "final_loss")
        row, _ = train_and_eval(tiny_dataset, tiny_config, "x")
        want = {"variant": "x", "beta": row.beta, "gamma": row.gamma,
                "seed": row.seed, "dataset_hash": row.dataset_hash,
                **row.result.to_dict(), "final_loss": row.final_loss}
        assert list(row.to_dict().items()) == list(want.items())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_refuses_non_finite_floats(self, tmp_path, value):
        path = tmp_path / "r.json"
        path.write_text("old")
        with pytest.raises(ValueError):
            write_json({"final_loss": value}, path)
        assert path.read_text() == "old" and os.listdir(tmp_path) == ["r.json"]

    def test_json_through_a_link_replaces_its_target(self, tmp_path):
        (tmp_path / "real.json").write_text("old")
        (tmp_path / "link.json").symlink_to("real.json")
        write_json({"k": 1}, tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert json.loads((tmp_path / "real.json").read_text()) == {"k": 1}
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_json_to_a_pipe(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_json({"k": 1}, fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b'{\n  "k": 1\n}\n'] and sorted(os.listdir(tmp_path)) == ["fifo"]

    def test_profile_csv(self, tiny_dataset, tiny_config, tmp_path):
        state, _ = train(tiny_dataset, tiny_config)
        prof = logit_profile(state, tiny_dataset)
        path = tmp_path / "prof.csv"
        synthgen.save(tiny_dataset, tmp_path / "d.salb")
        save_checkpoint(state, tmp_path / "m.ckpt")
        assert cli.main(["logit-profile", "--data", str(tmp_path / "d.salb"),
                         "--ckpt", str(tmp_path / "m.ckpt"), "--out", str(path)]) == 0
        with open(path) as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["position", "mean_probability"]
            body = list(reader)
        assert len(body) == 50
        assert [int(r[0]) for r in body] == list(range(1, 51))
        np.testing.assert_allclose(
            [float(r[1]) for r in body], prof.positions, rtol=0, atol=0
        )

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from softalign.errors import GalleryTooSmall
from softalign.harness import (
    RESULT_COLUMNS,
    ablation_suite,
    ablation_variants,
    beta_sweep,
    gamma_sweep,
    logit_profile,
    retrieval_eval,
    retrieval_metrics,
    spearman_rho,
    train_and_eval,
    write_results_csv,
    write_results_json,
    write_profile_csv,
)
from softalign.synthgen import SynthSpec, generate
from softalign.trainer import TrainConfig, init_state, train


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SynthSpec(n_samples=120, n_concepts=10, latent_dim=16,
                              d_image=12, d_text=10, d_roi=14, d_tag=8,
                              rois_per_image=3, seed=9))


@pytest.fixture(scope="module")
def tiny_config():
    return TrainConfig(epochs=3, batch_size=30, seed=2)


class TestRetrievalMetrics:
    def test_oracle_model_is_perfect(self, tiny_dataset):
        rel = tiny_dataset.relevance
        res = retrieval_metrics(rel, rel)
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
        res = retrieval_metrics(sims, np.eye(3))
        # row 0: tie at rank 0 resolved to column 0 -> hit
        # row 2: ties at columns 0,1 come before column 2 -> rank 2
        assert res.r1_v2t == pytest.approx(2 / 3)

    def test_gallery_too_small(self, tiny_dataset, tiny_config):
        state, _ = train(tiny_dataset, tiny_config)
        with pytest.raises(GalleryTooSmall):
            retrieval_eval(state, tiny_dataset, indices=np.arange(5))

    @pytest.mark.parametrize("tied", [False, True])
    def test_spearman_matches_scipy(self, tied):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        x = rng.standard_normal(3000)
        y = 0.4 * x + rng.standard_normal(3000)
        if tied:
            x, y = np.round(x, 1), np.round(y)
        assert abs(spearman_rho(x, y) - stats.spearmanr(x, y).statistic) < 1e-12


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
        state, _ = train(tiny_dataset, tiny_config)
        with pytest.raises(GalleryTooSmall):
            logit_profile(state, tiny_dataset, indices=np.arange(30))

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


class TestSweeps:
    def test_beta_point_matches_default_run(self, tiny_dataset, tiny_config):
        rows = beta_sweep(tiny_dataset, tiny_config, [0.3])
        with_re = [r for r in rows if r.variant == "with_re"][0]
        cfg = replace(tiny_config, loss_variant="total",
                      loss=replace(tiny_config.loss, beta=0.3, lambda_re=1.0))
        direct, _ = train_and_eval(tiny_dataset, cfg, variant="with_re")
        assert with_re.result == direct.result
        assert with_re.final_loss == direct.final_loss

    def test_beta_zero_skipped_under_symmetric(self, tiny_dataset, tiny_config, caplog):
        with caplog.at_level("WARNING", logger="softalign"):
            rows = beta_sweep(tiny_dataset, tiny_config, [0.0, 0.5])
        assert {r.beta for r in rows} == {0.5}
        assert any("DegenerateTargets" in rec.message for rec in caplog.records)

    def test_beta_one_stable(self, tiny_dataset, tiny_config):
        rows = beta_sweep(tiny_dataset, tiny_config, [1.0])
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

    def test_parallel_jobs_match_serial(self, tiny_dataset, tiny_config):
        serial = gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0], jobs=1)
        parallel = gamma_sweep(tiny_dataset, tiny_config, [0.0, 1.0], jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]


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
        write_results_json(rows, jpath)
        payload = json.loads(jpath.read_text())
        assert len(payload) == 5
        assert set(payload[0]) == set(RESULT_COLUMNS)

    def test_profile_csv(self, tiny_dataset, tiny_config, tmp_path):
        state, _ = train(tiny_dataset, tiny_config)
        prof = logit_profile(state, tiny_dataset)
        path = tmp_path / "prof.csv"
        write_profile_csv(prof, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["position", "mean_probability"]
            body = list(reader)
        assert len(body) == 50
        assert [int(r[0]) for r in body] == list(range(1, 51))
        np.testing.assert_allclose(
            [float(r[1]) for r in body], prof.positions, rtol=0, atol=0
        )

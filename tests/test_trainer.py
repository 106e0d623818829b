import math
import subprocess
import sys
import tempfile
from copy import deepcopy
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softalign import backend, container, trainer
from softalign.errors import (
    BatchTooSmall,
    ConfigError,
    DegenerateTargets,
    FormatError,
    IndexOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
    SpecInvalid,
    ZeroRow,
)
from softalign.objectives import LOSS_VARIANTS, LossConfig
from softalign.synthgen import ROI_POOLS, SynthSpec, generate
from softalign.trainer import (
    TrainConfig,
    forward_batch,
    init_state,
    load_checkpoint,
    loss_and_grads,
    lr_at,
    optimizer_step,
    save_checkpoint,
    total_steps_for,
    train,
)


class TestRoiAggregate:
    """ROI pooling: the dataset's pooled views and the attention pool."""

    def test_single_feature(self, small_dataset):
        one = replace(small_dataset, roi_features=small_dataset.roi_features[:, :1])
        for mode in ROI_POOLS:
            np.testing.assert_array_equal(one.pooled_rois(mode),
                                          small_dataset.roi_features[:, 0])

    def test_elementwise_modes(self, small_dataset):
        x = replace(small_dataset, roi_features=np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        np.testing.assert_array_equal(x.pooled_rois("mean"), [[0.5, 0.5]])
        np.testing.assert_array_equal(x.pooled_rois("max"), [[1.0, 1.0]])
        np.testing.assert_array_equal(x.pooled_rois("min"), [[0.0, 0.0]])

    def test_attention_zero_query_equals_mean(self, rng):
        x = rng.standard_normal((6, 8))
        params = {
            "roi_pool.query": np.zeros(4),
            "roi_pool.key_proj": rng.standard_normal((8, 4)),
            "roi_pool.value_proj": np.eye(8),
        }
        got, _ = trainer._attention_batch(x[None], params)
        np.testing.assert_allclose(got[0], x.mean(axis=0), atol=1e-12)

    def test_empty_sequence(self):
        # no dataset holds an empty ROI sequence to pool
        with pytest.raises(SpecInvalid):
            SynthSpec(rois_per_image=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="roi_aggregation"):
            TrainConfig(roi_aggregation="median")


class TestForwardBatch:
    def test_unit_rows_and_determinism(self, small_dataset, small_config):
        state = init_state(small_dataset.spec, small_config)
        idx = np.arange(10)
        out1 = forward_batch(state, small_dataset, idx)
        out2 = forward_batch(state, small_dataset, idx)
        for a, b in zip(out1, out2):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose((a * a).sum(axis=1), 1.0, atol=1e-12)

    def test_duplicate_indices_duplicate_rows(self, small_dataset, small_config):
        state = init_state(small_dataset.spec, small_config)
        v, t, r, a = forward_batch(state, small_dataset, [3, 5, 3, 7])
        for m in (v, t, r, a):
            np.testing.assert_array_equal(m[0], m[2])

    def test_index_out_of_range(self, small_dataset, small_config):
        state = init_state(small_dataset.spec, small_config)
        with pytest.raises(IndexOutOfRange):
            forward_batch(state, small_dataset, [0, small_dataset.n])

    def test_batch_too_small(self, small_dataset, small_config):
        state = init_state(small_dataset.spec, small_config)
        with pytest.raises(BatchTooSmall):
            forward_batch(state, small_dataset, [0])

    @pytest.mark.parametrize("mode", ["mean", "attention"])
    @pytest.mark.parametrize("mod", ["image", "text", "roi", "tag"])
    def test_view_width_mismatch(self, small_dataset, mode, mod):
        want = getattr(small_dataset.spec, f"d_{mod}")
        other = replace(small_dataset.spec, **{f"d_{mod}": want + 3})
        state = init_state(other, TrainConfig(roi_aggregation=mode))
        with pytest.raises(ConfigError, match=f"{mod} view is {want} wide.*"
                                              f"{mod} head takes {want + 3}"):
            forward_batch(state, small_dataset, np.arange(4))
        with pytest.raises(ConfigError):
            loss_and_grads(state, small_dataset, np.arange(4))


class TestPooledRoiCache:
    """Parameter-free modes read the dataset's pooled ROI view."""

    @staticmethod
    def _roi_input(dataset, mode, idx):
        state = init_state(dataset.spec, TrainConfig(roi_aggregation=mode))
        _, caches, agg_cache = trainer._forward_raw(state, dataset, idx)
        assert agg_cache is None
        return caches["roi"]["x"]

    @pytest.mark.parametrize("mode", ["mean", "max", "min"])
    def test_head_input_matches_per_sample_pooling(self, small_dataset, mode):
        rng = np.random.default_rng(5)
        n = small_dataset.n
        index_sets = [rng.choice(n, size=25, replace=False) for _ in range(5)]
        index_sets += [rng.integers(0, n, size=40), [7, 7, 3, 7], np.arange(n)]
        for idx in index_sets:
            got = self._roi_input(small_dataset, mode, idx)
            expected = np.stack([
                ROI_POOLS[mode](small_dataset.roi_features[i], axis=0) for i in idx
            ])
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_attention_receives_sequence(self, small_dataset, monkeypatch):
        seen = []
        original = trainer._attention_batch

        def spy(rois, params):
            seen.append(rois.copy())
            return original(rois, params)

        monkeypatch.setattr(trainer, "_attention_batch", spy)
        state = init_state(small_dataset.spec,
                           TrainConfig(roi_aggregation="attention"))
        idx = np.array([4, 1, 4, 9])
        trainer._forward_raw(state, small_dataset, idx)
        (rois,) = seen
        np.testing.assert_array_equal(rois, small_dataset.roi_features[idx])

    def test_datasets_do_not_share_cache(self):
        spec = SynthSpec(n_samples=40, d_roi=6, rois_per_image=3, seed=1)
        a, b = generate(spec), generate(replace(spec, seed=2))
        twin = replace(a)
        assert not np.array_equal(a.pooled_rois("mean"), b.pooled_rois("mean"))
        assert twin.pooled_rois("mean") is not a.pooled_rois("mean")
        assert a.pooled_rois("mean") is a.pooled_rois("mean")

    def test_cached_array_is_read_only(self, small_dataset):
        for mode in ("mean", "max", "min"):
            pooled = small_dataset.pooled_rois(mode)
            with pytest.raises(ValueError):
                pooled[0, 0] = 1.0

    def test_unknown_mode(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.pooled_rois("attention")


class TestSchedule:
    def test_ramp_and_peak(self):
        cfg = TrainConfig(peak_lr=0.5)
        total = 1000
        warmup = round(0.10 * total)
        assert lr_at(0, total, cfg) == 0.0
        assert lr_at(warmup, total, cfg) == 0.5
        # strictly increasing through warmup
        ramp = [lr_at(s, total, cfg) for s in range(warmup + 1)]
        assert all(b > a for a, b in zip(ramp, ramp[1:]))

    def test_cosine_endpoint_near_zero(self):
        cfg = TrainConfig(peak_lr=1.0)
        assert lr_at(999, 1000, cfg) < 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(10, 10, TrainConfig())


class TestOptimizerStep:
    def _tiny_state(self, wd=0.0, lr_unused=None):
        spec = SynthSpec(n_samples=4, n_concepts=2, latent_dim=4, d_image=3,
                         d_text=3, d_roi=3, d_tag=3, rois_per_image=2,
                         concepts_per_sample=1, seed=0)
        cfg = TrainConfig(batch_size=2, weight_decay=wd, seed=0)
        return init_state(spec, cfg)

    @staticmethod
    def _zero_grads(state):
        return {k: np.zeros_like(p) for k, p in state.params.items()}

    def test_zero_gradients_no_decay_fixed_point(self):
        state = self._tiny_state(wd=0.0)
        before = {k: p.copy() for k, p in state.params.items()}
        optimizer_step(state, self._zero_grads(state), lr=0.1)
        for k, p in state.params.items():
            np.testing.assert_array_equal(p, before[k])
        assert state.step == 1

    def test_zero_gradients_decoupled_decay(self):
        state = self._tiny_state(wd=0.2)
        before = {k: p.copy() for k, p in state.params.items()}
        optimizer_step(state, self._zero_grads(state), lr=0.1)
        for k, p in state.params.items():
            if k.startswith("tau"):
                np.testing.assert_array_equal(p, before[k])  # never decayed
            else:
                np.testing.assert_allclose(p, 0.98 * before[k], rtol=1e-15)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        state = self._tiny_state(wd=0.0)
        lr = 0.01
        g = {k: np.full_like(p, 3.7) for k, p in state.params.items()}
        prev = None
        for _ in range(1000):
            prev = {k: p.copy() for k, p in state.params.items()}
            optimizer_step(state, g, lr=lr)
        for k in state.params:
            delta = np.abs(state.params[k] - prev[k])
            assert (delta >= 0.9 * lr).all() and (delta <= 1.1 * lr).all()

    def test_shape_mismatch(self):
        state = self._tiny_state()
        with pytest.raises(ShapeMismatch):
            optimizer_step(state, {"image.w1": np.zeros(3)}, lr=0.1)
        grads = self._zero_grads(state)
        del grads["tag.b2"]
        with pytest.raises(KeyError, match="tag.b2"):
            optimizer_step(state, grads, lr=0.1)


@pytest.fixture(scope="module")
def tiny_resume_dataset():
    return generate(SynthSpec(n_samples=60, n_concepts=8, latent_dim=12,
                              d_image=10, d_text=9, d_roi=11, d_tag=7,
                              rois_per_image=3, seed=6))


class TestTrainLoop:
    def test_zero_steps_returns_initial_state(self, small_dataset):
        cfg = TrainConfig(max_steps=0, batch_size=25, seed=1)
        fresh = init_state(small_dataset.spec, cfg)
        state, metrics = train(small_dataset, cfg)
        assert metrics == []
        assert state.step == 0
        for k in fresh.params:
            np.testing.assert_array_equal(state.params[k], fresh.params[k])

    def test_deterministic(self, small_dataset, small_config, small_state):
        state1, metrics1 = small_state
        state2, metrics2 = train(small_dataset, small_config)
        assert metrics1 == metrics2
        for k in state1.params:
            np.testing.assert_array_equal(state1.params[k], state2.params[k])

    def test_loss_decreases(self, small_state):
        _, metrics = small_state
        first = np.mean([m["total"] for m in metrics[:5]])
        last = np.mean([m["total"] for m in metrics[-5:]])
        assert last < first

    def test_logs_finite_and_tau_clamped(self, small_state):
        _, metrics = small_state
        for row in metrics:
            assert tuple(row) == trainer.METRIC_COLUMNS
            assert all(np.isfinite(v) for v in row.values())
            assert 0.01 <= row["tau"] <= 100.0

    def test_resume_bitwise(self, small_dataset, small_config, tmp_path):
        full, _ = train(small_dataset, small_config)
        part, _ = train(small_dataset, small_config, stop_at_step=9)
        path = tmp_path / "part.ckpt"
        save_checkpoint(part, path)
        resumed, _ = train(small_dataset, small_config,
                           state=load_checkpoint(path))
        assert resumed.step == full.step
        for k in full.params:
            np.testing.assert_array_equal(full.params[k], resumed.params[k])
        for k in full.m:
            np.testing.assert_array_equal(full.m[k], resumed.m[k])
            np.testing.assert_array_equal(full.v[k], resumed.v[k])

    def test_resume_under_different_config_rejected(self, small_dataset,
                                                    small_config):
        part, _ = train(small_dataset, small_config, stop_at_step=3)
        other = replace(small_config,
                        loss=replace(small_config.loss, beta=0.9))
        with pytest.raises(ConfigError, match="loss"):
            train(small_dataset, other, state=part)
        assert part.step == 3 and part.config == small_config

    def test_resume_adopts_new_max_steps(self, small_dataset, small_config):
        part, _ = train(small_dataset, replace(small_config, max_steps=3))
        resumed, _ = train(small_dataset, small_config, state=part)
        assert resumed.config == small_config
        assert resumed.step == total_steps_for(small_dataset, small_config)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(data=st.data(),
           variant=st.sampled_from(["clip", "total", "mixed_gamma"]),
           aggregation=st.sampled_from(["mean", "attention"]))
    def test_resume_at_any_step_bitwise(self, tiny_resume_dataset, data,
                                        variant, aggregation):
        dataset = tiny_resume_dataset
        cfg = TrainConfig(epochs=3, batch_size=20, seed=4, loss_variant=variant,
                          roi_aggregation=aggregation,
                          loss=LossConfig(gamma=0.5))
        total = total_steps_for(dataset, cfg)
        k = data.draw(st.integers(0, total), label="stop_at_step")
        full, full_metrics = train(dataset, cfg)
        part, part_metrics = train(dataset, cfg, stop_at_step=k)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "part.ckpt"
            save_checkpoint(part, path)
            resumed, rest = train(dataset, cfg, state=load_checkpoint(path))
        assert resumed.step == full.step == total
        assert part_metrics + rest == full_metrics
        for store in ("params", "m", "v"):
            ours, theirs = getattr(resumed, store), getattr(full, store)
            assert list(ours) == list(theirs)
            for name in theirs:
                assert ours[name].tobytes() == theirs[name].tobytes(), (store, name)

    def test_frozen_guidance_heads(self, small_dataset):
        # detached targets + no contrastive or relation terms: the roi/tag
        # branches get zero gradient; with decay off they cannot move
        loss = LossConfig(stop_gradient_targets=True, mu_clip=0.0,
                          lambda_re=0.0, beta=1.0)
        cfg = TrainConfig(epochs=2, batch_size=25, seed=2, weight_decay=0.0,
                          loss=loss)
        init = init_state(small_dataset.spec, cfg)
        frozen_names = [k for k in init.params
                        if k.startswith(("roi.", "tag."))]
        before = {k: init.params[k].copy() for k in frozen_names}
        _, comps, grads = loss_and_grads(init, small_dataset, np.arange(25))
        for k in frozen_names:
            assert not grads[k].any()
        state, _ = train(small_dataset, cfg)
        for k in frozen_names:
            np.testing.assert_array_equal(state.params[k], before[k])

    def test_dataset_smaller_than_batch_rejected(self, small_dataset):
        cfg = TrainConfig(batch_size=small_dataset.n + 1)
        with pytest.raises(BatchTooSmall):
            total_steps_for(small_dataset, cfg)

    def test_non_finite_input_stops_before_update(self, small_dataset,
                                                  small_config):
        bad_sample = 17
        image = small_dataset.image_features.copy()
        image[bad_sample, 3] = np.nan
        bad = replace(small_dataset, image_features=image)
        perm = trainer._epoch_permutation(small_config.seed, 0, bad.n)
        position = int(np.flatnonzero(perm == bad_sample)[0])
        expected_step = position // small_config.batch_size
        state = init_state(bad.spec, small_config)
        with pytest.raises(NonFiniteValue, match="'image'") as info:
            train(bad, small_config, state=state)
        assert (info.value.step, info.value.name) == (expected_step, "image")
        assert f"step {expected_step}" in str(info.value)
        assert state.step == expected_step
        clean, _ = train(small_dataset, small_config, stop_at_step=expected_step)
        for k in clean.params:
            np.testing.assert_array_equal(state.params[k], clean.params[k])

    def test_overflowing_update_raises_at_its_step(self, tiny_resume_dataset):
        # the second update overflows the parameters; it is named at its own
        # step, not by the head output of the step after it, and stays in
        # the state
        cfg = TrainConfig(epochs=2, batch_size=30, peak_lr=1e300)
        state = init_state(tiny_resume_dataset.spec, cfg)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteValue) as info:
            train(tiny_resume_dataset, cfg, state=state)
        assert str(info.value) == "step 1: parameter 'image.w1' is not finite"
        assert (info.value.step, info.value.name) == (1, "image.w1")
        assert state.step == 2
        assert not np.isfinite(state.params["image.w1"]).all()
        before, _ = train(tiny_resume_dataset, cfg, stop_at_step=1)
        assert all(np.isfinite(p).all() for p in before.params.values())

    def test_non_finite_gradient_named(self):
        grads = {"image.w1": np.ones((2, 2)), "text.b1": np.array([0.0, np.inf])}
        with pytest.raises(NonFiniteValue, match="text.b1") as info:
            trainer._require_finite(grads, "gradient")
        assert info.value.name == "text.b1"
        # finite entries whose squares overflow are accepted
        trainer._require_finite({"w": np.full(4, 1e308)}, "gradient")
        with pytest.raises(NonFiniteValue, match="'total'"):
            trainer._require_finite({"clip": 1.0, "total": float("nan")},
                                    "loss component")

    def test_zero_head_output_raises_zero_row(self, small_dataset, small_config):
        state = init_state(small_dataset.spec, small_config)
        state.params["tag.w2"][:] = 0.0
        state.params["tag.b2"][:] = 0.0
        with pytest.raises(ZeroRow, match="input a"):
            loss_and_grads(state, small_dataset, np.arange(25))

    def test_grad_clip_caps_norm(self, small_dataset):
        cfg = TrainConfig(epochs=1, batch_size=25, seed=3, grad_clip=1e-6)
        state, metrics = train(small_dataset, cfg)
        assert all(np.isfinite(m["total"]) for m in metrics)


@pytest.mark.parametrize("variant", ["clip", "total", "mixed_gamma"])
@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("aggregation", ["mean", "attention"])
def test_every_parameter_has_a_gradient(small_dataset, aggregation, split,
                                        variant):
    loss = LossConfig(split_guidance_temperature=split)
    cfg = TrainConfig(batch_size=25, seed=4, loss=loss, loss_variant=variant,
                      roi_aggregation=aggregation, attention_dim=8)
    state = init_state(small_dataset.spec, cfg)
    _, _, grads = loss_and_grads(state, small_dataset, np.arange(25))
    assert set(grads) == set(state.params)
    for name, g in grads.items():
        assert g.shape == state.params[name].shape and np.isfinite(g).all(), name
    # the parameters are the table's, in its order; only the temperatures skip decay
    spec = small_dataset.spec
    layout = trainer.param_layout({"image": spec.d_image, "text": spec.d_text,
                                   "roi": spec.d_roi, "tag": spec.d_tag}, cfg)
    assert ([(name, shape) for name, shape, _ in layout]
            == [(name, p.shape) for name, p in state.params.items()])
    assert ([name for name, _, decays in layout if not decays]
            == [name for name in state.params if name.startswith("tau_log_inv")])


# N=256 mixed_gamma with both guidance bundles: each N x N loss temporary
# is 512 KB, above glibc's default mmap threshold
_FAULT_PROBE = """
import resource
from dataclasses import replace
from softalign import synthgen, trainer
from softalign.objectives import LossConfig
from softalign.trainer import TrainConfig

dataset = synthgen.generate(synthgen.SynthSpec(
    n_samples=256, d_roi=16, rois_per_image=2, seed=7))
cfg = TrainConfig(batch_size=256, loss_variant="mixed_gamma",
                  loss=LossConfig(gamma=0.5, lambda_re=1.0))
trainer.train(dataset, replace(cfg, max_steps=2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
trainer.train(dataset, replace(cfg, max_steps=4))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(trainer._apply_malloc_policy(), faults / 4)
"""


def test_steps_reuse_their_pages():
    # a fresh process: in this one, earlier tests have set the policy and
    # their frees may have moved glibc's thresholds
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    applied, per_step = proc.stdout.split()
    if applied != "True":
        pytest.skip("glibc's mallopt is unavailable: the malloc policy is not applied")
    # about 6,900 minor faults per step under glibc's default thresholds
    assert float(per_step) < 100


class TestAttentionTraining:
    def test_attention_params_learn(self, small_dataset):
        # the ROI branch only receives gradients when the softened targets
        # are not detached (it is a teacher otherwise)
        loss = LossConfig(stop_gradient_targets=False)
        cfg = TrainConfig(epochs=2, batch_size=25, seed=4, loss=loss,
                          roi_aggregation="attention", attention_dim=8)
        init = init_state(small_dataset.spec, cfg)
        q0 = init.params["roi_pool.query"].copy()
        state, metrics = train(small_dataset, cfg)
        assert np.abs(state.params["roi_pool.query"] - q0).max() > 0
        assert metrics[-1]["total"] < metrics[0]["total"]

    def test_attention_teacher_frozen_under_stop_grad(self, small_dataset):
        cfg = TrainConfig(epochs=1, batch_size=25, seed=4,
                          roi_aggregation="attention", attention_dim=8)
        state = init_state(small_dataset.spec, cfg)
        _, _, grads = loss_and_grads(state, small_dataset, np.arange(25))
        assert not grads["roi_pool.query"].any()
        assert not grads["roi.w1"].any()


# the loss graph input each head's output is
_HEAD_INPUT = {"image": "v", "text": "t", "roi": "r", "tag": "a"}


def _live_groups(cfg: TrainConfig) -> set:
    """The parameter groups (a head, ``roi_pool``, ``tau_log_inv``) whose
    gradient can be nonzero under ``cfg``, from :meth:`LossConfig.live_inputs`."""
    live = cfg.loss.live_inputs(cfg.loss_variant)
    groups = {head for head, x in _HEAD_INPUT.items() if x in live} | {"tau_log_inv"}
    if "r" in live and cfg.roi_aggregation == "attention":
        groups.add("roi_pool")
    return groups


class TestFrozenTeacher:
    """A head whose input no differentiated term reads is frozen: its
    gradient is exactly zero, and AdamW moves it by weight decay alone."""

    @pytest.mark.parametrize("aggregation", ["mean", "attention"])
    @pytest.mark.parametrize("stop_grad", [True, False])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_zero_gradients_follow_live_inputs(self, small_dataset, variant,
                                               stop_grad, aggregation):
        cfg = TrainConfig(batch_size=25, seed=3, loss_variant=variant,
                          roi_aggregation=aggregation, attention_dim=8,
                          loss=LossConfig(stop_gradient_targets=stop_grad))
        state = init_state(small_dataset.spec, cfg)
        _, _, grads = loss_and_grads(state, small_dataset, np.arange(25))
        moved = {name.partition(".")[0] for name, g in grads.items() if g.any()}
        assert moved == _live_groups(cfg)

    def test_default_attention_teacher_moves_by_decay_alone(self):
        # the zero query (uniform weights) and the identity value_proj stay
        # as they are up to decay, so default attention is a scaled mean pool
        spec = SynthSpec(n_samples=120, n_concepts=8, latent_dim=12, d_image=10,
                         d_text=9, d_roi=11, d_tag=7, rois_per_image=3, seed=3)
        cfg = TrainConfig(max_steps=12, roi_aggregation="attention")
        state, _ = train(generate(spec), cfg)
        c = 1.0
        for step in range(12):
            c *= 1.0 - lr_at(step, 12, cfg) * cfg.weight_decay
        assert c == pytest.approx(0.99641, abs=5e-6)
        assert not state.params["roi_pool.query"].any()
        assert state.params["roi_pool.value_proj"].tobytes() == (c * np.eye(11)).tobytes()
        frozen = [name for name in state.params
                  if name.partition(".")[0] not in _live_groups(cfg)]
        assert {name.partition(".")[0] for name in frozen} == {"roi", "tag", "roi_pool"}
        for name in frozen:
            assert not state.m[name].any() and not state.v[name].any(), name


# -0.0, subnormals, the largest finite values and ordinary ones
_DECAY_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                          1.7976931348623157e308, -1.7976931348623157e308, 1e300,
                          1.0, -3.5, 0.125])


def _state_bytes(state):
    return {(slot, name): store[name].tobytes()
            for slot, store in (("param", state.params), ("m", state.m), ("v", state.v))
            for name in store}


class TestDecayOnlyPath:
    """A frozen parameter's shared zero gradient takes ``p *= 1 - lr*wd``
    instead of the full AdamW kernel, and nothing else does."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(lr=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
           wd=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
           step=st.integers(0, 10**6),
           widths=st.tuples(*[st.integers(1, 5)] * 6),
           attention=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_kernel_bitwise(self, lr, wd, step, widths, attention, seed):
        *views, hidden, embed = widths
        cfg = TrainConfig(batch_size=2, weight_decay=wd, hidden_dim=hidden,
                          embed_dim=embed, attention_dim=2,
                          roi_aggregation="attention" if attention else "mean")
        spec = dict(zip(("d_image", "d_text", "d_roi", "d_tag"), views))
        state = init_state(SimpleNamespace(**spec), cfg)
        rng = np.random.default_rng(seed)
        for p in state.params.values():
            p[...] = rng.choice(_DECAY_VALUES, size=p.shape)
        state.step = step
        twin = deepcopy(state)
        shared = {name: trainer._frozen_zero(p.shape) for name, p in state.params.items()}
        assert all(trainer._decays_only(p, shared[name], state.m[name], state.v[name], lr)
                   for name, p in state.params.items())
        optimizer_step(state, shared, lr)
        optimizer_step(twin, {name: np.zeros_like(p) for name, p in twin.params.items()},
                       lr)
        assert _state_bytes(state) == _state_bytes(twin)
        assert state.step == twin.step == step + 1

    @pytest.mark.parametrize("lr", [-0.0, -1e-3])
    def test_a_signed_rate_takes_the_kernel(self, lr):
        # the kernel's step lr * 0 / eps is -0.0 here, which turns a -0.0
        # parameter into +0.0; decay alone would keep it
        cfg = TrainConfig(batch_size=2, hidden_dim=2, embed_dim=2)
        state = init_state(SimpleNamespace(d_image=2, d_text=2, d_roi=2, d_tag=2), cfg)
        for p in state.params.values():
            p[...] = -0.0
        twin = deepcopy(state)
        optimizer_step(state, {name: trainer._frozen_zero(p.shape)
                               for name, p in state.params.items()}, lr)
        optimizer_step(twin, {name: np.zeros_like(p) for name, p in twin.params.items()},
                       lr)
        assert _state_bytes(state) == _state_bytes(twin)
        assert not np.signbit(state.params["roi.w1"]).any()

    @staticmethod
    def _step(state, grads, lr=1e-3):
        return optimizer_step(deepcopy(state), grads, lr)

    def test_nothing_passed_for_a_frozen_parameter_is_dropped(self, small_dataset):
        cfg = TrainConfig(batch_size=25, seed=3)
        state = init_state(small_dataset.spec, cfg)
        _, _, grads = loss_and_grads(state, small_dataset, np.arange(25))
        shared = grads["roi.w1"]
        assert shared is trainer._frozen_zero(shared.shape)
        lr, w0 = 1e-3, state.params["roi.w1"]
        decayed = self._step(state, grads, lr)
        assert (decayed.params["roi.w1"].tobytes()
                == (w0 * (1.0 - lr * cfg.weight_decay)).tobytes())

        # a caller's nonzero gradient moves it beyond decay
        moved = self._step(state, {**grads, "roi.w1": np.full_like(w0, 0.5)}, lr)
        assert (np.abs(moved.params["roi.w1"] - decayed.params["roi.w1"]) > 1e-4).all()
        assert moved.m["roi.w1"].all() and moved.v["roi.w1"].all()

        # a fresh zero array takes the full kernel, to the same bits
        fresh = self._step(state, {**grads, "roi.w1": np.zeros_like(w0)}, lr)
        assert _state_bytes(fresh) == _state_bytes(decayed)

        # nonzero moments take the full update even with the shared zero
        state.m["roi.w1"][0, 0] = 1e-3
        assert not trainer._decays_only(w0, shared, state.m["roi.w1"],
                                        state.v["roi.w1"], lr)
        kept = self._step(state, grads, lr)
        full = self._step(state, {**grads, "roi.w1": np.zeros_like(w0)}, lr)
        assert _state_bytes(kept) == _state_bytes(full)
        assert kept.params["roi.w1"][0, 0] != decayed.params["roi.w1"][0, 0]

        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0
        assert not shared.any()

    def test_grad_clip_keeps_the_decay_only_path(self, small_dataset, monkeypatch):
        cfg = TrainConfig(max_steps=6, batch_size=25, seed=3, grad_clip=1e-6)
        calls = []
        kernel = backend.adamw_update
        monkeypatch.setattr(backend, "adamw_update",
                            lambda *args: calls.append(1) or kernel(*args))
        fast, fast_rows = train(small_dataset, cfg)
        assert len(calls) == 9 * 6
        monkeypatch.setattr(trainer, "_decays_only", lambda *args: False)
        full, full_rows = train(small_dataset, cfg)
        assert len(calls) == (9 + 17) * 6
        assert _state_bytes(fast) == _state_bytes(full)
        assert [list(map(_float_bits, r.values())) for r in fast_rows] == \
            [list(map(_float_bits, r.values())) for r in full_rows]


def _float_bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("stop_grad, aggregation, heads, attention_calls, adamw_calls", [
    (True, "mean", ["image", "text"], 0, 9),
    (True, "attention", ["image", "text"], 0, 9),
    # 4 x 4 head parameters, 3 for the pool, 1 for the temperature
    (False, "attention", ["image", "text", "roi", "tag"], 1, 20),
], ids=["stop_grad-mean", "stop_grad-attention", "live_teacher-attention"])
def test_a_step_runs_only_the_live_backward_and_adamw(
        small_dataset, monkeypatch, stop_grad, aggregation, heads,
        attention_calls, adamw_calls):
    calls = {"head": [], "attention": 0, "adamw": 0}
    head_backward, attention_backward = trainer._head_backward, trainer._attention_backward
    kernel = backend.adamw_update

    def count_head(state, mod, *args, **kwargs):
        calls["head"].append(mod)
        return head_backward(state, mod, *args, **kwargs)

    def count(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(trainer, "_head_backward", count_head)
    monkeypatch.setattr(trainer, "_attention_backward", count("attention", attention_backward))
    monkeypatch.setattr(backend, "adamw_update", count("adamw", kernel))
    cfg = TrainConfig(max_steps=1, batch_size=25, seed=3, roi_aggregation=aggregation,
                      attention_dim=8, loss=LossConfig(stop_gradient_targets=stop_grad))
    train(small_dataset, cfg)
    assert calls == {"head": heads, "attention": attention_calls, "adamw": adamw_calls}


class TestEncoderGradients:
    """Parameter gradients against central differences through the whole
    trainer loss (loss backward + head backward + aggregation backward)."""

    @pytest.mark.parametrize("aggregation", ["mean", "attention"])
    @pytest.mark.parametrize("stop_grad", [True, False])
    def test_parameter_gradients_match_fd(self, aggregation, stop_grad):
        spec = SynthSpec(n_samples=8, n_concepts=3, latent_dim=5, d_image=4,
                         d_text=4, d_roi=5, d_tag=3, rois_per_image=3,
                         concepts_per_sample=2, seed=21)
        ds = generate(spec)
        loss = LossConfig(stop_gradient_targets=stop_grad)
        cfg = TrainConfig(batch_size=4, hidden_dim=5, embed_dim=4,
                          attention_dim=3, roi_aggregation=aggregation,
                          seed=5, loss=loss)
        state = init_state(spec, cfg)
        idx = np.arange(4)
        _, _, grads = loss_and_grads(state, ds, idx)

        # numeric differencing re-derives the targets at every point, so
        # under stop_gradient the detached teacher parameters (roi/tag
        # branches, and tau whose FD picks up teacher drift) are excluded:
        # their analytic gradient is zero by definition, asserted directly
        if stop_grad:
            checked = [n for n in state.params
                       if n.startswith(("image.", "text."))]
            for name in state.params:
                if name.startswith(("roi.", "tag.", "roi_pool.")):
                    assert not grads[name].any()
        else:
            checked = list(state.params)

        eps = 1e-6
        rng = np.random.default_rng(0)
        for name in checked:
            flat = state.params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in picks:
                orig = flat[i]
                flat[i] = orig + eps
                up, _, _ = loss_and_grads(state, ds, idx)
                flat[i] = orig - eps
                dn, _, _ = loss_and_grads(state, ds, idx)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(gflat[i] - fd) < 5e-5 * max(1.0, abs(fd)), (
                    f"{name}[{i}]: analytic {gflat[i]:.8e} vs fd {fd:.8e}"
                )


class TestCheckpointFormat:
    def test_roundtrip(self, small_dataset, small_config, small_state, tmp_path):
        state, _ = small_state
        path = tmp_path / "ck.salb"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.step == state.step
        assert back.config == state.config
        for k in state.params:
            np.testing.assert_array_equal(back.params[k], state.params[k])

    def test_loaded_state_is_writable_and_resuming_leaves_the_file(
            self, small_dataset, small_config, tmp_path):
        # the file is mapped read-only; AdamW updates the loaded arrays in place
        part, _ = train(small_dataset, small_config, stop_at_step=3)
        path = tmp_path / "part.ckpt"
        save_checkpoint(part, path)
        blob = path.read_bytes()
        back = load_checkpoint(path)
        assert all(x.flags.writeable and x.flags.owndata
                   for store in (back.params, back.m, back.v) for x in store.values())
        train(small_dataset, small_config, state=back, stop_at_step=6)
        assert back.step == 6 and path.read_bytes() == blob

    def test_numpy_scalar_seed_saves_and_loads(self, small_dataset, small_config,
                                               tmp_path):
        state, _ = train(small_dataset,
                         replace(small_config, max_steps=1, seed=np.int64(3)))
        path = tmp_path / "np.ckpt"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.config == replace(small_config, max_steps=1, seed=3)
        assert type(back.config.seed) is int

    def test_corrupted_header(self, small_state, tmp_path):
        state, _ = small_state
        path = tmp_path / "ck.salb"
        save_checkpoint(state, path)
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda meta, arrays: meta.pop("config"),
        lambda meta, arrays: meta.update(step="x"),
        lambda meta, arrays: meta.update(param_order=3),
        lambda meta, arrays: arrays.pop("m/tag.w2"),
        lambda meta, arrays: meta.update(param_order=[]),
        lambda meta, arrays: meta["param_order"].remove("tau_log_inv"),
        lambda meta, arrays: arrays.update({"m/tag.w2": arrays["m/tag.w2"][:1]}),
        lambda meta, arrays: arrays.update(
            {"param/image.w1": arrays["param/image.w1"][:, :1]}),
        lambda meta, arrays: meta.update(step=-1),
        lambda meta, arrays: meta.update(step=2.7),
        # param_order and the arrays agree, but not with the config
        lambda meta, arrays: [meta["param_order"].remove("tau_log_inv")] + [
            arrays.pop(f"{slot}/tau_log_inv") for slot in ("param", "m", "v")],
        lambda meta, arrays: [meta["param_order"].append("roi_pool.query")] + [
            arrays.update({f"{slot}/roi_pool.query": np.zeros(4)})
            for slot in ("param", "m", "v")],
        lambda meta, arrays: meta["param_order"].reverse(),
        # a stored config its loss variant cannot evaluate
        lambda meta, arrays: meta["config"]["loss"].update(beta=0.0),
        # no width to read for a view
        lambda meta, arrays: arrays.pop("param/tag.w1"),
        lambda meta, arrays: arrays.update({"param/tag.w1": np.array(1.0)}),
        # param/, m/ and v/ agree on a shape, but not with the table
        lambda meta, arrays: arrays.update({f"{slot}/tau_log_inv": np.zeros(3)
                                            for slot in ("param", "m", "v")}),
        lambda meta, arrays: arrays.update({f"{slot}/tag.b2": np.zeros(1)
                                            for slot in ("param", "m", "v")}),
        lambda meta, arrays: meta["config"].update(hidden_dim=32),
        # a config dict() would read as a mapping, with defaults elsewhere
        lambda meta, arrays: meta.update(config=[["max_steps", 1], ["batch_size", 4]]),
        lambda meta, arrays: meta.update(junk=1),
    ], ids=["no-config", "bad-step", "bad-order", "missing-array", "empty-order",
            "dropped-name", "m-shape", "param-shape", "negative-step", "float-step",
            "dropped-param", "extra-param", "reordered", "infeasible-config",
            "missing-w1", "scalar-w1", "tau-shape", "bias-shape", "hidden-dim",
            "config-pairs", "meta-key"])
    def test_invalid_metadata_or_missing_arrays(self, small_state, tmp_path, edit):
        path = tmp_path / "ck.salb"
        save_checkpoint(small_state[0], path)
        meta, arrays = container.read(path, trainer.CKPT_MAGIC)
        edit(meta, arrays)
        container.write(path, trainer.CKPT_MAGIC, meta, arrays)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_config_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"epochs": 1, "nonsense": 2})
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"loss": {"bogus": 1}})

    def test_config_roundtrip(self):
        cfg = TrainConfig(epochs=3, loss=LossConfig(beta=0.5))
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestTrainConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(batch_size=1), dict(peak_lr=0.0), dict(warmup_fraction=1.0),
        dict(weight_decay=-0.1), dict(roi_aggregation="sum"),
        dict(loss_variant="hinge"), dict(grad_clip=0.0), dict(epochs=-1),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)

    def test_rejects_degenerate_loss(self):
        with pytest.raises(DegenerateTargets):
            TrainConfig(loss=LossConfig(beta=0.0))
        TrainConfig(loss_variant="clip", loss=LossConfig(beta=0.0))

import dataclasses
import hashlib
import json
import os
import pickle
import struct
import subprocess
import sys
import threading
import tracemalloc
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from softalign import container, synthgen, trainer
from softalign.errors import FormatError, SpecInvalid
from softalign.synthgen import (
    SynthDataset,
    SynthSpec,
    dataset_hash,
    from_bytes,
    generate,
    load,
    save,
    to_bytes,
)

ARRAYS = ("image_features", "text_features", "roi_features", "tag_features",
          "relevance")


def small_spec(**kw):
    base = dict(n_samples=60, n_concepts=12, latent_dim=16, d_image=10,
                d_text=9, d_roi=8, d_tag=7, rois_per_image=4, seed=3)
    base.update(kw)
    return SynthSpec(**base)


# dataset_hash of generate(spec) for fixed specs; a change to the draw
# order, the noise stream or the file layout changes them
GOLDEN_HASHES = [
    (dict(n_samples=150), "cbe304211c959383"),
    (dict(n_samples=150, noise_sigma_roi=0.0), "86a02e82b206894f"),
    ({}, "e226c01bebebefba"),
]


class TestGenerate:
    @pytest.mark.parametrize("noise_rows", [None, 7], ids=["default-block", "block7"])
    @pytest.mark.parametrize("kw,digest", GOLDEN_HASHES,
                             ids=["n150", "n150-no-roi-noise", "small"])
    def test_golden_hash(self, monkeypatch, noise_rows, kw, digest):
        # 7-row noise blocks split every view, ragged last block included
        if noise_rows is not None:
            monkeypatch.setattr(synthgen, "_NOISE_ROWS", noise_rows)
        assert dataset_hash(generate(small_spec(**kw))) == digest

    def test_deterministic(self):
        a, b = generate(small_spec()), generate(small_spec())
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_shapes(self):
        spec = small_spec()
        ds = generate(spec)
        assert ds.image_features.shape == (60, 10)
        assert ds.text_features.shape == (60, 9)
        assert ds.roi_features.shape == (60, 4, 8)
        assert ds.tag_features.shape == (60, 7)
        assert ds.relevance.shape == (60, 60)

    def test_single_concept_all_ones_relevance(self):
        spec = small_spec(n_concepts=1, concepts_per_sample=1,
                          noise_sigma_image=0.0, noise_sigma_text=0.0,
                          noise_sigma_roi=0.0, noise_sigma_tag=0.0,
                          faulty_positive_rate=0.0)
        ds = generate(spec)
        np.testing.assert_allclose(ds.relevance, 1.0, atol=1e-12)

    def test_distinct_concepts_near_orthogonal(self):
        # one concept per sample, as many concepts as samples, wide latent:
        # off-diagonal relevance collapses toward zero. The bound is a tail
        # statistic of ~n^2/2 random unit-vector dots (std 1/16 at L=256),
        # so the batch is kept small and the seed fixed.
        spec = small_spec(n_samples=16, n_concepts=16, concepts_per_sample=1,
                          latent_dim=256, seed=0)
        ds = generate(spec)
        off = ds.relevance[~np.eye(16, dtype=bool)]
        assert np.abs(off).max() < 0.2

    def test_relevance_invariants(self):
        ds = generate(small_spec())
        assert np.array_equal(ds.relevance, ds.relevance.T)
        assert (np.diagonal(ds.relevance) == 1.0).all()
        assert (ds.relevance >= -1.0).all() and (ds.relevance <= 1.0).all()

    def test_shared_concepts_raise_relevance(self):
        spec = SynthSpec(n_samples=400, seed=5)
        ds = generate(spec)
        # recover the subsets by regenerating the assignment stream
        rng = np.random.default_rng(spec.seed)
        from softalign.synthgen import _concept_subsets

        rng.standard_normal((spec.n_concepts, spec.latent_dim))
        for d in (spec.d_image, spec.d_text, spec.d_roi, spec.d_tag):
            rng.standard_normal((spec.latent_dim, d))
        subsets = _concept_subsets(rng, spec.n_samples, spec.n_concepts,
                                   spec.concepts_per_sample)
        shared, disjoint = [], []
        for i in range(0, 200):
            for j in range(i + 1, 200):
                overlap = set(subsets[i]) & set(subsets[j])
                (shared if overlap else disjoint).append(ds.relevance[i, j])
        assert len(shared) >= 100 and len(disjoint) >= 100
        assert np.mean(shared) - np.mean(disjoint) > 0.1

    def test_faulty_rate_does_not_touch_relevance(self):
        clean = generate(small_spec(faulty_positive_rate=0.0))
        noisy = generate(small_spec(faulty_positive_rate=0.5))
        np.testing.assert_array_equal(clean.relevance, noisy.relevance)
        # but it does corrupt text views
        assert np.abs(clean.text_features - noisy.text_features).max() > 0.1

    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            SynthSpec(concepts_per_sample=30, n_concepts=10)
        with pytest.raises(SpecInvalid):
            SynthSpec(faulty_positive_rate=1.0)
        with pytest.raises(SpecInvalid):
            SynthSpec(d_roi=0)
        with pytest.raises(SpecInvalid):
            SynthSpec(noise_sigma_text=-0.1)
        with pytest.raises(SpecInvalid):
            SynthSpec.from_dict({"n_samples": 10, "bogus": 1})


class TestRoundTrip:
    def test_save_load_bitwise(self, tmp_path):
        ds = generate(small_spec())
        path = tmp_path / "data.salb"
        save(ds, path)
        back = load(path)
        assert back.spec == ds.spec
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(ds, name))

    def test_truncated_file(self, tmp_path):
        ds = generate(small_spec())
        blob = to_bytes(ds)
        path = tmp_path / "cut.salb"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load(path)

    def test_bad_version_mentioned(self):
        ds = generate(small_spec())
        blob = bytearray(to_bytes(ds))
        # header is JSON right after the 4-byte length; bump the version
        idx = blob.find(b'"version": 1')
        assert idx > 0
        blob[idx:idx + len(b'"version": 1')] = b'"version": 9'
        with pytest.raises(FormatError, match="9"):
            from_bytes(bytes(blob))

    def test_bad_magic(self):
        ds = generate(small_spec())
        blob = bytearray(to_bytes(ds))
        idx = blob.find(b'"SALB"')
        blob[idx:idx + 6] = b'"XXXX"'
        with pytest.raises(FormatError, match="magic"):
            from_bytes(bytes(blob))

    def test_shape_mismatch_detected(self):
        ds = generate(small_spec())
        wrong = SynthDataset(
            image_features=ds.image_features[:, :-1],
            text_features=ds.text_features,
            roi_features=ds.roi_features,
            tag_features=ds.tag_features,
            relevance=ds.relevance,
            spec=ds.spec,
        )
        with pytest.raises(FormatError, match="image_features"):
            from_bytes(to_bytes(wrong))

    def test_array_the_spec_does_not_name_rejected(self):
        meta, arrays = container.unpack(to_bytes(generate(small_spec())), "SALB")
        arrays["junk"] = np.zeros(2)
        with pytest.raises(FormatError, match="junk"):
            from_bytes(container.pack("SALB", meta, arrays))

    @pytest.mark.parametrize("edit", [
        lambda meta: meta["spec"].update(d_roi=8.0),
        lambda meta: meta["spec"].update(n_samples="60"),
        lambda meta: meta["spec"].update(noise_sigma_image=-0.5),
        lambda meta: meta["spec"].update(bogus=1),
        lambda meta: meta.update(spec=3),
        lambda meta: meta.pop("spec"),
    ], ids=["float-int", "string-int", "negative", "unknown-key",
            "not-a-mapping", "missing"])
    def test_invalid_header_spec(self, edit):
        meta, arrays = container.unpack(to_bytes(generate(small_spec())), "SALB")
        edit(meta)
        with pytest.raises(FormatError, match="no valid spec"):
            from_bytes(container.pack("SALB", meta, arrays))

    def test_hash_stable_and_content_sensitive(self):
        a = generate(small_spec())
        b = generate(small_spec())
        c = generate(small_spec(seed=4))
        assert dataset_hash(a) == dataset_hash(b)
        assert dataset_hash(a) != dataset_hash(c)

    def test_numpy_scalar_spec_hashes_and_saves_as_python_value(self):
        a = generate(small_spec(seed=np.int64(2), faulty_positive_rate=np.float64(0.1)))
        b = generate(small_spec(seed=2, faulty_positive_rate=0.1))
        assert dataset_hash(a) == dataset_hash(b)
        assert to_bytes(a) == to_bytes(b)

    def test_hash_is_sha256_of_container_bytes(self):
        ds = generate(small_spec())
        expected = hashlib.sha256(to_bytes(ds)).hexdigest()[:16]
        assert dataset_hash(ds) == expected

    def test_hash_is_cached_per_dataset(self, sha256_runs):
        ds = generate(small_spec())
        first = dataset_hash(ds)
        assert dataset_hash(ds) == first == ds._cache["hash"]
        assert len(sha256_runs) == 1

    def test_replaced_and_pickled_copies_hash_themselves(self, sha256_runs):
        ds = generate(small_spec())
        other = generate(small_spec(seed=4))
        expected = dataset_hash(ds)
        same = dataclasses.replace(ds)
        changed = dataclasses.replace(ds, relevance=other.relevance)
        unpickled = pickle.loads(pickle.dumps(ds))
        assert same._cache == changed._cache == unpickled._cache == {}
        assert dataset_hash(same) == dataset_hash(unpickled) == expected
        assert dataset_hash(changed) != expected
        assert len(sha256_runs) == 4

    def test_cached_hash_equals_hash_of_fresh_load(self, tmp_path):
        ds = generate(small_spec())
        cached = dataset_hash(ds)
        save(ds, tmp_path / "d.salb")
        loaded = load(tmp_path / "d.salb")
        assert "hash" not in loaded._cache
        assert dataset_hash(loaded) == cached

    def test_pooled_cache_not_pickled(self):
        ds = generate(small_spec())
        size = len(pickle.dumps(ds))
        pooled = ds.pooled_rois("max")
        assert len(pickle.dumps(ds)) == size
        copy = pickle.loads(pickle.dumps(ds))
        np.testing.assert_array_equal(copy.pooled_rois("max"), pooled)
        assert not copy.pooled_rois("max").flags.writeable

    def test_relevance_rank_cache_not_pickled(self):
        ds = generate(small_spec())
        size = len(pickle.dumps(ds))
        ranks = ds.relevance_ranks()
        assert len(pickle.dumps(ds)) == size
        copy = pickle.loads(pickle.dumps(ds))
        assert copy._cache == {}
        assert copy.relevance_ranks().tobytes() == ranks.tobytes()
        assert not copy.relevance_ranks().flags.writeable


class TestContainer:
    def test_roundtrip(self, tmp_path):
        arrays = {"x": np.arange(6.0).reshape(2, 3),
                  "y": np.ones((4,)),
                  "z": np.zeros((2, 1, 2))}
        path = tmp_path / "c.bin"
        container.write(path, "SALB", {"k": 1}, arrays)
        meta, back = container.read(path, "SALB")
        assert meta == {"k": 1}
        for k, v in arrays.items():
            np.testing.assert_array_equal(back[k], v)

    def test_too_short(self):
        with pytest.raises(FormatError):
            container.unpack(b"\x01\x02", "SALB")

    def test_wrong_magic_expected(self, tmp_path):
        path = tmp_path / "c.bin"
        container.write(path, "SALB", {}, {"x": np.ones(2)})
        with pytest.raises(FormatError):
            container.read(path, "SALB-CKPT")

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(arrays=st.dictionaries(
        st.text(max_size=4),
        st.lists(st.integers(0, 3), max_size=3).flatmap(
            lambda shape: hnp.arrays(np.float64, tuple(shape))),
        max_size=4))
    def test_pack_unpack_bitwise_and_every_truncation_fails(self, arrays):
        blob = container.pack("SALB", {"k": 1}, arrays)
        meta, back = container.unpack(blob, "SALB")
        assert meta == {"k": 1} and list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()
        for cut in range(len(blob)):
            with pytest.raises(FormatError):
                container.unpack(blob[:cut], "SALB")
        for tail in (b"\0", bytes(8)):
            with pytest.raises(FormatError):
                container.unpack(blob + tail, "SALB")

    @pytest.mark.parametrize("arrays", [
        {"x": {"shape": [2], "offset": 0}},
        ["x"],
        [{"name": "x", "shape": [2]}],
        [{"name": 3, "shape": [2], "offset": 0}],
        [{"name": "x", "shape": "x", "offset": 0}],
        [{"name": "x", "shape": [-1], "offset": 0}],
        [{"name": "x", "shape": [2.0], "offset": 0}],
        [{"name": "x", "shape": [True], "offset": 0}],
        [{"name": "x", "shape": [1], "offset": 4}],
        [{"name": "x", "shape": [1], "offset": "0"}],
        [{"name": "x", "shape": [1], "offset": 0},
         {"name": "y", "shape": [1], "offset": 16}],
        [{"name": "x", "shape": [5], "offset": 0}],
    ], ids=["not-a-list", "not-an-object", "missing-offset", "int-name",
            "string-shape", "negative-dim", "float-dim", "bool-dim",
            "misaligned-offset", "string-offset", "gap", "truncated"])
    def test_malformed_array_entry(self, arrays):
        # a 4-float data section under each header
        header = json.dumps({"magic": "SALB", "version": container.VERSION,
                             "meta": {}, "arrays": arrays}).encode()
        blob = (struct.pack("<I", len(header)) + header
                + np.arange(4.0).astype("<f8").tobytes())
        with pytest.raises(FormatError):
            container.unpack(blob, "SALB")

    def test_header_not_an_object(self):
        header = json.dumps(["SALB", container.VERSION]).encode()
        with pytest.raises(FormatError, match="header must be a JSON object"):
            container.unpack(struct.pack("<I", len(header)) + header, "SALB")

    @pytest.mark.parametrize("meta, arrays, match", [
        ({"k": 1, "junk": 2}, {"x": np.ones(2)}, r"keys \['junk', 'k'\], expected \['k'\]"),
        ({"k": 1}, {}, r"arrays differ from its table, among them \['x'\]"),
        ({"k": 1}, {"x": np.ones(2), "y": np.ones(1)}, r"among them \['y'\]"),
        ({"k": 1}, {"x": np.ones(3)}, r"'x' has shape \(3,\), expected \(2,\)"),
        ({"k": 1}, {"x": np.array([1.0, np.nan])}, "'x' is not finite"),
        ({"k": 1}, {"x": np.array([-np.inf, 1.0])}, "'x' is not finite"),
    ], ids=["meta-key", "missing", "unnamed", "shape", "nan", "-inf"])
    def test_check_names_what_breaks_the_table(self, meta, arrays, match):
        container.check({"k": 1}, {"k"}, {"x": np.ones(2)}, {"x": (2,)}, "thing")
        with pytest.raises(FormatError, match=f"^thing .*{match}"):
            container.check(meta, {"k"}, arrays, {"x": (2,)}, "thing")

    def test_an_array_named_twice(self):
        # both entries describe the 2-float data section exactly, so only
        # the name decides; the second x used to replace the first
        arrays = [{"name": "x", "shape": [1], "offset": 0},
                  {"name": "x", "shape": [1], "offset": 8}]
        header = json.dumps({"magic": "SALB", "version": container.VERSION,
                             "meta": {}, "arrays": arrays}).encode()
        blob = (struct.pack("<I", len(header)) + header
                + np.array([1.0, 2.0]).astype("<f8").tobytes())
        with pytest.raises(FormatError, match="'x' is named twice"):
            container.unpack(blob, "SALB")

    def test_an_array_larger_than_the_file(self, tmp_path):
        # the size check comes before any array is allocated
        header = json.dumps({"magic": "SALB", "version": container.VERSION, "meta": {},
                             "arrays": [{"name": "x", "shape": [2**40], "offset": 0}]}
                            ).encode()
        blob = struct.pack("<I", len(header)) + header + bytes(8)
        path = tmp_path / "c.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="truncated data: array 'x'"):
            container.unpack(blob, "SALB")
        with pytest.raises(FormatError, match="truncated data: array 'x'"):
            container.read(path, "SALB")

    def test_read_from_a_pipe(self, tmp_path):
        # a pipe has no file size, so the parser checks against the bytes read
        blob = container.pack("SALB", {"k": 1}, {"x": np.arange(3.0)})
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        meta, arrays = container.read(fifo, "SALB")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert meta == {"k": 1} and arrays["x"].tobytes() == np.arange(3.0).tobytes()

    def test_write_through_a_link_replaces_its_target(self, tmp_path):
        (tmp_path / "real.bin").write_bytes(b"old")
        (tmp_path / "link.bin").symlink_to("real.bin")
        container.write(tmp_path / "link.bin", "SALB", {}, {"x": np.ones(2)})
        assert (tmp_path / "link.bin").is_symlink()
        assert container.read(tmp_path / "real.bin", "SALB")[1]["x"].tolist() == [1.0, 1.0]
        assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]

    def test_write_to_a_pipe(self, tmp_path):
        blob = container.pack("SALB", {"k": 1}, {"x": np.arange(3.0)})
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        container.write(fifo, "SALB", {"k": 1}, {"x": np.arange(3.0)})
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [blob] and sorted(os.listdir(tmp_path)) == ["fifo"]

    def test_a_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.bin"
        container.write(path, "SALB", {"k": 1}, {"x": np.ones(3)})
        old = path.read_bytes()
        layout = container.layout

        def failing_layout(*args):
            # the header and the first array go out, the second cannot
            prefix, datas = layout(*args)
            return prefix, [datas[0], "not a buffer"]

        monkeypatch.setattr(container, "layout", failing_layout)
        with pytest.raises(TypeError):
            container.write(path, "SALB", {"k": 2}, {"x": np.zeros(4), "y": np.zeros(2)})
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["c.bin"]


class TestMapping:
    """A loaded dataset views a read-only mapping of its file."""

    SPEC = small_spec(n_samples=90, d_roi=300, rois_per_image=5)  # 1 MB of ROIs

    @pytest.fixture
    def saved(self, tmp_path):
        dataset = generate(self.SPEC)
        save(dataset, tmp_path / "d.salb")
        return dataset, tmp_path / "d.salb"

    def test_arrays_are_read_only_views(self, saved):
        dataset, path = saved
        loaded = load(path)
        for name in ARRAYS:
            x = getattr(loaded, name)
            assert not x.flags.writeable and not x.flags.owndata
            assert x.tobytes() == getattr(dataset, name).tobytes()

    @pytest.mark.parametrize("mode", sorted(synthgen.ROI_POOLS))
    def test_pooled_views_equal_those_of_the_generated_dataset(self, saved, mode,
                                                               monkeypatch):
        # pooled in one pass over the whole array, and in blocks of 7 rows
        dataset, path = saved
        want = synthgen.ROI_POOLS[mode](dataset.roi_features, axis=1).tobytes()
        monkeypatch.setattr(container, "_BLOCK_BYTES", 7 * 5 * 300 * 8)
        assert load(path).pooled_rois(mode).tobytes() == want
        assert dataset.pooled_rois(mode).tobytes() == want

    def test_attention_gathers_equal_those_of_the_generated_dataset(self, saved):
        dataset, path = saved
        loaded = load(path)
        state = trainer.init_state(self.SPEC, trainer.TrainConfig(
            roi_aggregation="attention", seed=1))
        idx = np.random.default_rng(0).permutation(self.SPEC.n_samples)[:40]
        for got, want in zip(trainer.forward_batch(state, loaded, idx),
                             trainer.forward_batch(state, dataset, idx)):
            assert got.tobytes() == want.tobytes()

    def test_small_blocks_release_pages_and_read_the_same(self, saved, monkeypatch):
        # blocks of two ROI rows (24 KB), so each block spans whole pages
        # that the walk releases; a second pass faults them back in
        dataset, path = saved
        monkeypatch.setattr(container, "_BLOCK_BYTES", 2 * 5 * 300 * 8)
        loaded = load(path)
        for _ in range(2):
            blocks = list(container.row_blocks(loaded.roi_features))
            assert len(blocks) == 45
            assert b"".join(b.tobytes() for b in blocks) == dataset.roi_features.tobytes()
        assert dataset_hash(loaded) == dataset_hash(dataset)

    def test_save_over_a_live_dataset_leaves_it(self, saved):
        dataset, path = saved
        loaded = load(path)
        want = {name: getattr(dataset, name).tobytes() for name in ARRAYS}
        save(loaded, path)  # over its own file
        save(generate(small_spec(seed=9)), path)
        assert {name: getattr(loaded, name).tobytes() for name in ARRAYS} == want
        assert dataset_hash(loaded) == dataset_hash(dataset)

    def test_pickled_copies_hold_plain_arrays(self, saved):
        # what a pool that cannot fork sends each worker
        dataset, path = saved
        copy = pickle.loads(ForkingPickler.dumps(load(path)))
        for name in ARRAYS:
            x = getattr(copy, name)
            assert x.flags.writeable and container._mapping(x) is None
            assert x.tobytes() == getattr(dataset, name).tobytes()

    @pytest.mark.parametrize("source", ["file", "fifo"])
    def test_an_empty_file_or_pipe_is_too_short(self, tmp_path, source):
        path = tmp_path / "empty"
        if source == "fifo":
            os.mkfifo(path)
            writer = threading.Thread(target=path.write_bytes, args=(b"",), daemon=True)
            writer.start()
        else:
            path.write_bytes(b"")
        with pytest.raises(FormatError, match="shorter than the 4-byte header"):
            load(path)
        if source == "fifo":
            writer.join(timeout=10)
            assert not writer.is_alive()

    def test_unpacked_arrays_view_the_bytes(self, saved):
        dataset, path = saved
        blob = path.read_bytes()
        back = from_bytes(blob)
        for name in ARRAYS:
            x = getattr(back, name)
            assert not x.flags.writeable
            assert x.tobytes() == getattr(dataset, name).tobytes()
        assert to_bytes(back) == blob


class TestMemory:
    """Traced peaks of the data stages, against the bytes of the arrays.

    A stage that holds a second copy of the data (the file image, or noise
    the size of a view) reads about 2x, or 1x for save. Load allocates no
    array: it maps the file.
    """

    SPEC = small_spec(n_samples=200, d_roi=2052, rois_per_image=10)  # 33 MB of ROIs

    @staticmethod
    def _peak(stage):
        tracemalloc.start()
        try:
            out = stage()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def generated(self):
        return self._peak(lambda: generate(self.SPEC))

    @staticmethod
    def _nbytes(dataset):
        return sum(getattr(dataset, name).nbytes for name in ARRAYS)

    def test_generate_holds_the_data_once(self, generated):
        dataset, peak = generated
        assert self._nbytes(dataset) <= peak < 1.2 * self._nbytes(dataset)

    def test_save_holds_no_copy(self, generated, tmp_path):
        dataset, _ = generated
        _, peak = self._peak(lambda: save(dataset, tmp_path / "d.salb"))
        assert peak < 0.05 * self._nbytes(dataset)

    def test_load_holds_the_data_once(self, generated, tmp_path):
        # the arrays view the file's mapping, and the finite check walks
        # them in blocks without a temporary
        dataset, _ = generated
        save(dataset, tmp_path / "d.salb")
        loaded, peak = self._peak(lambda: load(tmp_path / "d.salb"))
        assert peak < 0.1 * self._nbytes(loaded)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from /proc")
    def test_a_mean_pooled_eval_never_holds_the_rois(self, tmp_path):
        # a fresh process: the mapped pages count in its resident set, which
        # tracemalloc does not see; 66 MB of ROIs against 1.3 MB of relevance.
        # VmHWM, not ru_maxrss: exec keeps the parent's ru_maxrss, this
        # test process's, which is larger than the child's whole peak
        spec = small_spec(n_samples=400, d_roi=2052, rois_per_image=10)
        save(generate(spec), tmp_path / "d.salb")
        code = (
            "import sys\n"
            "from softalign import harness, synthgen, trainer\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:'))\n"
            "baseline = peak()\n"
            "dataset = synthgen.load(sys.argv[1])\n"
            "dataset.pooled_rois('mean')\n"
            "state = trainer.init_state(dataset.spec, trainer.TrainConfig())\n"
            "harness.retrieval_eval(state, dataset)\n"
            "print(baseline, peak())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d.salb")],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        baseline, peak = (1024 * int(kb) for kb in proc.stdout.split())
        rois = 400 * 10 * 2052 * 8
        # the block in flight, the pooled view, the model and eval: about
        # 0.4x, where a load that copies the file reads about 1.4x
        assert peak - baseline < 0.5 * rois

    def test_relevance_ranks_rank_the_triangle(self):
        # B is one float64 per off-diagonal pair: the ranks themselves. The
        # upper triangle and its ranking add about 1 B; ranking every
        # entry, with its key, packed keys and index arrays, holds about 7 B
        n = 1000
        dataset = generate(small_spec(n_samples=n))
        ranks, peak = self._peak(dataset.relevance_ranks)
        assert ranks.nbytes == 8 * n * (n - 1) <= peak < 3 * ranks.nbytes

"""Both loaders against mutated files.

Starting from small valid checkpoint and dataset files, one mutation drops,
renames, adds or reshapes an array entry, sets one array entry to NaN,
+inf or -inf, sets a metadata value (``step``, ``param_order``, a config
or spec field) to another value or type, adds a key to the metadata or to
one of its objects, or truncates the file or appends bytes. Loading the
result must raise FormatError or ConfigError, or return what the file
holds: every array finite and of the shape its parameter table
(checkpoint) or spec (dataset) gives, which saves back to the file's
metadata and arrays.
"""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softalign import cli, container, synthgen, trainer
from softalign.errors import ConfigError, FormatError
from softalign.objectives import DIVERGENCES, LOSS_VARIANTS, SUPERVISION_FORMS, LossConfig
from softalign.synthgen import SynthSpec
from softalign.trainer import AGGREGATION_MODES, TrainConfig

SPEC = SynthSpec(n_samples=12, n_concepts=4, latent_dim=5, d_image=4, d_text=3,
                 d_roi=5, d_tag=2, rois_per_image=2, concepts_per_sample=1, seed=1)
# attention pooling and a split temperature build every kind of parameter
CFG = TrainConfig(max_steps=2, batch_size=4, hidden_dim=6, embed_dim=3,
                  attention_dim=2, roi_aggregation="attention", seed=1,
                  loss=LossConfig(tau_init=1.0, split_guidance_temperature=True))
MAGIC = {"ckpt": trainer.CKPT_MAGIC, "data": synthgen.MAGIC}
# the metadata values a mutation may set, as key paths
META_PATHS = {
    "ckpt": [("step",), ("param_order",)]
    + [("config", f.name) for f in fields(TrainConfig) if f.name != "loss"]
    + [("config", "loss", f.name) for f in fields(LossConfig)],
    "data": [("spec", f.name) for f in fields(SynthSpec)],
}
# the metadata objects a mutation may add a key to, as key paths
META_OBJECTS = {"ckpt": [(), ("config",), ("config", "loss")], "data": [(), ("spec",)]}
# small ints only: a loader that wrongly accepts a width would have the
# check below build parameters that wide
VALUES = st.one_of(
    st.integers(-3, 100), st.sampled_from([2**64, 10**400]), st.floats(),
    st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from(sorted({*AGGREGATION_MODES, *LOSS_VARIANTS, *DIVERGENCES,
                            *SUPERVISION_FORMS})),
    st.lists(st.integers(0, 3), max_size=2),
)
SHAPES = st.lists(st.integers(0, 6), max_size=3).map(tuple)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("loaders")
    dataset = synthgen.generate(SPEC)
    state, _ = trainer.train(dataset, CFG)
    synthgen.save(dataset, root / "data")
    trainer.save_checkpoint(state, root / "ckpt")
    return root


def _mutated(blob: bytes, magic: str, kind: str, arg) -> bytes:
    """``blob`` after one mutation of ``kind`` with argument ``arg``."""
    if kind == "truncate":
        return blob[:arg]
    if kind == "append":
        return blob + arg
    meta, arrays = container.unpack(blob, magic)
    if kind == "drop":
        del arrays[arg]
    elif kind == "rename":
        old, new = arg
        arrays[new] = arrays.pop(old)
    elif kind == "add":
        name, shape = arg
        arrays[name] = np.zeros(shape)
    elif kind == "reshape":
        name, shape = arg
        arrays[name] = np.resize(arrays[name], shape)
    elif kind == "non-finite":
        name, index, value = arg
        arrays[name] = arrays[name].copy()  # unpack gives read-only views of the blob
        arrays[name].reshape(-1)[index] = value
    else:  # "meta" and "meta-add": the value at a key path
        *path, value = arg
        node = meta
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return container.pack(magic, meta, arrays)


def _draw_mutation(data, blob: bytes, target: str) -> tuple[str, object]:
    meta, arrays = container.unpack(blob, MAGIC[target])
    names = st.sampled_from(list(arrays))
    new_names = names | st.just("junk") | st.text(max_size=6)
    kind = data.draw(st.sampled_from(
        ["drop", "rename", "add", "reshape", "non-finite", "meta", "meta-add",
         "truncate", "append"]))
    if kind == "drop":
        return kind, data.draw(names)
    if kind == "rename":
        return kind, (data.draw(names), data.draw(new_names))
    if kind in ("add", "reshape"):
        return kind, (data.draw(new_names if kind == "add" else names), data.draw(SHAPES))
    if kind == "non-finite":
        name = data.draw(st.sampled_from([n for n, x in arrays.items() if x.size]))
        return kind, (name, data.draw(st.integers(0, arrays[name].size - 1)),
                      data.draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    if kind == "truncate":
        return kind, data.draw(st.integers(0, len(blob) - 1))
    if kind == "append":
        return kind, data.draw(st.binary(min_size=1, max_size=9))
    if kind == "meta-add":
        path = data.draw(st.sampled_from(META_OBJECTS[target]))
        key = data.draw(st.just("junk") | st.text(max_size=6))
        return kind, (*path, key, data.draw(VALUES))
    path = data.draw(st.sampled_from(META_PATHS[target]))
    values = VALUES
    if path == ("param_order",):  # also the right names, reordered or one short
        order = meta["param_order"]
        values |= st.permutations(order) | st.integers(0, len(order) - 1).map(
            lambda i: order[:i] + order[i + 1:])
    return kind, (*path, data.draw(values))


def _contents(blob: bytes, magic: str):
    """A file's metadata and its arrays by name, whatever their order."""
    meta, arrays = container.unpack(blob, magic)
    return meta, {name: (x.shape, x.tobytes()) for name, x in arrays.items()}


def _check_ckpt(blob: bytes, path) -> None:
    path.write_bytes(blob)
    try:
        state = trainer.load_checkpoint(path)
    except (FormatError, ConfigError):
        return
    table = trainer.init_state(SPEC, state.config)
    for store, want in ((state.params, table.params), (state.m, table.m),
                        (state.v, table.v)):
        assert ([(name, x.shape) for name, x in store.items()]
                == [(name, x.shape) for name, x in want.items()])
        assert all(np.isfinite(x).all() for x in store.values())
    trainer.save_checkpoint(state, path)
    assert _contents(path.read_bytes(), MAGIC["ckpt"]) == _contents(blob, MAGIC["ckpt"])


def _check_data(blob: bytes, path) -> None:
    path.write_bytes(blob)
    try:
        dataset = synthgen.load(path)
    except (FormatError, ConfigError):
        return
    s = dataset.spec
    shapes = {"image_features": (s.n_samples, s.d_image),
              "text_features": (s.n_samples, s.d_text),
              "roi_features": (s.n_samples, s.rois_per_image, s.d_roi),
              "tag_features": (s.n_samples, s.d_tag),
              "relevance": (s.n_samples, s.n_samples)}
    assert {name: getattr(dataset, name).shape for name in shapes} == shapes
    assert all(np.isfinite(getattr(dataset, name)).all() for name in shapes)
    synthgen.save(dataset, path)
    assert _contents(path.read_bytes(), MAGIC["data"]) == _contents(blob, MAGIC["data"])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_each_mutated_file_is_rejected_or_loads_as_its_table(files, data):
    target = data.draw(st.sampled_from(["ckpt", "data"]))
    blob = (files / target).read_bytes()
    kind, arg = _draw_mutation(data, blob, target)
    mutated = _mutated(blob, MAGIC[target], kind, arg)
    # a path of its own: a dataset an earlier example left mapped would
    # fault (SIGBUS) on reading a file truncated under it
    path = Path(tempfile.mkdtemp(dir=files)) / f"mutated.{target}"
    if target == "ckpt":
        _check_ckpt(mutated, path)
    else:
        _check_data(mutated, path)


@pytest.mark.parametrize("target,kind,arg", [
    ("ckpt", "drop", "v/roi_pool.query"),
    ("ckpt", "rename", ("param/tag.b1", "param/tag.bias")),
    ("ckpt", "add", ("param/junk", (2,))),
    ("ckpt", "reshape", ("param/tau_log_inv_guidance", (3,))),
    ("ckpt", "meta", ("step", "3")),
    ("ckpt", "meta", ("param_order", ["tau_log_inv"])),
    ("ckpt", "meta", ("config", "hidden_dim", 5)),
    ("ckpt", "meta", ("config", "loss", "beta", 0.0)),
    ("ckpt", "meta-add", ("junk", 1)),
    ("ckpt", "truncate", 100),
    ("ckpt", "append", b"\0"),
    ("ckpt", "non-finite", ("param/image.w1", 0, np.nan)),
    ("data", "drop", "relevance"),
    ("data", "rename", ("text_features", "texts")),
    ("data", "add", ("junk", (2,))),
    ("data", "reshape", ("roi_features", (12, 5, 2))),
    ("data", "meta", ("spec", "d_tag", 3)),
    ("data", "meta-add", ("junk", 1)),
    ("data", "truncate", 100),
    ("data", "append", bytes(8)),
    ("data", "non-finite", ("relevance", 1, np.nan)),
    ("data", "non-finite", ("image_features", 0, np.inf)),
], ids=["ckpt-drop", "ckpt-rename", "ckpt-add", "ckpt-reshape", "ckpt-step",
        "ckpt-param-order", "ckpt-config-width", "ckpt-config-infeasible",
        "ckpt-meta-key", "ckpt-truncate", "ckpt-append", "ckpt-nan-param",
        "data-drop", "data-rename", "data-add", "data-reshape", "data-spec",
        "data-meta-key", "data-truncate", "data-append", "data-nan-relevance",
        "data-inf-image"])
def test_eval_exits_2_naming_format_error(files, tmp_path, capsys, target, kind, arg):
    paths = {"ckpt": files / "ckpt", "data": files / "data"}
    paths[target] = tmp_path / target
    paths[target].write_bytes(
        _mutated((files / target).read_bytes(), MAGIC[target], kind, arg))
    out = tmp_path / "metrics.json"
    assert cli.main(["eval", "--data", str(paths["data"]), "--ckpt", str(paths["ckpt"]),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: FormatError: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_eval_accepts_the_unmutated_files(files, tmp_path):
    out = tmp_path / "metrics.json"
    assert cli.main(["eval", "--data", str(files / "data"), "--ckpt", str(files / "ckpt"),
                     "--out", str(out)]) == 0

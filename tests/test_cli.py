import argparse
import ast
import builtins
import csv
import errno
import json
import os
import stat
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from softalign import cli, config, container, harness, synthgen, trainer
from softalign.cli import build_parser, main
from softalign.harness import RESULT_COLUMNS
from softalign.objectives import LossConfig

TINY = ["--n-samples", "120", "--n-concepts", "8", "--latent-dim", "12",
        "--d-image", "10", "--d-text", "9", "--d-roi", "11", "--d-tag", "7",
        "--rois-per-image", "3"]
FAST = ["--epochs", "2", "--batch-size", "30"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.salb"
    assert main(["gen-data", *TINY, "--seed", "3", "--out", str(data)]) == 0
    return root


@pytest.fixture(scope="module")
def model_ckpt(workdir):
    """A checkpoint trained on workdir's dataset, whichever test runs first."""
    ckpt = workdir / "model.ckpt"
    assert main(["train", "--data", str(workdir / "data.salb"), "--out", str(ckpt),
                 *FAST, "--seed", "1"]) == 0
    return ckpt


def test_gen_train_eval_chain(workdir, model_ckpt):
    data = workdir / "data.salb"
    assert model_ckpt.exists()
    out = workdir / "metrics.json"
    assert main(["eval", "--data", str(data), "--ckpt", str(model_ckpt),
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["r1_v2t"] <= 1.0
    assert "spearman" in payload and "dataset_hash" in payload


def test_train_is_reproducible(workdir):
    data = workdir / "data.salb"
    a, b = workdir / "a.ckpt", workdir / "b.ckpt"
    argv = ["train", "--data", str(data), *FAST, "--seed", "5"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_resume_matches_uninterrupted(workdir):
    data = workdir / "data.salb"
    full = workdir / "full.ckpt"
    part = workdir / "part.ckpt"
    done = workdir / "done.ckpt"
    base = ["train", "--data", str(data), *FAST, "--seed", "6"]
    assert main(base + ["--out", str(full)]) == 0
    assert main(base + ["--max-steps", "3", "--out", str(part)]) == 0
    # resuming continues under the full schedule only if the config matches;
    # here the interrupted run used the same epochs, so re-train from it
    assert main(["train", "--data", str(data), *FAST, "--seed", "6",
                 "--resume", str(part), "--out", str(done)]) == 0
    # the max-steps=3 run had a different schedule; equality is not expected
    assert done.exists()


def test_resume_with_different_beta_rejected(workdir, capsys):
    data = workdir / "data.salb"
    part = workdir / "part_b.ckpt"
    done = workdir / "done_b.ckpt"
    base = ["train", "--data", str(data), *FAST, "--seed", "6"]
    assert main(base + ["--max-steps", "3", "--out", str(part)]) == 0
    capsys.readouterr()
    assert main(base + ["--beta", "0.9", "--resume", str(part),
                        "--out", str(done)]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert not done.exists()


@pytest.fixture(scope="module")
def wider_roi_data(workdir):
    """A dataset whose ROI view is wider than workdir's, and a checkpoint
    trained on workdir's."""
    wide = workdir / "wide_roi.salb"
    ckpt = workdir / "narrow_roi.ckpt"
    assert main(["gen-data", *TINY, "--d-roi", "14", "--seed", "3",
                 "--out", str(wide)]) == 0
    assert main(["train", "--data", str(workdir / "data.salb"), *FAST,
                 "--seed", "6", "--max-steps", "3", "--out", str(ckpt)]) == 0
    return wide, ckpt


@pytest.mark.parametrize("command", ["train", "eval", "logit-profile"])
def test_checkpoint_on_other_view_widths_refused(wider_roi_data, tmp_path,
                                                 capsys, command):
    wide, ckpt = wider_roi_data
    out = tmp_path / "out"
    if command == "train":
        argv = ["train", "--data", str(wide), *FAST, "--seed", "6",
                "--resume", str(ckpt)]
    else:
        argv = [command, "--data", str(wide), "--ckpt", str(ckpt)]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert "roi view is 14 wide" in err and "roi head takes 11" in err
    assert not out.exists()


def test_grad_check_stdout_json(capsys):
    assert main(["grad-check", "--loss", "total", "--n", "4", "--d", "8",
                 "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["selector"] == "total"
    assert report["n"] == 4 and report["d"] == 8


def test_grad_check_label_smooth(capsys):
    assert main(["grad-check", "--loss", "label_smooth", "--n", "4", "--d", "8",
                 "--seed", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["selector"] == "label_smooth"


def test_grad_check_to_file(workdir):
    out = workdir / "report.json"
    assert main(["grad-check", "--loss", "clip", "--n", "2", "--d", "4",
                 "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_logit_profile_csv(workdir, model_ckpt):
    data = workdir / "data.salb"
    out = workdir / "profile.csv"
    assert main(["logit-profile", "--data", str(data), "--ckpt", str(model_ckpt),
                 "--direction", "t2v", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["position", "mean_probability"]
    assert len(rows) == 51


def test_ablate_emits_csv_and_json(workdir):
    data = workdir / "data.salb"
    out = workdir / "ablate.csv"
    assert main(["ablate", "--data", str(data), *FAST, "--seeds", "0",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(RESULT_COLUMNS)
        assert len(list(reader)) == 5
    mirror = json.loads((workdir / "ablate.json").read_text())
    assert len(mirror) == 5


@pytest.mark.parametrize("argv, error", [
    # the base config's relation-enhanced term is undefined at beta=0
    (["ablate", "--seeds", "0", "--beta", "0"], "DegenerateTargets"),
    (["sweep-beta", "--betas", "0.3,1.5"], "ValueError"),
    (["sweep-gamma", "--gammas", "0,-0.1"], "ValueError"),
    # every point skipped or none given: nothing to run
    (["sweep-beta", "--betas", "0"], "ConfigError"),
    (["sweep-gamma", "--gammas", ","], "ConfigError"),
])
def test_infeasible_suite_fails_before_training(workdir, monkeypatch, capsys,
                                                argv, error):
    def no_training(*args, **kwargs):
        raise AssertionError("trained a suite point")

    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(trainer, "train", no_training)
    monkeypatch.setattr(synthgen, "load", no_loading)
    out = workdir / "infeasible.csv"
    assert main([*argv, "--data", str(workdir / "data.salb"), *FAST,
                 "--out", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


@pytest.mark.parametrize("sections, argv", [
    ({"train": {"batch_size": 16.5}}, []),
    ({"train": {"batch_size": "16"}}, []),
    ({"loss": {"stop_gradient_targets": "false"}}, []),
    ({}, ["--seed", "-1"]),
    ({}, ["--peak-lr", "nan"]),
], ids=["float-int", "string-int", "string-bool", "negative-seed", "nan-flag"])
def test_bad_config_value_fails_before_loading(workdir, monkeypatch, capsys,
                                               tmp_path, sections, argv):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(synthgen, "load", no_loading)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(sections))
    out = tmp_path / "m.ckpt"
    assert main(["train", "--config", str(cfg), *argv,
                 "--data", str(workdir / "data.salb"), "--out", str(out)]) == 1
    assert "ValueError" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_beta(workdir):
    data = workdir / "data.salb"
    out = workdir / "beta.csv"
    assert main(["sweep-beta", "--data", str(data), *FAST, "--seed", "0",
                 "--betas", "0.3,1.0", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # two betas x with/without the relation term
    assert {r["variant"] for r in rows} == {"with_re", "without_re"}


def test_sweep_gamma(workdir):
    data = workdir / "data.salb"
    out = workdir / "gamma.csv"
    assert main(["sweep-gamma", "--data", str(data), *FAST, "--seed", "0",
                 "--gammas", "0,0.5,1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [0.0, 0.5, 1.0]
    assert all(np.isfinite(float(r["final_loss"])) for r in rows)


def _strict_json(text: str):
    """``json.loads`` that refuses NaN and the infinities, as RFC 8259 does."""
    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [["ablate", "--seeds", "0"],
                                  ["sweep-beta", "--betas", "0.5"],
                                  ["sweep-gamma", "--gammas", "0.5"]],
                         ids=["ablate", "sweep-beta", "sweep-gamma"])
def test_suite_that_trains_no_step_writes_strict_json(workdir, tmp_path, argv):
    # a point with no step has no final loss: null in JSON, an empty CSV cell
    out = tmp_path / "suite.csv"
    assert main([*argv, "--data", str(workdir / "data.salb"), "--max-steps", "0",
                 "--batch-size", "30", "--out", str(out)]) == 0
    mirror = _strict_json(out.with_suffix(".json").read_text())
    assert mirror and all(row["final_loss"] is None for row in mirror)
    with open(out) as fh:
        assert [row["final_loss"] for row in csv.DictReader(fh)] == [""] * len(mirror)


class TestValidationErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["gen-data", "--out", "x.salb", "--bogus", "1"]) == 1

    def test_degenerate_beta_zero(self, workdir, capsys):
        data = workdir / "data.salb"
        code = main(["train", "--data", str(data), "--out", "/tmp/nope.ckpt",
                     "--beta", "0.0", "--divergence", "symmetric_kl"])
        assert code == 1
        assert "DegenerateTargets" in capsys.readouterr().err

    def test_beta_zero_without_relation_forward_ok(self, workdir):
        data = workdir / "data.salb"
        out = workdir / "b0.ckpt"
        assert main(["train", "--data", str(data), *FAST, "--out", str(out),
                     "--beta", "0.0", "--divergence", "forward_kl",
                     "--lambda-re", "0.0"]) == 0

    def test_overwrite_requires_force(self, workdir, capsys):
        data = workdir / "data.salb"
        assert main(["gen-data", *TINY, "--seed", "3", "--out", str(data)]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["gen-data", *TINY, "--seed", "3", "--out", str(data),
                     "--force"]) == 0

    def test_invalid_spec_value(self, capsys, tmp_path):
        assert main(["gen-data", "--n-samples", "10",
                     "--faulty-positive-rate", "1.5",
                     "--out", str(tmp_path / "x.salb")]) == 1

    def test_unknown_config_section(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {}, "wrong": {}}))
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "x.salb")]) == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": {"betaa": 0.3}}))
        assert main(["grad-check", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("loss", [{"beta": 0.5}, "nonsense"])
    def test_loss_key_in_train_section(self, tmp_path, capsys, loss):
        # the loss section builds the LossConfig; a loss key beside it in
        # train would be overwritten without a word
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"loss": loss}}))
        assert main(["train", "--config", str(cfg),
                     "--data", str(tmp_path / "missing.salb"),
                     "--out", str(tmp_path / "y.ckpt")]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "'loss' section" in err
        assert not (tmp_path / "y.ckpt").exists()


def test_bad_log_level_rejected(monkeypatch, capsys):
    monkeypatch.setenv("SALB_LOG", "chatty")
    assert main(["grad-check", "--n", "2", "--d", "4"]) == 1
    assert "SALB_LOG" in capsys.readouterr().err


def test_log_levels_accepted(monkeypatch, capsys):
    for level in ("error", "info", "debug"):
        monkeypatch.setenv("SALB_LOG", level)
        assert main(["grad-check", "--loss", "clip", "--n", "2", "--d", "4"]) == 0
        capsys.readouterr()


class TestRuntimeErrors:
    def test_missing_data_file(self, capsys):
        assert main(["train", "--data", "/nonexistent/x.salb",
                     "--out", "/tmp/y.ckpt"]) == 2

    def test_corrupt_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.salb"
        bad.write_bytes(b"\x00" * 64)
        assert main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "y.ckpt")]) == 2
        assert "runtime error" in capsys.readouterr().err

    def test_invalid_dataset_spec(self, workdir, tmp_path, capsys):
        meta, arrays = container.read(workdir / "data.salb", synthgen.MAGIC)
        meta["spec"]["n_samples"] = str(meta["spec"]["n_samples"])
        bad = tmp_path / "bad_spec.salb"
        bad.write_bytes(container.pack(synthgen.MAGIC, meta, arrays))
        assert main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "y.ckpt")]) == 2
        assert "FormatError" in capsys.readouterr().err

    @staticmethod
    def _small_data(tmp_path, text_00=None):
        """A small dataset file, with ``text_00`` as its first text entry if given."""
        from dataclasses import replace

        from softalign.synthgen import SynthSpec, generate, save

        ds = generate(SynthSpec(n_samples=60, d_roi=5, rois_per_image=2, seed=2))
        text = ds.text_features.copy()
        if text_00 is not None:
            text[0, 0] = text_00
        data = tmp_path / "data.salb"
        save(replace(ds, text_features=text), data)
        return data

    def test_non_finite_training_writes_no_checkpoint(self, tmp_path, capsys):
        # a learning rate this large overflows the parameters on the first
        # update, so the second step's head outputs are not finite
        data = self._small_data(tmp_path)
        ckpt = tmp_path / "y.ckpt"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--data", str(data), "--out", str(ckpt),
                         "--peak-lr", "1e300", *FAST]) == 2
        assert "NonFiniteValue" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_dataset_is_refused_before_training(self, tmp_path, capsys,
                                                           value):
        data = self._small_data(tmp_path, value)
        ckpt = tmp_path / "y.ckpt"
        assert main(["train", "--data", str(data), "--out", str(ckpt), *FAST]) == 2
        err = capsys.readouterr().err
        assert err == ("runtime error: FormatError: dataset array "
                       "'text_features' is not finite\n"), err
        assert not ckpt.exists()


    def test_zero_head_output_on_resume(self, workdir, tmp_path, capsys):
        data = workdir / "data.salb"
        base = ["train", "--data", str(data), *FAST, "--seed", "8"]
        part, out = tmp_path / "part.ckpt", tmp_path / "out.ckpt"
        assert main(base + ["--max-steps", "3", "--out", str(part)]) == 0
        state = trainer.load_checkpoint(part)
        state.params["tag.w2"] = np.zeros_like(state.params["tag.w2"])
        state.params["tag.b2"] = np.zeros_like(state.params["tag.b2"])
        trainer.save_checkpoint(state, part)
        capsys.readouterr()
        assert main(base + ["--resume", str(part), "--out", str(out)]) == 2
        assert "ZeroRow: input a" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda meta, arrays: meta.update(step="x"),
        lambda meta, arrays: arrays.pop("param/image.w1"),
        lambda meta, arrays: meta.update(param_order=[]),
        lambda meta, arrays: meta["param_order"].remove("tau_log_inv"),
        lambda meta, arrays: arrays.update({"m/tag.w2": arrays["m/tag.w2"][:1]}),
        lambda meta, arrays: arrays.update(
            {"param/image.w1": arrays["param/image.w1"][:, :1]}),
        lambda meta, arrays: meta.update(step=-1),
        lambda meta, arrays: meta.update(step=2.7),
        # param_order and the arrays both leave a parameter out
        lambda meta, arrays: [meta["param_order"].remove("tau_log_inv")] + [
            arrays.pop(f"{slot}/tau_log_inv") for slot in ("param", "m", "v")],
        lambda meta, arrays: meta["param_order"].reverse(),
        lambda meta, arrays: meta["config"]["loss"].update(beta=0.0),
        lambda meta, arrays: arrays.pop("param/tag.w1"),
        # param/, m/ and v/ agree on a shape, but not with the config's table
        lambda meta, arrays: arrays.update({f"{slot}/tau_log_inv": np.zeros(3)
                                            for slot in ("param", "m", "v")}),
        lambda meta, arrays: arrays.update({f"{slot}/tag.b2": np.zeros(1)
                                            for slot in ("param", "m", "v")}),
        lambda meta, arrays: meta["config"].update(hidden_dim=32),
        lambda meta, arrays: meta.update(config=[["max_steps", 1], ["batch_size", 4]]),
    ], ids=["bad-step", "missing-array", "empty-order", "dropped-name", "m-shape",
            "param-shape", "negative-step", "float-step", "dropped-param",
            "reordered", "infeasible-config", "missing-w1", "tau-shape",
            "bias-shape", "hidden-dim", "config-pairs"])
    def test_invalid_checkpoint(self, workdir, model_ckpt, tmp_path, capsys, edit):
        meta, arrays = container.read(model_ckpt, trainer.CKPT_MAGIC)
        edit(meta, arrays)
        bad = tmp_path / "bad.ckpt"
        container.write(bad, trainer.CKPT_MAGIC, meta, arrays)
        out = tmp_path / "m.json"
        assert main(["eval", "--data", str(workdir / "data.salb"),
                     "--ckpt", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: FormatError: "), err
        assert err.count("\n") == 1, err
        assert not out.exists()


def test_train_metrics_csv(workdir, tmp_path):
    ckpt, metrics = tmp_path / "m.ckpt", tmp_path / "m.csv"
    assert main(["train", "--data", str(workdir / "data.salb"), *FAST,
                 "--seed", "4", "--out", str(ckpt), "--metrics", str(metrics)]) == 0
    with open(metrics) as fh:
        reader = csv.reader(fh)
        assert next(reader) == list(trainer.METRIC_COLUMNS)
        rows = list(reader)
    steps = trainer.load_checkpoint(ckpt).step
    assert steps == 8
    assert [int(r[0]) for r in rows] == list(range(steps))
    assert all(np.isfinite(float(x)) for r in rows for x in r)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '{"train": 3}', '{"loss": 3}'],
                         ids=["invalid-json", "not-an-object", "section-not-an-object",
                              "built-section-not-an-object"])
def test_malformed_config_file(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["grad-check", "--config", str(cfg)]) == 1
    assert "ConfigError" in capsys.readouterr().err


def test_non_numeric_sweep_value(workdir, tmp_path, capsys):
    out = tmp_path / "g.csv"
    assert main(["sweep-gamma", "--gammas", "0.5,x", "--data",
                 str(workdir / "data.salb"), *FAST, "--out", str(out)]) == 1
    assert "--gammas expects comma-separated floats" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"n_samples": 80, "n_concepts": 8, "latent_dim": 12,
                      "d_image": 10, "d_text": 9, "d_roi": 11, "d_tag": 7,
                      "rois_per_image": 3, "seed": 1},
        }))
        out = tmp_path / "d.salb"
        assert main(["gen-data", "--config", str(cfg), "--n-samples", "90",
                     "--out", str(out)]) == 0
        from softalign.synthgen import load

        ds = load(out)
        assert ds.spec.n_samples == 90  # flag beats config file
        assert ds.spec.n_concepts == 8

    def test_file_parsed_once(self, workdir, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_size": 30},
                                   "loss": {"beta": 0.4}}))
        parsed = []
        load_config_file = cli._load_config_file

        def counting(path):
            parsed.append(path)
            return load_config_file(path)

        monkeypatch.setattr(cli, "_load_config_file", counting)
        assert main(["train", "--config", str(cfg),
                     "--data", str(workdir / "data.salb"),
                     "--out", str(tmp_path / "m.ckpt")]) == 0
        assert parsed == [str(cfg)]
        assert trainer.load_checkpoint(tmp_path / "m.ckpt").config.loss.beta == 0.4

    def test_seed_flag_overrides_everywhere(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"seed": 1}}))
        out = tmp_path / "d.salb"
        assert main(["gen-data", "--config", str(cfg), *TINY, "--seed", "42",
                     "--out", str(out)]) == 0
        from softalign.synthgen import load

        assert load(out).spec.seed == 42


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0

    def test_train_help_lists_recipe_defaults(self, capsys):
        main(["train", "--help"])
        text = capsys.readouterr().out
        for token in ("0.07", "0.2", "0.3", "1.0", "0.5"):
            assert token in text


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "softalign.cli", "grad-check", "--loss",
         "clip", "--n", "2", "--d", "4", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


# The config flags of each subcommand, as (option strings, dest, type or
# action, choices). Derived from the config dataclasses; this list pins
# them so that no flag is added or dropped silently.
_COMMON_FLAGS = [
    (("--config",), "config", "_StoreAction", None),
    (("--seed",), "seed", "int", None),
    (("--force",), "force", "_StoreTrueAction", None),
]
_SYNTH_FLAGS = [
    (("--n-samples",), "n_samples", "int", None),
    (("--n-concepts",), "n_concepts", "int", None),
    (("--latent-dim",), "latent_dim", "int", None),
    (("--concepts-per-sample",), "concepts_per_sample", "int", None),
    (("--d-image",), "d_image", "int", None),
    (("--d-text",), "d_text", "int", None),
    (("--d-roi",), "d_roi", "int", None),
    (("--d-tag",), "d_tag", "int", None),
    (("--rois-per-image",), "rois_per_image", "int", None),
    (("--noise-sigma-image",), "noise_sigma_image", "float", None),
    (("--noise-sigma-text",), "noise_sigma_text", "float", None),
    (("--noise-sigma-roi",), "noise_sigma_roi", "float", None),
    (("--noise-sigma-tag",), "noise_sigma_tag", "float", None),
    (("--faulty-positive-rate",), "faulty_positive_rate", "float", None),
]
_VARIANTS = ("clip", "label_smooth", "soft", "soft_re", "total", "mixed_gamma")
_TRAIN_FLAGS = [
    (("--epochs",), "epochs", "int", None),
    (("--max-steps",), "max_steps", "int", None),
    (("--batch-size",), "batch_size", "int", None),
    (("--peak-lr",), "peak_lr", "float", None),
    (("--warmup-fraction",), "warmup_fraction", "float", None),
    (("--weight-decay",), "weight_decay", "float", None),
    (("--roi-aggregation",), "roi_aggregation", "_StoreAction",
     ("mean", "max", "min", "attention")),
    (("--hidden-dim",), "hidden_dim", "int", None),
    (("--embed-dim",), "embed_dim", "int", None),
    (("--attention-dim",), "attention_dim", "int", None),
    (("--grad-clip",), "grad_clip", "float", None),
    (("--loss-variant",), "loss_variant", "_StoreAction", _VARIANTS),
]
_LOSS_FLAGS = [
    (("--tau-init",), "tau_init", "float", None),
    (("--alpha",), "alpha", "float", None),
    (("--beta",), "beta", "float", None),
    (("--gamma",), "gamma", "float", None),
    (("--lambda-re",), "lambda_re", "float", None),
    (("--mu-clip",), "mu_clip", "float", None),
    (("--divergence",), "divergence", "_StoreAction",
     ("forward_kl", "symmetric_kl", "js")),
    (("--supervision-form",), "supervision_form", "_StoreAction",
     ("R2R_A2A", "A2A_R2R", "R2A_A2R", "A2R_R2A")),
    (("--stop-gradient-targets", "--no-stop-gradient-targets"),
     "stop_gradient_targets", "BooleanOptionalAction", None),
    (("--target-floor",), "target_floor", "float", None),
    (("--split-guidance-temperature", "--no-split-guidance-temperature"),
     "split_guidance_temperature", "BooleanOptionalAction", None),
]
_DATA_OUT = [
    (("--data",), "data", "_StoreAction", None),
    (("--out",), "out", "_StoreAction", None),
]
_SWEEP_JOBS = [(("--jobs",), "jobs", "int", None)]


def _without(flags, *dests):
    """``flags`` less the config fields a suite's points set."""
    return [f for f in flags if f[1] not in dests]


EXPECTED_FLAGS = {
    "gen-data": _COMMON_FLAGS + _SYNTH_FLAGS
    + [(("--out",), "out", "_StoreAction", None)],
    "train": _COMMON_FLAGS + _TRAIN_FLAGS + _LOSS_FLAGS + _DATA_OUT + [
        (("--resume",), "resume", "_StoreAction", None),
        (("--metrics",), "metrics", "_StoreAction", None),
    ],
    "ablate": _without(_COMMON_FLAGS, "seed") + _without(_TRAIN_FLAGS, "loss_variant")
    + _without(_LOSS_FLAGS, "mu_clip", "lambda_re", "divergence") + _DATA_OUT
    + [(("--seeds",), "seeds", "_StoreAction", None)],
    "sweep-beta": _COMMON_FLAGS + _without(_TRAIN_FLAGS, "loss_variant")
    + _without(_LOSS_FLAGS, "beta") + _DATA_OUT
    + [(("--betas",), "betas", "_StoreAction", None)] + _SWEEP_JOBS,
    "sweep-gamma": _COMMON_FLAGS + _without(_TRAIN_FLAGS, "loss_variant")
    + _without(_LOSS_FLAGS, "gamma") + _DATA_OUT
    + [(("--gammas",), "gammas", "_StoreAction", None)] + _SWEEP_JOBS,
    "grad-check": _COMMON_FLAGS + _LOSS_FLAGS + [
        (("--loss",), "loss", "_StoreAction", _VARIANTS),
        (("--n",), "n", "int", None),
        (("--d",), "d", "int", None),
        (("--tolerance",), "tolerance", "float", None),
        (("--epsilon",), "epsilon", "float", None),
        (("--out",), "out", "_StoreAction", None),
    ],
    # no config is built, so no --config or --seed
    "eval": [
        (("--force",), "force", "_StoreTrueAction", None),
        (("--data",), "data", "_StoreAction", None),
        (("--ckpt",), "ckpt", "_StoreAction", None),
        (("--out",), "out", "_StoreAction", None),
    ],
    "logit-profile": [
        (("--force",), "force", "_StoreTrueAction", None),
        (("--data",), "data", "_StoreAction", None),
        (("--ckpt",), "ckpt", "_StoreAction", None),
        (("--direction",), "direction", "_StoreAction", ("v2t", "t2v")),
        (("--out",), "out", "_StoreAction", None),
    ],
}


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_flag_set(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    table = [
        (tuple(a.option_strings), a.dest,
         a.type.__name__ if a.type else type(a).__name__,
         tuple(a.choices) if a.choices is not None else None)
        for a in subparsers.choices[command]._actions if a.dest != "help"
    ]
    assert table == EXPECTED_FLAGS[command]


@pytest.mark.parametrize("argv, flag", [
    (["sweep-gamma", "--gammas", "0.5"], ["--gamma", "0.1"]),
    (["sweep-gamma", "--gammas", "0.5"], ["--loss-variant", "clip"]),
    (["sweep-beta", "--betas", "0.3"], ["--beta", "0"]),
    (["sweep-beta", "--betas", "0.3"], ["--loss-variant", "clip"]),
    (["ablate"], ["--loss-variant", "clip"]),
    (["ablate"], ["--mu-clip", "0.9"]),
    (["ablate"], ["--lambda-re", "0"]),
    (["ablate"], ["--divergence", "js"]),
    (["ablate"], ["--seed", "3"]),
], ids=lambda x: x[0].lstrip("-"))
def test_suite_refuses_flags_its_points_set(workdir, tmp_path, monkeypatch,
                                            capsys, argv, flag):
    # every point overwrites the field, so a flag for it would be ignored
    _no_loading(monkeypatch)
    out = tmp_path / "suite.csv"
    assert main([*argv, *flag, "--data", str(workdir / "data.salb"), *FAST,
                 "--out", str(out)]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


# each suite's own flags, giving every point a valid value
_SUITE_ARGS = {"ablate": [], "sweep-beta": ["--betas", "0.5"],
               "sweep-gamma": ["--gammas", "0.5"]}
_SUITES = [name for name, command in cli._COMMANDS.items() if command.points]
# (config class, field) of every field a suite's base config holds
_BASE_FIELDS = [(cls, f) for cls in (trainer.TrainConfig, LossConfig)
                for f in fields(cls) if f.name != "loss"]


def _moved(cls, f):
    """A valid value of the field ``f`` of ``cls`` other than its default,
    from the choices or bounds its ``config.flag`` declares."""
    if isinstance(f.default, bool):
        return not f.default
    if "choices" in f.metadata:
        return next(c for c in f.metadata["choices"] if c != f.default)
    if f.default is None:  # Optional[int] or Optional[float]
        return config.field_types(cls)[f.name][0](1)
    top = f.metadata.get("le", f.metadata.get("lt"))
    if top is None:  # lambda_re, which has no upper bound: 1 -> 2
        return f.default + 1
    return (f.default + top) / 2 if f.default < top else f.default / 2


def _moved_base(cls, f) -> trainer.TrainConfig:
    """The default TrainConfig with ``f`` of ``cls`` moved by :func:`_moved`."""
    if cls is LossConfig:
        return trainer.TrainConfig(loss=LossConfig(**{f.name: _moved(cls, f)}))
    return trainer.TrainConfig(**{f.name: _moved(cls, f)})


@pytest.mark.parametrize("suite", _SUITES)
def test_point_fields_are_the_fields_every_point_sets(suite):
    # a field is declared exactly when moving it in the base leaves every
    # point as it was; builds configs only, trains nothing
    command = cli._COMMANDS[suite]
    args = build_parser().parse_args(
        [suite, *_SUITE_ARGS[suite], "--data", "d.salb", "--out", "o.csv"])
    default = command.points(args, trainer.TrainConfig())
    unread = {f.name for cls, f in _BASE_FIELDS
              if command.points(args, _moved_base(cls, f)) == default}
    assert unread == set(command.point_fields)


@pytest.mark.parametrize("suite, field", [
    (suite, field) for suite in _SUITES for field in cli._COMMANDS[suite].point_fields])
def test_suite_refuses_config_keys_its_points_set(workdir, tmp_path, monkeypatch,
                                                  capsys, suite, field):
    # every point overwrites the field, so a base config must not hold it
    _no_loading(monkeypatch)
    cls, f = next((cls, f) for cls, f in _BASE_FIELDS if f.name == field)
    section = cli._SECTIONS[cls][0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {field: _moved(cls, f)}}))
    out = tmp_path / "suite.csv"
    assert main([suite, *_SUITE_ARGS[suite], "--config", str(cfg), "--data",
                 str(workdir / "data.salb"), *FAST, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert f"config section {section!r} cannot hold {field!r}" in err
    assert list(tmp_path.iterdir()) == [cfg]


# (command, section) for every section a config-building command does not
# build: neither its config's nor that of a config nested in it
_UNBUILT = [(name, section) for name, command in cli._COMMANDS.items()
            if command.config is not None
            for cls, (section, _) in cli._SECTIONS.items()
            if cls is not command.config
            and cls not in {kind for kind, _ in config.field_types(command.config).values()}]
# a valid value in each section, so that only the section itself is wrong
_SECTION_VALUES = {"synth": {"n_samples": 90}, "train": {"epochs": 1},
                   "loss": {"alpha": 0.2}}
# each config-building command's own arguments but --data and --out
_COMMAND_ARGS = {"gen-data": [], "train": [], "grad-check": [], **_SUITE_ARGS}


@pytest.mark.parametrize("command, section", _UNBUILT,
                         ids=[f"{c}-{s}" for c, s in _UNBUILT])
def test_config_section_a_command_does_not_build_is_refused(
        workdir, tmp_path, monkeypatch, capsys, command, section):
    # a section no built config reads would be dropped without a word
    _no_loading(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: _SECTION_VALUES[section]}))
    data = [] if command in ("gen-data", "grad-check") else [
        "--data", str(workdir / "data.salb")]
    assert main([command, "--config", str(cfg), *_COMMAND_ARGS[command], *data,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and repr(section) in err and command in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("command, sections", [
    ("gen-data", "synth"), ("train", "train/loss"), ("ablate", "train/loss"),
    ("sweep-beta", "train/loss"), ("sweep-gamma", "train/loss"),
    ("grad-check", "loss")])
def test_config_help_names_the_sections_read(command, sections):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in subparsers.choices[command]._actions
                  if a.dest == "config")
    assert action.help == f"JSON config file (sections {sections})"


@pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
def test_subcommand_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert f"usage: softalign {command}" in capsys.readouterr().out


@pytest.mark.parametrize("command, extra", [
    ("eval", ["--ckpt", "m.ckpt"]),
    ("logit-profile", ["--ckpt", "m.ckpt"]),
])
@pytest.mark.parametrize("flag", [["--config", "/nonexistent.json"], ["--seed", "5"]])
def test_config_flags_refused_where_no_config_is_built(command, extra, flag,
                                                       tmp_path, capsys):
    out = tmp_path / "out"
    assert main([command, *flag, "--data", "d.salb", *extra,
                 "--out", str(out)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def _no_loading(monkeypatch):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the dataset")

    monkeypatch.setattr(synthgen, "load", no_loading)


def test_existing_suite_mirror_refused_without_force(workdir, tmp_path,
                                                     monkeypatch, capsys):
    _no_loading(monkeypatch)
    out, mirror = tmp_path / "ablate.csv", tmp_path / "ablate.json"
    mirror.write_text("keep")
    assert main(["ablate", "--data", str(workdir / "data.salb"), *FAST,
                 "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert mirror.read_text() == "keep" and not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep-gamma", "--gammas", "0.5", "--jobs", "0", "--out", "g.csv"],
     "--jobs must be >= 1"),
    (["sweep-beta", "--betas", "0.5", "--jobs", "-1", "--out", "b.csv"],
     "--jobs must be >= 1"),
    (["sweep-gamma", "--gammas", "0.5", "--out", "g.json"], "its own JSON mirror"),
    (["ablate", "--seeds", "0", "--out", "a.json"], "its own JSON mirror"),
])
def test_suite_output_rules_fail_before_loading(workdir, tmp_path, monkeypatch,
                                                capsys, argv, message):
    _no_loading(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--data", str(workdir / "data.salb"), *FAST]) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, metrics", [
    ("model.ckpt", "model.ckpt"), ("model.ckpt", "./sub/../model.ckpt")])
@pytest.mark.parametrize("force", [[], ["--force"]])
def test_two_outputs_naming_one_file_refused_before_loading(
        workdir, tmp_path, monkeypatch, capsys, out, metrics, force):
    _no_loading(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["train", "--data", str(workdir / "data.salb"), *FAST, *force,
                 "--out", out, "--metrics", metrics]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "is also --metrics" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_suite_mirror_clash_refused_with_force(workdir, tmp_path, monkeypatch,
                                               capsys):
    _no_loading(monkeypatch)
    out = tmp_path / "g.json"
    out.write_text("keep")
    assert main(["sweep-gamma", "--gammas", "0.5", "--data",
                 str(workdir / "data.salb"), *FAST, "--force",
                 "--out", str(out)]) == 1
    assert "its own JSON mirror" in capsys.readouterr().err
    assert out.read_text() == "keep"


def test_ablate_seeds_match_ablation_suite_and_hash_once(workdir, tmp_path,
                                                        sha256_runs):
    out = tmp_path / "ablate.csv"
    assert main(["ablate", "--data", str(workdir / "data.salb"), *FAST,
                 "--seeds", "0,1", "--out", str(out)]) == 0
    assert len(sha256_runs) == 1
    dataset = synthgen.load(workdir / "data.salb")
    expected = [row.to_dict() for seed in (0, 1) for row in harness.ablation_suite(
        dataset, trainer.TrainConfig(epochs=2, batch_size=30, seed=seed))[0]]
    assert json.loads(out.with_suffix(".json").read_text()) == expected
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["variant"], int(r["seed"])) for r in rows] == [
        (row["variant"], row["seed"]) for row in expected]


def test_ablate_empty_seed_list_writes_nothing(workdir, tmp_path, monkeypatch):
    _no_loading(monkeypatch)
    out = tmp_path / "ablate.csv"
    assert main(["ablate", "--data", str(workdir / "data.salb"), *FAST,
                 "--seeds", ",", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_existing_grad_check_report_refused_before_checking(tmp_path,
                                                            monkeypatch, capsys):
    def no_checking(*args, **kwargs):
        raise AssertionError("ran the gradient check")

    monkeypatch.setattr(cli.gradcheck, "check_gradients", no_checking)
    out = tmp_path / "report.json"
    out.write_text("keep")
    assert main(["grad-check", "--n", "2", "--d", "4", "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text() == "keep"


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_grad_check_bad_tolerance(tolerance, capsys):
    assert main(["grad-check", "--loss", "clip", "--n", "2", "--d", "4",
                 "--tolerance", tolerance]) == 1
    assert "tolerance" in capsys.readouterr().err


# every output file of every command, as (argv, file name); "{out}" is the
# directory it is written to
_OUTPUTS = {
    "dataset": (["gen-data", *TINY, "--out", "{out}/d.salb"], "d.salb"),
    "checkpoint": (["train", "--data", "{data}", *FAST, "--out", "{out}/m.ckpt"],
                   "m.ckpt"),
    "metrics-csv": (["train", "--data", "{data}", *FAST, "--out", "{out}/m.ckpt",
                     "--metrics", "{out}/m.csv"], "m.csv"),
    "eval-json": (["eval", "--data", "{data}", "--ckpt", "{ckpt}",
                   "--out", "{out}/e.json"], "e.json"),
    "results-csv": (["sweep-gamma", "--data", "{data}", *FAST, "--gammas", "0.5",
                     "--out", "{out}/r.csv"], "r.csv"),
    "results-json": (["sweep-gamma", "--data", "{data}", *FAST, "--gammas", "0.5",
                      "--out", "{out}/r.csv"], "r.json"),
    "grad-check-json": (["grad-check", "--loss", "clip", "--n", "2", "--d", "4",
                         "--out", "{out}/g.json"], "g.json"),
    "profile-csv": (["logit-profile", "--data", "{data}", "--ckpt", "{ckpt}",
                     "--out", "{out}/p.csv"], "p.csv"),
}


def _output_argv(output, workdir, ckpt, out_dir) -> list[str]:
    argv, _ = _OUTPUTS[output]
    return [arg.format(data=workdir / "data.salb", ckpt=ckpt, out=out_dir)
            for arg in argv]


class _FullDisk:
    """A handle on a disk that fills up: a write stores half of what it is
    handed, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2 or 1])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("output", sorted(_OUTPUTS))
def test_a_failed_write_leaves_the_old_file(output, workdir, model_ckpt, tmp_path,
                                            monkeypatch):
    target = tmp_path / _OUTPUTS[output][1]
    target.write_bytes(b"old contents\n")
    real_open = builtins.open

    def open_on_a_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writes = set(mode) & set("wax+")
        # the target itself, or a temporary file beside it
        if writes and isinstance(file, (str, os.PathLike)) and os.path.realpath(
                file).startswith(os.path.realpath(target)):
            return _FullDisk(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_on_a_full_disk)
    argv = _output_argv(output, workdir, model_ckpt, tmp_path)
    assert main([*argv, "--force"]) == 2
    assert target.read_bytes() == b"old contents\n"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("output", ["dataset", "grad-check-json"])
def test_an_overwrite_keeps_the_permission_bits(output, workdir, model_ckpt, tmp_path):
    argv = _output_argv(output, workdir, model_ckpt, tmp_path)
    target = tmp_path / _OUTPUTS[output][1]
    (tmp_path / "probe").touch()
    assert main(argv) == 0
    # a new file gets the mode any new file gets
    assert target.stat().st_mode == (tmp_path / "probe").stat().st_mode
    new = target.read_bytes()
    target.write_bytes(b"old")
    target.chmod(0o600)
    assert main([*argv, "--force"]) == 0
    assert target.read_bytes() == new
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_only_the_one_writer_opens_a_file_to_write():
    """Every ``open`` in the package that can write sits in
    ``container.replacing``: one rule for how an output lands on disk."""
    writers = []

    def visit(node, file, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, file, child.name)
                continue
            if isinstance(child, ast.Call) and _can_write(child):
                writers.append((file, scope))
            visit(child, file, scope)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    assert writers == [("container.py", "replacing")]


def _can_write(call: ast.Call) -> bool:
    """Whether ``call`` opens a file with a mode that may write: a call of
    ``open`` or ``io.open`` without a literal read-only mode, or any other
    call named ``open``, ``fdopen``, ``write_text`` or ``write_bytes``."""
    func = call.func
    builtin = (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute) and func.attr == "open"
        and isinstance(func.value, ast.Name) and func.value.id == "io")
    if not builtin:
        return isinstance(func, ast.Attribute) and func.attr in {
            "open", "fdopen", "write_text", "write_bytes"}
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))

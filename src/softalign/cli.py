"""Command-line entry point: data generation, training, evaluation, sweeps.

Run configuration comes from an optional JSON file (sections "synth",
"train", "loss"; unknown keys are rejected) with individual flags layered
on top; --seed overrides the seed everywhere. The config flags mirror the
fields of SynthSpec, TrainConfig and LossConfig: each field with help
metadata is a flag named after it (``batch_size`` -> ``--batch-size``),
and the file sections take the same field names. Exit codes: 0 success,
1 validation/usage error, 2 runtime error. The SALB_LOG environment
variable (error | info | debug) sets log verbosity on stderr. Data goes
to files; stdout is used only for the grad-check report when --out is
omitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import config, gradcheck, harness, synthgen, trainer
from .errors import ConfigError, DegenerateTargets, SoftalignError, SpecInvalid
from .objectives import LossConfig
from .synthgen import SynthSpec
from .trainer import TrainConfig

log = logging.getLogger("softalign")

_VALIDATION_ERRORS = (ConfigError, SpecInvalid, DegenerateTargets, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(message)


def _configure_logging() -> None:
    level_name = os.environ.get("SALB_LOG", "info").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(
            f"SALB_LOG must be one of {sorted(levels)}, got {level_name!r}"
        )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(levels[level_name])


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------

def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - {"synth", "train", "loss"}
    if unknown:
        raise ConfigError(
            f"unknown config sections {sorted(unknown)}; expected synth/train/loss"
        )
    for key in data:
        if not isinstance(data[key], dict):
            raise ConfigError(f"config section {key!r} must be an object")
    return data


def _config_file(args) -> dict:
    """The ``--config`` file's sections, or {} without one."""
    return _load_config_file(args.config) if args.config else {}


def _build(args, cls, section: dict, **fixed):
    """A config from its file section, overridden by flags, then ``fixed``.

    ``cls.from_dict`` rejects unknown keys.
    """
    merged = dict(section)
    for f in fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    merged.update(fixed)
    return cls.from_dict(merged)


def _train_config(args) -> TrainConfig:
    sections = _config_file(args)
    return _build(args, TrainConfig, sections.get("train", {}),
                  loss=_build(args, LossConfig, sections.get("loss", {})))


def _ensure_writable(path, force: bool) -> None:
    if path is None:
        return
    if Path(path).exists() and not force:
        raise ConfigError(f"refusing to overwrite {path} (use --force)")


# ---------------------------------------------------------------------------
# flag groups
# ---------------------------------------------------------------------------

def _add_common(p) -> None:
    p.add_argument("--config", help="JSON config file (sections synth/train/loss)")
    p.add_argument("--seed", type=int, help="seed override, applied everywhere")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")


def _add_config_flags(p, cls, title: str) -> None:
    """One flag per field of ``cls`` that has help metadata.

    ``--`` plus the field name with ``-`` for ``_``; the type is the
    field's (:func:`config.field_types`), and a bool field takes
    ``--name/--no-name``. Every default is None, so a flag left out
    leaves the config file's value (or the field default) in place.
    """
    g = p.add_argument_group(title)
    types = config.field_types(cls)
    for f in fields(cls):
        if "help" not in f.metadata:
            continue
        kind, _ = types[f.name]
        name = "--" + f.name.replace("_", "-")
        rule = config.bounds(f)
        text = f"{f.metadata['help']} (default: {f.default}" + (
            f"; {rule})" if rule else ")")
        if kind is bool:
            g.add_argument(name, action=argparse.BooleanOptionalAction,
                           dest=f.name, default=None, help=text)
        else:
            g.add_argument(name, type=None if kind is str else kind,
                           choices=f.metadata.get("choices"), dest=f.name,
                           help=text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    spec = _build(args, SynthSpec, _config_file(args).get("synth", {}))
    _ensure_writable(args.out, args.force)
    log.info("generating dataset: n=%d, K=%d, seed=%d",
             spec.n_samples, spec.n_concepts, spec.seed)
    dataset = synthgen.generate(spec)
    synthgen.save(dataset, args.out)
    log.info("wrote %s", args.out)
    return 0


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    _ensure_writable(args.out, args.force)
    if args.metrics:
        _ensure_writable(args.metrics, args.force)
    dataset = synthgen.load(args.data)
    state = trainer.load_checkpoint(args.resume) if args.resume else None
    log.info("training %s for %d steps", cfg.loss_variant,
             trainer.total_steps_for(dataset, cfg))
    state, metrics = trainer.train(dataset, cfg, state=state)
    trainer.save_checkpoint(state, args.out)
    log.info("wrote %s (step %d)", args.out, state.step)
    if args.metrics:
        with open(args.metrics, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=trainer.METRIC_COLUMNS)
            writer.writeheader()
            writer.writerows(metrics)
        log.info("wrote %s", args.metrics)
    return 0


def _cmd_eval(args) -> int:
    _ensure_writable(args.out, args.force)
    dataset = synthgen.load(args.data)
    state = trainer.load_checkpoint(args.ckpt)
    result = harness.retrieval_eval(state, dataset)
    payload = result.to_dict()
    payload["dataset_hash"] = synthgen.dataset_hash(dataset)
    payload["n_eval"] = dataset.n
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    log.info("wrote %s", args.out)
    return 0


def _emit_rows(rows, out_path) -> None:
    harness.write_results_csv(rows, out_path)
    json_path = Path(out_path).with_suffix(".json")
    harness.write_results_json(rows, json_path)
    log.info("wrote %s and %s", out_path, json_path)


def _cmd_ablate(args) -> int:
    cfg = _train_config(args)
    _ensure_writable(args.out, args.force)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
    bases = [replace(cfg, seed=seed) for seed in seeds]
    for base in bases:  # every variant is validated before the data loads
        harness.ablation_variants(base)
    dataset = synthgen.load(args.data)
    rows = []
    for base in bases:
        suite_rows, _ = harness.ablation_suite(dataset, base)
        rows.extend(suite_rows)
    _emit_rows(rows, args.out)
    return 0


def _parse_values(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated floats: {exc}") from exc


def _cmd_sweep_beta(args) -> int:
    cfg = _train_config(args)
    _ensure_writable(args.out, args.force)
    points = harness.beta_points(cfg, _parse_values(args.betas, "--betas"))
    rows = harness.sweep(synthgen.load(args.data), points, jobs=args.jobs)
    _emit_rows(rows, args.out)
    return 0


def _cmd_sweep_gamma(args) -> int:
    cfg = _train_config(args)
    _ensure_writable(args.out, args.force)
    points = harness.gamma_points(cfg, _parse_values(args.gammas, "--gammas"))
    rows = harness.sweep(synthgen.load(args.data), points, jobs=args.jobs)
    _emit_rows(rows, args.out)
    return 0


def _cmd_grad_check(args) -> int:
    loss = _build(args, LossConfig, _config_file(args).get("loss", {}))
    report = gradcheck.check_gradients(
        args.loss, seed=args.seed if args.seed is not None else 0,
        n=args.n, d=args.d, cfg=loss,
        tolerance=args.tolerance, epsilon=args.epsilon,
    )
    text = report.to_json()
    if args.out:
        _ensure_writable(args.out, args.force)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", args.out)
    else:
        print(text)
    return 0


def _cmd_logit_profile(args) -> int:
    _ensure_writable(args.out, args.force)
    dataset = synthgen.load(args.data)
    state = trainer.load_checkpoint(args.ckpt)
    profile = harness.logit_profile(state, dataset, direction=args.direction)
    harness.write_profile_csv(profile, args.out)
    log.info("wrote %s (top1=%.4f, top11-50=%.4f)", args.out,
             profile.top1, profile.top11_50)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="softalign",
        description="Desk-scale laboratory for soft cross-modal alignment objectives.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p)
    _add_config_flags(p, SynthSpec, "synthetic data")
    p.add_argument("--out", required=True, help="output dataset path (.salb)")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train encoders on a dataset")
    _add_common(p)
    _add_config_flags(p, TrainConfig, "training")
    _add_config_flags(p, LossConfig, "objective")
    p.add_argument("--data", required=True, help="input dataset path")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--resume", help="resume from an existing checkpoint")
    p.add_argument("--metrics", help="optional per-step metrics CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="retrieval metrics for a checkpoint")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="train and score the objective variants")
    _add_common(p)
    _add_config_flags(p, TrainConfig, "training")
    _add_config_flags(p, LossConfig, "objective")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV (JSON written alongside)")
    p.add_argument("--seeds", help="comma-separated seeds (default: the config seed)")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep-beta", help="sweep the target-mixing coefficient")
    _add_common(p)
    _add_config_flags(p, TrainConfig, "training")
    _add_config_flags(p, LossConfig, "objective")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--betas", required=True, help="comma-separated values in [0, 1]")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel training workers (default: 1)")
    p.set_defaults(func=_cmd_sweep_beta)

    p = sub.add_parser("sweep-gamma", help="sweep the guidance-mixing weight")
    _add_common(p)
    _add_config_flags(p, TrainConfig, "training")
    _add_config_flags(p, LossConfig, "objective")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gammas", required=True, help="comma-separated values in [0, 1]")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel training workers (default: 1)")
    p.set_defaults(func=_cmd_sweep_gamma)

    p = sub.add_parser("grad-check",
                       help="verify analytic gradients against central differences")
    _add_common(p)
    _add_config_flags(p, LossConfig, "objective")
    p.add_argument("--loss", default="total", choices=gradcheck.SELECTORS,
                   help="loss selector (default: total)")
    p.add_argument("--n", type=int, default=4, help="batch size (default: 4)")
    p.add_argument("--d", type=int, default=8, help="embedding dim (default: 8)")
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="max relative error (default: 1e-5)")
    p.add_argument("--epsilon", type=float, default=1e-5,
                   help="central difference step (default: 1e-5)")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=_cmd_grad_check)

    p = sub.add_parser("logit-profile",
                       help="mean sorted retrieval probabilities (top 50)")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--direction", choices=("v2t", "t2v"), default="t2v",
                   help="retrieval direction (default: t2v)")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_logit_profile)

    return parser


def main(argv=None) -> int:
    try:
        _configure_logging()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (SoftalignError, OSError) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        log.debug("unexpected failure", exc_info=True)
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

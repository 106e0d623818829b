"""Command-line entry point: data generation, training, evaluation, sweeps.

Each subcommand is declared once in ``_COMMANDS``: its handler, the config
class it builds, its flags and its output paths. The commands that build a
config read an optional JSON file (--config) with flags layered on top: one
section per config built ("synth"; "train" and "loss"; or "loss" alone),
and any other section, unknown key or "loss" key in "train" is rejected;
--seed overrides the seed everywhere. Each config field with help metadata
is a flag named after it (``batch_size`` -> ``--batch-size``). A suite
takes neither a flag nor a file key for the fields its points set
(``_Command.point_fields``; ablate's seed is one).
Before any work the config is validated and every output path, a suite's
JSON mirror included, is checked: no two name the same file, and none is
overwritten without --force. Each output is replaced whole or not at all,
keeping its permission bits (``container.replacing``). Exit codes: 0
success, 1 validation/usage error, 2 runtime error. SALB_LOG (error |
info | debug) sets the stderr log level. Only grad-check without --out
writes to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

from . import config, gradcheck, harness, synthgen, trainer
from .errors import ConfigError, DegenerateTargets, SoftalignError, SpecInvalid
from .objectives import LOSS_VARIANTS, LossConfig
from .synthgen import SynthSpec
from .trainer import TrainConfig

log = logging.getLogger("softalign")

_VALIDATION_ERRORS = (ConfigError, SpecInvalid, DegenerateTargets, ValueError)

# config class -> (config file section, title of its flag group)
_SECTIONS = {
    SynthSpec: ("synth", "synthetic data"),
    TrainConfig: ("train", "training"),
    LossConfig: ("loss", "objective"),
}


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
    return data


def _nested(cls) -> dict[str, type]:
    """The fields of ``cls`` that hold a config of their own (TrainConfig.loss)."""
    return {name: kind for name, (kind, _) in config.field_types(cls).items()
            if kind in _SECTIONS}


def _make_config(args, command):
    """``command.config`` from the ``--config`` file (read once). Building a
    config takes out its section, which must be an object holding no nested
    config's key (built first, from its own section) and no key of
    ``command.point_fields``; the flags override it. A section that no
    built config takes raises ConfigError; ``from_dict`` rejects unknown keys."""
    sections = _load_config_file(args.config) if args.config else {}

    def build(cls):
        inner = {name: build(sub) for name, sub in _nested(cls).items()}
        key = _SECTIONS[cls][0]
        merged = sections.pop(key, {})
        if not isinstance(merged, dict):
            raise ConfigError(f"config section {key!r} must be an object")
        for f in fields(cls):
            if f.name in inner and f.name in merged:
                raise ConfigError(
                    f"config section {key!r} cannot hold {f.name!r}; put its fields "
                    f"in the {_SECTIONS[type(inner[f.name])][0]!r} section")
            if f.name in command.point_fields and f.name in merged:
                raise ConfigError(f"config section {key!r} cannot hold {f.name!r}: "
                                  f"every {args.command} point sets it")
            value = getattr(args, f.name, None)
            if value is not None:
                merged[f.name] = value
        return cls.from_dict({**merged, **inner})

    cfg = build(command.config)
    if sections:
        raise ConfigError(f"{args.command} reads no config sections {sorted(sections)}")
    return cfg


def _add_config_flags(p, cls, title: str, skip: tuple) -> None:
    """One flag per field of ``cls`` that has help metadata and is not
    named in ``skip``.

    ``--`` plus the field name with ``-`` for ``_``; the type is the
    field's (:func:`config.field_types`), and a bool field takes
    ``--name/--no-name``. Every default is None, so a flag left out
    leaves the config file's value (or the field default) in place.
    """
    g = p.add_argument_group(title)
    types = config.field_types(cls)
    for f in fields(cls):
        if "help" not in f.metadata or f.name in skip:
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


def _parse_values(text: str, flag: str, kind=float) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(
            f"{flag} expects comma-separated {kind.__name__}s: {exc}") from exc


def _mirror(out) -> Path:
    """The JSON copy of a suite's results written beside its CSV ``out``."""
    return Path(out).with_suffix(".json")


def _outputs(args, command) -> list[Path]:
    """Every output path the command will write.

    Raises ConfigError when two of them resolve to the same file.
    """
    named = {"--" + dest.replace("_", "-"): Path(getattr(args, dest))
             for dest in command.outputs if getattr(args, dest) is not None}
    if command.points is not None:
        named["its own JSON mirror"] = _mirror(args.out)
    seen = {}
    for name, path in named.items():
        first = seen.setdefault(path.resolve(), name)
        if first != name:
            raise ConfigError(f"{first} {named[first]} is also {name}; "
                              "give each output a file of its own")
    return list(named.values())


# ---------------------------------------------------------------------------
# subcommands: handler(args, config or None) writes the declared outputs
# ---------------------------------------------------------------------------

def _cmd_gen_data(args, spec: SynthSpec) -> None:
    log.info("generating dataset: n=%d, K=%d, seed=%d",
             spec.n_samples, spec.n_concepts, spec.seed)
    dataset = synthgen.generate(spec)
    synthgen.save(dataset, args.out)


def _cmd_train(args, cfg: TrainConfig) -> None:
    dataset = synthgen.load(args.data)
    state = trainer.load_checkpoint(args.resume) if args.resume else None
    log.info("training %s for %d steps", cfg.loss_variant,
             trainer.total_steps_for(dataset, cfg))
    state, metrics = trainer.train(dataset, cfg, state=state)
    trainer.save_checkpoint(state, args.out)
    if args.metrics:
        harness.write_csv(args.metrics, trainer.METRIC_COLUMNS, metrics)


def _cmd_eval(args, _) -> None:
    dataset = synthgen.load(args.data)
    state = trainer.load_checkpoint(args.ckpt)
    result = harness.retrieval_eval(state, dataset)
    payload = result.to_dict()
    payload["dataset_hash"] = synthgen.dataset_hash(dataset)
    payload["n_eval"] = dataset.n
    harness.write_json(payload, args.out)


def _cmd_suite(args, cfg: TrainConfig) -> None:
    """ablate, sweep-beta and sweep-gamma: every point is built before loading."""
    jobs = getattr(args, "jobs", 1)  # ablate trains its points in turn
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    points = _COMMANDS[args.command].points(args, cfg)
    rows = harness.sweep(synthgen.load(args.data), points, jobs=jobs)
    harness.write_results_csv(rows, args.out)
    harness.write_json([row.to_dict() for row in rows], _mirror(args.out))


def _cmd_grad_check(args, loss: LossConfig) -> None:
    report = gradcheck.check_gradients(
        args.loss, seed=args.seed if args.seed is not None else 0,
        n=args.n, d=args.d, cfg=loss,
        tolerance=args.tolerance, epsilon=args.epsilon,
    )
    if args.out:
        harness.write_json(report.to_dict(), args.out)
    else:
        print(report.to_json())


def _cmd_logit_profile(args, _) -> None:
    dataset = synthgen.load(args.data)
    state = trainer.load_checkpoint(args.ckpt)
    profile = harness.logit_profile(state, dataset, direction=args.direction)
    harness.write_csv(args.out, ("position", "mean_probability"), (
        {"position": pos, "mean_probability": repr(float(value))}
        for pos, value in enumerate(profile.positions, start=1)))
    log.info("logit profile: top1=%.4f, top11-50=%.4f", profile.top1, profile.top11_50)


@dataclass(frozen=True)
class _Command:
    """A subcommand: all that ``build_parser`` and ``main`` know of it.

    Only a command with a ``config`` class takes --config, --seed and the
    config's flags. A suite's ``points(args, cfg)`` builds its sweep points;
    ``point_fields`` names the config fields every point sets, and no
    input reaches them: no flag (--seed included) and no config-file key.
    """

    help: str
    handler: Callable[..., None]
    config: Optional[type] = None
    flags: tuple = ()          # (option strings, add_argument keywords), in order
    outputs: tuple = ("out",)  # dests of the output path flags
    points: Optional[Callable] = None
    point_fields: tuple = ()


def _flag(*names, **kwargs):
    return names, kwargs


_DATA = _flag("--data", required=True, help="input dataset path")
_CKPT = _flag("--ckpt", required=True, help="input checkpoint path")
_SUITE_OUT = _flag("--out", required=True, help="output CSV (JSON written alongside)")
_JOBS = _flag("--jobs", type=int, default=1, help="parallel training workers (default: 1)")

_COMMANDS = {
    "gen-data": _Command(
        "generate a synthetic dataset", _cmd_gen_data, config=SynthSpec,
        flags=(_flag("--out", required=True, help="output dataset path (.salb)"),)),
    "train": _Command(
        "train encoders on a dataset", _cmd_train, config=TrainConfig,
        flags=(_DATA, _flag("--out", required=True, help="output checkpoint path"),
               _flag("--resume", help="resume from an existing checkpoint"),
               _flag("--metrics", help="optional per-step metrics CSV")),
        outputs=("out", "metrics")),
    "eval": _Command(
        "retrieval metrics for a checkpoint", _cmd_eval,
        flags=(_DATA, _CKPT, _flag("--out", required=True, help="output metrics JSON"))),
    "ablate": _Command(
        "train and score the objective variants", _cmd_suite, config=TrainConfig,
        flags=(_DATA, _SUITE_OUT, _flag(
            "--seeds", default=str(TrainConfig.seed),
            help="comma-separated seeds (default: %(default)s)")),
        points=lambda args, cfg: harness.ablation_points(
            cfg, _parse_values(args.seeds, "--seeds", int)),
        point_fields=("loss_variant", "seed", "mu_clip", "lambda_re", "divergence")),
    "sweep-beta": _Command(
        "sweep the target-mixing coefficient", _cmd_suite, config=TrainConfig,
        flags=(_DATA, _SUITE_OUT, _flag(
            "--betas", required=True, help="comma-separated values in [0, 1]"), _JOBS),
        points=lambda args, cfg: harness.beta_points(
            cfg, _parse_values(args.betas, "--betas")),
        point_fields=("loss_variant", "beta")),
    "sweep-gamma": _Command(
        "sweep the guidance-mixing weight", _cmd_suite, config=TrainConfig,
        flags=(_DATA, _SUITE_OUT, _flag(
            "--gammas", required=True, help="comma-separated values in [0, 1]"), _JOBS),
        points=lambda args, cfg: harness.gamma_points(
            cfg, _parse_values(args.gammas, "--gammas")),
        point_fields=("loss_variant", "gamma")),
    "grad-check": _Command(
        "verify analytic gradients against central differences",
        _cmd_grad_check, config=LossConfig,
        flags=(_flag("--loss", default="total", choices=LOSS_VARIANTS,
                     help="loss selector (default: total)"),
               _flag("--n", type=int, default=4, help="batch size (default: 4)"),
               _flag("--d", type=int, default=8, help="embedding dim (default: 8)"),
               _flag("--tolerance", type=float, default=1e-5,
                     help="max relative error (default: 1e-5)"),
               _flag("--epsilon", type=float, default=1e-5,
                     help="central difference step (default: 1e-5)"),
               _flag("--out", help="report path (default: stdout)"))),
    "logit-profile": _Command(
        "mean sorted retrieval probabilities (top 50)", _cmd_logit_profile,
        flags=(_DATA, _CKPT,
               _flag("--direction", choices=harness.DIRECTIONS, default="t2v",
                     help="retrieval direction (default: t2v)"),
               _flag("--out", required=True, help="output CSV"))),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="softalign",
        description="Desk-scale laboratory for soft cross-modal alignment objectives.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True
    for name, command in _COMMANDS.items():
        # no abbreviated flags: --gamma must not stand for --gammas
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)
        cls = command.config
        groups = (cls, *_nested(cls).values()) if cls is not None else ()
        if groups:
            p.add_argument("--config", help="JSON config file (sections "
                           + "/".join(_SECTIONS[g][0] for g in groups) + ")")
            if "seed" not in command.point_fields:
                p.add_argument("--seed", type=int, help="seed override, applied everywhere")
        p.add_argument("--force", action="store_true", help="overwrite existing output files")
        for group in groups:
            _add_config_flags(p, group, _SECTIONS[group][1], command.point_fields)
        for names, kwargs in command.flags:
            p.add_argument(*names, **kwargs)
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
    try:  # the config, then every output path, both before any work
        command = _COMMANDS[args.command]
        cfg = _make_config(args, command) if command.config else None
        paths = _outputs(args, command)
        for path in paths:
            if path.exists() and not args.force:
                raise ConfigError(f"refusing to overwrite {path} (use --force)")
        command.handler(args, cfg)
        for path in paths:
            log.info("wrote %s", path)
        return 0
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

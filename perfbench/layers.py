"""The library functions the traced run wraps, and the per-layer numbers
derived from their spans.

Public functions are wrapped where a layer has them; the trainer's
per-stage module functions (gather, pool, head forward and backward,
attention backward) and the grad-check oracle's forward evaluator are
wrapped where it does not. All of them are looked up by the library on
its own module at call time, which is what lets a wrapper see them.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean

import numpy as np

MODALITIES = ("image", "text", "roi", "tag")
FD_SELECTORS = ("clip", "soft", "soft_re", "total", "mixed_gamma")

# (span name, per-step metric) for the stages a training step is split into
STEP_STAGES = (
    ("trainer.gather", "trainer.gather_ms"),
    ("trainer.pool", "trainer.pool_ms"),
    *((f"trainer.head_fwd.{m}", f"trainer.head_fwd_ms.{m}") for m in MODALITIES),
    ("gradcheck.graph", "gradcheck.graph_ms"),
    *((f"trainer.head_bwd.{m}", f"trainer.head_bwd_ms.{m}") for m in MODALITIES),
    ("trainer.attention_bwd", "trainer.attention_bwd_ms"),
)

# percentiles considered for the step-time tail, highest first
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _modality(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["mod"]


def _selector(args, kwargs):
    return args[0] if args else kwargs["selector"]


def install(tracer, synthgen, trainer, gradcheck, harness, backend) -> None:
    """Wrap every traced call; names that no longer exist are recorded as absent."""
    w = tracer.wrap
    w(synthgen, "generate", "synthgen.generate")
    w(synthgen, "save", "synthgen.save")
    w(synthgen, "load", "synthgen.load")
    w(synthgen, "dataset_hash", "synthgen.dataset_hash")
    w(trainer, "train", "trainer.train")
    w(trainer, "loss_and_grads", "trainer.loss_and_grads")
    w(trainer, "_gather_views", "trainer.gather")
    w(trainer, "_aggregate_for_batch", "trainer.pool")
    w(trainer, "_head_forward", "trainer.head_fwd", label=_modality)
    w(trainer, "_head_backward", "trainer.head_bwd", label=_modality)
    w(trainer, "_attention_backward", "trainer.attention_bwd")
    w(trainer, "optimizer_step", "trainer.optimizer")
    w(backend, "adamw_update", "backend.adamw_update")
    w(trainer, "save_checkpoint", "trainer.save_checkpoint")
    w(trainer, "load_checkpoint", "trainer.load_checkpoint")
    w(trainer, "forward_batch", "harness.embed")
    w(gradcheck, "backward_with_components", "gradcheck.graph")
    w(gradcheck, "check_gradients", "gradcheck.check_gradients", label=_selector)
    w(gradcheck, "backward", "gradcheck.backward")
    w(gradcheck, "finite_difference_grad", "gradcheck.fd")
    w(gradcheck, "_run", "gradcheck.forward_eval")
    w(harness, "retrieval_eval", "harness.eval")
    w(harness, "retrieval_metrics", "harness.retrieval_metrics")
    w(harness, "gamma_sweep", "harness.gamma_sweep")
    w(harness, "_run_points", "harness.run_points")
    w(harness, "_run_one_point", "harness.point")
    w(harness, "train_and_eval", "harness.train_and_eval")


def _dur(span) -> float:
    return span[4] - span[3]


def _mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return scale * fmean(values) if values else 0.0


def training_steps(spans) -> list[dict]:
    """One record per traced training step.

    A step runs from the start of ``loss_and_grads`` to the end of the
    ``optimizer_step`` that follows it inside the same ``train`` call; its
    stages are the spans directly under ``loss_and_grads`` plus the
    optimizer span. Times are in ms.
    """
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    steps = []
    for run in (s for s in spans if s[2] == "trainer.train"):
        pending = None
        for kid in sorted(children[run[0]], key=lambda s: s[3]):
            if kid[2] == "trainer.loss_and_grads":
                pending = kid
            elif kid[2] == "trainer.optimizer" and pending is not None:
                stages = defaultdict(float)
                for sub in children[pending[0]]:
                    stages[sub[2]] += 1e3 * _dur(sub)
                stages["trainer.optimizer"] = 1e3 * _dur(kid)
                steps.append({
                    "total": 1e3 * (kid[4] - pending[3]),
                    "stages": stages,
                    "adamw_calls": sum(1 for s in children[kid[0]]
                                       if s[2] == "backend.adamw_update"),
                })
                pending = None
    return steps


def _tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for pct in _TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(values, pct)), pct
    return (float(np.max(values)), 100.0) if n else (0.0, 0.0)


def layer_metrics(spans, pool_jobs: int) -> dict:
    """Per-layer numbers from one run's spans (0 where a layer did no work)."""
    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)
    out = {}

    for stage in ("generate", "save", "load"):
        out[f"synthgen.{stage}_s"] = _mean(map(_dur, named[f"synthgen.{stage}"]))
    hashes = named["synthgen.dataset_hash"]
    sweeps = named["harness.gamma_sweep"]
    out["synthgen.dataset_hash_s"] = _mean(map(_dur, hashes))
    out["synthgen.dataset_hash_calls"] = len(hashes) / max(len(sweeps), 1)

    steps = training_steps(spans)
    for span_name, metric in STEP_STAGES:
        out[metric] = _mean(st["stages"].get(span_name, 0.0) for st in steps)
    out["trainer.optimizer_ms"] = _mean(st["stages"]["trainer.optimizer"] for st in steps)
    out["trainer.adamw_calls_per_step"] = _mean(st["adamw_calls"] for st in steps)
    totals = [st["total"] for st in steps]
    out["trainer.step_ms_mean"] = _mean(totals)
    out["trainer.step_ms_p50"] = float(np.median(totals)) if totals else 0.0
    out["trainer.step_ms_tail"], out["trainer.step_tail_pct"] = _tail(totals)
    out["trainer.steps_traced"] = float(len(totals))
    attributed = [sum(st["stages"].get(n, 0.0) for n, _ in STEP_STAGES)
                  + st["stages"]["trainer.optimizer"] for st in steps]
    out["trainer.unattributed_ms"] = _mean(t - a for t, a in zip(totals, attributed))
    saves, loads = named["trainer.save_checkpoint"], named["trainer.load_checkpoint"]
    out["trainer.checkpoint_roundtrip_s"] = (_mean(map(_dur, saves))
                                             + _mean(map(_dur, loads)))

    configs = [s for s in spans if s[2].startswith("gradcheck.check_gradients.")]
    config_ids = {s[0] for s in configs}
    fd = [s for s in named["gradcheck.fd"] if s[1] in config_ids]
    fd_ids = {s[0] for s in fd}
    out["gradcheck.fd_ms"] = _mean(map(_dur, fd), 1e3)
    out["gradcheck.backward_ms"] = _mean(
        (_dur(s) for s in named["gradcheck.backward"] if s[1] in config_ids), 1e3)
    fd_evals = sum(1 for s in named["gradcheck.forward_eval"] if s[1] in fd_ids)
    out["gradcheck.forward_evals"] = fd_evals / len(fd) if fd else 0.0
    for sel in FD_SELECTORS:
        out[f"gradcheck.config_ms.{sel}"] = _mean(
            map(_dur, named[f"gradcheck.check_gradients.{sel}"]), 1e3)

    eval_spans = named["harness.eval"]
    eval_ids = {s[0] for s in eval_spans}
    out["harness.eval_s"] = _mean(map(_dur, eval_spans))
    out["harness.embed_s"] = _mean(_dur(s) for s in named["harness.embed"]
                                   if s[1] in eval_ids)
    out["harness.retrieval_metrics_s"] = _mean(map(_dur, named["harness.retrieval_metrics"]))
    points = {s[0] for s in named["harness.point"]}
    busy = [s for s in named["harness.train_and_eval"] if s[1] in points]
    out["harness.point_busy_s"] = _mean(map(_dur, busy))
    idle = []
    for pool in named["harness.run_points"]:
        inside = [s for s in busy if pool[3] <= s[3] and s[4] <= pool[4]]
        wall = _dur(pool)
        if inside and wall > 0:
            idle.append(1.0 - sum(map(_dur, inside)) / (pool_jobs * wall))
    out["harness.pool_idle_share"] = _mean(idle)
    return out

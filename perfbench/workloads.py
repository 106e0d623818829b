"""The four benchmark workloads, their sizes and their output checks.

Each workload drives the public library calls that a CLI subcommand makes
(``gen-data``, ``train``, ``eval``, ``grad-check``, ``sweep-gamma``). Why
each one exists, and which per-layer number should move which end-to-end
number on it, is written down in ``perfbench/README.md``.

An operation is one train run, eval, checkpoint round trip, grad-check
config or sweep point. It counts as failed when it raises or when one of
its checks fails; the run goes on either way and reports the count.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from softalign import gradcheck, harness, objectives, synthgen, trainer
from softalign.objectives import LossConfig
from softalign.synthgen import SynthSpec
from softalign.trainer import TrainConfig

from calibration import ReferenceKernel
from layers import FD_SELECTORS

SETUP_REPEATS = 3
SWEEP_GAMMAS = (0.0, 0.25, 0.75, 1.0)
SWEEP_JOBS = 2
FD_SEEDS = 10

# Graph-vs-reference agreement, as in gradcheck's module docstring.
REFERENCE_TOLERANCE = 1e-12
# objectives.py floors stored probabilities at LossConfig.target_floor
# (1e-12) while the graph works in log space and floors only exact zeros.
# At N=512 some guidance probabilities fall below 1e-12 and the two paths
# then differ by up to ~2e-5 relative, so the agreement check evaluates both
# with a floor that never binds; the gap at the configured floor is
# recorded in the results, ungated.
REFERENCE_FLOOR = 1e-300


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


class Run:
    """One benchmark run: its settings, operation accounting and results."""

    def __init__(self, seed, seconds, smoke, workdir: Path, tracer=None,
                 install=None):
        self.seed = abs(int(seed))
        self.seconds = float(seconds)
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self._install = install
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: Counter = Counter()
        self.e2e: dict = {}
        self.details: dict = {}
        self.digests: list[str] = []
        self.last_state = None
        self.reference = ReferenceKernel()
        self.timed = self.reference.timed

    # -- accounting ---------------------------------------------------------

    def op(self, kind: str, fn, *args):
        """Run one operation; a raise or failed check counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - counted and reported, the run goes on
            self._record_failure(kind, exc)
            return None

    def fail_ops(self, kind: str, count: int, exc: Exception) -> None:
        self.attempted += count
        self._record_failure(kind, exc, count)

    def _record_failure(self, kind, exc, count: int = 1) -> None:
        self.failed += count
        self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        traceback.print_exception(exc, file=sys.stderr)

    def check(self, kind: str, ok: bool, detail: str = "") -> None:
        self.checks[kind] += 1
        if not ok:
            raise CheckFailed(f"{kind}: {detail}")

    def quiet(self):
        """The benchmark's own checks are left out of the trace."""
        return self.tracer.paused() if self.tracer else nullcontext()

    # -- timing ---------------------------------------------------------------

    def setup(self, make):
        """Time ``make()`` several times; setup_s is the median scaled time."""
        raw, scaled, obj = [], [], None
        for _ in range(2 if self.smoke else SETUP_REPEATS):
            obj = None  # free the previous copy before building the next
            obj, secs, secs_scaled = self.timed(make)
            raw.append(secs)
            scaled.append(secs_scaled)
        self.e2e["setup_s"] = median(scaled)
        self.details["setup_s_raw"] = raw
        self.details["setup_s_scaled"] = scaled
        return obj

    def measure(self, unit) -> None:
        """Repeat ``unit() -> (items, raw seconds, scaled seconds)`` for the run's time.

        items_per_s is the median scaled rate over the repeats. In a traced run
        the repeats alternate between untraced (wrappers removed) and
        traced, starting untraced; the ratio of the two medians is the
        tracing overhead.
        """
        rates, plain, raw = [], [], []
        end = perf_counter() + self.seconds
        for i in itertools.count():
            traced = self.tracer is not None and i % 2 == 1
            if traced:
                self._install()
            elif self.tracer is not None:
                self.tracer.uninstall()
            res = unit()
            if res is not None:
                items, wall, scaled = res
                (rates if traced or self.tracer is None else plain).append(items / scaled)
                raw.append(items / wall)
            if perf_counter() >= end and (self.tracer is None or traced):
                break
        if plain and rates:
            self.details["trace_overhead_pct"] = 100.0 * (median(plain) / median(rates) - 1.0)
        self.details["unit_rates_scaled"] = rates
        self.details["unit_rates_raw"] = raw
        self.e2e["items_per_s"] = median(rates) if rates else 0.0


# ---------------------------------------------------------------------------
# shared steps
# ---------------------------------------------------------------------------

def dataset_setup(run: Run, spec: SynthSpec):
    """The gen-data -> reader hand-off: generate, save, load."""
    path = run.workdir / "data.salb"

    def make():
        generated = synthgen.generate(spec)
        synthgen.save(generated, path)
        del generated
        return synthgen.load(path)

    dataset = run.setup(make)
    path.unlink()
    return dataset


def trajectory_digest(metrics: list, state) -> str:
    """sha256 of the per-step losses and the final parameters."""
    h = hashlib.sha256()
    h.update(np.array([row["total"] for row in metrics], dtype="<f8").tobytes())
    for name in sorted(state.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state.params[name], dtype="<f8").tobytes())
    return h.hexdigest()


def _final_batch(dataset, cfg: TrainConfig) -> np.ndarray:
    # the trainer draws each epoch's order from default_rng((seed, 2, epoch))
    batches = dataset.n // cfg.batch_size
    epoch, b = divmod(cfg.max_steps - 1, batches)
    perm = np.random.default_rng((cfg.seed, 2, epoch)).permutation(dataset.n)
    return perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]


def _graph_and_reference(state, dataset, cfg: TrainConfig, idx, floor: float):
    loss = replace(cfg.loss, target_floor=floor)
    v, t, r, a = trainer.forward_batch(state, dataset, idx)
    tau, g_tau = state.temperature, state.guidance_temperature
    graph = gradcheck.forward_value(cfg.loss_variant, v, t, r, a, tau, loss,
                                    guidance_tau=g_tau)
    if cfg.loss_variant == "mixed_gamma":
        ref = objectives.mixed_guidance_loss(v, t, r, a, tau, loss.gamma, loss,
                                             guidance_tau=g_tau)
    else:
        ref = objectives.softclip_total(v, t, r, a, tau, loss,
                                        guidance_tau=g_tau).total
    return graph, ref


def check_training(run: Run, dataset, cfg: TrainConfig, state, metrics) -> None:
    losses = [row["total"] for row in metrics]
    run.check("finite_loss",
              len(losses) == cfg.max_steps and all(map(math.isfinite, losses)),
              f"{len(losses)} steps, non-finite: "
              f"{[i for i, x in enumerate(losses) if not math.isfinite(x)][:5]}")
    idx = _final_batch(dataset, cfg)
    graph, ref = _graph_and_reference(state, dataset, cfg, idx, REFERENCE_FLOOR)
    run.check("reference",
              abs(graph - ref) <= REFERENCE_TOLERANCE * max(1.0, abs(ref)),
              f"graph {graph!r} vs reference {ref!r}")
    graph, ref = _graph_and_reference(state, dataset, cfg, idx, cfg.loss.target_floor)
    gap = abs(graph - ref) / max(1.0, abs(ref))
    run.details["reference_gap_at_config_floor"] = max(
        gap, run.details.get("reference_gap_at_config_floor", 0.0))
    run.digests.append(trajectory_digest(metrics, state))


def train_unit(run: Run, dataset, cfg: TrainConfig):
    """One fixed-length train run, timed, then checked untimed."""
    def one():
        (state, metrics), wall, scaled = run.timed(trainer.train, dataset, cfg)
        run.last_state = state
        with run.quiet():
            check_training(run, dataset, cfg, state, metrics)
        return cfg.max_steps * cfg.batch_size, wall, scaled

    return lambda: run.op("train", one)


def eval_op(run: Run, state, dataset) -> None:
    def one():
        t0 = perf_counter()
        res = harness.retrieval_eval(state, dataset).to_dict()
        run.details["eval_s"] = perf_counter() - t0
        run.details["retrieval"] = res
        recalls = [res[f"r{k}_{d}"] for d in ("v2t", "t2v") for k in (1, 5, 10)]
        run.check("eval",
                  all(map(math.isfinite, res.values()))
                  and all(0.0 <= x <= 1.0 for x in recalls)
                  and all(res[f"r1_{d}"] <= res[f"r5_{d}"] <= res[f"r10_{d}"]
                          for d in ("v2t", "t2v")),
                  f"retrieval result {res}")

    run.op("eval", one)


def _same_arrays(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def checkpoint_op(run: Run, state) -> None:
    path = run.workdir / "model.ckpt"

    def one():
        t0 = perf_counter()
        trainer.save_checkpoint(state, path)
        loaded = trainer.load_checkpoint(path)
        run.details["checkpoint_roundtrip_s"] = perf_counter() - t0
        path.unlink()
        run.check("checkpoint",
                  loaded.step == state.step and loaded.config == state.config
                  and _same_arrays(state.params, loaded.params)
                  and _same_arrays(state.m, loaded.m)
                  and _same_arrays(state.v, loaded.v),
                  "checkpoint round trip is not bitwise exact")

    run.op("checkpoint", one)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def train_default(run: Run) -> None:
    if run.smoke:
        spec = SynthSpec(n_samples=192, d_roi=48, rois_per_image=3, seed=run.seed)
        cfg = TrainConfig(seed=run.seed, max_steps=6, batch_size=32)
    else:
        spec = SynthSpec(seed=run.seed)
        cfg = TrainConfig(seed=run.seed, max_steps=100)
    dataset = dataset_setup(run, spec)
    warm = replace(cfg, max_steps=2)
    with run.quiet():
        trainer.train(dataset, warm)
    run.measure(train_unit(run, dataset, cfg))
    if run.last_state is not None:
        eval_op(run, run.last_state, dataset)
        checkpoint_op(run, run.last_state)


def loss_heavy(run: Run) -> None:
    loss = LossConfig(gamma=0.5, lambda_re=1.0)
    if run.smoke:
        spec = SynthSpec(n_samples=256, d_roi=64, rois_per_image=4, seed=run.seed)
        cfg = TrainConfig(batch_size=64, roi_aggregation="attention",
                          loss_variant="mixed_gamma", loss=loss, max_steps=3,
                          seed=run.seed)
    else:
        spec = SynthSpec(n_samples=4096, d_roi=64, rois_per_image=4, seed=run.seed)
        cfg = TrainConfig(batch_size=512, roi_aggregation="attention",
                          loss_variant="mixed_gamma", loss=loss, max_steps=8,
                          seed=run.seed)
    dataset = dataset_setup(run, spec)
    with run.quiet():
        trainer.train(dataset, replace(cfg, max_steps=1))
    run.measure(train_unit(run, dataset, cfg))


def _fresh_process_setup(run: Run):
    """A new interpreter imports softalign and checks one tiny config."""
    src = str(Path(trainer.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import softalign.gradcheck as g; "
            "assert g.check_gradients('clip', seed=0, n=2, d=4).passed")

    def make():
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)

    run.setup(make)


def fd_grid(run: Run) -> None:
    sizes_n, sizes_d = ((2,), (4,)) if run.smoke else ((2, 4, 8), (4, 16))
    _fresh_process_setup(run)
    # Criterion 1 checks seeds 0-9; each pass takes the next of them in an
    # order drawn from the workload seed. Outside that set some N=2 draws
    # saturate a disentangled target row, which the library rejects by
    # design with DegenerateRow.
    seeds = iter(np.random.default_rng(run.seed).permutation(FD_SEEDS).tolist() * 100)
    grid = list(itertools.product(FD_SELECTORS, (True, False), sizes_n, sizes_d))
    run.details["fd_seeds"] = []

    def check_config(selector, seed, n, d, stop_grad):
        rep = gradcheck.check_gradients(
            selector, seed=seed, n=n, d=d,
            cfg=LossConfig(stop_gradient_targets=stop_grad))
        run.check("gradcheck", rep.passed,
                  f"{selector} seed={seed} n={n} d={d} stop_grad={stop_grad} "
                  f"max rel err {rep.max_rel_err:.3e}")

    def block(seed, configs):
        for selector, stop_grad, n, d in configs:
            run.op("gradcheck", check_config, selector, seed, n, d, stop_grad)

    def one_pass():
        # timed per (selector, stop-gradient) block, so the reference
        # kernel brackets about half a second of work rather than a pass
        seed = next(seeds)
        run.details["fd_seeds"].append(seed)
        wall = scaled = 0.0
        for _, configs in itertools.groupby(grid, key=lambda c: c[:2]):
            _, w, s = run.timed(block, seed, list(configs))
            wall += w
            scaled += s
        return len(grid), wall, scaled

    run.measure(one_pass)


def sweep_jobs2(run: Run) -> None:
    if run.smoke:
        spec = SynthSpec(n_samples=192, d_roi=48, rois_per_image=3, seed=run.seed)
        base = TrainConfig(seed=run.seed, max_steps=3, batch_size=32)
    else:
        spec = SynthSpec(seed=run.seed)
        base = TrainConfig(seed=run.seed, max_steps=60)
    dataset = dataset_setup(run, spec)
    with run.quiet():
        expected_hash = synthgen.dataset_hash(dataset)

    def check_point(rows, i, gamma):
        run.check("sweep_point", len(rows) == len(SWEEP_GAMMAS),
                  f"{len(rows)} rows for {len(SWEEP_GAMMAS)} gammas")
        row = rows[i].to_dict()
        numbers = [v for k, v in row.items() if k not in ("variant", "dataset_hash")]
        run.check("sweep_point",
                  row["gamma"] == gamma and row["variant"] == "mixed"
                  and row["dataset_hash"] == expected_hash
                  and all(map(math.isfinite, numbers)),
                  f"row {i}: {row} (expected gamma={gamma}, hash {expected_hash})")

    def one_sweep():
        # Not scaled by the reference kernel: the work runs in the two pool
        # workers, which the in-process kernel does not track (over ten
        # seeds the scaled rate spread more than the raw one, 19% vs 13%).
        t0 = perf_counter()
        try:
            rows = harness.gamma_sweep(dataset, base, SWEEP_GAMMAS, jobs=SWEEP_JOBS)
        except Exception as exc:  # noqa: BLE001 - every point of the sweep failed
            run.fail_ops("sweep_point", len(SWEEP_GAMMAS), exc)
            return None
        wall = perf_counter() - t0
        with run.quiet():
            for i, gamma in enumerate(SWEEP_GAMMAS):
                run.op("sweep_point", check_point, rows, i, gamma)
            blob = repr([row.to_dict() for row in rows]).encode()
            run.digests.append(hashlib.sha256(blob).hexdigest())
        return len(SWEEP_GAMMAS), wall, wall

    run.measure(one_sweep)


WORKLOADS = {
    "train_default": train_default,
    "loss_heavy": loss_heavy,
    "fd_grid": fd_grid,
    "sweep_jobs2": sweep_jobs2,
}

# checks that must have run for a result to count as correct
REQUIRED_CHECKS = {
    "train_default": ("finite_loss", "reference", "eval", "checkpoint"),
    "loss_heavy": ("finite_loss", "reference"),
    "fd_grid": ("gradcheck",),
    "sweep_jobs2": ("sweep_point",),
}

"""Evaluation metrics and experiment suites with machine-readable output.

Retrieval recall@k treats the paired sample as the single relevant item;
the Spearman column correlates model cross-modal similarities with the
synthetic ground-truth relevance over all off-diagonal pairs, which is
what actually measures many-to-many structure. The ablation suite trains
the objective variants under one shared seed so the loss is the only
moving part; sweeps emit one row per point per variant. One runner,
``_run_points``, trains and evaluates the points of the ablation and of
every sweep; it returns what its task keeps of each point, the row and
trained state for the ablation, the row alone for a sweep. All tables
are deterministic given (dataset hash, config, seed), whatever the
number of workers. The dataset hashes itself once and caches the digest,
which each row reads.

A sweep with several workers hands the dataset to each worker process
once, through the pool initializer; forked workers inherit it, with
whatever it has cached, without a copy. Every eval scores the whole
dataset against the relevance ranks the dataset caches, so the relevance
is ranked once per dataset, not per eval; a forking sweep ranks it,
hashes the dataset and pools the ROI views its points read, in the
parent, before the pool starts, so the workers share one copy.
Every JSON and CSV file the package writes goes through :func:`write_json`
or :func:`write_csv`, and so through ``container.replacing``.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from . import container, cpus, distributions, numkit, synthgen, trainer
from .errors import ConfigError, DegenerateTargets, GalleryTooSmall
from .synthgen import SynthDataset
from .trainer import TrainConfig, TrainState

log = logging.getLogger("softalign")

PROFILE_POSITIONS = 50

# retrieval directions: image queries over texts, text queries over images
DIRECTIONS = ("v2t", "t2v")


@dataclass(frozen=True)
class RetrievalResult:
    """Recall@k per direction plus relevance rank correlation."""

    r1_v2t: float
    r5_v2t: float
    r10_v2t: float
    r1_t2v: float
    r5_t2v: float
    r10_t2v: float
    spearman: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LogitProfile:
    """Position-wise mean of per-query sorted probability vectors."""

    positions: np.ndarray  # leading PROFILE_POSITIONS means, non-increasing
    top1: float
    top2_10: float
    top11_50: float
    full_sum: float        # sum of the untruncated mean vector (~1)


@dataclass(frozen=True)
class ResultRow:
    """One line of an emitted results table: its fields in order, with the
    :class:`RetrievalResult` fields in place of ``result``. ``final_loss``
    is None for a run that trained no step."""

    variant: str
    beta: float
    gamma: float
    seed: int
    dataset_hash: str
    result: RetrievalResult
    final_loss: Optional[float]

    def to_dict(self) -> dict:
        row = {**asdict(self), **self.result.to_dict()}
        return {name: row[name] for name in RESULT_COLUMNS}


# the columns of a results table: ResultRow's fields, result's spread in place
RESULT_COLUMNS = tuple(name for f in fields(ResultRow) for name in (
    (g.name for g in fields(RetrievalResult)) if f.name == "result" else (f.name,)))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _pair_ranks(sims: np.ndarray) -> np.ndarray:
    """0-based rank of each query's true pair; ties broken by lower index."""
    n = sims.shape[0]
    diag = sims[np.arange(n), np.arange(n)]
    greater = (sims > diag[:, None]).sum(axis=1)
    cols = np.arange(n)[None, :]
    ties_before = ((sims == diag[:, None]) & (cols < np.arange(n)[:, None])).sum(axis=1)
    return greater + ties_before


def retrieval_metrics(sims: np.ndarray, relevance_ranks: np.ndarray
                      ) -> RetrievalResult:
    """Metrics from an explicit similarity matrix (rows: v queries).

    ``relevance_ranks`` are the n(n - 1) average ranks of the off-diagonal
    relevance entries in row-major order, as
    :meth:`SynthDataset.relevance_ranks` caches them
    (:func:`numkit.off_diagonal_ranks`). The similarities are ranked
    through a strided view, with no copy. Spearman's rho is
    ``np.corrcoef``'s arithmetic on one (2, n(n - 1)) array of both rank
    vectors, so it keeps ``np.corrcoef``'s bits.

    Raises:
        ValueError: for a non-square ``sims``, one of fewer than 2 samples
            (no off-diagonal pair), or ``relevance_ranks`` of another shape
            than (n(n - 1),).
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise ValueError(f"need a square similarity matrix, got {sims.shape}")
    n = sims.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples for an off-diagonal pair, got {sims.shape}")
    pairs = n * (n - 1)
    relevance_ranks = np.asarray(relevance_ranks)
    if relevance_ranks.shape != (pairs,):
        raise ValueError(
            f"relevance_ranks must hold n(n - 1) = {pairs} ranks, got "
            f"shape {relevance_ranks.shape}"
        )
    pair_ranks = {"v2t": _pair_ranks(sims), "t2v": _pair_ranks(sims.T)}
    sims_off = numkit.off_diagonal_view(sims)
    # ranks are constant exactly where the ranked values are
    if np.ptp(sims_off) == 0.0 or np.ptp(relevance_ranks) == 0.0:
        rho = 0.0  # constant input: no monotone association measurable
    else:
        # built after the ranking, so it can reuse the ranking's freed memory
        ranks = numkit.average_ranks(sims_off)
        both = np.empty((2, pairs))
        both[0] = ranks
        del ranks
        both[1] = relevance_ranks
        rho = _corrcoef_in_place(both)
    return RetrievalResult(
        **{f"r{k}_{d}": float((pair_ranks[d] < k).mean())
           for d in DIRECTIONS for k in (1, 5, 10)},
        spearman=float(rho))


def _corrcoef_in_place(x: np.ndarray) -> float:
    """``np.corrcoef(x)[0, 1]`` of a (2, m) float64 array, bit for bit.

    The operations numpy's ``cov`` and ``corrcoef`` apply to the array
    they stack, applied to ``x`` itself, which is centred in place.
    """
    x -= np.average(x, axis=1)[:, None]
    c = np.dot(x, x.T)
    c *= np.true_divide(1, x.shape[1] - 1)
    s0, s1 = np.sqrt(np.diag(c))
    return float(np.clip(c[0, 1] / s0 / s1, -1.0, 1.0))


def retrieval_eval(state: TrainState, dataset: SynthDataset) -> RetrievalResult:
    """Retrieval over the whole dataset, against the relevance ranks the
    dataset caches: the relevance is ranked once per dataset, not per eval."""
    if dataset.n < 10:
        raise GalleryTooSmall(f"need at least 10 eval samples, got {dataset.n}")
    v, t, _, _ = trainer.forward_batch(state, dataset, np.arange(dataset.n))
    return retrieval_metrics(v @ t.T, dataset.relevance_ranks())


def logit_profile(state: TrainState, dataset: SynthDataset,
                  direction: str = "t2v") -> LogitProfile:
    """Mean sorted softmax row over every query, truncated to 50 positions."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    if dataset.n < PROFILE_POSITIONS:
        raise GalleryTooSmall(f"need at least {PROFILE_POSITIONS} samples, got {dataset.n}")
    v, t, _, _ = trainer.forward_batch(state, dataset, np.arange(dataset.n))
    q, g = (v, t) if direction == "v2t" else (t, v)
    probs = distributions.cross_modal_dist(q, g, state.temperature)
    sorted_desc = -np.sort(-probs, axis=1)
    mean_profile = sorted_desc.mean(axis=0)
    positions = mean_profile[:PROFILE_POSITIONS].copy()
    return LogitProfile(
        positions=positions,
        top1=float(positions[0]),
        top2_10=float(positions[1:10].sum()),
        top11_50=float(positions[10:50].sum()),
        full_sum=float(mean_profile.sum()),
    )


# ---------------------------------------------------------------------------
# experiment suites
# ---------------------------------------------------------------------------

def _final_loss(metrics: list[dict]) -> Optional[float]:
    """The mean total of the last 20 steps; None when no step ran."""
    if not metrics:
        return None
    tail = metrics[-min(20, len(metrics)):]
    return float(np.mean([row["total"] for row in tail]))


def train_and_eval(dataset: SynthDataset, cfg: TrainConfig,
                   variant: str) -> tuple[ResultRow, TrainState]:
    """One train run plus its result row."""
    state, metrics = trainer.train(dataset, cfg)
    row = ResultRow(
        variant=variant, beta=cfg.loss.beta, gamma=cfg.loss.gamma,
        seed=cfg.seed, dataset_hash=synthgen.dataset_hash(dataset),
        result=retrieval_eval(state, dataset), final_loss=_final_loss(metrics),
    )
    return row, state


def _point(base: TrainConfig, variant: str, loss_variant: str, **loss):
    """A suite point: ``base`` with ``loss_variant`` and the ``loss`` fields set."""
    return variant, replace(base, loss_variant=loss_variant,
                            loss=replace(base.loss, **loss))


def ablation_variants(base: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The five objective variants, in emission order.

    1. contrastive baseline alone; 2. + label-smoothed targets;
    3. softened targets via forward KL; 4. + relation-enhanced term;
    5. + symmetric KL (full objective, the defaults). Each sets the loss
    variant, divergence, lambda_re and mu_clip; the first two read no
    divergence and take the default.
    """
    return [_point(base, name, variant, divergence=div, lambda_re=lam, mu_clip=mu)
            for name, variant, div, lam, mu in (
                ("clip", "clip", "symmetric_kl", 0.0, 1.0),
                ("label_smooth", "label_smooth", "symmetric_kl", 0.0, 1.0),
                ("soft_fkl", "total", "forward_kl", 0.0, 0.5),
                ("soft_re_fkl", "total", "forward_kl", 1.0, 0.5),
                ("softclip", "total", "symmetric_kl", 1.0, 0.5))]


def ablation_suite(dataset: SynthDataset, base: TrainConfig
                   ) -> tuple[list[ResultRow], dict[str, TrainState]]:
    """Train and evaluate all five variants under one shared seed.

    Returns the rows and each variant's trained state. Every variant's
    config is built, and so validated, before any training. The points
    run on as many worker processes as the CPU budget
    (:func:`softalign.cpus.budget`) allows; the rows and states are those
    of the serial run.
    """
    runs = _run_points(dataset, ablation_variants(base), cpus.budget(), _run_one_point)
    return [row for row, _ in runs], {row.variant: state for row, state in runs}


def ablation_points(base: TrainConfig, seeds: Sequence[int]
                    ) -> list[tuple[str, TrainConfig]]:
    """:func:`ablation_variants` under each seed in turn (which each point sets)."""
    points = [point for seed in seeds
              for point in ablation_variants(replace(base, seed=seed))]
    return _require_points(points, seeds)


def beta_points(base: TrainConfig, betas: Sequence[float]
                ) -> list[tuple[str, TrainConfig]]:
    """Target-mixing sweep points, with and without the relation-enhanced term.

    Each point sets the loss variant and beta; lambda_re is ``base``'s as
    it is (0 included) with the term and 0 without it. Points whose
    targets are degenerate (beta=0, see :meth:`LossConfig.check`) are
    skipped with a logged reason; any other invalid value raises, as does
    a sweep with no point left.
    """
    points = []
    for beta in betas:
        for variant, lam in (("with_re", base.loss.lambda_re),
                             ("without_re", 0.0)):
            try:
                points.append(_point(base, variant, "total",
                                     beta=beta, lambda_re=lam))
            except DegenerateTargets as exc:
                log.warning("skipping beta=%s (%s): %s: %s",
                            beta, variant, type(exc).__name__, exc)
    return _require_points(points, betas)


def gamma_points(base: TrainConfig, gammas: Sequence[float]
                 ) -> list[tuple[str, TrainConfig]]:
    """Guidance-mixing sweep points (contrastive term excluded by construction);
    each sets the loss variant and gamma."""
    points = [_point(base, "mixed", "mixed_gamma", gamma=gamma) for gamma in gammas]
    return _require_points(points, gammas)


def _require_points(points: list, values: Sequence[float]) -> list:
    if not points:
        raise ConfigError(f"no sweep point to run for the values {list(values)}")
    return points


def sweep(dataset: SynthDataset, points: Sequence[tuple[str, TrainConfig]],
          jobs: int = 1) -> list[ResultRow]:
    """Train and evaluate built sweep points, one row each, in order.

    At most ``jobs`` worker processes run, and never more than there are
    points; a single worker is this process. A ``jobs`` below 1 raises
    ValueError.
    """
    return _run_points(dataset, points, jobs, _point_row)


def gamma_sweep(dataset: SynthDataset, base: TrainConfig,
                gammas: Sequence[float], jobs: int = 1) -> list[ResultRow]:
    """:func:`sweep` over :func:`gamma_points`; every point is built first."""
    return sweep(dataset, gamma_points(base, gammas), jobs)


# the sweep's dataset, set only in a pool worker (by _init_worker)
_worker_dataset: Optional[SynthDataset] = None


def _init_worker(dataset: SynthDataset, workers: int) -> None:
    """A pool worker keeps the dataset and its share of the CPUs."""
    global _worker_dataset
    _worker_dataset = dataset
    cpus.divide(workers)


def _run_one_point(point, dataset: Optional[SynthDataset] = None
                   ) -> tuple[ResultRow, TrainState]:
    """One suite point on ``dataset``, or in a pool worker on its own."""
    variant, cfg = point
    log.info("suite point %s (beta %g, gamma %g, seed %d)",
             variant, cfg.loss.beta, cfg.loss.gamma, cfg.seed)
    dataset = _worker_dataset if dataset is None else dataset
    return train_and_eval(dataset, cfg, variant)


def _point_row(point, dataset: Optional[SynthDataset] = None) -> ResultRow:
    """:func:`_run_one_point`'s row alone: a pool worker sends no state back."""
    return _run_one_point(point, dataset)[0]


def _run_points(dataset: SynthDataset, points, jobs: int, task) -> list:
    """``task(point, dataset)`` of each point, in order, from at most
    ``jobs`` worker processes; ``task`` is :func:`_run_one_point` or
    :func:`_point_row`.

    One worker runs in this process. Pool workers get the dataset once,
    through the pool initializer: forked workers inherit it, and nothing
    is pickled; where fork does not exist it is pickled once per worker,
    without its cache. A forked worker reads the cache filled in the
    parent, before the pool starts: the relevance ranks, the dataset hash,
    and the pooled ROI view of each parameter-free aggregation among the
    points. So no worker ranks the relevance, hashes the dataset or pools
    the ROIs itself. A pool task ships only its point, and only what
    ``task`` returns comes back. Each worker's graphs get
    ``max(1, cpus // workers)`` threads (:func:`softalign.cpus.divide`),
    and this process stops its own thread pool before the workers fork.
    A ``jobs`` below 1 raises ValueError before any point runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(points))
    if workers <= 1:
        return [task(point, dataset) for point in points]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # named, not defaulted: Python 3.14 makes forkserver the POSIX default
    fork = "fork" in multiprocessing.get_all_start_methods()
    if fork:
        dataset.relevance_ranks()
        synthgen.dataset_hash(dataset)
        for mode in {cfg.roi_aggregation for _, cfg in points}:
            if mode in synthgen.ROI_POOLS:
                dataset.pooled_rois(mode)
    cpus.shutdown()
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork" if fork else None),
            initializer=_init_worker, initargs=(dataset, workers)) as pool:
        return list(pool.map(task, points))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def write_json(payload, path) -> None:
    """``payload`` as indented JSON and a newline, as ``path``; a NaN or
    infinite float, which JSON cannot hold, raises ValueError instead."""
    with container.replacing(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path, columns: Sequence[str], rows) -> None:
    """A header of ``columns``, then a line per dict of ``rows``, as ``path``."""
    with container.replacing(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_results_csv(rows: Sequence[ResultRow], path) -> None:
    write_csv(path, RESULT_COLUMNS, (row.to_dict() for row in rows))

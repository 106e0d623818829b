"""Evaluation metrics and experiment suites with machine-readable output.

Retrieval recall@k treats the paired sample as the single relevant item;
the Spearman column correlates model cross-modal similarities with the
synthetic ground-truth relevance over all off-diagonal pairs, which is
what actually measures many-to-many structure. The ablation suite trains
the objective variants under one shared seed so the loss is the only
moving part; sweeps emit one row per point per variant. All tables are
deterministic given (dataset hash, config, seed).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import backend, synthgen, trainer
from .errors import GalleryTooSmall
from .synthgen import SynthDataset
from .trainer import TrainConfig, TrainState

log = logging.getLogger("softalign")

RESULT_COLUMNS = (
    "variant", "beta", "gamma", "seed", "dataset_hash",
    "r1_v2t", "r5_v2t", "r10_v2t", "r1_t2v", "r5_t2v", "r10_t2v",
    "spearman", "final_loss",
)

ABLATION_VARIANTS = ("clip", "label_smooth", "soft_fkl", "soft_re_fkl", "softclip")

PROFILE_POSITIONS = 50


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
        return {
            "r1_v2t": self.r1_v2t, "r5_v2t": self.r5_v2t, "r10_v2t": self.r10_v2t,
            "r1_t2v": self.r1_t2v, "r5_t2v": self.r5_t2v, "r10_t2v": self.r10_t2v,
            "spearman": self.spearman,
        }


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
    """One line of an emitted results table."""

    variant: str
    beta: float
    gamma: float
    seed: int
    dataset_hash: str
    result: RetrievalResult
    final_loss: float

    def to_dict(self) -> dict:
        d = {
            "variant": self.variant, "beta": self.beta, "gamma": self.gamma,
            "seed": self.seed, "dataset_hash": self.dataset_hash,
        }
        d.update(self.result.to_dict())
        d["final_loss"] = self.final_loss
        return d


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


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied entries share their mean rank."""
    order = np.argsort(x)  # tie order is irrelevant: ties share a rank
    xs = x[order]
    first = np.concatenate(([True], xs[1:] != xs[:-1]))
    bounds = np.concatenate((np.flatnonzero(first), [x.size]))
    group = np.cumsum(first) - 1
    ranks = np.empty(x.size)
    # a tie group spanning sorted positions [b_k, b_{k+1}) holds ranks
    # b_k + 1 .. b_{k+1}, whose mean is (b_k + b_{k+1} + 1) / 2
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def spearman_rho(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def retrieval_metrics(sims: np.ndarray, relevance: np.ndarray) -> RetrievalResult:
    """Metrics from an explicit similarity matrix (rows: v queries)."""
    sims = np.asarray(sims, dtype=np.float64)
    relevance = np.asarray(relevance, dtype=np.float64)
    if sims.shape != relevance.shape or sims.shape[0] != sims.shape[1]:
        raise ValueError(
            f"need square matching matrices, got {sims.shape} and {relevance.shape}"
        )
    ranks_v2t = _pair_ranks(sims)
    ranks_t2v = _pair_ranks(sims.T)
    off = ~np.eye(sims.shape[0], dtype=bool)
    if np.ptp(sims[off]) == 0.0 or np.ptp(relevance[off]) == 0.0:
        rho = 0.0  # constant input: no monotone association measurable
    else:
        rho = spearman_rho(sims[off], relevance[off])
    return RetrievalResult(
        r1_v2t=float((ranks_v2t < 1).mean()),
        r5_v2t=float((ranks_v2t < 5).mean()),
        r10_v2t=float((ranks_v2t < 10).mean()),
        r1_t2v=float((ranks_t2v < 1).mean()),
        r5_t2v=float((ranks_t2v < 5).mean()),
        r10_t2v=float((ranks_t2v < 10).mean()),
        spearman=float(rho),
    )


def retrieval_eval(state: TrainState, dataset: SynthDataset,
                   indices: Optional[Sequence[int]] = None) -> RetrievalResult:
    """Embed a sample subset and score retrieval against the ground truth."""
    idx = np.arange(dataset.n) if indices is None else np.asarray(indices, dtype=np.int64)
    if idx.size < 10:
        raise GalleryTooSmall(f"need at least 10 eval samples, got {idx.size}")
    v, t, _, _ = trainer.forward_batch(state, dataset, idx)
    sims = v @ t.T
    relevance = dataset.relevance[np.ix_(idx, idx)]
    return retrieval_metrics(sims, relevance)


def logit_profile(state: TrainState, dataset: SynthDataset,
                  indices: Optional[Sequence[int]] = None,
                  direction: str = "t2v") -> LogitProfile:
    """Mean sorted softmax row over a query set, truncated to 50 positions."""
    if direction not in ("v2t", "t2v"):
        raise ValueError(f"direction must be 'v2t' or 't2v', got {direction!r}")
    idx = np.arange(dataset.n) if indices is None else np.asarray(indices, dtype=np.int64)
    if idx.size < PROFILE_POSITIONS:
        raise GalleryTooSmall(
            f"need at least {PROFILE_POSITIONS} samples, got {idx.size}"
        )
    v, t, _, _ = trainer.forward_batch(state, dataset, idx)
    q, g = (v, t) if direction == "v2t" else (t, v)
    probs = backend.softmax_rows((q @ g.T) * state.temperature.inv_tau)
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

def _final_loss(metrics: list[dict]) -> float:
    if not metrics:
        return float("nan")
    tail = metrics[-min(20, len(metrics)):]
    return float(np.mean([row["total"] for row in tail]))


def train_and_eval(dataset: SynthDataset, cfg: TrainConfig,
                   dataset_hash: Optional[str] = None,
                   variant: str = "run") -> tuple[ResultRow, TrainState]:
    """One train run plus its result row."""
    state, metrics = trainer.train(dataset, cfg)
    result = retrieval_eval(state, dataset)
    row = ResultRow(
        variant=variant, beta=cfg.loss.beta, gamma=cfg.loss.gamma,
        seed=cfg.seed,
        dataset_hash=dataset_hash or synthgen.dataset_hash(dataset),
        result=result, final_loss=_final_loss(metrics),
    )
    return row, state


def ablation_variants(base: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The five objective variants, in emission order.

    1. contrastive baseline alone; 2. + label-smoothed targets;
    3. softened targets via forward KL; 4. + relation-enhanced term;
    5. + symmetric KL (full objective, the defaults).
    """
    loss = base.loss
    return [
        ("clip", replace(base, loss_variant="clip",
                         loss=replace(loss, mu_clip=1.0, lambda_re=0.0))),
        ("label_smooth", replace(base, loss_variant="label_smooth",
                                 loss=replace(loss, mu_clip=1.0, lambda_re=0.0))),
        ("soft_fkl", replace(base, loss_variant="total",
                             loss=replace(loss, divergence="forward_kl",
                                          lambda_re=0.0, mu_clip=0.5))),
        ("soft_re_fkl", replace(base, loss_variant="total",
                                loss=replace(loss, divergence="forward_kl",
                                             lambda_re=1.0, mu_clip=0.5))),
        ("softclip", replace(base, loss_variant="total",
                             loss=replace(loss, divergence="symmetric_kl",
                                          lambda_re=1.0, mu_clip=0.5))),
    ]


def ablation_suite(dataset: SynthDataset, base: TrainConfig
                   ) -> tuple[list[ResultRow], dict[str, TrainState]]:
    """Train and evaluate all five variants under one shared seed."""
    ds_hash = synthgen.dataset_hash(dataset)
    rows, states = [], {}
    for name, cfg in ablation_variants(base):
        log.info("ablation variant %s (seed %d)", name, cfg.seed)
        row, state = train_and_eval(dataset, cfg, ds_hash, variant=name)
        rows.append(row)
        states[name] = state
    return rows, states


def beta_sweep(dataset: SynthDataset, base: TrainConfig,
               betas: Sequence[float], jobs: int = 1) -> list[ResultRow]:
    """Target-mixing sweep, with and without the relation-enhanced term.

    Points where beta=0 meets a non-forward divergence are skipped with a
    logged reason (the reversed KL term is unbounded on one-hot targets).
    """
    ds_hash = synthgen.dataset_hash(dataset)
    points = []
    for beta in betas:
        for variant, lam in (("with_re", max(base.loss.lambda_re, 1.0)),
                             ("without_re", 0.0)):
            if beta == 0.0 and base.loss.divergence != "forward_kl":
                log.warning(
                    "skipping beta=0.0 (%s): DegenerateTargets under %s "
                    "divergence (one-hot targets make the reversed term "
                    "unbounded)", variant, base.loss.divergence,
                )
                continue
            cfg = replace(base, loss_variant="total",
                          loss=replace(base.loss, beta=beta, lambda_re=lam))
            points.append((variant, cfg))
    return _run_points(dataset, points, ds_hash, jobs)


def gamma_sweep(dataset: SynthDataset, base: TrainConfig,
                gammas: Sequence[float], jobs: int = 1) -> list[ResultRow]:
    """Guidance-mixing sweep (contrastive term excluded by construction)."""
    ds_hash = synthgen.dataset_hash(dataset)
    points = []
    for gamma in gammas:
        cfg = replace(base, loss_variant="mixed_gamma",
                      loss=replace(base.loss, gamma=gamma))
        points.append(("mixed", cfg))
    return _run_points(dataset, points, ds_hash, jobs)


def _run_one_point(args) -> ResultRow:
    dataset, variant, cfg, ds_hash = args
    row, _ = train_and_eval(dataset, cfg, ds_hash, variant=variant)
    return row


def _run_points(dataset: SynthDataset, points, ds_hash: str,
                jobs: int) -> list[ResultRow]:
    tasks = [(dataset, variant, cfg, ds_hash) for variant, cfg in points]
    if jobs <= 1:
        return [_run_one_point(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one_point, tasks))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def write_results_csv(rows: Sequence[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.to_dict()[k] for k in RESULT_COLUMNS})


def write_results_json(rows: Sequence[ResultRow], path) -> None:
    with open(path, "w") as fh:
        json.dump([row.to_dict() for row in rows], fh, indent=2)
        fh.write("\n")


def write_profile_csv(profile: LogitProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "mean_probability"])
        for pos, value in enumerate(profile.positions, start=1):
            writer.writerow([pos, repr(float(value))])

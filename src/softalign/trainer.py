"""Toy dual-stream encoders, optimizer, schedule, and training loop.

Each modality (image, text, roi, tag) gets a two-layer tanh head that
projects its raw view to a shared embedding dimension; the ROI view is
first pooled over its M features (mean/max/min, pooled once per dataset,
or a single-query attention). Heads are trained with AdamW (decoupled
weight decay) under a linear-warmup + cosine-anneal schedule. Everything
is deterministic given the config seed: per-epoch shuffles are re-derived
from (seed, epoch), so resuming from a checkpoint replays the exact
uninterrupted trajectory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from . import backend, config, container, gradcheck
from .config import flag
from .distributions import Temperature
from .errors import (
    BatchTooSmall,
    ConfigError,
    DegenerateTargets,
    FormatError,
    IndexOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
)
from .numkit import all_finite, l2_normalize_rows
from .objectives import LOSS_VARIANTS, LossConfig
from .synthgen import ROI_POOLS, SynthDataset

CKPT_MAGIC = "SALB-CKPT"

AGGREGATION_MODES = (*ROI_POOLS, "attention")

# keys of each step's metrics record, in CSV column order
METRIC_COLUMNS = ("step", "lr", "total", "clip", "soft", "soft_re", "tau")

_MODALITIES = ("image", "text", "roi", "tag")

# the loss graph input each head's output is (LossConfig.live_inputs)
_GRAPH_INPUT = {"image": "v", "text": "t", "roi": "r", "tag": "a"}

# the arrays a checkpoint holds per parameter, as "<slot>/<name>"
_SLOTS = ("param", "m", "v")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and architecture settings for one training run.

    Construction fails for a loss variant the loss config cannot evaluate
    (:meth:`LossConfig.check`).
    """

    epochs: int = flag(40, "training epochs", ge=0)
    max_steps: Optional[int] = flag(None, "step cap overriding epochs", ge=0)
    batch_size: int = flag(64, "batch size", ge=2)
    peak_lr: float = flag(3e-3, "peak learning rate", gt=0)
    warmup_fraction: float = flag(0.10, "linear warmup fraction", ge=0, lt=1)
    weight_decay: float = flag(0.2, "decoupled weight decay", ge=0)
    beta1: float = flag(0.9, ge=0, lt=1)
    beta2: float = flag(0.999, ge=0, lt=1)
    adam_eps: float = flag(1e-8, gt=0)
    roi_aggregation: str = flag("mean", "ROI pooling mode", AGGREGATION_MODES)
    hidden_dim: int = flag(64, "encoder hidden width", ge=1)
    embed_dim: int = flag(32, "shared embedding width", ge=1)
    attention_dim: int = flag(32, "attention pool key width", ge=1)
    grad_clip: Optional[float] = flag(None, "global gradient-norm clip", gt=0)
    seed: int = flag(0, ge=0)
    loss_variant: str = flag("total", "objective variant to train", LOSS_VARIANTS)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        config.check(self)
        self.loss.check(self.loss_variant)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return config.from_dict(cls, d)


@dataclass
class TrainState:
    """Everything a run needs to continue: parameters, moments, step."""

    params: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    config: TrainConfig

    @property
    def temperature(self) -> Temperature:
        return Temperature(float(self.params["tau_log_inv"][0]))

    @property
    def guidance_temperature(self) -> Optional[Temperature]:
        if "tau_log_inv_guidance" not in self.params:
            return None
        return Temperature(float(self.params["tau_log_inv_guidance"][0]))


def param_layout(widths: dict[str, int], cfg: TrainConfig
                 ) -> tuple[tuple[str, tuple[int, ...], bool, bool], ...]:
    """``(name, shape, decays, trains)`` of each parameter ``cfg`` builds
    over views of these widths (modality -> width), in :func:`init_state`'s
    order, which a checkpoint's ``param_order`` must equal. ``decays`` says
    whether weight decay applies: the temperatures are adapted but never
    decayed. ``trains`` says whether the parameter can get a nonzero
    gradient: a head trains when its graph input is live
    (:meth:`LossConfig.live_inputs`; under ``stop_gradient_targets`` the ROI
    and tag heads are a fixed teacher), the attention pool when the ROI head
    does, and the temperatures always. A parameter that does not train moves
    by weight decay alone (:func:`optimizer_step`)."""
    h, d_out = cfg.hidden_dim, cfg.embed_dim
    live = cfg.loss.live_inputs(cfg.loss_variant)
    trains = {mod: _GRAPH_INPUT[mod] in live for mod in _MODALITIES}
    layout = []
    for mod in _MODALITIES:
        layout += [(f"{mod}.w1", (widths[mod], h), True, trains[mod]),
                   (f"{mod}.b1", (h,), True, trains[mod]),
                   (f"{mod}.w2", (h, d_out), True, trains[mod]),
                   (f"{mod}.b2", (d_out,), True, trains[mod])]
    if cfg.roi_aggregation == "attention":
        d_roi, d_att = widths["roi"], cfg.attention_dim
        layout += [("roi_pool.query", (d_att,), True, trains["roi"]),
                   ("roi_pool.key_proj", (d_roi, d_att), True, trains["roi"]),
                   ("roi_pool.value_proj", (d_roi, d_roi), True, trains["roi"])]
    layout.append(("tau_log_inv", (1,), False, True))
    if cfg.loss.split_guidance_temperature:
        layout.append(("tau_log_inv_guidance", (1,), False, True))
    return tuple(layout)


def _widths(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, int]:
    """The view widths the heads take: the rows of each ``<prefix><view>.w1``."""
    return {mod: arrays[f"{prefix}{mod}.w1"].shape[0] for mod in _MODALITIES}


def init_state(spec, cfg: TrainConfig) -> TrainState:
    """Fresh parameters for a dataset spec, deterministic in cfg.seed.

    They are drawn in :func:`param_layout` order, which fixes the draws."""
    rng = np.random.default_rng((cfg.seed, 1))
    widths = {mod: getattr(spec, f"d_{mod}") for mod in _MODALITIES}
    params: dict[str, np.ndarray] = {}
    for name, shape, _, _ in param_layout(widths, cfg):
        part = name.rpartition(".")[2]
        if part in ("w1", "w2", "key_proj"):
            params[name] = rng.standard_normal(shape) / math.sqrt(shape[0])
        # identity values -> exact mean pooling
        elif part == "value_proj":
            params[name] = np.eye(shape[0])
        elif part.startswith("tau_log_inv"):
            params[name] = np.full(shape, -math.log(cfg.loss.tau_init))
        else:  # biases; a zero query -> uniform attention weights
            params[name] = np.zeros(shape)
    return TrainState(params=params, m={k: np.zeros_like(p) for k, p in params.items()},
                      v={k: np.zeros_like(p) for k, p in params.items()},
                      step=0, config=cfg)


# ---------------------------------------------------------------------------
# ROI aggregation
# ---------------------------------------------------------------------------

def _attention_batch(rois: np.ndarray, params: dict):
    """(N, M, d) -> (N, d) via softmax(q . k_m / sqrt(d_att)) weights.

    Reads the pool's ``roi_pool.*`` entries of ``params``: the (d_att,)
    query, the (d, d_att) key and the (d, d) value projection.
    """
    query = params["roi_pool.query"]
    d_att = query.shape[0]
    keys = rois @ params["roi_pool.key_proj"]      # (N, M, d_att)
    scores = (keys @ query) / math.sqrt(d_att)     # (N, M)
    weights = backend.softmax_logsoftmax_rows(scores)[0]
    values = rois @ params["roi_pool.value_proj"]  # (N, M, d)
    pooled = np.einsum("nm,nmd->nd", weights, values)
    cache = {"keys": keys, "weights": weights, "values": values, "rois": rois}
    return pooled, cache


def _attention_backward(d_pooled: np.ndarray, params: dict, cache) -> dict:
    keys, weights, values, rois = (
        cache["keys"], cache["weights"], cache["values"], cache["rois"],
    )
    query = params["roi_pool.query"]
    d_att = query.shape[0]
    d_values = weights[:, :, None] * d_pooled[:, None, :]
    d_value_proj = np.einsum("nmd,nme->de", rois, d_values)
    d_weights = np.einsum("nmd,nd->nm", values, d_pooled)
    d_scores = backend.softmax_vjp_rows(weights, d_weights)
    d_query = np.einsum("nma,nm->a", keys, d_scores) / math.sqrt(d_att)
    d_keys = d_scores[:, :, None] * query[None, None, :] / math.sqrt(d_att)
    d_key_proj = np.einsum("nmd,nma->da", rois, d_keys)
    return {
        "roi_pool.query": d_query,
        "roi_pool.key_proj": d_key_proj,
        "roi_pool.value_proj": d_value_proj,
    }


def _aggregate_for_batch(state: TrainState, rois: np.ndarray):
    """ROI head input and its backward cache.

    Attention pools the gathered (N, M, d) sequence; the parameter-free
    modes arrive already pooled from the dataset's cache.
    """
    if state.config.roi_aggregation == "attention":
        return _attention_batch(rois, state.params)
    return rois, None


# ---------------------------------------------------------------------------
# encoder forward / backward
# ---------------------------------------------------------------------------

def _head_forward(state: TrainState, mod: str, x: np.ndarray):
    p = state.params
    a1 = x @ p[f"{mod}.w1"] + p[f"{mod}.b1"]
    h1 = np.tanh(a1)
    out = h1 @ p[f"{mod}.w2"] + p[f"{mod}.b2"]
    return out, {"x": x, "h1": h1}


def _head_backward(state: TrainState, mod: str, d_out: np.ndarray, cache,
                   need_input_grad: bool = False):
    p = state.params
    x, h1 = cache["x"], cache["h1"]
    grads = {
        f"{mod}.w2": h1.T @ d_out,
        f"{mod}.b2": d_out.sum(axis=0),
    }
    d_h1 = d_out @ p[f"{mod}.w2"].T
    d_a1 = d_h1 * (1.0 - h1 * h1)
    grads[f"{mod}.w1"] = x.T @ d_a1
    grads[f"{mod}.b1"] = d_a1.sum(axis=0)
    d_x = d_a1 @ p[f"{mod}.w1"].T if need_input_grad else None
    return grads, d_x


def _gather_views(dataset: SynthDataset, indices: np.ndarray,
                  roi_mode: str) -> dict:
    """The batch's rows of every view.

    The ROI view is the (N, M, d_roi) sequence for attention pooling and
    rows of the dataset's pooled (n, d_roi) cache for the other modes.
    Indices of a non-integer dtype (a boolean mask, floats) raise
    IndexOutOfRange rather than being cast to rows they do not name, and
    an index array of two or more dimensions raises ShapeMismatch.
    """
    idx = np.asarray(indices)
    if idx.ndim > 1:
        raise ShapeMismatch(f"indices must be one-dimensional, got shape {idx.shape}")
    if idx.ndim != 1 or idx.size < 2:
        raise BatchTooSmall(f"need at least 2 indices, got {idx.size}")
    if idx.dtype.kind not in "iu":
        raise IndexOutOfRange(f"indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if (idx < 0).any() or (idx >= dataset.n).any():
        raise IndexOutOfRange(
            f"indices must be in [0, {dataset.n}), got range "
            f"[{int(idx.min())}, {int(idx.max())}]"
        )
    rois = (dataset.roi_features if roi_mode == "attention"
            else dataset.pooled_rois(roi_mode))
    return {
        "image": dataset.image_features[idx],
        "text": dataset.text_features[idx],
        "roi": rois[idx],
        "tag": dataset.tag_features[idx],
    }


def _forward_raw(state: TrainState, dataset: SynthDataset, indices):
    """Raw (pre-normalization) head outputs plus backward caches.

    Raises ConfigError if a view's width differs from its head's input
    width (parameters built for another dataset spec).
    """
    views = _gather_views(dataset, indices, state.config.roi_aggregation)
    for mod in _MODALITIES:
        width, want = views[mod].shape[-1], state.params[f"{mod}.w1"].shape[0]
        if width != want:
            raise ConfigError(f"the dataset's {mod} view is {width} wide, but "
                              f"the model's {mod} head takes {want}")
    pooled, agg_cache = _aggregate_for_batch(state, views["roi"])
    inputs = {"image": views["image"], "text": views["text"],
              "roi": pooled, "tag": views["tag"]}
    raw, caches = {}, {}
    for mod in _MODALITIES:
        raw[mod], caches[mod] = _head_forward(state, mod, inputs[mod])
    return raw, caches, agg_cache


def forward_batch(state: TrainState, dataset: SynthDataset, indices):
    """Unit-row embedding batches (v, t, r, a) for a set of samples."""
    raw, _, _ = _forward_raw(state, dataset, indices)
    return tuple(l2_normalize_rows(raw[mod]) for mod in _MODALITIES)


def loss_and_grads(state: TrainState, dataset: SynthDataset, indices):
    """(loss value, components, parameter gradients) for one batch.

    The gradients are those of the parameters that train
    (:func:`param_layout`), and only their backward passes run: a frozen
    head's gradient is exactly zero, and it has no entry.
    Raises NonFiniteValue if a head output is not finite.
    """
    cfg = state.config
    trained = {name for name, _, _, trains
               in param_layout(_widths(state.params, ""), cfg) if trains}
    raw, caches, agg_cache = _forward_raw(state, dataset, indices)
    _require_finite(raw, "head output")
    value, comps, bundle = gradcheck.backward_with_components(
        cfg.loss_variant, raw["image"], raw["text"], raw["roi"], raw["tag"],
        state.temperature, cfg.loss,
        guidance_tau=state.guidance_temperature,
    )
    d_raw = {"image": bundle.d_v, "text": bundle.d_t,
             "roi": bundle.d_r, "tag": bundle.d_a}
    grads = {}
    for mod in _MODALITIES:
        if f"{mod}.w1" not in trained:
            continue
        need_input = mod == "roi" and "roi_pool.query" in trained
        head_grads, d_x = _head_backward(state, mod, d_raw[mod], caches[mod],
                                         need_input_grad=need_input)
        grads.update(head_grads)
        if need_input:
            grads.update(_attention_backward(d_x, state.params, agg_cache))
    grads["tau_log_inv"] = np.array([bundle.d_log_inv_tau])
    if "tau_log_inv_guidance" in state.params:
        grads["tau_log_inv_guidance"] = np.array([bundle.d_log_inv_tau_guidance])
    return value, comps, grads


# ---------------------------------------------------------------------------
# schedule and optimizer
# ---------------------------------------------------------------------------

def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear ramp 0 -> peak over the warmup steps, then cosine anneal."""
    if not 0 <= step < total_steps:
        raise ValueError(f"step must be in [0, {total_steps}), got {step}")
    warmup = min(int(round(cfg.warmup_fraction * total_steps)), total_steps - 1)
    if step < warmup:
        return cfg.peak_lr * step / warmup
    progress = (step - warmup) / (total_steps - warmup)
    return cfg.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


def optimizer_step(state: TrainState, grads: dict, lr: float) -> TrainState:
    """One AdamW update under ``state.config`` (in place); decay is decoupled.
    ``grads`` needs every parameter that trains (:func:`param_layout`): a
    missing one raises KeyError naming it. A parameter that does not train
    takes ``p *= 1 - lr*wd`` alone. Its gradient is exactly zero and its
    moments stay +0.0, and ``lr`` is +0.0 or positive and finite, so the
    full update's step ``lr * 0 / eps`` is +0.0 and decay alone equals it
    bit for bit. Those conditions are enforced where their inputs arrive:
    a gradient passed for a frozen parameter, and an ``lr`` that is NaN,
    infinite or below zero (-0.0 included), raise ValueError before
    anything moves; :func:`load_checkpoint` refuses nonzero frozen moments.

    After the whole update, with the step counted, NonFiniteValue names
    the first parameter, in layout order, that it left non-finite. Only
    the parameters the full kernel updated are scanned, and a frozen one
    only when ``|1 - lr*wd| > 1`` (or the factor is NaN): a finite
    parameter times a factor no larger than 1 in size stays finite."""
    cfg = state.config
    if not (0.0 <= lr < math.inf and math.copysign(1.0, lr) > 0.0):
        raise ValueError(f"lr must be +0.0 or positive and finite, got {lr!r}")
    layout = param_layout(_widths(state.params, ""), cfg)
    for name, _, _, trains in layout:
        if not trains and name in grads:
            raise ValueError(f"got a gradient for {name}, which this config freezes")
    t = state.step + 1
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    updated = {}  # the parameters the update may have left non-finite
    for name, _, decays, trains in layout:
        p = state.params[name]
        wd = cfg.weight_decay if decays else 0.0
        if not trains:
            factor = 1.0 - lr * wd
            p *= factor
            if not abs(factor) <= 1.0:
                updated[name] = p
            continue
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(
                f"gradient for {name} has shape {g.shape}, expected {p.shape}"
            )
        backend.adamw_update(
            p.reshape(-1), np.ascontiguousarray(g).reshape(-1),
            state.m[name].reshape(-1), state.v[name].reshape(-1),
            lr, wd, cfg.beta1, cfg.beta2, cfg.adam_eps, bc1, bc2,
        )
        updated[name] = p
    state.step = t
    _require_finite(updated, "parameter")
    return state


def _require_finite(values: dict, what: str) -> None:
    """Raise NonFiniteValue naming the first non-finite entry of ``values``."""
    for name, x in values.items():
        if not all_finite(x):
            raise NonFiniteValue(f"{what} {name!r} is not finite", name=name)


def _epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng((seed, 2, epoch)).permutation(n)


def total_steps_for(dataset: SynthDataset, cfg: TrainConfig) -> int:
    batches = dataset.n // cfg.batch_size
    if batches < 1:
        raise BatchTooSmall(
            f"dataset has {dataset.n} samples < batch_size {cfg.batch_size}"
        )
    return cfg.max_steps if cfg.max_steps is not None else cfg.epochs * batches


def train(dataset: SynthDataset, cfg: TrainConfig,
          state: Optional[TrainState] = None,
          stop_at_step: Optional[int] = None):
    """Run (or resume) a training loop; returns (state, metrics log).

    Batches are drawn without replacement per epoch, dropping the final
    short batch; shuffles derive from (seed, epoch) so a resumed run is
    bitwise identical to an uninterrupted one. ``stop_at_step`` interrupts
    early without changing the schedule (checkpoint and resume later).
    A non-finite head output, loss component or gradient raises
    NonFiniteValue before the update, leaving the state at the last
    finite step; a parameter that an update leaves non-finite raises it
    at that step (:func:`optimizer_step`), with the failing update in the
    state (the CLI then writes no checkpoint).
    A resumed ``state`` must have been trained under ``cfg``
    up to ``max_steps``; any other difference raises ConfigError.
    """
    total = total_steps_for(dataset, cfg)
    batches = dataset.n // cfg.batch_size
    if state is None:
        state = init_state(dataset.spec, cfg)
    else:
        changed = [f.name for f in fields(cfg) if f.name != "max_steps"
                   and getattr(cfg, f.name) != getattr(state.config, f.name)]
        if changed:
            raise ConfigError(
                f"cannot resume: the checkpoint was trained with different "
                f"{', '.join(changed)}; only max_steps may change"
            )
        state.config = cfg
    end = total if stop_at_step is None else min(total, stop_at_step)
    metrics: list[dict] = []
    perm_epoch = -1
    perm = None
    for step in range(state.step, end):
        epoch, b = divmod(step, batches)
        if epoch != perm_epoch:
            perm = _epoch_permutation(cfg.seed, epoch, dataset.n)
            perm_epoch = epoch
        indices = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
        try:
            value, comps, grads = loss_and_grads(state, dataset, indices)
            _require_finite(comps, "loss component")
            _require_finite(grads, "gradient")
            if cfg.grad_clip is not None:
                norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
                if norm > cfg.grad_clip:
                    scale = cfg.grad_clip / norm
                    grads = {k: g * scale for k, g in grads.items()}
            lr = lr_at(step, total, cfg)
            optimizer_step(state, grads, lr)
        except NonFiniteValue as exc:
            raise NonFiniteValue(f"step {step}: {exc}", step=step,
                                 name=exc.name) from exc
        record = {**comps, "step": step, "lr": lr, "total": value,
                  "tau": state.temperature.tau}
        # a column the variant has no component for reads 0
        metrics.append({key: record.get(key, 0.0) for key in METRIC_COLUMNS})
    return state, metrics


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(state: TrainState, path) -> None:
    """Write a checkpoint container; resuming from it is bitwise exact."""
    meta = {
        "config": state.config.to_dict(),
        "step": state.step,
        "param_order": list(state.params.keys()),
    }
    stores = dict(zip(_SLOTS, (state.params, state.m, state.v)))
    arrays = {f"{slot}/{name}": stores[slot][name]
              for name in state.params for slot in _SLOTS}
    container.write(path, CKPT_MAGIC, meta, arrays)


def load_checkpoint(path) -> TrainState:
    """The state :func:`save_checkpoint` wrote. Raises FormatError unless
    ``step`` is an int >= 0, the config is a valid mapping, ``param_order``
    lists the names of the :func:`param_layout` of that config and its
    ``param/*.w1`` widths, and :func:`container.check` passes: the metadata
    holds exactly ``config``, ``step`` and ``param_order``, and the arrays
    are exactly that layout's ``param/``, ``m/`` and ``v/`` entries, each
    at its table shape with finite entries. The moments of a parameter that
    does not train must be all +0.0 bits, as every run leaves them, since
    :func:`optimizer_step` never reads them. The state holds writable
    copies of the arrays, which AdamW updates in place, not views of the
    file's read-only mapping."""
    meta, arrays = container.read(path, CKPT_MAGIC)
    try:
        cfg = TrainConfig.from_dict(meta["config"])
        order, step = meta["param_order"], meta["step"]
        if not isinstance(order, list) or not all(isinstance(n, str) for n in order):
            raise TypeError(f"param_order must be a list of names, got {order!r}")
        if type(step) is not int or step < 0:
            raise ValueError(f"step must be an int >= 0, got {step!r}")
        widths = _widths(arrays, "param/")
    except (KeyError, IndexError, TypeError, ValueError, DegenerateTargets) as exc:
        raise FormatError(f"checkpoint metadata is invalid: {exc!r}") from exc
    layout = param_layout(widths, cfg)
    names = tuple(name for name, _, _, _ in layout)
    if tuple(order) != names:
        differ = sorted(set(order) ^ set(names)) or "none, the order differs"
        raise FormatError("checkpoint param_order does not list the parameters its "
                          f"config builds (names that differ: {differ})")
    table = {f"{slot}/{name}": shape for name, shape, _, _ in layout for slot in _SLOTS}
    container.check(meta, {"config", "step", "param_order"}, arrays, table, "checkpoint")
    params, m, v = ({name: arrays[f"{slot}/{name}"].copy() for name in names}
                    for slot in _SLOTS)
    for name, _, _, trains in layout:
        for slot, store in (("m", m), ("v", v)):
            # an all-zero bit pattern is +0.0 alone
            if not trains and store[name].view(np.uint64).any():
                raise FormatError(f"checkpoint {slot}/{name} is not all +0.0, but "
                                  "its config freezes the parameter")
    return TrainState(params=params, m=m, v=v, step=step, config=cfg)

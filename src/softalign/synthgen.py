"""Synthetic paired datasets with controllable many-to-many structure.

Each sample owns a sparse mixture of shared latent concepts. Image, text
and tag views are fixed random linear maps of the sample latent (plus
Gaussian noise); each of the M region-of-interest (ROI) views maps a
single active concept, standing in for detector features that carry
object-level priors. A fraction of samples are "faulty positives": their
text view is generated from an independently drawn latent, but the
ground-truth relevance matrix keeps scoring them by the pre-corruption
latent, so the oracle sees through the noise the model is fed.

A dataset caches what is derived from it alone, on first use: the pooled
ROI views, the average ranks of its off-diagonal relevance entries, which
every full-set retrieval eval correlates against, and its content hash,
which every result row carries. The cache is read-only and is not
pickled. A forking sweep fills it in the parent, before the pool starts,
and the workers inherit it.

A dataset that :func:`load` reads holds read-only views of a read-only
mapping of its file, so the ROI sequences stay on disk: pooling and
hashing walk them in blocks and release each block's pages, and
attention pooling gathers the rows of each batch from the mapping.
Forked workers inherit the mapping; a pickled copy holds plain arrays.
Do not rewrite the file in place while such a dataset is alive:
:func:`save` renames a new file over the old one, which leaves it intact.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

import numpy as np

from . import config, container, numkit
from .config import flag
from .errors import FormatError, SpecInvalid

MAGIC = "SALB"

# rows of a view that take their noise from one draw; a ROI row is 164 KB
# at the default spec
_NOISE_ROWS = 16

# parameter-free pooling over a ROI sequence's region axis
ROI_POOLS = {"mean": np.mean, "max": np.max, "min": np.min}


@dataclass(frozen=True)
class SynthSpec:
    """Generation parameters; defaults define the standard benchmark set."""

    n_samples: int = flag(2000, "number of paired samples", ge=1)
    n_concepts: int = flag(20, "shared latent concepts", ge=1)
    latent_dim: int = flag(32, "latent dimension", ge=1)
    concepts_per_sample: int = flag(3, "active concepts per sample", ge=1)
    d_image: int = flag(64, "image view width", ge=1)
    d_text: int = flag(48, "text view width", ge=1)
    d_roi: int = flag(2052, "ROI feature width", ge=1)
    d_tag: int = flag(32, "tag view width", ge=1)
    rois_per_image: int = flag(10, "ROI features per sample", ge=1)
    noise_sigma_image: float = flag(0.05, "image view noise sigma", ge=0)
    noise_sigma_text: float = flag(0.05, "text view noise sigma", ge=0)
    noise_sigma_roi: float = flag(0.05, "roi view noise sigma", ge=0)
    noise_sigma_tag: float = flag(0.05, "tag view noise sigma", ge=0)
    faulty_positive_rate: float = flag(
        0.1, "fraction of samples whose text view is unrelated", ge=0, lt=1)
    seed: int = flag(0, ge=0)

    def __post_init__(self):
        config.check(self, SpecInvalid)
        if self.concepts_per_sample > self.n_concepts:
            raise SpecInvalid(f"concepts_per_sample must be <= n_concepts="
                              f"{self.n_concepts}, got {self.concepts_per_sample}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return config.from_dict(cls, d, SpecInvalid)


@dataclass(frozen=True)
class SynthDataset:
    """Generated views plus the ground-truth relevance matrix.

    ``_cache`` holds the lazily derived values: pooled ROI views by mode,
    the relevance ranks and the content hash (:func:`dataset_hash`).
    """

    image_features: np.ndarray   # (n, d_image)
    text_features: np.ndarray    # (n, d_text)
    roi_features: np.ndarray     # (n, M, d_roi)
    tag_features: np.ndarray     # (n, d_tag)
    relevance: np.ndarray        # (n, n), symmetric, unit diagonal
    spec: SynthSpec
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def n(self) -> int:
        return self.spec.n_samples

    def pooled_rois(self, mode: str) -> np.ndarray:
        """The (n, d_roi) ROI view pooled over its regions by a ROI_POOLS mode.

        Pooled once per dataset and mode, on first use, in row blocks
        (:func:`container.row_blocks`); the cached array is read-only. Its
        rows equal pooling each sample's sequence on its own, bit for bit,
        because the reduction runs over the region axis.
        """
        pooled = self._cache.get(mode)
        if pooled is None:
            if mode not in ROI_POOLS:
                raise ValueError(
                    f"mode must be one of {tuple(ROI_POOLS)}, got {mode!r}"
                )
            rois = self.roi_features
            pooled = np.empty((len(rois), rois.shape[-1]))
            r0 = 0
            for block in container.row_blocks(rois):
                pooled[r0:r0 + len(block)] = ROI_POOLS[mode](block, axis=1)
                r0 += len(block)
            pooled.flags.writeable = False
            self._cache[mode] = pooled
        return pooled

    def relevance_ranks(self) -> np.ndarray:
        """Average ranks of the off-diagonal relevance entries, row-major.

        Ranked once per dataset, on first use; the cached array is
        read-only. A full-set retrieval eval correlates its similarity
        ranks against these, so no eval sorts the relevance again. A
        symmetric relevance, as :func:`generate` builds, is ranked from
        its upper triangle (:func:`numkit.off_diagonal_ranks`); a loaded
        one that is not symmetric is ranked in full, to the same ranks.
        """
        ranks = self._cache.get("relevance_ranks")
        if ranks is None:
            ranks = numkit.off_diagonal_ranks(self.relevance)
            ranks.flags.writeable = False
            self._cache["relevance_ranks"] = ranks
        return ranks

    def __getstate__(self):
        # a copy sent to another process derives its own cache
        return {**self.__dict__, "_cache": {}}


def _concept_subsets(rng: np.random.Generator, n: int, k: int, cps: int) -> np.ndarray:
    """Balanced sparse subsets: chunks of repeated seeded permutations.

    Chunking permutations keeps concept usage balanced and guarantees
    distinct concepts per sample whenever n * cps <= k (e.g. one concept
    per sample with k >= n); chunks that straddle a permutation boundary
    and collide are redrawn without replacement.
    """
    need = n * cps
    stream = np.concatenate([
        rng.permutation(k) for _ in range(-(-need // k))
    ])[:need]
    subsets = stream.reshape(n, cps)
    for i in range(n):
        if len(set(subsets[i].tolist())) != cps:
            subsets[i] = rng.choice(k, size=cps, replace=False)
    return subsets


def _mixture_latent(rng: np.random.Generator, concepts: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
    # positive weights bounded away from zero; redraw on near-cancellation
    for _ in range(16):
        w = rng.random(idx.size) + 0.2
        z = w @ concepts[idx]
        norm = float(np.sqrt((z * z).sum()))
        if norm > 1e-9:
            return z / norm
    raise SpecInvalid("could not draw a non-degenerate concept mixture")


def _add_noise(rng: np.random.Generator, view: np.ndarray, sigma: float) -> None:
    """Add ``sigma`` times standard normal noise to ``view`` in place.

    The noise is drawn ``_NOISE_ROWS`` rows at a time. Consecutive draws
    continue one stream, so the sums equal ``view + sigma *
    rng.standard_normal(view.shape)`` bit for bit, with one block of
    scratch rather than a second array the size of the view.
    """
    if sigma > 0:
        buffer = np.empty(view[:_NOISE_ROWS].shape)
        for r0 in range(0, len(view), _NOISE_ROWS):
            block = view[r0:r0 + _NOISE_ROWS]
            noise = rng.standard_normal(out=buffer[:len(block)])
            noise *= sigma
            block += noise


def generate(spec: SynthSpec) -> SynthDataset:
    """Deterministically generate a dataset from its spec.

    Draw order (fixed for reproducibility): concept vectors, the four view
    maps, per-sample concept subsets, per-sample mixture weights and ROI
    concept picks, the faulty-positive mask, replacement latents for
    faulty samples, then per-view Gaussian noise (image, text, tag, ROI),
    drawn in row blocks from the same stream and added in place. Relevance
    uses no draws, and it uses the pre-corruption latents, so raising the
    faulty rate never changes it.
    """
    rng = np.random.default_rng(spec.seed)
    n, k, latent = spec.n_samples, spec.n_concepts, spec.latent_dim
    cps, m = spec.concepts_per_sample, spec.rois_per_image

    concepts = numkit.l2_normalize_rows(rng.standard_normal((k, latent)))
    w_image = rng.standard_normal((latent, spec.d_image))
    w_text = rng.standard_normal((latent, spec.d_text))
    w_roi = rng.standard_normal((latent, spec.d_roi))
    w_tag = rng.standard_normal((latent, spec.d_tag))

    subsets = _concept_subsets(rng, n, k, cps)
    latents = np.empty((n, latent))
    roi_concepts = np.empty((n, m), dtype=np.int64)
    for i in range(n):
        latents[i] = _mixture_latent(rng, concepts, subsets[i])
        roi_concepts[i] = rng.choice(subsets[i], size=m, replace=True)

    faulty = rng.random(n) < spec.faulty_positive_rate
    text_latents = latents.copy()
    for i in np.flatnonzero(faulty):
        fake_idx = rng.choice(k, size=cps, replace=False)
        text_latents[i] = _mixture_latent(rng, concepts, fake_idx)

    image = latents @ w_image
    _add_noise(rng, image, spec.noise_sigma_image)
    text = text_latents @ w_text
    _add_noise(rng, text, spec.noise_sigma_text)
    tag_base = concepts[subsets].mean(axis=1)
    tag = tag_base @ w_tag
    _add_noise(rng, tag, spec.noise_sigma_tag)
    # before the ROI array, so its temporaries are gone when that is built
    relevance = latents @ latents.T
    relevance = 0.5 * (relevance + relevance.T)
    np.clip(relevance, -1.0, 1.0, out=relevance)
    np.fill_diagonal(relevance, 1.0)

    roi = concepts[roi_concepts] @ w_roi
    _add_noise(rng, roi, spec.noise_sigma_roi)

    return SynthDataset(
        image_features=image, text_features=text, roi_features=roi,
        tag_features=tag, relevance=relevance, spec=spec,
    )


def _table(spec: SynthSpec) -> dict[str, tuple[int, ...]]:
    """Name -> shape of each array a dataset of ``spec`` holds, in file order."""
    n = spec.n_samples
    return {
        "image_features": (n, spec.d_image),
        "text_features": (n, spec.d_text),
        "roi_features": (n, spec.rois_per_image, spec.d_roi),
        "tag_features": (n, spec.d_tag),
        "relevance": (n, n),
    }


def _contents(dataset: SynthDataset) -> tuple[dict, dict[str, np.ndarray]]:
    arrays = {name: getattr(dataset, name) for name in _table(dataset.spec)}
    return {"spec": dataset.spec.to_dict()}, arrays


def to_bytes(dataset: SynthDataset) -> bytes:
    return container.pack(MAGIC, *_contents(dataset))


def save(dataset: SynthDataset, path) -> None:
    """Write the dataset container; round-trips bitwise."""
    container.write(path, MAGIC, *_contents(dataset))


def _dataset(meta: dict, arrays: dict[str, np.ndarray]) -> SynthDataset:
    """The dataset a parsed container holds: a valid spec alone, and its
    :func:`_table` under :func:`container.check`. Raises FormatError."""
    try:
        spec = SynthSpec.from_dict(meta["spec"])
    except (KeyError, TypeError, SpecInvalid) as exc:
        raise FormatError(f"dataset header has no valid spec: {exc!r}") from exc
    container.check(meta, {"spec"}, arrays, _table(spec), "dataset")
    return SynthDataset(spec=spec, **arrays)


def from_bytes(blob: bytes) -> SynthDataset:
    return _dataset(*container.unpack(blob, MAGIC))


def load(path) -> SynthDataset:
    return _dataset(*container.read(path, MAGIC))


def dataset_hash(dataset: SynthDataset) -> str:
    """Short stable content hash used in result metadata.

    The sha256 of the dataset's container bytes, fed block by block
    (:func:`container.row_blocks`) so the file image is never assembled
    in memory. Hashed once per dataset, on first use, and cached with its
    other derived values.
    """
    hexdigest = dataset._cache.get("hash")
    if hexdigest is None:
        prefix, datas = container.layout(MAGIC, *_contents(dataset))
        digest = hashlib.sha256(prefix)
        for data in datas:
            for block in container.row_blocks(data):
                digest.update(block)
        hexdigest = dataset._cache["hash"] = digest.hexdigest()[:16]
    return hexdigest

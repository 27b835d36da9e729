"""Weakly supervised estimation of all model parameters from boxed crops.

Supervision is bounding boxes only: no pixel masks enter training. The
stages run in a fixed order, each a pure function of the dataset bytes, the
config, and the seed:

  1. feature dictionary (spherical k-means over pooled scene features)
  2. per-class mixture assignment (k-means over pooled responsibilities)
  3. per-position foreground prior (inside-profile vs ring-profile vote)
  4. per-position foreground and context coefficients
  5. position-independent occluder coefficients from background maps

Stage failures raise TrainingError tagged with the stage name so callers can
tell where a bad dataset broke the pipeline.

Training holds no array that grows with the training set beyond the capped
dictionary sample. The dictionary stage draws its subsample over the total
row count and gathers the kept rows map by map into one float32 array, never
concatenating a pool; the sample is freed when the fit returns. The fit
widens it to float64 one `vmf._ASSIGN_BLOCK`-row block at a time, which is
exact, so the model has the bits a float64 sample gives. Each mixture group
adds its members' responsibilities into running sums (`GroupSums`), one crop
at a time, and computes them once more to count the prior's votes. The crops
are read-only views of the scene maps, so they copy nothing. Besides the
inputs and the model, working memory is thus bounded by the larger of two
stages: the dictionary fit, at 4 * D bytes of sample plus at most four
float64 vectors per sampled row (and one row block and one cosine tile), and
one crop's responsibilities.

`TrainConfig` holds what `compseg train` sets. The ring shrink, the
dictionary sample cap and the k-means iteration cap are the constants
`SHRINK`, `DICT_SAMPLE` and `MAX_ITER`: no caller varies them, the
dictionary fit stops on its own rule well before the cap, and the sample cap
only bounds memory. `train` reads them when it runs, so a test can patch
them on the module.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import TrainingError, ValidationError
from .fmap import FeatureMap, crop, resample_nearest
from .formats import ModelBundle, SceneAnnotation, quantize_bundle
from .models import ClassModel, MixtureModel, OccluderModel
from .vmf import VmfDictionary, fit_dictionary_traced, responsibilities

SHRINK = 0.10          # share of a box's height and width cut off as its ring
DICT_SAMPLE = 150_000  # most rows the dictionary fit draws
MAX_ITER = 100         # cap on the dictionary and mixture k-means iterations


@dataclass(frozen=True)
class TrainConfig:
    """The settings `compseg train` takes."""

    k: int = 64
    m: int = 2
    shared_concentration: float = 30.0
    seed: int = 0


@dataclass
class TrainReport:
    """Side-channel diagnostics; the model bundle never depends on these."""

    dictionary_objective: list[float] = field(default_factory=list)
    dictionary_iterations: int = 0
    dictionary_stop: str = ""  # which rule ended the fit, a `vmf.STOP_*` string
    crop_index: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    mixture_groups: dict[str, list[int]] = field(default_factory=dict)
    group_shapes: dict[str, list[tuple[int, int]]] = field(default_factory=dict)


def _inner_slices(shape: tuple[int, int]) -> tuple[slice, slice]:
    """Row and column slices of the central region `inner_box_mask` marks."""
    h, w = shape
    iy = max(1, int(round(h * SHRINK / 2.0)))
    ix = max(1, int(round(w * SHRINK / 2.0)))
    if 2 * iy >= h or 2 * ix >= w:
        raise ValidationError(f"crop shape {shape} too small for shrink {SHRINK}")
    return slice(iy, h - iy), slice(ix, w - ix)


def inner_box_mask(shape: tuple[int, int]) -> np.ndarray:
    """Central region of a crop after shrinking the box by `SHRINK`.

    The complement (the ring) approximates context pixels: matter inside the
    annotation rectangle but outside the object. At least one ring pixel per
    side is kept so both regions are always nonempty.
    """
    mask = np.zeros(shape, dtype=np.bool_)
    mask[_inner_slices(shape)] = True
    return mask


def canonical_shape(shapes: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Median height and width, each rounded half to even."""
    # statistics.median, not np.median, which imports numpy.ma on first use.
    return (
        round(statistics.median(s[0] for s in shapes)),
        round(statistics.median(s[1] for s in shapes)),
    )


def crop_responsibilities(
    fm: FeatureMap, shape: tuple[int, int], dictionary: VmfDictionary
) -> np.ndarray:
    """Per-position responsibility rows of a crop resampled to `shape`."""
    # Resampling picks whole rows, so it may run before the exact widening.
    arr = np.asarray(resample_nearest(fm.data, shape), dtype=np.float64)
    resp = responsibilities(arr.reshape(-1, fm.dim), dictionary)
    return resp.reshape(shape[0], shape[1], dictionary.size)


def pooled_responsibility(fm: FeatureMap, dictionary: VmfDictionary) -> np.ndarray:
    """Mean responsibility vector over all pixels of a crop (shape-free)."""
    resp = responsibilities(fm.flat(), dictionary)
    return resp.mean(axis=0)


class GroupSums:
    """Running sums over one mixture group's crop responsibilities.

    Every estimate of a mixture is an average over its member crops, so the
    crops' (H, W, K) responsibility tables are added one at a time and never
    stacked. The sums add crop after crop, and within a crop the inner and
    ring rows add row after row: the order in which numpy's axis-0 reductions
    over a (C, H, W, K) block add them, so every estimate has the bits the
    block formulas give.

    The inner (shrunken box) and ring positions split each crop as in
    `inner_box_mask`; `fg_prior` needs the tables a second time.
    """

    def __init__(self, shape: tuple[int, int], k: int):
        self.inner = inner_box_mask(shape)
        self.ring = ~self.inner
        self.ring_size = np.count_nonzero(self.ring)
        self.count = 0
        self.total = np.zeros((*shape, k))
        self.inner_sum = np.zeros(k)
        self.ring_sum = np.zeros(k)

    def add(self, resp: np.ndarray) -> None:
        """Add one crop's (H, W, K) responsibility table."""
        self.total += resp
        self.inner_sum = np.add.reduce(np.concatenate([self.inner_sum[None], resp[self.inner]]))
        self.ring_sum = np.add.reduce(np.concatenate([self.ring_sum[None], resp[self.ring]]))
        self.count += 1

    def fg_prior(self, resps: Iterable[np.ndarray]) -> np.ndarray:
        """Per-position probability that a position carries object matter.

        `resps` yields the added tables again, in the same order. Two pooled
        profiles summarize what object (inner) pixels and ring (context)
        pixels look like in responsibility space. A position votes foreground
        in a crop when its responsibility row projects more onto the inside
        profile than onto the ring profile; the prior is the vote frequency
        over crops.
        """
        if self.count == 0:
            raise TrainingError("prior", "no crops to estimate a prior from")
        abar = self.inner_sum / (self.count * np.count_nonzero(self.inner))
        cbar = self.ring_sum / (self.count * self.ring_size)
        votes = np.zeros(self.inner.shape, dtype=np.int64)
        for resp in resps:
            # (H, W, K) @ (K,) runs one (W, K) product per row, as on the block.
            votes += resp @ abar > resp @ cbar
        return votes / self.count

    def coeffs(self) -> np.ndarray:
        """Per-position mixture coefficients: the mean responsibility row.

        No smoothing: a single crop yields exactly its own responsibility rows.
        """
        if self.count == 0:
            raise TrainingError("coeffs", "no crops to estimate coefficients from")
        mean = self.total / self.count
        return mean / mean.sum(axis=-1, keepdims=True)

    def context_coeffs(self) -> np.ndarray:
        """Per-position context coefficients from ring pixels, add-one smoothed.

        Ring positions average their own responsibility rows across crops plus
        one uniform pseudo-observation. Interior positions never see context
        samples at their own location, so they take the pooled ring profile
        with the same smoothing; they are nearly inert at inference time
        because the context branch carries log(1-p) with p clamped near 1
        there.
        """
        if self.count == 0:
            raise TrainingError("coeffs", "no crops to estimate context from")
        k = self.total.shape[-1]
        uniform = np.full(k, 1.0 / k)
        per_position = (self.total + uniform) / (self.count + 1.0)
        pooled = (self.ring_sum + uniform) / (self.count * self.ring_size + 1.0)
        out = np.where(self.inner[..., None], pooled, per_position)
        return out / out.sum(axis=-1, keepdims=True)


def assign_mixtures(pooled: np.ndarray, m: int, seed) -> np.ndarray:
    """Partition crops into M groups by k-means on pooled responsibilities.

    Euclidean k-means with k-means++ seeding, at most `MAX_ITER` sweeps; an
    empty group is reseeded from the farthest point, so none stays empty.
    """
    vectors = np.asarray(pooled, dtype=np.float64)
    n = vectors.shape[0]
    if m < 1:
        raise TrainingError("mixtures", f"mixture count must be >= 1, got {m}")
    if n < m:
        raise TrainingError("mixtures", f"{n} crops cannot fill {m} mixture groups")
    if m == 1:
        return np.zeros(n, dtype=np.int64)

    rng = np.random.default_rng(seed)
    centers = np.empty((m, vectors.shape[1]))
    centers[0] = vectors[int(rng.integers(n))]
    d2 = np.sum((vectors - centers[0]) ** 2, axis=1)
    for j in range(1, m):
        total = d2.sum()
        if total <= 0:
            centers[j] = vectors[int(rng.integers(n))]
        else:
            centers[j] = vectors[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((vectors - centers[j]) ** 2, axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(MAX_ITER):
        dists = ((vectors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(dists, axis=1)
        moved: list[int] = []
        for j in range(m):
            members = new_assign == j
            if not np.any(members):
                # Reseed from the farthest point; never the same point twice
                # in one sweep or two empty groups would fight over it.
                order = np.argsort(-dists[np.arange(n), new_assign], kind="stable")
                far = next(int(i) for i in order if int(i) not in moved)
                moved.append(far)
                new_assign[far] = j
                members = new_assign == j
            centers[j] = vectors[members].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return assign


def learn_occluder(backgrounds: Sequence[FeatureMap], dictionary: VmfDictionary) -> OccluderModel:
    """Position-independent coefficients from pooled background features."""
    if not backgrounds:
        raise TrainingError("occluder", "no background maps for the occluder")
    total = np.zeros(dictionary.size)
    count = 0
    for fm in backgrounds:
        resp = responsibilities(fm.flat(), dictionary)
        total += resp.sum(axis=0)
        count += resp.shape[0]
    beta = total / count
    return OccluderModel(beta / beta.sum())


def _dictionary_sample(
    maps: Sequence[FeatureMap], size: int, rng: np.random.Generator
) -> np.ndarray:
    """Float32 rows for the dictionary fit: all rows of `maps`, or `size` of them.

    The draw reads nothing but the total row count. The kept rows are then
    gathered map by map straight into the float32 sample, so no pool of all
    rows is ever built. The maps are float32, so the sample is half the size
    of a float64 one; the fit widens it one row block at a time, and widening
    is exact, so the fit sees the rows a float64 pool would give.
    """
    counts = [fm.height * fm.width for fm in maps]
    total = sum(counts)
    if total > size:
        keep = np.sort(rng.choice(total, size=size, replace=False))
    else:
        keep = np.arange(total)
    sample = np.empty((keep.size, maps[0].dim), dtype=np.float32)
    offsets = np.cumsum([0] + counts)
    bounds = np.searchsorted(keep, offsets)
    for fm, offset, lo, hi in zip(maps, offsets, bounds, bounds[1:]):
        sample[lo:hi] = fm.data.reshape(-1, fm.dim)[keep[lo:hi] - offset]
    return sample


def _fit_mixture(
    crops: Sequence[FeatureMap], shape: tuple[int, int], dictionary: VmfDictionary
) -> MixtureModel:
    """One mixture from its member crops, resampled to the group's `shape`.

    One pass adds the members' responsibilities into `GroupSums`; a second
    pass computes them again to count the prior's votes. One crop's
    responsibilities are live at a time.
    """
    sums = GroupSums(shape, dictionary.size)
    for c in crops:
        sums.add(crop_responsibilities(c, shape, dictionary))
    prior = sums.fg_prior(crop_responsibilities(c, shape, dictionary) for c in crops)
    return MixtureModel(prior, sums.coeffs(), sums.context_coeffs())


def _gather_crops(scenes: Sequence[tuple[FeatureMap, SceneAnnotation]]):
    """(label -> [(crop, scene_id)]) over all annotated objects.

    Each crop is a view of its scene map: its readers widen or resample it
    into a copy of their own anyway.
    """
    by_class: dict[str, list] = {}
    for fm, ann in scenes:
        for obj in ann.objects:
            patch = crop(fm, obj.box)
            by_class.setdefault(obj.label, []).append((patch, ann.scene_id))
    return by_class


def _fit_classes(
    by_class: dict[str, list], dictionary: VmfDictionary, config: TrainConfig, report: TrainReport
) -> list[ClassModel]:
    """One class model per label, in label order, from `_gather_crops`'s crops."""
    if not by_class:
        raise TrainingError("dataset", "no annotated objects in training scenes")
    classes = []
    for class_index, label in enumerate(sorted(by_class)):
        entries = by_class[label]
        crops = [e[0] for e in entries]
        report.crop_index[label] = [(e[1], i) for i, e in enumerate(entries)]

        pooled = np.stack([pooled_responsibility(c, dictionary) for c in crops])
        groups = assign_mixtures(pooled, config.m, seed=[config.seed, 1, class_index])
        report.mixture_groups[label] = groups.tolist()

        mixtures = []
        shapes = []
        for g in range(config.m):
            members = [crops[i] for i in np.flatnonzero(groups == g)]
            shape = canonical_shape([c.shape[:2] for c in members])
            shapes.append(shape)
            mixtures.append(_fit_mixture(members, shape, dictionary))
        report.group_shapes[label] = shapes
        classes.append(ClassModel(label, tuple(mixtures)))
    return classes


def train(
    scenes: Sequence[tuple[FeatureMap, SceneAnnotation]],
    backgrounds: Sequence[FeatureMap],
    config: TrainConfig = TrainConfig(),
) -> tuple[ModelBundle, TrainReport]:
    """Run the full estimation pipeline and assemble a quantized bundle.

    The returned bundle has already been rounded through its serialized
    precision, so saving and reloading reproduces it bit-exactly.
    """
    if config.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {config.seed}")
    if not scenes:
        raise TrainingError("dataset", "empty training set")
    report = TrainReport()

    try:
        rng = np.random.default_rng([config.seed, 0])
        maps = [fm for fm, _ in scenes] + list(backgrounds)
        # The sample is drawn before the fit's seed, and as an argument temporary
        # nothing holds it once the fit returns.
        dictionary, trace = fit_dictionary_traced(
            _dictionary_sample(maps, DICT_SAMPLE, rng),
            config.k,
            seed=int(rng.integers(2**32)),
            shared_concentration=config.shared_concentration,
            max_iter=MAX_ITER,
        )
        report.dictionary_objective = trace["objective"]
        report.dictionary_iterations = trace["iterations"]
        report.dictionary_stop = trace["stop"]
    except (ValidationError, ValueError) as exc:
        raise TrainingError("dictionary", str(exc)) from exc

    classes = _fit_classes(_gather_crops(scenes), dictionary, config, report)
    occluder = learn_occluder(backgrounds, dictionary)
    bundle = ModelBundle(dictionary, tuple(classes), occluder)
    return quantize_bundle(bundle), report

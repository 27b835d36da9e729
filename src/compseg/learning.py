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

Training never holds a float64 copy of the feature pool. The dictionary
stage concatenates the maps' float32 rows, draws its subsample and widens only
the sampled rows to float64; the sample is freed when the fit returns. Each
mixture group writes its members' responsibilities into one preallocated
(C, H, W, K) float64 block that the estimators read in place, freed before
the next group starts. Besides the inputs, the float32 crops and the model,
working memory is thus bounded by the larger of (float32 pool + sample) and
one group's block. The crops are freed once the class models are fitted,
before the occluder stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import TrainingError, ValidationError
from .fmap import FeatureMap, crop, resample_nearest
from .formats import ModelBundle, SceneAnnotation, quantize_bundle
from .models import ClassModel, MixtureModel, OccluderModel
from .vmf import STOP_MAX_ITER, VmfDictionary, fit_dictionary_traced, responsibilities


@dataclass(frozen=True)
class TrainConfig:
    k: int = 64
    m: int = 2
    shared_concentration: float = 30.0
    shrink: float = 0.10
    seed: int = 0
    dict_sample: int = 150_000
    max_iter: int = 100


@dataclass
class TrainReport:
    """Side-channel diagnostics; the model bundle never depends on these."""

    dictionary_objective: list[float] = field(default_factory=list)
    dictionary_iterations: int = 0
    dictionary_stop: str = ""  # which rule ended the fit, a `vmf.STOP_*` string
    crop_index: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    mixture_groups: dict[str, list[int]] = field(default_factory=dict)
    group_shapes: dict[str, list[tuple[int, int]]] = field(default_factory=dict)

    @property
    def dictionary_hit_max_iter(self) -> bool:
        return self.dictionary_stop == STOP_MAX_ITER


def _inner_slices(shape: tuple[int, int], shrink: float) -> tuple[slice, slice]:
    """Row and column slices of the central region `inner_box_mask` marks."""
    h, w = shape
    iy = max(1, int(round(h * shrink / 2.0)))
    ix = max(1, int(round(w * shrink / 2.0)))
    if 2 * iy >= h or 2 * ix >= w:
        raise ValidationError(f"crop shape {shape} too small for shrink {shrink}")
    return slice(iy, h - iy), slice(ix, w - ix)


def inner_box_mask(shape: tuple[int, int], shrink: float) -> np.ndarray:
    """Central region of a crop after shrinking the box by `shrink`.

    The complement (the ring) approximates context pixels: matter inside the
    annotation rectangle but outside the object. At least one ring pixel per
    side is kept so both regions are always nonempty.
    """
    mask = np.zeros(shape, dtype=np.bool_)
    mask[_inner_slices(shape, shrink)] = True
    return mask


def canonical_shape(shapes: Sequence[tuple[int, int]]) -> tuple[int, int]:
    hs = np.array([s[0] for s in shapes], dtype=np.float64)
    ws = np.array([s[1] for s in shapes], dtype=np.float64)
    return int(np.rint(np.median(hs))), int(np.rint(np.median(ws)))


def crop_responsibilities(
    fm: FeatureMap, shape: tuple[int, int], dictionary: VmfDictionary
) -> np.ndarray:
    """Per-position responsibility rows of a crop resampled to `shape`."""
    arr = resample_nearest(np.asarray(fm.data, dtype=np.float64), shape)
    flat = arr.reshape(-1, fm.dim)
    resp = responsibilities(flat, dictionary)
    return resp.reshape(shape[0], shape[1], dictionary.size)


def pooled_responsibility(fm: FeatureMap, dictionary: VmfDictionary) -> np.ndarray:
    """Mean responsibility vector over all pixels of a crop (shape-free)."""
    resp = responsibilities(fm.flat(), dictionary)
    return resp.mean(axis=0)


def estimate_fg_prior(resps: np.ndarray, shrink: float) -> np.ndarray:
    """Per-position probability that a position carries object matter.

    `resps` is the (C, H, W, K) block of a group's crop responsibilities. Two
    pooled profiles summarize what object pixels and ring (context) pixels
    look like in responsibility space. A position votes foreground in a crop
    when its responsibility row projects more onto the inside profile than
    onto the ring profile; the prior is the vote frequency over crops.
    """
    if len(resps) == 0:
        raise TrainingError("prior", "no crops to estimate a prior from")
    rows, cols = _inner_slices(resps.shape[1:3], shrink)
    inner = inner_box_mask(resps.shape[1:3], shrink)
    abar = resps[:, rows, cols, :].mean(axis=(0, 1, 2))
    cbar = resps[:, ~inner, :].mean(axis=(0, 1))
    fg_proj = resps @ abar
    ctx_proj = resps @ cbar
    return (fg_proj > ctx_proj).mean(axis=0)


def estimate_coeffs(resps: np.ndarray) -> np.ndarray:
    """Per-position mixture coefficients: the mean responsibility row.

    `resps` is a (C, H, W, K) block. No smoothing: a single crop yields
    exactly its own responsibility rows.
    """
    if len(resps) == 0:
        raise TrainingError("coeffs", "no crops to estimate coefficients from")
    mean = resps.mean(axis=0)
    return mean / mean.sum(axis=-1, keepdims=True)


def estimate_context_coeffs(resps: np.ndarray, shrink: float) -> np.ndarray:
    """Per-position context coefficients from ring pixels, add-one smoothed.

    `resps` is a (C, H, W, K) block. Ring positions average their own
    responsibility rows across crops plus one uniform pseudo-observation.
    Interior positions never see context samples at their own location, so
    they take the pooled ring profile with the same smoothing; they are nearly
    inert at inference time because the context branch carries log(1-p) with
    p clamped near 1 there.
    """
    if len(resps) == 0:
        raise TrainingError("coeffs", "no crops to estimate context from")
    n, h, w, k = resps.shape
    inner = inner_box_mask((h, w), shrink)
    uniform = np.full(k, 1.0 / k)

    ring_sum = resps.sum(axis=0)                  # (H, W, K)
    per_position = (ring_sum + uniform) / (n + 1.0)

    ring_rows = resps[:, ~inner, :].reshape(-1, k)
    pooled = (ring_rows.sum(axis=0) + uniform) / (ring_rows.shape[0] + 1.0)

    out = np.where(inner[..., None], pooled, per_position)
    return out / out.sum(axis=-1, keepdims=True)


def assign_mixtures(pooled: np.ndarray, m: int, seed, max_iter: int) -> np.ndarray:
    """Partition crops into M groups by k-means on pooled responsibilities.

    Euclidean k-means with k-means++ seeding; empty groups are repaired by
    reseeding from the farthest point, so every group is nonempty.
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
    for _ in range(max_iter):
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
    """Float64 rows for the dictionary fit: the pooled rows, or `size` of them.

    The pool is concatenated in float32 and only the kept rows are widened;
    the draw reads nothing but the row count and the widening is exact, so
    the rows are those a float64 pool would give.
    """
    pool = np.concatenate([fm.data.reshape(-1, fm.dim) for fm in maps], axis=0)
    if pool.shape[0] > size:
        pool = pool[np.sort(rng.choice(pool.shape[0], size=size, replace=False))]
    return pool.astype(np.float64)


def _fit_mixture(
    crops: Sequence[FeatureMap], shape: tuple[int, int], dictionary: VmfDictionary, shrink: float
) -> MixtureModel:
    """One mixture from its member crops, resampled to the group's `shape`.

    The members' responsibilities fill one (C, H, W, K) block, read in place
    by the three estimators and freed when this returns.
    """
    block = np.empty((len(crops), *shape, dictionary.size))
    for i, c in enumerate(crops):
        block[i] = crop_responsibilities(c, shape, dictionary)
    return MixtureModel(
        estimate_fg_prior(block, shrink),
        estimate_coeffs(block),
        estimate_context_coeffs(block, shrink),
    )


def _gather_crops(scenes: Sequence[tuple[FeatureMap, SceneAnnotation]]):
    """(label -> [(crop, scene_id, template)]) over all annotated objects."""
    by_class: dict[str, list] = {}
    for fm, ann in scenes:
        for obj in ann.objects:
            patch = crop(fm, obj.box)
            by_class.setdefault(obj.label, []).append((patch, ann.scene_id, obj.template))
    return by_class


def _fit_classes(
    by_class: dict[str, list], dictionary: VmfDictionary, config: TrainConfig, report: TrainReport
) -> list[ClassModel]:
    """One class model per label, in label order, from `_gather_crops`'s crops.

    The crops live only in this frame, so they are freed before the
    occluder stage runs.
    """
    if not by_class:
        raise TrainingError("dataset", "no annotated objects in training scenes")
    classes = []
    for class_index, label in enumerate(sorted(by_class)):
        entries = by_class[label]
        crops = [e[0] for e in entries]
        report.crop_index[label] = [(e[1], i) for i, e in enumerate(entries)]

        pooled = np.stack([pooled_responsibility(c, dictionary) for c in crops])
        groups = assign_mixtures(
            pooled, config.m, seed=[config.seed, 1, class_index], max_iter=config.max_iter
        )
        report.mixture_groups[label] = groups.tolist()

        mixtures = []
        shapes = []
        for g in range(config.m):
            members = [crops[i] for i in np.flatnonzero(groups == g)]
            shape = canonical_shape([c.shape[:2] for c in members])
            shapes.append(shape)
            mixtures.append(_fit_mixture(members, shape, dictionary, config.shrink))
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
    if not scenes:
        raise TrainingError("dataset", "empty training set")
    report = TrainReport()

    try:
        rng = np.random.default_rng([config.seed, 0])
        maps = [fm for fm, _ in scenes] + list(backgrounds)
        # The sample is drawn before the fit's seed, and as an argument temporary
        # nothing holds it once the fit returns.
        dictionary, trace = fit_dictionary_traced(
            _dictionary_sample(maps, config.dict_sample, rng),
            config.k,
            seed=int(rng.integers(2**32)),
            shared_concentration=config.shared_concentration,
            max_iter=config.max_iter,
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

"""Per-class compositional mixture models and their per-pixel likelihood maps.

A class model holds M mixtures. Each mixture covers a canonical lattice and
carries, per position, a foreground prior, foreground mixture coefficients
over the shared dictionary, and context coefficients. A single
position-independent occluder model is shared by every class.

All map math happens in the log domain. The three per-pixel maps are

    fg[i]  = log p(i) + log sum_k a[i,k] pdf_k(f_i)
    ctx[i] = log(1 - p(i)) + log sum_k c[i,k] pdf_k(f_i)
    occ[i] = log p(i) + log sum_k b[k] pdf_k(f_i)

with the prior clamped away from {0, 1} so both logs stay finite.

They are evaluated in factored form. With the component log densities
s[i,k] = sigma cos(f_i, mu_k) - log Z and peak[i] = max_k s[i,k],

    log sum_k a[i,k] pdf_k(f_i) = peak[i] + log sum_k a[i,k] E[i,k],
    E = exp(s - peak)

None of s, peak and E depends on the mixture, so `likelihood_maps` takes
peak and E once per crop from `vmf.shifted_densities`, the step that also
gives training its responsibilities, together with the occluder sum (one
matrix-vector product). It builds all of a crop's candidates into one
(C, 3, h, w) table, a `CandidateMaps`: per mixture, each of its fg and ctx
coefficient planes, already aligned to the crop's lattice, is multiplied
into E with one multiply-reduce, with no exp. A mixture keeps its planes,
log-prior rows and amodal mask aligned to each crop shape it has met, up to
`_ALIGNED_SHAPES` shapes, so a crop whose shape recurs gathers nothing. The
rest runs once for all planes: one underflow check, one log, the peak and
the occluder row; then each mixture's aligned prior rows are added. The
peak component has E = 1, so a sum is small only where the coefficients
put (almost) no weight on it; a row whose sum is below the smallest normal
float is recomputed from its own aligned plane by the exact shifted
logsumexp of `_kernels`.

Classification is split in two. `classify` builds every (class, mixture)
candidate's maps for a crop once and picks the best; `rescore` re-picks over
those same candidates under a visibility grid, as the ORM does for an
occluded object, without touching the crop again. Both score every
candidate in one reduction over the table and take the first maximum. Each
candidate also carries its amodal mask, the mixture's foreground prior at or
above 0.5 on the same lattice, so a pick alone gives an object's labels and
masks: a `ClassifyResult` holds the table and its pick's maps as views into it.

Inputs are validated where they enter. The model dataclasses, the maps and
tables included, check their arrays when built; `likelihood_maps` checks the
crop's D and the occluder's and each mixture's K against the dictionary.
`rescore` checks its visibility grid once per call against the candidates'
shared crop shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ValidationError
from .fmap import FeatureMap, resample_nearest
from .vmf import VmfDictionary, component_cosines, shifted_densities

PRIOR_CLAMP = 1e-6
SIMPLEX_TOL = 1e-6
# Below this a factored mixture sum has lost precision (or is 0).
_TINY = np.finfo(np.float64).tiny
# Crop shapes whose aligned planes a mixture keeps; the desk generator's
# boxes come in 6.
_ALIGNED_SHAPES = 16

# Per-pixel segmentation labels.
LABEL_FG = 0
LABEL_CTX = 1
LABEL_OCC = 2


def _validate_simplex_rows(arr: np.ndarray, what: str) -> np.ndarray:
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{what} contains non-finite entries")
    if np.any(a < -1e-12):
        raise ValidationError(f"{what} contains negative entries")
    a = np.maximum(a, 0.0)
    sums = a.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > SIMPLEX_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValidationError(f"{what} rows must sum to 1 (worst deviation {worst:.2e})")
    return a


@dataclass(frozen=True)
class MixtureModel:
    """One mixture: canonical-lattice prior and coefficient grids.

    A mixture also keeps its planes aligned to the lattice of each crop shape
    it is mapped on (`_aligned_planes`), for the last `_ALIGNED_SHAPES` shapes.
    A shape of P positions holds the fg and ctx coefficient planes, three
    log-prior rows and the amodal mask: (2K + 3) * 8 + 1 bytes a position,
    1,049 at K = 64. The worst case at K = 64 is 16 shapes of the largest
    crop, 16 * 1,049 * P bytes a mixture: 10.5 MB for P = 25 x 25, the desk
    generator's largest box.
    """

    fg_prior: np.ndarray    # (H, W) in [0, 1]
    fg_coeffs: np.ndarray   # (H, W, K), rows on the simplex
    ctx_coeffs: np.ndarray  # (H, W, K), rows on the simplex

    def __post_init__(self):
        prior = np.ascontiguousarray(self.fg_prior, dtype=np.float64)
        if prior.ndim != 2:
            raise ValidationError(f"fg_prior must be 2-d, got {prior.shape}")
        if not np.all(np.isfinite(prior)) or np.any(prior < 0) or np.any(prior > 1):
            raise ValidationError("fg_prior entries must lie in [0, 1]")
        fg = _validate_simplex_rows(self.fg_coeffs, "fg_coeffs")
        ctx = _validate_simplex_rows(self.ctx_coeffs, "ctx_coeffs")
        if fg.shape[:2] != prior.shape or ctx.shape[:2] != prior.shape:
            raise ValidationError(
                f"coefficient grids {fg.shape} / {ctx.shape} do not match prior {prior.shape}"
            )
        if fg.shape[2] != ctx.shape[2]:
            raise ValidationError("fg and ctx coefficient grids disagree on K")
        clamped = np.clip(prior, PRIOR_CLAMP, 1.0 - PRIOR_CLAMP).reshape(-1)
        log_p = np.log(clamped)
        # Per flat position, the prior terms of the fg, ctx and occ maps and
        # the amodal mask, each gathered onto a crop's lattice in one take.
        log_priors = np.stack([log_p, np.log1p(-clamped), log_p])
        amodal = prior.reshape(-1) >= 0.5
        for name, arr in (
            ("fg_prior", prior), ("fg_coeffs", fg), ("ctx_coeffs", ctx),
            ("_log_priors", log_priors), ("_amodal", amodal),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_aligned", {})

    def _aligned_planes(self, shape: tuple[int, int]) -> tuple[np.ndarray, ...]:
        """The (P, K) fg and ctx coefficient planes, the (3, P) log-prior rows
        and the (P,) amodal mask on a `shape` lattice, read-only, each placed
        as `resample_nearest` puts it: built on a shape's first use and kept.
        When full, the cache drops its oldest shape."""
        cache = self._aligned
        planes = cache.get(shape)
        if planes is None:
            idx = resample_nearest(np.arange(self._amodal.size).reshape(self.shape),
                                   shape).reshape(-1)
            k = self.n_components
            planes = (self.fg_coeffs.reshape(-1, k)[idx], self.ctx_coeffs.reshape(-1, k)[idx],
                      self._log_priors[:, idx], self._amodal[idx])
            for arr in planes:
                arr.setflags(write=False)
            if len(cache) >= _ALIGNED_SHAPES:
                # the oldest shape; `tuple` reads the keys in one step, so
                # threads sharing the mixture at worst build a shape twice
                cache.pop(tuple(cache)[0], None)
            cache[shape] = planes
        return planes

    @property
    def shape(self) -> tuple[int, int]:
        return self.fg_prior.shape

    @property
    def n_components(self) -> int:
        return self.fg_coeffs.shape[2]


@dataclass(frozen=True)
class ClassModel:
    label: str
    mixtures: tuple[MixtureModel, ...]

    def __post_init__(self):
        if not self.label:
            raise ValidationError("class label must be non-empty")
        mixtures = tuple(self.mixtures)
        if not mixtures:
            raise ValidationError(f"class {self.label!r} has no mixtures")
        k = mixtures[0].n_components
        if any(m.n_components != k for m in mixtures):
            raise ValidationError(f"class {self.label!r} mixes component counts")
        object.__setattr__(self, "mixtures", mixtures)


@dataclass(frozen=True)
class OccluderModel:
    """Position-independent outlier model: one coefficient row."""

    coeffs: np.ndarray  # (K,) on the simplex

    def __post_init__(self):
        c = _validate_simplex_rows(np.asarray(self.coeffs, dtype=np.float64), "occluder coeffs")
        if c.ndim != 1:
            raise ValidationError(f"occluder coeffs must be 1-d, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class LikelihoodMaps:
    """One candidate on one lattice: the three per-pixel log maps and the
    bool amodal mask, the mixture's foreground prior thresholded at 0.5."""

    fg: np.ndarray
    ctx: np.ndarray
    occ: np.ndarray
    amodal: np.ndarray

    def __post_init__(self):
        fg = np.asarray(self.fg, dtype=np.float64)
        ctx = np.asarray(self.ctx, dtype=np.float64)
        occ = np.asarray(self.occ, dtype=np.float64)
        amodal = np.asarray(self.amodal)
        if fg.shape != ctx.shape or fg.shape != occ.shape or fg.ndim != 2:
            raise ValidationError("likelihood maps must share one 2-d shape")
        if amodal.shape != fg.shape or amodal.dtype != np.bool_:
            raise ValidationError(f"amodal mask must be a bool plane of shape {fg.shape}")
        for name, arr in (("fg", fg), ("ctx", ctx), ("occ", occ), ("amodal", amodal)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.fg.shape


def _check_k(dictionary: VmfDictionary, k: int, what: str) -> None:
    if k != dictionary.size:
        raise ValidationError(
            f"{what} has K={k} but dictionary has {dictionary.size} components"
        )


def _exact_loglik(
    features: np.ndarray, dictionary: VmfDictionary, coeffs: np.ndarray, low: np.ndarray
) -> np.ndarray:
    """The exact log-likelihood at rows `low` from `_kernels.mixture_loglik`,
    fed their cosines (the product `shifted_densities` takes) and the log
    of `coeffs`: one (K,) row every position shares, or (P, K) aligned rows."""
    with np.errstate(divide="ignore"):
        log_coeffs = np.log(coeffs if coeffs.ndim == 1 else coeffs[low])
    cos = component_cosines(features, dictionary)[low]
    return _kernels.mixture_loglik(cos, dictionary.concentration, dictionary.log_z, log_coeffs)


def _log_factored(sums: np.ndarray, peak: np.ndarray, exact_rows) -> None:
    """Factored sums, planes of P positions, to peak + log(sum) in place.

    A sum below the smallest normal float has lost precision (or is 0), so
    those positions of a plane take `exact_rows(plane, low)` instead: the
    exact logsumexp at positions `low` of the plane at index `plane`.
    """
    lost = []
    if sums.size and sums.min() < _TINY:
        for plane in zip(*np.nonzero((sums < _TINY).any(axis=-1))):
            low = np.flatnonzero(sums[plane] < _TINY)
            lost.append((plane, low, exact_rows(plane, low)))
        np.maximum(sums, _TINY, out=sums)
    np.log(sums, out=sums)
    sums += peak
    for plane, low, exact in lost:
        sums[plane][low] = exact


@dataclass(frozen=True)
class CandidateMaps:
    """Every (class, mixture) candidate of one crop on the crop's (h, w)
    lattice, stacked class by class with each class's mixtures in order:
    `table[c]` holds candidate c's fg, ctx and occ log maps and `amodal[c]`
    its amodal mask, both read-only, and `per_class` counts each class's
    candidates. `candidates[c]` is candidate c as `LikelihoodMaps` views."""

    table: np.ndarray   # (C, 3, h, w) float64
    amodal: np.ndarray  # (C, h, w) bool
    per_class: tuple[int, ...]

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        amodal = np.asarray(self.amodal)
        per_class = tuple(self.per_class)
        if not per_class or min(per_class) < 1:
            raise ValidationError(
                f"candidates need at least one class of at least one mixture, got {per_class}"
            )
        if table.ndim != 4 or table.shape[:2] != (sum(per_class), 3):
            raise ValidationError(
                f"candidate table {table.shape} is not (C, 3, h, w) for C = sum{per_class}"
            )
        if amodal.shape != (len(table), *table.shape[2:]) or amodal.dtype != np.bool_:
            raise ValidationError(f"amodal masks must be a bool stack of shape "
                                  f"{(len(table), *table.shape[2:])}")
        for name, arr in (("table", table), ("amodal", amodal)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "per_class", per_class)

    @property
    def shape(self) -> tuple[int, int]:
        return self.table.shape[2:]

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getitem__(self, c: int) -> LikelihoodMaps:
        fg, ctx, occ = self.table[c]
        return LikelihoodMaps(fg, ctx, occ, self.amodal[c])


def likelihood_maps(
    crop: FeatureMap,
    mixtures: Sequence[Sequence[MixtureModel]],
    dictionary: VmfDictionary,
    occluder: OccluderModel,
) -> CandidateMaps:
    """The three log maps and amodal mask of each mixture on the crop's own
    lattice, stacked: `mixtures` gives each class's mixtures, class by class.
    The crop may be a strided view of its scene (`fmap.crop`).

    Each mixture's planes are aligned to the crop's lattice by nearest
    neighbour, as `resample_nearest` would: one nearest-neighbour step in
    total, not one on the way in and one back out, which matters once part
    layouts vary at a few-pixel scale. The mixture keeps them per crop shape
    (`MixtureModel`), so each coefficient plane costs one multiply-reduce and
    a recurring shape gathers nothing; the logs and the peak are then taken
    for all planes at once, and each mixture's aligned prior rows added.
    """
    _check_k(dictionary, occluder.n_components, "occluder")
    if crop.dim != dictionary.dim:
        raise ValidationError(
            f"crop dim {crop.dim} does not match dictionary dim {dictionary.dim}"
        )
    features = crop.flat()
    # One (P, K) buffer goes from the cosines to s to E in place. The cosines
    # are not kept, since every fresh (P, K) array is memory traffic and, in
    # a process whose heap is still small, page faults; the rare exact
    # fallback takes the same product again.
    peak, scaled = shifted_densities(features, dictionary)
    occ = scaled @ occluder.coeffs
    _log_factored(occ[None], peak, lambda plane, low: _exact_loglik(
        features, dictionary, occluder.coeffs, low))

    per_class = tuple(len(row) for row in mixtures)
    mixtures = [mixture for row in mixtures for mixture in row]
    for mixture in mixtures:
        _check_k(dictionary, mixture.n_components, "mixture")
    aligned = [mixture._aligned_planes(crop.shape) for mixture in mixtures]
    c, p = len(mixtures), len(features)
    table = np.empty((c, 3, p))
    amodal = np.empty((c, p), dtype=np.bool_)
    for planes, mask, (fg, ctx, _, aligned_mask) in zip(table, amodal, aligned):
        np.einsum("ik,ik->i", fg, scaled, out=planes[0])
        np.einsum("ik,ik->i", ctx, scaled, out=planes[1])
        mask[:] = aligned_mask
    _log_factored(table[:, :2], peak, lambda plane, low: _exact_loglik(
        features, dictionary, aligned[plane[0]][plane[1]], low))
    table[:, 2] = occ
    for planes, (_, _, log_priors, _) in zip(table, aligned):
        planes += log_priors
    h, w = crop.shape
    return CandidateMaps(table.reshape(c, 3, h, w), amodal.reshape(c, h, w), per_class)


def _check_visibility(visibility, shape: tuple[int, int]) -> np.ndarray:
    """A binary visibility grid of `shape` as bool."""
    z = np.asarray(visibility)
    if z.shape != shape:
        raise ValidationError(f"visibility shape {z.shape} does not match maps {shape}")
    if z.dtype != np.bool_ and not np.all((z == 0) | (z == 1)):
        raise ValidationError("visibility grid must be binary")
    return z.astype(np.bool_, copy=False)


@dataclass(frozen=True)
class ClassifyResult:
    """The pick among a crop's candidates; `maps` are its views into the table."""

    class_index: int
    mixture_index: int
    score: float
    candidates: CandidateMaps
    maps: LikelihoodMaps = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        per_class = self.candidates.per_class
        if not (0 <= self.class_index < len(per_class)
                and 0 <= self.mixture_index < per_class[self.class_index]):
            raise ValidationError(f"no candidate ({self.class_index}, {self.mixture_index}) "
                                  f"among classes of {per_class} mixtures")
        index = sum(per_class[:self.class_index]) + self.mixture_index
        object.__setattr__(self, "maps", self.candidates[index])


def classify(
    crop: FeatureMap,
    classes: Sequence[ClassModel],
    dictionary: VmfDictionary,
    occluder: OccluderModel,
) -> ClassifyResult:
    """Best (class, mixture) for a crop, picked by `rescore` from its candidate maps.

    Every candidate is mapped on the crop's own lattice, so totals stay
    comparable across mixtures whose canonical shapes differ; one
    `likelihood_maps` call stacks every candidate into one table.
    """
    return rescore(likelihood_maps(crop, [cls.mixtures for cls in classes],
                                   dictionary, occluder))


def _scores(candidates: CandidateMaps, visible: np.ndarray | None) -> np.ndarray:
    """Every candidate's score in one reduction, the one statement of both
    score rules: without a grid the sum over pixels of max(fg, ctx, occ),
    with a bool grid the sum of fg where it is True and occ elsewhere.

    Each candidate's maps are contiguous in the table, so each row of the
    (C, h*w) reduction is summed as `np.sum` sums that candidate's plane,
    to the same bits."""
    fg, ctx, occ = candidates.table.reshape(len(candidates), 3, -1).transpose(1, 0, 2)
    if visible is None:
        per_pixel = np.maximum(np.maximum(fg, ctx), occ)
    else:
        per_pixel = np.where(visible.reshape(-1), fg, occ)
    return per_pixel.sum(axis=1)


def rescore(candidates: CandidateMaps, visibility: np.ndarray | None = None) -> ClassifyResult:
    """Best of `classify`'s candidate maps; ties go to the lowest indices.

    Without a visibility grid a candidate scores the sum over pixels of its
    best branch, max(fg, ctx, occ): the crop's total log-likelihood. A binary
    visibility grid, in crop coordinates, scores the foreground map where it
    is 1 and the occluder map where it is 0. The maps do not depend on it,
    so re-scoring an occluded object needs neither its crop nor new maps.
    The grid is checked once, against the candidates' shared lattice, and
    taken as a bool grid that one `np.where` reads for every candidate: each
    element is the one z*fg + (1-z)*occ gives for finite maps, and each
    candidate's sum is `np.sum(np.where(visible, fg, occ))` to the bit.
    """
    visible = None
    if visibility is not None:
        visible = _check_visibility(visibility, candidates.shape)
    scores = _scores(candidates, visible)
    best = int(np.argmax(scores))  # the first maximum
    class_index, mixture_index = 0, best
    while mixture_index >= candidates.per_class[class_index]:
        mixture_index -= candidates.per_class[class_index]
        class_index += 1
    return ClassifyResult(class_index, mixture_index, float(scores[best]), candidates)


def segment_single(maps: LikelihoodMaps) -> np.ndarray:
    """Per-pixel argmax over the three maps; ties prefer FG, then OCC."""
    fg, ctx, occ = maps.fg, maps.ctx, maps.occ
    out = np.full(maps.shape, LABEL_CTX, dtype=np.int8)
    occ_beats_ctx = occ >= ctx
    out[occ_beats_ctx] = LABEL_OCC
    fg_wins = (fg >= ctx) & (fg >= occ)
    out[fg_wins] = LABEL_FG
    return out


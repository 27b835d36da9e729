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
s[i,k] = sigma_k cos(f_i, mu_k) - log Z_k and peak[i] = max_k s[i,k],

    log sum_k a[i,k] pdf_k(f_i) = peak[i] + log sum_k a[i,k] E[i,k],
    E = exp(s - peak)

None of s, peak and E depends on the mixture, so `crop_evidence` takes peak
and E once per crop from `vmf.shifted_densities`, the step that also gives
training its responsibilities, together with the occluder sum (one
matrix-vector product). `likelihood_maps` then builds a mixture's fg and ctx
maps with one multiply-reduce each, with no exp. The peak component has E = 1, so a sum is
small only where the coefficients put (almost) no weight on it; a row whose
sum is below the smallest normal float is recomputed by the exact shifted
logsumexp of `_kernels`.

Classification is split in two. `classify` builds every (class, mixture)
candidate's maps for a crop once and picks the best; `rescore` re-picks over
those same candidates under a visibility grid, as the ORM does for an
occluded object, without touching the crop again. Each candidate also
carries its amodal mask, the mixture's foreground prior at or above 0.5 on
the same lattice, so a pick alone gives an object's labels and masks.

Inputs are validated where they enter. The model dataclasses, the maps
included, check their arrays when built, `crop_evidence` checks the crop
against the dictionary and `likelihood_maps` checks K. `rescore` checks its
visibility grid once per call against the candidates' shared crop shape.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import ValidationError
from .fmap import FeatureMap, resample_nearest
from .vmf import VmfDictionary, shifted_densities

PRIOR_CLAMP = 1e-6
SIMPLEX_TOL = 1e-6
# Below this a factored mixture sum has lost precision (or is 0).
_TINY = np.finfo(np.float64).tiny

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
    """One mixture: canonical-lattice prior and coefficient grids."""

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
        clamped = np.clip(prior, PRIOR_CLAMP, 1.0 - PRIOR_CLAMP)
        for name, arr in (
            ("fg_prior", prior), ("fg_coeffs", fg), ("ctx_coeffs", ctx),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_log_p", np.log(clamped))
        object.__setattr__(self, "_log_1mp", np.log1p(-clamped))

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


@dataclass(frozen=True)
class CropEvidence:
    """The mixture-independent terms of one crop, on the crop's lattice.

    Per position i: `peak` = max_k s[i,k], `scaled` = exp(s - peak) and `occ`
    the occluder log-likelihood without its prior term. The crop's float64
    rows are kept for the exact fallback, which recomputes its cosines.
    """

    shape: tuple[int, int]
    dictionary: VmfDictionary
    features: np.ndarray  # (P, D)
    peak: np.ndarray      # (P,)
    scaled: np.ndarray    # (P, K)
    occ: np.ndarray       # (P,)


def _factored_loglik(
    peak: np.ndarray, total: np.ndarray, kernel, features: np.ndarray,
    dictionary: VmfDictionary, coeffs: np.ndarray,
) -> np.ndarray:
    """peak + log(total). Rows whose total is not a normal float come from the
    exact `kernel`, fed their cosines (the product `crop_evidence` takes) and
    the log of `coeffs`: one (K,) row every position shares, or (P, K)."""
    if total.min() >= _TINY:
        return peak + np.log(total)
    low = np.flatnonzero(total < _TINY)
    out = peak + np.log(np.maximum(total, _TINY))
    with np.errstate(divide="ignore"):
        log_coeffs = np.log(coeffs if coeffs.ndim == 1 else coeffs[low])
    out[low] = kernel((features @ dictionary.means.T)[low], dictionary.concentrations,
                      dictionary.log_normalizers, log_coeffs)
    return out


def crop_evidence(
    crop: FeatureMap, dictionary: VmfDictionary, occluder: OccluderModel
) -> CropEvidence:
    """Per-crop terms that the maps of every mixture share, on the crop's lattice.

    The peak and E come from `vmf.shifted_densities` over the crop's rows,
    the same step training takes for its responsibilities. The crop may be a
    strided view of its scene (`fmap.crop`).

    Scoring every mixture on the crop's own lattice aligns the coefficient
    planes to the data (one nearest-neighbour step in total rather than one
    on the way in and one on the way back out, which matters once part
    layouts vary at a few-pixel scale).
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
    occ = _factored_loglik(peak, scaled @ occluder.coeffs, _kernels.shared_mixture_loglik,
                           features, dictionary, occluder.coeffs)
    return CropEvidence(crop.shape, dictionary, features, peak, scaled, occ)


def _mixture_loglik(evidence: CropEvidence, coeffs: np.ndarray) -> np.ndarray:
    """Per-position log-likelihood under (P, K) linear coefficients."""
    total = np.einsum("ik,ik->i", coeffs, evidence.scaled)
    return _factored_loglik(evidence.peak, total, _kernels.mixture_loglik,
                            evidence.features, evidence.dictionary, coeffs)


@functools.lru_cache(maxsize=1024)
def _plane_index(src: tuple[int, int], dst: tuple[int, int]) -> np.ndarray:
    """Flat `src`-plane index of the position `resample_nearest` puts at each `dst` one."""
    idx = resample_nearest(np.arange(src[0] * src[1]).reshape(src), dst).reshape(-1)
    idx.setflags(write=False)
    return idx


def likelihood_maps(evidence: CropEvidence, mixture: MixtureModel) -> LikelihoodMaps:
    """The three log maps and amodal mask of one mixture on the evidence's lattice.

    The mixture's planes are aligned to that lattice by nearest neighbour,
    as `resample_nearest` would, through one flat index into each plane.
    """
    _check_k(evidence.dictionary, mixture.n_components, "mixture")
    h, w = evidence.shape
    k = mixture.n_components
    idx = _plane_index(mixture.shape, evidence.shape)
    log_p = mixture._log_p.reshape(-1)[idx]
    log_1mp = mixture._log_1mp.reshape(-1)[idx]
    fg_ll = _mixture_loglik(evidence, np.take(mixture.fg_coeffs.reshape(-1, k), idx, axis=0))
    ctx_ll = _mixture_loglik(evidence, np.take(mixture.ctx_coeffs.reshape(-1, k), idx, axis=0))
    return LikelihoodMaps(
        (log_p + fg_ll).reshape(h, w),
        (log_1mp + ctx_ll).reshape(h, w),
        (log_p + evidence.occ).reshape(h, w),
        (mixture.fg_prior.reshape(-1)[idx] >= 0.5).reshape(h, w),
    )


def _check_visibility(visibility, shape: tuple[int, int]) -> np.ndarray:
    """A binary visibility grid of `shape` as bool."""
    z = np.asarray(visibility)
    if z.shape != shape:
        raise ValidationError(f"visibility shape {z.shape} does not match maps {shape}")
    if z.dtype != np.bool_ and not np.all((z == 0) | (z == 1)):
        raise ValidationError("visibility grid must be binary")
    return z.astype(np.bool_, copy=False)


def image_loglik(maps: LikelihoodMaps) -> float:
    """Total log-likelihood of a crop from its maps: every pixel takes its best branch."""
    return float(np.sum(np.maximum(np.maximum(maps.fg, maps.ctx), maps.occ)))


@dataclass(frozen=True)
class ClassifyResult:
    """The pick; its maps are `candidates[class_index][mixture_index]`."""

    class_index: int
    mixture_index: int
    score: float
    candidates: tuple[tuple[LikelihoodMaps, ...], ...]  # per class, per mixture


def classify(
    crop: FeatureMap,
    classes: Sequence[ClassModel],
    dictionary: VmfDictionary,
    occluder: OccluderModel,
) -> ClassifyResult:
    """Best (class, mixture) for a crop, picked by `rescore` from its candidate maps.

    Every candidate is mapped on the crop's own lattice, so totals stay
    comparable across mixtures whose canonical shapes differ; the crop's
    evidence is computed once and shared by all of them.
    """
    evidence = crop_evidence(crop, dictionary, occluder)
    candidates = tuple(
        tuple(likelihood_maps(evidence, mixture) for mixture in cls.mixtures)
        for cls in classes
    )
    return rescore(candidates)


def rescore(
    candidates: tuple[tuple[LikelihoodMaps, ...], ...],
    visibility: np.ndarray | None = None,
) -> ClassifyResult:
    """Best of `classify`'s candidate maps; ties go to the lowest indices.

    Without a visibility grid a candidate scores `image_loglik`. A binary
    visibility grid, in crop coordinates, scores the foreground map where it
    is 1 and the occluder map where it is 0. The maps do not depend on it,
    so re-scoring an occluded object needs neither its crop nor new maps.
    The candidates share the crop's lattice, so the grid is checked once,
    against the first candidate's shape, and taken as a bool grid that
    `np.where` reads for every candidate: each element is the one
    z*fg + (1-z)*occ gives for finite maps, so the sums are the same bits.
    """
    if not candidates:
        raise ValidationError("classify needs at least one class model")
    if visibility is None:
        score_of = image_loglik
    else:
        visible = _check_visibility(visibility, candidates[0][0].shape)

        def score_of(maps: LikelihoodMaps) -> float:
            return float(np.sum(np.where(visible, maps.fg, maps.occ)))

    best = None
    for ci, row_maps in enumerate(candidates):
        for mi, maps in enumerate(row_maps):
            score = score_of(maps)
            if best is None or score > best[0]:
                best = (score, ci, mi)
    score, ci, mi = best
    return ClassifyResult(ci, mi, score, candidates)


def segment_single(maps: LikelihoodMaps) -> np.ndarray:
    """Per-pixel argmax over the three maps; ties prefer FG, then OCC."""
    fg, ctx, occ = maps.fg, maps.ctx, maps.occ
    out = np.full(maps.shape, LABEL_CTX, dtype=np.int8)
    occ_beats_ctx = occ >= ctx
    out[occ_beats_ctx] = LABEL_OCC
    fg_wins = (fg >= ctx) & (fg >= occ)
    out[fg_wins] = LABEL_FG
    return out


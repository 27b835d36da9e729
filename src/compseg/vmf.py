"""von Mises-Fisher dictionaries and spherical k-means fitting.

Directions live on the unit sphere in R^D. A dictionary is a bank of K vMF
components, a unit mean and a concentration each, over one feature
dimensionality; all likelihood math runs in float64 and is pure, so a fitted
dictionary can be shared across threads.

A fitted dictionary gives every component one shared concentration sigma,
as the kernels of CompositionalNets share theirs; training passes it in. The
k-means fit assigns in row blocks, sums cluster members with one scatter per
row block and reads its objective, sum_j ||r_j|| / n, off those sums. It stops
at the first iteration whose objective gain is below the standard error of the
objective, std(own) / sqrt(n) over the iteration's assignment cosines: the
objective is a mean over a sample of feature vectors (training fits a random
subsample of its feature pool), so a smaller gain cannot be told apart from
redrawing that sample. No tolerance constant is involved.

One step turns features into evidence for both learning and inference:
`shifted_densities` gives each row's peak component log density and the
shifted densities E = exp(s - peak). `responsibilities` normalises E for
training; `models.crop_evidence` keeps peak and E for the likelihood maps.

The normaliser needs one exponentially scaled Bessel value, computed here in
float64 with the standard library (see `log_normalizer`), so the package
needs no SciPy.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# Below this concentration the normaliser is evaluated analytically as the
# sphere surface area; the Bessel expression is continuous through the
# switch but its sigma^(1-D/2) factor is numerically indeterminate at 0.
_SIGMA_ANALYTIC_LIMIT = 1e-8

_UNIT_TOL = 1e-5


def log_sphere_area(dim: int) -> float:
    """log of the surface area of the unit sphere S^(dim-1) in R^dim."""
    return float(np.log(2.0) + (dim / 2.0) * np.log(np.pi) - math.lgamma(dim / 2.0))


# log of the smallest normal float64: a series whose first term lies below it
# is summed in logs instead.
_LOG_TINY = math.log(sys.float_info.min)


def _add_terms_after(total: float, term: float, k: int, order: float, q: float) -> float:
    """Add the Bessel series' terms after term k (`term`) to `total`, until
    one no longer changes it."""
    while True:
        k += 1
        term *= q / (k * (k + order))
        if total + term == total:
            return total
        total += term


def _log_ive(order: float, x: float) -> float:
    """log ive(order, x), with ive(v, x) = I_v(x) * exp(-x), for x > 0.

    I_v(x) = sum_k (x/2)^(2k+v) / (k! Gamma(k+v+1)); each term is the one
    before times q / (k (k+v)), with q = x^2/4. Three ways to sum it:

    - When the k = 0 term times exp(-x) is a normal float, the series runs
      forward from it in float64 until a term no longer changes the sum.
    - Otherwise, when v^2 <= 2x, Hankel's large-x expansion
      ive ~ (2 pi x)^(-1/2) sum_k (-1)^k prod_{j<=k} (4v^2 - (2j-1)^2) / (k! (8x)^k).
      The first term underflows only at x > 700 there, where the terms fall
      from the first one on, and the sum ends at the first term below an
      ulp of the sum. For half-integer v it is finite and exact.
    - Otherwise (tiny x, or x < v^2 / 2 with large v) the power series runs
      in logs, from its largest term outward in both directions, so no term
      under- or overflows.
    """
    log_first = order * math.log(x / 2.0) - x - math.lgamma(order + 1.0)
    q = x * x / 4.0
    if log_first > _LOG_TINY:
        first = math.exp(log_first)
        # np.log and math.log differ in the last bit on some inputs; the
        # model pins rest on np.log's value at sigma = 30, D = 16.
        return float(np.log(_add_terms_after(first, first, 0, order, q)))
    if order * order <= 2.0 * x:
        mu = 4.0 * order * order
        term = total = 1.0
        k = 0
        while True:
            k += 1
            term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
            if total + term == total:
                return math.log(total) - 0.5 * (math.log(2.0 * math.pi) + math.log(x))
            total += term
    # the largest term has the largest k with k (k + order) <= q
    peak = int((math.sqrt(order * order + 4.0 * q) - order) / 2.0)
    log_peak = (
        (2 * peak + order) * math.log(x / 2.0)
        - x
        - math.lgamma(peak + 1.0)
        - math.lgamma(peak + order + 1.0)
    )
    total = term = 1.0
    for k in range(peak, 0, -1):
        term *= k * (k + order) / q
        if total + term == total:
            break
        total += term
    return log_peak + math.log(_add_terms_after(total, 1.0, peak, order, q))


def log_normalizer(sigma: float, dim: int) -> float:
    """log of the vMF normalising constant Z(sigma) on S^(dim-1).

    Z(sigma) = (2 pi)^(d/2) * I_{d/2-1}(sigma) / sigma^(d/2-1), with the
    sigma -> 0 limit equal to the sphere surface area. The Bessel value
    enters as ive = I * exp(-sigma), from `_log_ive`, which keeps the
    expression finite for large sigma; it needs only the standard library.
    For D from 2 to 1024 and sigma from 1e-7 to 1e7 it is within 4e-14
    relative of a 50-digit evaluation and of SciPy's `ive` and `gammaln`.
    It is finite for every finite sigma, also where SciPy's `ive` underflows
    to 0 (sigma = 1e-6 at D = 128, say).

    >>> round(log_normalizer(0.0, 3), 6)  # log(4 pi)
    2.531024
    """
    if dim < 2 or int(dim) != dim:
        raise ValidationError(f"dimension must be an integer >= 2, got {dim}")
    if not np.isfinite(sigma) or sigma < 0:
        raise ValidationError(f"concentration must be finite and >= 0, got {sigma}")
    if sigma < _SIGMA_ANALYTIC_LIMIT:
        return log_sphere_area(int(dim))
    order = dim / 2.0 - 1.0
    return float(
        (dim / 2.0) * np.log(2.0 * np.pi)
        + _log_ive(order, float(sigma))
        + sigma
        - order * np.log(sigma)
    )


def _check_unit(vec: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(vec, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"{what} must be 1-d, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValidationError(f"{what} must be unit-norm, got norm {norm}")
    return v


@dataclass(frozen=True)
class VmfDictionary:
    """Bank of K vMF components over a shared feature dimension."""

    means: np.ndarray            # (K, D) unit rows, float64
    concentrations: np.ndarray   # (K,) float64

    def __post_init__(self):
        means = np.ascontiguousarray(self.means, dtype=np.float64)
        conc = np.ascontiguousarray(self.concentrations, dtype=np.float64)
        if means.ndim != 2 or means.shape[0] < 1:
            raise ValidationError(f"means must be (K, D) with K >= 1, got {means.shape}")
        if conc.shape != (means.shape[0],):
            raise ValidationError(
                f"concentrations shape {conc.shape} does not match K={means.shape[0]}"
            )
        norms = np.linalg.norm(means, axis=1)
        # written so that a NaN norm fails too
        if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):
            raise ValidationError("dictionary means must be unit-norm")
        if np.any(~np.isfinite(conc)) or np.any(conc < 0):
            raise ValidationError("concentrations must be finite and >= 0")
        log_z = np.array([log_normalizer(s, means.shape[1]) for s in conc])
        means.setflags(write=False)
        conc.setflags(write=False)
        log_z.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "concentrations", conc)
        object.__setattr__(self, "_log_z", log_z)

    @property
    def size(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def log_normalizers(self) -> np.ndarray:
        return self._log_z


def component_logliks(features: np.ndarray, dictionary: VmfDictionary) -> np.ndarray:
    """(P, K) table of per-component log densities for a batch of unit rows."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != dictionary.dim:
        raise ValidationError(
            f"features {feats.shape} are not (P, D) with D = dictionary dim {dictionary.dim}"
        )
    table = feats @ dictionary.means.T
    table *= dictionary.concentrations
    table -= dictionary.log_normalizers
    return table


def shifted_densities(
    features: np.ndarray, dictionary: VmfDictionary
) -> tuple[np.ndarray, np.ndarray]:
    """(peak, E) for a (P, D) batch of unit rows: the evidence every vMF use shares.

    With s = `component_logliks`, peak[i] = max_k s[i,k] and
    E[i,k] = exp(s[i,k] - peak[i]), so E is 1 at each row's peak and no entry
    overflows. E is s's own (P, K) buffer, exponentiated in place.
    """
    table = component_logliks(features, dictionary)
    # The row maximum read at its argmax: exact, and cheaper than a max-reduce
    # over short rows.
    peak = table[np.arange(len(table)), table.argmax(axis=1)]
    table -= peak[:, None]
    np.exp(table, out=table)
    return peak, table


def responsibilities(features: np.ndarray, dictionary: VmfDictionary) -> np.ndarray:
    """(P, K) posterior over dictionary components for a (P, D) batch of unit rows.

    Uniform component prior; rows sum to 1.
    """
    table = shifted_densities(features, dictionary)[1]
    table /= table.sum(axis=1, keepdims=True)
    return table


# Rows per block: a (2048, K) cosine tile stays in cache, and one block at a
# time is widened to float64. Keep it a multiple of 8. BLAS matrix-vector
# kernels take rows in groups, so only blocks that start on a group boundary
# give every row the bits of one product over the whole array (blocks of
# 1000, 1024, 2048, 4096 and 8192 rows do; blocks of 777 do not).
_ASSIGN_BLOCK = 2048


def _blocks(feats: np.ndarray):
    """(start, rows) for each `_ASSIGN_BLOCK`-row block of `feats`, as float64.

    Every block is copied into one float64 buffer, which the next block
    overwrites: a caller is done with a block before it takes the next.
    Widening float32 is exact, so a block holds the rows a float64 copy of
    `feats` would.
    """
    buf = np.empty((min(len(feats), _ASSIGN_BLOCK), feats.shape[1]))
    for s in range(0, len(feats), _ASSIGN_BLOCK):
        rows = buf[: min(_ASSIGN_BLOCK, len(feats) - s)]
        rows[...] = feats[s : s + _ASSIGN_BLOCK]
        yield s, rows


def _cosines(feats: np.ndarray, center: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`feats @ center` into `out`, one widened row block at a time."""
    for s, rows in _blocks(feats):
        np.matmul(rows, center, out=out[s : s + len(rows)])
    return out


def _draw(rng: np.random.Generator, weights: np.ndarray, total: float, out: np.ndarray) -> int:
    """`rng.choice(len(weights), p=weights / total)`, with `out` as its cdf.

    These are choice's own steps: divide, cumsum, divide by the last entry,
    then `searchsorted(rng.random(), side="right")`. Choice's O(n) checks of
    p are skipped: the weights are finite and >= 0, and `total` is their sum.
    """
    cdf = np.cumsum(np.divide(weights, total, out=out), out=out)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def kmeanspp_centers(
    points: np.ndarray, k: int, rng: np.random.Generator, sq_dist
) -> np.ndarray:
    """k-means++ seeding: (k, D) float64 centers drawn from the rows of `points`.

    `sq_dist(points, center, out)` writes each row's squared distance to
    `center` into the float64 vector `out` and returns it. The first center
    is a uniform row; each next one is drawn with probability proportional to
    the squared distance to the nearest center so far, by `Generator.choice`'s
    own steps (`_draw`), or uniformly once every distance is 0.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    dist = np.full(n, np.inf)  # squared distance to the nearest chosen center
    scratch = np.empty(n)  # the newest center's distances, then the draw's cdf
    idx = int(rng.integers(n))
    for j in range(k):
        centers[j] = points[idx]
        if j == k - 1:
            break
        np.minimum(dist, sq_dist(points, centers[j], scratch), out=dist)
        total = float(dist.sum())
        idx = int(rng.integers(n)) if total <= 0 else _draw(rng, dist, total, scratch)
    return centers


def _cosine_sq_dist(feats: np.ndarray, center: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(1 - cos)^2 of each unit row to `center`, into `out`."""
    cos = _cosines(feats, center, out)
    return np.square(np.subtract(1.0, cos, out=cos), out=cos)


STOP_MAX_ITER = "max_iter reached"
STOP_UNCHANGED = "assignments unchanged"
STOP_GAIN = "gain below standard error"


def _nearest(feats: np.ndarray, centers: np.ndarray, assign: np.ndarray, own: np.ndarray) -> None:
    """Nearest center into `assign` and its cosine into `own`, one row block at a time."""
    k = len(centers)
    tile = np.empty((min(len(feats), _ASSIGN_BLOCK), k))
    row_starts = np.arange(0, tile.size, k)  # each row's first cell in the flat tile
    for s, rows in _blocks(feats):
        cos = np.matmul(rows, centers.T, out=tile[: len(rows)])
        best = np.argmax(cos, axis=1, out=assign[s : s + len(rows)])
        np.take(cos.ravel(), best + row_starts[: len(rows)], out=own[s : s + len(rows)])


def _member_sums(feats: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """(K, D) sums of each center's member rows.

    Row blocks scatter into the flat (K * D) sums at cell assign * D + d.
    add.at adds in row order, as `feats[assign == j].sum(axis=0)` does: same bits.
    """
    dim = feats.shape[1]
    sums = np.zeros(k * dim)
    for s, rows in _blocks(feats):
        cells = (assign[s : s + len(rows), None] * dim + np.arange(dim)).ravel()
        np.add.at(sums, cells, rows.ravel())
    return sums.reshape(k, dim)


def fit_dictionary_traced(
    features: np.ndarray,
    k: int,
    seed: int,
    shared_concentration: float,
    max_iter: int,
) -> tuple[VmfDictionary, dict]:
    """Spherical k-means with hard assignments; returns (dictionary, trace).

    Every component of the dictionary gets `shared_concentration`.

    `features` may be float32 (as the training sample is) or float64; the fit
    has the same bits for both. It reads them in blocks of `_ASSIGN_BLOCK`
    rows, each widened to float64: the unit-norm check, the k-means++
    distances, the assignment, the member sums (each block's rows scatter
    into the (K, D) sums with one `np.add.at`) and the zero-resultant repair.
    Besides `features`, one widened block and one (`_ASSIGN_BLOCK`, K) cosine
    tile, working memory is at most four vectors of one float64 or int64 per
    row: two assignment buffers that swap, the own cosines and `np.std`'s
    temporary. k-means++ holds two: the distances and one scratch vector.

    The loop ends at the first of: assignments unchanged; an objective gain
    below the standard error std(own) / sqrt(n) of the mean cosine, own being
    that iteration's assignment cosines (the objective is a sample mean, so a
    smaller gain is within its sampling noise); `max_iter` iterations.

    The trace records the objective after every iteration, sum_j ||r_j|| / n
    over the resultants r_j (the mean cosine to the updated centers,
    non-decreasing), then the final mean cosine; each iteration's standard
    error (`standard_error`); the iteration count (`iterations`); and which
    rule ended the loop (`stop`, one of the `STOP_*` strings).
    """
    feats = np.ascontiguousarray(features)
    if feats.dtype != np.float32:
        feats = np.ascontiguousarray(feats, dtype=np.float64)
    if feats.ndim != 2:
        raise ValidationError(f"features must be (N, D), got {feats.shape}")
    n = len(feats)
    if k < 1:
        raise ValidationError(f"component count must be >= 1, got {k}")
    if n < k:
        raise ValidationError(f"need at least k={k} feature vectors, got {n}")
    if not 0 <= shared_concentration < np.inf:
        raise ValidationError("concentrations must be finite and >= 0")
    if any(
        np.any(np.abs(np.linalg.norm(rows, axis=1) - 1.0) > _UNIT_TOL)
        for _, rows in _blocks(feats)
    ):
        raise ValidationError("features must be unit-norm")

    rng = np.random.default_rng(seed)
    centers = kmeanspp_centers(feats, k, rng, _cosine_sq_dist)
    assign = np.full(n, -1, dtype=np.int64)
    new_assign = np.empty(n, dtype=np.int64)
    own = np.empty(n)
    objective: list[float] = []
    standard_error: list[float] = []
    n_iter, stop = 0, STOP_MAX_ITER

    for n_iter in range(1, max_iter + 1):
        _nearest(feats, centers, new_assign, own)

        # Reseed empty clusters from the point currently farthest from its
        # center; each repair claims a distinct point.
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmin(own))
            new_assign[far] = empty
            centers[empty] = feats[far]
            own[far] = 1.0
        converged = bool(np.array_equal(new_assign, assign))
        assign, new_assign = new_assign, assign
        standard_error.append(float(np.std(own) / np.sqrt(n)))

        sums = _member_sums(feats, assign, k)
        lengths = np.array([np.linalg.norm(r) for r in sums])  # axis=1 would round differently
        for j in np.flatnonzero(lengths < 1e-12):
            # own is spent for this iteration: it takes the cosines to centers[j]
            centers[j] = feats[int(np.argmin(_cosines(feats, centers[j], own)))]
        live = lengths >= 1e-12
        centers[live] = sums[live] / lengths[live, None]

        # Mean cosine to the updated centers, sum_j r_j . r_j / ||r_j|| / n:
        # non-decreasing by the usual two-step argument.
        objective.append(float(lengths.sum() / n))
        if converged:
            stop = STOP_UNCHANGED
            break
        if n_iter > 1 and objective[-1] - objective[-2] < standard_error[-1]:
            stop = STOP_GAIN
            break

    # The final mean cosine, against the final centers, in the same buffers.
    _nearest(feats, centers, new_assign, own)
    objective.append(float(np.mean(own)))

    dictionary = VmfDictionary(centers, np.full(k, float(shared_concentration)))
    trace = {
        "objective": objective,
        "standard_error": standard_error,
        "iterations": n_iter,
        "stop": stop,
    }
    return dictionary, trace


def sample_uniform_sphere(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n points drawn uniformly on S^(dim-1)."""
    x = rng.standard_normal((n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@lru_cache(maxsize=64)
def _wood_constants(kappa: float, dim: int) -> tuple[float, float, float]:
    """Wood's envelope constants b, x0 and c for vMF(kappa) on S^(dim-1)."""
    b = (-2.0 * kappa + np.sqrt(4.0 * kappa**2 + (dim - 1.0) ** 2)) / (dim - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + (dim - 1.0) * np.log(1.0 - x0 * x0)
    return b, x0, c


def sample_vmf(
    rng: np.random.Generator, mean: np.ndarray, concentration: float, n: int
) -> np.ndarray:
    """Draw n samples from vMF(mean, concentration) by Wood's rejection method."""
    mu = _check_unit(mean, "vMF mean")
    dim = mu.shape[0]
    if concentration < 0 or not np.isfinite(concentration):
        raise ValidationError(f"concentration must be finite and >= 0, got {concentration}")
    if concentration < _SIGMA_ANALYTIC_LIMIT:
        return sample_uniform_sphere(rng, n, dim)

    kappa = float(concentration)
    b, x0, c = _wood_constants(kappa, dim)
    half = (dim - 1.0) / 2.0

    # The first round draws for every sample and keeps its candidates in
    # place; later rounds redraw only the rejected indices.
    w = np.empty(n)
    need = None
    count = n
    while count:
        z = rng.beta(half, half, size=count)
        cand = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=count)
        ok = kappa * cand + (dim - 1.0) * np.log(1.0 - x0 * cand) - c >= np.log(u)
        if need is None:
            w = cand
            need = np.flatnonzero(~ok)
        else:
            w[need[ok]] = cand[ok]
            need = need[~ok]
        count = need.size

    # Tangent directions orthogonal to the mean. The products and row norms
    # are those of `np.outer` and `np.linalg.norm(..., axis=1)`, written out.
    tang = rng.standard_normal((n, dim))
    tang -= (tang @ mu)[:, None] * mu[None, :]
    tnorm = np.sqrt(np.add.reduce(tang * tang, axis=1, keepdims=True))
    tnorm[tnorm < 1e-12] = 1.0
    tang /= tnorm
    out = w[:, None] * mu[None, :] + np.sqrt(np.maximum(1.0 - w * w, 0.0))[:, None] * tang
    return out / np.sqrt(np.add.reduce(out * out, axis=1, keepdims=True))

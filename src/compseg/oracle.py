"""Brute-force reference implementations for cross-checking inference.

Everything here is written for clarity over speed: explicit Python loops,
scalar math, no shared code with the production paths beyond basic
containers. Tests compare the fast implementations against these on small
planted problems where exhaustive enumeration is feasible.

The vMF normaliser's reference, `_log_normalizer_ref`, sums the
hypergeometric series of Z(sigma) in 40-digit decimals with the standard
library, where `vmf` sums a Bessel series in float64.
"""
from __future__ import annotations

import decimal
import itertools
import math
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .fmap import BoundingBox, FeatureMap, resample_nearest
from .models import (
    CandidateMaps,
    ClassifyResult,
    ClassModel,
    MixtureModel,
    OccluderModel,
    classify,
    likelihood_maps,
    rescore,
)
from .orm import OWNER_OUTSIDE, SceneObject, orm_pass, recover_order
from .vmf import VmfDictionary, log_normalizer, log_sphere_area, sample_uniform_sphere

_MAX_TABLE_PIXELS = 64
_MAX_JOINT_STATES = 2_000_000


def perpixel_owner_reference(logliks: Sequence[Sequence[float]]) -> list[int]:
    """Per-pixel MAP owner from a (P, N+1) table of log-likelihoods.

    Column n < N holds object n's foreground value at each pixel, the last
    column the outlier value. Preference order on ties: outlier first, then
    the lowest object id. Returns owner ids with N meaning the outlier.
    """
    table = [list(map(float, row)) for row in logliks]
    if not table:
        return []
    width = len(table[0])
    if width < 2 or any(len(row) != width for row in table):
        raise ValidationError("owner table must be rectangular with >= 2 columns")
    if len(table) > _MAX_TABLE_PIXELS:
        raise ValidationError(f"owner table limited to {_MAX_TABLE_PIXELS} pixels")
    n = width - 1
    owners = []
    for row in table:
        best_id = n
        best_val = row[n]
        for obj in range(n):
            if row[obj] > best_val:
                best_val = row[obj]
                best_id = obj
        owners.append(best_id)
    return owners


def joint_owner_reference(logliks: Sequence[Sequence[float]]) -> list[int]:
    """Exhaustive joint MAP over all owner assignments of the table.

    Candidate tuples are enumerated with each pixel's options ordered by the
    same preference as the per-pixel rule, and only strictly better totals
    replace the incumbent, so tie handling matches exactly.
    """
    table = [list(map(float, row)) for row in logliks]
    if not table:
        return []
    width = len(table[0])
    n = width - 1
    states = width ** len(table)
    if states > _MAX_JOINT_STATES:
        raise ValidationError(f"joint enumeration over {states} states refused")
    order = [n] + list(range(n))
    best = None
    best_total = -math.inf
    for assign in itertools.product(order, repeat=len(table)):
        total = math.fsum(table[i][assign[i]] for i in range(len(table)))
        if total > best_total:
            best_total = total
            best = assign
    return list(best)


def vote_reference(owners: Sequence[int], id_a: int, id_b: int) -> tuple[int, int, int]:
    """Count conflict pixels owned by each object and call the order.

    Returns (votes_a, votes_b, r) with r=+1 when a is in front, -1
    otherwise; equal counts fall to -1.
    """
    votes_a = sum(1 for o in owners if o == id_a)
    votes_b = sum(1 for o in owners if o == id_b)
    return votes_a, votes_b, (1 if votes_a > votes_b else -1)


def reassignment_reference(
    owners: Sequence[int],
    claimants: Sequence[Sequence[int]],
    edges: Sequence[tuple[int, int, int, int]],
    outlier_id: int,
) -> list[int]:
    """Owner of each pixel after order reassignment under an edge set.

    owners[p] is pixel p's competition owner and claimants[p] the objects
    claiming it (foreground inside their amodal mask). Each edge is
    (front, back, votes_front, votes_back); a tied edge puts neither object
    ahead. A pixel the outlier holds, or fewer than two objects claim, keeps
    its owner. Any other pixel goes to the claimant ahead of every other
    claimant there, and keeps its owner when no claimant is.
    """
    ahead = set()
    for front, back, votes_front, votes_back in edges:
        if votes_front != votes_back:
            ahead.add((front, back))
    out = []
    for owner, claim in zip(owners, claimants):
        new = owner
        if owner != outlier_id and len(claim) >= 2:
            for c in claim:
                if all((c, other) in ahead for other in claim if other != c):
                    new = c
        out.append(new)
    return out


def _log_normalizer_ref(sigma: float, dim: int) -> float:
    """log Z(sigma) on S^(dim-1) as the sphere area times a hypergeometric series.

    Z(sigma) = |S^(dim-1)| * 0F1(; dim/2; sigma^2/4), and the series
    sum_k (sigma^2/4)^k / (k! (dim/2)_k) is summed in 40-digit decimals until a
    term falls below 1e-40 of the sum, then its logarithm is rounded to a float.
    Its terms are all positive, so nothing cancels. `vmf.log_normalizer`
    evaluates the Bessel form in float64 instead.
    """
    area = math.log(2.0) + (dim / 2.0) * math.log(math.pi) - math.lgamma(dim / 2.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        q = decimal.Decimal(sigma) ** 2 / 4
        b = decimal.Decimal(dim) / 2
        term = total = decimal.Decimal(1)
        k = 0
        while term > total.scaleb(-ctx.prec):
            k += 1
            term = term * q / (k * (b + k - 1))
            total += term
        return area + float(total.ln())


def perpixel_maps_reference(
    features: np.ndarray,
    fg_prior: np.ndarray,
    fg_coeffs: np.ndarray,
    ctx_coeffs: np.ndarray,
    occ_coeffs: np.ndarray,
    means: np.ndarray,
    sigma: float,
    prior_clamp: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar-loop recomputation of the three per-pixel log maps.

    features (H, W, D) unit rows, coefficients per position or shared for the
    occluder, one sigma for the K means. Densities are accumulated in linear
    space with fsum, so this checks the factored maps against the definition.
    """
    h, w, d = features.shape
    k = means.shape[0]
    log_z = _log_normalizer_ref(float(sigma), d)
    fg = np.zeros((h, w))
    ctx = np.zeros((h, w))
    occ = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            dens = []
            for j in range(k):
                cos = math.fsum(float(features[y, x, t]) * float(means[j, t]) for t in range(d))
                dens.append(math.exp(sigma * cos - log_z))
            p = min(max(float(fg_prior[y, x]), prior_clamp), 1.0 - prior_clamp)
            fg_mix = math.fsum(float(fg_coeffs[y, x, j]) * dens[j] for j in range(k))
            ctx_mix = math.fsum(float(ctx_coeffs[y, x, j]) * dens[j] for j in range(k))
            occ_mix = math.fsum(float(occ_coeffs[j]) * dens[j] for j in range(k))
            fg[y, x] = math.log(p) + math.log(fg_mix)
            ctx[y, x] = math.log(1.0 - p) + math.log(ctx_mix)
            occ[y, x] = math.log(p) + math.log(occ_mix)
    return fg, ctx, occ


# ---------------------------------------------------------------------------
# synthetic lattice harness and equivalence suites
#
# The suites below are shared by the `oracle-check` command and the
# acceptance tests: each builds random small problems, runs the production
# path, and counts exact disagreements with the references above.

_CTX_PIN = -1.0e9


def table_objects(logliks: np.ndarray, shape: tuple[int, int]):
    """Wrap a (P, N+1) log-likelihood table as full-lattice scene objects.

    Every object's box spans the whole lattice, context is pinned far below
    anything else, and all objects share the outlier column as their
    occluder map, so pixel competition sees exactly the table: an object
    labels a pixel foreground iff its column is at least the outlier's
    there. Each candidate's amodal mask covers the whole box.
    """
    arr = np.asarray(logliks, dtype=np.float64)
    h, w = shape
    n = arr.shape[1] - 1
    if arr.shape[0] != h * w:
        raise ValidationError(f"table has {arr.shape[0]} rows for a {h}x{w} lattice")
    box = BoundingBox(0, 0, w, h)
    ctx = np.full((h, w), _CTX_PIN)
    occ = arr[:, n].reshape(h, w)
    return [
        SceneObject(k, box, _sole_pick(arr[:, k].reshape(h, w), ctx, occ,
                                       np.ones((h, w), np.bool_)))
        for k in range(n)
    ]


def _sole_pick(fg: np.ndarray, ctx: np.ndarray, occ: np.ndarray, amodal: np.ndarray):
    """A one-candidate pick with these maps (copied) and amodal mask."""
    candidates = CandidateMaps(np.stack([fg, ctx, occ])[None], amodal[None], (1,))
    return ClassifyResult(0, 0, 0.0, candidates)


def _random_table(rng: np.random.Generator, pixels: int, n: int) -> np.ndarray:
    table = rng.uniform(-8.0, 0.0, size=(pixels, n + 1))
    # exact ties exercise the preference order (outlier first, lowest id)
    for _ in range(int(rng.integers(0, 3))):
        row = int(rng.integers(pixels))
        src = int(rng.integers(n + 1))
        dst = int(rng.integers(n + 1))
        table[row, dst] = table[row, src]
    return table


def check_pixel_competition(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """Pipeline ownership before reassignment vs the per-pixel MAP rule.

    Returns (mismatching pixels, pixels compared).
    """
    mismatches = total = 0
    for _ in range(cases):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        n = int(rng.integers(1, 5))
        table = _random_table(rng, h * w, n)
        objects = table_objects(table, (h, w))
        got = orm_pass(objects, (h, w))[0].reshape(-1)
        want = np.asarray(perpixel_owner_reference(table))
        total += h * w
        mismatches += int(np.sum(got != want))
    return mismatches, total


def check_order_reassignment(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """orm_pass grids and edges vs scalar recomputations.

    Random tables as in the competition suite, two to five objects, each
    on a random sub-box of the lattice with its maps cropped to it and a
    random amodal mask, so box offsets and claims outside the amodal mask
    both occur. A pixel outside an object's box is not that object's: it
    neither competes nor claims there, and a pixel outside every box is
    `OWNER_OUTSIDE`. The competition grid is the per-pixel MAP rule over
    the covering objects; edges are recounted pair by pair over the pixels
    both objects claim; owners come from `reassignment_reference` under
    those edges. Returns (mismatching cases, cases): a case mismatches when
    any grid pixel or any edge differs.
    """
    mismatches = 0
    for _ in range(cases):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        n = int(rng.integers(2, 6))
        table = _random_table(rng, h * w, n)
        amodal = rng.random((n, h * w)) < 0.75
        inside = np.zeros((n, h * w), dtype=np.bool_)
        objects = []
        for k, obj in enumerate(table_objects(table, (h, w))):
            y0 = int(rng.integers(0, h))
            x0 = int(rng.integers(0, w))
            y1 = int(rng.integers(y0 + 1, h + 1))
            x1 = int(rng.integers(x0 + 1, w + 1))
            box = BoundingBox(x0, y0, x1, y1)
            sl = box.slices
            pick = _sole_pick(obj.maps.fg[sl], obj.maps.ctx[sl], obj.maps.occ[sl],
                              amodal[k].reshape(h, w)[sl])
            objects.append(SceneObject(k, box, pick))
            inside[k].reshape(h, w)[sl] = True
        boxed = [
            [table[p, k] if inside[k, p] else -math.inf for k in range(n)] + [table[p, n]]
            for p in range(h * w)
        ]
        competition = [
            owner if inside[:, p].any() else OWNER_OUTSIDE
            for p, owner in enumerate(perpixel_owner_reference(boxed))
        ]
        claimants = [
            [k for k in range(n) if inside[k, p] and amodal[k, p] and table[p, k] >= table[p, n]]
            for p in range(h * w)
        ]
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                rows = [
                    [table[p, a], table[p, b], table[p, n]]
                    for p in range(h * w)
                    if a in claimants[p] and b in claimants[p]
                ]
                if not rows:
                    continue
                votes_a, votes_b, r = vote_reference(perpixel_owner_reference(rows), 0, 1)
                if r == 1:
                    edges.append((a, b, votes_a, votes_b, len(rows)))
                else:
                    edges.append((b, a, votes_b, votes_a, len(rows)))
        want = reassignment_reference(
            competition, claimants, [e[:4] for e in edges], n
        )
        competed, got_edges, owners = orm_pass(objects, (h, w))
        got = (competed.reshape(-1).tolist(), sorted(got_edges), owners.reshape(-1).tolist())
        if got != (competition, sorted(edges), want):
            mismatches += 1
    return mismatches, cases


def check_order_votes(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """recover_order vs the counting reference on random conflict owners."""
    mismatches = 0
    for _ in range(cases):
        size = int(rng.integers(1, 65))
        n_ids = int(rng.integers(2, 6))
        owners = rng.integers(0, n_ids + 1, size=size)
        if rng.random() < 0.3:
            # force an exact tie to hit the fallthrough direction
            owners = np.concatenate([np.zeros(3, np.int64), np.ones(3, np.int64)])
        votes_a, votes_b, want = vote_reference(owners.tolist(), 0, 1)
        if recover_order(votes_a, votes_b) != want:
            mismatches += 1
    return mismatches, cases


def check_joint_factorization(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """Exhaustive joint MAP vs per-pixel MAP on 8-pixel two-object tables."""
    mismatches = 0
    for _ in range(cases):
        table = _random_table(rng, 8, 2)
        if joint_owner_reference(table) != perpixel_owner_reference(table):
            mismatches += 1
    return mismatches, cases


def closed_form_log_normalizer_3d(sigma: float) -> float:
    """For D=3 the normalizer collapses to 4*pi*sinh(sigma)/sigma."""
    if sigma <= 0.0:
        raise ValidationError("closed form needs sigma > 0")
    return (
        math.log(4.0 * math.pi)
        + sigma
        + math.log1p(-math.exp(-2.0 * sigma))
        - math.log(2.0 * sigma)
    )


def check_normalizer_closed_form(points: int = 200) -> tuple[int, int]:
    """Implemented log normalizer vs the D=3 closed form on a log grid."""
    sigmas = np.logspace(-6.0, math.log10(50.0), points)
    bad = 0
    for sigma in sigmas:
        got = log_normalizer(float(sigma), 3)
        want = closed_form_log_normalizer_3d(float(sigma))
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            bad += 1
    return bad, points


def check_monte_carlo_mass(
    rng: np.random.Generator,
    samples: int = 100_000,
    dims: Sequence[int] = (3, 8, 16),
    tolerance: float = 0.02,
) -> tuple[int, int]:
    """Unit-mass check: sphere area times the mean density must be ~1."""
    bad = 0
    for dim in dims:
        for sigma in (0.5, 2.0, 5.0):
            mean = np.zeros(dim)
            mean[0] = 1.0
            points = sample_uniform_sphere(rng, samples, dim)
            log_dens = sigma * (points @ mean) - log_normalizer(sigma, dim)
            mass = math.exp(log_sphere_area(dim)) * float(np.exp(log_dens).mean())
            if abs(mass - 1.0) > tolerance:
                bad += 1
    return bad, 3 * len(dims)


def _random_simplex(rng: np.random.Generator, shape) -> np.ndarray:
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def _random_crop_and_dictionary(rng: np.random.Generator):
    """A crop lattice (h, w) and a dictionary of 2-4 random atoms in 3-6
    dimensions and one sigma, drawn in that order: the opening of both map suites."""
    h = int(rng.integers(1, 5))
    w = int(rng.integers(1, 5))
    d = int(rng.integers(3, 7))
    k = int(rng.integers(2, 5))
    means = sample_uniform_sphere(rng, k, d)
    return h, w, VmfDictionary(means, rng.uniform(0.5, 20.0))


def check_likelihood_maps(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """Factored maps vs the scalar fsum recomputation."""
    mismatches = 0
    for _ in range(cases):
        h, w, dictionary = _random_crop_and_dictionary(rng)
        k = dictionary.size
        mixture = MixtureModel(
            fg_prior=rng.uniform(0.0, 1.0, size=(h, w)),
            fg_coeffs=_random_simplex(rng, (h, w, k)),
            ctx_coeffs=_random_simplex(rng, (h, w, k)),
        )
        occluder = OccluderModel(coeffs=_random_simplex(rng, k))
        grid = sample_uniform_sphere(rng, h * w, dictionary.dim).reshape(h, w, -1)
        fm = FeatureMap(grid.astype(np.float32))
        got = likelihood_maps(fm, [[mixture]], dictionary, occluder)[0]
        want = perpixel_maps_reference(
            fm.data.astype(np.float64),
            mixture.fg_prior,
            mixture.fg_coeffs,
            mixture.ctx_coeffs,
            occluder.coeffs,
            dictionary.means,
            dictionary.concentration,
        )
        for got_map, want_map in zip((got.fg, got.ctx, got.occ), want):
            if not np.allclose(got_map, want_map, rtol=1e-7, atol=1e-7):
                mismatches += 1
                break
    return mismatches, cases


# Largest per-pixel gap allowed between a production score and its fsum
# reference; the factored maps agree with the reference far closer than this.
_RESCORE_TOL = 1e-9


def check_rescore(rng: np.random.Generator, cases: int) -> tuple[int, int]:
    """`rescore`'s pick under a binary visibility grid vs brute-force scores.

    Each case draws two or three classes of one to three mixtures, with
    canonical shapes that mostly differ from the crop's, and a random binary
    grid. The reference scores every candidate with `math.fsum` over its
    `perpixel_maps_reference` maps on the crop lattice (foreground where
    visible, occluder where hidden) and takes the first maximum in (class,
    mixture) order. Half the cases repeat the first mixture in the last
    class, so two candidates tie exactly and the lower index must win. A case
    mismatches when the pick differs from the reference's, or when the picked
    score is more than `_RESCORE_TOL` per pixel from its reference score.
    """
    mismatches = 0
    for _ in range(cases):
        h, w, dictionary = _random_crop_and_dictionary(rng)
        k = dictionary.size
        occluder = OccluderModel(coeffs=_random_simplex(rng, k))

        def mixture() -> MixtureModel:
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            return MixtureModel(
                fg_prior=rng.uniform(0.0, 1.0, size=shape),
                fg_coeffs=_random_simplex(rng, (*shape, k)),
                ctx_coeffs=_random_simplex(rng, (*shape, k)),
            )

        rows = [
            [mixture() for _ in range(int(rng.integers(1, 4)))]
            for _ in range(int(rng.integers(2, 4)))
        ]
        if rng.random() < 0.5:
            rows[-1].append(rows[0][0])
        classes = [ClassModel(f"c{ci}", tuple(row)) for ci, row in enumerate(rows)]
        grid = sample_uniform_sphere(rng, h * w, dictionary.dim).reshape(h, w, -1)
        fm = FeatureMap(grid.astype(np.float32))
        visibility = rng.integers(0, 2, size=(h, w))
        got = rescore(classify(fm, classes, dictionary, occluder).candidates, visibility)

        features = fm.data.astype(np.float64)
        best = None
        picked = None
        for ci, row in enumerate(rows):
            for mi, m in enumerate(row):
                fg, _, occ = perpixel_maps_reference(
                    features,
                    resample_nearest(m.fg_prior, (h, w)),
                    resample_nearest(m.fg_coeffs, (h, w)),
                    resample_nearest(m.ctx_coeffs, (h, w)),
                    occluder.coeffs,
                    dictionary.means,
                    dictionary.concentration,
                )
                score = math.fsum(
                    float(fg[y, x]) if visibility[y, x] == 1 else float(occ[y, x])
                    for y in range(h)
                    for x in range(w)
                )
                if best is None or score > best[0]:
                    best = (score, ci, mi)
                if (ci, mi) == (got.class_index, got.mixture_index):
                    picked = score
        if best[1:] != (got.class_index, got.mixture_index) or not (
            abs(got.score - picked) <= _RESCORE_TOL * h * w
        ):
            mismatches += 1
    return mismatches, cases

"""Occlusion reasoning over multi-object scenes.

Pipeline per scene: classify each boxed object independently, keep the
pick, whose candidate maps and amodal masks lie on the object's box, then
resolve the scene jointly. `orm_pass` lays every object's foreground map
(where it labels F), its occluder map and its claims on the scene lattice
once, as one plane per object (-inf or False elsewhere), and runs steps 1-3
from those planes:

  1. pixel competition: per covered pixel some object labels foreground,
     the best of those foreground likelihoods against the occluder value
     merged over the covering models (ties: outlier first, then lower id)
  2. pairwise order recovery: a pair's conflict set is the pixels both
     claim, an object claiming the pixels it labels foreground inside its
     predicted amodal mask (a modal mask is amodal ∩ owned, so a foreground
     pixel outside the amodal mask can never be modal for that object); the
     pair competes there, and its vote counts give the edge
  3. reassignment: every pixel two or more objects claim, and the outlier
     does not hold, goes to the claimant the recovered order puts in front
     of every other claimant there; a tied vote puts neither object in
     front, and a pixel without such a claimant keeps its competition owner
  4. per-object boolean visibility grids, False where another object or
     the outlier owns the pixel after step 3 (after step 1 for the no-order
     ablation); objects whose visibility changed are
     re-scored with the occluder branch forced at pixels they lost, a
     re-pick (`rescore`) over the candidate maps feed-forward built, with
     no new crop or map

Steps 1-4 repeat up to the requested iteration count. An object is its
pick: its maps and amodal mask are the picked candidate's and its labels
follow from those maps, so a re-scored object is the old one with the new
pick, and later passes reason over corrected predictions. The passes stop
early, at the fixed point: the first pass that re-picks no object's (class,
mixture). That stop is exact: a pass reads each object's maps, labels,
amodal mask, box and id but never its score, so the next pass would give the
same owners and edges, every visibility grid would equal the one before it,
and nothing would be re-scored. Every pass after that one returns what it does.

A state of the chain, before or after a pass, is a `SceneResult`: the
objects, the grid step 4 read and the edges; the chain keeps nothing else.
An object's masks, on its box's lattice, are derived from it by
`SceneResult.masks` only when a record is written.

`segment_variants` is the one driver of chains. Over `(iters, no_order)`
pairs it runs one feed-forward, the first pass once (not at all when every
pair asks for 0 passes) and one chain per `no_order` flag, as deep as that
flag's deepest pair; each pair gets its chain's state at `min(iters, last)`.
`segment_scene` is its one-pair case, the variant sweep of `metrics` one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .fmap import BoundingBox, FeatureMap, crop
from .formats import ModelBundle
from .models import (
    LABEL_FG,
    LABEL_OCC,
    ClassifyResult,
    LikelihoodMaps,
    classify,
    likelihood_maps,  # noqa: F401  unused; perfbench/test_perfbench.py deletes orm.likelihood_maps
    rescore,
    segment_single,
)

# Ownership grid codes. Object indices occupy 0..N-1 and the outlier is N,
# the object count; OWNER_NONE marks covered pixels no model claims,
# OWNER_OUTSIDE pixels no box covers.
OWNER_NONE = -1
OWNER_OUTSIDE = -2


@dataclass
class SceneObject:
    """One boxed object, which is its pick: the maps and amodal mask are the
    picked candidate's, and the labels, derived from those maps once at
    construction, are `segment_single`'s. `replace(obj, pick=...)` is the
    object under another pick, its labels derived again."""

    oid: int
    box: BoundingBox
    pick: ClassifyResult      # its candidates lie on the box's lattice
    labels: np.ndarray = field(init=False)  # box-shaped int8 per-pixel F/C/O

    @property
    def maps(self) -> LikelihoodMaps:
        return self.pick.candidates[self.pick.class_index][self.pick.mixture_index]

    @property
    def amodal(self) -> np.ndarray:
        """Box-shaped bool, the picked mixture's amodal mask."""
        return self.maps.amodal

    def __post_init__(self):
        if self.maps.shape != self.box.shape:
            raise ValidationError(
                f"object {self.oid}: maps {self.maps.shape} do not cover box {self.box.shape}"
            )
        self.labels = segment_single(self.maps)


class OrderEdge(NamedTuple):
    """One recovered order edge, as the prediction record stores it."""

    front: int
    back: int
    votes_front: int
    votes_back: int
    conflict_size: int


@dataclass(frozen=True)
class SceneResult:
    """A state of the reasoning chain: the objects after a pass, with that
    pass's edges and the grid its visibility was read from. Before the first
    pass the owners grid is None and there are no edges."""

    objects: list[SceneObject]
    owners: np.ndarray | None  # (H, W) int16 codes as above; None before the first pass
    edges: tuple[OrderEdge, ...]

    def masks(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Object `idx`'s (amodal, modal) masks on its box's lattice, new
        arrays of shape `box.shape`: modal is amodal where the owners grid
        gives the pixel to the object or, before the first pass, where the
        object labels it F. `fmap.place` puts them on the scene lattice, as
        `annotation_to_json` does to write them as full-lattice RLE."""
        obj = self.objects[idx]
        sl = obj.box.slices
        visible = obj.labels == LABEL_FG if self.owners is None else self.owners[sl] == idx
        return obj.amodal.copy(), obj.amodal & visible


def compete_pixels(fg_values: np.ndarray, occ_values: np.ndarray) -> np.ndarray:
    """N-object pixel competition over a table of foreground log-likelihoods.

    fg_values: (P, N); occ_values: (P,). Returns (P,) owners in 0..N, where N
    is the outlier. Ties resolve to the outlier first, then the lowest object
    id (argmax over the candidate order [outlier, 0, 1, ...] keeps the first
    maximum).
    """
    fg = np.asarray(fg_values, dtype=np.float64)
    occ = np.asarray(occ_values, dtype=np.float64)
    if fg.ndim != 2 or occ.shape != (fg.shape[0],):
        raise ValidationError(
            f"competition table shapes disagree: {fg.shape} vs {occ.shape}"
        )
    # One vectorised step per object, in candidate order: only a strictly
    # larger value takes the pixel, so the first maximum is kept. An argmax
    # along the short candidate axis costs a call per pixel.
    owners = np.full(fg.shape[0], fg.shape[1])
    best = occ
    for obj in range(fg.shape[1]):
        column = fg[:, obj]
        wins = column > best
        owners[wins] = obj
        best = np.where(wins, column, best)
    return owners


def recover_order(votes_a: int, votes_b: int) -> int:
    """+1 when the first object is in front, else -1 (ties fall to -1)."""
    return 1 if votes_a > votes_b else -1


def orm_pass(
    objects: Sequence[SceneObject], scene_shape: tuple[int, int]
) -> tuple[np.ndarray, tuple[OrderEdge, ...], np.ndarray]:
    """One competition + order-recovery + reassignment sweep over a scene.

    Returns (competed, edges, owners): the (H, W) int16 grids after the
    competition and after reassignment, around the edges. Each object's
    foreground map where it labels F, its occluder map and its claims (its
    F pixels inside its amodal mask) are laid on the scene lattice once,
    -inf and False elsewhere, and all three steps read those planes.

    Competition: every covered pixel some object labels F goes to the best
    of those foreground values against the occluder value merged over all
    models covering the pixel. Claims of one object and of several are
    treated alike, so the rule matches the brute-force per-pixel MAP table
    exactly. Covered pixels nobody labels F go to the outlier when some
    covering model labels them occluder, otherwise stay unowned (context).

    Votes: each pair's conflict set is the pixels both objects claim; there
    the pair competes on its own two foreground maps against the larger of
    its two occluder maps, and the pair gets the edge `recover_order` reads
    from the vote counts, ties included. Edges come in descending conflict
    size, then ascending (id, id).

    Reassignment works per pixel, not per pair, so at a pixel three or more
    objects claim no pair can overwrite another's decision: a pixel two or
    more objects claim, and the outlier does not hold, goes to the claimant
    that the edges put in front of every other claimant there. A tied vote
    is a coin flip on ids, so a tied pair puts neither object in front; a
    pixel without a claimant in front of all the others keeps its
    competition owner. With two claimants this is the all-or-nothing
    reassignment of the pair's conflict set.
    """
    n = len(objects)
    planes = (n, *scene_shape)
    fg = np.full(planes, -np.inf)
    occ = np.full(planes, -np.inf)
    claims = np.zeros(planes, dtype=np.bool_)
    # Taken from the labels, not from a finite fg: a pixel labelled F whose
    # maps are all -inf is still claimed, and goes to the outlier.
    claimed = np.zeros(scene_shape, dtype=np.bool_)
    labels_occ = np.zeros(scene_shape, dtype=np.bool_)
    owners = np.full(scene_shape, OWNER_OUTSIDE, dtype=np.int16)
    for idx, obj in enumerate(objects):
        sl = obj.box.slices
        labels_fg = obj.labels == LABEL_FG
        np.copyto(fg[idx][sl], obj.maps.fg, where=labels_fg)
        occ[idx][sl] = obj.maps.occ
        claims[idx][sl] = labels_fg & obj.amodal
        claimed[sl] |= labels_fg
        labels_occ[sl] |= obj.labels == LABEL_OCC
        owners[sl] = OWNER_NONE

    if claimed.any():
        # Competing on whole planes and keeping the claimed pixels is cheaper
        # than gathering the claimed pixels of every plane first.
        won = compete_pixels(fg.reshape(n, -1).T, occ.max(axis=0).reshape(-1))
        owners[claimed] = won.reshape(scene_shape)[claimed]
    owners[~claimed & labels_occ] = n

    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            conflict = claims[i] & claims[j]
            if not conflict.any():
                continue
            winners = compete_pixels(
                np.stack([fg[i][conflict], fg[j][conflict]], axis=1),
                np.maximum(occ[i][conflict], occ[j][conflict]),
            )
            votes = (int(np.count_nonzero(winners == 0)), int(np.count_nonzero(winners == 1)))
            size = int(np.count_nonzero(conflict))
            pairs.append((size, objects[i].oid, objects[j].oid, i, j, votes))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    edges = []
    ahead = set()
    for size, oid_a, oid_b, i, j, (votes_a, votes_b) in pairs:
        if recover_order(votes_a, votes_b) == 1:
            edges.append(OrderEdge(oid_a, oid_b, votes_a, votes_b, size))
        else:
            edges.append(OrderEdge(oid_b, oid_a, votes_b, votes_a, size))
        if votes_a != votes_b:
            ahead.add((i, j) if votes_a > votes_b else (j, i))

    competed = owners.copy()
    movable = (claims.sum(axis=0) >= 2) & (owners != n)
    for front in range(n):
        take = movable & claims[front]
        for other in range(n):
            if other != front and (front, other) not in ahead:
                take &= ~claims[other]
        owners[take] = front
    return competed, tuple(edges), owners


def _visibility(idx: int, obj: SceneObject, owners: np.ndarray | None) -> np.ndarray:
    """Box-lattice bool visibility: with no `owners` (feed-forward) all but the
    object's O pixels, else False where another model or the outlier holds the pixel."""
    if owners is None:
        return obj.labels != LABEL_OCC
    window = owners[obj.box.slices]
    return (window < 0) | (window == idx)


def feed_forward(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
) -> list[SceneObject]:
    """Independent per-object classification: each object is its `classify` pick."""
    objects = []
    for oid, box in boxes:
        if not box.fits_in(scene.height, scene.width):
            raise ValidationError(f"object {oid}: box {box.as_tuple()} outside scene")
        result = classify(crop(scene, box), bundle.classes, bundle.dictionary, bundle.occluder)
        objects.append(SceneObject(oid, box, result))
    return objects


def _chain(
    objects: list[SceneObject],
    scene_shape: tuple[int, int],
    no_order: bool,
    iters: int,
    first: tuple[np.ndarray, tuple[OrderEdge, ...], np.ndarray] | None,
) -> list[SceneResult]:
    """The states of the reasoning chain from the feed-forward `objects`, each
    a `SceneResult`: first the feed-forward state itself, then one state
    after each of up to `iters` passes, ending early at the fixed point (see
    the module docstring).

    Each pass recomputes ownership and order from the current maps (`first`,
    when given, is the first pass, already run on `objects`) and reads its
    reassigned grid, or with `no_order` its competition grid. It re-scores
    exactly the objects whose visibility there differs from the state before
    (the occluded ones) by re-picking over the candidate maps feed-forward
    built; a re-scored object is the old one with the new result as its
    pick, so after a label flip the next pass sees corrected predictions.
    Each state holds its own object list, and `objects` is never written, so
    one feed-forward can start several chains.
    """
    states = [SceneResult(objects, None, ())]
    repicked = True
    while repicked and len(states) <= iters:
        state = states[-1]
        competed, edges, owners = first or orm_pass(state.objects, scene_shape)
        first = None
        grid = competed if no_order else owners
        objects = list(state.objects)
        repicked = False
        for idx, obj in enumerate(objects):
            vis = _visibility(idx, obj, grid)
            if np.array_equal(vis, _visibility(idx, obj, state.owners)):
                continue
            pick = obj.pick
            result = rescore(pick.candidates, vis)
            if (result.class_index, result.mixture_index) != (pick.class_index, pick.mixture_index):
                repicked = True
            objects[idx] = replace(obj, pick=result)
        states.append(SceneResult(objects, grid, edges))
    return states


def segment_variants(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
    variants: Sequence[tuple[int, bool]],
) -> list[SceneResult]:
    """Scene inference under each `(iters, no_order)` pair, in input order,
    from one feed-forward, one first pass and one chain per `no_order` flag
    (see the module docstring). Each result is the state that `iters` full
    passes with that flag give; it holds no masks."""
    for iters, _ in variants:
        if iters < 0:
            raise ValidationError(f"iteration count must be non-negative, got {iters}")
    objects = feed_forward(scene, boxes, bundle)
    depth = {flag: max(i for i, f in variants if f == flag) for _, flag in variants}
    first = orm_pass(objects, scene.shape) if any(depth.values()) else None
    chains = {flag: _chain(objects, scene.shape, flag, iters, first)
              for flag, iters in depth.items()}
    return [chains[flag][min(iters, len(chains[flag]) - 1)] for iters, flag in variants]


def segment_scene(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
    iters: int = 1,
    no_order: bool = False,
) -> SceneResult:
    """Full scene inference: feed-forward, then up to `iters` reasoning passes,
    stopping at the fixed point (see the module docstring). iters=0 returns the
    independent per-object baseline. The result is the state `iters` full
    passes give; it holds no masks."""
    return segment_variants(scene, boxes, bundle, [(iters, no_order)])[0]

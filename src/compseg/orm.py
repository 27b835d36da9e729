"""Occlusion reasoning over multi-object scenes.

Pipeline per scene: classify each boxed object independently, keep the
winner's three likelihood maps in scene coordinates, then resolve the scene
jointly. `orm_pass` lays every object's foreground map (where it labels F),
its occluder map and its claims on the scene lattice once, as one plane per
object (-inf or False elsewhere), and runs steps 1-3 from those planes:

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
     the outlier owns the pixel; objects whose visibility changed are
     re-scored with the occluder branch forced at pixels they lost, a
     re-pick (`rescore`) over the candidate maps feed-forward built, with
     no new crop or map

Steps 1-4 repeat up to the requested iteration count; re-scored objects
take the maps of their (possibly new) mixture from those candidates, so
later passes reason over corrected predictions. The passes stop early at
the first one that re-picks no object's (class, mixture): a pass reads each
object's maps, labels, amodal mask, box and id but never its score, so the
next pass would give the same owners and edges, every visibility grid would
equal the one before it, and nothing would be re-scored. Every pass after
that one returns what it does.

A state of the chain, before or after a pass, is a `SceneResult`: the
objects, the owners grid and the edges. An object's full-lattice masks are
derived from it by `SceneResult.masks` only when a record is written.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .fmap import BoundingBox, FeatureMap, crop
from .formats import ModelBundle
from .models import (
    LABEL_FG,
    LABEL_OCC,
    ClassifyResult,
    LikelihoodMaps,
    amodal_mask,
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
    """One boxed object with its current prediction and scene-aligned maps."""

    oid: int
    box: BoundingBox
    class_index: int
    mixture_index: int
    score: float
    maps: LikelihoodMaps      # box-shaped, scene coordinates
    labels: np.ndarray        # box-shaped int8 per-pixel F/C/O
    amodal: np.ndarray        # box-shaped bool, the current mixture's amodal mask
    candidates: tuple[tuple[LikelihoodMaps, ...], ...] = ()  # per class, per mixture

    def __post_init__(self):
        if self.maps.shape != self.box.shape:
            raise ValidationError(
                f"object {self.oid}: maps {self.maps.shape} do not cover box {self.box.shape}"
            )
        if self.amodal.shape != self.box.shape:
            raise ValidationError(
                f"object {self.oid}: amodal mask {self.amodal.shape} does not cover box "
                f"{self.box.shape}"
            )


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
    pass's owners grid and edges. Before the first pass the owners grid is
    None and there are no edges."""

    objects: list[SceneObject]
    owners: np.ndarray | None  # (H, W) int16 codes as above; None before the first pass
    edges: tuple[OrderEdge, ...]

    def masks(self, idx: int, scene_shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Object `idx`'s full-lattice (amodal, modal) masks: modal is amodal
        where the owners grid gives the pixel to the object or, before the
        first pass, where the object labels it F."""
        obj = self.objects[idx]
        sl = obj.box.slices
        visible = obj.labels == LABEL_FG if self.owners is None else self.owners[sl] == idx
        amodal = np.zeros(scene_shape, dtype=np.bool_)
        modal = np.zeros(scene_shape, dtype=np.bool_)
        amodal[sl] = obj.amodal
        modal[sl] = obj.amodal & visible
        return amodal, modal


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
    objects: Sequence[SceneObject],
    scene_shape: tuple[int, int],
    no_order: bool = False,
) -> tuple[np.ndarray, tuple[OrderEdge, ...]]:
    """One competition + order-recovery + reassignment sweep over a scene.

    Returns the (H, W) int16 owners grid and the edges. Each object's
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

    if not no_order:
        movable = (claims.sum(axis=0) >= 2) & (owners != n)
        for front in range(n):
            take = movable & claims[front]
            for other in range(n):
                if other != front and (front, other) not in ahead:
                    take &= ~claims[other]
            owners[take] = front
    return owners, tuple(edges)


def _visibility_from_owners(obj_index: int, obj: SceneObject, owners: np.ndarray) -> np.ndarray:
    """Box-lattice bool visibility: False where another model or the outlier holds the pixel."""
    window = owners[obj.box.slices]
    return (window < 0) | (window == obj_index)


def _self_visibility(obj: SceneObject) -> np.ndarray:
    # Feed-forward belief: only the object's own occluder pixels are hidden.
    return obj.labels != LABEL_OCC


def _scene_object(
    oid: int, box: BoundingBox, result: ClassifyResult, bundle: ModelBundle
) -> SceneObject:
    """The object as `classify` or `rescore` decided it, with its candidate maps."""
    mixture = bundle.classes[result.class_index].mixtures[result.mixture_index]
    maps = result.candidates[result.class_index][result.mixture_index]
    return SceneObject(
        oid=oid,
        box=box,
        class_index=result.class_index,
        mixture_index=result.mixture_index,
        score=result.score,
        maps=maps,
        labels=segment_single(maps),
        amodal=amodal_mask(mixture, box),
        candidates=result.candidates,
    )


def feed_forward(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
) -> list[SceneObject]:
    """Independent per-object classification and scene-aligned maps."""
    objects = []
    for oid, box in boxes:
        if not box.fits_in(scene.height, scene.width):
            raise ValidationError(f"object {oid}: box {box.as_tuple()} outside scene")
        result = classify(crop(scene, box), bundle.classes, bundle.dictionary, bundle.occluder)
        objects.append(_scene_object(oid, box, result, bundle))
    return objects


def _chain(
    objects: list[SceneObject],
    scene_shape: tuple[int, int],
    bundle: ModelBundle,
    no_order: bool = False,
) -> Iterator[SceneResult]:
    """The states of the reasoning chain from the feed-forward `objects`, each
    a `SceneResult`: first the feed-forward state itself, then one state
    after each pass.

    Each pass recomputes ownership and order from the current maps, then
    re-scores exactly the objects whose visibility grid changed (the
    occluded ones) by re-picking over the candidate maps feed-forward built;
    a re-scored object takes the maps of the mixture it now wins, so after a
    label flip the next pass sees corrected predictions. One that keeps its
    pick keeps its maps, labels and amodal mask and takes only the new score.

    The passes end after the first one that re-picks no object, whose state
    every later pass would repeat (see the module docstring); while picks
    keep changing they go on, so callers bound the count. Each state
    holds its own object list, and `objects` is never written, so one
    feed-forward can start several chains.
    """
    yield SceneResult(objects, None, ())
    prev_vis = [_self_visibility(o) for o in objects]
    while True:
        owners, edges = orm_pass(objects, scene_shape, no_order)
        objects = list(objects)
        repicked = False
        for idx, obj in enumerate(objects):
            vis = _visibility_from_owners(idx, obj, owners)
            if np.array_equal(vis, prev_vis[idx]):
                continue
            prev_vis[idx] = vis
            result = rescore(obj.candidates, vis)
            if (result.class_index, result.mixture_index) == (obj.class_index, obj.mixture_index):
                # Same pick: same maps, labels and amodal mask; only the score moves.
                objects[idx] = replace(obj, score=result.score)
            else:
                objects[idx] = _scene_object(obj.oid, obj.box, result, bundle)
                repicked = True
        yield SceneResult(objects, owners, edges)
        if not repicked:
            return


def segment_scene(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
    iters: int = 1,
    no_order: bool = False,
) -> SceneResult:
    """Full scene inference: feed-forward, then up to `iters` reasoning passes.

    iters=0 returns the independent per-object baseline. The passes stop
    after the first one that re-picks no object's (class, mixture). That
    stop is exact: a pass never reads a score, so once no pick changes the
    next pass gives the same owners and edges, every visibility grid equals
    its predecessor and nothing is re-scored; the result is the one `iters`
    full passes give. The result is the chain's last state; it holds no masks.
    """
    if iters < 0:
        raise ValidationError(f"iteration count must be non-negative, got {iters}")
    objects = feed_forward(scene, boxes, bundle)
    for state in islice(_chain(objects, scene.shape, bundle, no_order), iters + 1):
        pass
    return state

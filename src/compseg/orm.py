"""Occlusion reasoning over multi-object scenes.

Pipeline per scene: classify each boxed object independently, keep the
winner's three likelihood maps in scene coordinates, then resolve the scene
jointly:

  1. conflict sets: pixels two overlapping objects both claim, where an
     object claims the pixels it labels foreground inside its predicted
     amodal mask (a modal mask is amodal ∩ owned, so a foreground pixel
     outside the amodal mask can never be modal for that object)
  2. pixel competition: per contested pixel, the best foreground likelihood
     against the merged occluder value (ties: outlier first, then lower id)
  3. pairwise order recovery from competition vote counts
  4. reassignment: every pixel two or more objects claim, and the outlier
     does not hold, goes to the claimant the recovered order puts in front
     of every other claimant there; a tied vote puts neither object in
     front, and a pixel without such a claimant keeps its competition owner
  5. per-object visibility grids; objects whose visibility changed are
     re-scored with the occluder branch forced at pixels they lost

Steps 1-5 repeat for the requested iteration count; relabelled objects take
the maps of their new mixture from the re-scoring, so later passes reason
over corrected predictions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .fmap import BoundingBox, FeatureMap, crop
from .formats import ModelBundle
from .models import (
    LABEL_FG,
    LABEL_OCC,
    LikelihoodMaps,
    amodal_mask,
    classify,
    likelihood_maps,  # noqa: F401  unused; perfbench/test_perfbench.py deletes orm.likelihood_maps
    segment_single,
)

# Ownership grid codes. Object ids occupy 0..N-1 and the outlier is N;
# OWNER_NONE marks covered pixels no model claims, OWNER_OUTSIDE pixels no
# box covers.
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

    def claims(self) -> np.ndarray:
        """Box-shaped mask of the pixels labelled foreground inside the amodal mask."""
        return (self.labels == LABEL_FG) & self.amodal


@dataclass(frozen=True)
class VisibilityAssignment:
    """Exactly one owner per covered scene pixel."""

    owners: np.ndarray   # (H, W) int16
    n_objects: int

    @property
    def outlier_id(self) -> int:
        return self.n_objects

    def covered(self) -> np.ndarray:
        return self.owners != OWNER_OUTSIDE


@dataclass(frozen=True)
class OrderEdge:
    front: int
    back: int
    votes_front: int
    votes_back: int
    conflict_size: int

    def as_tuple(self):
        return (self.front, self.back, self.votes_front, self.votes_back, self.conflict_size)


@dataclass
class IterationRecord:
    assignments: np.ndarray
    edges: tuple[OrderEdge, ...]
    labels: tuple[tuple[int, int], ...]
    scores: tuple[float, ...]


@dataclass
class SceneResult:
    objects: list[SceneObject]
    assignment: VisibilityAssignment | None
    edges: tuple[OrderEdge, ...]
    amodal: list[np.ndarray]   # full-lattice masks, one per object
    modal: list[np.ndarray]
    trace: list[IterationRecord]


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
    stacked = np.concatenate([occ[:, None], fg], axis=1)
    idx = np.argmax(stacked, axis=1)
    return np.where(idx == 0, fg.shape[1], idx - 1)


def detect_conflicts(a: SceneObject, b: SceneObject, scene_shape: tuple[int, int]) -> np.ndarray:
    """Full-lattice mask of pixels both objects claim (`SceneObject.claims`).

    A pixel one object labels foreground outside its predicted amodal mask
    can never be modal for it, so it is no evidence of occlusion: it casts
    no vote and is never reassigned.
    """
    out = np.zeros(scene_shape, dtype=np.bool_)
    inter = a.box.intersection(b.box)
    if inter is None:
        return out
    ay, ax = inter.y0 - a.box.y0, inter.x0 - a.box.x0
    by, bx = inter.y0 - b.box.y0, inter.x0 - b.box.x0
    h, w = inter.shape
    a_claim = a.claims()[ay : ay + h, ax : ax + w]
    b_claim = b.claims()[by : by + h, bx : bx + w]
    out[inter.slices] = a_claim & b_claim
    return out


def _pair_tables(a: SceneObject, b: SceneObject, conflict: np.ndarray, occ_merge: str):
    """Per-conflict-pixel (fg_a, fg_b, occ) columns for the pairwise rule."""
    ys, xs = np.nonzero(conflict)
    fa = a.maps.fg[ys - a.box.y0, xs - a.box.x0]
    fb = b.maps.fg[ys - b.box.y0, xs - b.box.x0]
    oa = a.maps.occ[ys - a.box.y0, xs - a.box.x0]
    ob = b.maps.occ[ys - b.box.y0, xs - b.box.x0]
    if occ_merge == "max":
        fg = np.stack([fa, fb], axis=1)
        occ = np.maximum(oa, ob)
    elif occ_merge == "per-object":
        # Each claim must beat the claimant's own occluder value; a claim
        # that fails is withdrawn before the joint argmax.
        fg = np.stack(
            [np.where(fa > oa, fa, -np.inf), np.where(fb > ob, fb, -np.inf)], axis=1
        )
        occ = np.maximum(oa, ob)
    else:
        raise ValidationError(f"unknown occ merge mode {occ_merge!r}")
    return ys, xs, fg, occ


def pixel_competition(
    a: SceneObject,
    b: SceneObject,
    pixel: tuple[int, int],
    scene_shape: tuple[int, int],
    occ_merge: str = "max",
) -> int:
    """Owner of one conflict pixel: a.oid, b.oid, or the outlier (-1 here)."""
    conflict = np.zeros(scene_shape, dtype=np.bool_)
    conflict[pixel] = True
    _, _, fg, occ = _pair_tables(a, b, conflict, occ_merge)
    winner = int(compete_pixels(fg, occ)[0])
    return {0: a.oid, 1: b.oid}.get(winner, -1)


def recover_order(votes_a: int, votes_b: int) -> int:
    """+1 when the first object is in front, else -1 (ties fall to -1)."""
    return 1 if votes_a > votes_b else -1


def _conflict_pairs(objects: Sequence[SceneObject], scene_shape, occ_merge):
    """All overlapping pairs with nonempty conflicts, ordered for processing.

    Descending conflict size, then ascending (id, id). Votes come from the
    pairwise competition on the pair's own maps.
    """
    pairs = []
    for i in range(len(objects)):
        for j in range(i + 1, len(objects)):
            a, b = objects[i], objects[j]
            if not a.box.overlaps(b.box):
                continue
            conflict = detect_conflicts(a, b, scene_shape)
            csize = int(conflict.sum())
            if csize == 0:
                continue
            ys, xs, fg, occ = _pair_tables(a, b, conflict, occ_merge)
            winners = compete_pixels(fg, occ)
            votes_a = int(np.sum(winners == 0))
            votes_b = int(np.sum(winners == 1))
            pairs.append((csize, a.oid, b.oid, i, j, conflict, votes_a, votes_b))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    return pairs


def _competition_ownership(
    objects: Sequence[SceneObject], scene_shape: tuple[int, int], occ_merge: str
) -> np.ndarray:
    """Scene ownership before any order reassignment.

    Every covered pixel runs the competition: the foreground claims standing
    there (pixels the claimant labels F) against the occluder value merged
    over all models covering the pixel. Claims of one object and claims of
    several are treated identically, so the rule matches the brute-force
    per-pixel MAP table exactly. Covered pixels nobody claims go to the
    outlier when some covering model labels them occluder, otherwise stay
    unowned (context matter).
    """
    n = len(objects)
    owners = np.full(scene_shape, OWNER_OUTSIDE, dtype=np.int16)
    claim = np.zeros((n,) + scene_shape, dtype=np.bool_)
    occ_label = np.zeros(scene_shape, dtype=np.bool_)
    fg_val = np.full((n,) + scene_shape, -np.inf)
    occ_val = np.full((n,) + scene_shape, -np.inf)

    for idx, obj in enumerate(objects):
        sl = obj.box.slices
        owners[sl] = np.where(owners[sl] == OWNER_OUTSIDE, OWNER_NONE, owners[sl])
        claim[idx][sl] = obj.labels == LABEL_FG
        occ_label[sl] |= obj.labels == LABEL_OCC
        fg_val[idx][sl] = obj.maps.fg
        occ_val[idx][sl] = obj.maps.occ

    claimed = claim.any(axis=0)
    if np.any(claimed):
        ys, xs = np.nonzero(claimed)
        fg = np.where(claim[:, ys, xs], fg_val[:, ys, xs], -np.inf).T
        occ = np.max(occ_val[:, ys, xs], axis=0)
        if occ_merge == "per-object":
            own_occ = occ_val[:, ys, xs]
            fg = np.where(fg > own_occ.T, fg, -np.inf)
        owners[ys, xs] = compete_pixels(fg, occ)

    unclaimed_occ = ~claimed & occ_label
    owners[unclaimed_occ] = n
    return owners


def reassign(
    owners: np.ndarray, conflict: np.ndarray, front_index: int, outlier_id: int
) -> np.ndarray:
    """All-or-nothing: conflict pixels not held by the outlier go to the front."""
    take = conflict & (owners != outlier_id)
    owners[take] = front_index
    return owners


def orm_pass(
    objects: Sequence[SceneObject],
    scene_shape: tuple[int, int],
    occ_merge: str = "max",
    no_order: bool = False,
) -> tuple[VisibilityAssignment, tuple[OrderEdge, ...]]:
    """One competition + order-recovery + reassignment sweep over a scene.

    Each pair with a nonempty conflict set gets the edge `recover_order`
    reads from its votes, ties included. Reassignment then works per pixel,
    not per pair, so at a pixel three or more objects claim no pair can
    overwrite another's decision: a pixel two or more objects claim, and the
    outlier does not hold, goes to the claimant that the edges put in front
    of every other claimant there. A tied vote is a coin flip on ids, so a
    tied pair puts neither object in front; a pixel without a claimant in
    front of all the others keeps its competition owner. With two claimants
    this is the all-or-nothing reassignment of the pair's conflict set.
    """
    n = len(objects)
    owners = _competition_ownership(objects, scene_shape, occ_merge)
    pairs = _conflict_pairs(objects, scene_shape, occ_merge)
    edges = []
    ahead = set()
    for csize, oid_a, oid_b, i, j, conflict, votes_a, votes_b in pairs:
        if recover_order(votes_a, votes_b) == 1:
            edges.append(OrderEdge(oid_a, oid_b, votes_a, votes_b, csize))
        else:
            edges.append(OrderEdge(oid_b, oid_a, votes_b, votes_a, csize))
        if votes_a != votes_b:
            ahead.add((i, j) if votes_a > votes_b else (j, i))
    if not no_order:
        claims = np.zeros((n,) + scene_shape, dtype=np.bool_)
        for idx, obj in enumerate(objects):
            claims[idx][obj.box.slices] = obj.claims()
        contested = claims.sum(axis=0) >= 2
        for front in range(n):
            take = contested & claims[front]
            for other in range(n):
                if other != front and (front, other) not in ahead:
                    take &= ~claims[other]
            owners = reassign(owners, take, front, n)
    return VisibilityAssignment(owners, n), tuple(edges)


def build_order_graph(
    objects: Sequence[SceneObject],
    scene_shape: tuple[int, int],
    occ_merge: str = "max",
) -> tuple[OrderEdge, ...]:
    """Directed pairwise order edges from the objects' current maps."""
    _, edges = orm_pass(objects, scene_shape, occ_merge=occ_merge, no_order=True)
    return edges


def _visibility_from_owners(obj_index: int, obj: SceneObject, owners: np.ndarray) -> np.ndarray:
    """Box-lattice visibility: 0 where another model or the outlier holds the pixel."""
    window = owners[obj.box.slices]
    lost = (window >= 0) & (window != obj_index)
    return (~lost).astype(np.int8)


def _self_visibility(obj: SceneObject) -> np.ndarray:
    # Feed-forward belief: only the object's own occluder pixels are hidden.
    return (obj.labels != LABEL_OCC).astype(np.int8)


def feed_forward(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
    score_mode: str = "max",
) -> list[SceneObject]:
    """Independent per-object classification and scene-aligned maps."""
    objects = []
    for oid, box in boxes:
        if not box.fits_in(scene.height, scene.width):
            raise ValidationError(f"object {oid}: box {box.as_tuple()} outside scene")
        patch = crop(scene, box)
        result = classify(
            patch, bundle.classes, bundle.dictionary, bundle.occluder, score_mode=score_mode
        )
        mixture = bundle.classes[result.class_index].mixtures[result.mixture_index]
        objects.append(
            SceneObject(
                oid=oid,
                box=box,
                class_index=result.class_index,
                mixture_index=result.mixture_index,
                score=result.score,
                maps=result.maps,
                labels=segment_single(result.maps),
                amodal=amodal_mask(mixture, box),
            )
        )
    return objects


def _masks(
    objects: Sequence[SceneObject],
    scene_shape: tuple[int, int],
    owners: np.ndarray | None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    amodal_out, modal_out = [], []
    for idx, obj in enumerate(objects):
        full_amodal = np.zeros(scene_shape, dtype=np.bool_)
        full_amodal[obj.box.slices] = obj.amodal
        if owners is None:
            visible = obj.labels == LABEL_FG
        else:
            visible = owners[obj.box.slices] == idx
        full_modal = np.zeros(scene_shape, dtype=np.bool_)
        full_modal[obj.box.slices] = obj.amodal & visible
        amodal_out.append(full_amodal)
        modal_out.append(full_modal)
    return amodal_out, modal_out


def segment_scene(
    scene: FeatureMap,
    boxes: Sequence[tuple[int, BoundingBox]],
    bundle: ModelBundle,
    iters: int = 1,
    no_order: bool = False,
    occ_merge: str = "max",
    score_mode: str = "max",
) -> SceneResult:
    """Full scene inference: feed-forward, then `iters` reasoning passes.

    iters=0 returns the independent per-object baseline. Each pass recomputes
    ownership and order from the current maps, then re-scores exactly the
    objects whose visibility grid changed (the occluded ones), taking the
    new mixture's maps when a label flips so the next pass sees corrected
    predictions.
    """
    if iters < 0:
        raise ValidationError(f"iteration count must be non-negative, got {iters}")
    objects = feed_forward(scene, boxes, bundle, score_mode=score_mode)
    scene_shape = scene.shape
    trace: list[IterationRecord] = []
    assignment: VisibilityAssignment | None = None
    edges: tuple[OrderEdge, ...] = ()

    prev_vis = [_self_visibility(o) for o in objects]
    for _ in range(iters):
        assignment, edges = orm_pass(objects, scene_shape, occ_merge, no_order)
        for idx, obj in enumerate(objects):
            vis = _visibility_from_owners(idx, obj, assignment.owners)
            if np.array_equal(vis, prev_vis[idx]):
                continue
            prev_vis[idx] = vis
            patch = crop(scene, obj.box)
            result = classify(
                patch,
                bundle.classes,
                bundle.dictionary,
                bundle.occluder,
                visibility=vis,
                score_mode=score_mode,
            )
            relabelled = (result.class_index, result.mixture_index) != (
                obj.class_index,
                obj.mixture_index,
            )
            obj.class_index = result.class_index
            obj.mixture_index = result.mixture_index
            obj.score = result.score
            if relabelled:
                mixture = bundle.classes[result.class_index].mixtures[result.mixture_index]
                obj.maps = result.maps
                obj.labels = segment_single(obj.maps)
                obj.amodal = amodal_mask(mixture, obj.box)
        trace.append(
            IterationRecord(
                assignments=assignment.owners.copy(),
                edges=edges,
                labels=tuple((o.class_index, o.mixture_index) for o in objects),
                scores=tuple(o.score for o in objects),
            )
        )

    owners = assignment.owners if assignment is not None else None
    amodal_out, modal_out = _masks(objects, scene_shape, owners)
    return SceneResult(
        objects=list(objects),
        assignment=assignment,
        edges=edges,
        amodal=amodal_out,
        modal=modal_out,
        trace=trace,
    )

"""Synthetic occlusion challenge generator.

Scenes are grids of unit feature vectors drawn from planted vMF directions:
object pixels from per-part directions, background pixels from a background
pool, unknown-occluder pixels from a held-out pool that no training stage
ever sees. Geometry is exact, so ground-truth modal/amodal masks, occlusion
fractions, and the order graph come straight from the painter's composition.

Three evaluation scenarios: `two` (one object occludes another at a target
level), `four` (a depth-ordered chain of four objects), `unknown` (two
known objects with overlapping boxes plus an unknown frontmost blob). The
training split contains only clean pairs, plus object-free background maps
for the occluder coefficients.

The four object templates (two classes of two) are module data,
`_TEMPLATES`. A placed object is only (class index, template id, box): its
label and its part grid follow from those, and `_part_grid` paints each
template once per size and shares the raster read-only.

The geometry is fixed: feature dimension `DIM`, generator concentration
`SIGMA_GEN`, canonical template size `GRID`, the templates and the scene
sizes are module constants, not settings. The angle budget of
`build_part_space` is tuned to what a concentration-30 likelihood in 16
dimensions can tell apart, and the placement searches (scale range, slide
scan, retry counts) to 24-pixel templates in 44- and 56-pixel scenes; other
values would need a new tuning, not a new argument.

`generate_challenge` builds the scenes in worker processes, one per CPU the
calling process may run on, forked so that they share the modules it has
already imported. Each scene draws only from its own seed-derived streams
and the manifest keeps the job order, so neither the bytes written nor the
manifest's order depend on the worker count, and nothing sets that count.
"""
from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CompsegError, ValidationError
from .fmap import BoundingBox, FeatureMap, save_feature_map
from .formats import (
    Manifest,
    ManifestEntry,
    ObjectRecord,
    SceneAnnotation,
    annotation_to_json,
    atomic_write_text,
    save_manifest,
)
from .vmf import sample_vmf

LEVELS = ("L0", "L1", "L2", "L3")
# Right-open occlusion-fraction buckets; objects at or above the last edge
# are excluded from metric buckets entirely.
LEVEL_EDGES = {"L0": (0.0, 0.01), "L1": (0.01, 0.30), "L2": (0.30, 0.60), "L3": (0.60, 0.90)}
OVER_LIMIT = "over90"


def level_of(fraction: float) -> str:
    for name in LEVELS:
        lo, hi = LEVEL_EDGES[name]
        if lo <= fraction < hi:
            return name
    return OVER_LIMIT


DIM = 16                  # feature dimension
SIGMA_GEN = 30.0          # vMF concentration of every sampled pixel
GRID = 24                 # canonical template size
TWO_SIZE = 44             # side of two-object, unknown, train and background scenes
FOUR_SIZE = 56            # side of four-object scenes
SAME_CLASS_PROB = 0.5     # chance that a planted pair shares its class
# Class labels in class-index order: a scene's class index picks its label
# here and its part directions in `PartSpace.class_parts`.
_LABELS = ("brick", "disc")


@dataclass(frozen=True)
class ChallengeConfig:
    per_level: int = 75
    train_scenes: int = 300
    backgrounds: int = 40
    seed: int = 7


@dataclass(frozen=True)
class PartSpace:
    """Planted direction pools with the angular layout the challenge needs.

    Class parts live in tight caps so same-class occluders are genuinely
    confusable; background directions keep >= 45 degrees from every part so
    context never masquerades as object matter; unknown directions sit near
    the background region but outside both training pools.
    """

    class_parts: np.ndarray    # (n_classes, parts_per_class, D)
    bg_dirs: np.ndarray        # (n_bg, D)
    unknown_dirs: np.ndarray   # (n_unknown, D)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _angle_deg(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.degrees(np.arccos(np.clip(np.dot(u, v), -1.0, 1.0))))


def _cap_sample(rng: np.random.Generator, center: np.ndarray, lo_deg: float, hi_deg: float) -> np.ndarray:
    theta = np.radians(rng.uniform(lo_deg, hi_deg))
    while True:
        g = rng.standard_normal(center.shape[0])
        t = g - np.dot(g, center) * center
        n = np.linalg.norm(t)
        if n > 1e-9:
            break
    t /= n
    return _unit(center * np.cos(theta) + t * np.sin(theta))


def _fill_pool(rng, count, sampler, accept):
    # greedy fill can paint itself into a corner, so retry from scratch
    for _ in range(40):
        pool: list[np.ndarray] = []
        for _ in range(20_000):
            cand = sampler()
            if accept(cand, pool):
                pool.append(cand)
                if len(pool) == count:
                    return np.stack(pool)
    raise ValidationError("direction pool constraints unsatisfiable")


def build_part_space(rng: np.random.Generator) -> PartSpace:
    """Two classes of six parts (two triples each), 12 background and 6
    unknown directions, laid out with an explicit angle budget.

    The budget is driven by what a concentration-30 likelihood can tell
    apart per pixel and by the fact that the occluder pool knows only
    background matter:

    - parts inside one template triple sit >= 36 degrees apart, so a pixel
      carrying one part votes against a position expecting another;
    - the two triples of a class sit >= 28 degrees apart, enough to
      identify a template from a small visible sliver;
    - each second-class part is paired 12-18 degrees off a first-class
      part: matter of the other class still looks foreground-plausible,
      so an occluded model keeps claiming the hidden region instead of
      conceding it to the occluder branch, which is what makes conflict
      sets (and with them order votes) exist at all;
    - backgrounds stay >= 50 degrees from every part so hidden known
      matter beats the occluder branch, while unknown matter at >= 60
      degrees from parts and 30-50 from the background centre loses to it.
    """
    per_triple = 3
    part_center = _unit(rng.standard_normal(DIM))

    def base_accept(cand: np.ndarray, pool: list[np.ndarray]) -> bool:
        for j, p in enumerate(pool):
            floor = 36.0 if j // per_triple == len(pool) // per_triple else 28.0
            if _angle_deg(cand, p) < floor:
                return False
        return True

    base = _fill_pool(
        rng,
        2 * per_triple,
        lambda: _cap_sample(rng, part_center, 0.0, 34.0),
        base_accept,
    )

    paired: list[np.ndarray] = []
    for i in range(base.shape[0]):
        others = [base[j] for j in range(base.shape[0]) if j != i]

        def pair_accept(cand: np.ndarray, _pool, i=i, others=others) -> bool:
            if not all(_angle_deg(cand, p) >= 28.0 for p in others):
                return False
            for j, q in enumerate(paired):
                floor = 36.0 if j // per_triple == i // per_triple else 28.0
                if _angle_deg(cand, q) < floor:
                    return False
            return True

        paired.append(
            _fill_pool(
                rng, 1, lambda i=i: _cap_sample(rng, base[i], 12.0, 18.0), pair_accept
            )[0]
        )
    class_parts = np.stack([base, np.stack(paired)])
    all_parts = class_parts.reshape(-1, DIM)

    while True:
        bg_center = _unit(rng.standard_normal(DIM))
        if _angle_deg(bg_center, part_center) >= 85.0:
            break

    bg_dirs = _fill_pool(
        rng,
        12,
        lambda: _cap_sample(rng, bg_center, 0.0, 25.0),
        lambda cand, pool: (
            all(_angle_deg(cand, p) >= 50.0 for p in all_parts)
            and all(_angle_deg(cand, b) >= 8.0 for b in pool)
        ),
    )

    unknown_dirs = _fill_pool(
        rng,
        6,
        lambda: _cap_sample(rng, bg_center, 30.0, 50.0),
        lambda cand, pool: (
            all(_angle_deg(cand, p) >= 60.0 for p in all_parts)
            and all(_angle_deg(cand, b) >= 25.0 for b in bg_dirs)
            and all(_angle_deg(cand, u) >= 10.0 for u in pool)
        ),
    )
    return PartSpace(class_parts, bg_dirs, unknown_dirs)


# --------------------------------------------------------------------------
# Templates

# Two classes x two templates, indexed by class index (`_LABELS` order) then
# template id: (silhouette, part triple, ring width), geometry in canonical
# grid units. The mask is inset from the grid border so every crop carries a
# context ring. The two templates of a class use disjoint part triples,
# (0,1,2) against (3,4,5), on top of orthogonal silhouettes: a sliver of
# visible object then identifies its template outright, because the sibling
# template has zero coefficient mass on every observed part. That keeps
# mixture selection honest even when most of the object is hidden. Within a
# template, parts interleave on the sector-and-ring layout described at
# `_part_grid`, sized so cells survive placement rounding while staying small
# against any plausible overlap region.
_LONG_R, _SHORT_R, _CORNER = GRID * 0.385, GRID * 0.27, GRID * 0.08
_TEMPLATES = (
    (  # brick
        (("rrect", _SHORT_R, _LONG_R, _CORNER), (0, 1, 2), 4.7),
        (("rrect", _LONG_R, _SHORT_R, _CORNER), (3, 4, 5), 5.3),
    ),
    (  # disc
        (("ellipse", _SHORT_R, _LONG_R), (0, 1, 2), 5.0),
        (("ellipse", _LONG_R, _SHORT_R), (3, 4, 5), 4.4),
    ),
)


@functools.lru_cache(maxsize=None)
def _part_grid(class_index: int, template_id: int, shape: tuple[int, int]) -> np.ndarray:
    """A template's part ids at `shape`, -1 off the silhouette; read-only.

    Pixel centers of the requested raster are mapped into canonical grid
    units and everything is evaluated there directly, so rendering at the
    placed size costs one rounding where resampling a canonical raster
    would cost two. Placed sizes come from a handful of sides, so each
    raster is painted once per shape and the cache stays small.

    The layout assigns ids[(sector + ring) mod 3] with nine 40-degree
    sectors and concentric rings, plus a constant hub where sectors get
    narrower than a pixel. Nine sectors make bearings that differ by half
    a turn always land on different ids: a contested region between two
    copies of one template is seen from roughly opposite bearings, so
    their part predictions disagree there and ownership votes stay
    decisive. The rings break the tie for near-concentric copies.
    """
    silhouette, ids, ring_width = _TEMPLATES[class_index][template_id]
    h, w = shape
    yy = (np.arange(h, dtype=np.float64)[:, None] + 0.5) * (GRID / h) - 0.5
    xx = (np.arange(w, dtype=np.float64)[None, :] + 0.5) * (GRID / w) - 0.5
    c = (GRID - 1) / 2.0
    dy, dx = yy - c, xx - c
    rho = np.hypot(dy, dx)
    theta = np.arctan2(dy, dx)
    if silhouette[0] == "ellipse":
        ry, rx = silhouette[1:]
        mask = (dy / ry) ** 2 + (dx / rx) ** 2 <= 1.0
    else:
        ry, rx, corner = silhouette[1:]
        qy = np.abs(dy) - (ry - corner)
        qx = np.abs(dx) - (rx - corner)
        mask = np.hypot(np.maximum(qy, 0.0), np.maximum(qx, 0.0)) <= corner
    sector = np.floor((theta + np.pi) / (2.0 * np.pi / 9.0)).astype(np.int64)
    ring = np.floor(rho / ring_width).astype(np.int64)
    slot = np.mod(sector + ring, 3)
    slot[rho < 3.0] = 0
    out = np.full((h, w), -1, dtype=np.int64)
    out[mask] = np.asarray(ids)[slot][mask]
    out.setflags(write=False)
    return out


# --------------------------------------------------------------------------
# Placement


@dataclass
class PlacedObject:
    class_index: int
    template_id: int
    box: BoundingBox

    @property
    def label(self) -> str:
        return _LABELS[self.class_index]

    @property
    def part_grid(self) -> np.ndarray:
        """The template's part ids at the box's size."""
        return _part_grid(self.class_index, self.template_id, self.box.shape)

    def lattice_mask(self, shape: tuple[int, int]) -> np.ndarray:
        return _placed_at(shape, self.part_grid >= 0, self.box.y0, self.box.x0)


# The placement code draws one scalar at a time, in a fixed order, and that
# order is the challenge: every byte of a generated scene follows from it.
# Drawing a try's scalars as one vector gives the same values but costs more
# (`integers(2, size=4)` takes about 3.5 scalar calls' time, an array-bound
# `integers` about 4.5), and batching draws across tries or directions would
# move the stream and so rewrite every dataset. The one exception is the
# training-pair search, whose tries `make_train_scene` computes from raw
# PCG64 words with the same values and the same stream position afterwards.
# Elsewhere, what is cut is the work around the draws: overlap is counted on
# the box window, and a full-lattice mask is placed only where a veto reads
# one.


def _placed_at(shape, mask, y0: int, x0: int) -> np.ndarray:
    """`mask` placed on the lattice with its corner at (y0, x0); it must fit."""
    h, w = mask.shape
    out = np.zeros(shape, dtype=np.bool_)
    out[y0 : y0 + h, x0 : x0 + w] = mask
    return out


def _coverage(target: np.ndarray, front: np.ndarray) -> float:
    denom = int(target.sum())
    return float((target & front).sum()) / denom if denom else 0.0


def _approach_search(
    rng: np.random.Generator,
    shape: tuple[int, int],
    mask: np.ndarray,
    other: np.ndarray,
    anchor: tuple[float, float],
    bucket: tuple[float, float],
    measure: str = "slider",
    veto=None,
) -> BoundingBox | None:
    """Slide `mask` toward the anchor until the overlap lands in `bucket`.

    measure="slider" targets the fraction of the sliding mask covered by
    `other` (placing an occluded object behind existing matter);
    measure="other" targets the fraction of `other` covered by the slider
    (placing an occluder in front of a fixed object). Binary search on the
    continuous slide, then a local integer scan to absorb pixel snapping.
    A candidate for which `veto(placed_mask)` is true is never returned.
    """
    h, w = mask.shape
    lo_f, hi_f = bucket
    diag = float(np.hypot(*shape)) + 2.0
    denom = int(mask.sum()) if measure == "slider" else int(other.sum())

    def frac_at_corner(y0: int, x0: int) -> float:
        # Overlap counted on the box window; -1.0 when the mask does not fit.
        if y0 < 0 or x0 < 0 or y0 + h > shape[0] or x0 + w > shape[1]:
            return -1.0
        if not denom:
            return 0.0
        return float(np.count_nonzero(mask & other[y0 : y0 + h, x0 : x0 + w])) / denom

    for _ in range(16):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        start_y = anchor[0] + float(np.sin(phi)) * diag
        start_x = anchor[1] + float(np.cos(phi)) * diag

        def corner_at(t: float) -> tuple[int, int]:
            cy = start_y + (anchor[0] - start_y) * t
            cx = start_x + (anchor[1] - start_x) * t
            return int(round(cy - h / 2.0)), int(round(cx - w / 2.0))

        t_lo, t_hi = 0.0, 1.0
        if frac_at_corner(*corner_at(t_hi)) < lo_f:
            continue
        target_mid = (lo_f + hi_f) / 2.0
        for _ in range(40):
            t_mid = (t_lo + t_hi) / 2.0
            if frac_at_corner(*corner_at(t_mid)) < target_mid:
                t_lo = t_mid
            else:
                t_hi = t_mid

        at = corner_at(t_hi)
        if frac_at_corner(*at) < 0.0:
            continue
        for dy in (0, -1, 1, -2, 2, -3, 3):
            for dx in (0, -1, 1, -2, 2, -3, 3):
                y0, x0 = at[0] + dy, at[1] + dx
                f = frac_at_corner(y0, x0)
                if f < 0.0 or not lo_f <= f < hi_f:
                    continue
                if veto is None or not veto(_placed_at(shape, mask, y0, x0)):
                    return BoundingBox(x0, y0, x0 + w, y0 + h)
    return None


def _random_fit_box(rng, shape, h, w, margin=0) -> BoundingBox:
    y0 = int(rng.integers(margin, shape[0] - h - margin + 1))
    x0 = int(rng.integers(margin, shape[1] - w - margin + 1))
    return BoundingBox(x0, y0, x0 + w, y0 + h)


def _side(s: float) -> int:
    return max(12, int(round(GRID * s)))


def _scaled_shape(rng) -> tuple[int, int]:
    side = _side(rng.uniform(0.85, 1.05))
    return side, side


def _pick_template(rng, class_index: int | None = None) -> tuple[int, int]:
    """(class index, template id); the class is drawn unless given."""
    ci = int(rng.integers(len(_LABELS))) if class_index is None else class_index
    return ci, int(rng.integers(len(_TEMPLATES[ci])))


def _disjoint_box(rng, shape, mask, taken: np.ndarray, tries: int, margin: int = 0):
    """A random box where the placed `mask` misses `taken`; None after `tries` draws."""
    h, w = mask.shape
    for _ in range(tries):
        cand = _random_fit_box(rng, shape, h, w, margin)
        if not np.any(mask & taken[cand.slices]):
            return cand
    return None


# --------------------------------------------------------------------------
# Rendering


def render_composition(
    shape: tuple[int, int],
    placed: Sequence[PlacedObject],
    blob: tuple[np.ndarray, np.ndarray] | None,
    space: PartSpace,
    rng: np.random.Generator,
) -> tuple[FeatureMap, np.ndarray]:
    """Paint matter back to front and sample every pixel's feature vector.

    `placed` is depth-ordered, index 0 frontmost. `blob`, when present, is
    (lattice mask, per-pixel unknown-direction index) and sits in front of
    everything. Returns the feature map and the per-pixel matter owner grid
    (-1 background, -2 unknown blob, else index into `placed`).
    """
    owner = np.full(shape, -1, dtype=np.int64)
    for i in reversed(range(len(placed))):
        obj = placed[i]
        window = owner[obj.box.slices]
        window[obj.part_grid >= 0] = i
    if blob is not None:
        owner[blob[0]] = -2

    # One direction id per pixel: background pixels pick uniformly from the
    # background pool; object pixels read their part grid; blob pixels use
    # the blob's held-out directions.
    n_classes, ppc, dim = space.class_parts.shape
    flat_parts = space.class_parts.reshape(-1, dim)
    dir_table = np.concatenate([flat_parts, space.bg_dirs, space.unknown_dirs])
    bg_base = n_classes * ppc
    unk_base = bg_base + space.bg_dirs.shape[0]

    dir_idx = rng.integers(bg_base, unk_base, size=shape)
    for i, obj in enumerate(placed):
        window_owner = owner[obj.box.slices]
        mine = window_owner == i
        dir_window = dir_idx[obj.box.slices]
        dir_window[mine] = obj.class_index * ppc + obj.part_grid[mine]
    if blob is not None:
        dir_idx[blob[0]] = unk_base + blob[1][blob[0]]

    # Directions draw in index order, and each direction's samples fill its
    # pixels in row-major order. A stable sort lists every direction's
    # pixels in that order, one direction after another.
    flat_idx = dir_idx.reshape(-1)
    by_dir = np.argsort(flat_idx, kind="stable")
    counts = np.bincount(flat_idx, minlength=dir_table.shape[0])
    data = np.empty((flat_idx.size, dim), dtype=np.float64)
    start = 0
    for d, count in enumerate(counts.tolist()):
        if count:
            rows = by_dir[start : start + count]
            data[rows] = sample_vmf(rng, dir_table[d], SIGMA_GEN, count)
            start += count
    return FeatureMap(data.reshape(shape + (dim,))), owner


def _scene(
    rng, space, scene_id, scenario, split, shape, placed, blob=None
) -> tuple[FeatureMap, SceneAnnotation]:
    """Render `placed` (index 0 frontmost) and annotate it.

    Object ids are shuffled so id order carries no depth information. Every
    pair whose amodal masks overlap gets an order edge (front, back).
    """
    fm, owner = render_composition(shape, placed, blob, space, rng)
    oids = [int(k) for k in rng.permutation(len(placed))]
    amodal = [p.lattice_mask(shape) for p in placed]
    objects = [None] * len(placed)
    for i, obj in enumerate(placed):
        modal = amodal[i] & (owner == i)
        fraction = 1.0 - int(modal.sum()) / int(amodal[i].sum())
        objects[oids[i]] = ObjectRecord(
            oid=oids[i],
            label=obj.label,
            template=obj.template_id,
            box=obj.box,
            depth=i,
            occlusion=fraction,
            level=level_of(fraction),
            amodal=amodal[i],
            modal=modal,
        )
    edges = [
        (oids[i], oids[j])
        for i in range(len(placed))
        for j in range(i + 1, len(placed))
        if np.any(amodal[i] & amodal[j])
    ]
    return fm, SceneAnnotation(
        scene_id=scene_id,
        scenario=scenario,
        split=split,
        shape=shape,
        objects=objects,
        order_edges=edges,
        unknown=None if blob is None else blob[0],
    )


# --------------------------------------------------------------------------
# Scenario builders


def _notice(scenario: str, level: str) -> str:
    return f"{scenario} scene at {level}: placement search exhausted"


def _plant_pair(rng, shape, level: str, what: str):
    """Two placed objects, the second behind the first at `level`.

    At L0 the masks stay disjoint: a graze of one or two pixels would plant
    an order edge no amount of evidence could recover.
    """
    a = _pick_template(rng)
    b = _pick_template(rng, a[0] if rng.random() < SAME_CLASS_PROB else 1 - a[0])
    ha, wa = _scaled_shape(rng)
    shape_b = _scaled_shape(rng)
    mask_a = _part_grid(*a, (ha, wa)) >= 0
    mask_b = _part_grid(*b, shape_b) >= 0

    box_a = _random_fit_box(rng, shape, ha, wa, margin=1)
    front = _placed_at(shape, mask_a, box_a.y0, box_a.x0)
    if level == "L0":
        box_b = _disjoint_box(rng, shape, mask_b, front, tries=200, margin=1)
    else:
        anchor = ((box_a.y0 + box_a.y1) / 2.0, (box_a.x0 + box_a.x1) / 2.0)
        box_b = _approach_search(rng, shape, mask_b, front, anchor, LEVEL_EDGES[level])
    if box_b is None:
        raise ValidationError(_notice(what, level))
    return [PlacedObject(*a, box_a), PlacedObject(*b, box_b)]


def make_two_scene(rng, space, level: str, scene_id: str):
    shape = (TWO_SIZE, TWO_SIZE)
    placed = _plant_pair(rng, shape, level, "two-object")
    return _scene(rng, space, scene_id, "two", "test", shape, placed)


def make_four_scene(rng, space, level: str, scene_id: str):
    shape = (FOUR_SIZE, FOUR_SIZE)
    ci, tid = _pick_template(rng)
    h, w = _scaled_shape(rng)
    placed = [PlacedObject(ci, tid, _random_fit_box(rng, shape, h, w, margin=6))]
    union = placed[0].lattice_mask(shape)

    for _ in range(3):
        ci, tid = _pick_template(rng)
        mask = _part_grid(ci, tid, _scaled_shape(rng)) >= 0
        if level == "L0":
            box = _disjoint_box(rng, shape, mask, union, tries=300, margin=1)
        else:
            prev = placed[-1].box
            anchor = ((prev.y0 + prev.y1) / 2.0, (prev.x0 + prev.x1) / 2.0)
            box = _approach_search(rng, shape, mask, union, anchor, LEVEL_EDGES[level])
        if box is None:
            raise ValidationError(_notice("four-object", level))
        placed.append(PlacedObject(ci, tid, box))
        union |= placed[-1].lattice_mask(shape)

    return _scene(rng, space, scene_id, "four", "test", shape, placed)


def _ellipse_blob(rng, target_box: BoundingBox) -> np.ndarray:
    # Roughly half the linear size of the object it will sit on: big enough
    # to swallow a contested zone, small enough that neither object's total
    # occlusion is pushed past the heaviest measured bucket.
    h = max(8, int(round(target_box.height * rng.uniform(0.45, 0.70))))
    w = max(8, int(round(target_box.width * rng.uniform(0.50, 0.80))))
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    return ((yy - cy) / (h / 2.0 - 0.3)) ** 2 + ((xx - cx) / (w / 2.0 - 0.3)) ** 2 <= 1.0


# A blob must cover at least this fraction of the pair's contested zone,
# and no object may end up occluded beyond the cap in total. Both frozen
# after probing on generator seeds disjoint from the shipped challenge.
BLOB_ZONE_BUCKET = (0.35, 0.95)
OCCLUSION_CAP = 0.88


def make_unknown_scene(rng, space, level: str, scene_id: str):
    """An occluding pair at the scene's level plus a frontmost unknown blob.

    The pair is planted exactly like a two-object scene; the blob is then
    aimed at the zone both objects contest (their amodal intersection), so
    unknown matter lands where ownership reasoning has to hold its ground.
    At L0 the knowns stay disjoint and the blob floats clear of both.
    Recorded occlusion fractions are totals (known occluder plus blob);
    the scene's level names the planted pair bucket alone.
    """
    shape = (TWO_SIZE, TWO_SIZE)
    placed = _plant_pair(rng, shape, level, "two-plus-unknown")
    amodal_a = placed[0].lattice_mask(shape)
    amodal_b = placed[1].lattice_mask(shape)
    zone = amodal_a & amodal_b
    blob = _ellipse_blob(rng, placed[0].box)

    def overcovers(pm: np.ndarray) -> bool:
        # Totals must stay inside measurable buckets for both objects.
        return (
            _coverage(amodal_a, pm) >= OCCLUSION_CAP
            or _coverage(amodal_b, amodal_a | pm) >= OCCLUSION_CAP
        )

    if level == "L0":
        blob_box = _disjoint_box(rng, shape, blob, amodal_a | amodal_b, tries=200)
    else:
        ys, xs = np.nonzero(zone)
        mid = (float(ys.mean()), float(xs.mean()))
        blob_box = _approach_search(
            rng, shape, blob, zone, mid, BLOB_ZONE_BUCKET,
            measure="other", veto=overcovers,
        )
    if blob_box is None:
        raise ValidationError(_notice("two-plus-unknown", level))

    blob_lattice = _placed_at(shape, blob, blob_box.y0, blob_box.x0)
    blob_dirs = np.zeros(shape, dtype=np.int64)
    n_unknown = space.unknown_dirs.shape[0]
    pick = rng.integers(n_unknown, size=2)
    blob_dirs[blob_lattice] = rng.choice(pick, size=int(blob_lattice.sum()))
    return _scene(
        rng, space, scene_id, "unknown", "test", shape, placed, (blob_lattice, blob_dirs)
    )


# Tries `make_train_scene` makes before the stream counts as exhausted.
_TRAIN_TRIES = 400
_N_TEMPLATES = np.array([len(t) for t in _TEMPLATES], dtype=np.uint64)


def _lemire(half: np.ndarray, n) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded integer in [0, n) from 32-bit words `half`.

    Lemire's method as `Generator.integers` runs it for a range below 2**32:
    the value is the high half of `half * n`, and the word is rejected (and
    another drawn) when the low half falls below `(2**32 - n) % n`. Returns
    the values and the rejection flags.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = half * n
    return (m >> 32).astype(np.int64), (m & 0xFFFFFFFF) < (2**32 - n) % n


def _pair_tries(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each training-pair try's ten values from its six raw PCG64 words.

    `words` is a (tries, 6) uint64 block of `random_raw` output. With no
    half-word buffered, a try's scalar draws consume exactly one row: words
    0-1 give four 32-bit half-words, low half first, for `ci_a`, `tid_a`,
    `ci_b`, `tid_b`; words 2-3 give the two `uniform(0.85, 1.05)` scales,
    one word each; words 4-5 give `ya`, `xa`, `yb`, `xb`. Returns (tries, 10)
    int64 rows (ci_a, tid_a, ci_b, tid_b, side_a, side_b, ya, xa, yb, xb)
    and a per-try flag that some integer would need Lemire's redraw: that
    draw takes a further half-word, so from the first flagged try on the
    rows no longer follow the stream.
    """
    lo, hi = words & 0xFFFFFFFF, words >> 32
    ci_a, r0 = _lemire(lo[:, 0], len(_LABELS))
    tid_a, r1 = _lemire(hi[:, 0], _N_TEMPLATES[ci_a])
    ci_b, r2 = _lemire(lo[:, 1], len(_LABELS))
    tid_b, r3 = _lemire(hi[:, 1], _N_TEMPLATES[ci_b])
    # `uniform` is low + (high - low) * (53 high bits of one word) / 2**53;
    # `np.rint` rounds half to even, as `round` does in `_side`.
    scale = 0.85 + (1.05 - 0.85) * ((words[:, 2:4] >> 11) * 2.0**-53)
    sides = np.maximum(12, np.rint(GRID * scale)).astype(np.int64)
    side_a, side_b = sides[:, 0], sides[:, 1]
    ya, r4 = _lemire(lo[:, 4], TWO_SIZE - side_a + 1)
    xa, r5 = _lemire(hi[:, 4], TWO_SIZE - side_a + 1)
    yb, r6 = _lemire(lo[:, 5], TWO_SIZE - side_b + 1)
    xb, r7 = _lemire(hi[:, 5], TWO_SIZE - side_b + 1)
    tries = np.stack([ci_a, tid_a, ci_b, tid_b, side_a, side_b, ya, xa, yb, xb], axis=1)
    return tries, r0 | r1 | r2 | r3 | r4 | r5 | r6 | r7


def _apart(side_a, side_b, ya, xa, yb, xb):
    """Whether two square boxes, corners (ya, xa) and (yb, xb), are disjoint."""
    return (xa >= xb + side_b) | (xb >= xa + side_a) | (ya >= yb + side_b) | (yb >= ya + side_a)


def make_train_scene(rng, space, scene_id: str):
    """Two clean objects, boxes fully disjoint.

    A try makes ten draws, in the order of two `_pick_template`, two
    `_scaled_shape` and two `_random_fit_box` calls, and the first try whose
    boxes are disjoint is kept; after 400 tries the stream counts as
    exhausted. Two boxes of 20-25 pixels placed anywhere in 44 rarely miss
    each other, so about one try in 125 is kept.

    The tries are not drawn one scalar at a time. Each draw is a fixed
    function of the raw PCG64 words, so one `random_raw` block of six words
    per try gives all 400 tries at once (`_pair_tries`). The generator's
    state is then restored and exactly the words up to and including the
    kept try are consumed, which leaves the stream where the scalar draws
    leave it; when no try fits, all 2,400 words stay consumed, as 400
    scalar tries would consume them. The scalar loop still runs, from the try where the block stops
    following the stream, when an integer draw needs Lemire's redraw (fewer
    than one half-word in 170 million), when a half-word is already
    buffered on entry, or when the generator is not PCG64.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    start = 0
    if state["bit_generator"] == "PCG64" and not state["has_uint32"]:
        tries, redraw = _pair_tries(bitgen.random_raw(6 * _TRAIN_TRIES).reshape(-1, 6))
        stop = np.flatnonzero(_apart(*tries[:, 4:].T) | redraw)
        if not stop.size:
            raise ValidationError("could not place disjoint training pair")
        start = int(stop[0])
        bitgen.state = state
        if not redraw[start]:
            bitgen.random_raw(6 * (start + 1))
            return _train_pair(rng, space, scene_id, *tries[start].tolist())
        bitgen.random_raw(6 * start)

    integers, uniform = rng.integers, rng.uniform
    for _ in range(start, _TRAIN_TRIES):
        ci_a = int(integers(len(_LABELS)))
        tid_a = int(integers(len(_TEMPLATES[ci_a])))
        ci_b = int(integers(len(_LABELS)))
        tid_b = int(integers(len(_TEMPLATES[ci_b])))
        side_a = _side(uniform(0.85, 1.05))
        side_b = _side(uniform(0.85, 1.05))
        ya = int(integers(0, TWO_SIZE - side_a + 1))
        xa = int(integers(0, TWO_SIZE - side_a + 1))
        yb = int(integers(0, TWO_SIZE - side_b + 1))
        xb = int(integers(0, TWO_SIZE - side_b + 1))
        if _apart(side_a, side_b, ya, xa, yb, xb):
            return _train_pair(
                rng, space, scene_id, ci_a, tid_a, ci_b, tid_b, side_a, side_b, ya, xa, yb, xb
            )
    raise ValidationError("could not place disjoint training pair")


def _train_pair(rng, space, scene_id, ci_a, tid_a, ci_b, tid_b, side_a, side_b, ya, xa, yb, xb):
    placed = [
        PlacedObject(ci_a, tid_a, BoundingBox(xa, ya, xa + side_a, ya + side_a)),
        PlacedObject(ci_b, tid_b, BoundingBox(xb, yb, xb + side_b, yb + side_b)),
    ]
    return _scene(rng, space, scene_id, "two", "train", (TWO_SIZE, TWO_SIZE), placed)


def make_background_map(rng, space, scene_id: str):
    shape = (TWO_SIZE, TWO_SIZE)
    return _scene(rng, space, scene_id, "background", "background", shape, [])


# --------------------------------------------------------------------------
# Dataset driver


# scenario -> (seed-stream code, builder)
_SCENARIOS = {
    "two": (3, make_two_scene),
    "four": (4, make_four_scene),
    "unknown": (5, make_unknown_scene),
}


# A placement search can come up dry for an unlucky geometry draw; such a
# scene is resampled whole from a fresh attempt-indexed stream.
_ATTEMPTS = 24


def _retried(stream: list) -> tuple:
    return tuple(stream + [attempt] for attempt in range(_ATTEMPTS))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# What every job of one worker process shares: (output root, part space).
# Set once by `_start_worker` in the worker, never in the calling process.
_worker: tuple[str, PartSpace] | None = None


def _start_worker(root: str, space: PartSpace) -> None:
    global _worker
    _worker = (root, space)


def _build_scene(job) -> ManifestEntry:
    """Build one scene from its first stream that yields one, write its FMAP
    and annotation under the worker's root, and return its manifest entry."""
    streams, build, args, scene_id, level = job
    root, space = _worker
    for stream in streams:
        try:
            fm, ann = build(np.random.default_rng(stream), space, *args, scene_id)
            break
        except ValidationError as exc:
            last = exc
    else:
        raise last
    fpath = os.path.join("scenes", f"{scene_id}.fmap")
    apath = os.path.join("annotations", f"{scene_id}.json")
    save_feature_map(fm, os.path.join(root, fpath))
    atomic_write_text(os.path.join(root, apath), annotation_to_json(ann))
    return ManifestEntry(scene_id, fpath, apath, ann.split, ann.scenario, level)


def generate_challenge(
    root: str, cfg: ChallengeConfig = ChallengeConfig(), scenarios: Sequence[str] = ("two", "four", "unknown")
) -> Manifest:
    """Write the full challenge under `root` and return its manifest.

    Every scene draws from an independent seed-derived stream, so any subset
    regenerates identically regardless of generation order. Scenes are built
    in worker processes, one per CPU this process may run on (at most one
    per scene); neither the bytes written nor the manifest's order depend
    on how many workers there are, and nothing sets that number. A job's
    exception re-raises here with its type and message; a worker that dies
    raises `CompsegError`. No worker outlives the call.
    """
    for i, s in enumerate(scenarios):
        if s not in _SCENARIOS:
            raise ValidationError(f"unknown scenario {s!r}")
        if s in scenarios[:i]:
            raise ValidationError(f"scenario {s!r} is listed twice")
    for name in ("per_level", "train_scenes", "backgrounds", "seed"):
        if getattr(cfg, name) < 0:
            raise ValidationError(f"{name} must be >= 0, got {getattr(cfg, name)}")
    space = build_part_space(np.random.default_rng([cfg.seed, 17]))

    os.makedirs(os.path.join(root, "scenes"), exist_ok=True)
    os.makedirs(os.path.join(root, "annotations"), exist_ok=True)

    # (seed streams tried in turn, builder, builder args, scene id, level)
    jobs = [
        (_retried([cfg.seed, 1, i]), make_train_scene, (), f"train-{i:04d}", "L0")
        for i in range(cfg.train_scenes)
    ]
    jobs += [
        (([cfg.seed, 2, i],), make_background_map, (), f"bg-{i:04d}", "L0")
        for i in range(cfg.backgrounds)
    ]
    for scenario in scenarios:
        code, builder = _SCENARIOS[scenario]
        jobs += [
            (_retried([cfg.seed, code, li, i]), builder, (level,),
             f"{scenario}-{level}-{i:04d}", level)
            for li, level in enumerate(LEVELS)
            for i in range(cfg.per_level)
        ]
    entries: list[ManifestEntry] = []
    if jobs:
        workers = min(_usable_cpus(), len(jobs))
        # Forked, not spawned, so workers need not import numpy and compseg
        # again; this assumes the caller runs no other thread, and the
        # package starts none.
        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(
                workers, context, initializer=_start_worker, initargs=(root, space)
            ) as pool:
                entries = list(pool.map(_build_scene, jobs))
        except BrokenProcessPool as exc:
            raise CompsegError(f"a scene worker process died: {exc}") from exc

    manifest = Manifest(
        root=root,
        entries=entries,
        config=dict(
            seed=cfg.seed,
            dim=DIM,
            sigma_gen=SIGMA_GEN,
            per_level=cfg.per_level,
            train_scenes=cfg.train_scenes,
            backgrounds=cfg.backgrounds,
            grid=GRID,
            same_class_prob=SAME_CLASS_PROB,
        ),
    )
    save_manifest(manifest, os.path.join(root, "manifest.json"))
    return manifest

"""Segmentation metrics, and the variant comparison they score.

This module scores predictions; it runs no reasoning itself. A prediction
comes from `orm.segment_scene`, and the variant sweep from one
`orm.segment_variants` call per scene over every variant.

Objects are scored by mask IoU and bucketed by their ground-truth occlusion
fraction with `synth.level_of`, the generator's own bucketing, so the
generator and the scorer can never drift apart. Objects hidden beyond the
last bucket (`synth.OVER_LIMIT`) are excluded from every row. The Mean row
averages over objects, not over level rows, so sparsely populated buckets
do not get outsized weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .fmap import FeatureMap, iou, place
from .formats import ModelBundle, ObjectRecord, SceneAnnotation
from .orm import SceneResult, segment_scene, segment_variants
from .synth import LEVELS, OVER_LIMIT, level_of


# ---------------------------------------------------------------------------
# per-object scoring


@dataclass(frozen=True)
class MiouTable:
    """Per-level mean IoU in percent. Empty buckets hold NaN."""

    rows: dict[str, float]
    counts: dict[str, int]
    mean: float
    total: int


def _index_predictions(predictions: Iterable[SceneAnnotation]):
    table: dict[str, tuple[tuple[int, int], dict[int, ObjectRecord]]] = {}
    for ann in predictions:
        table[ann.scene_id] = (ann.shape, {rec.oid: rec for rec in ann.objects})
    return table


def miou_by_level(
    predictions: Iterable[SceneAnnotation],
    truths: Iterable[SceneAnnotation],
    mode: str = "modal",
) -> MiouTable:
    """Score predicted masks against ground truth, bucketed by occlusion.

    Objects are matched by scene id and object id. A truth object with no
    matching prediction scores zero; extra predicted objects are ignored.
    Records hold their masks on their boxes' lattices (files hold them as
    full-lattice RLE): each mask of a matched pair is placed on its scene's
    lattice before the two are compared, so each IoU is the one the
    full-lattice masks give, whatever boxes the two records carry.
    """
    if mode not in ("modal", "amodal"):
        raise ValidationError(f"mode must be modal or amodal, got {mode!r}")
    pred = _index_predictions(predictions)

    sums = {name: 0.0 for name in LEVELS}
    counts = {name: 0 for name in LEVELS}
    for ann in sorted(truths, key=lambda a: a.scene_id):
        pred_shape, scene_pred = pred.get(ann.scene_id, (ann.shape, {}))
        for rec in ann.objects:
            name = level_of(rec.occlusion)
            if name == OVER_LIMIT:
                continue
            match = scene_pred.get(rec.oid)
            if match is None:
                score = 0.0
            else:
                want = rec.modal if mode == "modal" else rec.amodal
                got = match.modal if mode == "modal" else match.amodal
                # `iou` refuses masks placed on two different lattices
                score = iou(place(got, match.box, pred_shape), place(want, rec.box, ann.shape))
            sums[name] += score
            counts[name] += 1

    rows = {
        name: (100.0 * sums[name] / counts[name]) if counts[name] else math.nan
        for name in LEVELS
    }
    total = sum(counts.values())
    mean = 100.0 * sum(sums.values()) / total if total else math.nan
    return MiouTable(rows=rows, counts=counts, mean=mean, total=total)


# ---------------------------------------------------------------------------
# depth-order scoring


def _edge_pairs(edges) -> dict[frozenset, tuple[int, int]]:
    """{pair: (front, back)} from annotation edge tuples, (front, back, ...)."""
    out: dict[frozenset, tuple[int, int]] = {}
    for e in edges:
        front, back = int(e[0]), int(e[1])
        out[frozenset((front, back))] = (front, back)
    return out


def _edge_hits(predicted, truth) -> tuple[int, int]:
    """(true pairs whose predicted direction matches, true pairs)."""
    want = _edge_pairs(truth)
    got = _edge_pairs(predicted)
    return sum(1 for key, direction in want.items() if got.get(key) == direction), len(want)


def order_accuracy(predicted, truth) -> float:
    """Fraction of true overlapping pairs whose predicted direction matches.

    A pair with no predicted edge counts as wrong. Scenes without any
    overlapping pair score 1.0 vacuously.
    """
    hit, total = _edge_hits(predicted, truth)
    return hit / total if total else 1.0


def dataset_order_accuracy(
    pairs: Iterable[tuple[SceneAnnotation, SceneAnnotation]],
) -> float:
    """Pooled pair accuracy over (predicted, truth) annotation pairs."""
    hit = tot = 0
    for predicted, truth in pairs:
        h, t = _edge_hits(predicted.order_edges, truth.order_edges)
        hit += h
        tot += t
    return hit / tot if tot else 1.0


def full_graph_accuracy(
    pairs: Iterable[tuple[SceneAnnotation, SceneAnnotation]],
) -> float:
    """Fraction of scenes whose entire order graph is recovered."""
    scenes = perfect = 0
    for predicted, truth in pairs:
        scenes += 1
        if order_accuracy(predicted.order_edges, truth.order_edges) == 1.0:
            perfect += 1
    return perfect / scenes if scenes else 1.0


# ---------------------------------------------------------------------------
# prediction driver


def _annotation(
    truth: SceneAnnotation, bundle: ModelBundle, result: SceneResult
) -> SceneAnnotation:
    """The prediction record of `result`, with the ids, boxes and shape of `truth`.

    The record deliberately carries no run configuration: depth and
    occlusion are sentinels, level is blank, and only the masks, the class
    decision, and the recovered order edges describe the output. The masks,
    on each box's lattice, are derived here, so only states that become
    records build them.
    """
    objects = []
    for idx, rec in enumerate(truth.objects):
        pick = result.objects[idx].pick
        amodal, modal = result.masks(idx)
        objects.append(
            ObjectRecord(
                oid=rec.oid,
                label=bundle.classes[pick.class_index].label,
                template=pick.mixture_index,
                box=rec.box,
                depth=-1,
                occlusion=-1.0,
                level="",
                amodal=amodal,
                modal=modal,
                score=pick.score,
            )
        )
    return SceneAnnotation(
        scene_id=truth.scene_id,
        scenario=truth.scenario,
        split=truth.split,
        shape=truth.shape,
        objects=objects,
        order_edges=list(result.edges),
    )


def predict_scene(
    fm: FeatureMap,
    truth: SceneAnnotation,
    bundle: ModelBundle,
    iters: int = 1,
    no_order: bool = False,
) -> tuple[SceneAnnotation, SceneResult]:
    """Segment one scene with ground-truth boxes and package the prediction."""
    boxes = [(rec.oid, rec.box) for rec in truth.objects]
    result = segment_scene(fm, boxes, bundle, iters=iters, no_order=no_order)
    return _annotation(truth, bundle, result), result


# ---------------------------------------------------------------------------
# variant comparison

# name -> segment_scene arguments; "independent" never runs competition,
# "no-order" reads each pass's competition grid, before reassignment.
VARIANTS: tuple[tuple[str, dict], ...] = (
    ("independent", dict(iters=0)),
    ("no-order", dict(iters=1, no_order=True)),
    ("ordered-1", dict(iters=1)),
    ("ordered-2", dict(iters=2)),
)


@dataclass(frozen=True)
class AblationReport:
    modal: dict[str, MiouTable]
    amodal: dict[str, MiouTable]
    order: dict[str, float]
    scenario: str = ""


def tabulate(
    predicted: Sequence[Sequence[SceneAnnotation]],
    truths: Sequence[SceneAnnotation],
    scenario: str = "",
) -> AblationReport:
    """Modal/amodal mIoU and order accuracy, one prediction list per variant.

    `predicted[v]` holds the annotations of `VARIANTS[v]` in `truths` order.
    A variant that runs no reasoning pass (iters=0) recovers no order and
    reads NaN.
    """
    modal: dict[str, MiouTable] = {}
    amodal: dict[str, MiouTable] = {}
    order: dict[str, float] = {}
    for (name, kwargs), preds in zip(VARIANTS, predicted, strict=True):
        modal[name] = miou_by_level(preds, truths, "modal")
        amodal[name] = miou_by_level(preds, truths, "amodal")
        if kwargs.get("iters", 1) == 0:
            order[name] = math.nan
        else:
            order[name] = dataset_order_accuracy(zip(preds, truths))
    return AblationReport(modal=modal, amodal=amodal, order=order, scenario=scenario)


def _variant_results(
    fm: FeatureMap, truth: SceneAnnotation, bundle: ModelBundle
) -> list[tuple[SceneAnnotation, SceneResult]]:
    """`predict_scene` under each of `VARIANTS`, in order, from one
    `segment_variants` call, so from one feed-forward and one first pass."""
    boxes = [(rec.oid, rec.box) for rec in truth.objects]
    pairs = [(kwargs["iters"], kwargs.get("no_order", False)) for _, kwargs in VARIANTS]
    states = segment_variants(fm, boxes, bundle, pairs)
    return [(_annotation(truth, bundle, state), state) for state in states]


def run_ablation(
    pairs: Sequence[tuple[FeatureMap, SceneAnnotation]],
    bundle: ModelBundle,
    scenario: str = "",
) -> AblationReport:
    """Segment every scene under each variant and tabulate modal/amodal mIoU."""
    predicted: list[list[SceneAnnotation]] = [[] for _ in VARIANTS]
    for fm, truth in pairs:
        for preds, (ann, _) in zip(predicted, _variant_results(fm, truth, bundle)):
            preds.append(ann)
    truths = [truth for _, truth in pairs]
    return tabulate(predicted, truths, scenario)


# ---------------------------------------------------------------------------
# unknown-matter diagnostics


def unknown_outlier_stats(
    owners: np.ndarray, truth: SceneAnnotation, outlier_id: int
) -> tuple[int, int]:
    """Count contested unknown pixels owned by the outlier.

    Contested means inside a zone two objects both extend over (the
    intersection of their true amodal masks): exactly where order
    reassignment is allowed to move pixels, so unknown matter standing
    there survives only if the outlier holds it. Returns
    (outlier-owned, total) over that region restricted to the unknown mask.
    """
    if truth.unknown is None:
        return 0, 0
    region = np.zeros(truth.shape, dtype=np.bool_)
    amodal = [place(rec.amodal, rec.box, truth.shape) for rec in truth.objects]
    for i in range(len(amodal)):
        for j in range(i + 1, len(amodal)):
            region |= amodal[i] & amodal[j]
    sel = truth.unknown & region
    total = int(sel.sum())
    if total == 0:
        return 0, 0
    return int((owners[sel] == outlier_id).sum()), total


# ---------------------------------------------------------------------------
# aligned-text reports


def _cell(value: float) -> str:
    return "     -" if math.isnan(value) else f"{value:6.2f}"


def format_level_table(rows: dict[str, MiouTable], title: str) -> str:
    """One line per variant, columns L0..L3 then the object-weighted mean."""
    name_w = max([len(n) for n in rows] + [len("variant")])
    lines = [title]
    header = "variant".ljust(name_w) + "".join(f"  {lv:>6}" for lv in LEVELS)
    lines.append(header + f"  {'Mean':>6}  {'n':>5}")
    lines.append("-" * len(lines[-1]))
    for name, table in rows.items():
        cells = "".join(f"  {_cell(table.rows[lv])}" for lv in LEVELS)
        lines.append(
            name.ljust(name_w) + cells + f"  {_cell(table.mean)}  {table.total:5d}"
        )
    return "\n".join(lines)


def format_ablation_report(report: AblationReport) -> str:
    where = f" [{report.scenario}]" if report.scenario else ""
    parts = [
        format_level_table(report.modal, f"modal mIoU{where}"),
        "",
        format_level_table(report.amodal, f"amodal mIoU{where}"),
        "",
        "pairwise order accuracy" + where,
    ]
    name_w = max([len(n) for n in report.order] + [len("variant")])
    for name, acc in report.order.items():
        shown = "     -" if math.isnan(acc) else f"{acc:6.4f}"
        parts.append(f"{name.ljust(name_w)}  {shown}")
    return "\n".join(parts)

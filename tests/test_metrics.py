import hashlib
import math

import numpy as np
import pytest

import compseg.orm as orm
from compseg.errors import ValidationError
from compseg.fmap import BoundingBox, iou
from compseg.formats import ObjectRecord, SceneAnnotation, annotation_to_json, load_scene
from compseg.metrics import (
    VARIANTS,
    AblationReport,
    _variant_results,
    MiouTable,
    dataset_order_accuracy,
    format_ablation_report,
    format_level_table,
    full_graph_accuracy,
    miou_by_level,
    order_accuracy,
    predict_scene,
    run_ablation,
    tabulate,
    unknown_outlier_stats,
)

SHAPE = (6, 6)


def _mask(*rows):
    m = np.zeros(SHAPE, dtype=np.bool_)
    for y, x0, x1 in rows:
        m[y, x0:x1] = True
    return m


def _rec(oid, occlusion, modal, amodal=None, box=BoundingBox(0, 0, 6, 6)):
    return ObjectRecord(
        oid=oid,
        label="a",
        template=0,
        box=box,
        depth=oid,
        occlusion=occlusion,
        level="",
        amodal=modal if amodal is None else amodal,
        modal=modal,
    )


def _ann(scene_id, objects, edges=()):
    return SceneAnnotation(
        scene_id=scene_id,
        scenario="two",
        split="test",
        shape=SHAPE,
        objects=objects,
        order_edges=list(edges),
    )


def test_perfect_predictions_score_100():
    truth = [
        _ann("s0", [_rec(0, 0.0, _mask((0, 0, 3))), _rec(1, 0.5, _mask((1, 0, 3)))]),
        _ann("s1", [_rec(0, 0.7, _mask((2, 0, 3)))]),
    ]
    table = miou_by_level(truth, truth)
    assert table.rows["L0"] == 100.0
    assert table.rows["L2"] == 100.0
    assert table.rows["L3"] == 100.0
    assert math.isnan(table.rows["L1"])
    assert table.mean == 100.0
    assert table.total == 3
    assert table.counts == {"L0": 1, "L1": 0, "L2": 1, "L3": 1}


def test_missing_predictions_score_zero():
    truth = [_ann("s0", [_rec(0, 0.0, _mask((0, 0, 3)))])]
    table = miou_by_level([], truth)
    assert table.rows["L0"] == 0.0
    assert table.mean == 0.0
    # a missing object scores zero without erasing its bucket mate
    truth2 = [
        _ann(
            "s0",
            [_rec(0, 0.0, _mask((0, 0, 3))), _rec(1, 0.0, _mask((1, 0, 3)))],
        )
    ]
    pred2 = [_ann("s0", [_rec(0, 0.0, _mask((0, 0, 3)))])]
    assert miou_by_level(pred2, truth2).rows["L0"] == 50.0


def test_single_object_half_iou():
    truth = [_ann("s0", [_rec(0, 0.4, _mask((0, 0, 2)))])]
    pred = [_ann("s0", [_rec(0, -1.0, _mask((0, 1, 3)))])]  # IoU 1/3
    table = miou_by_level(pred, truth)
    assert table.rows["L2"] == pytest.approx(100.0 / 3.0)
    assert table.mean == pytest.approx(100.0 / 3.0)
    assert table.total == 1
    for lv in ("L0", "L1", "L3"):
        assert math.isnan(table.rows[lv])


def test_over_ninety_objects_excluded():
    truth = [
        _ann("s0", [
            _rec(0, 0.95, _mask((0, 0, 3))),
            _rec(1, 0.2, _mask((1, 0, 3))),
            _rec(2, 0.90, _mask((2, 0, 3))),
        ])
    ]
    table = miou_by_level([], truth)
    assert table.total == 1
    assert table.counts["L1"] == 1


def test_mode_validation_and_amodal():
    truth = [_ann("s0", [_rec(0, 0.0, _mask((0, 0, 2)), amodal=_mask((0, 0, 4)))])]
    pred = [_ann("s0", [_rec(0, -1.0, _mask((5, 0, 1)), amodal=_mask((0, 0, 4)))])]
    with pytest.raises(ValidationError):
        miou_by_level(pred, truth, mode="visible")
    assert miou_by_level(pred, truth, "amodal").rows["L0"] == 100.0
    assert miou_by_level(pred, truth, "modal").rows["L0"] == 0.0


def test_masks_on_different_boxes_are_compared_on_the_scene_lattice():
    # the truth's box is the lattice, the prediction's its lower-right 3x3
    # corner: the prediction's 3 pixels meet 3 of the truth's 6
    truth = [_ann("s0", [_rec(0, 0.0, _mask((4, 0, 6)))])]
    corner = BoundingBox(3, 3, 6, 6)
    pred = [_ann("s0", [_rec(0, -1.0, _mask((4, 3, 6))[corner.slices], box=corner)])]
    assert miou_by_level(pred, truth, "modal").rows["L0"] == 50.0
    assert miou_by_level(pred, truth, "amodal").rows["L0"] == 50.0


def test_mean_is_object_weighted():
    rng = np.random.default_rng(4)
    truths, preds, ious = [], [], []
    for s in range(5):
        t_objs, p_objs = [], []
        for oid in range(int(rng.integers(1, 4))):
            t = rng.random(SHAPE) < 0.5
            p = rng.random(SHAPE) < 0.5
            occ = float(rng.uniform(0.0, 0.89))
            t_objs.append(_rec(oid, occ, t))
            p_objs.append(_rec(oid, -1.0, p))
            ious.append(iou(p, t))
        truths.append(_ann(f"s{s}", t_objs))
        preds.append(_ann(f"s{s}", p_objs))
    table = miou_by_level(preds, truths)
    want = 100.0 * sum(ious) / len(ious)
    assert table.mean == pytest.approx(want, abs=1e-9)
    # the mean recombines exactly from the per-level rows and counts
    recombined = sum(
        table.rows[lv] * table.counts[lv] for lv in table.rows if table.counts[lv]
    ) / table.total
    assert table.mean == pytest.approx(recombined, abs=1e-9)
    # prediction order is irrelevant
    again = miou_by_level(list(reversed(preds)), truths)
    assert (again.rows, again.mean) == (table.rows, table.mean)


def test_order_accuracy_examples():
    truth = [(0, 1), (2, 3), (0, 2), (1, 3)]
    assert order_accuracy(truth, truth) == 1.0
    flipped = [(b, a) for a, b in truth]
    assert order_accuracy(flipped, truth) == 0.0
    assert order_accuracy(truth[:3] + [(3, 1)], truth) == 0.75
    assert order_accuracy(truth[:3], truth) == 0.75   # missing pair is wrong
    assert order_accuracy([], []) == 1.0              # vacuous scene
    # annotation edges may carry their votes after (front, back)
    edges = [(0, 1, 5, 2, 7), (2, 3, 4, 0, 4)]
    assert order_accuracy(edges, [(0, 1), (2, 3)]) == 1.0


def test_dataset_order_accuracy_pools_pairs():
    t1 = _ann("s0", [], edges=[(0, 1), (1, 2), (0, 2)])
    p1 = _ann("s0", [], edges=[(0, 1), (2, 1), (0, 2)])
    t2 = _ann("s1", [], edges=[(0, 1)])
    p2 = _ann("s1", [], edges=[(0, 1)])
    # 2/3 + 1/1 pooled = 3/4, not the mean of the two scene scores
    assert dataset_order_accuracy([(p1, t1), (p2, t2)]) == 0.75
    assert full_graph_accuracy([(p1, t1), (p2, t2)]) == 0.5
    assert dataset_order_accuracy([]) == 1.0
    assert full_graph_accuracy([]) == 1.0


def test_unknown_outlier_stats_hand_case():
    # Amodal extents overlap on rows 2-3, columns 2-4 (a 2x3 zone).
    am0 = np.zeros(SHAPE, dtype=np.bool_)
    am0[0:4, 0:5] = True
    am1 = np.zeros(SHAPE, dtype=np.bool_)
    am1[2:6, 2:6] = True
    objs = [
        _rec(0, 0.0, _mask((0, 0, 1)), amodal=am0),
        _rec(1, 0.0, _mask((5, 5, 6)), amodal=am1),
    ]
    unknown = np.zeros(SHAPE, dtype=np.bool_)
    unknown[2:4, 2:4] = True     # 4 px inside the contested zone
    unknown[0, 0] = True         # on object 0 alone, must not count
    unknown[5, 5] = True         # on object 1 alone, must not count
    ann = _ann("s0", objs)
    ann.unknown = unknown
    owners = np.full(SHAPE, -1, dtype=np.int16)
    owners[2, 2] = 9
    owners[2, 3] = 9
    owners[3, 2] = 0
    owners[0, 0] = 9
    hit, total = unknown_outlier_stats(owners, ann, outlier_id=9)
    assert (hit, total) == (2, 4)
    ann.unknown = None
    assert unknown_outlier_stats(owners, ann, 9) == (0, 0)


def test_format_tables_smoke():
    table = MiouTable(
        rows={"L0": 100.0, "L1": math.nan, "L2": 42.5, "L3": 7.0},
        counts={"L0": 1, "L1": 0, "L2": 2, "L3": 1},
        mean=48.0,
        total=4,
    )
    text = format_level_table({"ordered-1": table}, "modal mIoU")
    assert "ordered-1" in text and "42.50" in text and "     -" in text
    report = AblationReport(
        modal={"a": table}, amodal={"a": table},
        order={"a": math.nan, "b": 0.9875}, scenario="two",
    )
    rendered = format_ablation_report(report)
    assert "[two]" in rendered and "0.9875" in rendered and "-" in rendered


def test_ablation_variants_agree_without_overlap(tiny_train_pairs, tiny_bundle):
    # training scenes have disjoint boxes, so ordering can change nothing
    pairs = tiny_train_pairs[:2]
    report = run_ablation(pairs, tiny_bundle, scenario="train")
    names = [name for name, _ in VARIANTS]
    assert list(report.modal) == names
    base = {**report.modal["independent"].rows, "Mean": report.modal["independent"].mean}
    for name in names[1:]:
        got = {**report.modal[name].rows, "Mean": report.modal[name].mean}
        for key, val in base.items():
            if math.isnan(val):
                assert math.isnan(got[key])
            else:
                assert got[key] == pytest.approx(val, abs=1e-12)
    assert math.isnan(report.order["independent"])
    for name in names[1:]:
        assert report.order[name] == 1.0


# SHA-256 of the predicted annotations of every TINY test scene under every
# variant, each `annotation_to_json` text followed by a NUL. Inference speed
# work must leave these bytes alone.
PINNED_PREDICTIONS_SHA256 = "a5943f4dbd5757579cef9f2256099eb85b11cd7b7b8cfc35adc6a759673cdc5d"


def test_predictions_pinned(tiny_challenge, tiny_bundle):
    digest = hashlib.sha256()
    for entry in tiny_challenge.select(split="test"):
        fm, truth = load_scene(tiny_challenge, entry)
        for _, kwargs in VARIANTS:
            ann, _ = predict_scene(fm, truth, tiny_bundle, **kwargs)
            digest.update(annotation_to_json(ann).encode() + b"\0")
    assert digest.hexdigest() == PINNED_PREDICTIONS_SHA256


def test_shared_sweep_matches_per_variant_prediction(tiny_challenge, tiny_bundle):
    """One feed-forward and one chain per scene give what a `predict_scene`
    call per variant gives: the same annotation bytes and the same tables."""
    for scenario in ("two", "four", "unknown"):
        pairs = [
            load_scene(tiny_challenge, e)
            for e in tiny_challenge.select(split="test", scenario=scenario)
        ]
        reference = [
            [predict_scene(fm, truth, tiny_bundle, **kwargs)[0] for fm, truth in pairs]
            for _, kwargs in VARIANTS
        ]
        for scene, (fm, truth) in enumerate(pairs):
            shared = [ann for ann, _ in _variant_results(fm, truth, tiny_bundle)]
            assert [annotation_to_json(a) for a in shared] == [
                annotation_to_json(per[scene]) for per in reference
            ], truth.scene_id
        want = tabulate(reference, [t for _, t in pairs], scenario)
        # repr spells every float exactly and matches the NaN of empty buckets.
        assert repr(run_ablation(pairs, tiny_bundle, scenario)) == repr(want)


def test_sweep_predictions_hold_masks_on_their_boxes(tiny_challenge, tiny_bundle):
    """Each kept prediction owns two box-lattice masks: a sweep's mask bytes
    are twice the summed box areas, with no scene plane behind a view."""
    mask_bytes = box_area = 0
    for entry in tiny_challenge.select(split="test"):
        fm, truth = load_scene(tiny_challenge, entry)
        for _, kwargs in VARIANTS:
            ann, _ = predict_scene(fm, truth, tiny_bundle, **kwargs)
            for rec in ann.objects:
                assert rec.amodal.shape == rec.modal.shape == rec.box.shape
                assert rec.amodal.base is None and rec.modal.base is None
                mask_bytes += rec.amodal.nbytes + rec.modal.nbytes
                box_area += rec.box.height * rec.box.width
    assert mask_bytes == 2 * box_area


def test_shared_sweep_rescores_each_chain_state_once(tiny_challenge, tiny_bundle, monkeypatch):
    """`ordered-1` and `ordered-2` read one ordered chain, so the shared sweep
    re-scores exactly what a no-order chain of one pass and an ordered chain
    of two do, fewer times than a `predict_scene` call per variant."""
    calls = []
    real = orm.rescore

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(orm, "rescore", counting)
    counts = {"shared": 0, "chains": 0, "per_variant": 0}
    for entry in tiny_challenge.select(split="test"):
        fm, truth = load_scene(tiny_challenge, entry)
        boxes = [(rec.oid, rec.box) for rec in truth.objects]
        runs = {
            "shared": lambda: _variant_results(fm, truth, tiny_bundle),
            "chains": lambda: [orm.segment_scene(fm, boxes, tiny_bundle, iters=1, no_order=True),
                               orm.segment_scene(fm, boxes, tiny_bundle, iters=2)],
            "per_variant": lambda: [predict_scene(fm, truth, tiny_bundle, **kwargs)
                                    for _, kwargs in VARIANTS],
        }
        for name, run in runs.items():
            calls.clear()
            run()
            counts[name] += len(calls)
    assert counts["shared"] == counts["chains"] < counts["per_variant"]


def test_shared_sweep_runs_one_first_pass_per_scene(tiny_challenge, tiny_bundle, monkeypatch):
    """Every variant's chain starts from one `orm_pass` of the scene's
    feed-forward; only `ordered-2` runs a second pass, and only where the
    `ordered-1` state re-picked an object."""
    calls = []
    real = orm.orm_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(orm, "orm_pass", counting)
    names = [name for name, _ in VARIANTS]
    entries = tiny_challenge.select(split="test")
    repicked = 0
    for entry in entries:
        fm, truth = load_scene(tiny_challenge, entry)
        states = [state for _, state in _variant_results(fm, truth, tiny_bundle)]
        picks = [
            [(o.pick.class_index, o.pick.mixture_index) for o in states[names.index(name)].objects]
            for name in ("independent", "ordered-1")
        ]
        repicked += picks[0] != picks[1]
    assert 0 < repicked < len(entries)
    assert len(calls) == len(entries) + repicked

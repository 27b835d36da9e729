import numpy as np
import pytest

import compseg.orm as orm
from compseg.errors import ValidationError
from compseg.fmap import BoundingBox
from compseg.formats import load_scene
from compseg.models import LABEL_FG, LABEL_OCC, LikelihoodMaps, amodal_mask, segment_single
from compseg.orm import (
    OWNER_NONE,
    OWNER_OUTSIDE,
    SceneObject,
    compete_pixels,
    orm_pass,
    recover_order,
    segment_scene,
)


def test_compete_pixels_ties():
    # outlier first, then lowest object id
    fg = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 2.0], [-5.0, -5.0]])
    occ = np.array([1.0, 1.0, 0.0, 0.0])
    assert compete_pixels(fg, occ).tolist() == [2, 0, 1, 2]
    with pytest.raises(ValidationError):
        compete_pixels(fg, occ[:2])


def test_recover_order_tie_breaks_backward():
    assert recover_order(3, 1) == 1
    assert recover_order(1, 3) == -1
    assert recover_order(0, 0) == -1
    assert recover_order(7, 7) == -1


def _object(oid, box, fg, ctx_fill=-20.0, occ_fill=-10.0, amodal=None):
    fg = np.asarray(fg, dtype=np.float64)
    maps = LikelihoodMaps(
        fg, np.full(box.shape, ctx_fill), np.full(box.shape, occ_fill)
    )
    if amodal is None:
        amodal = np.ones(box.shape, dtype=np.bool_)
    return SceneObject(
        oid=oid, box=box, class_index=0, mixture_index=0, score=0.0,
        maps=maps, labels=segment_single(maps), amodal=amodal,
    )


def _two_object_scene(outlier_pixel=False):
    """3x3 boxes on a 4x4 lattice overlapping in a 2x2 block.

    A claims everything at -1, B at -2 except scene pixel (2,2) where B has
    -0.5. With outlier_pixel, both drop to -50 at (1,1) so the occluder
    (-10) wins there.
    """
    a_fg = np.full((3, 3), -1.0)
    b_fg = np.full((3, 3), -2.0)
    b_fg[1, 1] = -0.5            # scene (2,2)
    if outlier_pixel:
        a_fg[1, 1] = -50.0       # scene (1,1)
        b_fg[0, 0] = -50.0
    a = _object(0, BoundingBox(0, 0, 3, 3), a_fg)
    b = _object(1, BoundingBox(1, 1, 4, 4), b_fg)
    return a, b


def test_detect_conflicts_geometry():
    # the conflict set is the box overlap, found at each box's own offset:
    # the 2x2 block of two 3x3 boxes, and nothing for boxes that only touch
    a, b = _two_object_scene()
    _, edges = orm_pass([a, b], (4, 4), no_order=True)
    assert [e.conflict_size for e in edges] == [4]

    far = _object(2, BoundingBox(0, 0, 2, 2), np.full((2, 2), -1.0))
    far2 = _object(3, BoundingBox(2, 2, 4, 4), np.full((2, 2), -1.0))
    assert orm_pass([far, far2], (4, 4), no_order=True)[1] == ()


def test_pixel_competition_hand_values():
    a, b = _two_object_scene()
    free, _ = orm_pass([a, b], (4, 4), no_order=True)
    assert free[1, 1] == 0
    assert free[2, 2] == 1
    a2, b2 = _two_object_scene(outlier_pixel=True)
    free, _ = orm_pass([a2, b2], (4, 4), no_order=True)
    assert free[1, 1] == 2             # the outlier: one past the last object


def test_reassign_all_or_nothing():
    # both objects claim scene (1,1) at exactly the occluder value, so the
    # outlier wins it on the tie; A is in front (2 votes to 1), and every
    # other conflict pixel goes to A, B's won pixel included
    a_fg = np.full((3, 3), -1.0)
    b_fg = np.full((3, 3), -2.0)
    a_fg[1, 1] = b_fg[0, 0] = -10.0     # scene (1,1)
    b_fg[1, 1] = -0.5                   # scene (2,2)
    a = _object(0, BoundingBox(0, 0, 3, 3), a_fg)
    b = _object(1, BoundingBox(1, 1, 4, 4), b_fg)
    free, _ = orm_pass([a, b], (4, 4), no_order=True)
    assert free[1:3, 1:3].tolist() == [[2, 0], [0, 1]]
    owners, edges = orm_pass([a, b], (4, 4))
    assert list(edges) == [(0, 1, 2, 1, 4)]
    assert owners[1:3, 1:3].tolist() == [[2, 0], [0, 0]]


def test_orm_pass_hand_case():
    a, b = _two_object_scene()
    owners, edges = orm_pass([a, b], (4, 4))
    assert len(edges) == 1
    e = edges[0]
    assert (e.front, e.back, e.votes_front, e.votes_back, e.conflict_size) == (0, 1, 3, 1, 4)

    want = np.array(
        [
            [0, 0, 0, OWNER_OUTSIDE],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [OWNER_OUTSIDE, 1, 1, 1],
        ],
        dtype=np.int16,
    )
    assert np.array_equal(owners, want)
    assert owners.dtype == np.int16

    # without reassignment B keeps its one won pixel
    free, _ = orm_pass([a, b], (4, 4), no_order=True)
    assert free[2, 2] == 1
    assert free[1, 1] == 0


def test_orm_pass_outlier_survives_reassignment():
    a, b = _two_object_scene(outlier_pixel=True)
    owners, edges = orm_pass([a, b], (4, 4))
    e = edges[0]
    assert (e.front, e.back) == (0, 1)
    assert (e.votes_front, e.votes_back) == (2, 1)
    assert owners[1, 1] == 2      # outlier claim is never overturned
    assert owners[2, 2] == 0      # B's pixel was, all-or-nothing


def test_orm_pass_front_claimant_takes_multiply_claimed_pixels():
    # three full-lattice objects on a 1x3 lattice; 0 beats 1 and 2, 1 beats
    # 2, but 2 wins the competition at (0,2). All conflict sets are equal in
    # size, so pair (1,2) comes last: reassigning pair by pair handed every
    # pixel to 1, although 0 is in front of both other claimants.
    box = BoundingBox(0, 0, 3, 1)
    objs = [
        _object(0, box, [[-1.0, -1.0, -1.0]]),
        _object(1, box, [[-2.0, -2.0, -2.0]]),
        _object(2, box, [[-3.0, -3.0, -0.5]]),
    ]
    free, _ = orm_pass(objs, (1, 3), no_order=True)
    assert free.tolist() == [[0, 0, 2]]
    owners, edges = orm_pass(objs, (1, 3))
    assert list(edges) == [
        (0, 1, 3, 0, 3), (0, 2, 2, 1, 3), (1, 2, 2, 1, 3)
    ]
    assert owners.tolist() == [[0, 0, 0]]


def test_conflict_outside_amodal_neither_votes_nor_moves():
    # A's predicted amodal mask leaves out scene (2,2), the pixel B wins;
    # it is no longer a conflict pixel, so B's vote there is gone and the
    # pixel stays with B instead of going to A, whose modal mask could never
    # hold it
    a_fg = np.full((3, 3), -1.0)
    b_fg = np.full((3, 3), -2.0)
    b_fg[1, 1] = -0.5
    a_amodal = np.ones((3, 3), dtype=np.bool_)
    a_amodal[2, 2] = False       # scene (2,2)
    a = _object(0, BoundingBox(0, 0, 3, 3), a_fg, amodal=a_amodal)
    b = _object(1, BoundingBox(1, 1, 4, 4), b_fg)

    owners, edges = orm_pass([a, b], (4, 4))
    assert list(edges) == [(0, 1, 3, 0, 3)]
    assert owners[2, 2] == 1
    assert owners[1, 2] == owners[2, 1] == 0


def test_tied_pair_reassigns_nothing():
    # each object wins two of the four conflict pixels: the edge still reads
    # -1 (B in front), but a tie orders neither object, so ownership stays
    # as the competition left it
    a_fg = np.full((3, 3), -1.0)
    b_fg = np.full((3, 3), -2.0)
    b_fg[1, 1] = b_fg[1, 0] = -0.5      # scene (2,2) and (2,1)
    a = _object(0, BoundingBox(0, 0, 3, 3), a_fg)
    b = _object(1, BoundingBox(1, 1, 4, 4), b_fg)
    owners, edges = orm_pass([a, b], (4, 4))
    assert list(edges) == [(1, 0, 2, 2, 4)]
    free, _ = orm_pass([a, b], (4, 4), no_order=True)
    assert np.array_equal(owners, free)
    assert owners[1:3, 1:3].tolist() == [[0, 0], [1, 1]]


def test_context_pixels_stay_unowned():
    # ctx (-1) beats occ (-5) beats fg (-30): every box pixel labels C
    fg = np.full((2, 2), -30.0)
    a = _object(0, BoundingBox(0, 0, 2, 2), fg, ctx_fill=-1.0, occ_fill=-5.0)
    assert not (a.labels == LABEL_FG).any()
    owners, edges = orm_pass([a], (3, 3))
    assert edges == ()
    assert np.all(owners[:2, :2] == OWNER_NONE)
    assert np.all(owners[2, :] == OWNER_OUTSIDE)


def test_foreground_pixel_with_no_finite_map_goes_to_the_outlier():
    # scene (0,0): fg, ctx and occ are all -inf, so the object labels it F
    # (ties prefer F) yet no map beats anything there. It is claimed, so it
    # competes, and the outlier wins the all -inf tie; a claimed grid read off
    # a finite fg would leave it unowned
    fg = np.array([[-np.inf, -1.0]])
    maps = LikelihoodMaps(fg, np.array([[-np.inf, -20.0]]), np.array([[-np.inf, -10.0]]))
    box = BoundingBox(0, 0, 2, 1)
    a = SceneObject(
        oid=0, box=box, class_index=0, mixture_index=0, score=0.0,
        maps=maps, labels=segment_single(maps), amodal=np.ones(box.shape, dtype=np.bool_),
    )
    assert (a.labels == LABEL_FG).all()
    owners, edges = orm_pass([a], (1, 2))
    assert owners.tolist() == [[1, 0]]
    assert edges == ()


def _scene_pairs(challenge, scenario, count):
    entries = challenge.select(split="test", scenario=scenario)[:count]
    return [load_scene(challenge, e) for e in entries]


@pytest.fixture(scope="module")
def segmented(tiny_challenge, tiny_bundle):
    out = []
    for fm, ann in _scene_pairs(tiny_challenge, "two", 2) + _scene_pairs(
        tiny_challenge, "four", 2
    ):
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        out.append((fm, ann, segment_scene(fm, boxes, tiny_bundle, iters=1)))
    return out


def test_scene_invariants(segmented):
    for fm, ann, result in segmented:
        owners = result.owners
        n = len(result.objects)
        valid = set(range(-2, n + 1))
        assert set(np.unique(owners).tolist()) <= valid

        # every box pixel is covered, pixels outside every box are not
        covered = np.zeros(fm.shape, dtype=np.bool_)
        for rec in ann.objects:
            covered[rec.box.slices] = True
        assert np.array_equal(owners != OWNER_OUTSIDE, covered)

        union = np.zeros(fm.shape, dtype=np.int64)
        for idx in range(n):
            amodal, modal = result.masks(idx, fm.shape)
            assert not (modal & ~amodal).any()          # modal inside amodal
            assert not (modal & (owners != idx)).any()  # modal on owned pixels
            union += modal
        assert union.max() <= 1                          # pairwise disjoint


def test_segment_scene_deterministic(tiny_challenge, tiny_bundle):
    fm, ann = _scene_pairs(tiny_challenge, "two", 1)[0]
    boxes = [(rec.oid, rec.box) for rec in ann.objects]
    a = segment_scene(fm, boxes, tiny_bundle, iters=2)
    b = segment_scene(fm, boxes, tiny_bundle, iters=2)
    assert np.array_equal(a.owners, b.owners)
    assert a.edges == b.edges
    for idx in range(len(a.objects)):
        assert a.masks(idx, fm.shape)[1].tobytes() == b.masks(idx, fm.shape)[1].tobytes()
    assert [o.score for o in a.objects] == [o.score for o in b.objects]


def test_iters_zero_is_feed_forward(tiny_challenge, tiny_bundle):
    fm, ann = _scene_pairs(tiny_challenge, "two", 1)[0]
    boxes = [(rec.oid, rec.box) for rec in ann.objects]
    result = segment_scene(fm, boxes, tiny_bundle, iters=0)
    assert result.owners is None
    assert result.edges == ()
    for idx, obj in enumerate(result.objects):
        visible = obj.labels == LABEL_FG
        inside = result.masks(idx, fm.shape)[1][obj.box.slices]
        assert not (inside & ~visible).any()
    with pytest.raises(ValidationError):
        segment_scene(fm, boxes, tiny_bundle, iters=-1)


def test_reclassification_skipped_when_visibility_static(
    tiny_challenge, tiny_bundle, monkeypatch
):
    # single object: the ownership pass reproduces its own labels, so it is
    # never re-scored after feed-forward
    fm, ann = _scene_pairs(tiny_challenge, "two", 1)[0]
    calls = []
    real = orm.rescore

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(orm, "rescore", counting)
    segment_scene(fm, [(0, ann.objects[0].box)], tiny_bundle, iters=2)
    assert calls == []
    # the counter does see re-scoring: with both objects one loses pixels
    segment_scene(fm, [(rec.oid, rec.box) for rec in ann.objects], tiny_bundle, iters=1)
    assert calls


def test_rescore_rebuilds_an_object_only_when_its_pick_changes(
    tiny_challenge, tiny_bundle, monkeypatch
):
    # A re-score that keeps its (class, mixture) updates the score alone; the
    # maps, labels and amodal mask it keeps are what a rebuild would give.
    picks, scores, built, changed = {}, {}, [], []
    real_build, real_rescore = orm._scene_object, orm.rescore

    def build(oid, box, result, bundle):
        built.append(oid)
        picks[id(result.candidates)] = (result.class_index, result.mixture_index)
        return real_build(oid, box, result, bundle)

    def rescore(candidates, visibility=None):
        result = real_rescore(candidates, visibility)
        changed.append((result.class_index, result.mixture_index) != picks[id(candidates)])
        scores[id(candidates)] = result.score
        return result

    monkeypatch.setattr(orm, "_scene_object", build)
    monkeypatch.setattr(orm, "rescore", rescore)
    n_objects = 0
    for fm, ann in _scene_pairs(tiny_challenge, "four", 2):
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        result = segment_scene(fm, boxes, tiny_bundle, iters=2)
        n_objects += len(ann.objects)
        for obj in result.objects:
            mixture = tiny_bundle.classes[obj.class_index].mixtures[obj.mixture_index]
            assert obj.maps is obj.candidates[obj.class_index][obj.mixture_index]
            assert np.array_equal(obj.labels, segment_single(obj.maps))
            assert np.array_equal(obj.amodal, amodal_mask(mixture, obj.box))
            assert obj.score == scores.get(id(obj.candidates), obj.score)
    assert changed.count(False) > 0
    assert len(built) == n_objects + changed.count(True)


def _exactly_k_passes(scene, boxes, bundle, iters, no_order):
    """`segment_scene` as it was before the fixed-point stop: `iters` full
    passes, every re-scored object rebuilt from its pick."""
    objects = orm.feed_forward(scene, boxes, bundle)
    owners, edges = None, ()
    prev_vis = [obj.labels != LABEL_OCC for obj in objects]
    for _ in range(iters):
        owners, edges = orm_pass(objects, scene.shape, no_order)
        for idx, obj in enumerate(objects):
            vis = orm._visibility_from_owners(idx, obj, owners)
            if np.array_equal(vis, prev_vis[idx]):
                continue
            prev_vis[idx] = vis
            result = orm.rescore(obj.candidates, vis)
            objects[idx] = orm._scene_object(obj.oid, obj.box, result, bundle)
    return orm.SceneResult(objects, owners, edges)


def _test_scenes(challenge):
    return [load_scene(challenge, e) for e in challenge.select(split="test")]


def test_fixed_point_stop_is_exact(tiny_challenge, tiny_bundle):
    scenarios = set()
    for fm, ann in _test_scenes(tiny_challenge):
        scenarios.add(ann.scenario)
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        for iters in range(5):
            for no_order in (False, True):
                got = segment_scene(fm, boxes, tiny_bundle, iters=iters, no_order=no_order)
                want = _exactly_k_passes(fm, boxes, tiny_bundle, iters, no_order)
                where = (ann.scene_id, iters, no_order)
                assert [(o.class_index, o.mixture_index, o.score) for o in got.objects] == [
                    (o.class_index, o.mixture_index, o.score) for o in want.objects
                ], where
                if iters == 0:
                    assert got.owners is None and want.owners is None, where
                else:
                    assert got.owners.tobytes() == want.owners.tobytes(), where
                assert got.edges == want.edges, where
                assert len(got.objects) == len(want.objects), where
                for idx in range(len(got.objects)):
                    for a, b in zip(got.masks(idx, fm.shape), want.masks(idx, fm.shape)):
                        assert a.tobytes() == b.tobytes(), where
    assert scenarios == {"two", "four", "unknown"}


def test_passes_stop_after_a_pass_that_repicks_nothing(tiny_challenge, tiny_bundle, monkeypatch):
    calls = []
    real = orm.orm_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(orm, "orm_pass", counting)
    seen = set()
    for fm, ann in _test_scenes(tiny_challenge):
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        picks = [
            [(o.class_index, o.mixture_index) for o in result.objects]
            for result in (segment_scene(fm, boxes, tiny_bundle, iters=i) for i in (0, 1))
        ]
        repicked = picks[0] != picks[1]
        calls.clear()
        segment_scene(fm, boxes, tiny_bundle, iters=2)
        # A first pass that re-picks nothing is the fixed point; one that
        # re-picks an object is followed by the second pass.
        assert len(calls) == (2 if repicked else 1), ann.scene_id
        seen.add(repicked)
    assert seen == {False, True}

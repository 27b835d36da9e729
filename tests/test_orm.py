from dataclasses import fields, replace

import numpy as np
import pytest

import compseg.orm as orm
from compseg.errors import ValidationError
from compseg.fmap import BoundingBox, place, resample_nearest
from compseg.formats import load_scene
from compseg.models import (
    LABEL_CTX,
    LABEL_FG,
    LABEL_OCC,
    ClassifyResult,
    LikelihoodMaps,
    segment_single,
)
from compseg.orm import (
    OWNER_NONE,
    OWNER_OUTSIDE,
    SceneObject,
    compete_pixels,
    orm_pass,
    recover_order,
    segment_scene,
    segment_variants,
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
    if amodal is None:
        amodal = np.ones(box.shape, dtype=np.bool_)
    maps = LikelihoodMaps(
        fg, np.full(box.shape, ctx_fill), np.full(box.shape, occ_fill), amodal
    )
    return SceneObject(oid=oid, box=box, pick=ClassifyResult(0, 0, 0.0, ((maps,),)))


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
    _, edges, _ = orm_pass([a, b], (4, 4))
    assert [e.conflict_size for e in edges] == [4]

    far = _object(2, BoundingBox(0, 0, 2, 2), np.full((2, 2), -1.0))
    far2 = _object(3, BoundingBox(2, 2, 4, 4), np.full((2, 2), -1.0))
    assert orm_pass([far, far2], (4, 4))[1] == ()


def test_pixel_competition_hand_values():
    a, b = _two_object_scene()
    free, _, _ = orm_pass([a, b], (4, 4))
    assert free[1, 1] == 0
    assert free[2, 2] == 1
    a2, b2 = _two_object_scene(outlier_pixel=True)
    free, _, _ = orm_pass([a2, b2], (4, 4))
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
    free, _, _ = orm_pass([a, b], (4, 4))
    assert free[1:3, 1:3].tolist() == [[2, 0], [0, 1]]
    _, edges, owners = orm_pass([a, b], (4, 4))
    assert list(edges) == [(0, 1, 2, 1, 4)]
    assert owners[1:3, 1:3].tolist() == [[2, 0], [0, 0]]


def test_orm_pass_hand_case():
    a, b = _two_object_scene()
    _, edges, owners = orm_pass([a, b], (4, 4))
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
    free, _, _ = orm_pass([a, b], (4, 4))
    assert free[2, 2] == 1
    assert free[1, 1] == 0


def test_orm_pass_outlier_survives_reassignment():
    a, b = _two_object_scene(outlier_pixel=True)
    _, edges, owners = orm_pass([a, b], (4, 4))
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
    free, _, _ = orm_pass(objs, (1, 3))
    assert free.tolist() == [[0, 0, 2]]
    _, edges, owners = orm_pass(objs, (1, 3))
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

    _, edges, owners = orm_pass([a, b], (4, 4))
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
    _, edges, owners = orm_pass([a, b], (4, 4))
    assert list(edges) == [(1, 0, 2, 2, 4)]
    free, _, _ = orm_pass([a, b], (4, 4))
    assert np.array_equal(owners, free)
    assert owners[1:3, 1:3].tolist() == [[0, 0], [1, 1]]


def test_context_pixels_stay_unowned():
    # ctx (-1) beats occ (-5) beats fg (-30): every box pixel labels C
    fg = np.full((2, 2), -30.0)
    a = _object(0, BoundingBox(0, 0, 2, 2), fg, ctx_fill=-1.0, occ_fill=-5.0)
    assert not (a.labels == LABEL_FG).any()
    _, edges, owners = orm_pass([a], (3, 3))
    assert edges == ()
    assert np.all(owners[:2, :2] == OWNER_NONE)
    assert np.all(owners[2, :] == OWNER_OUTSIDE)


def test_foreground_pixel_with_no_finite_map_goes_to_the_outlier():
    # scene (0,0): fg, ctx and occ are all -inf, so the object labels it F
    # (ties prefer F) yet no map beats anything there. It is claimed, so it
    # competes, and the outlier wins the all -inf tie; a claimed grid read off
    # a finite fg would leave it unowned
    fg = np.array([[-np.inf, -1.0]])
    box = BoundingBox(0, 0, 2, 1)
    maps = LikelihoodMaps(fg, np.array([[-np.inf, -20.0]]), np.array([[-np.inf, -10.0]]),
                          np.ones(box.shape, dtype=np.bool_))
    a = SceneObject(oid=0, box=box, pick=ClassifyResult(0, 0, 0.0, ((maps,),)))
    assert (a.labels == LABEL_FG).all()
    _, edges, owners = orm_pass([a], (1, 2))
    assert owners.tolist() == [[1, 0]]
    assert edges == ()


def _scene_pairs(challenge, scenario, count):
    entries = challenge.select(split="test", scenario=scenario)[:count]
    return [load_scene(challenge, e) for e in entries]


def _test_scenes(challenge):
    return [load_scene(challenge, e) for e in challenge.select(split="test")]


def _counting(monkeypatch, name):
    """Count the calls of `orm.<name>` in a list that the caller reads."""
    calls = []
    real = getattr(orm, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(orm, name, counting)
    return calls


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
            box = result.objects[idx].box
            amodal, modal = (place(m, box, fm.shape) for m in result.masks(idx))
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
        assert a.masks(idx)[1].tobytes() == b.masks(idx)[1].tobytes()
    assert [o.pick.score for o in a.objects] == [o.pick.score for o in b.objects]


def test_iters_zero_is_feed_forward(tiny_challenge, tiny_bundle):
    fm, ann = _scene_pairs(tiny_challenge, "two", 1)[0]
    boxes = [(rec.oid, rec.box) for rec in ann.objects]
    result = segment_scene(fm, boxes, tiny_bundle, iters=0)
    assert result.owners is None
    assert result.edges == ()
    for idx, obj in enumerate(result.objects):
        visible = obj.labels == LABEL_FG
        amodal, modal = result.masks(idx)
        assert amodal.shape == modal.shape == obj.box.shape
        assert not (modal & ~visible).any()
    with pytest.raises(ValidationError):
        segment_scene(fm, boxes, tiny_bundle, iters=-1)


def test_reclassification_skipped_when_visibility_static(
    tiny_challenge, tiny_bundle, monkeypatch
):
    # single object: the ownership pass reproduces its own labels, so it is
    # never re-scored after feed-forward
    fm, ann = _scene_pairs(tiny_challenge, "two", 1)[0]
    calls = _counting(monkeypatch, "rescore")
    segment_scene(fm, [(0, ann.objects[0].box)], tiny_bundle, iters=2)
    assert calls == []
    # the counter does see re-scoring: with both objects one loses pixels
    segment_scene(fm, [(rec.oid, rec.box) for rec in ann.objects], tiny_bundle, iters=1)
    assert calls


def test_an_object_is_its_last_pick(tiny_challenge, tiny_bundle, monkeypatch):
    # Whether a re-score keeps its (class, mixture) or not, the object holds
    # the last result, of `classify` or of `rescore`, as its pick, and its
    # maps, labels and amodal mask are that pick's.
    results, changed = {}, []
    real_classify, real_rescore = orm.classify, orm.rescore

    def classify(*args):
        result = real_classify(*args)
        results[id(result.candidates)] = result
        return result

    def rescore(candidates, visibility=None):
        result = real_rescore(candidates, visibility)
        before = results[id(candidates)]
        changed.append((result.class_index, result.mixture_index)
                       != (before.class_index, before.mixture_index))
        results[id(candidates)] = result
        return result

    monkeypatch.setattr(orm, "classify", classify)
    monkeypatch.setattr(orm, "rescore", rescore)
    for fm, ann in _test_scenes(tiny_challenge):
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        result = segment_scene(fm, boxes, tiny_bundle, iters=2)
        for obj in result.objects:
            pick = obj.pick
            prior = tiny_bundle.classes[pick.class_index].mixtures[pick.mixture_index].fg_prior
            assert obj.maps is pick.candidates[pick.class_index][pick.mixture_index]
            assert np.array_equal(obj.labels, segment_single(obj.maps))
            assert np.array_equal(obj.amodal, resample_nearest(prior, obj.box.shape) >= 0.5)
            assert pick is results[id(pick.candidates)]
    assert changed.count(False) > 0 and changed.count(True) > 0


def test_replacing_the_pick_rederives_labels_and_amodal_mask():
    box = BoundingBox(0, 0, 2, 1)
    occ = np.full(box.shape, -10.0)
    seen = LikelihoodMaps(np.array([[-1.0, -1.0]]), np.full(box.shape, -20.0), occ,
                          np.array([[True, False]]))
    hidden = LikelihoodMaps(np.array([[-30.0, -1.0]]), np.full(box.shape, -5.0), occ,
                            np.array([[False, True]]))
    candidates = ((seen,), (hidden,))
    assert [f.name for f in fields(SceneObject) if f.init] == ["oid", "box", "pick"]
    obj = SceneObject(0, box, ClassifyResult(0, 0, 0.0, candidates))
    assert obj.labels.tolist() == [[LABEL_FG, LABEL_FG]]
    other = replace(obj, pick=ClassifyResult(1, 0, 0.0, candidates))
    assert other.maps is hidden
    assert np.array_equal(other.labels, segment_single(hidden))
    assert other.labels.tolist() == [[LABEL_CTX, LABEL_FG]]
    assert other.amodal.tolist() == [[False, True]]
    assert obj.amodal.tolist() == [[True, False]]


def _exactly_k_passes(scene, boxes, bundle, iters, no_order):
    """`segment_scene` as it was before the fixed-point stop: `iters` full
    passes, every re-scored object rebuilt from its pick."""
    objects = orm.feed_forward(scene, boxes, bundle)
    owners, edges = None, ()
    prev_vis = [obj.labels != LABEL_OCC for obj in objects]
    for _ in range(iters):
        competed, edges, reassigned = orm_pass(objects, scene.shape)
        owners = competed if no_order else reassigned
        for idx, obj in enumerate(objects):
            vis = orm._visibility(idx, obj, owners)
            if np.array_equal(vis, prev_vis[idx]):
                continue
            prev_vis[idx] = vis
            result = orm.rescore(obj.pick.candidates, vis)
            objects[idx] = SceneObject(obj.oid, obj.box, result)
    return orm.SceneResult(objects, owners, edges)


def _pick_figures(obj):
    return obj.pick.class_index, obj.pick.mixture_index, obj.pick.score


def _assert_same_state(got, want, where):
    """Same picks, owner bytes, edges and masks."""
    assert [_pick_figures(o) for o in got.objects] == [
        _pick_figures(o) for o in want.objects
    ], where
    if want.owners is None:
        assert got.owners is None, where
    else:
        assert got.owners.tobytes() == want.owners.tobytes(), where
    assert got.edges == want.edges, where
    assert len(got.objects) == len(want.objects), where
    for idx in range(len(got.objects)):
        for a, b in zip(got.masks(idx), want.masks(idx)):
            assert a.tobytes() == b.tobytes(), where


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
                if iters == 0:
                    assert want.owners is None, where
                _assert_same_state(got, want, where)
    assert scenarios == {"two", "four", "unknown"}


# unordered, with repeats, and both flags at every depth
_VARIANT_PAIRS = [(2, False), (0, True), (1, True), (0, False), (2, False), (1, False)]


def test_segment_variants_gives_each_pair_its_segment_scene_result(tiny_challenge, tiny_bundle):
    scenarios = set()
    for fm, ann in _test_scenes(tiny_challenge):
        scenarios.add(ann.scenario)
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        got = segment_variants(fm, boxes, tiny_bundle, _VARIANT_PAIRS)
        assert len(got) == len(_VARIANT_PAIRS)
        for (iters, no_order), state in zip(_VARIANT_PAIRS, got):
            want = segment_scene(fm, boxes, tiny_bundle, iters=iters, no_order=no_order)
            _assert_same_state(state, want, (ann.scene_id, iters, no_order))
    assert scenarios == {"two", "four", "unknown"}


def test_zero_passes_run_no_orm_pass(tiny_challenge, tiny_bundle, monkeypatch):
    calls = _counting(monkeypatch, "orm_pass")
    fm, ann = _scene_pairs(tiny_challenge, "four", 1)[0]
    boxes = [(rec.oid, rec.box) for rec in ann.objects]
    assert segment_scene(fm, boxes, tiny_bundle, iters=0).owners is None
    states = segment_variants(fm, boxes, tiny_bundle, [(0, False), (0, True), (0, False)])
    assert [state.owners for state in states] == [None] * 3
    assert calls == []
    segment_variants(fm, boxes, tiny_bundle, [(0, False), (1, True)])
    assert calls == [1]


def test_negative_iters_anywhere_fail_before_any_work(tiny_challenge, tiny_bundle, monkeypatch):
    calls = _counting(monkeypatch, "classify")
    fm, ann = _scene_pairs(tiny_challenge, "two", 1)[0]
    boxes = [(rec.oid, rec.box) for rec in ann.objects]
    for variants in ([(-1, False)], [(1, False), (0, True), (-1, True)], [(2, True), (-3, False)]):
        with pytest.raises(ValidationError, match="non-negative"):
            segment_variants(fm, boxes, tiny_bundle, variants)
    with pytest.raises(ValidationError, match="non-negative"):
        segment_scene(fm, boxes, tiny_bundle, iters=-1, no_order=True)
    assert calls == []


def test_passes_stop_after_a_pass_that_repicks_nothing(tiny_challenge, tiny_bundle, monkeypatch):
    calls = _counting(monkeypatch, "orm_pass")
    seen = set()
    for fm, ann in _test_scenes(tiny_challenge):
        boxes = [(rec.oid, rec.box) for rec in ann.objects]
        picks = [
            [(o.pick.class_index, o.pick.mixture_index) for o in result.objects]
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

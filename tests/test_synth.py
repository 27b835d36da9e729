import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from compseg.errors import ValidationError
from compseg.formats import load_scene
from compseg.synth import (
    LEVEL_EDGES,
    LEVELS,
    OCCLUSION_CAP,
    OVER_LIMIT,
    ChallengeConfig,
    _TEMPLATES,
    _part_grid,
    _side,
    generate_challenge,
    level_of,
)

MINI = ChallengeConfig(per_level=1, train_scenes=3, backgrounds=2, seed=5)


def test_level_bucket_edges():
    assert level_of(0.0) == "L0"
    assert level_of(0.0099) == "L0"
    assert level_of(0.01) == "L1"
    assert level_of(0.2999) == "L1"
    assert level_of(0.30) == "L2"
    assert level_of(0.5999) == "L2"
    assert level_of(0.60) == "L3"
    assert level_of(0.8999) == "L3"
    assert level_of(0.90) == OVER_LIMIT
    assert level_of(1.0) == OVER_LIMIT


def test_unknown_scenario_name_rejected(tmp_path):
    with pytest.raises(ValidationError):
        generate_challenge(str(tmp_path / "x"), MINI, scenarios=("tower",))
    # a repeated scenario would write its scenes and manifest entries twice
    root = tmp_path / "twice"
    with pytest.raises(ValidationError, match="'two' is listed twice"):
        generate_challenge(str(root), MINI, scenarios=("two", "four", "two"))
    assert not root.exists()


@pytest.mark.parametrize("field", ["per_level", "train_scenes", "backgrounds", "seed"])
def test_negative_counts_rejected(tmp_path, field):
    root = tmp_path / "x"
    with pytest.raises(ValidationError, match=field):
        generate_challenge(str(root), replace(MINI, **{field: -1}))
    assert not root.exists()


def test_templates_keep_their_invariants():
    """At every placed size: a read-only raster, its own part triple only,
    and a -1 border that gives every crop a context ring."""
    sides = range(_side(0.85), _side(1.05) + 1)
    assert list(sides) == [20, 21, 22, 23, 24, 25]
    for ci, templates in enumerate(_TEMPLATES):
        for tid, (_, ids, _) in enumerate(templates):
            assert ids == ((0, 1, 2), (3, 4, 5))[tid]
            for side in sides:
                grid = _part_grid(ci, tid, (side, side))
                assert grid.shape == (side, side) and not grid.flags.writeable
                assert set(np.unique(grid[grid >= 0]).tolist()) == set(ids)
                for edge in (grid[0], grid[-1], grid[:, 0], grid[:, -1]):
                    assert np.all(edge == -1)


@pytest.fixture(scope="module")
def mini_challenge(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini-challenge")
    return generate_challenge(str(root), MINI)


def _file_bytes(root, rel):
    with open(os.path.join(root, rel), "rb") as fh:
        return fh.read()


def test_generation_deterministic(mini_challenge, tmp_path):
    again = generate_challenge(str(tmp_path / "again"), MINI)
    assert [e.scene_id for e in again.entries] == [e.scene_id for e in mini_challenge.entries]
    for ea, eb in zip(mini_challenge.entries, again.entries):
        assert _file_bytes(mini_challenge.root, ea.fmap_path) == _file_bytes(
            again.root, eb.fmap_path
        )
        assert _file_bytes(mini_challenge.root, ea.annotation_path) == _file_bytes(
            again.root, eb.annotation_path
        )
    man_a = json.loads(_file_bytes(mini_challenge.root, "manifest.json"))
    man_b = json.loads(_file_bytes(again.root, "manifest.json"))
    assert man_a == man_b


# SHA-256 over every file of the MINI challenge, in sorted path order, each
# file fed as its path, a NUL and its bytes. Rerun determinism alone would
# not notice a change that moves one RNG draw and so rewrites every dataset;
# this digest does. It also pins numpy's `Generator` streams (PCG64 and the
# samplers behind `integers`, `uniform`, `standard_normal`, `choice` and
# `permutation`), so a numpy release that changes one fails here too.
# The TINY challenge of conftest.py is pinned too: its training scene
# train-0006 uses up all of its placement tries on the first stream and is
# built from the second, so its digest also covers the restart path.
MINI_SHA256 = "bbcd9ff99892d0d72f52cdf3b5586740e46914ef76712348878df745242e04c3"
TINY_SHA256 = "cd7ac20b70c6e17f3bbdaee9700e38f3eb5c42f79db16d2333fc63ffaf21c2f9"


@pytest.mark.parametrize(
    "fixture, expected",
    [("mini_challenge", MINI_SHA256), ("tiny_challenge", TINY_SHA256)],
    ids=["mini", "tiny"],
)
def test_generated_bytes_pinned(request, fixture, expected):
    root = Path(request.getfixturevalue(fixture).root)
    digest = hashlib.sha256()
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    for rel in files:
        digest.update(rel.encode() + b"\0")
        digest.update((root / rel).read_bytes())
    assert digest.hexdigest() == expected


def test_scenario_subsets_regenerate_identically(mini_challenge, tmp_path):
    # scenes draw from independent streams, so dropping scenarios must not
    # change the bytes of the ones that remain
    sub = generate_challenge(str(tmp_path / "sub"), MINI, scenarios=("four",))
    by_id = {e.scene_id: e for e in mini_challenge.entries}
    assert sub.select(split="test")
    for e in sub.entries:
        ref = by_id[e.scene_id]
        assert _file_bytes(sub.root, e.fmap_path) == _file_bytes(
            mini_challenge.root, ref.fmap_path
        )
        assert _file_bytes(sub.root, e.annotation_path) == _file_bytes(
            mini_challenge.root, ref.annotation_path
        )


def test_manifest_counts(mini_challenge):
    assert len(mini_challenge.select(split="train")) == MINI.train_scenes
    assert len(mini_challenge.select(scenario="background")) == MINI.backgrounds
    for scenario in ("two", "four", "unknown"):
        got = mini_challenge.select(split="test", scenario=scenario)
        assert len(got) == MINI.per_level * len(LEVELS)
        assert sorted({e.level for e in got}) == sorted(LEVELS)


def _boxes_overlap(a, b) -> bool:
    """Whether two half-open boxes share a pixel."""
    return a.x0 < b.x1 and b.x0 < a.x1 and a.y0 < b.y1 and b.y0 < a.y1


def _annotations(challenge, **kwargs):
    for entry in challenge.select(**kwargs):
        yield entry, load_scene(challenge, entry)[1]


def test_occlusion_buckets_exact(mini_challenge):
    for entry, ann in _annotations(mini_challenge, split="test"):
        recs = sorted(ann.objects, key=lambda r: r.depth)
        lo, hi = LEVEL_EDGES[entry.level]
        if ann.scenario in ("two", "four"):
            assert recs[0].occlusion == 0.0
            for rec in recs[1:]:
                assert lo <= rec.occlusion < hi, (entry.scene_id, rec.oid, rec.occlusion)
                assert rec.level == entry.level
        else:
            # Recorded fractions are totals: pair occlusion plus the blob.
            # The pair bucket bounds the back object from below; the blob
            # placement cap keeps every object inside measurable levels.
            if entry.level == "L0":
                assert recs[0].occlusion == 0.0 and recs[1].occlusion == 0.0
            else:
                assert recs[1].occlusion >= lo, (entry.scene_id, recs[1].occlusion)
            for rec in recs:
                assert rec.occlusion < OCCLUSION_CAP, (entry.scene_id, rec.occlusion)


def test_order_edges_match_depth_and_overlap(mini_challenge):
    for entry, ann in _annotations(mini_challenge, split="test"):
        by_oid = {r.oid: r for r in ann.objects}
        seen = set()
        for front, back in ann.order_edges:
            assert by_oid[front].depth < by_oid[back].depth
            assert (by_oid[front].amodal & by_oid[back].amodal).any()
            seen.add(frozenset((front, back)))
        # an edge exists for every amodal overlap, and only for those
        want = set()
        for i, a in enumerate(ann.objects):
            for b in ann.objects[i + 1 :]:
                if (a.amodal & b.amodal).any():
                    want.add(frozenset((a.oid, b.oid)))
        assert seen == want


def test_scene_structure(mini_challenge):
    for entry, ann in _annotations(mini_challenge, split="test", scenario="two"):
        assert len(ann.objects) == 2 and ann.unknown is None
    for entry, ann in _annotations(mini_challenge, split="test", scenario="four"):
        assert len(ann.objects) == 4 and ann.unknown is None
    for entry, ann in _annotations(mini_challenge, split="test"):
        # L0 plants fully separated objects; a pixel-level graze would ask
        # the order stage to call a coin toss
        if entry.level == "L0" and ann.scenario in ("two", "four"):
            assert ann.order_edges == []
    for entry, ann in _annotations(mini_challenge, split="test", scenario="unknown"):
        assert len(ann.objects) == 2
        assert ann.unknown is not None and ann.unknown.any()
        # unknown pixels belong to no annotated object's visible matter
        for rec in ann.objects:
            assert not (rec.modal & ann.unknown).any()
        zone = ann.objects[0].amodal & ann.objects[1].amodal
        if entry.level == "L0":
            # knowns disjoint, blob clear of both
            assert not zone.any()
            for rec in ann.objects:
                assert not (rec.amodal & ann.unknown).any()
        else:
            # the blob lands on the contested zone
            assert (zone & ann.unknown).any()
    for entry, ann in _annotations(mini_challenge, split="train"):
        assert len(ann.objects) == 2
        assert not _boxes_overlap(ann.objects[0].box, ann.objects[1].box)
        assert ann.order_edges == []
    for entry, ann in _annotations(mini_challenge, scenario="background"):
        assert ann.objects == [] and ann.split == "background"


def test_masks_consistent_with_depth(mini_challenge):
    for entry, ann in _annotations(mini_challenge, split="test", scenario="four"):
        recs = sorted(ann.objects, key=lambda r: r.depth)
        claimed = np.zeros(ann.shape, dtype=np.bool_)
        for rec in recs:
            assert not (rec.modal & ~rec.amodal).any()
            assert not (rec.modal & claimed).any()
            assert np.array_equal(rec.modal, rec.amodal & ~claimed)
            claimed |= rec.amodal


def test_object_ids_carry_no_depth_information(mini_challenge):
    # if ids always matched depth order the shuffle would be broken
    mismatched = 0
    for entry, ann in _annotations(mini_challenge, split="test"):
        order = [r.oid for r in sorted(ann.objects, key=lambda r: r.depth)]
        if order != sorted(order):
            mismatched += 1
    assert mismatched > 0

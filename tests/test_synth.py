import errno
import hashlib
import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from compseg import synth
from compseg.errors import ValidationError
from compseg.fmap import BoundingBox, place
from compseg.formats import load_scene
from compseg.synth import (
    LEVEL_EDGES,
    LEVELS,
    OCCLUSION_CAP,
    OVER_LIMIT,
    TWO_SIZE,
    ChallengeConfig,
    _LABELS,
    _TEMPLATES,
    _pair_tries,
    _part_grid,
    _side,
    generate_challenge,
    level_of,
    make_train_scene,
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
    assert _tree_digest(request.getfixturevalue(fixture).root) == expected


def _tree_digest(root) -> str:
    root = Path(root)
    digest = hashlib.sha256()
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    for rel in files:
        digest.update(rel.encode() + b"\0")
        digest.update((root / rel).read_bytes())
    return digest.hexdigest()


def test_worker_count_changes_no_byte(tmp_path, monkeypatch):
    """One worker or one per CPU, the MINI challenge has the same bytes, and
    no worker process is left once the call returns."""
    pools = []
    real_pool = synth.ProcessPoolExecutor

    def recording_pool(workers, *args, **kwargs):
        pools.append(workers)
        return real_pool(workers, *args, **kwargs)

    monkeypatch.setattr(synth, "ProcessPoolExecutor", recording_pool)
    scenes = MINI.train_scenes + MINI.backgrounds + 3 * len(LEVELS) * MINI.per_level
    cpus = synth._usable_cpus()
    generate_challenge(str(tmp_path / "all"), MINI)
    assert not multiprocessing.active_children()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    generate_challenge(str(tmp_path / "one"), MINI)
    assert not multiprocessing.active_children()
    assert pools == [min(cpus, scenes), 1]
    assert _tree_digest(tmp_path / "all") == _tree_digest(tmp_path / "one") == MINI_SHA256


def test_zero_scenes_start_no_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "ProcessPoolExecutor", None)
    empty = ChallengeConfig(per_level=0, train_scenes=0, backgrounds=0, seed=5)
    assert generate_challenge(str(tmp_path), empty).entries == []


# Stand-ins for `make_train_scene` and `atomic_write_text`. A patched module
# attribute reaches the workers because they are forked after the patch; a
# builder lives at module level because a job is pickled with its builder.
def _never_placed(rng):
    raise ValidationError("no room")


def _disk_full(path, text):
    raise OSError(errno.ENOSPC, "No space left on device", path)


def test_job_errors_re_raise_with_their_type_and_message(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "make_train_scene", _never_placed)
    # every stream fails, and the error names the scene
    with pytest.raises(ValidationError, match="^train-0000: no room$"):
        generate_challenge(str(tmp_path / "placed"), MINI)
    assert not multiprocessing.active_children()

    monkeypatch.undo()
    monkeypatch.setattr(synth, "atomic_write_text", _disk_full)
    with pytest.raises(OSError, match="No space left on device") as err:
        generate_challenge(str(tmp_path / "full"), MINI)
    assert err.value.errno == errno.ENOSPC
    assert not multiprocessing.active_children()


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


def _on_lattice(ann, rec, mask="amodal"):
    """`rec`'s box-lattice mask placed on its scene's lattice."""
    return place(getattr(rec, mask), rec.box, ann.shape)


def test_order_edges_match_depth_and_overlap(mini_challenge):
    for entry, ann in _annotations(mini_challenge, split="test"):
        by_oid = {r.oid: r for r in ann.objects}
        seen = set()
        for front, back in ann.order_edges:
            assert by_oid[front].depth < by_oid[back].depth
            assert (_on_lattice(ann, by_oid[front]) & _on_lattice(ann, by_oid[back])).any()
            seen.add(frozenset((front, back)))
        # an edge exists for every amodal overlap, and only for those
        want = set()
        for i, a in enumerate(ann.objects):
            for b in ann.objects[i + 1 :]:
                if (_on_lattice(ann, a) & _on_lattice(ann, b)).any():
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
            assert not (_on_lattice(ann, rec, "modal") & ann.unknown).any()
        zone = _on_lattice(ann, ann.objects[0]) & _on_lattice(ann, ann.objects[1])
        if entry.level == "L0":
            # knowns disjoint, blob clear of both
            assert not zone.any()
            for rec in ann.objects:
                assert not (_on_lattice(ann, rec) & ann.unknown).any()
        else:
            # the blob lands on the contested zone
            assert (zone & ann.unknown).any()
    for entry, ann in _annotations(mini_challenge, split="train"):
        assert len(ann.objects) == 2
        assert not _boxes_overlap(ann.objects[0].box, ann.objects[1].box)
        assert ann.order_edges == []
    for entry, ann in _annotations(mini_challenge, scenario="background"):
        assert ann.objects == [] and ann.split == "background"
    # every record holds its masks on its box's lattice, as generated (the
    # record refuses any other shape) and as loaded back
    loaded = 0
    for entry, ann in _annotations(mini_challenge):
        for rec in ann.objects:
            assert rec.amodal.shape == rec.modal.shape == rec.box.shape, entry.scene_id
            loaded += 1
    assert loaded == 2 * MINI.train_scenes + MINI.per_level * len(LEVELS) * (2 + 4 + 2)


def test_masks_consistent_with_depth(mini_challenge):
    for entry, ann in _annotations(mini_challenge, split="test", scenario="four"):
        recs = sorted(ann.objects, key=lambda r: r.depth)
        claimed = np.zeros(ann.shape, dtype=np.bool_)
        for rec in recs:
            modal, amodal = _on_lattice(ann, rec, "modal"), _on_lattice(ann, rec)
            assert not (modal & ~amodal).any()
            assert not (modal & claimed).any()
            assert np.array_equal(modal, amodal & ~claimed)
            claimed |= amodal


def test_object_ids_carry_no_depth_information(mini_challenge):
    # if ids always matched depth order the shuffle would be broken
    mismatched = 0
    for entry, ann in _annotations(mini_challenge, split="test"):
        order = [r.oid for r in sorted(ann.objects, key=lambda r: r.depth)]
        if order != sorted(order):
            mismatched += 1
    assert mismatched > 0


# ---------------------------------------------------------------------------
# Training-pair tries from raw PCG64 words


def _scalar_tries(rng):
    """The training-pair search drawn one scalar at a time, as numpy draws it.

    Returns every try's ten values up to the first disjoint pair, and
    whether one was found within 400 tries.
    """
    tries = []
    for _ in range(400):
        ci_a = int(rng.integers(len(_LABELS)))
        tid_a = int(rng.integers(len(_TEMPLATES[ci_a])))
        ci_b = int(rng.integers(len(_LABELS)))
        tid_b = int(rng.integers(len(_TEMPLATES[ci_b])))
        side_a = _side(rng.uniform(0.85, 1.05))
        side_b = _side(rng.uniform(0.85, 1.05))
        ya = int(rng.integers(0, TWO_SIZE - side_a + 1))
        xa = int(rng.integers(0, TWO_SIZE - side_a + 1))
        yb = int(rng.integers(0, TWO_SIZE - side_b + 1))
        xb = int(rng.integers(0, TWO_SIZE - side_b + 1))
        tries.append((ci_a, tid_a, ci_b, tid_b, side_a, side_b, ya, xa, yb, xb))
        if xa >= xb + side_b or xb >= xa + side_a or ya >= yb + side_b or yb >= ya + side_a:
            return tries, True
    return tries, False


def _stream_position(rng):
    # `uinteger` is stale while `has_uint32` is 0, so it is left out.
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"]


def _pair(values):
    """What `make_train_scene` returns for a kept try's ten values."""
    ci_a, tid_a, ci_b, tid_b, side_a, side_b, ya, xa, yb, xb = values
    placed = [
        synth.PlacedObject(ci_a, tid_a, BoundingBox(xa, ya, xa + side_a, ya + side_a)),
        synth.PlacedObject(ci_b, tid_b, BoundingBox(xb, yb, xb + side_b, yb + side_b)),
    ]
    return (TWO_SIZE, TWO_SIZE), placed, None


def test_pair_tries_follow_the_scalar_draws():
    """Try by try, `_pair_tries` gives the scalar draws' values, and
    `make_train_scene` places the scalar search's pair and leaves the stream
    where that search does. This also fails if numpy changes its
    bounded-integer or uniform sampler."""
    exhausted = 0
    for i in range(240):
        seed = [7, 1, i, 0]
        # every sixth stream enters with a half-word buffered
        buffered = i % 6 == 5
        scalar, block = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            for rng in (scalar, block):
                rng.integers(2)
        else:
            words = np.random.default_rng(seed).bit_generator.random_raw(2400).reshape(-1, 6)
            values, redraw = _pair_tries(words)
            assert not redraw.any()
        expected, found = _scalar_tries(scalar)
        if not buffered:
            assert [tuple(v) for v in values[: len(expected)].tolist()] == expected
        if found:
            assert make_train_scene(block) == _pair(expected[-1])
        else:
            exhausted += 1
            with pytest.raises(ValidationError, match="disjoint training pair"):
                make_train_scene(block)
        assert _stream_position(block) == _stream_position(scalar)
    assert exhausted  # the no-fit path is among the streams
    # another bit generator's words are not PCG64's: the scalar search runs
    scalar, other = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
    assert make_train_scene(other) == _pair(_scalar_tries(scalar)[0][-1])


def test_zero_position_half_word_flags_a_redraw():
    """Lemire's method rejects a half-word whose product with n falls below
    (2**32 - n) % n. That threshold is nonzero for every position range, so
    a zero half-word always needs a redraw."""
    sides = range(_side(0.85), _side(1.05) + 1)
    assert all((2**32 - (TWO_SIZE - side + 1)) % (TWO_SIZE - side + 1) for side in sides)
    words = np.full((2, 6), 2**64 - 1, dtype=np.uint64)
    words[1, 4] = 0xFFFFFFFF_00000000  # try 1's `ya` half-word is 0
    _, redraw = _pair_tries(words)
    assert redraw.tolist() == [False, True]


def test_scalar_search_takes_over_at_a_redraw(monkeypatch):
    """A try flagged for a redraw is drawn by the scalar loop, and so is every
    try after it. The pair and the stream position it leaves, which fix the
    scene's rendered bytes, are the ones the unflagged and the all-scalar
    searches give."""
    seed = [5, 1, 2, 0]
    scalar = np.random.default_rng(seed)
    tries, found = _scalar_tries(scalar)
    assert found and len(tries) >= 3
    rng = np.random.default_rng(seed)
    want = make_train_scene(rng), _stream_position(rng)
    assert want == (_pair(tries[-1]), _stream_position(scalar))

    pair_tries, side = synth._pair_tries, synth._side
    scalar_sides = []

    def counted_side(s):
        scalar_sides.append(s)
        return side(s)

    monkeypatch.setattr(synth, "_side", counted_side)
    for k in (0, len(tries) // 2, len(tries) - 1):

        def flag_at_k(words, k=k):
            values, redraw = pair_tries(words)
            redraw[k] = True
            return values, redraw

        monkeypatch.setattr(synth, "_pair_tries", flag_at_k)
        scalar_sides.clear()
        rng = np.random.default_rng(seed)
        got = make_train_scene(rng), _stream_position(rng)
        assert len(scalar_sides) == 2 * (len(tries) - k)
        assert got == want

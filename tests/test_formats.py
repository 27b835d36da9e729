import copy
import dataclasses
import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseg.errors import CompsegError, FormatError, ValidationError
from compseg.fmap import BoundingBox
from compseg.formats import (
    ModelBundle,
    ObjectRecord,
    SceneAnnotation,
    annotation_from_json,
    annotation_to_json,
    decode_rle,
    encode_rle,
    load_manifest,
    load_model,
    load_scene,
    order_graph_lines,
    quantize_bundle,
    save_model,
)
from compseg.models import SIMPLEX_TOL, ClassModel, MixtureModel, OccluderModel
from compseg.vmf import VmfDictionary


def test_rle_known_strings():
    assert encode_rle(np.zeros((2, 3), dtype=np.bool_)) == "6"
    assert encode_rle(np.ones((2, 2), dtype=np.bool_)) == "0 4"
    mask = np.array([[False, True, True], [False, False, True]])
    assert encode_rle(mask) == "1 2 2 1"
    assert encode_rle(np.zeros((0, 4), dtype=np.bool_)) == ""


def test_rle_decode_known():
    got = decode_rle("1 2 2 1", (2, 3))
    want = np.array([[False, True, True], [False, False, True]])
    assert np.array_equal(got, want)
    assert decode_rle("", (0, 4)).shape == (0, 4)


@given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_rle_roundtrip(seed, h, w, density):
    rng = np.random.default_rng(seed)
    mask = rng.random((h, w)) < density
    back = decode_rle(encode_rle(mask), (h, w))
    assert back.dtype == np.bool_
    assert np.array_equal(back, mask)


def test_rle_rejects():
    with pytest.raises(ValidationError):
        encode_rle(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(FormatError):
        decode_rle("3 2", (2, 3))  # sums to 5, lattice has 6
    with pytest.raises(FormatError):
        decode_rle("x 6", (2, 3))
    with pytest.raises(FormatError):
        decode_rle("-1 7", (2, 3))


def _tiny_annotation():
    rng = np.random.default_rng(3)
    shape = (6, 7)
    objects = []
    for oid in range(2):
        amodal = rng.random(shape) < 0.5
        modal = amodal & (rng.random(shape) < 0.8)
        objects.append(
            ObjectRecord(
                oid=oid,
                label=f"cls{oid}",
                template=oid,
                box=BoundingBox(1, 1, 5, 6),
                depth=oid,
                occlusion=0.25 * oid,
                level="L1",
                amodal=amodal,
                modal=modal,
                score=-12.5 * (oid + 1),
            )
        )
    return SceneAnnotation(
        scene_id="scene-000",
        scenario="two",
        split="test",
        shape=shape,
        objects=objects,
        order_edges=[(0, 1, 9, 2, 11)],
        unknown=rng.random(shape) < 0.1,
        extra={"note": 3},
    )


def test_annotation_roundtrip():
    ann = _tiny_annotation()
    text = annotation_to_json(ann)
    back = annotation_from_json(text)
    assert back.scene_id == ann.scene_id
    assert back.scenario == ann.scenario
    assert back.split == ann.split
    assert back.shape == ann.shape
    assert back.order_edges == ann.order_edges
    assert back.extra == ann.extra
    assert np.array_equal(back.unknown, ann.unknown)
    for a, b in zip(ann.objects, back.objects):
        assert (a.oid, a.label, a.template, a.depth, a.level) == (
            b.oid, b.label, b.template, b.depth, b.level)
        assert a.box == b.box
        assert b.occlusion == pytest.approx(a.occlusion, abs=1e-9)
        assert b.score == pytest.approx(a.score, abs=1e-9)
        assert np.array_equal(a.amodal, b.amodal)
        assert np.array_equal(a.modal, b.modal)
    # serialization is canonical: re-encode reproduces the same text
    assert annotation_to_json(back) == text


def test_annotation_bad_json():
    with pytest.raises(FormatError):
        annotation_from_json("{not json")
    with pytest.raises(FormatError):
        annotation_from_json(json.dumps({"scene_id": "x"}))


def test_annotation_shape_needs_two_entries():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    for shape in ([], [1], [4, 4, 4], 4):
        doc["shape"] = shape
        with pytest.raises(FormatError, match="bad annotation record"):
            annotation_from_json(json.dumps(doc))


def test_annotation_integer_field_overflow_is_a_format_error():
    # JSON reads 1e400 as an infinite float, which int() cannot convert
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    obj = doc["objects"][0]
    for where, field in ((doc, "shape"), (obj, "box"), (obj, "id")):
        kept = where[field]
        where[field] = ["INF", *kept[1:]] if isinstance(kept, list) else "INF"
        with pytest.raises(FormatError, match="bad annotation record"):
            annotation_from_json(json.dumps(doc).replace('"INF"', "1e400"))
        where[field] = kept


def test_annotation_rejects_non_string_rle():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    for key in ("amodal_rle", "modal_rle", "unknown_rle"):
        bad = json.loads(json.dumps(doc))
        if key == "unknown_rle":
            bad[key] = 5
        else:
            bad["objects"][0][key] = 5
        with pytest.raises(FormatError):
            annotation_from_json(json.dumps(bad))


def test_annotation_rejects_malformed_order_edges():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    for edges in ([[1]], [["a", "b", 1, 1, 1]], [[1, 2, 3]], [[0, 1.0]], [[0, True]], [7]):
        doc["order_edges"] = edges
        with pytest.raises(FormatError):
            annotation_from_json(json.dumps(doc))
    # One pair ordered twice, either way round: the scorers would keep only
    # the later edge.
    for edges in ([[1, 0], [0, 1, 9, 2, 11]], [[0, 1], [0, 1]]):
        doc["order_edges"] = edges
        with pytest.raises(FormatError, match="orders a pair"):
            annotation_from_json(json.dumps(doc))
    for edges in ([[1, 0]], [[0, 1, 9, 2, 11]]):
        doc["order_edges"] = edges
        assert annotation_from_json(json.dumps(doc)).order_edges == [tuple(edges[0])]


def test_annotation_rejects_duplicate_object_ids():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc["objects"][1]["id"] = 0
    doc["order_edges"] = []
    with pytest.raises(FormatError, match="duplicate object id"):
        annotation_from_json(json.dumps(doc))


def test_annotation_rejects_self_edges():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    for edge in ([0, 0], [1, 1, 3, 3, 6]):
        doc["order_edges"] = [[0, 1], edge]
        with pytest.raises(FormatError, match="to itself"):
            annotation_from_json(json.dumps(doc))


def test_annotation_rejects_edges_to_absent_objects():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    for edge in ([0, 7], [7, 1], [-1, 0, 2, 1, 3]):
        doc["order_edges"] = [edge]
        with pytest.raises(FormatError, match="names an object"):
            annotation_from_json(json.dumps(doc))


def test_generated_order_edges_load_unchanged(tiny_challenge):
    for entry in tiny_challenge.select(split="test"):
        path = os.path.join(tiny_challenge.root, entry.annotation_path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        ann = annotation_from_json(text)
        assert ann.order_edges == [tuple(e) for e in json.loads(text)["order_edges"]]
        assert annotation_to_json(ann) == text


def test_order_graph_roundtrip():
    edges = [(0, 1, 12, 3, 15), (2, 0, 5, 5, 10)]
    assert order_graph_lines(edges) == "0 -> 1 12 3 15\n2 -> 0 5 5 10\n"
    assert order_graph_lines(edges[1:]) == "2 -> 0 5 5 10\n"
    assert order_graph_lines([]) == ""


def test_model_roundtrip_bit_exact(tiny_bundle, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(tiny_bundle, path)
    back = load_model(path)

    assert np.array_equal(back.dictionary.means, tiny_bundle.dictionary.means)
    assert np.array_equal(
        back.dictionary.concentrations, tiny_bundle.dictionary.concentrations)
    assert np.array_equal(back.occluder.coeffs, tiny_bundle.occluder.coeffs)
    assert back.labels == tiny_bundle.labels
    for ca, cb in zip(tiny_bundle.classes, back.classes):
        for ma, mb in zip(ca.mixtures, cb.mixtures):
            assert np.array_equal(ma.fg_prior, mb.fg_prior)
            assert np.array_equal(ma.fg_coeffs, mb.fg_coeffs)
            assert np.array_equal(ma.ctx_coeffs, mb.ctx_coeffs)

    # a second save of the loaded bundle is byte-identical
    path2 = str(tmp_path / "model2.bin")
    save_model(back, path2)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_model_corrupt_rejects(tiny_bundle, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(tiny_bundle, path)
    raw = Path(path).read_bytes()
    with pytest.raises(FormatError):
        load_model_bytes(tmp_path, b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_model_bytes(tmp_path, raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_model_bytes(tmp_path, b"")
    # K = D = 2**32 - 1: the dictionary block is checked before it is allocated
    with pytest.raises(FormatError, match="truncated at byte 14"):
        load_model_bytes(tmp_path, raw[:6] + struct.pack("<II", 2**32 - 1, 2**32 - 1))

    # Well-framed blobs whose content no model may have: zero classes, a class
    # with an empty label, a class with zero mixtures.
    dic = tiny_bundle.dictionary
    classes_at = 4 + 2 + 8 + dic.size * (4 * dic.dim + 8) + 8 * dic.size
    assert raw[classes_at : classes_at + 4] == struct.pack("<I", len(tiny_bundle.classes))
    label = tiny_bundle.classes[0].label.encode("utf-8")
    field = struct.pack("<H", len(label)) + label
    assert raw.count(field) == 1
    for blob in (
        raw[:classes_at] + struct.pack("<I", 0),
        raw.replace(field, struct.pack("<H", 0)),
        raw[:classes_at] + struct.pack("<I", 1) + field + struct.pack("<I", 0),
    ):
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "garbled.bin"))):
            load_model_bytes(tmp_path, blob)


def test_model_rejects_non_utf8_label(tiny_bundle, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(tiny_bundle, path)
    raw = Path(path).read_bytes()
    label = tiny_bundle.classes[0].label.encode("utf-8")
    field = struct.pack("<H", len(label)) + label
    assert raw.count(field) == 1
    with pytest.raises(FormatError):
        load_model_bytes(tmp_path, raw.replace(field, field[:2] + b"\xff" * len(label)))


# float32 bits of a signalling NaN; widening it to float64 raises numpy's
# "invalid value" flag
SIGNALLING_NAN = struct.pack("<I", 0x7F800001)


@pytest.mark.filterwarnings("error")
def test_model_signalling_nan_is_a_format_error_without_a_warning(tiny_bundle, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(tiny_bundle, path)
    with open(path, "rb") as fh:
        raw = fh.read()
    dic = tiny_bundle.dictionary
    label = tiny_bundle.classes[0].label.encode("utf-8")
    # the first dictionary mean, and the first class's first prior plane
    prior_at = 4 + 2 + 8 + dic.size * (4 * dic.dim + 8) + 8 * dic.size + 4 + 2 + len(label) + 4 + 8
    for at in (14, prior_at):
        with pytest.raises(FormatError, match="invalid model"):
            load_model_bytes(tmp_path, raw[:at] + SIGNALLING_NAN + raw[at + 4:])


def load_model_bytes(tmp_path, blob):
    p = str(tmp_path / "garbled.bin")
    with open(p, "wb") as fh:
        fh.write(blob)
    return load_model(p)


def test_quantize_bundle_preserves_simplices(tiny_bundle):
    q = quantize_bundle(tiny_bundle)
    for cls in q.classes:
        for mix in cls.mixtures:
            for rows in (mix.fg_coeffs, mix.ctx_coeffs):
                flat = rows.reshape(-1, rows.shape[-1])
                assert np.all(np.abs(flat.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
                # every entry survives a float32 round trip unchanged
                assert np.array_equal(flat, flat.astype(np.float32).astype(np.float64))
    # idempotent: quantizing again changes nothing
    q2 = quantize_bundle(q)
    for ca, cb in zip(q.classes, q2.classes):
        for ma, mb in zip(ca.mixtures, cb.mixtures):
            assert np.array_equal(ma.fg_coeffs, mb.fg_coeffs)
            assert np.array_equal(ma.ctx_coeffs, mb.ctx_coeffs)


def test_manifest_roundtrip(tiny_challenge):
    manifest_path = os.path.join(tiny_challenge.root, "manifest.json")
    man = load_manifest(manifest_path)
    assert man.root == tiny_challenge.root
    assert len(man.entries) > 0
    train = man.select(split="train")
    assert train and all(e.split == "train" for e in train)
    two_test = man.select(split="test", scenario="two")
    assert two_test and all(
        e.split == "test" and e.scenario == "two" for e in two_test)
    backgrounds = man.select(scenario="background")
    assert backgrounds
    # every referenced file exists relative to the manifest root
    for e in man.entries[:10]:
        assert os.path.exists(os.path.join(man.root, e.fmap_path))
        assert os.path.exists(os.path.join(man.root, e.annotation_path))


def test_manifest_must_be_a_json_object(tmp_path):
    p = str(tmp_path / "manifest.json")
    for doc in ([1, 2], "x", 3, None, {"version": 1, "scenes": [], "config": [1]}):
        with open(p, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(FormatError):
            load_manifest(p)


def test_text_that_is_not_utf8_is_a_format_error(tiny_challenge, tmp_path):
    entry = tiny_challenge.select(split="test")[0]
    manifest = load_manifest(os.path.join(tiny_challenge.root, "manifest.json"))
    with open(os.path.join(tiny_challenge.root, "manifest.json"), "rb") as fh:
        raw = fh.read()
    (tmp_path / "manifest.json").write_bytes(b"\xff\xfe" + raw)
    with pytest.raises(FormatError):
        load_manifest(str(tmp_path / "manifest.json"))
    (tmp_path / "bad.json").write_bytes(b"{\"scene_id\": \"\xff\"}")
    moved = dataclasses.replace(entry, annotation_path=str(tmp_path / "bad.json"))
    with pytest.raises(FormatError):
        load_scene(manifest, moved)


def test_manifest_bad_version(tmp_path):
    p = str(tmp_path / "manifest.json")
    with open(p, "w") as fh:
        json.dump({"version": 99, "scenes": []}, fh)
    with pytest.raises(FormatError):
        load_manifest(p)


def test_manifest_rejects_duplicate_scene_ids(tmp_path):
    p = str(tmp_path / "manifest.json")
    scene = {"id": "two-L1-0000", "fmap": "a.fmap", "annotation": "a.json",
             "split": "test", "scenario": "two", "level": "L1"}
    other = dict(scene, id="two-L1-0001")
    with open(p, "w") as fh:
        json.dump({"version": 1, "scenes": [scene, other, scene]}, fh)
    with pytest.raises(FormatError, match=r"manifest\.json: duplicate scene id 'two-L1-0000'"):
        load_manifest(p)


# 1,500 nested arrays: deeper than `json.loads` can recurse
DEEPLY_NESTED = "[" * 1500 + "]" * 1500


def test_annotation_nested_too_deeply_is_a_format_error():
    with pytest.raises(FormatError, match="bad annotation JSON"):
        annotation_from_json(DEEPLY_NESTED)


def test_manifest_nested_too_deeply_is_a_format_error(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text(DEEPLY_NESTED)
    with pytest.raises(FormatError, match="bad manifest JSON"):
        load_manifest(str(p))


def _huge_lattice_doc():
    """An annotation of a 10**9 x 10**9 lattice whose runs sum to its size."""
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc["shape"] = [10**9, 10**9]
    for obj in doc["objects"]:
        obj["amodal_rle"] = obj["modal_rle"] = f"0 {10**18}"
    doc["unknown_rle"] = None
    return doc


def test_annotation_lattice_too_large_to_allocate_is_a_format_error():
    with pytest.raises(FormatError, match="lattice 1000000000x1000000000 is too large"):
        annotation_from_json(json.dumps(_huge_lattice_doc()))


@pytest.mark.parametrize(
    "text, shape, match",
    [
        # the runs sum to the product of the two negative sides
        ("6", (-2, -3), "lattice -2x-3 has a negative side"),
        # 2**64 pixels, a run numpy cannot index
        (f"0 {2**64}", (2**32, 2**32), "lattice 4294967296x4294967296 is too large"),
        # no pixels, but a side numpy cannot give an array
        ("", (0, 2**70), f"lattice 0x{2**70} is too large"),
    ],
    ids=["negative-sides", "run-past-intp", "side-past-intp"],
)
def test_decode_rle_bad_lattice_is_a_format_error(text, shape, match):
    with pytest.raises(FormatError, match=match):
        decode_rle(text, shape)


def _negative_shape_doc():
    """An annotation of a -2x-3 lattice with nothing to decode on it."""
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc.update(shape=[-2, -3], objects=[], order_edges=[], unknown_rle=None)
    return doc


def _intp_overflow_doc():
    """An annotation of a 2**32 x 2**32 lattice whose runs sum to its 2**64 pixels."""
    doc = _huge_lattice_doc()
    doc["shape"] = [2**32, 2**32]
    for obj in doc["objects"]:
        obj["amodal_rle"] = obj["modal_rle"] = f"0 {2**64}"
    return doc


def test_annotation_negative_shape_is_a_format_error():
    with pytest.raises(FormatError, match="lattice -2x-3 has a negative side"):
        annotation_from_json(json.dumps(_negative_shape_doc()))


def test_annotation_lattice_past_intp_is_a_format_error():
    with pytest.raises(FormatError, match="lattice 4294967296x4294967296 is too large"):
        annotation_from_json(json.dumps(_intp_overflow_doc()))


# Replacement values for the JSON fuzzers: every JSON type, numbers at the
# edges of int64 and of float64, RLE-like strings and short shapes.
JSON_VALUES = (
    None, True, False, 0, -1, 1, 7, 2**31, 2**63, 2**64, -(2**63), 0.5, -0.0, 1e-300,
    math.inf, -math.inf, math.nan, "", "x", "0", "-1", "1e400", "0 42", "42 0", "L1",
    [], [0], [6, 7], [-6, -7], [7, 6, 0], [0, 0, 0, 0], {}, {"a": 1},
)


def _json_slots(node, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _json_slots(value, (*path, key))


def _json_mutations(doc, rng: np.random.Generator, count: int):
    """`count` seeded corruptions of a JSON document, each one to three
    edits: a value replaced by one of `JSON_VALUES`, or a key or an item
    deleted."""
    for _ in range(count):
        out = copy.deepcopy(doc)
        for _ in range(rng.integers(1, 4)):
            slots = list(_json_slots(out))
            path = slots[rng.integers(len(slots))]
            if not path:
                out = JSON_VALUES[rng.integers(len(JSON_VALUES))]
                continue
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            if rng.integers(3) == 0:
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(JSON_VALUES[rng.integers(len(JSON_VALUES))])
        yield json.dumps(out)


@pytest.mark.filterwarnings("error")
def test_annotation_survives_seeded_mutations():
    """A corrupted annotation either loads as one whose masks cover its
    lattice and that serializes to a fixed point, or raises a
    `CompsegError`: no other exception and no warning. The fixed cases,
    each a bug once, must raise."""
    fixed = [_huge_lattice_doc(), _negative_shape_doc(), _intp_overflow_doc()]
    for text in [DEEPLY_NESTED, *map(json.dumps, fixed)]:
        with pytest.raises(CompsegError):
            annotation_from_json(text)
    rng = np.random.default_rng(41)
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    loaded = 0
    for text in _json_mutations(doc, rng, 6000):
        try:
            ann = annotation_from_json(text)
        except CompsegError:
            continue
        loaded += 1
        for rec in ann.objects:
            assert rec.amodal.shape == rec.modal.shape == ann.shape
        again = annotation_to_json(ann)
        assert annotation_to_json(annotation_from_json(again)) == again
    assert 0 < loaded < 6000


def _manifest_doc():
    scene = {"id": "two-L1-0000", "fmap": "scenes/a.fmap", "annotation": "annotations/a.json",
             "split": "test", "scenario": "two", "level": "L1"}
    return {"version": 1, "config": {"seed": 7, "per_level": 1},
            "scenes": [scene, dict(scene, id="four-L2-0000", scenario="four", level="L2")]}


@pytest.mark.filterwarnings("error")
def test_manifest_survives_seeded_mutations(tmp_path):
    """A corrupted manifest either loads with one entry per scene and unique
    ids, or raises a `CompsegError`: no other exception and no warning."""
    rng = np.random.default_rng(43)
    path = tmp_path / "manifest.json"
    loaded = 0
    for text in [DEEPLY_NESTED] + list(_json_mutations(_manifest_doc(), rng, 3000)):
        path.write_text(text)
        try:
            man = load_manifest(str(path))
        except CompsegError:
            continue
        loaded += 1
        ids = [e.scene_id for e in man.entries]
        assert len(ids) == len(set(ids)) == len(json.loads(text)["scenes"])
    assert 0 < loaded < 3000


def _small_bundle() -> ModelBundle:
    """Two classes, three mixtures, K = 3 and D = 4: a MODEL file of 607 bytes."""
    rng = np.random.default_rng(5)
    k, dim = 3, 4
    means = rng.normal(size=(k, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)

    def mixture(h, w):
        fg, ctx = rng.random((2, h, w, k)) + 0.1
        return MixtureModel(rng.random((h, w)), fg / fg.sum(-1, keepdims=True),
                            ctx / ctx.sum(-1, keepdims=True))

    classes = (ClassModel("disc", (mixture(2, 3),)),
               ClassModel("brick", (mixture(3, 2), mixture(2, 2))))
    occluder = OccluderModel(np.array([0.5, 0.25, 0.25]))
    return quantize_bundle(ModelBundle(VmfDictionary(means, np.full(k, 2.0)), classes, occluder))


def _model_layout(bundle: ModelBundle, size: int):
    """(integer header fields, float slots) of `bundle`'s MODEL file, each
    an (offset, struct format) pair."""
    k, dim = bundle.dictionary.size, bundle.dictionary.dim
    fields, floats = [(4, "<H"), (6, "<I"), (10, "<I")], []
    at = 14
    for _ in range(k):
        floats += [(at + 4 * d, "<f") for d in range(dim)] + [(at + 4 * dim, "<d")]
        at += 4 * dim + 8
    floats += [(at + 8 * i, "<d") for i in range(k)]
    at += 8 * k
    fields.append((at, "<I"))
    at += 4
    for cls in bundle.classes:
        fields.append((at, "<H"))
        at += 2 + len(cls.label.encode("utf-8"))
        fields.append((at, "<I"))
        at += 4
        for mix in cls.mixtures:
            fields += [(at, "<I"), (at + 4, "<I")]
            at += 8
            n = mix.fg_prior.size * (1 + 2 * k)
            floats += [(at + 4 * i, "<f") for i in range(n)]
            at += 4 * n
    assert at == size
    return fields, floats


FIELD_VALUES = {"<H": (0, 1, 2, 5, 2**16 - 1), "<I": (0, 1, 2, 3, 4, 6, 2**31, 2**32 - 1)}
SPECIAL_FLOATS = {
    # the last of each is a signalling NaN
    "<f": [struct.pack("<f", v) for v in (0.0, -0.0, 1e-45, 1e-30, 1.0, 3.4e38, math.inf,
                                          -math.inf, math.nan)] + [struct.pack("<I", 0x7F800001)],
    "<d": [struct.pack("<d", v) for v in (0.0, -0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308,
                                          math.inf, -math.inf, math.nan)]
    + [struct.pack("<Q", 0x7FF0000000000001)],
}


def _model_mutations(blob: bytes, fields, floats, rng: np.random.Generator, count: int):
    """`count` seeded corruptions of a MODEL file: byte flips, truncations,
    extensions, rewritten header fields and floats set to special values."""
    for _ in range(count):
        out = bytearray(blob)
        kind = rng.integers(5)
        if kind == 0:
            for pos in rng.integers(len(out), size=rng.integers(1, 4)):
                out[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:
            del out[rng.integers(len(out)):]
        elif kind == 2:
            out += rng.bytes(int(rng.integers(1, 40)))
        elif kind == 3:
            at, fmt = fields[rng.integers(len(fields))]
            values = FIELD_VALUES[fmt]
            out[at : at + struct.calcsize(fmt)] = struct.pack(fmt, values[rng.integers(len(values))])
        else:
            at, fmt = floats[rng.integers(len(floats))]
            values = SPECIAL_FLOATS[fmt]
            out[at : at + struct.calcsize(fmt)] = values[rng.integers(len(values))]
        yield bytes(out)


@pytest.mark.filterwarnings("error")
def test_load_model_survives_seeded_mutations(tmp_path):
    """A corrupted MODEL file either loads as a model that saves back to the
    same bytes, or raises a `CompsegError`: no other exception and no
    warning."""
    rng = np.random.default_rng(47)
    path, again = str(tmp_path / "model.bin"), str(tmp_path / "again.bin")
    bundle = _small_bundle()
    save_model(bundle, path)
    blob = Path(path).read_bytes()
    fields, floats = _model_layout(bundle, len(blob))
    loaded = 0
    for mutant in _model_mutations(blob, fields, floats, rng, 3000):
        Path(path).write_bytes(mutant)
        try:
            back = load_model(path)
        except CompsegError:
            continue
        loaded += 1
        save_model(back, again)
        assert Path(again).read_bytes() == mutant
    assert 0 < loaded < 3000

import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseg.errors import FormatError, ValidationError
from compseg.fmap import BoundingBox
from compseg.formats import (
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
from compseg.models import SIMPLEX_TOL


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
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_model_corrupt_rejects(tiny_bundle, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(tiny_bundle, path)
    raw = open(path, "rb").read()
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
    raw = open(path, "rb").read()
    label = tiny_bundle.classes[0].label.encode("utf-8")
    field = struct.pack("<H", len(label)) + label
    assert raw.count(field) == 1
    with pytest.raises(FormatError):
        load_model_bytes(tmp_path, raw.replace(field, field[:2] + b"\xff" * len(label)))


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

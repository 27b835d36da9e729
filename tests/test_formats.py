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
    Manifest,
    ModelBundle,
    ObjectRecord,
    SceneAnnotation,
    annotation_from_json,
    annotation_to_json,
    decode_rle,
    encode_rle,
    json_text,
    load_manifest,
    load_model,
    load_scene,
    order_graph_lines,
    quantize_bundle,
    read_annotation,
    read_scene,
    save_manifest,
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


def test_rle_decode_rejects_text_the_encoder_would_rewrite():
    # one mask has one string: a zero run after the first, or any other
    # spelling of the runs, would be rewritten by the next save
    for text in ("6 0", "1 0 2 3", "0 0 6", "06", "+6", " 6", "1  5", "1\t5"):
        with pytest.raises(FormatError, match="not canonical"):
            decode_rle(text, (2, 3))


def _tiny_annotation():
    rng = np.random.default_rng(3)
    shape = (6, 7)
    box = BoundingBox(1, 1, 5, 6)
    objects = []
    for oid in range(2):
        # masks live on the box's lattice
        amodal = rng.random(box.shape) < 0.5
        modal = amodal & (rng.random(box.shape) < 0.8)
        objects.append(
            ObjectRecord(
                oid=oid,
                label=f"cls{oid}",
                template=oid,
                box=box,
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


def test_annotation_masks_are_box_lattice_in_memory_and_full_lattice_on_disk():
    ann = _tiny_annotation()
    doc = json.loads(annotation_to_json(ann))
    for rec, obj in zip(ann.objects, doc["objects"]):
        full = decode_rle(obj["amodal_rle"], ann.shape)
        assert np.array_equal(full[rec.box.slices], rec.amodal)
        assert full.sum() == rec.amodal.sum()
    for rec in annotation_from_json(json.dumps(doc)).objects:
        assert rec.amodal.shape == rec.modal.shape == rec.box.shape == (5, 4)


def test_record_masks_must_cover_their_box():
    rec = _tiny_annotation().objects[0]
    for field in ("amodal", "modal"):
        with pytest.raises(ValidationError, match=f"{field} mask .* box's lattice"):
            dataclasses.replace(rec, **{field: np.zeros((6, 7), dtype=np.bool_)})


def _out_of_box_doc():
    """The tiny annotation with object 1's amodal mask holding scene pixel
    (0, 0), outside its box: the refusal case."""
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    full = decode_rle(doc["objects"][1]["amodal_rle"], (6, 7))
    full[0, 0] = True
    doc["objects"][1]["amodal_rle"] = encode_rle(full)
    return doc


def test_annotation_refuses_a_mask_pixel_outside_its_box():
    want = r"object 1: amodal mask has a pixel outside box \[1, 1, 5, 6\]"
    with pytest.raises(FormatError, match=want):
        annotation_from_json(json.dumps(_out_of_box_doc()))


def test_annotation_refuses_a_box_off_the_lattice():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc["objects"][0]["box"] = [1, 1, 8, 6]
    with pytest.raises(FormatError, match=r"object 0: box \[1, 1, 8, 6\] does not fit lattice"):
        annotation_from_json(json.dumps(doc))


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
    # a literal like 1e400 overflows a float; the parser refuses it
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    obj = doc["objects"][0]
    for where, field in ((doc, "shape"), (obj, "box"), (obj, "id")):
        kept = where[field]
        where[field] = ["INF", *kept[1:]] if isinstance(kept, list) else "INF"
        with pytest.raises(FormatError, match="bad annotation JSON: 1e400 is not a finite number"):
            annotation_from_json(json.dumps(doc).replace('"INF"', "1e400"))
        where[field] = kept


def test_annotation_overflowing_number_is_a_format_error():
    # 1e400 would read as inf, a number the writer refuses, so a record
    # holding one anywhere could be loaded but never saved again
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    obj = doc["objects"][0]
    for where, field, literal, number in (
        (obj, "occlusion", "1e400", "1e400"), (obj, "score", "-1e400", "-1e400"),
        (doc, "extra", '{"x": -1e999}', "-1e999"), (doc, "extra", '{"x": [1, 2e308]}', "2e308"),
    ):
        kept = where[field]
        where[field] = "INF"
        with pytest.raises(FormatError,
                           match=f"bad annotation JSON: {number} is not a finite number"):
            annotation_from_json(json.dumps(doc).replace('"INF"', literal))
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


@pytest.mark.parametrize(
    "where, field, value",
    [
        ("doc", "shape", [4.9, 4]),
        ("doc", "shape", [6, True]),
        ("object", "id", 1.7),
        ("object", "id", True),
        ("object", "id", "1"),
        ("object", "template", 0.0),
        ("object", "depth", None),
        ("object", "box", [0.9, 0, 3, 3.99]),
        ("object", "class", None),
        ("object", "class", 3),
        ("object", "level", 1),
        ("object", "occlusion", "0.5"),
        ("object", "occlusion", False),
        ("object", "score", True),
        ("doc", "scene_id", 5),
        ("doc", "scenario", None),
        ("doc", "split", ["test"]),
        ("doc", "objects", {}),
        ("doc", "order_edges", {}),
        ("doc", "extra", [["note", 3]]),
    ],
)
def test_annotation_fields_keep_their_json_types(where, field, value):
    """Integers are JSON integers, strings are strings and numbers are int or
    float, never bool: a field of another type is a FormatError that names
    it, not a value converted on load."""
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    (doc if where == "doc" else doc["objects"][0])[field] = value
    with pytest.raises(FormatError, match=f"bad annotation record: field '{field}'"):
        annotation_from_json(json.dumps(doc))


def test_empty_unknown_rle_is_decoded_not_dropped():
    # "" was read as no unknown mask; it is the RLE of a lattice without pixels
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc["unknown_rle"] = ""
    with pytest.raises(FormatError, match="RLE sums to 0, lattice has 42 pixels"):
        annotation_from_json(json.dumps(doc))
    doc.update(shape=[0, 3], objects=[], order_edges=[])
    assert annotation_from_json(json.dumps(doc)).unknown.shape == (0, 3)


def test_annotation_numbers_may_be_integers():
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc["objects"][0].update(occlusion=1, score=-12)
    rec = annotation_from_json(json.dumps(doc)).objects[0]
    assert (rec.occlusion, rec.score) == (1.0, -12.0)
    assert type(rec.occlusion) is type(rec.score) is float


@pytest.mark.parametrize(
    "change",
    [
        {"version": True},
        {"version": 1.0},
        {"version": "1"},
        {"config": [1]},
        {"scenes": {}},
        {"fmap": None},
        {"level": 7},
        {"id": 0},
        {"split": False},
    ],
    ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()),
)
def test_manifest_fields_keep_their_json_types(tmp_path, change):
    doc = _manifest_doc()
    ((field, value),) = change.items()
    (doc if field in doc else doc["scenes"][0])[field] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="unsupported manifest version" if field == "version"
                       else f"bad manifest entry: field '{field}'"):
        load_manifest(str(path))


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
    assert back.dictionary.concentration == tiny_bundle.dictionary.concentration
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


def test_model_atoms_must_share_one_concentration(tiny_bundle, tmp_path):
    """Every atom of a MODEL file carries the dictionary's one concentration.
    A file whose atoms disagree, by so much as a bit, is a FormatError that
    names it; one whose atoms all carry another value loads with it."""
    path = str(tmp_path / "model.bin")
    save_model(tiny_bundle, path)
    raw = Path(path).read_bytes()
    dic = tiny_bundle.dictionary
    atom = 4 * dic.dim + 8
    conc_at = [14 + j * atom + 4 * dic.dim for j in range(dic.size)]
    sigma = float(dic.concentration)
    assert all(raw[at : at + 8] == struct.pack("<d", sigma) for at in conc_at)

    def with_conc(values):
        out = bytearray(raw)
        for at, value in zip(conc_at, values):
            out[at : at + 8] = struct.pack("<d", value)
        return bytes(out)

    last = [sigma] * (dic.size - 1)
    for other in (sigma + 1.0, np.nextafter(sigma, np.inf), float("nan")):
        with pytest.raises(FormatError, match=re.escape(str(tmp_path / "garbled.bin"))
                           + ": dictionary atoms disagree on the concentration"):
            load_model_bytes(tmp_path, with_conc([*last, other]))
    with pytest.raises(FormatError, match="disagree"):
        load_model_bytes(tmp_path, with_conc([0.0] * (dic.size - 1) + [-0.0]))
    back = load_model_bytes(tmp_path, with_conc([12.5] * dic.size))
    assert type(back.dictionary.concentration) is np.float64
    assert back.dictionary.concentration == 12.5


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
    with open(os.path.join(tiny_challenge.root, "manifest.json"), "rb") as fh:
        raw = fh.read()
    (tmp_path / "manifest.json").write_bytes(b"\xff\xfe" + raw)
    with pytest.raises(FormatError):
        load_manifest(str(tmp_path / "manifest.json"))
    # a manifest rooted in tmp_path, so that nothing is written into the
    # shared challenge, whose bytes the pins hash
    (tmp_path / "scene.fmap").write_bytes(
        Path(tiny_challenge.root, entry.fmap_path).read_bytes())
    (tmp_path / "bad.json").write_bytes(b"{\"scene_id\": \"\xff\"}")
    moved = dataclasses.replace(entry, fmap_path="scene.fmap", annotation_path="bad.json")
    with pytest.raises(FormatError, match="bad.json: not UTF-8 text"):
        load_scene(Manifest(str(tmp_path), [moved]), moved)


@pytest.mark.parametrize("field", ["fmap_path", "annotation_path"])
def test_scene_paths_stay_inside_the_manifest_directory(tiny_challenge, tmp_path, field):
    """A manifest's paths are relative to its directory: an absolute path or
    one that climbs out of it is a FormatError naming the entry, even where
    the file it names exists."""
    entry = tiny_challenge.select(split="test")[0]
    root = tmp_path / "root"
    root.mkdir()
    inside = getattr(entry, field)
    outside = tmp_path / os.path.basename(inside)
    outside.write_bytes(Path(tiny_challenge.root, inside).read_bytes())
    for path in (str(outside), os.path.join("..", outside.name),
                 os.path.join("scenes", "..", "..", outside.name)):
        moved = dataclasses.replace(entry, **{field: path})
        manifest = Manifest(str(root), [moved])
        with pytest.raises(FormatError, match=f"{entry.scene_id}: .* is not inside the manifest"):
            load_scene(manifest, moved)
    # a path that climbs but stays inside is read
    local = dataclasses.replace(entry, **{field: os.path.join("scenes", "..", inside)})
    fmap, ann = load_scene(tiny_challenge, local)
    assert ann.scene_id == entry.scene_id


def test_scene_lattices_must_agree(tiny_challenge):
    two, four = (tiny_challenge.select(split="test", scenario=s)[0] for s in ("two", "four"))
    fmap_path = os.path.join(tiny_challenge.root, two.fmap_path)
    with pytest.raises(FormatError, match=f"{four.scene_id}: annotation lattice"):
        read_scene(fmap_path, os.path.join(tiny_challenge.root, four.annotation_path))
    fmap, ann = read_scene(fmap_path, os.path.join(tiny_challenge.root, two.annotation_path))
    assert ann.scene_id == two.scene_id and fmap.shape == ann.shape


def test_bad_annotation_record_names_its_file(tiny_challenge, tmp_path):
    entry = tiny_challenge.select(split="test", scenario="two")[0]
    doc = json.loads(Path(tiny_challenge.root, entry.annotation_path).read_text())
    doc["objects"][0]["id"] = 1.7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    want = f"{bad}: bad annotation record: field 'id' must be int, got float"
    with pytest.raises(FormatError) as caught:
        read_annotation(str(bad))
    assert str(caught.value) == want
    with pytest.raises(FormatError) as caught:
        read_scene(os.path.join(tiny_challenge.root, entry.fmap_path), str(bad))
    assert str(caught.value) == want
    # text that is not UTF-8 is named once
    bad.write_bytes(b"\xff" + bad.read_bytes())
    with pytest.raises(FormatError, match=r"not UTF-8") as caught:
        read_annotation(str(bad))
    assert str(caught.value).count(str(bad)) == 1


@pytest.mark.parametrize("box, reason", [
    ([5, 5, 2, 2], r"box must have positive area: \(5, 5, 2, 2\)"),
    ([-1, 0, 3, 3], r"box must not have negative corners: \(-1, 0, 3, 3\)"),
])
def test_box_that_boundingbox_refuses_is_a_format_error_naming_its_file(tmp_path, box, reason):
    """A value that a record type refuses is a bad record, like a bad field."""
    doc = json.loads(annotation_to_json(_tiny_annotation()))
    doc["objects"][0]["box"] = box
    with pytest.raises(FormatError, match=f"^bad annotation record: {reason}$"):
        annotation_from_json(json.dumps(doc))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: bad annotation record: {reason}$"):
        read_annotation(str(bad))


def test_integer_too_large_for_a_float_field_is_a_format_error():
    """An integer literal is exact in JSON, but float() cannot hold 10**400."""
    text = annotation_to_json(_tiny_annotation())
    with pytest.raises(FormatError, match="bad annotation record: int too large"):
        annotation_from_json(text.replace('"occlusion": 0.25', f'"occlusion": {10**400}'))


def test_underflowing_number_is_finite_and_reads_as_zero():
    text = annotation_to_json(_tiny_annotation())
    ann = annotation_from_json(text.replace('"occlusion": 0.25', '"occlusion": 1e-400'))
    assert [o.occlusion for o in ann.objects] == [0.0, 0.0]


def test_integer_longer_than_int_converts_is_a_format_error(tmp_path):
    """Python refuses to convert an integer of more than 4,300 digits, and
    `json.loads` raises that as a bare ValueError."""
    digits = "9" * 5000
    text = annotation_to_json(_tiny_annotation())
    with pytest.raises(FormatError, match="bad annotation JSON: Exceeds the limit"):
        annotation_from_json(text.replace('"template": 0', f'"template": {digits}'))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_manifest_doc()).replace('"seed": 7', f'"seed": {digits}'))
    with pytest.raises(FormatError, match="bad manifest JSON: Exceeds the limit"):
        load_manifest(str(path))


@pytest.mark.parametrize("field, value", [("occlusion", math.nan), ("score", -math.inf),
                                          ("score", math.inf)])
def test_writers_refuse_numbers_json_cannot_hold(tmp_path, field, value):
    ann = _tiny_annotation()
    setattr(ann.objects[1], field, value)
    with pytest.raises(ValidationError, match="not JSON"):
        annotation_to_json(ann)
    with pytest.raises(ValidationError, match="not JSON"):
        annotation_to_json(dataclasses.replace(_tiny_annotation(), extra={"x": value}))
    path = tmp_path / "manifest.json"
    with pytest.raises(ValidationError, match="not JSON"):
        save_manifest(Manifest(str(tmp_path), [], {"seed": value}), str(path))
    assert not path.exists()
    with pytest.raises(ValidationError, match="not JSON"):
        json_text({"a": [value]})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_readers_refuse_nan_and_infinity_tokens(tmp_path, token):
    """`json.loads` reads these tokens, which are not JSON, as floats."""
    text = annotation_to_json(_tiny_annotation())
    assert text.count('"occlusion": 0.25') == 1
    with pytest.raises(FormatError, match=f"bad annotation JSON: {token} is not a JSON number"):
        annotation_from_json(text.replace('"occlusion": 0.25', f'"occlusion": {token}'))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_manifest_doc()).replace('"seed": 7', f'"seed": {token}'))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad manifest JSON: {token} is not")):
        load_manifest(str(path))


def test_manifest_overflowing_number_is_a_format_error(tmp_path):
    # 1e400 would read as inf, a number `save_manifest` refuses, so a manifest
    # holding one could be loaded but never saved again
    path = tmp_path / "manifest.json"
    for literal in ("1e400", "-1e999"):
        for kept, bad in (('"seed": 7', f'"x": {literal}'), ('"level": "L1"', f'"level": {literal}')):
            path.write_text(json.dumps(_manifest_doc()).replace(kept, bad))
            want = re.escape(f"{path}: bad manifest JSON: {literal} is not a finite number")
            with pytest.raises(FormatError, match=want):
                load_manifest(str(path))


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


def _same_json(a, b) -> bool:
    """`a` and `b` have one JSON type and one value, numbers compared after
    the writers' 9-digit rounding (NaN equals NaN)."""
    if type(a) in (int, float) and type(b) in (int, float):
        x, y = round(float(a), 9), round(float(b), 9)
        return x == y or (math.isnan(x) and math.isnan(y))
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    return a == b


def _fields_kept(mutant: dict, written: dict, where="") -> list[str]:
    """The fields of `mutant` that `written`, its load saved again, lacks or
    holds with another JSON type or value. A field the mutant lacks is a
    reader's default, not a change."""
    changed = []
    for key, value in mutant.items():
        path = f"{where}/{key}"
        if key not in written:
            changed.append(path)
        elif key in ("objects", "scenes") and type(value) is list:
            if len(value) != len(written[key]):
                changed.append(path)
            for i, (m, w) in enumerate(zip(value, written[key])):
                changed += _fields_kept(m, w, f"{path}/{i}")
        elif not _same_json(value, written[key]):
            changed.append(path)
    return changed


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
    lattice, that keeps every field's JSON type and value and that
    serializes to a fixed point, or raises a `CompsegError`: no other
    exception and no warning. The fixed cases, each a bug once, must raise."""
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
            assert rec.amodal.shape == rec.modal.shape == rec.box.shape
        again = annotation_to_json(ann)
        assert _fields_kept(json.loads(text), json.loads(again)) == [], text
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
    ids, keeping every field's JSON type and value, or raises a
    `CompsegError`: no other exception and no warning."""
    rng = np.random.default_rng(43)
    path = tmp_path / "manifest.json"
    again = tmp_path / "again.json"
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
        save_manifest(man, str(again))
        assert _fields_kept(json.loads(text), json.loads(again.read_text())) == [], text
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
    return quantize_bundle(ModelBundle(VmfDictionary(means, 2.0), classes, occluder))


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

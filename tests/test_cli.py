import json
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from test_fmap import _mutations as _fmap_mutations
from test_formats import _json_mutations, _model_layout, _model_mutations

from compseg import cli, synth
from compseg.errors import ValidationError
from compseg.formats import (
    annotation_from_json,
    annotation_to_json,
    decode_rle,
    encode_rle,
    load_model,
    read_scene,
)
from compseg.metrics import predict_scene


# `python -m compseg` runs this checkout's package, installed or not.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "compseg", *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-pipeline")
    data = root / "challenge"
    r = run_cli(
        "generate", "--out", data, "--per-level", 1,
        "--train-scenes", 8, "--backgrounds", 3, "--seed", 11,
    )
    assert r.returncode == 0, r.stderr
    assert "wrote" in r.stdout

    model = root / "model.bin"
    r = run_cli(
        "train", "--manifest", data / "manifest.json",
        "--k", 16, "--m", 2, "--seed", 0, "--out", model,
    )
    assert r.returncode == 0, r.stderr
    assert "trained 2 classes" in r.stdout
    stop = re.search(r"dictionary (\d+)/100 iterations \((.+?)\),", r.stdout)
    assert stop, r.stdout
    assert int(stop[1]) < 100 and stop[2] in ("assignments unchanged", "gain below standard error")
    return root, data, model


def test_train_is_reproducible(pipeline):
    root, data, model = pipeline
    again = root / "model-again.bin"
    r = run_cli(
        "train", "--manifest", data / "manifest.json",
        "--k", 16, "--m", 2, "--seed", 0, "--out", again,
    )
    assert r.returncode == 0, r.stderr
    assert model.read_bytes() == again.read_bytes()


def test_segment_then_evaluate(pipeline):
    root, data, model = pipeline
    preds = root / "preds"
    for sid in ("two-L2-0000", "two-L3-0000", "four-L1-0000"):
        r = run_cli(
            "segment", "--model", model,
            "--scene", data / "scenes" / f"{sid}.fmap", "--out", preds,
        )
        assert r.returncode == 0, r.stderr
        assert f"segmented {sid}" in r.stdout
        assert (preds / f"{sid}.json").exists()
        assert (preds / f"{sid}.order").exists()

    out = root / "eval.txt"
    r = run_cli(
        "evaluate", "--pred", preds, "--truth", data / "annotations", "--out", out,
    )
    assert r.returncode == 0, r.stderr
    assert "modal mIoU" in r.stdout
    text = out.read_text()
    assert "pairwise order accuracy" in text
    record = json.loads((root / "eval.txt.json").read_text())
    assert record["mode"] == "modal"
    assert record["scenes"] == 3
    assert set(record["miou"]["levels"]) == {"L0", "L1", "L2", "L3"}


def test_single_object_scene_ignores_iteration_count(pipeline, tmp_path):
    # with nothing to compete against, every iteration budget must produce
    # byte-identical output
    root, data, model = pipeline
    sid = "two-L0-0000"
    scene_dir = tmp_path / "solo"
    scene_dir.mkdir()
    shutil.copy(data / "scenes" / f"{sid}.fmap", scene_dir / f"{sid}.fmap")
    ann = annotation_from_json((data / "annotations" / f"{sid}.json").read_text())
    keep = [rec for rec in ann.objects if rec.oid == 0]
    ann.objects = keep
    ann.order_edges = []
    (scene_dir / f"{sid}.json").write_text(annotation_to_json(ann))

    outputs = []
    for iters in (0, 2):
        out = tmp_path / f"iters{iters}"
        r = run_cli(
            "segment", "--model", model, "--scene", scene_dir / f"{sid}.fmap",
            "--iters", iters, "--out", out,
        )
        assert r.returncode == 0, r.stderr
        outputs.append(
            (
                (out / f"{sid}.json").read_bytes(),
                (out / f"{sid}.order").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == b""


def test_ablate_writes_report(pipeline):
    root, data, model = pipeline
    out = root / "ablation.txt"
    r = run_cli(
        "ablate", "--model", model, "--manifest", data / "manifest.json",
        "--out", out,
    )
    assert r.returncode == 0, r.stderr
    text = out.read_text()
    assert "modal mIoU" in text and "ordered-1" in text
    record = json.loads((root / "ablation.txt.json").read_text())
    assert {"two", "four", "unknown"} <= set(record)


def test_oracle_check_passes():
    r = run_cli("oracle-check", "--scale", "tiny", "--seed", 3)
    assert r.returncode == 0, r.stderr
    for name in (
        "pixel-competition",
        "order-votes",
        "joint-factorization",
        "normalizer-closed-form",
        "monte-carlo-mass",
        "likelihood-maps",
        "order-reassignment",
        "rescore",
    ):
        assert f"ok {name} cases=" in r.stdout


def test_errors_are_single_parsable_lines(pipeline, tmp_path):
    root, data, model = pipeline

    r = run_cli("segment", "--model", tmp_path / "absent.bin",
                "--scene", data / "scenes" / "two-L0-0000.fmap", "--out", tmp_path)
    assert r.returncode == 2
    lines = [ln for ln in r.stderr.splitlines() if ln]
    assert len(lines) == 1 and lines[0].startswith("compseg: error code=ERROR msg=")

    orphan = tmp_path / "orphan.fmap"
    shutil.copy(data / "scenes" / "two-L0-0000.fmap", orphan)
    r = run_cli("segment", "--model", model, "--scene", orphan, "--out", tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("compseg: error code=INVALID msg=")

    r = run_cli("segment", "--model", model,
                "--scene", data / "scenes" / "two-L0-0000.fmap",
                "--iters", 7, "--out", tmp_path)
    assert r.returncode == 2
    assert r.stderr.startswith("compseg: error code=USAGE msg=")

    r = run_cli("conjure")
    assert r.returncode == 2
    assert r.stderr.startswith("compseg: error code=USAGE msg=")

    r = run_cli("train", "--manifest", data / "manifest.json",
                "--classes", "dragon", "--k", 8, "--out", tmp_path / "m.bin")
    assert r.returncode == 2
    assert r.stderr.startswith("compseg: error code=INVALID msg=")

    for flag in ("--per-level", "--train-scenes", "--backgrounds"):
        r = run_cli("generate", "--out", tmp_path / "neg", flag, -1)
        assert r.returncode == 2
        lines = [ln for ln in r.stderr.splitlines() if ln]
        assert len(lines) == 1 and lines[0].startswith("compseg: error code=INVALID msg=")
        assert r.stdout == ""

    # a model header claiming K = D = 2**32 - 1 in a 14-byte file
    crafted = tmp_path / "crafted.bin"
    crafted.write_bytes(model.read_bytes()[:6] + struct.pack("<II", 2**32 - 1, 2**32 - 1))
    _assert_format_error(run_cli("ablate", "--model", crafted, "--manifest",
                                 data / "manifest.json", "--out", tmp_path / "a.txt"))

    for sigma in ("-1", "nan", "inf"):
        r = run_cli("train", "--manifest", data / "manifest.json",
                    "--sigma", sigma, "--k", 8, "--out", tmp_path / "m.bin")
        assert r.returncode == 2
        assert r.stderr == ("compseg: error code=TRAIN msg=stage=dictionary: "
                            "concentrations must be finite and >= 0\n")


def test_negative_seed_is_one_invalid_line(pipeline, tmp_path):
    root, data, model = pipeline
    runs = [
        run_cli("generate", "--out", tmp_path / "neg", "--seed", -5),
        run_cli("oracle-check", "--seed", -1),
        run_cli("train", "--manifest", data / "manifest.json", "--seed", -1,
                "--k", 8, "--out", tmp_path / "m.bin"),
    ]
    for r in runs:
        assert r.returncode == 2
        assert r.stderr.startswith("compseg: error code=INVALID msg=seed must be >= 0")
        assert len(r.stderr.splitlines()) == 1 and "Traceback" not in r.stderr
        assert r.stdout == ""
    assert not (tmp_path / "neg").exists()
    assert not (tmp_path / "m.bin").exists()


# Stand-ins for `synth.make_train_scene`: module level, because a job is
# pickled with its builder; forked workers see the patched attribute.
def _no_room(rng):
    raise ValidationError("no room")


def _worker_dies(rng):
    os._exit(1)


@pytest.mark.parametrize(
    "builder, line",
    [
        (_no_room, "compseg: error code=INVALID msg=train-0000: no room"),
        (_worker_dies, "compseg: error code=ERROR msg=a scene worker process died: "),
    ],
    ids=["no-room", "worker-dies"],
)
def test_generate_failures_are_one_line(builder, line, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(synth, "make_train_scene", builder)
    code = cli.main(["generate", "--out", str(tmp_path), "--per-level", "1",
                     "--train-scenes", "3", "--backgrounds", "2"])
    assert not multiprocessing.active_children()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


def _assert_format_error(r):
    assert r.returncode == 2
    lines = [ln for ln in r.stderr.splitlines() if ln]
    assert len(lines) == 1 and lines[0].startswith("compseg: error code=FORMAT msg=")
    assert "Traceback" not in r.stderr


def test_text_that_is_not_utf8_is_a_format_error(pipeline, tmp_path):
    root, data, model = pipeline
    bad = b"\xff\xfe" + (data / "manifest.json").read_bytes()

    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(bad)
    _assert_format_error(run_cli("train", "--manifest", manifest, "--out", tmp_path / "m.bin"))
    _assert_format_error(run_cli("ablate", "--model", model, "--manifest", manifest,
                                 "--out", tmp_path / "a.txt"))

    preds = tmp_path / "preds"
    preds.mkdir()
    sid = "two-L0-0000"
    (preds / f"{sid}.json").write_bytes(
        b"\xff\xfe" + (data / "annotations" / f"{sid}.json").read_bytes()
    )
    _assert_format_error(run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                                 "--out", tmp_path / "e.txt"))

    scene = tmp_path / "solo"
    scene.mkdir()
    shutil.copy(data / "scenes" / f"{sid}.fmap", scene / f"{sid}.fmap")
    shutil.copy(preds / f"{sid}.json", scene / f"{sid}.json")
    _assert_format_error(run_cli("segment", "--model", model, "--scene", scene / f"{sid}.fmap",
                                 "--out", tmp_path / "seg"))


def test_duplicate_scene_ids_are_a_format_error(pipeline, tmp_path):
    # one scene must not be scored from whichever of its files sorts last
    root, data, model = pipeline
    sid = "two-L1-0000"
    doc = (data / "annotations" / f"{sid}.json").read_text()
    for side in ("--pred", "--truth"):
        twice = tmp_path / side.strip("-")
        twice.mkdir()
        (twice / f"{sid}.json").write_text(doc)
        (twice / "copy.json").write_text(doc)
        dirs = {"--pred": data / "annotations", "--truth": data / "annotations", side: twice}
        r = run_cli("evaluate", "--pred", dirs["--pred"], "--truth", dirs["--truth"],
                    "--out", tmp_path / "e.txt")
        _assert_format_error(r)
        assert f"{sid!r} in copy.json and {sid}.json" in r.stderr
        assert not (tmp_path / "e.txt").exists()


def test_malformed_order_graph_is_a_format_error(pipeline, tmp_path):
    root, data, model = pipeline
    sid = "four-L1-0000"
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    a, b = doc["objects"][0]["id"], doc["objects"][1]["id"]
    preds = tmp_path / "preds"
    preds.mkdir()
    cases = (([[a, 7]], "names an object"), ([[a, b], [b, a, 9, 2, 11]], "orders a pair"))
    for edges, reason in cases:
        doc["order_edges"] = edges
        (preds / f"{sid}.json").write_text(json.dumps(doc))
        r = run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                    "--out", tmp_path / "e.txt")
        _assert_format_error(r)
        assert reason in r.stderr
        assert not (tmp_path / "e.txt").exists()


def test_annotation_field_of_another_type_is_a_format_error(pipeline, tmp_path):
    # an id of 1.7 used to be read as 1
    root, data, model = pipeline
    sid = "two-L1-0000"
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    doc["objects"][0]["id"] = doc["objects"][0]["id"] + 0.7
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{sid}.json").write_text(json.dumps(doc))
    r = run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                "--out", tmp_path / "e.txt")
    _assert_format_error(r)
    # the line names the file to fix
    assert (f"msg={preds / f'{sid}.json'}: bad annotation record: "
            "field 'id' must be int, got float") in r.stderr
    assert not (tmp_path / "e.txt").exists()


def test_annotation_shape_of_one_entry_is_a_format_error(pipeline, tmp_path):
    root, data, model = pipeline
    sid = "two-L1-0000"
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    doc["shape"] = [doc["shape"][0]]
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{sid}.json").write_text(json.dumps(doc))
    r = run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                "--out", tmp_path / "e.txt")
    _assert_format_error(r)
    assert not (tmp_path / "e.txt").exists()


def test_deeply_nested_json_is_a_format_error(pipeline, tmp_path):
    # 1,500 nested arrays: deeper than `json.loads` can recurse
    root, data, model = pipeline
    deep = "[" * 1500 + "]" * 1500
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / "two-L1-0000.json").write_text(deep)
    _assert_format_error(run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                                 "--out", tmp_path / "e.txt"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(deep)
    _assert_format_error(run_cli("train", "--manifest", manifest, "--out", tmp_path / "m.bin"))
    _assert_format_error(run_cli("ablate", "--model", model, "--manifest", manifest,
                                 "--out", tmp_path / "a.txt"))
    shutil.copy(data / "scenes" / "two-L1-0000.fmap", preds / "two-L1-0000.fmap")
    _assert_format_error(run_cli("segment", "--model", model, "--scene",
                                 preds / "two-L1-0000.fmap", "--out", tmp_path / "seg"))
    for out in ("e.txt", "m.bin", "a.txt", "seg"):
        assert not (tmp_path / out).exists()


def test_lattice_too_large_to_allocate_is_a_format_error(pipeline, tmp_path):
    # runs summing to the claimed 10**18 pixels pass the RLE's sum check
    root, data, model = pipeline
    sid = "two-L1-0000"
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    doc["shape"] = [10**9, 10**9]
    for obj in doc["objects"]:
        obj["amodal_rle"] = obj["modal_rle"] = f"0 {10**18}"
    doc["unknown_rle"] = None
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{sid}.json").write_text(json.dumps(doc))
    r = run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                "--out", tmp_path / "e.txt")
    _assert_format_error(r)
    assert "1000000000x1000000000" in r.stderr
    assert not (tmp_path / "e.txt").exists()


def test_signalling_nan_payloads_are_one_error_line(pipeline, tmp_path):
    # float32 bits of a signalling NaN; widening one used to print numpy's
    # RuntimeWarning above the error line
    snan = struct.pack("<I", 0x7F800001)
    root, data, model = pipeline
    sid = "two-L0-0000"
    scene = data / "scenes" / f"{sid}.fmap"

    raw = model.read_bytes()
    k, dim = struct.unpack("<II", raw[6:14])
    classes_at = 14 + k * (4 * dim + 8) + 8 * k
    (label_len,) = struct.unpack("<H", raw[classes_at + 4 : classes_at + 6])
    prior_at = classes_at + 4 + 2 + label_len + 4 + 8
    bad_model = tmp_path / "snan.bin"
    bad_model.write_bytes(raw[:prior_at] + snan + raw[prior_at + 4 :])
    _assert_format_error(run_cli("segment", "--model", bad_model, "--scene", scene,
                                 "--out", tmp_path / "seg"))

    solo = tmp_path / "solo"
    solo.mkdir()
    blob = scene.read_bytes()
    (solo / f"{sid}.fmap").write_bytes(blob[:18] + snan + blob[22:])
    shutil.copy(data / "annotations" / f"{sid}.json", solo / f"{sid}.json")
    r = run_cli("segment", "--model", model, "--scene", solo / f"{sid}.fmap",
                "--out", tmp_path / "seg")
    assert r.returncode == 2
    assert r.stderr.startswith(f"compseg: error code=FORMAT msg={solo / f'{sid}.fmap'}: ")
    assert r.stderr.count("\n") == 1 and "non-finite" in r.stderr
    assert not (tmp_path / "seg").exists()


def test_model_atoms_that_disagree_on_the_concentration_are_one_format_line(pipeline, tmp_path):
    root, data, model = pipeline
    raw = model.read_bytes()
    k, dim = struct.unpack("<II", raw[6:14])
    last_conc_at = 14 + k * (4 * dim + 8) - 8
    (sigma,) = struct.unpack("<d", raw[last_conc_at : last_conc_at + 8])
    bad_model = tmp_path / "sigma.bin"
    bad_model.write_bytes(raw[:last_conc_at] + struct.pack("<d", sigma / 2)
                          + raw[last_conc_at + 8 :])
    r = run_cli("segment", "--model", bad_model, "--scene",
                data / "scenes" / "two-L0-0000.fmap", "--out", tmp_path / "seg")
    _assert_format_error(r)
    assert r.stderr == (f"compseg: error code=FORMAT msg={bad_model}: "
                        "dictionary atoms disagree on the concentration\n")
    assert not (tmp_path / "seg").exists()


@pytest.mark.parametrize("value, reason", [(np.nan, "non-finite values"),
                                           (0.0, "a zero-norm vector")])
def test_segment_fmap_row_the_map_refuses_is_one_format_line(pipeline, tmp_path, value, reason):
    root, data, model = pipeline
    sid = "two-L0-0000"
    blob = (data / "scenes" / f"{sid}.fmap").read_bytes()
    (dim,) = struct.unpack("<I", blob[14:18])
    solo = tmp_path / "solo"
    solo.mkdir()
    scene = solo / f"{sid}.fmap"
    scene.write_bytes(blob[:18] + np.full(dim, value, dtype="<f4").tobytes() + blob[18 + 4 * dim:])
    shutil.copy(data / "annotations" / f"{sid}.json", solo / f"{sid}.json")
    r = run_cli("segment", "--model", model, "--scene", scene, "--out", tmp_path / "seg")
    _assert_format_error(r)
    assert r.stderr == f"compseg: error code=FORMAT msg={scene}: feature map contains {reason}\n"
    assert not (tmp_path / "seg").exists()


@pytest.mark.parametrize("box", [[5, 5, 2, 2], [-1, 0, 3, 3]])
def test_evaluate_box_that_boundingbox_refuses_is_one_format_line(pipeline, tmp_path, box):
    root, data, model = pipeline
    sid = "two-L1-0000"
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    doc["objects"][0]["box"] = box
    preds = tmp_path / "preds"
    preds.mkdir()
    bad = preds / f"{sid}.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("evaluate", "--pred", preds, "--truth", data / "annotations",
                "--out", tmp_path / "e.txt")
    _assert_format_error(r)
    assert r.stderr.startswith(f"compseg: error code=FORMAT msg={bad}: bad annotation record: box")
    assert not (tmp_path / "e.txt").exists()


def test_segment_lattice_mismatch_is_one_format_line(pipeline, tmp_path, capsys):
    """A scene whose annotation is on another lattice than its feature map is
    the same FormatError, naming the scene, that `load_scene` gives."""
    root, data, model = pipeline
    solo = tmp_path / "solo"
    solo.mkdir()
    shutil.copy(data / "scenes" / "two-L1-0000.fmap", solo / "two-L1-0000.fmap")
    shutil.copy(data / "annotations" / "four-L1-0000.json", solo / "two-L1-0000.json")
    code = cli.main(["segment", "--model", str(model), "--scene", str(solo / "two-L1-0000.fmap"),
                     "--out", str(tmp_path / "seg")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"compseg: error code=FORMAT msg=four-L1-0000: annotation lattice "
                   f"({synth.FOUR_SIZE}, {synth.FOUR_SIZE}) != feature map "
                   f"({synth.TWO_SIZE}, {synth.TWO_SIZE})\n")
    assert not (tmp_path / "seg").exists()


def test_segment_no_order_writes_the_unordered_prediction(pipeline, tmp_path):
    root, data, model = pipeline
    sid = "four-L2-0000"
    scene = data / "scenes" / f"{sid}.fmap"
    r = run_cli("segment", "--model", model, "--scene", scene, "--no-order",
                "--out", tmp_path / "seg")
    assert r.returncode == 0, r.stderr
    fm, truth = read_scene(str(scene), str(data / "annotations" / f"{sid}.json"))
    bundle = load_model(str(model))
    want = annotation_to_json(predict_scene(fm, truth, bundle, no_order=True)[0])
    assert (tmp_path / "seg" / f"{sid}.json").read_text() == want
    assert want != annotation_to_json(predict_scene(fm, truth, bundle)[0])


def test_segment_rejects_scene_ids_that_are_not_file_names(pipeline, tmp_path, capsys):
    """The scene id names the two output files, so one that is not a plain
    file name is one INVALID line, and nothing is written, in --out or
    outside it."""
    root, data, model = pipeline
    sid = "two-L1-0000"
    solo = tmp_path / "solo"
    solo.mkdir()
    shutil.copy(data / "scenes" / f"{sid}.fmap", solo / f"{sid}.fmap")
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    out = tmp_path / "out" / "preds"
    escapes = ("../escaped", str(tmp_path / "abs_escape"), "sub/dir", "", ".", "..",
               "back\\slash", "nul\0byte")
    for scene_id in escapes:
        (solo / f"{sid}.json").write_text(json.dumps(dict(doc, scene_id=scene_id)))
        before = sorted(tmp_path.rglob("*"))
        code = cli.main(["segment", "--model", str(model), "--scene", str(solo / f"{sid}.fmap"),
                         "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", scene_id
        assert captured.err.startswith("compseg: error code=INVALID msg=scene id ")
        assert captured.err.count("\n") == 1, scene_id
        assert sorted(tmp_path.rglob("*")) == before, scene_id
    assert not (tmp_path / "abs_escape.json").exists()


def _ok_or_one_error_line(capsys, *args):
    """Run `compseg args` in-process: it exits 0 with nothing on stderr, or
    2 with exactly one error line."""
    code = cli.main([str(a) for a in args])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and re.fullmatch(r"compseg: error code=[A-Z]+ msg=.+", lines[0])


@pytest.mark.parametrize(
    "doc, shape",
    [
        (dict(shape=[-2, -3], objects=[], order_edges=[], unknown_rle=None), "-2x-3"),
        (dict(shape=[2**32, 2**32], unknown_rle=None), "4294967296x4294967296"),
    ],
    ids=["negative-sides", "past-intp"],
)
def test_bad_annotation_shape_is_one_format_line(pipeline, tmp_path, capsys, doc, shape):
    root, data, model = pipeline
    sid = "two-L1-0000"
    pred = json.loads((data / "annotations" / f"{sid}.json").read_text())
    pred.update(doc)
    for obj in pred["objects"]:
        obj["amodal_rle"] = obj["modal_rle"] = f"0 {2**64}"
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{sid}.json").write_text(json.dumps(pred))
    code = cli.main(["evaluate", "--pred", str(preds), "--truth", str(data / "annotations"),
                     "--out", str(tmp_path / "e.txt")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("compseg: error code=FORMAT msg=") and err.count("\n") == 1
    assert f"lattice {shape}" in err
    assert not (tmp_path / "e.txt").exists()


@pytest.mark.parametrize(
    "shape", [[1000000000, 1000000000], [0, 1180591620717411303424]], ids=["huge", "zero-side"]
)
def test_prediction_on_another_lattice_is_one_invalid_line(pipeline, tmp_path, capsys, shape):
    """A prediction is scored only on its truth's lattice, even one with no
    object whose masks would meet the truth's."""
    root, data, model = pipeline
    sid = "two-L1-0000"
    pred = json.loads((data / "annotations" / f"{sid}.json").read_text())
    pred.update(shape=shape, objects=[], order_edges=[], unknown_rle=None)
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{sid}.json").write_text(json.dumps(pred))
    code = cli.main(["evaluate", "--pred", str(preds), "--truth", str(data / "annotations"),
                     "--out", str(tmp_path / "e.txt")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"compseg: error code=INVALID msg={sid}: prediction lattice "
                   f"{shape[0]}x{shape[1]} != truth lattice {synth.TWO_SIZE}x{synth.TWO_SIZE}\n")
    assert not (tmp_path / "e.txt").exists()


def test_mask_pixel_outside_its_box_is_one_format_line(pipeline, tmp_path, capsys):
    """A record's masks never leave its box; a file whose mask does is refused
    on load, not scored."""
    root, data, model = pipeline
    sid = "four-L2-0000"
    pred = json.loads((data / "annotations" / f"{sid}.json").read_text())
    obj = pred["objects"][0]
    x0, y0, x1, y1 = obj["box"]
    modal = decode_rle(obj["modal_rle"], tuple(pred["shape"]))
    assert (x0, y0) != (0, 0)
    modal[0, 0] = True
    obj["modal_rle"] = encode_rle(modal)
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{sid}.json").write_text(json.dumps(pred))
    code = cli.main(["evaluate", "--pred", str(preds), "--truth", str(data / "annotations"),
                     "--out", str(tmp_path / "e.txt")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"compseg: error code=FORMAT msg={preds / f'{sid}.json'}: object {obj['id']}: "
                   f"modal mask has a pixel outside box {[x0, y0, x1, y1]}\n")
    assert not (tmp_path / "e.txt").exists()


# Each command below runs on seeded mutants made by the reader fuzzers'
# mutators: a bad input ends in one error line, whatever reader it reaches.
# With these seeds each command also gets mutants that it runs to the end.


@pytest.mark.filterwarnings("error")
def test_segment_survives_mutated_inputs(pipeline, tmp_path, capsys):
    root, data, model = pipeline
    rng = np.random.default_rng(53)
    sid = "four-L2-0000"
    scene = data / "scenes" / f"{sid}.fmap"
    blob = model.read_bytes()
    fields, floats = _model_layout(load_model(str(model)), len(blob))
    bad_model = tmp_path / "model.bin"
    for mutant in _model_mutations(blob, fields, floats, rng, 12):
        bad_model.write_bytes(mutant)
        _ok_or_one_error_line(capsys, "segment", "--model", bad_model, "--scene", scene,
                              "--out", tmp_path / "seg")

    solo = tmp_path / "solo"
    solo.mkdir()
    doc = (data / "annotations" / f"{sid}.json").read_text()
    (solo / f"{sid}.json").write_text(doc)
    for mutant in _fmap_mutations(scene.read_bytes(), rng, 12):
        (solo / f"{sid}.fmap").write_bytes(mutant)
        _ok_or_one_error_line(capsys, "segment", "--model", model, "--scene",
                              solo / f"{sid}.fmap", "--out", tmp_path / "seg")
    shutil.copy(scene, solo / f"{sid}.fmap")
    for mutant in _json_mutations(json.loads(doc), rng, 12):
        (solo / f"{sid}.json").write_text(mutant)
        _ok_or_one_error_line(capsys, "segment", "--model", model, "--scene",
                              solo / f"{sid}.fmap", "--out", tmp_path / "seg")


@pytest.mark.filterwarnings("error")
def test_evaluate_survives_mutated_annotations(pipeline, tmp_path, capsys):
    root, data, model = pipeline
    rng = np.random.default_rng(59)
    sid = "four-L2-0000"
    preds = tmp_path / "preds"
    preds.mkdir()
    doc = json.loads((data / "annotations" / f"{sid}.json").read_text())
    for mutant in _json_mutations(doc, rng, 24):
        (preds / f"{sid}.json").write_text(mutant)
        _ok_or_one_error_line(capsys, "evaluate", "--pred", preds, "--truth",
                              data / "annotations", "--out", tmp_path / "e.txt")


@pytest.mark.filterwarnings("error")
def test_train_and_ablate_survive_mutated_manifests(pipeline, tmp_path, capsys):
    # the mutants sit next to the manifest, whose paths are relative to it
    root, data, model = pipeline
    rng = np.random.default_rng(61)
    doc = json.loads((data / "manifest.json").read_text())
    path = data / "mutant-manifest.json"
    try:
        for mutant in _json_mutations(doc, rng, 12):
            path.write_text(mutant)
            _ok_or_one_error_line(capsys, "train", "--manifest", path, "--k", 8,
                                  "--out", tmp_path / "m.bin")
            _ok_or_one_error_line(capsys, "ablate", "--model", model, "--manifest", path,
                                  "--out", tmp_path / "a.txt")
    finally:
        path.unlink(missing_ok=True)

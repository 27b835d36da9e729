import json
import re
import shutil
import struct
import subprocess
import sys

import pytest

from compseg.formats import annotation_from_json, annotation_to_json


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "compseg", *map(str, args)],
        capture_output=True,
        text=True,
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
    assert open(model, "rb").read() == open(again, "rb").read()


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

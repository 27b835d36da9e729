"""Fast self-test of the benchmark on the unit suite's TINY challenge.

    python -m pytest -q perfbench

Runs both workloads untraced and traced with a K=32 model, in seconds, and
checks what the full benchmark relies on: every metric named in
BENCHMARK.json is reported and finite, the traced run predicts exactly what
the untraced run does, and the entry point refuses to run without sources.
"""
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"))
                if p not in sys.path]

import harness  # noqa: E402
import layers  # noqa: E402
from compseg import _kernels, orm  # noqa: E402
from compseg.learning import TrainConfig  # noqa: E402
from spans import Tracer  # noqa: E402
from conftest import TINY  # noqa: E402

TRAIN = TrainConfig(k=32, m=2, seed=0)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = {}
    for workload in harness.WORKLOADS:
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{workload}-{int(trace)}")
            out[workload, trace] = harness.run(
                workload, TINY.seed, 0.0, trace, str(work), cfg=TINY, train_cfg=TRAIN
            )
    return out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(harness.WORKLOADS)


def test_every_named_metric_is_present_and_finite(results):
    spec = _spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for (workload, trace), result in results.items():
        want = per_layer if trace else end_to_end
        got = {name: unit for name, (_, unit) in result.metrics.items()}
        assert got == want, (workload, trace)
        for name, (value, _) in result.metrics.items():
            assert math.isfinite(value), (workload, trace, name)
        assert result.correct and result.failed == 0
        assert result.attempted >= 4 * TINY.per_level * 4


def test_traced_run_predicts_what_untraced_run_does(results):
    for workload in harness.WORKLOADS:
        plain = results[workload, False].record
        traced = results[workload, True].record
        assert plain["model_digest"] == traced["model_digest"]
        assert plain["predictions_digest"] == traced["predictions_digest"]
    assert results["two", True].metrics["trace.overhead"][0] > 0


def test_trace_survives_without_the_optional_names(monkeypatch):
    """A kernel engine or ORM without these names still gets per-layer figures."""
    for module, attr in ((orm, "likelihood_maps"), (_kernels, "mixture_loglik"),
                         (_kernels, "shared_mixture_loglik")):
        monkeypatch.delattr(module, attr)
    setup, inference = Tracer(), Tracer()
    with inference:
        layers.patch_inference(inference)
    for name in (layers.FIT, "learning.train"):
        with setup.span(name) as span:
            span.counts = {"iterations": 3, "max_iter": 3} if name == layers.FIT else {}
    with inference.span("metrics.predict_scene"):
        with inference.span(layers.MAPS) as span:
            span.counts = {"positions": 9}
        with inference.span("orm.orm_pass") as span:
            span.counts = {"pairs": 1}
    got = layers.layer_metrics(setup, inference, passes=1, overhead=1.0,
                               bytes_written=1, model_bytes=1)
    assert {m["name"] for m in _spec()["per_layer"]} == set(got)
    assert got["kernels.evals_per_scene"][0] == 0
    assert got["models.likelihood_maps.recompute_per_scene"][0] == 0
    assert got["models.likelihood_maps.positions_per_scene"][0] == 9


def test_result_line_has_the_contract_keys(results):
    line = json.loads(harness.result_line(results["two", False]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]["setup_s"]) == {"value", "unit"}


def test_entry_point_fails_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    with open(os.path.join(HERE, "run.py"), encoding="utf-8") as fh:
        (bare / "perfbench" / "run.py").write_text(fh.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

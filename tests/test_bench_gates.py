"""The benchmark's correctness gates, run inside the unit suite.

`perfbench/test_perfbench.py` lies outside the suite's test paths, so a
change that makes the benchmark's sweep disagree with `run_ablation` (a new
`AblationReport` field that `run_ablation` fills is enough, as the gate
compares `repr`) would fail only when the benchmark runs. These tests import
the benchmark's harness and call its two gates; they change nothing in it.
"""
import pathlib
import sys

import pytest

from compseg.formats import load_scene

PERFBENCH = str(pathlib.Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import harness  # noqa: E402


def test_oracle_gate_passes():
    harness.oracle_gate(0)


@pytest.mark.parametrize("scenario", ["two", "four", "unknown"])
def test_sweep_tabulates_what_run_ablation_does(tiny_challenge, tiny_bundle, scenario):
    pairs = [
        load_scene(tiny_challenge, e)
        for e in tiny_challenge.select(split="test", scenario=scenario)
    ]
    harness.ablation_gate(harness.sweep_order(pairs), tiny_bundle)

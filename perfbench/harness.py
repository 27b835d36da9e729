"""The compseg benchmark: set-up, timed sweeps, correctness gates and records.

A run is a closed loop in one process: one scene at a time, each call to
`predict_scene` waiting for the previous one. Set-up generates the planted
challenge from the workload seed, loads it, trains the model and round-trips
it through `save_model`/`load_model`, so the timed model is byte for byte the
one the CLI would load. What is timed are scene passes of a sweep, the
benchmark's own replica of `run_ablation`: every test scene once under each
of `metrics.VARIANTS`.

Workloads (see README.md for the reasoning and the layer-to-metric map):

  two   two-object scenes, 25 per occlusion level (100 scenes, 44x44)
  four  four-object depth chains, 25 per level (100 scenes, 56x56)
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from compseg import _kernels, formats, learning, metrics, oracle, synth
from compseg.formats import ModelBundle, SceneAnnotation, annotation_to_json
from compseg.learning import TrainConfig
from compseg.synth import ChallengeConfig

import layers
from spans import Tracer

WORKLOADS = ("two", "four")
PER_LEVEL = 25
# Set-ups per untraced run; setup_s and train_s are their medians.
SETUPS = 2
# The "tiny" scale of `compseg oracle-check` for the two gated suites.
ORACLE_MAP_CASES = 20
ORACLE_COMPETITION_CASES = 200
# Variant whose predictions give the quality metrics, and the variants whose
# per-call latency is reported, keyed by their reasoning iteration count.
QUALITY_VARIANT = "ordered-1"
LATENCY_VARIANTS = {"iters0": "independent", "iters1": "ordered-1", "iters2": "ordered-2"}


class BenchmarkFailure(Exception):
    """A correctness gate or digest check failed; no figure may be posted."""


def challenge_config(seed: int) -> ChallengeConfig:
    """The desk training split plus 25 test scenes per level, from `seed`."""
    return ChallengeConfig(per_level=PER_LEVEL, seed=seed)


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Prepared:
    pairs: list                # test (FeatureMap, SceneAnnotation), manifest order
    bundle: ModelBundle        # as loaded back from the saved model file
    model_digest: str
    dict_objective: float
    setup_s: float
    train_s: float
    bytes_written: int
    model_bytes: int


def set_up(
    work_dir: str, scenario: str, cfg: ChallengeConfig, train_cfg: TrainConfig
) -> Prepared:
    """Generate, load, train and round-trip the model; time the whole of it."""
    root = tempfile.mkdtemp(prefix="setup-", dir=work_dir)
    try:
        start = time.perf_counter()
        manifest = synth.generate_challenge(root, cfg, scenarios=(scenario,))
        train_pairs = [
            formats.load_scene(manifest, e) for e in manifest.select(split="train")
        ]
        backgrounds = [
            formats.load_scene(manifest, e)[0]
            for e in manifest.select(scenario="background")
        ]
        pairs = [
            formats.load_scene(manifest, e)
            for e in manifest.select(split="test", scenario=scenario)
        ]
        train_start = time.perf_counter()
        trained, report = learning.train(train_pairs, backgrounds, train_cfg)
        train_s = time.perf_counter() - train_start
        model_path = os.path.join(root, "model.cnmo")
        formats.save_model(trained, model_path)
        bundle = formats.load_model(model_path)
        setup_s = time.perf_counter() - start

        with open(model_path, "rb") as fh:
            blob = fh.read()
        bytes_written = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
        ) - len(blob)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return Prepared(
        pairs=pairs,
        bundle=bundle,
        model_digest=hashlib.sha256(blob).hexdigest(),
        dict_objective=report.dictionary_objective[-1],
        setup_s=setup_s,
        train_s=train_s,
        bytes_written=bytes_written,
        model_bytes=len(blob),
    )


# ---------------------------------------------------------------------------
# the sweep


def sweep_order(pairs) -> list:
    """Scenes taken round-robin across occlusion levels.

    Any prefix of a sweep then holds every level in equal share, so the
    passes of a sweep cut short by the clock are not biased toward one level.
    """
    by_level: dict[str, list] = {}
    for pair in pairs:
        by_level.setdefault(pair[1].scene_id.split("-")[1], []).append(pair)
    rounds = itertools.zip_longest(*by_level.values())
    return [pair for group in rounds for pair in group if pair is not None]


class Passes:
    """Timed scene passes in sweep order, continued across set-ups.

    One pass is one `predict_scene` call: a scene under one variant. A sweep
    is every scene under every variant, the variants of a scene back to back
    so that load from outside the process lands on all of them alike. Passes
    cycle through the sweep; the first sweep's predictions are kept, and every
    later pass must predict exactly what the first sweep did for the same
    scene and variant. A pass that raises is counted as failed and left out.
    """

    def __init__(self, scenes: int, tracer: Tracer | None = None) -> None:
        self.per_sweep = scenes * len(metrics.VARIANTS)
        self.tracer = tracer
        self.done = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latency_s: dict[str, list[float]] = {name: [] for name, _ in metrics.VARIANTS}
        self.predictions: dict[str, list[SceneAnnotation]] = {
            name: [] for name, _ in metrics.VARIANTS
        }
        self._first: list[str] = []

    def step(self, pairs, bundle: ModelBundle) -> None:
        index = self.done % self.per_sweep
        scene, variant = divmod(index, len(metrics.VARIANTS))
        fm, truth = pairs[scene]
        name, kwargs = metrics.VARIANTS[variant]
        if self.tracer is not None:
            self.tracer.scene = truth.scene_id
        self.done += 1
        t0 = time.perf_counter()
        try:
            ann, _ = metrics.predict_scene(fm, truth, bundle, **kwargs)
        except Exception:  # a failed pass is a result to count, not a crash
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            ann = None
        elapsed = time.perf_counter() - t0
        text = "" if ann is None else annotation_to_json(ann)
        if len(self._first) < self.per_sweep:
            self._first.append(text)
            if ann is not None:
                self.predictions[name].append(ann)
        elif text != self._first[index]:
            raise BenchmarkFailure(f"{truth.scene_id} {name}: a repeat predicted differently")
        if ann is not None:
            self.latency_s[name].append(elapsed)
            self.busy_s += elapsed

    def run_for(self, pairs, bundle: ModelBundle, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.step(pairs, bundle)

    def finish_first_sweep(self, pairs, bundle: ModelBundle) -> None:
        while self.done < self.per_sweep:
            self.step(pairs, bundle)

    def digest(self) -> str:
        """SHA-256 over the first sweep's predicted annotations, in order."""
        return hashlib.sha256("".join(self._first).encode()).hexdigest()


def sweep(pairs, bundle: ModelBundle, tracer: Tracer | None = None) -> Passes:
    """Exactly one sweep over `pairs`."""
    passes = Passes(len(pairs), tracer)
    passes.finish_first_sweep(pairs, bundle)
    return passes


def ablation_report(sw: Passes, truths) -> metrics.AblationReport:
    """The tables `run_ablation` would build from the sweep's predictions."""
    modal, amodal, order = {}, {}, {}
    for name, kwargs in metrics.VARIANTS:
        predicted = sw.predictions[name]
        modal[name] = metrics.miou_by_level(predicted, truths, "modal")
        amodal[name] = metrics.miou_by_level(predicted, truths, "amodal")
        if kwargs.get("iters", 1) == 0:
            order[name] = float("nan")
        else:
            order[name] = metrics.dataset_order_accuracy(zip(predicted, truths))
    return metrics.AblationReport(modal=modal, amodal=amodal, order=order)


def class_accuracy(predicted, truths) -> float:
    """Share of ground-truth objects whose predicted class label is right."""
    by_scene = {ann.scene_id: {o.oid: o.label for o in ann.objects} for ann in predicted}
    hit = total = 0
    for truth in truths:
        labels = by_scene.get(truth.scene_id, {})
        for obj in truth.objects:
            total += 1
            hit += labels.get(obj.oid) == obj.label
    return hit / total


def quality(sw: Passes, truths) -> dict[str, float]:
    predicted = sw.predictions[QUALITY_VARIANT]
    by_id = {t.scene_id: t for t in truths}
    pairs = [(p, by_id[p.scene_id]) for p in predicted]
    return {
        "modal_miou": metrics.miou_by_level(predicted, truths, "modal").mean,
        "amodal_miou": metrics.miou_by_level(predicted, truths, "amodal").mean,
        "order_acc": metrics.dataset_order_accuracy(pairs),
        "graph_acc": metrics.full_graph_accuracy(pairs),
        "class_acc": class_accuracy(predicted, truths),
    }


# ---------------------------------------------------------------------------
# gates


def oracle_gate(seed: int) -> None:
    """Brute-force checks of the maps and of pixel competition, before timing."""
    suites = (
        ("likelihood-maps", oracle.check_likelihood_maps, ORACLE_MAP_CASES),
        ("pixel-competition", oracle.check_pixel_competition, ORACLE_COMPETITION_CASES),
    )
    for index, (name, check, cases) in enumerate(suites):
        mismatches, total = check(np.random.default_rng([seed, index]), cases)
        if mismatches:
            raise BenchmarkFailure(f"oracle {name}: {mismatches} of {total} mismatch")


def ablation_gate(pairs, bundle: ModelBundle) -> None:
    """The sweep must tabulate exactly what `run_ablation` does.

    Checked on the first scene of each level: `pairs` is in sweep order.
    """
    subset = pairs[: len(synth.LEVELS)]
    want = metrics.run_ablation(subset, bundle)
    got = ablation_report(sweep(subset, bundle), [t for _, t in subset])
    # repr spells every float exactly and treats the NaN of empty buckets
    # as equal to itself, which == on the tables does not.
    if repr(got) != repr(want):
        raise BenchmarkFailure("sweep tables differ from run_ablation on the check subset")


# ---------------------------------------------------------------------------
# one run


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    record: dict = field(default_factory=dict)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    cfg: ChallengeConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> RunResult:
    """One benchmark run; raises BenchmarkFailure when a check fails.

    Untraced, it sets up `SETUPS` times; after each set-up it takes timed
    passes for an equal share of `seconds`, so the samples span the whole
    run, and it completes at least one sweep. It reports the end-to-end
    metrics. Traced, it sets up once under the tracer, takes the same timed
    passes, then one traced sweep, and reports the per-layer metrics.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = cfg or challenge_config(seed)
    train_cfg = train_cfg or TrainConfig()
    oracle_gate(seed)

    rounds = 1 if trace else SETUPS
    setup_times, train_times, model_digests = [], [], set()
    setup_tracer = Tracer()
    passes = None
    for _ in range(rounds):
        with setup_tracer:
            if trace:
                layers.patch_setup(setup_tracer)
            prepared = set_up(work_dir, workload, cfg, train_cfg)
        setup_times.append(prepared.setup_s)
        train_times.append(prepared.train_s)
        model_digests.add(prepared.model_digest)
        if len(model_digests) != 1:
            raise BenchmarkFailure("set-ups from one seed saved different models")
        pairs, bundle = sweep_order(prepared.pairs), prepared.bundle
        if passes is None:
            ablation_gate(pairs, bundle)
            passes = Passes(len(pairs))
        passes.run_for(pairs, bundle, seconds / rounds)
    passes.finish_first_sweep(pairs, bundle)
    truths = [t for _, t in pairs]

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        # A kernel layer without an engine switch is the numpy path.
        "engine": getattr(_kernels, "engine", lambda: "numpy")(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "scenes": len(pairs),
        "setups": rounds,
        "passes": passes.done,
        "model_digest": prepared.model_digest,
        "predictions_digest": passes.digest(),
        "latency_samples": {
            key: len(passes.latency_s[variant]) for key, variant in LATENCY_VARIANTS.items()
        },
    }

    if trace:
        sweep_tracer = Tracer()
        with sweep_tracer:
            layers.patch_inference(sweep_tracer)
            traced = sweep(pairs, bundle, sweep_tracer)
            with sweep_tracer.span("metrics.score"):
                quality(traced, truths)
        if traced.digest() != passes.digest():
            raise BenchmarkFailure("the traced sweep predicted differently")
        attempted = passes.done + traced.done
        failed = passes.failed + traced.failed
        values = layers.layer_metrics(
            setup_tracer,
            sweep_tracer,
            passes=traced.done,
            overhead=(traced.busy_s / traced.done) / (passes.busy_s / passes.done),
            bytes_written=prepared.bytes_written,
            model_bytes=prepared.model_bytes,
        )
    else:
        attempted, failed = passes.done, passes.failed
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_s": (statistics.median(train_times), "s"),
            "dict_objective": (prepared.dict_objective, "cos"),
            "scene_passes_per_s": (passes.done / passes.busy_s, "1/s"),
        }
        for key, variant in LATENCY_VARIANTS.items():
            samples = passes.latency_s[variant]
            values[f"scene_ms.{key}.p50"] = (1e3 * float(np.percentile(samples, 50)), "ms")
            if key == "iters1":
                values[f"scene_ms.{key}.p90"] = (1e3 * float(np.percentile(samples, 90)), "ms")
        for name, value in quality(passes, truths).items():
            values[name] = (value, "%" if name.endswith("miou") else "ratio")
        values["peak_rss_mb"] = (peak_rss_mb(), "MB")
    record["fail_rate"] = failed / attempted
    return RunResult(failed == 0, attempted, failed, values, record)


def result_line(result: RunResult) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
        }
    )

"""Shipping gate: the ten acceptance checks at the full desk scale.

Each criterion is one test; the pytest -v report line is its pass/fail
line. The module builds the complete challenge (300 test scenes per
scenario, 300 training scenes), trains the shipping-size model, and runs
every reasoning variant over every test scene, so expect a few minutes.
"""
import time

import numpy as np
import pytest

from compseg import orm
from compseg.fmap import crop, place
from compseg.formats import annotation_to_json, load_scene
from compseg.learning import TrainConfig, train
from compseg.metrics import (
    VARIANTS,
    _variant_results,
    dataset_order_accuracy,
    format_ablation_report,
    full_graph_accuracy,
    predict_scene,
    tabulate,
    unknown_outlier_stats,
)
from compseg.models import SIMPLEX_TOL, classify
from compseg.oracle import (
    check_joint_factorization,
    check_monte_carlo_mass,
    check_normalizer_closed_form,
    check_order_votes,
    check_pixel_competition,
)
from compseg.orm import OWNER_OUTSIDE
from compseg.synth import SCENARIOS, ChallengeConfig, generate_challenge

DESK = ChallengeConfig()          # 75 scenes per level, 300 train, seed 7
TRAIN = TrainConfig()             # K=64, M=2, shared concentration 30


@pytest.fixture(scope="module")
def desk_challenge(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk-challenge")
    t0 = time.perf_counter()
    manifest = generate_challenge(str(root), DESK)
    print(f"challenge: {len(manifest.entries)} scenes in {time.perf_counter() - t0:.1f}s")
    return manifest


@pytest.fixture(scope="module")
def desk_train_pairs(desk_challenge):
    return [load_scene(desk_challenge, e) for e in desk_challenge.select(split="train")]


@pytest.fixture(scope="module")
def desk_bundle(desk_challenge, desk_train_pairs):
    backgrounds = [
        load_scene(desk_challenge, e)[0]
        for e in desk_challenge.select(scenario="background")
    ]
    t0 = time.perf_counter()
    bundle, report = train(desk_train_pairs, backgrounds, TRAIN)
    print(f"training: {time.perf_counter() - t0:.1f}s, "
          f"final objective {report.dictionary_objective[-1]:.4f}")
    return bundle


@pytest.fixture(scope="module")
def predictions(desk_challenge, desk_bundle):
    """scenario -> variant -> list of (predicted, truth, result-or-None).

    Every variant of a scene comes from one feed-forward and one first
    pass shared by its chains, as in `run_ablation`. Scene results
    (ownership grids) are kept for the shipping variant only; the tables
    need just the annotations.
    """
    ran = {"feed_forward": 0, "orm_pass": 0}

    def counted(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            ran[name] += 1
            return real(*args, **kwargs)

        return call

    out = {}
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orm, "feed_forward", counted(orm, "feed_forward"))
        mp.setattr(orm, "orm_pass", counted(orm, "orm_pass"))
        for scenario in SCENARIOS:
            out[scenario] = {name: [] for name, _ in VARIANTS}
            for entry in desk_challenge.select(split="test", scenario=scenario):
                fm, truth = load_scene(desk_challenge, entry)
                variants = _variant_results(fm, truth, desk_bundle)
                for (name, _), (ann, result) in zip(VARIANTS, variants, strict=True):
                    keep = result if name == "ordered-1" else None
                    out[scenario][name].append((ann, truth, keep))
    scenes = sum(len(by_variant["ordered-1"]) for by_variant in out.values())
    print(f"inference: {len(VARIANTS)} variants of {scenes} scenes from "
          f"{ran['feed_forward']} feed-forwards and {ran['orm_pass']} reasoning passes "
          f"in {time.perf_counter() - t0:.1f}s")
    return out


@pytest.fixture(scope="module")
def tables(predictions):
    reports = {}
    for scenario, by_variant in predictions.items():
        predicted = [[p for p, _, _ in by_variant[name]] for name, _ in VARIANTS]
        truths = [t for _, t, _ in by_variant["ordered-1"]]
        reports[scenario] = tabulate(predicted, truths, scenario=scenario)
    return reports


def test_criterion_01_pixel_competition_matches_bruteforce():
    rng = np.random.default_rng([13, 1])
    t0 = time.perf_counter()
    mismatches, pixels = check_pixel_competition(rng, 1000)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: {mismatches} mismatches over {pixels} pixels "
          f"in {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_order_recovery_matches_vote_count():
    rng = np.random.default_rng([13, 2])
    mismatches, cases = check_order_votes(rng, 1000)
    print(f"criterion 2: {mismatches} mismatches over {cases} conflict sets")
    assert mismatches == 0
    assert cases == 1000


def test_criterion_03_joint_map_factorizes_per_pixel():
    rng = np.random.default_rng([13, 3])
    mismatches, cases = check_joint_factorization(rng, 400)
    print(f"criterion 3: {mismatches} mismatches over {cases} enumerated tables")
    assert mismatches == 0


def test_criterion_04_normalizer_closed_form_and_mass():
    bad_closed, points = check_normalizer_closed_form(200)
    rng = np.random.default_rng([13, 4])
    bad_mass, cells = check_monte_carlo_mass(
        rng, dims=(3, 8, 16), samples=100_000, tolerance=0.02
    )
    print(f"criterion 4: closed form {bad_closed}/{points} off, "
          f"unit mass {bad_mass}/{cells} off")
    assert bad_closed == 0
    assert bad_mass == 0


def test_criterion_05_planted_model_recovery(desk_bundle, desk_train_pairs):
    bundle = desk_bundle
    hits = total = 0
    by_label = {label: [] for label in bundle.labels}
    for fm, ann in desk_train_pairs:
        for rec in ann.objects:
            patch = crop(fm, rec.box)
            res = classify(patch, bundle.classes, bundle.dictionary, bundle.occluder)
            total += 1
            if bundle.classes[res.class_index].label == rec.label:
                hits += 1
                by_label[rec.label].append((rec.template, res.mixture_index))
    class_acc = hits / total

    agree = n = 0
    for label, pairs in by_label.items():
        same = sum(1 for planted, got in pairs if got == planted)
        swapped = sum(1 for planted, got in pairs if got == 1 - planted)
        agree += max(same, swapped)
        n += len(pairs)
    mixture_acc = agree / n
    print(f"criterion 5: class accuracy {class_acc:.4f} ({total} crops), "
          f"mixture agreement {mixture_acc:.4f}")
    assert class_acc >= 0.95
    assert mixture_acc >= 0.95


def _scenes_with_blind_edge(truths):
    """Scenes with a true edge that has no visible pixel in its pair's amodal overlap.

    A third object in front hides the whole overlap, so no rule that reads
    pixel evidence can recover that edge.
    """
    blind = 0
    for truth in truths:
        by_oid = {rec.oid: rec for rec in truth.objects}

        def on_lattice(oid, mask):
            return place(getattr(by_oid[oid], mask), by_oid[oid].box, truth.shape)

        for front, back, *_ in truth.order_edges:
            overlap = on_lattice(front, "amodal") & on_lattice(back, "amodal")
            if not (overlap & (on_lattice(front, "modal") | on_lattice(back, "modal"))).any():
                blind += 1
                break
    return blind


def test_criterion_06_order_graph_accuracy(predictions):
    two = [(p, t) for p, t, _ in predictions["two"]["ordered-1"]]
    four = [(p, t) for p, t, _ in predictions["four"]["ordered-1"]]
    edge_acc = dataset_order_accuracy(two)
    graph_acc = full_graph_accuracy(four)
    blind = _scenes_with_blind_edge(t for _, t in four)
    ceiling = (len(four) - blind) / len(four)
    summary = (f"criterion 6: two-object edge accuracy {edge_acc:.4f} "
               f"({len(two)} scenes), four-object full graph {graph_acc:.4f} "
               f"({len(four)} scenes); {blind} four-object scenes have a true "
               f"edge with no visible pixel in its pair's amodal overlap, a "
               f"pixel-evidence ceiling of {ceiling:.4f}")
    print(summary)
    assert edge_acc >= 0.95, summary
    assert graph_acc >= 0.90, summary


def test_criterion_07_reasoning_beats_baseline(tables):
    modal = tables["two"].modal
    base, one, two_pass = modal["independent"], modal["ordered-1"], modal["ordered-2"]
    gain2 = one.rows["L2"] - base.rows["L2"]
    gain3 = one.rows["L3"] - base.rows["L3"]
    print(f"criterion 7: L2 {base.rows['L2']:.2f} -> {one.rows['L2']:.2f} (+{gain2:.2f}), "
          f"L3 {base.rows['L3']:.2f} -> {one.rows['L3']:.2f} (+{gain3:.2f}), "
          f"second pass mean {two_pass.mean:.2f} vs {one.mean:.2f}")
    assert gain2 >= 3.0
    assert gain3 >= 5.0
    assert two_pass.mean >= one.mean - 0.5


def test_criterion_08_ordering_never_hurts(tables, tmp_path):
    # every scenario is checked before the test fails, so one failing
    # scenario cannot hide another
    blocks, lines, failing = [], [], []
    for scenario in SCENARIOS:
        report = tables[scenario]
        blocks.append(format_ablation_report(report))
        ordered = report.modal["ordered-1"].mean
        free = report.modal["no-order"].mean
        line = (f"criterion 8: {scenario} modal mean ordered {ordered:.2f} "
                f"vs no-order {free:.2f}")
        print(line)
        lines.append(line)
        if not ordered >= free - 1e-9:
            failing.append(scenario)
    assert not failing, f"ordering hurts on {failing}: " + "; ".join(lines)
    text = ("\n" + "=" * 64 + "\n").join(blocks)
    (tmp_path / "ablation_report.txt").write_text(text + "\n")
    print(text)
    assert "ordered-1" in text and "no-order" in text


def test_criterion_09_structural_invariants(predictions, desk_bundle, desk_challenge):
    for cls in desk_bundle.classes:
        for mix in cls.mixtures:
            for rows in (mix.fg_coeffs, mix.ctx_coeffs):
                flat = rows.reshape(-1, rows.shape[-1])
                assert np.all(np.abs(flat.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    assert abs(desk_bundle.occluder.coeffs.sum() - 1.0) <= SIMPLEX_TOL

    checked = 0
    for scenario in SCENARIOS:
        for pred, truth, result in predictions[scenario]["ordered-1"]:
            owners = result.owners
            n = len(result.objects)
            assert owners.min() >= OWNER_OUTSIDE and owners.max() <= n
            covered = np.zeros(truth.shape, dtype=np.bool_)
            for rec in truth.objects:
                covered[rec.box.slices] = True
            assert np.array_equal(owners != OWNER_OUTSIDE, covered)
            stack = np.zeros(truth.shape, dtype=np.int64)
            for idx in range(n):
                box = result.objects[idx].box
                amodal, modal = (place(m, box, truth.shape) for m in result.masks(idx))
                assert not (modal & ~amodal).any()
                assert not (modal & (owners != idx)).any()
                stack += modal
            assert stack.max() <= 1
            checked += 1

    reruns = []
    for scenario in SCENARIOS:
        entry = desk_challenge.select(split="test", scenario=scenario)[0]
        fm, truth = load_scene(desk_challenge, entry)
        a_ann, a_res = predict_scene(fm, truth, desk_bundle, iters=1)
        b_ann, b_res = predict_scene(fm, truth, desk_bundle, iters=1)
        assert annotation_to_json(a_ann) == annotation_to_json(b_ann)
        assert np.array_equal(a_res.owners, b_res.owners)
        reruns.append(entry.scene_id)
    print(f"criterion 9: invariants on {checked} scenes, "
          f"byte-identical reruns on {reruns}")


def test_criterion_10_unknown_matter_contained(predictions, tables):
    hit = total = 0
    for pred, truth, result in predictions["unknown"]["ordered-1"]:
        h, t = unknown_outlier_stats(result.owners, truth, len(result.objects))
        hit += h
        total += t
    fraction = hit / total
    known_two = tables["two"].modal["ordered-1"].mean
    known_unknown = tables["unknown"].modal["ordered-1"].mean
    drop = known_two - known_unknown
    print(f"criterion 10: outlier owns {fraction:.4f} of {total} contested "
          f"unknown pixels; modal mean {known_unknown:.2f} vs {known_two:.2f} "
          f"(drop {drop:.2f})")
    assert fraction >= 0.90
    assert drop <= 5.0

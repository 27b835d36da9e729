"""Command-line entry points.

Subcommands cover the whole pipeline: generate a planted challenge, train a
model bundle, segment scenes, score predictions, compare reasoning variants,
and run the brute-force equivalence suites. Every failure surfaces as one
machine-parsable stderr line ``compseg: error code=... msg=...`` with a
nonzero exit, and all randomness flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import oracle
from .errors import CompsegError, FormatError, ValidationError
from .formats import (
    SceneAnnotation,
    annotation_to_json,
    atomic_write_text,
    json_text,
    load_manifest,
    load_model,
    load_scene,
    order_graph_lines,
    read_annotation,
    read_scene,
    save_model,
)
from .learning import MAX_ITER, TrainConfig, train
from .metrics import (
    AblationReport,
    MiouTable,
    dataset_order_accuracy,
    format_ablation_report,
    format_level_table,
    full_graph_accuracy,
    miou_by_level,
    predict_scene,
    run_ablation,
)
from .synth import SCENARIOS, ChallengeConfig, generate_challenge


class _Parser(argparse.ArgumentParser):
    # argparse's default error handling prints two lines; the contract is a
    # single machine-parsable line on any failure.
    def error(self, message):
        print(f"compseg: error code=USAGE msg={message}", file=sys.stderr)
        raise SystemExit(2)


def _fail(exc: CompsegError) -> int:
    print(f"compseg: error code={exc.code} msg={exc}", file=sys.stderr)
    return 2


def _num(value: float) -> float | None:
    return None if math.isnan(value) else round(float(value), 6)


def _table_record(table: MiouTable) -> dict:
    return {
        "levels": {name: _num(v) for name, v in table.rows.items()},
        "mean": _num(table.mean),
        "counts": dict(table.counts),
        "total": table.total,
    }


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args) -> int:
    scenarios = tuple(s for s in args.scenarios.split(",") if s)
    cfg = ChallengeConfig(
        per_level=args.per_level,
        train_scenes=args.train_scenes,
        backgrounds=args.backgrounds,
        seed=args.seed,
    )
    manifest = generate_challenge(args.out, cfg, scenarios)
    n_test = sum(1 for e in manifest.entries if e.split == "test")
    print(
        f"wrote {len(manifest.entries)} scenes to {args.out} "
        f"({n_test} test, scenarios {','.join(scenarios)})"
    )
    return 0


# ---------------------------------------------------------------------------
# train


def _filter_classes(pairs, wanted: set[str]):
    kept = []
    for fm, ann in pairs:
        objects = [rec for rec in ann.objects if rec.label in wanted]
        if objects:
            kept.append((fm, dataclasses.replace(ann, objects=objects)))
    return kept


def _cmd_train(args) -> int:
    manifest = load_manifest(args.manifest)
    pairs = [load_scene(manifest, e) for e in manifest.select(split="train")]
    pairs = [p for p in pairs if p[1].scenario != "background"]
    backgrounds = [
        load_scene(manifest, e)[0] for e in manifest.select(scenario="background")
    ]
    seen = sorted({rec.label for _, ann in pairs for rec in ann.objects})
    if args.classes:
        wanted = {c for c in args.classes.split(",") if c}
        unknown = wanted - set(seen)
        if unknown:
            raise ValidationError(
                f"classes not in training data: {sorted(unknown)} (have {seen})"
            )
        pairs = _filter_classes(pairs, wanted)
        seen = sorted(wanted)
    config = TrainConfig(
        k=args.k, m=args.m, shared_concentration=args.sigma, seed=args.seed
    )
    bundle, report = train(pairs, backgrounds, config)
    save_model(bundle, args.out)
    objective = report.dictionary_objective[-1]
    print(
        f"trained {len(seen)} classes ({','.join(seen)}) on {len(pairs)} scenes: "
        f"K={args.k} M={args.m} dictionary {report.dictionary_iterations}/{MAX_ITER} "
        f"iterations ({report.dictionary_stop}), final dictionary objective {objective:.4f} "
        f"-> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# segment


def _annotation_path_for(scene_path: str) -> str:
    stem = os.path.splitext(os.path.basename(scene_path))[0]
    parent = os.path.dirname(os.path.abspath(scene_path))
    if os.path.basename(parent) == "scenes":
        candidate = os.path.join(os.path.dirname(parent), "annotations", stem + ".json")
        if os.path.exists(candidate):
            return candidate
    candidate = os.path.join(parent, stem + ".json")
    if os.path.exists(candidate):
        return candidate
    raise ValidationError(f"no annotation with boxes found next to {scene_path}")


def _cmd_segment(args) -> int:
    bundle = load_model(args.model)
    fm, truth = read_scene(args.scene, _annotation_path_for(args.scene))
    # The scene id names the two output files, which must land inside --out.
    sid = truth.scene_id
    if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise ValidationError(f"scene id {sid!r} is not a plain file name")
    ann, _ = predict_scene(
        fm,
        truth,
        bundle,
        iters=args.iters,
        no_order=args.no_order,
    )
    os.makedirs(args.out, exist_ok=True)
    pred_path = os.path.join(args.out, f"{ann.scene_id}.json")
    atomic_write_text(pred_path, annotation_to_json(ann))
    atomic_write_text(
        os.path.join(args.out, f"{ann.scene_id}.order"),
        order_graph_lines(ann.order_edges),
    )
    print(f"segmented {ann.scene_id}: {len(ann.objects)} objects, "
          f"{len(ann.order_edges)} order edges -> {pred_path}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _load_annotation_dir(path: str) -> dict[str, SceneAnnotation]:
    if not os.path.isdir(path):
        raise ValidationError(f"not a directory: {path}")
    out, names = {}, {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json") or name == "manifest.json":
            continue
        ann = read_annotation(os.path.join(path, name))
        if ann.scene_id in names:
            raise FormatError(
                f"{path}: duplicate scene id {ann.scene_id!r} in {names[ann.scene_id]} and {name}"
            )
        out[ann.scene_id], names[ann.scene_id] = ann, name
    if not out:
        raise ValidationError(f"no annotation files under {path}")
    return out


def _cmd_evaluate(args) -> int:
    preds = _load_annotation_dir(args.pred)
    truths_all = _load_annotation_dir(args.truth)
    missing = sorted(set(preds) - set(truths_all))
    if missing:
        raise ValidationError(f"predictions without ground truth: {missing[:5]}")
    truths = [truths_all[sid] for sid in sorted(preds)]
    predictions = [preds[sid] for sid in sorted(preds)]
    for pred, truth in zip(predictions, truths):
        if pred.shape != truth.shape:
            raise ValidationError(
                f"{truth.scene_id}: prediction lattice {pred.shape[0]}x{pred.shape[1]}"
                f" != truth lattice {truth.shape[0]}x{truth.shape[1]}"
            )

    table = miou_by_level(predictions, truths, args.mode)
    order = dataset_order_accuracy(zip(predictions, truths))
    graph = full_graph_accuracy(zip(predictions, truths))

    text = "\n".join(
        [
            format_level_table({args.mode: table}, f"{args.mode} mIoU"),
            "",
            f"pairwise order accuracy  {order:6.4f}",
            f"full-graph accuracy      {graph:6.4f}",
            f"scenes scored            {len(truths):6d}",
        ]
    )
    record = {
        "mode": args.mode,
        "miou": _table_record(table),
        "order_accuracy": round(order, 6),
        "full_graph_accuracy": round(graph, 6),
        "scenes": len(truths),
    }
    atomic_write_text(args.out, text + "\n")
    atomic_write_text(args.out + ".json", json_text(record))
    print(text)
    return 0


# ---------------------------------------------------------------------------
# ablate


def _cmd_ablate(args) -> int:
    bundle = load_model(args.model)
    manifest = load_manifest(args.manifest)
    present = [e.scenario for e in manifest.entries if e.split == "test"]
    scenarios = [s for s in SCENARIOS if s in present]
    if not scenarios:
        raise ValidationError("manifest has no test scenarios to ablate")

    blocks: list[str] = []
    records: dict[str, dict] = {}
    for scenario in scenarios:
        pairs = [
            load_scene(manifest, e)
            for e in manifest.select(split="test", scenario=scenario)
        ]
        report: AblationReport = run_ablation(pairs, bundle, scenario=scenario)
        blocks.append(format_ablation_report(report))
        records[scenario] = {
            "modal": {k: _table_record(t) for k, t in report.modal.items()},
            "amodal": {k: _table_record(t) for k, t in report.amodal.items()},
            "order_accuracy": {k: _num(v) for k, v in report.order.items()},
            "scenes": len(pairs),
        }
    text = ("\n\n" + "=" * 66 + "\n\n").join(blocks)
    atomic_write_text(args.out, text + "\n")
    atomic_write_text(args.out + ".json", json_text(records))
    print(text)
    return 0


# ---------------------------------------------------------------------------
# oracle-check


# (name, check, tiny size, small size); a suite's rng seeds from its row index.
_SUITES = (
    ("pixel-competition", oracle.check_pixel_competition, 200, 1000),
    ("order-votes", oracle.check_order_votes, 300, 1000),
    ("joint-factorization", oracle.check_joint_factorization, 100, 400),
    ("normalizer-closed-form", lambda _, n: oracle.check_normalizer_closed_form(n), 100, 200),
    ("monte-carlo-mass", oracle.check_monte_carlo_mass, 20_000, 100_000),
    ("likelihood-maps", oracle.check_likelihood_maps, 20, 60),
    ("order-reassignment", oracle.check_order_reassignment, 200, 1000),
    ("rescore", oracle.check_rescore, 100, 400),
)
_SCALES = ("tiny", "small")


def _cmd_oracle_check(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
    column = _SCALES.index(args.scale)
    failed = False
    for index, (name, check, *sizes) in enumerate(_SUITES):
        mismatches, cases = check(np.random.default_rng([args.seed, index]), sizes[column])
        if mismatches:
            failed = True
            print(f"FAIL {name} mismatches={mismatches} of {cases}")
        else:
            print(f"ok {name} cases={cases}")
    if failed:
        print("compseg: error code=INVALID msg=oracle equivalence failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="compseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a planted scene challenge")
    p.add_argument("--scenarios", default=",".join(SCENARIOS))
    challenge = ChallengeConfig()
    p.add_argument("--per-level", type=int, default=challenge.per_level)
    p.add_argument("--train-scenes", type=int, default=challenge.train_scenes)
    p.add_argument("--backgrounds", type=int, default=challenge.backgrounds)
    p.add_argument("--seed", type=int, default=challenge.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit a model bundle from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", default="", help="comma list; default all present")
    defaults = TrainConfig()
    p.add_argument("--k", type=int, default=defaults.k)
    p.add_argument("--m", type=int, default=defaults.m)
    p.add_argument("--sigma", type=float, default=defaults.shared_concentration)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("segment", help="segment one scene with known boxes")
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True, help=".fmap file; boxes come from its annotation")
    p.add_argument("--iters", type=int, choices=(0, 1, 2), default=1)
    p.add_argument("--no-order", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--mode", choices=("modal", "amodal"), default="modal")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="compare reasoning variants on a manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("oracle-check", help="run brute-force equivalence suites")
    p.add_argument("--scale", choices=_SCALES, default="tiny")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CompsegError as exc:
        return _fail(exc)
    except OSError as exc:
        print(f"compseg: error code=ERROR msg={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Which compseg functions the traced run wraps, and the per-layer metrics.

Every name is patched where its caller looks it up, so each span also tells
who made the call:

  learning.fit_dictionary_traced   dictionary fit, called by `train`
  learning.crop_responsibilities   class-model estimation, called by `train`
  models.likelihood_maps           the candidate maps built inside `classify`
  orm.likelihood_maps              maps rebuilt by `feed_forward` for the
                                   winner and by `segment_scene` on relabel;
                                   wrapped only while `orm` looks it up
  orm.classify                     from `feed_forward` (first pass) and from
                                   `segment_scene` (re-scoring)
  _kernels.*mixture_loglik         looked up on the module by `models`; each
                                   is wrapped only while the module has it

A name that is only wrapped while present reports zero calls when it is
gone, so a kernel engine that replaces these functions, or an ORM that
reuses the maps from `classify`, still gets a traced run. Every other name
above must exist.

"Per scene" below means per scene pass of the traced sweep, averaged over
the four variants.
"""
from __future__ import annotations

from compseg import _kernels, formats, learning, metrics, models, orm, synth

from spans import Tracer

FIT = "vmf.fit"
MAPS = "models.likelihood_maps"
MAPS_AGAIN = "models.likelihood_maps.recompute"
KERNELS = "kernels"


def _fit_counts(args, kwargs, result) -> dict:
    return {
        "iterations": result[1]["iterations"],
        "max_iter": kwargs["max_iter"],
    }


def _map_counts(args, kwargs, result) -> dict:
    h, w = result.shape
    return {"positions": h * w}


def _kernel_counts(args, kwargs, result) -> dict:
    cos, sigma, log_z, log_coeffs = args
    # Computed from the operand shapes, not measured: the float64 operands
    # the kernel reads and the row it writes.
    touched = cos.size + sigma.size + log_z.size + log_coeffs.size + result.size
    return {"evals": cos.size, "bytes": 8 * touched}


def _pair_counts(args, kwargs, result) -> dict:
    return {"pairs": len(result[1])}


def patch_setup(tracer: Tracer) -> None:
    tracer.patch(synth, "generate_challenge", "synth.generate")
    tracer.patch(formats, "load_scene", "formats.load_scene")
    tracer.patch(formats, "save_model", "formats.save_model")
    tracer.patch(formats, "load_model", "formats.load_model")
    tracer.patch(learning, "train", "learning.train")
    tracer.patch(learning, "fit_dictionary_traced", FIT, _fit_counts)
    tracer.patch(learning, "crop_responsibilities", "learning.crop_responsibilities")
    tracer.patch(learning, "assign_mixtures", "learning.assign_mixtures")
    tracer.patch(learning, "learn_occluder", "learning.occluder")


def patch_inference(tracer: Tracer) -> None:
    tracer.patch(metrics, "predict_scene", "metrics.predict_scene")
    tracer.patch(metrics, "segment_scene", "orm.segment_scene")
    tracer.patch(orm, "feed_forward", "orm.feed_forward")
    tracer.patch(orm, "orm_pass", "orm.orm_pass", _pair_counts)
    tracer.patch(orm, "classify", "models.classify")
    tracer.patch(models, "likelihood_maps", MAPS, _map_counts)
    optional = (
        (orm, "likelihood_maps", MAPS_AGAIN, _map_counts),
        (_kernels, "mixture_loglik", KERNELS, _kernel_counts),
        (_kernels, "shared_mixture_loglik", KERNELS, _kernel_counts),
    )
    for module, attr, name, count in optional:
        if hasattr(module, attr):
            tracer.patch(module, attr, name, count)


def layer_metrics(
    setup: Tracer,
    inference: Tracer,
    passes: int,
    overhead: float,
    bytes_written: int,
    model_bytes: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced set-up and one traced sweep.

    `overhead` is the traced sweep's mean pass time over the untraced one.
    """
    s = setup.summary()
    fit = s[FIT]
    iterations = fit.counts["iterations"]
    train = s["learning.train"]
    out: dict[str, tuple[float, str]] = {
        "vmf.fit_s": (fit.total_s, "s"),
        "vmf.fit_iters": (iterations, "count"),
        "vmf.fit_hit_max_iter": (int(iterations >= fit.counts["max_iter"]), "count"),
        "vmf.fit_ms_per_iter": (1e3 * fit.total_s / iterations, "ms"),
        "vmf.fit.train_share": (fit.total_s / train.total_s, "ratio"),
        "learning.crop_responsibilities.calls": (
            s["learning.crop_responsibilities"].calls, "count"
        ),
        "learning.crop_responsibilities_s": (s["learning.crop_responsibilities"].total_s, "s"),
        "learning.assign_mixtures_s": (s["learning.assign_mixtures"].total_s, "s"),
        "learning.occluder_s": (s["learning.occluder"].total_s, "s"),
        # Every other stage of `train` runs in its own body, outside the
        # wrapped children, so this is train's self time.
        "learning.other_s": (train.self_s, "s"),
        "synth.generate_s": (s["synth.generate"].total_s, "s"),
        "synth.bytes_written": (bytes_written, "bytes"),
        "formats.load_scene_s": (s["formats.load_scene"].total_s, "s"),
        "formats.model_bytes": (model_bytes, "bytes"),
        "formats.save_model_s": (s["formats.save_model"].total_s, "s"),
        "formats.load_model_s": (s["formats.load_model"].total_s, "s"),
    }

    i = inference.summary()
    maps, again, kern = i[MAPS], i[MAPS_AGAIN], i[KERNELS]
    classify, ormp = i["models.classify"], i["orm.orm_pass"]
    inference_s = i["metrics.predict_scene"].total_s
    rescored = inference.count_where("models.classify", "orm.segment_scene")
    relabelled = inference.count_where(MAPS_AGAIN, "orm.segment_scene")
    out.update({
        "models.classify.calls_per_scene": (classify.calls / passes, "count"),
        "models.classify.self_s": (classify.self_s, "s"),
        "models.likelihood_maps.calls_per_scene": ((maps.calls + again.calls) / passes, "count"),
        "models.likelihood_maps.recompute_per_scene": (again.calls / passes, "count"),
        "models.likelihood_maps.positions_per_scene": (
            (maps.counts["positions"] + again.counts.get("positions", 0)) / passes, "count"
        ),
        "models.likelihood_maps.self_s": (maps.self_s + again.self_s, "s"),
        "models.likelihood_maps.sweep_share": (
            (maps.total_s + again.total_s) / inference_s, "ratio"
        ),
        "kernels.calls_per_scene": (kern.calls / passes, "count"),
        "kernels.evals_per_scene": (kern.counts.get("evals", 0) / passes, "count"),
        "kernels.bytes_computed_per_scene": (kern.counts.get("bytes", 0) / passes, "bytes"),
        "kernels.self_s": (kern.self_s, "s"),
        "orm.feed_forward_s": (i["orm.feed_forward"].total_s, "s"),
        "orm.orm_pass_s": (ormp.total_s, "s"),
        "orm.orm_pass.calls_per_scene": (ormp.calls / passes, "count"),
        "orm.orm_pass.sweep_share": (ormp.total_s / inference_s, "ratio"),
        "orm.conflict_pairs_per_scene": (ormp.counts["pairs"] / passes, "count"),
        "orm.rescored_per_scene": (rescored / passes, "count"),
        "orm.relabelled_per_scene": (relabelled / passes, "count"),
        "orm.relabel_ratio": (relabelled / rescored if rescored else 0.0, "ratio"),
        "orm.segment_scene.self_s": (i["orm.segment_scene"].self_s, "s"),
        "metrics.score_s": (i["metrics.score"].total_s, "s"),
        "metrics.predict_scene.self_s": (i["metrics.predict_scene"].self_s, "s"),
        "trace.overhead": (overhead, "ratio"),
    })
    return out

"""The package's public names: `compseg.__all__` is exact and `import *` resolves it."""
import subprocess
import sys

import compseg

# Every name `from compseg import *` gives. A name leaves this list together
# with its code; one that stayed behind in `__all__` would break only `import *`.
PUBLIC = (
    "AblationReport",
    "BoundingBox",
    "ChallengeConfig",
    "ClassModel",
    "CompsegError",
    "FeatureMap",
    "FormatError",
    "LikelihoodMaps",
    "Manifest",
    "MiouTable",
    "MixtureModel",
    "ModelBundle",
    "ObjectRecord",
    "OccluderModel",
    "OrderEdge",
    "SceneAnnotation",
    "SceneResult",
    "TrainConfig",
    "TrainReport",
    "TrainingError",
    "ValidationError",
    "VisibilityAssignment",
    "VmfDictionary",
    "__version__",
    "annotation_from_json",
    "annotation_to_json",
    "classify",
    "crop",
    "crop_evidence",
    "dataset_order_accuracy",
    "feed_forward",
    "full_graph_accuracy",
    "generate_challenge",
    "likelihood_maps",
    "load_feature_map",
    "load_manifest",
    "load_model",
    "load_scene",
    "log_normalizer",
    "miou_by_level",
    "order_accuracy",
    "predict_scene",
    "recover_order",
    "run_ablation",
    "save_feature_map",
    "save_model",
    "segment_scene",
    "segment_single",
    "train",
)


def test_all_lists_each_public_name_once():
    assert len(compseg.__all__) == len(set(compseg.__all__))
    assert sorted(compseg.__all__) == sorted(PUBLIC)


def test_star_import_resolves_every_public_name():
    namespace: dict = {}
    exec("from compseg import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
    for name in PUBLIC:
        assert namespace[name] is getattr(compseg, name)


def test_runtime_imports_load_no_scipy():
    """SciPy is a test-only dependency: no runtime module imports it."""
    code = (
        "import sys, compseg, compseg.cli, compseg.oracle\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"

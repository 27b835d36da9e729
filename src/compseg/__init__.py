"""Compositional mixture models with occlusion ordering on feature grids.

The package decomposes scene understanding over precomputed feature lattices
into small, separately testable stages: a vMF feature dictionary, per-class
compositional mixtures with foreground priors, per-pixel likelihood maps,
pixel-level competition with pairwise order recovery, and planted-scene
synthesis plus metrics to exercise the whole loop end to end.
"""

from .errors import CompsegError, FormatError, TrainingError, ValidationError
from .fmap import BoundingBox, FeatureMap, crop, load_feature_map, save_feature_map
from .formats import (
    Manifest,
    ModelBundle,
    ObjectRecord,
    SceneAnnotation,
    annotation_from_json,
    annotation_to_json,
    load_manifest,
    load_model,
    load_scene,
    save_model,
)
from .learning import TrainConfig, TrainReport, train
from .metrics import (
    AblationReport,
    MiouTable,
    dataset_order_accuracy,
    full_graph_accuracy,
    miou_by_level,
    order_accuracy,
    predict_scene,
    run_ablation,
)
from .models import (
    CandidateMaps,
    ClassModel,
    LikelihoodMaps,
    MixtureModel,
    OccluderModel,
    classify,
    likelihood_maps,
    segment_single,
)
from .orm import (
    OrderEdge,
    SceneResult,
    feed_forward,
    recover_order,
    segment_scene,
)
from .synth import ChallengeConfig, generate_challenge
from .vmf import VmfDictionary, log_normalizer

__version__ = "0.1.0"

__all__ = [
    "CompsegError",
    "FormatError",
    "TrainingError",
    "ValidationError",
    "BoundingBox",
    "FeatureMap",
    "crop",
    "load_feature_map",
    "save_feature_map",
    "Manifest",
    "ModelBundle",
    "ObjectRecord",
    "SceneAnnotation",
    "annotation_from_json",
    "annotation_to_json",
    "load_manifest",
    "load_model",
    "load_scene",
    "save_model",
    "TrainConfig",
    "TrainReport",
    "train",
    "AblationReport",
    "MiouTable",
    "dataset_order_accuracy",
    "full_graph_accuracy",
    "miou_by_level",
    "order_accuracy",
    "predict_scene",
    "run_ablation",
    "CandidateMaps",
    "ClassModel",
    "LikelihoodMaps",
    "MixtureModel",
    "OccluderModel",
    "classify",
    "likelihood_maps",
    "segment_single",
    "OrderEdge",
    "SceneResult",
    "feed_forward",
    "recover_order",
    "segment_scene",
    "ChallengeConfig",
    "generate_challenge",
    "VmfDictionary",
    "log_normalizer",
    "__version__",
]

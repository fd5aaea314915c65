"""From-scratch classifiers: k-NN, CART/random forest, boosted trees, MLP."""

from .base import (
    MajorityConfig,
    MajorityModel,
    Model,
    classify,
    check_proba,
    ensemble_predict_proba,
)
from .forest import ForestConfig, RandomForest, forest_importance
from .gbt import GbtConfig, GradientBoostedTrees
from .knn import KnnConfig, KnnClassifier
from .mlp import MlpConfig, MlpClassifier
from .serialize import (
    CONFIG_TYPES,
    MODEL_TYPES,
    config_from_dict,
    from_json,
    load_model,
    save_model,
)
from .tree import DecisionTree, TreeConfig

__all__ = [
    "classify",
    "check_proba",
    "ensemble_predict_proba",
    "build_model",
    "config_from_dict",
    "from_json",
    "model_kind",
    "save_model",
    "load_model",
    "Model",
    "MajorityConfig",
    "MajorityModel",
    "KnnConfig",
    "KnnClassifier",
    "TreeConfig",
    "DecisionTree",
    "ForestConfig",
    "RandomForest",
    "forest_importance",
    "GbtConfig",
    "GradientBoostedTrees",
    "MlpConfig",
    "MlpClassifier",
    "CONFIG_TYPES",
    "MODEL_TYPES",
]

_KIND_BY_CONFIG = {cfg_type: kind for kind, cfg_type in CONFIG_TYPES.items()}


def model_kind(cfg: object) -> str:
    try:
        return _KIND_BY_CONFIG[type(cfg)]
    except KeyError:
        raise ValueError(f"unknown model config type {type(cfg).__name__}") from None


def build_model(cfg: object) -> Model:
    """Fresh unfitted model for a config dataclass."""
    return MODEL_TYPES[model_kind(cfg)](cfg)

"""From-scratch classifiers: k-NN, CART/random forest, boosted trees, MLP."""

from .base import (
    MajorityConfig,
    MajorityModel,
    Model,
    classify,
)
from .forest import ForestConfig, RandomForest
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
    "GbtConfig",
    "GradientBoostedTrees",
    "MlpConfig",
    "MlpClassifier",
    "CONFIG_TYPES",
    "MODEL_TYPES",
]


def model_kind(cfg: object) -> str:
    for kind, model_type in MODEL_TYPES.items():
        if type(cfg) is model_type.Config:
            return kind
    raise ValueError(f"unknown model config type {type(cfg).__name__}")


def build_model(cfg: object) -> Model:
    """Fresh unfitted model for a config dataclass."""
    return MODEL_TYPES[model_kind(cfg)](cfg)

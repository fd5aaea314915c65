"""Versioned JSON model persistence with exact float round-trips.

Numeric arrays are stored as base64 of their little-endian IEEE bytes, so a
reloaded model reproduces in-memory predictions bit for bit. An optional
preprocessing block travels with the model so prediction inputs can be imputed
and scaled exactly as at training time.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import types
import typing
from pathlib import Path

import numpy as np

from ..artifact import write_json
from ..features import PreprocessState
from .base import MajorityModel, Model
from .forest import RandomForest
from .gbt import GradientBoostedTrees
from .knn import KnnClassifier
from .mlp import MlpClassifier
from .tree import DecisionTree, _Tree

MODEL_FORMAT = "adherence-model"
FORMAT_VERSION = 2

# The one kind table: a model file's and a config section's kind name the model class.
MODEL_TYPES = {m.kind: m for m in (KnnClassifier, DecisionTree, RandomForest, GradientBoostedTrees, MlpClassifier,
                                   MajorityModel)}
CONFIG_TYPES = {kind: m.Config for kind, m in MODEL_TYPES.items()}

# Top-level keys of a model document and their JSON types.
_DOC_FIELDS = {
    "kind": str,
    "config": dict,
    "n_features": int,
    "feature_names": (list, type(None)),
    "params": dict,
}


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    if a.dtype.byteorder == ">":
        a = a.astype(a.dtype.newbyteorder("<"))
    return {"dtype": a.dtype.str, "shape": list(a.shape), "data": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(d: dict) -> np.ndarray:
    buf = base64.b64decode(d["data"])
    return np.frombuffer(buf, dtype=np.dtype(d["dtype"])).reshape(d["shape"]).copy()


_TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "importance")


def _pack_tree(tree: _Tree) -> dict:
    return {k: encode_array(getattr(tree, k)) for k in _TREE_ARRAYS}


def _unpack_tree(d: dict, n_features: int) -> _Tree:
    """A tree whose predict loop stays in range and ends: each internal node's children come after it."""
    tree = _Tree(*(decode_array(d[k]) for k in _TREE_ARRAYS))
    n = tree.n_nodes
    if n == 0 or [getattr(tree, k).shape for k in _TREE_ARRAYS] != [(n,)] * 5 + [(n_features,)]:
        raise ValueError("tree arrays have the wrong lengths")  # five per node, importance per feature
    if tree.feature.min() < -1 or tree.feature.max() >= n_features:
        raise ValueError(f"tree feature outside [-1, {n_features})")
    inner = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[inner], tree.right[inner]):
        if np.any(child <= inner) or np.any(child >= n):
            raise ValueError("tree child index out of order or range")
    return tree


def _pack_params(model: Model) -> dict:
    if isinstance(model, KnnClassifier):
        return {"X": encode_array(model.X_), "y": encode_array(model.y_)}
    if isinstance(model, DecisionTree):
        return {"tree": _pack_tree(model.tree_)}
    if isinstance(model, (RandomForest, GradientBoostedTrees)):
        return {"trees": [_pack_tree(t) for t in model.trees_]}
    if isinstance(model, MlpClassifier):
        return {
            "weights": [encode_array(W) for W in model.weights_],
            "biases": [encode_array(b) for b in model.biases_],
        }
    if isinstance(model, MajorityModel):
        return {"p1": float(model.p1_).hex()}  # hex keeps the exact binary64 value
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def _unpack_params(model: Model, params: dict) -> None:
    if isinstance(model, KnnClassifier):
        model.X_ = decode_array(params["X"])
        model.y_ = decode_array(params["y"])
        X, y, k = model.X_, model.y_, model.cfg.k
        if X.ndim != 2 or X.shape[1] != model.n_features_ or y.shape != X.shape[:1] or X.shape[0] < k:
            raise ValueError(f"knn arrays must be X (n, {model.n_features_}) and y (n,) with n >= k={k}")
    elif isinstance(model, DecisionTree):
        model.tree_ = _unpack_tree(params["tree"], model.n_features_)
    elif isinstance(model, (RandomForest, GradientBoostedTrees)):
        model.trees_ = [_unpack_tree(t, model.n_features_) for t in params["trees"]]
    elif isinstance(model, MlpClassifier):
        model.weights_ = [decode_array(W) for W in params["weights"]]
        model.biases_ = [decode_array(b) for b in params["biases"]]
        widths = [model.n_features_, *model.cfg.hidden_layers, 2]
        shapes = [W.shape for W in model.weights_] + [b.shape for b in model.biases_]
        if shapes != [*zip(widths, widths[1:]), *((w,) for w in widths[1:])]:
            raise ValueError(f"mlp layer shapes must follow widths {widths}")
    elif isinstance(model, MajorityModel):
        model.p1_ = float.fromhex(params["p1"])
    else:
        raise TypeError(f"cannot deserialize model of type {type(model).__name__}")


def _pack_preprocess(state: PreprocessState) -> dict:
    return {
        "column_names": state.column_names,
        "modes": encode_array(state.modes),
        "scale_min": encode_array(state.scale_min),
        "scale_max": encode_array(state.scale_max),
        "static": encode_array(state.static),
        "fitted_on": state.fitted_on,
    }


def _unpack_preprocess(d: dict) -> PreprocessState:
    return PreprocessState(
        column_names=list(d["column_names"]),
        modes=decode_array(d["modes"]),
        scale_min=decode_array(d["scale_min"]),
        scale_max=decode_array(d["scale_max"]),
        static=decode_array(d["static"]),
        fitted_on=int(d["fitted_on"]),
    )


def save_model(model: Model, path: str | Path, preprocess: PreprocessState | None = None) -> None:
    if not model.is_fitted:
        raise ValueError("refusing to serialize an unfitted model")
    doc = {
        "format": MODEL_FORMAT,
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "config": dataclasses.asdict(model.cfg),
        "n_features": model.n_features_,
        "feature_names": model.feature_names,
        "params": _pack_params(model),
        "preprocess": None if preprocess is None else _pack_preprocess(preprocess),
    }
    write_json(path, doc, indent=None)


def load_model(path: str | Path) -> tuple[Model, PreprocessState | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt model file {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model file: {path}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')}")
    for key, types in _DOC_FIELDS.items():
        if key not in doc:
            raise ValueError(f"malformed model file {path}: missing key {key!r}")
        if not isinstance(doc[key], types) or isinstance(doc[key], bool):
            raise ValueError(f"malformed model file {path}: key {key!r} has type {type(doc[key]).__name__}")
    kind = doc["kind"]
    if kind not in MODEL_TYPES:
        raise ValueError(f"unknown model kind {kind!r}")
    try:
        model = MODEL_TYPES[kind](config_from_dict(kind, doc["config"]))
    except ValueError as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from None
    model.n_features_ = doc["n_features"]
    model.feature_names = doc["feature_names"]
    try:
        _unpack_params(model, doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: bad {kind} params ({exc!r})") from None
    try:
        preprocess = None if doc.get("preprocess") is None else _unpack_preprocess(doc["preprocess"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file {path}: bad preprocess block ({exc!r})") from None
    return model, preprocess


def _fits(value: object, hint: object) -> bool:
    """Whether a JSON value fits a field type: bool is not int, int fits float, a list fits a tuple."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, a) for a in args)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...] or tuple[A, B]
        if not isinstance(value, (list, tuple)):
            return False
        kinds = [args[0]] * len(value) if args[1:] == (...,) else args
        return len(value) == len(kinds) and all(map(_fits, value, kinds))
    if typing.get_origin(hint) is dict:
        return isinstance(value, dict) and all(_fits(k, args[0]) and _fits(v, args[1])
                                               for k, v in value.items())
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def from_json(cls: type, values: dict):
    """Dataclass cls built from plain JSON values; a TypeError names a value that does not fit its field."""
    hints = typing.get_type_hints(cls)
    for key, value in values.items():
        if key in hints and not _fits(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise TypeError(f"{key!r} is {value!r}, expected {expected}")
    return cls(**{key: tuple(value) if isinstance(value, list) else value for key, value in values.items()})


def config_from_dict(kind: str, values: dict) -> object:
    """Rebuild a model config dataclass from plain JSON values, checked against its field types and ranges."""
    if kind not in CONFIG_TYPES:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(CONFIG_TYPES)}")
    try:
        return from_json(CONFIG_TYPES[kind], values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {kind} config: {exc}") from None

import re

import numpy as np
import pytest

from adherence.features import PreprocessState, fit_preprocess, transform
from adherence.learn import (
    DecisionTree,
    ForestConfig,
    GbtConfig,
    GradientBoostedTrees,
    KnnClassifier,
    KnnConfig,
    MODEL_TYPES,
    MajorityConfig,
    MajorityModel,
    MlpClassifier,
    MlpConfig,
    RandomForest,
    TreeConfig,
    build_model,
    classify,
    config_from_dict,
    load_model,
    save_model,
)

from conftest import make_dataset


class TestClassify:
    def test_threshold_rules(self):
        proba = np.array([[0.3, 0.7], [0.5, 0.5], [1.0, 0.0]])
        assert classify(proba).tolist() == [1, 0, 0]


def fitted_models(rng):
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
    names = ["a", "b", "c"]
    return X, [
        KnnClassifier(KnnConfig(k=5)).fit(X, y, feature_names=names),
        DecisionTree(TreeConfig(max_depth=4, seed=1)).fit(X, y, feature_names=names),
        RandomForest(ForestConfig(n_trees=8, seed=2)).fit(X, y, feature_names=names),
        GradientBoostedTrees(GbtConfig(n_rounds=6, max_depth=3)).fit(X, y, feature_names=names),
        MlpClassifier(MlpConfig(hidden_layers=(8, 4), max_epochs=4, val_fraction=0.0, seed=3)).fit(X, y, feature_names=names),
        MajorityModel(MajorityConfig()).fit(X, y, feature_names=names),
    ]


class TestSerialization:
    def test_exact_round_trip_for_every_kind(self, tmp_path):
        rng = np.random.default_rng(62)
        X, models = fitted_models(rng)
        Q = rng.normal(size=(15, 3))
        for model in models:
            path = tmp_path / f"{model.kind}.json"
            save_model(model, path)
            loaded, state = load_model(path)
            assert state is None
            assert loaded.kind == model.kind
            assert loaded.feature_names == ["a", "b", "c"]
            assert np.array_equal(loaded.predict_proba(Q), model.predict_proba(Q))

    def test_preprocess_state_travels_with_model(self, tmp_path):
        rng = np.random.default_rng(63)
        ds = make_dataset(rng.normal(size=(30, 2)) * 7 + 3, rng.integers(0, 2, 30), columns=["x", "y"])
        state = fit_preprocess(ds)
        transformed = transform(ds, state)
        model = KnnClassifier(KnnConfig(k=3)).fit(transformed.X, ds.labels(), feature_names=ds.column_names)
        path = tmp_path / "model.json"
        save_model(model, path, preprocess=state)
        loaded, loaded_state = load_model(path)
        assert isinstance(loaded_state, PreprocessState)
        again = transform(ds, loaded_state)
        assert np.array_equal(again.X, transformed.X)
        assert np.array_equal(loaded.predict_proba(again.X), model.predict_proba(transformed.X))

    def test_unfitted_model_refused(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(KnnClassifier(KnnConfig(k=1)), tmp_path / "m.json")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            load_model(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)

    def test_config_survives(self, tmp_path):
        rng = np.random.default_rng(64)
        X = rng.normal(size=(20, 2))
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoostedTrees(GbtConfig(n_rounds=3, learning_rate=0.05, max_depth=2)).fit(X, y)
        save_model(model, tmp_path / "g.json")
        loaded, _ = load_model(tmp_path / "g.json")
        assert loaded.cfg == model.cfg


class TestBuildModel:
    def test_factory_kinds(self):
        assert build_model(KnnConfig()).kind == "knn"
        assert build_model(ForestConfig()).kind == "forest"
        assert build_model(GbtConfig()).kind == "gbt"
        assert build_model(MlpConfig()).kind == "mlp"
        assert build_model(MajorityConfig()).kind == "majority"
        assert build_model(TreeConfig()).kind == "tree"

    def test_unknown_config(self):
        with pytest.raises(ValueError, match="unknown model config"):
            build_model(object())


class TestConfigFromDict:
    def test_json_values_fit_their_field_types(self):
        assert config_from_dict("gbt", {"learning_rate": 1}).learning_rate == 1  # int fits float
        assert config_from_dict("mlp", {"hidden_layers": [4, 2]}).hidden_layers == (4, 2)  # list fits tuple
        assert config_from_dict("forest", {"max_depth": None}).max_depth is None  # field allows None
        assert config_from_dict("forest", {"bootstrap": False}).bootstrap is False

    @pytest.mark.parametrize(
        "kind, values, message",
        [
            ("forest", {"n_trees": "3"}, "'n_trees' is '3', expected int"),
            ("forest", {"bootstrap": 1}, "'bootstrap' is 1, expected bool"),
            ("forest", {"max_depth": 2.0}, "'max_depth' is 2.0, expected int | None"),
            ("mlp", {"hidden_layers": [4, True]}, "'hidden_layers' is [4, True], expected tuple[int, ...]"),
            ("mlp", {"dtype": 32}, "'dtype' is 32, expected str"),
            ("mlp", {"dtype": "foo"}, "dtype must be 'float32' or 'float64', got 'foo'"),
        ],
        ids=["str-int", "int-bool", "float-optional-int", "bool-in-tuple", "int-str", "unknown-dtype"],
    )
    def test_value_of_wrong_type_rejected(self, kind, values, message):
        with pytest.raises(ValueError, match=re.escape(f"bad {kind} config: {message}")):
            config_from_dict(kind, values)


class TestFitInput:
    @pytest.mark.parametrize("bad, message", [(np.nan, "nulls"), (np.inf, "infinite"), (-np.inf, "infinite")])
    def test_non_finite_features_rejected(self, bad, message):
        X = np.arange(8.0).reshape(4, 2)
        X[2, 1] = bad
        with pytest.raises(ValueError, match=message):
            DecisionTree().fit(X, np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("kind", sorted(MODEL_TYPES))
    def test_no_feature_columns_rejected(self, kind):
        with pytest.raises(ValueError, match="no feature columns"):
            MODEL_TYPES[kind]().fit(np.zeros((4, 0)), np.array([0, 1, 0, 1]))

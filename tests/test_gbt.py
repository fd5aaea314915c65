import math

import numpy as np
import pytest

from adherence.learn import GbtConfig, GradientBoostedTrees


class TestGbtMechanics:
    def test_single_leaf_weight(self):
        # One row with y=1: initial p=0.5 gives G=-0.5, H=0.25; with l2=1 the
        # leaf weight is 0.5/1.25 = 0.4.
        model = GradientBoostedTrees(GbtConfig(n_rounds=1, l2_lambda=1.0))
        X = np.array([[1.0], [1.0]])
        y = np.array([1, 0])
        # constant feature: no split possible, single leaf over both rows
        model.fit(X, y)
        tree = model.trees_[0]
        assert tree.feature[0] == -1
        # G = (0.5-1) + (0.5-0) = 0, single leaf weight 0 for the pair; use a
        # pure positive node instead via separable data at depth 1
        model2 = GradientBoostedTrees(GbtConfig(n_rounds=1, max_depth=1, l2_lambda=1.0))
        X2 = np.array([[0.0], [1.0]])
        y2 = np.array([0, 1])
        model2.fit(X2, y2)
        tree2 = model2.trees_[0]
        leaves = tree2.value[tree2.feature == -1]
        assert sorted(round(v, 10) for v in leaves) == [-0.4, 0.4]

    def test_one_round_depth_one_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = GradientBoostedTrees(GbtConfig(n_rounds=1, max_depth=1, learning_rate=0.1)).fit(X, y)
        assert (model.predict(X) == y).all()

    def test_split_gain_positive_required(self):
        # identical feature values: no split, tree is a single leaf
        model = GradientBoostedTrees(GbtConfig(n_rounds=1)).fit(np.ones((6, 2)), np.array([0, 1] * 3))
        assert model.trees_[0].feature.tolist() == [-1]

    def test_min_child_weight_blocks_splits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        # each child's hessian mass is at most 4*0.25=1; demanding 10 blocks all splits
        model = GradientBoostedTrees(GbtConfig(n_rounds=1, min_child_weight=10.0)).fit(X, y)
        assert model.trees_[0].feature.tolist() == [-1]

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            GradientBoostedTrees(GbtConfig(n_rounds=1)).fit(np.zeros((4, 1)), np.zeros(4, dtype=int))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GbtConfig(l2_lambda=-1.0)
        with pytest.raises(ValueError):
            GbtConfig(min_child_weight=-0.5)
        for field in ("l2_lambda", "min_child_weight"):
            with pytest.raises(ValueError, match=f"{field} must be >= 0"):
                GbtConfig(**{field: math.nan})


class TestGbtTraining:
    def synthetic(self, rng, n=300, d=6):
        X = rng.normal(size=(n, d))
        logits = 1.5 * X[:, 0] - 1.0 * X[:, 1] + 0.5 * rng.normal(size=n)
        y = (logits > 0).astype(int)
        return X, y

    def test_loss_non_increasing_over_rounds(self):
        rng = np.random.default_rng(41)
        X, y = self.synthetic(rng)
        model = GradientBoostedTrees(GbtConfig(n_rounds=50, learning_rate=0.3, max_depth=4)).fit(X, y)
        losses = model.train_losses_
        assert len(losses) == 51
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(42)
        X, y = self.synthetic(rng, n=150)
        Q = rng.normal(size=(20, 6))
        a = GradientBoostedTrees(GbtConfig(n_rounds=10)).fit(X, y)
        b = GradientBoostedTrees(GbtConfig(n_rounds=10)).fit(X, y)
        assert np.array_equal(a.predict_proba(Q), b.predict_proba(Q))

    def test_beats_prior_on_learnable_data(self):
        rng = np.random.default_rng(43)
        X, y = self.synthetic(rng)
        model = GradientBoostedTrees(GbtConfig(n_rounds=30, max_depth=3)).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_proba_rows_sum_to_one(self):
        rng = np.random.default_rng(44)
        X, y = self.synthetic(rng, n=100)
        model = GradientBoostedTrees(GbtConfig(n_rounds=5)).fit(X, y)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)

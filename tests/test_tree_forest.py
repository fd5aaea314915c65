import numpy as np
import pytest

from adherence.learn import (
    DecisionTree,
    ForestConfig,
    RandomForest,
    TreeConfig,
    forest_importance,
)
from adherence.learn import _split


class TestSplitScan:
    def test_int_and_sort_paths_agree(self):
        rng = np.random.default_rng(31)
        x = rng.integers(0, 5, size=40).astype(float)
        stats = [rng.integers(0, 2, size=40).astype(float)]
        codes = x.astype(np.int64)
        t1, n1, (c1,) = _split.scan(x, stats, codes)
        t2, n2, (c2,) = _split.scan(x, stats, None)
        assert np.array_equal(t1, t2)
        assert np.array_equal(n1, n2)
        assert np.array_equal(c1, c2)

    def test_constant_column_none(self):
        assert _split.scan(np.ones(5), [np.ones(5)], None) is None
        assert _split.scan(np.ones(5), [np.ones(5)], np.ones(5, dtype=np.int64)) is None

    def test_column_codes_detection(self):
        X = np.array([[0.0, 0.5, 3.0], [4.0, 1.0, -1.0]])
        codes = _split.column_codes(X)
        assert codes[0] is not None  # small non-negative ints
        assert codes[1] is None  # fractional
        assert codes[2] is None  # negative


class TestDecisionTree:
    def test_pure_input_single_leaf(self):
        model = DecisionTree().fit(np.arange(8.0).reshape(4, 2), np.zeros(4, dtype=int))
        assert model.n_nodes == 1

    def test_depth_zero_majority_stump(self):
        X = np.arange(6.0).reshape(6, 1)
        y = np.array([0, 0, 0, 0, 1, 1])
        model = DecisionTree(TreeConfig(max_depth=0)).fit(X, y)
        assert model.n_nodes == 1
        assert (model.predict(X) == 0).all()

    def test_single_split_separable(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = DecisionTree().fit(X, y)
        assert model.n_nodes == 3  # one split, two leaves
        assert (model.predict(X) == y).all()
        assert model.tree_.threshold[0] == 1.5  # midpoint of 1 and 2

    def test_conflicting_duplicates_stop_splitting(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([0, 0, 1])
        model = DecisionTree().fit(X, y)
        assert model.n_nodes == 1
        assert model.predict_proba(X)[0, 1] == pytest.approx(1 / 3)

    def test_int_fast_path_equals_sort_path(self):
        rng = np.random.default_rng(32)
        X_int = rng.integers(0, 5, size=(60, 4)).astype(float)
        y = rng.integers(0, 2, size=60)
        t_int = DecisionTree().fit(X_int, y)
        # shifting by 0.5 forces the sort path but keeps the same ordering and
        # distinct-value structure; thresholds differ by the shift only
        t_sort = DecisionTree().fit(X_int + 0.5, y)
        assert np.array_equal(t_int.tree_.feature, t_sort.tree_.feature)
        internal = t_int.tree_.feature >= 0
        assert np.allclose(t_int.tree_.threshold[internal] + 0.5, t_sort.tree_.threshold[internal])
        assert np.array_equal(t_int.tree_.value, t_sort.tree_.value)


class TestRandomForest:
    def test_single_tree_reduction(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(50, 4))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForest(ForestConfig(n_trees=1, bootstrap=False, features_per_split=4, seed=1)).fit(X, y)
        tree = DecisionTree().fit(X, y)
        assert np.array_equal(forest.predict_proba(X), tree.predict_proba(X))

    def test_consistent_data_training_accuracy_one(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(100, 5))
        y = rng.integers(0, 2, size=100)
        forest = RandomForest(ForestConfig(n_trees=5, bootstrap=False, seed=2)).fit(X, y)
        assert (forest.predict(X) == y).all()

    def test_same_seed_same_forest_across_thread_counts(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(80, 4))
        y = (X[:, 1] > 0.2).astype(int)
        Q = rng.normal(size=(30, 4))
        a = RandomForest(ForestConfig(n_trees=12, seed=9)).fit(X, y)
        b = RandomForest(ForestConfig(n_trees=12, seed=9)).fit(X, y)
        assert np.array_equal(a.predict_proba(Q), b.predict_proba(Q))
        c = RandomForest(ForestConfig(n_trees=12, seed=10)).fit(X, y)
        assert not np.array_equal(a.predict_proba(Q), c.predict_proba(Q))

    def test_bootstrap_changes_trees(self):
        rng = np.random.default_rng(36)
        X = rng.normal(size=(60, 3))
        y = (X.sum(axis=1) > 0).astype(int)
        a = RandomForest(ForestConfig(n_trees=3, bootstrap=True, seed=1)).fit(X, y)
        b = RandomForest(ForestConfig(n_trees=3, bootstrap=False, seed=1)).fit(X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))


class TestForestImportance:
    def planted(self, rng, n=200, d=6):
        X = rng.normal(size=(n, d))
        y = (X[:, 2] > 0).astype(int)  # label is feature 2's sign
        return X, y

    def test_sums_to_one(self):
        rng = np.random.default_rng(37)
        X, y = self.planted(rng)
        forest = RandomForest(ForestConfig(n_trees=20, seed=3)).fit(X, y)
        imp = forest_importance(forest)
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)
        assert (imp >= 0).all()

    def test_planted_signal_ranked_first(self):
        rng = np.random.default_rng(38)
        X, y = self.planted(rng)
        forest = RandomForest(ForestConfig(n_trees=30, seed=4)).fit(X, y)
        assert int(np.argmax(forest_importance(forest))) == 2

    def test_unused_feature_zero(self):
        # feature 1 is constant: never splittable
        rng = np.random.default_rng(39)
        X = rng.normal(size=(100, 3))
        X[:, 1] = 7.0
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForest(ForestConfig(n_trees=10, seed=5)).fit(X, y)
        assert forest_importance(forest)[1] == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(40)
        X, y = self.planted(rng, n=150, d=5)
        cfg = ForestConfig(n_trees=10, bootstrap=True, features_per_split=5, seed=6)
        imp = forest_importance(RandomForest(cfg).fit(X, y))
        perm = np.array([3, 0, 4, 2, 1])
        imp_perm = forest_importance(RandomForest(cfg).fit(X[:, perm], y))
        assert np.allclose(imp_perm, imp[perm], atol=1e-12)

    def test_no_splits_errors(self):
        forest = RandomForest(ForestConfig(n_trees=3, seed=1)).fit(np.ones((10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="no tree performed any split"):
            forest_importance(forest)

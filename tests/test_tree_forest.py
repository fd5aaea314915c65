import numpy as np
import pytest

from adherence.learn import (
    DecisionTree,
    ForestConfig,
    GbtConfig,
    GradientBoostedTrees,
    RandomForest,
    TreeConfig,
)
from adherence import rng as rngmod
from adherence.features import ColumnCodes
from adherence.learn import forest as forestmod
from adherence.learn import tree as treemod


def _one_node(x, stats):
    """Histograms of a one-column X as one node: each cell's value, presence and prefix sums."""
    bins = ColumnCodes(x[:, None])
    present, left, code = treemod.histograms(bins, np.arange(x.size), np.zeros(x.size, dtype=np.int64), stats,
                                             np.zeros((1, 1), dtype=np.int64))
    return bins.values[code[0, 0]], present[0, 0], [s[0, 0] for s in left]  # one column: its slots start at 0


class TestSplitScan:
    def test_int_and_sort_paths_agree(self):
        # integer codes (with empty bins) and rank codes give the same candidates and prefix sums
        rng = np.random.default_rng(31)
        x = rng.choice([0.0, 1.0, 3.0, 4.0, 7.0], size=40)
        stats = [np.ones(40), rng.integers(0, 2, size=40).astype(float)]
        int_values, int_present, int_left = _one_node(x, stats)
        rank_values, rank_present, rank_left = _one_node(x + 0.5, stats)
        assert int_values.size == 8 and rank_values.size == 5  # own codes 0..7; five distinct values
        assert int_present.sum() == rank_present.sum() == 5
        assert np.array_equal(int_values[int_present] + 0.5, rank_values[rank_present])
        for a, b, stat in zip(int_left, rank_left, stats):
            assert np.array_equal(a[int_present], b[rank_present])
            assert np.array_equal(a[int_present], [stat[x <= v].sum() for v in int_values[int_present]])

    def test_constant_column_none(self):
        for x in (np.ones(5), np.full(5, 0.5)):
            y = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
            _, present, _ = _one_node(x, [np.ones(5), y])
            assert np.count_nonzero(present) == 1  # one present bin: no candidate
            assert DecisionTree().fit(x[:, None], y.astype(int)).n_nodes == 1

    def test_column_codes_detection(self):
        for col, own in (
            ([0.0, 4.0], True),  # small non-negative ints
            ([0.0, 32.0], True),
            ([0.5, 1.0], False),  # fractional
            ([3.0, -1.0], False),  # negative
            ([0.0, 33.0], False),  # beyond the largest own code
        ):
            bins = ColumnCodes(np.array(col)[:, None])
            if own:
                assert bins.codes[0].tolist() == col
                assert bins.values.tolist() == list(range(int(max(col)) + 1))
            else:
                assert bins.codes[0].tolist() == list(np.argsort(np.argsort(col)))
                assert bins.values.tolist() == sorted(col)
            assert bins.start.tolist() == [0] and bins.width == bins.values.size


def _oracle_data(rng, n=60):
    """An integer grid with ties, a continuous column and a rounded column."""
    X = np.column_stack([rng.integers(0, 4, size=n), rng.normal(size=n), rng.uniform(-1, 1, size=n).round(1)])
    y = (X[:, 0] + X[:, 1] + X[:, 2] + rng.normal(size=n) > 1.5).astype(np.int64)
    return X.astype(float), y


def _brute_force_split(X, y, w, eps):
    """Exhaustive midpoint scan: (feature, threshold) of the lowest child impurity, or None.

    Ties go to the lowest feature, then the lowest threshold; the split is kept
    only if its gain exceeds eps.
    """
    n, n1 = w.sum(), (w * y).sum()
    parent = n - (n1 * n1 + (n - n1) * (n - n1)) / n
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[w > 0, f])
        for a, b in zip(vals[:-1], vals[1:]):
            go = X[:, f] <= a
            nl, c1 = w[go].sum(), (w * y)[go].sum()
            nr, c1r = n - nl, n1 - c1
            score = -(nl - (c1 * c1 + (nl - c1) * (nl - c1)) / nl + nr - (c1r * c1r + (nr - c1r) * (nr - c1r)) / nr)
            if best is None or score > best[0]:
                best = (score, f, (a + b) / 2.0)
    return None if best is None or parent + best[0] <= eps else best[1:]


class TestLevelWiseOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_splits_match_exhaustive_scan(self, seed):
        rng = np.random.default_rng(50 + seed)
        X, y = _oracle_data(rng)
        w = np.bincount(rng.integers(0, X.shape[0], size=X.shape[0]), minlength=X.shape[0]).astype(float)
        (tree,) = treemod.grow_gini(X, ColumnCodes(X), y, w[None], TreeConfig(), [None])
        eps = max(1e-9, 1e-10 * X.shape[0])
        stack = [(0, w)]
        while stack:
            node, wn = stack.pop()
            n, n1 = wn.sum(), (wn * y).sum()
            expected = _brute_force_split(X, y, wn, eps) if 0 < n1 < n else None
            if tree.feature[node] < 0:
                assert expected is None
                continue
            assert (tree.feature[node], tree.threshold[node]) == expected
            go = X[:, tree.feature[node]] <= tree.threshold[node]
            stack += [(tree.left[node], wn * go), (tree.right[node], wn * ~go)]

    @pytest.mark.parametrize("seed", range(4))
    def test_weight_equals_repeated_rows(self, seed):
        rng = np.random.default_rng(60 + seed)
        X, y = _oracle_data(rng, n=40)
        w = rng.integers(0, 4, size=40)
        (weighted,) = treemod.grow_gini(X, ColumnCodes(X), y, w[None], TreeConfig(), [None])
        repeated = DecisionTree().fit(np.repeat(X, w, axis=0), np.repeat(y, w)).tree_
        for name in ("feature", "threshold", "left", "right", "value", "importance"):
            assert np.array_equal(getattr(weighted, name), getattr(repeated, name)), name

    @pytest.mark.parametrize("seed", range(3))
    def test_forest_together_equals_one_at_a_time(self, seed):
        rng = np.random.default_rng(70 + seed)
        X, y = _oracle_data(rng, n=80)
        X = np.column_stack([X, rng.normal(size=(80, 3))])
        cfg = TreeConfig(max_features=2, min_samples_split=3)
        weights = np.array([np.bincount(rng.integers(0, 80, size=80), minlength=80) for _ in range(5)])

        def rngs():
            return [rngmod.substream(seed, "forest-tree", t) for t in range(5)]

        together = treemod.grow_gini(X, ColumnCodes(X), y, weights, cfg, rngs())
        alone = [treemod.grow_gini(X, ColumnCodes(X), y, weights[t : t + 1], cfg, rngs()[t : t + 1])[0]
                 for t in range(5)]
        for a, b in zip(together, alone):
            for name in ("feature", "threshold", "left", "right", "value", "importance"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


    def test_small_histograms_grow_the_same_trees(self, monkeypatch):
        # chunks of nodes and blocks of feature slots keep the lowest-feature tie-break
        rng = np.random.default_rng(80)
        X, y = _oracle_data(rng, n=80)
        X = np.column_stack([X, rng.integers(0, 3, size=(80, 4))])
        fits = {
            "tree": lambda: DecisionTree().fit(X, y).tree_,
            "forest": lambda: RandomForest(ForestConfig(n_trees=4, features_per_split=3, seed=2)).fit(X, y).trees_,
            "gbt": lambda: GradientBoostedTrees(GbtConfig(n_rounds=3, max_depth=4)).fit(X, y).trees_,
        }
        wide = {kind: fit() for kind, fit in fits.items()}
        monkeypatch.setattr(treemod, "_CELLS", 24)
        for kind, fit in fits.items():
            assert _tree_bytes(fit()) == _tree_bytes(wide[kind]), kind


def _tree_bytes(trees):
    trees = trees if isinstance(trees, list) else [trees]
    return [getattr(t, name).tobytes() for t in trees for name in treemod._Tree.__slots__]


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

    def test_batches_of_trees_equal_one_batch(self, monkeypatch):
        rng = np.random.default_rng(37)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        cfg = ForestConfig(n_trees=7, min_samples_split=3, seed=4)
        together = RandomForest(cfg).fit(X, y).trees_
        monkeypatch.setattr(forestmod, "_SAMPLES", 130)  # two trees of 60 rows per batch
        assert _tree_bytes(RandomForest(cfg).fit(X, y).trees_) == _tree_bytes(together)


class TestForestImportance:
    def planted(self, rng, n=200, d=6):
        X = rng.normal(size=(n, d))
        y = (X[:, 2] > 0).astype(int)  # label is feature 2's sign
        return X, y

    def test_sums_to_one(self):
        rng = np.random.default_rng(37)
        X, y = self.planted(rng)
        forest = RandomForest(ForestConfig(n_trees=20, seed=3)).fit(X, y)
        imp = forest.feature_importances()
        assert imp.sum() == pytest.approx(1.0, abs=1e-9)
        assert (imp >= 0).all()

    def test_planted_signal_ranked_first(self):
        rng = np.random.default_rng(38)
        X, y = self.planted(rng)
        forest = RandomForest(ForestConfig(n_trees=30, seed=4)).fit(X, y)
        assert int(np.argmax(forest.feature_importances())) == 2

    def test_unused_feature_zero(self):
        # feature 1 is constant: never splittable
        rng = np.random.default_rng(39)
        X = rng.normal(size=(100, 3))
        X[:, 1] = 7.0
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForest(ForestConfig(n_trees=10, seed=5)).fit(X, y)
        assert forest.feature_importances()[1] == 0.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(40)
        X, y = self.planted(rng, n=150, d=5)
        cfg = ForestConfig(n_trees=10, bootstrap=True, features_per_split=5, seed=6)
        imp = RandomForest(cfg).fit(X, y).feature_importances()
        perm = np.array([3, 0, 4, 2, 1])
        imp_perm = RandomForest(cfg).fit(X[:, perm], y).feature_importances()
        assert np.allclose(imp_perm, imp[perm], atol=1e-12)

    def test_no_splits_errors(self):
        forest = RandomForest(ForestConfig(n_trees=3, seed=1)).fit(np.ones((10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError, match="no tree performed any split"):
            forest.feature_importances()

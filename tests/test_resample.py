import hashlib

import numpy as np
import pytest

from adherence.resample import ResampleConfig, adasyn_allocation, oversample

from conftest import make_dataset, random_imbalanced


def counts(ds):
    y = ds.labels()
    return int((y == 0).sum()), int((y == 1).sum())


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown resampling method"):
            ResampleConfig(method="ctgan")

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            ResampleConfig(method="smote", target_ratio=0.0)
        with pytest.raises(ValueError):
            ResampleConfig(method="smote", target_ratio=1.5)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ResampleConfig(method="smote", k_neighbors=0)


class TestRandomOversample:
    def test_balances_ten_four(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(14, 3))
        y = np.array([0] * 10 + [1] * 4)
        out = oversample(make_dataset(X, y), ResampleConfig(method="random", seed=1))
        assert counts(out) == (10, 10)

    def test_balanced_unchanged(self):
        ds = make_dataset(np.arange(8.0).reshape(4, 2), [0, 0, 1, 1])
        out = oversample(ds, ResampleConfig(method="random", seed=1))
        assert np.array_equal(out.X, ds.X)
        assert np.array_equal(out.y, ds.y)

    def test_synthetics_duplicate_minority_rows(self):
        rng = np.random.default_rng(2)
        ds = random_imbalanced(rng, 40, 4)
        out = oversample(ds, ResampleConfig(method="random", seed=3))
        originals = {row.tobytes() for row in ds.X[ds.labels() == 1]}
        for row in out.X[ds.n_rows :]:
            assert row.tobytes() in originals

    def test_single_class_errors(self):
        ds = make_dataset(np.zeros((4, 2)), [1, 1, 1, 1])
        with pytest.raises(ValueError, match="both classes"):
            oversample(ds, ResampleConfig(method="random"))


class TestSmote:
    def test_two_point_segment(self):
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [5.0, 0.0], [5.0, 1.0], [6.0, 0.0], [6.0, 1.0]],
                          [1, 1, 0, 0, 0, 0])
        out = oversample(ds, ResampleConfig(method="smote", k_neighbors=1, seed=4))
        synth = out.X[ds.n_rows :]
        assert synth.shape == (2, 2)
        # interpolation between (0,0) and (1,1): x == y in [0, 1]
        assert np.allclose(synth[:, 0], synth[:, 1])
        assert (synth >= 0.0).all() and (synth <= 1.0).all()

    def test_identical_minority_degenerate(self):
        ds = make_dataset([[2.0, 3.0]] * 3 + [[9.0, 9.0]] * 7, [1] * 3 + [0] * 7)
        out = oversample(ds, ResampleConfig(method="smote", seed=5))
        assert np.array_equal(out.X[ds.n_rows :], np.tile([2.0, 3.0], (4, 1)))

    def test_segment_property_brute_force(self):
        rng = np.random.default_rng(6)
        ds = random_imbalanced(rng, 60, 5, pos_fraction=0.25)
        cfg = ResampleConfig(method="smote", k_neighbors=5, seed=7)
        out = oversample(ds, cfg)
        X_min = ds.X[ds.labels() == 1]
        assert_segment_property(out.X[ds.n_rows :], X_min, cfg.k_neighbors)

    def test_minority_too_small_errors(self):
        ds = make_dataset(np.arange(10.0).reshape(5, 2), [0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="at least 2 minority rows"):
            oversample(ds, ResampleConfig(method="smote"))

    def test_bounding_box(self):
        rng = np.random.default_rng(8)
        ds = random_imbalanced(rng, 80, 3, pos_fraction=0.2)
        out = oversample(ds, ResampleConfig(method="smote", seed=9))
        X_min = ds.X[ds.labels() == 1]
        synth = out.X[ds.n_rows :]
        assert (synth >= X_min.min(axis=0) - 1e-12).all()
        assert (synth <= X_min.max(axis=0) + 1e-12).all()


def on_segment(s, a, b):
    """Whether s = a + lam * (b - a) for some lam in [0, 1]."""
    direction = b - a
    denom = float(direction @ direction)
    if denom == 0.0:
        return np.allclose(s, a, atol=1e-9)
    lam = float((s - a) @ direction) / denom
    return -1e-9 <= lam <= 1 + 1e-9 and np.allclose(a + lam * direction, s, atol=1e-9)


def assert_segment_property(synthetics, X_min, k):
    """Brute force: each synthetic lies on a segment from a minority row to one
    of its k nearest minority neighbors."""
    n = X_min.shape[0]
    d2 = ((X_min[:, None, :] - X_min[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    k = min(k, n - 1)
    for s in synthetics:
        assert any(on_segment(s, X_min[a], X_min[b])
                   for a in range(n) for b in np.argsort(d2[a], kind="stable")[:k]), \
            f"synthetic {s} lies on no valid minority segment"


def adasyn_oracle_allocation(X, y, k, need):
    """Independent r_i computation with python loops."""
    min_idx = [i for i in range(len(y)) if y[i] == 1]
    r = []
    for i in min_idx:
        dists = sorted(
            (sum((X[i][c] - X[j][c]) ** 2 for c in range(len(X[i]))), j)
            for j in range(len(y))
            if j != i
        )
        neighbors = [j for _, j in dists[:k]]
        r.append(sum(1 for j in neighbors if y[j] == 0) / k)
    total = sum(r)
    if total == 0:
        quotas = [need / len(min_idx)] * len(min_idx)
    else:
        quotas = [need * ri / total for ri in r]
    alloc = [int(np.floor(q)) for q in quotas]
    remainder = need - sum(alloc)
    order = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - np.floor(quotas[i])), i))
    for i in order[:remainder]:
        alloc[i] += 1
    return alloc


class TestAdasyn:
    def fixed_20_points(self):
        # 6 minority: two deep inside the majority cloud (hard), four clustered
        # far away (easy; with k=3 their neighborhoods are pure minority)
        X = np.zeros((20, 2))
        X[:14] = np.mgrid[0:7, 0:2].reshape(2, -1).T  # majority grid
        X[14] = [1.4, 0.6]   # hard: surrounded by majority
        X[15] = [4.4, 0.6]   # hard
        X[16] = [30.0, 30.0]  # easy cluster
        X[17] = [30.5, 30.0]
        X[18] = [30.0, 30.5]
        X[19] = [30.5, 30.5]
        y = np.array([0] * 14 + [1] * 6)
        return make_dataset(X, y)

    def test_allocation_matches_brute_force(self):
        ds = self.fixed_20_points()
        cfg = ResampleConfig(method="adasyn", k_neighbors=3, seed=10)
        alloc = adasyn_allocation(ds, cfg)
        need = 14 - 6
        oracle = adasyn_oracle_allocation(ds.X.tolist(), ds.labels().tolist(), 3, need)
        assert list(alloc) == oracle
        assert alloc.sum() == need

    def test_hard_points_get_more(self):
        ds = self.fixed_20_points()
        alloc = adasyn_allocation(ds, ResampleConfig(method="adasyn", k_neighbors=3, seed=0))
        # X[14], X[15] have all-majority neighborhoods; the far cluster is pure minority
        assert alloc[0] > 0 and alloc[1] > 0
        assert list(alloc[2:]) == [0, 0, 0, 0]

    def test_pure_minority_cluster_uniform_fallback(self):
        X = np.vstack([np.zeros((3, 2)) + [50.0, 50.0] + np.arange(3)[:, None] * 0.1,
                       np.random.default_rng(1).normal(size=(9, 2))])
        y = np.array([1] * 3 + [0] * 9)
        ds = make_dataset(X, y)
        cfg = ResampleConfig(method="adasyn", k_neighbors=2, seed=11)
        alloc = adasyn_allocation(ds, cfg)
        assert alloc.sum() == 6
        assert alloc.max() - alloc.min() <= 1  # uniform split of 6 over 3
        out = oversample(ds, cfg)
        assert counts(out) == (9, 9)

    def test_minority_too_small_errors(self):
        ds = make_dataset(np.arange(10.0).reshape(5, 2), [0, 0, 0, 0, 1])
        with pytest.raises(ValueError, match="at least 2 minority rows"):
            oversample(ds, ResampleConfig(method="adasyn"))

    def test_each_row_is_the_base_of_its_allocation(self):
        # Synthetic rows come in base-row order: the first alloc[0] grow from
        # minority row 0, and so on. Each lies on the segment from its base row
        # to one of that row's k nearest minority neighbours.
        rng = np.random.default_rng(16)
        ds = random_imbalanced(rng, 70, 3, pos_fraction=0.2)
        cfg = ResampleConfig(method="adasyn", k_neighbors=4, seed=17)
        alloc = adasyn_allocation(ds, cfg)
        synth = oversample(ds, cfg).X[ds.n_rows :]
        assert synth.shape[0] == alloc.sum()
        X_min = ds.X[ds.labels() == 1]
        d2 = ((X_min[:, None, :] - X_min[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        ends = np.cumsum(alloc)
        for i, (lo, hi) in enumerate(zip(ends - alloc, ends)):
            a = X_min[i]
            for s in synth[lo:hi]:
                assert any(on_segment(s, a, X_min[j]) for j in np.argsort(d2[i], kind="stable")[:4]), (i, s)


class TestCommonProperties:
    @pytest.mark.parametrize("method", ["random", "smote", "adasyn"])
    def test_balance_within_one_row(self, method):
        rng = np.random.default_rng(12)
        for trial in range(20):
            n = int(rng.integers(20, 120))
            ds = random_imbalanced(rng, n, int(rng.integers(2, 6)), pos_fraction=float(rng.uniform(0.1, 0.45)))
            n_low, n_high = counts(ds)
            # target at or above the current ratio; oversampling never removes rows
            ratio = float(rng.uniform(min(1.0, n_high / n_low), 1.0))
            cfg = ResampleConfig(method=method, seed=trial, target_ratio=ratio)
            out = oversample(ds, cfg)
            n_low, n_high = counts(out)
            assert abs(n_high - ratio * n_low) <= 1.0

    @pytest.mark.parametrize("method", ["random", "smote", "adasyn"])
    def test_majority_rows_untouched(self, method):
        rng = np.random.default_rng(13)
        ds = random_imbalanced(rng, 50, 4)
        out = oversample(ds, ResampleConfig(method=method, seed=3))
        assert np.array_equal(out.X[: ds.n_rows], ds.X)
        assert np.array_equal(out.y[: ds.n_rows], ds.y)

    @pytest.mark.parametrize("method", ["random", "smote", "adasyn"])
    def test_deterministic_and_thread_invariant(self, method):
        rng = np.random.default_rng(14)
        ds = random_imbalanced(rng, 90, 6)
        a = oversample(ds, ResampleConfig(method=method, seed=5))
        b = oversample(ds, ResampleConfig(method=method, seed=5))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        c = oversample(ds, ResampleConfig(method=method, seed=6))
        if method != "random":
            assert not np.array_equal(a.X, c.X)

    def test_minority_zero_label(self):
        # minority can be class 0 as well
        rng = np.random.default_rng(15)
        X = rng.normal(size=(12, 3))
        y = np.array([1] * 9 + [0] * 3)
        out = oversample(make_dataset(X, y), ResampleConfig(method="smote", seed=1))
        assert counts(out) == (9, 9)


# SHA-256 of oversample output (X bytes, then y as little-endian int64) on
# _pin_dataset(). SMOTE's was recorded before k-NN and the resamplers shared one
# neighbour search, random's before the three methods shared one routine. A
# change to distances, tie-breaks, self-exclusion or RNG use changes them.
# ADASYN's was re-recorded when it began to draw its neighbour picks and
# interpolation fractions as two vectors, where it drew one (pick, fraction)
# pair per synthetic row; its allocation did not change.
PINNED = {
    "random": "2746244e42ad30e2a96f5507c660edb805888caf50a836554daecbddc95ec080",
    "smote": "fdda235f0654d702eaf990b4f4c062e79805db379cdc1c30cd66ca50909cc2c6",
    "adasyn": "44e4bb18a6718f977a748e895fad12782d6eedbab0d8ee2932e9e4693f6f0473",
}


def _pin_dataset():
    """3,000 x 40 rows, 20% minority, with duplicate minority rows (exact
    distance ties) and minority copies of majority rows; every neighbour
    search spans several distance chunks."""
    rng = np.random.default_rng(2026)
    n, d, n_pos = 3000, 40, 600
    X = rng.normal(size=(n, d))
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, size=n_pos, replace=False)] = 1
    X[y == 1] += 0.3
    pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    X[pos[100:160]] = X[pos[:60]]
    X[pos[200:230]] = X[neg[:30]]
    return make_dataset(X, y)


@pytest.mark.parametrize("method", sorted(PINNED))
def test_oversample_output_pinned(method):
    out = oversample(_pin_dataset(), ResampleConfig(method=method, seed=31))
    assert out.n_rows == 4800
    h = hashlib.sha256(out.X.tobytes())
    h.update(out.y.astype("<i8").tobytes())
    assert h.hexdigest() == PINNED[method]

import math

import numpy as np
import pytest

from adherence.learn import KnnClassifier, KnnConfig
from adherence.learn import knn as knnmod

from conftest import run_python


def brute_force_knn_proba(X_train, y_train, queries, k):
    """Independent oracle: python loops, sorted by (distance, index)."""
    out = []
    for q in queries:
        dists = []
        for idx, row in enumerate(X_train):
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(row, q)))
            dists.append((d, idx))
        dists.sort()
        nearest = [y_train[i] for _, i in dists[:k]]
        out.append(sum(nearest) / k)
    return np.array(out)


class TestKnn:
    def test_k1_exact_match(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        y = np.array([0, 1])
        model = KnnClassifier(KnnConfig(k=1)).fit(X, y)
        proba = model.predict_proba(np.array([[5.0, 5.0]]))
        assert proba[0, 1] == 1.0
        assert model.predict(np.array([[5.0, 5.0]]))[0] == 1

    def test_k2_split_vote_classified_zero(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        model = KnnClassifier(KnnConfig(k=2)).fit(X, y)
        proba = model.predict_proba(np.array([[0.5]]))
        assert proba[0, 1] == 0.5
        assert model.predict(np.array([[0.5]]))[0] == 0  # tie goes to class 0

    def test_k_exceeds_train_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            KnnClassifier(KnnConfig(k=5)).fit(np.zeros((3, 2)), np.array([0, 1, 0]))

    def test_distance_ties_broken_by_index(self):
        # two training points at identical distance but different labels
        X = np.array([[1.0], [-1.0], [9.0]])
        y = np.array([1, 0, 0])
        model = KnnClassifier(KnnConfig(k=1)).fit(X, y)
        assert model.predict_proba(np.array([[0.0]]))[0, 1] == 1.0  # index 0 wins

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            n = int(rng.integers(20, 80))
            d = int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n)
            queries = rng.normal(size=(10, d))
            k = int(rng.integers(1, min(8, n)))
            model = KnnClassifier(KnnConfig(k=k)).fit(X, y)
            proba = model.predict_proba(queries)
            oracle = brute_force_knn_proba(X, y, queries, k)
            assert np.allclose(proba[:, 1], oracle, atol=1e-12)

    def test_oracle_with_duplicate_training_points(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1, 0, 1, 0])
        model = KnnClassifier(KnnConfig(k=2)).fit(X, y)
        proba = model.predict_proba(np.array([[1.0, 1.0]]))
        oracle = brute_force_knn_proba(X, y, [[1.0, 1.0]], 2)
        assert proba[0, 1] == oracle[0]

    def test_width_mismatch(self):
        model = KnnClassifier(KnnConfig(k=1)).fit(np.zeros((2, 3)), np.array([0, 1]))
        with pytest.raises(ValueError, match="feature column"):
            model.predict_proba(np.zeros((1, 2)))


def direct_nearest(queries, pool, k, exclude=None):
    """The search `nearest` replaced, kept as its oracle: every distance in the
    difference form, then a stable argsort over all pool rows."""
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    chunk = max(1, int(250_000 / max(1, pool.shape[0] * pool.shape[1])))
    for lo in range(0, queries.shape[0], chunk):
        hi = min(lo + chunk, queries.shape[0])
        diff = queries[lo:hi, None, :] - pool[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        if exclude is not None:
            d2[np.arange(hi - lo), exclude[lo:hi]] = np.inf
        out[lo:hi] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def _duplicate_ties(rng):
    # 12 distinct rows, about 25 copies each: k=25 cuts through runs of equal distances
    base = rng.integers(0, 3, size=(12, 115)).astype(float)
    pool = base[rng.integers(0, 12, size=300)]
    queries = np.vstack([base, pool[:28] + 0.5])
    d2 = np.sort(((queries[:, None, :] - pool[None, :, :]) ** 2).sum(axis=2), axis=1)
    assert (d2[:, 24] == d2[:, 25]).any()
    return queries, pool, 25, None


def _large_norm(rng):
    pool = rng.normal(size=(500, 20)) * 1e6 + 1e9
    queries = pool[rng.integers(0, 500, size=40)] + rng.normal(size=(40, 20)) * 1e5
    return queries, pool, 7, None


def _large_norm_small_gaps(rng):
    # distances of a few units under norms of 1e9: the estimate cannot order them
    pool = 1e9 + rng.integers(0, 4, size=(300, 20)).astype(float)
    return pool[:30], pool, 6, None


def _self_search(rng):
    X = rng.normal(size=(250, 115))
    X[125:200] = X[:75]
    return X, X, 5, np.arange(250)


def _k_equals_pool(rng):
    pool = rng.integers(0, 2, size=(40, 6)).astype(float)
    return rng.normal(size=(10, 6)), pool, 40, None


def _k_equals_pool_self(rng):
    X = rng.normal(size=(30, 4))
    return X, X, 30, np.arange(30)


def _one_query(rng):
    pool = rng.normal(size=(300, 115))
    return pool[7:8] + 0.01, pool, 30, None


def _one_query_per_block(rng):
    pool = rng.integers(0, 50, size=(knnmod._TEMP_FLOATS // 2 + 1, 3)).astype(float)
    assert knnmod._TEMP_FLOATS // pool.shape[0] == 1
    return pool[rng.integers(0, pool.shape[0], size=4)], pool, 10, None


SEARCHES = [_duplicate_ties, _large_norm, _large_norm_small_gaps, _self_search, _k_equals_pool,
            _k_equals_pool_self, _one_query, _one_query_per_block]


@pytest.mark.parametrize("case", SEARCHES, ids=[c.__name__.lstrip("_") for c in SEARCHES])
def test_nearest_equals_direct_search(case):
    queries, pool, k, exclude = case(np.random.default_rng(52))
    got = knnmod.nearest(queries, pool, k, exclude)
    assert got.dtype == np.int64
    assert np.array_equal(got, direct_nearest(queries, pool, k, exclude))


_THREADED_SEARCH = """
import sys
import numpy as np
from adherence.learn.knn import nearest
X = np.random.default_rng(53).normal(size=(400, 115))
sys.stdout.write(nearest(X, X, 5, exclude=np.arange(400)).tobytes().hex())
"""


def test_same_neighbours_at_any_blas_thread_count():
    found = []
    for threads in ("1", "2"):
        proc = run_python(["-c", _THREADED_SEARCH], OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        found.append(np.frombuffer(bytes.fromhex(proc.stdout), dtype=np.int64).reshape(400, 5))
    X = np.random.default_rng(53).normal(size=(400, 115))
    assert np.array_equal(found[0], found[1])
    assert np.array_equal(found[0], direct_nearest(X, X, 5, np.arange(400)))

"""Nearest-neighbor dispersion estimator tests."""

import warnings
from itertools import permutations

import numpy as np
import pytest

from confband.regressors.knn import KnnDispersion


def test_single_row_predicts_that_residual():
    model = KnnDispersion(k=1).fit([[0.0]], [2.5])
    grid = np.array([[-3.0], [0.0], [9.0]])
    assert np.allclose(model.predict(grid), 2.5)


def test_two_nearest_rows_are_averaged():
    X = np.array([[0.0], [1.0], [10.0]])
    residuals = np.array([1.0, 3.0, 100.0])
    model = KnnDispersion(k=2).fit(X, residuals)
    assert model.predict([[0.4]])[0] == pytest.approx(2.0)
    assert model.predict([[9.0]])[0] == pytest.approx(51.5)


def test_rows_tied_at_the_kth_distance_share_its_weight_in_any_row_order():
    # at the query 0 the row at 0 is nearest, and the rows at 1 and -1 tie for
    # the one place left: each gets half of it, (0 + 10 / 2 + 20 / 2) / 2 = 7.5
    X = np.array([0.0, 1.0, -1.0, 2.0, 5.0, 6.0])
    residuals = np.array([0.0, 10.0, 20.0, 0.0, 3.0, 3.0])
    reads = {
        KnnDispersion(k=2).fit(X[order, None], residuals[order]).predict([[0.0]])[0]
        for order in map(list, permutations(range(6)))
    }
    assert reads == {7.5}


def test_constant_residual_field_is_reproduced_everywhere():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 2))
    model = KnnDispersion(k=7).fit(X, np.full(30, 0.8))
    assert np.allclose(model.predict(rng.normal(size=(20, 2))), 0.8)


def test_full_neighborhood_returns_global_mean():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(15, 1))
    residuals = np.abs(rng.normal(size=15))
    model = KnnDispersion(k=15).fit(X, residuals)
    assert model.predict([[0.3]])[0] == pytest.approx(float(residuals.mean()))


def test_matches_brute_force_neighbor_average():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 3))
    residuals = np.abs(rng.normal(size=40))
    k = 5
    model = KnnDispersion(k=k).fit(X, residuals)
    queries = rng.normal(size=(12, 3))
    got = model.predict(queries)
    for i, q in enumerate(queries):
        dist = np.sqrt(((X - q) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:k]
        assert got[i] == pytest.approx(float(residuals[nearest].mean()))


def test_predictions_are_never_negative():
    rng = np.random.default_rng(44)
    X = rng.normal(size=(25, 2))
    residuals = np.abs(rng.normal(size=25))
    model = KnnDispersion(k=3).fit(X, residuals)
    assert (model.predict(rng.normal(size=(40, 2))) >= 0).all()


def test_k_larger_than_sample_is_rejected():
    with pytest.raises(ValueError):
        KnnDispersion(k=4).fit(np.ones((3, 1)), np.ones(3))


def test_invalid_k_and_negative_residuals_are_rejected():
    with pytest.raises(ValueError):
        KnnDispersion(k=0)
    with pytest.raises(ValueError):
        KnnDispersion(k=2).fit([[0.0], [1.0]], [1.0, -0.5])


@pytest.mark.parametrize("k", [2.5, 2.0, "2", True])
def test_a_non_integer_k_is_rejected(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        KnnDispersion(k=k)
    assert KnnDispersion(k=np.int64(2)).k == 2


def test_distances_that_overflow_a_float_are_a_value_error():
    # past about 1e154 squared differences overflow, far rows tie at inf and the
    # k nearest are lost: at 1e200 the two queries below read [18, 51]
    X = np.array([[1.0], [2.0], [3.0], [9.0]])
    residuals = np.array([1.0, 2.0, 3.0, 100.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = KnnDispersion(k=2).fit(X * 10.0, residuals)
        assert near.predict(X[[0, 3]] * 10.0).tolist() == [1.5, 51.5]
        far = KnnDispersion(k=2).fit(X * 1e200, residuals)
        with pytest.raises(ValueError, match="distances between rows overflow a float"):
            far.predict(X[[0, 3]] * 1e200)


def test_distances_match_scipy_cdist_bit_for_bit():
    from scipy.spatial.distance import cdist

    from confband.regressors.knn import _euclidean

    rng = np.random.default_rng(11)
    for p in range(1, 17):
        scale = 10.0 ** rng.uniform(-3, 3, size=p)
        A = rng.normal(size=(23, p)) * scale
        B = rng.normal(size=(31, p)) * scale
        assert _euclidean(A, B).tobytes() == cdist(A, B).tobytes()

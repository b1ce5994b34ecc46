"""Closed-form ridge regression tests against hand-solvable cases."""

import warnings

import numpy as np
import pytest

from confband.regressors.ridge import (
    DEFAULT_L2_GRID,
    RidgeRegressor,
    cross_validate_l2,
)


def test_unpenalized_fit_recovers_exact_line():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    model = RidgeRegressor(0.0).fit(X, y)
    assert model.predict([[4.0]])[0] == pytest.approx(8.0, abs=1e-9)


def test_constant_response_predicts_constant():
    model = RidgeRegressor(0.0).fit([[1.0], [2.0]], [1.0, 1.0])
    grid = np.array([[-5.0], [0.0], [17.0]])
    assert np.allclose(model.predict(grid), 1.0, atol=1e-12)


def test_huge_penalty_shrinks_to_response_mean():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    model = RidgeRegressor(1e12).fit(X, y)
    assert model.predict([[4.0]])[0] == pytest.approx(4.0, abs=1e-9)
    assert model.predict([[-100.0]])[0] == pytest.approx(4.0, abs=1e-6)


def test_penalty_never_applies_to_the_intercept():
    # centered data keep a zero slope, so any penalty must leave the
    # intercept at the response mean
    X = np.array([[-1.0], [1.0]])
    y = np.array([10.0, 10.0])
    for lam in (0.0, 1.0, 1e6):
        model = RidgeRegressor(lam).fit(X, y)
        assert model.predict([[0.0]])[0] == pytest.approx(10.0, abs=1e-9)


def test_multifeature_fit_matches_normal_equations():
    rng = np.random.default_rng(51)
    X = rng.normal(size=(60, 3))
    beta = np.array([1.5, -2.0, 0.5])
    y = X @ beta + 4.0 + 0.01 * rng.normal(size=60)
    lam = 0.7
    model = RidgeRegressor(lam).fit(X, y)

    # independent solve of the centered penalized normal equations
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    coef = np.linalg.solve(Xc.T @ Xc + lam * np.eye(3), Xc.T @ (y - y_mean))
    X_new = rng.normal(size=(10, 3))
    want = (X_new - x_mean) @ coef + y_mean
    assert np.allclose(model.predict(X_new), want, atol=1e-10)


def test_translation_and_scale_equivariance_without_penalty():
    rng = np.random.default_rng(66)
    X = rng.normal(size=(40, 2))
    y = rng.normal(size=40)
    X_new = rng.normal(size=(7, 2))
    base = RidgeRegressor(0.0).fit(X, y).predict(X_new)
    shifted = RidgeRegressor(0.0).fit(X, y + 3.25).predict(X_new)
    scaled = RidgeRegressor(0.0).fit(X, y * -1.75).predict(X_new)
    assert np.allclose(shifted, base + 3.25, atol=1e-10)
    assert np.allclose(scaled, base * -1.75, atol=1e-10)


def test_cross_validation_returns_grid_member_and_prefers_low_noise_fit():
    rng = np.random.default_rng(77)
    X = rng.normal(size=(100, 2))
    y = X @ np.array([2.0, -1.0]) + 0.01 * rng.normal(size=100)
    lam = cross_validate_l2(X, y, rng=np.random.default_rng(1))
    assert lam in DEFAULT_L2_GRID
    # near-noiseless linear data should not pick a heavy penalty
    assert lam <= 1.0


@pytest.mark.parametrize(
    "grid, smallest", [(DEFAULT_L2_GRID, 1e-3), ((10.0, 0.1, 1.0), 0.1)], ids=["default", "unsorted"]
)
def test_cross_validation_ties_go_to_the_smaller_penalty(grid, smallest):
    # a constant feature makes every penalty predict the fold mean: an exact tie
    y = np.random.default_rng(5).normal(size=30)
    assert cross_validate_l2(np.full((30, 1), 2.0), y, grid=grid) == smallest


def test_cross_validation_needs_enough_rows():
    with pytest.raises(ValueError):
        cross_validate_l2(np.ones((3, 1)), np.ones(3), n_folds=5)


@pytest.mark.parametrize("n_folds, message", [(1, "must be >= 2, got 1"), (2.5, "must be an integer")])
def test_cross_validation_rejects_a_bad_fold_count(n_folds, message):
    with pytest.raises(ValueError, match=f"n_folds {message}"):
        cross_validate_l2(np.ones((10, 1)), np.ones(10), n_folds=n_folds)


def test_fit_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        RidgeRegressor(0.0).fit([[1.0], [2.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        RidgeRegressor(-1.0)


def test_ridge_rejects_negative_l2_weight():
    assert RidgeRegressor().l2_weight == 0.0
    assert RidgeRegressor(2.5).l2_weight == 2.5
    with pytest.raises(ValueError, match="l2_weight must be >= 0"):
        RidgeRegressor(-1.0)


@pytest.mark.parametrize("l2_weight", [float("nan"), float("inf")])
def test_ridge_rejects_a_non_finite_l2_weight(l2_weight):
    with pytest.raises(ValueError, match="l2_weight must be >= 0 and finite"):
        RidgeRegressor(l2_weight)


def test_collinear_features_without_a_penalty_are_singular():
    # the second column is twice the first, so at l2_weight 0 the Gram matrix is singular
    X = np.c_[np.arange(5.0), 2.0 * np.arange(5.0)]
    with pytest.raises(ValueError, match="^singular normal equations; use l2_weight > 0$"):
        RidgeRegressor(0.0).fit(X, np.arange(5.0))
    assert np.all(np.isfinite(RidgeRegressor(1e-9).fit(X, np.arange(5.0)).coef_))


def test_a_fit_whose_normal_equations_overflow_is_a_value_error():
    # n * max|y| = 2**1023 passes the response bound, but the feature spread of 8
    # takes X.T @ y to 2**1024: the fit is refused rather than read as NaN
    X, y = [[0.0], [8.0]], [0.0, 2.0**1022]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="the normal equations overflow a float"):
            RidgeRegressor(1.0).fit(X, y)
        assert np.all(np.isfinite(RidgeRegressor(1.0).fit([[0.0], [1.0]], y).predict(X)))

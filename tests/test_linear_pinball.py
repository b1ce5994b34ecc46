"""Subgradient-descent linear quantile model tests.

The key oracle is the constant-model identity: with uninformative
features the pinball minimizer is the empirical sample quantile, which
the exact order-statistic code computes independently.
"""

import warnings

import numpy as np
import pytest

from confband.losses import PinballLoss
from confband.quantiles import SortedSample
from confband.regressors.linear import (
    LinearMedianRegressor,
    LinearPinballModel,
    LinearQuantilePair,
)


def test_constant_model_converges_to_median_of_integers():
    X = np.zeros((99, 1))
    y = np.arange(1.0, 100.0)
    model = LinearPinballModel(0.5).fit(X, y)
    assert model.predict([[0.0]])[0] == pytest.approx(50.0, abs=1.0)


def test_constant_model_converges_to_low_quantile_of_integers():
    X = np.zeros((99, 1))
    y = np.arange(1.0, 100.0)
    model = LinearPinballModel(0.05).fit(X, y)
    assert model.predict([[0.0]])[0] == pytest.approx(5.0, abs=2.0)


def test_fitted_constant_tracks_the_empirical_quantile():
    # the optimizer may stop a hair away from the minimizer, so compare
    # both the location and the achieved loss against the exact quantile
    rng = np.random.default_rng(88)
    y = rng.standard_normal(400)
    X = np.zeros((400, 1))
    level = 0.25
    fitted = LinearPinballModel(level).fit(X, y).predict([[0.0]])[0]
    exact = SortedSample(y).quantile(level)
    assert fitted == pytest.approx(exact, abs=0.05)
    loss = PinballLoss(level)
    assert loss.mean_loss(y, fitted) <= loss.mean_loss(y, exact) + 1e-3


def test_noise_free_line_is_recovered_at_both_levels():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2.0, 2.0, size=(200, 1))
    y = 3.0 * X[:, 0] + 1.0
    pair = LinearQuantilePair(epochs=4000).fit(X, y, 0.1, 0.9)
    lo, hi = pair.predict_pair(X)
    assert np.abs(lo - y).max() <= 1e-2
    assert np.abs(hi - y).max() <= 1e-2


def test_quantile_pair_orders_levels_on_noisy_data():
    rng = np.random.default_rng(59)
    X = rng.uniform(0.0, 4.0, size=(500, 1))
    y = 0.5 * X[:, 0] + rng.standard_normal(500)
    pair = LinearQuantilePair().fit(X, y, 0.05, 0.95)
    lo, hi = pair.predict_pair(X)
    assert np.mean(lo < hi) > 0.99
    assert np.mean((y >= lo) & (y <= hi)) == pytest.approx(0.9, abs=0.06)


def test_a_pair_refit_that_fails_at_its_upper_level_keeps_the_first_pair(monkeypatch):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 2))
    y = X[:, 0] + rng.standard_normal(60)
    pair = LinearQuantilePair(epochs=20).fit(X, y, 0.1, 0.9)
    want = [half.tobytes() for half in pair.predict_pair(X)]
    fit = LinearPinballModel.fit

    def fit_failing_at_08(model, X, y):
        if model.pinball.alpha == 0.8:
            raise ValueError("diverged; reduce learning rate")
        return fit(model, X, y)

    monkeypatch.setattr(LinearPinballModel, "fit", fit_failing_at_08)
    with pytest.raises(ValueError, match="diverged"):
        pair.fit(X, y, 0.2, 0.8)
    assert [half.tobytes() for half in pair.predict_pair(X)] == want


def test_median_regressor_matches_median_model():
    rng = np.random.default_rng(72)
    X = rng.normal(size=(150, 2))
    y = X @ np.array([1.0, -0.5]) + rng.standard_normal(150)
    direct = LinearPinballModel(0.5).fit(X, y)
    wrapped = LinearMedianRegressor().fit(X, y)
    grid = rng.normal(size=(9, 2))
    assert np.array_equal(wrapped.predict(grid), direct.predict(grid))


def _fit_by_the_where_epoch(X, y, alpha, epochs):
    """The fit as first written: a nested ``np.where`` subgradient, an ``np.sqrt``
    step and ``np.mean`` for the intercept. Returns (coef, intercept, kink hits)."""
    n = X.shape[0]
    scale = float(np.mean(np.abs(y)))
    if scale == 0.0:
        scale = 1.0
    ys = y / scale
    w, b, kinks = np.zeros(X.shape[1]), 0.0, 0
    for t in range(epochs):
        pred = X @ w + b
        kinks += int(np.count_nonzero(ys == pred))
        g = np.where(ys > pred, -alpha, np.where(ys < pred, 1.0 - alpha, 0.0))
        step = 0.5 / np.sqrt(1.0 + t)
        w -= step * (X.T @ g) / n
        b -= step * float(np.mean(g))
    return w, b, kinks


def test_the_epoch_matches_the_where_epoch_bit_for_bit():
    # integer rows land on the kink; normal rows almost never do; an all-zero
    # response fits at unit scale
    rng = np.random.default_rng(38)
    kinks = 0
    for case in range(48):
        n, p = int(rng.integers(5, 121)), int(rng.integers(1, 4))
        alpha = (0.05, 0.3, 0.5, 0.95)[case % 4]
        if case % 3 == 0:
            X = rng.integers(-2, 3, size=(n, p)) * 1.0
            y = rng.integers(-3, 4, size=n) * 1.0
        else:
            X, y = rng.normal(size=(n, p)), rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        if case == 47:
            y = np.zeros(n)
        want_w, want_b, hits = _fit_by_the_where_epoch(X, y, alpha, 150)
        kinks += hits
        model = LinearPinballModel(alpha, epochs=150).fit(X, y)
        assert model.coef_.tobytes() == want_w.tobytes(), case
        assert np.float64(model.intercept_).tobytes() == np.float64(want_b).tobytes(), case
    assert kinks > 0


def test_same_data_gives_identical_fits():
    rng = np.random.default_rng(91)
    X = rng.normal(size=(80, 1))
    y = rng.normal(size=80)
    a = LinearPinballModel(0.3).fit(X, y)
    b = LinearPinballModel(0.3).fit(X, y)
    grid = rng.normal(size=(15, 1))
    assert np.array_equal(a.predict(grid), b.predict(grid))


def test_an_all_zero_response_fits_at_unit_scale_and_reads_zero():
    # the response scale is mean |y|; an all-zero y is divided by 1, not by 0
    X = np.random.default_rng(0).normal(size=(10, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = LinearPinballModel(0.9, epochs=50).fit(X, np.zeros(10))
    assert np.array_equal(model.predict(X), np.zeros(10))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exploding_learning_rate_raises_divergence_error():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(50, 1)) * 1e200
    y = rng.normal(size=50)
    # one epoch overflows w while b stays finite; later epochs turn b into NaN too
    for epochs in (1, 2000):
        with pytest.raises(ValueError, match="diverged; reduce learning rate"):
            LinearPinballModel(0.5, epochs=epochs, learning_rate=1e200).fit(X, y)


def test_invalid_settings_are_rejected():
    with pytest.raises(ValueError):
        LinearPinballModel(0.5, epochs=0)
    with pytest.raises(ValueError):
        LinearPinballModel(0.5, learning_rate=0.0)
    with pytest.raises(ValueError):
        LinearQuantilePair().fit(np.zeros((5, 1)), np.zeros(5), 0.9, 0.1)


@pytest.mark.parametrize(
    "setting, message",
    [
        (dict(epochs=2.5), "epochs must be an integer"),
        (dict(epochs="10"), "epochs must be an integer"),
        (dict(learning_rate=float("nan")), "learning_rate must be > 0 and finite"),
        (dict(learning_rate=float("inf")), "learning_rate must be > 0 and finite"),
    ],
)
def test_non_integer_epochs_and_non_finite_rates_are_rejected(setting, message):
    for build in (
        lambda: LinearPinballModel(0.5, **setting),
        lambda: LinearQuantilePair(**setting),
        lambda: LinearMedianRegressor(**setting),
    ):
        with pytest.raises(ValueError, match=message):
            build()

"""Tests for the four split-style conformal calibrators."""

import numpy as np
import pytest

from confband.conformal import (
    DataSplit,
    apply_correction,
    cqr_asym_calibrate,
    cqr_calibrate,
    local_conformal_calibrate,
    split_conformal_calibrate,
)
from confband.regressors import (
    ConstantDispersion,
    ForestConfig,
    KnnDispersion,
    QuantileForestRegressor,
    RidgeRegressor,
)


class _FunctionMean:
    """Point predictor defined by an explicit function of the feature matrix."""

    def __init__(self, fn):
        self.fn = fn

    def fit(self, X, y):
        return self

    def predict(self, X):
        return self.fn(np.asarray(X, dtype=float))


class _FunctionDispersion:
    def __init__(self, fn):
        self.fn = fn

    def fit(self, X, residuals):
        return self

    def predict(self, X):
        return self.fn(np.asarray(X, dtype=float))


class _FunctionPair:
    """Quantile pair defined by two explicit curves."""

    def __init__(self, lo_fn, hi_fn):
        self.lo_fn = lo_fn
        self.hi_fn = hi_fn

    def fit(self, X, y, alpha_lo, alpha_hi):
        return self

    def predict_pair(self, X):
        X = np.asarray(X, dtype=float)
        return self.lo_fn(X), self.hi_fn(X)


def _constant_pair(lo, hi):
    return _FunctionPair(
        lambda X: np.full(X.shape[0], float(lo)),
        lambda X: np.full(X.shape[0], float(hi)),
    )


_ZERO_MEAN = _FunctionMean(lambda X: np.zeros(X.shape[0]))


def test_split_correction_from_hand_residuals():
    X_cal = np.zeros((9, 1))
    y_cal = np.arange(1.0, 10.0)
    band = split_conformal_calibrate(_ZERO_MEAN, X_cal, y_cal, alpha=0.1)
    assert band.correction == 9.0
    lo, hi = band.predict_interval(np.array([[0.0], [5.0]]))
    assert np.array_equal(lo, [-9.0, -9.0])
    assert np.array_equal(hi, [9.0, 9.0])
    lo, hi = band.predict_interval(np.zeros((4, 1)))
    assert np.all(hi - lo == 18.0)


def test_perfect_predictor_gives_zero_width_band():
    rng = np.random.default_rng(5)
    X_cal = rng.normal(size=(20, 1))
    y_cal = 2.0 * X_cal[:, 0] - 1.0
    mu = _FunctionMean(lambda X: 2.0 * X[:, 0] - 1.0)
    band = split_conformal_calibrate(mu, X_cal, y_cal, alpha=0.1)
    lo, hi = band.predict_interval(rng.normal(size=(6, 1)))
    assert np.array_equal(lo, hi)


def test_tiny_calibration_set_yields_infinite_intervals():
    band = split_conformal_calibrate(
        _ZERO_MEAN, np.zeros((3, 1)), np.ones(3), alpha=0.1
    )
    lo, hi = band.predict_interval(np.zeros((2, 1)))
    assert np.all(np.isneginf(lo))
    assert np.all(np.isposinf(hi))


def test_interval_excess_scores_from_hand_calibration():
    # with the plug-in band fixed at [-1, 1] the scores for y = 2, 0, -3
    # are 1, -1, 2; the inflated 0.75-level is (0.75)(1 + 1/3) = 1, so the
    # correction is the largest score
    pair = _constant_pair(-1.0, 1.0)
    X_cal = np.zeros((3, 1))
    y_cal = np.array([2.0, 0.0, -3.0])
    band = cqr_calibrate(pair, X_cal, y_cal, alpha=0.25)
    assert band.correction == 2.0
    lo, hi = band.predict_interval(np.zeros((2, 1)))
    assert np.array_equal(lo, [-3.0, -3.0])
    assert np.array_equal(hi, [3.0, 3.0])


def test_all_points_inside_plugin_band_shrink_the_interval():
    rng = np.random.default_rng(12)
    pair = _constant_pair(-5.0, 5.0)
    X_cal = rng.normal(size=(30, 1))
    y_cal = rng.uniform(-1.0, 1.0, size=30)
    band = cqr_calibrate(pair, X_cal, y_cal, alpha=0.1)
    assert band.correction < 0.0
    lo, hi = band.predict_interval(np.zeros((1, 1)))
    assert lo[0] > -5.0 and hi[0] < 5.0
    assert lo[0] == -5.0 - band.correction
    assert hi[0] == 5.0 + band.correction


def test_crossed_corrected_endpoints_collapse_to_midpoint():
    # calibration happens where the plug-in band is wide, so the correction
    # is very negative; at a narrow point the corrected endpoints cross and
    # the band degenerates to the midpoint
    pair = _FunctionPair(lambda X: -np.abs(X[:, 0]), lambda X: np.abs(X[:, 0]))
    X_cal = np.ones((10, 1))
    y_cal = np.zeros(10)
    band = cqr_calibrate(pair, X_cal, y_cal, alpha=0.1)
    assert band.correction == -1.0
    lo, hi = band.predict_interval(np.array([[0.2]]))
    assert lo[0] == hi[0] == 0.0
    lo, hi = band.predict_interval(np.array([[3.0]]))
    assert (lo[0], hi[0]) == (-2.0, 2.0)


def test_asymmetric_corrections_with_all_points_below_lower_curve():
    # every y sits below the lower curve, so the lower gaps are positive
    # while the upper scores are all negative; at inflated level
    # (0.8)(1 + 1/5) = 0.96 each correction is the largest score
    pair = _constant_pair(2.0, 4.0)
    X_cal = np.zeros((5, 1))
    y_cal = np.array([1.0, 0.0, 1.5, -1.0, 0.5])
    band = cqr_asym_calibrate(pair, X_cal, y_cal, alpha_lo=0.2, alpha_hi=0.2)
    assert band.correction == (3.0, -2.5)
    lo, hi = band.predict_interval(np.zeros((1, 1)))
    assert (lo[0], hi[0]) == (-1.0, 1.5)


def test_unit_dispersion_collapses_local_onto_split():
    rng = np.random.default_rng(8)
    X1 = rng.normal(size=(60, 2))
    y1 = X1[:, 0] + rng.normal(size=60)
    X2 = rng.normal(size=(40, 2))
    y2 = X2[:, 0] + rng.normal(size=40)
    mu = RidgeRegressor(1.0).fit(X1, y1)
    split_band = split_conformal_calibrate(mu, X2, y2, alpha=0.1)
    local_band = local_conformal_calibrate(
        mu, ConstantDispersion(1.0), X2, y2, alpha=0.1, gamma=0.0
    )
    grid = rng.normal(size=(20, 2))
    s_lo, s_hi = split_band.predict_interval(grid)
    l_lo, l_hi = local_band.predict_interval(grid)
    np.testing.assert_allclose(l_lo, s_lo, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(l_hi, s_hi, rtol=0.0, atol=1e-12)


def test_rescaling_the_dispersion_field_leaves_intervals_unchanged():
    rng = np.random.default_rng(9)
    X2 = rng.normal(size=(50, 1))
    y2 = rng.normal(size=50) * (1.0 + X2[:, 0] ** 2)
    sigma = _FunctionDispersion(lambda X: 1.0 + X[:, 0] ** 2)
    sigma_scaled = _FunctionDispersion(lambda X: 3.0 * (1.0 + X[:, 0] ** 2))
    a = local_conformal_calibrate(_ZERO_MEAN, sigma, X2, y2, 0.1, gamma=0.0)
    b = local_conformal_calibrate(_ZERO_MEAN, sigma_scaled, X2, y2, 0.1, gamma=0.0)
    grid = rng.normal(size=(25, 1))
    np.testing.assert_allclose(
        a.predict_interval(grid), b.predict_interval(grid), rtol=1e-12
    )


def test_huge_gamma_recovers_split_conformal_widths():
    rng = np.random.default_rng(10)
    X2 = rng.normal(size=(80, 1))
    y2 = rng.normal(size=80) * (1.0 + X2[:, 0] ** 2)
    sigma = _FunctionDispersion(lambda X: 1.0 + X[:, 0] ** 2)
    split_band = split_conformal_calibrate(_ZERO_MEAN, X2, y2, alpha=0.1)
    local_band = local_conformal_calibrate(
        _ZERO_MEAN, sigma, X2, y2, alpha=0.1, gamma=1e6
    )
    grid = rng.normal(size=(25, 1))
    s_lo, s_hi = split_band.predict_interval(grid)
    l_lo, l_hi = local_band.predict_interval(grid)
    np.testing.assert_allclose(l_hi - l_lo, s_hi - s_lo, rtol=1e-4)


def test_zero_scale_is_rejected_at_calibration_and_prediction():
    X2 = np.ones((10, 1))
    y2 = np.ones(10)
    with pytest.raises(ValueError, match="zero scale; set gamma > 0"):
        local_conformal_calibrate(
            _ZERO_MEAN, ConstantDispersion(0.0), X2, y2, 0.1, gamma=0.0
        )
    # positive on the calibration rows but zero at the query point
    sigma = _FunctionDispersion(lambda X: np.abs(X[:, 0]))
    band = local_conformal_calibrate(_ZERO_MEAN, sigma, X2, y2, 0.1, gamma=0.0)
    with pytest.raises(ValueError, match="zero scale; set gamma > 0"):
        band.predict_interval(np.zeros((1, 1)))


def test_negative_gamma_is_rejected():
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        local_conformal_calibrate(
            _ZERO_MEAN, ConstantDispersion(1.0), np.zeros((5, 1)), np.ones(5),
            0.1, gamma=-0.5,
        )


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_non_finite_gamma_is_rejected(gamma):
    with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
        local_conformal_calibrate(
            _ZERO_MEAN, ConstantDispersion(1.0), np.zeros((5, 1)), np.ones(5),
            0.1, gamma=gamma,
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_constant_dispersion_rejects_negative_and_non_finite_values(value):
    with pytest.raises(ValueError, match="dispersion must be >= 0 and finite"):
        ConstantDispersion(value)


def _bands_of_all_four_calibrators():
    """(band, query rows) for each calibrator, including an infinite band and a
    band whose negative correction crosses its ends, which are collapsed."""
    rng = np.random.default_rng(21)
    X_cal = rng.uniform(-2.0, 2.0, size=(40, 1))
    y_cal = X_cal[:, 0] + rng.normal(size=40)
    mu = _FunctionMean(lambda X: 0.9 * X[:, 0])
    sigma = _FunctionDispersion(lambda X: np.abs(X[:, 0]))
    pair = _FunctionPair(lambda X: X[:, 0] - 1.0, lambda X: X[:, 0] + 1.5)
    X_new = rng.uniform(-3.0, 3.0, size=(25, 1))
    # per-tail levels past 1/2 give corrections below -1 each, which pull
    # the ends of the width-2 plug-in band past each other
    crossed = cqr_asym_calibrate(
        _constant_pair(-1.0, 1.0), np.zeros((20, 1)), np.linspace(-0.5, 0.5, 20), 0.8, 0.8
    )
    return [
        (split_conformal_calibrate(mu, X_cal, y_cal, 0.1), X_new),
        (local_conformal_calibrate(mu, sigma, X_cal, y_cal, 0.1, gamma=0.5), X_new),
        (cqr_calibrate(pair, X_cal, y_cal, 0.1), X_new),
        (cqr_asym_calibrate(pair, X_cal, y_cal, 0.05, 0.05), X_new),
        # 5 calibration rows cannot certify 90% coverage
        (split_conformal_calibrate(mu, X_cal[:5], y_cal[:5], 0.1), X_new),
        (crossed, np.zeros((3, 1))),
    ]


def test_predict_interval_is_apply_on_the_plugin_values():
    bands = _bands_of_all_four_calibrators()
    assert np.isinf(bands[4][0].correction)
    for band, X in bands:
        lo, hi = band.predict_interval(X)
        values = band.plugin(X)
        kept = [np.copy(v) for v in values]
        lo_again, hi_again = apply_correction(band.correction, *values)
        assert lo.tobytes() == lo_again.tobytes() and hi.tobytes() == hi_again.tobytes()
        # apply_correction leaves its inputs alone, so plug-in values can be shared
        for before, after in zip(kept, values):
            assert np.array_equal(before, after)
    crossed = bands[5][0]
    assert sum(crossed.correction) < -2.0
    lo, hi = crossed.predict_interval(np.zeros((3, 1)))
    assert np.array_equal(lo, hi)


def test_crossing_quantile_pair_is_rejected():
    crossed = _constant_pair(1.0, -1.0)
    with pytest.raises(ValueError, match="quantile estimates cross"):
        cqr_calibrate(crossed, np.zeros((5, 1)), np.zeros(5), 0.1)
    # crossing only away from the calibration rows is caught at predict time
    pair = _FunctionPair(lambda X: X[:, 0], lambda X: -X[:, 0])
    band = cqr_calibrate(pair, np.full((5, 1), -1.0), np.zeros(5), 0.1)
    with pytest.raises(ValueError, match="quantile estimates cross"):
        band.predict_interval(np.array([[2.0]]))


def test_translation_equivariance_of_all_four_methods():
    rng = np.random.default_rng(77)
    shift = 7.5
    X1 = rng.normal(size=(80, 2))
    y1 = X1[:, 0] + 0.5 * rng.normal(size=80)
    X2 = rng.normal(size=(60, 2))
    y2 = X2[:, 0] + 0.5 * rng.normal(size=60)
    grid = rng.normal(size=(15, 2))
    forest = ForestConfig(n_trees=20, min_leaf_size=5, seed=3)

    def bands(y1v, y2v):
        mu = RidgeRegressor(1.0).fit(X1, y1v)
        resid = np.abs(y1v - mu.predict(X1))
        sigma = KnnDispersion(k=7).fit(X1, resid)
        qrf = QuantileForestRegressor(forest).fit(X1, y1v, 0.05, 0.95)
        return [
            split_conformal_calibrate(mu, X2, y2v, 0.1),
            local_conformal_calibrate(mu, sigma, X2, y2v, 0.1, gamma=1.0),
            cqr_calibrate(qrf, X2, y2v, 0.1),
            cqr_asym_calibrate(qrf, X2, y2v, 0.05, 0.05),
        ]

    for base, shifted in zip(bands(y1, y2), bands(y1 + shift, y2 + shift)):
        lo0, hi0 = base.predict_interval(grid)
        lo1, hi1 = shifted.predict_interval(grid)
        np.testing.assert_allclose(lo1, lo0 + shift, atol=1e-8)
        np.testing.assert_allclose(hi1, hi0 + shift, atol=1e-8)


def test_scale_equivariance_of_equivariant_engines():
    rng = np.random.default_rng(78)
    factor = 3.0
    X1 = rng.normal(size=(80, 2))
    y1 = X1[:, 0] + 0.5 * rng.normal(size=80)
    X2 = rng.normal(size=(60, 2))
    y2 = X2[:, 0] + 0.5 * rng.normal(size=60)
    grid = rng.normal(size=(15, 2))
    forest = ForestConfig(n_trees=20, min_leaf_size=5, seed=3)

    def bands(y1v, y2v):
        mu = RidgeRegressor(0.0).fit(X1, y1v)
        qrf = QuantileForestRegressor(forest).fit(X1, y1v, 0.05, 0.95)
        return [
            split_conformal_calibrate(mu, X2, y2v, 0.1),
            cqr_calibrate(qrf, X2, y2v, 0.1),
            cqr_asym_calibrate(qrf, X2, y2v, 0.05, 0.05),
        ]

    for base, scaled in zip(bands(y1, y2), bands(y1 * factor, y2 * factor)):
        lo0, hi0 = base.predict_interval(grid)
        lo1, hi1 = scaled.predict_interval(grid)
        np.testing.assert_allclose(lo1, lo0 * factor, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(hi1, hi0 * factor, rtol=1e-9, atol=1e-9)


def test_corrections_never_shrink_as_alpha_decreases():
    rng = np.random.default_rng(15)
    X_cal = rng.normal(size=(200, 1))
    y_cal = rng.normal(size=200)
    corrections = [
        split_conformal_calibrate(_ZERO_MEAN, X_cal, y_cal, a).correction
        for a in (0.5, 0.25, 0.1, 0.05, 0.01)
    ]
    assert all(a <= b for a, b in zip(corrections[:-1], corrections[1:]))


def test_fresh_draw_coverage_matches_nominal_rate():
    # fixed zero predictor on standard normal responses: each trial draws a
    # fresh calibration set of 99 and one test point; pooled coverage over
    # 400 trials should sit near ceil(0.9 * 100) / 100 = 0.9
    rng = np.random.default_rng(123)
    n_trials = 400
    hits = 0
    for _ in range(n_trials):
        y_cal = rng.normal(size=99)
        band = split_conformal_calibrate(
            _ZERO_MEAN, np.zeros((99, 1)), y_cal, alpha=0.1
        )
        y_new = rng.normal()
        lo, hi = band.predict_interval(np.zeros((1, 1)))
        hits += bool(lo[0] <= y_new <= hi[0])
    rate = hits / n_trials
    se = np.sqrt(0.9 * 0.1 / n_trials)
    assert 0.9 - 4 * se <= rate <= 0.9 + 0.01 + 4 * se


def test_data_split_validation_and_random_halves():
    split = DataSplit(np.array([0, 2]), np.array([1, 3]))
    assert np.array_equal(split.i1, [0, 2])
    with pytest.raises(ValueError, match="non-empty"):
        DataSplit(np.array([], dtype=int), np.array([0]))
    with pytest.raises(ValueError, match="disjoint"):
        DataSplit(np.array([0, 1]), np.array([1, 2]))
    with pytest.raises(ValueError, match="cover"):
        DataSplit(np.array([0, 1]), np.array([3]))
    rng = np.random.default_rng(0)
    halves = DataSplit.random_halves(7, rng)
    assert halves.i1.size == 4 and halves.i2.size == 3
    assert np.array_equal(np.sort(np.concatenate([halves.i1, halves.i2])), np.arange(7))
    with pytest.raises(ValueError, match="at least 2 rows"):
        DataSplit.random_halves(1, rng)

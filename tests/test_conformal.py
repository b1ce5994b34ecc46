"""Tests for the four split-style conformal calibrators."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from confband.conformal import (
    METHODS,
    apply_correction,
    conformal_correction,
    cqr_asym_calibrate,
    cqr_calibrate,
    local_conformal_calibrate,
    plugin_values,
    split_conformal_calibrate,
)
from confband.quantiles import SortedSample
from confband.regressors import (
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
_UNIT_MEAN = _FunctionMean(lambda X: np.ones(X.shape[0]))  # as a dispersion: local is split


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
    # scalar plug-in values and response: a calibration sample of one
    assert conformal_correction(0.0, 0.0, 1.0, 1.0, 0.5) == 1.0
    assert conformal_correction(0.0, 0.0, 1.0, 1.0, 0.5, 0.5) == (-1.0, 1.0)
    assert conformal_correction(0.0, 0.0, 1.0, 1.0, 0.1) == np.inf


def test_plug_in_values_of_another_shape_than_y_cal_are_rejected():
    y_cal = np.array([0.3])
    for levels in ((0.1,), (0.05, 0.05)):
        with pytest.raises(ValueError, match=r"shape \(100,\) does not match y_cal \(1,\)"):
            conformal_correction(np.zeros(100), np.zeros(100), 1.0, y_cal, *levels)
        # one mismatched array is enough, whichever it is
        y = np.zeros(20)
        for args in (
            (np.zeros(19), np.zeros(20), 1.0),
            (np.zeros(20), np.zeros(21), 1.0),
            (np.zeros(20), np.zeros(20), np.ones(1)),
        ):
            with pytest.raises(ValueError, match="does not match y_cal"):
                conformal_correction(*args, y, *levels)
        # a block: (trials x n) values against one row of responses, and back
        block = np.zeros((4, 20))
        for args, y in (
            ((block, block, 1.0), np.zeros(20)),
            ((block[0], block[0], 1.0), block),
            ((block[:1], block[:1], 1.0), block),
            ((block, block, np.ones(20)), block),
        ):
            with pytest.raises(ValueError, match="does not match y_cal"):
                conformal_correction(*args, y, *levels)
        # scalar plug-in values still broadcast, one correction per row
        got = conformal_correction(0.0, 0.0, 1.0, block, *levels)
        for c in got if isinstance(got, tuple) else (got,):
            assert c.shape == (4,)


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


def _block_reads(rng, n_trials, n_rows, n_wide):
    """(trials x rows) model outputs on a 0.1 grid, so scores tie.

    Trial 0's pair is wide on its first ``n_wide`` rows and narrow after
    them, so a correction calibrated on those rows is negative and crosses
    the ends of the later rows.
    """
    grid = lambda *shape: np.round(rng.normal(size=shape), 1)  # noqa: E731
    center = grid(n_trials, n_rows)
    half = 0.5 + np.abs(grid(n_trials, n_rows))
    half[0, :n_wide], half[0, n_wide:] = 5.0, 0.5
    reads = {
        "mean": center,
        "dispersion": np.abs(grid(n_trials, n_rows)),
        "pair": (center - half, center + half),
    }
    return reads, center + grid(n_trials, n_rows)


@pytest.mark.parametrize("n_cal", [19, 5], ids=["finite", "infinite"])
def test_a_block_of_trials_is_calibrated_and_banded_like_each_trial_alone(n_cal):
    # at alpha = 0.1 (0.05 a tail), 5 calibration rows give infinite corrections
    rng = np.random.default_rng(21)
    reads, y = _block_reads(rng, n_trials=5, n_rows=n_cal + 8, n_wide=n_cal)
    cal, new = slice(None, n_cal), slice(n_cal, None)
    ties = [np.unique(np.abs(y[t, cal] - reads["mean"][t, cal])).size < n_cal for t in range(5)]
    assert any(ties)

    def reader(rows, t=slice(None)):
        """``plugin_values``'s read of trials ``t`` on columns ``rows``."""

        def read(role):
            out = reads[role]
            return tuple(v[t, rows] for v in out) if role == "pair" else out[t, rows]

        return read

    collapsed = False
    for method in METHODS:
        levels = (0.05, 0.05) if method == "cqr-asym" else (0.1, None)
        block = conformal_correction(*plugin_values(method, reader(cal), 0.5), y[:, cal], *levels)
        lo, hi = apply_correction(block, *plugin_values(method, reader(new), 0.5))
        for t in range(5):
            one = conformal_correction(
                *plugin_values(method, reader(cal, t), 0.5), y[t, cal], *levels
            )
            # one trial's correction is its scores' inflated quantile, as a float
            p_lo, p_hi, scale = plugin_values(method, reader(cal, t), 0.5)
            below, above = (p_lo - y[t, cal]) / scale, (y[t, cal] - p_hi) / scale
            samples = (below, above) if isinstance(one, tuple) else (np.maximum(below, above),)
            want = [SortedSample(v).inflated_quantile(levels[0]) for v in samples]
            assert list(one if isinstance(one, tuple) else (one,)) == want
            pairs = zip(one, block) if isinstance(one, tuple) else [(one, block)]
            for c, cs in pairs:
                assert type(c) is float
                assert np.float64(c).tobytes() == cs[t].tobytes()
                assert np.isinf(c) == (n_cal == 5)
            one_lo, one_hi = apply_correction(one, *plugin_values(method, reader(new, t), 0.5))
            assert (one_lo.tobytes(), one_hi.tobytes()) == (lo[t].tobytes(), hi[t].tobytes())
        collapsed |= method == "cqr" and bool(np.any(lo[0] == hi[0]))
    assert collapsed == (n_cal == 19)


def test_one_non_finite_score_in_a_block_is_rejected():
    reads, y = _block_reads(np.random.default_rng(3), n_trials=4, n_rows=12, n_wide=6)
    y[2, 7] = np.nan
    for levels in ((0.1, None), (0.05, 0.05)):
        with pytest.raises(ValueError, match="non-finite"):
            conformal_correction(*reads["pair"], 1.0, y, *levels)
        with pytest.raises(ValueError, match="non-finite"):
            conformal_correction(reads["pair"][0][2], reads["pair"][1][2], 1.0, y[2], *levels)
    with pytest.raises(ValueError, match="empty sample"):
        conformal_correction(np.zeros((4, 0)), np.zeros((4, 0)), 1.0, np.zeros((4, 0)), 0.1)


def test_unit_dispersion_collapses_local_onto_split():
    rng = np.random.default_rng(8)
    X1 = rng.normal(size=(60, 2))
    y1 = X1[:, 0] + rng.normal(size=60)
    X2 = rng.normal(size=(40, 2))
    y2 = X2[:, 0] + rng.normal(size=40)
    mu = RidgeRegressor(1.0).fit(X1, y1)
    split_band = split_conformal_calibrate(mu, X2, y2, alpha=0.1)
    local_band = local_conformal_calibrate(
        mu, _UNIT_MEAN, X2, y2, alpha=0.1, gamma=0.0
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
    sigma = _FunctionMean(lambda X: 1.0 + X[:, 0] ** 2)
    sigma_scaled = _FunctionMean(lambda X: 3.0 * (1.0 + X[:, 0] ** 2))
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
    sigma = _FunctionMean(lambda X: 1.0 + X[:, 0] ** 2)
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
            _ZERO_MEAN, _ZERO_MEAN, X2, y2, 0.1, gamma=0.0
        )
    # positive on the calibration rows but zero at the query point
    sigma = _FunctionMean(lambda X: np.abs(X[:, 0]))
    band = local_conformal_calibrate(_ZERO_MEAN, sigma, X2, y2, 0.1, gamma=0.0)
    with pytest.raises(ValueError, match="zero scale; set gamma > 0"):
        band.predict_interval(np.zeros((1, 1)))


def test_a_dispersion_read_below_zero_counts_as_zero():
    # sigma is a mean regressor fitted to absolute residuals, and nothing keeps
    # its reads at or above zero; the local scale is max(sigma(x), 0) + gamma
    rng = np.random.default_rng(12)
    X2 = rng.uniform(-2.0, 2.0, size=(40, 1))
    y2 = rng.normal(size=40) * (1.0 + np.abs(X2[:, 0]))
    sigma = _FunctionMean(lambda X: X[:, 0])  # below zero wherever x < 0
    band = local_conformal_calibrate(_ZERO_MEAN, sigma, X2, y2, 0.1, gamma=0.5)

    def scale(X):
        return np.maximum(X[:, 0], 0.0) + 0.5

    assert band.correction == SortedSample(np.abs(y2) / scale(X2)).inflated_quantile(0.1)
    X_new = np.linspace(-2.0, 2.0, 21)[:, None]
    lo, hi = band.predict_interval(X_new)
    np.testing.assert_array_equal(hi, band.correction * scale(X_new))
    np.testing.assert_array_equal(lo, -hi)


def test_negative_gamma_is_rejected():
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        local_conformal_calibrate(
            _ZERO_MEAN, _UNIT_MEAN, np.zeros((5, 1)), np.ones(5),
            0.1, gamma=-0.5,
        )


@pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
def test_non_finite_gamma_is_rejected(gamma):
    with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
        local_conformal_calibrate(
            _ZERO_MEAN, _UNIT_MEAN, np.zeros((5, 1)), np.ones(5),
            0.1, gamma=gamma,
        )


def _bands_of_all_four_calibrators():
    """(band, query rows) for each calibrator, including an infinite band and a
    band whose negative correction crosses its ends, which are collapsed."""
    rng = np.random.default_rng(21)
    X_cal = rng.uniform(-2.0, 2.0, size=(40, 1))
    y_cal = X_cal[:, 0] + rng.normal(size=40)
    mu = _FunctionMean(lambda X: 0.9 * X[:, 0])
    sigma = _FunctionMean(lambda X: np.abs(X[:, 0]))
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


def test_a_band_of_fitted_engines_pickles_and_reads_the_same_bits():
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 5.0, size=(120, 2))
    y = X[:, 0] + rng.normal(size=120)
    fit, cal, new = slice(0, 60), slice(60, 100), slice(100, 120)
    mu = RidgeRegressor(0.1).fit(X[fit], y[fit])
    sigma = KnnDispersion(5).fit(X[fit], np.abs(y[fit] - mu.predict(X[fit])))
    pair = QuantileForestRegressor(ForestConfig(n_trees=5, min_leaf_size=5))
    pair.fit(X[fit], y[fit], 0.05, 0.95)
    for band in (
        split_conformal_calibrate(mu, X[cal], y[cal], 0.1),
        local_conformal_calibrate(mu, sigma, X[cal], y[cal], 0.1),
        cqr_calibrate(pair, X[cal], y[cal], 0.1),
        cqr_asym_calibrate(pair, X[cal], y[cal], 0.05, 0.05),
    ):
        again = pickle.loads(pickle.dumps(band))
        assert again.correction == band.correction
        got, want = again.predict_interval(X[new]), band.predict_interval(X[new])
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


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



def test_leaving_each_of_n_plus_one_points_out_covers_exactly_k_of_them():
    # Exchangeability, counted: fix any plug-in values and n + 1 points with
    # distinct scores, and calibrate on n of them to test the one left out.
    # The held-out point is covered exactly when its score ranks at most
    # k = ceil((1 - alpha)(n + 1)) of all n + 1, so exactly k of the n + 1
    # cases are covered (all of them when k = n + 1, the infinite correction);
    # each cqr-asym tail misses in n + 1 - k_tail cases. The pair's half-width stays below 0.2 and the
    # responses scatter with sd 1, so no corrected band crosses and a miss
    # is its own tail's.
    rng = np.random.default_rng(16)

    def rank(n, level):
        """k of the level taken as the exact decimal it is written as."""
        return math.ceil((1 - Fraction(str(level))) * (n + 1))

    for n in range(1, 120):
        center = rng.normal(size=n + 1)
        half = rng.uniform(0.0, 0.2, size=n + 1)
        reads = {
            "mean": center,
            "dispersion": rng.uniform(0.5, 2.0, size=n + 1),
            "pair": (center - half, center + half),
        }
        y = center + rng.normal(size=n + 1)
        # row i calibrates on every point but i and bands point i alone
        points = np.arange(n + 1)
        rest = np.array([np.delete(points, i) for i in points]).reshape(n + 1, n)
        held = points[:, None]

        def reader(rows):
            return lambda role: tuple(v[rows] for v in reads[role]) if role == "pair" else reads[role][rows]

        for alpha in (0.05, 0.1, 0.2, 0.3, 0.5):
            for method in METHODS:
                levels = (alpha / 2, alpha / 2) if method == "cqr-asym" else (alpha, None)
                correction = conformal_correction(*plugin_values(method, reader(rest), 0.5), y[rest], *levels)
                lo, hi = apply_correction(correction, *plugin_values(method, reader(held), 0.5))
                below, above = np.sum(y[held] < lo), np.sum(y[held] > hi)
                case = (n, alpha, method)
                if method == "cqr-asym":
                    tails = [n + 1 - rank(n, level) for level in levels]
                    assert [below, above] == tails, case
                else:
                    assert n + 1 - below - above == rank(n, alpha), case

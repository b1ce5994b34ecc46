"""Split-style conformal calibrators.

All four calibrators share one shape: a predictor fitted on the proper
training rows is scored on held-out calibration rows, an inflated empirical
quantile of those scores becomes a frozen correction constant, and the
returned band applies that constant to fresh predictions. Exchangeability
of the calibration and test rows then gives finite-sample marginal
coverage of at least 1 - alpha, with a matching upper bound when the
scores are almost surely distinct.

The four score choices:

- absolute residual |y - mu(x)|: fixed-width band around a point predictor
- scaled residual |y - mu(x)| / (sigma(x) + gamma): width follows a fitted
  dispersion estimate
- signed interval excess max{q_lo(x) - y, y - q_hi(x)}: shifts a quantile
  pair outward (or inward, the score may be negative) by one constant
- per-tail excesses q_lo(x) - y and y - q_hi(x) separately: independent
  corrections for the two tails
"""

from dataclasses import dataclass

import numpy as np

from .quantiles import SortedSample, check_level
from .regressors.base import (
    DispersionRegressor,
    MeanRegressor,
    QuantileRegressor,
    as_matrix,
    as_vector,
)

__all__ = [
    "DataSplit",
    "ConformalBand",
    "split_conformal_calibrate",
    "local_conformal_calibrate",
    "cqr_calibrate",
    "cqr_asym_calibrate",
]


@dataclass(frozen=True)
class DataSplit:
    """Disjoint proper-training and calibration index sets covering a dataset.

    Attributes
    ----------
    i1 : ndarray of int
        Proper training rows (predictors are fitted here).
    i2 : ndarray of int
        Calibration rows (scores and corrections come from here).
    """

    i1: np.ndarray
    i2: np.ndarray

    def __post_init__(self):
        i1 = np.asarray(self.i1, dtype=np.int64)
        i2 = np.asarray(self.i2, dtype=np.int64)
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)
        if i1.size == 0 or i2.size == 0:
            raise ValueError("both index sets must be non-empty")
        merged = np.concatenate([i1, i2])
        union = np.sort(merged)
        if union.size != np.unique(union).size:
            raise ValueError("index sets must be disjoint")
        if union[0] != 0 or union[-1] != union.size - 1:
            raise ValueError("index sets must cover 0..n-1 exactly")

    @staticmethod
    def random_halves(n: int, rng) -> "DataSplit":
        """Random split into two halves (first half larger when n is odd)."""
        if n < 2:
            raise ValueError(f"need at least 2 rows to split, got {n}")
        order = rng.permutation(n)
        cut = (n + 1) // 2
        return DataSplit(order[:cut], order[cut:])


def _inflated_correction(scores: np.ndarray, alpha: float) -> float:
    return SortedSample(scores).inflated_quantile(alpha)


@dataclass(frozen=True)
class ConformalBand:
    """A calibrated band: fitted predictor(s) plus frozen correction constants.

    Prediction never re-reads calibration data; everything the band needs
    is captured here. ``correction`` is a single constant except for the
    per-tail method, which stores ``(q_lo_correction, q_hi_correction)``.
    """

    method: str
    correction: float | tuple[float, float]
    gamma: float = 0.0
    mu: MeanRegressor | None = None
    sigma: DispersionRegressor | None = None
    quantile_pair: QuantileRegressor | None = None

    def predict_interval(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Interval endpoints (lo, hi) for each row of X."""
        X = as_matrix(X)
        if self.method == "split":
            center = self.mu.predict(X)
            q = self.correction
            return center - q, center + q
        if self.method == "local":
            center = self.mu.predict(X)
            scale = self.sigma.predict(X) + self.gamma
            if np.any(scale <= 0.0):
                raise ValueError("zero scale; set gamma > 0")
            half = scale * self.correction
            return center - half, center + half
        if self.method == "cqr_sym":
            q_lo, q_hi = _checked_pair(self.quantile_pair, X)
            return _uncross(q_lo - self.correction, q_hi + self.correction)
        if self.method == "cqr_asym":
            q_lo, q_hi = _checked_pair(self.quantile_pair, X)
            c_lo, c_hi = self.correction
            return _uncross(q_lo - c_lo, q_hi + c_hi)
        raise ValueError(f"unknown method tag {self.method!r}")


def _checked_pair(pair: QuantileRegressor, X) -> tuple[np.ndarray, np.ndarray]:
    q_lo, q_hi = pair.predict_pair(X)
    q_lo = np.asarray(q_lo, dtype=float)
    q_hi = np.asarray(q_hi, dtype=float)
    if np.any(q_lo > q_hi):
        raise ValueError(
            "quantile estimates cross; wrap the regressor in a crossing fix"
        )
    return q_lo, q_hi


def _uncross(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a sufficiently negative correction can push the endpoints past each
    # other; collapse those intervals to their midpoint
    crossed = lo > hi
    if np.any(crossed):
        mid = 0.5 * (lo[crossed] + hi[crossed])
        lo = lo.copy()
        hi = hi.copy()
        lo[crossed] = mid
        hi[crossed] = mid
    return lo, hi


def split_conformal_calibrate(mu: MeanRegressor, X_cal, y_cal, alpha: float) -> ConformalBand:
    """Fixed-width band from absolute residuals on the calibration rows.

    The correction is the inflated (1 - alpha)-quantile of
    |y_i - mu(x_i)| over the calibration set; the band is
    mu(x) +/- correction. A calibration set too small for the inflated
    level yields infinite intervals.
    """
    check_level(alpha)
    X_cal = as_matrix(X_cal)
    y_cal = as_vector(y_cal, X_cal.shape[0])
    residuals = np.abs(y_cal - mu.predict(X_cal))
    q = _inflated_correction(residuals, alpha)
    return ConformalBand(method="split", correction=q, mu=mu)


def local_conformal_calibrate(
    mu: MeanRegressor,
    sigma: DispersionRegressor,
    X_cal,
    y_cal,
    alpha: float,
    gamma: float = 1.0,
) -> ConformalBand:
    """Variable-width band from residuals scaled by a dispersion estimate.

    Residuals are divided by sigma(x) + gamma before taking the inflated
    quantile, and the band half-width is (sigma(x) + gamma) times the
    correction. ``sigma`` should be fitted to (x_i, |y_i - mu(x_i)|) pairs
    on the proper training rows. ``gamma`` regularizes small or zero
    dispersion estimates.
    """
    check_level(alpha)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    X_cal = as_matrix(X_cal)
    y_cal = as_vector(y_cal, X_cal.shape[0])
    residuals = np.abs(y_cal - mu.predict(X_cal))
    scale = sigma.predict(X_cal) + gamma
    if np.any(scale <= 0.0):
        raise ValueError("zero scale; set gamma > 0")
    q = _inflated_correction(residuals / scale, alpha)
    return ConformalBand(method="local", correction=q, gamma=gamma, mu=mu, sigma=sigma)


def cqr_calibrate(q: QuantileRegressor, X_cal, y_cal, alpha: float) -> ConformalBand:
    """Symmetric conformalization of a fitted quantile pair.

    Scores max{q_lo(x_i) - y_i, y_i - q_hi(x_i)} measure how far each
    calibration point falls outside (positive) or inside (negative) the
    plug-in interval. One inflated quantile of the scores shifts both
    endpoints outward; a negative correction tightens the band instead.
    """
    check_level(alpha)
    X_cal = as_matrix(X_cal)
    y_cal = as_vector(y_cal, X_cal.shape[0])
    q_lo, q_hi = _checked_pair(q, X_cal)
    scores = np.maximum(q_lo - y_cal, y_cal - q_hi)
    corr = _inflated_correction(scores, alpha)
    return ConformalBand(method="cqr_sym", correction=corr, quantile_pair=q)


def cqr_asym_calibrate(
    q: QuantileRegressor, X_cal, y_cal, alpha_lo: float, alpha_hi: float
) -> ConformalBand:
    """Per-tail conformalization: each endpoint gets its own correction.

    The lower tail uses scores q_lo(x_i) - y_i at inflated level
    (1 - alpha_lo); the upper tail uses y_i - q_hi(x_i) at inflated level
    (1 - alpha_hi). Joint miscoverage is at most alpha_lo + alpha_hi.
    """
    check_level(alpha_lo)
    check_level(alpha_hi)
    X_cal = as_matrix(X_cal)
    y_cal = as_vector(y_cal, X_cal.shape[0])
    q_lo, q_hi = _checked_pair(q, X_cal)
    corr_lo = _inflated_correction(q_lo - y_cal, alpha_lo)
    corr_hi = _inflated_correction(y_cal - q_hi, alpha_hi)
    return ConformalBand(
        method="cqr_asym", correction=(corr_lo, corr_hi), quantile_pair=q
    )

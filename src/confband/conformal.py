"""Split-style conformal calibrators.

All four calibrators are one recipe. A plug-in reader, built from
predictors fitted on the proper training rows, gives each row x a plug-in
interval [lo(x), hi(x)] and a positive scale s(x). On held-out calibration
rows the scores

    below = (lo(x) - y) / s(x)        above = (y - hi(x)) / s(x)

say how far each point falls below or above the plug-in interval, in units
of the scale (negative inside it). Inflated empirical quantiles of the
scores become frozen corrections (c_lo, c_hi), and the band on fresh rows is

    [lo(x) - c_lo * s(x), hi(x) + c_hi * s(x)]

with any point whose ends cross collapsed to their midpoint. Exchangeability
of the calibration and test rows then gives finite-sample marginal coverage
of at least 1 - alpha, with a matching upper bound when the scores are
almost surely distinct.

The calibrators differ only in the plug-in reader and the quantiles taken:

- split: lo = hi = mu(x), s = 1, one quantile of max(below, above), which
  is |y - mu(x)|: a fixed-width band around a point predictor
- local: lo = hi = mu(x), s = sigma(x) + gamma, the same single quantile:
  the width follows a fitted dispersion estimate
- cqr: a fitted quantile pair, s = 1, the same single quantile: shifts both
  ends outward (or inward, the score may be negative) by one constant
- cqr-asym: the same pair, one quantile of ``below`` and one of ``above``:
  independent corrections for the two tails

``plugin_values`` is that table, written once: it turns the outputs of a
method's fitted models on some rows into ``(lo, hi, scale)``. Calibrating
reads the plug-in on the calibration rows and scores the values read
(``conformal_correction``); a band applies its correction to plug-in values
(``apply_correction``). Neither step reads a model. The public calibrators
read their fitted models afresh on every call; the experiment harness reads
each fitted model once per row set and feeds ``plugin_values`` from those
reads, then runs the same two pure steps (so do its tuning and audit).
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .quantiles import SortedSample, check_level
from .regressors.base import (
    DispersionRegressor,
    MeanRegressor,
    QuantileRegressor,
    as_matrix,
    as_vector,
    check_real,
)

__all__ = [
    "METHODS",
    "PAIR_METHODS",
    "DataSplit",
    "ConformalBand",
    "plugin_values",
    "conformal_correction",
    "apply_correction",
    "split_conformal_calibrate",
    "local_conformal_calibrate",
    "cqr_calibrate",
    "cqr_asym_calibrate",
]

METHODS = ("split", "local", "cqr", "cqr-asym")
# the methods whose plug-in is a fitted quantile pair
PAIR_METHODS = ("cqr", "cqr-asym")


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


@dataclass(frozen=True)
class ConformalBand:
    """A calibrated band: a plug-in reader plus frozen correction constants.

    ``plugin`` maps a feature matrix to ``(lo, hi, scale)`` and holds fitted
    predictors only, so prediction never re-reads calibration data.
    ``correction`` is one constant for both ends, except for the per-tail
    method, which stores ``(c_lo, c_hi)``.
    """

    plugin: Callable
    correction: float | tuple[float, float]

    def predict_interval(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Interval endpoints (lo, hi) for each row of X: read the plug-in, then apply."""
        return apply_correction(self.correction, *self.plugin(as_matrix(X)))


def plugin_values(method: str, read, rows, gamma: float | None):
    """A method's plug-in values ``(lo, hi, scale)`` on one set of rows.

    ``read(role, rows)`` is the output on ``rows`` of the method's fitted
    "mean", "dispersion" or "pair" model, a pair being ``(q_lo, q_hi)``.
    Only the local method reads ``gamma``.
    """
    if method in PAIR_METHODS:
        lo, hi = read("pair", rows)
        return lo, hi, 1.0
    center = read("mean", rows)
    if method == "split":
        return center, center, 1.0
    scale = read("dispersion", rows) + gamma
    if np.any(scale <= 0.0):
        raise ValueError("zero scale; set gamma > 0")
    return center, center, scale


def _read_fitted(models: dict, role: str, X):
    """The fitted ``role`` model's output on X; a crossed raw pair is rejected."""
    if role != "pair":
        return models[role].predict(X)
    q_lo, q_hi = models[role].predict_pair(X)
    q_lo = np.asarray(q_lo, dtype=float)
    q_hi = np.asarray(q_hi, dtype=float)
    if np.any(q_lo > q_hi):
        raise ValueError("quantile estimates cross; wrap the regressor in a crossing fix")
    return q_lo, q_hi


def conformal_correction(
    lo, hi, scale, y_cal, alpha_lo: float, alpha_hi: float | None = None
) -> float | tuple[float, float]:
    """Frozen correction from plug-in values on the calibration rows.

    The scoring step of every calibrator: it reads no model. With
    ``alpha_hi`` None, one inflated quantile of max(below, above) at
    ``alpha_lo`` serves both ends; otherwise each tail gets its own.
    """
    check_level(alpha_lo)
    if alpha_hi is not None:
        check_level(alpha_hi)
    below = (lo - y_cal) / scale
    above = (y_cal - hi) / scale
    if alpha_hi is None:
        return SortedSample(np.maximum(below, above)).inflated_quantile(alpha_lo)
    return (
        SortedSample(below).inflated_quantile(alpha_lo),
        SortedSample(above).inflated_quantile(alpha_hi),
    )


def apply_correction(correction, lo, hi, scale) -> tuple[np.ndarray, np.ndarray]:
    """The band a frozen correction makes around plug-in values.

    The band step of every calibrator, the twin of ``conformal_correction``:
    it reads no model and leaves its inputs alone, so plug-in values can be
    shared between methods.
    """
    c_lo, c_hi = correction if isinstance(correction, tuple) else (correction, correction)
    lo = lo - c_lo * scale
    hi = hi + c_hi * scale
    # a negative correction can push the ends past each other; collapse
    # those intervals to their midpoint
    crossed = lo > hi
    if np.any(crossed):
        mid = 0.5 * (lo[crossed] + hi[crossed])
        lo[crossed] = mid
        hi[crossed] = mid
    return lo, hi


def _calibrate(method, models: dict, X_cal, y_cal, alpha_lo, alpha_hi=None, gamma=None):
    """Read the method's fitted models on the calibration rows, then score them."""
    X_cal = as_matrix(X_cal)
    y_cal = as_vector(y_cal, X_cal.shape[0])
    # a band reads the method's fitted models afresh on every X
    plugin = partial(plugin_values, method, partial(_read_fitted, models), gamma=gamma)
    return ConformalBand(plugin, conformal_correction(*plugin(X_cal), y_cal, alpha_lo, alpha_hi))


def split_conformal_calibrate(mu: MeanRegressor, X_cal, y_cal, alpha: float) -> ConformalBand:
    """Fixed-width band from absolute residuals on the calibration rows.

    The correction is the inflated (1 - alpha)-quantile of
    |y_i - mu(x_i)| over the calibration set; the band is
    mu(x) +/- correction. A calibration set too small for the inflated
    level yields infinite intervals.
    """
    return _calibrate("split", {"mean": mu}, X_cal, y_cal, alpha)


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
    check_real("gamma", gamma)
    models = {"mean": mu, "dispersion": sigma}
    return _calibrate("local", models, X_cal, y_cal, alpha, gamma=gamma)


def cqr_calibrate(q: QuantileRegressor, X_cal, y_cal, alpha: float) -> ConformalBand:
    """Symmetric conformalization of a fitted quantile pair.

    Scores max{q_lo(x_i) - y_i, y_i - q_hi(x_i)} measure how far each
    calibration point falls outside (positive) or inside (negative) the
    plug-in interval. One inflated quantile of the scores shifts both
    endpoints outward; a negative correction tightens the band instead.
    """
    return _calibrate("cqr", {"pair": q}, X_cal, y_cal, alpha)


def cqr_asym_calibrate(
    q: QuantileRegressor, X_cal, y_cal, alpha_lo: float, alpha_hi: float
) -> ConformalBand:
    """Per-tail conformalization: each endpoint gets its own correction.

    The lower tail uses scores q_lo(x_i) - y_i at inflated level
    (1 - alpha_lo); the upper tail uses y_i - q_hi(x_i) at inflated level
    (1 - alpha_hi). Joint miscoverage is at most alpha_lo + alpha_hi.
    """
    return _calibrate("cqr-asym", {"pair": q}, X_cal, y_cal, alpha_lo, alpha_hi)

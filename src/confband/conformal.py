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
- local: lo = hi = mu(x), s = max(sigma(x), 0) + gamma, the same single
  quantile: the width follows a fitted dispersion estimate
- cqr: a fitted quantile pair, s = 1, the same single quantile: shifts both
  ends outward (or inward, the score may be negative) by one constant,
  once any crossed ends are swapped (``fix_crossing``)
- cqr-asym: the same pair, one quantile of ``below`` and one of ``above``:
  independent corrections for the two tails

``plugin_values`` is that table, written once: it turns the outputs of a
method's fitted models on the rows scored into ``(lo, hi, scale)``.
Calibrating scores the plug-in values of the calibration rows
(``conformal_correction``); a band applies its correction to plug-in values
(``apply_correction``). Neither step reads a model. The public calibrators
read their fitted models afresh on every X; the harness reads each once on
[calibration rows; new rows] and runs the two steps on the two parts.

Both pure steps also work along a leading trials axis: given (trials x n)
plug-in values and responses, ``conformal_correction`` returns one
correction per trial (an array, or a pair of arrays for cqr-asym) and
``apply_correction`` applies row t's correction to row t. Every row gets
the bits the 1-D call on that row gives; the coverage audit calibrates a
whole block of trials this way.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .quantiles import check_level, inflated_quantiles
from .regressors.base import MeanRegressor, QuantileRegressor, as_matrix, as_vector, check_real

__all__ = [
    "METHODS",
    "PAIR_METHODS",
    "ConformalBand",
    "plugin_values",
    "conformal_correction",
    "apply_correction",
    "fix_crossing",
    "split_conformal_calibrate",
    "local_conformal_calibrate",
    "cqr_calibrate",
    "cqr_asym_calibrate",
]

METHODS = ("split", "local", "cqr", "cqr-asym")
# the methods whose plug-in is a fitted quantile pair
PAIR_METHODS = ("cqr", "cqr-asym")


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


def plugin_values(method: str, read, gamma: float | None):
    """A method's plug-in values ``(lo, hi, scale)`` on the rows being scored.

    ``read(role)`` is the output on those rows of the method's fitted
    "mean", "dispersion" or "pair" model, a pair being ``(q_lo, q_hi)``.
    Only the local method reads ``gamma``.
    """
    if method in PAIR_METHODS:
        lo, hi = read("pair")
        return lo, hi, 1.0
    center = read("mean")
    if method == "split":
        return center, center, 1.0
    scale = np.maximum(read("dispersion"), 0.0) + gamma
    if np.any(scale <= 0.0):
        raise ValueError("zero scale; set gamma > 0")
    return center, center, scale


def fix_crossing(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise repair of crossed quantile estimates: (min, max) per point.

    The monotone rearrangement of a two-level pair (Chernozhukov et al. 2010);
    a fixed function of the plug-in, so the coverage guarantee still holds.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        raise ValueError(f"lower ends of shape {lo.shape} do not match upper ends {hi.shape}")
    return np.minimum(lo, hi), np.maximum(lo, hi)


def _read_fitted(models: dict, X, role: str):
    """The fitted ``role`` model's output on X; a pair read is repaired by ``fix_crossing``."""
    if role != "pair":
        return models[role].predict(X)
    return fix_crossing(*models[role].predict_pair(X))


def _fitted_plugin(method: str, models: dict, gamma, X):
    """``method``'s plug-in values, its fitted models read afresh on X (a band pickles)."""
    return plugin_values(method, partial(_read_fitted, models, X), gamma)


def _inflated(scores, alpha: float):
    """One sample's inflated quantile as a float, or one per row of a (trials x n) block."""
    q = inflated_quantiles(scores, alpha)
    return q if q.ndim else float(q)


def conformal_correction(
    lo, hi, scale, y_cal, alpha_lo: float, alpha_hi: float | None = None
) -> float | np.ndarray | tuple:
    """Frozen correction from plug-in values on the calibration rows.

    The scoring step of every calibrator: it reads no model. With
    ``alpha_hi`` None, one inflated quantile of max(below, above) at
    ``alpha_lo`` serves both ends; otherwise each tail gets its own. 1-D
    values give float corrections; (trials x n) values give one correction
    per row, as arrays. A scalar plug-in value broadcasts; an array must
    have ``y_cal``'s shape.
    """
    alpha_lo = check_level(alpha_lo)
    if alpha_hi is not None:
        alpha_hi = check_level(alpha_hi)
    for v in (lo, hi, scale):
        if np.ndim(v) and np.shape(v) != np.shape(y_cal):
            raise ValueError(f"plug-in shape {np.shape(v)} does not match y_cal {np.shape(y_cal)}")
    below = (lo - y_cal) / scale
    above = (y_cal - hi) / scale
    if alpha_hi is None:
        return _inflated(np.maximum(below, above), alpha_lo)
    return _inflated(below, alpha_lo), _inflated(above, alpha_hi)


def apply_correction(correction, lo, hi, scale) -> tuple[np.ndarray, np.ndarray]:
    """The band a frozen correction makes around plug-in values.

    The band step of every calibrator, the twin of ``conformal_correction``:
    it reads no model and leaves its inputs alone, so plug-in values can be
    shared between methods. Per-row corrections, one per trial, apply along
    the rows of (trials x n) plug-in values.
    """
    c_lo, c_hi = correction if isinstance(correction, tuple) else (correction, correction)
    c_lo, c_hi = (np.expand_dims(c, -1) if np.ndim(c) else c for c in (c_lo, c_hi))
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
    # bad levels fail before any model is read
    for level in (alpha_lo,) if alpha_hi is None else (alpha_lo, alpha_hi):
        check_level(level)
    X_cal = as_matrix(X_cal)
    y_cal = as_vector(y_cal, X_cal.shape[0])
    plugin = partial(_fitted_plugin, method, models, gamma)
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
    sigma: MeanRegressor,
    X_cal,
    y_cal,
    alpha: float,
    gamma: float = 1.0,
) -> ConformalBand:
    """Variable-width band from residuals scaled by a dispersion estimate.

    Residuals are divided by s(x) = max(sigma(x), 0) + gamma before taking
    the inflated quantile, and the band half-width is s(x) times the
    correction. ``sigma`` is a mean regressor fitted to
    (x_i, |y_i - mu(x_i)|) pairs on the proper training rows; a read below
    zero counts as zero. ``gamma`` regularizes small or zero dispersion
    estimates.
    """
    check_real("gamma", gamma)
    models = {"mean": mu, "dispersion": sigma}
    return _calibrate("local", models, X_cal, y_cal, alpha, gamma=gamma)


def cqr_calibrate(q: QuantileRegressor, X_cal, y_cal, alpha: float) -> ConformalBand:
    """Symmetric conformalization of a fitted quantile pair.

    Each read of the pair is first repaired with ``fix_crossing``.
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

"""Data sources: a synthetic generator with known conditional quantiles,
CSV ingestion, and train-set standardization.

The synthetic response follows

    Y = 2 sin(X) + s(X) * eps  (+ outlier_scale * eps' with prob. outlier_prob)

with X uniform on [0, 5] and eps, eps' independent standard normals. The
dispersion s(x) is ``noise_scale * (0.1 + x)`` for the heteroscedastic
kinds and the constant ``noise_scale`` for the homoscedastic kind. The
conditional law is a two-component Gaussian mixture, so exact conditional
quantiles are available for oracle tests: closed form without outliers,
otherwise Brent's root finder on the mixture CDF, run on all points at once
and bit-identical to one ``scipy.optimize.brentq`` call per point.
"""

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .quantiles import check_level, check_level_pair
from .regressors.base import (
    DispersionRegressor,
    MeanRegressor,
    QuantileRegressor,
    as_matrix,
    as_vector,
    check_count,
    check_real,
)

__all__ = [
    "SYNTHETIC_KINDS",
    "SyntheticSpec",
    "Dataset",
    "OracleQuantiles",
    "OracleMeanRegressor",
    "OracleQuantileRegressor",
    "OracleDispersionRegressor",
    "generate",
    "load_csv",
    "StandardizationParams",
    "standardize_fit",
    "standardize_apply",
    "standardize_invert",
]

SYNTHETIC_KINDS = ("homoscedastic", "heteroscedastic", "heteroscedastic_outliers")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus response vector."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = as_matrix(self.X)
        y = as_vector(self.y, X.shape[0])
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise ValueError(
                f"{len(self.feature_names)} feature names for {X.shape[1]} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for the synthetic generator.

    ``outlier_prob`` and ``outlier_scale`` only take effect for kind
    "heteroscedastic_outliers"; the other kinds draw no outliers.
    """

    kind: str = "heteroscedastic_outliers"
    n: int = 2000
    noise_scale: float = 1.0
    outlier_prob: float = 0.05
    outlier_scale: float = 25.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(
                f"kind must be one of {SYNTHETIC_KINDS}, got {self.kind!r}"
            )
        check_count("n", self.n)
        check_real("noise_scale", self.noise_scale, positive=True)
        if not 0.0 <= self.outlier_prob < 1.0:
            raise ValueError(
                f"outlier_prob must be in [0, 1), got {self.outlier_prob}"
            )
        check_real("outlier_scale", self.outlier_scale, positive=True)


@dataclass(frozen=True)
class OracleQuantiles:
    """Exact conditional summaries of the synthetic law.

    With outliers, Y given X = x is the mixture
    (1-p) N(m(x), s(x)^2) + p N(m(x), s(x)^2 + outlier_scale^2); quantiles
    come from inverting its CDF numerically to near machine precision. The
    inversion brackets every point by doubling a radius around m(x), then
    runs Brent's method on all points in lockstep (``_brentq_lockstep``),
    which returns the same bits as ``brentq(..., xtol=1e-13, rtol=1e-15)``
    called point by point. ``quantile`` takes one level or an array of
    levels that broadcasts against x, so several levels cost one solve; it
    raises ValueError for non-finite x and where the scale s(x) is not
    positive.
    """

    noise_scale: float
    heteroscedastic: bool = True
    outlier_prob: float = 0.0
    outlier_scale: float = 1.0

    def mean(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 2.0 * np.sin(x)

    def scale(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.heteroscedastic:
            return self.noise_scale * (0.1 + x)
        return np.full_like(x, self.noise_scale)

    def quantile(self, x, level) -> np.ndarray:
        level = np.asarray(level, dtype=float)
        for one in level.flat:
            check_level(one)
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("x must be finite")
        m = self.mean(x)
        s = self.scale(x)
        if not np.all(s > 0.0):
            raise ValueError("the noise scale must be positive at every x")
        if self.outlier_prob == 0.0:
            return m + s * ndtri(level)
        p = self.outlier_prob
        wide = np.sqrt(s * s + self.outlier_scale**2)
        shape = np.broadcast_shapes(x.shape, level.shape)
        m, s, wide, level = (np.broadcast_to(v, shape).ravel() for v in (m, s, wide, level))

        def cdf_minus_level(q, i):
            d = q - m[i]
            return (1.0 - p) * ndtr(d / s[i]) + p * ndtr(d / wide[i]) - level[i]

        # double each radius until [m - radius, m + radius] brackets the level
        radius = 10.0 * wide
        grow = np.arange(m.size)
        while grow.size:
            r = radius[grow]
            miss = (cdf_minus_level(m[grow] - r, grow) > 0) | (
                cdf_minus_level(m[grow] + r, grow) < 0
            )
            grow = grow[miss]
            radius[grow] *= 2.0
        return _brentq_lockstep(cdf_minus_level, m - radius, m + radius).reshape(shape)

    def band(self, x, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """Central (1 - alpha) interval [q_{alpha/2}(x), q_{1-alpha/2}(x)]."""
        levels = np.array([alpha / 2.0, 1.0 - alpha / 2.0]).reshape((2,) + (1,) * np.ndim(x))
        lo, hi = self.quantile(x, levels)
        return lo, hi

    def mean_abs_deviation(self, x) -> np.ndarray:
        """E|Y - m(x)| given X = x; each mixture component is half-normal."""
        s = self.scale(x)
        wide = np.sqrt(s * s + self.outlier_scale**2)
        p = self.outlier_prob
        return math.sqrt(2.0 / math.pi) * ((1.0 - p) * s + p * wide)


def _brentq_lockstep(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Roots of ``f(q, i)`` for every point i in its bracket [a[i], b[i]].

    This is scipy's ``brentq`` (``brentq.c``, after Brent 1973, ch. 4) run
    on all points in lockstep: each point keeps its own state and takes
    exactly the interpolate / extrapolate / bisect steps the scalar routine
    would, so the roots are bit-identical to one ``brentq`` call per point.
    ``f(q, i)`` evaluates the function of points ``i`` at ``q``; points leave
    the active set as they converge, so f only sees unconverged points.
    ``f(a[i], i)`` and ``f(b[i], i)`` must not share a strict sign. The
    settings are those of ``brentq(f, a, b, xtol=1e-13, rtol=1e-15)``: at
    most 100 iterations, after which it raises RuntimeError as brentq does.
    """
    xtol, rtol, maxiter = 1e-13, 1e-15, 100
    out = np.empty_like(a)
    idx = np.arange(a.size)
    xpre, xcur = a, b
    fpre, fcur = f(xpre, idx), f(xcur, idx)
    at_end = (fpre == 0) | (fcur == 0)
    out[at_end] = np.where(fpre[at_end] == 0, xpre[at_end], xcur[at_end])
    keep = ~at_end
    idx, xpre, xcur, fpre, fcur = (v[keep] for v in (idx, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros_like(xcur)
    for _ in range(maxiter):
        if not idx.size:
            return out
        # a sign change starts a new bracket [xpre, xcur] with blk = pre
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        # cur is the end with the smaller |f|
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        )

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            out[idx[done]] = xcur[done]
            keep = ~done
            idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep]
                for v in (idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )

        # secant step when pre == blk, inverse quadratic extrapolation
        # otherwise; their values are only used where the scalar code
        # computes them, so divisions by zero elsewhere are harmless
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrap = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, extrap)
        short = (
            (np.abs(spre) > delta)
            & (np.abs(fcur) < np.abs(fpre))
            & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
        )
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(
            np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta)
        )
        fcur = f(xcur, idx)
    if idx.size:
        raise RuntimeError(
            f"Failed to converge after {maxiter} iterations, value is {xcur[0]}"
        )
    return out


def generate(spec: SyntheticSpec) -> tuple[Dataset, OracleQuantiles]:
    """Draw a dataset from the synthetic law along with its exact quantiles."""
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(0.0, 5.0, size=spec.n)
    eps = rng.standard_normal(spec.n)
    outlier_prob = spec.outlier_prob if spec.kind == "heteroscedastic_outliers" else 0.0
    oracle = OracleQuantiles(
        noise_scale=spec.noise_scale,
        heteroscedastic=spec.kind != "homoscedastic",
        outlier_prob=outlier_prob,
        outlier_scale=spec.outlier_scale,
    )
    y = oracle.mean(x) + oracle.scale(x) * eps
    if outlier_prob > 0.0:
        hit = rng.random(spec.n) < outlier_prob
        y = y + np.where(hit, spec.outlier_scale * rng.standard_normal(spec.n), 0.0)
    return Dataset(X=x[:, None], y=y, feature_names=("x",)), oracle


def load_csv(path: str, target_column: str) -> Dataset:
    """Read a numeric UTF-8 CSV with a header row into a dataset; a byte-order mark is skipped.

    Rows containing any cell that does not parse as a finite number are
    dropped; a single warning reports how many. Raises FileNotFoundError
    for a missing file, ValueError("target column not found...") for a bad
    target name, ValueError("duplicate column names...") when two header
    names are equal once stripped, and ValueError("no usable rows...") when
    every row is dropped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"no usable rows in {path}: file is empty") from None
        header = [name.strip() for name in header]
        duplicates = sorted(name for name, n in Counter(header).items() if n > 1)
        if duplicates:
            raise ValueError(f"duplicate column names in {path}: {duplicates}")
        if target_column not in header:
            raise ValueError(
                f"target column not found: {target_column!r} (columns: {header})"
            )
        target_idx = header.index(target_column)
        feature_names = tuple(n for i, n in enumerate(header) if i != target_idx)
        if not feature_names:
            raise ValueError("no feature columns besides the target")

        rows = []
        n_dropped = 0
        for cells in reader:
            if len(cells) != len(header):
                n_dropped += 1
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError:
                n_dropped += 1
                continue
            if not all(math.isfinite(v) for v in values):
                n_dropped += 1
                continue
            rows.append(values)

    if n_dropped:
        warnings.warn(f"dropped {n_dropped} rows with missing or non-numeric cells")
    if not rows:
        raise ValueError(f"no usable rows in {path}")
    data = np.asarray(rows, dtype=float)
    mask = np.ones(len(header), dtype=bool)
    mask[target_idx] = False
    return Dataset(X=data[:, mask], y=data[:, target_idx], feature_names=feature_names)


@dataclass(frozen=True)
class StandardizationParams:
    """Affine feature map and response divisor fitted on proper-training rows.

    ``kept_features`` indexes the original columns that survive (constant
    columns are dropped). Sums are accumulated with ``math.fsum`` so the
    parameters do not depend on row order.
    """

    feature_mean: np.ndarray
    feature_std: np.ndarray
    kept_features: np.ndarray
    response_scale: float


def standardize_fit(X, y) -> StandardizationParams:
    """Per-feature mean/std and mean-|y| divisor from (proper training) rows."""
    X = as_matrix(X)
    y = as_vector(y, X.shape[0])
    n = X.shape[0]
    means = np.array([math.fsum(X[:, j]) / n for j in range(X.shape[1])])
    stds = np.array(
        [
            math.sqrt(math.fsum((X[:, j] - means[j]) ** 2) / n)
            for j in range(X.shape[1])
        ]
    )
    kept = np.flatnonzero(stds > 0.0)
    if kept.size < stds.size:
        warnings.warn(f"dropped {stds.size - kept.size} constant feature(s)")
    if kept.size == 0:
        raise ValueError("all features are constant; nothing to standardize")
    response_scale = math.fsum(np.abs(y)) / n
    if response_scale == 0.0:
        raise ValueError("response mean absolute value is zero; cannot rescale")
    return StandardizationParams(
        feature_mean=means[kept],
        feature_std=stds[kept],
        kept_features=kept,
        response_scale=response_scale,
    )


def standardize_apply(params: StandardizationParams, X, y=None):
    """Map features to z-scores and divide the response by its fitted scale."""
    X = as_matrix(X)
    Xs = (X[:, params.kept_features] - params.feature_mean) / params.feature_std
    if y is None:
        return Xs
    y = as_vector(y, X.shape[0])
    return Xs, y / params.response_scale


def standardize_invert(params: StandardizationParams, X_std, y_std=None):
    """Undo ``standardize_apply`` (for the kept feature columns)."""
    X_std = as_matrix(X_std)
    X = X_std * params.feature_std + params.feature_mean
    if y_std is None:
        return X
    y_std = as_vector(y_std, X_std.shape[0])
    return X, y_std * params.response_scale


class _OracleReadout:
    """Reads the oracle at the feature of X's single column.

    With ``params`` the oracle is composed with that standardization: X is
    in standardized feature units and predictions come back in standardized
    response units. Without it both stay in raw units.
    """

    def __init__(self, oracle: OracleQuantiles, params: StandardizationParams | None = None):
        self.oracle = oracle
        self.params = params

    def _raw_x(self, X) -> np.ndarray:
        if self.params is None:
            return as_matrix(X)[:, 0]
        return standardize_invert(self.params, X)[:, 0]

    def _units(self, y: np.ndarray) -> np.ndarray:
        return y if self.params is None else y / self.params.response_scale


class OracleMeanRegressor(_OracleReadout, MeanRegressor):
    """Point predictor that returns the exact conditional mean."""

    def fit(self, X, y) -> "OracleMeanRegressor":
        return self

    def predict(self, X) -> np.ndarray:
        return self._units(self.oracle.mean(self._raw_x(X)))


class OracleQuantileRegressor(_OracleReadout, QuantileRegressor):
    """Quantile pair that returns the exact conditional quantiles."""

    _levels: tuple[float, float] | None = None

    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "OracleQuantileRegressor":
        check_level_pair(alpha_lo, alpha_hi)
        self._levels = (alpha_lo, alpha_hi)
        return self

    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        if self._levels is None:
            raise RuntimeError("fit() must be called before predict_pair()")
        levels = np.reshape(self._levels, (2, 1))  # one solve for both levels
        lo, hi = self._units(self.oracle.quantile(self._raw_x(X), levels))
        return lo, hi


class OracleDispersionRegressor(_OracleReadout, DispersionRegressor):
    """Dispersion estimate equal to the exact conditional mean absolute deviation."""

    def fit(self, X, residuals) -> "OracleDispersionRegressor":
        return self

    def predict(self, X) -> np.ndarray:
        return self._units(self.oracle.mean_abs_deviation(self._raw_x(X)))

"""Common interfaces for the regression engines.

Engines come in three flavors, matching the three roles a conformal
calibrator can ask for:

* MeanRegressor      -- point prediction of the conditional mean.
* QuantileRegressor  -- a fitted pair of conditional quantile curves.
* DispersionRegressor -- non-negative prediction of residual spread.

All engines fit on the rows they are given and nothing else, and fitted
predictors are immutable: predictions are deterministic functions of the
fitted state.
"""

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "MeanRegressor",
    "QuantileRegressor",
    "DispersionRegressor",
    "ConstantDispersion",
    "NonNegativeDispersion",
    "as_matrix",
    "as_vector",
]


def as_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Coerce features to a 2-D float array of shape (n_samples, n_features).

    ``n_features``, when given, is the width a fitted model expects.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got ndim={X.ndim}")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature matrix contains non-finite entries")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, but the model was fitted on {n_features}"
        )
    return X


def as_vector(y, n_rows: int | None = None) -> np.ndarray:
    """Coerce a response to a 1-D float array, optionally checking its length."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if not np.all(np.isfinite(y)):
        raise ValueError("response vector contains non-finite entries")
    if n_rows is not None and y.size != n_rows:
        raise ValueError(f"response has {y.size} rows, features have {n_rows}")
    return y


class MeanRegressor(ABC):
    """Point predictor of the conditional mean."""

    @abstractmethod
    def fit(self, X, y) -> "MeanRegressor":
        """Fit on the given rows; returns self."""

    @abstractmethod
    def predict(self, X) -> np.ndarray:
        """Predict, one value per row of X."""


class QuantileRegressor(ABC):
    """A pair of conditional quantile predictors fitted jointly."""

    @abstractmethod
    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "QuantileRegressor":
        """Fit lower/upper quantile curves at the given levels; returns self."""

    @abstractmethod
    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Predict (lower, upper) quantiles, one pair per row of X."""


class DispersionRegressor(ABC):
    """Non-negative predictor of local residual spread."""

    @abstractmethod
    def fit(self, X, residuals) -> "DispersionRegressor":
        """Fit on (features, absolute residuals); returns self."""

    @abstractmethod
    def predict(self, X) -> np.ndarray:
        """Predict non-negative dispersion, one value per row of X."""


class ConstantDispersion(DispersionRegressor):
    """A dispersion field that is the same constant everywhere.

    With the constant 1 this makes the locally adaptive calibrator collapse
    exactly onto plain split conformal, which is useful both as a baseline
    and as a consistency check.
    """

    def __init__(self, value: float = 1.0):
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"dispersion must be >= 0 and finite, got {value}")
        self.value = float(value)

    def fit(self, X, residuals) -> "ConstantDispersion":
        return self

    def predict(self, X) -> np.ndarray:
        X = as_matrix(X)
        return np.full(X.shape[0], self.value)


class NonNegativeDispersion(DispersionRegressor):
    """Adapt any mean regressor into a dispersion regressor by clamping at 0."""

    def __init__(self, inner: MeanRegressor):
        self.inner = inner

    def fit(self, X, residuals) -> "NonNegativeDispersion":
        residuals = as_vector(residuals)
        if np.any(residuals < 0):
            raise ValueError("dispersion targets must be non-negative")
        self.inner.fit(X, residuals)
        return self

    def predict(self, X) -> np.ndarray:
        return np.maximum(self.inner.predict(X), 0.0)

"""Common interfaces for the regression engines.

Engines come in two flavors:

* MeanRegressor      -- point prediction of the conditional mean.
* QuantileRegressor  -- a fitted pair of conditional quantile curves.

The dispersion sigma(x) of the locally adaptive method is a MeanRegressor
fitted to the absolute residuals |y - mu(x)|; the conformal module clamps
its reads at zero where it uses them.

All engines fit on the rows they are given and nothing else, and fitted
predictors are immutable: predictions are deterministic functions of the
fitted state. Reads are row-wise: a row's prediction has the same bits
whatever other rows are read with it and whatever the memory layout of X,
so a conformal score is a fixed function of its own row and a block of
rows may be read at once. ``as_matrix`` hands every read C-ordered rows.
"""

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import fields

import numpy as np

from ..quantiles import as_real

__all__ = [
    "MeanRegressor",
    "QuantileRegressor",
    "ConstantDispersion",
    "as_matrix",
    "as_vector",
    "check_count",
    "check_flag",
    "check_real",
    "store_python_values",
]


def as_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Coerce features to a C-ordered 2-D float array of shape (n_samples, n_features).

    ``n_features``, when given, is the width a fitted model expects.
    """
    X = np.asarray(X, dtype=float, order="C")
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


def check_count(name: str, value, minimum: int = 1) -> int:
    """Reject a count that is not an integer (a bool is not one) or is below ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_flag(name: str, value) -> bool:
    """Reject a flag that is not a Python or numpy bool (a truthy string is not one)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_real(name: str, value, positive: bool = False) -> float:
    """Reject a value that is not a real number (see ``as_real``), is not finite,
    or is negative (zero too when ``positive``); returns it as a float."""
    x = as_real(name, value)
    if not ((x > 0 if positive else x >= 0) and math.isfinite(x)):
        raise ValueError(f"{name} must be {'>' if positive else '>='} 0 and finite, got {value}")
    return x


def store_python_values(config) -> None:
    """Store each checked setting of a frozen dataclass that is a number but not a
    Python one (a numpy scalar or 0-d array, a Decimal, a Fraction) as the Python
    number it equals, so the config computes as that Python number would."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (np.generic, np.ndarray)):
            object.__setattr__(config, f.name, value.item())
        elif isinstance(value, numbers.Number) and not isinstance(value, (int, float)):
            object.__setattr__(config, f.name, float(value))


class MeanRegressor(ABC):
    """Point predictor of the conditional mean."""

    @abstractmethod
    def fit(self, X, y) -> "MeanRegressor":
        """Fit on the given rows; returns self."""

    @abstractmethod
    def predict(self, X) -> np.ndarray:
        """Predict, one value per row of X."""


class QuantileRegressor(ABC):
    """A pair of conditional quantile predictors fitted jointly. A pair whose fit ignores
    its levels offers ``predict_quantile(X, level)``, a read at any level or array of
    levels, and quantile-level tuning fits such a pair once per fold."""

    @abstractmethod
    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "QuantileRegressor":
        """Fit lower/upper quantile curves at the given levels; returns self."""

    @abstractmethod
    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Predict (lower, upper) quantiles, one pair per row of X."""


class ConstantDispersion(MeanRegressor):
    """A dispersion field that is the same constant everywhere.

    With the constant 1 this makes the locally adaptive calibrator collapse
    exactly onto plain split conformal, which is useful both as a baseline
    and as a consistency check.
    """

    def __init__(self, value: float = 1.0):
        self.value = check_real("dispersion", value)

    def fit(self, X, residuals) -> "ConstantDispersion":
        return self

    def predict(self, X) -> np.ndarray:
        X = as_matrix(X)
        return np.full(X.shape[0], self.value)

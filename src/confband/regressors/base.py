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
whatever other rows are read with it and whatever the memory layout of X
(ridge and linear reads are row sums, the mlp reads whole zero-padded blocks
of 64 rows, and a forest adds each weight's terms in tree order), so a
conformal score is a fixed function of its own row and a block of rows may
be read at once. ``training_rows`` hands every fit its rows, standardization,
ridge CV and quantile-level tuning included, and ``read_rows`` every read: an
engine is fitted exactly when its ``n_features_in_`` is set, which its fit
does last, so a failed fit leaves it as it was. X is always an n x p matrix
and y a vector of n values: ``as_matrix`` and ``as_vector`` reshape nothing,
and reject any other ndim with a ``ValueError``.
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
    "as_matrix",
    "as_vector",
    "check_count",
    "check_flag",
    "check_real",
    "check_response_size",
    "read_rows",
    "store_python_values",
    "training_rows",
]


def as_matrix(X, n_features: int | None = None) -> np.ndarray:
    """Coerce features to a C-ordered 2-D float array of shape (n_samples, n_features).

    X must be 2-D already: a 1-D X could be one row or one column, so it is
    rejected like a 3-D one. ``n_features``, when given, is the width a fitted
    model expects.
    """
    X = np.asarray(X, dtype=float, order="C")
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
    """Coerce a response to a 1-D float array, optionally checking its length; a
    response of any other ndim is rejected, not flattened."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-D response vector, got ndim={y.ndim}")
    if not np.all(np.isfinite(y)):
        raise ValueError("response vector contains non-finite entries")
    if n_rows is not None and y.size != n_rows:
        raise ValueError(f"response has {y.size} rows, features have {n_rows}")
    return y


def training_rows(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``as_matrix(X)`` and ``as_vector(y)`` of as many rows, for every fit before its
    own rules; X with no row or no feature column is rejected."""
    X = as_matrix(X)
    if 0 in X.shape:
        raise ValueError(
            f"need at least one row and one feature column to fit, got X of shape {X.shape}"
        )
    return X, as_vector(y, X.shape[0])


def read_rows(model, X) -> np.ndarray:
    """``as_matrix(X, model.n_features_in_)`` for a read; an unfitted model is rejected."""
    if model.n_features_in_ is None:
        raise RuntimeError("fit() must be called before the model is read")
    return as_matrix(X, model.n_features_in_)


def check_response_size(y: np.ndarray, log2_bound: int, what: str) -> None:
    """Reject responses with n * max|y| above ``2**log2_bound``, the bound up to which
    the fit that ``what`` names keeps its sums finite: 2**1023 where it only sums
    responses, lower where it squares them."""
    y_max = float(np.max(np.abs(y)))
    if y_max > 2.0**log2_bound / y.size:
        raise ValueError(
            f"responses too large to {what}: need n * max|y| <= 2**{log2_bound}, "
            f"got {y.size} * {y_max:.6g}"
        )


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

    n_features_in_: int | None = None

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

    n_features_in_: int | None = None

    @abstractmethod
    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "QuantileRegressor":
        """Fit lower/upper quantile curves at the given levels; returns self."""

    @abstractmethod
    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Predict (lower, upper) quantiles, one pair per row of X."""


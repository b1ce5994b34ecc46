"""Linear quantile regression by full-batch subgradient descent.

Each quantile level gets its own linear model w, b minimizing the mean
pinball loss. The step size decays as lr / sqrt(1 + t), the standard
schedule under which subgradient descent on a convex piecewise-linear
objective converges. The response is rescaled internally by its mean
absolute value so the step size is decoupled from the data scale; fitted
predictions are returned in original units.
"""

import numpy as np

from ..losses import PinballLoss
from ..quantiles import check_level_pair
from .base import (
    MeanRegressor,
    QuantileRegressor,
    check_count,
    check_real,
    check_response_size,
    read_rows,
    training_rows,
)

__all__ = ["LinearPinballModel", "LinearQuantilePair", "LinearMedianRegressor"]


class LinearPinballModel:
    """A single linear model trained on the pinball loss at one level."""

    n_features_in_: int | None = None

    def __init__(self, alpha: float, epochs: int = 2000, learning_rate: float = 0.5):
        self.pinball = PinballLoss(alpha)
        self.epochs = check_count("epochs", epochs)
        self.learning_rate = check_real("learning_rate", learning_rate, positive=True)

    def fit(self, X, y) -> "LinearPinballModel":
        X, y = training_rows(X, y)
        check_response_size(y, 1023, "fit a linear pinball model on")  # the scale sums them
        n = X.shape[0]
        scale = float(np.mean(np.abs(y)))
        if scale == 0.0:
            scale = 1.0
        ys = y / scale

        w = np.zeros(X.shape[1])
        b = 0.0
        for t in range(self.epochs):
            pred = X @ w + b
            g = self.pinball.subgradient(ys, pred)
            step = self.learning_rate / np.sqrt(1.0 + t)
            w -= step * (X.T @ g) / n
            b -= step * float(np.mean(g))
            if not (np.all(np.isfinite(w)) and np.isfinite(b)):
                raise ValueError("diverged; reduce learning rate")
        self.coef_ = w
        self.intercept_ = b
        self._y_scale = scale
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = read_rows(self, X)
        return ((X * self.coef_).sum(axis=1) + self.intercept_) * self._y_scale


class LinearQuantilePair(QuantileRegressor):
    """Lower/upper conditional quantile curves, one linear model per level."""

    def __init__(self, epochs: int = 2000, learning_rate: float = 0.5):
        self.epochs = check_count("epochs", epochs)
        self.learning_rate = check_real("learning_rate", learning_rate, positive=True)

    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "LinearQuantilePair":
        alpha_lo, alpha_hi = check_level_pair(alpha_lo, alpha_hi)
        lo = LinearPinballModel(alpha_lo, self.epochs, self.learning_rate).fit(X, y)
        hi = LinearPinballModel(alpha_hi, self.epochs, self.learning_rate).fit(X, y)
        self._lo, self._hi, self.n_features_in_ = lo, hi, lo.n_features_in_
        return self

    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        X = read_rows(self, X)
        return self._lo.predict(X), self._hi.predict(X)


class LinearMedianRegressor(MeanRegressor):
    """Conditional median as a point predictor (pinball loss at level 0.5)."""

    def __init__(self, epochs: int = 2000, learning_rate: float = 0.5):
        self._model = LinearPinballModel(0.5, epochs, learning_rate)

    def fit(self, X, y) -> "LinearMedianRegressor":
        self.n_features_in_ = self._model.fit(X, y).n_features_in_
        return self

    def predict(self, X) -> np.ndarray:
        return self._model.predict(X)

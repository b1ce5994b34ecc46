"""The pinball loss that trains the quantile regression engines.

The pinball (check) loss at level alpha is

    rho_alpha(y, y_hat) = alpha * (y - y_hat)        if y - y_hat > 0
                          (1 - alpha) * (y_hat - y)  otherwise.

Its population minimizer over constant predictions is the alpha-quantile,
which is what makes it the right objective for quantile regression.
Batch losses are means, not sums, so learning rates do not depend on the
batch size.
"""

from dataclasses import dataclass

import numpy as np

from .quantiles import check_level

__all__ = ["PinballLoss"]


@dataclass(frozen=True)
class PinballLoss:
    """Pinball loss pinned at a fixed quantile level.

    Parameters
    ----------
    alpha : float
        Target quantile level, strictly inside (0, 1).
    """

    alpha: float

    def __post_init__(self):
        check_level(self.alpha)

    def loss(self, y, y_hat):
        """Elementwise pinball loss; broadcasts like numpy."""
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        diff = y - y_hat
        out = np.where(diff > 0, self.alpha * diff, (self.alpha - 1.0) * diff)
        return float(out) if out.ndim == 0 else out

    def subgradient(self, y, y_hat):
        """Subgradient of the loss with respect to y_hat; broadcasts like numpy.

        Returns -alpha where y > y_hat and (1 - alpha) where y < y_hat.
        At the kink y == y_hat +0.0 is chosen, so an exact fit is a
        stationary point. Inputs are read as floats; a NaN gives NaN.
        """
        return np.heaviside(np.subtract(y_hat, y, dtype=float), self.alpha) - self.alpha

    def mean_loss(self, y, y_hat) -> float:
        return float(np.mean(self.loss(y, y_hat)))

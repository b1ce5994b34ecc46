"""Exact empirical quantiles as order statistics.

All conformal calibration in this package rests on one primitive: the
empirical quantile of a finite sample, computed as an exact order
statistic with no interpolation. Interpolated quantiles would silently
void the finite-sample coverage guarantees, which are proved for the
ceiling-index formula only.

For a sorted sample z_(1) <= ... <= z_(n):

* left empirical quantile at level a:   z_(ceil(a * n))
* right empirical quantile at level a:  z_(floor(a * n) + 1)
* inflated quantile at miscoverage a:   left quantile at (1 - a)(1 + 1/n),
  or +inf when that level exceeds 1 (the calibration set is too small to
  support the guarantee, so the only valid interval is infinite).

``SortedSample`` answers these queries for one sample. A Monte Carlo
audit calibrates a whole block of samples at once: ``inflated_quantiles``
sorts every row of a (trials x n) array in one call and takes the same
order statistic from each, by the same index rule (``_inflated_rank``).
"""

import math

import numpy as np

__all__ = ["SortedSample", "as_real", "check_level", "check_level_pair", "inflated_quantiles"]

# Levels are floats, so products like 0.9 * (n + 1) can land a hair above
# or below an exact integer boundary. Indices snap to the boundary when
# within this relative tolerance; real data never puts a level this close
# to a boundary by accident.
_BOUNDARY_RTOL = 1e-9


def as_real(name: str, value) -> float:
    """``value`` as a float; ValueError unless it is one real number.

    A string, bytes or a bool is not a real number, whatever ``float``
    makes of it; neither is None or an array of more than one value.
    """
    if not isinstance(value, (str, bytes, bool, np.bool_)):
        try:
            return float(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def check_level(alpha: float) -> float:
    """Validate a quantile/miscoverage level, returning it as a float.

    Raises ValueError unless alpha is a real number (see ``as_real``) with
    0 < alpha < 1 strictly.
    """
    alpha = as_real("level", alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"level must be in the open interval (0, 1), got {alpha}")
    return alpha


def check_level_pair(alpha_lo: float, alpha_hi: float) -> tuple[float, float]:
    """Validate the levels of a quantile pair: both valid, the lower below the upper.

    Returns the pair as floats.
    """
    alpha_lo = check_level(alpha_lo)
    alpha_hi = check_level(alpha_hi)
    if not alpha_lo < alpha_hi:
        raise ValueError(f"alpha_lo must be below alpha_hi, got ({alpha_lo}, {alpha_hi})")
    return alpha_lo, alpha_hi


def _snap(x: float) -> float:
    """Snap x to the nearest integer when within floating-point noise of it."""
    nearest = round(x)
    if abs(x - nearest) <= _BOUNDARY_RTOL * max(1.0, abs(x)):
        return float(nearest)
    return x


def _checked_scores(values) -> np.ndarray:
    """Scores as a float array; empty or non-finite scores are rejected."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    return arr


def _inflated_rank(n: int, alpha: float) -> int | None:
    """1-based rank of the inflated quantile in a sample of n; None when it is +inf.

    The inflated level (1 - alpha)(1 + 1/n) exceeds 1 when the sample is too
    small to certify 1 - alpha coverage with any finite value.
    """
    # (1 - alpha)(1 + 1/n) * n == (1 - alpha)(n + 1); the single-product
    # form keeps exact integer boundaries exact.
    scaled = _snap((1.0 - alpha) * (n + 1))
    if scaled > n:
        return None
    return max(int(math.ceil(scaled)), 1)


def inflated_quantiles(scores, alpha: float) -> np.ndarray:
    """The inflated quantile of each sample along the last axis of ``scores``.

    Row t of a (trials x n) array gives entry t of the result, the value
    ``SortedSample(scores[t]).inflated_quantile(alpha)`` returns; one sort
    serves every row, and a scalar score is a sample of one. Raises ValueError
    for empty or non-finite scores.
    """
    alpha = check_level(alpha)
    scores = np.atleast_1d(_checked_scores(scores))
    k = _inflated_rank(scores.shape[-1], alpha)
    if k is None:
        return np.full(scores.shape[:-1], math.inf)
    return np.sort(scores, axis=-1)[..., k - 1].copy()


class SortedSample:
    """An immutable ordered multiset of real scores with order-statistic queries.

    Parameters
    ----------
    values : array-like of shape (n,)
        Real scores; sorted internally. Must be non-empty and finite.
        Ties are permitted.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = np.sort(_checked_scores(values).reshape(-1))
        arr.flags.writeable = False
        self._values = arr

    @property
    def n(self) -> int:
        return self._values.size

    def order_statistic(self, k: int) -> float:
        """Return the k-th smallest value, 1-indexed."""
        if not 1 <= k <= self.n:
            raise ValueError(f"order statistic index must be in [1, {self.n}], got {k}")
        return float(self._values[k - 1])

    def quantile(self, level: float) -> float:
        """Left empirical quantile: the ceil(level * n)-th order statistic."""
        level = check_level(level)
        k = int(math.ceil(_snap(level * self.n)))
        k = max(k, 1)
        return self.order_statistic(k)

    def right_quantile(self, level: float) -> float:
        """Right empirical quantile: the (floor(level * n) + 1)-th order statistic."""
        level = check_level(level)
        k = int(math.floor(_snap(level * self.n))) + 1
        k = min(k, self.n)
        return self.order_statistic(k)

    def inflated_quantile(self, alpha: float) -> float:
        """Calibration quantile at the inflated level (1 - alpha)(1 + 1/n).

        The +1/n inflation accounts for the not-yet-seen test point. When
        the inflated level exceeds 1 the sample is too small to certify
        1 - alpha coverage with any finite value, and +inf is returned.
        """
        k = _inflated_rank(self.n, check_level(alpha))
        return math.inf if k is None else self.order_statistic(k)


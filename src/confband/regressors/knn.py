"""k-nearest-neighbor dispersion: local mean of absolute residuals."""

import numpy as np

from .base import MeanRegressor, check_count, check_response_size, read_rows, training_rows

__all__ = ["KnnDispersion"]


def _euclidean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise distances between the rows of A and B.

    Squares are summed one feature at a time, left to right, which gives
    the same bits as ``scipy.spatial.distance.cdist`` without importing
    ``scipy.spatial``.
    """
    acc = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        d = A[:, j, None] - B[:, j]
        acc += d * d
    return np.sqrt(acc)


class KnnDispersion(MeanRegressor):
    """Estimate residual spread at x as the mean absolute residual of the
    k training rows nearest to x in Euclidean distance.

    When the rows at the k-th distance outnumber the places left for them,
    each of them gets weight (k - rows closer) / rows at that distance, so
    the read does not depend on training-row order. Residuals with
    n * max|r| above 2**1023, and reads whose distances overflow a float,
    are a ``ValueError``.

    Parameters
    ----------
    k : int
        Neighborhood size; must not exceed the number of training rows.
    """

    def __init__(self, k: int = 11):
        self.k = check_count("k", k)

    def fit(self, X, residuals) -> "KnnDispersion":
        X, r = training_rows(X, residuals)
        if np.any(r < 0):
            raise ValueError("residuals must be non-negative (absolute residuals)")
        # a read sums k <= n residuals
        check_response_size(r, 1023, "average as k-NN residuals")
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds the {X.shape[0]} training rows")
        self._X = X.copy()
        self._r = r.copy()
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        X = read_rows(self, X)
        with np.errstate(over="ignore"):  # overflowed distances tie at inf: refused below
            dists = _euclidean(X, self._X)
        if not np.all(np.isfinite(dists)):
            raise ValueError("distances between rows overflow a float; rescale the features")
        if self.k == self._X.shape[0]:
            neighbors = np.broadcast_to(
                np.arange(self._X.shape[0]), (X.shape[0], self._X.shape[0])
            )
            return self._r[neighbors].mean(axis=1)
        neighbors = np.argpartition(dists, self.k - 1, axis=1)[:, : self.k]
        read = self._r[neighbors].mean(axis=1)
        # argpartition put the k-th distance last; share it where a tie straddles it
        kth = np.take_along_axis(dists, neighbors[:, -1:], axis=1)
        tied = np.flatnonzero(np.count_nonzero(dists <= kth, axis=1) > self.k)
        if tied.size:
            dists, kth = dists[tied], kth[tied]
            closer, at_kth = dists < kth, dists == kth
            share = (self.k - np.count_nonzero(closer, axis=1)) / np.count_nonzero(at_kth, axis=1)
            r = self._r
            read[tied] = (
                np.where(closer, r, 0.0).sum(axis=1) + share * np.where(at_kth, r, 0.0).sum(axis=1)
            ) / self.k
        return read

"""Regression forests with quantile readout from leaf-resident samples.

Trees are grown CART-style on bootstrap resamples: each split minimizes the
summed within-child squared error, thresholds sit at the midpoint between
adjacent sorted feature values, and growth stops when a node cannot produce
two children of at least ``min_leaf_size`` rows or no split reduces the
squared error. Leaves keep the rows routed to them during growth.

A query point x collects weight 1/n_trees from every tree, split uniformly
over the rows in the leaf that x reaches. Quantiles are read off the
resulting weighted empirical CDF by the left-quantile rule: the smallest
stored response whose cumulative weight reaches the requested level. The
mean readout averages leaf means across trees, which is the expectation of
the same weighted CDF.
"""

from dataclasses import dataclass

import numpy as np

from ..quantiles import check_level
from .base import MeanRegressor, QuantileRegressor, as_matrix, as_vector

__all__ = [
    "ForestConfig",
    "QuantileForestRegressor",
    "ForestMeanRegressor",
]

# slack applied to cumulative-weight thresholds so sums of equal weights
# that land a float ulp short of an exact level still count as reaching it
_CDF_RTOL = 1e-9


@dataclass(frozen=True)
class ForestConfig:
    """Forest growth settings.

    Attributes
    ----------
    n_trees : int
        Number of trees.
    min_leaf_size : int
        Minimum rows per leaf; nodes smaller than twice this are not split.
    bootstrap : bool
        Grow each tree on a resample of the rows, drawn with replacement.
    seed : int
        Seeds resampling; trees get independent streams so the forest is
        reproducible.
    """

    n_trees: int = 1000
    min_leaf_size: int = 5
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf_size < 1:
            raise ValueError(f"min_leaf_size must be >= 1, got {self.min_leaf_size}")


class _Tree:
    """Flat-array binary tree. ``feature[node] == -1`` marks a leaf.

    ``leaf_rows[leaf_start[node]:leaf_start[node] + leaf_count[node]]`` are
    the training-row indices (with bootstrap multiplicity) held by a leaf.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "leaf_start",
        "leaf_count",
        "leaf_rows",
        "leaf_mean",
        "_csr",
    )

    def __init__(self, feature, threshold, left, right, leaf_start, leaf_count, leaf_rows, leaf_mean):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.leaf_start = leaf_start
        self.leaf_count = leaf_count
        self.leaf_rows = leaf_rows
        self.leaf_mean = leaf_mean
        self._csr = None

    def leaf_weight_table(self):
        """Per-leaf deduplicated rows and their weight shares, built lazily.

        Returns ``(start, count, rows, weights)`` arrays: for a leaf node,
        ``rows[start[node]:...]`` are its distinct training rows and
        ``weights`` their multiplicity divided by the leaf size.
        """
        if self._csr is None:
            leaf_nodes = np.flatnonzero(self.feature < 0)
            node_by_seg = leaf_nodes[np.argsort(self.leaf_start[leaf_nodes])]
            sizes = self.leaf_count[node_by_seg]
            # run-length encode (segment, row) pairs in one global sort
            seg = np.repeat(np.arange(sizes.size), sizes)
            stride = int(self.leaf_rows.max()) + 1
            key = np.sort(seg * stride + self.leaf_rows)
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            uniq = key[first]
            mult = np.diff(np.flatnonzero(np.append(first, True)))
            useg = uniq // stride
            per_seg = np.bincount(useg, minlength=sizes.size)
            start = np.zeros(self.feature.size, dtype=np.int64)
            count = np.zeros(self.feature.size, dtype=np.int64)
            start[node_by_seg] = np.cumsum(per_seg) - per_seg
            count[node_by_seg] = per_seg
            self._csr = (start, count, uniq % stride, mult / sizes[useg])
        return self._csr

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index reached by each row of X (route left on <=)."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = feat >= 0
            if not active.any():
                return node
            rows = np.flatnonzero(active)
            x = X[rows, feat[rows]]
            go_left = x <= self.threshold[node[rows]]
            node[rows] = np.where(
                go_left, self.left[node[rows]], self.right[node[rows]]
            )


def _best_split(X, y, orders, min_leaf):
    """Lowest summed child squared error over (feature, threshold) pairs.

    ``orders[j]`` holds the node's rows sorted by feature j, so no sorting
    happens here. Minimizing the summed child squared error equals
    maximizing s_L^2/k + s_R^2/(m-k) (the squared-response term is constant
    across splits), and a split only counts if that gain strictly exceeds
    the unsplit node's s^2/m. Returns ``(feature, threshold, k)`` with k
    the left-child size in sorted order, or None.
    """
    m = orders[0].size
    total_sum = float(y[orders[0]].sum())
    parent_gain = total_sum * total_sum / m
    lo = min_leaf - 1
    hi = m - min_leaf

    best_gain = parent_gain
    best = None
    for j, rows in enumerate(orders):
        xs = X[rows, j]
        valid = xs[lo:hi] < xs[lo + 1 : hi + 1]
        if not valid.any():
            continue
        csum = np.cumsum(y[rows])[lo:hi]
        k = np.arange(min_leaf, hi + 1, dtype=np.float64)
        gain = np.where(
            valid,
            csum * csum / k + (total_sum - csum) ** 2 / (m - k),
            -np.inf,
        )
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            x_lo, x_hi = xs[lo + i], xs[lo + i + 1]
            t = 0.5 * (x_lo + x_hi)
            if t >= x_hi:  # midpoint rounded up to the right value; keep routing exact
                t = x_lo
            best_gain = float(gain[i])
            best = (j, t, min_leaf + i)
    return best


def _grow_tree(X, y, rows0, min_leaf) -> _Tree:
    n_features = X.shape[1]
    feature, threshold, left, right = [], [], [], []
    leaf_start, leaf_count = [], []
    leaf_rows_parts = []
    leaf_mean = []
    n_leaf_rows = 0

    # sort once per tree; children inherit order through stable partition
    root_orders = [rows0[np.argsort(X[rows0, j])] for j in range(n_features)]
    stack = [(0, root_orders)]
    feature.append(0)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    leaf_start.append(0)
    leaf_count.append(0)
    leaf_mean.append(0.0)

    while stack:
        node, orders = stack.pop()
        split = None
        if orders[0].size >= 2 * min_leaf:
            split = _best_split(X, y, orders, min_leaf)
        if split is None:
            rows = orders[0]
            feature[node] = -1
            leaf_start[node] = n_leaf_rows
            leaf_count[node] = rows.size
            leaf_mean[node] = float(y[rows].mean())
            leaf_rows_parts.append(rows)
            n_leaf_rows += rows.size
            continue
        j, t, _k = split
        feature[node] = j
        threshold[node] = t
        # duplicated bootstrap rows share a feature value, so membership by
        # row id routes them together and each child order stays sorted
        go_left = X[:, j] <= t
        left_orders = [o[go_left[o]] for o in orders]
        right_orders = [o[~go_left[o]] for o in orders]
        for child_orders, side in ((left_orders, left), (right_orders, right)):
            child = len(feature)
            side[node] = child
            feature.append(0)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            leaf_start.append(0)
            leaf_count.append(0)
            leaf_mean.append(0.0)
            stack.append((child, child_orders))

    return _Tree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(leaf_start, dtype=np.int64),
        np.asarray(leaf_count, dtype=np.int64),
        np.concatenate(leaf_rows_parts) if leaf_rows_parts else np.empty(0, dtype=np.int64),
        np.asarray(leaf_mean, dtype=np.float64),
    )


class _Forest:
    """Grown trees plus the training responses they index into."""

    def __init__(self, X, y, config: ForestConfig):
        X = as_matrix(X)
        y = as_vector(y, X.shape[0])
        n = X.shape[0]
        if n < 2 * config.min_leaf_size:
            raise ValueError(
                f"need at least {2 * config.min_leaf_size} rows to grow leaves of "
                f"size {config.min_leaf_size}, got {n}"
            )
        self.y_train = y
        self.n_features_in_ = X.shape[1]
        self.config = config
        self.trees: list[_Tree] = []
        for seq in np.random.SeedSequence(config.seed).spawn(config.n_trees):
            if config.bootstrap:
                rows0 = np.random.default_rng(seq).integers(0, n, size=n)
            else:
                rows0 = np.arange(n)
            self.trees.append(_grow_tree(X, y, rows0, config.min_leaf_size))
        self._order = np.argsort(y, kind="stable")
        self._y_sorted = y[self._order]

    def weights(self, X: np.ndarray) -> np.ndarray:
        """Per-query weights over training rows; each row sums to 1."""
        nq = X.shape[0]
        n_train = self.y_train.size
        w = np.zeros((nq, n_train))
        w_flat = w.ravel()
        per_tree = 1.0 / len(self.trees)
        for tree in self.trees:
            start, count, rows, shares = tree.leaf_weight_table()
            leaves = tree.apply(X)
            counts_q = count[leaves]
            # ragged gather of each query's leaf slice into one flat batch
            excl = np.cumsum(counts_q) - counts_q
            pos = np.arange(counts_q.sum()) + np.repeat(start[leaves] - excl, counts_q)
            # a query meets each distinct row at most once per tree, so the
            # flat indices are duplicate-free and += accumulates correctly
            flat = np.repeat(np.arange(nq) * n_train, counts_q) + rows[pos]
            w_flat[flat] += per_tree * shares[pos]
        return w

    def quantiles(self, X, levels: tuple[float, ...]) -> list[np.ndarray]:
        """Left empirical quantiles of the weighted CDF, one array per level."""
        X = as_matrix(X, self.n_features_in_)
        for level in levels:
            check_level(level)
        out = [np.empty(X.shape[0]) for _ in levels]
        # chunk queries so the weight matrix stays modest
        chunk = max(1, int(2**22 // max(1, self.y_train.size)))
        for start in range(0, X.shape[0], chunk):
            block = slice(start, start + chunk)
            cumw = np.cumsum(self.weights(X[block])[:, self._order], axis=1)
            total = cumw[:, -1]
            for i, level in enumerate(levels):
                thresh = level * total - _CDF_RTOL * np.maximum(total, 1.0)
                idx = (cumw >= thresh[:, None]).argmax(axis=1)
                out[i][block] = self._y_sorted[idx]
        return out

    def means(self, X) -> np.ndarray:
        X = as_matrix(X, self.n_features_in_)
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.leaf_mean[tree.apply(X)]
        return acc / len(self.trees)


class QuantileForestRegressor(QuantileRegressor):
    """Conditional quantile pair read from a forest's weighted CDF.

    Parameters
    ----------
    config : ForestConfig
        Growth settings; the response quantile levels come from ``fit``.
    """

    def __init__(self, config: ForestConfig = ForestConfig()):
        self.config = config
        self._forest: _Forest | None = None
        self._levels: tuple[float, float] | None = None

    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "QuantileForestRegressor":
        check_level(alpha_lo)
        check_level(alpha_hi)
        if not alpha_lo < alpha_hi:
            raise ValueError(
                f"alpha_lo must be below alpha_hi, got ({alpha_lo}, {alpha_hi})"
            )
        self._forest = _Forest(X, y, self.config)
        self._levels = (alpha_lo, alpha_hi)
        return self

    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        if self._forest is None or self._levels is None:
            raise RuntimeError("fit() must be called before predict_pair()")
        lo, hi = self._forest.quantiles(X, self._levels)
        return lo, hi

    def predict_quantile(self, X, level: float) -> np.ndarray:
        """Weighted-CDF quantile at an arbitrary level from the fitted forest."""
        if self._forest is None:
            raise RuntimeError("fit() must be called before predict_quantile()")
        return self._forest.quantiles(X, (level,))[0]


class ForestMeanRegressor(MeanRegressor):
    """Point predictor: average of per-tree leaf means."""

    def __init__(self, config: ForestConfig = ForestConfig()):
        self.config = config
        self._forest: _Forest | None = None

    def fit(self, X, y) -> "ForestMeanRegressor":
        self._forest = _Forest(X, y, self.config)
        return self

    def predict(self, X) -> np.ndarray:
        if self._forest is None:
            raise RuntimeError("fit() must be called before predict()")
        return self._forest.means(X)

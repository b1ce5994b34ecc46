"""Regression forests with quantile readout from leaf-resident samples.

Trees are grown CART-style on bootstrap resamples: each split minimizes the
summed within-child squared error, thresholds sit at the midpoint between
adjacent sorted feature values, and growth stops when a node cannot produce
two children of at least ``min_leaf_size`` rows or no split reduces the
squared error. Leaves keep the rows routed to them during growth.

Growth runs on batches of trees, breadth first, over presorted attribute
lists (SLIQ, Mehta, Agrawal & Rissanen 1996; the "all leaves collectively"
split finding of XGBoost's exact greedy method). Each feature's sample order
is sorted once per batch; one iteration scores every candidate split of
every frontier node of every tree in the batch, with cumulative sums over
padded blocks of nodes, and then partitions the orders stably, so children
stay sorted. The per-node sums are numpy's own sums of the same values in
the same order, so every tree is bit for bit the tree a node-by-node grower
would produce. A fitted forest is one flat node table per batch, holding
the batch's trees with their leaf sizes and leaf weight table, and is
never written to after growth. A readout routes every tree of a table together:
all (tree, query) pairs step down one depth level at a time, and a pair
drops out of the walk when it reaches its leaf. Tables are read in growth
order, and each table's trees in tree order.

A query point x collects weight 1/n_trees from every tree, split uniformly
over the rows in the leaf that x reaches. Quantiles are read off the
resulting weighted empirical CDF by the left-quantile rule: the smallest
stored response whose cumulative weight reaches the requested level. The
mean readout averages leaf means across trees, which is the expectation of
the same weighted CDF.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..quantiles import check_level, check_level_pair
from .base import MeanRegressor, QuantileRegressor, as_matrix, as_vector, check_count

__all__ = [
    "ForestConfig",
    "QuantileForestRegressor",
    "ForestMeanRegressor",
]

# slack applied to cumulative-weight thresholds so sums of equal weights
# that land a float ulp short of an exact level still count as reaching it
_CDF_RTOL = 1e-9

# bootstrap samples (rows x trees) grown together in one batch; bounds the
# working set of growth as the two bounds below bound the readout's
_GROW_BATCH = 2**16

# (tree, query) pairs routed together in one walk
_ROUTE_PAIRS = 2**20

# weight-matrix cells (queries x training rows) of one quantile readout block
_READ_CELLS = 2**22


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
        for name in ("n_trees", "min_leaf_size"):
            check_count(name, getattr(self, name))


class _NodeTable(NamedTuple):
    """One growth batch of trees as flat node arrays; tree t is rooted at node t.

    ``feature[node] == -1`` marks a leaf. Node ids run level by level, so
    the batch's ``n_trees`` roots come first, in tree order.
    ``leaf_count[node]`` is the number of bootstrap samples (training rows
    with multiplicity) that reached a node, the leaf size at a leaf.
    ``weight_table`` is ``(start, count, rows, weights)``: for a leaf node,
    ``rows[start[node]:start[node] + count[node]]`` are its distinct training
    rows in ascending order and ``weights`` their multiplicity divided by
    the leaf size. The table is the only record of a leaf's rows.
    """

    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_count: np.ndarray
    leaf_mean: np.ndarray
    weight_table: tuple

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node reached by each row of X in each tree (route left on <=).

        Returns an ``(n_trees, rows)`` array. Every (tree, query) pair walks
        down together, one numpy step per depth level, and a pair leaves the
        walk once it stands on a leaf.
        """
        n_rows = X.shape[0]
        # pair p is tree p // n_rows with query row p % n_rows
        node = np.repeat(np.arange(self.n_trees), n_rows)
        walking = np.arange(node.size)
        while walking.size:
            at = node[walking]
            split = np.flatnonzero(self.feature[at] >= 0)
            if split.size < walking.size:  # some pairs stand on their leaf
                walking = walking[split]
                at = at[split]
            go_left = X[walking % n_rows, self.feature[at]] <= self.threshold[at]
            node[walking] = np.where(go_left, self.left[at], self.right[at])
        return node.reshape(self.n_trees, n_rows)


def _ranges(start, size):
    """Positions ``start[i], ..., start[i] + size[i] - 1`` for every i, concatenated."""
    end = np.cumsum(size)
    return np.arange(end[-1] if end.size else 0) + np.repeat(start - (end - size), size)


def _segment_sums(values, start, size):
    """``values[s:s + m].sum()`` for every segment (s, m), bit for bit.

    numpy sums pairwise, so how a sum rounds depends on its length. Segments
    of one length are summed together as the rows of a 2-D block, and numpy
    reduces each row of a block exactly as it reduces a 1-D array.
    """
    by_size = np.argsort(size, kind="stable")
    sizes = size[by_size]
    flat = values[_ranges(start[by_size], sizes)]
    sums = np.empty(size.size)
    bounds = np.append(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1, sizes.size).tolist()
    i = offset = 0
    for j in bounds:
        m = int(sizes[i])
        end = offset + (j - i) * m
        sums[i:j] = np.add.reduce(flat[offset:end].reshape(j - i, m), axis=1)
        i, offset = j, end
    out = np.empty(size.size)
    out[by_size] = sums
    return out


def _best_splits(x, y, orders, start, size, min_leaf):
    """Best split of every node (segment) at once.

    ``orders[j]`` holds every node's samples sorted by feature j, node by
    node in the same segments. Minimizing the summed child squared error
    equals maximizing s_L^2/k + s_R^2/(m-k) (the squared-response term is
    constant across splits), and a split only counts if that gain strictly
    exceeds the unsplit node's s^2/m; ties go to the first feature, then to
    the smallest left child. Thresholds sit at the midpoint between the
    adjacent sorted values. Returns ``(feature, threshold, k)`` arrays with
    k the left-child size; feature is -1 where no split counts.
    """
    total = _segment_sums(y[orders[0]], start, size)
    best = total * total / size
    feature = np.full(size.size, -1)
    threshold = np.zeros(size.size)
    k = np.zeros(size.size, dtype=np.int64)
    lo = min_leaf - 1
    last = orders[0].size - 1
    # pad nodes into blocks of similar size, one block per power of two
    size_class = np.frexp(size.astype(np.float64))[1]
    for cls in np.unique(size_class).tolist():
        sel = np.flatnonzero(size_class == cls)
        m, tot = size[sel], total[sel][:, None]
        width = int(m.max())
        hi = width - min_leaf
        idx = np.minimum(start[sel][:, None] + np.arange(width), last)
        # a split after sorted position i puts i + 1 samples on the left
        i = np.arange(lo, hi)
        k_left = i + 1.0
        # clamped only past a node's end, where the gain is discarded
        k_right = np.maximum(m[:, None] - k_left, 1.0)
        past_end = i >= (m - min_leaf)[:, None]
        row = np.arange(sel.size)
        best_c, feature_c, threshold_c, k_c = best[sel], feature[sel], threshold[sel], k[sel]
        for j, order in enumerate(orders):
            samples = order[idx]
            xs = x[j][samples]
            csum = np.cumsum(y[samples], axis=1)[:, lo:hi]
            invalid = xs[:, lo:hi] >= xs[:, lo + 1 : hi + 1]
            invalid |= past_end
            # csum^2/k + (total - csum)^2/(m - k), evaluated in place
            gain = csum * csum
            gain /= k_left
            right = tot - csum
            right *= right
            right /= k_right
            gain += right
            np.copyto(gain, -np.inf, where=invalid)
            at = gain.argmax(axis=1)
            g = gain[row, at]
            better = g > best_c
            if not better.any():
                continue
            x_lo, x_hi = xs[row, lo + at], xs[row, lo + at + 1]
            t = 0.5 * (x_lo + x_hi)
            # midpoint rounded up to the right value; keep routing exact
            t = np.where(t >= x_hi, x_lo, t)
            best_c = np.where(better, g, best_c)
            feature_c = np.where(better, j, feature_c)
            threshold_c = np.where(better, t, threshold_c)
            k_c = np.where(better, at + min_leaf, k_c)
        feature[sel], threshold[sel], k[sel] = feature_c, threshold_c, k_c
    return feature, threshold, k


def _partition(orders, start, size, k, feature):
    """Split each segment into its left and right child segments, stably.

    A node's left child is the first k samples of its split feature's
    order, which are exactly the samples at or below the threshold; stable
    partitioning keeps each child sorted in every other feature's order.
    """
    goes_left = np.zeros(orders[0].size, dtype=bool)
    for j, order in enumerate(orders):
        on_j = feature == j
        if on_j.any():
            goes_left[order[_ranges(start[on_j], k[on_j])]] = True
    pos = _ranges(start, size)
    # a sample with c left-goers before it in the concatenated segments
    # lands at left_base + c if it goes left, else at right_base - c
    k_before = np.repeat(np.cumsum(k) - k, size)
    left_base = np.repeat(start, size) - k_before
    right_base = pos + np.repeat(k, size) + k_before
    for order in orders:
        samples = order[pos]
        g = goes_left[samples]
        c = np.cumsum(g)
        c -= g
        order[np.where(g, left_base + c, right_base - c)] = samples


def _grow_batch(X, y, R, min_leaf) -> _NodeTable:
    """Grow one tree per row of R, the tree's bootstrap rows, level by level.

    Sample ``u`` of the batch is training row ``R.flat[u]``. Each node is a
    segment of positions holding the same samples in every feature's order;
    one iteration splits every splittable node of the level in all trees,
    and stable partitioning keeps each child's segment sorted, so the sort
    happens once per feature. The leaves end up tiling the feature-0
    order, from which the batch's leaf weight table is built.
    """
    n_trees, n = R.shape
    rows = R.ravel()
    y_s = y[rows]
    x_s = [X[rows, j] for j in range(X.shape[1])]
    tree_base = np.arange(n_trees) * n
    orders = [
        (np.argsort(x.reshape(n_trees, n), axis=1) + tree_base[:, None]).ravel()
        for x in x_s
    ]

    start, size = tree_base, np.full(n_trees, n)
    levels = []
    while start.size:
        feature = np.full(start.size, -1)
        threshold = np.zeros(start.size)
        k = np.zeros(start.size, dtype=np.int64)
        can = np.flatnonzero(size >= 2 * min_leaf)
        if can.size:
            feature[can], threshold[can], k[can] = _best_splits(
                x_s, y_s, orders, start[can], size[can], min_leaf
            )
        levels.append((start, size, feature, threshold))
        split = np.flatnonzero(feature >= 0)
        s, m, k = start[split], size[split], k[split]
        _partition(orders, s, m, k, feature[split])
        start = np.column_stack((s, s + k)).ravel()
        size = np.column_stack((k, m - k)).ravel()
    return _build_table(levels, rows[orders[0]], y_s[orders[0]], n)


def _build_table(levels, leaf_rows, leaf_y, n) -> _NodeTable:
    """The node table, with its leaf weight table, of a grown batch.

    ``levels`` holds each level's ``(start, size, feature, threshold)``
    node arrays, the first level being the roots in tree order; ``leaf_rows``
    and ``leaf_y`` are the training rows and responses of the final
    feature-0 order, in which every node's segment holds its rows.
    """
    # node ids run level by level, and by position within a level; a split
    # node's children are consecutive ids in the next level
    start, size, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    level_size = np.array([len(lv[0]) for lv in levels])
    next_level = np.repeat(np.cumsum(level_size), level_size)
    is_split = feature >= 0
    rank = np.cumsum(is_split) - is_split
    rank -= np.repeat(rank[np.cumsum(level_size) - level_size], level_size)
    left = np.where(is_split, next_level + 2 * rank, -1)
    right = np.where(is_split, left + 1, -1)

    leaves = np.flatnonzero(~is_split)
    leaves = leaves[np.argsort(start[leaves])]  # leaf segments tile the batch
    leaf_size = size[leaves]
    leaf_mean = np.zeros(start.size)
    leaf_mean[leaves] = _segment_sums(leaf_y, start[leaves], leaf_size) / leaf_size

    # weight table: run-length encode (leaf, row) pairs in one batch sort
    key = np.sort(np.repeat(np.arange(leaves.size), leaf_size) * n + leaf_rows)
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    uniq = key[first]
    mult = np.diff(np.flatnonzero(np.append(first, True)))
    leaf_of = uniq // n
    per_leaf = np.bincount(leaf_of, minlength=leaves.size)
    w_start = np.zeros(start.size, dtype=np.int64)
    w_count = np.zeros(start.size, dtype=np.int64)
    w_start[leaves] = np.cumsum(per_leaf) - per_leaf
    w_count[leaves] = per_leaf
    weight_table = (w_start, w_count, uniq - leaf_of * n, mult / leaf_size[leaf_of])
    return _NodeTable(int(level_size[0]), feature, threshold, left, right, size,
                      leaf_mean, weight_table)


class _Forest:
    """Grown node tables, one per growth batch, plus the training responses they index into."""

    def __init__(self, X, y, config: ForestConfig):
        X = as_matrix(X)
        y = as_vector(y, X.shape[0])
        n = X.shape[0]
        if X.shape[1] == 0:
            raise ValueError("X has no feature columns")
        if n < 2 * config.min_leaf_size:
            raise ValueError(
                f"need at least {2 * config.min_leaf_size} rows to grow leaves of "
                f"size {config.min_leaf_size}, got {n}"
            )
        self.y_train = y
        self.n_features_in_ = X.shape[1]
        self.config = config
        self.tables: list[_NodeTable] = []
        seqs = np.random.SeedSequence(config.seed).spawn(config.n_trees)
        per_batch = max(1, _GROW_BATCH // n)
        for b in range(0, len(seqs), per_batch):
            # draw a batch's bootstrap rows only when the batch is grown
            batch = seqs[b : b + per_batch]
            if config.bootstrap:
                R = np.stack([np.random.default_rng(s).integers(0, n, size=n) for s in batch])
            else:
                R = np.broadcast_to(np.arange(n), (len(batch), n))
            self.tables.append(_grow_batch(X, y, R, config.min_leaf_size))
        self._order = np.argsort(y, kind="stable")
        self._y_sorted = y[self._order]

    def _leaves(self, X: np.ndarray):
        """Yield ``(block, table, by_tree)`` table after table, ``by_tree`` being
        ``table.apply(X[block])`` on a block of at most ``_ROUTE_PAIRS`` pairs."""
        for table in self.tables:
            step = max(1, _ROUTE_PAIRS // table.n_trees)
            for start in range(0, X.shape[0], step):
                block = slice(start, start + step)
                yield block, table, table.apply(X[block])

    def weights(self, X: np.ndarray) -> np.ndarray:
        """Per-query weights over training rows; each row sums to 1."""
        n_train = self.y_train.size
        w = np.zeros((X.shape[0], n_train))
        per_tree = 1.0 / self.config.n_trees
        for block, table, by_tree in self._leaves(X):
            start, count, rows, shares = table.weight_table
            # the block's rows of w are contiguous, so this flat view writes through
            w_flat = w[block].reshape(-1)
            query_base = np.arange(by_tree.shape[1]) * n_train
            # trees are added one at a time in growth order, so each weight
            # sums its trees' shares in the same order whatever the blocks
            for leaves in by_tree:
                counts_q = count[leaves]
                # ragged gather of each query's leaf slice into one flat batch
                excl = np.cumsum(counts_q) - counts_q
                pos = np.arange(counts_q.sum()) + np.repeat(start[leaves] - excl, counts_q)
                # a query meets each distinct row at most once per tree, so the
                # flat indices are duplicate-free and += accumulates correctly
                flat = np.repeat(query_base, counts_q) + rows[pos]
                w_flat[flat] += per_tree * shares[pos]
        return w

    def quantiles(self, X, levels: tuple[float, ...]) -> list[np.ndarray]:
        """Left empirical quantiles of the weighted CDF, one array per level."""
        X = as_matrix(X, self.n_features_in_)
        for level in levels:
            check_level(level)
        out = [np.empty(X.shape[0]) for _ in levels]
        chunk = max(1, _READ_CELLS // self.y_train.size)
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
        for block, table, by_tree in self._leaves(X):
            for leaves in by_tree:
                acc[block] += table.leaf_mean[leaves]
        return acc / self.config.n_trees


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
        check_level_pair(alpha_lo, alpha_hi)
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

"""Regression forests with quantile readout from leaf-resident samples.

Trees are grown CART-style on bootstrap resamples: each split minimizes the
summed within-child squared error, thresholds sit at the midpoint between
adjacent sorted feature values, and growth stops when a node cannot produce
two children of at least ``min_leaf_size`` rows or no split reduces the
squared error. Leaves keep the rows routed to them during growth.

Growth runs on batches of trees, breadth first, over presorted attribute
lists (SLIQ, Mehta, Agrawal & Rissanen 1996; the "all leaves collectively"
split finding of XGBoost's exact greedy method). Each feature's sample order
is sorted once per batch, next to copies of the feature and the responses in
that order; one iteration scores every candidate split of every frontier
node of every tree in the batch, with cumulative sums over row windows of
the copies, and then partitions stably each order but the node's split
feature's, which already holds both children sorted. The per-node sums are
numpy's own sums of the same values in the same order, so every tree is bit
for bit the tree a node-by-node grower would produce. A fitted forest is one
flat node table per batch (each node's feature, threshold, left child and D
row) plus one forest-wide leaf weight block D, the only record of leaf
sizes; it is never written to.

A query point x collects weight 1/n_trees from every tree, split over the
rows in the leaf that x reaches in proportion to their multiplicity. These
are Meinshausen's QRF weights (JMLR 2006), read as the sparse product
W = E·D: E (queries x leaves) has one entry per tree in each row, and D
(leaves x training rows) holds each leaf's weights. A readout routes every
tree of a table together: a leaf points to itself under a threshold of
+inf, so all (tree, query) pairs take as many steps as the table is deep,
and a pair that reaches its leaf early stays on it.
E's entries are stored in tree order, and ``scipy.sparse`` multiplies CSR
by CSR row by row (Gustavson, ACM TOMS 1978), adding each weight's terms in
that order, so a weight is the same sum however the queries are blocked.
Queries that reach the same leaf in every tree share a row of W, so a read
multiplies once per distinct leaf vector of a block and scatters back.
D's columns run in response-rank order, so each row of W is already in CDF
order. Quantiles are read off the weighted empirical CDF by the
left-quantile rule: the smallest stored response whose cumulative weight
reaches the requested level. The mean readout adds the leaf means in tree
order and divides by the number of trees, which is the expectation of the
same weighted CDF, so one fitted ``QuantileForestRegressor`` (a
``ForestMeanRegressor`` fitted at a pair of levels) serves both reads, and
``predict_quantile`` reads it at any levels, which only set CDF thresholds.
``scipy.sparse`` is imported where a forest is read, not with the package.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..quantiles import check_level, check_level_pair
from .base import (
    MeanRegressor,
    QuantileRegressor,
    as_matrix,
    as_vector,
    check_count,
    check_flag,
    store_python_values,
)

__all__ = [
    "ForestConfig",
    "QuantileForestRegressor",
    "ForestMeanRegressor",
]

# slack applied to cumulative-weight thresholds so sums of equal weights
# that land a float ulp short of an exact level still count as reaching it
_CDF_RTOL = 1e-9

# bootstrap samples (rows x trees) grown together in one batch, the length of
# each feature's order and (padded by n) its x and y copies; bounds the
# working set of growth as the two bounds below bound the readout's
_GROW_BATCH = 2**16

# (query, tree) pairs routed together, the entries of one block of E; the
# block's product with D is a near-dense queries x training rows block too
_ROUTE_PAIRS = 2**17

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
        check_flag("bootstrap", self.bootstrap)
        check_count("seed", self.seed, minimum=0)
        store_python_values(self)


class _NodeTable(NamedTuple):
    """One growth batch of trees as flat node arrays; tree t is rooted at node t.

    ``feature[node] == -1`` marks a leaf. Node ids run level by level, so
    the batch's ``n_trees`` roots come first, in tree order. A split node's
    children are consecutive: ``left[node]`` and ``left[node] + 1``. A leaf
    points to itself, ``left[leaf] == leaf`` under a threshold of +inf, and
    ``depth`` is the depth of the table's deepest leaf. ``leaf[node]`` is a
    leaf's row in the forest's leaf weight block D, -1 at a split node; D is
    the only record of a leaf's rows and size.
    """

    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    leaf: np.ndarray
    depth: int

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node reached by each row of X in each tree (route left on <=).

        Returns an ``(n_trees, rows)`` array. Every (tree, query) pair takes
        ``depth`` numpy steps together; a pair that stands on its leaf steps
        back onto it, since no value of X exceeds the leaf's +inf.
        """
        n_rows, x = X.shape[0], X.ravel()
        # pair p is tree p // n_rows with query row p % n_rows, which starts at x[at[p]]
        node = np.repeat(np.arange(self.n_trees), n_rows)
        at = np.tile(np.arange(n_rows) * X.shape[1], self.n_trees)
        for _ in range(self.depth):
            # a leaf's feature -1 reads x[at - 1] (x[-1] on row 0); it never exceeds +inf
            node = self.left[node] + (x[at + self.feature[node]] > self.threshold[node])
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


def _best_splits(xs, ys, start, size, min_leaf):
    """Best split of every node (segment) at once.

    ``xs[j]`` and ``ys[j]`` hold feature j and the responses in feature j's
    order, which sorts every node's segment, padded so that a block of nodes
    reads each copy as row windows. Minimizing the summed child squared error
    equals maximizing s_L^2/k + s_R^2/(m-k) (the squared-response term is
    constant across splits), and a split only counts if that gain strictly
    exceeds the unsplit node's s^2/m; ties go to the first feature, then to
    the smallest left child. Thresholds sit at the midpoint between the
    adjacent sorted values. Returns ``(feature, threshold, k)`` arrays with
    k the left-child size; feature is -1 where no split counts.
    """
    total = _segment_sums(ys[0], start, size)
    best = total * total / size
    feature = np.full(size.size, -1)
    threshold = np.zeros(size.size)
    k = np.zeros(size.size, dtype=np.int64)
    lo = min_leaf - 1
    # pad nodes into blocks of similar size, one block per power of two
    size_class = np.frexp(size.astype(np.float64))[1]
    for cls in np.unique(size_class).tolist():
        sel = np.flatnonzero(size_class == cls)
        m, tot, first = size[sel], total[sel][:, None], start[sel]
        width = int(m.max())
        hi = width - min_leaf
        # a split after sorted position i puts i + 1 samples on the left
        i = np.arange(lo, hi)
        k_left = i + 1.0
        # clamped only past a node's end, where the gain is discarded
        k_right = np.maximum(m[:, None] - k_left, 1.0)
        past_end = i >= (m - min_leaf)[:, None]
        row = np.arange(sel.size)
        best_c, feature_c, threshold_c, k_c = best[sel], feature[sel], threshold[sel], k[sel]
        for j, (x_j, y_j) in enumerate(zip(xs, ys)):
            x_w = sliding_window_view(x_j, width)[first]
            csum = np.cumsum(sliding_window_view(y_j, width)[first], axis=1)[:, lo:hi]
            invalid = x_w[:, lo:hi] >= x_w[:, lo + 1 : hi + 1]
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
            x_lo, x_hi = x_w[row, lo + at], x_w[row, lo + at + 1]
            t = 0.5 * (x_lo + x_hi)
            # midpoint rounded up to the right value; keep routing exact
            t = np.where(t >= x_hi, x_lo, t)
            best_c = np.where(better, g, best_c)
            feature_c = np.where(better, j, feature_c)
            threshold_c = np.where(better, t, threshold_c)
            k_c = np.where(better, at + min_leaf, k_c)
        feature[sel], threshold[sel], k[sel] = feature_c, threshold_c, k_c
    return feature, threshold, k


def _partition(orders, xs, ys, start, size, k, feature):
    """Split each segment into its left and right child segments, stably.

    A node's left child is the first k samples of its split feature's
    order, which are exactly the samples at or below the threshold, so that
    order is left alone; stable partitioning of every other order, with its
    x and y copies, keeps each child sorted in it.
    """
    moves = [feature != j for j in range(len(orders))]
    if not any(move.any() for move in moves):
        return
    goes_left = np.zeros(orders[0].size, dtype=bool)
    for j, order in enumerate(orders):
        on_j = feature == j
        goes_left[order[_ranges(start[on_j], k[on_j])]] = True
    for order, x_j, y_j, move in zip(orders, xs, ys, moves):
        if not move.any():
            continue
        s, m, k_m = start[move], size[move], k[move]
        pos = _ranges(s, m)
        # a sample with c left-goers before it in the moved segments, joined,
        # lands at left_base + c if it goes left, else at right_base - c
        k_before = np.repeat(np.cumsum(k_m) - k_m, m)
        left_base = np.repeat(s, m) - k_before
        right_base = pos + np.repeat(k_m, m) + k_before
        samples = order[pos]
        g = goes_left[samples]
        c = np.cumsum(g)
        c -= g
        to = np.where(g, left_base + c, right_base - c)
        order[to], x_j[to], y_j[to] = samples, x_j[pos], y_j[pos]


def _grow_batch(X, y, R, min_leaf, first_leaf, index):
    """Grow one tree per row of R, the tree's bootstrap rows, level by level.

    Sample ``u`` of the batch is training row ``R.flat[u]``. Each node is a
    segment of positions holding the same samples in every feature's order
    and in that order's x and y copies; one iteration splits every splittable
    node of the level in all trees, and partitioning keeps each child's
    segment sorted, so the sort happens once per feature. The leaves end up
    tiling the feature-0 order, from which the batch's rows of the leaf weight
    block are built; they are numbered from ``first_leaf``. Returns what
    ``_build_table`` does.
    """
    n_trees, n = R.shape
    rows = R.ravel()
    y_s = y[rows]
    tree_base = np.arange(n_trees) * n
    orders, xs, ys = [], [], []
    for j in range(X.shape[1]):
        x = X[rows, j]
        orders.append((np.argsort(x.reshape(n_trees, n), axis=1) + tree_base[:, None]).ravel())
        # n entries of padding, so a window of any node's width fits
        xs.append(np.concatenate((x[orders[j]], np.zeros(n))))
        ys.append(np.concatenate((y_s[orders[j]], np.zeros(n))))

    start, size = tree_base, np.full(n_trees, n)
    levels = []
    while start.size:
        feature = np.full(start.size, -1)
        threshold = np.zeros(start.size)
        k = np.zeros(start.size, dtype=np.int64)
        can = np.flatnonzero(size >= 2 * min_leaf)
        if can.size:
            feature[can], threshold[can], k[can] = _best_splits(
                xs, ys, start[can], size[can], min_leaf
            )
        levels.append((start, size, feature, threshold))
        split = np.flatnonzero(feature >= 0)
        s, m, k = start[split], size[split], k[split]
        _partition(orders, xs, ys, s, m, k, feature[split])
        start = np.column_stack((s, s + k)).ravel()
        size = np.column_stack((k, m - k)).ravel()
    return _build_table(levels, rows[orders[0]], ys[0], n, first_leaf, index)


def _build_table(levels, leaf_rows, leaf_y, n, first_leaf, index):
    """The node table of a grown batch, and its leaves' rows of the weight block.

    ``levels`` holds each level's ``(start, size, feature, threshold)``
    node arrays, the first level being the roots in tree order; ``leaf_rows``
    and ``leaf_y`` are the training rows and responses of the final
    feature-0 order, in which every node's segment holds its rows; the
    table's D rows are in D's index dtype ``index``. Returns
    ``(table, (count, rows, shares, means))``: leaf by leaf in tree order,
    the number of distinct rows, those rows in ascending order with their
    multiplicity divided by the leaf size, and the leaf's mean response.
    """
    # node ids run level by level, and by position within a level; a split
    # node's children are consecutive ids in the next level
    start, size, feature, threshold = (np.concatenate(a) for a in zip(*levels))
    level_size = np.array([len(lv[0]) for lv in levels])
    next_level = np.repeat(np.cumsum(level_size), level_size)
    is_split = feature >= 0
    rank = np.cumsum(is_split) - is_split
    rank -= np.repeat(rank[np.cumsum(level_size) - level_size], level_size)
    left = np.where(is_split, next_level + 2 * rank, np.arange(feature.size))
    threshold = np.where(is_split, threshold, np.inf)

    # leaf segments tile the batch tree by tree, so sorted by start the
    # leaves run in tree order
    leaves = np.flatnonzero(~is_split)
    leaves = leaves[np.argsort(start[leaves])]
    leaf_size = size[leaves]
    means = _segment_sums(leaf_y, start[leaves], leaf_size) / leaf_size
    leaf = np.full(start.size, -1, dtype=index)
    leaf[leaves] = first_leaf + np.arange(leaves.size)

    # run-length encode (leaf, row) pairs in one batch sort
    key = np.sort(np.repeat(np.arange(leaves.size), leaf_size) * n + leaf_rows)
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    uniq = key[first]
    mult = np.diff(np.flatnonzero(np.append(first, True)))
    leaf_of = uniq // n
    count = np.bincount(leaf_of, minlength=leaves.size)
    table = _NodeTable(int(level_size[0]), feature, threshold, left, leaf, len(levels) - 1)
    return table, (count, uniq - leaf_of * n, mult / leaf_size[leaf_of], means)


def _row_keys(leaf: np.ndarray) -> np.ndarray:
    """Each row's wrapping int64 dot product with one odd multiplier per column, fixed seed.

    64 columns at a time, so no int64 copy of a whole block of leaf ids is made.
    """
    mult = np.random.default_rng(0).integers(-(2**63), 2**63 - 1, leaf.shape[1], np.int64) | 1
    return sum(leaf[:, j : j + 64] @ mult[j : j + 64] for j in range(0, leaf.shape[1], 64))


def _distinct_rows(leaf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)``: row q of ``leaf`` is row ``inverse[q]`` of ``leaf[first]``.

    Rows are keyed by ``_row_keys`` and checked exactly; if two different
    rows share a key, every row is read as its own.
    """
    _, first, inverse = np.unique(_row_keys(leaf), return_index=True, return_inverse=True)
    if not np.array_equal(leaf[first[inverse]], leaf):
        first = inverse = np.arange(leaf.shape[0])
    return first, inverse


class _Forest:
    """Grown node tables, one per growth batch, and the leaf weight block D they share.

    D (leaves x training rows, CSR) holds in row l the weight leaf l gives
    each training row: its multiplicity over the leaf size, over the number
    of trees. Its rows are the leaves in tree order, its columns the
    training rows in response-rank order, and it is kept as the plain arrays
    ``leaf_weights = (data, indices, indptr)``; ``leaf_mean`` holds each
    leaf's mean response, by D row.
    """

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
        # number the training rows by response rank, so leaf rows are D's
        # columns in CDF order; the trees see the same values either way
        order = np.argsort(y, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        X, y = X[order], y[order]
        self._y_sorted = y
        self.tables: list[_NodeTable] = []
        # a tree holds at most n distinct rows, so D has at most n_trees * n entries
        index = np.int32 if config.n_trees * n <= np.iinfo(np.int32).max else np.int64
        per_tree = 1.0 / config.n_trees
        blocks = []
        seqs = np.random.SeedSequence(config.seed).spawn(config.n_trees)
        per_batch = max(1, _GROW_BATCH // n)
        n_leaves = 0
        for b in range(0, len(seqs), per_batch):
            # draw a batch's bootstrap rows only when the batch is grown
            batch = seqs[b : b + per_batch]
            if config.bootstrap:
                R = np.stack([np.random.default_rng(s).integers(0, n, size=n) for s in batch])
            else:
                R = np.broadcast_to(np.arange(n), (len(batch), n))
            table, (count, rows, shares, means) = _grow_batch(
                X, y, rank[R], config.min_leaf_size, n_leaves, index
            )
            self.tables.append(table)
            # each tree gives a query weight 1/n_trees, shared over its leaf's rows
            blocks.append((count, rows.astype(index), per_tree * shares, means))
            n_leaves += count.size
        count, rows, data, self.leaf_mean = (np.concatenate(a) for a in zip(*blocks))
        indptr = np.zeros(n_leaves + 1, dtype=index)
        np.cumsum(count, out=indptr[1:])
        self.leaf_weights = (data, rows, indptr)

    def _routes(self, X: np.ndarray, step: int):
        """Yield ``(block, E, inverse)`` for blocks of at most ``step`` rows of X.

        E (CSR) has one row per distinct leaf vector of the block, a 1 at the
        D row of the leaf reached in each tree, stored in tree order (tables in
        growth order, then trees); query q of the block reads row ``inverse[q]``.
        """
        from scipy import sparse  # only a forest read needs it

        n_trees, n_leaves = self.config.n_trees, self.leaf_mean.size
        index = self.leaf_weights[2].dtype
        for start in range(0, X.shape[0], step):
            rows = X[start : start + step]
            leaf = np.concatenate(
                [table.leaf[table.apply(rows)].T for table in self.tables], axis=1
            )
            first, inverse = _distinct_rows(leaf)
            leaf = leaf[first]
            indptr = np.arange(0, leaf.size + 1, n_trees, dtype=index)
            E = sparse.csr_array(
                (np.ones(leaf.size), leaf.ravel(), indptr), shape=(len(first), n_leaves)
            )
            yield slice(start, start + step), E, inverse

    def quantiles(self, X, levels) -> np.ndarray:
        """Left weighted-CDF quantiles, (levels x rows); every level is checked before X is read."""
        from scipy import sparse

        levels = [check_level(level) for level in np.ravel(levels)]
        if not levels:
            raise ValueError("quantile levels must be non-empty")
        X = as_matrix(X, self.n_features_in_)
        n_train = self._y_sorted.size
        D = sparse.csr_array(self.leaf_weights, shape=(self.leaf_mean.size, n_train))
        out = np.empty((len(levels), X.shape[0]))
        step = max(1, min(_ROUTE_PAIRS // self.config.n_trees, _READ_CELLS // n_train))
        for block, E, inverse in self._routes(X, step):
            # Gustavson's row-wise product adds each weight's terms in E's
            # stored order, tree order, so a row's CDF is the same whatever its block
            cumw = (E @ D).toarray()
            np.cumsum(cumw, axis=1, out=cumw)
            total = cumw[:, -1]
            for i, level in enumerate(levels):
                thresh = level * total - _CDF_RTOL * np.maximum(total, 1.0)
                idx = (cumw >= thresh[:, None]).argmax(axis=1)
                out[i, block] = self._y_sorted[idx[inverse]]
        return out

    def means(self, X) -> np.ndarray:
        """Leaf means summed in tree order, over the number of trees."""
        X = as_matrix(X, self.n_features_in_)
        acc = np.empty(X.shape[0])
        for block, E, inverse in self._routes(X, max(1, _ROUTE_PAIRS // self.config.n_trees)):
            acc[block] = (E @ self.leaf_mean)[inverse]
        return acc / self.config.n_trees


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


class QuantileForestRegressor(ForestMeanRegressor, QuantileRegressor):
    """Conditional quantile pair read from a forest's weighted CDF.

    ``config`` sets growth, ``fit`` the pair's levels. The trees grow on squared
    error whatever the levels, so ``predict`` reads the same forest's mean, with
    the bits of a ``ForestMeanRegressor`` fitted alike.
    """

    _levels: tuple[float, float] | None = None

    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "QuantileForestRegressor":
        levels = check_level_pair(alpha_lo, alpha_hi)
        self._forest = _Forest(X, y, self.config)  # not super().fit: one fit call per growth
        self._levels = levels
        return self

    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        if self._levels is None:
            raise RuntimeError("fit() must be called before predict_pair()")
        return tuple(self._forest.quantiles(X, self._levels))

    def predict_quantile(self, X, level) -> np.ndarray:
        """Weighted-CDF quantiles in one pass, shaped as ``level`` plus an axis of X's rows."""
        if self._forest is None:
            raise RuntimeError("fit() must be called before predict_quantile()")
        return self._forest.quantiles(X, level).reshape(*np.shape(level), -1)

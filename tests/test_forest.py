"""Tests for the quantile forest and its weighted-CDF readout."""

import sys
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from confband.conformal import cqr_calibrate
from confband.regressors import forest as forest_module
from confband.regressors.forest import (
    ForestConfig,
    ForestMeanRegressor,
    QuantileForestRegressor,
)

# The per-node grower the level-wise batch grower replaced, kept verbatim as
# the referee (only the tree it returns is a plain record): it splits one
# node per iteration, depth first, with 1-D sums, cumsums and argsorts.
_RefereeTree = namedtuple(
    "_RefereeTree",
    "feature threshold left right leaf_start leaf_count leaf_rows leaf_mean",
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


def _grow_tree(X, y, rows0, min_leaf) -> _RefereeTree:
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

    return _RefereeTree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(leaf_start, dtype=np.int64),
        np.asarray(leaf_count, dtype=np.int64),
        np.concatenate(leaf_rows_parts) if leaf_rows_parts else np.empty(0, dtype=np.int64),
        np.asarray(leaf_mean, dtype=np.float64),
    )


def _leaf_rows(tree, node):
    start = int(tree.leaf_start[node])
    return tree.leaf_rows[start : start + int(tree.leaf_count[node])]


def _trees_differ(tree, ref, node=0, ref_node=0):
    """First difference between two grown trees, walked from the root, or None."""
    if tree.feature[node] != ref.feature[ref_node]:
        return f"node {node}: feature {tree.feature[node]} != {ref.feature[ref_node]}"
    if tree.feature[node] < 0:
        rows, ref_rows = _leaf_rows(tree, node), _leaf_rows(ref, ref_node)
        if not np.array_equal(np.sort(rows), np.sort(ref_rows)):
            return f"leaf {node}: rows differ"
        if tree.leaf_mean[node].tobytes() != ref.leaf_mean[ref_node].tobytes():
            return f"leaf {node}: mean {tree.leaf_mean[node]!r} != {ref.leaf_mean[ref_node]!r}"
        # weight table: distinct rows, ascending, with multiplicity / leaf size
        start, count, table_rows, shares = tree.weight_table
        distinct, mult = np.unique(ref_rows, return_counts=True)
        span = slice(int(start[node]), int(start[node] + count[node]))
        if not np.array_equal(table_rows[span], distinct):
            return f"leaf {node}: weight-table rows differ"
        if shares[span].tobytes() != (mult / ref_rows.size).tobytes():
            return f"leaf {node}: weight-table shares differ"
        return None
    if tree.threshold[node].tobytes() != ref.threshold[ref_node].tobytes():
        return f"node {node}: threshold {tree.threshold[node]!r} != {ref.threshold[ref_node]!r}"
    return _trees_differ(tree, ref, tree.left[node], ref.left[ref_node]) or _trees_differ(
        tree, ref, tree.right[node], ref.right[ref_node]
    )


def _route_to_leaf(tree, x):
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.right[node])
    return node


def _oracle_quantiles(model, x, levels):
    """Exact weighted-CDF quantiles via rational arithmetic.

    Each tree contributes weight 1/n_trees to the leaf x lands in, split
    over the leaf's rows with bootstrap multiplicity. The quantile at a
    level is the smallest stored response whose cumulative weight reaches
    level times the total weight.
    """
    forest = model._forest
    n_trees = len(forest.trees)
    weight: dict[int, Fraction] = {}
    for tree in forest.trees:
        leaf = _route_to_leaf(tree, x)
        start = int(tree.leaf_start[leaf])
        count = int(tree.leaf_count[leaf])
        rows = tree.leaf_rows[start : start + count]
        share = Fraction(1, count * n_trees)
        for r in rows:
            weight[int(r)] = weight.get(int(r), Fraction(0)) + share
    pairs = sorted((float(forest.y_train[r]), w) for r, w in weight.items())
    total = sum(w for _, w in pairs)
    out = []
    for level in levels:
        thresh = Fraction(level) * total
        cum = Fraction(0)
        for value, w in pairs:
            cum += w
            if cum >= thresh:
                out.append(value)
                break
    return out


def test_constant_targets_give_degenerate_pair():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    y = np.full(40, 2.5)
    model = QuantileForestRegressor(ForestConfig(n_trees=20, seed=1))
    model.fit(X, y, 0.05, 0.95)
    lo, hi = model.predict_pair(rng.normal(size=(10, 2)))
    assert np.array_equal(lo, np.full(10, 2.5))
    assert np.array_equal(hi, np.full(10, 2.5))


def test_single_leaf_reads_order_statistics():
    # constant feature admits no split, so the lone tree is a single leaf
    # and the readout is the left empirical quantile of y
    X = np.zeros((100, 1))
    y = np.random.default_rng(0).permutation(np.arange(1.0, 101.0))
    config = ForestConfig(n_trees=1, min_leaf_size=5, bootstrap=False, seed=0)
    model = QuantileForestRegressor(config).fit(X, y, 0.05, 0.95)
    lo, hi = model.predict_pair(np.zeros((1, 1)))
    assert lo[0] == 5.0
    assert hi[0] == 95.0


def test_quantile_readout_matches_weighted_cdf_oracle():
    rng = np.random.default_rng(90210)
    for _ in range(50):
        n = int(rng.integers(25, 61))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) + X[:, 0]
        config = ForestConfig(
            n_trees=int(rng.integers(3, 13)),
            min_leaf_size=int(rng.integers(2, 7)),
            bootstrap=bool(rng.integers(0, 2)),
            seed=int(rng.integers(0, 10_000)),
        )
        lo_level = float(rng.uniform(0.02, 0.45))
        hi_level = float(rng.uniform(0.55, 0.98))
        model = QuantileForestRegressor(config).fit(X, y, lo_level, hi_level)
        X_query = rng.normal(size=(3, p))
        lo, hi = model.predict_pair(X_query)
        for i in range(3):
            want_lo, want_hi = _oracle_quantiles(
                model, X_query[i], (lo_level, hi_level)
            )
            assert lo[i] == want_lo
            assert hi[i] == want_hi


def test_quantile_curves_are_monotone_in_level():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(80, 2))
    y = X[:, 0] + 0.5 * rng.normal(size=80)
    model = QuantileForestRegressor(ForestConfig(n_trees=30, seed=4))
    model.fit(X, y, 0.05, 0.95)
    grid = rng.normal(size=(15, 2))
    levels = [0.1, 0.25, 0.5, 0.75, 0.9]
    curves = [model.predict_quantile(grid, level) for level in levels]
    for lower, upper in zip(curves[:-1], curves[1:]):
        assert np.all(lower <= upper)


def test_forest_fit_is_deterministic_given_seed():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    config = ForestConfig(n_trees=15, seed=77)
    grid = rng.normal(size=(12, 2))
    a = QuantileForestRegressor(config).fit(X, y, 0.1, 0.9).predict_pair(grid)
    b = QuantileForestRegressor(config).fit(X, y, 0.1, 0.9).predict_pair(grid)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


@pytest.mark.parametrize(
    "n, p, min_leaf, bootstrap, integer_x, n_batches",
    [
        (400, 1, 5, True, False, 1),  # the CLI forest's shape
        (300, 2, 1, True, True, 1),
        (250, 3, 120, True, False, 1),
        (200, 4, 3, False, True, 1),
        (1500, 2, 25, True, False, 3),
    ],
)
def test_batched_growth_equals_the_per_node_grower(n, p, min_leaf, bootstrap, integer_x, n_batches):
    rng = np.random.default_rng(n + 10 * p + min_leaf)
    if integer_x:
        # one float above an integer, half of them one float more: ties
        # everywhere, and midpoints between adjacent floats that round onto
        # the right value
        X = np.nextafter(rng.integers(1, 7, size=(n, p)).astype(float), np.inf)
        nudged = rng.random(size=(n, p)) < 0.5
        X[nudged] = np.nextafter(X[nudged], np.inf)
        y = np.round(X @ rng.normal(size=p) + 3.0 * nudged[:, 0] + rng.normal(size=n))
    else:
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.normal(size=n)
    per_batch = forest_module._GROW_BATCH // n
    n_trees = min(per_batch, 40) if n_batches == 1 else (n_batches - 1) * per_batch + 3
    config = ForestConfig(n_trees=n_trees, min_leaf_size=min_leaf, bootstrap=bootstrap, seed=p)
    forest = QuantileForestRegressor(config).fit(X, y, 0.1, 0.9)._forest
    assert len(forest.trees) == n_trees
    seqs = np.random.SeedSequence(config.seed).spawn(n_trees)
    for i, (tree, seq) in enumerate(zip(forest.trees, seqs)):
        rows0 = np.random.default_rng(seq).integers(0, n, size=n) if bootstrap else np.arange(n)
        assert _trees_differ(tree, _grow_tree(X, y, rows0, min_leaf)) is None, f"tree {i}"


def _frozen(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_frozen(v) for v in value)
    return value


def _forest_state(model):
    """Every attribute of a fitted forest model, its forest and its trees."""
    forest = model._forest
    names = type(forest.trees[0]).__slots__
    return (
        {k: _frozen(v) for k, v in vars(model).items() if k != "_forest"},
        {k: _frozen(v) for k, v in vars(forest).items() if k != "trees"},
        [[_frozen(getattr(tree, name)) for name in names] for tree in forest.trees],
    )


def test_a_fitted_forest_band_is_safe_to_share_across_threads():
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(300, 2))
    y = X[:, 0] + np.abs(X[:, 1]) * rng.normal(size=300)
    model = QuantileForestRegressor(ForestConfig(n_trees=40, seed=3)).fit(X, y, 0.05, 0.95)
    fitted = _forest_state(model)
    X_cal = rng.uniform(-2, 2, size=(150, 2))
    band = cqr_calibrate(model, X_cal, X_cal[:, 0] + rng.normal(size=150), alpha=0.1)
    X_new = rng.uniform(-2, 2, size=(200, 2))
    all_started = threading.Barrier(8)  # every read runs on its own thread

    def read(_):
        all_started.wait(timeout=60)
        return band.predict_interval(X_new)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the reads as finely as the interpreter allows
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read, range(8)))
    finally:
        sys.setswitchinterval(switch)
    # reading leaves the fitted forest exactly as fit left it
    assert _forest_state(model) == fitted
    want_lo, want_hi = band.predict_interval(X_new)
    for lo, hi in results:
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_mean_readout_averages_the_weighted_cdf():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(60, 2))
    y = X[:, 0] ** 2 + rng.normal(size=60)
    model = ForestMeanRegressor(ForestConfig(n_trees=25, seed=9)).fit(X, y)
    grid = rng.normal(size=(8, 2))
    w = model._forest.weights(grid)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(model.predict(grid), w @ y, rtol=1e-10)


def test_mean_regressor_reproduces_constants():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 2))
    model = ForestMeanRegressor(ForestConfig(n_trees=10, seed=2))
    model.fit(X, np.full(40, -0.75))
    assert np.allclose(model.predict(rng.normal(size=(6, 2))), -0.75, atol=1e-12)


def test_too_few_rows_for_leaf_size_is_rejected():
    X = np.zeros((9, 1))
    y = np.zeros(9)
    model = QuantileForestRegressor(ForestConfig(n_trees=2, min_leaf_size=5))
    with pytest.raises(ValueError, match="need at least 10 rows"):
        model.fit(X, y, 0.05, 0.95)


def test_invalid_levels_and_config_are_rejected():
    X = np.zeros((20, 1))
    y = np.zeros(20)
    model = QuantileForestRegressor(ForestConfig(n_trees=2))
    with pytest.raises(ValueError):
        model.fit(X, y, 0.0, 0.95)
    with pytest.raises(ValueError):
        model.fit(X, y, 0.05, 1.0)
    with pytest.raises(ValueError, match="alpha_lo must be below alpha_hi"):
        model.fit(X, y, 0.9, 0.1)
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(min_leaf_size=0)


@pytest.mark.parametrize("field", ["n_trees", "min_leaf_size"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
def test_non_integer_config_counts_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ForestConfig(**{field: value})
    assert getattr(ForestConfig(**{field: np.int64(3)}), field) == 3


def test_features_with_no_columns_are_rejected_before_growth():
    for model, levels in ((QuantileForestRegressor(ForestConfig(n_trees=2)), (0.1, 0.9)),
                          (ForestMeanRegressor(ForestConfig(n_trees=2)), ())):
        with pytest.raises(ValueError, match="X has no feature columns"):
            model.fit(np.zeros((20, 0)), np.zeros(20), *levels)


def test_predict_before_fit_raises():
    with pytest.raises(RuntimeError, match="fit"):
        QuantileForestRegressor().predict_pair(np.zeros((2, 1)))
    with pytest.raises(RuntimeError, match="fit"):
        QuantileForestRegressor().predict_quantile(np.zeros((2, 1)), 0.5)
    with pytest.raises(RuntimeError, match="fit"):
        ForestMeanRegressor().predict(np.zeros((2, 1)))

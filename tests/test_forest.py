"""Tests for the quantile forest and its weighted-CDF readout."""

import sys
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from confband.conformal import cqr_calibrate
from confband.regressors import forest as forest_module
from confband.regressors.forest import (
    _CDF_RTOL,
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


class _LeafRecord(NamedTuple):
    """A fitted forest's leaf weight block, plus the rank of each training row."""

    weights: tuple
    mean: np.ndarray
    rank: np.ndarray
    n_trees: int


def _leaf_record(forest) -> _LeafRecord:
    rank = np.empty(forest.y_train.size, dtype=np.int64)
    rank[np.argsort(forest.y_train, kind="stable")] = np.arange(forest.y_train.size)
    return _LeafRecord(forest.leaf_weights, forest.leaf_mean, rank, forest.config.n_trees)


def _trees_differ(record, tree, ref, node=0, ref_node=0):
    """First difference between two grown trees, walked from the root, or None.

    ``record`` is the grown tree's ``_LeafRecord``.
    """
    if tree.feature[node] != ref.feature[ref_node]:
        return f"node {node}: feature {tree.feature[node]} != {ref.feature[ref_node]}"
    if tree.feature[node] < 0:
        ref_rows = _leaf_rows(ref, ref_node)
        d_row = int(tree.leaf[node])
        if record.mean[d_row].tobytes() != ref.leaf_mean[ref_node].tobytes():
            return f"leaf {node}: mean {record.mean[d_row]!r} != {ref.leaf_mean[ref_node]!r}"
        # the leaf's row of D: its distinct rows, ascending by response rank,
        # with weight multiplicity / leaf size / n_trees, the referee's leaf
        # size; these pin the leaf's row multiset as every readout sees it
        data, columns, indptr = record.weights
        span = slice(int(indptr[d_row]), int(indptr[d_row + 1]))
        distinct, mult = np.unique(ref_rows, return_counts=True)
        by_rank = np.argsort(record.rank[distinct])
        if not np.array_equal(columns[span], record.rank[distinct][by_rank]):
            return f"leaf {node}: weight-block rows differ"
        want = (1.0 / record.n_trees) * (mult / ref_rows.size)
        if data[span].tobytes() != want[by_rank].tobytes():
            return f"leaf {node}: weight-block shares differ"
        return None
    if tree.threshold[node].tobytes() != ref.threshold[ref_node].tobytes():
        return f"node {node}: threshold {tree.threshold[node]!r} != {ref.threshold[ref_node]!r}"
    # the grown table's right child is left + 1; the referee keeps its own
    return _trees_differ(record, tree, ref, tree.left[node], ref.left[ref_node]) or _trees_differ(
        record, tree, ref, tree.left[node] + 1, ref.right[ref_node]
    )


def _route_to_leaf(tree, root, x):
    node = root
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = int(tree.left[node])
        else:
            node = int(tree.left[node]) + 1  # a split node's children are consecutive
    return node


def _leaf_multisets(model, X):
    """Every tree's ``(table, root, {leaf: rows})``, rebuilt from the QRF definition.

    A tree's samples are its bootstrap draw from the forest's seed (every
    row once without bootstrap), and a leaf holds the samples that routing
    sends to it. Nothing the fit stored about leaf rows is read.
    """
    config, n = model.config, X.shape[0]
    trees = [(table, root) for table in model._forest.tables for root in range(table.n_trees)]
    out = []
    for (table, root), seq in zip(trees, np.random.SeedSequence(config.seed).spawn(len(trees))):
        rows = np.random.default_rng(seq).integers(0, n, size=n) if config.bootstrap else np.arange(n)
        leaf_of = {r: _route_to_leaf(table, root, X[r]) for r in set(rows.tolist())}
        leaves: dict[int, list[int]] = {}
        for r in rows.tolist():
            leaves.setdefault(leaf_of[r], []).append(r)
        out.append((table, root, leaves))
    return out


def _oracle_quantiles(model, X, queries, levels):
    """Exact weighted-CDF quantiles of each query row via rational arithmetic.

    ``X`` is the training features. Each tree contributes weight 1/n_trees
    to the leaf a query lands in, split over the leaf's rows with bootstrap
    multiplicity. The quantile at a level is the smallest stored response
    whose cumulative weight reaches level times the total weight, less the
    readout's documented slack of ``_CDF_RTOL`` times ``max(total, 1)``.
    """
    trees = _leaf_multisets(model, X)
    y_train = model._forest.y_train
    out = []
    for x in queries:
        weight: dict[int, Fraction] = {}
        for tree, root, leaves in trees:
            rows = leaves[_route_to_leaf(tree, root, x)]
            share = Fraction(1, len(rows) * len(trees))
            for r in rows:
                weight[r] = weight.get(r, Fraction(0)) + share
        pairs = sorted((float(y_train[r]), w) for r, w in weight.items())
        total = sum(w for _, w in pairs)
        out.append([])
        for level in levels:
            thresh = Fraction(level) * total - Fraction(_CDF_RTOL) * max(total, 1)
            cum = Fraction(0)
            for value, w in pairs:
                cum += w
                if cum >= thresh:
                    out[-1].append(value)
                    break
    return out


# The per-tree ragged gather the sparse product E·D replaced, kept as the
# referee for the product's accumulation order, which comes from scipy's
# implementation rather than its documented contract. It adds one tree at a
# time, in growth order, into dense weight rows (columns in response-rank
# order, as D's), reading the leaf weight block as plain arrays.
def _referee_weights(forest, X):
    n_train = forest.y_train.size
    data, columns, indptr = forest.leaf_weights
    w = np.zeros((X.shape[0], n_train))
    w_flat = w.reshape(-1)
    query_base = np.arange(X.shape[0]) * n_train
    for table in forest.tables:
        for leaves in table.leaf[table.apply(X)]:
            start = indptr[leaves]
            counts_q = indptr[leaves + 1] - start
            # ragged gather of each query's leaf slice into one flat batch
            excl = np.cumsum(counts_q) - counts_q
            pos = np.arange(counts_q.sum()) + np.repeat(start - excl, counts_q)
            # a query meets each distinct row at most once per tree, so the
            # flat indices are duplicate-free and += accumulates correctly
            flat = np.repeat(query_base, counts_q) + columns[pos]
            w_flat[flat] += data[pos]
    return w


def _referee_quantiles(forest, X, levels):
    cumw = np.cumsum(_referee_weights(forest, X), axis=1)
    total = cumw[:, -1]
    out = []
    for level in levels:
        thresh = level * total - _CDF_RTOL * np.maximum(total, 1.0)
        out.append(forest._y_sorted[(cumw >= thresh[:, None]).argmax(axis=1)])
    return out


def _referee_means(forest, X):
    acc = np.zeros(X.shape[0])
    for table in forest.tables:
        for leaves in table.leaf[table.apply(X)]:
            acc += forest.leaf_mean[leaves]
    return acc / forest.config.n_trees


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
        want = _oracle_quantiles(model, X, X_query, (lo_level, hi_level))
        for i in range(3):
            assert [lo[i], hi[i]] == want[i]


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


def test_predict_quantile_reads_each_level_of_a_sequence_as_it_reads_it_alone():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(120, 2))
    y = X[:, 0] + rng.normal(size=120)
    pair = QuantileForestRegressor(ForestConfig(n_trees=20, seed=3)).fit(X, y, 0.1, 0.9)
    rows = rng.normal(size=(40, 2))
    levels = [0.01, 0.1, 0.25, 0.5, 0.5, 0.9, 0.99, *rng.uniform(0.01, 0.99, size=5)]
    alone = [pair.predict_quantile(rows, level).tobytes() for level in levels]
    every = np.arange(len(levels))
    for order in (every, every[::-1], rng.permutation(every)[:4], [3]):
        got = pair.predict_quantile(rows, [levels[i] for i in order])
        assert got.shape == (len(order), rows.shape[0])
        assert [g.tobytes() for g in got] == [alone[i] for i in order]
    # at the fitted pair's levels, a tuple or an array of them reads the pair
    want = [q.tobytes() for q in pair.predict_pair(rows)]
    for fitted in ((0.1, 0.9), np.array([0.1, 0.9])):
        assert [q.tobytes() for q in pair.predict_quantile(rows, fitted)] == want
    # a (2 x G) array, as tuning reads its grid, gives (2 x G x rows), each entry
    # the bytes of its own single-level read
    block = np.reshape(levels, (2, -1))
    got = pair.predict_quantile(rows, block)
    assert got.shape == (*block.shape, rows.shape[0])
    for i, j in np.ndindex(block.shape):
        assert got[i, j].tobytes() == alone[i * block.shape[1] + j]


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
    "n, p, min_leaf, bootstrap, x_kind, n_batches",
    [
        (400, 1, 5, True, "normal", 1),  # the CLI forest's shape
        (300, 2, 1, True, "integer", 1),
        (250, 3, 120, True, "normal", 1),
        (200, 4, 3, False, "integer", 1),
        (1500, 2, 25, True, "normal", 3),
        # qrf_readout's forest shape
        (800, 1, 120, True, "normal", 1),
        (800, 1, 120, True, "normal", 3),
        # column 1 repeats column 0: ties go to feature 0, and order 1 still
        # moves under splits on feature 0 and feature 2
        (300, 3, 4, True, "duplicated", 1),
        (1000, 3, 10, True, "duplicated", 3),
        # column 0 is constant: never split on, so its order, whose segments
        # the leaves tile, moves under every split
        (300, 3, 4, False, "constant", 1),
        (1000, 3, 10, True, "constant", 3),
    ],
)
def test_batched_growth_equals_the_per_node_grower(n, p, min_leaf, bootstrap, x_kind, n_batches):
    rng = np.random.default_rng(n + 10 * p + min_leaf)
    if x_kind == "integer":
        # one float above an integer, half of them one float more: ties
        # everywhere, and midpoints between adjacent floats that round onto
        # the right value
        X = np.nextafter(rng.integers(1, 7, size=(n, p)).astype(float), np.inf)
        nudged = rng.random(size=(n, p)) < 0.5
        X[nudged] = np.nextafter(X[nudged], np.inf)
        y = np.round(X @ rng.normal(size=p) + 3.0 * nudged[:, 0] + rng.normal(size=n))
    else:
        X = rng.normal(size=(n, p))
        if x_kind == "duplicated":
            X[:, 1] = X[:, 0]
        elif x_kind == "constant":
            X[:, 0] = 1.0
        y = X @ rng.normal(size=p) + rng.normal(size=n)
    per_batch = forest_module._GROW_BATCH // n
    n_trees = min(per_batch, 40) if n_batches == 1 else (n_batches - 1) * per_batch + 3
    config = ForestConfig(n_trees=n_trees, min_leaf_size=min_leaf, bootstrap=bootstrap, seed=p)
    forest = QuantileForestRegressor(config).fit(X, y, 0.1, 0.9)._forest
    assert len(forest.tables) == n_batches
    trees = [(table, root) for table in forest.tables for root in range(table.n_trees)]
    assert len(trees) == n_trees
    record = _leaf_record(forest)
    seqs = np.random.SeedSequence(config.seed).spawn(n_trees)
    for i, ((tree, root), seq) in enumerate(zip(trees, seqs)):
        # leaf ids are stored in D's index dtype, so a read gathers them as E's indices
        assert tree.leaf.dtype == forest.leaf_weights[2].dtype
        rows0 = np.random.default_rng(seq).integers(0, n, size=n) if bootstrap else np.arange(n)
        ref = _grow_tree(X, y, rows0, min_leaf)
        assert _trees_differ(record, tree, ref, root) is None, f"tree {i}"


def test_the_grower_referee_pins_each_leaf_multiset():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(300, 2))
    y = X[:, 0] + rng.normal(size=300)
    config = ForestConfig(n_trees=3, min_leaf_size=8, seed=2)
    forest = ForestMeanRegressor(config).fit(X, y)._forest
    table = forest.tables[0]
    rows0 = np.random.default_rng(np.random.SeedSequence(2).spawn(3)[0]).integers(0, 300, size=300)
    ref = _grow_tree(X, y, rows0, 8)  # tree 0, rooted at node 0 of the first table
    record = _leaf_record(forest)
    assert _trees_differ(record, table, ref) is None
    data, columns, indptr = record.weights
    # a leaf of tree 0 (D's first rows) holding rows with unequal multiplicity
    for d_row in range(int(np.count_nonzero(ref.feature < 0))):
        span = slice(int(indptr[d_row]), int(indptr[d_row + 1]))
        if np.unique(data[span]).size > 1:
            break
    else:
        pytest.fail("every leaf of tree 0 holds its rows equally often")
    most, least = span.start + np.argmax(data[span]), span.start + np.argmin(data[span])

    moved = data.copy()  # a copy of one row moved onto another row of the leaf
    moved[[most, least]] = moved[[least, most]]
    wrong = record._replace(weights=(moved, columns, indptr))
    assert "shares differ" in _trees_differ(wrong, table, ref)
    swapped = columns.copy()  # a row of the leaf replaced by a row outside it
    swapped[least] = np.setdiff1d(np.arange(300), columns[span])[0]
    swapped[span] = np.sort(swapped[span])
    wrong = record._replace(weights=(data, swapped, indptr))
    assert "rows differ" in _trees_differ(wrong, table, ref)


def _check_multi_batch_readouts(bootstrap, levels):
    rng = np.random.default_rng(1500)
    X = rng.normal(size=(1500, 2))
    y = X[:, 0] + rng.normal(size=1500)
    config = ForestConfig(n_trees=50, min_leaf_size=10, bootstrap=bootstrap, seed=6)
    pair = QuantileForestRegressor(config).fit(X, y, *levels[:2])
    mean = ForestMeanRegressor(config).fit(X, y)
    assert len(pair._forest.tables) >= 2
    X_query = rng.normal(size=(4, 2))
    lo, hi = pair.predict_pair(X_query)
    mid = pair.predict_quantile(X_query, levels[2])
    got_mean = mean.predict(X_query)
    forest = mean._forest
    trees = [(table, root) for table in forest.tables for root in range(table.n_trees)]
    exact = _oracle_quantiles(pair, X, X_query, levels)
    for i, x in enumerate(X_query):
        assert [lo[i], hi[i], mid[i]] == exact[i]
        # the mean readout adds the leaf means in tree order, then divides
        want = 0.0
        for table, root in trees:
            want += forest.leaf_mean[table.leaf[_route_to_leaf(table, root, x)]]
        assert got_mean[i].tobytes() == np.float64(want / len(trees)).tobytes()


@pytest.mark.parametrize("bootstrap", [True, False])
def test_a_forest_grown_in_several_batches_reads_the_exact_references(bootstrap):
    _check_multi_batch_readouts(bootstrap, (0.0731, 0.9137, 0.4719))


def test_levels_on_a_leaf_size_fraction_read_the_exact_references():
    # without bootstrap a 10-row leaf gives each of its rows weight 1/10 per
    # tree, so 0.1 and 0.9 fall exactly on cumulative weights; the readout
    # counts a weight within _CDF_RTOL of the level as reaching it
    _check_multi_batch_readouts(False, (0.1, 0.9, 0.5))


@pytest.fixture(scope="module", params=[True, False], ids=["bootstrap", "no-bootstrap"])
def three_batch_forest(request):
    rng = np.random.default_rng(140)
    X = rng.normal(size=(1000, 2))
    y = X[:, 0] + rng.normal(size=1000)
    config = ForestConfig(n_trees=140, min_leaf_size=5, bootstrap=request.param, seed=11)
    forest = ForestMeanRegressor(config).fit(X, y)._forest
    assert [table.n_trees for table in forest.tables] == [65, 65, 10]
    return forest


def test_lockstep_routing_equals_the_per_tree_walk(three_batch_forest):
    rng = np.random.default_rng(12)
    forest = three_batch_forest
    queries, root_ties = [rng.normal(size=2) for _ in range(10)], []
    for table in forest.tables:
        root_ties.append([])
        # rows exactly on a split threshold: on a root, which every row
        # reaches, and on split nodes anywhere in the table
        split = np.flatnonzero(table.feature >= 0)
        for node in [*range(5), *rng.choice(split, size=10).tolist()]:
            x = rng.normal(size=2)
            x[table.feature[node]] = table.threshold[node]
            if node < table.n_trees:
                root_ties[-1].append((node, len(queries)))
            queries.append(x)
    Q = np.array(queries)
    wide = np.full((Q.shape[0], 4), 99.0)
    wide[:, ::2] = Q
    layouts = [Q, np.asfortranarray(Q), wide[:, ::2], Q[:1], Q[:0]]
    assert not layouts[1].flags.c_contiguous and not layouts[2].flags.c_contiguous
    for b, table in enumerate(forest.tables):
        want = np.array([[_route_to_leaf(table, t, x) for x in Q] for t in range(table.n_trees)])
        for X in layouts:
            leaves = table.apply(X)
            assert leaves.shape == (table.n_trees, X.shape[0])
            assert np.array_equal(leaves, want[:, : X.shape[0]])
        # a tie routes left
        for root, i in root_ties[b]:
            assert want[root, i] == _route_to_leaf(table, table.left[root], Q[i])


def _node_depths(table, root):
    """Depth of every node of the tree at ``root``, walking split nodes' children."""
    depths, stack = {}, [(root, 0)]
    while stack:
        node, depth = stack.pop()
        depths[node] = depth
        if table.feature[node] >= 0:
            child = int(table.left[node])
            stack += [(child, depth + 1), (child + 1, depth + 1)]
    return depths


def _assert_leaves_point_to_themselves(table, X):
    """``feature == -1`` on exactly the leaves, and each leaf points to itself.

    ``X`` is the training features: every leaf holds some of its tree's
    rows, so the leaves are where the referee walk takes the training rows.
    Returns each tree's ``_node_depths``.
    """
    nodes = [_node_depths(table, root) for root in range(table.n_trees)]
    assert sorted(node for tree in nodes for node in tree) == list(range(table.feature.size))
    is_leaf = np.zeros(table.feature.size, dtype=bool)
    for root in range(table.n_trees):
        is_leaf[[_route_to_leaf(table, root, x) for x in X]] = True
    assert np.array_equal(table.feature == -1, is_leaf)
    assert np.array_equal(table.leaf >= 0, is_leaf)
    assert np.array_equal(table.left[is_leaf], np.flatnonzero(is_leaf))
    assert np.all(table.threshold[is_leaf] == np.inf)
    assert np.all(np.isfinite(table.threshold[~is_leaf]))
    return nodes


def test_a_table_of_one_leaf_trees_routes_every_row_to_its_root():
    X = np.random.default_rng(14).normal(size=(30, 2))
    forest = ForestMeanRegressor(ForestConfig(n_trees=7, min_leaf_size=2, seed=1)).fit(
        X, np.full(30, 2.5)
    )._forest
    (table,) = forest.tables
    assert table.depth == 0 and table.feature.size == table.n_trees == 7
    _assert_leaves_point_to_themselves(table, X)
    for Q in (X, X[:1], X[:0]):
        leaves = table.apply(Q)
        assert np.array_equal(leaves, np.repeat(np.arange(7)[:, None], Q.shape[0], axis=1))


@pytest.mark.parametrize("bootstrap", [True, False], ids=["bootstrap", "no-bootstrap"])
def test_a_deep_table_routes_every_pair_in_depth_steps(bootstrap):
    rng = np.random.default_rng(15)
    X = rng.uniform(size=(200, 1))
    config = ForestConfig(n_trees=20, min_leaf_size=1, bootstrap=bootstrap, seed=3)
    (table,) = ForestMeanRegressor(config).fit(X, rng.normal(size=200))._forest.tables
    nodes = _assert_leaves_point_to_themselves(table, X)
    leaf_depths = [d for tree in nodes for node, d in tree.items() if table.feature[node] < 0]
    assert table.depth == max(leaf_depths) >= 15
    # queries on the thresholds of the deepest splits and of random ones,
    # on training rows, and at the ends of the finite floats
    split = np.flatnonzero(table.feature >= 0)
    deepest = split[-10:]
    on_split = table.threshold[np.concatenate([deepest, rng.choice(split, size=20)])]
    big = np.finfo(float).max
    Q = np.concatenate([on_split, X[:10, 0], [-big, big, 0.0]])[:, None]
    want = np.array([[_route_to_leaf(table, t, x) for x in Q] for t in range(table.n_trees)])
    assert np.array_equal(table.apply(Q), want)
    # with one feature a split's threshold lies inside its node's interval,
    # so its own tree's walk reaches the node, and the tie routes left
    for i, node in enumerate(deepest.tolist()):
        (root,) = [t for t, tree in enumerate(nodes) if node in tree]
        assert want[root, i] == _route_to_leaf(table, int(table.left[node]), Q[i])


@pytest.mark.parametrize("bound, value", [("_ROUTE_PAIRS", 7), ("_READ_CELLS", 3000)])
def test_chunked_readouts_equal_the_unchunked_readout(three_batch_forest, monkeypatch, bound, value):
    forest = three_batch_forest
    X = np.random.default_rng(13).normal(size=(25, 2))

    def readouts():
        return [forest.means(X), *forest.quantiles(X, (0.1, 0.9)), *forest.quantiles(X, (0.37,))]

    want = readouts()
    monkeypatch.setattr(forest_module, bound, value)
    got = readouts()
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _assert_reads_the_references(forest, X, levels):
    for got, want in zip(forest.quantiles(X, levels), _referee_quantiles(forest, X, levels)):
        assert got.tobytes() == want.tobytes()
    assert forest.means(X).tobytes() == _referee_means(forest, X).tobytes()


@pytest.mark.parametrize("n_queries", [0, 1, 25])
@pytest.mark.parametrize(
    "bounds",
    [{}, {"_ROUTE_PAIRS": 7}, {"_READ_CELLS": 3000}, {"_ROUTE_PAIRS": 300, "_READ_CELLS": 3000}],
    ids=["default", "route-7", "read-3000", "both"],
)
def test_the_sparse_product_reads_what_the_per_tree_loop_reads(
    three_batch_forest, monkeypatch, bounds, n_queries
):
    from scipy import sparse

    forest = three_batch_forest
    for name, value in bounds.items():
        monkeypatch.setattr(forest_module, name, value)
    X = np.random.default_rng(14).normal(size=(n_queries, 2))
    _assert_reads_the_references(forest, X, (0.1, 0.9, 0.37))
    # the weight rows themselves, E·D block by block
    D = sparse.csr_array(forest.leaf_weights, shape=(forest.leaf_mean.size, forest.y_train.size))
    want = _referee_weights(forest, X)
    step = max(1, forest_module._ROUTE_PAIRS // forest.config.n_trees)
    blocks = 0
    for block, E, inverse in forest._routes(X, step):
        assert np.array_equal(E.sum(axis=1), np.full(E.shape[0], forest.config.n_trees))
        assert (E @ D).toarray()[inverse].tobytes() == want[block].tobytes()
        blocks += 1
    assert blocks == -(-n_queries // step)


def test_a_key_collision_reads_every_row_of_the_block(three_batch_forest, monkeypatch):
    forest = three_batch_forest
    rng = np.random.default_rng(16)
    # repeated rows, so the block has fewer distinct leaf vectors than rows
    X = rng.normal(size=(30, 2))[rng.integers(0, 30, size=60)]
    levels = (0.1, 0.9, 0.37)
    step = max(1, forest_module._ROUTE_PAIRS // forest.config.n_trees)
    assert max(E.shape[0] for _, E, _ in forest._routes(X, step)) < 60
    want = [forest.means(X), *forest.quantiles(X, levels)]
    # every row gets one key: the exact check finds rows that differ
    monkeypatch.setattr(forest_module, "_row_keys", lambda leaf: np.zeros(len(leaf), np.int64))
    for _, E, inverse in forest._routes(X, step):
        assert E.shape[0] == inverse.size and np.array_equal(inverse, np.arange(inverse.size))
    got = [forest.means(X), *forest.quantiles(X, levels)]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    _assert_reads_the_references(forest, X, levels)
    # a block of one query repeated passes the exact check under the same key
    same = np.repeat(X[:1], 40, axis=0)
    ((_, E, inverse),) = forest._routes(same, step)
    assert E.shape[0] == 1 and np.array_equal(inverse, np.zeros(40))
    _assert_reads_the_references(forest, same, levels)


def test_a_coarse_forest_reads_each_distinct_leaf_vector_once():
    # qrf_readout's shape: one feature, few large leaves, so queries share
    # leaf vectors; a broken key would fall back to every row unnoticed
    rng = np.random.default_rng(17)
    X = rng.uniform(-2, 2, size=(800, 1))
    y = X[:, 0] + rng.normal(size=800)
    config = ForestConfig(n_trees=300, min_leaf_size=120, seed=5)
    forest = ForestMeanRegressor(config).fit(X, y)._forest
    Q = rng.uniform(-2, 2, size=(1000, 1))
    step = max(1, forest_module._ROUTE_PAIRS // config.n_trees)
    for _, E, inverse in forest._routes(Q, step):
        assert 2 * E.shape[0] < inverse.size
        leaves = E.indices.reshape(E.shape[0], config.n_trees)
        assert np.unique(leaves, axis=0).shape[0] == E.shape[0]
        assert np.array_equal(np.unique(inverse), np.arange(E.shape[0]))
    _assert_reads_the_references(forest, Q[:200], (0.05, 0.95))


def _frozen(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_frozen(v) for v in value)
    return value


def _forest_state(model):
    """Every attribute of a fitted forest model, its forest and its node tables."""
    forest = model._forest
    names = type(forest.tables[0])._fields
    return (
        {k: _frozen(v) for k, v in vars(model).items() if k != "_forest"},
        {k: _frozen(v) for k, v in vars(forest).items() if k != "tables"},
        [[_frozen(getattr(table, name)) for name in names] for table in forest.tables],
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
    forest = model._forest
    w = _referee_weights(forest, grid)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(model.predict(grid), w @ forest._y_sorted, rtol=1e-10)


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

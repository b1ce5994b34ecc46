"""Tests for the quantile forest and its weighted-CDF readout."""

from fractions import Fraction

import numpy as np
import pytest

from confband.regressors.forest import (
    ForestConfig,
    ForestMeanRegressor,
    QuantileForestRegressor,
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


def test_predict_before_fit_raises():
    with pytest.raises(RuntimeError, match="fit"):
        QuantileForestRegressor().predict_pair(np.zeros((2, 1)))
    with pytest.raises(RuntimeError, match="fit"):
        QuantileForestRegressor().predict_quantile(np.zeros((2, 1)), 0.5)
    with pytest.raises(RuntimeError, match="fit"):
        ForestMeanRegressor().predict(np.zeros((2, 1)))

"""Checks shared by every regression engine."""

import re

import numpy as np
import pytest

from confband import harness
from confband.conformal import split_conformal_calibrate
from confband.datagen import (
    OracleQuantileRegressor,
    OracleQuantiles,
    SyntheticSpec,
    generate,
    standardize_apply,
    standardize_fit,
)
from confband.quantiles import check_level
from confband.regressors import (
    ForestConfig,
    ForestMeanRegressor,
    KnnDispersion,
    LinearMedianRegressor,
    LinearQuantilePair,
    MlpConfig,
    MlpMeanRegressor,
    MlpQuantilePair,
    QuantileForestRegressor,
    RidgeRegressor,
)

_FOREST = ForestConfig(n_trees=3, min_leaf_size=2)
_MLP = MlpConfig(hidden_width=4, max_epochs=2)
_PAIR_LEVELS = (0.1, 0.9)

# (unfitted engine, extra fit arguments, readout method)
_ENGINES = {
    "forest-pair": (lambda: QuantileForestRegressor(_FOREST), _PAIR_LEVELS, "predict_pair"),
    "forest-mean": (lambda: ForestMeanRegressor(_FOREST), (), "predict"),
    # the harness's qrf mean: the fitted pair's forest read as a mean
    "forest-pair-mean": (lambda: QuantileForestRegressor(_FOREST), _PAIR_LEVELS, "predict"),
    "ridge": (lambda: RidgeRegressor(0.1), (), "predict"),
    "linear-pair": (lambda: LinearQuantilePair(epochs=5), _PAIR_LEVELS, "predict_pair"),
    "linear-median": (lambda: LinearMedianRegressor(epochs=5), (), "predict"),
    "mlp-mean": (lambda: MlpMeanRegressor(_MLP, cv_folds=1), (), "predict"),
    "mlp-pair": (lambda: MlpQuantilePair(_MLP, cv_folds=1), _PAIR_LEVELS, "predict_pair"),
    "knn": (lambda: KnnDispersion(k=3), (), "predict"),
}


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_predict_rejects_a_feature_count_other_than_the_fitted_one(engine):
    make, fit_args, readout = _ENGINES[engine]
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    y = np.abs(X[:, 0] + rng.normal(size=30))  # non-negative, as k-NN dispersion needs
    predict = getattr(make().fit(X, y, *fit_args), readout)
    predict(rng.normal(size=(4, 3)))
    for width in (5, 2):
        with pytest.raises(ValueError, match=f"has {width} features, but the model was fitted on 3"):
            predict(rng.normal(size=(4, width)))


def test_a_quantile_forest_reads_the_mean_of_a_mean_forest_fitted_alike():
    rng = np.random.default_rng(4)
    X, Xq = rng.normal(size=(60, 2)), rng.normal(size=(25, 2))
    y = X[:, 0] + rng.normal(size=60)
    make, fit_args, readout = _ENGINES["forest-pair-mean"]
    got = getattr(make().fit(X, y, *fit_args), readout)(Xq)
    assert got.tobytes() == ForestMeanRegressor(_FOREST).fit(X, y).predict(Xq).tobytes()


@pytest.mark.parametrize("engine", ["forest-pair", "linear-pair", "mlp-pair", "oracle-pair"])
@pytest.mark.parametrize("levels", [(0.9, 0.1), (0.5, 0.5)])
def test_every_pair_engine_rejects_levels_out_of_order(engine, levels):
    if engine == "oracle-pair":
        model = OracleQuantileRegressor(OracleQuantiles(noise_scale=1.0))
    else:
        model = _ENGINES[engine][0]()
    X = np.linspace(0.5, 4.5, 30)[:, None]
    want = f"alpha_lo must be below alpha_hi, got {levels}"
    with pytest.raises(ValueError, match=re.escape(want)):
        model.fit(X, X[:, 0], *levels)


class _Unread:
    """Rows that fail the test if anything reads them."""

    def __array__(self, *args, **kwargs):
        raise AssertionError("rows were read before the levels were checked")


@pytest.mark.parametrize("bad", ["0.1", np.str_("0.1"), b"0.1", True])
def test_a_level_that_is_not_a_real_number_fails_before_any_work(bad):
    with pytest.raises(ValueError, match="level must be a real number"):
        check_level(bad)
    rows = _Unread()
    pairs = [_ENGINES[e][0]() for e in ("forest-pair", "linear-pair", "mlp-pair")]
    pairs.append(OracleQuantileRegressor(OracleQuantiles(noise_scale=1.0)))
    for pair in pairs:
        for levels in ((bad, 0.9), (0.1, bad)):
            with pytest.raises(ValueError, match="level must be a real number"):
                pair.fit(rows, rows, *levels)
    X = np.linspace(0.5, 4.5, 30)[:, None]
    forest = QuantileForestRegressor(_FOREST).fit(X, X[:, 0], *_PAIR_LEVELS)
    with pytest.raises(ValueError, match="level must be a real number"):
        forest.predict_quantile(rows, bad)
    mean = RidgeRegressor(0.1).fit(X, X[:, 0])
    with pytest.raises(ValueError, match="level must be a real number"):
        split_conformal_calibrate(mean, rows, rows, bad)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, float("nan"), "0.1", True])
def test_a_bad_level_anywhere_in_a_sequence_fails_before_any_read(bad):
    X = np.linspace(0.5, 4.5, 30)[:, None]
    forest = QuantileForestRegressor(_FOREST).fit(X, X[:, 0], *_PAIR_LEVELS)
    for levels in ([bad], [bad, 0.5], [0.1, 0.5, bad], (0.2, bad, 0.8)):
        with pytest.raises(ValueError, match="level must be"):
            forest.predict_quantile(_Unread(), levels)


def test_an_empty_level_list_fails_before_any_read():
    X = np.linspace(0.5, 4.5, 30)[:, None]
    forest = QuantileForestRegressor(_FOREST).fit(X, X[:, 0], *_PAIR_LEVELS)
    for levels in ([], (), np.array([]), np.empty((2, 0))):
        with pytest.raises(ValueError, match="quantile levels must be non-empty"):
            forest.predict_quantile(_Unread(), levels)


# slice sizes from 1 to 299 rows, around the blocks that BLAS kernels and
# the mlp's read work in
_ROW_SLICES = (1, 2, 3, 5, 7, 8, 13, 16, 31, 32, 33, 63, 64, 65, 100, 128, 257, 299)


def _engine_reads(engine: str, width: int):
    """``{role: read}`` for every role the harness fills for ``engine``.

    Each model is fitted as a repetition fits it, on standardized
    ``width``-feature rows, with small settings; a pair read comes back as
    one (2 x n) array. Also returns 1000 standardized, C-ordered query rows.
    """
    train, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=200, seed=0))
    queries, _ = generate(SyntheticSpec(kind="heteroscedastic", n=1000, seed=1))
    rng = np.random.default_rng(width)
    X, Xq = train.X, queries.X
    if width > 1:
        X = np.hstack([X, rng.normal(size=(200, width - 1))])
        Xq = np.hstack([Xq, rng.normal(size=(1000, width - 1))])
    params = standardize_fit(X, train.y)
    X1, y1 = standardize_apply(params, X, train.y)
    cfg = harness.ExperimentConfig(
        methods=("split",), engine=engine, cv_folds=2,
        forest=ForestConfig(n_trees=20, min_leaf_size=5),
        mlp=MlpConfig(hidden_width=16, max_epochs=3), linear_epochs=50,
    )
    bundle = harness._EngineBundle(cfg, X1, y1, rng, oracle, params)
    reads = {
        "mean": bundle.model("mean").predict,
        "dispersion": bundle.model("dispersion").predict,
    }
    if bundle.engine.pair is not None:
        reads["pair"] = lambda X: np.stack(bundle.model("pair").predict_pair(X))
    return reads, np.ascontiguousarray(standardize_apply(params, Xq))


@pytest.mark.parametrize(
    "engine, width",
    [(e, w) for e in harness.ENGINES for w in (1, 3, 8) if e != "oracle" or w == 1],
)
def test_a_read_gives_each_row_the_same_bits_in_any_slice_and_layout(engine, width):
    # the row-wise read contract of regressors.base, which lets the coverage
    # audit read a block of trials at once
    reads, Xq = _engine_reads(engine, width)
    for role, read in reads.items():
        want = read(Xq).tobytes()
        assert read(np.asfortranarray(Xq)).tobytes() == want, role
        for size in _ROW_SLICES:
            sliced = [read(Xq[start : start + size]) for start in range(0, Xq.shape[0], size)]
            assert np.concatenate(sliced, axis=-1).tobytes() == want, (role, size)

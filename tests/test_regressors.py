"""Checks shared by every regression engine."""

import re
import warnings
from functools import partial

import numpy as np
import pytest

from confband import harness
from confband.conformal import split_conformal_calibrate
from confband.datagen import (
    OracleDispersionRegressor,
    OracleMeanRegressor,
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
    LinearPinballModel,
    LinearQuantilePair,
    MlpConfig,
    MlpMeanRegressor,
    MlpQuantilePair,
    QuantileForestRegressor,
    RidgeRegressor,
    cross_validate_l2,
)

_FOREST = ForestConfig(n_trees=3, min_leaf_size=2)
_MLP = MlpConfig(hidden_width=4, max_epochs=2)
_PAIR_LEVELS = (0.1, 0.9)
_ORACLE = OracleQuantiles(noise_scale=1.0)

# (unfitted engine, extra fit arguments, readout method)
_ENGINES = {
    "forest-pair": (lambda: QuantileForestRegressor(_FOREST), _PAIR_LEVELS, "predict_pair"),
    "forest-mean": (lambda: ForestMeanRegressor(_FOREST), (), "predict"),
    # the harness's qrf mean: the fitted pair's forest read as a mean
    "forest-pair-mean": (lambda: QuantileForestRegressor(_FOREST), _PAIR_LEVELS, "predict"),
    "forest-quantile": (lambda: QuantileForestRegressor(_FOREST), _PAIR_LEVELS, "predict_quantile"),
    "ridge": (lambda: RidgeRegressor(0.1), (), "predict"),
    "linear-pair": (lambda: LinearQuantilePair(epochs=5), _PAIR_LEVELS, "predict_pair"),
    "crossing-fix-pair": (
        lambda: harness.CrossingFixPair(LinearQuantilePair(epochs=5)), _PAIR_LEVELS, "predict_pair",
    ),
    "linear-median": (lambda: LinearMedianRegressor(epochs=5), (), "predict"),
    "linear-model": (lambda: LinearPinballModel(0.9, epochs=5), (), "predict"),
    "mlp-mean": (lambda: MlpMeanRegressor(_MLP, cv_folds=1), (), "predict"),
    "mlp-pair": (lambda: MlpQuantilePair(_MLP, cv_folds=1), _PAIR_LEVELS, "predict_pair"),
    "knn": (lambda: KnnDispersion(k=3), (), "predict"),
    # the exact law's readouts, in raw units
    "oracle-mean": (lambda: OracleMeanRegressor(_ORACLE), (), "predict"),
    "oracle-dispersion": (lambda: OracleDispersionRegressor(_ORACLE), (), "predict"),
    "oracle-pair": (lambda: OracleQuantileRegressor(_ORACLE), _PAIR_LEVELS, "predict_pair"),
}
# the engines that fit one feature column only
_ONE_COLUMN = ("oracle-mean", "oracle-dispersion", "oracle-pair")


def _fit_rows(engine, rng, n=30):
    """Rows ``engine`` can fit: three normal feature columns, or for an oracle one column
    inside the law's support; y is non-negative, as k-NN dispersion needs."""
    X = rng.uniform(0.5, 4.5, size=(n, 1)) if engine in _ONE_COLUMN else rng.normal(size=(n, 3))
    return X, np.abs(X[:, 0] + rng.normal(size=n))


def _read(model, readout):
    """``model``'s readout as a function of X alone; a quantile read is at the median."""
    read = getattr(model, readout)
    return partial(read, level=0.5) if readout == "predict_quantile" else read


# the one message of every read before a fit (regressors.base.read_rows)
_UNFITTED = "^" + re.escape("fit() must be called before the model is read") + "$"


def _never_made():
    raise AssertionError("a pair was made before the rows were checked")


# the fits that return no model, each as a function of the training rows
_FIT_FUNCTIONS = {
    "standardize_fit": standardize_fit,
    "cross_validate_l2": cross_validate_l2,
    "tune_quantile_levels": lambda X, y: harness.tune_quantile_levels(
        _never_made, X, y, 0.1, 2, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize("shape", [(0, 3), (5, 0)], ids=["no-row", "no-column"])
@pytest.mark.parametrize("fit", [*_ENGINES, *_FIT_FUNCTIONS])
def test_every_fit_rejects_rows_without_a_row_or_a_column(fit, shape):
    X, y = np.zeros(shape), np.zeros(shape[0])
    want = f"need at least one row and one feature column to fit, got X of shape {shape}"
    if fit in _FIT_FUNCTIONS:
        with pytest.raises(ValueError, match=re.escape(want)):
            _FIT_FUNCTIONS[fit](X, y)
        return
    make, fit_args, readout = _ENGINES[fit]
    model = make()
    with pytest.raises(ValueError, match=re.escape(want)):
        model.fit(X, y, *fit_args)
    with pytest.raises(RuntimeError, match=_UNFITTED):  # the failed fit left no model behind
        _read(model, readout)(np.zeros((2, 3)))


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_a_read_before_fit_raises(engine):
    make, _, readout = _ENGINES[engine]
    with pytest.raises(RuntimeError, match=_UNFITTED):
        _read(make(), readout)(np.zeros((2, 1)))


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_a_failed_refit_leaves_the_first_fit_to_read(engine):
    make, fit_args, readout = _ENGINES[engine]
    X, y = _fit_rows(engine, np.random.default_rng(1))
    model = make().fit(X, y, *fit_args)
    read = _read(model, readout)
    want = np.asarray(read(X)).tobytes()
    with pytest.raises(ValueError, match="need at least one row"):
        model.fit(np.zeros((0, 2)), np.zeros(0), *fit_args)
    assert np.asarray(read(X)).tobytes() == want


# log2 of the bound on n * max|y| of each engine that fits to responses (k-NN: to
# residuals): 1023 where the fit or read only sums them, lower where it squares them
_RESPONSE_BOUNDS = {
    "forest-pair": 511,
    "forest-mean": 511,
    "mlp-mean": 255,
    "mlp-pair": 1023,
    "ridge": 1023,
    "linear-pair": 1023,
    "linear-median": 1023,
    "linear-model": 1023,
    "knn": 1023,
}


@pytest.mark.parametrize("engine", list(_RESPONSE_BOUNDS))
def test_a_fit_rejects_responses_past_its_bound_and_fits_those_at_it(engine):
    make, fit_args, readout = _ENGINES[engine]
    log2_bound = _RESPONSE_BOUNDS[engine]
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = np.abs(rng.normal(size=40)) + 0.1
    # past the bound these fits overflowed: a NaN read, a stump forest, or an overflow
    # warning before a divergence error that blamed the learning rate
    too_large = 1e307 if log2_bound == 1023 else 1e155
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"need n \* max\|y\| <= 2\*\*{log2_bound}, got 40 \* "):
            make().fit(X, y * too_large, *fit_args)
        for n in (40, 4):  # the fewest rows the test forest grows on
            at_bound = y[:n] / y[:n].max() * (2.0**log2_bound / n)
            assert at_bound.max() == 2.0**log2_bound / n
            model = make().fit(X[:n], at_bound, *fit_args)
            assert np.all(np.isfinite(_read(model, readout)(X)))


def _bad_features(X):
    """(X in a form no fit or read takes, the ``ValueError`` it raises)."""
    nan = X.copy()
    nan[1, 0] = np.nan
    inf = X.copy()
    inf[0, -1] = -np.inf
    ndim = "^expected a 2-D feature matrix, got ndim="
    finite = "^feature matrix contains non-finite entries$"
    # a 1-D X could be one row of features or one column of rows
    return [(X[:, 0], ndim + "1$"), (X[None], ndim + "3$"), (nan, finite), (inf, finite)]


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_every_fit_and_read_takes_a_finite_2d_x_and_a_1d_y(engine):
    make, fit_args, readout = _ENGINES[engine]
    X, y = _fit_rows(engine, np.random.default_rng(2))
    for bad, message in _bad_features(X):
        with pytest.raises(ValueError, match=message):
            make().fit(bad, y, *fit_args)
    for bad in (y[None], y[:, None]):  # a (1, n) y used to fit as n values
        with pytest.raises(ValueError, match="^expected a 1-D response vector, got ndim=2$"):
            make().fit(X, bad, *fit_args)
    read = _read(make().fit(X, y, *fit_args), readout)
    for bad, message in _bad_features(X):
        with pytest.raises(ValueError, match=message):
            read(bad)


@pytest.mark.parametrize("engine", list(_ENGINES))
def test_predict_rejects_a_feature_count_other_than_the_fitted_one(engine):
    make, fit_args, readout = _ENGINES[engine]
    rng = np.random.default_rng(0)
    X, y = _fit_rows(engine, rng)
    fitted = X.shape[1]
    model = make()
    assert model.n_features_in_ is None
    predict = _read(model.fit(X, y, *fit_args), readout)
    assert model.n_features_in_ == fitted  # an engine is fitted exactly when it knows its width
    predict(X[:4])
    for width in (5, 2):
        with pytest.raises(
            ValueError, match=f"has {width} features, but the model was fitted on {fitted}"
        ):
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
    pairs = [_ENGINES[e][0]() for e in ("forest-pair", "linear-pair", "mlp-pair", "oracle-pair")]
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

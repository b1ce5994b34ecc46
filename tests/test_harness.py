"""Tests for the repeated-split experiment harness."""

import copy
import json
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from confband import harness
from confband.conformal import (
    METHODS,
    apply_correction,
    cqr_asym_calibrate,
    cqr_calibrate,
    local_conformal_calibrate,
    plugin_values,
    split_conformal_calibrate,
)
from confband.datagen import (
    Dataset,
    SyntheticSpec,
    generate,
    standardize_apply,
    standardize_fit,
)
from confband.harness import (
    CSV_HEADER,
    QUANTILE_TUNING_GRID,
    CrossingFixPair,
    ExperimentConfig,
    ExperimentReport,
    MethodSummary,
    RepetitionResult,
    band_comparison_demo,
    coverage_audit,
    fix_crossing,
    repetition_split,
    run_experiment,
    summarize,
    tune_quantile_levels,
)
from confband.regressors import forest as forest_module
from confband.regressors import (
    ForestConfig,
    ForestMeanRegressor,
    LinearQuantilePair,
    MlpConfig,
    QuantileForestRegressor,
)


class _ConstantPair:
    """Quantile pair fixed at [0, 1] regardless of requested levels."""

    def fit(self, X, y, alpha_lo, alpha_hi):
        return self

    def predict_pair(self, X):
        n = np.asarray(X).shape[0]
        return np.zeros(n), np.ones(n)


class _CrossedPair:
    def fit(self, X, y, alpha_lo, alpha_hi):
        return self

    def predict_pair(self, X):
        x = np.asarray(X, dtype=float)[:, 0]
        return x, -x


def test_repetition_split_partitions_the_rows():
    cfg = ExperimentConfig(methods=("split",), engine="ridge")
    rng = np.random.default_rng(4)
    test_idx, i1, i2 = repetition_split(100, cfg, rng)
    assert test_idx.size == 20
    assert i2.size == 40 and i1.size == 40
    combined = np.sort(np.concatenate([test_idx, i1, i2]))
    assert np.array_equal(combined, np.arange(100))
    # tiny n still leaves every part non-empty
    test_idx, i1, i2 = repetition_split(5, cfg, rng)
    assert min(test_idx.size, i1.size, i2.size) >= 1


def test_fix_crossing_repairs_and_is_idempotent():
    lo = np.array([0.0, 2.0, -1.0])
    hi = np.array([1.0, 1.0, -1.0])
    fixed_lo, fixed_hi = fix_crossing(lo, hi)
    assert np.array_equal(fixed_lo, [0.0, 1.0, -1.0])
    assert np.array_equal(fixed_hi, [1.0, 2.0, -1.0])
    again = fix_crossing(fixed_lo, fixed_hi)
    assert np.array_equal(again[0], fixed_lo) and np.array_equal(again[1], fixed_hi)


def test_fix_crossing_repairs_a_block_and_rejects_ends_of_another_shape():
    q = np.random.default_rng(6).normal(size=(2, 3, 5))  # the tuner's (2 x grid x rows) read
    lo, hi = fix_crossing(*q)
    assert np.array_equal(lo, np.minimum(*q)) and np.array_equal(hi, np.maximum(*q))
    for ends, shapes in ((([1, 2], [1]), "(2,) do not match upper ends (1,)"),
                         ((q[0], q[1, 0]), "(3, 5) do not match upper ends (5,)")):
        with pytest.raises(ValueError, match=re.escape(f"lower ends of shape {shapes}")):
            fix_crossing(*ends)


def test_reports_count_crossings_at_calibration_and_test(monkeypatch):
    # the crossed pair returns (x, -x), so exactly the rows whose
    # standardized feature is positive come back crossed
    crossed = replace(harness._ENGINES["linear-q"], pair=lambda b, seed: _CrossedPair())
    monkeypatch.setitem(harness._ENGINES, "linear-q", crossed)
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=100, seed=4))
    cfg = ExperimentConfig(
        methods=("cqr", "split", "cqr-asym"), engine="linear-q", n_repetitions=1,
        seed=5, linear_epochs=50,
    )
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    test_idx, i1, i2 = repetition_split(dataset.n_rows, cfg, np.random.default_rng(seq))
    params = standardize_fit(dataset.X[i1], dataset.y[i1])
    n_cal = int(np.sum(standardize_apply(params, dataset.X[i2])[:, 0] > 0))
    n_test = int(np.sum(standardize_apply(params, dataset.X[test_idx])[:, 0] > 0))
    assert n_cal > 0 and n_test > 0

    report = run_experiment(cfg, dataset)
    counts = {r.method: r.n_crossings_fixed for r in report.repetitions}
    assert counts == {"cqr": n_cal + n_test, "split": 0, "cqr-asym": n_cal + n_test}


def test_a_reader_reads_each_model_once_and_counts_each_pair_read(monkeypatch):
    calls = []

    class _CountedCrossedPair(_CrossedPair):
        def predict_pair(self, X):
            calls.append(np.asarray(X).shape[0])
            return super().predict_pair(X)

    crossed = replace(harness._ENGINES["linear-q"], pair=lambda b, seed: _CountedCrossedPair())
    monkeypatch.setitem(harness._ENGINES, "linear-q", crossed)
    rng = np.random.default_rng(1)
    X1 = rng.normal(size=(50, 1))
    cfg = ExperimentConfig(engine="linear-q", linear_epochs=50)
    bundle = harness._EngineBundle(cfg, X1, X1[:, 0], rng, None, None)
    X = np.linspace(-1.0, 1.0, 9)[:, None]  # four rows read crossed: x > 0
    read = bundle.reader(X)
    lo, hi = read("pair")
    assert read("pair") is read("pair")
    assert calls == [9] and bundle.n_crossed == 4
    assert lo.tobytes() == np.minimum(X[:, 0], -X[:, 0]).tobytes()
    assert hi.tobytes() == np.maximum(X[:, 0], -X[:, 0]).tobytes()
    # a new reader reads and counts again, on its own rows only
    bundle.reader(X[:5])("pair")
    assert calls == [9, 5] and bundle.n_crossed == 4


@pytest.mark.parametrize("engine", ["ridge", "qrf", "linear-q"])
def test_a_row_reads_the_same_bits_in_any_row_set(engine):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=240, seed=7))
    cfg = ExperimentConfig(
        methods=("split", "local"), engine=engine,
        forest=ForestConfig(n_trees=10, min_leaf_size=5), linear_epochs=100,
    )
    X1, y1, X = dataset.X[:120], dataset.y[:120], dataset.X[120:]
    bundle = harness._EngineBundle(cfg, X1, y1, np.random.default_rng(2), None, None)
    rows = np.random.default_rng(3).permutation(X.shape[0])[:37]
    full, part = bundle.reader(X), bundle.reader(X[rows])
    roles = ["mean", "dispersion"] + (["pair"] if harness._ENGINES[engine].pair else [])
    for role in roles:
        for whole, some in zip(np.atleast_2d(full(role)), np.atleast_2d(part(role))):
            assert whole[rows].tobytes() == some.tobytes()


def _count_forest_reads(monkeypatch):
    """Record every forest read as (readout, forest id, the rows it read)."""
    reads = []

    def counted(cls, name):
        original = getattr(cls, name)

        def read(self, X):
            reads.append((name, id(self), np.asarray(X).tobytes()))
            return original(self, X)

        monkeypatch.setattr(cls, name, read)

    counted(QuantileForestRegressor, "predict_pair")
    counted(ForestMeanRegressor, "predict")
    return reads


def _count_forest_growths(monkeypatch):
    """Record every grown forest, whichever class grows it."""
    grown = []
    original = forest_module._Forest.__init__

    def grow(self, *args, **kwargs):
        grown.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(forest_module._Forest, "__init__", grow)
    return grown


@pytest.mark.parametrize("methods", [METHODS, METHODS[::-1]])
def test_each_fitted_model_is_read_once_per_row_set(monkeypatch, methods):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic_outliers", n=200, seed=2))
    cfg = ExperimentConfig(
        methods=methods, engine="qrf", n_repetitions=1, seed=6,
        forest=ForestConfig(n_trees=10, min_leaf_size=5),
    )
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    test_idx, i1, i2 = repetition_split(dataset.n_rows, cfg, np.random.default_rng(seq))
    params = standardize_fit(dataset.X[i1], dataset.y[i1])
    X1, X2t = (
        standardize_apply(params, dataset.X[idx]).tobytes()
        for idx in (i1, np.concatenate((i2, test_idx)))
    )

    reads = _count_forest_reads(monkeypatch)
    grown = _count_forest_growths(monkeypatch)
    assert not run_experiment(cfg, dataset).failures
    per_forest = {}
    for readout, forest, rows in reads:
        per_forest.setdefault((readout, forest), []).append(rows)
    pair = [sorted(rows) for (readout, _), rows in per_forest.items() if readout == "predict_pair"]
    means = [sorted(rows) for (readout, _), rows in per_forest.items() if readout == "predict"]
    # the pair's forest, which is also the point predictor, read as quantiles
    # once on the calibration and test rows stacked, and as a mean on those
    # and once on the proper-training rows, for the dispersion fit's
    # residuals; the dispersion forest (a mean forest on residuals) once on
    # the stacked rows
    assert pair == [[X2t]]
    assert sorted(means) == sorted([sorted([X1, X2t]), [X2t]])
    (pair_forest,) = [forest for readout, forest, _ in reads if readout == "predict_pair"]
    assert ("predict", pair_forest, X1) in reads and ("predict", pair_forest, X2t) in reads
    assert len(grown) == 2


@pytest.mark.parametrize(
    "methods, n_forests", [(("cqr",), 1), (("split",), 1), (("split", "local"), 2)]
)
def test_a_qrf_repetition_grows_one_forest_per_distinct_model(monkeypatch, methods, n_forests):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=100, seed=2))
    cfg = ExperimentConfig(
        methods=methods, engine="qrf", n_repetitions=1, forest=ForestConfig(n_trees=5),
    )
    grown = _count_forest_growths(monkeypatch)
    assert not run_experiment(cfg, dataset).failures
    assert len(grown) == n_forests


@pytest.mark.parametrize("cv_folds", [2, 3])
def test_a_tuned_qrf_repetition_grows_one_forest_per_tuning_fold(monkeypatch, cv_folds):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=100, seed=2))
    cfg = ExperimentConfig(
        methods=("cqr",), engine="qrf", n_repetitions=1, tune_quantiles=True,
        cv_folds=cv_folds, forest=ForestConfig(n_trees=5),
    )
    grown = _count_forest_growths(monkeypatch)
    assert not run_experiment(cfg, dataset).failures
    # growth ignores the levels: one forest per fold is read at every grid
    # level, and one more is the pair at the tuned levels
    assert len(grown) == cv_folds + 1


def test_a_tuned_linear_q_repetition_fits_a_pair_per_fold_and_grid_level(monkeypatch):
    fits = []
    fit = LinearQuantilePair.fit

    def counted(self, X, y, alpha_lo, alpha_hi):
        fits.append((alpha_lo, alpha_hi))
        return fit(self, X, y, alpha_lo, alpha_hi)

    monkeypatch.setattr(LinearQuantilePair, "fit", counted)
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=100, seed=2))
    cfg = ExperimentConfig(
        methods=("cqr",), engine="linear-q", n_repetitions=1, tune_quantiles=True,
        cv_folds=3, linear_epochs=50,
    )
    assert not run_experiment(cfg, dataset).failures
    # the linear pair's fit depends on its levels, so every (fold, grid level)
    # fits its own, and the last fit is the pair at the tuned levels
    grid = [(g / 2.0, 1.0 - g / 2.0) for g in QUANTILE_TUNING_GRID]
    assert sorted(fits[:-1]) == sorted(grid * cfg.cv_folds)
    assert fits[-1] in grid


def test_a_run_without_pair_methods_tunes_nothing(monkeypatch):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=100, seed=3))
    cfg = ExperimentConfig(
        methods=("split",), engine="qrf", n_repetitions=2, seed=4,
        tune_quantiles=True, cv_folds=2, forest=ForestConfig(n_trees=5),
    )
    tunings = []
    monkeypatch.setattr(harness, "tune_quantile_levels", lambda *a, **k: tunings.append(a))
    grown = _count_forest_growths(monkeypatch)
    tuned = run_experiment(cfg, dataset)
    assert tunings == [] and len(grown) == cfg.n_repetitions
    untuned = run_experiment(replace(cfg, tune_quantiles=False), dataset)
    assert tuned.repetitions == untuned.repetitions and tuned.summaries == untuned.summaries


def test_the_demo_reads_each_fitted_model_once_on_its_grid(monkeypatch):
    reads = _count_forest_reads(monkeypatch)
    grid_size = 37  # no other row set of the demo has this many rows
    band_comparison_demo(n=300, seed=1, n_trees=10, grid_size=grid_size)
    on_grid = [(readout, forest) for readout, forest, rows in reads if len(rows) == grid_size * 8]
    # split and local share the pair forest's mean read; local adds the
    # dispersion forest and cqr the pair's quantile read: three reads, one
    # per (readout, model), of two forests
    assert len(on_grid) == len(set(on_grid)) == 3
    assert sorted(readout for readout, _ in on_grid) == ["predict", "predict", "predict_pair"]
    assert len({forest for _, forest in on_grid}) == 2


def _public_band(method, bundle, X2, y2, cfg):
    """The band of ``method``'s public calibrator on the bundle's fitted models."""
    half = cfg.alpha / 2.0
    if method == "split":
        return split_conformal_calibrate(bundle.model("mean"), X2, y2, cfg.alpha)
    if method == "local":
        return local_conformal_calibrate(
            bundle.model("mean"), bundle.model("dispersion"), X2, y2, cfg.alpha, cfg.gamma
        )
    pair = CrossingFixPair(bundle.model("pair"))
    if method == "cqr":
        return cqr_calibrate(pair, X2, y2, cfg.alpha)
    return cqr_asym_calibrate(pair, X2, y2, half, half)


@pytest.mark.parametrize("engine", ["qrf", "linear-q"])
@pytest.mark.parametrize("method", METHODS)
def test_the_run_loop_band_is_the_public_calibrator_band(engine, method):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic_outliers", n=200, seed=8))
    cfg = ExperimentConfig(
        methods=(method,), engine=engine, n_repetitions=1, seed=3, gamma=0.5,
        forest=ForestConfig(n_trees=10, min_leaf_size=5), linear_epochs=100,
    )
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    (row,), (correction,), bundle = harness._run_repetition(cfg, dataset, None, 0, seq)
    test_idx, _, i2 = repetition_split(dataset.n_rows, cfg, np.random.default_rng(seq))
    X2, y2 = standardize_apply(bundle.params, dataset.X[i2], dataset.y[i2])
    Xt, yt = standardize_apply(bundle.params, dataset.X[test_idx], dataset.y[test_idx])

    band = _public_band(method, bundle, X2, y2, cfg)
    assert band.correction == correction
    lo, hi = band.predict_interval(Xt)
    # the run loop's band on the test rows, from the bundle's read of the
    # calibration and test rows stacked
    stacked = plugin_values(method, bundle.reader(np.concatenate((X2, Xt))), cfg.gamma)
    test = [v[i2.size :] if np.ndim(v) else v for v in stacked]
    run_lo, run_hi = apply_correction(correction, *test)
    assert lo.tobytes() == run_lo.tobytes() and hi.tobytes() == run_hi.tobytes()
    assert (row.coverage, row.avg_length, row.tail_lo_miss, row.tail_hi_miss) == (
        harness._evaluate(lo, hi, yt, 1.0)
    )


def test_a_calibrated_band_is_safe_to_share_across_threads():
    # the crossed pair gives every read crossings to repair
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(200, 1))
    y = X[:, 0] + rng.normal(size=200)
    pair = CrossingFixPair(_CrossedPair()).fit(X, y, 0.05, 0.95)
    band = cqr_calibrate(pair, X, y, alpha=0.1)
    state = dict(vars(pair))
    X_new = rng.uniform(-2, 2, size=(300, 1))
    want_lo, want_hi = band.predict_interval(X_new)
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
    for lo, hi in results:
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert vars(pair) == state


def test_reports_are_byte_identical_across_runs():
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=200, seed=1))
    cfg = ExperimentConfig(
        methods=METHODS, engine="oracle", alpha=0.1, n_repetitions=2, seed=7
    )
    a = run_experiment(cfg, dataset, oracle).to_json()
    b = run_experiment(cfg, dataset, oracle).to_json()
    assert a == b
    other = run_experiment(
        ExperimentConfig(
            methods=METHODS, engine="oracle", alpha=0.1, n_repetitions=2, seed=8
        ),
        dataset,
        oracle,
    ).to_json()
    assert a != other
    echo = json.loads(a)["config"]
    assert echo["n_rows"] == 200 and echo["engine"] == "oracle"


def test_test_rows_never_influence_the_fitted_bands():
    rng = np.random.default_rng(42)
    X = rng.uniform(0.0, 5.0, size=(120, 1))
    y = 2.0 * np.sin(X[:, 0]) + rng.normal(size=120)
    cfg = ExperimentConfig(
        methods=("split", "cqr"),
        engine="linear-q",
        n_repetitions=1,
        seed=9,
        linear_epochs=300,
    )
    # reproduce the repetition's split to find the test rows
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    test_idx, _, _ = repetition_split(120, cfg, np.random.default_rng(seq))
    y_perturbed = y.copy()
    y_perturbed[test_idx] += rng.normal(scale=10.0, size=test_idx.size)

    base = run_experiment(cfg, Dataset(X=X, y=y))
    moved = run_experiment(cfg, Dataset(X=X, y=y_perturbed))
    for r0, r1 in zip(base.repetitions, moved.repetitions):
        assert r0.avg_length == r1.avg_length
    assert any(
        r0.coverage != r1.coverage
        for r0, r1 in zip(base.repetitions, moved.repetitions)
    )


def test_oracle_quantile_pair_covers_at_nominal_rate():
    # calibration sets of 999 rows put the guaranteed coverage in
    # [0.9, 0.901]; averaging 20 repetitions lands well inside [0.89, 0.91]
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=2498, seed=5))
    cfg = ExperimentConfig(
        methods=("cqr",), engine="oracle", alpha=0.1, n_repetitions=20, seed=6
    )
    report = run_experiment(cfg, dataset, oracle)
    summary = report.summaries[0]
    assert summary.n_reps == 20
    assert 0.89 <= summary.avg_coverage <= 0.91


def test_demo_produces_constant_split_widths_on_homoscedastic_data():
    summaries, bounds = band_comparison_demo(
        n=400, seed=2, n_trees=30, grid_size=51, kind="homoscedastic"
    )
    assert [s.method for s in summaries] == ["split", "local", "cqr"]
    assert bounds["x"].size == 51
    widths = bounds["split_hi"] - bounds["split_lo"]
    assert np.ptp(widths) < 1e-9
    for method in ("split", "local", "cqr"):
        assert np.all(bounds[f"{method}_hi"] >= bounds[f"{method}_lo"])


def test_summarize_matches_hand_computed_aggregates():
    rows = [
        RepetitionResult("cqr", 0, 0.8, 2.0, 0.15, 0.05, 0),
        RepetitionResult("cqr", 1, 0.9, 4.0, 0.05, 0.05, 1),
        RepetitionResult("split", 0, 1.0, 5.0, 0.0, 0.0, 0),
    ]
    summaries = summarize(rows, ("split", "cqr", "local"))
    assert [s.method for s in summaries] == ["split", "cqr"]
    split, cqr = summaries
    assert split.n_reps == 1 and split.sd_length == 0.0
    assert cqr.avg_length == 3.0
    assert cqr.sd_length == math.sqrt(2.0)
    assert cqr.avg_coverage == pytest.approx(0.85)
    assert cqr.sd_coverage == np.std([0.8, 0.9], ddof=1)
    assert cqr.tail_lo_miss == pytest.approx(0.1)
    assert cqr.n_reps == 2


def test_csv_rendering_uses_the_exact_header():
    summary = MethodSummary("cqr", 1.5, 0.1, 0.9, 0.02, 0.04, 0.06, 20)
    report = ExperimentReport(config={}, summaries=(summary,), repetitions=())
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("cqr,1.5,0.1,0.9,")
    empty = ExperimentReport(config={}, summaries=(), repetitions=())
    assert empty.to_csv() == CSV_HEADER + "\n"


def test_json_writes_infinite_lengths_as_the_string_inf():
    # alpha = 0.01 with a 24-row calibration set overflows the inflated
    # level, so the intervals and their average length are infinite
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=3))
    cfg = ExperimentConfig(
        methods=("split",), engine="oracle", alpha=0.01, n_repetitions=1, seed=0
    )
    report = run_experiment(cfg, dataset, oracle)
    assert math.isinf(report.summaries[0].avg_length)
    assert report.repetitions[0].coverage == 1.0
    written = json.loads(report.to_json())
    assert written["summaries"][0]["avg_length"] == "inf"
    assert written["repetitions"][0]["avg_length"] == "inf"
    assert written["repetitions"][0]["coverage"] == 1.0
    assert "inf" in report.to_csv()


def test_quantile_level_tuning_grid_and_ties():
    rng = np.random.default_rng(2)
    X1 = rng.normal(size=(40, 1))
    y1 = rng.normal(size=40)
    # a single grid point is returned as-is
    levels = tune_quantile_levels(
        _ConstantPair, X1, y1, alpha=0.1, cv_folds=2,
        rng=np.random.default_rng(0), grid=(0.2,),
    )
    assert levels == (0.1, 0.9)
    # the constant pair scores every grid point identically, so the tie
    # breaks toward the nominal level closest to alpha
    levels = tune_quantile_levels(
        _ConstantPair, X1, y1, alpha=0.1, cv_folds=2,
        rng=np.random.default_rng(0), grid=(0.05, 0.1, 0.3),
    )
    assert levels == (0.05, 0.95)
    # a numpy grid gives the tuple grid's levels, as Python floats
    for grid in ((0.2,), (0.05, 0.1, 0.3), QUANTILE_TUNING_GRID):
        want = tune_quantile_levels(_ConstantPair, X1, y1, 0.1, 2, np.random.default_rng(0), grid)
        got = tune_quantile_levels(
            _ConstantPair, X1, y1, 0.1, 2, np.random.default_rng(0), np.array(grid)
        )
        assert got == want and [type(v) for v in got] == [float, float]
    for empty in ((), [], np.array([])):
        with pytest.raises(ValueError, match="tuning grid must be non-empty"):
            tune_quantile_levels(
                _ConstantPair, X1, y1, 0.1, 2, np.random.default_rng(0), grid=empty
            )
    # one fold leaves no rows to fit on, and zero folds nothing to average
    for folds, message in ((0, "must be >= 2, got 0"), (2.5, "must be an integer")):
        with pytest.raises(ValueError, match=f"cv_folds {message}"):
            tune_quantile_levels(_ConstantPair, X1, y1, 0.1, folds, np.random.default_rng(0))


def _tune_by_the_public_calibrator(make_pair, X1, y1, alpha, cv_folds, rng, grid):
    """The per-grid-point tuning loop the band step replaced, kept as the referee.

    It rebuilds each fold's rows for every grid point and scores through
    ``CrossingFixPair``, ``cqr_calibrate`` and ``predict_interval``.
    """
    X1 = np.asarray(X1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    n = X1.shape[0]
    order = rng.permutation(n)
    folds = [order[f::cv_folds] for f in range(cv_folds)]
    halves = [rng.permutation(n - f.size) for f in folds]
    best = None
    for nominal in grid:
        levels = (nominal / 2.0, 1.0 - nominal / 2.0)
        total = 0.0
        for f, val_idx in enumerate(folds):
            rest_mask = np.ones(n, dtype=bool)
            rest_mask[val_idx] = False
            shuffled = np.flatnonzero(rest_mask)[halves[f]]
            cut = shuffled.size // 2
            fit_idx, cal_idx = shuffled[:cut], shuffled[cut:]
            pair = CrossingFixPair(make_pair())
            pair.fit(X1[fit_idx], y1[fit_idx], *levels)
            band = cqr_calibrate(pair, X1[cal_idx], y1[cal_idx], alpha)
            total += harness._evaluate(*band.predict_interval(X1[val_idx]), y1[val_idx], 1.0)[1]
        key = (total / cv_folds, abs(nominal - alpha), nominal)
        if best is None or key < best:
            best = key
    return best[2] / 2.0, 1.0 - best[2] / 2.0


def _recorded_bands(monkeypatch):
    """Record the bytes of every band the harness scores, with its response rows.

    Each row of a (levels x rows) block is recorded as one band. Also returns
    the number of ``_band`` and ``_evaluate`` calls made.
    """
    bands, calls = [], {"_band": 0, "_evaluate": 0}
    band, score = harness._band, harness._evaluate

    def count_band(*args):
        calls["_band"] += 1
        return band(*args)

    def evaluate(lo, hi, y, length_scale):
        calls["_evaluate"] += 1
        for row in zip(*(np.atleast_2d(v) for v in (lo, hi, y))):
            bands.append(tuple(v.tobytes() for v in row))
        return score(lo, hi, y, length_scale)

    monkeypatch.setattr(harness, "_band", count_band)
    monkeypatch.setattr(harness, "_evaluate", evaluate)
    return bands, calls


@pytest.mark.parametrize(
    "make_pair",
    [
        lambda: LinearQuantilePair(epochs=100),
        lambda: QuantileForestRegressor(ForestConfig(n_trees=15, min_leaf_size=5, seed=4)),
        _CrossedPair,
    ],
    ids=["linear-q", "qrf", "crossed"],
)
def test_tuning_scores_every_fold_like_the_public_calibrator(monkeypatch, make_pair):
    rng = np.random.default_rng(9)
    X1 = rng.uniform(-2.0, 2.0, size=(90, 1))
    y1 = X1[:, 0] + (0.5 + np.abs(X1[:, 0])) * rng.normal(size=90)
    bands, calls = _recorded_bands(monkeypatch)
    args = (make_pair, X1, y1, 0.1, 3)
    got = tune_quantile_levels(*args, np.random.default_rng(5), QUANTILE_TUNING_GRID)
    # one band step and one scoring per fold, each on the fold's whole grid
    assert calls == {"_band": 3, "_evaluate": 3}
    ours = list(bands)
    bands.clear()
    want = _tune_by_the_public_calibrator(*args, np.random.default_rng(5), QUANTILE_TUNING_GRID)
    assert got == want
    # every fold of every grid point gets the same band, bit for bit; ours
    # come fold by fold, the referee's grid point by grid point
    n_grid = len(QUANTILE_TUNING_GRID)
    assert len(ours) == 3 * n_grid
    assert [ours[f * n_grid + g] for g in range(n_grid) for f in range(3)] == bands


def test_tuning_checks_every_input_before_the_first_fit():
    rng = np.random.default_rng(2)
    X1 = rng.normal(size=(40, 1))
    y1 = rng.normal(size=40)
    fits = []

    def make_pair():
        fits.append(None)
        return _ConstantPair()

    with pytest.raises(ValueError, match="1.5"):
        tune_quantile_levels(make_pair, X1, y1, 0.1, 3, np.random.default_rng(0), grid=(0.1, 1.5))
    with pytest.raises(ValueError, match="response has 39 rows, features have 40"):
        tune_quantile_levels(make_pair, X1, y1[:39], 0.1, 3, np.random.default_rng(0))
    # more folds than rows would leave a validation fold empty
    with pytest.raises(ValueError, match="need at least 20 rows for 20-fold CV"):
        tune_quantile_levels(make_pair, X1[:12], y1[:12], 0.1, 20, np.random.default_rng(0))
    y1[7] = np.nan
    with pytest.raises(ValueError, match="response vector contains non-finite entries"):
        tune_quantile_levels(make_pair, X1, y1, 0.1, 3, np.random.default_rng(0))
    assert fits == []


def test_tuned_runs_record_the_nominal_level():
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 5.0, size=(80, 1))
    y = 2.0 * np.sin(X[:, 0]) + 0.5 * rng.normal(size=80)
    cfg = ExperimentConfig(
        methods=("cqr",),
        engine="linear-q",
        n_repetitions=1,
        seed=3,
        tune_quantiles=True,
        cv_folds=2,
        linear_epochs=200,
    )
    report = run_experiment(cfg, Dataset(X=X, y=y))
    nominal = report.repetitions[0].alpha_nominal
    assert nominal in [round(g, 12) for g in QUANTILE_TUNING_GRID]
    untuned = run_experiment(
        ExperimentConfig(
            methods=("cqr",), engine="linear-q", n_repetitions=1, seed=3,
            linear_epochs=200,
        ),
        Dataset(X=X, y=y),
    )
    assert untuned.repetitions[0].alpha_nominal is None


def test_config_validation_rejects_bad_settings():
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(methods=("bogus",))
    with pytest.raises(ValueError, match="methods must be non-empty"):
        ExperimentConfig(methods=())
    # a repeated method would be scored twice and summarized as one
    with pytest.raises(ValueError, match="method 'split' is listed more than once"):
        ExperimentConfig(methods=("split", "cqr", "split"))
    with pytest.raises(ValueError, match="unknown engine"):
        ExperimentConfig(engine="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(n_repetitions=0)
    with pytest.raises(ValueError, match="test_fraction"):
        ExperimentConfig(test_fraction=1.0)
    with pytest.raises(ValueError, match="calibration_fraction_of_train"):
        ExperimentConfig(calibration_fraction_of_train=0.0)
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(gamma=-1.0)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
            ExperimentConfig(gamma=gamma)
    with pytest.raises(ValueError, match="cv_folds must be >= 2, got 1"):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(ValueError, match="knn_k must be >= 1"):
        ExperimentConfig(knn_k=0)
    with pytest.raises(ValueError, match="linear_epochs must be >= 1"):
        ExperimentConfig(linear_epochs=0)
    # a wrongly typed engine config fails here, not as a TypeError in a repetition
    for field, bad in (("forest", {"n_trees": 5}), ("forest", MlpConfig()), ("mlp", None)):
        with pytest.raises(ValueError, match=f"{field} must be a"):
            ExperimentConfig(**{field: bad})
    # ridge has no quantile pair, so the pair methods are rejected up front
    for method in ("cqr", "cqr-asym"):
        with pytest.raises(ValueError, match="cannot produce quantile pairs"):
            ExperimentConfig(methods=("split", method), engine="ridge")


def test_methods_must_be_a_sequence_of_names_and_are_kept_as_a_tuple():
    # a bare string is a sequence of letters, not of method names
    for bad in ("cqr", "split", 3, None):
        with pytest.raises(ValueError, match="methods must be a sequence of method names"):
            ExperimentConfig(methods=bad)
    cfg = ExperimentConfig(methods=["split", "cqr"])
    assert cfg.methods == ("split", "cqr")
    # a list is kept as a tuple, so the frozen config hashes
    assert hash(cfg) == hash(ExperimentConfig(methods=("split", "cqr")))


@pytest.mark.parametrize("field", ["n_repetitions", "cv_folds", "knn_k", "linear_epochs"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
def test_non_integer_config_counts_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentConfig(**{field: value})
    assert getattr(ExperimentConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("field", ["n_trials", "n_calibration", "n_test", "n_train"])
def test_non_integer_audit_counts_are_rejected(field):
    counts = dict(n_trials=2, n_calibration=9, n_test=10, n_train=50)
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
        coverage_audit(**{**counts, field: 2.5}, engine="oracle")


def test_run_experiment_input_errors():
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=30, seed=0))
    cfg = ExperimentConfig(methods=("split",), engine="ridge")
    with pytest.raises(ValueError, match="need at least 40 rows"):
        run_experiment(cfg, dataset)
    # the oracle engine needs the synthetic law behind the data
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=0))
    oracle_cfg = ExperimentConfig(methods=("split",), engine="oracle")
    with pytest.raises(ValueError, match="requires synthetic data"):
        run_experiment(oracle_cfg, dataset)


def _failing_correction(fail_on_calls):
    """The harness's scoring step, raising on the given (1-based) call numbers."""
    calls = []
    score = harness.conformal_correction

    def correction(*args):
        calls.append(None)
        if len(calls) in fail_on_calls:
            raise ValueError(f"calibration {len(calls)} failed")
        return score(*args)

    return correction


def test_every_repetition_failing_raises_with_the_first_error(monkeypatch):
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=0))
    monkeypatch.setattr(harness, "conformal_correction", _failing_correction({1, 2}))
    cfg = ExperimentConfig(methods=("cqr",), engine="oracle", n_repetitions=2)
    with pytest.raises(RuntimeError, match="every repetition failed; first error: calibration 1"):
        run_experiment(cfg, dataset, oracle)


def test_a_failed_repetition_adds_no_rows(monkeypatch):
    # the second method of the first repetition fails after the first
    # method has been scored; none of that repetition's rows may remain
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=0))
    # scoring calls run one per method: split is call 1, cqr call 2
    monkeypatch.setattr(harness, "conformal_correction", _failing_correction({2}))
    cfg = ExperimentConfig(methods=("split", "cqr"), engine="oracle", n_repetitions=3)
    report = run_experiment(cfg, dataset, oracle)
    assert report.failures == ({"repetition": 0, "error": "calibration 2 failed"},)
    assert [(r.repetition, r.method) for r in report.repetitions] == [
        (1, "split"), (1, "cqr"), (2, "split"), (2, "cqr"),
    ]
    assert [s.n_reps for s in report.summaries] == [2, 2]


def _audit_by_the_public_calibrator(pair, rng, n_trials, n_cal, n_test, kind, alpha):
    """The per-trial audit loop the batched audit replaced, kept as the referee.

    Each trial draws its rows with ``generate`` from the next seed of the
    audit RNG and is scored through ``CrossingFixPair``, ``cqr_calibrate``
    and ``predict_interval``. Yields each trial's (rows, lo, hi).
    """
    fixed = CrossingFixPair(pair)
    base = SyntheticSpec(kind=kind, n=n_cal + n_test)
    for _ in range(n_trials):
        ds, _ = generate(replace(base, seed=int(rng.integers(2**63))))
        band = cqr_calibrate(fixed, ds.X[:n_cal], ds.y[:n_cal], alpha)
        yield ds, *band.predict_interval(ds.X[n_cal:])


@pytest.mark.parametrize("engine", [*harness.PAIR_ENGINES, "crossed"])
def test_an_audit_trial_band_is_the_public_calibrator_band(monkeypatch, engine):
    if engine == "crossed":
        # the crossed pair gives every read crossings to repair
        crossed = replace(harness._ENGINES["linear-q"], pair=lambda b, seed: _CrossedPair())
        monkeypatch.setitem(harness._ENGINES, "linear-q", crossed)
        engine = "linear-q"
    fitted, reads, datasets, blocks, bands = [], [], [], [], []
    model, draw, draw_rows, band = (
        harness._EngineBundle.model, harness.generate, harness.draw_rows, harness._band
    )

    def fitted_pair(bundle, role):
        pair = model(bundle, role)
        if not fitted:
            # the pair was just fitted: count its reads from here on
            predict_pair = pair.predict_pair

            def counted(X):
                reads.append(len(X))
                return predict_pair(X)

            pair.predict_pair = counted
        # the audit RNG as this call finds it; at the first call, as the trials find it
        fitted.append((pair, copy.deepcopy(bundle.rng)))
        return pair

    def generate(spec):
        drawn = draw(spec)
        datasets.append(drawn[0])
        return drawn

    def recorded_draw(spec, seeds):
        blocks.append(draw_rows(spec, seeds))
        return blocks[-1]

    def recorded_band(*args):
        bands.append(band(*args))
        return bands[-1]

    monkeypatch.setattr(harness._EngineBundle, "model", fitted_pair)
    monkeypatch.setattr(harness, "generate", generate)
    monkeypatch.setattr(harness, "draw_rows", recorded_draw)
    monkeypatch.setattr(harness, "_band", recorded_band)
    n_test, n_trials = 30, 7
    # n_cal = 5 is too few rows for a finite correction at alpha = 0.1
    for n_cal in (19, 5):
        # three trials a block: blocks of 3, 3 and 1 trials
        monkeypatch.setattr(harness, "_AUDIT_ROWS", 3 * (n_cal + n_test) + 2)
        for log in (fitted, reads, datasets, blocks, bands):
            log.clear()
        audit = coverage_audit(
            n_trials=n_trials, n_calibration=n_cal, n_test=n_test, n_train=40, engine=engine,
            kind="heteroscedastic_outliers", seed=6,
        )
        # one fitted pair, one generated dataset (the training rows), and one
        # draw, one pair read of the block's rows and one band per block
        assert len({id(pair) for pair, _ in fitted}) == 1 and len(datasets) == 1
        assert [x.shape[0] for x, _, _ in blocks] == [3, 3, 1] and len(bands) == 3
        assert reads == [3 * (n_cal + n_test), 3 * (n_cal + n_test), n_cal + n_test]
        rows_x = np.concatenate([x for x, _, _ in blocks])
        rows_y = np.concatenate([y for _, y, _ in blocks])
        corrections = np.concatenate([c for c, _, _ in bands])
        assert np.all(np.isinf(corrections)) == (n_cal == 5)
        lo = np.concatenate([lo for _, lo, _ in bands])
        hi = np.concatenate([hi for _, _, hi in bands])
        pair, rng = fitted[0]
        want = _audit_by_the_public_calibrator(pair, rng, n_trials, n_cal, n_test,
                                               "heteroscedastic_outliers", 0.1)
        coverages = []
        for t, (ds, want_lo, want_hi) in enumerate(want):
            assert rows_x[t].tobytes() == ds.X[:, 0].tobytes()
            assert rows_y[t].tobytes() == ds.y.tobytes()
            assert (lo[t].tobytes(), hi[t].tobytes()) == (want_lo.tobytes(), want_hi.tobytes())
            y_test = ds.y[n_cal:]
            coverages.append(np.mean((y_test >= want_lo) & (y_test <= want_hi)))
        assert t == n_trials - 1
        assert audit["pooled_coverage"] == float(np.mean(coverages))
        # the audit's per-trial coverage: a block scores each row like its 1-D call
        y_test = rows_y[:, n_cal:]
        block = harness._evaluate(lo, hi, y_test, 2.5)
        for t in range(n_trials):
            one = harness._evaluate(lo[t], hi[t], y_test[t], 2.5)
            assert all(type(v) is float for v in one)
            assert [np.float64(v).tobytes() for v in one] == [v[t].tobytes() for v in block]


def test_a_point_on_an_endpoint_is_covered_and_misses_no_tail():
    # the interval is closed: y == lo and y == hi are covered, not misses
    lo, hi = np.array([0.0, 0.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    y = np.array([0.0, 1.0, 0.5, -1.0, 2.0])
    assert harness._evaluate(lo, hi, y, 1.0) == (0.6, 1.0, 0.2, 0.2)
    assert harness._evaluate(lo[:2], hi[:2], y[:2], 1.0) == (1.0, 1.0, 0.0, 0.0)
    # a qrf band on integer responses reads training responses, and its cqr
    # correction is an order statistic of integer scores, so test points tie
    rng = np.random.default_rng(21)
    X = rng.normal(size=(600, 1))
    y = np.rint(3 * X[:, 0] + rng.normal(size=600))
    pair = QuantileForestRegressor(ForestConfig(n_trees=20, min_leaf_size=10, seed=2))
    pair.fit(X[:200], y[:200], 0.05, 0.95)
    band = cqr_calibrate(pair, X[200:400], y[200:400], 0.1)
    lo, hi = band.predict_interval(X[400:])
    y_test = y[400:]
    assert np.any(y_test == lo) and np.any(y_test == hi)
    n = y_test.size
    want = (
        np.count_nonzero((lo <= y_test) & (y_test <= hi)) / n,
        float(np.mean(hi - lo)),
        np.count_nonzero(y_test < lo) / n,
        np.count_nonzero(y_test > hi) / n,
    )
    assert harness._evaluate(lo, hi, y_test, 1.0) == want
    # every point is covered or misses exactly one tail, row by row of a block
    block = np.stack([y_test, lo, hi, np.roll(y_test, 7)])
    coverage, _, lower, upper = harness._evaluate(lo, hi, block, 1.0)
    assert np.array_equal(np.rint((coverage + lower + upper) * n), np.full(4, n))


def _law_p_value(covered: np.ndarray, law, n_bins: int) -> float:
    """Pearson chi-square p-value of integer counts against a discrete law.

    The bins are as near equal mass as the law's atoms allow: bin j ends at
    the law's (j / n_bins) quantile, and the last bin takes the rest.
    """
    ends = np.unique(law.ppf(np.arange(1, n_bins) / n_bins))
    mass = np.diff(law.cdf(ends), prepend=0.0, append=1.0)
    observed = np.bincount(np.searchsorted(ends, covered), minlength=mass.size)
    expected = covered.size * mass
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, mass.size - 1))


@pytest.mark.parametrize("engine", ["linear-q", "oracle"])
def test_each_audit_trial_covers_as_the_beta_binomial_law_says(monkeypatch, engine):
    # With the fit held fixed and continuous scores, a trial's coverage given
    # its calibration rows is Beta(k, n + 1 - k), k = ceil((1 - alpha)(n + 1)),
    # so its covered count among n_test rows is BetaBinomial(n_test, k, n + 1 - k).
    # Seeds, trial count, bins and threshold were fixed before the first run.
    n_trials, n_cal, n_test, alpha = 2000, 99, 200, 0.1
    k = 90  # ceil(0.9 * 100)
    evaluate, counts = harness._evaluate, []

    def recorded_evaluate(lo, hi, y_test, length_scale):
        scores = evaluate(lo, hi, y_test, length_scale)
        counts.append(np.rint(scores[0] * n_test).astype(int))
        return scores

    monkeypatch.setattr(harness, "_evaluate", recorded_evaluate)
    coverage_audit(n_trials, alpha, n_cal, n_test, engine=engine, seed=0)
    covered = np.concatenate(counts)
    assert covered.size == n_trials
    law = stats.betabinom(n_test, k, n_cal + 1 - k)
    assert _law_p_value(covered, law, n_bins=19) > 1e-3


# the oracle runs on the homoscedastic kind: its heteroscedastic intervals
# are narrow near x = 0, and 282 of their 400000 rows collapse at seed 0
@pytest.mark.parametrize("engine, kind", [
    ("linear-q", "heteroscedastic"), ("oracle", "homoscedastic"),
])
def test_each_audit_trial_misses_each_tail_as_the_beta_binomial_law_says(
    monkeypatch, engine, kind
):
    # cqr-asym corrects each tail on its own at alpha / 2. With the fit held
    # fixed and continuous scores, a trial's lower-tail miss rate given its
    # calibration rows is Beta(n + 1 - k, k), k = ceil((1 - alpha / 2)(n + 1)),
    # so its lower-tail misses among n_test rows are BetaBinomial(n_test,
    # n + 1 - k, k); so are the upper tail's. That holds while no interval
    # collapses to its midpoint. Seeds, trial count, bins and threshold were
    # fixed before the first run.
    n_trials, n_cal, n_test, alpha = 2000, 99, 200, 0.1
    k = 95  # ceil(0.95 * 100)
    band, evaluate, misses, open_bands = harness._band, harness._evaluate, [], []

    def recorded_evaluate(lo, hi, y_test, length_scale):
        scores = evaluate(lo, hi, y_test, length_scale)
        misses.append(np.rint(np.stack(scores[2:]) * n_test).astype(int))
        open_bands.append(bool(np.all(lo < hi)))
        return scores

    monkeypatch.setattr(harness, "_band", lambda method, *args: band("cqr-asym", *args))
    monkeypatch.setattr(harness, "_evaluate", recorded_evaluate)
    coverage_audit(n_trials, alpha, n_cal, n_test, engine=engine, kind=kind, seed=0)
    assert all(open_bands)
    lower, upper = np.concatenate(misses, axis=1)
    assert lower.size == n_trials
    law = stats.betabinom(n_test, n_cal + 1 - k, k)
    assert _law_p_value(lower, law, n_bins=19) > 1e-3
    assert _law_p_value(upper, law, n_bins=19) > 1e-3


def test_coverage_audit_arguments_and_light_run():
    # one trial has no spread: its se read 0, so the 4-se check allowed no noise
    for n_trials in (0, 1):
        with pytest.raises(ValueError, match=f"^n_trials must be >= 2, got {n_trials}$"):
            coverage_audit(n_trials=n_trials, engine="oracle")
    with pytest.raises(ValueError, match="n_calibration must be >= 1, got 0"):
        coverage_audit(n_trials=2, n_calibration=0)
    with pytest.raises(ValueError, match="n_test must be >= 1, got 0"):
        coverage_audit(n_trials=2, n_test=0)
    with pytest.raises(ValueError, match="cannot produce quantile pairs"):
        coverage_audit(n_trials=2, engine="ridge")
    audit = coverage_audit(n_trials=5, engine="oracle", seed=2)
    assert audit["n_trials"] == 5
    assert audit["lower_bound"] == pytest.approx(0.9)
    assert audit["upper_bound"] == pytest.approx(0.91)
    assert 0.8 <= audit["pooled_coverage"] <= 1.0
    assert isinstance(audit["within_bounds_4se"], bool)


def test_the_audit_returns_its_settings_as_python_numbers():
    counts = dict(n_calibration=19, n_test=20, n_train=60, seed=1)
    audit = coverage_audit(
        np.int64(5), np.float32(0.1), **{k: np.int64(v) for k, v in counts.items()},
        engine="oracle",
    )
    json.dumps(audit)
    alpha = float(np.float32(0.1))
    assert [type(audit[k]) for k in ("n_trials", "n_calibration", "n_test_per_trial")] == [int] * 3
    assert type(audit["alpha"]) is float and audit["alpha"] == alpha
    # the bounds are taken in double precision, and the audit is the one
    # Python numbers give
    assert (audit["lower_bound"], audit["upper_bound"]) == (1.0 - alpha, 1.0 - alpha + 1.0 / 20)
    assert audit == coverage_audit(5, alpha, **counts, engine="oracle")

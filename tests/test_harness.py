"""Tests for the repeated-split experiment harness."""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from confband import harness
from confband.conformal import (
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
    METHODS,
    QUANTILE_TUNING_GRID,
    CrossingFixPair,
    ExperimentConfig,
    ExperimentReport,
    MethodSummary,
    RepetitionResult,
    band_comparison_demo,
    coverage_audit,
    emit_report,
    fix_crossing,
    repetition_split,
    run_experiment,
    summarize,
    tune_quantile_levels,
)
from confband.regressors import (
    ForestConfig,
    ForestMeanRegressor,
    LinearQuantilePair,
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
    X1, X2, Xt = (
        standardize_apply(params, dataset.X[idx]).tobytes() for idx in (i1, i2, test_idx)
    )

    reads = _count_forest_reads(monkeypatch)
    assert not run_experiment(cfg, dataset).failures
    per_forest = {}
    for readout, forest, rows in reads:
        per_forest.setdefault((readout, forest), []).append(rows)
    pair = [sorted(rows) for (readout, _), rows in per_forest.items() if readout == "predict_pair"]
    means = [sorted(rows) for (readout, _), rows in per_forest.items() if readout == "predict"]
    # the pair once on the calibration and test rows; the mean forest also
    # once on the proper-training rows, for the dispersion fit's residuals;
    # the dispersion forest (a mean forest on residuals) once on each
    assert pair == [sorted([X2, Xt])]
    assert sorted(means) == sorted([sorted([X1, X2, Xt]), sorted([X2, Xt])])


def test_the_demo_reads_each_fitted_model_once_on_its_grid(monkeypatch):
    reads = _count_forest_reads(monkeypatch)
    grid_size = 37  # no other row set of the demo has this many rows
    band_comparison_demo(n=300, seed=1, n_trees=10, grid_size=grid_size)
    on_grid = [(readout, forest) for readout, forest, rows in reads if len(rows) == grid_size * 8]
    # split and local share the mean forest; local adds the dispersion
    # forest and cqr the pair: three models, one read each
    assert len(on_grid) == len(set(on_grid)) == 3
    assert sorted(readout for readout, _ in on_grid) == ["predict", "predict", "predict_pair"]


def _public_band(method, bundle, X2, y2, cfg):
    """The band of ``method``'s public calibrator on the bundle's fitted models."""
    half = cfg.alpha / 2.0
    if method == "split":
        return split_conformal_calibrate(bundle.mean_model(), X2, y2, cfg.alpha)
    if method == "local":
        return local_conformal_calibrate(
            bundle.mean_model(), bundle.dispersion_model(), X2, y2, cfg.alpha, cfg.gamma
        )
    pair = CrossingFixPair(bundle.quantile_model())
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
    # the run loop's band on the test rows, from the bundle's shared reads
    test = plugin_values(method, bundle.read, "Xt", cfg.gamma)
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


def test_json_round_trip_preserves_infinite_lengths():
    # alpha = 0.01 with a 24-row calibration set overflows the inflated
    # level, so the intervals and their average length are infinite
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=3))
    cfg = ExperimentConfig(
        methods=("split",), engine="oracle", alpha=0.01, n_repetitions=1, seed=0
    )
    report = run_experiment(cfg, dataset, oracle)
    assert math.isinf(report.summaries[0].avg_length)
    assert report.repetitions[0].coverage == 1.0
    round_tripped = ExperimentReport.from_json(report.to_json())
    assert round_tripped == report
    assert "inf" in report.to_csv()


def test_emit_report_dispatches_on_extension(tmp_path):
    summary = MethodSummary("split", 1.0, 0.0, 0.9, 0.0, 0.05, 0.05, 1)
    report = ExperimentReport(config={"seed": 0}, summaries=(summary,), repetitions=())
    json_path = tmp_path / "out.json"
    emit_report(report, str(json_path))
    assert json.loads(json_path.read_text())["summaries"][0]["method"] == "split"
    csv_path = tmp_path / "out.csv"
    emit_report(report, str(csv_path))
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER
    with pytest.raises(ValueError, match="must end with .csv or .json"):
        emit_report(report, str(tmp_path / "out.txt"))


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
    with pytest.raises(ValueError, match="tuning grid must be non-empty"):
        tune_quantile_levels(
            _ConstantPair, X1, y1, 0.1, 2, np.random.default_rng(0), grid=()
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
    """Record the bytes of every band the harness scores, with its response rows."""
    bands = []
    score = harness._evaluate

    def evaluate(lo, hi, y, length_scale):
        bands.append((lo.tobytes(), hi.tobytes(), y.tobytes()))
        return score(lo, hi, y, length_scale)

    monkeypatch.setattr(harness, "_evaluate", evaluate)
    return bands


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
    bands = _recorded_bands(monkeypatch)
    args = (make_pair, X1, y1, 0.1, 3)
    got = tune_quantile_levels(*args, np.random.default_rng(5), QUANTILE_TUNING_GRID)
    ours = list(bands)
    bands.clear()
    want = _tune_by_the_public_calibrator(*args, np.random.default_rng(5), QUANTILE_TUNING_GRID)
    assert got == want
    # every fold of every grid point gets the same band, bit for bit
    assert len(ours) == 3 * len(QUANTILE_TUNING_GRID)
    assert ours == bands


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
    # ridge has no quantile pair, so the pair methods are rejected up front
    for method in ("cqr", "cqr-asym"):
        with pytest.raises(ValueError, match="cannot produce quantile pairs"):
            ExperimentConfig(methods=("split", method), engine="ridge")


@pytest.mark.parametrize("field", ["n_repetitions", "cv_folds", "knn_k", "linear_epochs"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
def test_non_integer_config_counts_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentConfig(**{field: value})
    assert getattr(ExperimentConfig(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("field", ["n_trials", "n_calibration", "n_test", "n_train"])
def test_non_integer_audit_counts_are_rejected(field):
    counts = dict(n_trials=1, n_calibration=9, n_test=10, n_train=50)
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


@pytest.mark.parametrize("engine", [*harness.PAIR_ENGINES, "crossed"])
def test_an_audit_trial_band_is_the_public_calibrator_band(monkeypatch, engine):
    if engine == "crossed":
        # the crossed pair gives every read crossings to repair
        crossed = replace(harness._ENGINES["linear-q"], pair=lambda b, seed: _CrossedPair())
        monkeypatch.setitem(harness._ENGINES, "linear-q", crossed)
        engine = "linear-q"
    pairs, datasets = [], []
    quantile_model, draw = harness._EngineBundle.quantile_model, harness.generate

    def fitted_pair(bundle):
        pairs.append(quantile_model(bundle))
        return pairs[-1]

    def generate(spec):
        drawn = draw(spec)
        datasets.append(drawn[0])
        return drawn

    monkeypatch.setattr(harness._EngineBundle, "quantile_model", fitted_pair)
    monkeypatch.setattr(harness, "generate", generate)
    bands = _recorded_bands(monkeypatch)
    n_cal = 19
    coverage_audit(
        n_trials=2, n_calibration=n_cal, n_test=30, n_train=40, engine=engine,
        kind="heteroscedastic_outliers", seed=6,
    )
    assert len(pairs) == 1 and len(datasets) == 3 and len(bands) == 2
    fixed = CrossingFixPair(pairs[0])
    for ds, got in zip(datasets[1:], bands):
        band = cqr_calibrate(fixed, ds.X[:n_cal], ds.y[:n_cal], 0.1)
        lo, hi = band.predict_interval(ds.X[n_cal:])
        assert got == (lo.tobytes(), hi.tobytes(), ds.y[n_cal:].tobytes())


def test_coverage_audit_arguments_and_light_run():
    with pytest.raises(ValueError, match="n_trials"):
        coverage_audit(n_trials=0)
    with pytest.raises(ValueError, match="n_calibration must be >= 1, got 0"):
        coverage_audit(n_trials=1, n_calibration=0)
    with pytest.raises(ValueError, match="n_test must be >= 1, got 0"):
        coverage_audit(n_trials=1, n_test=0)
    with pytest.raises(ValueError, match="cannot produce quantile pairs"):
        coverage_audit(n_trials=1, engine="ridge")
    audit = coverage_audit(n_trials=5, engine="oracle", seed=2)
    assert audit["n_trials"] == 5
    assert audit["lower_bound"] == pytest.approx(0.9)
    assert audit["upper_bound"] == pytest.approx(0.91)
    assert 0.8 <= audit["pooled_coverage"] <= 1.0
    assert isinstance(audit["within_bounds_4se"], bool)

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
from confband.conformal import cqr_calibrate
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
from confband.regressors import ForestConfig, ForestMeanRegressor, QuantileForestRegressor


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
    with pytest.raises(ValueError, match="cv_folds"):
        ExperimentConfig(cv_folds=1)
    with pytest.raises(ValueError, match="knn_k must be >= 1"):
        ExperimentConfig(knn_k=0)
    with pytest.raises(ValueError, match="linear_epochs must be >= 1"):
        ExperimentConfig(linear_epochs=0)
    # ridge has no quantile pair, so the pair methods are rejected up front
    for method in ("cqr", "cqr-asym"):
        with pytest.raises(ValueError, match="cannot produce quantile pairs"):
            ExperimentConfig(methods=("split", method), engine="ridge")


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

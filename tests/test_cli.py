"""Tests for the command line interface."""

import json

import numpy as np
import pytest

from confband import cli, harness
from confband.cli import _load_config_file, _subcommands, build_parser, main
from confband.datagen import SyntheticSpec
from confband.harness import CSV_HEADER, ExperimentConfig


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_synthetic_prints_deterministic_json(capsys):
    argv = [
        "run", "--synthetic", "heteroscedastic", "--engine", "oracle",
        "--method", "cqr", "--n", "200", "--reps", "2", "--seed", "3",
    ]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["summaries"][0]["method"] == "cqr"
    assert report["config"]["seed"] == 3
    code, out_again, _ = _run(capsys, argv)
    assert code == 0
    assert out_again == out


def test_run_writes_json_and_csv_files(capsys, tmp_path):
    base = [
        "run", "--synthetic", "heteroscedastic", "--engine", "oracle",
        "--method", "split", "--n", "120", "--reps", "2",
    ]
    json_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, base + ["--out", str(json_path)])
    assert code == 0
    assert f"wrote {json_path}" in out
    assert json.loads(json_path.read_text())["summaries"][0]["method"] == "split"
    csv_path = tmp_path / "report.csv"
    code, out, _ = _run(capsys, base + ["--out", str(csv_path)])
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER


def test_run_on_a_csv_dataset(capsys, tmp_path):
    rows = ["x,y"]
    for i in range(60):
        rows.append(f"{i / 10.0},{(i % 7) - 3.0}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, [
        "run", "--data", str(data_path), "--target", "y",
        "--method", "split", "--engine", "ridge", "--reps", "2",
    ])
    assert code == 0, err
    assert json.loads(out)["config"]["n_rows"] == 60


def test_run_on_a_csv_with_a_byte_order_mark(capsys, tmp_path):
    rows = ["y,x"] + [f"{(i % 7) - 3.0},{i / 10.0}" for i in range(60)]
    reports = []
    for encoding in ("utf-8", "utf-8-sig"):
        data_path = tmp_path / f"{encoding}.csv"
        data_path.write_text("\n".join(rows) + "\n", encoding=encoding)
        code, out, err = _run(capsys, [
            "run", "--data", str(data_path), "--target", "y",
            "--method", "split", "--engine", "ridge", "--reps", "2",
        ])
        assert code == 0, err
        reports.append(out)
    # the mark is not part of the first column's name, so the reports agree
    assert reports[0] == reports[1]


def test_run_reports_responses_whose_sum_overflows_as_one_error_line(capsys, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 2))
    y = (np.abs(rng.normal(size=60)) + 0.1) * 1e307
    rows = ["a,b,y"] + [f"{a!r},{b!r},{v!r}" for (a, b), v in zip(X.tolist(), y.tolist())]
    data_path = tmp_path / "big.csv"
    data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, [
        "run", "--data", str(data_path), "--target", "y",
        "--method", "split", "--engine", "ridge", "--reps", "2",
    ])
    assert (code, out) == (2, "")
    assert err == "error: every repetition failed; first error: the sum of |y| overflows a float\n"


def test_run_rejects_a_csv_with_duplicate_column_names(capsys, tmp_path):
    rows = ["x,y,y"] + [f"{i / 10.0},{i % 7},{i % 3}" for i in range(60)]
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = _run(capsys, [
        "run", "--data", str(data_path), "--target", "y",
        "--method", "split", "--engine", "ridge", "--reps", "2",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error: duplicate column names") and "['y']" in err


def test_run_requires_exactly_one_data_source(capsys, tmp_path):
    code, _, err = _run(capsys, ["run", "--method", "split"])
    assert code == 2
    assert "provide exactly one of --data or --synthetic" in err
    data_path = tmp_path / "d.csv"
    data_path.write_text("x,y\n1,2\n", encoding="utf-8")
    code, _, err = _run(capsys, [
        "run", "--data", str(data_path), "--synthetic", "heteroscedastic",
    ])
    assert code == 2
    code, _, err = _run(capsys, ["run", "--data", str(data_path)])
    assert code == 2
    assert "--data requires --target" in err


def test_run_rejects_a_pair_method_on_an_engine_without_pairs(capsys):
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--n", "200", "--method", "cqr",
        "--engine", "ridge", "--reps", "2",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error: engine 'ridge' cannot produce quantile pairs")


def test_run_reports_bad_engine_settings_and_all_failed_runs_as_errors(capsys, monkeypatch):
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--n", "200", "--method", "local",
        "--engine", "ridge", "--knn-k", "0", "--reps", "2",
    ])
    assert code == 2 and out == ""
    assert err == "error: knn_k must be >= 1, got 0\n"

    def failing_calibrate(*args):
        raise ValueError("calibration failed")

    monkeypatch.setattr(harness, "conformal_correction", failing_calibrate)
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--n", "60", "--method", "cqr",
        "--engine", "oracle", "--reps", "2",
    ])
    assert code == 2 and out == ""
    assert err.startswith("error: every repetition failed; first error: calibration failed")


@pytest.mark.parametrize("name, argv", [
    ("coverage_audit", ["coverage-audit", "--trials", "2"]),
    ("band_comparison_demo", ["demo-fig1", "--n", "200", "--n-trees", "2"]),
])
def test_every_subcommand_reports_a_failure_as_one_error_line(capsys, monkeypatch, tmp_path, name, argv):
    def failing(*args, **kwargs):
        raise RuntimeError(f"{name} failed")

    monkeypatch.setattr(cli, name, failing)
    monkeypatch.chdir(tmp_path)  # where demo-fig1 writes band_demo.csv by default
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {name} failed\n")
    assert list(tmp_path.iterdir()) == []


def test_an_option_left_unset_takes_the_library_default(capsys, monkeypatch, tmp_path):
    calls = []

    def record(result):
        def call(*args, **kwargs):
            calls.append((args, kwargs))
            if result is None:
                raise RuntimeError("recorded")
            return result
        return call

    monkeypatch.setattr(cli, "generate", record(("dataset", "oracle")))
    for name in ("run_experiment", "band_comparison_demo", "coverage_audit"):
        monkeypatch.setattr(cli, name, record(None))
    monkeypatch.chdir(tmp_path)
    for argv in (["run", "--synthetic", "heteroscedastic"], ["demo-fig1"], ["coverage-audit"]):
        assert _run(capsys, argv) == (2, "", "error: recorded\n")
    # only run --n and coverage-audit --trials have a command line default
    assert calls == [
        ((SyntheticSpec(kind="heteroscedastic", n=1000),), {}),
        ((ExperimentConfig(), "dataset", "oracle"), {}),
        ((), {}),
        ((), {"n_trials": 2000}),
    ]


def test_a_non_finite_gamma_is_named_in_the_error(capsys):
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--n", "200", "--method", "local",
        "--engine", "oracle", "--reps", "2", "--gamma", "nan",
    ])
    assert code == 2 and out == ""
    assert err == "error: gamma must be >= 0 and finite, got nan\n"


def test_a_bad_out_path_is_rejected_before_any_work(capsys, monkeypatch, tmp_path):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in (
        "generate", "load_csv", "run_experiment", "band_comparison_demo", "coverage_audit",
    ):
        monkeypatch.setattr(cli, name, must_not_run)
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--out", "r.txt",
    ])
    assert (code, out) == (2, "")
    assert err == "error: output path must end with .csv or .json, got 'r.txt'\n"
    code, out, err = _run(capsys, ["demo-fig1", "--out", "d.json"])
    assert (code, out) == (2, "")
    assert err == "error: demo output must be a .csv path, got 'd.json'\n"
    code, out, err = _run(capsys, ["coverage-audit", "--out", "a.csv"])
    assert (code, out) == (2, "")
    assert err == "error: audit output must be a .json path, got 'a.csv'\n"
    # a path in a directory that does not exist fails before the work, not after it
    missing = tmp_path / "missing"
    for argv in (
        ["run", "--synthetic", "heteroscedastic", "--out", str(missing / "r.json")],
        ["demo-fig1", "--out", str(missing / "d.csv")],
        ["coverage-audit", "--out", str(missing / "a.json")],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: output directory does not exist: {str(missing)!r}\n"
    assert not missing.exists()


def test_config_file_supplies_values_and_flags_win(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# benchmark settings\n"
        "synthetic = heteroscedastic\n"
        "engine = oracle\n"
        "method = split\n"
        "n = 120\n"
        "reps = 2\n"
        "tune-quantiles = false\n",
        encoding="utf-8",
    )
    code, out, _ = _run(capsys, ["run", "--config", str(config)])
    assert code == 0
    assert json.loads(out)["summaries"][0]["method"] == "split"
    code, out, _ = _run(capsys, ["run", "--config", str(config), "--method", "cqr"])
    assert code == 0
    assert json.loads(out)["summaries"][0]["method"] == "cqr"


def test_config_file_parse_errors(capsys, tmp_path):
    bad_key = tmp_path / "bad_key.conf"
    bad_key.write_text("bogus = 1\n", encoding="utf-8")
    code, _, err = _run(capsys, ["run", "--config", str(bad_key)])
    assert code == 2
    assert "unknown config key 'bogus'" in err
    bad_value = tmp_path / "bad_value.conf"
    bad_value.write_text("reps = soon\n", encoding="utf-8")
    code, _, err = _run(capsys, ["run", "--config", str(bad_value)])
    assert code == 2
    assert "bad value for reps" in err
    no_sep = tmp_path / "no_sep.conf"
    no_sep.write_text("just a line\n", encoding="utf-8")
    code, _, err = _run(capsys, ["run", "--config", str(no_sep)])
    assert code == 2
    assert "expected 'key = value'" in err


@pytest.mark.parametrize("command, line", [
    (["coverage-audit", "--trials", "2"], "engine = ridge"),
    (["coverage-audit", "--trials", "2"], "engine = mlpx"),
    (["run", "--engine", "oracle", "--reps", "1"], "synthetic = bogus"),
    (["demo-fig1", "--n", "200", "--n-trees", "2"], "kind = bogus"),
])
def test_a_config_value_outside_the_option_choices_names_its_line(capsys, tmp_path, command, line):
    config = tmp_path / "choices.conf"
    config.write_text(line + "\n", encoding="utf-8")
    code, out, err = _run(capsys, [*command, "--config", str(config)])
    key, _, value = line.partition(" = ")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config}:1: bad value for {key}: invalid choice {value!r}")
    choices = _subcommands(build_parser())[command[0]]._option_string_actions[f"--{key}"].choices
    assert err.endswith(f"(choose from {', '.join(choices)})\n")


@pytest.mark.parametrize("text, value", [("true", True), ("TRUE", True), (" False ", False)])
def test_a_config_boolean_is_true_or_false_in_any_case(tmp_path, text, value):
    config = tmp_path / "flags.conf"
    config.write_text(f"tune-quantiles = {text}\n", encoding="utf-8")
    values = _load_config_file(str(config), _subcommands(build_parser())["run"])
    assert values == {"tune_quantiles": value}


@pytest.mark.parametrize("text", ["1", "yes", "on", "0", "no", "off", "t", ""])
def test_any_other_config_boolean_names_its_line(capsys, tmp_path, text):
    config = tmp_path / "flags.conf"
    config.write_text(f"# flags\noriginal-units = {text}\n", encoding="utf-8")
    code, out, err = _run(capsys, ["run", "--config", str(config)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: {config}:2: bad value for original_units: expected true or false, got {text!r}\n"
    )


def test_config_file_accepts_comments_and_either_separator_style(tmp_path):
    config = tmp_path / "style.conf"
    config.write_text(
        "\n# comment only\nn-trees = 10  # trailing comment\ncv_folds = 3\n",
        encoding="utf-8",
    )
    values = _load_config_file(str(config), _subcommands(build_parser())["run"])
    assert values == {"n_trees": 10, "cv_folds": 3}


@pytest.mark.parametrize("command, key", [
    (["run", "--synthetic", "heteroscedastic", "--engine", "oracle", "--reps", "1"], "trials"),
    (["coverage-audit", "--trials", "2", "--engine", "oracle"], "max_epochs"),
])
def test_a_config_key_of_another_subcommand_is_rejected(capsys, tmp_path, command, key):
    config = tmp_path / "other.conf"
    config.write_text(f"# set for another subcommand\n{key} = 1\n", encoding="utf-8")
    code, out, err = _run(capsys, [*command, "--config", str(config)])
    assert (code, out) == (2, "")
    assert err == f"error: {config}:2: unknown config key {key!r}\n"


def test_demo_writes_plottable_band_csv(capsys, tmp_path):
    out_path = tmp_path / "bands.csv"
    code, out, _ = _run(capsys, [
        "demo-fig1", "--n", "200", "--n-trees", "10", "--grid-size", "21",
        "--kind", "heteroscedastic", "--out", str(out_path),
    ])
    assert code == 0
    assert "split: avg_length=" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,split_lo,split_hi,local_lo,local_hi,cqr_lo,cqr_hi"
    assert len(lines) == 22
    code, _, err = _run(capsys, [
        "demo-fig1", "--n", "200", "--n-trees", "10",
        "--out", str(tmp_path / "bands.json"),
    ])
    assert code == 2
    assert "demo output must be a .csv path" in err


@pytest.mark.parametrize("option, value, message", [
    ("--n", "30", "n must be >= 40, got 30"),
    ("--grid-size", "0", "grid_size must be >= 1, got 0"),
    ("--grid-size", "-3", "grid_size must be >= 1, got -3"),
])
def test_demo_rejects_too_few_rows_and_an_empty_grid(capsys, tmp_path, option, value, message):
    out_path = tmp_path / "bands.csv"
    code, out, err = _run(capsys, [
        "demo-fig1", "--n", "200", "--n-trees", "10", option, value, "--out", str(out_path),
    ])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_coverage_audit_prints_and_writes_json(capsys, tmp_path):
    code, out, _ = _run(capsys, [
        "coverage-audit", "--trials", "5", "--engine", "oracle", "--seed", "1",
    ])
    assert code == 0
    audit = json.loads(out)
    assert audit["n_trials"] == 5 and audit["engine"] == "oracle"
    out_path = tmp_path / "audit.json"
    code, out, _ = _run(capsys, [
        "coverage-audit", "--trials", "5", "--engine", "oracle",
        "--out", str(out_path),
    ])
    assert code == 0
    assert f"wrote {out_path}" in out
    assert json.loads(out_path.read_text())["n_trials"] == 5


def test_coverage_audit_of_one_trial_is_one_error_line(capsys):
    code, out, err = _run(capsys, ["coverage-audit", "--trials", "1", "--engine", "oracle"])
    assert (code, out, err) == (2, "", "error: n_trials must be >= 2, got 1\n")


def test_a_run_where_some_repetitions_fail_warns_and_reports_the_rest(capsys, monkeypatch):
    run_repetition = harness._run_repetition

    def first_fails(cfg, dataset, oracle, rep, seq):
        if rep == 0:
            raise ValueError("repetition 0 fails")
        return run_repetition(cfg, dataset, oracle, rep, seq)

    monkeypatch.setattr(harness, "_run_repetition", first_fails)
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--engine", "oracle",
        "--method", "split", "--n", "120", "--reps", "2",
    ])
    assert (code, err) == (0, "warning: 1 repetition(s) failed\n")
    report = json.loads(out)
    assert report["failures"] == [{"repetition": 0, "error": "repetition 0 fails"}]
    assert [r["repetition"] for r in report["repetitions"]] == [1]


def test_parser_rejects_unknown_choices(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--engine", "bogus"])
    capsys.readouterr()

"""Tests for the command line interface."""

import json

import pytest

from confband import cli, harness
from confband.cli import _load_config_file, build_parser, main
from confband.harness import CSV_HEADER


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


def test_a_non_finite_gamma_is_named_in_the_error(capsys):
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--n", "200", "--method", "local",
        "--engine", "oracle", "--reps", "2", "--gamma", "nan",
    ])
    assert code == 2 and out == ""
    assert err == "error: gamma must be >= 0 and finite, got nan\n"


def test_a_bad_out_path_is_rejected_before_any_work(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("generate", "load_csv", "run_experiment", "band_comparison_demo"):
        monkeypatch.setattr(cli, name, must_not_run)
    code, out, err = _run(capsys, [
        "run", "--synthetic", "heteroscedastic", "--out", "r.txt",
    ])
    assert (code, out) == (2, "")
    assert err == "error: output path must end with .csv or .json, got 'r.txt'\n"
    code, out, err = _run(capsys, ["demo-fig1", "--out", "d.json"])
    assert (code, out) == (2, "")
    assert err == "error: demo output must be a .csv path, got 'd.json'\n"


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


def test_config_file_accepts_comments_and_either_separator_style(tmp_path):
    config = tmp_path / "style.conf"
    config.write_text(
        "\n# comment only\nn-trees = 10  # trailing comment\ncv_folds = 3\n",
        encoding="utf-8",
    )
    values = _load_config_file(str(config))
    assert values == {"n_trees": 10, "cv_folds": 3}


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


def test_parser_rejects_unknown_choices(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--engine", "bogus"])
    capsys.readouterr()

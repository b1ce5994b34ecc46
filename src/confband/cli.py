"""Command line interface.

Three subcommands:

- ``run``: the repeated-split benchmark on a CSV file or synthetic data
- ``demo-fig1``: one-split comparison of the three forest-backed bands,
  emitting per-x interval bounds as CSV for external plotting
- ``coverage-audit``: Monte Carlo check of the finite-sample coverage
  guarantee

Every option can also be supplied through ``--config FILE``, a plain text
file of ``key = value`` lines (``#`` starts a comment; keys match the long
option names with either dashes or underscores; booleans are true/false).
Explicit command line flags win over file values.
"""

import argparse
import json
import sys

from .datagen import SYNTHETIC_KINDS, SyntheticSpec, generate, load_csv
from .harness import (
    ENGINES,
    METHODS,
    PAIR_ENGINES,
    ExperimentConfig,
    ForestConfig,
    MlpConfig,
    band_comparison_demo,
    coverage_audit,
    emit_report,
    run_experiment,
)

_UNSET = object()  # argparse leaves non-string defaults unconverted


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_CONFIG_TYPES = {
    "data": str,
    "target": str,
    "synthetic": str,
    "n": int,
    "method": str,
    "engine": str,
    "alpha": float,
    "reps": int,
    "gamma": float,
    "tune_quantiles": _to_bool,
    "seed": int,
    "out": str,
    "n_trees": int,
    "max_epochs": int,
    "knn_k": int,
    "cv_folds": int,
    "original_units": _to_bool,
    "trials": int,
    "n_cal": int,
    "n_test": int,
    "grid_size": int,
    "kind": str,
}


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


class _Options:
    """Resolved option values: command line first, then config file, then default."""

    def __init__(self, args: argparse.Namespace, file_values: dict):
        self._args = args
        self._file = file_values

    def get(self, key: str, default=None):
        value = getattr(self._args, key, _UNSET)
        if value is not _UNSET:
            return value
        if key in self._file:
            return self._file[key]
        return default


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key = value options file")
    parser.add_argument("--seed", type=int, default=_UNSET)
    parser.add_argument("--out", default=_UNSET, help="output path (.csv or .json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confband",
        description="Distribution-free prediction intervals: benchmark and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="repeated-split benchmark on a dataset")
    run.add_argument("--data", default=_UNSET, help="CSV file with a header row")
    run.add_argument("--target", default=_UNSET, help="response column name in --data")
    run.add_argument("--synthetic", default=_UNSET, choices=SYNTHETIC_KINDS)
    run.add_argument("--n", type=int, default=_UNSET, help="synthetic sample size")
    run.add_argument("--method", default=_UNSET, choices=METHODS)
    run.add_argument("--engine", default=_UNSET, choices=ENGINES)
    run.add_argument("--alpha", type=float, default=_UNSET)
    run.add_argument("--reps", type=int, default=_UNSET)
    run.add_argument("--gamma", type=float, default=_UNSET)
    run.add_argument("--tune-quantiles", action="store_true", default=_UNSET)
    run.add_argument("--n-trees", type=int, default=_UNSET)
    run.add_argument("--max-epochs", type=int, default=_UNSET)
    run.add_argument("--knn-k", type=int, default=_UNSET)
    run.add_argument("--cv-folds", type=int, default=_UNSET)
    run.add_argument(
        "--original-units",
        action="store_true",
        default=_UNSET,
        help="report lengths in original response units",
    )
    _add_common(run)

    demo = sub.add_parser(
        "demo-fig1", help="three-method synthetic comparison with plottable bands"
    )
    demo.add_argument("--n", type=int, default=_UNSET)
    demo.add_argument("--alpha", type=float, default=_UNSET)
    demo.add_argument("--gamma", type=float, default=_UNSET)
    demo.add_argument("--n-trees", type=int, default=_UNSET)
    demo.add_argument("--grid-size", type=int, default=_UNSET)
    demo.add_argument("--kind", default=_UNSET, choices=SYNTHETIC_KINDS)
    _add_common(demo)

    audit = sub.add_parser(
        "coverage-audit", help="Monte Carlo check of the coverage guarantee"
    )
    audit.add_argument("--trials", type=int, default=_UNSET)
    audit.add_argument("--alpha", type=float, default=_UNSET)
    audit.add_argument("--n-cal", type=int, default=_UNSET)
    audit.add_argument("--n-test", type=int, default=_UNSET)
    audit.add_argument("--engine", default=_UNSET, choices=PAIR_ENGINES)
    audit.add_argument("--kind", default=_UNSET, choices=SYNTHETIC_KINDS)
    _add_common(audit)
    return parser


def _cmd_run(opt: _Options) -> int:
    data_path = opt.get("data")
    synthetic = opt.get("synthetic")
    if (data_path is None) == (synthetic is None):
        raise ValueError("provide exactly one of --data or --synthetic")
    seed = opt.get("seed", 0)
    oracle = None
    if data_path is not None:
        target = opt.get("target")
        if target is None:
            raise ValueError("--data requires --target (response column name)")
        dataset = load_csv(data_path, target)
    else:
        dataset, oracle = generate(
            SyntheticSpec(kind=synthetic, n=opt.get("n", 1000), seed=seed)
        )
    cfg = ExperimentConfig(
        methods=(opt.get("method", "cqr"),),
        engine=opt.get("engine", "qrf"),
        alpha=opt.get("alpha", 0.1),
        n_repetitions=opt.get("reps", 20),
        tune_quantiles=bool(opt.get("tune_quantiles", False)),
        cv_folds=opt.get("cv_folds", 5),
        gamma=opt.get("gamma", 1.0),
        seed=seed,
        forest=ForestConfig(n_trees=opt.get("n_trees", 1000)),
        mlp=MlpConfig(max_epochs=opt.get("max_epochs", 1000)),
        knn_k=opt.get("knn_k", 11),
        report_original_units=bool(opt.get("original_units", False)),
    )
    try:
        report = run_experiment(cfg, dataset, oracle)
    except RuntimeError as exc:  # every repetition failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = opt.get("out")
    if out is None:
        sys.stdout.write(report.to_json())
    else:
        emit_report(report, out)
        for s in report.summaries:
            print(
                f"{s.method}: avg_length={s.avg_length:.4f} "
                f"avg_coverage={s.avg_coverage:.4f} (n_reps={s.n_reps})"
            )
        print(f"wrote {out}")
    if report.failures:
        print(f"warning: {len(report.failures)} repetition(s) failed", file=sys.stderr)
    return 0


def _cmd_demo(opt: _Options) -> int:
    summaries, bounds = band_comparison_demo(
        n=opt.get("n", 2000),
        seed=opt.get("seed", 0),
        alpha=opt.get("alpha", 0.1),
        gamma=opt.get("gamma", 1.0),
        n_trees=opt.get("n_trees", 1000),
        grid_size=opt.get("grid_size", 501),
        kind=opt.get("kind", "heteroscedastic_outliers"),
    )
    for s in summaries:
        print(
            f"{s.method}: avg_length={s.avg_length:.4f} "
            f"avg_coverage={s.avg_coverage:.4f}"
        )
    out = opt.get("out", "band_demo.csv")
    if not out.endswith(".csv"):
        raise ValueError(f"demo output must be a .csv path, got {out!r}")
    columns = list(bounds)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for i in range(bounds["x"].size):
            fh.write(",".join(repr(float(bounds[c][i])) for c in columns) + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_audit(opt: _Options) -> int:
    result = coverage_audit(
        n_trials=opt.get("trials", 2000),
        alpha=opt.get("alpha", 0.1),
        n_calibration=opt.get("n_cal", 99),
        n_test=opt.get("n_test", 200),
        engine=opt.get("engine", "linear-q"),
        kind=opt.get("kind", "heteroscedastic"),
        seed=opt.get("seed", 0),
    )
    text = json.dumps(result, indent=2) + "\n"
    out = opt.get("out")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _load_config_file(args.config) if args.config else {}
        opt = _Options(args, file_values)
        if args.command == "run":
            return _cmd_run(opt)
        if args.command == "demo-fig1":
            return _cmd_demo(opt)
        return _cmd_audit(opt)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Three subcommands:

- ``run``: the repeated-split benchmark on a CSV file or synthetic data
- ``demo-fig1``: one-split comparison of the three forest-backed bands,
  emitting per-x interval bounds as CSV for external plotting
- ``coverage-audit``: Monte Carlo check of the finite-sample coverage
  guarantee

Every option can also be supplied through ``--config FILE``, a plain text
file of ``key = value`` lines (``#`` starts a comment; keys match the long
option names of the chosen subcommand with either dashes or underscores;
booleans are true/false; a value must be one of the option's choices).
Explicit command line flags win over file values.
"""

import argparse
import json
import sys
from pathlib import Path

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
    run_experiment,
)


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    return next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )


def _load_config_file(path: str, sub: argparse.ArgumentParser) -> dict:
    """The values of a config file; a key must name an option of subcommand ``sub``."""
    # option dest -> (text converter, choices), over the subcommand's options but --config
    options = {
        a.dest: (_to_bool if isinstance(a, argparse._StoreTrueAction) else a.type or str, a.choices)
        for a in sub._actions
        if a.dest not in ("help", "config")
    }
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
            if key not in options:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            convert, choices = options[key]
            try:
                values[key] = convert(value)
                if choices is not None and values[key] not in choices:
                    raise ValueError(f"invalid choice {value!r} (choose from {', '.join(choices)})")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def _add_common(parser: argparse.ArgumentParser, out_help: str, out: str | None = None) -> None:
    parser.add_argument("--config", default=None, help="key = value options file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=out, help=out_help)


def _check_out(out: str | None, suffixes: tuple[str, ...], message: str) -> None:
    """Reject an ``--out`` path before any work: a wrong suffix, or a missing directory."""
    if out is None:
        return
    if not out.endswith(suffixes):
        raise ValueError(f"{message}, got {out!r}")
    if not Path(out).parent.is_dir():
        raise ValueError(f"output directory does not exist: {str(Path(out).parent)!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confband",
        description="Distribution-free prediction intervals: benchmark and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="repeated-split benchmark on a dataset")
    run.add_argument("--data", help="CSV file with a header row")
    run.add_argument("--target", help="response column name in --data")
    run.add_argument("--synthetic", choices=SYNTHETIC_KINDS)
    run.add_argument("--n", type=int, default=1000, help="synthetic sample size")
    run.add_argument("--method", default="cqr", choices=METHODS)
    run.add_argument("--engine", default="qrf", choices=ENGINES)
    run.add_argument("--alpha", type=float, default=0.1)
    run.add_argument("--reps", type=int, default=20)
    run.add_argument("--gamma", type=float, default=1.0)
    run.add_argument("--tune-quantiles", action="store_true")
    run.add_argument("--n-trees", type=int, default=1000)
    run.add_argument("--max-epochs", type=int, default=1000)
    run.add_argument("--knn-k", type=int, default=11)
    run.add_argument("--cv-folds", type=int, default=5)
    run.add_argument(
        "--original-units",
        action="store_true",
        help="report lengths in original response units",
    )
    _add_common(run, "report path (.csv or .json); JSON to stdout when omitted")

    demo = sub.add_parser(
        "demo-fig1", help="three-method synthetic comparison with plottable bands"
    )
    demo.add_argument("--n", type=int, default=2000)
    demo.add_argument("--alpha", type=float, default=0.1)
    demo.add_argument("--gamma", type=float, default=1.0)
    demo.add_argument("--n-trees", type=int, default=1000)
    demo.add_argument("--grid-size", type=int, default=501)
    demo.add_argument("--kind", default="heteroscedastic_outliers", choices=SYNTHETIC_KINDS)
    _add_common(demo, "band bounds path (.csv)", out="band_demo.csv")

    audit = sub.add_parser(
        "coverage-audit", help="Monte Carlo check of the coverage guarantee"
    )
    audit.add_argument("--trials", type=int, default=2000)
    audit.add_argument("--alpha", type=float, default=0.1)
    audit.add_argument("--n-cal", type=int, default=99)
    audit.add_argument("--n-test", type=int, default=200)
    audit.add_argument("--engine", default="linear-q", choices=PAIR_ENGINES)
    audit.add_argument("--kind", default="heteroscedastic", choices=SYNTHETIC_KINDS)
    _add_common(audit, "result path (.json); JSON to stdout when omitted")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.data is None) == (args.synthetic is None):
        raise ValueError("provide exactly one of --data or --synthetic")
    _check_out(args.out, (".csv", ".json"), "output path must end with .csv or .json")
    oracle = None
    if args.data is not None:
        if args.target is None:
            raise ValueError("--data requires --target (response column name)")
        dataset = load_csv(args.data, args.target)
    else:
        dataset, oracle = generate(
            SyntheticSpec(kind=args.synthetic, n=args.n, seed=args.seed)
        )
    cfg = ExperimentConfig(
        methods=(args.method,),
        engine=args.engine,
        alpha=args.alpha,
        n_repetitions=args.reps,
        tune_quantiles=args.tune_quantiles,
        cv_folds=args.cv_folds,
        gamma=args.gamma,
        seed=args.seed,
        forest=ForestConfig(n_trees=args.n_trees),
        mlp=MlpConfig(max_epochs=args.max_epochs),
        knn_k=args.knn_k,
        report_original_units=args.original_units,
    )
    try:
        report = run_experiment(cfg, dataset, oracle)
    except RuntimeError as exc:  # every repetition failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(report.to_json())
    else:
        text = report.to_csv() if args.out.endswith(".csv") else report.to_json()
        Path(args.out).write_text(text, encoding="utf-8")
        for s in report.summaries:
            print(
                f"{s.method}: avg_length={s.avg_length:.4f} "
                f"avg_coverage={s.avg_coverage:.4f} (n_reps={s.n_reps})"
            )
        print(f"wrote {args.out}")
    if report.failures:
        print(f"warning: {len(report.failures)} repetition(s) failed", file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    _check_out(args.out, (".csv",), "demo output must be a .csv path")
    summaries, bounds = band_comparison_demo(
        n=args.n,
        seed=args.seed,
        alpha=args.alpha,
        gamma=args.gamma,
        n_trees=args.n_trees,
        grid_size=args.grid_size,
        kind=args.kind,
    )
    for s in summaries:
        print(
            f"{s.method}: avg_length={s.avg_length:.4f} "
            f"avg_coverage={s.avg_coverage:.4f}"
        )
    columns = list(bounds)
    lines = [",".join(columns)]
    lines += [",".join(repr(float(bounds[c][i])) for c in columns) for i in range(bounds["x"].size)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    _check_out(args.out, (".json",), "audit output must be a .json path")
    result = coverage_audit(
        n_trials=args.trials,
        alpha=args.alpha,
        n_calibration=args.n_cal,
        n_test=args.n_test,
        engine=args.engine,
        kind=args.kind,
        seed=args.seed,
    )
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values become the subcommand's defaults, so flags still win
            sub = _subcommands(parser)[args.command]
            sub.set_defaults(**_load_config_file(args.config, sub))
            args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "demo-fig1":
            return _cmd_demo(args)
        return _cmd_audit(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

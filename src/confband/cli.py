"""Command line interface.

Three subcommands:

- ``run``: the repeated-split benchmark on a CSV file or synthetic data
- ``demo-fig1``: one-split comparison of the three forest-backed bands,
  emitting per-x interval bounds as CSV for external plotting
- ``coverage-audit``: Monte Carlo check of the finite-sample coverage
  guarantee

Each subcommand is a parser and a handler that returns the output text and
its summary lines; ``main`` writes the text and reports any failure as one
``error:`` line. Option defaults live in the library: an option left unset
is left out of the call.

Every option can also be supplied through ``--config FILE``, a plain text
file of ``key = value`` lines (``#`` starts a comment; keys match the long
option names of the chosen subcommand with either dashes or underscores;
a boolean is ``true`` or ``false`` in any case, and nothing else; a value
must be one of the option's choices). A bad line is reported as
``path:line``. Explicit command line flags win over file values.
"""

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .conformal import METHODS
from .datagen import SYNTHETIC_KINDS, SyntheticSpec, generate, load_csv
from .harness import (
    ENGINES,
    PAIR_ENGINES,
    ExperimentConfig,
    band_comparison_demo,
    coverage_audit,
    run_experiment,
)
from .regressors import ForestConfig, MlpConfig


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return lowered == "true"


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


def _add_common(parser: argparse.ArgumentParser, out_help: str, handler, out_rule, **out) -> None:
    """The options every subcommand ends with, its handler and its ``--out`` rule."""
    parser.add_argument("--config", default=None, help="key = value options file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help=out_help, **out)
    parser.set_defaults(handler=handler, out_rule=out_rule)


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
    # an option left unset is left out of the namespace, so the library's default applies
    unset = partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=unset)

    run = sub.add_parser("run", help="repeated-split benchmark on a dataset")
    run.add_argument("--data", help="CSV file with a header row")
    run.add_argument("--target", help="response column name in --data")
    run.add_argument("--synthetic", choices=SYNTHETIC_KINDS)
    run.add_argument("--n", type=int, default=1000, help="synthetic sample size")
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--engine", choices=ENGINES)
    run.add_argument("--alpha", type=float)
    run.add_argument("--reps", type=int)
    run.add_argument("--gamma", type=float)
    run.add_argument("--tune-quantiles", action="store_true")
    run.add_argument("--n-trees", type=int)
    run.add_argument("--max-epochs", type=int)
    run.add_argument("--knn-k", type=int)
    run.add_argument("--cv-folds", type=int)
    run.add_argument(
        "--original-units",
        action="store_true",
        help="report lengths in original response units",
    )
    _add_common(run, "report path (.csv or .json); JSON to stdout when omitted",
                _cmd_run, ((".csv", ".json"), "output path must end with .csv or .json"))

    demo = sub.add_parser(
        "demo-fig1", help="three-method synthetic comparison with plottable bands"
    )
    demo.add_argument("--n", type=int)
    demo.add_argument("--alpha", type=float)
    demo.add_argument("--gamma", type=float)
    demo.add_argument("--n-trees", type=int)
    demo.add_argument("--grid-size", type=int)
    demo.add_argument("--kind", choices=SYNTHETIC_KINDS)
    _add_common(demo, "band bounds path (.csv)", _cmd_demo,
                ((".csv",), "demo output must be a .csv path"), default="band_demo.csv")

    audit = sub.add_parser(
        "coverage-audit", help="Monte Carlo check of the coverage guarantee"
    )
    audit.add_argument("--trials", type=int, default=2000)
    audit.add_argument("--alpha", type=float)
    audit.add_argument("--n-cal", type=int)
    audit.add_argument("--n-test", type=int)
    audit.add_argument("--engine", choices=PAIR_ENGINES)
    audit.add_argument("--kind", choices=SYNTHETIC_KINDS)
    _add_common(audit, "result path (.json); JSON to stdout when omitted",
                _cmd_audit, ((".json",), "audit output must be a .json path"))
    return parser


def _given(args: argparse.Namespace, *same: str, **renamed: str) -> dict:
    """Library parameter -> value of each set option; ``renamed`` maps parameter -> option."""
    names = dict(zip(same, same), **renamed)
    return {param: getattr(args, option) for param, option in names.items() if option in args}


def _cmd_run(args: argparse.Namespace) -> tuple[str, list[str]]:
    if ("data" in args) == ("synthetic" in args):
        raise ValueError("provide exactly one of --data or --synthetic")
    oracle = None
    if "data" in args:
        if "target" not in args:
            raise ValueError("--data requires --target (response column name)")
        dataset = load_csv(args.data, args.target)
    else:
        dataset, oracle = generate(SyntheticSpec(kind=args.synthetic, **_given(args, "n", "seed")))
    settings = _given(args, "engine", "alpha", "tune_quantiles", "cv_folds", "gamma", "seed",
                      "knn_k", n_repetitions="reps", report_original_units="original_units")
    if "method" in args:
        settings["methods"] = (args.method,)
    report = run_experiment(ExperimentConfig(
        forest=ForestConfig(**_given(args, "n_trees")), mlp=MlpConfig(**_given(args, "max_epochs")),
        **settings,
    ), dataset, oracle)
    if report.failures:
        print(f"warning: {len(report.failures)} repetition(s) failed", file=sys.stderr)
    text = report.to_csv() if getattr(args, "out", "").endswith(".csv") else report.to_json()
    return text, [
        f"{s.method}: avg_length={s.avg_length:.4f} "
        f"avg_coverage={s.avg_coverage:.4f} (n_reps={s.n_reps})"
        for s in report.summaries
    ]


def _cmd_demo(args: argparse.Namespace) -> tuple[str, list[str]]:
    summaries, bounds = band_comparison_demo(
        **_given(args, "n", "seed", "alpha", "gamma", "n_trees", "grid_size", "kind")
    )
    columns = list(bounds)
    lines = [",".join(columns)]
    lines += [",".join(repr(float(bounds[c][i])) for c in columns) for i in range(bounds["x"].size)]
    return "\n".join(lines) + "\n", [
        f"{s.method}: avg_length={s.avg_length:.4f} avg_coverage={s.avg_coverage:.4f}"
        for s in summaries
    ]


def _cmd_audit(args: argparse.Namespace) -> tuple[str, list[str]]:
    result = coverage_audit(**_given(
        args, "alpha", "n_test", "engine", "kind", "seed", n_trials="trials", n_calibration="n_cal",
    ))
    return json.dumps(result, indent=2) + "\n", []


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values become the subcommand's defaults, so flags still win
            sub = _subcommands(parser)[args.command]
            sub.set_defaults(**_load_config_file(args.config, sub))
            args = parser.parse_args(argv)
        out = getattr(args, "out", None)
        _check_out(out, *args.out_rule)
        text, summary = args.handler(args)
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text, encoding="utf-8")
            print(*summary, f"wrote {out}", sep="\n")
    except (ValueError, OSError, RuntimeError) as exc:  # RuntimeError: every repetition failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

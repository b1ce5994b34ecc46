"""Byte-identity matrix: hash every report confband produces at small sizes.

Hash the outputs of one source checkout (one ``name sha256`` line each):

    python3 scripts/report_hashes.py [CHECKOUT]

Hash two checkouts on the same machine and list the outputs that differ
(exit status 1 if any do):

    python3 scripts/report_hashes.py PARENT_CHECKOUT CHANGED_CHECKOUT

A checkout is a directory with ``src/confband`` in it; the default is the
checkout this script sits in. Make the second copy with ``git clone`` or
``git archive``. Each checkout is hashed in a fresh Python process with
its own ``src`` on the path, one BLAS thread and ``PYTHONHASHSEED=0``, and
the same matrix is run on both, so a change that only claims speed can show
that it left every byte alone. The matrix covers:

- ``run``: every engine x method set (singles, pairs in both orders, all
  four in both orders; pair methods only where the engine has a pair) x
  quantile tuning off/on (on only for sets with a pair method), plus
  reports in original units and with a non-default gamma;
- ``audit``: the coverage audit with every pair engine;
- ``demo``: the demo-fig1 CSV and its stdout for every synthetic kind;
- ``cli``: ``confband run`` to stdout and to a CSV, and
  ``confband coverage-audit`` to stdout.

The hashes are not pinned anywhere: MLP and ridge bits depend on the BLAS
build, so they hold between two checkouts on one machine, not across
machines. That is why this script is not part of the test suite or CI.
The 84 outputs take about 20 s per checkout on a 2-vCPU VM.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METHOD_SETS = (
    ("split",),
    ("local",),
    ("cqr",),
    ("cqr-asym",),
    ("split", "local"),
    ("local", "split"),
    ("cqr", "cqr-asym"),
    ("cqr-asym", "cqr"),
    ("split", "local", "cqr", "cqr-asym"),
    ("cqr-asym", "cqr", "local", "split"),
)
PAIR_METHODS = ("cqr", "cqr-asym")


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _cli(argv) -> tuple[int, str]:
    from confband import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def matrix():
    """Yield ``(name, sha256)`` for every output of the checkout on the path."""
    from confband.datagen import SyntheticSpec, generate
    from confband.harness import (
        ENGINES,
        PAIR_ENGINES,
        ExperimentConfig,
        coverage_audit,
        run_experiment,
    )
    from confband.regressors import ForestConfig, MlpConfig

    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic_outliers", n=200, seed=3))
    small = dict(
        n_repetitions=2,
        seed=11,
        cv_folds=3,
        forest=ForestConfig(n_trees=20, min_leaf_size=5),
        mlp=MlpConfig(hidden_width=16, max_epochs=15),
        linear_epochs=200,
    )

    def run(**settings) -> str:
        cfg = ExperimentConfig(**{**small, **settings})
        return _sha(run_experiment(cfg, dataset, oracle).to_json())

    for engine in ENGINES:
        for methods in METHOD_SETS:
            has_pair = any(m in PAIR_METHODS for m in methods)
            if has_pair and engine not in PAIR_ENGINES:
                continue
            for tune in (False, True) if has_pair else (False,):
                name = f"run/{engine}/{'+'.join(methods)}/tune-{'on' if tune else 'off'}"
                yield name, run(methods=methods, engine=engine, tune_quantiles=tune)
    all_methods = METHOD_SETS[8]
    yield "run/qrf/all/original-units", run(
        methods=all_methods, engine="qrf", report_original_units=True
    )
    yield "run/qrf/split+local/gamma-0.25", run(
        methods=("split", "local"), engine="qrf", gamma=0.25
    )

    for engine in PAIR_ENGINES:
        audit = coverage_audit(
            n_trials=4, n_calibration=49, n_test=50, n_train=200, engine=engine, seed=5
        )
        yield f"audit/{engine}", _sha(json.dumps(audit, sort_keys=True))

    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("homoscedastic", "heteroscedastic", "heteroscedastic_outliers"):
            out = os.path.join(tmp, f"demo-{kind}.csv")
            code, text = _cli(["demo-fig1", "--n", "300", "--n-trees", "30", "--grid-size",
                               "41", "--kind", kind, "--seed", "2", "--out", out])
            yield f"demo/{kind}/stdout", _sha(f"{code}\n{text}".replace(tmp, "TMP"))
            yield f"demo/{kind}/csv", _sha(Path(out).read_bytes())

        run_argv = ["run", "--synthetic", "heteroscedastic", "--n", "200", "--reps", "2",
                    "--n-trees", "30", "--seed", "4"]
        code, text = _cli(run_argv)
        yield "cli/run/stdout", _sha(f"{code}\n{text}")
        out = os.path.join(tmp, "run.csv")
        code, text = _cli([*run_argv, "--method", "local", "--out", out])
        yield "cli/run-local/stdout", _sha(f"{code}\n{text}".replace(tmp, "TMP"))
        yield "cli/run-local/csv", _sha(Path(out).read_bytes())
        code, text = _cli(["coverage-audit", "--engine", "oracle", "--trials", "4",
                           "--seed", "6"])
        yield "cli/coverage-audit/stdout", _sha(f"{code}\n{text}")


def hash_checkout(checkout: Path) -> dict:
    """Run the matrix in a fresh process against ``checkout``'s sources."""
    if not (checkout / "src" / "confband" / "__init__.py").is_file():
        raise SystemExit(f"error: no confband sources under {checkout / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--emit"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=True,
        )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, help="one or two source checkouts")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.emit:  # worker: hash whatever confband is on the path
        print(json.dumps(dict(matrix())))
        return 0
    if len(args.checkouts) > 2:
        parser.error("give at most two checkouts")
    checkouts = [c.resolve() for c in args.checkouts] or [ROOT]
    hashes = [hash_checkout(c) for c in checkouts]
    if len(hashes) == 1:
        for name, digest in hashes[0].items():
            print(f"{name} {digest[:12]}")
        return 0
    a, b = hashes
    names = list(a) + [n for n in b if n not in a]
    differ = [n for n in names if a.get(n) != b.get(n)]
    for name in names:
        mark = "DIFF" if name in differ else "same"
        print(f"{mark} {name} {(a.get(name) or '-')[:12]} {(b.get(name) or '-')[:12]}")
    print(f"{len(names)} outputs, {len(differ)} differ "
          f"({checkouts[0]} vs {checkouts[1]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

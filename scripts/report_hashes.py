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
- ``audit``: the coverage audit with every pair engine, plus a linear-q
  audit of 250 trials that runs in three blocks of trials and an oracle
  audit whose corrections are infinite;
- ``calibrate``: ``predict_interval`` of the band each public calibrator
  makes from fitted qrf and linear-q models on fixed rows, and of cqr and
  cqr-asym on the linear-q pair tilted to cross on part of the rows,
  wrapped in ``CrossingFixPair``. The calibrators now repair a crossed pair
  themselves, so the plain pair gives the same bytes; the wrapper stays
  because the base checkout of a comparison may predate that repair and
  reject the plain pair;
- ``forest``: the mean, the quantile pair and three single-level quantiles
  read from forests of 140 trees on 1000 rows, which grow in 3 batches,
  with bootstrap on and off; and the mean and the pair read on 2000 rows
  from a forest of 300 trees on 400 rows, which both read in five blocks of
  queries at the default bounds;
- ``demo``: the demo-fig1 CSV and its stdout for every synthetic kind;
- ``cli``: ``confband run`` to stdout and to a CSV, and
  ``confband coverage-audit`` to stdout.

The hashes are not pinned anywhere: MLP and ridge bits depend on the BLAS
build, so they hold between two checkouts on one machine, not across
machines. That is why this script is not part of the test suite. CI checks
out the pull request's base commit, or on a push the commit pushed over,
next to the change and compares the two on its own runner; when that commit
is not in the history (a new branch, rewritten history) it hashes its own
checkout alone, so that a change that breaks the script still shows.
The 108 outputs take about 25 s per checkout on a 2-vCPU VM.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from checkouts import emit, parse_checkouts

ALL_METHODS = ("split", "local", "cqr", "cqr-asym")
METHOD_SETS = (
    ("split",),
    ("local",),
    ("cqr",),
    ("cqr-asym",),
    ("split", "local"),
    ("local", "split"),
    ("cqr", "cqr-asym"),
    ("cqr-asym", "cqr"),
    ALL_METHODS,
    ALL_METHODS[::-1],
)


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


class _TiltedPair:
    """A fitted pair whose ends move toward each other by a share x / 5 of
    the gap, x the first feature (in [0, 5] for synthetic data), so the
    raw ends cross where x > 2.5."""

    def __init__(self, inner):
        self.inner = inner

    def predict_pair(self, X):
        lo, hi = self.inner.predict_pair(X)
        tilt = (hi - lo) * X[:, 0] / 5.0
        return lo + tilt, hi - tilt


def calibrated_bands(dataset):
    """Yield ``(name, sha256)`` for the public calibrators' bands on fixed rows."""
    import numpy as np

    from confband.conformal import (
        cqr_asym_calibrate,
        cqr_calibrate,
        local_conformal_calibrate,
        split_conformal_calibrate,
    )
    from confband.harness import CrossingFixPair
    from confband.regressors import (
        ForestConfig,
        ForestMeanRegressor,
        KnnDispersion,
        LinearMedianRegressor,
        LinearQuantilePair,
        QuantileForestRegressor,
    )

    X, y = dataset.X, dataset.y
    fit, cal, new = slice(0, 100), slice(100, 160), slice(160, 200)

    def bands(pair):
        yield "cqr", cqr_calibrate(pair, X[cal], y[cal], 0.1)
        yield "cqr-asym", cqr_asym_calibrate(pair, X[cal], y[cal], 0.05, 0.08)

    def digest(band) -> str:
        lo, hi = band.predict_interval(X[new])
        return _sha(repr(band.correction).encode() + lo.tobytes() + hi.tobytes())

    forest = ForestConfig(n_trees=20, min_leaf_size=5, seed=1)
    engines = (
        ("qrf", ForestMeanRegressor(forest), ForestMeanRegressor(ForestConfig(n_trees=20, seed=2)),
         QuantileForestRegressor(forest)),
        ("linear-q", LinearMedianRegressor(200), KnnDispersion(11), LinearQuantilePair(200)),
    )
    for engine, mu, sigma, pair in engines:
        mu.fit(X[fit], y[fit])
        sigma.fit(X[fit], np.abs(y[fit] - mu.predict(X[fit])))
        pair.fit(X[fit], y[fit], 0.05, 0.95)
        split = split_conformal_calibrate(mu, X[cal], y[cal], 0.1)
        yield f"calibrate/{engine}/split", digest(split)
        local = local_conformal_calibrate(mu, sigma, X[cal], y[cal], 0.1, gamma=0.5)
        yield f"calibrate/{engine}/local", digest(local)
        for method, band in bands(pair):
            yield f"calibrate/{engine}/{method}", digest(band)
    linear_pair = engines[-1][3]
    for method, band in bands(CrossingFixPair(_TiltedPair(linear_pair))):
        yield f"calibrate/crossed/{method}", digest(band)


def multi_batch_forests():
    """Yield ``(name, sha256)`` for the readouts of forests grown in several batches."""
    import numpy as np

    from confband.regressors import ForestConfig, ForestMeanRegressor, QuantileForestRegressor

    rng = np.random.default_rng(9)
    X = rng.normal(size=(1000, 2))
    y = X[:, 0] + (0.5 + np.abs(X[:, 1])) * rng.normal(size=1000)
    X_new = rng.normal(size=(200, 2))
    for bootstrap in (True, False):
        config = ForestConfig(n_trees=140, min_leaf_size=5, bootstrap=bootstrap, seed=3)
        name = f"forest/bootstrap-{'on' if bootstrap else 'off'}"
        yield f"{name}/mean", _sha(ForestMeanRegressor(config).fit(X, y).predict(X_new).tobytes())
        pair = QuantileForestRegressor(config).fit(X, y, 0.05, 0.95)
        lo, hi = pair.predict_pair(X_new)
        yield f"{name}/pair", _sha(lo.tobytes() + hi.tobytes())
        for level in (0.1, 0.5, 0.83):
            yield f"{name}/quantile-{level}", _sha(pair.predict_quantile(X_new, level).tobytes())

    # 2000 queries x 300 trees: over four times forest._ROUTE_PAIRS (query, tree) pairs
    X_train, X_many = rng.normal(size=(400, 2)), rng.normal(size=(2000, 2))
    y_train = X_train[:, 0] + rng.normal(size=400)
    config = ForestConfig(n_trees=300, min_leaf_size=5, seed=4)
    yield "forest/blocks/mean", _sha(
        ForestMeanRegressor(config).fit(X_train, y_train).predict(X_many).tobytes()
    )
    lo, hi = QuantileForestRegressor(config).fit(X_train, y_train, 0.05, 0.95).predict_pair(X_many)
    yield "forest/blocks/pair", _sha(lo.tobytes() + hi.tobytes())


def matrix():
    """Yield ``(name, sha256)`` for every output of the checkout on the path."""
    from confband.conformal import PAIR_METHODS
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
    yield "run/qrf/all/original-units", run(
        methods=ALL_METHODS, engine="qrf", report_original_units=True
    )
    yield "run/qrf/split+local/gamma-0.25", run(
        methods=("split", "local"), engine="qrf", gamma=0.25
    )

    for engine in PAIR_ENGINES:
        audit = coverage_audit(
            n_trials=4, n_calibration=49, n_test=50, n_train=200, engine=engine, seed=5
        )
        yield f"audit/{engine}", _sha(json.dumps(audit, sort_keys=True))
    # 250 trials of 99 + 200 rows: three blocks of trials at the default
    # harness._AUDIT_ROWS, the last one partial
    audit = coverage_audit(n_trials=250, n_train=200, engine="linear-q", seed=7)
    yield "audit/blocks/linear-q", _sha(json.dumps(audit, sort_keys=True))
    # 5 calibration rows are too few for a finite correction at alpha = 0.1
    audit = coverage_audit(
        n_trials=3, n_calibration=5, n_test=50, n_train=200, engine="oracle", seed=8
    )
    yield "audit/infinite/oracle", _sha(json.dumps(audit, sort_keys=True))

    yield from calibrated_bands(dataset)
    yield from multi_batch_forests()

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


def main() -> int:
    args, checkouts = parse_checkouts(__doc__.split("\n")[0])
    if args.emit:  # worker: hash whatever confband is on the path
        print(json.dumps(dict(matrix())))
        return 0
    hashes = [emit(__file__, c) for c in checkouts]
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

"""Time tree routing in process: ``_NodeTable.apply`` over every table of a forest.

Time one checkout, or alternate between two on the same machine:

    python3 scripts/time_routing.py [CHECKOUT [CHECKOUT]]

A checkout is a directory with ``src/confband`` in it; the default is the
checkout this script sits in. Each of 10 rounds runs every checkout once,
in order, in a fresh Python process with that checkout's ``src`` on the
path and one BLAS thread. A worker grows each case's forest, routes the
case's queries through every table 10 times and reports the median ms per
pass; the script prints, per case and checkout, the median and quartiles
of the rounds' medians, the forest's node count (equal when both checkouts
grow the same trees) and the deepest table's stored depth. The cases:

- ``qrf_growth``: the qrf_growth workload's shape (heteroscedastic_outliers,
  n = 1000, seed 7, 1000 trees, min leaf 5): a forest grown on the 400
  standardized proper-training rows of the seed's repetition split, routing
  its 600 calibration and test rows in blocks of 131, as a read of 1000
  trees routes them (2**17 pairs a block);
- ``deep``: 100 trees with min leaf 1 on 2000 rows of the same kind,
  routing the 2000 training rows, the worst case for a walk whose step
  count is the deepest leaf's depth.
"""

import json
import statistics
import sys
import time

from checkouts import emit, parse_checkouts

ROUNDS = 10
PASSES = 10


def cases():
    """Yield ``(name, record)`` for every case, timed in this process."""
    import numpy as np

    from confband.datagen import SyntheticSpec, generate, standardize_apply, standardize_fit
    from confband.harness import ExperimentConfig, repetition_split
    from confband.regressors import ForestConfig, ForestMeanRegressor

    def workload_rows():
        dataset, _ = generate(SyntheticSpec(kind="heteroscedastic_outliers", n=1000, seed=7))
        # the stream from which run_experiment's first repetition draws its split
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
        test, fit, cal = repetition_split(dataset.n_rows, ExperimentConfig(seed=7), rng)
        params = standardize_fit(dataset.X[fit], dataset.y[fit])
        read = np.concatenate((cal, test))
        return (*standardize_apply(params, dataset.X[fit], dataset.y[fit]),
                standardize_apply(params, dataset.X[read], dataset.y[read])[0], 131)

    def deep_rows():
        dataset, _ = generate(SyntheticSpec(kind="heteroscedastic_outliers", n=2000, seed=7))
        return dataset.X, dataset.y, dataset.X, 2000

    settings = {
        "qrf_growth": (workload_rows, ForestConfig(n_trees=1000, min_leaf_size=5)),
        "deep": (deep_rows, ForestConfig(n_trees=100, min_leaf_size=1)),
    }
    for name, (rows, config) in settings.items():
        X_fit, y_fit, X, block = rows()
        tables = ForestMeanRegressor(config).fit(X_fit, y_fit)._forest.tables
        times = []
        for _ in range(PASSES):
            start = time.perf_counter()
            for table in tables:
                for b in range(0, X.shape[0], block):
                    table.apply(X[b : b + block])
            times.append(1e3 * (time.perf_counter() - start))
        depths = [getattr(t, "depth", None) for t in tables]  # None: the table stores none
        yield name, {
            "ms_per_pass": statistics.median(times),
            "nodes": sum(t.feature.size for t in tables),
            "depth": None if None in depths else max(depths),
        }


def main() -> int:
    args, checkouts = parse_checkouts(__doc__.split("\n")[0])
    if args.emit:  # worker: time whatever confband is on the path
        print(json.dumps(dict(cases())))
        return 0
    runs = {c: [] for c in checkouts}
    for _ in range(ROUNDS):
        for checkout in checkouts:
            runs[checkout].append(emit(__file__, checkout))
    for name in runs[checkouts[0]][0]:
        for checkout in checkouts:
            ms = [run[name]["ms_per_pass"] for run in runs[checkout]]
            q1, med, q3 = statistics.quantiles(ms, n=4)
            shape = runs[checkout][0][name]
            print(
                f"{name} {checkout}: {med:.1f} ms per pass (quartiles {q1:.1f}-{q3:.1f}, "
                f"{ROUNDS} rounds), {shape['nodes']} nodes, depth {shape['depth']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

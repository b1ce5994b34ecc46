"""The benchmark's workloads: fixed, seeded passes of confband work.

A pass is one fixed batch of units (repetitions or audit trials). The worker
repeats the same pass, built from the same seed, for as long as a run lasts,
so every pass does identical work and yields a byte-identical report.

Each workload keeps its one-line rationale (``why``, the same text as in
BENCHMARK.json), the layer the traced run should find doing most of the
work (``dominant``, if one does) and the layers that must do no work at all
(``idle``).

Importing this module imports nothing from confband; ``prepare`` does, in the
worker, after the import has been timed.
"""

import contextlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    units_per_pass: int
    dominant: str | None
    idle: tuple[str, ...] = ()


# The trial and repetition counts fix one pass. audit_oracle uses 8 trials
# because the audit's own 4-standard-error check estimates the spread from
# the trials: a correct build fails it by chance for about 1 seed in 400 at
# 8 trials, but 1 in 35 at 3.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qrf_growth",
            why=(
                "CLI byte-identity workload (confband run, cqr, qrf, 1000 trees, "
                "min leaf 5): forest growth dominates it"
            ),
            default_seed=7,
            units_per_pass=1,
            dominant="forest.fit",
        ),
        Workload(
            name="qrf_readout",
            why=(
                "trend-loop dataset, 4 methods, 300 trees, min leaf 120: the "
                "weighted-CDF quantile readout dominates and cqr/cqr-asym re-read "
                "the same rows"
            ),
            default_seed=0,
            units_per_pass=1,
            dominant="forest.quantile_readout",
        ),
        Workload(
            name="audit_linear",
            why=(
                "coverage audit with linear pinball pairs: thousands of tiny "
                "calibrations, no forest, no oracle, so per-call Python overhead "
                "shows here first"
            ),
            default_seed=42,
            units_per_pass=2000,
            # generate, the linear fit and predict, calibration and the
            # harness loop each take 10-25%: no single layer dominates
            dominant=None,
            idle=(
                "forest.fit",
                "forest.quantile_readout",
                "forest.mean_readout",
                "datagen.oracle_quantile",
            ),
        ),
        Workload(
            name="audit_oracle",
            why=(
                "the same audit loop with the exact oracle as predictor: the only "
                "workload that runs the oracle quantile inversion"
            ),
            default_seed=42,
            units_per_pass=8,
            dominant="datagen.oracle_quantile",
        ),
    )
}


@dataclass
class Job:
    """One workload's prepared inputs and its pass, digest and gate."""

    run: Callable  # () -> report
    report_bytes: Callable  # report -> the bytes whose sha256 is recorded
    check: Callable  # report -> list of problems, empty when correct
    band_length: Callable  # report -> mean band length, or None


def _cli_job(argv, check):
    from confband import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def checked(out):
        code, text = out
        if code != 0:
            return [f"confband exited with {code}"]
        try:
            return check(json.loads(text))
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]

    def band_length(out):
        try:
            return mean_band_length(json.loads(out[1]))
        except (json.JSONDecodeError, KeyError, TypeError):
            return None

    return Job(run, lambda out: out[1].encode(), checked, band_length)


def prepare(name: str, seed: int) -> Job:
    """Build the inputs of one workload from its seed; imports confband."""
    if name == "qrf_growth":
        argv = ["run", "--synthetic", "heteroscedastic_outliers", "--method", "cqr",
                "--engine", "qrf", "--seed", str(seed), "--reps", "1"]
        return _cli_job(argv, lambda rep: check_run_report(rep, reps=1))
    if name == "qrf_readout":
        from confband import harness
        from confband.datagen import SyntheticSpec, generate

        dataset, oracle = generate(
            SyntheticSpec(kind="heteroscedastic_outliers", n=2000, seed=seed)
        )
        cfg = harness.ExperimentConfig(
            methods=("split", "local", "cqr", "cqr-asym"),
            engine="qrf",
            n_repetitions=1,
            seed=seed + 100,
            forest=harness.ForestConfig(n_trees=300, min_leaf_size=120),
        )

        def canonical(report):
            return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")).encode()

        return Job(
            run=lambda: harness.run_experiment(cfg, dataset, oracle),
            report_bytes=canonical,
            check=lambda report: check_run_report(report.to_dict(), reps=1),
            band_length=lambda report: mean_band_length(report.to_dict()),
        )
    if name in ("audit_linear", "audit_oracle"):
        engine, kind = (
            ("linear-q", "heteroscedastic")
            if name == "audit_linear"
            else ("oracle", "heteroscedastic_outliers")
        )
        trials = WORKLOADS[name].units_per_pass
        argv = ["coverage-audit", "--engine", engine, "--kind", kind,
                "--seed", str(seed), "--trials", str(trials)]
        return _cli_job(argv, lambda rep: check_audit(rep, trials))
    raise ValueError(f"unknown workload {name!r}")


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def check_run_report(rep: dict, reps: int) -> list[str]:
    """Properties every correct build keeps on a ``confband run`` report.

    Average coverage may fall below 1 - alpha only by a binomial tolerance:
    four standard errors of a coverage estimated from n_test test rows
    against a correction estimated from n_cal calibration rows, per
    repetition.
    """
    problems = []
    cfg = rep["config"]
    alpha = cfg["alpha"]
    n = cfg["n_rows"]
    n_test = min(max(round(cfg["test_fraction"] * n), 1), n - 2)
    n_cal = round(cfg["calibration_fraction_of_train"] * (n - n_test))
    tol = 4.0 * math.sqrt(alpha * (1 - alpha) * (1 / n_test + 1 / n_cal) / reps)
    if rep["failures"]:
        problems.append(f"{len(rep['failures'])} failed repetition(s)")
    methods = cfg["methods"]
    if len(rep["repetitions"]) != reps * len(methods):
        problems.append(f"{len(rep['repetitions'])} rows for {reps} x {len(methods)}")
    for row in rep["repetitions"]:
        if not (_finite(row["avg_length"]) and row["avg_length"] >= 0):
            problems.append(f"{row['method']} rep {row['repetition']}: length {row['avg_length']}")
    seen = {s["method"] for s in rep["summaries"]}
    if seen != set(methods):
        problems.append(f"summaries cover {sorted(seen)}, expected {sorted(methods)}")
    for s in rep["summaries"]:
        cov = s["avg_coverage"]
        if not (_finite(cov) and cov >= 1 - alpha - tol):
            problems.append(f"{s['method']}: coverage {cov} below {1 - alpha - tol:.4f}")
        if not _finite(s["avg_length"]):
            problems.append(f"{s['method']}: average length {s['avg_length']}")
    return problems


def check_audit(rep: dict, trials: int) -> list[str]:
    """The audit's own bound check, on the trial count the pass asked for."""
    problems = []
    if rep["n_trials"] != trials:
        problems.append(f"{rep['n_trials']} trials, expected {trials}")
    if not _finite(rep["pooled_coverage"]):
        problems.append(f"pooled coverage {rep['pooled_coverage']}")
    if rep["within_bounds_4se"] is not True:
        problems.append(
            f"pooled coverage {rep['pooled_coverage']} outside "
            f"[{rep['lower_bound']}, {rep['upper_bound']}] by more than 4 se ({rep['se']})"
        )
    return problems


def mean_band_length(rep: dict) -> float | None:
    """Average interval length over every row of a run report."""
    rows = rep.get("repetitions")
    if not rows:
        return None
    return sum(float(r["avg_length"]) for r in rows) / len(rows)

"""confband benchmark: seeded workloads, end-to-end and per-layer metrics.

One workload, one run (the form the metric names in BENCHMARK.json refer to):

    python3 perfbench/run.py --workload qrf_growth --seed 7 --seconds 20 --trace 0

Every workload, untraced and traced, with every metric printed by name, unit
and better direction, the correctness gate, and a check of each workload's
purpose against the traced layer shares (``--write-baseline`` also records
the results in perfbench/baseline.json):

    python3 perfbench/run.py --all [--seconds S] [--write-baseline]

Run from the root of a source checkout; the program is imported from
``src/``. Load model: batch, closed loop, one client. Workers run one at a
time, each in a fresh process with one BLAS thread. Set-up is timed in
``SETUP_SAMPLES`` fresh workers and reported as the median; the last of them
goes on to run the workload's pass over and over for ``--seconds``.
``--trace 1`` spends half of that untraced and half with every layer's
entry points wrapped in spans (see spans.py), and reports per-layer metrics.

The gated timing metric is ``wall_ref``: pass time in units of a fixed
reference computation timed between the passes (see ``_wall_ref`` and
worker.reference_block), because on a shared machine raw seconds do not
repeat well enough to gate on. Raw pass seconds and units per second are
still printed and kept in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A crash or a failed
check fails every unit of the run. Details, the environment stamp and the
report hashes go to ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 3
BLAS_THREADS = 1
RUN_DEADLINE_S = 170.0


class RunFailed(Exception):
    """The run produced no usable measurement."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _worker(deadline: float, *args: str) -> dict:
    launched = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--launched", repr(launched), *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise RunFailed("worker ran past the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in fresh workers; returns the full record of the run."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.npz"
    common = ["--workload", name, "--seed", str(seed)]
    load_before = os.getloadavg()
    setups = [_worker(deadline, *common, "--mode", "setup") for _ in range(SETUP_SAMPLES - 1)]
    main = _worker(deadline, *common, "--mode", "measure", "--seconds", str(seconds),
                   "--trace", str(trace), "--spans", str(spans_path))
    load_after = os.getloadavg()
    setups.append({"setup_s": main["setup_s"], "import_s": main["import_s"]})

    passes = main["passes"] + main.get("traced_passes", [])
    problems = [p for rec in passes for p in rec["problems"]]
    digests = sorted({rec["sha256"] for rec in passes if rec["sha256"]})
    if len(digests) > 1:
        problems.append(f"passes of one seed gave {len(digests)} different reports")
    attempted = workload.units_per_pass * len(passes)

    walls = [rec["wall_s"] for rec in main["passes"] if rec["wall_s"] is not None]
    if not walls:
        raise RunFailed("; ".join(problems) or "no pass completed")
    if trace:
        if not main.get("layers"):
            raise RunFailed("; ".join(problems) or "no traced pass completed")
        metrics = {k: statistics.median(p[k] for p in main["layers"]) for k in main["layers"][0]}
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["trace.overhead_ratio"] = (
            _wall_ref(main["passes"][-1]["ref_s"], main["traced_passes"])
            / _wall_ref(main["ref_s"], main["passes"])
        )
    else:
        metrics = {
            "wall_ref": _wall_ref(main["ref_s"], main["passes"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
    raw = {
        "wall_s": statistics.median(walls),
        "units_per_s": workload.units_per_pass * len(walls) / sum(walls),
        "ref_block_s": statistics.median(main["ref_s"] + [r for p in main["passes"] for r in p["ref_s"]]),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "problems": problems,
        "metrics": metrics,
        "raw": raw,
        "report_sha256": digests[0] if len(digests) == 1 else digests,
        "mean_band_length": passes[0]["band_length"],
        "pass_wall_s": [rec["wall_s"] for rec in passes],
        "ref_s": {"first": main["ref_s"], "after_pass": [rec["ref_s"] for rec in passes]},
        "setup_samples": setups,
        "shares": main.get("shares"),
        "n_spans": main.get("n_spans"),
        "stamp": {
            "nproc": main["nproc"],
            "versions": main["versions"],
            "blas_threads": BLAS_THREADS,
            "git": _git(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
    }
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _wall_ref(first_refs: list, passes: list) -> float:
    """Median over passes of the pass time over the reference blocks around it.

    Each pass is divided by the median reference block taken just before and
    just after it, so the machine speed is sampled where the pass ran. On a
    shared 2-vCPU x86 VM (Python 3.11, numpy 2.4), over three sets of ten
    seeded runs per workload, raw pass seconds spread by 11-27% (quartile
    distance over median), the pass time over the run's median block by
    8-33%, and this ratio by 4-18%.
    """
    ratios = []
    before = first_refs
    for rec in passes:
        if rec["wall_s"] is None:
            break
        ratios.append(rec["wall_s"] / statistics.median(before + rec["ref_s"]))
        before = rec["ref_s"]
    return statistics.median(ratios)


def _defs(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def _result_line(record: dict, spec: dict) -> str:
    defs = _defs(spec, record["trace"])
    missing = {d["name"] for d in defs} ^ set(record["metrics"])
    if missing:
        raise RunFailed(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            d["name"]: {"value": record["metrics"][d["name"]], "unit": d["unit"]} for d in defs
        },
    })


def _print_table(record: dict, spec: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} sha256={record['report_sha256']}")
    for problem in record["problems"]:
        print(f"   problem: {problem}")
    for d in _defs(spec, record["trace"]):
        print(f"   {d['name']:<36} {record['metrics'][d['name']]:>14.6g} {d['unit']:<6} "
              f"({d['better']} is better)")
    raw = record["raw"]
    print(f"   raw, not gated: wall_s={raw['wall_s']:.6g} s  units_per_s={raw['units_per_s']:.6g} 1/s"
          f"  ref_block_s={raw['ref_block_s']:.6g} s")


def _purpose(record: dict) -> list[str]:
    """Where the traced run contradicts a workload's stated purpose."""
    workload = WORKLOADS[record["workload"]]
    shares = {k: v for k, v in record["shares"].items() if k != "pass"}
    findings = []
    top = max(shares, key=shares.get)
    if workload.dominant and top != workload.dominant:
        findings.append(f"largest layer share is {top}, expected {workload.dominant}")
    findings += [f"{layer} did work ({shares[layer]:.3%})" for layer in workload.idle if shares[layer]]
    return findings


def run_all(seconds: float, write_baseline: bool, spec: dict) -> int:
    baseline = {}
    ok = True
    for name, workload in WORKLOADS.items():
        plain = run_workload(name, workload.default_seed, seconds, 0)
        traced = run_workload(name, workload.default_seed, seconds, 1)
        for record in (plain, traced):
            _print_table(record, spec)
        findings = _purpose(traced)
        print(f"   purpose ({workload.why}): "
              + ("confirmed" if not findings else "NOT confirmed: " + "; ".join(findings)))
        ok &= plain["correct"] and traced["correct"] and not findings
        baseline[name] = {
            "seed": workload.default_seed,
            "report_sha256": plain["report_sha256"],
            "mean_band_length": plain["mean_band_length"],
            "error_rate": plain["failed"] / plain["attempted"],
            "end_to_end": plain["metrics"],
            "raw": plain["raw"],
            "per_layer": traced["metrics"],
            "layer_shares": traced["shares"],
            "purpose_findings": findings,
            "stamp": plain["stamp"],
        }
    if write_baseline:
        with open(HERE / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "workloads": baseline}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("all workloads correct, purposes confirmed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "confband" / "__init__.py").is_file():
        print(f"error: no confband sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    spec = _spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.all:
            return run_all(seconds, args.write_baseline, spec)
        seed = args.seed if args.seed is not None else WORKLOADS[args.workload].default_seed
        record = run_workload(args.workload, seed, seconds, args.trace)
        _print_table(record, spec)
        print(_result_line(record, spec))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

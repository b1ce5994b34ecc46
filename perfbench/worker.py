"""One benchmark worker process: set up one workload, then time its passes.

    python3 perfbench/worker.py --workload NAME --seed N --launched T \\
        --mode setup|measure [--seconds S] [--trace 0|1] [--spans PATH]

``--launched`` is the ``time.monotonic()`` reading the parent took just
before starting this process; set-up time runs from there until confband is
imported and the workload's inputs are built. ``setup`` mode stops there.
``measure`` mode then repeats the workload's pass for ``--seconds`` (half
untraced and half traced with ``--trace 1``), checks every report, and
prints one JSON object as the last line of standard output.

Between passes the worker times a fixed reference computation, about a tenth
of the pass time, so that the run also measures how fast the machine was
while the passes ran (see ``reference_block``).
"""

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

REF_SHARE = 0.1  # reference time spent after each pass, as a share of the pass
REF_MIN_BLOCKS = 2


def reference_block() -> float:
    """Seconds taken by a fixed mix of numpy array work and small Python steps.

    On a shared VM a vCPU's speed can swing between levels up to 1.6x apart
    within seconds. This block stands for the same kinds of work as
    confband's hot paths (a fresh array, whole-array cumsum and sort, many
    small numpy calls driven from a Python loop), so a pass time divided by
    the block time measured around it moves less with the machine speed than
    the pass time alone. A variant that reused one preallocated array tracked
    the passes worse: its own time jumped between the two levels where the
    passes did not.
    """
    import numpy as np

    t0 = time.perf_counter()
    m = np.random.default_rng(0).random((64, 4096))
    acc = float(np.cumsum(m, axis=1)[:, -1].sum()) + float(np.sort(m, axis=1)[:, 2048].sum())
    for i in range(6000):
        acc += float(m[i % 64, :32].sum()) + math.sqrt(i)
    return time.perf_counter() - t0


def _run_passes(job, seconds: float, refs: list, wrap_pass=None) -> list[dict]:
    """Repeat the pass until ``seconds`` have elapsed; stop at the first failure.

    Each pass record keeps the reference block times taken after it
    (``ref_s``); ``refs`` holds the times taken before the first pass.
    """
    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        record = {"wall_s": None, "ref_s": [], "sha256": None, "band_length": None, "problems": []}
        passes.append(record)
        try:
            t0 = time.perf_counter()
            report = wrap_pass(job.run) if wrap_pass else job.run()
            record["wall_s"] = time.perf_counter() - t0
            record["sha256"] = hashlib.sha256(job.report_bytes(report)).hexdigest()
            record["band_length"] = job.band_length(report)
            record["problems"] = job.check(report)
        except Exception:  # a crash fails the pass; the run reports it
            record["problems"] = [traceback.format_exc(limit=-3)]
        if record["problems"]:
            break
        blocks = REF_SHARE * record["wall_s"] / statistics.median(refs)
        record["ref_s"] = [reference_block() for _ in range(max(REF_MIN_BLOCKS, round(blocks)))]
    return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where the traced run saves its spans")
    args = parser.parse_args()

    import workloads

    t0 = time.perf_counter()
    import confband.cli  # noqa: F401  (the whole package: numpy, scipy, every layer)

    import_s = time.perf_counter() - t0
    job = workloads.prepare(args.workload, args.seed)
    setup_s = time.monotonic() - args.launched
    out = {"setup_s": setup_s, "import_s": import_s}

    if args.mode == "measure":
        import numpy
        import scipy

        budget = args.seconds / 2 if args.trace else args.seconds
        refs = [reference_block() for _ in range(REF_MIN_BLOCKS)]
        out["passes"] = _run_passes(job, budget, refs)
        if args.trace and not out["passes"][-1]["problems"]:
            import spans

            log = spans.SpanLog()
            pass_id = spans.LAYERS.index(spans.PASS)

            def traced_pass(run):
                i = log.open(pass_id)
                try:
                    return run()
                finally:
                    log.close(i)

            uninstall = spans.install(log)
            try:
                out["traced_passes"] = _run_passes(
                    job, budget, out["passes"][-1]["ref_s"], traced_pass
                )
            finally:
                uninstall()
            out["layers"] = spans.pass_metrics(log)
            out["shares"] = spans.layer_shares(log)
            out["n_spans"] = len(log.layer)
            if args.spans:
                log.save(args.spans)
        out["ref_s"] = refs
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        out["nproc"] = len(os.sched_getaffinity(0))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

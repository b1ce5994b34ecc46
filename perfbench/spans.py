"""Span recorder for the traced run, and the per-layer metrics read from it.

``install`` wraps the public entry points of each confband layer, including
the copies that modules imported by value (``harness.cqr_calibrate``,
``cli.generate``, ...). Every wrapped call records one span: its layer, its
parent span, its start and end in nanoseconds, and a work count (rows, trees,
epochs, points) taken from its arguments. Spans stay in memory until the run
ends; ``save`` then writes them out.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its child spans. Nothing in ``src/`` changes.
"""

import functools
import hashlib
import inspect
import itertools
import weakref
from array import array
from time import perf_counter_ns

import numpy as np

PASS = "pass"
LAYERS = (
    PASS,  # the benchmark's own code around one traced pass
    "cli",
    "harness",
    "forest.fit",
    "forest.quantile_readout",
    "forest.mean_readout",
    "linear.fit",
    "linear.predict",
    "conformal.calibrate",
    "conformal.interval",
    "quantiles.sorted_sample",
    "datagen.generate",
    "datagen.standardize",
    "datagen.oracle_quantile",
)
_ID = {name: i for i, name in enumerate(LAYERS)}
_NO_AUX = -1


class SpanLog:
    """Append-only span table in parallel arrays."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("d")
        self.aux = array("q")  # readout key, or failed units for harness spans
        self._stack = []

    def open(self, layer: int) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.work.append(0.0)
        self.aux.append(_NO_AUX)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def arrays(self) -> dict:
        # copies: a live numpy view would stop the arrays from growing
        return {
            "layer": np.array(self.layer, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "work": np.array(self.work, dtype=np.float64),
            "aux": np.array(self.aux, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, layer_names=np.array(LAYERS), **self.arrays())


def _arg(fn, name):
    """Accessor for one named argument of ``fn``, positional or keyword."""
    pos = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs[name]

    return get


def _wrap(fn, log: SpanLog, layer: str, work=None, aux=None):
    layer_id = _ID[layer]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = log.open(layer_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(i)
        if work is not None:
            log.work[i] = work(args, kwargs, result)
        if aux is not None:
            log.aux[i] = aux(args, kwargs, result)
        return result

    return traced


class _ReadoutKeys:
    """Numbers each distinct (fitted forest, query matrix) pair."""

    def __init__(self):
        self._serials = itertools.count()
        self._forest_serial = weakref.WeakKeyDictionary()
        self._keys = {}

    def __call__(self, args, kwargs, result):
        forest = args[0]._forest
        serial = self._forest_serial.get(forest)
        if serial is None:
            serial = self._forest_serial[forest] = next(self._serials)
        X = np.ascontiguousarray(args[1] if len(args) > 1 else kwargs["X"], dtype=float)
        digest = hashlib.blake2b(X.tobytes(), digest_size=16).digest()
        return self._keys.setdefault((serial, X.shape, digest), len(self._keys))


def install(log: SpanLog):
    """Wrap every traced entry point; returns a function that undoes it."""
    import confband
    from confband import cli, conformal, datagen, harness, quantiles
    from confband.regressors import forest, linear

    modules = (confband, cli, harness, conformal, datagen)
    undo = []

    def patch(owner, name, layer, work=None, aux=None):
        original = owner.__dict__[name]
        traced = _wrap(original, log, layer, work, aux)
        # module-level functions also live in every module that imported them
        owners = [owner] if isinstance(owner, type) else [
            m for m in modules if getattr(m, name, None) is original
        ]
        for o in owners:
            undo.append((o, name, original))
            setattr(o, name, traced)

    def rows_times_trees(args, kwargs, result):
        return len(args[1] if len(args) > 1 else kwargs["X"]) * args[0].config.n_trees

    readout_key = _ReadoutKeys()
    n_trees = lambda args, kwargs, result: args[0].config.n_trees  # noqa: E731

    patch(cli, "main", "cli")
    reps = _arg(harness.run_experiment, "cfg")
    patch(harness, "run_experiment", "harness",
          work=lambda a, k, r: reps(a, k).n_repetitions,
          aux=lambda a, k, r: len(r.failures))
    trials = _arg(harness.coverage_audit, "n_trials")
    patch(harness, "coverage_audit", "harness", work=lambda a, k, r: trials(a, k))
    patch(harness.CrossingFixPair, "predict_pair", "harness")

    for cls in (forest.QuantileForestRegressor, forest.ForestMeanRegressor):
        patch(cls, "fit", "forest.fit", work=n_trees)
    for name in ("predict_pair", "predict_quantile"):
        patch(forest.QuantileForestRegressor, name, "forest.quantile_readout",
              work=rows_times_trees, aux=readout_key)
    patch(forest.ForestMeanRegressor, "predict", "forest.mean_readout",
          work=rows_times_trees, aux=readout_key)

    patch(linear.LinearPinballModel, "fit", "linear.fit", work=lambda a, k, r: a[0].epochs)
    patch(linear.LinearPinballModel, "predict", "linear.predict")
    for cls, fit, predict in (
        (linear.LinearQuantilePair, "fit", "predict_pair"),
        (linear.LinearMedianRegressor, "fit", "predict"),
    ):
        patch(cls, fit, "linear.fit")
        patch(cls, predict, "linear.predict")

    for name in ("split_conformal_calibrate", "local_conformal_calibrate",
                 "cqr_calibrate", "cqr_asym_calibrate"):
        y_cal = _arg(getattr(conformal, name), "y_cal")
        patch(conformal, name, "conformal.calibrate",
              work=lambda a, k, r, y_cal=y_cal: len(y_cal(a, k)))
    patch(conformal.ConformalBand, "predict_interval", "conformal.interval",
          work=lambda a, k, r: len(r[0]))

    patch(quantiles.SortedSample, "__init__", "quantiles.sorted_sample", work=lambda a, k, r: 1)
    patch(quantiles.SortedSample, "inflated_quantile", "quantiles.sorted_sample")

    patch(datagen, "generate", "datagen.generate")
    for name in ("standardize_fit", "standardize_apply", "standardize_invert"):
        patch(datagen, name, "datagen.standardize")
    patch(datagen.OracleQuantiles, "quantile", "datagen.oracle_quantile",
          work=lambda a, k, r: np.size(r))
    patch(datagen.OracleQuantileRegressor, "predict_pair", "datagen.oracle_quantile")

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def _per(total, count, scale):
    return scale * total / count if count else 0.0


def _durations(a: dict):
    """(duration, self time) of every span, in seconds."""
    dur = (a["end_ns"] - a["start_ns"]) / 1e9
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur, dur - child


def pass_metrics(log: SpanLog) -> list[dict]:
    """Per-layer metrics of each traced pass (each ``PASS`` span is a root)."""
    a = log.arrays()
    layer = a["layer"]
    _, self_s = _durations(a)
    pass_of = np.cumsum(layer == _ID[PASS]) - 1
    out = []
    for p in range(int(pass_of.max()) + 1 if layer.size else 0):
        sel = pass_of == p

        def agg(name, field="self"):
            m = sel & (layer == _ID[name])
            if field == "self":
                return float(self_s[m].sum())
            if field == "count":
                return int(m.sum())
            return float(a["work"][m].sum())

        readouts = sel & ((layer == _ID["forest.quantile_readout"]) | (layer == _ID["forest.mean_readout"]))
        keys = a["aux"][readouts]
        fit_s, trees = agg("forest.fit"), agg("forest.fit", "work")
        q_s, q_qt = agg("forest.quantile_readout"), agg("forest.quantile_readout", "work")
        m_s, m_qt = agg("forest.mean_readout"), agg("forest.mean_readout", "work")
        o_s, o_pts = agg("datagen.oracle_quantile"), agg("datagen.oracle_quantile", "work")
        c_s, c_rows = agg("conformal.calibrate"), agg("conformal.calibrate", "work")
        lf_s, epochs = agg("linear.fit"), agg("linear.fit", "work")
        harness_spans = sel & (layer == _ID["harness"])
        out.append({
            "forest.fit_s": fit_s,
            "forest.fits": agg("forest.fit", "count"),
            "forest.trees_grown": int(trees),
            "forest.fit_ms_per_tree": _per(fit_s, trees, 1e3),
            "forest.quantile_readout_s": q_s,
            "forest.quantile_query_trees": int(q_qt),
            "forest.quantile_us_per_query_tree": _per(q_s, q_qt, 1e6),
            "forest.mean_readout_s": m_s,
            "forest.mean_query_trees": int(m_qt),
            "forest.routing_us_per_query_tree": _per(m_s, m_qt, 1e6),
            # no readouts wastes nothing
            "forest.distinct_readout_ratio": np.unique(keys).size / keys.size if keys.size else 1.0,
            "datagen.oracle_quantile_s": o_s,
            "datagen.oracle_points": int(o_pts),
            "datagen.oracle_us_per_point": _per(o_s, o_pts, 1e6),
            "datagen.generate_s": agg("datagen.generate"),
            "datagen.generate_calls": agg("datagen.generate", "count"),
            "datagen.standardize_s": agg("datagen.standardize"),
            "conformal.calibrate_self_s": c_s,
            "conformal.calibrations": agg("conformal.calibrate", "count"),
            "conformal.cal_rows": int(c_rows),
            "conformal.calibrate_us_per_row": _per(c_s, c_rows, 1e6),
            "conformal.interval_self_s": agg("conformal.interval"),
            "conformal.interval_rows": int(agg("conformal.interval", "work")),
            "quantiles.sorted_sample_s": agg("quantiles.sorted_sample"),
            "quantiles.sorted_samples": int(agg("quantiles.sorted_sample", "work")),
            "linear.fit_s": lf_s,
            "linear.epochs": int(epochs),
            "linear.us_per_epoch": _per(lf_s, epochs, 1e6),
            "linear.predict_s": agg("linear.predict"),
            "harness.self_s": agg("harness"),
            "harness.units": int(a["work"][harness_spans].sum()),
            "harness.failed_units": int(a["aux"][harness_spans & (a["aux"] > 0)].sum()),
            "cli.self_s": agg("cli"),
        })
    return out


def layer_shares(log: SpanLog) -> dict:
    """Each layer's self time as a share of all traced pass time."""
    a = log.arrays()
    dur, self_s = _durations(a)
    self_s = np.bincount(a["layer"], weights=self_s, minlength=len(LAYERS))
    total = float(dur[a["layer"] == _ID[PASS]].sum())
    return {name: float(self_s[i]) / total for i, name in enumerate(LAYERS)} if total else {}

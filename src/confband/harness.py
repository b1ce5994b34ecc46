"""Experiment harness: repeated-split evaluation of the four band methods.

Each repetition draws a fresh test split, halves the remaining rows into
proper-training and calibration sets, standardizes using proper-training
statistics only, fits the requested engine, calibrates, and scores
coverage and average interval length on the test rows. Every band has one
shape: each fitted model is read once on [calibration rows; new rows], all
methods score from those shared reads, and ``_band`` (the band step of
repetitions, tuning folds and coverage-audit blocks) turns them into
plug-in values with the conformal module's ``plugin_values``, scores the
calibration part with ``conformal_correction`` and bands the rest with
``apply_correction``. Repetitions and the audit read their models through
``_EngineBundle.reader``; tuning fits and reads its fold pairs itself, in
``tune_quantile_levels``. Reads are row-wise (see ``regressors.base``), so a
row read in the stack gets the bits it gets alone; the audit reads a block
of trials at once and tuning a fold at every grid level, and ``_band``
shapes them as (trials x n) and (grid levels x n) arrays. A repetition
adds the rows of all its methods or, when any method fails, none.
Summaries average over repetitions. Lengths are in standardized response
units by default. The harness builds report text; the CLI writes the files.
Crossed pair reads are repaired with ``fix_crossing``, as in the calibrators.

Engines are referred to by name; the table ``_ENGINES`` says how each one
fills the three model roles:

- "ridge": closed-form ridge with cross-validated penalty (point predictor
  only; pair methods reject it)
- "mlp": small ReLU network (squared-error head or two-output pinball head)
- "qrf": one regression forest read as leaf means and as weighted-CDF
  quantiles, so split, local, cqr and cqr-asym all read the fitted pair;
  with local's dispersion forest, a repetition of all four grows two forests
- "linear-q": linear pinball models (median as the point predictor)
- "oracle": exact synthetic conditional summaries, for guarantee audits

Dispersion estimates for the locally adaptive method are mean regressors
fitted to the absolute residuals of the point predictor: k-nearest neighbor
averaging for the ridge and linear engines, a second network or forest for
the mlp and qrf engines, and the exact conditional mean absolute deviation
for the oracle. ``plugin_values`` clamps their reads at zero.
"""

import functools
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .conformal import (
    METHODS,
    PAIR_METHODS,
    apply_correction,
    conformal_correction,
    fix_crossing,
    plugin_values,
)
from .datagen import (
    Dataset,
    OracleDispersionRegressor,
    OracleMeanRegressor,
    OracleQuantileRegressor,
    OracleQuantiles,
    StandardizationParams,
    SyntheticSpec,
    draw_rows,
    generate,
    standardize_apply,
    standardize_fit,
)
from .quantiles import as_real, check_level
from .regressors import (
    ForestConfig,
    ForestMeanRegressor,
    KnnDispersion,
    LinearMedianRegressor,
    LinearQuantilePair,
    MlpConfig,
    MlpMeanRegressor,
    MlpQuantilePair,
    QuantileForestRegressor,
    QuantileRegressor,
    RidgeRegressor,
    cross_validate_l2,
)
from .regressors.base import (
    check_count,
    check_flag,
    check_real,
    store_python_values,
    training_rows,
)

__all__ = [
    "ENGINES",
    "PAIR_ENGINES",
    "QUANTILE_TUNING_GRID",
    "ExperimentConfig",
    "RepetitionResult",
    "MethodSummary",
    "ExperimentReport",
    "CSV_HEADER",
    "CrossingFixPair",
    "repetition_split",
    "run_experiment",
    "tune_quantile_levels",
    "coverage_audit",
    "band_comparison_demo",
]

QUANTILE_TUNING_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
# the fewest dataset rows the split protocol runs on
_MIN_SPLIT_ROWS = 40
# the most (trial, row) pairs one block of coverage-audit trials holds, so a
# block's arrays stay small whatever the trial count
_AUDIT_ROWS = 2**15


@dataclass(frozen=True)
class _Engine:
    """How one engine builds an unfitted model for each role.

    A factory takes the ``_EngineBundle`` being filled and a zero-argument
    seed source, which it calls only if its model takes a seed. ``mean="pair"``
    reads the mean from the fitted pair model instead of fitting one.
    """

    mean: Callable | str
    dispersion: Callable
    pair: Callable | None = None  # None: no quantile pair, so no pair methods
    tune_levels: bool = True  # whether quantile-level tuning applies


def _ridge_mean(b, seed):
    return RidgeRegressor(cross_validate_l2(b.X1, b.y1, n_folds=b.cfg.cv_folds, rng=b.rng))


def _knn_dispersion(b, seed):
    return KnnDispersion(k=min(b.cfg.knn_k, b.X1.shape[0]))


def _mlp_mean(b, seed):
    return MlpMeanRegressor(replace(b.cfg.mlp, seed=seed()), b.cfg.cv_folds)


_ENGINES = {
    "ridge": _Engine(mean=_ridge_mean, dispersion=_knn_dispersion),
    "mlp": _Engine(
        mean=_mlp_mean,
        dispersion=_mlp_mean,
        pair=lambda b, seed: MlpQuantilePair(replace(b.cfg.mlp, seed=seed()), b.cfg.cv_folds),
    ),
    "qrf": _Engine(
        mean="pair",
        dispersion=lambda b, seed: ForestMeanRegressor(replace(b.cfg.forest, seed=seed())),
        pair=lambda b, seed: QuantileForestRegressor(replace(b.cfg.forest, seed=seed())),
    ),
    "linear-q": _Engine(
        mean=lambda b, seed: LinearMedianRegressor(b.cfg.linear_epochs),
        dispersion=_knn_dispersion,
        pair=lambda b, seed: LinearQuantilePair(b.cfg.linear_epochs),
    ),
    "oracle": _Engine(
        mean=lambda b, seed: OracleMeanRegressor(b.oracle, b.params),
        dispersion=lambda b, seed: OracleDispersionRegressor(b.oracle, b.params),
        pair=lambda b, seed: OracleQuantileRegressor(b.oracle, b.params),
        tune_levels=False,
    ),
}
ENGINES = tuple(_ENGINES)
# engines that can fill the pair methods and the coverage audit
PAIR_ENGINES = tuple(name for name, engine in _ENGINES.items() if engine.pair is not None)


class CrossingFixPair(QuantileRegressor):
    """Wraps a quantile regressor, repairing crossings; holds no state of its own.

    The calibrators now repair crossed pairs themselves; the class goes once
    the benchmark's tracer no longer hooks its ``predict_pair``.
    """

    def __init__(self, inner: QuantileRegressor):
        self.inner = inner

    @property
    def n_features_in_(self) -> int | None:
        return self.inner.n_features_in_

    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "CrossingFixPair":
        self.inner.fit(X, y, alpha_lo, alpha_hi)
        return self

    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        return fix_crossing(*self.inner.predict_pair(X))


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol settings for ``run_experiment``.

    ``forest``, ``mlp``, ``knn_k``, and ``linear_epochs`` configure the
    engines; their seeds are replaced per repetition so repetitions stay
    independent but reproducible from ``seed``.
    """

    methods: tuple[str, ...] = ("cqr",)
    engine: str = "qrf"
    alpha: float = 0.1
    n_repetitions: int = 20
    test_fraction: float = 0.2
    calibration_fraction_of_train: float = 0.5
    tune_quantiles: bool = False
    cv_folds: int = 5
    gamma: float = 1.0
    seed: int = 0
    forest: ForestConfig = ForestConfig()
    mlp: MlpConfig = MlpConfig()
    knn_k: int = 11
    linear_epochs: int = 2000
    report_original_units: bool = False

    def __post_init__(self):
        check_level(self.alpha)
        if isinstance(self.methods, str) or not isinstance(self.methods, Sequence):
            raise ValueError(f"methods must be a sequence of method names, got {self.methods!r}")
        # a tuple, so the frozen config stays hashable
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for i, m in enumerate(self.methods):
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} is listed more than once")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if _ENGINES[self.engine].pair is None:
            for m in self.methods:
                if m in PAIR_METHODS:
                    raise ValueError(
                        f"engine {self.engine!r} cannot produce quantile pairs for "
                        f"method {m!r}; use one of {PAIR_ENGINES}"
                    )
        check_count("n_repetitions", self.n_repetitions)
        for name in ("test_fraction", "calibration_fraction_of_train"):
            frac = getattr(self, name)
            if not 0.0 < as_real(name, frac) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {frac}")
        check_real("gamma", self.gamma)
        check_count("seed", self.seed, minimum=0)
        check_count("cv_folds", self.cv_folds, minimum=2)
        check_count("knn_k", self.knn_k)
        check_count("linear_epochs", self.linear_epochs)
        check_flag("tune_quantiles", self.tune_quantiles)
        check_flag("report_original_units", self.report_original_units)
        for name, kind in (("forest", ForestConfig), ("mlp", MlpConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        store_python_values(self)


@dataclass(frozen=True)
class RepetitionResult:
    """Test-set metrics for one (method, repetition) cell."""

    method: str
    repetition: int
    coverage: float
    avg_length: float
    tail_lo_miss: float
    tail_hi_miss: float
    n_crossings_fixed: int
    alpha_nominal: float | None = None


@dataclass(frozen=True)
class MethodSummary:
    """Across-repetition aggregates for one method (Table-style row)."""

    method: str
    avg_length: float
    sd_length: float
    avg_coverage: float
    sd_coverage: float
    tail_lo_miss: float
    tail_hi_miss: float
    n_reps: int


CSV_HEADER = ",".join(f.name for f in fields(MethodSummary))


def _columns(row_type, values: dict, number) -> dict:
    """A report row's columns in field order, ``number`` applied to float fields."""
    return {
        f.name: number(values[f.name]) if f.type is float else values[f.name]
        for f in fields(row_type)
    }


def _num(x: float):
    """JSON-safe number: non-finite floats become strings."""
    x = float(x)
    return x if math.isfinite(x) else str(x)


def _csv_num(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a run produced: config echo, per-repetition rows, summaries."""

    config: dict
    summaries: tuple[MethodSummary, ...]
    repetitions: tuple[RepetitionResult, ...]
    failures: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "summaries": [_columns(MethodSummary, vars(s), _num) for s in self.summaries],
            "repetitions": [
                _columns(RepetitionResult, vars(r), _num) for r in self.repetitions
            ],
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for s in self.summaries:
            cells = _columns(MethodSummary, vars(s), _csv_num).values()
            lines.append(",".join(map(str, cells)))
        return "\n".join(lines) + "\n"


def repetition_split(n: int, cfg: ExperimentConfig, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One repetition's (test, proper-training, calibration) row indices."""
    order = rng.permutation(n)
    n_test = int(round(cfg.test_fraction * n))
    n_test = min(max(n_test, 1), n - 2)
    test_idx = order[:n_test]
    train = order[n_test:]
    n_cal = int(round(cfg.calibration_fraction_of_train * train.size))
    n_cal = min(max(n_cal, 1), train.size - 1)
    i2 = train[:n_cal]
    i1 = train[n_cal:]
    return test_idx, i1, i2


class _EngineBundle:
    """Lazily fits one engine's models on one set of training rows.

    Models are cached so methods sharing a fitted predictor (split and
    local share the point predictor; cqr and cqr-asym share the quantile
    pair; with qrf the pair's forest is the point predictor too) do not
    refit. ``reader(X)`` is the one way to read them. Fits happen at first
    use, so RNG draws happen in a fixed order and results are reproducible
    for a fixed method list.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        X1: np.ndarray,
        y1: np.ndarray,
        rng,
        oracle: OracleQuantiles | None,
        params: StandardizationParams | None,
    ):
        self.cfg = cfg
        self.engine = _ENGINES[cfg.engine]
        self.X1 = X1
        self.y1 = y1
        self.rng = rng
        self.oracle = oracle
        self.params = params
        self._models: dict[str, object] = {}
        self.alpha_nominal: float | None = None
        self.n_crossed = 0  # crossed points among the pair reads, before the fix

    def draw_seed(self) -> int:
        return int(self.rng.integers(2**63))

    def model(self, role: str):
        """The fitted "mean", "dispersion" or "pair" model, fitted at first use."""
        if role not in self._models:
            self._models[role] = self._fit(role)
        return self._models[role]

    def _fit(self, role: str):
        """Fit a role; the dispersion fits the mean's residuals, the pair levels tuned if asked."""
        cfg, X1, y1 = self.cfg, self.X1, self.y1
        if role == "mean":
            if self.engine.mean == "pair":
                return self.model("pair")
            return self.engine.mean(self, self.draw_seed).fit(X1, y1)
        if role == "dispersion":
            residuals = np.abs(y1 - self.reader(X1)("mean"))
            return self.engine.dispersion(self, self.draw_seed).fit(X1, residuals)
        # tuning serves only the pair methods' bands; a qrf mean reads alike at any level
        if cfg.tune_quantiles and self.engine.tune_levels and set(PAIR_METHODS) & set(cfg.methods):
            tuning_seed = self.draw_seed()
            levels = tune_quantile_levels(
                lambda: self.engine.pair(self, lambda: tuning_seed),
                X1, y1, cfg.alpha, cfg.cv_folds, np.random.default_rng(self.draw_seed()),
            )
            self.alpha_nominal = round(2.0 * levels[0], 12)
        else:
            levels = (cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0)
        return self.engine.pair(self, self.draw_seed).fit(X1, y1, *levels)

    def reader(self, X: np.ndarray):
        """``read(role)``: the fitted "mean", "dispersion" or "pair" model on X, read once.

        Crossed points of a pair read are counted (the ``n_crossings_fixed`` of
        cqr and cqr-asym), then repaired with ``fix_crossing``.
        """

        @functools.cache
        def read(role: str):
            if role != "pair":
                return self.model(role).predict(X)
            lo, hi = self.model("pair").predict_pair(X)
            self.n_crossed += int(np.sum(np.asarray(lo) > np.asarray(hi)))
            return fix_crossing(lo, hi)

        return read


def _band(method: str, read, y_cal, alpha: float, gamma: float | None):
    """``(correction, lo, hi)``: ``method`` calibrated on the first rows read, applied to the rest.

    ``read`` reads [calibration rows; new rows], ``y_cal`` the first part; cqr-asym scores
    each tail at alpha / 2. ``y_cal`` is 1-D for a repetition, (grid levels x n_cal) for a
    tuning fold or (trials x n_cal) for an audit block, one band a row; each array read is
    then reshaped to (rows of ``y_cal`` x n), so a block may be read flat.
    """
    levels = (alpha / 2.0, alpha / 2.0) if method == "cqr-asym" else (alpha, None)
    shape = (*y_cal.shape[:-1], -1)
    values = [np.reshape(v, shape) if np.ndim(v) else v for v in plugin_values(method, read, gamma)]
    n_cal = y_cal.shape[-1]
    cal = [v[..., :n_cal] if np.ndim(v) else v for v in values]
    new = [v[..., n_cal:] if np.ndim(v) else v for v in values]
    correction = conformal_correction(*cal, y_cal, *levels)
    return correction, *apply_correction(correction, *new)


def _evaluate(lo, hi, y_test, length_scale: float):
    """(coverage, mean length, lower-tail miss rate, upper-tail miss rate) over the last axis.

    A 1-D call gives floats; a (trials x n) block gives each row those bits.
    """
    n = y_test.shape[-1]
    # an exact count over n rounds like np.mean of the boolean mask
    stats = (
        np.count_nonzero((y_test >= lo) & (y_test <= hi), axis=-1) / n,
        np.mean(hi - lo, axis=-1) * length_scale,
        np.count_nonzero(y_test < lo, axis=-1) / n,
        np.count_nonzero(y_test > hi, axis=-1) / n,
    )
    return stats if y_test.ndim > 1 else tuple(map(float, stats))


def _run_repetition(
    cfg: ExperimentConfig,
    dataset: Dataset,
    oracle: OracleQuantiles | None,
    rep: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[list[RepetitionResult], list, _EngineBundle]:
    """Split, standardize, fit, calibrate and score every method once.

    Every method scores from the bundle's shared reads: each fitted model
    is read once on the calibration and test rows stacked, and test rows
    never enter a fit or a correction. Returns the per-method
    rows, each method's correction in the same order and the bundle, which
    holds the fitted models and the repetition's standardization. A failure
    in any method raises, so a repetition contributes all of its rows or
    none.
    """
    rng = np.random.default_rng(seed_seq)
    test_idx, i1, i2 = repetition_split(dataset.n_rows, cfg, rng)
    params = standardize_fit(dataset.X[i1], dataset.y[i1])
    X1, y1 = standardize_apply(params, dataset.X[i1], dataset.y[i1])
    new = np.concatenate((i2, test_idx))
    X, y = standardize_apply(params, dataset.X[new], dataset.y[new])
    y2, yt = y[: i2.size], y[i2.size :]
    length_scale = params.response_scale if cfg.report_original_units else 1.0
    bundle = _EngineBundle(cfg, X1, y1, rng, oracle, params)
    read = bundle.reader(X)
    rows, corrections = [], []
    for method in cfg.methods:
        correction, lo, hi = _band(method, read, y2, cfg.alpha, cfg.gamma)
        coverage, avg_len, miss_lo, miss_hi = _evaluate(lo, hi, yt, length_scale)
        pair = method in PAIR_METHODS
        rows.append(
            RepetitionResult(
                method=method,
                repetition=rep,
                coverage=coverage,
                avg_length=avg_len,
                tail_lo_miss=miss_lo,
                tail_hi_miss=miss_hi,
                n_crossings_fixed=bundle.n_crossed if pair else 0,
                alpha_nominal=bundle.alpha_nominal if pair else None,
            )
        )
        corrections.append(correction)
    return rows, corrections, bundle


def run_experiment(
    cfg: ExperimentConfig,
    dataset: Dataset,
    oracle: OracleQuantiles | None = None,
) -> ExperimentReport:
    """Run the repeated-split protocol and aggregate per-method metrics.

    ``oracle`` enables the "oracle" engine on synthetic data. Engine
    failures abort their repetition, which then adds no rows, and are
    recorded in the report's ``failures`` list rather than silently skipped.
    """
    n = dataset.n_rows
    if n < _MIN_SPLIT_ROWS:
        raise ValueError(f"need at least {_MIN_SPLIT_ROWS} rows for the split protocol, got {n}")
    if cfg.engine == "oracle" and oracle is None:
        raise ValueError("engine 'oracle' requires synthetic data")

    rows: list[RepetitionResult] = []
    failures: list[dict] = []
    rep_seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.n_repetitions)
    for rep, seq in enumerate(rep_seqs):
        try:
            rep_rows, _, _ = _run_repetition(cfg, dataset, oracle, rep, seq)
        # LinAlgError subclasses ValueError at numpy 2.4, but that has not been checked
        # at numpy 1.24, the oldest release pyproject.toml allows, so it stays named
        except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
            failures.append({"repetition": rep, "error": str(exc)})
            continue
        rows.extend(rep_rows)

    if not rows:
        raise RuntimeError(
            f"every repetition failed; first error: {failures[0]['error']}"
        )
    summaries = summarize(rows, cfg.methods)
    return ExperimentReport(
        config=_config_echo(cfg, dataset),
        summaries=tuple(summaries),
        repetitions=tuple(rows),
        failures=tuple(failures),
    )


def summarize(rows, method_order) -> list[MethodSummary]:
    out = []
    for method in method_order:
        ours = [r for r in rows if r.method == method]
        if not ours:
            continue
        lengths = np.array([r.avg_length for r in ours])
        coverages = np.array([r.coverage for r in ours])
        out.append(
            MethodSummary(
                method=method,
                avg_length=float(np.mean(lengths)),
                sd_length=float(np.std(lengths, ddof=1)) if len(ours) > 1 else 0.0,
                avg_coverage=float(np.mean(coverages)),
                sd_coverage=float(np.std(coverages, ddof=1)) if len(ours) > 1 else 0.0,
                tail_lo_miss=float(np.mean([r.tail_lo_miss for r in ours])),
                tail_hi_miss=float(np.mean([r.tail_hi_miss for r in ours])),
                n_reps=len(ours),
            )
        )
    return out


def _config_echo(cfg: ExperimentConfig, dataset: Dataset) -> dict:
    return {
        "methods": list(cfg.methods),
        "engine": cfg.engine,
        "alpha": cfg.alpha,
        "n_repetitions": cfg.n_repetitions,
        "test_fraction": cfg.test_fraction,
        "calibration_fraction_of_train": cfg.calibration_fraction_of_train,
        "tune_quantiles": cfg.tune_quantiles,
        "cv_folds": cfg.cv_folds,
        "gamma": cfg.gamma,
        "seed": cfg.seed,
        "n_rows": dataset.n_rows,
        "n_features": dataset.X.shape[1],
        "report_original_units": cfg.report_original_units,
    }


def tune_quantile_levels(
    make_pair,
    X1,
    y1,
    alpha: float,
    cv_folds: int,
    rng,
    grid: tuple[float, ...] = QUANTILE_TUNING_GRID,
) -> tuple[float, float]:
    """Pick nominal fit levels by cross-validated mean interval length.

    Each grid point alpha_nom maps to the symmetric pair
    (alpha_nom / 2, 1 - alpha_nom / 2). Per fold, the non-validation rows
    are halved into fit and calibration parts, the pair is read on both
    parts at every grid level as one (2 x grid x rows) block, and ``_band``
    and ``_evaluate`` conformalize each level at the target ``alpha`` and
    score its mean length on the validation fold, all levels at once; the
    least mean over the folds wins, ties to the grid point nearest ``alpha``.
    A pair with a read at any levels (see ``QuantileRegressor``) is fitted
    once per fold (a k-fold tuned qrf repetition grows k + 1 forests), any
    other once per fold and grid level.
    """
    if len(grid) == 0:
        raise ValueError("tuning grid must be non-empty")
    check_level(alpha)
    grid = [check_level(nominal) for nominal in grid]
    check_count("cv_folds", cv_folds, minimum=2)
    X1, y1 = training_rows(X1, y1)
    n = X1.shape[0]
    if n < cv_folds:
        raise ValueError(f"need at least {cv_folds} rows for {cv_folds}-fold CV")
    order = rng.permutation(n)
    pairs = [(nominal / 2.0, 1.0 - nominal / 2.0) for nominal in grid]
    shared = hasattr(make_pair(), "predict_quantile")  # see QuantileRegressor
    total = 0.0  # each grid level's lengths, added in fold order
    for val in (order[f::cv_folds] for f in range(cv_folds)):
        rest = np.delete(np.arange(n), val)[rng.permutation(n - val.size)]
        fit, cal = rest[: rest.size // 2], rest[rest.size // 2 :]
        rows = X1[np.concatenate((cal, val))]
        fitted = (make_pair().fit(X1[fit], y1[fit], *lv) for lv in pairs)
        if shared:
            q = next(fitted).predict_quantile(rows, np.transpose(pairs))
        else:
            q = np.stack([pair.predict_pair(rows) for pair in fitted], axis=1)
        read = fix_crossing(*q)
        y_cal, y_val = (np.broadcast_to(y1[i], (len(grid), i.size)) for i in (cal, val))
        _, lo, hi = _band("cqr", lambda role: read, y_cal, alpha, None)
        total = total + _evaluate(lo, hi, y_val, 1.0)[1]
    nominal = min(zip(total / cv_folds, [abs(g - alpha) for g in grid], grid))[2]
    return nominal / 2.0, 1.0 - nominal / 2.0


def band_comparison_demo(
    n: int = 2000,
    seed: int = 0,
    alpha: float = 0.1,
    gamma: float = 1.0,
    n_trees: int = 1000,
    grid_size: int = 501,
    kind: str = "heteroscedastic_outliers",
) -> tuple[list[MethodSummary], dict[str, np.ndarray]]:
    """Fit the three forest-backed bands on one split of synthetic data.

    Returns single-repetition summaries for the fixed-width, locally
    adaptive, and quantile-pair methods, plus interval bounds over an
    evenly spaced feature grid in original response units (for plotting).
    """
    check_count("n", n, minimum=_MIN_SPLIT_ROWS)
    check_count("grid_size", grid_size)
    cfg = ExperimentConfig(
        methods=("split", "local", "cqr"),
        engine="qrf",
        alpha=alpha,
        n_repetitions=1,
        gamma=gamma,
        seed=seed,
        forest=ForestConfig(n_trees=n_trees),
    )
    dataset, oracle = generate(SyntheticSpec(kind=kind, n=n, seed=seed))
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    rows, corrections, bundle = _run_repetition(cfg, dataset, oracle, 0, seq)

    params = bundle.params
    grid_raw = np.linspace(0.0, 5.0, grid_size)[:, None]
    read = bundle.reader(standardize_apply(params, grid_raw))
    bounds: dict[str, np.ndarray] = {"x": grid_raw[:, 0]}
    for method, correction in zip(cfg.methods, corrections):
        lo, hi = apply_correction(correction, *plugin_values(method, read, cfg.gamma))
        bounds[f"{method}_lo"] = lo * params.response_scale
        bounds[f"{method}_hi"] = hi * params.response_scale
    return summarize(rows, cfg.methods), bounds


def coverage_audit(
    n_trials: int,
    alpha: float = 0.1,
    n_calibration: int = 99,
    n_test: int = 200,
    n_train: int = 500,
    engine: str = "linear-q",
    kind: str = "heteroscedastic",
    seed: int = 0,
) -> dict:
    """Monte Carlo check of the finite-sample coverage guarantee.

    One quantile pair (``engine``, default settings) is fitted once, before
    any trial seed is drawn; each trial redraws calibration and test rows
    from the same law, recalibrates and scores coverage. Trials run in
    blocks of at most ``_AUDIT_ROWS`` rows: a block draws every trial's rows
    from that trial's seed (``draw_rows``), and ``_band`` calibrates and
    bands every trial at once from the bundle's reader on the block's flat
    rows. Reads are row-wise (see ``regressors.base``), so each trial gets
    the bits its own rows would give it alone. For continuous data the pooled
    coverage should land in [1 - alpha, 1 - alpha + 1/(n_calibration + 1)]
    up to binomial noise. The standard error comes from the trials' spread,
    so an audit needs at least two trials.
    """
    n_trials = check_count("n_trials", n_trials, minimum=2)
    n_calibration, n_test, n_train = map(
        check_count, ("n_calibration", "n_test", "n_train"), (n_calibration, n_test, n_train),
    )
    # engine settings are the config defaults, in raw units; the config
    # rejects an engine without a quantile pair
    cfg = ExperimentConfig(engine=engine, alpha=alpha, seed=seed)
    rng = np.random.default_rng(cfg.seed)
    train, oracle = generate(
        SyntheticSpec(kind=kind, n=n_train, seed=int(rng.integers(2**63)))
    )
    bundle = _EngineBundle(cfg, train.X, train.y, rng, oracle, None)
    bundle.model("pair")  # the fit draws from the audit RNG, before any trial seed
    trial = SyntheticSpec(kind=kind, n=n_calibration + n_test)
    per_trial = np.empty(n_trials)
    block = max(1, _AUDIT_ROWS // trial.n)
    for start in range(0, n_trials, block):
        # the trials' seeds come from the audit RNG in trial order
        seeds = [int(rng.integers(2**63)) for _ in range(min(block, n_trials - start))]
        x, y, _ = draw_rows(trial, seeds)
        read = bundle.reader(x.reshape(-1, 1))
        _, lo, hi = _band("cqr", read, y[:, :n_calibration], cfg.alpha, None)
        per_trial[start : start + len(seeds)] = _evaluate(lo, hi, y[:, n_calibration:], 1.0)[0]

    pooled = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / np.sqrt(n_trials))
    lower = 1.0 - cfg.alpha
    upper = 1.0 - cfg.alpha + 1.0 / (n_calibration + 1)
    return {
        "n_trials": n_trials,
        "alpha": cfg.alpha,
        "n_calibration": n_calibration,
        "n_test_per_trial": n_test,
        "engine": engine,
        "kind": kind,
        "pooled_coverage": pooled,
        "se": se,
        "lower_bound": lower,
        "upper_bound": upper,
        "within_bounds_4se": bool(lower - 4 * se <= pooled <= upper + 4 * se),
    }

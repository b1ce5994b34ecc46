"""Experiment harness: repeated-split evaluation of the four band methods.

Each repetition draws a fresh test split, halves the remaining rows into
proper-training and calibration sets, standardizes using proper-training
statistics only, fits the requested engine, calibrates, and scores
coverage and average interval length on the test rows. Each fitted model
is read once per row set (proper-training, calibration, test), and every
method scores from those shared reads: split and local share the mean
reads, cqr and cqr-asym the quantile pair reads. In ``_band``, the one
band step of repetitions, tuning folds and audit trials, the conformal
module's ``plugin_values`` turns reads into plug-in values, and its two
pure steps do the rest: ``conformal_correction`` on the calibration rows,
``apply_correction`` on the new rows. A repetition adds the rows of all
its methods or, when any method fails, none. Summaries average over
repetitions. Lengths are in standardized response units by default.

Engines are referred to by name; the table ``_ENGINES`` says how each one
fills the three model roles:

- "ridge": closed-form ridge with cross-validated penalty (point predictor
  only; pair methods reject it)
- "mlp": small ReLU network (squared-error head or two-output pinball head)
- "qrf": regression forest (leaf-mean readout or weighted-CDF quantiles)
- "linear-q": linear pinball models (median as the point predictor)
- "oracle": exact synthetic conditional summaries, for guarantee audits

Dispersion estimates for the locally adaptive method come from k-nearest
neighbor averaging of absolute residuals for the ridge and linear engines,
from a fresh copy of the engine's own mean regressor (clamped at zero) for
the mlp and qrf engines, and from the exact conditional mean absolute
deviation for the oracle.
"""

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

import numpy as np

from .conformal import (
    METHODS,
    PAIR_METHODS,
    apply_correction,
    conformal_correction,
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
    generate,
    standardize_apply,
    standardize_fit,
)
from .quantiles import check_level
from .regressors import (
    ForestConfig,
    ForestMeanRegressor,
    KnnDispersion,
    LinearMedianRegressor,
    LinearQuantilePair,
    MlpConfig,
    MlpMeanRegressor,
    MlpQuantilePair,
    NonNegativeDispersion,
    QuantileForestRegressor,
    QuantileRegressor,
    RidgeRegressor,
    cross_validate_l2,
)
from .regressors.base import as_matrix, as_vector, check_count, check_real

__all__ = [
    "METHODS",
    "ENGINES",
    "PAIR_ENGINES",
    "QUANTILE_TUNING_GRID",
    "ExperimentConfig",
    "RepetitionResult",
    "MethodSummary",
    "ExperimentReport",
    "CSV_HEADER",
    "fix_crossing",
    "CrossingFixPair",
    "repetition_split",
    "run_experiment",
    "tune_quantile_levels",
    "coverage_audit",
    "band_comparison_demo",
    "emit_report",
]

QUANTILE_TUNING_GRID = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
# the fewest dataset rows the split protocol runs on
_MIN_SPLIT_ROWS = 40


@dataclass(frozen=True)
class _Engine:
    """How one engine builds an unfitted model for each role.

    A factory takes the ``_EngineBundle`` being filled and a zero-argument
    seed source, which it calls only if its model takes a seed.
    """

    mean: Callable
    dispersion: Callable
    pair: Callable | None = None  # None: no quantile pair, so no pair methods
    tune_levels: bool = True  # whether quantile-level tuning applies


def _ridge_mean(b, seed):
    return RidgeRegressor(cross_validate_l2(b.X1, b.y1, n_folds=b.cfg.cv_folds, rng=b.rng))


def _knn_dispersion(b, seed):
    return KnnDispersion(k=min(b.cfg.knn_k, b.X1.shape[0]))


def _clamped_mean_dispersion(b, seed):
    return NonNegativeDispersion(b.engine.mean(b, seed))


_ENGINES = {
    "ridge": _Engine(mean=_ridge_mean, dispersion=_knn_dispersion),
    "mlp": _Engine(
        mean=lambda b, seed: MlpMeanRegressor(replace(b.cfg.mlp, seed=seed()), b.cfg.cv_folds),
        dispersion=_clamped_mean_dispersion,
        pair=lambda b, seed: MlpQuantilePair(replace(b.cfg.mlp, seed=seed()), b.cfg.cv_folds),
    ),
    "qrf": _Engine(
        mean=lambda b, seed: ForestMeanRegressor(replace(b.cfg.forest, seed=seed())),
        dispersion=_clamped_mean_dispersion,
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


def fix_crossing(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise repair of crossed quantile estimates: (min, max) per point."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.minimum(lo, hi), np.maximum(lo, hi)


class CrossingFixPair(QuantileRegressor):
    """Wraps a quantile regressor, repairing crossings; holds no state of its own."""

    def __init__(self, inner: QuantileRegressor):
        self.inner = inner

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
        for name, frac in (
            ("test_fraction", self.test_fraction),
            ("calibration_fraction_of_train", self.calibration_fraction_of_train),
        ):
            if not 0.0 < frac < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {frac}")
        check_real("gamma", self.gamma)
        check_count("cv_folds", self.cv_folds, minimum=2)
        check_count("knn_k", self.knn_k)
        check_count("linear_epochs", self.linear_epochs)


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

    @staticmethod
    def from_json(text: str) -> "ExperimentReport":
        d = json.loads(text)
        return ExperimentReport(
            config=d["config"],
            summaries=tuple(
                MethodSummary(**_columns(MethodSummary, s, float)) for s in d["summaries"]
            ),
            repetitions=tuple(
                RepetitionResult(**_columns(RepetitionResult, r, float))
                for r in d["repetitions"]
            ),
            failures=tuple(d["failures"]),
        )

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for s in self.summaries:
            cells = _columns(MethodSummary, vars(s), _csv_num).values()
            lines.append(",".join(map(str, cells)))
        return "\n".join(lines) + "\n"


def _check_report_path(path: str) -> None:
    if not path.endswith((".csv", ".json")):
        raise ValueError(f"output path must end with .csv or .json, got {path!r}")


def emit_report(report: ExperimentReport, path: str) -> None:
    """Write the report as CSV or JSON depending on the file extension."""
    _check_report_path(path)
    text = report.to_csv() if path.endswith(".csv") else report.to_json()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    """Lazily fits one engine's models on one set of training rows and reads them.

    Models are cached so methods sharing a fitted predictor (split and
    local share the point predictor; cqr and cqr-asym share the quantile
    pair) do not refit. ``read`` reads a fitted model on a named row set
    once and hands every later caller the same values. Fits and reads
    happen at first use, so RNG draws happen in a fixed order and results
    are reproducible for a fixed method list.
    """

    def __init__(
        self,
        cfg: ExperimentConfig,
        X1: np.ndarray,
        y1: np.ndarray,
        rng,
        oracle: OracleQuantiles | None,
        params: StandardizationParams | None,
        rows: dict[str, np.ndarray] | None = None,
    ):
        self.cfg = cfg
        self.engine = _ENGINES[cfg.engine]
        self.X1 = X1
        self.y1 = y1
        self.rng = rng
        self.oracle = oracle
        self.params = params
        self.rows = {"X1": X1, **(rows or {})}
        self._mean = None
        self._dispersion = None
        self._pair: QuantileRegressor | None = None
        self._reads: dict[tuple[str, str], object] = {}
        self.alpha_nominal: float | None = None
        self.n_crossed = 0  # crossed points among the pair reads, before the fix

    def draw_seed(self) -> int:
        return int(self.rng.integers(2**63))

    def mean_model(self):
        if self._mean is None:
            self._mean = self.engine.mean(self, self.draw_seed).fit(self.X1, self.y1)
        return self._mean

    def dispersion_model(self):
        if self._dispersion is None:
            residuals = np.abs(self.y1 - self.read("mean", "X1"))
            model = self.engine.dispersion(self, self.draw_seed)
            self._dispersion = model.fit(self.X1, residuals)
        return self._dispersion

    def quantile_model(self) -> QuantileRegressor:
        """Fitted quantile pair, at tuned or default levels."""
        if self._pair is None:
            cfg = self.cfg
            if cfg.tune_quantiles and self.engine.tune_levels:
                tuning_seed = self.draw_seed()
                levels = tune_quantile_levels(
                    lambda: self.engine.pair(self, lambda: tuning_seed),
                    self.X1,
                    self.y1,
                    cfg.alpha,
                    cfg.cv_folds,
                    np.random.default_rng(self.draw_seed()),
                )
                self.alpha_nominal = round(2.0 * levels[0], 12)
            else:
                levels = (cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0)
            self._pair = self.engine.pair(self, self.draw_seed).fit(self.X1, self.y1, *levels)
        return self._pair

    def read(self, role: str, at: str):
        """The fitted "mean", "dispersion" or "pair" model on row set ``at``, read once.

        Crossed points of a pair read are counted, then repaired with
        ``fix_crossing``.
        """
        key = (role, at)
        if key not in self._reads:
            X = self.rows[at]
            if role == "pair":
                lo, hi = self.quantile_model().predict_pair(X)
                self.n_crossed += int(np.sum(np.asarray(lo) > np.asarray(hi)))
                self._reads[key] = fix_crossing(lo, hi)
            else:
                model = self.mean_model() if role == "mean" else self.dispersion_model()
                self._reads[key] = model.predict(X)
        return self._reads[key]


def _band(method: str, read, cal, y_cal, new, alpha: float, gamma: float | None):
    """``(correction, lo, hi)``: ``method`` calibrated on rows ``cal``, applied to rows ``new``.

    cqr-asym scores each tail at alpha / 2; the others score both ends at once.
    """
    levels = (alpha / 2.0, alpha / 2.0) if method == "cqr-asym" else (alpha, None)
    correction = conformal_correction(*plugin_values(method, read, cal, gamma), y_cal, *levels)
    return correction, *apply_correction(correction, *plugin_values(method, read, new, gamma))


def _pair_reader(pair: QuantileRegressor):
    """``_band``'s ``read`` over a fitted pair: crossings fixed, read afresh on every call."""
    return lambda role, X: fix_crossing(*pair.predict_pair(X))


def _evaluate(lo, hi, y_test, length_scale: float):
    """(coverage, mean length, lower-tail miss rate, upper-tail miss rate)."""
    n = y_test.size
    # an exact count over n rounds like np.mean of the boolean mask
    return (
        float(np.count_nonzero((y_test >= lo) & (y_test <= hi)) / n),
        float(np.mean(hi - lo) * length_scale),
        float(np.count_nonzero(y_test < lo) / n),
        float(np.count_nonzero(y_test > hi) / n),
    )


def _run_repetition(
    cfg: ExperimentConfig,
    dataset: Dataset,
    oracle: OracleQuantiles | None,
    rep: int,
    seed_seq: np.random.SeedSequence,
) -> tuple[list[RepetitionResult], list, _EngineBundle]:
    """Split, standardize, fit, calibrate and score every method once.

    Every method scores from the bundle's shared reads: each fitted model
    is read once on the calibration rows and once on the test rows, and
    test rows never enter a fit or a correction. Returns the per-method
    rows, each method's correction in the same order and the bundle, which
    holds the fitted models and the repetition's standardization. A failure
    in any method raises, so a repetition contributes all of its rows or
    none.
    """
    rng = np.random.default_rng(seed_seq)
    test_idx, i1, i2 = repetition_split(dataset.n_rows, cfg, rng)
    params = standardize_fit(dataset.X[i1], dataset.y[i1])
    X1, y1 = standardize_apply(params, dataset.X[i1], dataset.y[i1])
    X2, y2 = standardize_apply(params, dataset.X[i2], dataset.y[i2])
    Xt, yt = standardize_apply(params, dataset.X[test_idx], dataset.y[test_idx])
    length_scale = params.response_scale if cfg.report_original_units else 1.0
    bundle = _EngineBundle(cfg, X1, y1, rng, oracle, params, {"X2": X2, "Xt": Xt})
    rows, corrections = [], []
    for method in cfg.methods:
        correction, lo, hi = _band(method, bundle.read, "X2", y2, "Xt", cfg.alpha, cfg.gamma)
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
    are halved into fit and calibration parts, the pair is conformalized at
    the target ``alpha`` by ``_band``, and the mean interval length on the
    validation fold is recorded. Ties go to the grid point nearest ``alpha``.
    """
    if not grid:
        raise ValueError("tuning grid must be non-empty")
    check_level(alpha)
    for nominal in grid:
        check_level(nominal)
    check_count("cv_folds", cv_folds, minimum=2)
    X1 = as_matrix(X1)
    y1 = as_vector(y1, X1.shape[0])
    n = X1.shape[0]
    order = rng.permutation(n)
    folds = []  # (fit, calibration, validation) rows of each fold
    for val in (order[f::cv_folds] for f in range(cv_folds)):
        rest = np.delete(np.arange(n), val)[rng.permutation(n - val.size)]
        folds.append((rest[: rest.size // 2], rest[rest.size // 2 :], val))

    best: tuple[float, float, float] | None = None  # (score, |nom-alpha|, nom)
    for nominal in grid:
        levels = (nominal / 2.0, 1.0 - nominal / 2.0)
        total = 0.0
        for fit, cal, val in folds:
            pair = make_pair()
            pair.fit(X1[fit], y1[fit], *levels)
            _, lo, hi = _band("cqr", _pair_reader(pair), X1[cal], y1[cal], X1[val], alpha, None)
            total += _evaluate(lo, hi, y1[val], 1.0)[1]
        key = (total / cv_folds, abs(nominal - alpha), nominal)
        if best is None or key < best:
            best = key
    nominal = best[2]
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

    # the grid is one more row set, so each fitted model is read on it once
    params = bundle.params
    grid_raw = np.linspace(0.0, 5.0, grid_size)[:, None]
    bundle.rows["grid"] = standardize_apply(params, grid_raw)
    bounds: dict[str, np.ndarray] = {"x": grid_raw[:, 0]}
    for method, correction in zip(cfg.methods, corrections):
        grid = plugin_values(method, bundle.read, "grid", cfg.gamma)
        lo, hi = apply_correction(correction, *grid)
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

    One quantile pair is fitted once; each trial redraws calibration and
    test rows from the same law, recalibrates with ``_band`` and scores coverage. For
    continuous data the pooled coverage should land in
    [1 - alpha, 1 - alpha + 1/(n_calibration + 1)] up to binomial noise.
    """
    for name, count in (
        ("n_trials", n_trials), ("n_calibration", n_calibration), ("n_test", n_test),
        ("n_train", n_train),
    ):
        check_count(name, count)
    if engine not in PAIR_ENGINES:
        raise ValueError(
            f"engine {engine!r} cannot produce quantile pairs; use one of {PAIR_ENGINES}"
        )
    # engine settings are the config defaults, in raw units
    cfg = ExperimentConfig(engine=engine, alpha=alpha)
    rng = np.random.default_rng(seed)
    train, oracle = generate(
        SyntheticSpec(kind=kind, n=n_train, seed=int(rng.integers(2**63)))
    )
    bundle = _EngineBundle(cfg, train.X, train.y, rng, oracle, None)
    read = _pair_reader(bundle.quantile_model())

    per_trial = np.empty(n_trials)
    base = SyntheticSpec(kind=kind, n=n_calibration + n_test)
    for t in range(n_trials):
        ds, _ = generate(replace(base, seed=int(rng.integers(2**63))))
        cal_X, cal_y = ds.X[:n_calibration], ds.y[:n_calibration]
        _, lo, hi = _band("cqr", read, cal_X, cal_y, ds.X[n_calibration:], alpha, None)
        per_trial[t] = _evaluate(lo, hi, ds.y[n_calibration:], 1.0)[0]

    pooled = float(np.mean(per_trial))
    se = float(np.std(per_trial, ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
    lower = 1.0 - alpha
    upper = 1.0 - alpha + 1.0 / (n_calibration + 1)
    return {
        "n_trials": n_trials,
        "alpha": alpha,
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

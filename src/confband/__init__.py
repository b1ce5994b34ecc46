"""Distribution-free prediction intervals by split-style calibration.

The package builds bands with finite-sample marginal coverage around any
regression engine: fixed-width bands from absolute residuals, locally
adaptive bands from scaled residuals, and conformalized quantile-pair
bands with a shared or per-tail correction. Engines (ridge, k-NN
dispersion, linear and network pinball models, regression forests) are
self-contained, and a benchmark harness with a CLI reproduces the
repeated-split evaluation protocol.
"""

from .conformal import (
    ConformalBand,
    cqr_asym_calibrate,
    cqr_calibrate,
    local_conformal_calibrate,
    split_conformal_calibrate,
)
from .datagen import (
    Dataset,
    OracleQuantiles,
    StandardizationParams,
    SyntheticSpec,
    generate,
    load_csv,
    standardize_apply,
    standardize_fit,
    standardize_invert,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    MethodSummary,
    RepetitionResult,
    band_comparison_demo,
    coverage_audit,
    fix_crossing,
    run_experiment,
    tune_quantile_levels,
)
from .losses import PinballLoss
from .quantiles import SortedSample, check_level
from .regressors import (
    ForestConfig,
    ForestMeanRegressor,
    KnnDispersion,
    LinearPinballModel,
    LinearQuantilePair,
    MeanRegressor,
    MlpConfig,
    MlpMeanRegressor,
    MlpQuantilePair,
    QuantileForestRegressor,
    QuantileRegressor,
    RidgeRegressor,
)

__version__ = "0.1.0"

__all__ = [
    "SortedSample",
    "check_level",
    "PinballLoss",
    "ConformalBand",
    "split_conformal_calibrate",
    "local_conformal_calibrate",
    "cqr_calibrate",
    "cqr_asym_calibrate",
    "Dataset",
    "SyntheticSpec",
    "OracleQuantiles",
    "generate",
    "load_csv",
    "StandardizationParams",
    "standardize_fit",
    "standardize_apply",
    "standardize_invert",
    "ExperimentConfig",
    "ExperimentReport",
    "MethodSummary",
    "RepetitionResult",
    "run_experiment",
    "tune_quantile_levels",
    "coverage_audit",
    "band_comparison_demo",
    "fix_crossing",
    "MeanRegressor",
    "QuantileRegressor",
    "RidgeRegressor",
    "KnnDispersion",
    "LinearPinballModel",
    "LinearQuantilePair",
    "MlpConfig",
    "MlpMeanRegressor",
    "MlpQuantilePair",
    "ForestConfig",
    "ForestMeanRegressor",
    "QuantileForestRegressor",
    "__version__",
]

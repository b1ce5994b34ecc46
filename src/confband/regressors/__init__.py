"""Self-contained regression engines used to build prediction bands."""

from .base import MeanRegressor, QuantileRegressor
from .forest import ForestConfig, ForestMeanRegressor, QuantileForestRegressor
from .knn import KnnDispersion
from .linear import LinearMedianRegressor, LinearPinballModel, LinearQuantilePair
from .mlp import MlpConfig, MlpMeanRegressor, MlpNetwork, MlpQuantilePair
from .ridge import DEFAULT_L2_GRID, RidgeRegressor, cross_validate_l2

__all__ = [
    "MeanRegressor",
    "QuantileRegressor",
    "RidgeRegressor",
    "cross_validate_l2",
    "DEFAULT_L2_GRID",
    "KnnDispersion",
    "LinearPinballModel",
    "LinearQuantilePair",
    "LinearMedianRegressor",
    "MlpConfig",
    "MlpNetwork",
    "MlpMeanRegressor",
    "MlpQuantilePair",
    "ForestConfig",
    "QuantileForestRegressor",
    "ForestMeanRegressor",
]

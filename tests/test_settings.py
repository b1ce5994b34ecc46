"""Every public setting is checked where it is constructed, with a ValueError.

A value of the wrong type fails there too, before any run, fit or draw
starts: a string, bytes, a bool or None is not a real number, a float is not
a seed, and a truthy string is not a flag.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from confband.conformal import local_conformal_calibrate
from confband.datagen import SyntheticSpec, generate
from confband.harness import (
    ExperimentConfig,
    band_comparison_demo,
    coverage_audit,
    run_experiment,
    tune_quantile_levels,
)
from confband.losses import PinballLoss
from confband.quantiles import check_level
from confband.regressors import (
    ForestConfig,
    LinearMedianRegressor,
    LinearPinballModel,
    LinearQuantilePair,
    MlpConfig,
    RidgeRegressor,
)

# one entry per real-valued setting: a name for the test id and a call that
# sets it to the given value
_REAL_SETTINGS = {
    "check_level": check_level,
    "ExperimentConfig.alpha": lambda v: ExperimentConfig(alpha=v),
    "ExperimentConfig.test_fraction": lambda v: ExperimentConfig(test_fraction=v),
    "ExperimentConfig.calibration_fraction_of_train": (
        lambda v: ExperimentConfig(calibration_fraction_of_train=v)
    ),
    "ExperimentConfig.gamma": lambda v: ExperimentConfig(gamma=v),
    "SyntheticSpec.noise_scale": lambda v: SyntheticSpec(noise_scale=v),
    "SyntheticSpec.outlier_prob": lambda v: SyntheticSpec(outlier_prob=v),
    "SyntheticSpec.outlier_scale": lambda v: SyntheticSpec(outlier_scale=v),
    "MlpConfig.learning_rate": lambda v: MlpConfig(learning_rate=v),
    "MlpConfig.weight_decay": lambda v: MlpConfig(weight_decay=v),
    "MlpConfig.dropout_keep_prob": lambda v: MlpConfig(dropout_keep_prob=v),
    "LinearPinballModel.alpha": lambda v: LinearPinballModel(v),
    "LinearPinballModel.learning_rate": lambda v: LinearPinballModel(0.5, learning_rate=v),
    "LinearQuantilePair.learning_rate": lambda v: LinearQuantilePair(learning_rate=v),
    "LinearMedianRegressor.learning_rate": lambda v: LinearMedianRegressor(learning_rate=v),
    "RidgeRegressor.l2_weight": RidgeRegressor,
    "PinballLoss.alpha": PinballLoss,
    "local_conformal_calibrate.gamma": (
        lambda v: local_conformal_calibrate(None, None, None, None, 0.1, gamma=v)
    ),
    "tune_quantile_levels.alpha": lambda v: tune_quantile_levels(None, None, None, v, 2, None),
    "coverage_audit.alpha": lambda v: coverage_audit(2, alpha=v),
    "band_comparison_demo.gamma": lambda v: band_comparison_demo(gamma=v),
}


@pytest.mark.parametrize("bad", ["0.5", b"0.5", True, np.True_, None, np.array([0.1, 0.2])],
                         ids=["str", "bytes", "bool", "numpy-bool", "None", "array"])
@pytest.mark.parametrize("setting", list(_REAL_SETTINGS))
def test_a_real_setting_rejects_a_value_that_is_not_a_real_number(setting, bad):
    with pytest.raises(ValueError, match="must be a real number"):
        _REAL_SETTINGS[setting](bad)


def test_ints_and_numpy_scalars_pass_and_are_stored_as_python_values():
    cfg = ExperimentConfig(gamma=2, test_fraction=np.float32(0.25), seed=np.int64(3))
    assert type(cfg.gamma) is int and cfg.gamma == 2
    assert type(cfg.test_fraction) is float and type(cfg.seed) is int
    spec = SyntheticSpec(noise_scale=np.int64(2), outlier_prob=0, seed=np.uint8(1))
    assert type(spec.noise_scale) is int and type(spec.seed) is int and spec.outlier_prob == 0
    assert type(ForestConfig(n_trees=np.int32(5), bootstrap=np.False_).n_trees) is int
    assert type(MlpConfig(learning_rate=np.float16(0.5)).learning_rate) is float
    # other real numbers the checks take are stored as floats too
    cfg = ExperimentConfig(alpha=np.array(0.1), gamma=Decimal("0.5"), test_fraction=Fraction(1, 4))
    assert (cfg.alpha, cfg.gamma, cfg.test_fraction) == (0.1, 0.5, 0.25)
    assert {type(cfg.alpha), type(cfg.gamma), type(cfg.test_fraction)} == {float}
    assert MlpConfig(dropout_keep_prob=1).dropout_keep_prob == 1
    assert RidgeRegressor(np.int32(3)).l2_weight == 3.0
    assert check_level(np.float16(0.5)) == 0.5


def _report(**settings):
    dataset, _ = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=1))
    return run_experiment(ExperimentConfig(n_repetitions=2, **settings), dataset).to_json()


def _oracle_quantiles(**spec):
    _, oracle = generate(SyntheticSpec(n=1, **spec))
    return oracle.quantile(np.linspace(0.0, 5.0, 11), 0.9).tobytes()


# settings whose numpy scalar, kept as given, once leaked into arithmetic: a
# call that makes an output from the setting's value
_ARITHMETIC_SETTINGS = {
    "ExperimentConfig.alpha": lambda v: _report(
        methods=("cqr-asym",), engine="linear-q", alpha=v, linear_epochs=50,
    ),
    "MlpConfig.dropout_keep_prob": lambda v: _report(
        methods=("split",), engine="mlp",
        mlp=MlpConfig(hidden_width=4, max_epochs=2, dropout_keep_prob=v),
    ),
    "SyntheticSpec.outlier_prob": lambda v: _oracle_quantiles(outlier_prob=v),
    "SyntheticSpec.outlier_scale": lambda v: _oracle_quantiles(outlier_scale=v),
}


@pytest.mark.parametrize("setting", list(_ARITHMETIC_SETTINGS))
def test_a_numpy_scalar_setting_makes_the_output_of_its_python_value(setting):
    value = np.float32(0.1)
    assert _ARITHMETIC_SETTINGS[setting](value) == _ARITHMETIC_SETTINGS[setting](float(value))


def test_numpy_scalar_settings_write_the_report_of_their_python_values():
    dataset, oracle = generate(SyntheticSpec(kind="heteroscedastic", n=60, seed=1))

    def report(seed, n_repetitions, original_units):
        cfg = ExperimentConfig(
            engine="oracle", seed=seed, n_repetitions=n_repetitions,
            report_original_units=original_units,
        )
        return run_experiment(cfg, dataset, oracle).to_json()

    assert report(np.int64(3), np.int64(1), np.True_) == report(3, 1, True)


@pytest.mark.parametrize("bad", [1.5, "7", True, -1, None], ids=str)
@pytest.mark.parametrize("construct", [
    lambda seed: ExperimentConfig(seed=seed),
    lambda seed: ForestConfig(seed=seed),
    lambda seed: MlpConfig(seed=seed),
    lambda seed: SyntheticSpec(seed=seed),
    lambda seed: coverage_audit(2, seed=seed),
    lambda seed: band_comparison_demo(seed=seed),
], ids=["ExperimentConfig", "ForestConfig", "MlpConfig", "SyntheticSpec", "coverage_audit",
        "band_comparison_demo"])
def test_a_seed_must_be_a_non_negative_integer(construct, bad):
    with pytest.raises(ValueError, match="seed must be"):
        construct(bad)


@pytest.mark.parametrize("bad", ["false", 0, 1.0, None], ids=str)
@pytest.mark.parametrize("construct", [
    lambda flag: ExperimentConfig(tune_quantiles=flag),
    lambda flag: ExperimentConfig(report_original_units=flag),
    lambda flag: ForestConfig(bootstrap=flag),
], ids=["tune_quantiles", "report_original_units", "bootstrap"])
def test_a_flag_must_be_a_bool(construct, bad):
    with pytest.raises(ValueError, match="must be a bool"):
        construct(bad)
    construct(False)
    construct(np.True_)

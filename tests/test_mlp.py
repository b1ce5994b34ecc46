"""Tests for the fully connected networks and their training loop."""

import math
import warnings

import numpy as np
import pytest

from confband.regressors.mlp import (
    MlpConfig,
    MlpMeanRegressor,
    MlpNetwork,
    MlpQuantilePair,
    _PinballPairHead,
    _SquaredErrorHead,
    _select_epoch_count,
)

Z_90 = 1.6448536269514722


def _flat_params(net) -> np.ndarray:
    """Every weight, then every bias, of the network as one flat copy."""
    return np.concatenate([p.ravel() for p in net.weights + net.biases])


def _set_flat_params(net, flat: np.ndarray) -> None:
    """Write a flat vector laid out as ``_flat_params`` back into the network."""
    pos = 0
    for p in net.weights + net.biases:
        p[...] = flat[pos : pos + p.size].reshape(p.shape)
        pos += p.size
    assert pos == flat.size


def _loss_and_grads(net, X, y, head, dropout_seed):
    """``net.loss_and_grads``; with ``dropout_seed`` set, under the dropout masks that
    seed draws, the same masks at every call."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    return net.loss_and_grads(X, y, head, dropout_rng=rng)


def _numeric_gradient(net, X, y, head, dropout_seed=None, eps=1e-6):
    """Central finite differences of the total loss over all parameters."""
    flat = _flat_params(net)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        up = flat.copy()
        up[i] += eps
        down = flat.copy()
        down[i] -= eps
        _set_flat_params(net, up)
        loss_up, _, _ = _loss_and_grads(net, X, y, head, dropout_seed)
        _set_flat_params(net, down)
        loss_down, _, _ = _loss_and_grads(net, X, y, head, dropout_seed)
        numeric[i] = (loss_up - loss_down) / (2.0 * eps)
    _set_flat_params(net, flat)
    return numeric


def _gradient_relative_error(seed, head, keep=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    config = MlpConfig(hidden_width=8, dropout_keep_prob=keep, seed=seed)
    net = MlpNetwork(3, head.n_outputs, config, np.random.default_rng(seed + 1))
    dropout_seed = None if keep == 1.0 else seed + 2
    _, weight_grads, bias_grads = _loss_and_grads(net, X, y, head, dropout_seed)
    analytic = np.concatenate([g.ravel() for g in weight_grads + bias_grads])
    numeric = _numeric_gradient(net, X, y, head, dropout_seed)
    return np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)


def test_squared_error_gradients_match_finite_differences():
    for seed in (11, 17):
        rel = _gradient_relative_error(seed, _SquaredErrorHead())
        assert rel < 1e-4


def test_pinball_pair_gradients_match_finite_differences():
    for seed in (11, 17):
        rel = _gradient_relative_error(seed, _PinballPairHead(0.05, 0.95))
        assert rel < 1e-4


def test_pinball_pair_gradient_matches_the_where_form_bit_for_bit():
    # each column is the nested np.where subgradient of its level over the
    # batch size; integer responses and outputs put about a fifth of the rows on a kink
    rng = np.random.default_rng(38)
    for alpha_lo, alpha_hi in ((0.05, 0.95), (0.3, 0.7), (0.1, 0.5)):
        for n in (1, 7, 64):
            y = rng.integers(-2, 3, size=n) * 1.0
            out = rng.integers(-2, 3, size=(n, 2)) * 1.0
            want = np.empty_like(out)
            for j, alpha in enumerate((alpha_lo, alpha_hi)):
                q = out[:, j]
                want[:, j] = np.where(y > q, -alpha, np.where(y < q, 1.0 - alpha, 0.0)) / n
            got = _PinballPairHead(alpha_lo, alpha_hi).grad(y, out)
            assert got.tobytes() == want.tobytes(), (alpha_lo, alpha_hi, n)


@pytest.mark.parametrize("head", [_SquaredErrorHead(), _PinballPairHead(0.05, 0.95)], ids=["mse", "pinball"])
def test_gradients_under_fixed_dropout_masks_match_finite_differences(head):
    # the masks are drawn again from the same seed at every loss evaluation, so
    # the finite differences see the masks the analytic backward pass used
    for seed in (11, 17):
        assert _gradient_relative_error(seed, head, keep=0.6) < 1e-4


def test_dropout_masks_are_inverted():
    # inverted dropout (Srivastava et al. 2014): a kept unit is scaled by 1/keep,
    # so a hidden unit's expected training activation is its evaluation activation
    keep = 0.6
    config = MlpConfig(hidden_width=8, dropout_keep_prob=keep, seed=0)
    net = MlpNetwork(3, 1, config, np.random.default_rng(1))
    X = np.random.default_rng(2).normal(size=(50, 3))
    _, caches = net.forward(X, dropout_rng=np.random.default_rng(3))
    masks = [mask for _, _, mask in caches[:-1]]
    assert len(masks) == config.n_hidden_layers
    for mask in masks:
        assert set(np.unique(mask).tolist()) == {0.0, 1.0 / keep}
    _, caches = net.forward(X)  # evaluation mode draws no mask
    assert [mask for _, _, mask in caches] == [None] * len(caches)


@pytest.mark.parametrize("head", [_SquaredErrorHead(), _PinballPairHead(0.1, 0.9)], ids=["mse", "pinball"])
def test_adam_step_matches_a_scalar_adam_bit_for_bit(head):
    # Kingma & Ba 2015, Algorithm 1, one float at a time with the paper's default
    # constants, fed the gradients of loss_and_grads; every update is elementwise,
    # so each parameter must get the same bits
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    rng = np.random.default_rng(7)
    X = rng.normal(size=(16, 2))
    y = rng.normal(size=16)
    config = MlpConfig(
        hidden_width=3, n_hidden_layers=1, learning_rate=0.05, dropout_keep_prob=1.0, seed=0
    )
    net = MlpNetwork(2, head.n_outputs, config, np.random.default_rng(8))
    theta = _flat_params(net).tolist()
    m, v = [0.0] * len(theta), [0.0] * len(theta)
    for t in range(1, 8):
        _, weight_grads, bias_grads = net.loss_and_grads(X, y, head)
        grads = np.concatenate([g.ravel() for g in weight_grads + bias_grads]).tolist()
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            m_hat = m[i] / (1.0 - beta1**t)
            v_hat = v[i] / (1.0 - beta2**t)
            theta[i] -= config.learning_rate * m_hat / (math.sqrt(v_hat) + eps)
        net.adam_step(weight_grads, bias_grads)
        assert _flat_params(net).tobytes() == np.array(theta).tobytes(), f"step {t}"


def test_mean_network_fits_constant_targets():
    config = MlpConfig(
        max_epochs=800, learning_rate=3e-3, dropout_keep_prob=1.0, seed=9
    )
    X = np.random.default_rng(42).uniform(-1.0, 1.0, size=(120, 2))
    for c in (3.7, -1.25):
        model = MlpMeanRegressor(config, cv_folds=1).fit(X, np.full(120, c))
        err = np.max(np.abs(model.predict(X) - c))
        assert err < abs(c) * 1e-2 + 1e-2


def test_quantile_network_recovers_gaussian_tails():
    rng = np.random.default_rng(7)
    X = np.zeros((1500, 1))
    y = rng.normal(size=1500)
    config = MlpConfig(max_epochs=400, dropout_keep_prob=1.0, seed=3)
    pair = MlpQuantilePair(config, cv_folds=1).fit(X, y, 0.05, 0.95)
    lo, hi = pair.predict_pair(np.zeros((5, 1)))
    assert np.all(np.abs(lo + Z_90) < 0.25)
    assert np.all(np.abs(hi - Z_90) < 0.25)


def test_training_is_deterministic_given_seed():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(60, 2))
    y = X[:, 0] + rng.normal(size=60)
    config = MlpConfig(hidden_width=8, max_epochs=20, seed=5)
    a = MlpMeanRegressor(config, cv_folds=1).fit(X, y)
    b = MlpMeanRegressor(config, cv_folds=1).fit(X, y)
    grid = rng.normal(size=(10, 2))
    assert np.array_equal(a.predict(grid), b.predict(grid))
    pa = MlpQuantilePair(config, cv_folds=1).fit(X, y, 0.1, 0.9)
    pb = MlpQuantilePair(config, cv_folds=1).fit(X, y, 0.1, 0.9)
    assert np.array_equal(pa.predict_pair(grid)[0], pb.predict_pair(grid)[0])
    assert np.array_equal(pa.predict_pair(grid)[1], pb.predict_pair(grid)[1])


def test_cross_validated_epoch_selection_runs():
    rng = np.random.default_rng(33)
    X = rng.normal(size=(48, 2))
    y = X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.normal(size=48)
    config = MlpConfig(hidden_width=8, max_epochs=6, dropout_keep_prob=1.0, seed=2)
    model = MlpMeanRegressor(config, cv_folds=2).fit(X, y)
    preds = model.predict(X)
    assert preds.shape == (48,)
    assert np.all(np.isfinite(preds))


def _referee_epoch_count(X, y, head, config, n_folds):
    """First argmin + 1 of the out-of-fold loss summed over folds, each fold's
    network trained one epoch at a time, its folds and seeds drawn as the fit draws them."""
    seeds = np.random.SeedSequence(config.seed).spawn(n_folds + 1)
    order = np.random.default_rng(seeds[0]).permutation(len(y))
    curve = [0.0] * config.max_epochs
    for f in range(n_folds):
        val = order[f::n_folds]
        train = np.setdiff1d(np.arange(len(y)), val)
        rng = np.random.default_rng(seeds[f + 1])
        net = MlpNetwork(X.shape[1], head.n_outputs, config, rng)
        for epoch in range(config.max_epochs):
            net.train(X[train], y[train], head, 1, rng)
            curve[epoch] += head.value(y[val], net.predict(X[val]))
    return curve.index(min(curve)) + 1


@pytest.mark.parametrize("head", [_SquaredErrorHead(), _PinballPairHead(0.1, 0.9)], ids=["mse", "pinball"])
def test_epoch_selection_takes_the_first_minimum_of_the_cross_validated_curve(head):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 2))
    y = X[:, 0] + 0.5 * rng.normal(size=40)
    config = MlpConfig(
        hidden_width=16, max_epochs=25, learning_rate=0.03, batch_size=8,
        dropout_keep_prob=0.8, seed=2,
    )
    want = _referee_epoch_count(X, y, head, config, 3)
    assert 1 < want < config.max_epochs  # so neither end of the range passes by chance
    assert _select_epoch_count(X, y, head, config, 3) == want
    # and the fit trains its final network on all rows for that many epochs
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    net = MlpNetwork(X.shape[1], head.n_outputs, config, rng)
    net.train(X, y, head, want, rng)
    if head.n_outputs == 1:
        got = MlpMeanRegressor(config, cv_folds=3).fit(X, y).predict(X)
    else:
        got = np.column_stack(MlpQuantilePair(config, cv_folds=3).fit(X, y, 0.1, 0.9).predict_pair(X))
    assert got.tobytes() == net.predict(X).reshape(got.shape).tobytes()


def test_too_few_rows_for_the_folds_train_max_epochs_without_cross_validation():
    # 3 folds need 6 rows; with 5 the fit skips epoch selection, as cv_folds=0 does
    rng = np.random.default_rng(3)
    X = rng.normal(size=(5, 2))
    y = X[:, 0] + rng.normal(size=5)
    config = MlpConfig(
        hidden_width=8, max_epochs=12, learning_rate=0.05, batch_size=2,
        dropout_keep_prob=0.8, seed=3,
    )
    for make, args, head, read in [
        (MlpMeanRegressor, (), _SquaredErrorHead(), lambda m: m.predict(X)),
        (
            MlpQuantilePair, (0.1, 0.9), _PinballPairHead(0.1, 0.9),
            lambda m: np.column_stack(m.predict_pair(X)),
        ),
    ]:
        # cross-validating these rows anyway would stop early, so the bits would differ
        assert _select_epoch_count(X, y, head, config, 3) < config.max_epochs
        want = read(make(config, cv_folds=0).fit(X, y, *args)).tobytes()
        assert read(make(config, cv_folds=3).fit(X, y, *args)).tobytes() == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exploding_learning_rate_raises_divergence_error():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    y = np.random.default_rng(1).normal(size=40)
    config = MlpConfig(
        max_epochs=5, learning_rate=1e100, dropout_keep_prob=1.0, seed=0
    )
    with pytest.raises(ValueError, match="diverged; reduce learning rate"):
        MlpMeanRegressor(config, cv_folds=1).fit(X, y)


def test_the_mean_rejects_responses_that_overflow_its_optimizer_at_the_forest_bound():
    # at n * max|y| = 2**511, which the forest accepts, a squared-error fit on 1 to 4
    # rows of unit-scale features overflows in Adam's squared gradients; the mean's
    # 2**255 rejects those responses before training
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    y = np.abs(rng.normal(size=40)) + 0.1
    for n in range(1, 5):
        at_forest_bound = y[:n] / y[:n].max() * (2.0**511 / n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="responses too large to train this network on"):
                MlpMeanRegressor(MlpConfig(max_epochs=3), cv_folds=0).fit(X[:n], at_forest_bound)


def test_invalid_config_fields_are_rejected():
    with pytest.raises(ValueError):
        MlpConfig(hidden_width=0)
    with pytest.raises(ValueError):
        MlpConfig(n_hidden_layers=0)
    with pytest.raises(ValueError):
        MlpConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        MlpConfig(batch_size=0)
    with pytest.raises(ValueError):
        MlpConfig(weight_decay=-1e-6)
    with pytest.raises(ValueError):
        MlpConfig(dropout_keep_prob=0.0)
    with pytest.raises(ValueError):
        MlpConfig(dropout_keep_prob=1.5)
    with pytest.raises(ValueError):
        MlpConfig(max_epochs=0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        *[
            (field, value, f"{field} must be an integer")
            for field in ("hidden_width", "n_hidden_layers", "batch_size", "max_epochs")
            for value in (2.5, 3.0, "3", True)
        ],
        ("learning_rate", float("nan"), "learning_rate must be > 0 and finite"),
        ("learning_rate", float("inf"), "learning_rate must be > 0 and finite"),
        ("weight_decay", float("nan"), "weight_decay must be >= 0 and finite"),
        ("weight_decay", float("inf"), "weight_decay must be >= 0 and finite"),
    ],
)
def test_non_integer_counts_and_non_finite_rates_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        MlpConfig(**{field: value})


@pytest.mark.parametrize("model", [MlpMeanRegressor, MlpQuantilePair])
def test_a_non_integer_fold_count_is_rejected(model):
    with pytest.raises(ValueError, match="cv_folds must be an integer, got 2.5"):
        model(MlpConfig(), cv_folds=2.5)
    assert model(MlpConfig(), cv_folds=0).cv_folds == 0  # no cross-validation


def test_pinball_head_requires_ordered_levels():
    with pytest.raises(ValueError, match="alpha_lo must be below alpha_hi"):
        _PinballPairHead(0.9, 0.1)

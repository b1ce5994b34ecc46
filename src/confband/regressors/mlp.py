"""Small fully connected networks trained with Adam.

One architecture serves two jobs: a single-output head trained on squared
error (point prediction, dispersion estimation) and a two-output head
trained on the sum of two pinball losses (joint lower/upper quantile
estimation). Both roles share one fitted-network class, ``_MlpModel``,
and differ only in their loss head and their read. Forward, backward, and
the optimizer are written out against plain numpy arrays so the analytic
gradients can be checked directly against finite differences.

Parameters
----------
Layers are ``p -> hidden_width -> ... -> hidden_width -> n_outputs`` with
ReLU activations and inverted dropout on each hidden layer. Weight decay
enters the objective as an L2 penalty on the weight matrices (not biases),
so the reported loss and its gradient stay consistent. The number of
training epochs is chosen by k-fold cross-validation up to
``max_epochs``, then the network is refit on all rows.
"""

from dataclasses import dataclass

import numpy as np

from ..losses import PinballLoss
from ..quantiles import as_real, check_level_pair
from .base import (
    MeanRegressor,
    QuantileRegressor,
    check_count,
    check_real,
    check_response_size,
    read_rows,
    store_python_values,
    training_rows,
)

__all__ = [
    "MlpConfig",
    "MlpNetwork",
    "MlpMeanRegressor",
    "MlpQuantilePair",
]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# rows per forward pass of a read: BLAS sums a product in an order that can
# depend on the row count, so a read runs on whole blocks, the last one
# zero-padded, and gives each row the same bits whatever rows come with it
_READ_ROWS = 64


@dataclass(frozen=True)
class MlpConfig:
    """Architecture and optimizer settings for the networks in this module.

    Attributes
    ----------
    hidden_width : int
        Units per hidden layer.
    n_hidden_layers : int
        Number of hidden layers.
    learning_rate : float
        Adam step size.
    batch_size : int
        Minibatch size; the last batch of an epoch may be smaller.
    weight_decay : float
        L2 penalty coefficient on weight matrices.
    dropout_keep_prob : float
        Probability of retaining a hidden unit during training, in (0, 1].
        1.0 disables dropout.
    max_epochs : int
        Upper bound on training epochs; cross-validation may stop earlier.
    seed : int
        Seeds initialization, shuffling, and dropout masks.
    """

    hidden_width: int = 64
    n_hidden_layers: int = 2
    learning_rate: float = 5e-4
    batch_size: int = 64
    weight_decay: float = 1e-6
    dropout_keep_prob: float = 0.1
    max_epochs: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_width", "n_hidden_layers", "batch_size", "max_epochs"):
            check_count(name, getattr(self, name))
        check_real("learning_rate", self.learning_rate, positive=True)
        check_real("weight_decay", self.weight_decay)
        check_count("seed", self.seed, minimum=0)
        if not 0.0 < as_real("dropout_keep_prob", self.dropout_keep_prob) <= 1.0:
            raise ValueError(
                f"dropout_keep_prob must be in (0, 1], got {self.dropout_keep_prob}"
            )
        store_python_values(self)


class _SquaredErrorHead:
    """Mean squared error over a single output column."""

    n_outputs = 1
    # the loss squares residuals, and Adam squares gradients that are residuals times
    # activations, so the bound keeps half the exponent range for the activations, whose
    # scale follows the features': at 2**511 a fit on 1 to 4 rows of unit-scale features
    # overflows in Adam's g * g
    log2_response_bound = 255

    def value(self, y: np.ndarray, out: np.ndarray) -> float:
        return float(np.mean((out[:, 0] - y) ** 2))

    def grad(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        return 2.0 * (out - y[:, None]) / y.size


class _PinballPairHead:
    """Mean pinball loss at the lower level plus mean at the upper level."""

    n_outputs = 2
    log2_response_bound = 1023  # the loss sums residuals

    def __init__(self, alpha_lo: float, alpha_hi: float):
        alpha_lo, alpha_hi = check_level_pair(alpha_lo, alpha_hi)
        self._lo = PinballLoss(alpha_lo)
        self._hi = PinballLoss(alpha_hi)

    def value(self, y: np.ndarray, out: np.ndarray) -> float:
        return self._lo.mean_loss(y, out[:, 0]) + self._hi.mean_loss(y, out[:, 1])

    def grad(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        g = np.empty_like(out)
        g[:, 0] = self._lo.subgradient(y, out[:, 0]) / y.size
        g[:, 1] = self._hi.subgradient(y, out[:, 1]) / y.size
        return g


class MlpNetwork:
    """ReLU network with explicit forward/backward passes and Adam updates."""

    def __init__(self, n_inputs: int, n_outputs: int, config: MlpConfig, rng):
        sizes = (
            [n_inputs]
            + [config.hidden_width] * config.n_hidden_layers
            + [n_outputs]
        )
        self.config = config
        self.n_features_in_ = n_inputs
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-limit, limit, size=fan_out))
        self._adam_m = [np.zeros_like(p) for p in self.weights + self.biases]
        self._adam_v = [np.zeros_like(p) for p in self.weights + self.biases]
        self._adam_t = 0

    def forward(self, X: np.ndarray, dropout_rng=None):
        """Run the network; returns the output batch and backprop caches.

        With ``dropout_rng`` set and ``dropout_keep_prob`` below 1, hidden
        activations are masked by inverted dropout; otherwise the pass draws
        nothing and is deterministic (evaluation mode).
        """
        keep = self.config.dropout_keep_prob
        a = X
        caches = []
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ W + b
            h = np.maximum(z, 0.0)
            mask = None
            if dropout_rng is not None and keep < 1.0:
                mask = (dropout_rng.random(h.shape) < keep) / keep
                h = h * mask
            caches.append((a, z, mask))
            a = h
        z = a @ self.weights[-1] + self.biases[-1]
        caches.append((a, z, None))
        return z, caches

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray, head, dropout_rng=None):
        """Total loss (data term plus weight decay) and its parameter gradients.

        Returns ``(loss, weight_grads, bias_grads)`` with gradients ordered
        as the layers are.
        """
        out, caches = self.forward(X, dropout_rng)
        decay = self.config.weight_decay
        loss = head.value(y, out) + decay * sum(
            float(np.sum(W * W)) for W in self.weights
        )
        g = head.grad(y, out)
        weight_grads = [np.empty(0)] * len(self.weights)
        bias_grads = [np.empty(0)] * len(self.biases)
        for i in reversed(range(len(self.weights))):
            a_in, _, _ = caches[i]
            weight_grads[i] = a_in.T @ g + 2.0 * decay * self.weights[i]
            bias_grads[i] = g.sum(axis=0)
            if i > 0:
                g = g @ self.weights[i].T
                _, z_prev, mask_prev = caches[i - 1]
                g = g * (z_prev > 0.0)
                if mask_prev is not None:
                    g = g * mask_prev
        return loss, weight_grads, bias_grads

    def adam_step(self, weight_grads, bias_grads) -> None:
        cfg = self.config
        self._adam_t += 1
        t = self._adam_t
        params = self.weights + self.biases
        grads = weight_grads + bias_grads
        for p, g, m, v in zip(params, grads, self._adam_m, self._adam_v):
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - _ADAM_BETA1**t)
            v_hat = v / (1.0 - _ADAM_BETA2**t)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

    def train(self, X: np.ndarray, y: np.ndarray, head, n_epochs: int, rng) -> None:
        """Minibatch training for ``n_epochs`` passes over the data."""
        n = X.shape[0]
        batch = min(self.config.batch_size, n)
        for _ in range(n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                idx = order[start : start + batch]
                loss, w_grads, b_grads = self.loss_and_grads(X[idx], y[idx], head, dropout_rng=rng)
                if not np.isfinite(loss):
                    raise ValueError("diverged; reduce learning rate")
                self.adam_step(w_grads, b_grads)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluation-mode outputs, one row per row of X, read in blocks of ``_READ_ROWS``."""
        n = X.shape[0]
        padded = np.zeros((-(-n // _READ_ROWS) * _READ_ROWS, X.shape[1]))
        padded[:n] = X
        out = np.empty((padded.shape[0], self.biases[-1].size))
        for start in range(0, n, _READ_ROWS):
            out[start : start + _READ_ROWS], _ = self.forward(padded[start : start + _READ_ROWS])
        return out[:n]


def _select_epoch_count(X, y, head, config: MlpConfig, n_folds: int) -> int:
    """Epoch count minimizing mean out-of-fold loss, evaluated after each epoch."""
    seeds = np.random.SeedSequence(config.seed).spawn(n_folds + 1)
    order = np.random.default_rng(seeds[0]).permutation(X.shape[0])
    curve = np.zeros(config.max_epochs)
    for f in range(n_folds):
        val_idx = order[f::n_folds]
        X_tr, y_tr = np.delete(X, val_idx, axis=0), np.delete(y, val_idx)
        X_val, y_val = X[val_idx], y[val_idx]
        rng = np.random.default_rng(seeds[f + 1])
        net = MlpNetwork(X.shape[1], head.n_outputs, config, rng)
        for epoch in range(config.max_epochs):
            net.train(X_tr, y_tr, head, 1, rng)
            curve[epoch] += head.value(y_val, net.predict(X_val))
    return int(np.argmin(curve)) + 1


def _fit_network(X, y, head, config: MlpConfig, cv_folds: int) -> MlpNetwork:
    X, y = training_rows(X, y)
    check_response_size(y, head.log2_response_bound, "train this network on")
    n_epochs = config.max_epochs
    if cv_folds >= 2 and X.shape[0] >= 2 * cv_folds:
        n_epochs = _select_epoch_count(X, y, head, config, cv_folds)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    net = MlpNetwork(X.shape[1], head.n_outputs, config, rng)
    net.train(X, y, head, n_epochs, rng)
    return net


class _MlpModel:
    """A fitted network of either head: the constructor, the fit and the checked read
    that both roles share.

    ``cv_folds >= 2`` selects the epoch count by cross-validation before
    the final fit; otherwise the network trains for ``config.max_epochs``.
    """

    def __init__(self, config: MlpConfig = MlpConfig(), cv_folds: int = 5):
        self.config = config
        self.cv_folds = check_count("cv_folds", cv_folds, minimum=0)

    def _fit(self, X, y, head):
        self._net = _fit_network(X, y, head, self.config, self.cv_folds)
        self.n_features_in_ = self._net.n_features_in_
        return self

    def _read(self, X) -> np.ndarray:
        X = read_rows(self, X)  # first: an unfitted model has no network to read
        return self._net.predict(X)


class MlpMeanRegressor(_MlpModel, MeanRegressor):
    """Point predictor: single-output network trained on squared error."""

    def fit(self, X, y) -> "MlpMeanRegressor":
        return self._fit(X, y, _SquaredErrorHead())

    def predict(self, X) -> np.ndarray:
        return self._read(X)[:, 0]


class MlpQuantilePair(_MlpModel, QuantileRegressor):
    """Joint lower/upper quantile curves from one two-output network.

    The two outputs share every hidden layer; the loss is the sum of the
    pinball losses at the two requested levels.
    """

    def fit(self, X, y, alpha_lo: float, alpha_hi: float) -> "MlpQuantilePair":
        return self._fit(X, y, _PinballPairHead(alpha_lo, alpha_hi))  # the head checks the levels

    def predict_pair(self, X) -> tuple[np.ndarray, np.ndarray]:
        out = self._read(X)
        return out[:, 0], out[:, 1]

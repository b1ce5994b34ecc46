"""Pinball loss tests with hand-computed values."""

import math

import numpy as np
import pytest

from confband.losses import PinballLoss


def test_pinball_hand_values():
    assert PinballLoss(0.5).loss(3.0, 1.0) == pytest.approx(1.0)
    assert PinballLoss(0.9).loss(1.0, 0.0) == pytest.approx(0.9)
    assert PinballLoss(0.9).loss(0.0, 1.0) == pytest.approx(0.1)
    assert PinballLoss(0.3).loss(2.0, 2.0) == 0.0


def test_pinball_subgradient_hand_values():
    assert PinballLoss(0.9).subgradient(1.0, 0.0) == pytest.approx(-0.9)
    assert PinballLoss(0.9).subgradient(0.0, 1.0) == pytest.approx(0.1)
    assert PinballLoss(0.42).subgradient(5.0, 5.0) == 0.0


def test_pinball_subgradient_reads_floats_takes_plus_zero_at_the_kink_and_passes_nan():
    loss = PinballLoss(0.25)
    # elementwise on arrays, and the kink is +0.0, also where -0.0 meets 0.0
    g = loss.subgradient(np.array([1.0, 2.0, -0.0, 3.0, 0.0]), np.array([1.0, 3.0, 0.0, 2.0, -0.0]))
    assert g.tolist() == [0.0, 0.75, 0.0, -0.25, 0.0]
    assert not np.signbit(g[[0, 2, 4]]).any()
    # lists and integers are read as floats
    g = loss.subgradient([1, 2, 3], [2, 2, 2])
    assert g.dtype == np.float64 and g.tolist() == [0.75, 0.0, -0.25]
    assert isinstance(loss.subgradient(3, 1), float) and loss.subgradient(3, 1) == -0.25
    # a NaN on either side gives NaN, not a subgradient
    assert math.isnan(loss.subgradient(float("nan"), 1.0))
    assert np.isnan(loss.subgradient(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))).tolist() == [True, False]


def test_pinball_reflection_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        alpha = float(rng.uniform(0.01, 0.99))
        y, y_hat = rng.normal(size=2)
        left = PinballLoss(alpha).loss(y, y_hat)
        right = PinballLoss(1.0 - alpha).loss(y_hat, y)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-15)


def test_pinball_subgradient_matches_central_differences():
    rng = np.random.default_rng(13)
    eps = 1e-7
    checked = 0
    while checked < 300:
        alpha = float(rng.uniform(0.05, 0.95))
        y, y_hat = rng.normal(size=2)
        if abs(y - y_hat) <= 1e-3:
            continue
        loss = PinballLoss(alpha)
        numeric = (loss.loss(y, y_hat + eps) - loss.loss(y, y_hat - eps)) / (2 * eps)
        analytic = loss.subgradient(y, y_hat)
        assert analytic == pytest.approx(numeric, rel=1e-5)
        checked += 1


def test_pinball_convexity_along_chords():
    rng = np.random.default_rng(21)
    for _ in range(300):
        alpha = float(rng.uniform(0.05, 0.95))
        y = float(rng.normal())
        a, b = np.sort(rng.normal(size=2) * 3.0)
        t = float(rng.uniform())
        mid = t * a + (1 - t) * b
        loss = PinballLoss(alpha)
        chord = t * loss.loss(y, a) + (1 - t) * loss.loss(y, b)
        assert loss.loss(y, mid) <= chord + 1e-12


def test_pinball_vectorizes_and_mean_loss_matches_scalar_mean():
    loss = PinballLoss(0.8)
    y = np.array([1.0, 2.0, -1.0, 0.0])
    y_hat = np.array([0.5, 3.0, -1.0, 2.0])
    elementwise = loss.loss(y, y_hat)
    singles = [loss.loss(float(a), float(b)) for a, b in zip(y, y_hat)]
    assert np.allclose(elementwise, singles)
    assert loss.mean_loss(y, y_hat) == pytest.approx(float(np.mean(singles)))


def test_pinball_rejects_degenerate_levels():
    with pytest.raises(ValueError):
        PinballLoss(0.0)
    with pytest.raises(ValueError):
        PinballLoss(1.0)

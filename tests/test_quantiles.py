"""Order-statistic quantile tests against an exact sort-then-index oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from confband.conformal import conformal_correction
from confband.quantiles import SortedSample, check_level, inflated_quantiles


def _oracle_left_quantile(values, level):
    """Independent oracle: sort, then take the ceil(level * n)-th value.

    The index is computed in exact rational arithmetic so float rounding
    in the product level * n cannot shift the order statistic.
    """
    ordered = sorted(values)
    k = math.ceil(Fraction(level) * len(ordered))
    k = max(k, 1)
    return ordered[k - 1]


def _oracle_right_quantile(values, level):
    """Independent oracle: sort, then take the (floor(level * n) + 1)-th value."""
    ordered = sorted(values)
    k = math.floor(Fraction(level) * len(ordered)) + 1
    k = min(k, len(ordered))
    return ordered[k - 1]


def test_left_quantile_hand_values():
    assert SortedSample([1, 2, 3, 4, 5]).quantile(0.5) == 3.0
    assert SortedSample([7.0]).quantile(0.123) == 7.0
    assert SortedSample(range(1, 11)).quantile(0.91) == 10.0
    assert SortedSample(range(1, 11)).quantile(0.1) == 1.0


def test_right_quantile_hand_values():
    sample = SortedSample([1, 2, 3, 4, 5])
    assert sample.right_quantile(0.5) == 3.0
    assert sample.right_quantile(0.4) == 3.0
    assert sample.quantile(0.4) == 2.0
    assert SortedSample([7.0]).right_quantile(0.9) == 7.0


def test_right_quantile_never_below_left_quantile():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sample = SortedSample(rng.normal(size=rng.integers(1, 30)))
        level = float(rng.uniform(0.01, 0.99))
        assert sample.right_quantile(level) >= sample.quantile(level)


def test_inflated_quantile_hand_values():
    assert SortedSample(range(1, 10)).inflated_quantile(0.1) == 9.0
    assert SortedSample(range(1, 100)).inflated_quantile(0.1) == 90.0
    assert SortedSample([1, 2, 3]).inflated_quantile(0.1) == math.inf


def test_inflated_quantile_boundary_product_is_snapped():
    # (1 - 0.1) * (99 + 1) = 90 exactly in rational arithmetic; the float
    # product 0.9 * 100.00000... must not be rounded up to index 91.
    values = np.arange(1.0, 100.0)
    assert SortedSample(values).inflated_quantile(0.1) == 90.0
    # one point fewer pushes the level above 1 only when (1-a)(n+1) > n
    assert SortedSample([5.0]).inflated_quantile(0.6) == 5.0
    assert SortedSample([5.0]).inflated_quantile(0.4) == math.inf


def test_quantile_matches_sort_index_oracle_on_random_cases():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        values = rng.normal(size=n)
        level = float(rng.uniform(0.001, 0.999))
        sample = SortedSample(values)
        assert sample.quantile(level) == _oracle_left_quantile(values, level)
        assert sample.right_quantile(level) == _oracle_right_quantile(values, level)


def test_quantile_matches_oracle_at_exact_index_boundaries():
    # levels of the form k/n are the dangerous inputs: the float product
    # (k/n) * n can land a hair above k, and a naive ceil would then skip
    # to the (k+1)-th order statistic instead of the intended k-th
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 50))
        ordered = np.sort(rng.normal(size=n))
        sample = SortedSample(ordered)
        for k in range(1, n):
            assert sample.quantile(k / n) == ordered[k - 1]


def test_quantile_cdf_galois_connection():
    rng = np.random.default_rng(5)
    values = rng.normal(size=25)
    sample = SortedSample(values)
    z_grid = np.concatenate([values, rng.normal(size=10)])
    for level in (0.04, 0.2, 0.5, 0.76, 0.96):
        for z in z_grid:
            holds_left = sample.quantile(level) <= z
            # the empirical CDF at z
            holds_right = level <= np.count_nonzero(values <= z) / values.size
            assert holds_left == holds_right


def test_left_quantile_coverage_rate_of_sample_member():
    # for n exchangeable continuous draws, a fixed member of the sample
    # falls at or below the ceil(level * n)-th order statistic with
    # probability exactly k / n, which lies in [level, level + 1/n]
    rng = np.random.default_rng(11)
    n, trials = 20, 200_000
    level = 0.6
    k = math.ceil(level * n)
    draws = rng.random((trials, n))
    kth = np.partition(draws, k - 1, axis=1)[:, k - 1]
    rate = float(np.mean(draws[:, 0] <= kth))
    expected = k / n
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 4 * se
    assert level <= expected <= level + 1 / n


def test_inflated_quantile_coverage_is_exact_order_statistic_rate():
    # the inflated level (1 + 1/n) * alpha maps to the k-th order
    # statistic with k = ceil((n+1) * alpha); an independent draw falls
    # below it with probability exactly k / (n + 1)
    rng = np.random.default_rng(29)
    n, trials, alpha = 9, 200_000, 0.5
    level = (1.0 + 1.0 / n) * alpha
    probe = SortedSample(np.arange(1.0, n + 1.0))
    k = int(probe.quantile(level))
    assert k == math.ceil(alpha * (n + 1))
    draws = rng.random((trials, n + 1))
    kth = np.partition(draws[:, :n], k - 1, axis=1)[:, k - 1]
    rate = float(np.mean(draws[:, n] <= kth))
    expected = k / (n + 1)
    se = math.sqrt(expected * (1 - expected) / trials)
    assert abs(rate - expected) <= 4 * se


def _referee_inflated_rank(n, alpha):
    """1-based rank ceil((1 - alpha)(n + 1)) in exact rational arithmetic; None for +inf.

    alpha is read as the decimal it was written as, so 0.3 is 3/10 and not
    the binary float a hair below it. The rank is +inf when it exceeds n.
    """
    k = math.ceil((1 - Fraction(str(alpha))) * (n + 1))
    return k if k <= n else None


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.3, 0.37])
def test_inflated_quantiles_and_corrections_take_the_referee_rank(alpha):
    # (1 - alpha)(n + 1) over n = 1..200 has fractional parts on both sides
    # of 0.5 and exact integers, so a rank rounded instead of ceiled shows
    rng = np.random.default_rng(23)
    for n in range(1, 201):
        k = _referee_inflated_rank(n, alpha)
        # the scores are the ranks 1..n in random order, so a score is its rank
        y_cal = rng.permutation(n) + 1.0
        want = math.inf if k is None else float(k)
        assert inflated_quantiles(y_cal, alpha) == want, n
        # with zero plug-in ends the symmetric score is |y| = y, the lower
        # tail's score -y, whose k-th smallest is k - (n + 1)
        assert conformal_correction(0.0, 0.0, 1.0, y_cal, alpha) == want, n
        tails = conformal_correction(0.0, 0.0, 1.0, y_cal, alpha, alpha)
        assert tails == (want - (n + 1), want), n


def test_inflated_quantiles_take_each_rows_inflated_quantile():
    # integer-valued rows tie often; n = 9 and n = 99 put alpha = 0.1 on an
    # exact index boundary, and n = 8 asks for more than the sample holds
    rng = np.random.default_rng(17)
    for n in (1, 8, 9, 10, 99):
        rows = rng.integers(-4, 5, size=(6, n)).astype(float)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            got = inflated_quantiles(rows, alpha)
            assert got.shape == (6,)
            want = [SortedSample(row).inflated_quantile(alpha) for row in rows]
            assert got.tolist() == want
    with pytest.raises(ValueError, match="non-finite"):
        inflated_quantiles([[1.0, 2.0], [3.0, np.inf]], 0.5)
    with pytest.raises(ValueError, match="empty"):
        inflated_quantiles(np.zeros((3, 0)), 0.5)
    with pytest.raises(ValueError, match="level"):
        inflated_quantiles(np.zeros((3, 4)), 1.0)


def test_a_scalar_score_is_a_sample_of_one():
    # alpha = 0.4 asks for more than one score can certify, alpha = 0.6 for the score
    for alpha in (0.4, 0.6):
        got = inflated_quantiles(3.0, alpha)
        assert got.shape == () and got.tobytes() == inflated_quantiles([3.0], alpha).tobytes()
        assert got == SortedSample([3.0]).inflated_quantile(alpha)


def test_an_order_statistic_outside_one_to_n_is_rejected():
    sample = SortedSample([3.0, 1.0, 2.0])
    assert [sample.order_statistic(k) for k in (1, 2, 3)] == [1.0, 2.0, 3.0]
    for k in (0, 4, -1):
        with pytest.raises(ValueError, match=rf"must be in \[1, 3\], got {k}$"):
            sample.order_statistic(k)


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        SortedSample([])


def test_non_finite_sample_is_rejected():
    with pytest.raises(ValueError):
        SortedSample([1.0, np.nan])
    with pytest.raises(ValueError):
        SortedSample([1.0, np.inf])


def test_bad_levels_are_rejected():
    sample = SortedSample([1.0, 2.0])
    for bad in (0.0, 1.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ValueError):
            sample.quantile(bad)
        with pytest.raises(ValueError):
            check_level(bad)

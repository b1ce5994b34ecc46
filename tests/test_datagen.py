"""Tests for the synthetic generator, CSV ingestion, and standardization."""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from confband.datagen import (
    Dataset,
    OracleDispersionRegressor,
    OracleMeanRegressor,
    OracleQuantileRegressor,
    OracleQuantiles,
    SyntheticSpec,
    generate,
    load_csv,
    standardize_apply,
    standardize_fit,
    standardize_invert,
)

Z_90 = 1.6448536269514722


def test_conditional_mean_is_two_sin_x():
    oracle = OracleQuantiles(noise_scale=1.0)
    x = np.linspace(0.0, 5.0, 40)
    assert np.array_equal(oracle.mean(x), 2.0 * np.sin(x))


def test_gaussian_band_width_matches_closed_form():
    oracle = OracleQuantiles(noise_scale=0.7, heteroscedastic=True)
    x = np.linspace(0.0, 5.0, 25)
    width = oracle.quantile(x, 0.95) - oracle.quantile(x, 0.05)
    np.testing.assert_allclose(width, 2.0 * Z_90 * 0.7 * (0.1 + x), rtol=1e-12)
    flat = OracleQuantiles(noise_scale=0.7, heteroscedastic=False)
    width = flat.quantile(x, 0.95) - flat.quantile(x, 0.05)
    np.testing.assert_allclose(width, 2.0 * Z_90 * 0.7, rtol=1e-12)


def test_vanishing_noise_scale_gives_vanishing_widths():
    oracle = OracleQuantiles(noise_scale=1e-9, heteroscedastic=True)
    x = np.linspace(0.0, 5.0, 10)
    lo, hi = oracle.band(x, 0.1)
    assert np.all(hi - lo < 1e-7)
    np.testing.assert_allclose(lo, oracle.mean(x), atol=1e-7)


def test_mixture_quantiles_invert_the_cdf():
    oracle = OracleQuantiles(
        noise_scale=1.0, heteroscedastic=True, outlier_prob=0.05, outlier_scale=25.0
    )
    x = np.array([0.3, 1.7, 4.2])
    s = oracle.scale(x)
    wide = np.sqrt(s * s + 25.0**2)
    m = oracle.mean(x)
    for level in (0.01, 0.05, 0.5, 0.9, 0.99):
        q = oracle.quantile(x, level)
        cdf = 0.95 * norm.cdf((q - m) / s) + 0.05 * norm.cdf((q - m) / wide)
        np.testing.assert_allclose(cdf, level, rtol=0.0, atol=1e-10)


def test_mixture_quantiles_are_monotone_and_symmetric():
    oracle = OracleQuantiles(
        noise_scale=1.0, outlier_prob=0.05, outlier_scale=25.0
    )
    x = np.linspace(0.1, 4.9, 7)
    levels = [0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98]
    qs = [oracle.quantile(x, level) for level in levels]
    for lower, upper in zip(qs[:-1], qs[1:]):
        assert np.all(lower < upper)
    # both mixture components are centered at the mean, so quantiles are
    # symmetric about it
    np.testing.assert_allclose(
        oracle.quantile(x, 0.05) + oracle.quantile(x, 0.95),
        2.0 * oracle.mean(x),
        atol=1e-9,
    )
    np.testing.assert_allclose(oracle.quantile(x, 0.5), oracle.mean(x), atol=1e-9)


def _brentq_per_point(oracle, x, level):
    """The scalar reference: bracket, then one scipy brentq call per point."""
    m, s = oracle.mean(x), oracle.scale(x)
    p = oracle.outlier_prob
    wide = np.sqrt(s * s + oracle.outlier_scale**2)
    out = np.empty_like(m)
    for i in range(m.size):
        mi, si, wi = m.flat[i], s.flat[i], wide.flat[i]

        def cdf_minus_level(q):
            return (
                (1.0 - p) * norm.cdf((q - mi) / si)
                + p * norm.cdf((q - mi) / wi)
                - level
            )

        radius = 10.0 * wi
        while cdf_minus_level(mi - radius) > 0 or cdf_minus_level(mi + radius) < 0:
            radius *= 2.0
        out.flat[i] = brentq(
            cdf_minus_level, mi - radius, mi + radius, xtol=1e-13, rtol=1e-15
        )
    return out


@pytest.mark.parametrize("heteroscedastic", [True, False])
@pytest.mark.parametrize("outlier_prob, outlier_scale", [(0.05, 25.0), (0.3, 2.0)])
def test_mixture_quantiles_equal_per_point_brentq_bit_for_bit(
    heteroscedastic, outlier_prob, outlier_scale
):
    oracle = OracleQuantiles(
        noise_scale=0.8, heteroscedastic=heteroscedastic,
        outlier_prob=outlier_prob, outlier_scale=outlier_scale,
    )
    x = np.linspace(0.0, 5.0, 21)
    wants = {}
    for level in (1e-4, 0.05, 0.37, 0.5, 0.95, 1.0 - 1e-4):
        want = wants[level] = _brentq_per_point(oracle, x, level)
        assert np.array_equal(oracle.quantile(x, level), want)
        assert np.array_equal(oracle.quantile(x.reshape(3, 7), level), want.reshape(3, 7))
        point = oracle.quantile(x[4], level)
        assert point.shape == () and point == want[4]
    # two levels broadcast against x are solved in one call, bit for bit
    both = oracle.quantile(x, np.array([[0.05], [0.95]]))
    assert np.array_equal(both, np.stack([wants[0.05], wants[0.95]]))
    lo, hi = oracle.band(x, 0.1)
    assert np.array_equal(lo, wants[0.05]) and np.array_equal(hi, wants[0.95])


def test_quantile_rejects_non_finite_x_and_non_positive_scale():
    x = np.array([0.5, np.nan, 2.0])
    for outlier_prob in (0.0, 0.05):
        oracle = OracleQuantiles(noise_scale=1.0, outlier_prob=outlier_prob, outlier_scale=25.0)
        for bad in (x, np.array([np.inf, 1.0]), -np.inf):
            with pytest.raises(ValueError, match="x must be finite"):
                oracle.quantile(bad, 0.9)
        # the law is undefined where the heteroscedastic scale
        # noise_scale * (0.1 + x) is not positive
        with pytest.raises(ValueError, match="noise scale must be positive"):
            oracle.quantile(np.array([1.0, -0.5]), 0.9)


def test_oracle_band_covers_at_nominal_rate_within_bins():
    data, oracle = generate(
        SyntheticSpec(kind="heteroscedastic_outliers", n=12_000, seed=11)
    )
    x = data.X[:, 0]
    lo, hi = oracle.band(x, 0.1)
    inside = (lo <= data.y) & (data.y <= hi)
    edges = np.linspace(0.0, 5.0, 6)
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (a <= x) & (x < b)
        rate = inside[sel].mean()
        se = np.sqrt(0.9 * 0.1 / sel.sum())
        assert abs(rate - 0.9) < 4 * se


def test_mean_abs_deviation_matches_monte_carlo():
    oracle = OracleQuantiles(
        noise_scale=1.0, outlier_prob=0.05, outlier_scale=25.0
    )
    x = 2.0
    rng = np.random.default_rng(77)
    n = 200_000
    s = float(oracle.scale(np.array([x]))[0])
    draws = s * rng.standard_normal(n)
    hit = rng.random(n) < 0.05
    draws = draws + np.where(hit, 25.0 * rng.standard_normal(n), 0.0)
    sample = np.abs(draws)
    se = sample.std(ddof=1) / np.sqrt(n)
    want = float(oracle.mean_abs_deviation(np.array([x]))[0])
    assert abs(sample.mean() - want) < 4 * se


def test_generation_is_deterministic_and_seed_sensitive():
    spec = SyntheticSpec(kind="heteroscedastic_outliers", n=500, seed=3)
    a, _ = generate(spec)
    b, _ = generate(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c, _ = generate(SyntheticSpec(kind="heteroscedastic_outliers", n=500, seed=4))
    assert not np.array_equal(a.y, c.y)


def test_outlier_settings_only_apply_to_the_outlier_kind():
    plain_spec = SyntheticSpec(
        kind="heteroscedastic", n=300, seed=9, outlier_prob=0.3, outlier_scale=25.0
    )
    plain, plain_oracle = generate(plain_spec)
    assert plain_oracle.outlier_prob == 0.0
    with_spec = SyntheticSpec(
        kind="heteroscedastic_outliers", n=300, seed=9, outlier_prob=0.3,
        outlier_scale=25.0,
    )
    heavy, heavy_oracle = generate(with_spec)
    assert heavy_oracle.outlier_prob == 0.3
    assert np.array_equal(plain.X, heavy.X)
    assert not np.array_equal(plain.y, heavy.y)
    flat, flat_oracle = generate(SyntheticSpec(kind="homoscedastic", n=50, seed=1))
    assert np.all(flat_oracle.scale(flat.X[:, 0]) == flat_oracle.noise_scale)


def test_invalid_spec_fields_are_rejected():
    with pytest.raises(ValueError, match="kind must be one of"):
        SyntheticSpec(kind="bogus")
    with pytest.raises(ValueError):
        SyntheticSpec(n=0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_scale=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(outlier_prob=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(outlier_prob=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(outlier_scale=0.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 2.5, "n must be an integer"),
        ("n", "100", "n must be an integer"),
        ("n", True, "n must be an integer"),
        *[
            (field, value, f"{field} must be > 0 and finite")
            for field in ("noise_scale", "outlier_scale")
            for value in (float("nan"), float("inf"))
        ],
    ],
)
def test_non_integer_sizes_and_non_finite_scales_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**{field: value})


def test_dataset_validates_feature_name_count():
    with pytest.raises(ValueError, match="feature names"):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(3), feature_names=("a",))
    data = Dataset(X=np.zeros((3, 2)), y=np.zeros(3), feature_names=("a", "b"))
    assert data.n_rows == 3


def test_oracle_regressors_expose_the_exact_law():
    oracle = OracleQuantiles(noise_scale=1.0)
    X = np.linspace(0.5, 4.5, 9)[:, None]
    assert np.array_equal(
        OracleMeanRegressor(oracle).predict(X), oracle.mean(X[:, 0])
    )
    pair = OracleQuantileRegressor(oracle).fit(X, np.zeros(9), 0.05, 0.95)
    lo, hi = pair.predict_pair(X)
    assert np.array_equal(lo, oracle.quantile(X[:, 0], 0.05))
    assert np.array_equal(hi, oracle.quantile(X[:, 0], 0.95))
    with pytest.raises(RuntimeError, match="fit"):
        OracleQuantileRegressor(oracle).predict_pair(X)
    assert np.array_equal(
        OracleDispersionRegressor(oracle).predict(X),
        oracle.mean_abs_deviation(X[:, 0]),
    )


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_reads_numeric_rows(tmp_path):
    path = _write(
        tmp_path / "data.csv",
        "a,b,target\n1,2,3\n4,5,6\n",
    )
    data = load_csv(path, "target")
    assert data.feature_names == ("a", "b")
    assert np.array_equal(data.X, [[1.0, 2.0], [4.0, 5.0]])
    assert np.array_equal(data.y, [3.0, 6.0])


@pytest.mark.parametrize("header", ["target,a", "a,target"])
def test_load_csv_reads_a_file_with_a_byte_order_mark(tmp_path, header):
    # spreadsheet "CSV UTF-8" exports start with a BOM before the first name
    path = tmp_path / "excel.csv"
    path.write_text(header + "\n3,1\n6,4\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    data = load_csv(str(path), "target")
    assert data.feature_names == ("a",)
    first_is_target = header.startswith("target")
    assert np.array_equal(data.y, [3.0, 6.0] if first_is_target else [1.0, 4.0])


def test_load_csv_drops_bad_rows_with_a_warning(tmp_path):
    path = _write(
        tmp_path / "data.csv",
        "a,target\n1,2\nx,3\n4\n5,nan\n6,7\n",
    )
    with pytest.warns(UserWarning, match="dropped 3 rows"):
        data = load_csv(path, "target")
    assert np.array_equal(data.y, [2.0, 7.0])


def test_load_csv_error_cases(tmp_path):
    path = _write(tmp_path / "data.csv", "a,b\n1,2\n")
    with pytest.raises(ValueError, match="target column not found"):
        load_csv(path, "target")
    empty = _write(tmp_path / "empty.csv", "")
    with pytest.raises(ValueError, match="no usable rows"):
        load_csv(empty, "target")
    all_bad = _write(tmp_path / "bad.csv", "a,target\nx,y\n")
    with pytest.raises(ValueError, match="no usable rows"):
        with pytest.warns(UserWarning):
            load_csv(all_bad, "target")
    lone = _write(tmp_path / "lone.csv", "target\n1\n")
    with pytest.raises(ValueError, match="no feature columns"):
        load_csv(lone, "target")
    with pytest.raises(FileNotFoundError):
        load_csv(str(tmp_path / "missing.csv"), "target")


@pytest.mark.parametrize(
    "header, duplicates",
    [
        ("x,y,y", "['y']"),  # a second target column
        ("x,y,x", "['x']"),  # a feature column twice
        ("x, y,y ,x", "['x', 'y']"),  # equal only once stripped
    ],
)
def test_load_csv_rejects_duplicate_column_names(tmp_path, header, duplicates):
    n_cols = header.count(",") + 1
    path = _write(tmp_path / "dup.csv", header + "\n" + ",".join(["1"] * n_cols) + "\n")
    with pytest.raises(ValueError, match=rf"duplicate column names in .*: \{duplicates}"):
        load_csv(path, "y")


def test_standardize_fit_apply_round_trip():
    rng = np.random.default_rng(6)
    X = rng.normal(loc=3.0, scale=2.0, size=(200, 3))
    y = rng.normal(loc=-1.0, scale=4.0, size=200)
    params = standardize_fit(X, y)
    Xs, ys = standardize_apply(params, X, y)
    np.testing.assert_allclose(Xs.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Xs.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(np.abs(ys).mean(), 1.0, rtol=1e-12)
    X_back, y_back = standardize_invert(params, Xs, ys)
    np.testing.assert_allclose(X_back, X, atol=1e-12)
    np.testing.assert_allclose(y_back, y, atol=1e-12)


def test_standardize_drops_constant_features_with_a_warning():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 3))
    X[:, 1] = 4.0
    y = rng.normal(size=50)
    with pytest.warns(UserWarning, match="dropped 1 constant feature"):
        params = standardize_fit(X, y)
    assert np.array_equal(params.kept_features, [0, 2])
    assert standardize_apply(params, X).shape == (50, 2)


def test_standardization_parameters_ignore_row_order():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(150, 2))
    y = rng.normal(size=150)
    params = standardize_fit(X, y)
    perm = rng.permutation(150)
    shuffled = standardize_fit(X[perm], y[perm])
    assert np.array_equal(params.feature_mean, shuffled.feature_mean)
    assert np.array_equal(params.feature_std, shuffled.feature_std)
    assert params.response_scale == shuffled.response_scale


def test_standardize_degenerate_inputs_are_rejected():
    with pytest.raises(ValueError, match="all features are constant"):
        with pytest.warns(UserWarning):
            standardize_fit(np.ones((10, 2)), np.ones(10))
    X = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match="mean absolute value is zero"):
        standardize_fit(X, np.zeros(10))

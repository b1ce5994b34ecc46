"""Acceptance gate: end-to-end checks of the package's headline behaviors.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a glance at the output shows which acceptance checks stand.
The interval-length trend and the per-tail checks share one heavy
experiment, cached at module level.
"""

import shutil
import subprocess
import sys
import time

import numpy as np

from confband.conformal import local_conformal_calibrate, split_conformal_calibrate
from confband.datagen import SyntheticSpec, generate
from confband.harness import ExperimentConfig, coverage_audit, run_experiment
from confband.losses import PinballLoss
from confband.quantiles import SortedSample
from confband.regressors import (
    ForestConfig,
    MlpConfig,
    MlpMeanRegressor,
    QuantileForestRegressor,
    RidgeRegressor,
)
from confband.regressors.mlp import MlpNetwork, _PinballPairHead, _SquaredErrorHead
from test_conformal import _UNIT_MEAN
from test_forest import _oracle_quantiles
from test_mlp import _numeric_gradient
from test_quantiles import _oracle_left_quantile, _oracle_right_quantile


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_finite_sample_coverage_guarantee_holds_in_monte_carlo():
    t0 = time.perf_counter()
    audit = coverage_audit(
        n_trials=2000,
        alpha=0.1,
        n_calibration=99,
        n_test=200,
        engine="linear-q",
        seed=42,
    )
    elapsed = time.perf_counter() - t0
    pooled = audit["pooled_coverage"]
    ok = 0.894 <= pooled <= 0.916 and elapsed < 120.0
    _verdict(
        "coverage guarantee",
        ok,
        f"pooled={pooled:.4f} in [0.894, 0.916], {elapsed:.1f}s < 120s",
    )
    assert ok


def test_inflated_quantile_gives_exact_fresh_draw_rate():
    # with 9 calibration points and alpha = 0.5 the inflated quantile is
    # the 5th order statistic, so a 10th i.i.d. draw falls below it with
    # probability exactly 5/10
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    draws = rng.random((1_000_000, 10))
    q = np.partition(draws[:, :9], 4, axis=1)[:, 4]
    for row in draws[:25]:
        assert SortedSample(row[:9]).inflated_quantile(0.5) == np.partition(row[:9], 4)[4]
    rate = float(np.mean(draws[:, 9] <= q))
    elapsed = time.perf_counter() - t0
    ok = abs(rate - 0.5) <= 0.002 and elapsed < 30.0
    _verdict(
        "fresh-draw exactness",
        ok,
        f"rate={rate:.5f} within 0.5 +/- 0.002, {elapsed:.1f}s < 30s",
    )
    assert ok


_TREND_CACHE: dict = {}


def _trend_results() -> dict:
    """Four-method experiment on heteroscedastic-with-outliers data.

    Averages five independent dataset draws (20 repetitions each) so the
    comparison does not hinge on one lucky sample; per-cell metrics are the
    100 (dataset, repetition) pairs per method.
    """
    if _TREND_CACHE:
        return _TREND_CACHE
    t0 = time.perf_counter()
    cells: dict[str, dict[str, list[float]]] = {}
    for s in range(5):
        dataset, _ = generate(
            SyntheticSpec(kind="heteroscedastic_outliers", n=2000, seed=s)
        )
        cfg = ExperimentConfig(
            methods=("split", "local", "cqr", "cqr-asym"),
            engine="qrf",
            alpha=0.1,
            n_repetitions=20,
            seed=100 + s,
            forest=ForestConfig(n_trees=300, min_leaf_size=120),
        )
        report = run_experiment(cfg, dataset)
        assert not report.failures
        for row in report.repetitions:
            per_method = cells.setdefault(
                row.method,
                {"length": [], "coverage": [], "lo_miss": [], "hi_miss": []},
            )
            per_method["length"].append(row.avg_length)
            per_method["coverage"].append(row.coverage)
            per_method["lo_miss"].append(row.tail_lo_miss)
            per_method["hi_miss"].append(row.tail_hi_miss)
    _TREND_CACHE["cells"] = cells
    _TREND_CACHE["elapsed"] = time.perf_counter() - t0
    return _TREND_CACHE


def _mean_se(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def test_quantile_pair_band_beats_fixed_width_band_on_outlier_data():
    results = _trend_results()
    cells = results["cells"]
    split_len, _ = _mean_se(cells["split"]["length"])
    local_len, _ = _mean_se(cells["local"]["length"])
    cqr_len, _ = _mean_se(cells["cqr"]["length"])
    split_cov, _ = _mean_se(cells["split"]["coverage"])
    cqr_cov, _ = _mean_se(cells["cqr"]["coverage"])
    ratio = cqr_len / split_len
    between = cqr_len < local_len < split_len
    near_split = abs(local_len - split_len) / split_len <= 0.05
    elapsed = results["elapsed"]
    ok = (
        ratio <= 0.85
        and 0.88 <= split_cov <= 0.92
        and 0.88 <= cqr_cov <= 0.92
        and (between or near_split)
        and elapsed < 300.0
    )
    _verdict(
        "band-length trend",
        ok,
        f"lengths split={split_len:.4f} local={local_len:.4f} cqr={cqr_len:.4f}, "
        f"ratio={ratio:.4f} <= 0.85, coverages split={split_cov:.4f} "
        f"cqr={cqr_cov:.4f} in [0.88, 0.92], {elapsed:.0f}s < 300s",
    )
    assert ok


def test_per_tail_corrections_cost_width_but_control_each_tail():
    cells = _trend_results()["cells"]
    sym_len, sym_se = _mean_se(cells["cqr"]["length"])
    asym_len, _ = _mean_se(cells["cqr-asym"]["length"])
    lo_miss, lo_se = _mean_se(cells["cqr-asym"]["lo_miss"])
    hi_miss, hi_se = _mean_se(cells["cqr-asym"]["hi_miss"])
    ok = (
        asym_len >= sym_len - sym_se
        and lo_miss <= 0.05 + 4 * lo_se
        and hi_miss <= 0.05 + 4 * hi_se
    )
    _verdict(
        "per-tail control",
        ok,
        f"asym={asym_len:.4f} >= sym - 1se = {sym_len - sym_se:.4f}, "
        f"tail misses lo={lo_miss:.4f} <= {0.05 + 4 * lo_se:.4f}, "
        f"hi={hi_miss:.4f} <= {0.05 + 4 * hi_se:.4f}",
    )
    assert ok


def _random_quantile_cases_agree(n_cases: int, rng) -> bool:
    for case in range(n_cases):
        n = int(rng.integers(1, 51))
        values = rng.normal(size=n)
        if case % 2 == 0:
            values = np.round(values, 1)  # force ties half the time
        level = float(rng.uniform(0.01, 0.99))
        # keep levels away from exact index boundaries, where the library
        # deliberately snaps float products; those are checked separately
        while abs(level * n - round(level * n)) < 1e-6:
            level = float(rng.uniform(0.01, 0.99))
        sample = SortedSample(values)
        if sample.quantile(level) != _oracle_left_quantile(values, level):
            return False
        if sample.right_quantile(level) != _oracle_right_quantile(values, level):
            return False
    return True


def _boundary_quantile_cases_agree(n_cases: int, rng) -> bool:
    for _ in range(n_cases):
        n = int(rng.integers(2, 51))
        ordered = np.sort(rng.normal(size=n))
        k = int(rng.integers(1, n))
        sample = SortedSample(ordered)
        if sample.quantile(k / n) != ordered[k - 1]:
            return False
        if sample.right_quantile(k / n) != ordered[k]:
            return False
    return True


def _forest_readouts_agree(n_forests: int, rng) -> bool:
    for _ in range(n_forests):
        n = int(rng.integers(25, 61))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) + X[:, 0]
        config = ForestConfig(
            n_trees=int(rng.integers(3, 13)),
            min_leaf_size=int(rng.integers(2, 7)),
            bootstrap=bool(rng.integers(0, 2)),
            seed=int(rng.integers(0, 10_000)),
        )
        lo_level = float(rng.uniform(0.02, 0.45))
        hi_level = float(rng.uniform(0.55, 0.98))
        model = QuantileForestRegressor(config).fit(X, y, lo_level, hi_level)
        X_query = rng.normal(size=(3, p))
        lo, hi = model.predict_pair(X_query)
        want = _oracle_quantiles(model, X, y, X_query, (lo_level, hi_level))
        for i in range(3):
            if lo[i] != want[i][0] or hi[i] != want[i][1]:
                return False
    return True


def _pinball_subgradients_match(rng) -> float:
    worst = 0.0
    eps = 1e-7
    for _ in range(300):
        loss = PinballLoss(float(rng.uniform(0.02, 0.98)))
        y = float(rng.normal())
        pred = float(rng.normal())
        if abs(y - pred) < 1e-3:
            continue
        numeric = (
            loss.loss(np.array([y]), np.array([pred + eps]))[0]
            - loss.loss(np.array([y]), np.array([pred - eps]))[0]
        ) / (2 * eps)
        analytic = loss.subgradient(np.array([y]), np.array([pred]))[0]
        worst = max(worst, abs(analytic - numeric) / max(abs(numeric), 1e-12))
    return worst


def _network_gradients_match(rng_seed: int) -> float:
    rng = np.random.default_rng(rng_seed)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    config = MlpConfig(hidden_width=8, dropout_keep_prob=1.0, seed=rng_seed)
    worst = 0.0
    for head in (_SquaredErrorHead(), _PinballPairHead(0.05, 0.95)):
        net = MlpNetwork(3, head.n_outputs, config, np.random.default_rng(rng_seed + 1))
        _, w_grads, b_grads = net.loss_and_grads(X, y, head)
        analytic = np.concatenate([g.ravel() for g in w_grads + b_grads])
        numeric = _numeric_gradient(net, X, y, head)
        worst = max(
            worst, np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        )
    return worst


def test_oracle_equivalence_suite():
    rng = np.random.default_rng(5150)
    quantiles_ok = _random_quantile_cases_agree(10_000, rng)
    boundaries_ok = _boundary_quantile_cases_agree(2_000, rng)
    forests_ok = _forest_readouts_agree(50, np.random.default_rng(424242))
    pinball_err = _pinball_subgradients_match(np.random.default_rng(31))
    net_err = max(_network_gradients_match(11), _network_gradients_match(17))
    ok = (
        quantiles_ok
        and boundaries_ok
        and forests_ok
        and pinball_err < 1e-5
        and net_err < 1e-4
    )
    _verdict(
        "oracle equivalence",
        ok,
        f"quantiles exact={quantiles_ok}, boundaries exact={boundaries_ok}, "
        f"forests exact={forests_ok}, pinball fd err={pinball_err:.2e} < 1e-5, "
        f"network fd err={net_err:.2e} < 1e-4",
    )
    assert ok


def test_collapse_identities():
    rng = np.random.default_rng(99)
    X1 = rng.normal(size=(80, 2))
    y1 = X1[:, 0] + rng.normal(size=80)
    X2 = rng.normal(size=(60, 2))
    y2 = X2[:, 0] + rng.normal(size=60)
    grid = rng.normal(size=(30, 2))
    mu = RidgeRegressor(1.0).fit(X1, y1)
    split_band = split_conformal_calibrate(mu, X2, y2, 0.1)
    local_band = local_conformal_calibrate(
        mu, _UNIT_MEAN, X2, y2, 0.1, gamma=0.0
    )
    s_lo, s_hi = split_band.predict_interval(grid)
    l_lo, l_hi = local_band.predict_interval(grid)
    endpoint_gap = max(
        float(np.max(np.abs(l_lo - s_lo))), float(np.max(np.abs(l_hi - s_hi)))
    )

    c = 2.5
    X = rng.normal(size=(60, 2))
    qrf = QuantileForestRegressor(ForestConfig(n_trees=15, seed=1))
    qrf.fit(X, np.full(60, c), 0.05, 0.95)
    lo, hi = qrf.predict_pair(grid)
    qrf_gap = max(float(np.max(np.abs(lo - c))), float(np.max(np.abs(hi - c))))

    mlp_config = MlpConfig(
        max_epochs=800, learning_rate=3e-3, dropout_keep_prob=1.0, seed=9
    )
    X_mlp = np.random.default_rng(42).uniform(-1.0, 1.0, size=(120, 2))
    mlp = MlpMeanRegressor(mlp_config, cv_folds=1).fit(X_mlp, np.full(120, 3.7))
    mlp_err = float(np.max(np.abs(mlp.predict(X_mlp) - 3.7)))
    mlp_tol = 3.7 * 1e-2 + 1e-2

    ok = endpoint_gap <= 1e-12 and qrf_gap == 0.0 and mlp_err < mlp_tol
    _verdict(
        "collapse identities",
        ok,
        f"local-split endpoint gap={endpoint_gap:.2e} <= 1e-12, "
        f"constant-forest gap={qrf_gap:.2e}, "
        f"constant-network err={mlp_err:.4f} < {mlp_tol:.4f}",
    )
    assert ok


def test_cli_reports_are_byte_identical_across_runs():
    exe = shutil.which("confband")
    if exe is not None:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "confband.cli"]
    argv = cmd + [
        "run", "--synthetic", "heteroscedastic_outliers",
        "--method", "cqr", "--engine", "qrf", "--seed", "7",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=600)
    second = subprocess.run(argv, capture_output=True, timeout=600)
    identical = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith(b"{")
    )
    _verdict(
        "byte-identical reports",
        identical,
        f"rc={first.returncode}/{second.returncode}, "
        f"{len(first.stdout)} bytes each, equal={first.stdout == second.stdout}",
    )
    assert identical

"""Mutation check: each known-bad edit of ``src/`` must fail the tests named to catch it.

    python3 scripts/mutants.py

Every mutant in ``MUTANTS`` is one exact text substitution that must match
exactly once in the ``.py`` files under ``src/``, and it names the tests
that must kill it. The script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, runs every named test once
on the unmutated copy (they must all pass), and then, one mutant after
another, applies the substitution and runs that mutant's tests only
(``pytest -x``, one BLAS thread, no bytecode written, so no stale
``.pyc`` can hide an edit).

It prints one line per mutant and exits 1 when a mutant survives its tests,
its text no longer matches once, a named test is missing, or the unmutated
copy fails a named test. The script edits no file of the checkout. A
survivor is mended by a new test, or by a note in CHANGES.md that says why
the mutant is equivalent; a refactor that moves a mutant's text updates the
text here. The whole table of 58 mutants runs in about 130 s on a 2-vCPU VM.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    old: str
    new: str
    killers: tuple[str, ...]


_ADAM = "tests/test_mlp.py::test_adam_step_matches_a_scalar_adam_bit_for_bit"
_TIES = "tests/test_harness.py::test_quantile_level_tuning_grid_and_ties"
_AUDIT_BAND = "tests/test_harness.py::test_an_audit_trial_band_is_the_public_calibrator_band[linear-q]"
_GROWTH = "tests/test_forest.py::test_batched_growth_equals_the_per_node_grower"
_SHAPES = "tests/test_regressors.py::test_every_fit_and_read_takes_a_finite_2d_x_and_a_1d_y[ridge]"
_SET_ASIDE = "tests/test_forest.py::test_routing_that_sets_finished_pairs_aside_equals_the_per_tree_walk"
_LEAVE_ONE_OUT = "tests/test_conformal.py::test_leaving_each_of_n_plus_one_points_out_covers_exactly_k_of_them"
_FITTED_LEAVE_ONE_OUT = tuple(
    "tests/test_harness.py::test_leaving_each_of_n_plus_one_points_out_of_an_engines_fitted_reads_"
    f"covers_exactly_k_of_them[{engine}]"
    for engine in ("ridge", "mlp", "qrf", "linear-q", "oracle")
)
_BAND_CALL = "correction = conformal_correction(*cal, y_cal, *levels)"

MUTANTS = (
    # the MLP trainer
    Mutant("adam-first-moment-uncorrected", "m_hat = m / (1.0 - _ADAM_BETA1**t)", "m_hat = m", (_ADAM,)),
    Mutant("adam-second-moment-uncorrected", "v_hat = v / (1.0 - _ADAM_BETA2**t)", "v_hat = v", (_ADAM,)),
    Mutant(
        "dropout-mask-left-out-of-backprop",
        "g = g * mask_prev",
        "g = g",
        ("tests/test_mlp.py::test_gradients_under_fixed_dropout_masks_match_finite_differences",),
    ),
    Mutant(
        "dropout-not-inverted",
        "mask = (dropout_rng.random(h.shape) < keep) / keep",
        "mask = (dropout_rng.random(h.shape) < keep) * 1.0",
        ("tests/test_mlp.py::test_dropout_masks_are_inverted",),
    ),
    Mutant(
        "mean-response-bound-at-the-forest-bound",
        "log2_response_bound = 255",
        "log2_response_bound = 511",
        ("tests/test_mlp.py::test_the_mean_rejects_responses_that_overflow_its_optimizer_at_the_forest_bound",),
    ),
    Mutant(
        "epoch-selection-returns-max-epochs",
        "return int(np.argmin(curve)) + 1",
        "return config.max_epochs",
        ("tests/test_mlp.py::test_epoch_selection_takes_the_first_minimum_of_the_cross_validated_curve",),
    ),
    # the quantile forest
    Mutant(
        "routing-one-step-short",
        "for step in range(1, self.depth + 1):",
        "for step in range(1, self.depth):",
        ("tests/test_forest.py::test_quantile_readout_matches_weighted_cdf_oracle",),
    ),
    Mutant(
        "routing-drops-the-last-live-pairs",
        "        leaf[pair] = node\n",
        "",
        (f"{_SET_ASIDE}[2k+1]",),
    ),
    Mutant(
        "routing-sets-aside-pairs-on-feature-0-splits",
        "split = self.feature[node] >= 0",
        "split = self.feature[node] > 0",
        (f"{_SET_ASIDE}[2k+1]",),
    ),
    Mutant(
        "leaf-threshold-finite",
        "threshold = np.where(is_split, threshold, np.inf)",
        "threshold = np.where(is_split, threshold, 1e300)",
        ("tests/test_forest.py::test_a_deep_table_routes_every_pair_in_depth_steps[bootstrap]",),
    ),
    Mutant(
        "split-search-tie-window-one-late",
        "tie_w[first + lo, : hi - lo]",
        "tie_w[first + lo + 1, : hi - lo]",
        (f"{_GROWTH}[300-2-1-True-integer-1]",),
    ),
    Mutant(
        "split-search-past-a-node-end",
        "            invalid |= past_end\n",
        "",
        (f"{_GROWTH}[400-1-5-True-normal-1]",),
    ),
    Mutant(
        "growth-moves-no-order",
        "moves = [feature != j for j in range(len(orders))]",
        "moves = [feature < -1 for j in range(len(orders))]",
        (f"{_GROWTH}[300-3-4-False-constant-1]",),
    ),
    Mutant(
        "growth-leaves-x-and-y-copies-behind",
        "order[to], x_j[to], y_j[to] = samples, x_j[pos], y_j[pos]",
        "order[to] = samples",
        (f"{_GROWTH}[300-3-4-False-constant-1]",),
    ),
    Mutant(
        "growth-skips-an-order-any-node-splits-on",
        "if not move.any():",
        "if not move.all():",
        (f"{_GROWTH}[300-3-4-False-constant-1]",),
    ),
    Mutant(
        "no-cdf-slack",
        "_CDF_RTOL = 1e-9",
        "_CDF_RTOL = 0.0",
        ("tests/test_forest.py::test_single_leaf_reads_order_statistics",),
    ),
    # the fit and read boundary
    Mutant(
        "rows-not-c-ordered",
        'X = np.asarray(X, dtype=float, order="C")',
        "X = np.asarray(X, dtype=float)",
        ("tests/test_regressors.py::test_a_read_gives_each_row_the_same_bits_in_any_slice_and_layout[ridge-8]",),
    ),
    Mutant(
        "one-dimensional-x-read-as-a-column",
        "    if X.ndim != 2:",
        "    if X.ndim == 1:\n        X = X.reshape(-1, 1)\n    if X.ndim != 2:",
        (_SHAPES, "tests/test_datagen.py::test_a_dataset_takes_a_2d_x_and_a_1d_y_of_as_many_rows"),
    ),
    Mutant(
        "non-finite-x-accepted",
        "if not np.all(np.isfinite(X)):",
        "if False:",
        (_SHAPES,),
    ),
    Mutant(
        "response-flattened",
        "    if y.ndim != 1:",
        "    y = y.reshape(-1)\n    if y.ndim != 1:",
        (_SHAPES, "tests/test_datagen.py::test_a_dataset_takes_a_2d_x_and_a_1d_y_of_as_many_rows"),
    ),
    Mutant(
        "package-imports-a-submodule",
        '__version__ = "0.1.0"',
        'from . import harness  # noqa: F401\n__version__ = "0.1.0"',
        ("tests/test_package.py::test_importing_the_package_loads_no_numpy_and_no_submodule",),
    ),
    # evaluation
    Mutant(
        "endpoint-counts-as-a-lower-miss",
        "np.count_nonzero(y_test < lo, axis=-1)",
        "np.count_nonzero(y_test <= lo, axis=-1)",
        ("tests/test_harness.py::test_a_point_on_an_endpoint_is_covered_and_misses_no_tail",),
    ),
    Mutant(
        "lower-endpoint-not-covered",
        "(y_test >= lo) & (y_test <= hi)",
        "(y_test > lo) & (y_test <= hi)",
        ("tests/test_harness.py::test_a_point_on_an_endpoint_is_covered_and_misses_no_tail",),
    ),
    # calibration
    Mutant(
        "audit-correction-pooled-over-a-block-of-trials",
        _BAND_CALL,
        "pooled = [np.reshape(v, -1) if np.ndim(v) else v for v in cal]\n"
        "    correction = conformal_correction(*pooled, y_cal.reshape(-1), *levels)\n"
        "    correction = np.full(y_cal.shape[:-1], correction) if y_cal.ndim > 1 else correction",
        (_AUDIT_BAND,),
    ),
    Mutant(
        "audit-trials-calibrated-on-the-first-trial",
        _BAND_CALL,
        "correction = conformal_correction(*[v[:1] if np.ndim(v) > 1 else v for v in cal],"
        " y_cal[:1] if y_cal.ndim > 1 else y_cal, *levels)",
        (_AUDIT_BAND,),
    ),
    Mutant(
        "audit-of-one-trial-allowed",
        'n_trials = check_count("n_trials", n_trials, minimum=2)',
        'n_trials = check_count("n_trials", n_trials)',
        ("tests/test_cli.py::test_coverage_audit_of_one_trial_is_one_error_line",),
    ),
    Mutant(
        "band-holds-an-unpicklable-reader",
        "plugin = partial(_fitted_plugin, method, models, gamma)",
        "plugin = lambda X: _fitted_plugin(method, models, gamma, X)  # noqa: E731",
        ("tests/test_conformal.py::test_a_band_of_fitted_engines_pickles_and_reads_the_same_bits",),
    ),
    Mutant(
        "order-statistic-unchecked",
        "if not 1 <= k <= self.n:",
        "if False:",
        ("tests/test_quantiles.py::test_an_order_statistic_outside_one_to_n_is_rejected",),
    ),
    Mutant(
        "no-finite-sample-inflation",
        "scaled = _snap((1.0 - alpha) * (n + 1))",
        "scaled = _snap((1.0 - alpha) * n)",
        ("tests/test_conformal.py::test_tiny_calibration_set_yields_infinite_intervals",),
    ),
    Mutant(
        "inflated-rank-rounded",
        "return max(int(math.ceil(scaled)), 1)",
        "return max(int(round(scaled)), 1)",
        ("tests/test_quantiles.py::test_inflated_quantiles_and_corrections_take_the_referee_rank",),
    ),
    Mutant(
        "infinite-from-rank-n",
        "if scaled > n:",
        "if scaled >= n:",
        ("tests/test_conformal.py::test_split_correction_from_hand_residuals",),
    ),
    # the same three rank rules, each caught by the leave-one-out count alone,
    # on fixed plug-in values and on every engine's fitted reads
    Mutant(
        "held-out-rank-rounded",
        "return max(int(math.ceil(scaled)), 1)",
        "return max(int(round(scaled)), 1)",
        (_LEAVE_ONE_OUT, *_FITTED_LEAVE_ONE_OUT),
    ),
    Mutant(
        "held-out-infinite-from-rank-n",
        "if scaled > n:",
        "if scaled >= n:",
        (_LEAVE_ONE_OUT, *_FITTED_LEAVE_ONE_OUT),
    ),
    Mutant(
        "held-out-rank-not-inflated",
        "scaled = _snap((1.0 - alpha) * (n + 1))",
        "scaled = _snap((1.0 - alpha) * n)",
        (_LEAVE_ONE_OUT, *_FITTED_LEAVE_ONE_OUT),
    ),
    Mutant(
        "calibrator-skips-the-crossing-repair",
        "return fix_crossing(*models[role].predict_pair(X))",
        "return models[role].predict_pair(X)",
        ("tests/test_conformal.py::test_a_crossed_quantile_pair_is_repaired_as_the_wrapped_pair_is[on-calibration-rows]",),
    ),
    Mutant(
        "crossed-intervals-kept",
        "if np.any(crossed):",
        "if False:",
        ("tests/test_conformal.py::test_crossed_corrected_endpoints_collapse_to_midpoint",),
    ),
    Mutant(
        "dispersion-not-clamped-at-zero",
        'np.maximum(read("dispersion"), 0.0) + gamma',
        'read("dispersion") + gamma',
        ("tests/test_conformal.py::test_a_dispersion_read_below_zero_counts_as_zero",),
    ),
    Mutant(
        "cqr-asym-tails-at-alpha",
        'levels = (alpha / 2.0, alpha / 2.0) if method == "cqr-asym"',
        'levels = (alpha, alpha) if method == "cqr-asym"',
        ("tests/test_harness.py::test_the_run_loop_band_is_the_public_calibrator_band[cqr-asym-qrf]",),
    ),
    # quantile-level tuning
    Mutant(
        "tuning-ties-to-the-farthest-level",
        "[abs(g - alpha) for g in grid]",
        "[-abs(g - alpha) for g in grid]",
        (_TIES,),
    ),
    Mutant(
        "tuning-fit-and-calibration-rows-swapped",
        "fit, cal = rest[: rest.size // 2], rest[rest.size // 2 :]",
        "cal, fit = rest[: rest.size // 2], rest[rest.size // 2 :]",
        (_TIES, "tests/test_harness.py::test_tuning_scores_every_fold_like_the_public_calibrator[linear-q]"),
    ),
    # engines
    Mutant(
        "knn-takes-k-plus-one",
        'self.k = check_count("k", k)',
        'self.k = check_count("k", k) + 1',  # the tie rule mends a partition one row wide
        ("tests/test_knn.py::test_two_nearest_rows_are_averaged",),
    ),
    Mutant(
        "knn-l1-distance",
        "acc += d * d",
        "acc += np.abs(d)",
        ("tests/test_knn.py::test_matches_brute_force_neighbor_average",),
    ),
    Mutant(
        "knn-full-neighbourhood-summed-in-row-order",
        "neighbors = np.argpartition(dists, self.k - 1, axis=1)[:, : self.k]",
        "neighbors = np.argpartition(dists, self.k - 1, axis=1)[:, : self.k]\n"
        "        if self.k == self._X.shape[0]:\n"
        "            neighbors = np.broadcast_to(np.arange(self.k), neighbors.shape)",
        ("tests/test_knn.py::test_a_read_has_the_same_bits_in_any_training_row_order",),
    ),
    Mutant(
        "knn-residual-bound-dropped",
        'check_response_size(r, 1023, "average as k-NN residuals")',
        "None",
        ("tests/test_regressors.py::test_a_fit_rejects_responses_past_its_bound_and_fits_those_at_it[knn]",),
    ),
    Mutant(
        "knn-overflowed-distances-read",
        "if not np.all(np.isfinite(dists)):",
        "if False:",
        ("tests/test_knn.py::test_distances_that_overflow_a_float_are_a_value_error",),
    ),
    Mutant(
        "ridge-singular-fit-raises-linalg-error",
        "except np.linalg.LinAlgError:",
        "except ZeroDivisionError:",
        ("tests/test_ridge.py::test_collinear_features_without_a_penalty_are_singular",),
    ),
    Mutant(
        "ridge-penalty-squared",
        "gram = Xc.T @ Xc + lam * np.eye(X.shape[1])",
        "gram = Xc.T @ Xc + lam * lam * np.eye(X.shape[1])",
        ("tests/test_ridge.py::test_multifeature_fit_matches_normal_equations",),
    ),
    Mutant(
        "ridge-overflowed-fit-kept",
        "if not (np.all(np.isfinite(coef)) and np.isfinite(intercept)):",
        "if False:",
        ("tests/test_ridge.py::test_a_fit_whose_normal_equations_overflow_is_a_value_error",),
    ),
    Mutant(
        "ridge-cv-ties-to-the-largest-penalty",
        "return grid[int(np.argmin(mse))]",
        "return grid[len(grid) - 1 - int(np.argmin(mse[::-1]))]",
        ("tests/test_ridge.py::test_cross_validation_ties_go_to_the_smaller_penalty",),
    ),
    Mutant(
        "pinball-step-one-over-t",
        "step = self.learning_rate / math.sqrt(1.0 + t)",
        "step = self.learning_rate / (1.0 + t)",
        ("tests/test_linear_pinball.py::test_constant_model_converges_to_median_of_integers",),
    ),
    Mutant(
        "pinball-subgradient-half-at-the-kink",
        "np.heaviside(np.subtract(y_hat, y, dtype=float), self.alpha)",
        "np.heaviside(np.subtract(y_hat, y, dtype=float), 0.5)",
        ("tests/test_losses.py::test_pinball_subgradient_hand_values",),
    ),
    Mutant(
        "pinball-intercept-step-regrouped",
        "b -= step * (float(g.sum()) / n)",
        "b -= step * float(g.sum()) / n",
        ("tests/test_linear_pinball.py::test_the_epoch_matches_the_where_epoch_bit_for_bit",),
    ),
    Mutant(
        "pinball-divergence-checks-the-intercept-only",
        "if not (np.isfinite(w).all() and math.isfinite(b)):",
        "if not math.isfinite(b):",
        ("tests/test_linear_pinball.py::test_exploding_learning_rate_raises_divergence_error",),
    ),
    Mutant(
        "pinball-zero-response-scale-kept",
        "if scale == 0.0:",
        "if False:",
        ("tests/test_linear_pinball.py::test_an_all_zero_response_fits_at_unit_scale_and_reads_zero",),
    ),
    Mutant(
        "standardize-ddof-one",
        'f"squared deviations of column {j}") / n)',
        'f"squared deviations of column {j}") / (n - 1))',
        ("tests/test_datagen.py::test_standardize_fit_apply_round_trip",),
    ),
    # the command line
    Mutant(
        "config-boolean-any-word",
        'if lowered not in ("true", "false"):',
        "if False:",
        ("tests/test_cli.py::test_any_other_config_boolean_names_its_line[yes]",),
    ),
    Mutant(
        "config-boolean-never-true",
        'return lowered == "true"',
        "return False",
        ("tests/test_cli.py::test_a_config_boolean_is_true_or_false_in_any_case[TRUE-True]",),
    ),
    Mutant(
        "some-failed-repetitions-not-warned",
        "if report.failures:",
        "if False:",
        ("tests/test_cli.py::test_a_run_where_some_repetitions_fail_warns_and_reports_the_rest",),
    ),
)


def _matches(copy: Path, text: str) -> list[Path]:
    """Each file under ``copy/src`` once per occurrence of ``text``."""
    return [
        path
        for path in sorted((copy / "src").rglob("*.py"))
        for _ in range(path.read_text(encoding="utf-8").count(text))
    ]


def _pytest(copy: Path, tests) -> tuple[int, str]:
    env = dict(
        os.environ,
        PYTHONPATH=str(copy / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return done.returncode, done.stdout + done.stderr


def main() -> int:
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        killers = sorted({test for m in MUTANTS for test in m.killers})
        code, output = _pytest(copy, killers)
        if code != 0:
            print(f"the unmutated copy fails a named test (pytest exit {code}):\n{output}")
            return 1
        for m in MUTANTS:
            found = _matches(copy, m.old)
            if len(found) != 1:
                print(f"NO MATCH  {m.name}: its text matches {len(found)} times in src/, not once")
                bad += 1
                continue
            path = found[0]
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(m.old, m.new), encoding="utf-8")
            t0 = time.perf_counter()
            code, output = _pytest(copy, m.killers)
            path.write_text(source, encoding="utf-8")
            if code == 1:
                print(f"killed    {m.name} ({time.perf_counter() - t0:.1f} s)")
            elif code == 0:
                print(f"SURVIVED  {m.name}: {', '.join(m.killers)} all pass")
                bad += 1
            else:
                print(f"ERROR     {m.name}: pytest exit {code}\n{output}")
                bad += 1
    print(f"{len(MUTANTS)} mutants, {bad} not killed, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

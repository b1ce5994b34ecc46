"""Package-level checks: the import footprint and the README quick start."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    code = (
        "import sys, confband; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.spatial') "
        "if m in sys.modules))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # only a forest read needs the sparse product; the audits and the CLI's
    # start-up do not pay for its import
    code = "import sys, confband.cli; print('scipy.sparse' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"


def _quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_its_claims_hold():
    scope = {}
    exec(_quick_start_block(), scope)
    band, pair, X, y = scope["band"], scope["pair"], scope["X"], scope["y"]
    lo, hi = scope["lo"], scope["hi"]
    assert lo.shape == hi.shape == (10,)
    assert np.all(lo <= hi)

    # the band is immutable
    with pytest.raises(dataclasses.FrozenInstanceError):
        band.correction = 0.0
    # prediction never re-reads calibration data
    X_new = X[:10].copy()
    X[:] = np.nan
    y[:] = np.nan
    lo_again, hi_again = band.predict_interval(X_new)
    assert np.array_equal(lo_again, lo) and np.array_equal(hi_again, hi)
    # CrossingFixPair holds no state of its own
    before = dict(vars(pair))
    pair.predict_pair(X_new)
    assert vars(pair) == before and list(before) == ["inner"]

"""Package-level checks: the public surface, the tracer hooks, the import
footprint and the README quick start."""

import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confband

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_name_in_every_all_resolves_once():
    modules = [confband] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(confband.__path__, "confband.")
    ]
    for module in modules:
        names = getattr(module, "__all__", ())
        assert len(names) == len(set(names)), f"{module.__name__}.__all__ has duplicates"
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


# Installs the benchmark's span hooks and undoes them. Every attribute of
# every confband module and class is compared by identity before install,
# while installed and after uninstall. ``install`` looks each hooked name up
# in its owner's ``__dict__``, so it fails here when a hooked name is gone.
_HOOK_ROUND_TRIP = """
import inspect, json, sys
import confband.cli
import spans

def snapshot():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "confband" or name.startswith("confband."):
            out[name] = dict(vars(module))
            for attr, cls in vars(module).items():
                if inspect.isclass(cls) and cls.__module__ == name:
                    out[name + "." + attr] = dict(vars(cls))
    return out

def differ(a, b):
    return sorted(
        f"{owner}.{attr}" for owner, attrs in a.items() for attr in attrs.keys() | b[owner].keys()
        if attrs.get(attr) is not b[owner].get(attr)
    )

before = snapshot()
uninstall = spans.install(spans.SpanLog())
patched = differ(before, snapshot())
uninstall()
print(json.dumps({"patched": patched, "left": differ(before, snapshot())}))
"""


def test_the_tracer_hooks_install_and_uninstall_cleanly():
    done = subprocess.run(
        [sys.executable, "-c", _HOOK_ROUND_TRIP],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}"},
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert "confband.harness.run_experiment" in result["patched"]
    assert "confband.conformal.ConformalBand.predict_interval" in result["patched"]
    assert result["left"] == []


def test_importing_the_cli_loads_no_scipy_module():
    # an oracle quantile imports scipy.special and a forest read scipy.sparse;
    # the CLI's start-up and the linear audit pay for neither
    code = "import sys, confband.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


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

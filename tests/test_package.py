"""Package-level checks: the public surface, the tracer hooks, the import
footprint, the files the package writes and the README."""

import ast
import dataclasses
import importlib
import importlib.util
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
from confband import harness

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


def test_importing_the_package_loads_no_numpy_and_no_submodule():
    # each public name is imported from its own module, so the package itself is empty
    code = (
        "import sys, confband; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'confband')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.strip() == "['confband']"


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


# calls that write a file, besides ``open`` in a writing mode
_FILE_WRITERS = {"write_text", "write_bytes", "mkdir", "touch", "save", "savez", "savetxt", "tofile"}


def _file_writes(path: Path) -> list[int]:
    """The lines of ``path`` that call a file writer, or ``open`` with a mode that is
    not a literal read mode."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        reads = all(isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt") for m in modes)
        if name in _FILE_WRITERS or (name == "open" and not reads):
            lines.append(node.lineno)
    return lines


def test_only_the_cli_writes_files():
    writes = {
        path.relative_to(ROOT).as_posix(): _file_writes(path)
        for path in sorted((ROOT / "src" / "confband").rglob("*.py"))
    }
    assert writes.pop("src/confband/cli.py"), "the scan no longer finds the CLI's writes"
    assert {path: lines for path, lines in writes.items() if lines} == {}


def _quick_start_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_quick_start_runs_and_its_claims_hold():
    scope = {}
    exec(_quick_start_blocks()[0], scope)
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


def test_readme_experiment_example_runs(capsys):
    exec(_quick_start_blocks()[1], {})
    header, *rows = capsys.readouterr().out.strip().splitlines()
    assert header == harness.CSV_HEADER
    assert [(row.split(",")[0], row.split(",")[-1]) for row in rows] == [
        ("split", "3"), ("local", "3"), ("cqr", "3"),
    ]


def test_every_test_the_readme_names_exists():
    text = README.read_text(encoding="utf-8")
    named = re.findall(r"tests/(\w+\.py)::(\w+)", text)  # a [param] suffix is not matched
    assert named
    missing = [
        f"tests/{file}::{name}"
        for file, name in named
        if not (ROOT / "tests" / file).is_file()
        or not re.search(rf"^def {name}\(", (ROOT / "tests" / file).read_text(encoding="utf-8"), re.M)
    ]
    assert missing == []
    # and every promise names at least one test
    promises = text.split("## What confband promises", 1)[1].split("\n## ", 1)[0]
    items = re.split(r"^- ", promises, flags=re.M)[1:]
    assert items and [item for item in items if "tests/" not in item] == []


def test_every_mutant_matches_once_and_names_tests_that_exist():
    # scripts/mutants.py runs the mutants against their tests; this keeps its table
    # in step with src/ and tests/ between runs
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert len(mutants._matches(ROOT, m.old)) == 1, m.name
        for test in m.killers:
            file, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[[^]]+\])?", test).group(1, 2)
            assert re.search(rf"^def {name}\(", (ROOT / file).read_text(encoding="utf-8"), re.M), test

"""Run a script's worker against the sources of one or two checkouts.

A checkout is a directory with ``src/confband`` in it. A script that
compares checkouts parses them with ``parse_checkouts`` and runs its own
``--emit`` worker once per checkout with ``emit``: a fresh Python process
with that checkout's ``src`` on the path, one BLAS thread,
``PYTHONHASHSEED=0`` and an empty working directory, whose stdout is one
JSON document.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_checkouts(description: str) -> tuple[argparse.Namespace, list[Path]]:
    """Parse ``[CHECKOUT [CHECKOUT]] [--emit]``; default to this script's checkout."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("checkouts", nargs="*", type=Path, help="one or two source checkouts")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if len(args.checkouts) > 2:
        parser.error("give at most two checkouts")
    return args, [c.resolve() for c in args.checkouts] or [ROOT]


def emit(script: str, checkout: Path):
    """Run ``script --emit`` against ``checkout``'s sources and return its JSON."""
    if not (checkout / "src" / "confband" / "__init__.py").is_file():
        raise SystemExit(f"error: no confband sources under {checkout / 'src'}")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, str(Path(script).resolve()), "--emit"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=True,
        )
    return json.loads(proc.stdout)

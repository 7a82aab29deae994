"""Every script under ``examples/`` runs to completion and prints something."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Command-line arguments per example: the Google-trace examples take a
#: trace scale, kept tiny here.
EXAMPLE_ARGS = {
    "quickstart.py": [],
    "straggler_mitigation.py": [],
    "google_trace_comparison.py": ["0.003"],
    "parameter_tuning.py": ["0.003"],
}


def test_every_example_is_listed():
    assert sorted(EXAMPLE_ARGS) == sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", sorted(EXAMPLE_ARGS))
def test_example_runs(script):
    # The scripts import the package this test suite imports.
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *EXAMPLE_ARGS[script]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()

"""Smoke tests: the experiment scripts run to completion on small inputs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name, args, last",
    [
        ("containment_sweep.py", ("2",), ["all", "containments", "verified"]),
        ("duval_table.py", ("6",), ["E_8", "trivial", "1", "1", "x^5", "+", "y^3", "+", "z^2"]),
    ],
)
def test_script_runs(name, args, last):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == last

"""Smoke tests: the experiment scripts run to completion on small inputs,
and the containment sweep's and the du Val table's reports stay
byte-identical."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )


@pytest.mark.parametrize(
    "name, args, last",
    [
        ("containment_sweep.py", ("2",), ["all", "containments", "verified"]),
        ("duval_table.py", ("6",), ["E_8", "trivial", "1", "1", "x^5", "+", "y^3", "+", "z^2"]),
    ],
)
def test_script_runs(name, args, last):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == last


def test_containment_sweep_report_unchanged():
    """The whole panel's verify and sharpness report at a_max = 3."""
    proc = run_script("containment_sweep.py", "3")
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "tests" / "data" / "containment_sweep_3.txt").read_text()
    assert proc.stdout == expected


def test_duval_table_report_unchanged():
    """Every catalog row up to index 8, with the A rows' toric cross-check."""
    proc = run_script("duval_table.py", "8")
    assert proc.returncode == 0, proc.stderr
    expected = (ROOT / "tests" / "data" / "duval_table_8.txt").read_text()
    assert proc.stdout == expected


def test_containment_sweep_over_the_sweep_limit_is_one_error_line():
    """The half quotient's sweep at D = 2 passes the sweep's work limit at
    level 1172, after the quadrant's sweep has finished; no part of the
    report is printed."""
    proc = run_script("containment_sweep.py", "2000")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "sweep" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["containment_sweep.py", "duval_table.py"])
@pytest.mark.parametrize("arg", ["0", "-2", "x", "1.5"])
def test_bad_argument_is_one_error_line(name, arg):
    """Rejected before any report line: exit 1 and one ``error:`` line."""
    proc = run_script(name, arg)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

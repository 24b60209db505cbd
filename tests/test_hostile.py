"""Hostile input: every request answers, or fails fast through the CLI's
one ``error:`` line.

Each row runs ``python -m symtoric`` on one input file in a subprocess,
under a wall-clock timeout and an address-space limit that is set in the
child alone.  A rejected input exits 1 with nothing on stdout and exactly
one stderr line, which starts ``error: ``; a traceback never reaches the
user.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60
ADDRESS_SPACE = 2 << 30


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_cli(tmp_path: Path, content: bytes, argv: tuple[str, ...],
            timeout: float = TIMEOUT_S) -> subprocess.CompletedProcess:
    path = tmp_path / "input"
    path.write_bytes(content)
    return subprocess.run(
        [sys.executable, "-m", "symtoric", *argv, str(path)],
        capture_output=True,
        text=True,
        # the package need not be installed: run it from this checkout
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=timeout,
        preexec_fn=_limit_address_space,
    )


@pytest.mark.parametrize(
    "content, argv, names_file",
    [
        # json.loads recurses once per bracket
        (b"[" * 100_000, ("cone", "--json", "info"), False),
        (b"", ("cone", "info"), False),
        (b"# a comment and nothing else\n\n", ("cone", "info"), False),
        (b"dim x\n1 0\n", ("cone", "info"), False),
        (b'{"dim": 2}', ("cone", "--json", "info"), False),
        # a file that cannot be decoded is named, like one that cannot be opened
        (b"dim 2\n\xff\xfe 1 0\n", ("cone", "info"), True),
    ],
    ids=["nested-json", "empty", "comment-only", "dim-x", "json-without-rays", "not-utf8"],
)
def test_rejected_with_one_error_line(tmp_path, content, argv, names_file):
    proc = run_cli(tmp_path, content, argv)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (1, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and proc.stderr == line + "\n"
    if names_file:
        assert str(tmp_path / "input") in line


def test_bom_before_json_is_read(tmp_path):
    proc = run_cli(tmp_path, b'\xef\xbb\xbf{"dim": 2, "rays": [[1, 2], [1, 0]]}', ("cone", "--json", "info"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[2:5] == ["dim 2", "1 0", "1 2"]


# the smooth cone of dimension 30, one identity ray per coordinate
SMOOTH_30 = "dim 30\n" + "".join(" ".join("01"[i == j] for j in range(30)) + "\n" for i in range(30))


@pytest.mark.parametrize(
    "argv",
    [
        ("classgroup",),
        ("multiplier",),
        ("cone", "hilbert"),
        ("verify", "--ray", "0", "--D", "1", "--amax", "3"),
    ],
    ids=["classgroup", "multiplier", "cone-hilbert", "verify"],
)
def test_dimension_30_answers(tmp_path, argv):
    proc = run_cli(tmp_path, SMOOTH_30.encode(), argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"command: {' '.join(argv)} {tmp_path / 'input'}\n")


# the smooth cone's rays e1..e29 and (1, ..., 1, 2): determinant 2, and 2^29 dual
# parallelotope points
DET2_30 = SMOOTH_30.rsplit("\n", 2)[0] + "\n" + "1 " * 29 + "2\n"
# a ray entry of 4300 digits, the most that int() reads by default
DIGITS_4300 = "dim 2\n0 1\n" + "9" * 4300 + " -7\n"
# determinant 10^9 + 7: a parallelotope of that many points would not fit in memory
DET_1E9 = "dim 2\n0 1\n1000000007 -7\n"
VERIFY_1 = ("verify", "--ray", "0", "--D", "1", "--amax", "1")


@pytest.mark.parametrize(
    "content, argv",
    [
        (DET2_30, ("cone", "hilbert")),
        (DET2_30, ("verify", "--ray", "0", "--D", "1", "--amax", "3")),
        (DIGITS_4300, VERIFY_1),
        (DIGITS_4300, ("cone", "hilbert")),
        (DET_1E9, VERIFY_1),
    ],
    ids=["det2-30-hilbert", "det2-30-verify", "digits-4300-verify", "digits-4300-hilbert",
         "det-1e9-verify"],
)
def test_parallelotope_over_the_work_limit_fails_fast(tmp_path, content, argv):
    proc = run_cli(tmp_path, content.encode(), argv)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (1, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "parallelotope" in line


# parallelotopes of 20011 and 400^2 points: the Hilbert basis's pairwise test
# would run for minutes, so it is refused first
DET_20011 = "dim 2\n0 1\n20011 -7\n"
DET_400 = "dim 3\n1 0 0\n0 1 0\n7 11 400\n"


@pytest.mark.parametrize("content", [DET_20011, DET_400], ids=["det-20011", "det-400"])
def test_hilbert_basis_over_its_work_limit_fails_fast(tmp_path, content):
    proc = run_cli(tmp_path, content.encode(), ("cone", "hilbert"), timeout=5)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (1, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Hilbert basis" in line


# ray 0's prime on e1, e2, (3, 5, 61) has 21 generators: level 14 would form
# C(34, 14), about 1.4 * 10^9 sums, and level 9, C(29, 9) > 2^23, is the first over the limit
DET_61 = "dim 3\n1 0 0\n0 1 0\n3 5 61\n"


def test_ordinary_power_over_the_sums_limit_fails_fast(tmp_path):
    argv = ("verify", "--ray", "0", "--D", "61", "--amax", "14")
    proc = run_cli(tmp_path, DET_61.encode(), argv, timeout=10)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (1, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "sums" in line


# a ray entry of 4301 digits, one more than int() reads by default
NINES_4301 = "9" * 4301


@pytest.mark.parametrize(
    "content, argv",
    [
        (f"dim 2\n0 1\n{NINES_4301} -7\n", ("cone", "info")),
        (f'{{"dim": 2, "rays": [[0, 1], [{NINES_4301}, -7]]}}', ("cone", "--json", "info")),
    ],
    ids=["text", "json"],
)
def test_entry_over_the_digit_limit_gets_a_short_error(tmp_path, content, argv):
    proc = run_cli(tmp_path, content.encode(), argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "digits" in line and len(line) < 200


@pytest.mark.parametrize("content", [DET2_30, DET_1E9], ids=["det2-30", "det-1e9"])
@pytest.mark.parametrize("command", ["classgroup", "multiplier"])
def test_no_enumeration_answers_over_the_work_limit(tmp_path, content, command):
    proc = run_cli(tmp_path, content.encode(), (command,))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"command: {command} {tmp_path / 'input'}\n")

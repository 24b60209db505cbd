from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

from cone_zoo import CUBE_RAYS
import symtoric
from symtoric import cli, cones, exact_linalg
from symtoric.cli import main

A1_TEXT = "dim 2\n1 0\n1 2\n"
A1_JSON = '{"dim": 2, "rays": [[1, 2], [1, 0]]}\n'
KLEIN4_TEXT = "dim 3\n# three rays, two independent index-two quotients\n1 0 0\n1 2 0\n1 0 2\n"
SQUARE_TEXT = "dim 3\n0 0 1\n1 0 1\n0 1 1\n1 1 1\n"
FLAT_TEXT = "dim 3\n1 0 0\n0 1 0\n"
DET11_TEXT = "dim 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 2 3 11\n"
CUBE_TEXT = "dim 4\n" + "".join(" ".join(map(str, ray)) + "\n" for ray in CUBE_RAYS)


@pytest.fixture()
def a1_file(tmp_path):
    path = tmp_path / "a1.cone"
    path.write_text(A1_TEXT)
    return str(path)


@pytest.fixture()
def klein4_file(tmp_path):
    path = tmp_path / "klein4.cone"
    path.write_text(KLEIN4_TEXT)
    return str(path)


@pytest.fixture()
def det11_file(tmp_path):
    path = tmp_path / "det11.cone"
    path.write_text(DET11_TEXT)
    return str(path)


def count_calls(monkeypatch, source, names):
    """Count calls of the named functions of module ``source``, wrapped
    wherever a symtoric module binds them, so calls between them count too.

    The modules are the ones this file imported, reached from its own
    ``symtoric`` package rather than ``sys.modules``: another suite may
    have re-imported symtoric since, and ``main`` here still calls the
    first import."""
    counts = Counter()
    modules = [symtoric, *(m for m in vars(symtoric).values() if isinstance(m, ModuleType))]
    for name in names:
        original = getattr(source, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return counts


def count_eliminations(monkeypatch):
    """Count the exact_linalg eliminations; a cofactor inside ``adjugate``
    counts as a ``determinant`` call."""
    return count_calls(monkeypatch, exact_linalg, ("smith_normal_form", "determinant", "adjugate"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConeReports:
    def test_info_golden(self, capsys, a1_file):
        code, out, err = run_cli(capsys, "cone", "info", a1_file)
        assert code == 0 and err == ""
        assert out == (
            f"command: cone info {a1_file}\n"
            "input: sha256:45cb2093a4bb\n"
            "dim 2\n"
            "1 0\n"
            "1 2\n"
            "rays: 2\n"
            "simplicial: true\n"
            "full: true\n"
            "det: 2\n"
        )

    def test_dual_golden(self, capsys, a1_file):
        code, out, err = run_cli(capsys, "cone", "dual", a1_file)
        assert code == 0
        assert out.endswith("dim 2\n0 1\n2 -1\n")

    def test_hilbert_golden(self, capsys, a1_file):
        code, out, err = run_cli(capsys, "cone", "hilbert", a1_file)
        assert code == 0
        assert out == (
            f"command: cone hilbert {a1_file}\n"
            "input: sha256:45cb2093a4bb\n"
            "hilbert basis:\n"
            "(0, 1)\n"
            "(1, 0)\n"
            "(2, -1)\n"
        )

    def test_info_round_trips(self, capsys, tmp_path, a1_file):
        code, first, _ = run_cli(capsys, "cone", "info", a1_file)
        assert code == 0
        lines = first.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("input:"))
        stop = next(i for i, line in enumerate(lines) if line.startswith("rays:"))
        echoed = "\n".join(lines[start + 1 : stop]) + "\n"
        other = tmp_path / "echoed.cone"
        other.write_text(echoed)
        code, second, _ = run_cli(capsys, "cone", "info", str(other))
        assert code == 0
        assert second.split("\n", 1)[1] == first.split("\n", 1)[1]

    def test_json_input_same_digest(self, capsys, tmp_path, a1_file):
        jpath = tmp_path / "a1.json"
        jpath.write_text(A1_JSON)
        _, text_out, _ = run_cli(capsys, "cone", "info", a1_file)
        _, json_out, _ = run_cli(capsys, "cone", "info", str(jpath), "--json")
        assert "input: sha256:45cb2093a4bb" in json_out
        assert text_out.split("\n", 1)[1] == json_out.split("\n", 1)[1]

    def test_comments_and_blanks_ignored(self, capsys, tmp_path):
        path = tmp_path / "c.cone"
        path.write_text("# header\n\ndim 2\n1 0  # x axis\n\n1 2\n")
        code, out, _ = run_cli(capsys, "cone", "info", str(path))
        assert code == 0 and "input: sha256:45cb2093a4bb" in out

    def test_deterministic_across_runs(self, capsys, klein4_file):
        results = [run_cli(capsys, "cone", "hilbert", klein4_file) for _ in range(2)]
        assert results[0] == results[1]


class TestClassGroupReport:
    def test_a1_golden(self, capsys, a1_file):
        code, out, err = run_cli(capsys, "classgroup", a1_file)
        assert code == 0
        assert out == (
            f"command: classgroup {a1_file}\n"
            "input: sha256:45cb2093a4bb\n"
            "invariant factors: [2]\n"
            "free rank: 0\n"
            "order: 2\n"
            "exponent: 2\n"
        )

    def test_square_base_reports_infinite(self, capsys, tmp_path):
        path = tmp_path / "square.cone"
        path.write_text(SQUARE_TEXT)
        code, out, _ = run_cli(capsys, "classgroup", str(path))
        assert code == 0
        assert "free rank: 1\norder: infinite\nexponent: infinite\n" in out

    def test_cube_golden(self, capsys, tmp_path):
        path = tmp_path / "cube.cone"
        path.write_text(CUBE_TEXT)
        code, out, err = run_cli(capsys, "classgroup", str(path))
        assert code == 0 and err == ""
        assert out == (
            f"command: classgroup {path}\n"
            "input: sha256:25860f721106\n"
            "invariant factors: [2, 2, 2]\n"
            "free rank: 4\n"
            "order: infinite\n"
            "exponent: infinite\n"
        )


class TestMultiplierReport:
    def test_a1_golden(self, capsys, a1_file):
        code, out, _ = run_cli(capsys, "multiplier", a1_file)
        assert code == 0
        assert out.endswith("D (determinant): 2\nD_min (exponent): 2\n")
        assert "note:" not in out

    def test_klein4_notes_gap(self, capsys, klein4_file):
        code, out, _ = run_cli(capsys, "multiplier", klein4_file)
        assert code == 0
        assert out == (
            f"command: multiplier {klein4_file}\n"
            "input: sha256:a884ad7d61c5\n"
            "D (determinant): 4\n"
            "D_min (exponent): 2\n"
            "note: D_min is smaller than D (class group is not cyclic)\n"
        )

    def test_klein4_one_smith_form(self, capsys, klein4_file, monkeypatch):
        # the class group reads make_cone's Smith form; det_multiplier's
        # Bareiss determinant is the independent check of the group order
        expected = run_cli(capsys, "multiplier", klein4_file)
        counts = count_eliminations(monkeypatch)
        assert run_cli(capsys, "multiplier", klein4_file) == expected
        assert counts == {"smith_normal_form": 1, "determinant": 1}

    def test_cone_not_full(self, capsys, tmp_path):
        # det_multiplier's error, not class_group_of's
        path = tmp_path / "flat.cone"
        path.write_text(FLAT_TEXT)
        code, out, err = run_cli(capsys, "multiplier", str(path))
        assert code == 1 and out == ""
        assert err == "error: determinant multiplier needs a simplicial full cone\n"


class TestEliminationCounts:
    @pytest.mark.parametrize(
        "argv, smith_forms",
        [
            (("classgroup",), 1),
            (("cone", "info"), 1),
            (("cone", "dual"), 2),
            (("cone", "hilbert"), 2),
            (("verify", "--ray", "0", "--D", "11", "--amax", "1"), 2),
        ],
    )
    def test_one_smith_form_per_cone(self, capsys, det11_file, monkeypatch, argv, smith_forms):
        # one Smith form for the cone and, for its dual rays, one for the
        # dual cone; no determinant or adjugate besides: the period
        # character of ``verify`` reuses the cone's stored form
        expected = run_cli(capsys, *argv, det11_file)
        counts = count_eliminations(monkeypatch)
        assert run_cli(capsys, *argv, det11_file) == expected
        assert counts == {"smith_normal_form": smith_forms}


class TestHilbertBasisCalls:
    @pytest.mark.parametrize(
        "argv, calls",
        [
            (("verify", "--ray", "0", "--D", "11", "--amax", "1"), 0),
            (("sharpness", "--ray", "0", "--D", "10", "--amax", "1"), 0),
            (("cone", "hilbert"), 1),
        ],
    )
    def test_only_cone_hilbert_builds_a_basis(self, capsys, det11_file, monkeypatch, argv, calls):
        # the ideal layer reads the dual rays and the parallelotope alone
        expected = run_cli(capsys, *argv, det11_file)
        counts = count_calls(monkeypatch, cones, ("hilbert_basis",))
        assert run_cli(capsys, *argv, det11_file) == expected
        assert counts["hilbert_basis"] == calls


class TestVerifyCommand:
    def test_failing_multiplier_golden(self, capsys, a1_file):
        code, out, err = run_cli(
            capsys, "verify", a1_file, "--ray", "0", "--D", "1", "--amax", "2"
        )
        assert code == 2 and err == ""
        assert out == (
            f"command: verify {a1_file} --ray 0 --D 1 --amax 2\n"
            "input: sha256:45cb2093a4bb\n"
            "ideal: P0^(1)\n"
            "D: 1\n"
            "a_max: 2\n"
            "a = 1: PASS\n"
            "a = 2: FAIL witness (2, -1)\n"
            "verdict: FAIL\n"
        )

    def test_passing_multiplier(self, capsys, a1_file):
        code, out, _ = run_cli(
            capsys, "verify", a1_file, "--ray", "0", "--D", "2", "--amax", "3"
        )
        assert code == 0
        assert out.endswith("a = 1: PASS\na = 2: PASS\na = 3: PASS\nverdict: PASS\n")

    def test_multi_ray_with_b(self, capsys, a1_file):
        code, out, _ = run_cli(
            capsys,
            "verify", a1_file,
            "--ray", "0", "--ray", "1",
            "--b", "1,2",
            "--D", "2", "--amax", "2",
        )
        assert code == 0
        assert "ideal: P0^(1) & P1^(2)\n" in out
        assert out.endswith("verdict: PASS\n")


class TestSharpnessCommand:
    def test_witness_golden(self, capsys, a1_file):
        code, out, _ = run_cli(
            capsys, "sharpness", a1_file, "--ray", "0", "--D", "1", "--amax", "4"
        )
        assert code == 0
        assert out.endswith(
            "ideal: P0^(1)\nD_candidate: 1\na_max: 4\nwitness: a = 2, monomial (2, -1)\n"
        )

    def test_no_witness(self, capsys, a1_file):
        code, out, _ = run_cli(
            capsys, "sharpness", a1_file, "--ray", "0", "--D", "2", "--amax", "4"
        )
        assert code == 0
        assert out.endswith("witness: none (up to a = 4)\n")


class TestDuvalCommand:
    def test_lookup_golden(self, capsys):
        code, out, err = run_cli(capsys, "duval", "D", "4")
        assert code == 0 and err == ""
        assert out == (
            "command: duval D 4\n"
            "group: Z/2 x Z/2\n"
            "D_min: 2\n"
            "equation: x^2 + yz^2 - z^3\n"
        )

    def test_trivial_group_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "duval", "E", "8")
        assert code == 0
        assert out == (
            "command: duval E 8\n"
            "group: trivial\n"
            "D_min: 1\n"
            "equation: x^5 + y^3 + z^2\n"
        )

    def test_check_an_golden(self, capsys):
        code, out, _ = run_cli(capsys, "duval", "check-an", "3")
        assert code == 0
        assert out == (
            "command: duval check-an 3\n"
            "n = 1: ok\n"
            "n = 2: ok\n"
            "n = 3: ok\n"
            "verdict: PASS\n"
        )


class TestErrorPaths:
    def check_error(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, captured
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        return captured.err

    def test_missing_file(self, capsys):
        self.check_error(capsys, "classgroup", "/nonexistent/path.cone")

    def test_missing_dim_header(self, capsys, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text("1 0\n1 2\n")
        err = self.check_error(capsys, "classgroup", str(path))
        assert "line 1" in err

    def test_non_integer_ray(self, capsys, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text("dim 2\n1 x\n")
        err = self.check_error(capsys, "classgroup", str(path))
        assert "line 2" in err

    def test_zero_ray_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text("dim 2\n1 0\n0 0\n")
        err = self.check_error(capsys, "classgroup", str(path))
        assert err == "error: ray 1 is the zero vector\n"

    def test_non_convex_cone_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.cone"
        path.write_text("dim 2\n1 1\n-1 -1\n")
        err = self.check_error(capsys, "classgroup", str(path))
        assert err == "error: cone contains the line through (-1, -1)\n"

    def test_classgroup_needs_full(self, capsys, tmp_path):
        path = tmp_path / "flat.cone"
        path.write_text(FLAT_TEXT)
        err = self.check_error(capsys, "classgroup", str(path))
        assert err == "error: class group presentation needs a full-dimensional cone\n"

    def test_hilbert_needs_simplicial_full(self, capsys, tmp_path):
        path = tmp_path / "square.cone"
        path.write_text(SQUARE_TEXT)
        err = self.check_error(capsys, "cone", "hilbert", str(path))
        assert err == "error: dualization needs a simplicial full-dimensional cone\n"

    @pytest.mark.parametrize(
        "command, options",
        [(("cone", "hilbert"), ()), (("verify",), ("--ray", "0", "--D", "1", "--amax", "1"))],
    )
    def test_flat_cone_not_dualized(self, capsys, tmp_path, command, options):
        path = tmp_path / "flat.cone"
        path.write_text(FLAT_TEXT)
        err = self.check_error(capsys, *command, str(path), *options)
        assert err == "error: dualization needs a simplicial full-dimensional cone\n"

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        err = self.check_error(capsys, "classgroup", str(path), "--json")
        assert "JSON" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"dim":2,"rays":[[true,0],[1,2]]}', "ray 0"),
            ('{"dim":true,"rays":[[3]]}', "'dim'"),
        ],
    )
    def test_json_booleans_rejected(self, capsys, tmp_path, payload, message):
        path = tmp_path / "bool.json"
        path.write_text(payload)
        err = self.check_error(capsys, "cone", "info", str(path), "--json")
        assert message in err

    @pytest.mark.parametrize("payload", ['{"dim": 2, "rays": null}', '{"dim": 2, "rays": 5}'])
    def test_json_rays_not_a_list(self, capsys, tmp_path, payload):
        path = tmp_path / "rays.json"
        path.write_text(payload)
        err = self.check_error(capsys, "cone", "info", str(path), "--json")
        assert "'rays'" in err

    def test_duval_out_of_catalog(self, capsys):
        err = self.check_error(capsys, "duval", "B", "9")
        assert err == "error: no du Val singularity of type B_9\n"
        err = self.check_error(capsys, "duval", "B", "2")
        assert err == "error: no du Val singularity of type B_2\n"

    def test_check_an_bad_bound(self, capsys):
        err = self.check_error(capsys, "duval", "check-an", "0")
        assert err == "error: check-an needs a positive bound, got 0\n"
        err = self.check_error(capsys, "duval", "check-an", "10001")
        assert err == "error: check-an bound 10001 is above the limit of 10000\n"

    def test_bad_b_list(self, capsys, a1_file):
        err = self.check_error(
            capsys, "verify", a1_file, "--ray", "0", "--b", "x", "--D", "1", "--amax", "1"
        )
        assert err == "error: --b 'x' is not a comma separated integer list\n"
        err = self.check_error(
            capsys, "verify", a1_file, "--ray", "0", "--b", "1,x", "--D", "1", "--amax", "1"
        )
        assert err == "error: --b '1,x' is not a comma separated integer list\n"

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--ray", "0", "--ray", "0"), "ray index 0 appears twice"),
            (("--ray", "0", "--b", "0"), "multiplicity 0 on ray 0 must be >= 1"),
        ],
    )
    def test_bad_ideal(self, capsys, a1_file, monkeypatch, options, message):
        def unexpected(cone):
            pytest.fail("the parallelotope was built before the ideal was checked")

        monkeypatch.setattr(cli, "semigroup_data", unexpected)
        err = self.check_error(capsys, "verify", a1_file, *options, "--D", "1", "--amax", "1")
        assert err == f"error: {message}\n"

    def test_b_length_mismatch(self, capsys, a1_file):
        err = self.check_error(
            capsys, "verify", a1_file, "--ray", "0", "--b", "1,2", "--D", "1", "--amax", "1"
        )
        assert "2 multiplicities for 1 rays" in err

    def test_bad_ray_index(self, capsys, a1_file):
        self.check_error(
            capsys, "verify", a1_file, "--ray", "5", "--D", "1", "--amax", "1"
        )

    def test_bad_multiplier(self, capsys, a1_file):
        err = self.check_error(
            capsys, "verify", a1_file, "--ray", "0", "--D", "0", "--amax", "1"
        )
        assert "--D" in err

    @pytest.mark.parametrize("multiplier, amax, option", [("0", "1", "--D"), ("1", "0", "--amax")])
    def test_bad_multiplier_before_hilbert_basis(
        self, capsys, a1_file, monkeypatch, multiplier, amax, option
    ):
        def unexpected(cone):
            pytest.fail(f"the parallelotope was built before {option} was checked")

        monkeypatch.setattr(cli, "semigroup_data", unexpected)
        err = self.check_error(
            capsys, "verify", a1_file, "--ray", "0", "--D", multiplier, "--amax", amax
        )
        assert option in err

    @pytest.mark.parametrize("ray", ["9", "-1"])
    def test_bad_ray_index_before_hilbert_basis(self, capsys, klein4_file, monkeypatch, ray):
        def unexpected(cone):
            pytest.fail("the parallelotope was built before the ray index was checked")

        monkeypatch.setattr(cli, "semigroup_data", unexpected)
        err = self.check_error(
            capsys, "verify", klein4_file, "--ray", ray, "--D", "1", "--amax", "1"
        )
        assert err == f"error: ray index {ray} out of range for 3 rays\n"

    def test_missing_required_option(self, capsys, a1_file):
        self.check_error(capsys, "verify", a1_file, "--D", "1", "--amax", "1")

    def test_unknown_command(self, capsys):
        self.check_error(capsys, "frobnicate")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "symtoric", "duval", "A", "1"],
            capture_output=True,
            text=True,
            # the package need not be installed: run it from this checkout
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        )
        assert proc.returncode == 0
        assert "D_min: 2" in proc.stdout

"""Command line frontend.

Subcommands: cone info/dual/hilbert, classgroup, multiplier, verify,
sharpness, duval; each subparser names its handler in its defaults.
Reports go to stdout and are byte-identical across runs for identical
inputs; diagnostics go to stderr as a single line with an ``error:``
prefix and exit code 1.  ``verify`` (and ``duval check-an``) exit 0
when the verification passes and 2 when it fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from math import prod
from typing import Sequence

from .class_group import class_group_of, det_multiplier, group_exponent, group_order
from .cones import Cone, SemigroupData, dual_cone, hilbert_basis, make_cone
from .duval import cross_check_an, lookup
from .ideals import PureHeightOneIdeal, _checked_components
from .ideals import find_sharpness_witness, verify_containment

__all__ = ["main"]

# largest n for ``duval check-an n``: one cone and one class group per
# k <= n, about 0.06 ms each, so the bound keeps a request near a second
_MAX_CHECK_AN = 10_000


class CliError(ValueError):
    """Input problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="symtoric", description="toric class groups and symbolic power checks")
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("cone", help="cone reports")
    cone.set_defaults(handler=_cmd_cone)
    cone_sub = cone.add_subparsers(dest="action", required=True)
    for action in ("info", "dual", "hilbert"):
        p = cone_sub.add_parser(action)
        p.add_argument("file")
        p.add_argument("--json", action="store_true", dest="as_json")

    for name, handler in (("classgroup", _cmd_classgroup), ("multiplier", _cmd_multiplier)):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("file")
        p.add_argument("--json", action="store_true", dest="as_json")

    verify = sub.add_parser("verify", help="symbolic-into-ordinary containment sweep")
    sharp = sub.add_parser("sharpness", help="search for a failing level of a candidate multiplier")
    verify.set_defaults(handler=_cmd_verify)
    sharp.set_defaults(handler=_cmd_sharpness)
    for p in (verify, sharp):
        p.add_argument("file")
        p.add_argument("--json", action="store_true", dest="as_json")
        p.add_argument("--ray", action="append", type=int, required=True,
                       help="ray index; repeat to intersect several ray primes")
        p.add_argument("--b", default=None,
                       help="comma separated multiplicities, one per --ray (default all ones)")
        p.add_argument("--D", type=int, required=True, dest="multiplier")
        p.add_argument("--amax", type=int, required=True)

    duval = sub.add_parser("duval", help="du Val catalog lookups and checks")
    duval.set_defaults(handler=_cmd_duval)
    duval.add_argument("family", help="A, D, E, or check-an")
    duval.add_argument("n", type=int)
    return parser


def _parse_cone_text(text: str) -> tuple[int, list[tuple[int, ...]]]:
    dim: int | None = None
    rays: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if len(parts) != 2 or parts[0] != "dim":
                raise CliError(f"line {lineno}: expected 'dim N' header, got {line!r}")
            try:
                dim = int(parts[1])
            except ValueError:
                raise CliError(f"line {lineno}: dimension {parts[1]!r} is not an integer") from None
            continue
        try:
            rays.append(tuple(int(tok) for tok in parts))
        except ValueError:
            raise CliError(f"line {lineno}: ray {line!r} is not an integer vector") from None
    if dim is None:
        raise CliError("missing 'dim N' header")
    return dim, rays


def _parse_cone_json(text: str) -> tuple[int, list[tuple[int, ...]]]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "dim" not in payload or "rays" not in payload:
        raise CliError("JSON cone needs 'dim' and 'rays' keys")
    dim = payload["dim"]
    # exact type test: JSON true/false load as bool, a subclass of int
    if type(dim) is not int:
        raise CliError(f"JSON 'dim' must be an integer, got {dim!r}")
    if not isinstance(payload["rays"], list):
        raise CliError(f"JSON 'rays' must be a list, got {payload['rays']!r}")
    rays = []
    for k, ray in enumerate(payload["rays"]):
        if not isinstance(ray, list) or not all(type(x) is int for x in ray):
            raise CliError(f"ray {k} is not a list of integers")
        rays.append(tuple(ray))
    return dim, rays


def _load_cone(path: str, as_json: bool) -> Cone:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    dim, rays = _parse_cone_json(text) if as_json else _parse_cone_text(text)
    return make_cone(rays, dim)


def _cone_block(cone: Cone) -> list[str]:
    """Echo of the cone in re-ingestible file format."""
    return [f"dim {cone.ambient_dim}"] + [" ".join(map(str, ray)) for ray in cone.rays]


def _digest(cone: Cone) -> str:
    canonical = "\n".join(_cone_block(cone)) + "\n"
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _header(argv: Sequence[str], cone: Cone | None) -> list[str]:
    lines = ["command: " + " ".join(argv)]
    if cone is not None:
        lines.append(f"input: sha256:{_digest(cone)}")
    return lines


def _fmt_infinite(value: int | None) -> str:
    return "infinite" if value is None else str(value)


def _fmt_group(factors: tuple[int, ...], free_rank: int) -> str:
    parts = ["Z"] * free_rank + [f"Z/{d}" for d in factors]
    return " x ".join(parts) if parts else "trivial"


def _cmd_cone(ns: argparse.Namespace, cone: Cone) -> tuple[list[str], int]:
    if ns.action == "dual":
        return _cone_block(dual_cone(cone)), 0
    if ns.action == "hilbert":
        return ["hilbert basis:"] + [str(h) for h in hilbert_basis(cone).hilbert_basis], 0
    lines = _cone_block(cone)
    lines.append(f"rays: {len(cone.rays)}")
    lines.append(f"simplicial: {'true' if cone.is_simplicial else 'false'}")
    lines.append(f"full: {'true' if cone.is_full else 'false'}")
    if len(cone.rays) == cone.ambient_dim:
        lines.append(f"det: {prod(cone.smith.invariant_factors)}")
    return lines, 0


def _cmd_classgroup(ns: argparse.Namespace, cone: Cone) -> tuple[list[str], int]:
    group = class_group_of(cone)
    return [
        f"invariant factors: {list(group.invariant_factors)}",
        f"free rank: {group.free_rank}",
        f"order: {_fmt_infinite(group_order(group))}",
        f"exponent: {_fmt_infinite(group_exponent(group))}",
    ], 0


def _cmd_multiplier(ns: argparse.Namespace, cone: Cone) -> tuple[list[str], int]:
    # det_multiplier first: a cone that is not full gets its error, not class_group_of's
    d = det_multiplier(cone)
    d_min = group_exponent(class_group_of(cone))
    lines = [f"D (determinant): {d}", f"D_min (exponent): {d_min}"]
    if d_min != d:
        lines.append("note: D_min is smaller than D (class group is not cyclic)")
    return lines, 0


def _build_ideal(ns: argparse.Namespace, cone: Cone) -> PureHeightOneIdeal:
    rays = list(ns.ray)
    if ns.b is None:
        mults = [1] * len(rays)
    else:
        try:
            mults = [int(tok) for tok in ns.b.split(",")]
        except ValueError:
            raise CliError(f"--b {ns.b!r} is not a comma separated integer list") from None
        if len(mults) != len(rays):
            raise CliError(f"--b lists {len(mults)} multiplicities for {len(rays)} rays")
    # checked before a sweep enumerates the |det W| dual parallelotope points, W the dual rays
    if ns.multiplier < 1:
        raise CliError(f"--D must be >= 1, got {ns.multiplier}")
    if ns.amax < 1:
        raise CliError(f"--amax must be >= 1, got {ns.amax}")
    nrays = len(cone.rays)
    for ray in sorted(rays):
        if not 0 <= ray < nrays:
            raise CliError(f"ray index {ray} out of range for {nrays} rays")
    components = _checked_components(zip(rays, mults), nrays)
    return PureHeightOneIdeal(SemigroupData(cone), components)


def _fmt_components(q: PureHeightOneIdeal) -> str:
    return " & ".join(f"P{ray}^({mult})" for ray, mult in q.components)


def _cmd_verify(ns: argparse.Namespace, cone: Cone) -> tuple[list[str], int]:
    q = _build_ideal(ns, cone)
    report = verify_containment(q, ns.multiplier, ns.amax)
    lines = [f"ideal: {_fmt_components(q)}", f"D: {ns.multiplier}", f"a_max: {ns.amax}"]
    for check in report.levels:
        if check.passed:
            lines.append(f"a = {check.level}: PASS")
        else:
            lines.append(f"a = {check.level}: FAIL witness {check.witness}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return lines, 0 if report.passed else 2


def _cmd_sharpness(ns: argparse.Namespace, cone: Cone) -> tuple[list[str], int]:
    q = _build_ideal(ns, cone)
    found = find_sharpness_witness(q, ns.multiplier, ns.amax)
    lines = [f"ideal: {_fmt_components(q)}", f"D_candidate: {ns.multiplier}", f"a_max: {ns.amax}"]
    if found is None:
        lines.append(f"witness: none (up to a = {ns.amax})")
    else:
        level, monomial = found
        lines.append(f"witness: a = {level}, monomial {monomial}")
    return lines, 0


def _cmd_duval(ns: argparse.Namespace, cone: None) -> tuple[list[str], int]:
    if ns.family == "check-an":
        if ns.n < 1:
            raise CliError(f"check-an needs a positive bound, got {ns.n}")
        if ns.n > _MAX_CHECK_AN:
            raise CliError(f"check-an bound {ns.n} is above the limit of {_MAX_CHECK_AN}")
        results = [cross_check_an(k) for k in range(1, ns.n + 1)]
        lines = [f"n = {k}: {'ok' if ok else 'MISMATCH'}" for k, ok in enumerate(results, 1)]
        passed = all(results)
        lines.append(f"verdict: {'PASS' if passed else 'FAIL'}")
        return lines, 0 if passed else 2
    record = lookup(ns.family, ns.n)
    return [
        f"group: {_fmt_group(record.group.invariant_factors, record.group.free_rank)}",
        f"D_min: {record.d_min}",
        f"equation: {record.local_equation}",
    ], 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one request: the only code here that writes stdout or stderr."""
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _build_parser().parse_args(args)
        cone = None if ns.command == "duval" else _load_cone(ns.file, ns.as_json)
        body, code = ns.handler(ns, cone)
    except ValueError as exc:
        # CliError for input problems, and the library's domain errors
        # (unsupported cone, bad catalog pair, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(_header(args, cone) + body) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command line frontend.

Subcommands: cone info/dual/hilbert, classgroup, multiplier, verify,
sharpness, duval; each has one subparser, which names its handler in its
defaults.
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
from .cones import Cone, dual_cone, hilbert_basis, make_cone
from .duval import cross_check_an, lookup
from .ideals import PureHeightOneIdeal, find_sharpness_witness, verify_containment

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
    cone.add_argument("action", choices=("info", "dual", "hilbert"))
    classgroup = sub.add_parser("classgroup")
    multiplier = sub.add_parser("multiplier")
    verify = sub.add_parser("verify", help="symbolic-into-ordinary containment sweep")
    sharp = sub.add_parser("sharpness", help="search for a failing level of a candidate multiplier")
    for p, handler in ((cone, _cmd_cone), (classgroup, _cmd_classgroup),
                       (multiplier, _cmd_multiplier), (verify, _cmd_verify),
                       (sharp, _cmd_sharpness)):
        p.set_defaults(handler=handler)
        p.add_argument("file")
        p.add_argument("--json", action="store_true", dest="as_json")
    for p in (verify, sharp):
        p.add_argument("--ray", action="append", type=_integer, required=True,
                       help="ray index; repeat to intersect several ray primes")
        p.add_argument("--b", default=None,
                       help="comma separated multiplicities, one per --ray (default all ones)")
        p.add_argument("--D", type=_integer, required=True, dest="multiplier")
        p.add_argument("--amax", type=_integer, required=True)

    duval = sub.add_parser("duval", help="du Val catalog lookups and checks")
    duval.set_defaults(handler=_cmd_duval)
    duval.add_argument("family", help="A, D, E, or check-an")
    duval.add_argument("n", type=_integer)
    return parser


def _long_digits(token: str) -> int:
    """The digit count of a decimal token too long for int() to read, else 0."""
    digits = token.lstrip("+-")
    over = digits.isdecimal() and len(digits) > getattr(sys, "get_int_max_str_digits", lambda: 0)() > 0
    return len(digits) if over else 0


def _integer(token: str) -> int:
    """``int`` for an argument, whose error names one too long by its digit count
    and echoes at most 200 characters of any other."""
    try:
        return int(token)
    except ValueError:
        if digits := _long_digits(token):
            raise argparse.ArgumentTypeError(f"integer of {digits} digits is too long") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r:.200}") from None


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
                raise CliError(f"line {lineno}: expected 'dim N' header, got {line!r:.200}")
            try:
                dim = int(parts[1])
            except ValueError:
                raise CliError(f"line {lineno}: dimension {parts[1]!r:.200} is not an integer") from None
            continue
        try:
            rays.append(tuple(int(tok) for tok in parts))
        except ValueError:
            if digits := _long_digits(max(parts, key=len)):
                raise CliError(f"line {lineno}: ray entry of {digits} digits is too long") from None
            raise CliError(f"line {lineno}: ray {line!r:.200} is not an integer vector") from None
    if dim is None:
        raise CliError("missing 'dim N' header")
    return dim, rays


def _parse_cone_json(text: str) -> tuple[int, list[tuple[int, ...]]]:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path}: not UTF-8 text") from None
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
            if digits := _long_digits(max(ns.b.split(","), key=len)):
                raise CliError(f"--b entry of {digits} digits is too long") from None
            raise CliError(f"--b {ns.b!r:.200} is not a comma separated integer list") from None
        if len(mults) != len(rays):
            raise CliError(f"--b lists {len(mults)} multiplicities for {len(rays)} rays")
    # checked here rather than in the library so that the messages name
    # --D and --amax; an out-of-range --ray would reach the library's
    # IndexError, which is not a ValueError, so main would not report it
    if ns.multiplier < 1:
        raise CliError(f"--D must be >= 1, got {ns.multiplier}")
    if ns.amax < 1:
        raise CliError(f"--amax must be >= 1, got {ns.amax}")
    nrays = len(cone.rays)
    for ray in sorted(rays):
        if not 0 <= ray < nrays:
            raise CliError(f"ray index {ray} out of range for {nrays} rays")
    return PureHeightOneIdeal(cone, tuple(zip(rays, mults)))


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

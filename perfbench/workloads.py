"""The benchmark's three workloads: job pools, seeded job lists, execution
and output checks.

Each workload draws its job list from a fixed pool, so every job that any
seed can produce has a digest recorded in ``golden.json``.  The pool is
split into *slots* of jobs of similar cost; a seed picks a fixed number
of jobs from each slot, which keeps the cost of a job list nearly the
same from seed to seed while the inputs differ.  Pools, slots and quotas
are data, not measurements, so they never depend on the machine.

A job is ``Job(kind, args)`` with only integers, strings and tuples in
``args``; ``job.key`` is its canonical name in ``golden.json``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import oracles

E3 = ((1, 0, 0), (0, 1, 0))
E4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
DET61 = E3 + ((3, 5, 61),)
DET11_4D = E4 + ((1, 2, 3, 11),)


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple

    @property
    def key(self) -> str:
        return f"{self.kind}{self.args!r}"


def _cone(rays) -> tuple:
    """Canonical ray tuple: primitive and lex-sorted, as the library stores it."""
    return tuple(sorted(oracles.primitive(r) for r in rays))


def _coprime_tail(rng: random.Random, d: int, width: int, max_sum: int,
                  min_sum: int = 0) -> tuple:
    """Last ray (a_1..a_width, d) with each a_i a unit mod d and
    min_sum <= sum <= max_sum, so the dual parallelotope has exactly
    d^width points."""
    units = [a for a in range(1, d) if gcd(a, d) == 1]
    while True:
        head = tuple(rng.choice(units) for _ in range(width))
        if min_sum <= sum(head) <= max_sum:
            return head + (d,)


def _sample_pool(tag: str, size: int, make) -> list:
    """``size`` distinct results of ``make(rng)`` from an rng seeded by tag."""
    rng = random.Random(tag)
    out: list = []
    for _ in range(50 * size):
        item = make(rng)
        if item not in out:
            out.append(item)
            if len(out) == size:
                break
    return out


class Workload:
    name = ""

    def fixed(self) -> list[Job]:
        return []

    def slots(self) -> list[tuple[int, list[Job]]]:
        """(quota, pool) pairs; each pool is a list of jobs of similar cost."""
        raise NotImplementedError

    def pool(self) -> list[Job]:
        """Every job any seed can draw."""
        jobs = list(self.fixed())
        for _, slot in self.slots():
            jobs += [j for j in slot if j not in jobs]
        return jobs

    def job_list(self, seed: int) -> list[Job]:
        rng = random.Random(f"{self.name}/{seed}")
        jobs = list(self.fixed())
        for quota, slot in self.slots():
            jobs += rng.sample([j for j in slot if j not in jobs], quota)
        rng.shuffle(jobs)
        return jobs

    # per-workload hooks
    def prepare(self, lib, jobs: list[Job], workdir: Path):
        """Precompute what the timed jobs take as given; returns the state."""
        return None

    def execute(self, lib, state, job: Job):
        raise NotImplementedError

    def render(self, job: Job, raw) -> str:
        """Canonical text of an answer; its digest is compared with golden."""
        return repr(raw)

    def check(self, job: Job, raw) -> list[str]:
        raise NotImplementedError

    def work(self, job: Job, raw) -> Counter:
        """Work counts that follow from the job and its answer alone."""
        return Counter()


# ---------------------------------------------------------------- hilbert


def query_points(rays, count: int = 12) -> list[tuple]:
    """Seed-independent semigroup points for a cone's decomposition queries:
    a small member plus nonnegative dual-ray multiples."""
    rng = random.Random(f"points{rays!r}")
    duals = oracles.dual_rays(rays)
    n = len(rays)
    points = []
    while len(points) < count:
        base = tuple(rng.randint(-4, 4) for _ in range(n))
        if min(oracles.pairings(base, rays)) < 0:
            continue
        mults = [rng.randint(0, 5) for _ in duals]
        point = tuple(base[i] + sum(k * w[i] for k, w in zip(mults, duals)) for i in range(n))
        if any(point):
            points.append(point)
    return points


class Hilbert(Workload):
    """make_cone, hilbert_basis, then semigroup_member on a batch of points."""

    name = "hilbert"

    # (det, quota, least and largest sum of the other last-ray entries).
    # Cost grows with det and with that sum.  Five jobs of 0.2 s and more
    # come first; the 11th slowest job, the tail, falls in the middle of a
    # block of nine 4D det-7 jobs (~0.17 s each), and the median well inside
    # a block of 4D det-5 jobs (~45 ms each), so neither sits on a boundary
    # between blocks of unlike cost and moves with the seed.
    SLOTS_3D = ((17, 2, 0, 32), (23, 1, 0, 44), (29, 1, 0, 56))
    SLOTS_4D = ((5, 26, 5, 8), (7, 9, 0, 18), (9, 1, 0, 24))

    def fixed(self):
        return [Job("hilbert", (DET61,)), Job("hilbert", (DET11_4D,))]

    @staticmethod
    def cone_pool(base: tuple, d: int, max_sum: int, size: int = 8,
                  min_sum: int = 0) -> list[tuple]:
        width = len(base)
        return _sample_pool(f"hilbert/{width + 1}d/{d}", size,
                            lambda rng: base + (_coprime_tail(rng, d, width, max_sum, min_sum),))

    def slots(self):
        return [(quota, [Job("hilbert", (c,)) for c in
                         self.cone_pool(base, d, max_sum, max(8, 2 * quota), min_sum)])
                for base, table in ((E3, self.SLOTS_3D), (E4, self.SLOTS_4D))
                for d, quota, min_sum, max_sum in table]

    def prepare(self, lib, jobs, workdir):
        return {job.args[0]: query_points(job.args[0]) for job in jobs}

    def execute(self, lib, state, job):
        rays = job.args[0]
        cone = lib.cones.make_cone(rays, len(rays))
        data = lib.cones.hilbert_basis(cone)
        decomps = tuple(lib.cones.semigroup_member(p, data) for p in state[rays])
        return (cone.rays, data.dual_rays, data.hilbert_basis, data.pairing_table, decomps)

    def check(self, job, raw):
        rays, duals, basis, table, decomps = raw
        errors = []
        if rays != _cone(job.args[0]):
            errors.append(f"cone rays {rays} != {_cone(job.args[0])}")
        errors += oracles.check_hilbert(rays, duals, basis)
        if list(table) != [oracles.pairings(b, rays) for b in basis]:
            errors.append("pairing table disagrees with the basis")
        for point, coeffs in zip(query_points(job.args[0]), decomps):
            errors += oracles.check_decomposition(point, basis, coeffs)
        return errors

    def work(self, job, raw):
        rays = _cone(job.args[0])
        return Counter({"cones.par_points": oracles.par_points(rays),
                        "cones.box_points": oracles.box_points(rays)})


# ------------------------------------------------------------ containment


PLANES = [((1, 0), (p, q)) for q in range(2, 14) for p in range(1, q) if gcd(p, q) == 1]
# low determinant, many Hilbert basis elements, and an amax that puts each
# verify near 50 ms: ordinary_power does the work
MANY_GENERATORS = [
    (((1, 1, 2), (1, 2, 1), (2, 1, 1)), 5),
    (((0, 1, 1), (1, 0, 1), (1, 1, 0)), 11),
    (E3 + ((1, 1, 2),), 11),
    (E3 + ((1, 1, 3),), 9),
    (E3 + ((1, 2, 5),), 6),
    (E4 + ((1, 1, 1, 2),), 7),
    (E4 + ((1, 1, 1, 3),), 4),
]


def _ideals(nrays: int) -> list[tuple]:
    """Single-ray primes and two-ray intersections, multiplicity 1."""
    singles = [((i, 1),) for i in range(nrays)]
    pairs = [((i, 1), (j, 1)) for i in range(nrays) for j in range(i + 1, nrays)]
    return singles + pairs


def _sweep_jobs(rays, comps, amax) -> list[Job]:
    """verify at D and at D_min, and sharpness at D_min - 1."""
    rays = _cone(rays)
    d, d_min = oracles.abs_det(rays), oracles.exponent(rays)
    jobs = [Job("verify", (rays, comps, m, amax)) for m in sorted({d, d_min})]
    if d_min > 1:
        jobs.append(Job("sharpness", (rays, comps, d_min - 1, amax)))
    return jobs


class Containment(Workload):
    """verify_containment and find_sharpness_witness, plus symbolic_power."""

    name = "containment"

    def fixed(self):
        return [Job("verify", (_cone(DET11_4D), ((0, 1), (3, 2)), 11, 2))]

    def slots(self):
        det11_singles = [j for i in range(4) for j in _sweep_jobs(DET11_4D, ((i, 1),), 2)]
        ordinary = [Job("verify", (_cone(rays), comps, oracles.abs_det(rays), amax))
                    for rays, amax in MANY_GENERATORS for comps in _ideals(len(rays))[:len(rays)]]
        small3 = _sample_pool("containment/3d", 12, lambda rng: E3 + (
            _coprime_tail(rng, rng.randint(5, 13), 2, 26),))
        closure = [j for rays in small3 for comps in _ideals(3)
                   for j in _sweep_jobs(rays, comps, 2)]
        planes = [j for rays in PLANES for comps in _ideals(2)
                  for j in _sweep_jobs(rays, comps, 3)]
        # on A_n the candidate n first fails at level n + 1
        an = [Job("sharpness", (_cone(((1, 0), (1, n + 1))), ((0, 1),), n, n + 1))
              for n in range(2, 13)]
        hilbert_cones = [rays for base, d, max_sum in ((E3, 17, 32), (E4, 5, 12), (E4, 7, 18))
                         for rays in Hilbert.cone_pool(base, d, max_sum)[:2]]
        symbolic = [Job("symbolic", (_cone(rays), comps, e))
                    for rays in hilbert_cones
                    for comps in (((0, 1),), ((len(rays) - 1, 1),), ((0, 1), (len(rays) - 1, 1)))
                    for e in (1, 2, 3)]
        # The one two-ray job on the 4D det-11 cone takes ~0.9 s and the
        # single-ray ones 0.1-0.2 s, which keeps a pass near 2.5 s and gives
        # each job a dozen runs.  Both the median and the 11th slowest job
        # (the tail) fall inside the block of all 23 ordinary-power jobs,
        # 25-80 ms each, away from its edges, so neither moves with the seed.
        return [(3, det11_singles), (len(ordinary), ordinary), (4, closure), (2, planes),
                (2, an), (4, symbolic)]

    def prepare(self, lib, jobs, workdir):
        data = {}
        for job in jobs:
            rays = job.args[0]
            if rays not in data:
                data[rays] = lib.cones.hilbert_basis(lib.cones.make_cone(rays, len(rays)))
        return data

    def execute(self, lib, state, job):
        ideals = lib.ideals
        rays, comps = job.args[0], job.args[1]
        q = ideals.PureHeightOneIdeal(state[rays], comps)
        if job.kind == "verify":
            report = ideals.verify_containment(q, job.args[2], job.args[3])
            return (report.multiplier,
                    tuple((c.level, c.passed, c.witness) for c in report.levels))
        if job.kind == "sharpness":
            return ideals.find_sharpness_witness(q, job.args[2], job.args[3])
        return ideals.symbolic_power(q, job.args[2]).generators

    def check(self, job, raw):
        rays, comps = job.args[0], job.args[1]
        if job.kind == "verify":
            multiplier, amax = job.args[2], job.args[3]
            errors = []
            if raw[0] != multiplier or [c[0] for c in raw[1]] != list(range(1, amax + 1)):
                errors.append(f"report {raw} does not cover levels 1..{amax} at D={multiplier}")
            for level, passed, witness in raw[1]:
                if not passed:
                    errors.append(f"D={multiplier} fails at level {level}")
                    errors += oracles.check_witness(rays, comps, multiplier, level, witness)
            return errors
        if job.kind == "sharpness":
            candidate, amax = job.args[2], job.args[3]
            n = rays[-1][-1] - 1
            if (rays == ((1, 0), (1, n + 1)) and comps == ((0, 1),) and candidate == n
                    and amax > n):
                if raw is None or raw[0] != n + 1:
                    return [f"A_{n}: candidate {n} should first fail at level {n + 1}, got {raw}"]
            if raw is None:
                return []
            level, witness = raw
            if not 1 <= level <= amax:
                return [f"witness level {level} outside 1..{amax}"]
            return oracles.check_witness(rays, comps, candidate, level, witness)
        return oracles.check_symbolic_power(rays, comps, job.args[2], raw)

    def work(self, job, raw):
        if job.kind == "verify":
            return Counter({"ideals.levels_checked": len(raw[1]),
                            "ideals.levels_failed": sum(not c[1] for c in raw[1])})
        if job.kind == "sharpness":
            found = raw is not None
            return Counter({"ideals.levels_checked": raw[0] if found else job.args[3],
                            "ideals.levels_failed": int(found)})
        return Counter()


# ------------------------------------------------------------- classgroup


def _random_cone(rng: random.Random, n: int) -> tuple:
    """Simplicial full cone, primitive distinct rays, entries in [-3, 3],
    |det| >= 2."""
    while True:
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if any(not any(r) or gcd(*r) != 1 for r in rays) or len(set(rays)) < n:
            continue
        if oracles.abs_det(rays) >= 2:
            return _cone(rays)


CLI_COMMANDS = (("classgroup",), ("multiplier",), ("cone", "info"), ("cone", "dual"))
DUVAL = ([("A", n) for n in range(1, 13)] + [("D", n) for n in range(4, 13)]
         + [("E", n) for n in (6, 7, 8)])


def cone_files(rays) -> tuple[str, str]:
    """Names of the text and JSON input files for a cone."""
    stem = "c" + "_".join("." .join(str(x) for x in r) for r in rays).replace("-", "m")
    return f"{stem}.txt", f"{stem}.json"


class ClassGroup(Workload):
    """In-process CLI requests, du Val lookups, and library order_of_class."""

    name = "classgroup"

    CONES_PER_DIM = 12
    QUOTA = 5

    def cones(self, n: int) -> list[tuple]:
        return _sample_pool(f"classgroup/{n}", self.CONES_PER_DIM, lambda rng: _random_cone(rng, n))

    def slots(self):
        out = []
        for n in range(2, 7):
            cones = self.cones(n)
            for command in CLI_COMMANDS:
                jobs = []
                for rays in cones:
                    text, js = cone_files(rays)
                    jobs.append(Job("cli", (command + (text,), rays)))
                    jobs.append(Job("cli", (command + (js, "--json"), rays)))
                out.append((self.QUOTA, jobs))
            orders = []
            for rays in cones:
                rng = random.Random(f"divisors{rays!r}")
                divisors = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(4))
                orders.append(Job("order", (rays, divisors)))
            # every order job runs: their cost follows the class group's
            # exponent and spans 1-65 ms, so a sample of them would make the
            # list's cost swing with the seed
            out.append((len(orders), orders))
        out.append((8, [Job("cli", (("duval", fam, str(k)), ())) for fam, k in DUVAL]))
        out.append((3, [Job("cli", (("duval", "check-an", str(k)), ())) for k in range(2, 11)]))
        return out

    def prepare(self, lib, jobs, workdir):
        for job in jobs:
            if job.kind == "cli" and job.args[1]:
                rays = job.args[1]
                text, js = cone_files(rays)
                lines = [f"dim {len(rays)}"] + [" ".join(map(str, r)) for r in rays]
                (workdir / text).write_text("\n".join(lines) + "\n", encoding="utf-8")
                (workdir / js).write_text(
                    json.dumps({"dim": len(rays), "rays": [list(r) for r in rays]}),
                    encoding="utf-8")
        return None

    def execute(self, lib, state, job):
        if job.kind == "order":
            rays, divisors = job.args
            cone = lib.cones.make_cone(rays, len(rays))
            group = lib.class_group.class_group_of(cone)
            return tuple(lib.class_group.order_of_class(x, group) for x in divisors)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(job.args[0]))
        return code, out.getvalue(), err.getvalue()

    def render(self, job, raw):
        if job.kind == "order":
            return repr(raw)
        code, out, err = raw
        return f"exit {code}\n{out}\nstderr:\n{err}"

    def check(self, job, raw):
        if job.kind == "order":
            rays, divisors = job.args
            return [e for x, k in zip(divisors, raw) for e in oracles.check_order(rays, x, k)]
        argv, rays = job.args
        code, out, err = raw
        if code != 0 or err:
            return [f"{' '.join(argv)}: exit {code}, stderr {err!r}"]
        lines = out.splitlines()
        if lines[0] != "command: " + " ".join(argv):
            return [f"first line {lines[0]!r} does not echo the command"]
        body = lines[2:] if rays else lines[1:]
        try:
            return self._check_body(argv, rays, body)
        except (ValueError, IndexError, SyntaxError) as exc:
            return [f"{' '.join(argv)}: unparsable report ({exc}): {body}"]

    @staticmethod
    def _field(line: str, label: str) -> str:
        if not line.startswith(label + ": "):
            raise ValueError(f"expected {label!r}, got {line!r}")
        return line[len(label) + 2:]

    def _check_body(self, argv, rays, body) -> list[str]:
        f = self._field
        head = argv[0]
        if head == "classgroup":
            factors = ast.literal_eval(f(body[0], "invariant factors"))
            errors = oracles.check_group(rays, factors, int(f(body[1], "free rank")))
            exp = factors[-1] if factors else 1
            if int(f(body[2], "order")) != oracles.abs_det(rays) or int(f(body[3], "exponent")) != exp:
                errors.append(f"order/exponent lines {body[2:4]} disagree with {factors}")
            return errors
        if head == "multiplier":
            d, d_min = oracles.abs_det(rays), oracles.exponent(rays)
            got = (int(f(body[0], "D (determinant)")), int(f(body[1], "D_min (exponent)")))
            errors = [] if got == (d, d_min) else [f"multipliers {got} != {(d, d_min)}"]
            if (len(body) == 3) != (d_min != d):
                errors.append("non-cyclic note is wrong")
            return errors
        if head == "cone" and argv[1] == "info":
            n = len(rays)
            expected = ([f"dim {n}"] + [" ".join(map(str, r)) for r in rays]
                        + [f"rays: {n}", "simplicial: true", "full: true",
                           f"det: {oracles.abs_det(rays)}"])
            return [] if body == expected else [f"cone info {body} != {expected}"]
        if head == "cone":
            expected = [f"dim {len(rays)}"] + [" ".join(map(str, r))
                                               for r in sorted(oracles.dual_rays(rays))]
            return [] if body == expected else [f"cone dual {body} != {expected}"]
        # duval
        if argv[1] == "check-an":
            k = int(argv[2])
            expected = [f"n = {i}: ok" for i in range(1, k + 1)] + ["verdict: PASS"]
            return [] if body == expected else [f"check-an {k}: {body}"]
        family, k = argv[1], int(argv[2])
        group, d_min = {
            "A": (f"Z/{k + 1}", k + 1),
            "D": ("Z/2 x Z/2", 2) if k % 2 == 0 else ("Z/4", 4),
            "E": {6: ("Z/3", 3), 7: ("Z/2", 2), 8: ("trivial", 1)}.get(k),
        }[family]
        got = (f(body[0], "group"), int(f(body[1], "D_min")))
        return [] if got == (group, d_min) else [f"du Val {family}_{k}: {got} != {(group, d_min)}"]

    def work(self, job, raw):
        if job.kind == "order":
            return Counter({"class_group.order_search_steps": sum(k - 1 for k in raw)})
        return Counter()


WORKLOADS = {w.name: w for w in (Hilbert(), Containment(), ClassGroup())}

"""Record the digest of every pool job's answer into ``golden.json``.

    python3 perfbench/record_golden.py [--check] [workload ...]

Run from the root of a checkout whose answers are the reference.  The
digests pin the library's outputs byte for byte: a later change that
alters any answer, even to another correct one, fails those jobs.  Each
answer must also pass its oracle check before it is recorded.  With
``--check`` nothing is written; recorded digests are compared instead.
Prints each job's time, slowest first, to help keep slots of like cost.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from common import ROOT, digest, load_symtoric
from workloads import WORKLOADS

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def record(name: str, lib) -> tuple[dict[str, str], list[tuple[float, str]], list[str]]:
    workload = WORKLOADS[name]
    jobs = workload.pool()
    digests, times, errors = {}, [], []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        state = workload.prepare(lib, jobs, Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for job in jobs:
                t0 = perf_counter()
                raw = workload.execute(lib, state, job)
                times.append((perf_counter() - t0, job.key))
                problems = workload.check(job, raw)
                if problems:
                    errors.append(f"{job.key}: {'; '.join(problems)}")
                digests[job.key] = digest(workload.render(job, raw))
        finally:
            os.chdir(here)
    return digests, times, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    lib = load_symtoric()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    bad = 0
    for name in args.workloads:
        digests, times, errors = record(name, lib)
        times.sort(reverse=True)
        total = sum(t for t, _ in times)
        print(f"{name}: {len(digests)} jobs, {total:.1f} s; slowest:")
        for seconds, key in times[:8]:
            print(f"  {seconds:8.3f} s  {key[:110]}")
        for error in errors:
            print(f"  ORACLE {error}")
        bad += len(errors)
        if args.check:
            diff = [k for k, v in digests.items() if golden.get(name, {}).get(k) != v]
            print(f"  {len(diff)} digests differ from golden.json")
            bad += len(diff)
        else:
            golden[name] = digests
    if bad:
        print(f"{bad} problems; golden.json left unchanged")
        return 1
    if not args.check:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

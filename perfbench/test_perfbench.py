"""Self-tests of the benchmark: seeded job lists, oracles, work counts.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path

import pytest

import oracles
from common import load_symtoric
from run import GOLDEN, check_answers, reference, run_passes
from tracer import Tracer
from workloads import DET11_4D, WORKLOADS, Job, _cone

LIB = load_symtoric()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_job_list(name):
    workload = WORKLOADS[name]
    first = workload.job_list(7)
    assert first == workload.job_list(7)
    assert first != workload.job_list(8)
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_pool_job_has_a_recorded_digest(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    missing = [job.key for job in WORKLOADS[name].pool() if job.key not in golden]
    assert not missing


def _run_once(name, job, tmp_path):
    workload = WORKLOADS[name]
    state = workload.prepare(LIB, [job], tmp_path)
    here = os.getcwd()
    os.chdir(tmp_path)
    try:
        return workload.execute(LIB, state, job)
    finally:
        os.chdir(here)


def test_hilbert_oracle_rejects_a_dropped_or_extra_element(tmp_path):
    workload = WORKLOADS["hilbert"]
    job = Job("hilbert", (((1, 0, 0), (0, 1, 0), (2, 3, 7)),))
    raw = _run_once("hilbert", job, tmp_path)
    assert workload.check(job, raw) == []
    rays, duals, basis, table, decomps = raw
    inner = next(b for b in basis if b not in duals)
    assert oracles.check_hilbert(rays, duals, tuple(b for b in basis if b != inner))
    reducible = tuple(a + b for a, b in zip(basis[0], basis[1]))
    assert oracles.check_hilbert(rays, duals, basis + (reducible,))
    assert oracles.check_hilbert(rays, duals[:-1] + ((0, 0, 1),), basis)


def test_decomposition_oracle_rejects_a_wrong_sum():
    basis = ((1, 0), (0, 1), (1, 1))
    assert oracles.check_decomposition((2, 1), basis, (1, 0, 1)) == []
    assert oracles.check_decomposition((2, 1), basis, (1, 1, 1))
    assert oracles.check_decomposition((2, 1), basis, (3, 2, -1))
    assert oracles.check_decomposition((2, 1), basis, None)


def test_symbolic_power_oracle_rejects_a_dropped_generator(tmp_path):
    workload = WORKLOADS["containment"]
    job = Job("symbolic", (_cone(DET11_4D), ((0, 1), (3, 1)), 2))
    raw = _run_once("containment", job, tmp_path)
    assert workload.check(job, raw) == []
    assert len(raw) > 1
    assert workload.check(job, raw[1:])
    assert workload.check(Job("symbolic", (_cone(DET11_4D), ((0, 1), (3, 1)), 3)), raw)


def test_containment_checks_reject_failures_and_bad_witnesses(tmp_path):
    workload = WORKLOADS["containment"]
    an = _cone(((1, 0), (1, 5)))
    job = Job("sharpness", (an, ((0, 1),), 4, 5))
    raw = _run_once("containment", job, tmp_path)
    assert raw[0] == 5 and workload.check(job, raw) == []
    assert workload.check(job, None)
    assert workload.check(job, (5, (0, 0)))
    verify = Job("verify", (an, ((0, 1),), 5, 2))
    assert workload.check(verify, (5, ((1, True, None), (2, True, None)))) == []
    assert workload.check(verify, (5, ((1, True, None), (2, False, (10, -2)))))
    assert workload.check(verify, (5, ((1, True, None),)))


def test_class_group_oracles_reject_wrong_answers():
    rays = _cone(((1, 0, 0), (1, 2, 0), (1, 0, 2)))
    assert oracles.check_group(rays, (2, 2), 0) == []
    assert oracles.check_group(rays, (4,), 0)
    assert oracles.check_group(rays, (2, 3), 0)
    cyclic = _cone(((1, 0), (1, 6)))
    assert oracles.check_order(cyclic, (1, 0), 6) == []
    assert oracles.check_order(cyclic, (1, 0), 3)
    assert oracles.check_order(cyclic, (1, 0), 12)
    assert oracles.check_order(cyclic, (2, 0), 3) == []
    assert oracles.check_order(cyclic, (2, 0), 6)


def test_order_job_rejects_a_wrong_class_order(tmp_path):
    workload = WORKLOADS["classgroup"]
    job = next(j for j in workload.pool() if j.kind == "order" and len(j.args[0]) == 4)
    raw = _run_once("classgroup", job, tmp_path)
    assert workload.check(job, raw) == []
    wrong = (raw[0] * 2,) + raw[1:]
    assert workload.check(job, wrong)


@pytest.mark.parametrize("command", [("classgroup",), ("multiplier",), ("cone", "info"),
                                     ("cone", "dual")])
def test_cli_checks_reject_an_altered_report(command, tmp_path):
    workload = WORKLOADS["classgroup"]
    job = next(j for j in workload.pool()
               if j.kind == "cli" and j.args[0][:len(command)] == command and len(j.args[1]) == 3)
    code, out, err = _run_once("classgroup", job, tmp_path)
    assert workload.check(job, (code, out, err)) == []
    lines = out.splitlines()
    altered = "\n".join(lines[:-1] + [lines[-1] + "1"]) + "\n"
    assert workload.check(job, (code, altered, err))
    assert workload.check(job, (1, out, err))


def test_golden_digest_catches_a_changed_answer(tmp_path):
    workload = WORKLOADS["containment"]
    job = Job("sharpness", (_cone(((1, 0), (1, 5))), ((0, 1),), 4, 5))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["containment"]
    raw = _run_once("containment", job, tmp_path)
    assert check_answers(workload, [job], [[raw, raw]], golden)[:2] == (2, 0)
    other = (raw[0], tuple(-x for x in raw[1]))
    assert check_answers(workload, [job], [[raw, other]], golden)[:2] == (2, 1)
    assert check_answers(workload, [job], [[other]], golden)[:2] == (1, 1)


@pytest.mark.parametrize("name", ["containment", "classgroup"])
def test_work_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    jobs = [j for j in workload.job_list(3)
            if j.kind in ("cli", "order") or j.kind == "symbolic" and len(j.args[0]) == 3][:12]
    state = workload.prepare(LIB, jobs, tmp_path)
    counts = []
    here = os.getcwd()
    os.chdir(tmp_path)
    try:
        for _ in range(2):
            tracer = Tracer()
            tracer.install(LIB)
            answers = [[] for _ in jobs]
            try:
                run_passes(workload, LIB, state, jobs, 0, answers, [[] for _ in jobs],
                           execute=tracer.wrap("bench.job", workload.execute))
            finally:
                tracer.uninstall()
            work = sum((workload.work(j, a[0]) for j, a in zip(jobs, answers)), Counter())
            counts.append((dict(tracer.calls), dict(tracer.counts), dict(work)))
    finally:
        os.chdir(here)
    assert counts[0] == counts[1]
    assert counts[0][0]["bench.job"] == len(jobs)


def test_reference_work_is_fixed():
    assert reference() == reference() == 30


def test_tracer_self_times_add_up_to_the_job_time(tmp_path):
    workload = WORKLOADS["containment"]
    job = Job("verify", (_cone(((1, 0), (1, 5))), ((0, 1),), 5, 3))
    state = workload.prepare(LIB, [job], tmp_path)
    tracer = Tracer()
    tracer.install(LIB)
    try:
        tracer.wrap("bench.job", workload.execute)(LIB, state, job)
    finally:
        tracer.uninstall()
    assert tracer.calls["ideals.symbolic_power"] == 4
    assert tracer.calls["ideals.ordinary_power"] == 3
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.total["bench.job"])
    assert LIB.ideals.symbolic_power.__module__ == "symtoric.ideals"
    assert not hasattr(LIB.ideals.symbolic_power, "__wrapped__")


def test_missing_library_fails_without_a_result(tmp_path):
    import shutil
    import subprocess
    import sys

    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hilbert",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

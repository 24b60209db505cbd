"""End-to-end and per-layer benchmark for symtoric.

    python3 perfbench/run.py --workload {hilbert,containment,classgroup}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src``.  The load is one closed-loop client in one single-threaded
process: the next job starts only when the previous one has returned.

The seed picks the workload's job list (see ``workloads.py``).  The list
runs in whole passes until ``--seconds`` have gone by.  Every answer is
checked twice: against an independent oracle, and against the digest of
the same job's answer recorded in ``golden.json``.  Any run of a job
whose answer differs from its first run also counts as failed.

Times are reported at a fixed reference speed.  On a shared host the CPU
speed this process gets drifts by 20-40% over seconds to minutes, the
same for every job in a stretch of time.  So before each job the
benchmark runs ``reference()``, a fixed piece of pure-Python work of its
own that does not touch symtoric, and divides each job's time in a pass
by the pass's mean reference time over ``REFERENCE_S``, the reference's
nominal time.  A change to symtoric leaves the reference alone, so it
shows in full; the host's drift moves both and cancels.  A job's latency
is then the median of its runs.  The raw figures are printed beside the
metrics, and a set-up is scaled the same way by the reference runs made
just before and just after it.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: the median of seven set-ups, each a fresh import of
  symtoric, building the job list and the workload's precomputation; the
  first is timed from the start of this script;
* ``jobs_per_s``: the length of the job list over the sum of its jobs'
  latencies (the reference runs between jobs are not counted);
* ``job_p50_ms`` and ``job_tail_ms``: the median and the highest
  percentile of job latency with at least ten jobs above it;
* ``peak_rss_mib``: the peak resident memory of this process.

The share of failed runs, ``failed_frac``, is printed and is
``failed / attempted`` in the result line.

``--trace 1`` runs the list untraced for half the time and traced for
the other half, and reports per-layer metrics per pass: self and
inclusive seconds from spans around the calls into each layer
(``tracer.py``), work counts, ``cli.subprocess_ms`` (median wall time of
``python -m symtoric verify`` on an A_n cone), ``trace.overhead_frac``
(traced over untraced job time per pass at the reference speed, minus
one) and ``trace.accounted_frac`` (the sum of all self times over the
traced job time of the passes).  The layer times are raw, not scaled.
Each layer metric is printed with the end-to-end metric and workload it
should move (``MOVES``).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from common import ROOT, SRC, MissingLibrary, digest, load_symtoric  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPEATS = 7
REFERENCE_RAYS = ((1, 0, 0), (0, 1, 0), (3, 5, 11))
# nominal time of one reference() call: about its median on a 2-vCPU Xeon
# host running Python 3.11
REFERENCE_S = 0.4e-3
REFERENCE_AFTER_SETUP = 40
SUBPROCESS_REPEATS = 5

TIMED_FUNCTIONS = {
    "cones.make_cone_s": "cones.make_cone",
    "cones.dual_cone_s": "cones.dual_cone",
    "cones.hilbert_basis_s": "cones.hilbert_basis",
    "cones.semigroup_member_s": "cones.semigroup_member",
    "ideals.symbolic_power_s": "ideals.symbolic_power",
    "ideals.ordinary_power_s": "ideals.ordinary_power",
    "ideals.ideal_member_s": "ideals.ideal_member",
    "exact_linalg.smith_normal_form_s": "exact_linalg.smith_normal_form",
    "exact_linalg.determinant_s": "exact_linalg.determinant",
    "exact_linalg.adjugate_s": "exact_linalg.adjugate",
    "class_group.class_group_of_s": "class_group.class_group_of",
    "class_group.det_multiplier_s": "class_group.det_multiplier",
    "class_group.order_of_class_s": "class_group.order_of_class",
    "duval.cross_check_an_s": "duval.cross_check_an",
}
CALL_COUNTS = {
    "cones.decompositions": "cones.semigroup_member",
    "ideals.symbolic_power_calls": "ideals.symbolic_power",
    "ideals.member_calls": "ideals.ideal_member",
    "exact_linalg.smith_normal_form_calls": "exact_linalg.smith_normal_form",
    "cli.requests": "cli.main",
}
# counted by the tracer's hooks, per pass
HOOK_COUNTS = ("ideals.sym_generators", "ideals.ordinary_sums", "ideals.ord_generators")
# counted from the job list and its answers (Workload.work), per pass
WORK_COUNTS = ("cones.par_points", "cones.box_points", "ideals.levels_checked",
               "ideals.levels_failed", "class_group.order_search_steps")
SELF_LAYERS = ("exact_linalg", "cones", "class_group", "ideals", "duval", "bench")

# the end-to-end metrics, and the workload, that each layer metric should move
MOVES = {
    "cones.": ("jobs_per_s, job_tail_ms", "hilbert"),
    "cones.semigroup_member_s": ("job_p50_ms", "hilbert"),
    "cones.decompositions": ("job_p50_ms", "hilbert"),
    "cones.make_cone_s": ("job_p50_ms", "classgroup"),
    "cones.dual_cone_s": ("job_p50_ms", "classgroup"),
    "ideals.symbolic_power_s": ("job_tail_ms, jobs_per_s", "containment"),
    "ideals.symbolic_power_calls": ("job_tail_ms, jobs_per_s", "containment"),
    "ideals.sym_generators": ("job_tail_ms, jobs_per_s", "containment"),
    "ideals.": ("jobs_per_s", "containment"),
    "ideals.ideal_member_s": ("job_p50_ms", "containment"),
    "ideals.member_calls": ("job_p50_ms", "containment"),
    "ideals.levels_checked": ("job_p50_ms", "containment"),
    "ideals.levels_failed": ("job_p50_ms", "containment"),
    "exact_linalg.": ("job_p50_ms", "classgroup"),
    "class_group.": ("jobs_per_s, job_tail_ms", "classgroup"),
    "duval.": ("job_p50_ms", "classgroup"),
    "cli.main_self_s": ("job_p50_ms", "classgroup"),
    "cli.requests": ("job_p50_ms", "classgroup"),
}


def moves(metric: str) -> str:
    """Where a layer metric should show end to end: its own entry, else its layer's."""
    target = MOVES.get(metric) or MOVES.get(metric.split(".", 1)[0] + ".")
    return f"should move {target[0]} on {target[1]}" if target else ""


class Failed:
    """Stand-in answer for a job that raised."""

    def __init__(self, exc: Exception) -> None:
        self.text = f"raised {type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return self.text


def setup(workload, seed: int, workdir: Path):
    lib = load_symtoric()
    jobs = workload.job_list(seed)
    state = workload.prepare(lib, jobs, workdir)
    return lib, jobs, state


def reference() -> int:
    """Fixed work, independent of symtoric, in the style of its inner loops:
    count the points of a 5x5x5 box with nonnegative pairings on three rays."""
    return sum(all(sum(a * b for a, b in zip(point, ray)) >= 0 for ray in REFERENCE_RAYS)
               for point in itertools.product(range(-2, 3), repeat=3))


def reference_scale(repeats: int) -> float:
    """Mean time of ``repeats`` reference() calls over REFERENCE_S."""
    t0 = perf_counter()
    for _ in range(repeats):
        reference()
    return (perf_counter() - t0) / repeats / REFERENCE_S


def run_passes(workload, lib, state, jobs, seconds, answers, latencies,
               execute=None) -> tuple[list[float], float]:
    """Closed loop over the job list, whole passes only, until ``seconds``
    have passed, with one reference() call before each job.

    Appends each job's raw time to ``latencies``.  Returns each pass's
    scale (its mean reference time over REFERENCE_S) and the total time of
    the jobs alone.
    """
    execute = execute or workload.execute
    deadline = perf_counter() + seconds
    scales: list[float] = []
    job_seconds = 0.0
    while not scales or perf_counter() < deadline:
        reference_seconds = 0.0
        for i, job in enumerate(jobs):
            t0 = perf_counter()
            reference()
            t1 = perf_counter()
            try:
                raw = execute(lib, state, job)
            except Exception as exc:  # a failing job is counted, not fatal
                raw = Failed(exc)
            t2 = perf_counter()
            reference_seconds += t1 - t0
            job_seconds += t2 - t1
            latencies[i].append(t2 - t1)
            answers[i].append(raw)
        scales.append(reference_seconds / len(jobs) / REFERENCE_S)
    return scales, job_seconds


def check_answers(workload, jobs, answers, golden) -> tuple[int, int, Counter, list[str]]:
    """Oracle and golden checks on each job's first answer; digest equality
    for its later answers.  Returns (attempted, failed, work, messages)."""
    attempted = failed = 0
    work: Counter = Counter()
    messages = []
    for job, runs in zip(jobs, answers):
        attempted += len(runs)
        first = workload.render(job, runs[0])
        if isinstance(runs[0], Failed):
            errors = [repr(runs[0])]
        else:
            errors = workload.check(job, runs[0])
            work += workload.work(job, runs[0])
        recorded = golden.get(job.key)
        if recorded != digest(first):
            errors.append(f"digest {digest(first)} != recorded {recorded}")
        if errors:
            failed += len(runs)
            messages.append(f"{job.key}: {'; '.join(errors)}")
            continue
        changed = sum(workload.render(job, raw) != first for raw in runs[1:])
        if changed:
            failed += changed
            messages.append(f"{job.key}: {changed} later runs answered differently")
    return attempted, failed, work, messages


def subprocess_probe(seed: int, workdir: Path) -> tuple[list[float], int]:
    """Wall times of ``python -m symtoric verify`` on an A_n cone."""
    n = 3 + seed % 7
    (workdir / "an.txt").write_text(f"dim 2\n1 0\n1 {n + 1}\n", encoding="utf-8")
    argv = [sys.executable, "-m", "symtoric", "verify", "an.txt", "--ray", "0",
            "--D", str(n + 1), "--amax", "2"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, bad = [], 0
    for _ in range(SUBPROCESS_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=60, check=False)
        times.append(perf_counter() - t0)
        bad += proc.returncode != 0 or "verdict: PASS" not in proc.stdout
    return times, bad


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def measure(args, workload, workdir: Path) -> tuple[dict, list, list]:
    """Set up, run the job list, and time it; returns (metrics, jobs, answers)."""
    setups, after = [], []
    for rep in range(SETUP_REPEATS if not args.trace else 1):
        t0 = START if rep == 0 else perf_counter()
        lib, jobs, state = setup(workload, args.seed, workdir)
        setups.append(perf_counter() - t0)
        after.append(reference_scale(REFERENCE_AFTER_SETUP))
    # a set-up's scale: the reference runs just before and just after it
    setup_scales = after[:1] + [(a + b) / 2 for a, b in zip(after, after[1:])]
    answers = [[] for _ in jobs]
    latencies = [[] for _ in jobs]
    here = os.getcwd()
    os.chdir(workdir)
    try:
        if not args.trace:
            scales, _ = run_passes(workload, lib, state, jobs, args.seconds, answers, latencies)
            return _end_to_end(setups, setup_scales, latencies, scales), jobs, answers
        half = args.seconds / 2
        plain_scales, plain_time = run_passes(workload, lib, state, jobs, half, answers,
                                              latencies)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced_scales, traced_time = run_passes(
                workload, lib, state, jobs, half, answers, latencies,
                execute=tracer.wrap("bench.job", workload.execute))
        finally:
            tracer.uninstall()
    finally:
        os.chdir(here)
    # job time per pass at the reference speed, traced over untraced
    overhead = (traced_time / sum(traced_scales)) / (plain_time / sum(plain_scales)) - 1
    metrics = _per_layer(tracer, len(traced_scales))
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["trace.accounted_frac"] = (sum(tracer.self_time.values()) / traced_time, "frac")
    return metrics, jobs, answers


def _latency_metrics(per_job: list[float]) -> tuple[dict, str]:
    pct, worst = tail(per_job)
    return {
        "jobs_per_s": (len(per_job) / sum(per_job), "1/s"),
        "job_p50_ms": (1000 * statistics.median(per_job), "ms"),
        "job_tail_ms": (1000 * worst, "ms"),
    }, f"p{pct:.1f} of {len(per_job)} jobs"


def _end_to_end(setups, setup_scales, latencies, scales) -> dict:
    scaled, tail_note = _latency_metrics(
        [statistics.median(t / k for t, k in zip(runs, scales)) for runs in latencies])
    raw, _ = _latency_metrics([statistics.median(runs) for runs in latencies])
    setup_raw = statistics.median(setups)
    metrics = {"setup_s": (statistics.median(t / k for t, k in zip(setups, setup_scales)),
                           "s", f"raw {setup_raw:.4g} s")}
    for name, (value, unit) in scaled.items():
        note = f"raw {raw[name][0]:.4g} {unit}"
        metrics[name] = (value, unit, note + (f", {tail_note}" if name == "job_tail_ms" else ""))
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics


def _per_layer(tracer: Tracer, passes: int) -> dict:
    layer_self = tracer.layer_self()
    metrics = {f"{layer}.self_s": (layer_self[layer] / passes, "s") for layer in SELF_LAYERS}
    metrics["cli.main_self_s"] = (layer_self["cli"] / passes, "s")
    for metric, name in TIMED_FUNCTIONS.items():
        metrics[metric] = (tracer.total[name] / passes, "s")
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = (_exact(tracer.calls[name], passes, metric), "count")
    for metric in HOOK_COUNTS:
        metrics[metric] = (_exact(tracer.counts[metric], passes, metric), "count")
    return metrics


def _work_metrics(work: Counter, metrics: dict) -> dict:
    """Work counts of one pass, from the jobs' first answers, and their ratios."""
    out = {name: (work[name], "count") for name in WORK_COUNTS}
    out["cones.useful_ratio"] = (
        _ratio(work["cones.par_points"], work["cones.box_points"]), "ratio")
    out["ideals.ord_useful_ratio"] = (
        _ratio(metrics["ideals.ord_generators"][0], metrics["ideals.ordinary_sums"][0]), "ratio")
    return out


def _exact(total: int, passes: int, metric: str) -> int:
    if total % passes:
        raise RuntimeError(f"{metric}: {total} is not the same in each of {passes} passes")
    return total // passes


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(args.workload, {})
    except FileNotFoundError:
        golden = {}
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        metrics, jobs, answers = measure(args, workload, workdir)
        attempted, failed, work, messages = check_answers(workload, jobs, answers, golden)
        if args.trace:
            metrics.update(_work_metrics(work, metrics))
            times, bad = subprocess_probe(args.seed, workdir)
            attempted += len(times)
            failed += bad
            if bad:
                messages.append(f"symtoric verify subprocess failed {bad} of {len(times)} times")
            metrics["cli.subprocess_ms"] = (1000 * statistics.median(times), "ms")
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, "
          f"one closed-loop client")
    for name, (value, unit, *note) in sorted(metrics.items()):
        note = note[0] if note else moves(name) if args.trace else ""
        print(f"  {name:40s} {value:>14.6g} {unit:5s}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':40s} {failed / attempted:>14.6g} frac  "
          f"({failed} of {attempted} job runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The closed loop and its statistics.

One client calls ``effop.harness.cli.main(argv)`` in-process with its output
captured in memory, and starts the next problem only after the last
returns. Gates judge every result outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from effop.harness import cli

# Fixed, so that two commits compare the same percentile. It falls on a group
# of problems of one size and kind on every workload (see workloads.py), and
# a run repeats its cycle until at least TAIL_SAMPLES attempts lie at or
# beyond it.
TAIL_Q = 0.9
TAIL_SAMPLES = 10


def call(argv):
    """One CLI call with its output captured: (seconds, rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught error is a failed problem, not a crashed run
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


def judge(problem, rc, out, err):
    try:
        return problem.gate(rc, out, err)
    except Exception as exc:  # a gate that cannot parse the output fails the problem
        return workloads.BAD, f"gate raised {exc!r}"


def set_up(name: str, seed: int, root: Path):
    """Build the instances and run one warm-up problem.

    Returns the problems and the seconds the set-up took.
    """
    start = time.perf_counter()
    problems = workloads.build(name, seed, root)
    _, rc, out, err = call(problems[0].argv)
    seconds = time.perf_counter() - start
    outcome, why = judge(problems[0], rc, out, err)
    if outcome == workloads.BAD:
        print(f"warm-up {problems[0].label}: {why}", file=sys.stderr)
    return problems, seconds


def run_phase(problems, seconds: float, tracer=None, first_id: int = 0):
    """Walk the problem cycle in whole cycles, so every problem is attempted
    equally often. After enough cycles for best-of-k and the tail, start
    another only while it would still end within ``seconds`` of wall time
    (gates included).

    Returns one (latency s, rc, outcome, problem label) per attempt.
    """
    results = []
    start = time.perf_counter()
    cycles = 0
    beyond_tail = len(problems) - math.ceil(TAIL_Q * len(problems)) + 1
    min_cycles = max(2, math.ceil(TAIL_SAMPLES / beyond_tail))
    while True:
        cycle_start = time.perf_counter()
        for problem in problems:
            if tracer is not None:
                tracer.problem = first_id + len(results)
            elapsed, rc, out, err = call(problem.argv)
            if tracer is not None:
                tracer.problem = None
            outcome, why = judge(problem, rc, out, err)
            if outcome == workloads.BAD:
                print(f"FAILED {problem.label}: {why}", file=sys.stderr)
            results.append((elapsed, rc, outcome, problem.label))
        cycles += 1
        now = time.perf_counter()
        if cycles >= min_cycles and now - start + (now - cycle_start) > seconds:
            return results


def cycle_times(problems, results) -> list[float]:
    """Each slot of the cycle charged with its problem's fastest attempt.

    The shared reference box drifts by 15-50% in speed over tens of
    seconds, which moves every raw percentile of a run by as much; the
    fastest of a problem's k attempts varies by a few percent (the minimum
    as the robust estimator, Chen & Revels, arXiv:1608.04295).
    """
    best: dict[str, float] = {}
    for elapsed, _, _, label in results:
        best[label] = min(elapsed, best.get(label, elapsed))
    return [best[p.label] for p in problems]


def tail(cycle) -> float:
    """The TAIL_Q quantile of the cycle by nearest rank: one problem's time."""
    return sorted(cycle)[math.ceil(TAIL_Q * len(cycle)) - 1]


def problems_per_s(problems, results) -> float:
    """Problems that exit 0 and pass their gate, per second, over one cycle
    with each problem at its fastest attempt: the throughput of the same
    cycle the latencies come from."""
    cycle = cycle_times(problems, results)
    failed = {r[3] for r in results if r[2] != workloads.OK}
    return sum(1 for p in problems if p.label not in failed) / sum(cycle)


def end_to_end(problems, results, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the details that qualify them."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cycle = cycle_times(problems, results)
    tail_s = tail(cycle)
    metrics = {
        "setup_s": setup_s,
        "problems_per_s": problems_per_s(problems, results),
        "latency_p50_ms": 1e3 * statistics.median(cycle),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = [r[0] for r in results]
    nonzero = sum(1 for r in results if r[1] != 0)
    gate_failed = sum(1 for r in results if r[1] == 0 and r[2] != workloads.OK)
    details = {
        "attempted": len(results),
        "cycles": len(results) // len(problems),
        "failed_frac": (nonzero + gate_failed) / len(results),
        "tail_samples_at_or_beyond": (len(results) // len(problems))
        * sum(1 for x in cycle if x >= tail_s),
        "raw_problems_per_s": sum(1 for r in results if r[2] == workloads.OK) / sum(raw),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "raw_latency_p90_ms": 1e3 * statistics.quantiles(raw, n=10, method="inclusive")[8],
        "latencies_s": raw,
        "labels": [r[3] for r in results],
    }
    return metrics, details

#!/usr/bin/env python3
"""Closed-loop benchmark of effop's `solve-direct` and `verify` CLI paths.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 52 --trace 0

Run from the repository root. One client in one process calls
``effop.harness.cli.main(argv)`` in-process, the next problem only after the
last returns, in whole cycles of the workload's problems for about
``--seconds`` of wall time. ``setup_s`` is the median of five cold set-ups,
this process's own and four in fresh child processes. Every result is
checked by the workload's gate outside the timed region. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs half the time untraced
and half with spans around every effop layer, and reports the per-layer
metrics and the tracing overhead.
The last line of stdout is one JSON object; a record with the environment
goes to ``.perfbench_out/runs/``, spans to ``.perfbench_out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("direct", "verify")
# One BLAS thread: on the 2-core reference box the default two OpenBLAS
# threads are slower for N <= 192 and depend on the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# Cold set-ups per run, each in a fresh process; setup_s is their median.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up in this process, print its seconds and exit")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")
    return args


def cold_setup_in_child(workload: str, seed: int) -> float:
    """Seconds of one cold set-up in a fresh process."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up of {workload} failed\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def import_effop() -> float:
    """Import effop, with numpy and scipy, from this checkout's ``src``;
    seconds taken."""
    src = ROOT / "src"
    if not (src / "effop" / "__init__.py").is_file():
        sys.exit(f"perfbench: no effop sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import effop.harness.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    loaded = Path(sys.modules["effop"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        sys.exit(f"perfbench: effop was imported from {loaded}, not from {src}")
    return elapsed


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    caches = {}
    try:
        listing = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                                 timeout=10, check=False).stdout
        for line in listing.splitlines():
            key, _, value = line.partition(" ")
            if key.endswith("CACHE_SIZE") and value.strip():
                caches[key] = int(value)
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS, here and in children
    # The other cold set-ups run first, so that this process's own one is as cold.
    setup_times = ([] if args.trace or args.setup_only else
                   [cold_setup_in_child(args.workload, args.seed)
                    for _ in range(SETUP_REPEATS - 1)])
    import_s = import_effop()

    import measure
    import workloads

    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as scratch:
        problems, build_s = measure.set_up(args.workload, args.seed, Path(scratch))
        if args.setup_only:
            print(import_s + build_s)
            return 0
        setup_times.append(import_s + build_s)
        setup_s = statistics.median(setup_times)
        if args.trace:
            import tracing

            half = args.seconds / 2.0
            plain = measure.run_phase(problems, half)
            tracer = tracing.Tracer()
            tracer.install()
            traced = measure.run_phase(problems, half, tracer, first_id=len(plain))
            results = plain + traced
            metrics = tracer.layer_metrics(len(traced))
            metrics["trace.overhead_frac"] = 1.0 - (measure.problems_per_s(problems, traced)
                                                    / measure.problems_per_s(problems, plain))
            units = {name: tracing.unit(name) for name in metrics}
            (OUT / "spans").mkdir(exist_ok=True)
            tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
            sizes = {len(plain) + i: re.search(r"N=\d+", r[3]).group()
                     for i, r in enumerate(traced)}
            by_size = tracer.self_by_group(sizes)
            details = {"attempted": len(results), "traced_problems": len(traced),
                       "spans": len(tracer.spans), "self_s_by_size": by_size}
            print(tracing.table(metrics, args.workload, by_size))
        else:
            results = measure.run_phase(problems, args.seconds)
            metrics, details = measure.end_to_end(problems, results, setup_s)
            units = E2E_UNITS
            for name, value in metrics.items():
                print(f"{args.workload:10s} {name:16s} {value:14.6g} {units[name]}")
            print(f"{args.workload:10s} {'failed_frac':16s} {details['failed_frac']:14.6g} ratio")
            print(f"{args.workload:10s} {details['attempted']} attempts in {details['cycles']}"
                  f" cycles; {details['tail_samples_at_or_beyond']} at or beyond the tail")

    failed = sum(1 for r in results if r[2] == workloads.BAD)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s_repeats": setup_times,
        "env": environment(), "details": details, "failed": failed,
        "metrics": metrics,
    }
    record_path = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/suite.py --label baseline --seeds 1-10
    python3 perfbench/suite.py --label layers --seeds 1 --trace 1

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``. Each
(seed, workload) pair runs ``perfbench/run.py`` in its own fresh
process, seeds in the outer loop so that slow drift of the machine spreads
over every workload. The results go to ``.perfbench_out/BENCH_<label>.json``:
every run's metrics and record (the raw latencies stay in the run records),
and per workload and metric the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median (the spread). The table marks each end-to-end spread
against its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = OUT / "runs" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "details": {k: v for k, v in record["details"].items()
                        if k not in ("latencies_s", "labels")},
            "env": record["env"],
            "stdout": proc.stdout if trace else ""}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"failed_frac": "ratio"}

    runs = []
    for seed in args.seeds:
        for workload in names:
            run = run_one(workload, seed, seconds, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']}", flush=True)
            if args.trace:
                print("\n".join(run["stdout"].splitlines()[:-1]), flush=True)

    summary = {}
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {name: summarise([r["metrics"][name] for r in mine])
                             for name in mine[0]["metrics"]}
        if not args.trace:
            summary[workload]["failed_frac"] = summarise(
                [r["details"]["failed_frac"] for r in mine])

    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({"label": args.label, "seconds": seconds,
                                "trace": args.trace, "env": runs[0]["env"],
                                "runs": runs, "summary": summary}, indent=1) + "\n")

    if not args.trace:
        print(f"\n{'workload':10s} {'metric':16s} {'unit':5s} {'median':>12s} {'q1':>12s}"
              f" {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for workload in names:
            for name, s in summary[workload].items():
                bound = bounds.get(name)
                mark = ""
                if bound is not None:
                    mark = "ok" if s["spread"] < bound / 3 else (
                        "within bound" if s["spread"] <= bound else "TOO WIDE")
                print(f"{workload:10s} {name:16s} {units[name]:5s} {s['median']:12.6g}"
                      f" {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f}"
                      f" {bound if bound else '':>6} {mark}")
    print(f"\nwrote {path}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

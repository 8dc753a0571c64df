#!/usr/bin/env python3
"""Compare two suite results, workload by workload and metric by metric.

    python3 perfbench/compare.py .perfbench_out/BENCH_parent.json .perfbench_out/BENCH_change.json

For every workload and end-to-end metric it prints both medians and
quartiles and a verdict against the bound in ``BENCHMARK.json``:

- ``better``: every run of the second file beats every run of the first, or
  its median is better by more than the first file's spread and it wins at
  least nine tenths of the seed pairs the two files share;
- ``worse``: the median is worse by more than the bound;
- ``unresolved``: either file's spread is wider than the bound;
- ``within bound``: otherwise.

It reports and does not gate: the exit code is 0 whatever the verdicts. Two
files whose runs differ in length or in tracing are refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(old: list[float], new: list[float], s_old: dict, s_new: dict,
            bound: float, lower_is_better: bool, pairs: list[tuple[float, float]]) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (s_new["median"] - s_old["median"]) / abs(s_old["median"])
    if max(sign * v for v in new) < min(sign * v for v in old):
        return "better"
    if max(s_old["spread"], s_new["spread"]) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for a, b in pairs if sign * b < sign * a)
    if -worse_by > s_old["spread"] and (not pairs or wins >= 0.9 * len(pairs)):
        return "better"
    return "within bound"


def values(result: dict, workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric] for r in result["runs"]
            if r["workload"] == workload and metric in r["metrics"]}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(__doc__)
    old, new = (json.loads(Path(p).read_text()) for p in args)
    for key in ("seconds", "trace"):
        if old[key] != new[key]:
            sys.exit(f"compare: {key} differs ({old[key]} against {new[key]}); "
                     "the two files do not measure the same runs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"first:  {args[0]} (commit {old['env']['commit'][:12]})")
    print(f"second: {args[1]} (commit {new['env']['commit'][:12]})")
    print(f"{'workload':10s} {'metric':16s} {'first median [q1, q3]':>36s}"
          f" {'second median [q1, q3]':>36s} {'change':>8s}  verdict")
    for workload in old["summary"]:
        if workload not in new["summary"]:
            print(f"{workload:10s} missing from the second file")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            s_old, s_new = old["summary"][workload][name], new["summary"][workload][name]
            v_old, v_new = values(old, workload, name), values(new, workload, name)
            pairs = [(v_old[seed], v_new[seed]) for seed in v_old if seed in v_new]
            word = verdict(list(v_old.values()), list(v_new.values()), s_old, s_new,
                           metric["bound"], metric["better"] == "lower", pairs)
            change = (s_new["median"] - s_old["median"]) / abs(s_old["median"])

            def cell(s):
                return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

            print(f"{workload:10s} {name:16s} {cell(s_old):>36s} {cell(s_new):>36s}"
                  f" {change:+8.2%}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

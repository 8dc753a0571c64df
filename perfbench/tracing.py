"""In-memory spans around effop's public functions and the kernels they call.

Wrappers are installed from outside the package: every effop module
namespace that binds a traced function gets the wrapper, so a call made
through any of them, including calls inside the defining module, opens a
span. Nested calls become child spans, and a layer's self time is its
duration minus that of its children.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

# (defining module, function) -> span name
FUNCTIONS = {
    ("effop.harness.cli", "main"): "harness.cli.main",
    ("effop.harness.matio", "read_observable"): "harness.matio.read_observable",
    ("effop.harness.matio", "write_decoupling_map"): "harness.matio.write_decoupling_map",
    ("effop.harness.verify", "run_verification"): "harness.verify.run_verification",
    ("effop.spaces", "eigendecompose"): "spaces.eigendecompose",
    ("effop.spaces", "enumerate_model_spaces"): "spaces.enumerate_model_spaces",
    ("effop.solver", "solve_decoupling_fixed_point"): "solver.solve_decoupling_fixed_point",
    ("effop.transform", "transformed_blocks"): "transform.transformed_blocks",
    ("effop.transform", "decoupling_residual"): "transform.decoupling_residual",
    ("effop.transform", "construct_s_from_span"): "transform.construct_s_from_span",
    ("effop.transform", "exp_s"): "transform.oracles",
    ("effop.transform", "similarity_transform"): "transform.oracles",
    ("effop.transform", "assemble_blocks"): "transform.oracles",
    ("effop.effective", "first_type"): "effective.first_type",
    ("effop.effective", "second_type"): "effective.second_type",
    ("effop.effective", "q_block_and_factorization"): "effective.q_block_and_factorization",
    ("effop.observables", "effective_set"): "observables.effective_set",
    ("effop.observables", "decompose_space"): "observables.decompose_space",
    ("effop.observables", "simultaneous_eigenbasis"): "observables.simultaneous_eigenbasis",
    ("effop.observables", "verify_commuting"): "observables.verify_commuting",
    ("effop.util", "match_spectra"): "util.match_spectra",
}

# numpy/scipy routines effop calls through their module attribute
KERNELS = {
    (np.linalg, "eigh"): "kernel.eigh",
    (np.linalg, "eigvals"): "kernel.eigvals",
    (np.linalg, "svd"): "kernel.svd",
    (scipy.linalg, "solve_sylvester"): "kernel.sylvester",
}

# Every span name yields <name>.calls and <name>.self_s.
SPAN_NAMES = tuple(dict.fromkeys([*FUNCTIONS.values(), *KERNELS.values()]))
# Counts gathered by the hooks below, beyond calls and self time.
COUNTERS = (
    "harness.matio.read_observable.bytes",
    "harness.matio.write_decoupling_map.bytes",
    "solver.sweeps",
    "util.match_spectra.pairs",
    "spaces.enumerate_model_spaces.subsets",
    "spaces.ModelSpace.complement.calls",
)
RATIOS = {
    # name: (numerator counter, denominator counter)
    "solver.converged_ratio": ("solver.converged", "solver.solve_decoupling_fixed_point.calls"),
    "spaces.enumerate_model_spaces.accept_ratio": ("spaces.enumerate_model_spaces.accepted",
                                                   "spaces.enumerate_model_spaces.subsets"),
}


class Tracer:
    """Spans of the problem in flight; calls outside a problem pass through."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, parent, problem
        self.counts: Counter = Counter()
        self.problem: int | None = None
        self._open: list[int] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None, failed=None):
        """Span around ``fn``; hooks see the arguments, result or exception."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.problem is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(self.counts, args, kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, 0.0, 0.0, parent, self.problem))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index, start)
                if failed is not None:
                    failed(self.counts, exc)
                raise
            self._close(index, start)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        return traced

    def _close(self, index, start):
        end = time.perf_counter()
        self._open.pop()
        name, _, _, parent, problem = self.spans[index]
        self.spans[index] = (name, start, end, parent, problem)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Replace each traced function in every effop namespace binding it.

        Installed once per process; the traced phase is the last to run.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "effop" or key.startswith("effop."))]
        for (module_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            hooks = _HOOKS.get(name, {})
            self._replace(modules, original, self.wrap(name, original, **hooks))
        for (module, attr), name in KERNELS.items():
            original = getattr(module, attr)
            self._replace([module, *modules], original, self.wrap(name, original))
        model_space = sys.modules["effop.spaces"].ModelSpace
        complement = model_space.__dict__["complement"]

        def counted(ms):
            if self.problem is not None:
                self.counts["spaces.ModelSpace.complement.calls"] += 1
            return complement.fget(ms)

        model_space.complement = property(counted, doc=complement.__doc__)

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    # -- results -----------------------------------------------------------
    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, problems: int) -> dict[str, float]:
        """Per-problem calls, self seconds and counts, plus the ratios."""
        calls = Counter(span[0] for span in self.spans)
        self_s: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self._self_times()):
            self_s[span[0]] += own
        per = max(problems, 1)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / per
            out[f"{name}.self_s"] = self_s[name] / per
        for name in COUNTERS:
            out[name] = self.counts[name] / per
        counted = Counter(self.counts)
        counted.update({f"{n}.calls": c for n, c in calls.items()})
        for name, (num, den) in RATIOS.items():
            out[name] = counted[num] / counted[den] if counted[den] else 0.0
        return out

    def self_by_group(self, group_of: dict[int, str]) -> dict[str, dict]:
        """Self seconds per problem of every layer, within each group of problems."""
        seconds: defaultdict = defaultdict(Counter)
        for (name, _, _, _, problem), own in zip(self.spans, self._self_times()):
            seconds[group_of[problem]][name] += own
        sizes = Counter(group_of.values())
        return {group: {"problems": sizes[group],
                        "self_s": {n: v / sizes[group] for n, v in seconds[group].most_common()}}
                for group in sorted(seconds, key=lambda g: (len(g), g))}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, problem in self.spans:
                fh.write(json.dumps([name, start, end, parent, problem]) + "\n")


# -- counting hooks ----------------------------------------------------------
def _read_bytes(counts, args, kwargs):
    counts["harness.matio.read_observable.bytes"] += os.path.getsize(args[0])


def _write_bytes(counts, args, kwargs, result):
    counts["harness.matio.write_decoupling_map.bytes"] += os.path.getsize(args[0])


def _solver_done(counts, args, kwargs, result):
    trace = result[1]
    counts["solver.sweeps"] += trace.iterations
    counts["solver.converged"] += int(trace.converged)


def _solver_failed(counts, exc):
    trace = getattr(exc, "trace", None)
    if trace is not None:
        counts["solver.sweeps"] += trace.iterations


def _match_pairs(counts, args, kwargs):
    counts["util.match_spectra.pairs"] += np.size(args[0]) * np.size(args[1])


def _enumerated(counts, args, kwargs, result):
    selection = args[0]
    counts["spaces.enumerate_model_spaces.subsets"] += math.comb(selection.total_dim,
                                                                 selection.dim)
    counts["spaces.enumerate_model_spaces.accepted"] += len(result)


_HOOKS = {
    "harness.matio.read_observable": {"before": _read_bytes},
    "harness.matio.write_decoupling_map": {"after": _write_bytes},
    "solver.solve_decoupling_fixed_point": {"after": _solver_done, "failed": _solver_failed},
    "util.match_spectra": {"before": _match_pairs},
    "spaces.enumerate_model_spaces": {"after": _enumerated},
}


def unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/problem"
    if name.endswith(".bytes"):
        return "B/problem"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "1/problem"


def table(metrics: dict[str, float], workload: str, groups: dict[str, dict]) -> str:
    """Layers by self time per problem, with their share of all self time,
    then the four largest layers of each group of problems."""
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    rows = [f"{workload}: layer self time per traced problem (total {1e3 * total:.3f} ms)"]
    spans = sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"])
    for name in spans:
        self_s, calls = metrics[f"{name}.self_s"], metrics[f"{name}.calls"]
        share = self_s / total if total else 0.0
        rows.append(f"  {name:42s} {calls:10.2f} calls {1e3 * self_s:10.3f} ms {share:7.1%}")
    for name in [*COUNTERS, *RATIOS, "trace.overhead_frac"]:
        rows.append(f"  {name:42s} {metrics[name]:14.6g} {unit(name)}")
    for group, entry in groups.items():
        layers = entry["self_s"]
        total = sum(layers.values())
        top = ", ".join(f"{n} {v / total:.0%}" for n, v in list(layers.items())[:4])
        rows.append(f"  {group:>6s}: {1e3 * total:8.3f} ms/problem; {top}")
    return "\n".join(rows)

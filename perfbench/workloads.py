"""The benchmark workloads: seeded instances, CLI argv and correctness gates.

Each builder takes the workload seed and a fresh directory, writes every
input file effop will read, and returns the problem cycle that the timed
loop walks through in order. effop sees only those files and the argv.
Gates check each result with plain numpy against the in-memory instance,
outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from effop import spaces
from effop.harness import matio
from effop.harness.generate import ProblemSpec, generate

# Outcome of one problem, as judged by its gate.
OK = "ok"          # exit 0, output correct
BAD = "bad"        # anything else: wrong output, unexpected exit code or exception

DECOUPLED_RTOL = 1e-9   # effop's documented decoupling tolerance, 1e-9 (1 + ||O||_F)
EIG_RTOL = 1e-8         # printed eigenvalues vs eigvalsh, relative to ||O||_F


@dataclass
class Problem:
    """One CLI call with the gate that judges its result."""

    label: str  # unique within a workload
    argv: list[str]
    gate: Callable[[int, str, str], tuple[str, str]]  # (rc, stdout, stderr) -> (outcome, why)


def _ids(indices) -> str:
    return ",".join(str(int(i)) for i in indices)


def _printed_eigenvalues(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("O_eff eigenvalues:"):
            return np.array([complex(t) for t in line.split(":", 1)[1].split()])
    return None


def _read_matrix_text(path: Path) -> np.ndarray:
    """Plain-numpy reader for effop's text matrix format."""
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    flat = np.array([[float(t) for t in row.split()] for row in rows[1:]])
    return flat[:, 0::2] + 1j * flat[:, 1::2]


def _eigen_gate(matrix: np.ndarray, expected: np.ndarray, stdout: str) -> tuple[str, str]:
    printed = _printed_eigenvalues(stdout)
    if printed is None or printed.size != expected.size:
        return BAD, "eigenvalue line missing or wrong length"
    dev = float(np.abs(np.sort(printed.real) - np.sort(expected)).max()
                + np.abs(printed.imag).max())
    limit = EIG_RTOL * float(np.linalg.norm(matrix))
    if dev > limit:
        return BAD, f"eigenvalue deviation {dev:.3e} > {limit:.3e}"
    return OK, ""


# -- direct -------------------------------------------------------------------
# (N, weight): weighted toward small sizes; N=400 (2.6 MB complex) exceeds the
# per-core L2 of the 2 MiB reference box, N <= 128 fits.
DIRECT_SIZES = ((100, 3), (200, 1), (400, 1))
DIRECT_DIMS = (4, 16)
DIRECT_KINDS = ("random_hermitian", "planted_spectrum")


def build_direct(rng, root: Path) -> list[Problem]:
    weighted = []
    for n, weight in DIRECT_SIZES:
        for kind in DIRECT_KINDS:
            obs = generate(ProblemSpec(kind, n, int(rng.integers(2**31))))
            path = root / f"direct_{kind}_{n}.txt"
            matio.write_observable(path, obs)
            decomposition = spaces.eigendecompose(obs)
            for d in DIRECT_DIMS:
                j = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=d, replace=False)))
                k = spaces.pivoted_model_space(spaces.select_eigenvectors(decomposition, j))
                s_path = root / f"direct_{kind}_{n}_{d}.s.txt"
                argv = ["solve-direct", "--matrix", str(path), "--J", _ids(j),
                        "--K", _ids(k), "--out-s", str(s_path)]
                gate = _direct_gate(obs.matrix, j, k, s_path)
                weighted.append((Problem(f"direct N={n} d={d} {kind}", argv, gate), weight))
    return [problem for problem, weight in weighted for _ in range(weight)]


def _direct_gate(matrix, j, k, s_path: Path):
    reference = {}

    def gate(rc, stdout, stderr):
        if rc != 0:
            return BAD, f"exit {rc}: {stderr.strip()[:200]}"
        if "values" not in reference:
            reference["values"] = np.linalg.eigvalsh(matrix)[np.asarray(j) - 1]
        outcome, why = _eigen_gate(matrix, reference["values"], stdout)
        if outcome != OK:
            return outcome, why
        s = _read_matrix_text(s_path)
        p = np.asarray(k) - 1
        q = np.setdiff1d(np.arange(matrix.shape[0]), p)
        a, b = matrix[np.ix_(p, p)], matrix[np.ix_(p, q)]
        b_dag, f = matrix[np.ix_(q, p)], matrix[np.ix_(q, q)]
        residual = float(np.linalg.norm(b_dag + f @ s - s @ (a + b @ s)))
        limit = DECOUPLED_RTOL * (1.0 + float(np.linalg.norm(matrix)))
        if residual > limit:
            return BAD, f"s-file residual {residual:.3e} > {limit:.3e}"
        return OK, ""

    return gate


# -- verify -------------------------------------------------------------------
# (N, d): C(N, d) <= 20 000 runs the exhaustive enumeration, above it is skipped.
VERIFY_CASES = ((12, 3), (16, 3), (48, 4), (64, 4))
VERIFY_TRIALS = 8
VERIFY_ENUM_LIMIT = 20_000
VERIFY_INSTANCES = 2
# The CHECK names `verify` prints at this version. A change that drops a
# check cannot pass the gate.
VERIFY_CHECKS = frozenset("""
    eigh_reconstruct eigh_orthonormal projectors_exact decoupling_residual_direct
    generator_nilpotent transform_inverse_exact blocks_assembly spectrum_preserved
    effective_block_owns_projections selected_vectors_mapped decoupling_matches_exactly_d
    basis_change_invariance fixed_point_exact non_membership retrieve_round_trip
    first_type_spectrum factorization_completeness route_equivalence second_type_hermitian
    matrix_element_gram membership_rejection first_type_nonhermitian_generic
    solver_gap_consistency solver_spectrum_subset solver_deterministic
    commuting_companions_valid common_s_all_members effective_commutators
    simultaneous_effective_eigvecs decomposition_completeness
""".split())
VERIFY_ENUM_CHECKS = frozenset("""
    enumeration_bounds enumeration_rank_agreement enumeration_contains_pivoted
    equivalence_transform
""".split())


def build_verify(rng, root: Path) -> list[Problem]:
    problems = []
    for copy in range(VERIFY_INSTANCES):
        for n, d in VERIFY_CASES:
            obs = generate(ProblemSpec("random_hermitian", n, int(rng.integers(2**31))))
            path = root / f"verify_{n}_{copy}.txt"
            matio.write_observable(path, obs)
            enumerates = math.comb(n, d) <= VERIFY_ENUM_LIMIT
            expected = VERIFY_CHECKS | VERIFY_ENUM_CHECKS if enumerates else VERIFY_CHECKS
            argv = ["verify", "--matrix", str(path), "--d", str(d),
                    "--trials", str(VERIFY_TRIALS), "--seed", str(int(rng.integers(2**31)))]
            label = f"verify N={n} d={d} copy={copy}"
            problems.append(Problem(label, argv, _verify_gate(expected)))
    return problems


def _verify_gate(expected: frozenset):
    def gate(rc, stdout, stderr):
        if rc != 0:
            return BAD, f"exit {rc}: {stderr.strip()[:200]}"
        names = {line.split()[1] for line in stdout.splitlines() if line.startswith("CHECK ")}
        if names != expected:
            return BAD, (f"CHECK set differs: missing {sorted(expected - names)}, "
                         f"extra {sorted(names - expected)}")
        return OK, ""

    return gate


BUILDERS = {
    "direct": build_direct,
    "verify": build_verify,
}


def build(name: str, seed: int, root: Path) -> list[Problem]:
    """Instances for one workload; the same seed writes the same files."""
    return BUILDERS[name](np.random.default_rng(seed), root)

"""End-to-end acceptance suite.

Each criterion is one test; a summary line is printed once its
assertions have all passed. Run with ``pytest tests/test_acceptance.py -s``
to see the lines.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from effop.effective import (
    equivalence_transform,
    expectation_second_type,
    first_type,
    matrix_element,
    q_block_and_factorization,
    second_type,
    spectral_reconstruct,
)
from effop.errors import NotInSubspace
from effop.harness import ProblemSpec, gap_separated, generate, read_matrix
from effop.observables import (
    common_s,
    decompose_space,
    effective_set,
    selection_from_basis,
    simultaneous_eigenbasis,
)
from effop.solver import SolverConfig, solve_decoupling_fixed_point
from effop.spaces import (
    ModelSpace,
    eigendecompose,
    enumerate_model_spaces,
    pivoted_model_space,
    select_eigenvectors,
    validate_hermitian,
)
from effop.transform import (
    construct_s_direct,
    construct_s_from_span,
    decoupling_residual,
    similarity_transform,
)
from effop.util import match_spectra

DIMS = (6, 8, 12)
MODEL_DIMS = (2, 3, 4)


def _announce(number, name):
    print(f"\nCRITERION {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def batch():
    """50 seeded instances with a random valid J and the best-conditioned K."""
    items = []
    for i in range(50):
        n = DIMS[i % 3]
        d = MODEL_DIMS[(i // 3) % 3]
        obs = generate(ProblemSpec("random_hermitian", dim=n, seed=1000 + i))
        dec = eigendecompose(obs)
        rng = np.random.default_rng(5000 + i)
        j = tuple(sorted(rng.choice(n, size=d, replace=False) + 1))
        sel = select_eigenvectors(dec, j)
        candidates = enumerate_model_spaces(sel)
        ms = ModelSpace(n, pivoted_model_space(sel))
        dm = construct_s_direct(sel, ms)
        items.append((obs, dec, sel, ms, dm, candidates))
    return items


def test_criterion_01_eigenvalue_reproduction(batch):
    for obs, dec, sel, ms, dm, _ in batch:
        operator = first_type(obs, dm)
        assert match_spectra(np.linalg.eigvals(operator.matrix),
                             sel.values, rtol=1e-8).matched
        _, report = q_block_and_factorization(obs, dm)
        assert report.matched
    _announce(1, "eigenvalue-reproduction")


def test_criterion_02_decoupling_residual(batch):
    for obs, _, _, _, dm, _ in batch:
        assert decoupling_residual(obs, dm) <= 1e-9 * (1.0 + obs.norm)
    _announce(2, "decoupling-residual")


def test_criterion_03_hand_verified_fixture():
    obs = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (2,))
    ms = ModelSpace(2, (1,))
    dm = construct_s_direct(sel, ms)
    assert abs(dm.s[0, 0] - 1.0) <= 1e-12
    transformed = similarity_transform(obs, dm)
    assert np.abs(transformed - np.array([[1.0, 1.0], [0.0, -1.0]])).max() <= 1e-12
    operator = first_type(obs, dm)
    assert abs(operator.matrix[0, 0] - 1.0) <= 1e-12
    qq, _ = q_block_and_factorization(obs, dm)
    assert abs(qq[0, 0] + 1.0) <= 1e-12
    hermitian_rep = second_type(obs, dm)
    assert abs(hermitian_rep.matrix[0, 0] - 2.0) <= 1e-12
    psi = dec.vectors[:, 1]
    direct = complex(np.vdot(psi, obs.matrix @ psi))
    assert abs(direct - 1.0) <= 1e-12
    assert abs(matrix_element(psi, psi, hermitian_rep, dm) - 1.0) <= 1e-12
    p_norm2 = abs(psi[0]) ** 2
    rayleigh = (np.conj(psi[0]) * hermitian_rep.matrix[0, 0] * psi[0]).real / p_norm2
    assert abs(p_norm2 * rayleigh - 1.0) <= 1e-12
    assert abs(expectation_second_type(hermitian_rep, psi, dm) - 1.0) <= 1e-12
    _announce(3, "hand-verified-fixture")


def test_criterion_04_iterative_solver():
    weak = validate_hermitian(np.array([[1.0, 0.1], [0.1, 3.0]]))
    config = SolverConfig(tol=1e-12, max_iter=50)
    dm, trace = solve_decoupling_fixed_point(weak, ModelSpace(2, (1,)), config)
    assert trace.converged and trace.iterations <= 50
    assert abs(dm.s[0, 0] - (10.0 - math.sqrt(101.0))) <= 1e-10
    for seed in range(20):
        obs = gap_separated(8, 3, gap=1.0, coupling=0.1, seed=2000 + seed)
        ms = ModelSpace(8, (1, 2, 3))
        iterated, trace = solve_decoupling_fixed_point(obs, ms)
        assert trace.converged
        direct = construct_s_direct(
            select_eigenvectors(eigendecompose(obs), (1, 2, 3)), ms)
        assert np.linalg.norm(iterated.s - direct.s) <= 1e-8
    _announce(4, "iterative-solver")


def test_criterion_05_basis_change_invariance():
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=1003))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (2, 4, 6))
    ms = ModelSpace(8, enumerate_model_spaces(sel)[0][0])
    dm = construct_s_direct(sel, ms)
    rng = np.random.default_rng(321)
    count = 0
    while count < 20:
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if np.linalg.cond(mix) > 1e3:
            continue
        remixed = construct_s_from_span(sel.vectors @ mix, ms)
        assert np.linalg.norm(remixed.s - dm.s) <= 1e-10
        count += 1
    _announce(5, "basis-change-invariance")


def test_criterion_06_matrix_element_identity(batch):
    for obs, dec, sel, ms, dm, _ in batch:
        rep = second_type(obs, dm)
        d = sel.dim
        for i in range(d):
            for j in range(d):
                exact = complex(np.vdot(sel.vectors[:, i], obs.matrix @ sel.vectors[:, j]))
                reduced = matrix_element(sel.vectors[:, i], sel.vectors[:, j], rep, dm)
                assert abs(exact - reduced) <= 1e-9
    obs, dec, sel, ms, dm, _ = batch[0]
    rep = second_type(obs, dm)
    rng = np.random.default_rng(99)
    rejected = 0
    for _ in range(10):
        stray = rng.standard_normal(obs.dim) + 1j * rng.standard_normal(obs.dim)
        with pytest.raises(NotInSubspace):
            matrix_element(stray, stray, rep, dm)
        rejected += 1
    assert rejected == 10
    _announce(6, "matrix-element-identity")


def test_criterion_07_spectral_reconstruction_route(batch):
    for obs, dec, sel, ms, dm, _ in batch:
        operator = first_type(obs, dm)
        assert np.abs(spectral_reconstruct(sel, ms) - operator.matrix).max() <= 1e-9
    _announce(7, "spectral-reconstruction-route")


def test_criterion_08_symmetry_preservation():
    for seed in range(20):
        family = generate(ProblemSpec("commuting_family", dim=9,
                                      seed=3000 + seed, family_size=3))
        basis = simultaneous_eigenbasis(family)
        j = (1, 2, 3)
        k_best = pivoted_model_space(selection_from_basis(basis, j))
        dm = common_s(family, j, k_best)
        for member in family.members:
            assert decoupling_residual(member, dm) <= 1e-9 * (1.0 + member.norm)
        _, report = effective_set(family, dm)
        assert report.max_norm <= 1e-9
    _announce(8, "symmetry-preservation")


def test_criterion_09_model_space_equivalence(batch):
    checked = 0
    for obs, dec, sel, ms, dm, candidates in batch:
        n, d = obs.dim, sel.dim
        assert 1 <= len(candidates) <= math.comb(n, d)
        if n <= 8:
            legitimate = {k for k, _ in candidates}
            for subset in itertools.combinations(range(1, n + 1), d):
                rows = np.asarray(subset) - 1
                independent = np.linalg.matrix_rank(sel.vectors[rows, :]) == d
                assert (subset in legitimate) == independent
        if len(candidates) < 2:
            continue
        scored = sorted(
            ((np.linalg.svd(sel.vectors[np.asarray(k) - 1, :], compute_uv=False)[-1], k)
             for k, _ in candidates),
            reverse=True,
        )
        other_k = next(k for _, k in scored if k != ms.indices)
        other_ms = ModelSpace(n, other_k)
        operator = first_type(obs, dm)
        other = first_type(obs, construct_s_direct(sel, other_ms))
        t = equivalence_transform(operator, other, sel)
        deviation = np.linalg.norm(operator.matrix - t @ other.matrix @ np.linalg.inv(t))
        assert deviation <= 1e-9 * (1.0 + np.linalg.norm(operator.matrix))
        checked += 1
    assert checked >= 40
    _announce(9, "model-space-equivalence")


def test_criterion_10_decomposition_completeness():
    family = generate(ProblemSpec("commuting_family", dim=9, seed=4321, family_size=2))
    basis = simultaneous_eigenbasis(family)
    parts = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    kparts = [
        pivoted_model_space(selection_from_basis(basis, block))
        for block in parts
    ]
    decomposition = decompose_space(family, parts, kparts)
    assert decomposition.complete
    for check in decomposition.spectrum_checks:
        assert check.max_deviation <= 1e-9 * (1.0 + 10.0)
    _announce(10, "decomposition-completeness")


def test_criterion_11_cli_round_trip(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, "-m", "effop", *args],
                              capture_output=True, text=True, timeout=300)

    matrix = tmp_path / "obs.mat"
    result = run("gen", "--kind", "planted_spectrum", "--dim", "8",
                 "--seed", "11", "--out", str(matrix))
    assert result.returncode == 0, result.stderr

    result = run("enumerate", "--matrix", str(matrix), "--J", "1,2,3")
    assert result.returncode == 0, result.stderr
    best_k = result.stdout.splitlines()[0].split()[0].removeprefix("K=")

    s_path = tmp_path / "s.mat"
    result = run("solve-direct", "--matrix", str(matrix), "--J", "1,2,3",
                 "--K", best_k, "--out-s", str(s_path))
    assert result.returncode == 0, result.stderr

    eff_path = tmp_path / "eff.mat"
    result = run("effective", "--matrix", str(matrix), "--s", str(s_path),
                 "--out", str(eff_path))
    assert result.returncode == 0, result.stderr

    result = run("verify", "--matrix", str(matrix), "--d", "3",
                 "--trials", "10", "--seed", "2")
    assert result.returncode == 0, result.stdout + result.stderr

    # criterion-1 numbers rebuilt from the files alone
    raw, _ = read_matrix(matrix)
    exact = np.linalg.eigvalsh(raw)
    effective_matrix, _ = read_matrix(eff_path)
    approx = np.sort(np.linalg.eigvals(effective_matrix).real)
    assert np.all(np.abs(approx - exact[:3]) <= 1e-8 * (1.0 + np.abs(exact[:3])))
    _announce(11, "cli-round-trip")

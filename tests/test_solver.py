import math

import numpy as np
import pytest

from effop import solver
from effop.errors import DimensionMismatch, Diverged, MaxIterExceeded, SylvesterSingular
from effop.harness import ProblemSpec, gap_separated, generate
from effop.solver import SolverConfig, TraceStep, solve_decoupling_fixed_point
from effop.spaces import ModelSpace, eigendecompose, select_eigenvectors, validate_hermitian
from effop.transform import (
    Provenance,
    construct_s_direct,
    decoupling_residual,
    transformed_blocks,
)
from effop.util import match_spectra

WEAK_2X2 = validate_hermitian(np.array([[1.0, 0.1], [0.1, 3.0]]))
SMALL_ROOT = 10.0 - math.sqrt(101.0)  # small-norm root of -0.1 s^2 + 2 s + 0.1 = 0


def test_scalar_quadratic_converges_to_small_root():
    dm, trace = solve_decoupling_fixed_point(WEAK_2X2, ModelSpace(2, (1,)))
    assert trace.converged
    assert trace.iterations <= 50
    assert abs(dm.s[0, 0] - SMALL_ROOT) <= 1e-10
    assert decoupling_residual(WEAK_2X2, dm) <= 1e-11
    # the surviving eigenvalue is the exact lower one, 2 - sqrt(1.01)
    pp = transformed_blocks(WEAK_2X2, dm).pp
    assert abs(pp[0, 0] - (2.0 - math.sqrt(1.01))) <= 1e-10


def test_uncoupled_converges_in_one_sweep():
    obs = validate_hermitian(np.diag([1.0, 2.0]))
    dm, trace = solve_decoupling_fixed_point(obs, ModelSpace(2, (1,)))
    assert trace.converged
    assert trace.iterations == 1
    assert dm.s[0, 0] == 0.0
    assert dm.provenance.iterations == 1
    assert dm.provenance.residual == 0.0


def test_equal_diagonal_blocks_raise():
    obs = validate_hermitian(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SylvesterSingular):
        solve_decoupling_fixed_point(obs, ModelSpace(2, (1,)))


def test_residual_history_converged_run():
    _, trace = solve_decoupling_fixed_point(WEAK_2X2, ModelSpace(2, (1,)))
    assert [step.iteration for step in trace.steps] == list(range(1, trace.iterations + 1))
    assert trace.steps[-1].residual <= 1e-11
    assert isinstance(trace.monotone_decreasing, bool)


def test_max_iter_carries_best_iterate():
    # second hand iterate of the scalar map: s2 = 0.05*s1^2 - 0.05 with s1 = -0.05
    config = SolverConfig(tol=1e-30, max_iter=2)
    with pytest.raises(MaxIterExceeded) as info:
        solve_decoupling_fixed_point(WEAK_2X2, ModelSpace(2, (1,)), config)
    exc = info.value
    assert len(exc.trace.steps) == 2
    s2_hand = 0.05 * (-0.05) ** 2 - 0.05
    assert abs(exc.best.s[0, 0] - s2_hand) < 1e-12
    assert abs(exc.best.s[0, 0] - (-0.049875)) < 1e-4
    assert exc.residual == pytest.approx(exc.trace.steps[-1].residual)


@pytest.mark.parametrize("seed, max_iter", [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4)])
def test_max_iter_records_the_sweep_of_its_best_iterate(seed, max_iter):
    """Here every sweep raises the residual, so the best map is the start
    s = 0, and its record names sweep 0, not the sweeps spent."""
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=seed))
    with pytest.raises(MaxIterExceeded) as info:
        solve_decoupling_fixed_point(obs, ModelSpace(12, (1, 2, 3)), SolverConfig(max_iter=max_iter))
    best = info.value.best
    assert not best.s.any()
    assert best.provenance == Provenance(iterations=0, residual=info.value.residual)


def test_diverged_carries_its_best_iterate_residual_and_trace():
    """The residual grows from the first sweep on, so the best map is the
    start s = 0; the run diverges at sweep 4 whatever the budget."""
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=0))
    for max_iter in (4, 500):
        with pytest.raises(Diverged, match="at iteration 4$") as info:
            solve_decoupling_fixed_point(obs, ModelSpace(12, (1, 2, 3)),
                                         SolverConfig(max_iter=max_iter))
        error = info.value
        assert not error.best.s.any()
        assert error.best.provenance == Provenance(iterations=0, residual=4.341894849777186)
        assert error.residual == 4.341894849777186
        assert error.trace.iterations == 4 and not error.trace.converged


def _count_reductions(monkeypatch):
    """Calls of ``transformed_blocks`` made through the solver's module."""
    calls = []

    def counted(obs, dm):
        calls.append(dm)
        return transformed_blocks(obs, dm)

    monkeypatch.setattr(solver, "transformed_blocks", counted)
    return calls


def test_each_sweep_reduces_once(monkeypatch):
    """One reduction of the initial iterate, then one per sweep: its residual
    judges the sweep and its qp block gives the next correction."""
    calls = _count_reductions(monkeypatch)
    obs = gap_separated(40, 4, seed=0)
    ms = ModelSpace(40, (1, 2, 3, 4))
    _, trace = solve_decoupling_fixed_point(obs, ms)
    assert trace.converged
    assert len(calls) == trace.iterations + 1

    calls.clear()
    with pytest.raises(MaxIterExceeded):
        solve_decoupling_fixed_point(obs, ms, SolverConfig(tol=1e-30, max_iter=3))
    assert len(calls) == 3 + 1


def test_strong_coupling_diverges():
    obs = validate_hermitian(np.array([[0.0, 10.0], [10.0, 1.0]]))
    with pytest.raises(Diverged):
        solve_decoupling_fixed_point(obs, ModelSpace(2, (1,)))


def test_initial_s_shape_checked():
    config = SolverConfig(initial_s=np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        solve_decoupling_fixed_point(WEAK_2X2, ModelSpace(2, (1,)), config)


def test_initial_s_near_solution_converges_fast():
    config = SolverConfig(initial_s=np.array([[SMALL_ROOT]]))
    dm, trace = solve_decoupling_fixed_point(WEAK_2X2, ModelSpace(2, (1,)), config)
    assert trace.converged
    assert trace.iterations <= 3
    assert abs(dm.s[0, 0] - SMALL_ROOT) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gap_separated_matches_direct_construction(seed):
    obs = gap_separated(8, 3, gap=1.0, coupling=0.1, seed=seed)
    ms = ModelSpace(8, (1, 2, 3))
    dm, trace = solve_decoupling_fixed_point(obs, ms)
    assert trace.converged
    dec = eigendecompose(obs)
    direct = construct_s_direct(select_eigenvectors(dec, (1, 2, 3)), ms)
    assert np.linalg.norm(dm.s - direct.s) <= 1e-8


def test_converged_spectrum_is_subset():
    obs = gap_separated(9, 3, gap=1.2, coupling=0.09, seed=7)
    ms = ModelSpace(9, (1, 2, 3))
    dm, _ = solve_decoupling_fixed_point(obs, ms)
    exact = np.linalg.eigvalsh(obs.matrix)
    approx = np.linalg.eigvals(transformed_blocks(obs, dm).pp)
    assert match_spectra(approx, exact, rtol=1e-8, subset=True).matched


def test_solver_deterministic():
    obs = gap_separated(8, 2, seed=11)
    ms = ModelSpace(8, (1, 2))
    dm1, trace1 = solve_decoupling_fixed_point(obs, ms)
    dm2, trace2 = solve_decoupling_fixed_point(obs, ms)
    assert np.array_equal(dm1.s, dm2.s)
    assert trace1 == trace2


def test_full_model_space_trivially_converged():
    # one empty sweep: nothing to decouple, and no gap to fall below, even for O = 0
    for diagonal in ([1.0, 2.0], [0.0, 0.0]):
        obs = validate_hermitian(np.diag(diagonal))
        dm, trace = solve_decoupling_fixed_point(obs, ModelSpace(2, (1, 2)))
        assert trace.converged
        assert trace.steps == (TraceStep(1, 0.0, 0.0, 0.0),)
        assert dm.provenance == Provenance(iterations=1, residual=0.0)
        assert dm.s.shape == (0, 2)
        assert dm.s.dtype == np.complex128 and not dm.s.flags.writeable


def test_zero_observable_is_singular():
    # the gap floor is relative to ||O||_F, and O = 0 has no gap at all
    obs = validate_hermitian(np.zeros((3, 3)))
    with pytest.raises(SylvesterSingular):
        solve_decoupling_fixed_point(obs, ModelSpace(3, (1,)))


@pytest.mark.parametrize("seed", range(5))
def test_solver_is_scale_invariant(seed):
    # s is invariant under O -> cO: the same sweeps and the same map at every scale.
    # (at c = 1e-12 an absolute gap floor raised; at c >= 1e6 an absolute residual
    # target was never met)
    obs = gap_separated(8, 3, seed=seed)
    ms = ModelSpace(8, (1, 2, 3))
    dm, trace = solve_decoupling_fixed_point(obs, ms)
    for c in (1e-12, 1e-6, 1e6, 1e9, 1e12):
        scaled, scaled_trace = solve_decoupling_fixed_point(
            validate_hermitian(c * obs.matrix), ms)
        assert scaled_trace.iterations == trace.iterations, c
        assert np.linalg.norm(scaled.s - dm.s) <= 1e-14 * np.linalg.norm(dm.s), c


def _sylvester_reference(obs, ms, tol=1e-11):
    """The sweeps solved by scipy's Schur-based Sylvester solver, with the
    solver's stopping rule; returns (s, sweeps)."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    p, q = ms.p_rows, ms.q_rows
    a, b = obs.matrix[np.ix_(p, p)], obs.matrix[np.ix_(p, q)]
    b_dag, f = obs.matrix[np.ix_(q, p)], obs.matrix[np.ix_(q, q)]
    s = np.zeros((ms.total_dim - ms.dim, ms.dim), dtype=np.complex128)
    for sweep in range(1, 501):
        s_new = scipy_linalg.solve_sylvester(f, -a, s @ b @ s - b_dag)
        step = np.linalg.norm(s_new - s) / max(1.0, np.linalg.norm(s))
        s = s_new
        residual = np.linalg.norm(b_dag + f @ s - s @ (a + b @ s))
        if step <= tol and residual <= tol * obs.norm:
            return s, sweep
    raise AssertionError("reference sweeps did not converge")


@pytest.mark.parametrize("n, d, seed", [(8, 3, 0), (12, 2, 1), (24, 4, 2), (48, 4, 3),
                                        (64, 8, 4), (100, 4, 5), (100, 16, 6)])
def test_eigenbasis_sweeps_equal_sylvester_reference(n, d, seed):
    obs = gap_separated(n, d, seed=seed)
    ms = ModelSpace(n, tuple(range(1, d + 1)))
    expected, sweeps = _sylvester_reference(obs, ms)
    dm, trace = solve_decoupling_fixed_point(obs, ms)
    assert trace.iterations == sweeps
    assert np.linalg.norm(dm.s - expected) <= 1e-13 * np.linalg.norm(expected)


def test_a_nan_initial_s_diverges_at_once():
    config = SolverConfig(initial_s=np.full((1, 1), np.nan))
    with pytest.raises(Diverged, match="at iteration 1$"):
        solve_decoupling_fixed_point(WEAK_2X2, ModelSpace(2, (1,)), config)

import functools
import gc
import itertools
import math
import statistics
import time
import weakref

import numpy as np
import pytest

from effop.errors import (
    CapTooTight,
    DimensionMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    NonFinite,
    NotHermitian,
    SolverFailure,
    ValidationError,
)
from effop import observables, spaces
from effop.harness import ProblemSpec, generate
from effop.spaces import (
    ModelSpace,
    eigendecompose,
    enumerate_model_spaces,
    pivoted_model_space,
    projectors,
    select_eigenvectors,
    validate_hermitian,
)
from effop.tolerances import COND_CAP, PHASE_ANCHOR
from effop.transform import construct_s_direct, DecouplingMap, ModelSpace as _MS  # noqa: F401
from effop.transform import retrieve_full_vector
from effop.util import condition_number

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_validate_accepts_real_symmetric():
    obs = validate_hermitian(SIGMA_X)
    assert obs.dim == 2
    assert np.array_equal(obs.matrix, SIGMA_X.astype(complex))


def test_validate_accepts_imaginary_antisymmetric():
    m = np.array([[0.0, 1j], [-1j, 0.0]])
    obs = validate_hermitian(m)
    assert np.allclose(obs.matrix, m)


def test_validate_rejects_upper_triangular():
    with pytest.raises(NotHermitian):
        validate_hermitian([[0.0, 1.0], [0.0, 0.0]])


def test_validate_rejects_nonfinite():
    with pytest.raises(NonFinite):
        validate_hermitian([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFinite):
        validate_hermitian([[np.inf, 0.0], [0.0, 1.0]])


def test_validate_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        validate_hermitian(np.zeros((2, 3)))


def test_validate_symmetrizes_representation_noise():
    m = SIGMA_X.astype(complex)
    m[0, 1] += 1e-14  # below 1e-12 * max entry
    obs = validate_hermitian(m)
    assert np.array_equal(obs.matrix, obs.matrix.conj().T)


def test_validate_output_readonly():
    obs = validate_hermitian(SIGMA_X)
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 5.0


def test_eigendecompose_diagonal_permutes():
    obs = validate_hermitian(np.diag([3.0, 1.0, 2.0]))
    dec = eigendecompose(obs)
    assert np.allclose(dec.values, [1.0, 2.0, 3.0])
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.allclose(dec.vectors, expected, atol=1e-12)


def test_eigendecompose_two_by_two():
    # quadratic-formula oracle: values are -1 and +1, vectors (1, -/+1)/sqrt(2)
    dec = eigendecompose(validate_hermitian(SIGMA_X))
    assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-14)
    assert np.allclose(dec.vectors[:, 0], [INV_SQRT2, -INV_SQRT2], atol=1e-12)
    assert np.allclose(dec.vectors[:, 1], [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_eigendecompose_reconstructs_random():
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=13))
    dec = eigendecompose(obs)
    residuals = np.linalg.norm(obs.matrix @ dec.vectors - dec.vectors * dec.values, axis=0)
    assert residuals.max() <= 1e-10
    rebuilt = (dec.vectors * dec.values) @ dec.vectors.conj().T
    assert np.linalg.norm(rebuilt - obs.matrix) <= 1e-10 * obs.norm


def test_eigendecompose_orthonormal_and_deterministic():
    obs = generate(ProblemSpec("random_hermitian", dim=10, seed=3))
    dec1 = eigendecompose(obs)
    dec2 = eigendecompose(obs)
    assert np.linalg.norm(dec1.vectors.conj().T @ dec1.vectors - np.eye(10)) < 1e-12
    assert np.array_equal(dec1.values, dec2.values)
    assert np.array_equal(dec1.vectors, dec2.vectors)
    for array in (dec1.values, dec1.vectors, dec2.values, dec2.vectors):
        assert not array.flags.writeable
    # one selection of every pair, cached on the observable without a
    # reference cycle, so reference counting alone frees it
    assert dec1 is dec2 and dec1.indices == tuple(range(1, 11))
    alive = weakref.ref(obs)
    gc.disable()
    try:
        del obs, dec1, dec2
        assert alive() is None
    finally:
        gc.enable()


def test_eigendecompose_phase_anchor_positive():
    obs = generate(ProblemSpec("random_hermitian", dim=6, seed=44))
    dec = eigendecompose(obs)
    for j in range(6):
        col = dec.vectors[:, j]
        k = np.flatnonzero(np.abs(col) > 1e-8)[0]
        assert col[k].real > 0
        assert abs(col[k].imag) < 1e-12


def _normalize_phases_reference(vectors):
    """The per-column loop the vectorized phase normalization replaced."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        anchors = np.flatnonzero(np.abs(col) > PHASE_ANCHOR)
        if anchors.size:
            pivot = col[anchors[0]]
            col *= np.abs(pivot) / pivot
    return out


def _phase_inputs():
    rng = np.random.default_rng(29)
    for n in (1, 2, 7, 33, 130):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z *= 10.0 ** rng.uniform(-6, 6, size=(n, n))
        z[: n // 2, ::3] = 0.0           # the anchor moves down these columns
        z[0, 1::4] = 0.5 * PHASE_ANCHOR   # a negligible leading entry is skipped
        z[:, -1] = 0.1 * PHASE_ANCHOR     # no anchor at all: the column is not rotated
        yield z
    planted = (1, 1, 1, 2, 2, 3, 4, 4, 4, 4, 5, 6)
    obs = generate(ProblemSpec("planted_spectrum", dim=12, seed=8, spectrum=planted))
    yield np.linalg.eigh(obs.matrix)[1]
    family = generate(ProblemSpec("commuting_family", dim=20, seed=4, family_size=3))
    for member in family.members:
        yield np.linalg.eigh(member.matrix)[1]
    mix = sum(member.matrix for member in family.members)
    yield np.linalg.eigh(0.5 * (mix + mix.conj().T))[1]


def test_normalize_phases_matches_per_column_loop():
    for vectors in _phase_inputs():
        got = spaces._normalize_phases(vectors)
        assert got.tobytes() == _normalize_phases_reference(vectors).tobytes()


def test_eigendecompose_bitwise_on_degenerate_spectra():
    planted = (0, 0, 0, 1, 2, 2, 3, 3, 3, 3)
    for spec in (ProblemSpec("planted_spectrum", dim=10, seed=5, spectrum=planted),
                 ProblemSpec("random_hermitian", dim=40, seed=6)):
        obs = generate(spec)
        values, vectors = np.linalg.eigh(obs.matrix)
        vectors = _normalize_phases_reference(vectors)
        dec = eigendecompose(obs)
        assert dec.values.tobytes() == values.tobytes()
        assert dec.vectors.tobytes() == vectors.tobytes()


def test_eigendecompose_reports_an_eigensolver_failure(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(SolverFailure, match="^dense eigensolver did not converge: "
                                            "Eigenvalues did not converge$"):
        eigendecompose(validate_hermitian(SIGMA_X))


def test_eigendecompose_rejects_inaccurate_eigenpairs(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], eigh(m)[1] + 1e-3))
    with pytest.raises(SolverFailure, match=r"^eigenpair residual \S+ above tolerance "):
        eigendecompose(validate_hermitian(SIGMA_X))


def test_model_space_validation():
    ms = ModelSpace(4, (2, 4))
    assert ms.dim == 2
    assert ms.complement == (1, 3)
    with pytest.raises(DuplicateIndex):
        ModelSpace(4, (2, 2))
    with pytest.raises(IndexOutOfRange):
        ModelSpace(4, (0, 1))
    with pytest.raises(IndexOutOfRange):
        ModelSpace(4, (5,))
    with pytest.raises(ValidationError):
        ModelSpace(4, (3, 1))
    with pytest.raises(ValidationError):
        ModelSpace(4, ())


def test_model_space_index_rows_built_once():
    ms = ModelSpace(6, (2, 5))
    assert ms.p_rows is ms.p_rows
    assert ms.q_rows is ms.q_rows
    assert not ms.p_rows.flags.writeable
    assert not ms.q_rows.flags.writeable
    assert ms.p_rows.tolist() == [1, 4]
    assert ms.q_rows.tolist() == [i - 1 for i in ms.complement] == [0, 2, 3, 5]


@pytest.mark.parametrize("n,k,p_diag", [
    (3, (1,), [1, 0, 0]),
    (3, (2, 3), [0, 1, 1]),
    (2, (1, 2), [1, 1]),
])
def test_projectors_cases(n, k, p_diag):
    p, q = projectors(ModelSpace(n, k))
    assert np.array_equal(np.diag(p), p_diag)
    assert np.array_equal(p + q, np.eye(n))
    assert not (p @ q).any()
    assert not (q @ p).any()
    assert np.trace(p) == len(k)


def test_select_eigenvectors_plus_state():
    dec = eigendecompose(validate_hermitian(SIGMA_X))
    sel = select_eigenvectors(dec, (2,))
    assert sel.values[0] == pytest.approx(1.0)
    assert np.allclose(sel.vectors[:, 0], [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_select_eigenvectors_diagonal():
    dec = eigendecompose(validate_hermitian(np.diag([1.0, 2.0, 3.0])))
    sel = select_eigenvectors(dec, (1, 3))
    assert np.allclose(sel.values, [1.0, 3.0])
    assert np.allclose(np.abs(sel.vectors[:, 0]), [1, 0, 0])
    assert np.allclose(np.abs(sel.vectors[:, 1]), [0, 0, 1])


def test_select_eigenvectors_errors():
    dec = eigendecompose(validate_hermitian(SIGMA_X))
    with pytest.raises(DuplicateIndex):
        select_eigenvectors(dec, (1, 1))
    with pytest.raises(IndexOutOfRange):
        select_eigenvectors(dec, (3,))
    with pytest.raises(IndexOutOfRange):
        select_eigenvectors(dec, (0,))


def _selection_from_vectors(vectors, values=None):
    from effop.spaces import EigenSelection

    vectors = np.asarray(vectors, dtype=complex)
    d = vectors.shape[1]
    vals = np.zeros(d) if values is None else np.asarray(values, dtype=float)
    return EigenSelection(tuple(range(1, d + 1)), vals, vectors)


def test_enumerate_single_candidate():
    sel = _selection_from_vectors(np.array([[1.0], [0.0]]))
    result = enumerate_model_spaces(sel)
    assert result == [((1,), 1.0)]


def test_enumerate_symmetric_vector_gives_both():
    sel = _selection_from_vectors(np.array([[INV_SQRT2], [INV_SQRT2]]))
    result = enumerate_model_spaces(sel)
    assert [k for k, _ in result] == [(1,), (2,)]
    assert all(c == pytest.approx(1.0) for _, c in result)


def test_enumerate_against_bruteforce_rank():
    obs = generate(ProblemSpec("random_hermitian", dim=6, seed=17))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (2, 5))
    result = enumerate_model_spaces(sel)
    legitimate = {k for k, _ in result}
    for subset in itertools.combinations(range(1, 7), 2):
        rows = np.asarray(subset) - 1
        expected = np.linalg.matrix_rank(sel.vectors[rows, :]) == 2
        assert (subset in legitimate) == expected
    assert 1 <= len(result) <= math.comb(6, 2)
    conds = [c for _, c in result]
    assert conds == sorted(conds)


def test_enumerate_cap_too_tight():
    sel = _selection_from_vectors(np.array([[1.0], [0.5]]))
    with pytest.raises(CapTooTight):
        enumerate_model_spaces(sel, cond_cap=0.5)


def _enumerate_reference(sel, cond_cap=COND_CAP):
    """One ``condition_number`` call per subset, sorted by (cond, K)."""
    n, d = sel.total_dim, sel.dim
    found = []
    for subset in itertools.combinations(range(1, n + 1), d):
        cond = condition_number(sel.vectors[np.asarray(subset) - 1, :])
        if np.isfinite(cond) and cond <= cond_cap:
            found.append((subset, cond))
    return sorted(found, key=lambda item: (item[1], item[0]))


def test_enumerate_matches_per_subset_reference_across_chunks():
    obs = generate(ProblemSpec("random_hermitian", dim=25, seed=4))
    sel = select_eigenvectors(eigendecompose(obs), (2, 9, 17))
    assert math.comb(25, 3) > spaces._SUBSET_CHUNK
    result = enumerate_model_spaces(sel)
    assert result == _enumerate_reference(sel)
    assert all(type(cond) is float for _, cond in result)


@pytest.mark.parametrize("unit_rows", [False, True])
def test_enumerate_leaves_out_zero_row_subsets(unit_rows):
    # 25 rows, 3 columns, every fourth row zero; with unit rows scaled by 1
    # or 2 every accepted block is a scaled permutation matrix, so its cond
    # is exactly 1 or 2 and the order of the ties, across chunk boundaries
    # too, is decided by K alone
    rng = np.random.default_rng(8)
    if unit_rows:
        vectors = np.eye(3)[np.arange(25) % 3] * (1.0 + np.arange(25) % 2)[:, None]
    else:
        vectors = rng.standard_normal((25, 3)) + 1j * rng.standard_normal((25, 3))
    zero = np.arange(0, 25, 4)
    vectors[zero] = 0.0
    sel = _selection_from_vectors(vectors)
    result = enumerate_model_spaces(sel)
    assert result == _enumerate_reference(sel)
    assert not any(set(k) & set(zero + 1) for k, _ in result)
    if unit_rows:
        assert {cond for _, cond in result} == {1.0, 2.0}
        assert len(result) == 6 ** 3


def test_enumerate_cap_too_tight_message():
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=5))
    sel = select_eigenvectors(eigendecompose(obs), (1, 2, 3))
    assert _enumerate_reference(sel, cond_cap=1.0) == []
    with pytest.raises(CapTooTight) as excinfo:
        enumerate_model_spaces(sel, cond_cap=1.0)
    assert str(excinfo.value) == "no subset of size 3 passed cond cap 1.000e+00 out of 220 candidates"


def test_pivoted_model_space_picks_dominant_row():
    # condition numbers of 1x1 blocks are all one; the pivoted choice must
    # still find the large component
    vector = np.array([[1e-9], [0.3], [0.95]], dtype=complex)
    assert pivoted_model_space(vector) == (3,)


def test_pivoted_model_space_is_legitimate_and_well_conditioned():
    obs = generate(ProblemSpec("random_hermitian", dim=9, seed=19))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (3, 6, 9))
    chosen = pivoted_model_space(sel)
    legitimate = dict(enumerate_model_spaces(sel))
    assert chosen in legitimate
    best_smin = max(
        np.linalg.svd(sel.vectors[np.asarray(k) - 1, :], compute_uv=False)[-1]
        for k in legitimate
    )
    chosen_smin = np.linalg.svd(sel.vectors[np.asarray(chosen) - 1, :],
                                compute_uv=False)[-1]
    assert chosen_smin >= 0.3 * best_smin


def test_pivoted_model_space_breaks_exact_ties_by_place():
    # rows e2, e2, 2 e1: the pivot 2 e1 swaps places with row 1, so the tie
    # between the two e2 rows goes to row 2, which now stands first
    vectors = np.array([[0, 1], [0, 1], [2, 0]], dtype=complex)
    assert pivoted_model_space(vectors) == (2, 3)
    assert pivoted_model_space(np.vstack([vectors[:2], [[0, 0]], vectors[2:]])) == (2, 4)
    # identity columns and constant columns tie exactly at every step
    assert pivoted_model_space(np.eye(6, 3)) == (1, 2, 3)
    assert pivoted_model_space(np.eye(6, 3)[::-1]) == (4, 5, 6)
    assert pivoted_model_space(np.ones((5, 3))) == (1, 2, 3)


def test_pivoted_model_space_rejects_non_finite_vectors():
    vectors = np.eye(4, 2)
    vectors[3, 1] = np.nan
    with pytest.raises(NonFinite):
        pivoted_model_space(vectors)


def _pivoting_cases():
    """(N, d) column sets: eigenvector selections of every generated kind,
    N 2-200 and d 1-16, plus matrices whose rows tie exactly."""
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 8, 12, 16, 32, 64, 128, 200):
        dims = [d for d in (1, 2, 3, 4, 8, 16) if d <= n]
        for kind in ("random_hermitian", "planted_spectrum", "tridiagonal_chain",
                     "commuting_family"):
            instance = generate(ProblemSpec(kind, n, n))
            if kind == "commuting_family":
                basis = instance.basis
                select = functools.partial(observables.selection_from_basis, basis)
            else:
                select = functools.partial(select_eigenvectors, eigendecompose(instance))
            for d in dims:
                drawn = tuple(sorted(rng.choice(n, size=d, replace=False) + 1))
                for j in (tuple(range(1, d + 1)), tuple(range(n - d + 1, n + 1)), drawn):
                    yield select(j).vectors
        for d in dims:
            row = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            yield np.eye(n, d, dtype=complex)
            yield np.eye(n, d, dtype=complex)[::-1]
            yield np.ones((n, d), dtype=complex)
            yield np.tile(row, (n, 1))


def _geqp3_model_space(scipy_linalg, vectors):
    """The model space LAPACK's column-pivoted QR (geqp3) picks."""
    array = vectors.vectors if isinstance(vectors, spaces.EigenSelection) else vectors
    _, _, pivots = scipy_linalg.qr(array.conj().T, pivoting=True)
    return tuple(sorted(int(i) + 1 for i in pivots[:array.shape[1]]))


def test_pivoted_model_space_matches_lapack_geqp3():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    for vectors in _pivoting_cases():
        assert pivoted_model_space(vectors) == _geqp3_model_space(scipy_linalg, vectors), vectors


@pytest.mark.parametrize("n, d", [(12, 3), (16, 3), (48, 4), (64, 4)])
def test_pivoted_model_space_is_no_slower_than_geqp3(n, d):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    obs = generate(ProblemSpec("random_hermitian", n, n))
    selection = select_eigenvectors(eigendecompose(obs), tuple(range(1, d + 1)))
    calls = {
        "numpy": lambda: pivoted_model_space(selection),
        "geqp3": lambda: _geqp3_model_space(scipy_linalg, selection),
    }
    # 60 pairs of 10-call blocks, alternating which side goes first; the
    # median of the paired ratios, so that load on the machine, which comes
    # and goes, slows both sides of a pair alike
    ratios = []
    for block in range(60):
        took = {}
        for name in sorted(calls, reverse=block % 2 == 1):
            start = time.perf_counter()
            for _ in range(10):
                calls[name]()
            took[name] = time.perf_counter() - start
        ratios.append(took["numpy"] / took["geqp3"])
    assert statistics.median(ratios) <= 1.0, sorted(ratios)


def test_retrieve_full_vector_hand_cases():
    ms = ModelSpace(2, (1,))
    dm = DecouplingMap(ms, np.array([[1.0 + 0j]]))
    assert np.allclose(retrieve_full_vector([1.0], dm), [1.0, 1.0])
    dm0 = DecouplingMap(ms, np.array([[0.0 + 0j]]))
    assert np.allclose(retrieve_full_vector([1.0], dm0), [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        retrieve_full_vector([1.0, 2.0], dm)


def test_retrieve_reconstructs_exact_eigenvector():
    # the model-space components of the transformed +1 state rebuild the
    # full eigenvector through the decoupling map
    obs = validate_hermitian(SIGMA_X)
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (2,))
    ms = ModelSpace(2, (1,))
    dm = construct_s_direct(sel, ms)
    alpha = sel.vectors[ms.p_rows, 0]
    rebuilt = retrieve_full_vector(alpha, dm)
    exact = dec.vectors[:, 1]
    cross = np.vdot(rebuilt, exact)
    assert abs(abs(cross) - np.linalg.norm(rebuilt) * np.linalg.norm(exact)) < 1e-12


def test_retrieve_round_trip_over_span():
    obs = generate(ProblemSpec("random_hermitian", dim=7, seed=5))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (1, 4, 6))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(7, k_best)
    dm = construct_s_direct(sel, ms)
    rng = np.random.default_rng(2)
    from effop.transform import exp_s

    for _ in range(5):
        member = sel.vectors @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        alpha = (exp_s(dm, -1) @ member)[ms.p_rows]
        assert np.linalg.norm(retrieve_full_vector(alpha, dm) - member) <= 1e-10 * (
            1 + np.linalg.norm(member)
        )

import numpy as np
import pytest

from effop.effective import (
    classify_eigenvector,
    equivalence_transform,
    expansion_coefficients,
    expectation_first_type,
    expectation_second_type,
    first_type,
    matrix_element,
    membership_residual,
    overlap_matrix,
    q_block_and_factorization,
    second_type,
    spectral_reconstruct,
)
from effop.errors import (
    DimensionMismatch,
    NotAnEigenvector,
    NotDecoupled,
    NotInSubspace,
    SingularProjection,
    ValidationError,
    ZeroVector,
)
from effop.harness import ProblemSpec, generate, read_decoupling_map, write_decoupling_map
from effop.spaces import (
    EigenSelection,
    ModelSpace,
    eigendecompose,
    enumerate_model_spaces,
    select_eigenvectors,
    validate_hermitian,
)
from effop.transform import (
    DecouplingMap,
    TransformedBlocks,
    construct_s_direct,
    decoupling_residual,
    partition_blocks,
)
from effop.util import match_spectra

SIGMA_X = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _sigma_x_setup():
    dec = eigendecompose(SIGMA_X)
    sel = select_eigenvectors(dec, (2,))
    ms = ModelSpace(2, (1,))
    return dec, sel, ms, construct_s_direct(sel, ms)


def _random_setup(seed=70, n=8, j=(1, 2, 3)):
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=seed))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, j)
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(n, k_best)
    return obs, dec, sel, ms, construct_s_direct(sel, ms)


def test_first_type_hand():
    _, _, _, dm = _sigma_x_setup()
    operator = first_type(SIGMA_X, dm)
    assert abs(operator.matrix[0, 0] - 1.0) < 1e-12


def test_first_type_requires_decoupling():
    zero_map = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    with pytest.raises(NotDecoupled) as info:
        first_type(SIGMA_X, zero_map)
    assert info.value.residual == pytest.approx(1.0)


def test_first_type_lowest_states():
    obs, dec, sel, ms, dm = _random_setup()
    operator = first_type(obs, dm)
    eigenvalues = np.sort(np.linalg.eigvals(operator.matrix).real)
    assert np.abs(eigenvalues - dec.values[:3]).max() <= 1e-9


def test_first_type_keeps_decoupling_residual():
    obs, _, _, _, dm = _random_setup(seed=71)
    assert first_type(obs, dm).residual == decoupling_residual(obs, dm)


def test_q_block_hand():
    _, _, _, dm = _sigma_x_setup()
    qq, report = q_block_and_factorization(SIGMA_X, dm)
    assert abs(qq[0, 0] + 1.0) < 1e-12
    assert report.matched


def test_q_block_diagonal():
    obs = validate_hermitian(np.diag([1.0, 2.0, 3.0]))
    dm = DecouplingMap(ModelSpace(3, (1,)), np.zeros((2, 1), dtype=complex))
    qq, report = q_block_and_factorization(obs, dm)
    assert np.allclose(qq, np.diag([2.0, 3.0]))
    assert report.matched and report.max_deviation == 0.0


def test_q_block_factorization_random():
    obs, _, _, _, dm = _random_setup(seed=71, n=10, j=(2, 4, 6, 9))
    _, report = q_block_and_factorization(obs, dm)
    assert report.matched
    assert report.max_deviation <= 1e-8


@pytest.mark.parametrize("shift", [0.0, 3e-8])
def test_q_block_report_rejects_a_wrong_complement_block(monkeypatch, shift):
    """The rotation's spectra do not read qq; the moment tie must catch a
    qq shifted by a multiple of the identity, here about nine times its
    first-moment tolerance."""
    obs, _, _, ms, dm = _random_setup(seed=72, n=10, j=(1, 3, 5))
    _, b, _, f = partition_blocks(obs, ms)
    epsilon = shift * (1.0 + obs.norm)
    monkeypatch.setattr(TransformedBlocks, "qq", property(
        lambda blocks: f - dm.s @ b + epsilon * np.eye(f.shape[0])))
    qq, report = q_block_and_factorization(obs, dm)
    assert np.abs(qq - (f - dm.s @ b)).max() == pytest.approx(epsilon)
    assert report.matched == (shift == 0.0)


def test_classify_model_space_case():
    _, _, _, dm = _sigma_x_setup()
    result = classify_eigenvector(SIGMA_X, dm, np.array([1.0, 0.0]), 1.0)
    assert result.case == "model_space"
    assert result.p_is_eigenvector
    assert not result.spectra_intersect
    assert result.boundary_consistent


def test_classify_complement_case():
    # (1, -2)/sqrt(5) is the second eigenvector of [[1,1],[0,-1]], value -1
    _, _, _, dm = _sigma_x_setup()
    phi = np.array([1.0, -2.0]) / np.sqrt(5.0)
    result = classify_eigenvector(SIGMA_X, dm, phi, -1.0)
    assert result.case == "complement"
    assert not result.shares_eigenvalue
    assert not result.spectra_intersect
    assert not result.p_is_eigenvector
    assert result.boundary_consistent


def test_classify_common_eigenvalue_case():
    obs = validate_hermitian(np.eye(2))
    dm = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    phi = np.array([INV_SQRT2, INV_SQRT2])
    result = classify_eigenvector(obs, dm, phi, 1.0)
    assert result.case == "complement"
    assert result.shares_eigenvalue
    assert result.spectra_intersect
    assert result.boundary_consistent


def test_classify_rejects_non_eigenvector():
    _, _, _, dm = _sigma_x_setup()
    with pytest.raises(NotAnEigenvector):
        classify_eigenvector(SIGMA_X, dm, np.array([1.0, 0.0]), -1.0)


def test_classify_requires_decoupling():
    # (1, 1)/sqrt(2) is an eigenvector of sigma_x, which the zero map leaves coupled
    dm = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    with pytest.raises(NotDecoupled):
        classify_eigenvector(SIGMA_X, dm, np.array([INV_SQRT2, INV_SQRT2]), 1.0)


def _selection(vectors, values=None):
    vectors = np.asarray(vectors, dtype=complex)
    d = vectors.shape[1]
    vals = np.zeros(d) if values is None else np.asarray(values, dtype=float)
    return EigenSelection(None, tuple(range(1, d + 1)), vals, vectors)


def test_overlap_orthonormal_is_identity():
    # standard-basis eigenvectors project orthonormally onto K = J
    obs = validate_hermitian(np.diag([1.0, 2.0, 3.0]))
    dec = eigendecompose(obs)
    om = overlap_matrix(select_eigenvectors(dec, (1, 2)), ModelSpace(3, (1, 2)))
    assert np.allclose(om.gamma, np.eye(2), atol=1e-12)


def test_overlap_hand_values():
    vectors = np.array([[1.0, INV_SQRT2], [0.0, INV_SQRT2]])
    om = overlap_matrix(_selection(vectors), ModelSpace(2, (1, 2)))
    expected = np.array([[1.0, INV_SQRT2], [INV_SQRT2, 1.0]])
    assert np.allclose(om.gamma, expected, atol=1e-12)


def test_overlap_matches_bruteforce_inner_products():
    obs, dec, sel, ms, _ = _random_setup(seed=73)
    om = overlap_matrix(sel, ms)
    pv = sel.vectors[ms.p_rows, :]
    for i in range(3):
        for j in range(3):
            assert om.gamma[i, j] == pytest.approx(np.vdot(pv[:, i], pv[:, j]), abs=1e-12)


def test_overlap_singular_projection():
    vectors = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(SingularProjection):
        overlap_matrix(_selection(vectors), ModelSpace(3, (1, 2)))


def test_expansion_basis_vector_and_orthonormal():
    vectors = np.array([[1.0, INV_SQRT2], [0.0, INV_SQRT2]])
    om = overlap_matrix(_selection(vectors), ModelSpace(2, (1, 2)))
    coeff = expansion_coefficients(vectors[:, 0], om)
    assert np.allclose(coeff, [1.0, 0.0], atol=1e-12)
    # orthonormal basis: coefficients reduce to plain inner products
    ortho = np.eye(2, dtype=complex)
    om2 = overlap_matrix(_selection(ortho), ModelSpace(2, (1, 2)))
    chi = np.array([0.3 + 0.1j, -0.7])
    assert np.allclose(expansion_coefficients(chi, om2), chi)


def test_expansion_reconstructs_random():
    obs, dec, sel, ms, _ = _random_setup(seed=74)
    om = overlap_matrix(sel, ms)
    rng = np.random.default_rng(75)
    chi = om.basis @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    coeff = expansion_coefficients(chi, om)
    assert np.linalg.norm(om.basis @ coeff - chi) <= 1e-10


def test_spectral_reconstruct_hand():
    _, sel, ms, dm = _sigma_x_setup()
    rebuilt = spectral_reconstruct(sel, ms)
    assert abs(rebuilt[0, 0] - 1.0) < 1e-12


def test_spectral_reconstruct_diagonal():
    obs = validate_hermitian(np.diag([1.0, 2.0, 3.0]))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (1, 3))
    rebuilt = spectral_reconstruct(sel, ModelSpace(3, (1, 3)))
    assert np.allclose(rebuilt, np.diag([1.0, 3.0]), atol=1e-12)


def test_spectral_reconstruct_matches_first_type():
    obs, dec, sel, ms, dm = _random_setup(seed=76)
    operator = first_type(obs, dm)
    assert np.abs(spectral_reconstruct(sel, ms) - operator.matrix).max() <= 1e-9


def test_second_type_hand():
    _, _, _, dm = _sigma_x_setup()
    rep = second_type(SIGMA_X, dm)
    assert abs(rep.matrix[0, 0] - 2.0) < 1e-12


def test_second_type_coincides_with_first_for_zero_map():
    obs = validate_hermitian(np.diag([1.0, 2.0]))
    dm = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    assert second_type(obs, dm).matrix[0, 0] == first_type(obs, dm).matrix[0, 0] == 1.0


def test_second_type_hermitian_random():
    obs, _, _, _, dm = _random_setup(seed=77)
    rep = second_type(obs, dm)
    assert np.linalg.norm(rep.matrix - rep.matrix.conj().T) <= 1e-12 * max(
        1.0, np.linalg.norm(rep.matrix)
    )


def test_first_type_generally_nonhermitian():
    obs, _, _, _, dm = _random_setup(seed=78)
    operator = first_type(obs, dm)
    assert np.linalg.norm(operator.matrix - operator.matrix.conj().T) > 1e-8


def test_matrix_element_hand():
    dec, sel, ms, dm = _sigma_x_setup()
    rep = second_type(SIGMA_X, dm)
    psi = dec.vectors[:, 1]
    value = matrix_element(psi, psi, rep, dm)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_matrix_element_eigenvector_identity():
    obs, dec, sel, ms, dm = _random_setup(seed=79)
    rep = second_type(obs, dm)
    for col, expected in zip(sel.vectors.T, sel.values):
        assert matrix_element(col, col, rep, dm) == pytest.approx(expected, abs=1e-10)


def test_matrix_element_rejects_outside_vector():
    dec, sel, ms, dm = _sigma_x_setup()
    rep = second_type(SIGMA_X, dm)
    stray = np.array([1.0, 0.0])
    assert membership_residual(stray, dm) == pytest.approx(1.0)
    with pytest.raises(NotInSubspace):
        matrix_element(stray, stray, rep, dm)


def test_matrix_element_full_gram_random():
    obs, dec, sel, ms, dm = _random_setup(seed=80)
    rep = second_type(obs, dm)
    for i in range(3):
        for j in range(3):
            exact = complex(np.vdot(sel.vectors[:, i], obs.matrix @ sel.vectors[:, j]))
            reduced = matrix_element(sel.vectors[:, i], sel.vectors[:, j], rep, dm)
            assert abs(exact - reduced) <= 1e-9


def test_expectation_first_type_cases():
    _, _, _, dm = _sigma_x_setup()
    operator = first_type(SIGMA_X, dm)
    assert expectation_first_type(operator, [1.0]) == pytest.approx(1.0)
    with pytest.raises(ZeroVector):
        expectation_first_type(operator, [0.0])
    # diagonal representative: unit vectors pick out entries
    obs = validate_hermitian(np.diag([4.0, 5.0, 6.0]))
    dm3 = DecouplingMap(ModelSpace(3, (1, 2)), np.zeros((1, 2), dtype=complex))
    op3 = first_type(obs, dm3)
    assert expectation_first_type(op3, [1.0, 0.0]) == pytest.approx(4.0)
    assert expectation_first_type(op3, [0.0, 1.0]) == pytest.approx(5.0)


def test_expectation_first_type_non_normal():
    # direct arithmetic: M(1,1) = (2,2), so <a|M|a>/|a|^2 = (2+2)/2 = 2,
    # with zero imaginary part for this real instance
    from effop.effective import EffectiveOperator

    matrix = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    alpha = np.array([1.0, 1.0])
    oracle = np.vdot(alpha, matrix @ alpha) / np.vdot(alpha, alpha)
    ms = ModelSpace(4, (1, 2))
    operator = EffectiveOperator(matrix, ms, None, None)
    value = expectation_first_type(operator, alpha)
    assert value == pytest.approx(oracle)
    assert value == pytest.approx(2.0)
    assert value.imag == pytest.approx(0.0)


def test_expectation_second_type_hand():
    dec, sel, ms, dm = _sigma_x_setup()
    rep = second_type(SIGMA_X, dm)
    psi = dec.vectors[:, 1]
    value = expectation_second_type(rep, psi, dm)
    # projection norm squared times the representative's expectation
    p_norm2 = abs(psi[0]) ** 2
    rayleigh = (np.conj(psi[0]) * rep.matrix[0, 0] * psi[0]).real / p_norm2
    assert value == pytest.approx(p_norm2 * rayleigh, abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_expectation_second_type_random_and_errors():
    obs, dec, sel, ms, dm = _random_setup(seed=81)
    rep = second_type(obs, dm)
    rng = np.random.default_rng(82)
    coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi = sel.vectors @ coeff
    psi /= np.linalg.norm(psi)
    exact = float(np.vdot(psi, obs.matrix @ psi).real)
    assert expectation_second_type(rep, psi, dm) == pytest.approx(exact, abs=1e-9)
    with pytest.raises(ZeroVector):
        expectation_second_type(rep, np.zeros(8), dm)
    with pytest.raises(NotInSubspace):
        expectation_second_type(rep, rng.standard_normal(8), dm)


def test_subspace_vector_checks_name_the_vector():
    _, _, _, dm = _sigma_x_setup()
    rep = second_type(SIGMA_X, dm)
    member, stray = np.array([1.0, 1.0]), np.array([1.0, 0.0])
    for call in (lambda v: matrix_element(v, member, rep, dm),
                 lambda v: expectation_second_type(rep, v, dm)):
        with pytest.raises(NotInSubspace, match="^psi: membership residual "):
            call(stray)
        with pytest.raises(DimensionMismatch, match="^psi has 3 entries, expected 2$"):
            call(np.ones(3))
    with pytest.raises(NotInSubspace, match="^phi: membership residual "):
        matrix_element(member, stray, rep, dm)


def test_second_type_is_used_only_with_its_own_map(tmp_path):
    # psi lies in the subspace of both maps, so no membership check can tell them apart
    obs = generate(ProblemSpec("random_hermitian", dim=6, seed=2))
    sel = select_eigenvectors(eigendecompose(obs), (1, 2))
    dm = construct_s_direct(sel, ModelSpace(6, (1, 5)))
    rep = second_type(obs, dm)
    psi = sel.vectors[:, 0]
    exact = float(np.vdot(psi, obs.matrix @ psi).real)
    other_k = construct_s_direct(sel, ModelSpace(6, (2, 3)))
    other_s = DecouplingMap(dm.model_space, dm.s + 1e-3)
    for other in (other_k, other_s):
        with pytest.raises(ValidationError, match="another decoupling map"):
            matrix_element(psi, psi, rep, other)
        with pytest.raises(ValidationError, match="another decoupling map"):
            expectation_second_type(rep, psi, other)
    path = tmp_path / "s.txt"
    write_decoupling_map(path, dm)
    reread = read_decoupling_map(path)
    assert reread is not dm
    assert matrix_element(psi, psi, rep, reread) == pytest.approx(exact, abs=1e-9)
    assert expectation_second_type(rep, psi, reread) == pytest.approx(exact, abs=1e-9)


def test_equivalence_same_space_is_identity():
    obs, dec, sel, ms, dm = _random_setup(seed=83)
    operator = first_type(obs, dm)
    t = equivalence_transform(operator, operator, sel)
    assert np.allclose(t, np.eye(3), atol=1e-10)


def test_equivalence_two_by_two_hand():
    # symmetric vector: both singleton model spaces host the value +1
    dec = eigendecompose(SIGMA_X)
    sel = select_eigenvectors(dec, (2,))
    op1 = first_type(SIGMA_X, construct_s_direct(sel, ModelSpace(2, (1,))))
    op2 = first_type(SIGMA_X, construct_s_direct(sel, ModelSpace(2, (2,))))
    assert abs(op1.matrix[0, 0] - 1.0) < 1e-12
    assert abs(op2.matrix[0, 0] - 1.0) < 1e-12
    t = equivalence_transform(op1, op2, sel)
    assert abs(t[0, 0] - 1.0) < 1e-12


def test_distinct_selections_give_inequivalent_representatives():
    # disjoint eigenvalue subsets cannot be similar: spectra differ
    obs, dec, _, _, _ = _random_setup(seed=85, n=6, j=(1, 2))
    sel_low = select_eigenvectors(dec, (1, 2))
    sel_high = select_eigenvectors(dec, (5, 6))
    from effop.spaces import pivoted_model_space

    low = first_type(obs, construct_s_direct(
        sel_low, ModelSpace(6, pivoted_model_space(sel_low))))
    high = first_type(obs, construct_s_direct(
        sel_high, ModelSpace(6, pivoted_model_space(sel_high))))
    assert not match_spectra(np.linalg.eigvals(low.matrix),
                             np.linalg.eigvals(high.matrix), rtol=1e-6).matched


def test_equivalence_random_pair():
    obs, dec, sel, _, _ = _random_setup(seed=84, n=6, j=(2, 5))
    candidates = enumerate_model_spaces(sel)
    assert len(candidates) >= 2
    ms1 = ModelSpace(6, candidates[0][0])
    ms2 = ModelSpace(6, candidates[1][0])
    op1 = first_type(obs, construct_s_direct(sel, ms1))
    op2 = first_type(obs, construct_s_direct(sel, ms2))
    t = equivalence_transform(op1, op2, sel)
    mapped = t @ op2.matrix @ np.linalg.inv(t)
    assert np.linalg.norm(op1.matrix - mapped) <= 1e-9 * (1 + np.linalg.norm(op1.matrix))
    assert match_spectra(np.linalg.eigvals(op1.matrix),
                         np.linalg.eigvals(op2.matrix), rtol=1e-8).matched

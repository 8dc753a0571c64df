import warnings

import numpy as np
import pytest

from effop.effective import first_type, matrix_element, second_type
from effop.errors import (
    DimensionMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    NotCommuting,
    NotDecoupled,
    NotInSubspace,
    PartitionInvalid,
    SingularProjection,
    SolverFailure,
)
from effop.harness import ProblemSpec, commuting_partners, generate
from effop.harness.generate import haar_unitary
from effop.observables import (
    common_s,
    decompose_space,
    effective_set,
    selection_from_basis,
    simultaneous_eigenbasis,
    verify_commuting,
)
from effop.spaces import ModelSpace, enumerate_model_spaces, validate_hermitian
from effop.tolerances import eigenpair_tolerance
from effop.transform import DecouplingMap, decoupling_residual
from effop.util import match_spectra

SIGMA_X = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
SIGMA_Z = validate_hermitian(np.array([[1.0, 0.0], [0.0, -1.0]]))
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _a_a2_set():
    a2 = validate_hermitian(SIGMA_X.matrix @ SIGMA_X.matrix)
    return verify_commuting([SIGMA_X, a2])


def test_verify_commuting_polynomial_pair():
    cset = _a_a2_set()
    assert cset.size == 2
    assert cset.commutator_norms.max() == 0.0


def test_verify_commuting_diagonal_and_identity():
    cset = verify_commuting([
        validate_hermitian(np.diag([1.0, 2.0])),
        validate_hermitian(np.eye(2)),
    ])
    assert cset.commutator_norms.max() == 0.0


def test_not_commuting_pauli_pair():
    # [sx, sz] = -2i sy, whose Frobenius norm is 2*sqrt(2)
    with pytest.raises(NotCommuting) as info:
        verify_commuting([SIGMA_X, SIGMA_Z])
    assert info.value.pair == (1, 2)
    assert info.value.norm == pytest.approx(2.0 * np.sqrt(2.0))


@pytest.mark.parametrize("c", [1e-12, 1.0, 1e6, 1e12])
def test_commuting_sets_are_accepted_at_every_scale(c):
    """A commutator follows the scales of both members, and so does its
    tolerance: ``O -> cO`` neither admits nor rejects a pair."""
    for seed in range(20):
        family = generate(ProblemSpec("commuting_family", 12, seed, family_size=3))
        scaled = verify_commuting([validate_hermitian(c * m.matrix) for m in family.members])
        assert scaled.size == 3
    with pytest.raises(NotCommuting) as info:
        verify_commuting([validate_hermitian(c * SIGMA_X.matrix),
                          validate_hermitian(c * SIGMA_Z.matrix)])
    assert info.value.norm == pytest.approx(2.0 * np.sqrt(2.0) * c * c)


def test_not_commuting_names_the_pair_furthest_above_its_tolerance():
    """The commutators with member 3 are the largest, but relative to their
    norms members 1 and 2 are furthest from commuting."""
    big = validate_hermitian(1e3 * (SIGMA_Z.matrix + SIGMA_X.matrix))
    with pytest.raises(NotCommuting) as info:
        verify_commuting([SIGMA_Z, SIGMA_X, big])
    assert info.value.pair == (1, 2)


def test_verify_commuting_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_commuting([SIGMA_X, validate_hermitian(np.eye(3))])


def test_simultaneous_diagonal_pair():
    cset = verify_commuting([
        validate_hermitian(np.diag([1.0, 2.0])),
        validate_hermitian(np.diag([5.0, 5.0])),
    ])
    basis = simultaneous_eigenbasis(cset)
    assert tuple(basis.values[:, 0]) == pytest.approx((1.0, 5.0))
    assert tuple(basis.values[:, 1]) == pytest.approx((2.0, 5.0))
    assert basis.distinct


def test_simultaneous_a_a2_hand():
    basis = simultaneous_eigenbasis(_a_a2_set())
    assert np.allclose(basis.values[:, 0], [-1.0, 1.0], atol=1e-12)
    assert np.allclose(basis.values[:, 1], [1.0, 1.0], atol=1e-12)
    assert np.allclose(np.abs(basis.vectors[:, 0]), [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert np.allclose(np.abs(basis.vectors[:, 1]), [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_simultaneous_constructed_family_residuals():
    cset = generate(ProblemSpec("commuting_family", dim=7, seed=90, family_size=2))
    basis = simultaneous_eigenbasis(cset)
    for sig, member in enumerate(cset.members):
        residual = np.linalg.norm(
            member.matrix @ basis.vectors - basis.vectors * basis.values[sig], axis=0
        ).max()
        assert residual <= 1e-9


def test_simultaneous_resolves_member_degeneracy():
    # member 1 is degenerate; member 2 splits the tuples, so the joint
    # basis must diagonalize both to full residual accuracy
    rng = np.random.default_rng(91)
    from effop.harness import generate as _g  # noqa: F401
    from effop.harness.generate import haar_unitary

    v = haar_unitary(4, rng)
    m1 = validate_hermitian((v * np.array([1.0, 1.0, 2.0, 3.0])) @ v.conj().T)
    m2 = validate_hermitian((v * np.array([5.0, 7.0, 6.0, 8.0])) @ v.conj().T)
    cset = verify_commuting([m1, m2])
    basis = simultaneous_eigenbasis(cset)
    assert basis.distinct
    for sig, member in enumerate(cset.members):
        residual = np.linalg.norm(
            member.matrix @ basis.vectors - basis.vectors * basis.values[sig], axis=0
        ).max()
        assert residual <= 1e-9


def test_simultaneous_warns_on_repeated_tuples():
    rng = np.random.default_rng(92)
    from effop.harness.generate import haar_unitary

    v = haar_unitary(3, rng)
    m1 = validate_hermitian((v * np.array([1.0, 1.0, 2.0])) @ v.conj().T)
    m2 = validate_hermitian((v * np.array([3.0, 3.0, 5.0])) @ v.conj().T)
    cset = verify_commuting([m1, m2])
    with pytest.warns(UserWarning):
        basis = simultaneous_eigenbasis(cset)
    assert not basis.distinct


@pytest.mark.parametrize("exact", [
    # member 1 splits the pair below the cluster width; member 2 is scalar on it
    [[-1.0, -1.0 + 1e-9], [1.0, 1.0]],
    # member 1 is scalar, so rounding alone orders its values; two tuples repeat
    [[-1.0, -1.0, -1.0], [0.0, 1.0, 1.0]],
])
def test_simultaneous_near_degenerate_tuples(exact):
    for seed in range(8):
        v = haar_unitary(len(exact[0]), np.random.default_rng(seed))
        cset = verify_commuting([validate_hermitian((v * np.array(row)) @ v.conj().T)
                                 for row in exact])
        with pytest.warns(UserWarning, match="tuples are not all distinct"):
            basis = simultaneous_eigenbasis(cset)
        assert not basis.distinct
        for member, row in zip(cset.members, basis.values):
            residual = np.linalg.norm(member.matrix @ basis.vectors - basis.vectors * row, axis=0)
            assert residual.max() <= eigenpair_tolerance(member)


@pytest.mark.parametrize("exact", [
    # member 1 is scalar, so only member 2 can order the columns
    [[-1.0, -1.0, -1.0], [0.0, 1.0, 1.0]],
    [[-1.0, -1.0, -1.0, -1.0], [1.0, 0.0, 1.0, 0.0]],
    [[2.0, 2.0, 2.0, 5.0], [1.0, 0.0, 1.0, 3.0], [4.0, 4.0, 4.0, 4.0]],
])
def test_simultaneous_repeated_tuples_are_contiguous(exact):
    for seed in range(8):
        v = haar_unitary(len(exact[0]), np.random.default_rng(seed))
        cset = verify_commuting([validate_hermitian((v * np.array(row)) @ v.conj().T)
                                 for row in exact])
        with pytest.warns(UserWarning, match="tuples are not all distinct"):
            basis = simultaneous_eigenbasis(cset)
        tuples = [tuple(np.round(column, 6)) for column in basis.values.T]
        runs = [t for k, t in enumerate(tuples) if k == 0 or t != tuples[k - 1]]
        assert len(runs) == len(set(tuples)), (seed, tuples)
        assert runs == sorted(runs), (seed, tuples)


def test_common_s_hand():
    cset = _a_a2_set()
    dm = common_s(cset, (2,), (1,))
    assert abs(dm.s[0, 0] - 1.0) < 1e-12
    for member in cset.members:
        assert decoupling_residual(member, dm) <= 1e-12


def test_common_s_diagonal_is_zero():
    cset = verify_commuting([
        validate_hermitian(np.diag([1.0, 2.0, 3.0])),
        validate_hermitian(np.diag([4.0, 6.0, 5.0])),
    ])
    dm = common_s(cset, (1, 2), (1, 2))
    assert np.abs(dm.s).max() < 1e-14


def test_common_s_random_triple_decouples_every_member():
    cset = generate(ProblemSpec("commuting_family", dim=8, seed=93, family_size=3))
    basis = simultaneous_eigenbasis(cset)
    sel = selection_from_basis(basis, (1, 2))
    k_best = enumerate_model_spaces(sel)[0][0]
    dm = common_s(cset, (1, 2), k_best)
    for member in cset.members:
        assert decoupling_residual(member, dm) <= 1e-10


def test_common_s_rejects_model_space_of_another_size():
    cset = _a_a2_set()
    with pytest.raises(DimensionMismatch) as excinfo:
        common_s(cset, (1, 2), (1,))
    assert str(excinfo.value) == "selection is 2x2, model space wants 2x1"


def test_common_s_singular_projection():
    cset = verify_commuting([
        validate_hermitian(np.diag([1.0, 2.0])),
        validate_hermitian(np.diag([3.0, 4.0])),
    ])
    # the lowest joint eigenvector is e1 exactly; K={2} projects it to zero
    with pytest.raises(SingularProjection):
        common_s(cset, (1,), (2,))


def test_effective_set_hand():
    cset = _a_a2_set()
    dm = common_s(cset, (2,), (1,))
    pairs, report = effective_set(cset, dm)
    assert abs(pairs[0].first.matrix[0, 0] - 1.0) < 1e-12
    assert abs(pairs[1].first.matrix[0, 0] - 1.0) < 1e-12
    assert report.max_norm == 0.0
    assert report.preserved


def test_effective_set_diagonal_blocks():
    cset = verify_commuting([
        validate_hermitian(np.diag([1.0, 2.0, 3.0])),
        validate_hermitian(np.diag([6.0, 5.0, 4.0])),
    ])
    dm = common_s(cset, (1, 2), (1, 2))
    pairs, report = effective_set(cset, dm)
    assert np.allclose(pairs[0].first.matrix, np.diag([1.0, 2.0]), atol=1e-12)
    assert np.allclose(pairs[1].first.matrix, np.diag([6.0, 5.0]), atol=1e-12)
    assert report.max_norm == 0.0


def test_effective_set_random_triple():
    cset = generate(ProblemSpec("commuting_family", dim=9, seed=94, family_size=3))
    basis = simultaneous_eigenbasis(cset)
    sel = selection_from_basis(basis, (1, 2, 3))
    k_best = enumerate_model_spaces(sel)[0][0]
    dm = common_s(cset, (1, 2, 3), k_best)
    pairs, report = effective_set(cset, dm)
    assert report.max_norm <= 1e-9
    # shared projected eigenvectors diagonalize the whole effective set
    pv = basis.vectors[:, :3][dm.model_space.p_rows, :]
    for sig, pair in enumerate(pairs):
        dev = np.linalg.norm(pair.first.matrix @ pv - pv * basis.values[sig, :3])
        assert dev <= 1e-9 * (1 + cset.members[sig].norm)


def test_effective_set_reports_offending_member():
    cset = _a_a2_set()
    bad = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    with pytest.raises(NotDecoupled) as info:
        effective_set(cset, bad)
    assert info.value.member == 1
    assert info.value.residual == decoupling_residual(cset.members[0], bad)


def test_effective_set_names_the_member_in_its_message():
    cset = generate(ProblemSpec("commuting_family", dim=6, seed=91, family_size=2))
    zero = DecouplingMap(ModelSpace(6, (1, 2)), np.zeros((4, 2), dtype=complex))
    with pytest.raises(NotDecoupled) as info:
        effective_set(cset, zero)
    residual = decoupling_residual(cset.members[0], zero)
    assert residual > 0.0
    assert (info.value.member, info.value.residual) == (1, residual)
    assert str(info.value).startswith("member 1: decoupling residual")


def test_second_type_only_sigma_z_hand():
    cset = verify_commuting([SIGMA_X])
    dm = common_s(cset, (2,), (1,))
    rep = second_type(SIGMA_Z, dm)
    assert abs(rep.matrix[0, 0]) < 1e-12
    psi = np.array([INV_SQRT2, INV_SQRT2])
    assert matrix_element(psi, psi, rep) == pytest.approx(0.0, abs=1e-12)
    # outside the set: the map does not decouple sigma_z, so no first type
    with pytest.raises(NotDecoupled) as info:
        first_type(SIGMA_Z, dm)
    assert info.value.residual == decoupling_residual(SIGMA_Z, dm)


def test_second_type_only_identity_congruence():
    cset = verify_commuting([SIGMA_X])
    dm = common_s(cset, (2,), (1,))
    rep = second_type(validate_hermitian(np.eye(2)), dm)
    expected = 1.0 + abs(dm.s[0, 0]) ** 2
    assert rep.matrix[0, 0] == pytest.approx(expected, abs=1e-12)


def test_second_type_only_random_transition_block():
    cset = generate(ProblemSpec("commuting_family", dim=7, seed=95, family_size=2))
    basis = simultaneous_eigenbasis(cset)
    sel = selection_from_basis(basis, (1, 2, 3))
    k_best = enumerate_model_spaces(sel)[0][0]
    dm = common_s(cset, (1, 2, 3), k_best)
    outside = generate(ProblemSpec("random_hermitian", dim=7, seed=96))
    rep = second_type(outside, dm)
    assert rep.matrix.shape == (3, 3)
    rng = np.random.default_rng(97)
    for _ in range(4):
        chi = basis.vectors[:, :3] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        chi2 = basis.vectors[:, :3] @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        exact = complex(np.vdot(chi, outside.matrix @ chi2))
        assert abs(matrix_element(chi, chi2, rep) - exact) <= 1e-9 * (
            1 + abs(exact)
        )
    with pytest.raises(NotDecoupled) as info:
        first_type(outside, dm)
    assert info.value.residual == decoupling_residual(outside, dm)


def test_decompose_two_by_two_hand():
    cset = verify_commuting([SIGMA_X])
    decomposition = decompose_space(cset, [(2,), (1,)], [(1,), (1,)])
    s_blocks = [block.decoupling.s[0, 0] for block in decomposition.blocks]
    assert abs(s_blocks[0] - 1.0) < 1e-12
    assert abs(s_blocks[1] + 1.0) < 1e-12
    assert decomposition.complete


def test_decompose_diagonal_singletons():
    cset = verify_commuting([validate_hermitian(np.diag([1.0, 2.0, 3.0]))])
    decomposition = decompose_space(
        cset, [(1,), (2,), (3,)], [(1,), (2,), (3,)]
    )
    for block, expected in zip(decomposition.blocks, [1.0, 2.0, 3.0]):
        assert np.abs(block.decoupling.s).max() < 1e-12
        assert block.pairs[0].first.matrix[0, 0] == pytest.approx(expected)
    assert decomposition.complete


def test_decompose_nine_by_nine_pair():
    cset = generate(ProblemSpec("commuting_family", dim=9, seed=98, family_size=2))
    basis = simultaneous_eigenbasis(cset)
    parts = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    kparts = [
        enumerate_model_spaces(selection_from_basis(basis, block))[0][0]
        for block in parts
    ]
    decomposition = decompose_space(cset, parts, kparts)
    assert decomposition.complete
    for sig, member in enumerate(cset.members):
        approx = np.concatenate([
            np.linalg.eigvals(block.pairs[sig].first.matrix)
            for block in decomposition.blocks
        ])
        assert match_spectra(approx, np.linalg.eigvalsh(member.matrix), rtol=1e-9).matched
    # matrix elements across blocks are not reachable through one block's
    # second-type representative
    first_block = decomposition.blocks[0]
    rep = first_block.pairs[0].second
    other_vector = basis.vectors[:, 5]
    with pytest.raises(NotInSubspace):
        matrix_element(other_vector, other_vector, rep)


def test_decompose_names_the_block_of_a_singular_projection():
    cset = verify_commuting([validate_hermitian(np.diag([1.0, 2.0, 3.0, 4.0]))])
    with pytest.raises(SingularProjection) as info:
        decompose_space(cset, [(1, 2), (3, 4)], [(1, 2), (1, 2)])
    assert str(info.value).startswith("block 2 (J=(3, 4), K=(1, 2)): ")


@pytest.mark.parametrize("k, error, text", [
    ((3,), DimensionMismatch, "selection is 4x2, model space wants 4x1"),
    ((3, 9), IndexOutOfRange, "K index 9 outside 1..4"),
    ((3, 3), DuplicateIndex, "K contains repeated indices: (3, 3)"),
])
def test_decompose_names_the_block_of_every_error(k, error, text):
    cset = verify_commuting([validate_hermitian(np.diag([1.0, 2.0, 3.0, 4.0]))])
    with pytest.raises(error) as info:
        decompose_space(cset, [(1, 2), (3, 4)], [(1, 2), k])
    assert str(info.value) == f"block 2 (J=(3, 4), K={k}): {text}"


def test_decompose_partition_validation():
    cset = _a_a2_set()
    with pytest.raises(PartitionInvalid):
        decompose_space(cset, [(1,), (1,)], [(1,), (1,)])
    with pytest.raises(PartitionInvalid):
        decompose_space(cset, [(1,)], [(1,)])
    with pytest.raises(PartitionInvalid):
        decompose_space(cset, [(1,), (2,)], [(1,)])


def test_decompose_reports_singular_block():
    cset = verify_commuting([
        validate_hermitian(np.diag([1.0, 2.0])),
        validate_hermitian(np.diag([3.0, 4.0])),
    ])
    with pytest.raises(SingularProjection) as info:
        decompose_space(cset, [(1,), (2,)], [(2,), (2,)])
    assert "block 1" in str(info.value)


def _diagonal_pair():
    return verify_commuting([validate_hermitian(np.diag([1.0, 2.0, 3.0])),
                             validate_hermitian(np.diag([3.0, 1.0, 2.0]))])


def test_simultaneous_eigenbasis_reports_an_eigensolver_failure(monkeypatch):
    cset = _diagonal_pair()

    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(SolverFailure, match="^mixed-member eigensolver failed: "
                                            "Eigenvalues did not converge$"):
        simultaneous_eigenbasis(cset)


def test_simultaneous_eigenbasis_rejects_inaccurate_joint_eigenpairs(monkeypatch):
    cset = _diagonal_pair()
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], eigh(m)[1] + 1e-3))
    with pytest.raises(SolverFailure, match=r"^member 1: joint eigenpair residual \S+ above "):
        simultaneous_eigenbasis(cset)


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_simultaneous_eigenbasis_of_companions_at_every_scale(c):
    """The mix weighs each member by its inverse norm: at c = 1e6 the raw mix
    let a planted degenerate spectrum swamp its companions, and the joint
    eigenpairs of 18 of these 20 sets missed their tolerance. Each member's
    ties and gaps follow its own scale, so member 1's levels order the
    columns and the companions separate the tuples at every c."""
    planted = generate(ProblemSpec("planted_spectrum", dim=8, seed=1,
                                   spectrum=(1, 1, 1, 2, 2, 3, 3, 3)))
    obs = validate_hermitian(c * planted.matrix)
    for seed in range(20):
        family = commuting_partners(obs, 2, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = family.basis
        reference = commuting_partners(planted, 2, seed=seed).basis
        assert basis.distinct == reference.distinct
        assert np.allclose(basis.values[0], c * np.array([1, 1, 1, 2, 2, 3, 3, 3]),
                           rtol=1e-9, atol=0.0)

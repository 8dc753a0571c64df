import numpy as np
import pytest

from effop.effective import first_type, second_type
from effop.errors import (
    DimensionMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    MatrixFileError,
    NonFinite,
    SingularProjection,
    ValidationError,
)
from effop.harness import (
    ProblemSpec,
    generate,
    read_decoupling_map,
    run_verification,
    write_decoupling_map,
)
from effop.solver import solve_decoupling_fixed_point
from effop.spaces import (
    EigenSelection,
    ModelSpace,
    eigendecompose,
    enumerate_model_spaces,
    select_eigenvectors,
    validate_hermitian,
)
from effop.tolerances import decoupled_tolerance
from effop.transform import (
    DecouplingMap,
    Provenance,
    assemble_blocks,
    construct_s_direct,
    construct_s_from_span,
    decoupling_residual,
    exp_s,
    retrieve_full_vector,
    similarity_transform,
    transformed_blocks,
)
from effop.util import match_spectra

SIGMA_X = validate_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _plus_state_map():
    dec = eigendecompose(SIGMA_X)
    sel = select_eigenvectors(dec, (2,))
    return construct_s_direct(sel, ModelSpace(2, (1,)))


def test_construct_s_direct_hand():
    dm = _plus_state_map()
    assert abs(dm.s[0, 0] - 1.0) < 1e-12
    assert dm.provenance == Provenance((2,))


INVALID_J = [((), ValidationError), ((1, 1), DuplicateIndex), ((9,), IndexOutOfRange),
             ((0,), IndexOutOfRange), ((1, 2), DimensionMismatch)]


@pytest.mark.parametrize("j, error", INVALID_J)
def test_construct_s_from_span_rejects_an_invalid_j(j, error):
    """J must hold d distinct indices of 1..N, like a selection's."""
    with pytest.raises(error):
        construct_s_from_span(np.array([[1.0], [2.0], [3.0]]), ModelSpace(3, (1,)), indices=j)


@pytest.mark.parametrize("j", ["1,1", "9", "0", "1,2"])
def test_read_decoupling_map_rejects_an_invalid_j(tmp_path, j):
    path = tmp_path / "s.mat"
    path.write_text(f"# s-matrix rows=2 cols=1 K=1\n# J={j}\n2\n2 0\n3 0\n", encoding="utf-8")
    with pytest.raises(MatrixFileError, match="malformed J field"):
        read_decoupling_map(path)
    path.write_text(path.read_text().replace(f"J={j}", "J=3"), encoding="utf-8")
    assert read_decoupling_map(path).provenance == Provenance((3,))


def test_construct_s_direct_zero_when_aligned():
    obs = validate_hermitian(np.diag([1.0, 2.0]))
    sel = select_eigenvectors(eigendecompose(obs), (1,))
    dm = construct_s_direct(sel, ModelSpace(2, (1,)))
    assert abs(dm.s[0, 0]) < 1e-14


def test_construct_s_direct_singular_projection():
    vectors = np.array([[1.0], [0.0]], dtype=complex)
    sel = EigenSelection((1,), np.zeros(1), vectors)
    with pytest.raises(SingularProjection):
        construct_s_from_span(vectors, ModelSpace(2, (2,)))
    with pytest.raises(SingularProjection):
        construct_s_direct(sel, ModelSpace(2, (2,)))


def test_exp_s_hand_and_nilpotency():
    dm = _plus_state_map()
    assert np.allclose(exp_s(dm, -1), [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)
    product = exp_s(dm, 1) @ exp_s(dm, -1)
    assert np.array_equal(product, np.eye(2, dtype=complex))
    s_embedded = exp_s(dm, 1) - np.eye(2)
    assert not (s_embedded @ s_embedded).any()


def test_exp_s_zero_map_is_identity():
    ms = ModelSpace(3, (1, 2))
    dm = DecouplingMap(ms, np.zeros((1, 2), dtype=complex))
    assert np.array_equal(exp_s(dm, 1), np.eye(3, dtype=complex))
    assert np.array_equal(exp_s(dm, -1), np.eye(3, dtype=complex))


def test_exp_s_respects_unsorted_model_space():
    # K = {2}: the off-diagonal entry lands at row 1, column 2 (0-based 0, 1)
    ms = ModelSpace(2, (2,))
    dm = DecouplingMap(ms, np.array([[0.5 + 0j]]))
    e = exp_s(dm, 1)
    assert e[0, 1] == 0.5
    assert e[1, 0] == 0.0


def test_similarity_transform_hand():
    dm = _plus_state_map()
    transformed = similarity_transform(SIGMA_X, dm)
    assert np.allclose(transformed, [[1.0, 1.0], [0.0, -1.0]], atol=1e-12)
    # lower-left block is exactly the decoupling condition
    assert abs(transformed[1, 0]) < 1e-12


def test_similarity_transform_identity_for_zero_map():
    obs = generate(ProblemSpec("random_hermitian", dim=5, seed=9))
    ms = ModelSpace(5, (1, 2))
    dm = DecouplingMap(ms, np.zeros((3, 2), dtype=complex))
    assert np.allclose(similarity_transform(obs, dm), obs.matrix)


def test_similarity_preserves_spectrum_random():
    obs = generate(ProblemSpec("random_hermitian", dim=6, seed=21))
    rng = np.random.default_rng(8)
    ms = ModelSpace(6, (1, 3, 5))
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    dm = DecouplingMap(ms, s)
    transformed = similarity_transform(obs, dm)
    exact = np.linalg.eigvalsh(obs.matrix)
    assert match_spectra(np.linalg.eigvals(transformed), exact, rtol=1e-9).matched


def test_transformed_blocks_hand():
    dm = _plus_state_map()
    blocks = transformed_blocks(SIGMA_X, dm)
    assert abs(blocks.pp[0, 0] - 1.0) < 1e-12
    assert abs(blocks.pq[0, 0] - 1.0) < 1e-12
    assert abs(blocks.qp[0, 0]) < 1e-12
    assert abs(blocks.qq[0, 0] + 1.0) < 1e-12


def test_transformed_blocks_diagonal_zero_map():
    obs = validate_hermitian(np.diag([1.0, 2.0]))
    dm = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    blocks = transformed_blocks(obs, dm)
    assert blocks.pp[0, 0] == 1.0
    assert blocks.pq[0, 0] == 0.0
    assert blocks.qp[0, 0] == 0.0
    assert blocks.qq[0, 0] == 2.0


def test_transformed_blocks_quadratic_root_decouples():
    # truncated root of -0.1 s^2 + 2 s + 0.1 = 0 pushes |qp| below 1e-6
    obs = validate_hermitian(np.array([[1.0, 0.1], [0.1, 3.0]]))
    dm = DecouplingMap(ModelSpace(2, (1,)), np.array([[-0.0498756 + 0j]]))
    blocks = transformed_blocks(obs, dm)
    assert abs(blocks.qp[0, 0]) < 1e-6


def test_blocks_assemble_to_dense_transform():
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=30))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (2, 4, 7))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(8, k_best)
    dm = construct_s_direct(sel, ms)
    dense = similarity_transform(obs, dm)
    rebuilt = assemble_blocks(transformed_blocks(obs, dm))
    assert np.linalg.norm(rebuilt - dense) <= 1e-12 * obs.norm


def test_decoupling_residual_hand_values():
    assert decoupling_residual(SIGMA_X, _plus_state_map()) < 1e-12
    zero_map = DecouplingMap(ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex))
    assert decoupling_residual(SIGMA_X, zero_map) == pytest.approx(1.0)
    assert decoupling_residual(SIGMA_X, zero_map) > decoupled_tolerance(SIGMA_X)


def test_decoupling_residual_direct_small():
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=31))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (1, 5, 8))
    k_best = enumerate_model_spaces(sel)[0][0]
    dm = construct_s_direct(sel, ModelSpace(8, k_best))
    assert decoupling_residual(obs, dm) <= 1e-10
    assert decoupling_residual(obs, dm) <= decoupled_tolerance(obs)


def test_basis_change_invariance():
    obs = generate(ProblemSpec("random_hermitian", dim=7, seed=40))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (2, 3, 6))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(7, k_best)
    dm = construct_s_direct(sel, ms)
    rng = np.random.default_rng(41)
    for _ in range(10):
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        remixed = construct_s_from_span(sel.vectors @ mix, ms)
        assert np.linalg.norm(remixed.s - dm.s) <= 1e-10


def test_eigenvector_construction_implies_decoupling():
    # eigenvector construction implies decoupling plus the effective
    # eigenvalue relation on the projected vectors
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=50))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (1, 2, 3))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(8, k_best)
    dm = construct_s_direct(sel, ms)
    assert decoupling_residual(obs, dm) <= decoupled_tolerance(obs)
    blocks = transformed_blocks(obs, dm)
    pv = sel.vectors[ms.p_rows, :]
    assert np.linalg.norm(blocks.pp @ pv - pv * sel.values) <= 1e-9 * (1 + obs.norm)


def test_decoupling_map_matches_exactly_d_eigenvectors():
    # any decoupling map matches exactly d exact eigenvectors when the
    # spectrum is distinct, enumerated over all N of them
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=51))
    dec = eigendecompose(obs)
    assert np.diff(dec.values).min() > 1e-6
    sel = select_eigenvectors(dec, (2, 5, 7))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(8, k_best)
    dm = construct_s_direct(sel, ms)
    hits = [
        i + 1
        for i in range(8)
        if np.linalg.norm(dm.s @ dec.vectors[ms.p_rows, i] - dec.vectors[ms.q_rows, i]) <= 1e-7
    ]
    assert hits == [2, 5, 7]


def test_fixed_points_exact():
    obs = generate(ProblemSpec("random_hermitian", dim=6, seed=60))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (1, 4))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(6, k_best)
    dm = construct_s_direct(sel, ms)
    rng = np.random.default_rng(61)
    psi = np.zeros(6, dtype=complex)
    psi[ms.q_rows] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(exp_s(dm, -1) @ psi, psi)


def test_non_membership_keeps_complement_components():
    obs = generate(ProblemSpec("random_hermitian", dim=6, seed=62))
    dec = eigendecompose(obs)
    sel = select_eigenvectors(dec, (1, 4))
    k_best = enumerate_model_spaces(sel)[0][0]
    ms = ModelSpace(6, k_best)
    dm = construct_s_direct(sel, ms)
    rng = np.random.default_rng(63)
    for _ in range(5):
        phi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.linalg.norm((exp_s(dm, -1) @ phi)[ms.q_rows]) > 1e-8


def test_full_model_space_degenerate_case():
    obs = validate_hermitian(np.diag([1.0, 2.0]))
    sel = select_eigenvectors(eigendecompose(obs), (1, 2))
    ms = ModelSpace(2, (1, 2))
    dm = construct_s_direct(sel, ms)
    assert dm.s.shape == (0, 2)
    assert np.allclose(similarity_transform(obs, dm), obs.matrix)
    assert decoupling_residual(obs, dm) == 0.0


def test_dimension_mismatches():
    dm = _plus_state_map()
    other = generate(ProblemSpec("random_hermitian", dim=3, seed=1))
    with pytest.raises(DimensionMismatch):
        similarity_transform(other, dm)
    with pytest.raises(DimensionMismatch):
        DecouplingMap(ModelSpace(3, (1,)), np.zeros((1, 1), dtype=complex))


@pytest.mark.parametrize("n", [2, 7])
def test_full_model_space_end_to_end(n, tmp_path):
    """d = N: the complement is empty, s is 0 x N, and every route leaves
    the observable and its vectors as they are."""
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=n))
    ms = ModelSpace(n, tuple(range(1, n + 1)))
    dm = construct_s_direct(select_eigenvectors(eigendecompose(obs), ms.indices), ms)
    assert dm.s.shape == (0, n) and not dm.s.flags.writeable
    write_decoupling_map(tmp_path / "s.mat", dm)
    assert read_decoupling_map(tmp_path / "s.mat").s.shape == (0, n)
    for sign in (1, -1):
        assert np.array_equal(exp_s(dm, sign), np.eye(n))
    alpha = np.arange(n) + 1j
    assert np.array_equal(retrieve_full_vector(alpha, dm), alpha)
    for build in (first_type, second_type):
        op = build(obs, dm)
        assert np.array_equal(op.matrix, obs.matrix) and op.residual == 0.0
    iterated, trace = solve_decoupling_fixed_point(obs, ms)
    assert iterated.s.shape == (0, n) and trace.converged
    report = run_verification(obs, d=n, trials=3, seed=1)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def _random_map(n=7, k=(2, 5, 6), seed=70):
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=seed))
    sel = select_eigenvectors(eigendecompose(obs), (1, 3, 4))
    return construct_s_direct(sel, ModelSpace(n, k))


def test_frame_is_the_read_only_model_columns_of_exp_s():
    dm = _random_map()
    frame = dm.frame
    assert frame is dm.frame
    assert not frame.flags.writeable
    assert frame.shape == (7, 3) and frame.dtype == np.complex128
    assert frame.tobytes() == exp_s(dm, 1)[:, dm.model_space.p_rows].tobytes()


def test_retrieve_full_vector_is_alpha_and_s_alpha():
    dm = _random_map()
    ms = dm.model_space
    rng = np.random.default_rng(71)
    alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    full = retrieve_full_vector(alpha, dm)
    assert np.array_equal(full[ms.p_rows], alpha)
    assert np.array_equal(full[ms.q_rows], dm.s @ alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_construct_s_from_span_rejects_a_non_finite_span(bad):
    with pytest.raises(NonFinite):
        construct_s_from_span(np.full((6, 2), bad), ModelSpace(6, (1, 2)))
    span = np.eye(6, 2, dtype=complex)
    span[4, 1] = bad  # a complement row: the model block alone is fine
    with pytest.raises(NonFinite):
        construct_s_from_span(span, ModelSpace(6, (1, 2)))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_decoupling_map_rejects_non_finite_data(tmp_path, bad):
    path = tmp_path / "bad.s"
    path.write_text(f"# s-matrix rows=1 cols=1 K=1\n1\n{bad} 0\n", encoding="utf-8")
    with pytest.raises(MatrixFileError, match="NaN or Inf") as excinfo:
        read_decoupling_map(path)
    assert str(path) in str(excinfo.value)


def test_a_map_keeps_its_own_read_only_s():
    ms = ModelSpace(3, (2,))
    s = np.zeros((2, 1), dtype=complex)
    dm = DecouplingMap(ms, s)
    frame = dm.frame
    s[0, 0] = 5.0  # a later write to the caller's array reaches neither s nor the frame
    assert not dm.s.flags.writeable and dm.s[0, 0] == 0.0
    assert np.array_equal(retrieve_full_vector([1.0], dm), frame[:, 0])
    assert np.array_equal(frame, exp_s(dm, 1)[:, ms.p_rows])

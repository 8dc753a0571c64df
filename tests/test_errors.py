"""Each documented input check raises its typed error."""

import numpy as np
import pytest

from effop import effective, observables, solver, spaces, transform, util
from effop.errors import (
    DimensionMismatch,
    MatrixFileError,
    MaxIterExceeded,
    NonFinite,
    NotAnEigenvector,
    NotCommuting,
    NotDecoupled,
    SingularProjection,
    ValidationError,
)
from effop.harness import matio, run_verification
from effop.harness.generate import ProblemSpec, commuting_partners, gap_separated
from effop.spaces import EigenSelection, ModelSpace, validate_hermitian

OBS = validate_hermitian(np.diag([1.0, 2.0, 3.0]))
DM = transform.DecouplingMap(ModelSpace(3, (1,)), np.zeros((2, 1), dtype=complex))
FIRST = effective.first_type(OBS, DM)
FIRST_ON_TWO = effective.first_type(validate_hermitian(np.eye(2)), transform.DecouplingMap(
    ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex)))
FIRST_ON_K2 = effective.first_type(OBS, transform.DecouplingMap(
    ModelSpace(3, (2,)), np.zeros((2, 1), dtype=complex)))
SELECTION = spaces.select_eigenvectors(spaces.eigendecompose(OBS), (1,))
CSET = observables.verify_commuting([OBS])


def _decomposition(vectors):
    vectors = np.asarray(vectors, dtype=complex)
    return EigenSelection(tuple(range(1, vectors.shape[1] + 1)),
                          np.arange(vectors.shape[1], dtype=float), vectors)


def _file(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    return path


CASES = {
    "classify wrong length": (
        DimensionMismatch, "vector has 2 entries",
        lambda tmp: effective.classify_eigenvector(OBS, DM, np.ones(2), 1.0)),
    "classify zero vector": (
        NotAnEigenvector, "zero vector",
        lambda tmp: effective.classify_eigenvector(OBS, DM, np.zeros(3), 1.0)),
    "overlap shape": (
        DimensionMismatch, "disagree on dimensions",
        lambda tmp: effective.overlap_matrix(SELECTION, ModelSpace(4, (1,)))),
    "expansion shape": (
        DimensionMismatch, "chi has 2 entries",
        lambda tmp: effective.expansion_coefficients(
            np.ones(2), effective.overlap_matrix(SELECTION, DM.model_space))),
    "expectation_first_type shape": (
        DimensionMismatch, "alpha has 2 entries",
        lambda tmp: effective.expectation_first_type(FIRST, np.ones(2))),
    "equivalence total dims": (
        DimensionMismatch, "different spaces",
        lambda tmp: effective.equivalence_transform(FIRST, FIRST_ON_TWO)),
    "equivalence cap": (
        SingularProjection, r"rows K=\(2,\) of op's frame \[I; s\] have condition inf",
        lambda tmp: effective.equivalence_transform(FIRST, FIRST_ON_K2)),
    "verify_commuting empty": (
        ValidationError, "at least one member",
        lambda tmp: observables.verify_commuting([])),
    "SolverConfig tol": (
        ValidationError, "tol must be positive",
        lambda tmp: solver.SolverConfig(tol=0.0)),
    "SolverConfig max_iter": (
        ValidationError, "max_iter must be at least 1",
        lambda tmp: solver.SolverConfig(max_iter=0)),
    "ModelSpace empty": (
        DimensionMismatch, "total_dim must be positive",
        lambda tmp: ModelSpace(0, ())),
    "select non-unit": (
        ValidationError, "not unit norm",
        lambda tmp: spaces.select_eigenvectors(_decomposition([[2.0, 0.0], [0.0, 1.0]]), (1, 2))),
    "select dependent": (
        ValidationError, "numerically dependent",
        lambda tmp: spaces.select_eigenvectors(_decomposition([[1.0, 1.0], [0.0, 0.0]]), (1, 2))),
    "pivoted shape": (
        DimensionMismatch, "between 1 and N",
        lambda tmp: spaces.pivoted_model_space(np.ones((2, 3)))),
    "solver shape": (
        DimensionMismatch, "observable dim 3 != model space total 4",
        lambda tmp: solver.solve_decoupling_fixed_point(OBS, ModelSpace(4, (4,)))),
    "solver shape, K=1": (
        DimensionMismatch, "observable dim 3 != model space total 4",
        lambda tmp: solver.solve_decoupling_fixed_point(OBS, ModelSpace(4, (1,)))),
    "reduction shape": (
        DimensionMismatch, "observable dim 3 != model space total 4",
        lambda tmp: transform.transformed_blocks(OBS, transform.DecouplingMap(
            ModelSpace(4, (1,)), np.zeros((3, 1))))),
    "span shape": (
        DimensionMismatch, "span has shape",
        lambda tmp: transform.construct_s_from_span(np.ones((3, 2)), DM.model_space)),
    "exp_s sign": (
        ValidationError, "sign must be",
        lambda tmp: transform.exp_s(DM, 2)),
    "as_complex_matrix shape": (
        DimensionMismatch, "must be 2-D",
        lambda tmp: util.as_complex_matrix(np.ones(3))),
    "as_complex_vector shape": (
        DimensionMismatch, "must be 1-D",
        lambda tmp: util.as_complex_vector(np.ones((2, 2)))),
    "retrieve 2-D alpha": (
        DimensionMismatch, r"alpha must be 1-D, got shape \(1, 1\)",
        lambda tmp: transform.retrieve_full_vector(np.ones((1, 1)), DM)),
    "write_matrix 1-D": (
        DimensionMismatch, "only write 2-D",
        lambda tmp: matio.write_matrix(tmp / "m.txt", np.ones(3))),
    "read_observable non-square": (
        MatrixFileError, "must be square",
        lambda tmp: matio.read_observable(_file(tmp, "1\n1 0 0 0\n"))),
    "s-matrix header": (
        MatrixFileError, "malformed s-matrix header",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=1 cols=1 K=x\n1\n0 0\n"))),
    "J field": (
        MatrixFileError, "malformed J field",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=1 cols=1 K=1\n# J=1,x\n1\n0 0\n"))),
    "iterations field": (
        MatrixFileError, r"m\.txt: malformed iterations field in 'iterations=2\.5'",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=1 cols=1 K=1\n# iterations=2.5\n1\n0 0\n"))),
    "residual field": (
        MatrixFileError, r"m\.txt: malformed residual field in 'J=1 residual=1e-3x'",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=1 cols=1 K=1\n# J=1 residual=1e-3x\n1\n0 0\n"))),
    "s-matrix K out of range": (
        MatrixFileError, r"m\.txt: malformed s-matrix header .*K index 9 outside 1\.\.3",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=2 cols=1 K=9\n2\n0 0\n0 0\n"))),
    "s-matrix K repeated": (
        MatrixFileError, r"m\.txt: malformed s-matrix header .*repeated indices",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=1 cols=2 K=1,1\n1\n0 0 0 0\n"))),
    "s-matrix K not increasing": (
        MatrixFileError, r"m\.txt: malformed s-matrix header .*strictly increasing",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=1 cols=2 K=2,1\n1\n0 0 0 0\n"))),
    "s-matrix K length": (
        MatrixFileError, r"m\.txt: malformed s-matrix header .*K has 2 indices, cols=1",
        lambda tmp: matio.read_decoupling_map(
            _file(tmp, "# s-matrix rows=2 cols=1 K=1,2\n2\n0 0\n0 0\n"))),
    "run_verification d": (
        ValidationError, "d must lie",
        lambda tmp: run_verification(OBS, d=4)),
    "run_verification trials": (
        ValidationError, "trials must be positive",
        lambda tmp: run_verification(OBS, trials=0)),
    "run_verification seed": (
        ValidationError, "seed must be non-negative",
        lambda tmp: run_verification(OBS, seed=-1)),
    # index sets hold integers; nothing is truncated or passed on to numpy
    "ModelSpace float K": (
        ValidationError, r"K must be a sequence of integers, got \(1\.9, 3\)",
        lambda tmp: ModelSpace(4, (1.9, 3))),
    "ModelSpace string K": (
        ValidationError, r"K must be a sequence of integers, got \('x',\)",
        lambda tmp: ModelSpace(4, ("x",))),
    "ModelSpace nested K": (
        ValidationError, r"K must be a sequence of integers, got \[\[1, 2\]\]",
        lambda tmp: ModelSpace(4, [[1, 2]])),
    "ModelSpace scalar K": (
        ValidationError, r"K must be a sequence of integers, got 3$",
        lambda tmp: ModelSpace(4, 3)),
    "select float J": (
        ValidationError, r"J must be a sequence of integers, got \(2\.5,\)",
        lambda tmp: spaces.select_eigenvectors(spaces.eigendecompose(OBS), (2.5,))),
    "common_s float K": (
        ValidationError, r"K must be a sequence of integers, got \(1\.5,\)",
        lambda tmp: observables.common_s(CSET, (1,), (1.5,))),
    "decompose float block": (
        ValidationError, r"partition block must be a sequence of integers, got \(1\.5,\)",
        lambda tmp: observables.decompose_space(CSET, [(1.5,), (2,), (3,)], [(1,), (2,), (3,)])),
    "decompose float model space": (
        ValidationError, r"model space must be a sequence of integers, got \(1\.9,\)",
        lambda tmp: observables.decompose_space(CSET, [(1,), (2,), (3,)], [(1.9,), (2,), (3,)])),
    # integer parameters likewise
    "SolverConfig float max_iter": (
        ValidationError, r"max_iter must be an integer, got 2\.5",
        lambda tmp: solver.SolverConfig(max_iter=2.5)),
    "SolverConfig bool max_iter": (
        ValidationError, "max_iter must be an integer, got True",
        lambda tmp: solver.SolverConfig(max_iter=True)),
    "run_verification float d": (
        ValidationError, r"d must be an integer, got 2\.5",
        lambda tmp: run_verification(OBS, d=2.5)),
    "run_verification float trials": (
        ValidationError, r"trials must be an integer, got 2\.5",
        lambda tmp: run_verification(OBS, trials=2.5)),
    "run_verification float seed": (
        ValidationError, r"seed must be an integer, got 1\.5",
        lambda tmp: run_verification(OBS, seed=1.5)),
    "ProblemSpec float dim": (
        ValidationError, r"dim must be an integer, got 2\.5",
        lambda tmp: ProblemSpec("random_hermitian", 2.5, 1)),
    "ProblemSpec float seed": (
        ValidationError, r"seed must be an integer, got 1\.5",
        lambda tmp: ProblemSpec("random_hermitian", 3, 1.5)),
    "ProblemSpec float family_size": (
        ValidationError, r"family_size must be an integer, got 2\.0",
        lambda tmp: ProblemSpec("commuting_family", 3, 1, family_size=2.0)),
    "gap_separated float d": (
        ValidationError, r"d must be an integer, got 1\.5",
        lambda tmp: gap_separated(6, 1.5)),
    "gap_separated float dim": (
        ValidationError, r"dim must be an integer, got 6\.5",
        lambda tmp: gap_separated(6.5, 2)),
    "gap_separated float seed": (
        ValidationError, r"seed must be an integer, got 0\.5",
        lambda tmp: gap_separated(6, 2, seed=0.5)),
    "commuting_partners float count": (
        ValidationError, r"count must be an integer, got 1\.5",
        lambda tmp: commuting_partners(OBS, 1.5)),
    # array arguments: the rank, then the shape or length, each in one form
    "DecouplingMap list s shape": (
        DimensionMismatch, r"s has shape \(1, 2\), expected \(2, 1\)",
        lambda tmp: transform.DecouplingMap(DM.model_space, [[0.0, 0.0]])),
    "DecouplingMap 1-D s": (
        DimensionMismatch, "s must be 2-D, got ndim=1",
        lambda tmp: transform.DecouplingMap(DM.model_space, [0.0, 0.0])),
    "solver initial_s shape": (
        DimensionMismatch, r"initial_s has shape \(1, 2\), expected \(2, 1\)",
        lambda tmp: solver.solve_decoupling_fixed_point(
            OBS, DM.model_space, solver.SolverConfig(initial_s=[[0.0, 0.0]]))),
    "matrix_element short block": (
        DimensionMismatch, r"psi has shape \(2, 2\), expected \(3, 2\)",
        lambda tmp: effective.matrix_element(np.ones((2, 2)), np.ones((3, 1)), FIRST)),
    "matrix_element long block": (
        DimensionMismatch, r"psi has shape \(4, 1\), expected \(3, 1\)",
        lambda tmp: effective.matrix_element(np.ones((4, 1)), np.ones(3), FIRST)),
    "retrieve alpha length": (
        DimensionMismatch, "alpha has 2 entries, expected 1",
        lambda tmp: transform.retrieve_full_vector([1.0, 0.0], DM)),
    "expectation_first_type nan": (
        NonFinite, "alpha contains NaN or Inf",
        lambda tmp: effective.expectation_first_type(FIRST, [np.nan])),
    "expectation_first_type inf": (
        NonFinite, "alpha contains NaN or Inf",
        lambda tmp: effective.expectation_first_type(FIRST, [np.inf])),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_raises_its_type(case, tmp_path):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    assert type(info.value) is error


def test_array_likes_enter_like_arrays():
    s = [[0.5], [-0.25j]]
    from_list = transform.DecouplingMap(DM.model_space, s)
    from_array = transform.DecouplingMap(DM.model_space, np.array(s))
    assert from_list.s.tobytes() == from_array.s.tobytes()
    assert from_list.frame.tobytes() == from_array.frame.tobytes()
    assert not from_list.s.flags.writeable
    frozen = from_array.s
    assert transform.DecouplingMap(DM.model_space, frozen).s is frozen


def test_numpy_integers_are_accepted():
    ms = ModelSpace(np.int64(4), np.array([1, 3]))
    assert ms.indices == (1, 3) and ms.total_dim == 4
    assert all(type(i) is int for i in (ms.total_dim, *ms.indices))
    selection = spaces.select_eigenvectors(spaces.eigendecompose(OBS), (np.int32(2),))
    assert selection.indices == (2,) and type(selection.indices[0]) is int
    assert solver.SolverConfig(max_iter=np.int64(3)).max_iter == 3


def test_typed_errors_keep_keyword_diagnostics():
    error = NotDecoupled("m", member=2, residual=1.0)
    assert (str(error), error.member, error.residual) == ("m", 2, 1.0)
    error = NotCommuting("c", pair=(1, 2), norm=0.5)
    assert (error.pair, error.norm) == ((1, 2), 0.5)
    # a diagnostic not given reads None
    assert NotDecoupled("m").member is None
    assert NotCommuting("c").pair is None
    error = MaxIterExceeded("budget", residual=3.0)
    assert (error.best, error.residual, error.trace) == (None, 3.0, None)
    with pytest.raises(ValidationError) as info:
        raise ValidationError
    assert info.value.args == ()

"""Each documented input check raises its typed error."""

import numpy as np
import pytest

from effop import effective, observables, solver, spaces, transform, util
from effop.errors import (
    DimensionMismatch,
    MatrixFileError,
    NotAnEigenvector,
    SingularProjection,
    ValidationError,
)
from effop.harness import matio, run_verification
from effop.spaces import Eigendecomposition, EigenSelection, ModelSpace, validate_hermitian

OBS = validate_hermitian(np.diag([1.0, 2.0, 3.0]))
DM = transform.DecouplingMap(ModelSpace(3, (1,)), np.zeros((2, 1), dtype=complex))
FIRST = effective.first_type(OBS, DM)
FIRST_ON_TWO = effective.first_type(validate_hermitian(np.eye(2)), transform.DecouplingMap(
    ModelSpace(2, (1,)), np.zeros((1, 1), dtype=complex)))
SELECTION = spaces.select_eigenvectors(spaces.eigendecompose(OBS), (1,))


def _selection(vectors):
    vectors = np.asarray(vectors, dtype=complex)
    return EigenSelection(None, tuple(range(1, vectors.shape[1] + 1)),
                          np.zeros(vectors.shape[1]), vectors)


def _decomposition(vectors):
    vectors = np.asarray(vectors, dtype=complex)
    return Eigendecomposition(np.arange(vectors.shape[1], dtype=float), vectors, None)


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
        lambda tmp: effective.equivalence_transform(FIRST, FIRST_ON_TWO, SELECTION)),
    "equivalence selection dims": (
        DimensionMismatch, "selection does not match",
        lambda tmp: effective.equivalence_transform(FIRST, FIRST, _selection(np.eye(3)[:, :2]))),
    "equivalence cap": (
        SingularProjection, "first model-space components have condition inf",
        lambda tmp: effective.equivalence_transform(FIRST, FIRST, _selection([[0], [1], [0]]))),
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
    "partition shape": (
        DimensionMismatch, "observable dim 3 != model space total 4",
        lambda tmp: transform.partition_blocks(OBS, ModelSpace(4, (1,)))),
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
    "run_verification d": (
        ValidationError, "d must lie",
        lambda tmp: run_verification(OBS, d=4)),
    "run_verification trials": (
        ValidationError, "trials must be positive",
        lambda tmp: run_verification(OBS, trials=0)),
    "run_verification seed": (
        ValidationError, "seed must be non-negative",
        lambda tmp: run_verification(OBS, seed=-1)),
}


@pytest.mark.parametrize("case", CASES)
def test_input_check_raises_its_type(case, tmp_path):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    assert type(info.value) is error

"""Peak memory of matrix file I/O, Hermitian validation, the eigensolvers
and the block reduction, in units of the matrix's own bytes. tracemalloc sees numpy's
buffers, so each bound counts every N x N temporary a step makes beyond
its result."""

import tracemalloc

import pytest

from effop.effective import first_type, second_type
from effop.harness import ProblemSpec, generate, read_matrix, write_observable
from effop.observables import simultaneous_eigenbasis
from effop.spaces import (
    ModelSpace,
    eigendecompose,
    pivoted_model_space,
    select_eigenvectors,
    validate_hermitian,
)
from effop.transform import construct_s_direct, transformed_blocks

N = 200


def _peak_ratio(step, nbytes: int):
    """``step()``'s result and its peak traced allocation over ``nbytes``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = step()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak / nbytes


@pytest.fixture(scope="module")
def observable():
    return generate(ProblemSpec("random_hermitian", dim=N, seed=21))


def test_write_observable_streams_rows(tmp_path, observable):
    _, ratio = _peak_ratio(lambda: write_observable(tmp_path / "m.mat", observable),
                           observable.matrix.nbytes)
    assert ratio <= 0.25


def test_read_matrix_holds_little_beyond_its_result(tmp_path, observable):
    path = tmp_path / "m.mat"
    write_observable(path, observable)
    (matrix, _), ratio = _peak_ratio(lambda: read_matrix(path), observable.matrix.nbytes)
    assert matrix.tobytes() == observable.matrix.tobytes()
    assert ratio <= 1.5


def test_validate_hermitian_of_a_read_matrix(tmp_path, observable):
    path = tmp_path / "m.mat"
    write_observable(path, observable)
    matrix, _ = read_matrix(path)
    obs, ratio = _peak_ratio(lambda: validate_hermitian(matrix), matrix.nbytes)
    assert obs.matrix.tobytes() == observable.matrix.tobytes()
    assert ratio <= 3.0


def test_eigendecompose_holds_its_vectors_and_one_product(observable):
    """Phases are rotated in place and the residual is taken in column blocks
    of O V, so beyond the vectors the check holds one N x N product."""
    obs = validate_hermitian(observable.matrix)  # nothing cached yet
    _, ratio = _peak_ratio(lambda: eigendecompose(obs), obs.matrix.nbytes)
    assert ratio <= 2.3


def test_simultaneous_eigenbasis_checks_members_in_column_blocks():
    """Each member's values and residual come from column blocks of its
    O V, and the tuple gaps are taken member by member."""
    cset = generate(ProblemSpec("commuting_family", dim=N, seed=21, family_size=3))
    _, ratio = _peak_ratio(lambda: simultaneous_eigenbasis(cset), cset.members[0].matrix.nbytes)
    assert ratio <= 4.0


@pytest.mark.parametrize("step", [
    lambda obs, dm: transformed_blocks(obs, dm).residual,
    lambda obs, dm: first_type(obs, dm),
    lambda obs, dm: second_type(obs, dm),
], ids=["residual", "first_type", "second_type"])
def test_reduction_gathers_no_copy_of_the_matrix(observable, step):
    """One reduction reads its blocks off the (N, d) product O [I; s]."""
    selection = select_eigenvectors(eigendecompose(observable), (1, 2, 3, 4))
    dm = construct_s_direct(selection, ModelSpace(N, pivoted_model_space(selection)))
    _ = observable.norm, dm.frame  # cached on first access, before the measured step
    _, ratio = _peak_ratio(lambda: step(observable, dm), observable.matrix.nbytes)
    assert ratio <= 0.25

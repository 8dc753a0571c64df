"""Peak memory of matrix file I/O and Hermitian validation, in units of
the matrix's own bytes. tracemalloc sees numpy's buffers, so each bound
counts every N x N temporary a step makes beyond its result."""

import tracemalloc

import pytest

from effop.harness import ProblemSpec, generate, read_matrix, write_observable
from effop.spaces import validate_hermitian

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

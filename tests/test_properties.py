"""Property tests for the invariants the fixed examples only sample.

Examples are drawn deterministically (``derandomize=True``), so every
run checks the same bounded set of problems.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effop.effective import first_type
from effop.harness.generate import ProblemSpec, generate
from effop.spaces import (
    ModelSpace,
    _degenerate_clusters,
    eigendecompose,
    pivoted_model_space,
    select_eigenvectors,
    validate_hermitian,
)
from effop.transform import construct_s_direct, construct_s_from_span

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def problems(draw):
    """A random Hermitian N x N observable, a selection J of d of its
    eigenvectors and the pivoted model space K, with 2 <= N <= 12 and
    1 <= d <= N - 1; ``rng`` seeds any further randomness."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, n - 1))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    obs = generate(ProblemSpec("random_hermitian", n, seed))
    j = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=d, replace=False)))
    selection = select_eigenvectors(eigendecompose(obs), j)
    return obs, selection, ModelSpace(n, pivoted_model_space(selection)), rng


@PROPERTY_SETTINGS
@given(problems())
def test_map_depends_only_on_the_span(problem):
    obs, selection, ms, rng = problem
    d = selection.dim
    mixer = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assume(np.linalg.cond(mixer) <= 1e3)
    reference = construct_s_from_span(selection.vectors, ms)
    mixed = construct_s_from_span(selection.vectors @ mixer, ms)
    assert np.linalg.norm(mixed.s - reference.s) <= 1e-10 * (1.0 + np.linalg.norm(reference.s))


@PROPERTY_SETTINGS
@given(problems())
def test_first_type_spectrum_invariant_under_joint_permutation(problem):
    obs, selection, ms, rng = problem
    n = obs.dim
    perm = rng.permutation(n)  # new axis perm[i] holds old axis i
    permuted = np.empty_like(obs.matrix)
    permuted[np.ix_(perm, perm)] = obs.matrix
    obs_p = validate_hermitian(permuted)
    ms_p = ModelSpace(n, tuple(sorted(int(perm[k - 1]) + 1 for k in ms.indices)))
    sel_p = select_eigenvectors(eigendecompose(obs_p), selection.indices)

    before = np.linalg.eigvals(first_type(obs, construct_s_direct(selection, ms)).matrix)
    after = np.linalg.eigvals(first_type(obs_p, construct_s_direct(sel_p, ms_p)).matrix)
    tol = 1e-9 * (1.0 + obs.norm)
    assert np.abs(np.sort_complex(before) - np.sort_complex(after)).max() <= tol
    assert np.abs(np.sort(before.real) - selection.values).max() <= tol


def _clusters_by_scan(values, rtol):
    """Reference: the element-by-element scan over ascending values."""
    tie = rtol * (1.0 + float(np.abs(values).max()))
    bounds, start, n = [], 0, len(values)
    while start < n:
        stop = start + 1
        while stop < n and values[stop] - values[stop - 1] <= tie:
            stop += 1
        if stop - start > 1:
            bounds.append((start, stop))
        start = stop
    return bounds


@PROPERTY_SETTINGS
@given(st.lists(st.sampled_from([-1.0, 0.0, 1e-11, 2e-10, 0.5, 1.0, 1.0 + 1e-9]),
                min_size=1, max_size=12),
       st.sampled_from([1e-10, 1e-8]))
def test_degenerate_clusters_match_scan(values, rtol):
    ordered = np.sort(np.asarray(values))
    assert _degenerate_clusters(ordered, rtol) == _clusters_by_scan(ordered, rtol)

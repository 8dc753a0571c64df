"""Property tests for the invariants the fixed examples only sample.

Examples are drawn deterministically (``derandomize=True``), so every
run checks the same bounded set of problems.
"""

from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effop.effective import (
    EffectiveOperator,
    _effective_pair,
    _factorization,
    first_type,
    matrix_element,
    q_block_and_factorization,
    second_type,
)
from effop.errors import NotDecoupled, NotInSubspace
from effop.harness.generate import (
    ProblemSpec,
    commuting_partners,
    gap_separated,
    generate,
    haar_unitary,
)
from effop.harness.verify import _spectrum_enclosed, run_verification
from effop.harness.matio import (
    read_decoupling_map,
    read_matrix,
    read_observable,
    write_decoupling_map,
    write_effective,
    write_observable,
)
from effop.observables import effective_set, simultaneous_eigenbasis, verify_commuting
from effop.spaces import (
    ModelSpace,
    _degenerate_clusters,
    eigendecompose,
    pivoted_model_space,
    select_eigenvectors,
    validate_hermitian,
)
from effop.tolerances import CLUSTER_RTOL, eigenpair_tolerance
from effop.transform import (
    DecouplingMap,
    Provenance,
    construct_s_direct,
    construct_s_from_span,
    exp_s,
    similarity_transform,
    transformed_blocks,
)
from effop.util import match_spectra

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
    """Reference: the element-by-element scan over ascending values, with
    ties relative to their spectral radius."""
    tie = rtol * float(np.abs(values).max())
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


def _reference_text(matrix, comments) -> str:
    """The matrix file layout, formatted one '{:.17g}' call per float."""
    lines = [f"# {c}" for c in comments] + [str(matrix.shape[0])]
    for row in matrix:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


@st.composite
def file_contents(draw):
    """Entries of random phase and magnitude 1e-300..1e300 for the three
    file kinds: an N x N Hermitian observable, an (N - d) x d map on a
    model space K whose record sets each field or not, and a d x d
    effective operator with a residual or none, 1 <= d <= N."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def entries(shape):
        magnitude = 10.0 ** rng.uniform(-300.0, 300.0, size=shape)
        return magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=shape))

    upper = np.triu(entries((n, n)), 1)
    hermitian = upper + upper.conj().T + np.diag(entries(n).real)
    ms = ModelSpace(n, tuple(sorted(int(k) + 1 for k in rng.choice(n, size=d, replace=False))))
    j = tuple(int(i) + 1 for i in rng.choice(n, size=d, replace=False))

    def maybe(values):
        return draw(st.none() | values)

    record = Provenance(maybe(st.just(j)), maybe(st.integers(0, 10**9)), maybe(st.floats(allow_nan=False)))
    residual = maybe(st.floats(allow_nan=False))
    return hermitian, DecouplingMap(ms, entries((n - d, d)), record), entries((d, d)), residual


def _record_line(record) -> list[str]:
    """The record's comment line: each field it sets as key=value, floats to 17 digits."""
    fields = []
    if record.indices is not None:
        fields.append(f"J={_ids(record.indices)}")
    if record.iterations is not None:
        fields.append(f"iterations={record.iterations}")
    if record.residual is not None:
        fields.append(f"residual={record.residual:.17g}")
    return [" ".join(fields)] if fields else []


def _bits(record) -> tuple:
    """The record's fields, its residual as the bytes of a float64."""
    residual = None if record.residual is None else np.float64(record.residual).tobytes()
    return record.indices, record.iterations, residual


def _ids(indices) -> str:
    return ",".join(str(i) for i in indices)


@PROPERTY_SETTINGS
@given(file_contents())
def test_matrix_files_round_trip_bit_exact(tmp_path_factory, contents):
    hermitian, dm, effective, residual = contents
    ms = dm.model_space
    root = tmp_path_factory.mktemp("files")

    obs = validate_hermitian(hermitian)
    assert obs.matrix.tobytes() == hermitian.tobytes()
    write_observable(root / "o.mat", obs, ["observable"])
    back, _ = read_observable(root / "o.mat")
    assert back.matrix.tobytes() == hermitian.tobytes()
    assert (root / "o.mat").read_text() == _reference_text(hermitian, ["observable"])

    write_decoupling_map(root / "s.mat", dm)
    read_back = read_decoupling_map(root / "s.mat")
    assert read_back.s.shape == dm.s.shape
    assert read_back.s.tobytes() == dm.s.tobytes()
    assert (read_back.model_space, _bits(read_back.provenance)) == (ms, _bits(dm.provenance))
    header = [f"s-matrix rows={ms.total_dim - ms.dim} cols={ms.dim} K={_ids(ms.indices)}",
              *_record_line(dm.provenance)]
    assert (root / "s.mat").read_text() == _reference_text(dm.s, header)

    op = EffectiveOperator(effective, dm, residual=residual)
    write_effective(root / "e.mat", op)
    matrix, comments = read_matrix(root / "e.mat")
    assert matrix.tobytes() == effective.tobytes()
    kept = dm.provenance if residual is None else replace(dm.provenance, residual=residual)
    assert comments == [f"K={_ids(ms.indices)}", *_record_line(kept)]
    assert (root / "e.mat").read_text() == _reference_text(effective, comments)


def test_match_spectra_pairs_in_sorted_order():
    # nearest-first pairing took 0.05 for 0 and left 0.1 with -0.2 (0.30);
    # rtol 1 puts the one tolerance at max|exact| = 0.2
    result = match_spectra([0.0, 0.1], [0.05, -0.2], rtol=1.0)
    assert result.matched
    assert result.max_deviation == 0.2


def test_match_spectra_never_matches_nan():
    # a NaN deviation must fail the tolerance test, not slip past it
    for subset in (False, True):
        assert not match_spectra([np.nan, 1.0], [0.0, 1.0, 2.0][:2 + subset],
                                 subset=subset).matched


def test_match_spectra_failed_subset_reports_nearest_distance():
    # the forward pass skips 1.0 as too far and pairs 1 + 1e-14 with 5.0
    result = match_spectra([1 + 1e-14], [1.0, 5.0], rtol=1e-15, subset=True)
    assert not result.matched
    assert result.max_deviation == pytest.approx(1e-14, rel=1e-3)


def test_match_spectra_refuses_a_size_it_cannot_pair():
    # more approximate values than exact ones, or fewer without subset=True
    for approx, subset in (([1.0, 2.0, 3.0], False), ([1.0, 2.0, 3.0], True), ([1.0], False)):
        result = match_spectra(approx, [1.0, 2.0], subset=subset)
        assert not result.matched
        assert result.max_deviation == float("inf")


def _matchable(approx, exact, rtol) -> bool:
    """Reference: some injective assignment keeps every pair within rtol
    times the largest exact magnitude."""
    tol = rtol * max(map(abs, exact), default=0.0)
    return any(
        all(abs(a - exact[j]) <= tol for a, j in zip(approx, pick))
        for pick in permutations(range(len(exact)), len(approx))
    )


# Values on a grid of eighths and power-of-two tolerances keep every
# difference and tolerance exact, so the reference sees the same floats.
_GRID = st.integers(-24, 24).map(lambda k: k / 8)


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(st.lists(_GRID, max_size=6), st.lists(_GRID, max_size=6),
       st.sampled_from([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]), st.booleans())
def test_match_spectra_verdict_equals_brute_force(approx, exact, rtol, subset):
    if subset:
        approx = approx[:len(exact)]
    else:
        approx, exact = approx[:len(exact)], exact[:len(approx)]
    assert match_spectra(approx, exact, rtol=rtol, subset=subset).matched == \
        _matchable(approx, exact, rtol)


@st.composite
def maps(draw):
    """A random Hermitian observable with a decoupling map of its selected
    eigenvectors, or (``decoupled`` False) an arbitrary map of norm up to 3."""
    obs, selection, ms, rng = draw(problems())
    decoupled = draw(st.booleans())
    if decoupled:
        return obs, construct_s_direct(selection, ms), decoupled
    shape = (ms.total_dim - ms.dim, ms.dim)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(s), 1e-300)
    return obs, DecouplingMap(ms, s), decoupled


@PROPERTY_SETTINGS
@given(maps())
def test_second_type_is_the_metric_times_first_type(problem):
    """[I; s]' O [I; s] = (I + s's) pp + s' qp for any map; on a decoupling
    map qp is the residual, so the two representatives differ by the
    metric I + s's up to ||s||_F times that residual."""
    obs, dm, decoupled = problem
    s = dm.s
    s_h = s.conj().T
    blocks = transformed_blocks(obs, dm)
    second = second_type(obs, dm).matrix
    metric = np.eye(dm.model_space.dim) + s_h @ s
    s_norm = float(np.linalg.norm(s))
    rounding = 1e-13 * (1.0 + obs.norm) * (1.0 + s_norm) ** 2
    assert np.linalg.norm(second - (metric @ blocks.pp + s_h @ blocks.qp)) <= rounding
    if decoupled:
        first = first_type(obs, dm)
        gap = np.linalg.norm(second - metric @ first.matrix)
        assert gap <= s_norm * first.residual + rounding

    assert "qq" not in vars(blocks)
    p, q = dm.model_space.p_rows, dm.model_space.q_rows
    b, f = obs.matrix[np.ix_(p, q)], obs.matrix[np.ix_(q, q)]
    assert np.array_equal(blocks.qq, f - s @ b)



@st.composite
def scaled_maps(draw):
    """A random, planted or tridiagonal observable with 2 <= N <= 16, scaled
    by c in {1e-12, 1, 1e12}, and the decoupling map of d of its
    eigenvectors, 1 <= d <= N - 1, on the pivoted model space."""
    kind = draw(st.sampled_from(["random_hermitian", "planted_spectrum", "tridiagonal_chain"]))
    n = draw(st.integers(2, 16))
    d = draw(st.integers(1, n - 1))
    c = draw(st.sampled_from([1e-12, 1.0, 1e12]))
    seed = draw(st.integers(0, 2**31 - 1))
    obs = validate_hermitian(c * generate(ProblemSpec(kind, n, seed)).matrix)
    j = tuple(sorted(int(i) + 1 for i in np.random.default_rng(seed).choice(n, d, replace=False)))
    selection = select_eigenvectors(eigendecompose(obs), j)
    return obs, construct_s_direct(selection, ModelSpace(n, pivoted_model_space(selection)))


@PROPERTY_SETTINGS
@given(scaled_maps())
def test_frame_read_blocks_equal_the_partition_formulas(problem):
    """pp, qp and the second type read off O [I; s] equal a + b s,
    b_dag + f s - s pp and pp + s'b_dag + s'f s of the partition, to
    rounding relative to ||O||_F, at every scale."""
    obs, dm = problem
    s = dm.s
    s_h = s.conj().T
    p, q = dm.model_space.p_rows, dm.model_space.q_rows
    a, b = obs.matrix[np.ix_(p, p)], obs.matrix[np.ix_(p, q)]
    b_dag, f = obs.matrix[np.ix_(q, p)], obs.matrix[np.ix_(q, q)]
    pp = a + b @ s
    fs = f @ s
    qp = b_dag + fs - s @ pp
    second = pp + s_h @ b_dag + s_h @ fs
    blocks = transformed_blocks(obs, dm)
    rounding = 1e-13 * obs.norm * (1.0 + float(np.linalg.norm(s))) ** 2
    assert np.linalg.norm(blocks.pp - pp) <= rounding
    assert np.linalg.norm(blocks.qp - qp) <= rounding
    assert abs(blocks.residual - np.linalg.norm(qp)) <= rounding
    assert np.linalg.norm(blocks.second - second) <= rounding
    assert np.array_equal(blocks.pq, b)
    assert np.array_equal(blocks.qq, f - s @ b)


@st.composite
def rescaled_observables(draw):
    """A random, planted (spectrum 1..N), tridiagonal or gap-separated
    observable with 2 <= N <= 24, a scale c in {1e-12, 1e-10, 1e-6, 1e6,
    1e12} and a selection J of d of its eigenvectors, 1 <= d <= N - 1."""
    kind = draw(st.sampled_from(["random_hermitian", "planted_spectrum",
                                 "tridiagonal_chain", "gap_separated"]))
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, n - 1))
    c = draw(st.sampled_from([1e-12, 1e-10, 1e-6, 1e6, 1e12]))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "gap_separated":
        obs = gap_separated(n, d, seed=seed)
    else:
        obs = generate(ProblemSpec(kind, n, seed))
    j = tuple(sorted(int(i) + 1 for i in np.random.default_rng(seed).choice(n, d, replace=False)))
    return obs, c, j


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(rescaled_observables())
def test_eigendecompose_follows_a_rescaling(problem):
    """Eigenpairs of cO are those of O in the same order: values ascending
    and equal to eigvalsh(cO), each column the one at c = 1 up to phase,
    and the map of the pairs at J on the c = 1 pivoted K unchanged."""
    obs, c, j = problem
    scaled_obs = validate_hermitian(c * obs.matrix)
    dec, reference = eigendecompose(scaled_obs), eigendecompose(obs)
    assert np.all(np.diff(dec.values) >= 0.0)
    exact = np.linalg.eigvalsh(scaled_obs.matrix)
    assert np.abs(dec.values - exact).max() <= 1e-13 * np.abs(exact).max()
    overlaps = np.abs(np.einsum("ij,ij->j", dec.vectors.conj(), reference.vectors))
    assert np.max(1.0 - overlaps) <= 1e-12
    selection = select_eigenvectors(reference, j)
    ms = ModelSpace(obs.dim, pivoted_model_space(selection))
    s = construct_s_direct(selection, ms).s
    s_scaled = construct_s_direct(select_eigenvectors(dec, j), ms).s
    assert np.linalg.norm(s_scaled - s) <= 1e-12 * (1.0 + np.linalg.norm(s))


@PROPERTY_SETTINGS
@given(problems(), st.integers(1, 4), st.integers(1, 4))
def test_matrix_element_block_equals_the_scalar_double_loop(problem, k, k2):
    """An (N, k) and an (N, k') block of subspace vectors give the (k, k')
    array of scalar matrix elements, and a stray column is named."""
    obs, selection, ms, rng = problem
    dm = construct_s_direct(selection, ms)
    rep = second_type(obs, dm)
    n, d = selection.total_dim, selection.dim

    def noise(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    psi, phi = selection.vectors @ noise(d, k), selection.vectors @ noise(d, k2)
    block = matrix_element(psi, phi, rep)
    assert block.shape == (k, k2)
    for i in range(k):
        for j in range(k2):
            entry = matrix_element(psi[:, i], phi[:, j], rep)
            assert isinstance(entry, complex)
            assert abs(block[i, j] - entry) <= 1e-12 * (1.0 + abs(entry))
    for name, left, right in (("psi", psi, phi), ("phi", phi, psi)):
        col = int(rng.integers(left.shape[1]))
        stray = left.copy()
        stray[:, col] = noise(n)
        args = (stray, right) if name == "psi" else (right, stray)
        with pytest.raises(NotInSubspace, match=rf"^{name}\[:, {col}\]: membership residual "):
            matrix_element(*args, rep)


@st.composite
def direct_maps(draw):
    """A random Hermitian observable with 2 <= N <= 20 and the decoupling
    map of d of its eigenvectors, 1 <= d <= N, on the pivoted model space."""
    n = draw(st.integers(2, 20))
    d = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**31 - 1))
    obs = generate(ProblemSpec("random_hermitian", n, seed))
    j = tuple(sorted(int(i) + 1 for i in np.random.default_rng(seed).choice(n, d, replace=False)))
    selection = select_eigenvectors(eigendecompose(obs), j)
    return obs, construct_s_direct(selection, ModelSpace(n, pivoted_model_space(selection)))


@PROPERTY_SETTINGS
@given(direct_maps())
def test_rotated_block_spectra_equal_block_eigenvalues(problem):
    """The rotation's Hermitian blocks carry the spectra of pp and qq."""
    obs, dm = problem
    blocks = transformed_blocks(obs, dm)
    rotated_p, rotated_q = blocks.block_spectra
    rounding = 1e-12 * (1.0 + obs.norm) * (1.0 + float(np.linalg.norm(dm.s))) ** 2
    for rotated, block in ((rotated_p, blocks.pp), (rotated_q, blocks.qq)):
        assert rotated.shape == (block.shape[0],)
        assert np.all(np.diff(rotated) >= 0.0)
        reference = np.sort(np.linalg.eigvals(block).real)
        assert np.abs(rotated - reference).max(initial=0.0) <= rounding


def _same_operator(a: EffectiveOperator, b: EffectiveOperator):
    assert a.matrix.tobytes() == b.matrix.tobytes()
    assert a.residual == b.residual


@PROPERTY_SETTINGS
@given(direct_maps())
def test_block_level_builders_equal_the_public_ones(problem):
    """One reduction handed to the block-level builders gives bit for bit
    what each public builder gives from its own reduction."""
    obs, dm = problem
    blocks = transformed_blocks(obs, dm)
    pair = _effective_pair(blocks)
    _same_operator(pair.first, first_type(obs, dm))
    _same_operator(pair.second, second_type(obs, dm))
    qq, report = _factorization(blocks)
    public_qq, public_report = q_block_and_factorization(obs, dm)
    assert qq.tobytes() == public_qq.tobytes()
    assert report == public_report

    family = commuting_partners(obs, 2, seed=dm.model_space.dim)
    pairs, _ = effective_set(family, dm)
    for member, member_pair in zip(family.members, pairs):
        _same_operator(member_pair.first, first_type(member, dm))
        _same_operator(member_pair.second, second_type(member, dm))

    if dm.s.size:
        zero = DecouplingMap(dm.model_space, np.zeros_like(dm.s))
        with pytest.raises(NotDecoupled) as public:
            first_type(obs, zero)
        with pytest.raises(NotDecoupled) as private:
            _effective_pair(transformed_blocks(obs, zero))
        assert private.value.residual == public.value.residual
        assert str(private.value) == str(public.value)


@st.composite
def degenerate_families(draw):
    """Two commuting members in one Haar basis, with their exact eigenvalue
    rows. Member 1 has up to three levels, the k-th state of a level moved
    by k times a split of 0, 1e-14, 1e-11, 1e-9 or 1e-7; member 2 takes
    distinct values, or only 0 and 1, which may leave tuples repeated."""
    n = draw(st.integers(2, 8))
    levels = draw(st.integers(1, 3))
    split = draw(st.sampled_from([0.0, 1e-14, 1e-11, 1e-9, 1e-7]))
    separating = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    level = np.sort(rng.integers(0, levels, size=n))
    rank = np.arange(n) - np.searchsorted(level, level)  # place inside the level
    first = 1.5 * level - 1.0 + split * rank
    second = rng.permutation(n) - 3.0 if separating else rng.integers(0, 2, size=n) * 1.0
    basis = haar_unitary(n, rng)
    exact = np.array([first, second])
    members = [validate_hermitian((basis * row) @ basis.conj().T) for row in exact]
    return verify_commuting(members), exact


@PROPERTY_SETTINGS
@given(degenerate_families())
def test_joint_basis_of_degenerate_families(family):
    cset, exact = family
    n = cset.dim
    sep = CLUSTER_RTOL * (1.0 + float(np.abs(exact).max()))
    gaps = np.abs(exact[:, :, None] - exact[:, None, :]).max(axis=0)
    separated = bool((gaps[np.triu_indices(n, 1)] > sep).all())
    if separated:
        basis = simultaneous_eigenbasis(cset)
    else:
        with pytest.warns(UserWarning, match="tuples are not all distinct"):
            basis = simultaneous_eigenbasis(cset)
    vectors, values = basis.vectors, basis.values
    for member, row in zip(cset.members, values):
        residual = np.linalg.norm(member.matrix @ vectors - vectors * row, axis=0).max()
        assert residual <= eigenpair_tolerance(member)
    assert np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)) <= 1e-12 * n
    # tuples ascend, member 1 first, where values within sep count as equal
    # (the splits drawn here leave no chain of near ties wider than sep)
    for step in np.diff(values, axis=1).T:
        apart = step[np.abs(step) > sep]
        assert apart.size == 0 or apart[0] > 0.0
    assert basis.distinct == separated


@st.composite
def transformed_observables(draw):
    """A random, degenerate planted, tridiagonal or identity observable,
    2 <= N <= 24, scaled by c in 1e-12..1e12, with any J and its pivoted K;
    returns the dense (1 - S) cO (1 + S), (1 - S) V and cO's spectrum."""
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["random", "planted", "tridiagonal", "identity"]))
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.sampled_from([1e-12, 1e-6, 1.0, 1e6, 1e12]))
    rng = np.random.default_rng(seed)
    if kind == "random":
        matrix = generate(ProblemSpec("random_hermitian", n, seed)).matrix
    elif kind == "planted":
        levels = rng.choice([-1.0, 0.5, 2.0], size=n)
        matrix = generate(ProblemSpec("planted_spectrum", n, seed,
                                      spectrum=tuple(np.sort(levels)))).matrix
    elif kind == "tridiagonal":
        matrix = generate(ProblemSpec("tridiagonal_chain", n, seed, coupling=0.2)).matrix
    else:
        matrix = np.eye(n)
    obs = validate_hermitian(scale * matrix)
    decomposition = eigendecompose(obs)
    d = draw(st.integers(1, n))
    j = tuple(sorted(int(i) + 1 for i in rng.choice(n, size=d, replace=False)))
    selection = select_eigenvectors(decomposition, j)
    dm = construct_s_direct(selection, ModelSpace(n, pivoted_model_space(selection)))
    basis = exp_s(dm, -1) @ decomposition.vectors
    return similarity_transform(obs, dm), basis, decomposition.values


@PROPERTY_SETTINGS
@given(transformed_observables())
def test_spectrum_enclosure_confirms_only_what_the_eigensolver_matches(problem):
    dense, basis, values = problem
    confirmed = _spectrum_enclosed(dense, basis, values, 1e-9)
    if confirmed:
        assert match_spectra(np.linalg.eigvals(dense), values, rtol=1e-9).matched
    # the enclosure decides every input drawn here; an undecided one would
    # cost only an eigensolve, but would leave the property untested
    assert confirmed


def _verdicts(obs, **kwargs) -> dict:
    return {check.name: check.passed for check in run_verification(obs, **kwargs).checks}


@st.composite
def units_of_observables(draw):
    """A random, planted (spectrum 1..N) or tridiagonal observable with
    4 <= N <= 12, a scale c in {1e-12, 1e-6, 1e6, 1e12}, d in 1..3 and a
    verify seed."""
    kind = draw(st.sampled_from(["random_hermitian", "planted_spectrum", "tridiagonal_chain"]))
    n = draw(st.integers(4, 12))
    obs = generate(ProblemSpec(kind, n, draw(st.integers(0, 2**31 - 1))))
    c = draw(st.sampled_from([1e-12, 1e-6, 1e6, 1e12]))
    return obs, c, draw(st.integers(1, 3)), draw(st.integers(0, 2**31 - 1))


@PROPERTY_SETTINGS
@given(units_of_observables())
def test_verify_verdicts_do_not_depend_on_the_units_of_O(problem):
    """O -> cO changes no CHECK verdict of verify, and s = 0 on a coupled O
    is no decoupling map at any c: every tolerance follows O's own scale."""
    obs, c, d, seed = problem
    scaled_obs = validate_hermitian(c * obs.matrix)
    assert _verdicts(scaled_obs, d=d, trials=2, seed=seed) == _verdicts(obs, d=d, trials=2, seed=seed)
    ms = ModelSpace(obs.dim, tuple(range(1, d + 1)))
    assert np.linalg.norm(obs.matrix[np.ix_(ms.q_rows, ms.p_rows)]) > 1e-6 * obs.norm
    with pytest.raises(NotDecoupled):
        first_type(scaled_obs, DecouplingMap(ms, np.zeros((obs.dim - d, d))))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_verify_passes_on_a_spectrum_with_a_zero_level(c, d):
    """Spectrum 0..9: a representative of the zero level has a norm of
    rounding size, so it is judged at ||O||_F, not at its own norm."""
    planted = generate(ProblemSpec("planted_spectrum", 10, 3, spectrum=tuple(range(10))))
    report = run_verification(validate_hermitian(c * planted.matrix), d=d, trials=20, seed=3)
    assert report.all_passed, [check.name for check in report.checks if not check.passed]


def test_verify_on_the_zero_observable_has_zero_tolerances():
    """For O = 0 every tolerance that follows O, and every residual it bounds, is exactly 0."""
    report = run_verification(validate_hermitian(np.zeros((6, 6))), d=2, trials=3, seed=0)
    assert report.all_passed
    checks = {check.name: check for check in report.checks}
    for name in ("eigh_reconstruct", "decoupling_residual_direct", "blocks_assembly",
                 "effective_block_owns_projections", "route_equivalence", "second_type_hermitian",
                 "matrix_element_gram", "common_s_all_members", "effective_commutators",
                 "simultaneous_effective_eigvecs"):
        assert checks[name].residual == checks[name].tol == 0.0, name

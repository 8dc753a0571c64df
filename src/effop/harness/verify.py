"""Cross-module invariant battery behind the ``verify`` CLI command.

Runs the property suite on one observable: projector algebra, eigensolver
round trips, decoupling-map identities, effective-operator guarantees,
fixed-point solver consistency on an internally generated well-separated
instance, and commuting-set reductions built from seeded companions of
the input. A check repeated over trials keeps the trial with the worst
margin, so the merge is independent of trial order.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .. import effective as eff
from .. import observables as obsmod
from .. import solver as solvermod
from .. import spaces, tolerances, transform, util
from ..errors import NotInSubspace, ValidationError
from .generate import PRNG_ID, ProblemSpec, commuting_partners, gap_separated, generate
from .report import Report

__all__ = ["run_verification"]

_BRUTE_FORCE_LIMIT = 20_000


def _listed(selection, candidates) -> np.ndarray | None:
    """Mask over the rows of the selection's subset table that ``candidates`` lists;
    None when a K is no row (a strictly increasing d-subset of 1..N) or is listed twice."""
    if candidates is None or isinstance(candidates, np.ndarray):  # a mask already
        return candidates
    rows, _ = selection._subset_singular_values
    row_of = {k: r for r, k in enumerate(map(tuple, (rows + 1).tolist()))}
    found = [row_of.get(tuple(k)) for k, _ in candidates]
    if None in found or len(set(found)) < len(found):
        return None
    listed = np.zeros(len(rows), dtype=bool)
    listed[found] = True
    return listed


def _enumeration_agrees(selection, listed):
    """Independent rank test of every subset against the ``listed`` candidates (or
    mask); skips the ambiguous band around ``COND_CAP`` where the tolerances may differ."""
    _, sv = selection._subset_singular_values
    cond_cap = tolerances.COND_CAP
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    with np.errstate(over="ignore"):  # a singular block's ratio is inf
        ratio = sv[:, 0] / np.maximum(sv[:, -1], tiny)
    ambiguous = (sv[:, 0] > 0.0) & (1e-2 * cond_cap <= ratio) & (ratio <= 1e2 * cond_cap)
    # numpy's matrix_rank threshold, applied to the table's values
    rank = (sv > sv[:, :1] * selection.dim * eps).sum(axis=1)
    independent = (rank == selection.dim) & (ratio <= cond_cap)
    listed = _listed(selection, listed)
    return listed is not None and not np.any((independent != listed) & ~ambiguous)


def _second_model_space(selection, listed, k_best) -> tuple[int, ...]:
    """The ``listed`` K (candidates or mask) other than ``k_best`` with the largest
    smallest singular value, ties to the lexicographically largest K (condition
    number alone cannot rank K for d=1)."""
    rows, sv = selection._subset_singular_values
    others = _listed(selection, listed) & (rows != np.subtract(k_best, 1)).any(axis=1)
    smallest = np.where(others, sv[:, -1], -np.inf)
    # the table is in lexicographic order, so the last maximum is the largest K
    return tuple((rows[np.flatnonzero(smallest == smallest.max())[-1]] + 1).tolist())


def _spectrum_enclosed(dense, basis, values, rtol) -> bool:
    """True when Gershgorin disks prove that ``match_spectra(eigvals(dense),
    values, rtol)`` matches; False when they cannot decide.

    ``basis`` holds approximate eigenvectors of ``dense`` for the real
    ``values``, so ``dense`` is similar to ``diag(values) + Y`` with Y
    small. Disk i has centre ``values[i] + Y[i, i]`` and radius
    ``sum_{j != i} |Y[i, j]|``. Disks are grouped where their real-axis
    shadows, each stretched to take in ``values[i]``, overlap: a group of
    k disks holds exactly k eigenvalues (Gershgorin 1931), and the groups
    follow one another along the real axis, so the sorted pairing of
    ``match_spectra`` stays inside each group. It passes when every disk
    of a group lies within the tolerance of every value of that group.
    """
    try:
        y = np.linalg.solve(basis, dense @ basis - basis * values)
    except np.linalg.LinAlgError:
        return False
    centres = values + np.diagonal(y)
    off = np.abs(y)
    np.fill_diagonal(off, 0.0)
    radii = off.sum(axis=1)
    lo = np.minimum(centres.real - radii, values)
    hi = np.maximum(centres.real + radii, values)
    order = np.argsort(lo)
    # a group starts where a shadow begins beyond the end of every earlier one
    starts = lo[order][1:] > np.maximum.accumulate(hi[order])[:-1]
    group = np.empty(len(values), dtype=np.intp)
    group[order] = np.concatenate(([0], np.cumsum(starts)))
    # reach[i, j] = |c_j - values[i]| + r_j, compared with values[i]'s tolerance
    reach = np.abs(centres - values[:, np.newaxis]) + radii
    within = reach <= tolerances.scaled(rtol, np.abs(values))[:, np.newaxis]
    return bool(np.all(within | (group[:, np.newaxis] != group)))


def run_verification(obs: spaces.ObservableMatrix, *, d: int | None = None,
                     trials: int = 20, seed: int = 0) -> Report:
    """Run every module's invariant suite against one observable."""
    n = obs.dim
    if d is None:
        d = max(1, min(3, n - 1))
    if not 1 <= util.as_index(d, "d") <= n:
        raise ValidationError(f"d must lie in 1..{n}, got {d}")
    if util.as_index(trials, "trials") < 1:
        raise ValidationError(f"trials must be positive, got {trials}")
    if util.as_index(seed, "seed") < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    report = Report(provenance={
        "dim": n, "d": d, "trials": trials, "seed": seed, "prng": PRNG_ID,
        "cond_cap": f"{tolerances.COND_CAP:.3e}",
    })
    decomposition = spaces.eigendecompose(obs)
    values, vectors = decomposition.values, decomposition.vectors
    scale = obs.norm if obs.norm > 0.0 else 1.0  # ||O||_F; 1 only for O = 0

    reconstructed = (vectors * values) @ vectors.conj().T
    report.add("eigh_reconstruct", np.linalg.norm(reconstructed - obs.matrix), 1e-10 * scale)
    # V'V - I is scale-free; its rounding grows with the dimension n
    report.add("eigh_orthonormal",
               np.linalg.norm(vectors.conj().T @ vectors - np.eye(n)), 1e-12 * max(1.0, n))

    distinct_spectrum = not spaces._degenerate_clusters(values, 1e-8)

    def complex_noise(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    for trial in range(trials):
        with report.section("trial"):
            j_idx = tuple(sorted(rng.choice(n, size=d, replace=False) + 1))
            selection = spaces.select_eigenvectors(decomposition, j_idx)
            k_best = spaces.pivoted_model_space(selection)
            candidates = listed = None
            # exhaustive enumeration costs C(N, d) decompositions; a few trials
            # exercise the invariant without dominating the run
            if trial < 3 and math.comb(n, d) <= _BRUTE_FORCE_LIMIT:
                candidates = spaces.enumerate_model_spaces(selection)
                listed = _listed(selection, candidates)
                report.add_flag("enumeration_bounds", 1 <= len(candidates) <= math.comb(n, d))
                report.add_flag("enumeration_rank_agreement",
                                _enumeration_agrees(selection, listed))
                report.add_flag("enumeration_contains_pivoted",
                                k_best in dict(candidates))

            ms = spaces.ModelSpace(n, k_best)
            proj_p, proj_q = spaces.projectors(ms)
            report.add("projectors_exact",
                       max(np.abs(proj_p + proj_q - np.eye(n)).max(),
                           np.abs(proj_p @ proj_q).max(),
                           np.abs(proj_q @ proj_p).max()),
                       0.0)

            dm = transform.construct_s_direct(selection, ms)
            s_norm = float(np.linalg.norm(dm.s))
            blocks = transform.transformed_blocks(obs, dm)
            report.add("decoupling_residual_direct",
                       blocks.residual, tolerances.decoupled_tolerance(obs))

            forward, backward = transform.exp_s(dm, 1), transform.exp_s(dm, -1)
            embedded = forward - np.eye(n)
            report.add("generator_nilpotent", np.abs(embedded @ embedded).max(), 0.0)
            report.add("transform_inverse_exact", np.abs(forward @ backward - np.eye(n)).max(), 0.0)

            dense = transform.similarity_transform(obs, dm)
            # ||O||_F floored at 1; the (1 + ||s||)^2 of the two factors is scale-free
            report.add("blocks_assembly",
                       np.linalg.norm(transform.assemble_blocks(blocks) - dense),
                       1e-12 * max(1.0, obs.norm) * (1.0 + s_norm) ** 2)
            # the enclosure can only confirm; the eigensolver decides what it cannot
            report.add_flag("spectrum_preserved",
                            _spectrum_enclosed(dense, backward @ vectors, values, 1e-9)
                            or util.match_spectra(np.linalg.eigvals(dense), values, rtol=1e-9).matched)

            pv = selection.vectors[ms.p_rows, :]
            # ||pv||, components of unit eigenvectors, is scale-free and floored at 1
            report.add("effective_block_owns_projections",
                       np.linalg.norm(blocks.pp @ pv - pv * selection.values),
                       tolerances.scaled(1e-9, obs.norm) * max(1.0, np.linalg.norm(pv)))
            mapped = backward @ selection.vectors
            # scale-free: s does not follow O -> cO
            report.add("selected_vectors_mapped",
                       np.linalg.norm(mapped[ms.q_rows, :]), 1e-9 * (1.0 + s_norm))

            if distinct_spectrum:
                misfit = np.linalg.norm(dm.s @ vectors[ms.p_rows, :] - vectors[ms.q_rows, :], axis=0)
                report.add_flag("decoupling_matches_exactly_d", int((misfit <= 1e-7).sum()) == d)

            mixer = complex_noise((d, d))
            while util.condition_number(mixer) > 1e3:  # inf when singular
                mixer = complex_noise((d, d))
            remixed = transform.construct_s_from_span(selection.vectors @ mixer, ms)
            # scale-free: s does not follow O -> cO
            report.add("basis_change_invariance",
                       np.linalg.norm(remixed.s - dm.s), 1e-10 * (1.0 + s_norm))

            if d < n:
                fixed = np.zeros(n, dtype=np.complex128)
                fixed[ms.q_rows] = complex_noise(n - d)
                report.add("fixed_point_exact",
                           np.abs(backward @ fixed - fixed).max(), 0.0)
                outside = complex_noise(n)
                report.add_flag("non_membership",
                                np.linalg.norm((backward @ outside)[ms.q_rows]) > 1e-8)

            member = selection.vectors @ complex_noise(d)
            alpha = (backward @ member)[ms.p_rows]
            # scale-free: member combines unit eigenvectors
            report.add("retrieve_round_trip",
                       np.linalg.norm(transform.retrieve_full_vector(alpha, dm) - member),
                       1e-10 * (1.0 + np.linalg.norm(member)))

            pair = eff._effective_pair(blocks)
            operator, hermitian_rep = pair.first, pair.second
            report.add_flag("first_type_spectrum",
                            util.match_spectra(np.linalg.eigvals(operator.matrix),
                                               selection.values, rtol=1e-8).matched)
            _, factor_report = eff._factorization(blocks)
            report.add_flag("factorization_completeness", factor_report.matched)
            report.add("route_equivalence",
                       np.abs(eff.spectral_reconstruct(selection, ms) - operator.matrix).max(),
                       tolerances.scaled(1e-9, np.linalg.norm(operator.matrix)))

            # the representative's norm, floored at 1
            report.add("second_type_hermitian",
                       np.linalg.norm(hermitian_rep.matrix - hermitian_rep.matrix.conj().T),
                       1e-12 * max(1.0, np.linalg.norm(hermitian_rep.matrix)))
            gram = selection.vectors.conj().T @ obs.matrix @ selection.vectors
            reduced = eff.matrix_element(selection.vectors, selection.vectors, hermitian_rep)
            report.add("matrix_element_gram", np.abs(gram - reduced).max(),
                       tolerances.scaled(1e-9, obs.norm))

            if d < n:
                stray = complex_noise(n)
                try:
                    eff.matrix_element(stray, stray, hermitian_rep)
                    report.add_flag("membership_rejection", False)
                except NotInSubspace:
                    report.add_flag("membership_rejection", True)

            if listed is not None and 1 < len(candidates) <= 5000:  # None fails rank agreement
                k_second = _second_model_space(selection, listed, k_best)
                dm2 = transform.construct_s_direct(selection, spaces.ModelSpace(n, k_second))
                operator2 = eff.first_type(obs, dm2)
                t = eff.equivalence_transform(operator, operator2)
                report.add("equivalence_transform",
                           np.linalg.norm(operator.matrix - t @ operator2.matrix @ np.linalg.inv(t)),
                           tolerances.scaled(1e-9, np.linalg.norm(operator.matrix)))

    # Generic witness: the first-type representative is non-Hermitian in
    # general, which the user's matrix may be too special to show.
    with report.section("generic_witness"):
        generic = generate(ProblemSpec("random_hermitian", dim=8,
                                          seed=int(rng.integers(0, 2**63 - 1))))
        generic_dec = spaces.eigendecompose(generic)
        generic_sel = spaces.select_eigenvectors(generic_dec, (1, 2, 3))
        generic_k = spaces.pivoted_model_space(generic_sel)
        generic_dm = transform.construct_s_direct(generic_sel, spaces.ModelSpace(8, generic_k))
        generic_first = eff.first_type(generic, generic_dm)
        report.add_flag("first_type_nonhermitian_generic",
                        np.linalg.norm(generic_first.matrix - generic_first.matrix.conj().T) > 1e-8)

    # Solver suite on a well-separated internal instance.
    with report.section("solver_suite"):
        instance = gap_separated(8, 3, gap=1.0, coupling=0.08,
                                     seed=int(rng.integers(0, 2**63 - 1)))
        inst_ms = spaces.ModelSpace(8, (1, 2, 3))
        iter_dm, _ = solvermod.solve_decoupling_fixed_point(instance, inst_ms)
        inst_dec = spaces.eigendecompose(instance)
        direct_dm = transform.construct_s_direct(
                spaces.select_eigenvectors(inst_dec, (1, 2, 3)), inst_ms)
        # scale-free: s does not follow O -> cO
        report.add("solver_gap_consistency",
                   np.linalg.norm(iter_dm.s - direct_dm.s),
                   1e-8 * (1.0 + np.linalg.norm(direct_dm.s)))
        report.add_flag("solver_spectrum_subset",
                        util.match_spectra(
                            np.linalg.eigvals(transform.transformed_blocks(instance, iter_dm).pp),
                            inst_dec.values, rtol=1e-8, subset=True).matched)
        iter_dm2, _ = solvermod.solve_decoupling_fixed_point(instance, inst_ms)
        report.add("solver_deterministic", np.abs(iter_dm.s - iter_dm2.s).max(), 0.0)

    # Commuting companions of the input observable.
    with report.section("commuting_suite"):
        family = commuting_partners(obs, 2, seed=int(rng.integers(0, 2**63 - 1)))
        report.add_flag("commuting_companions_valid",
                        (family.commutator_norms
                         <= tolerances.commuting_tolerance(family.members)).all())
        with warnings.catch_warnings():
            # degenerate user input may yield repeated tuples; that is allowed here
            warnings.simplefilter("ignore")
            basis = family.basis
        leading = tuple(range(1, d + 1))
        shared_k = spaces.pivoted_model_space(obsmod.selection_from_basis(basis, leading))
        shared_dm = obsmod.common_s(family, leading, shared_k)
        pairs, commutator_report = obsmod.effective_set(family, shared_dm)
        report.add("common_s_all_members",
                   max(pair.first.residual for pair in pairs),
                   max(tolerances.decoupled_tolerance(m) for m in family.members))
        report.add("effective_commutators", commutator_report.max_norm, commutator_report.tol)
        pv_basis = basis.vectors[:, :d][shared_dm.model_space.p_rows, :]
        joint_dev = max(
               float(np.linalg.norm(pairs[sig].first.matrix @ pv_basis
                                    - pv_basis * basis.values[sig, :d]))
               for sig in range(family.size)
           )
        report.add("simultaneous_effective_eigvecs", joint_dev,
                   tolerances.scaled(1e-9, max(m.norm for m in family.members)))

        # Decomposition over contiguous joint-basis blocks.
        parts = [tuple(range(start, min(start + d, n + 1))) for start in range(1, n + 1, d)]
        kparts = [
            spaces.pivoted_model_space(obsmod.selection_from_basis(basis, block))
            for block in parts
        ]
        decomposed = obsmod.decompose_space(family, parts, kparts)
        report.add_flag("decomposition_completeness", decomposed.complete)
    return report

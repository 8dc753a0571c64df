"""Commuting observable sets and their joint reduction.

One decoupling map built from shared eigenvectors serves every member:
each transformed member decouples, the first-type representatives keep
pairwise commutation (symmetries survive the reduction), and the whole
space decomposes into invariant blocks, each carrying its own effective
representatives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances, util
from .effective import EffectivePair, _effective_pair
from .errors import (
    DimensionMismatch,
    EffopError,
    NotCommuting,
    NotDecoupled,
    PartitionInvalid,
    SolverFailure,
    ValidationError,
)
from .spaces import (
    EigenSelection,
    ModelSpace,
    ObservableMatrix,
    _degenerate_clusters,
    _eigen_residual,
    _normalize_phases,
    _select,
)
from .tolerances import commuting_tolerance, eigenpair_tolerance
from .transform import DecouplingMap, construct_s_direct, transformed_blocks

__all__ = [
    "CommutingSet",
    "SimultaneousBasis",
    "CommutatorReport",
    "BlockReduction",
    "SpaceDecomposition",
    "verify_commuting",
    "simultaneous_eigenbasis",
    "selection_from_basis",
    "common_s",
    "effective_set",
    "decompose_space",
]

_MIX_SEED = 1299827     # fixed seed for the member-mixing weights


@dataclass(frozen=True)
class CommutingSet:
    """Pairwise-commuting Hermitian observables; member 1 plays the Hamiltonian."""

    members: tuple[ObservableMatrix, ...]
    commutator_norms: np.ndarray  # (c, c) Frobenius norms

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def basis(self) -> SimultaneousBasis:
        """Joint eigenbasis, computed once, on first access."""
        return simultaneous_eigenbasis(self)


def _commutator_norms(matrices) -> np.ndarray:
    """Read-only symmetric (c, c) array of ||M_i M_j - M_j M_i||_F."""
    c = len(matrices)
    norms = np.zeros((c, c))
    for i in range(c):
        for j in range(i + 1, c):
            mi, mj = matrices[i], matrices[j]
            norms[i, j] = norms[j, i] = float(np.linalg.norm(mi @ mj - mj @ mi))
    return util._frozen(norms)


def verify_commuting(members) -> CommutingSet:
    """Validate dimensions and pairwise commutators.

    On failure the exception names the pair furthest above its tolerance
    and carries its commutator norm.
    """
    obs = tuple(members)
    if not obs:
        raise ValidationError("a commuting set needs at least one member")
    n = obs[0].dim
    for k, m in enumerate(obs, start=1):
        if m.dim != n:
            raise DimensionMismatch(f"member {k} has dim {m.dim}, expected {n}")
    tol = commuting_tolerance(obs)
    norms = _commutator_norms([m.matrix for m in obs])
    over = norms > tol
    if over.any():
        ratio = np.divide(norms, tol, out=np.zeros_like(norms), where=over)
        i, j = divmod(int(ratio.argmax()), len(obs))
        raise NotCommuting(
            f"members {i + 1} and {j + 1} have commutator norm "
            f"{norms[i, j]:.6e} (tol {tol[i, j]:.3e})",
            pair=(i + 1, j + 1),
            norm=float(norms[i, j]),
        )
    return CommutingSet(obs, norms)


@dataclass(frozen=True)
class SimultaneousBasis:
    """Shared orthonormal eigenbasis; row sigma of ``values`` holds member
    sigma's eigenvalues, column i of ``vectors`` the i-th joint eigenvector."""

    values: np.ndarray    # (c, N) real
    vectors: np.ndarray   # (N, N) complex
    distinct: bool        # all eigenvalue tuples separated (completeness witness)


def _refine(vectors, members, level):
    """Split a degenerate cluster by diagonalizing the next member inside it."""
    if level >= len(members) or vectors.shape[1] < 2:
        return vectors
    sub = vectors.conj().T @ members[level].matrix @ vectors
    sub = 0.5 * (sub + sub.conj().T)
    vals, rot = np.linalg.eigh(sub)
    out = vectors @ rot
    # later members may rotate only clusters narrower than the member's eigenpair tolerance
    for start, stop in _degenerate_clusters(vals, tolerances.EIG_RTOL / len(vals),
                                            members[level].norm):
        out[:, start:stop] = _refine(out[:, start:stop], members, level + 1)
    return out


def simultaneous_eigenbasis(cset: CommutingSet) -> SimultaneousBasis:
    """Joint eigenbasis via a fixed-seed random positive mix of the members,
    each divided by its Frobenius norm, so the mix does not change under O_i -> c O_i.

    Clusters of the mix narrower than ``eps / EIG_RTOL`` of its largest value,
    where ``eigh`` may blend joint eigenvectors beyond a member's eigenpair
    tolerance, are refined by sub-diagonalizing the members in order. Columns
    are sorted by their eigenvalue tuples (member 1 first); a member's values
    within ``CLUSTER_RTOL`` of its spectral radius count as equal, for this
    order and for ``distinct``, so each member is judged at its own scale. A
    warning is emitted when tuples repeat: the set then fails to pin
    one-dimensional joint eigenspaces, though every construction downstream
    stays valid.
    """
    n = cset.dim
    rng = np.random.default_rng(_MIX_SEED)
    weights = rng.uniform(1.0, 2.0, size=cset.size)
    mix = sum(w / (m.norm or 1.0) * m.matrix for w, m in zip(weights, cset.members))
    mix = 0.5 * (mix + mix.conj().T)
    try:
        mix_vals, vectors = np.linalg.eigh(mix)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"mixed-member eigensolver failed: {exc}") from exc
    vectors = vectors.astype(np.complex128)
    for start, stop in _degenerate_clusters(mix_vals, np.finfo(float).eps / tolerances.EIG_RTOL):
        vectors[:, start:stop] = _refine(vectors[:, start:stop], cset.members, 0)
    _normalize_phases(vectors, out=vectors)

    values = np.empty((cset.size, n))
    for sig, member in enumerate(cset.members):
        residual = _eigen_residual(member.matrix, vectors, values[sig], rayleigh=True)
        limit = eigenpair_tolerance(member)
        if residual > limit:
            raise SolverFailure(
                f"member {sig + 1}: joint eigenpair residual {residual:.3e} above {limit:.3e}"
            )

    # sort by each member's cluster ids, not its raw values, so that
    # rounding inside a cluster cannot split a repeated tuple
    ids = np.empty((cset.size, n), dtype=np.intp)
    for sig, row in enumerate(values):
        ranks = np.argsort(row, kind="stable")
        cluster = np.arange(n)
        for start, stop in _degenerate_clusters(row[ranks], tolerances.CLUSTER_RTOL):
            cluster[start:stop] = start
        ids[sig, ranks] = cluster
    order = np.lexsort(ids[::-1])
    values = values[:, order]
    vectors = vectors[:, order]

    # every pair, not only neighbours: rounding can sort equal tuples apart
    apart = np.zeros((n, n), dtype=bool)
    for row in values:  # member by member: no (c, N, N) temporary
        apart |= np.abs(np.subtract.outer(row, row)) > tolerances.CLUSTER_RTOL * np.abs(row).max()
    distinct = bool(apart[np.triu_indices(n, 1)].all())
    if not distinct:
        warnings.warn(
            "eigenvalue tuples are not all distinct; the commuting set does not "
            "single out a unique joint basis",
            stacklevel=2,
        )
    values.setflags(write=False)
    vectors.setflags(write=False)
    return SimultaneousBasis(values, vectors, distinct)


def selection_from_basis(basis: SimultaneousBasis, indices) -> EigenSelection:
    """Eigen selection drawn from a joint basis, labeled by member 1's values."""
    return _select(basis.values[0], basis.vectors, indices)


def common_s(cset: CommutingSet, indices, model_indices) -> DecouplingMap:
    """One decoupling map serving every member, built from the shared
    eigenvectors at ``indices`` for the model space ``model_indices``."""
    selection = selection_from_basis(cset.basis, indices)
    return construct_s_direct(selection, ModelSpace(cset.dim, model_indices))


@dataclass(frozen=True)
class CommutatorReport:
    """Pairwise commutator norms of the first-type representatives, each
    pair judged at the scale of its members (:func:`commuting_tolerance`)."""

    norms: np.ndarray   # (c, c)
    max_norm: float
    tol: np.ndarray     # (c, c), one tolerance per pair

    @property
    def preserved(self) -> bool:
        return bool((self.norms <= self.tol).all())  # NaN fails


def effective_set(cset: CommutingSet, dm: DecouplingMap):
    """Effective pair for every member under one shared map.

    Every member must decouple under ``dm``; the offending member index
    is reported otherwise. Returns the pairs together with a commutator
    report for the first-type representatives.
    """
    pairs: list[EffectivePair] = []
    for sig, member in enumerate(cset.members, start=1):
        try:
            pairs.append(_effective_pair(transformed_blocks(member, dm)))
        except NotDecoupled as exc:
            raise NotDecoupled(f"member {sig}: {exc}", member=sig, residual=exc.residual) from exc
    norms = _commutator_norms([pair.first.matrix for pair in pairs])
    return pairs, CommutatorReport(norms, float(norms.max()), commuting_tolerance(cset.members))


@dataclass(frozen=True)
class BlockReduction:
    """One invariant block: its index set, map and pairs."""

    indices: tuple[int, ...]
    decoupling: DecouplingMap
    pairs: tuple[EffectivePair, ...]


@dataclass(frozen=True)
class SpaceDecomposition:
    """Per-block reductions whose joined spectra rebuild each member's."""

    blocks: tuple[BlockReduction, ...]
    spectrum_checks: tuple[util.SpectrumMatch, ...]  # one per member

    @property
    def complete(self) -> bool:
        return all(check.matched for check in self.spectrum_checks)


def decompose_space(cset: CommutingSet, partition, model_spaces) -> SpaceDecomposition:
    """Split the whole space into invariant blocks and reduce every member
    inside each block.

    ``partition`` lists disjoint 1-based index blocks covering {1..N} in
    the joint-basis ordering; ``model_spaces`` gives one model index set
    per block. Each member's block spectra, joined, are matched against
    its own spectrum at ``DECOMPOSITION_MATCH_RTOL``. An error inside a
    block keeps its type and diagnostics, its message prefixed with the block.
    """
    blocks_idx = [util.as_indices(block, "partition block") for block in partition]
    spaces_idx = [util.as_indices(k, "model space") for k in model_spaces]
    if len(blocks_idx) != len(spaces_idx):
        raise PartitionInvalid(
            f"{len(blocks_idx)} blocks but {len(spaces_idx)} model spaces"
        )
    n = cset.dim
    flat = [i for block in blocks_idx for i in block]
    if len(set(flat)) != len(flat):
        raise PartitionInvalid("blocks overlap")
    if sorted(flat) != list(range(1, n + 1)):
        raise PartitionInvalid(f"blocks must cover 1..{n} exactly")

    reductions: list[BlockReduction] = []
    for r, (block, kset) in enumerate(zip(blocks_idx, spaces_idx), start=1):
        try:
            dm = common_s(cset, block, kset)
            pairs, _ = effective_set(cset, dm)
        except EffopError as exc:
            raise type(exc)(f"block {r} (J={block}, K={kset}): {exc}", **vars(exc)) from exc
        reductions.append(BlockReduction(block, dm, tuple(pairs)))

    checks = []
    for sig, member in enumerate(cset.members):
        approx = np.concatenate(
            [np.linalg.eigvals(red.pairs[sig].first.matrix) for red in reductions]
        )
        checks.append(util.match_spectra(approx, member.spectrum, tolerances.DECOMPOSITION_MATCH_RTOL))
    return SpaceDecomposition(tuple(reductions), tuple(checks))

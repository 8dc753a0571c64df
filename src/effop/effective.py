"""Effective representatives acting on the model space.

The first (spectral) representative is the model-space diagonal block
of the transformed observable; when the map decouples the observable
its eigenvalues are a subset of the full spectrum. The second
(Hermitian) representative reproduces matrix elements of the original
observable between vectors of the mapped invariant subspace using their
model-space components alone. A third, independent route rebuilds the
spectral representative from the Gram matrix of the projected
eigenvectors. A representative carries the map it was built with, as
``.decoupling``, and the functions on representatives read it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tolerances, util
from .errors import (
    DimensionMismatch,
    NonFinite,
    NotAnEigenvector,
    NotDecoupled,
    NotInSubspace,
    SingularProjection,
    ZeroVector,
)
from .spaces import EigenSelection, ModelSpace, ObservableMatrix
from .transform import DecouplingMap, transformed_blocks

__all__ = [
    "EffectiveOperator",
    "EffectivePair",
    "OverlapMatrix",
    "EigenvectorClassification",
    "first_type",
    "second_type",
    "q_block_and_factorization",
    "classify_eigenvector",
    "overlap_matrix",
    "expansion_coefficients",
    "spectral_reconstruct",
    "matrix_element",
    "expectation_first_type",
    "expectation_second_type",
    "equivalence_transform",
]


@dataclass(frozen=True)
class EffectiveOperator:
    """A d x d representative on the model space ``decoupling.model_space``:
    first-type (spectral, generally non-Hermitian) or second-type
    (Hermitian), with the residual of its map measured when it was built."""

    matrix: np.ndarray
    decoupling: DecouplingMap
    residual: float | None = None


@dataclass(frozen=True)
class EffectivePair:
    """Both representatives of one observable under one decoupling map."""

    first: EffectiveOperator
    second: EffectiveOperator


def _decoupled(blocks) -> None:
    """Raises :class:`NotDecoupled` when the blocks' residual exceeds the limit."""
    limit = tolerances.decoupled_tolerance(blocks._obs)
    if not blocks.residual <= limit:  # NaN too
        raise NotDecoupled(
            f"decoupling residual {blocks.residual:.3e} exceeds {limit:.3e}",
            residual=blocks.residual,
        )


def _operator(matrix, blocks) -> EffectiveOperator:
    return EffectiveOperator(util._frozen(matrix), blocks._map, blocks.residual)


def _effective_pair(blocks) -> EffectivePair:
    """Both representatives from one reduction; raises like :func:`first_type`."""
    _decoupled(blocks)
    return EffectivePair(_operator(blocks.pp, blocks), _operator(blocks.second, blocks))


def _factorization(blocks):
    """:func:`q_block_and_factorization` on one reduction."""
    _decoupled(blocks)
    spec_p, spec_q = blocks.block_spectra
    report = util.match_spectra(np.concatenate([spec_p, spec_q]), blocks._obs.spectrum)
    qq = blocks.qq
    weight = tolerances.scaled(1.0, np.abs(spec_q))
    moments = (np.trace(qq), np.sum(qq * qq.T))
    tied = all(abs(moment - np.sum(spec_q ** k)) <= k * report.rtol * np.sum(weight ** k)
               for k, moment in enumerate(moments, start=1))
    return util._frozen(qq), replace(report, matched=report.matched and tied)


def first_type(obs: ObservableMatrix, dm: DecouplingMap) -> EffectiveOperator:
    """Model-space block of the transformed observable.

    Requires the map to decouple the observable, otherwise the spectral
    guarantee is void and :class:`NotDecoupled` is raised. The measured
    residual is kept on the result.
    """
    blocks = transformed_blocks(obs, dm)
    _decoupled(blocks)
    return _operator(blocks.pp, blocks)


def second_type(obs: ObservableMatrix, dm: DecouplingMap) -> EffectiveOperator:
    """Hermitian representative a + b s + s'b_dag + s'f s (s' the adjoint).

    Defined for any map; the matrix-element identity it serves holds
    only between vectors of the map's invariant subspace. The residual
    of the map is recorded on the result, not enforced.
    """
    blocks = transformed_blocks(obs, dm)
    return _operator(blocks.second, blocks)


def q_block_and_factorization(obs: ObservableMatrix, dm: DecouplingMap):
    """Complement block of the transformed observable, plus a report that
    its spectrum joined with the model block's rebuilds the full one,
    each pair within ``rtol = SPECTRUM_MATCH_RTOL``.

    The two block spectra come from the rotation behind
    :attr:`TransformedBlocks.block_spectra`. The returned block ``qq``
    is tied to the complement values mu by its first two moments: the
    report matches only if |trace(qq^k) - sum mu^k| <= k rtol
    sum (1 + |mu|)^k for k = 1, 2, the most the k-th power sum can move
    when each value moves within its match tolerance.
    """
    return _factorization(transformed_blocks(obs, dm))


@dataclass(frozen=True)
class EigenvectorClassification:
    """Where an eigenvector of the transformed observable lives.

    ``model_space`` means the complement components vanish and the model
    part is an eigenvector of the first-type block; ``complement`` means
    the complement part is an eigenvector of the complement block. In
    the complement case ``shares_eigenvalue`` records whether the
    coupling block annihilates the complement part, making the value
    common to both diagonal blocks. ``boundary_consistent`` evaluates
    the disjoint-spectra biconditional: when the two blocks do not share
    the value, vanishing complement components and the model part being
    an eigenvector must agree.
    """

    case: str
    eigenvalue: complex
    p_component: np.ndarray
    q_component: np.ndarray
    shares_eigenvalue: bool
    spectra_intersect: bool
    p_is_eigenvector: bool

    @property
    def boundary_consistent(self) -> bool:
        return self.spectra_intersect or ((self.case == "model_space") == self.p_is_eigenvector)


def classify_eigenvector(obs: ObservableMatrix, dm: DecouplingMap, vector,
                         value) -> EigenvectorClassification:
    """Classify an eigenvector of the transformed observable.

    Raises :class:`NotDecoupled` unless the map decouples the observable,
    as :func:`first_type` does; both block spectra come from
    :attr:`TransformedBlocks.block_spectra`.
    """
    tol = tolerances.CLASSIFY_RTOL
    ms = dm.model_space
    phi = util.as_complex_vector(vector, "vector", ms.total_dim)
    scale = float(np.linalg.norm(phi))
    if scale == 0.0:
        raise NotAnEigenvector("the zero vector is not an eigenvector")
    value = complex(value)
    blocks = transformed_blocks(obs, dm)
    _decoupled(blocks)
    p_part, q_part = util._frozen(phi[ms.p_rows]), util._frozen(phi[ms.q_rows])
    residual = math.hypot(
        np.linalg.norm(blocks.pp @ p_part + blocks.pq @ q_part - value * p_part),
        np.linalg.norm(blocks.qp @ p_part + blocks.qq @ q_part - value * q_part),
    )
    near = tolerances.scaled(tol, abs(value))
    if not residual <= near * scale:  # NaN too
        raise NotAnEigenvector(
            f"residual {residual:.3e} too large for value {value} (tol scale {tol:.0e})"
        )

    def owns(spectrum):
        return spectrum.size > 0 and np.abs(spectrum - value).min() <= near

    intersect = bool(all(owns(spectrum) for spectrum in blocks.block_spectra))
    p_norm = float(np.linalg.norm(p_part))
    p_is_eig = bool(p_norm > tol * scale
                    and np.linalg.norm(blocks.pp @ p_part - value * p_part) <= near * p_norm)
    q_norm = float(np.linalg.norm(q_part))
    if q_norm <= tol * scale:
        case = "model_space"
        shares = False
    else:
        case = "complement"
        shares = bool(np.linalg.norm(blocks.pq @ q_part) <= tolerances.scaled(tol, obs.norm) * q_norm)
    return EigenvectorClassification(case, value, p_part, q_part, shares, intersect, p_is_eig)


@dataclass(frozen=True)
class OverlapMatrix:
    """Gram matrix of the projected eigenvectors; Hermitian positive definite."""

    gamma: np.ndarray
    basis: np.ndarray  # (d, d), columns are the projected eigenvectors


def overlap_matrix(selection: EigenSelection, ms: ModelSpace) -> OverlapMatrix:
    """Inner products of the model-space components of the selected vectors."""
    if selection.total_dim != ms.total_dim or selection.dim != ms.dim:
        raise DimensionMismatch("selection and model space disagree on dimensions")
    basis = util._frozen(selection.vectors[ms.p_rows, :])
    util._require_conditioned(basis, "projected eigenvectors")
    gamma = basis.conj().T @ basis
    if float(np.linalg.eigvalsh(gamma).min()) <= 0.0:
        raise SingularProjection("overlap matrix is not positive definite")
    return OverlapMatrix(util._frozen(gamma), basis)


def expansion_coefficients(chi, overlap: OverlapMatrix) -> np.ndarray:
    """Coefficients of a model-space vector in the projected-eigenvector basis."""
    x = util.as_complex_vector(chi, "chi", overlap.basis.shape[0])
    rhs = overlap.basis.conj().T @ x
    return np.linalg.solve(overlap.gamma, rhs)


def spectral_reconstruct(selection: EigenSelection, ms: ModelSpace) -> np.ndarray:
    """First-type representative rebuilt purely from model-space data:
    projected eigenvectors, their eigenvalues and the inverse overlap."""
    overlap = overlap_matrix(selection, ms)
    weighted = selection.values[:, np.newaxis] * np.linalg.solve(
        overlap.gamma, overlap.basis.conj().T
    )
    return overlap.basis @ weighted


def _member(vectors, name: str, dm: DecouplingMap) -> np.ndarray:
    """A vector or (N, k) column block as an (N, k) block; raises :class:`NotInSubspace` naming the
    first column whose norm of (complement part - s * model part) puts it off the subspace."""
    ms, block = dm.model_space, np.ndim(vectors) == 2
    v = (util.as_complex_matrix(vectors, name, (ms.total_dim, np.shape(vectors)[1])) if block
         else util.as_complex_vector(vectors, name, ms.total_dim)[:, np.newaxis])
    residual = np.linalg.norm(v[ms.q_rows] - dm.s @ v[ms.p_rows], axis=0)
    limit = tolerances.MEMBERSHIP_RTOL * np.linalg.norm(v, axis=0)
    for col in np.flatnonzero(~(residual <= limit))[:1]:  # NaN too
        where = f"{name}[:, {col}]" if block else name
        raise NotInSubspace(f"{where}: membership residual {residual[col]:.3e} "
                            f"exceeds {limit[col]:.3e}")
    return v


def matrix_element(psi, phi, op: EffectiveOperator) -> complex | np.ndarray:
    """Matrix element of the original observable between two vectors of op's subspace, from
    their model-space components alone; (N, k) column blocks give the (k, k') array of every
    pair, so ``matrix_element(V, V, op)`` is V'OV. The subspace is that of ``op.decoupling``."""
    dm = op.decoupling
    rows = dm.model_space.p_rows
    left, right = _member(psi, "psi", dm)[rows], _member(phi, "phi", dm)[rows]
    gram = left.conj().T @ (op.matrix @ right)
    return gram if np.ndim(psi) == 2 or np.ndim(phi) == 2 else complex(gram[0, 0])


def expectation_first_type(op: EffectiveOperator, alpha) -> complex:
    """Rayleigh quotient of the spectral representative; real exactly on
    its eigenvectors, generally complex elsewhere."""
    a = util.as_complex_vector(alpha, "alpha", op.matrix.shape[0])
    if not np.isfinite(a).all():
        raise NonFinite("alpha contains NaN or Inf entries")
    exponent = np.frexp(np.abs(a).max())[1]  # an exact power-of-two scale keeps |a|^2 in range
    a = np.ldexp(np.ascontiguousarray(a).view(np.float64), -exponent).view(np.complex128)
    norm2 = float(np.vdot(a, a).real)
    if norm2 == 0.0:
        raise ZeroVector("expectation of the zero vector is undefined")
    return complex(np.vdot(a, op.matrix @ a) / norm2)


def expectation_second_type(op: EffectiveOperator, psi) -> float:
    """Expectation <psi|O|psi> / <psi|psi> of the original observable in a
    vector of op's subspace: the quadratic form of the Hermitian
    representative on the model components, over the full norm squared."""
    v = util.as_complex_vector(psi, "psi")
    exponent = np.frexp(np.abs(v).max(initial=0.0))[1]  # as in expectation_first_type
    v = np.ldexp(np.ascontiguousarray(v).view(np.float64), -exponent).view(np.complex128)
    value = matrix_element(v, v, op)
    norm2 = float(np.vdot(v, v).real)
    if norm2 == 0.0:  # the zero vector lies in every subspace
        raise ZeroVector("expectation of the zero vector is undefined")
    return value.real / norm2


def equivalence_transform(op: EffectiveOperator, other: EffectiveOperator) -> np.ndarray:
    """Similarity T with op = T other T^{-1}, both representing one invariant subspace.

    The columns of op's frame [I; s] span the subspace with model
    components I; T inverts their components at other's model rows,
    which must be well conditioned (:class:`SingularProjection`).
    """
    ms, ms2 = op.decoupling.model_space, other.decoupling.model_space
    if ms.total_dim != ms2.total_dim or ms.dim != ms2.dim:
        raise DimensionMismatch("representatives live in different spaces")
    block = op.decoupling.frame[ms2.p_rows]
    util._require_conditioned(block, f"rows K={ms2.indices} of op's frame [I; s]")
    return np.linalg.inv(block)

"""Effective representatives acting on the model space.

The first (spectral) representative is the model-space diagonal block
of the transformed observable; when the map decouples the observable
its eigenvalues are a subset of the full spectrum. The second
(Hermitian) representative reproduces matrix elements of the original
observable between vectors of the mapped invariant subspace using their
model-space components alone. A third, independent route rebuilds the
spectral representative from the Gram matrix of the projected
eigenvectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tolerances, util
from .errors import (
    DimensionMismatch,
    NotAnEigenvector,
    NotDecoupled,
    NotInSubspace,
    SingularProjection,
    ValidationError,
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
    "membership_residual",
]


@dataclass(frozen=True)
class EffectiveOperator:
    """A d x d representative on the model space: first-type (spectral,
    generally non-Hermitian) or second-type (Hermitian), with the
    decoupling residual of its map measured when it was built."""

    matrix: np.ndarray
    model_space: ModelSpace
    source: ObservableMatrix
    decoupling: DecouplingMap
    residual: float | None = None


@dataclass(frozen=True)
class EffectivePair:
    """Both representatives of one observable under one decoupling map."""

    first: EffectiveOperator
    second: EffectiveOperator


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix)
    out.setflags(write=False)
    return out


def _decoupled(obs: ObservableMatrix, blocks) -> None:
    """Raises :class:`NotDecoupled` when the blocks' residual exceeds the limit."""
    limit = tolerances.decoupled_tolerance(obs)
    if blocks.residual > limit:
        raise NotDecoupled(
            f"decoupling residual {blocks.residual:.3e} exceeds {limit:.3e}",
            residual=blocks.residual,
        )


def _operator(matrix, obs: ObservableMatrix, dm: DecouplingMap, blocks) -> EffectiveOperator:
    return EffectiveOperator(_frozen(matrix), dm.model_space, obs, dm, blocks.residual)


def _effective_pair(obs: ObservableMatrix, dm: DecouplingMap, blocks) -> EffectivePair:
    """Both representatives from the blocks of (obs, dm); raises like :func:`first_type`."""
    _decoupled(obs, blocks)
    return EffectivePair(_operator(blocks.pp, obs, dm, blocks),
                         _operator(blocks.second, obs, dm, blocks))


def _factorization(obs: ObservableMatrix, blocks, match_rtol: float):
    """:func:`q_block_and_factorization` on the blocks of (obs, dm)."""
    _decoupled(obs, blocks)
    spec_p, spec_q = blocks.block_spectra
    report = util.match_spectra(np.concatenate([spec_p, spec_q]), obs.spectrum, rtol=match_rtol)
    qq = blocks.qq
    weight = 1.0 + np.abs(spec_q)
    moments = (np.trace(qq), np.sum(qq * qq.T))
    tied = all(abs(moment - np.sum(spec_q ** k)) <= k * match_rtol * np.sum(weight ** k)
               for k, moment in enumerate(moments, start=1))
    return _frozen(qq), replace(report, matched=report.matched and tied)


def first_type(obs: ObservableMatrix, dm: DecouplingMap) -> EffectiveOperator:
    """Model-space block of the transformed observable.

    Requires the map to decouple the observable, otherwise the spectral
    guarantee is void and :class:`NotDecoupled` is raised. The measured
    residual is kept on the result.
    """
    blocks = transformed_blocks(obs, dm)
    _decoupled(obs, blocks)
    return _operator(blocks.pp, obs, dm, blocks)


def second_type(obs: ObservableMatrix, dm: DecouplingMap) -> EffectiveOperator:
    """Hermitian representative a + b s + s'b_dag + s'f s (s' the adjoint).

    Defined for any map; the matrix-element identity it serves holds
    only between vectors of the map's invariant subspace. The residual
    of the map is recorded on the result, not enforced.
    """
    blocks = transformed_blocks(obs, dm)
    return _operator(blocks.second, obs, dm, blocks)


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
    return _factorization(obs, transformed_blocks(obs, dm), tolerances.SPECTRUM_MATCH_RTOL)


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
    phi = util.as_complex_vector(vector, "vector")
    ms = dm.model_space
    if phi.shape[0] != ms.total_dim:
        raise DimensionMismatch(f"vector has {phi.shape[0]} entries, expected {ms.total_dim}")
    scale = float(np.linalg.norm(phi))
    if scale == 0.0:
        raise NotAnEigenvector("the zero vector is not an eigenvector")
    value = complex(value)
    blocks = transformed_blocks(obs, dm)
    _decoupled(obs, blocks)
    p_part = phi[ms.p_rows]
    q_part = phi[ms.q_rows]
    residual = math.hypot(
        np.linalg.norm(blocks.pp @ p_part + blocks.pq @ q_part - value * p_part),
        np.linalg.norm(blocks.qp @ p_part + blocks.qq @ q_part - value * q_part),
    )
    near = tolerances.scaled(tol, abs(value))
    if residual > near * scale:
        raise NotAnEigenvector(
            f"residual {residual:.3e} too large for value {value} (tol scale {tol:.0e})"
        )
    p_part.setflags(write=False)
    q_part.setflags(write=False)

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
    basis = selection.vectors[ms.p_rows, :].copy()
    util._require_conditioned(basis, "projected eigenvectors")
    gamma = basis.conj().T @ basis
    if float(np.linalg.eigvalsh(gamma).min()) <= 0.0:
        raise SingularProjection("overlap matrix is not positive definite")
    basis.setflags(write=False)
    return OverlapMatrix(_frozen(gamma), basis)


def expansion_coefficients(chi, overlap: OverlapMatrix) -> np.ndarray:
    """Coefficients of a model-space vector in the projected-eigenvector basis."""
    x = util.as_complex_vector(chi, "chi")
    d = overlap.basis.shape[1]
    if x.shape[0] != overlap.basis.shape[0]:
        raise DimensionMismatch(f"chi has {x.shape[0]} entries, basis lives in dim {d}")
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


def _membership(vector, name: str, dm: DecouplingMap) -> tuple[np.ndarray, float]:
    """``vector`` as a complex vector of the map's full space, and its
    membership residual."""
    v = util.as_complex_vector(vector, name)
    ms = dm.model_space
    if v.shape[0] != ms.total_dim:
        raise DimensionMismatch(f"{name} has {v.shape[0]} entries, expected {ms.total_dim}")
    return v, float(np.linalg.norm(v[ms.q_rows] - dm.s @ v[ms.p_rows]))


def membership_residual(vector, dm: DecouplingMap) -> float:
    """Distance of a vector from the map's invariant subspace: the norm of
    (complement components - s * model components)."""
    return _membership(vector, "vector", dm)[1]


def _member(vector, name: str, dm: DecouplingMap) -> np.ndarray:
    """``vector`` as a complex vector of the map's full space; raises
    :class:`NotInSubspace` when it lies off the invariant subspace."""
    v, residual = _membership(vector, name, dm)
    limit = tolerances.MEMBERSHIP_RTOL * float(np.linalg.norm(v))
    if residual > limit:
        raise NotInSubspace(f"{name}: membership residual {residual:.3e} exceeds {limit:.3e}")
    return v


def _same_map(op: EffectiveOperator, dm: DecouplingMap) -> None:
    """Raises :class:`ValidationError` when ``op`` was built with a map
    other than ``dm``: another model space or another s."""
    built = op.decoupling
    if built is None or built is dm:
        return
    if built.model_space != dm.model_space or not np.array_equal(built.s, dm.s):
        raise ValidationError(f"the representative was built with another decoupling map "
                              f"(K={built.model_space.indices}; given K={dm.model_space.indices})")


def matrix_element(psi, phi, op: EffectiveOperator, dm: DecouplingMap) -> complex:
    """Matrix element of the original observable between two subspace
    vectors, evaluated from their model-space components alone. ``dm``
    must be the map ``op`` was built with, or an equal one."""
    _same_map(op, dm)
    rows = dm.model_space.p_rows
    left, right = _member(psi, "psi", dm), _member(phi, "phi", dm)
    return complex(np.vdot(left[rows], op.matrix @ right[rows]))


def expectation_first_type(op: EffectiveOperator, alpha) -> complex:
    """Rayleigh quotient of the spectral representative; real exactly on
    its eigenvectors, generally complex elsewhere."""
    a = util.as_complex_vector(alpha, "alpha")
    if a.shape[0] != op.matrix.shape[0]:
        raise DimensionMismatch(f"alpha has {a.shape[0]} entries, operator is {op.matrix.shape[0]}")
    norm2 = float(np.vdot(a, a).real)
    if norm2 == 0.0:
        raise ZeroVector("expectation of the zero vector is undefined")
    return complex(np.vdot(a, op.matrix @ a) / norm2)


def expectation_second_type(op: EffectiveOperator, psi, dm: DecouplingMap) -> float:
    """Expectation of the original observable in a unit subspace vector:
    the quadratic form of the Hermitian representative on the model
    components, equal to the projection norm squared times the
    representative's expectation in the projected state. ``dm`` must be
    the map ``op`` was built with, or an equal one."""
    _same_map(op, dm)
    v = _member(psi, "psi", dm)
    if np.linalg.norm(v) == 0.0:  # the zero vector lies in every subspace
        raise ZeroVector("expectation of the zero vector is undefined")
    rows = dm.model_space.p_rows
    return float(np.vdot(v[rows], op.matrix @ v[rows]).real)


def equivalence_transform(op: EffectiveOperator, other: EffectiveOperator,
                          selection: EigenSelection) -> np.ndarray:
    """Similarity matrix T with op = T other T^{-1}.

    Both model spaces must be legitimate for the same selected vectors;
    T is the model components for the first space times the inverse of
    the model components for the second.
    """
    ms, ms2 = op.model_space, other.model_space
    if ms.total_dim != ms2.total_dim or ms.dim != ms2.dim:
        raise DimensionMismatch("representatives live in different spaces")
    if selection.total_dim != ms.total_dim or selection.dim != ms.dim:
        raise DimensionMismatch("selection does not match the representatives")
    pv = selection.vectors[ms.p_rows, :]
    pv2 = selection.vectors[ms2.p_rows, :]
    for name, block in (("first", pv), ("second", pv2)):
        util._require_conditioned(block, f"{name} model-space components")
    return np.linalg.solve(pv2.T, pv.T).T

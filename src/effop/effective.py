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
from dataclasses import dataclass

import numpy as np

from . import util
from .errors import (
    DimensionMismatch,
    NotAnEigenvector,
    NotDecoupled,
    NotInSubspace,
    SingularProjection,
    ZeroVector,
)
from .spaces import EigenSelection, ModelSpace, ObservableMatrix
from .transform import (
    DecouplingMap,
    decoupled_tolerance,
    partition_blocks,
    transformed_blocks,
)

__all__ = [
    "EffectiveOperator",
    "SecondTypeOperator",
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

MEMBERSHIP_RTOL = 1e-8
_CLASSIFY_TOL = 1e-8


@dataclass(frozen=True)
class EffectiveOperator:
    """First-type (spectral) representative; d x d, generally non-Hermitian,
    with the decoupling residual measured when it was built."""

    matrix: np.ndarray
    model_space: ModelSpace
    source: ObservableMatrix
    decoupling: DecouplingMap
    residual: float | None = None


@dataclass(frozen=True)
class SecondTypeOperator:
    """Second-type (matrix-element) representative; d x d Hermitian."""

    matrix: np.ndarray
    model_space: ModelSpace
    source: ObservableMatrix
    decoupling: DecouplingMap


@dataclass(frozen=True)
class EffectivePair:
    """Both representatives of one observable under one decoupling map."""

    first: EffectiveOperator
    second: SecondTypeOperator


def _frozen(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix)
    out.setflags(write=False)
    return out


def _decoupled_blocks(obs: ObservableMatrix, dm: DecouplingMap, tol: float | None):
    """Transformed blocks and their decoupling residual; raises
    :class:`NotDecoupled` when the residual exceeds the limit."""
    limit = decoupled_tolerance(obs) if tol is None else float(tol)
    blocks = transformed_blocks(obs, dm)
    residual = float(np.linalg.norm(blocks.qp))
    if residual > limit:
        raise NotDecoupled(
            f"decoupling residual {residual:.3e} exceeds {limit:.3e}", residual=residual
        )
    return blocks, residual


def first_type(obs: ObservableMatrix, dm: DecouplingMap, *,
               tol: float | None = None) -> EffectiveOperator:
    """Model-space block of the transformed observable.

    Requires the map to decouple the observable, otherwise the spectral
    guarantee is void and :class:`NotDecoupled` is raised. The measured
    residual is kept on the result.
    """
    blocks, residual = _decoupled_blocks(obs, dm, tol)
    return EffectiveOperator(_frozen(blocks.pp), dm.model_space, obs, dm, residual)


def second_type(obs: ObservableMatrix, dm: DecouplingMap) -> SecondTypeOperator:
    """Hermitian representative a + b s + s'b_dag + s'f s (s' the adjoint).

    Defined for any map; the matrix-element identity it serves holds
    only between vectors of the map's invariant subspace.
    """
    a, b, b_dag, f = partition_blocks(obs, dm.model_space)
    s = dm.s
    s_h = s.conj().T
    m = a + b @ s + s_h @ b_dag + s_h @ (f @ s)
    return SecondTypeOperator(_frozen(m), dm.model_space, obs, dm)


def q_block_and_factorization(obs: ObservableMatrix, dm: DecouplingMap, *,
                              tol: float | None = None, match_rtol: float = 1e-8):
    """Complement block of the transformed observable, plus a report that
    its spectrum joined with the model block's rebuilds the full one."""
    blocks, _ = _decoupled_blocks(obs, dm, tol)
    approx = np.concatenate([np.linalg.eigvals(blocks.pp), np.linalg.eigvals(blocks.qq)])
    report = util.match_spectra(approx, np.linalg.eigvalsh(obs.matrix), rtol=match_rtol)
    return _frozen(blocks.qq), report


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


def classify_eigenvector(obs: ObservableMatrix, dm: DecouplingMap, vector, value, *,
                         tol: float = _CLASSIFY_TOL) -> EigenvectorClassification:
    """Classify an eigenvector of the transformed observable."""
    phi = util.as_complex_vector(vector, "vector")
    ms = dm.model_space
    if phi.shape[0] != ms.total_dim:
        raise DimensionMismatch(f"vector has {phi.shape[0]} entries, expected {ms.total_dim}")
    scale = float(np.linalg.norm(phi))
    if scale == 0.0:
        raise NotAnEigenvector("the zero vector is not an eigenvector")
    value = complex(value)
    blocks = transformed_blocks(obs, dm)
    p_part = phi[ms.p_rows]
    q_part = phi[ms.q_rows]
    residual = math.hypot(
        np.linalg.norm(blocks.pp @ p_part + blocks.pq @ q_part - value * p_part),
        np.linalg.norm(blocks.qp @ p_part + blocks.qq @ q_part - value * q_part),
    )
    if residual > tol * (1.0 + abs(value)) * scale:
        raise NotAnEigenvector(
            f"residual {residual:.3e} too large for value {value} (tol scale {tol:.0e})"
        )
    p_part.setflags(write=False)
    q_part.setflags(write=False)

    spec_p = np.linalg.eigvals(blocks.pp)
    spec_q = np.linalg.eigvals(blocks.qq)

    def owns(spectrum):
        return spectrum.size > 0 and np.abs(spectrum - value).min() <= tol * (1.0 + abs(value))

    intersect = bool(owns(spec_p) and owns(spec_q))
    p_norm = float(np.linalg.norm(p_part))
    p_is_eig = bool(
        p_norm > tol * scale
        and np.linalg.norm(blocks.pp @ p_part - value * p_part)
        <= tol * (1.0 + abs(value)) * p_norm
    )
    q_norm = float(np.linalg.norm(q_part))
    if q_norm <= tol * scale:
        case = "model_space"
        shares = False
    else:
        case = "complement"
        shares = bool(np.linalg.norm(blocks.pq @ q_part) <= tol * (1.0 + obs.norm) * q_norm)
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
    if not np.isfinite(util.condition_number(basis)):
        raise SingularProjection("projected eigenvectors are numerically dependent")
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


def membership_residual(vector, dm: DecouplingMap) -> float:
    """Distance of a vector from the map's invariant subspace: the norm of
    (complement components - s * model components)."""
    v = util.as_complex_vector(vector, "vector")
    ms = dm.model_space
    if v.shape[0] != ms.total_dim:
        raise DimensionMismatch(f"vector has {v.shape[0]} entries, expected {ms.total_dim}")
    return float(np.linalg.norm(v[ms.q_rows] - dm.s @ v[ms.p_rows]))


def matrix_element(psi, phi, op: SecondTypeOperator, dm: DecouplingMap) -> complex:
    """Matrix element of the original observable between two subspace
    vectors, evaluated from their model-space components alone."""
    ms = dm.model_space
    left = util.as_complex_vector(psi, "psi")
    right = util.as_complex_vector(phi, "phi")
    for name, v in (("psi", left), ("phi", right)):
        if v.shape[0] != ms.total_dim:
            raise DimensionMismatch(f"{name} has {v.shape[0]} entries, expected {ms.total_dim}")
        residual = membership_residual(v, dm)
        limit = MEMBERSHIP_RTOL * float(np.linalg.norm(v))
        if residual > limit:
            raise NotInSubspace(
                f"{name}: membership residual {residual:.3e} exceeds {limit:.3e}"
            )
    return complex(np.vdot(left[ms.p_rows], op.matrix @ right[ms.p_rows]))


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


def expectation_second_type(op: SecondTypeOperator, psi, dm: DecouplingMap) -> float:
    """Expectation of the original observable in a unit subspace vector:
    the quadratic form of the Hermitian representative on the model
    components, equal to the projection norm squared times the
    representative's expectation in the projected state."""
    v = util.as_complex_vector(psi, "psi")
    ms = dm.model_space
    if v.shape[0] != ms.total_dim:
        raise DimensionMismatch(f"psi has {v.shape[0]} entries, expected {ms.total_dim}")
    scale = float(np.linalg.norm(v))
    if scale == 0.0:
        raise ZeroVector("expectation of the zero vector is undefined")
    residual = membership_residual(v, dm)
    if residual > MEMBERSHIP_RTOL * scale:
        raise NotInSubspace(f"membership residual {residual:.3e} exceeds {MEMBERSHIP_RTOL * scale:.3e}")
    value = np.vdot(v[ms.p_rows], op.matrix @ v[ms.p_rows])
    return float(value.real)


def equivalence_transform(op: EffectiveOperator, other: EffectiveOperator,
                          selection: EigenSelection, *,
                          cond_cap: float = util.DEFAULT_COND_CAP) -> np.ndarray:
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
        cond = util.condition_number(block)
        if not (np.isfinite(cond) and cond <= cond_cap):
            raise SingularProjection(
                f"{name} model space: condition {cond:.3e} exceeds cap {cond_cap:.3e}"
            )
    return np.linalg.solve(pv2.T, pv.T).T

"""Block-triangular similarity transform built from a decoupling map.

The map s is the strictly lower block of a nilpotent generator S, so
the transform pair (1 - S, 1 + S) is its exact exponential. Applied to
a Hermitian observable the transform leaves the spectrum untouched; the
observable is *decoupled* for a model space when the lower-left block
of the transformed matrix vanishes, and the Frobenius norm of that
block is the decoupling residual. All block computations run on views
picked out by the model-space permutation and are mapped back to the
original index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import util
from .errors import DimensionMismatch, ValidationError
from .spaces import EigenSelection, ModelSpace, ObservableMatrix
from .tolerances import decoupled_tolerance

__all__ = [
    "DirectProvenance",
    "IterativeProvenance",
    "DecouplingMap",
    "TransformedBlocks",
    "construct_s_direct",
    "construct_s_from_span",
    "exp_s",
    "similarity_transform",
    "transformed_blocks",
    "assemble_blocks",
    "partition_blocks",
    "decoupling_residual",
    "decoupled_tolerance",
    "is_decoupled",
]


@dataclass(frozen=True)
class DirectProvenance:
    """Map built from selected eigenvector components (indices if known)."""

    indices: tuple[int, ...] | None


@dataclass(frozen=True)
class IterativeProvenance:
    """Map produced by the fixed-point solver."""

    iterations: int
    residual: float


@dataclass(frozen=True)
class DecouplingMap:
    """(N-d) x d block defining the nilpotent generator S = Q S P."""

    model_space: ModelSpace
    s: np.ndarray
    provenance: DirectProvenance | IterativeProvenance | None = None

    def __post_init__(self):
        ms = self.model_space
        expected = (ms.total_dim - ms.dim, ms.dim)
        if self.s.shape != expected:
            raise DimensionMismatch(f"s has shape {self.s.shape}, expected {expected}")


def partition_blocks(obs: ObservableMatrix, ms: ModelSpace):
    """Model/complement partition (a, b, b_dag, f) of a Hermitian matrix:
    read-only views of one gathered copy with the model-space axes first."""
    if obs.dim != ms.total_dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != model space total {ms.total_dim}")
    perm, d = ms.perm_rows, ms.dim
    m = obs.matrix[np.ix_(perm, perm)]
    m.setflags(write=False)
    return m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:]


def construct_s_from_span(vectors, ms: ModelSpace, *, indices=None) -> DecouplingMap:
    """Decoupling map of the subspace spanned by the given columns.

    Depends only on the span: any invertible recombination of the
    columns yields the same map. The d x d system is solved by a
    pivoted factorization instead of forming an explicit inverse.
    """
    v = util.as_complex_matrix(vectors, "span")
    if v.shape != (ms.total_dim, ms.dim):
        raise DimensionMismatch(f"span has shape {v.shape}, expected {(ms.total_dim, ms.dim)}")
    pv = v[ms.p_rows, :]
    util._require_conditioned(pv, "model-space components")
    if ms.dim == ms.total_dim:
        s = np.zeros((0, ms.dim), dtype=np.complex128)
    else:
        qv = v[ms.q_rows, :]
        s = np.linalg.solve(pv.T, qv.T).T
    s = np.ascontiguousarray(s)
    s.setflags(write=False)
    idx = None if indices is None else tuple(int(i) for i in indices)
    return DecouplingMap(ms, s, DirectProvenance(idx))


def construct_s_direct(selection: EigenSelection, ms: ModelSpace) -> DecouplingMap:
    """Decoupling map from selected eigenvectors: complement components
    times the inverse of the model components."""
    if selection.total_dim != ms.total_dim or selection.dim != ms.dim:
        raise DimensionMismatch(
            f"selection is {selection.total_dim}x{selection.dim}, "
            f"model space wants {ms.total_dim}x{ms.dim}"
        )
    return construct_s_from_span(selection.vectors, ms, indices=selection.indices)


def exp_s(dm: DecouplingMap, sign: int) -> np.ndarray:
    """Exact exponential 1 + sign*S of the generator, in original index order."""
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    ms = dm.model_space
    out = np.eye(ms.total_dim, dtype=np.complex128)
    if ms.dim < ms.total_dim:
        out[np.ix_(ms.q_rows, ms.p_rows)] = sign * dm.s
    return out


def similarity_transform(obs: ObservableMatrix, dm: DecouplingMap) -> np.ndarray:
    """Dense (1 - S) O (1 + S); same spectrum as O, generally non-Hermitian."""
    if obs.dim != dm.model_space.total_dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != map total {dm.model_space.total_dim}")
    return exp_s(dm, -1) @ obs.matrix @ exp_s(dm, 1)


@dataclass(frozen=True)
class TransformedBlocks:
    """Blocks of the transformed observable in the (model, complement)
    partition: pp = a + b s, pq = b, the residual block
    qp = b_dag + f s - s pp with its norm ``residual``, and, formed on
    first access, qq = f - s b, the second-type matrix and the spectra
    of both diagonal blocks. ``_partition`` holds the views (a, b,
    b_dag, f) of the permuted observable."""

    pp: np.ndarray
    pq: np.ndarray
    qp: np.ndarray
    residual: float
    _s: np.ndarray = field(repr=False)
    _partition: tuple[np.ndarray, ...] = field(repr=False)
    _fs: np.ndarray = field(repr=False)

    @cached_property
    def qq(self) -> np.ndarray:
        return self._partition[3] - self._s @ self.pq

    @cached_property
    def second(self) -> np.ndarray:
        """Second-type matrix a + b s + s'b_dag + s'f s = [I; s]' O [I; s]."""
        s_h = self._s.conj().T
        return self.pp + s_h @ self._partition[2] + s_h @ self._fs

    @cached_property
    def block_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending real spectra of pp and qq, from one orthonormal rotation.

        When s decouples, the columns of [I; s] span an invariant
        subspace of the observable. With W the unitary of a complete QR
        of [I; s], the rotated matrix W' O W is then Hermitian and block
        diagonal, and its two diagonal blocks are similar to pp and qq.
        Away from decoupling each value moves by at most the residual.
        """
        a, b, b_dag, f = self._partition
        d = a.shape[0]
        w, _ = np.linalg.qr(np.vstack([np.eye(d), self._s]), mode="complete")
        r = w.conj().T @ np.block([[a, b], [b_dag, f]]) @ w
        return np.linalg.eigvalsh(r[:d, :d]), np.linalg.eigvalsh(r[d:, d:])


def _reduce(partition, s) -> TransformedBlocks:
    """The one place a partition (a, b, b_dag, f) and a map s become blocks."""
    a, b, b_dag, f = partition
    pp = a + b @ s
    fs = f @ s
    qp = b_dag + fs - s @ pp
    return TransformedBlocks(pp, b, qp, float(np.linalg.norm(qp)), s, partition, fs)


def transformed_blocks(obs: ObservableMatrix, dm: DecouplingMap) -> TransformedBlocks:
    """Closed-form blocks of the transformed observable."""
    return _reduce(partition_blocks(obs, dm.model_space), dm.s)


def assemble_blocks(blocks: TransformedBlocks, ms: ModelSpace) -> np.ndarray:
    """Embed partition blocks back into the original index order."""
    n = ms.total_dim
    out = np.zeros((n, n), dtype=np.complex128)
    p, q = ms.p_rows, ms.q_rows
    out[np.ix_(p, p)] = blocks.pp
    out[np.ix_(p, q)] = blocks.pq
    out[np.ix_(q, p)] = blocks.qp
    out[np.ix_(q, q)] = blocks.qq
    return out


def decoupling_residual(obs: ObservableMatrix, dm: DecouplingMap) -> float:
    """Frobenius norm of the lower-left block of the transformed observable."""
    return transformed_blocks(obs, dm).residual


def is_decoupled(obs: ObservableMatrix, dm: DecouplingMap) -> bool:
    return decoupling_residual(obs, dm) <= decoupled_tolerance(obs)

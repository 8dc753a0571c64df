"""Block-triangular similarity transform built from a decoupling map.

The map s is the strictly lower block of a nilpotent generator S, so
the transform pair (1 - S, 1 + S) is its exact exponential. Applied to
a Hermitian observable the transform leaves the spectrum untouched; the
observable is *decoupled* for a model space when the lower-left block
of the transformed matrix vanishes, and the Frobenius norm of that
block is the decoupling residual. The blocks are read off one product
O [I; s] of the observable and the map's frame, whose columns span the
invariant subspace; all of them are in the original index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import util
from .errors import DimensionMismatch, NonFinite, ValidationError
from .spaces import EigenSelection, ModelSpace, ObservableMatrix, validate_index_subset

__all__ = [
    "Provenance",
    "DecouplingMap",
    "TransformedBlocks",
    "retrieve_full_vector",
    "construct_s_direct",
    "construct_s_from_span",
    "exp_s",
    "similarity_transform",
    "transformed_blocks",
    "assemble_blocks",
    "decoupling_residual",
]


@dataclass(frozen=True)
class Provenance:
    """What a map records of how it was made, None where unknown: J, the 1-based positions of
    the eigenvectors it was built from; the solver sweep that made it, 0 for the start; its residual."""

    indices: tuple[int, ...] | None = None
    iterations: int | None = None
    residual: float | None = None


@dataclass(frozen=True)
class DecouplingMap:
    """(N-d) x d block defining the nilpotent generator S = Q S P; ``s`` may be
    any array-like, and a writable array is copied, so the map's ``s`` is read-only."""

    model_space: ModelSpace
    s: np.ndarray
    provenance: Provenance = Provenance()

    def __post_init__(self):
        ms = self.model_space
        s = util.as_complex_matrix(self.s, "s", (ms.total_dim - ms.dim, ms.dim))
        if s.flags.writeable:  # private, so the cached frame cannot go stale
            fresh = s is not self.s and s.flags.owndata  # the conversion made it
            s = util._frozen(s if fresh else s.copy())
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "provenance", _checked(self.provenance, ms))

    @cached_property
    def frame(self) -> np.ndarray:
        """Read-only (N, d) [I; s] in the original index order; its columns span the subspace."""
        ms = self.model_space
        out = np.zeros((ms.total_dim, ms.dim), dtype=np.complex128)
        out[ms.p_rows] = np.eye(ms.dim)
        out[ms.q_rows] = self.s
        return util._frozen(out)


def _checked(record: Provenance, ms: ModelSpace) -> Provenance:
    """``record`` with its J, if any, as d distinct indices of 1..N."""
    if record.indices is None:
        return record
    j = validate_index_subset(record.indices, ms.total_dim, name="J")
    if len(j) != ms.dim:
        raise DimensionMismatch(f"J has {len(j)} indices, the model space has {ms.dim}")
    return replace(record, indices=j)


def retrieve_full_vector(alpha, dm: DecouplingMap) -> np.ndarray:
    """The full-space vector ``dm.frame @ alpha`` of the map's subspace whose
    model components are ``alpha``, in the original index order."""
    return dm.frame @ util.as_complex_vector(alpha, "alpha", dm.model_space.dim)


def _require_same_space(obs: ObservableMatrix, ms: ModelSpace) -> None:
    if obs.dim != ms.total_dim:
        raise DimensionMismatch(f"observable dim {obs.dim} != model space total {ms.total_dim}")


def construct_s_from_span(vectors, ms: ModelSpace, *, indices=None) -> DecouplingMap:
    """Decoupling map of the subspace spanned by the given columns.

    Depends only on the span: any invertible recombination of the
    columns yields the same map. The d x d system is solved by a
    pivoted factorization instead of forming an explicit inverse.
    """
    v = util.as_complex_matrix(vectors, "span", (ms.total_dim, ms.dim))
    if not np.isfinite(v).all():
        raise NonFinite("span contains NaN or Inf entries")
    pv = v[ms.p_rows, :]
    util._require_conditioned(pv, "model-space components")
    s = np.linalg.solve(pv.T, v[ms.q_rows, :].T).T
    return DecouplingMap(ms, s, Provenance(indices))


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
    out[np.ix_(ms.q_rows, ms.p_rows)] = sign * dm.s
    return out


def similarity_transform(obs: ObservableMatrix, dm: DecouplingMap) -> np.ndarray:
    """Dense (1 - S) O (1 + S); same spectrum as O, generally non-Hermitian."""
    _require_same_space(obs, dm.model_space)
    return exp_s(dm, -1) @ obs.matrix @ exp_s(dm, 1)


@dataclass(frozen=True)
class TransformedBlocks:
    """Blocks of the transformed observable in the (model, complement) partition,
    read off ``_applied``, the product O [I; s] of the observable ``_obs`` and the
    frame of the map ``_map``: pp = its model rows, the residual block qp = its
    complement rows - s pp with its norm ``residual``, and, formed on first access,
    pq = b, qq = f - s b, the second-type matrix and the spectra of both diagonal blocks."""

    pp: np.ndarray
    qp: np.ndarray
    residual: float
    _obs: ObservableMatrix = field(repr=False)
    _map: DecouplingMap = field(repr=False)
    _applied: np.ndarray = field(repr=False)

    @cached_property
    def pq(self) -> np.ndarray:
        ms = self._map.model_space
        return self._obs.matrix[np.ix_(ms.p_rows, ms.q_rows)]

    @cached_property
    def qq(self) -> np.ndarray:
        q = self._map.model_space.q_rows
        return self._obs.matrix[np.ix_(q, q)] - self._map.s @ self.pq

    @cached_property
    def second(self) -> np.ndarray:
        """Second-type matrix [I; s]' O [I; s] = a + b s + s'b_dag + s'f s."""
        return self._map.frame.conj().T @ self._applied

    @cached_property
    def block_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending real spectra of pp and qq, from one orthonormal rotation.

        When s decouples, the columns of the map's frame [I; s] span an
        invariant subspace of the observable. With W the unitary of a complete
        QR of the frame, W' O W is then Hermitian and block diagonal, and its
        two diagonal blocks are similar to pp and qq. Away from decoupling
        each value moves by at most the residual.
        """
        d = self.pp.shape[0]
        w, _ = np.linalg.qr(self._map.frame, mode="complete")
        r = w.conj().T @ self._obs.matrix @ w
        return np.linalg.eigvalsh(r[:d, :d]), np.linalg.eigvalsh(r[d:, d:])


def transformed_blocks(obs: ObservableMatrix, dm: DecouplingMap) -> TransformedBlocks:
    """Closed-form blocks of the transformed observable, from one product O [I; s]."""
    _require_same_space(obs, dm.model_space)
    applied = obs.matrix @ dm.frame
    pp = applied[dm.model_space.p_rows]
    qp = applied[dm.model_space.q_rows] - dm.s @ pp
    return TransformedBlocks(pp, qp, float(np.linalg.norm(qp)), obs, dm, applied)


def assemble_blocks(blocks: TransformedBlocks) -> np.ndarray:
    """Embed the blocks back into the original index order of their map."""
    ms = blocks._map.model_space
    out = np.zeros((ms.total_dim,) * 2, dtype=np.complex128)
    p, q = ms.p_rows, ms.q_rows
    out[np.ix_(p, p)] = blocks.pp
    out[np.ix_(p, q)] = blocks.pq
    out[np.ix_(q, p)] = blocks.qp
    out[np.ix_(q, q)] = blocks.qq
    return out


def decoupling_residual(obs: ObservableMatrix, dm: DecouplingMap) -> float:
    """Frobenius norm of the lower-left block of the transformed observable."""
    return transformed_blocks(obs, dm).residual

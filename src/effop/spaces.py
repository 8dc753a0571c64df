"""Truncated-space bookkeeping.

Validated Hermitian observables, model-space index sets with their
projectors, a dense eigendecomposition with a reproducible ordering,
and selection of eigenvector subsets. Every index set crossing the
public interface is 1-based; numpy internals are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cmp_to_key
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

from . import util
from .errors import (
    CapTooTight,
    DimensionMismatch,
    DuplicateIndex,
    IndexOutOfRange,
    NonFinite,
    NotHermitian,
    SolverFailure,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .transform import DecouplingMap

__all__ = [
    "ObservableMatrix",
    "ModelSpace",
    "Eigendecomposition",
    "EigenSelection",
    "validate_hermitian",
    "eigendecompose",
    "eigenpair_tolerance",
    "projectors",
    "select_eigenvectors",
    "enumerate_model_spaces",
    "pivoted_model_space",
    "retrieve_full_vector",
    "validate_index_subset",
]

HERM_RTOL = 1e-12   # allowed asymmetry relative to the largest entry magnitude
EIG_RTOL = 1e-10    # eigenpair residual allowance relative to 1 + ||O||_F
_PHASE_ANCHOR = 1e-8
_TIE_RTOL = 1e-10
_LEX_TOL = 1e-9


@dataclass(frozen=True)
class ObservableMatrix:
    """Hermitian matrix of one observable on the truncated space.

    Construct through :func:`validate_hermitian`, which symmetrizes away
    representation noise and freezes the storage.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def norm(self) -> float:
        """Frobenius norm, the scale used by relative tolerances."""
        return float(np.linalg.norm(self.matrix))


def validate_hermitian(matrix) -> ObservableMatrix:
    """Check squareness, finiteness and Hermiticity, then symmetrize.

    The asymmetry allowance is ``1e-12`` times the largest entry
    magnitude; anything below counts as representation noise and is
    removed by averaging with the adjoint.
    """
    a = util.as_complex_matrix(matrix, "observable")
    n = a.shape[0]
    if n == 0 or a.shape[1] != n:
        raise DimensionMismatch(f"observable must be square and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise NonFinite("observable contains NaN or Inf entries")
    scale = float(np.abs(a).max())
    asym = float(np.abs(a - a.conj().T).max())
    if asym > HERM_RTOL * scale:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance {HERM_RTOL * scale:.3e}")
    h = 0.5 * (a + a.conj().T)
    h.setflags(write=False)
    return ObservableMatrix(h)


@dataclass(frozen=True)
class ModelSpace:
    """Index subset K of {1..N} selecting the model-space axes.

    ``indices`` must be strictly increasing. The complement keeps its
    natural order; ``permutation`` lists K first, complement second.
    ``p_rows`` and ``q_rows`` are the read-only 0-based numpy indices of
    the model-space and complement axes, built once with the index sets.
    """

    total_dim: int
    indices: tuple[int, ...]

    def __post_init__(self):
        n = int(self.total_dim)
        if n < 1:
            raise DimensionMismatch(f"total_dim must be positive, got {n}")
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise ValidationError("model space needs at least one index")
        for i in idx:
            if not 1 <= i <= n:
                raise IndexOutOfRange(f"model-space index {i} outside 1..{n}")
        for a, b in itertools.pairwise(idx):
            if a == b:
                raise DuplicateIndex(f"model-space index {a} repeated")
            if a > b:
                raise ValidationError("model-space indices must be strictly increasing")
        chosen = set(idx)
        complement = tuple(i for i in range(1, n + 1) if i not in chosen)
        object.__setattr__(self, "total_dim", n)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_complement", complement)
        for name, axes in (("p_rows", idx), ("q_rows", complement)):
            rows = np.asarray(axes, dtype=np.intp) - 1
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def complement(self) -> tuple[int, ...]:
        return self._complement

    @property
    def permutation(self) -> tuple[int, ...]:
        """Basis reordering that lists model-space axes first (1-based)."""
        return self.indices + self.complement


def projectors(ms: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 0/1 projector pair (P, Q) with P + Q = I exactly."""
    mask = np.zeros(ms.total_dim)
    mask[ms.p_rows] = 1.0
    return np.diag(mask), np.diag(1.0 - mask)


@dataclass(frozen=True)
class Eigendecomposition:
    """Full set of eigenpairs, ascending, with a deterministic ordering."""

    values: np.ndarray    # (N,) real, ascending
    vectors: np.ndarray   # (N, N) complex, one eigenvector per column
    source: ObservableMatrix

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def eigenpair_tolerance(obs: ObservableMatrix) -> float:
    return EIG_RTOL * (1.0 + obs.norm)


def _normalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        anchors = np.flatnonzero(np.abs(col) > _PHASE_ANCHOR)
        if anchors.size:
            pivot = col[anchors[0]]
            col *= np.abs(pivot) / pivot
    return out


def _order_ties(values: np.ndarray, vectors: np.ndarray):
    """Reorder columns inside numerically degenerate clusters lexicographically."""
    n = values.shape[0]
    if n < 2:
        return values, vectors
    tie = _TIE_RTOL * (1.0 + float(np.abs(values).max()))

    def cmp(i, j):
        u, v = vectors[:, i], vectors[:, j]
        for a, b in zip(u, v):
            if abs(a.real - b.real) > _LEX_TOL:
                return -1 if a.real < b.real else 1
            if abs(a.imag - b.imag) > _LEX_TOL:
                return -1 if a.imag < b.imag else 1
        return 0

    order = np.arange(n)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] - values[stop - 1] <= tie:
            stop += 1
        if stop - start > 1:
            order[start:stop] = sorted(range(start, stop), key=cmp_to_key(cmp))
        start = stop
    return values[order], vectors[:, order]


def eigendecompose(obs: ObservableMatrix, *, eig_tol: float | None = None) -> Eigendecomposition:
    """Dense Hermitian eigendecomposition with a reproducible ordering.

    Values come back ascending; ties are broken by lexicographic order
    of the phase-normalized eigenvectors. Column residuals above
    ``eig_tol`` (default ``1e-10 * (1 + ||O||_F)``) raise
    :class:`SolverFailure`.
    """
    tol = eigenpair_tolerance(obs) if eig_tol is None else float(eig_tol)
    try:
        values, vectors = np.linalg.eigh(obs.matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"dense eigensolver did not converge: {exc}") from exc
    vectors = _normalize_phases(vectors.astype(np.complex128))
    values, vectors = _order_ties(values.astype(np.float64), vectors)
    residual = float(np.linalg.norm(obs.matrix @ vectors - vectors * values, axis=0).max())
    if residual > tol:
        raise SolverFailure(f"eigenpair residual {residual:.3e} above tolerance {tol:.3e}")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return Eigendecomposition(values, vectors, obs)


def validate_index_subset(indices, total: int, *, name: str = "J") -> tuple[int, ...]:
    """1-based subset with distinct in-range entries; order is preserved."""
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValidationError(f"{name} must contain at least one index")
    if len(set(idx)) != len(idx):
        raise DuplicateIndex(f"{name} contains repeated indices: {idx}")
    for i in idx:
        if not 1 <= i <= total:
            raise IndexOutOfRange(f"{name} index {i} outside 1..{total}")
    return idx


@dataclass(frozen=True)
class EigenSelection:
    """Chosen subset of eigenpairs; columns of ``vectors`` follow ``indices``."""

    source: object
    indices: tuple[int, ...]
    values: np.ndarray   # (d,) real
    vectors: np.ndarray  # (N, d) complex columns

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def total_dim(self) -> int:
        return int(self.vectors.shape[0])


def select_eigenvectors(decomposition: Eigendecomposition, indices) -> EigenSelection:
    """Pick the eigenpairs at the given 1-based positions."""
    idx = validate_index_subset(indices, decomposition.dim, name="J")
    cols = np.asarray(idx, dtype=np.intp) - 1
    values = decomposition.values[cols].copy()
    vectors = decomposition.vectors[:, cols].copy()
    if np.abs(np.linalg.norm(vectors, axis=0) - 1.0).max() > 1e-8:
        raise ValidationError("selected eigenvectors are not unit norm")
    if not np.isfinite(util.condition_number(vectors)):
        raise ValidationError("selected eigenvectors are numerically dependent")
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSelection(decomposition.source, idx, values, vectors)


def enumerate_model_spaces(selection: EigenSelection, cond_cap: float = util.DEFAULT_COND_CAP):
    """All legitimate model spaces for the selected vectors.

    A subset K qualifies when the d x d matrix of model-space components
    of the selected vectors is numerically invertible with condition
    number at most ``cond_cap``. The result is sorted ascending by
    condition number and holds between 1 and C(N, d) entries; linear
    independence of the vectors guarantees at least one subset exists,
    so an empty result means the cap itself rejected everything.
    """
    n, d = selection.total_dim, selection.dim
    found: list[tuple[tuple[int, ...], float]] = []
    for subset in itertools.combinations(range(1, n + 1), d):
        rows = np.asarray(subset, dtype=np.intp) - 1
        cond = util.condition_number(selection.vectors[rows, :])
        if np.isfinite(cond) and cond <= cond_cap:
            found.append((subset, float(cond)))
    if not found:
        raise CapTooTight(
            f"no subset of size {d} passed cond cap {cond_cap:.3e} "
            f"out of {math.comb(n, d)} candidates"
        )
    found.sort(key=lambda item: (item[1], item[0]))
    return found


def pivoted_model_space(vectors) -> tuple[int, ...]:
    """Well-conditioned model space chosen by column-pivoted QR.

    Takes an :class:`EigenSelection` or an (N, d) array of column vectors
    and returns the d row indices (1-based, ascending) whose square block
    the pivoting ranks best. Preferable to taking the head of
    :func:`enumerate_model_spaces` when nothing else decides the choice:
    the condition number of a 1 x 1 block is identically one, so for
    d = 1 it cannot separate a healthy projection from a vanishing one.
    """
    array = vectors.vectors if isinstance(vectors, EigenSelection) else None
    if array is None:
        array = util.as_complex_matrix(vectors, "vectors")
    d = array.shape[1]
    if not 1 <= d <= array.shape[0]:
        raise DimensionMismatch(f"need between 1 and N column vectors, got shape {array.shape}")
    _, _, pivots = scipy.linalg.qr(array.conj().T, pivoting=True)
    return tuple(sorted(int(i) + 1 for i in pivots[:d]))


def retrieve_full_vector(alpha, dm: "DecouplingMap") -> np.ndarray:
    """Rebuild the full-space vector whose model components are ``alpha``.

    The complement components follow from the decoupling map; the result
    comes back in the original (un-permuted) index order.
    """
    ms = dm.model_space
    a = util.as_complex_vector(alpha, "alpha")
    if a.shape[0] != ms.dim:
        raise DimensionMismatch(f"alpha has {a.shape[0]} entries, model space has {ms.dim}")
    out = np.zeros(ms.total_dim, dtype=np.complex128)
    out[ms.p_rows] = a
    if ms.dim < ms.total_dim:
        out[ms.q_rows] = dm.s @ a
    return out

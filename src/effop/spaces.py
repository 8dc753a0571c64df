"""Truncated-space bookkeeping.

Validated Hermitian observables, model-space index sets with their
projectors, a dense eigendecomposition in the eigensolver's ascending order,
and selection of eigenvector subsets. Every index set crossing the
public interface is 1-based; numpy internals are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances, util
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
from .tolerances import eigenpair_tolerance

__all__ = [
    "ObservableMatrix",
    "ModelSpace",
    "EigenSelection",
    "validate_hermitian",
    "eigendecompose",
    "projectors",
    "select_eigenvectors",
    "enumerate_model_spaces",
    "pivoted_model_space",
]


# eigenvector columns per step of the residual check: bounds its N x N temporaries
_MISFIT_COLUMNS = 16


@dataclass(frozen=True)
class ObservableMatrix:
    """Hermitian matrix of one observable on the truncated space.

    Construct through :func:`validate_hermitian`, which symmetrizes away
    representation noise and freezes the storage; ``norm`` and
    ``spectrum`` are computed once, on first access.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @cached_property
    def norm(self) -> float:
        """Frobenius norm, the scale used by relative tolerances."""
        return float(np.linalg.norm(self.matrix))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only ascending eigenvalues; those of :func:`eigendecompose` once it has run."""
        pairs = self.__dict__.get("_eigenpairs")
        return pairs.values if pairs is not None else util._frozen(np.linalg.eigvalsh(self.matrix))

    @cached_property
    def _eigenpairs(self) -> EigenSelection:
        """The result of :func:`eigendecompose`; it refers to nothing, so no cycle."""
        tol = eigenpair_tolerance(self)
        try:
            values, vectors = np.linalg.eigh(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"dense eigensolver did not converge: {exc}") from exc
        _normalize_phases(vectors, out=vectors)
        residual = _eigen_residual(self.matrix, vectors, values)
        if residual > tol:
            raise SolverFailure(f"eigenpair residual {residual:.3e} above tolerance {tol:.3e}")
        return EigenSelection(tuple(range(1, self.dim + 1)), util._frozen(values), util._frozen(vectors))


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
    adjoint = a.conj().T
    h = a - adjoint
    asym = float(np.abs(h).max())
    limit = tolerances.HERM_RTOL * scale
    if asym > limit:
        raise NotHermitian(f"asymmetry {asym:.3e} exceeds tolerance {limit:.3e}")
    h = np.multiply(np.add(a, adjoint, out=h), 0.5, out=h)  # reuses the buffer of a - adjoint
    h.setflags(write=False)
    return ObservableMatrix(h)


@dataclass(frozen=True)
class ModelSpace:
    """Index subset K of {1..N} selecting the model-space axes.

    ``indices`` must be strictly increasing. The complement keeps its
    natural order.
    ``p_rows`` and ``q_rows`` are the read-only 0-based numpy indices of
    the model-space and complement axes, both built once with the index sets.
    """

    total_dim: int
    indices: tuple[int, ...]

    def __post_init__(self):
        n = util.as_index(self.total_dim, "total_dim")
        if n < 1:
            raise DimensionMismatch(f"total_dim must be positive, got {n}")
        idx = validate_index_subset(self.indices, n, name="K")
        if any(a > b for a, b in itertools.pairwise(idx)):
            raise ValidationError("model-space indices must be strictly increasing")
        chosen = set(idx)
        complement = tuple(i for i in range(1, n + 1) if i not in chosen)
        object.__setattr__(self, "total_dim", n)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "_complement", complement)
        for name, axes in (("p_rows", idx), ("q_rows", complement)):
            object.__setattr__(self, name, util._frozen(np.asarray(axes, dtype=np.intp) - 1))

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def complement(self) -> tuple[int, ...]:
        return self._complement


def projectors(ms: ModelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 0/1 projector pair (P, Q) with P + Q = I exactly."""
    mask = np.zeros(ms.total_dim)
    mask[ms.p_rows] = 1.0
    return np.diag(mask), np.diag(1.0 - mask)


def _eigen_residual(matrix, vectors, values, rayleigh: bool = False) -> float:
    """Largest ``||O v - lambda v||`` over columns v, in column blocks of O V;
    with ``rayleigh``, each lambda is first set to ``Re(v' O v)`` in ``values``."""
    misfit = matrix @ vectors
    norms = np.empty(vectors.shape[1])
    for start in range(0, vectors.shape[1], _MISFIT_COLUMNS):
        cols = slice(start, start + _MISFIT_COLUMNS)
        block = misfit[:, cols]
        if rayleigh:
            values[cols] = np.real(np.sum(vectors[:, cols].conj() * block, axis=0))
        block -= vectors[:, cols] * values[cols]
        norms[cols] = np.linalg.norm(block, axis=0)
    return float(norms.max())


def _normalize_phases(vectors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive;
    a column without one is left unrotated. The result goes to ``out``,
    which may be ``vectors`` itself, or to a new array."""
    anchored = np.abs(vectors) > tolerances.PHASE_ANCHOR
    columns = np.arange(vectors.shape[1])
    first = anchored.argmax(axis=0)
    pivots = np.where(anchored[first, columns], vectors[first, columns], 1.0)
    return np.multiply(vectors, np.abs(pivots) / pivots, out=out)


def _degenerate_clusters(values, rtol: float) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of two or more ascending values whose
    neighbours lie within ``rtol * (1 + max |value|)`` of each other."""
    tie = tolerances.scaled(rtol, float(np.abs(values).max()))
    edges = [0, *(np.flatnonzero(np.diff(values) > tie) + 1).tolist(), len(values)]
    return [(start, stop) for start, stop in itertools.pairwise(edges) if stop - start > 1]


def eigendecompose(obs: ObservableMatrix) -> EigenSelection:
    """Dense Hermitian eigendecomposition: every eigenpair, as the selection
    J = (1, ..., N).

    Values come back ascending as ``eigh`` returns them, each column
    phase-normalized; inside a degenerate level the basis and its order are
    the eigensolver's. Column residuals above :func:`eigenpair_tolerance`
    raise :class:`SolverFailure`. Later calls return the first call's object.
    """
    return obs._eigenpairs


def validate_index_subset(indices, total: int, *, name: str = "J") -> tuple[int, ...]:
    """1-based subset with distinct in-range entries; order is preserved."""
    idx = util.as_indices(indices, name)
    if not idx:
        raise ValidationError(f"{name} must contain at least one index")
    if len(set(idx)) != len(idx):
        raise DuplicateIndex(f"{name} contains repeated indices: {idx}")
    for i in idx:
        if not 1 <= i <= total:
            raise IndexOutOfRange(f"{name} index {i} outside 1..{total}")
    return idx


# d-row subsets per stacked SVD: bounds the (chunk, d, d) stack whatever C(N, d) is
_SUBSET_CHUNK = 2048


@dataclass(frozen=True)
class EigenSelection:
    """Chosen eigenpairs; columns of ``vectors`` follow ``indices``, and
    :func:`eigendecompose` returns all N of them.

    The singular values of every d-row block are computed once, on the
    first enumeration, so ``vectors`` must not change after it; every
    selection the library builds holds read-only arrays.
    """

    indices: tuple[int, ...]
    values: np.ndarray   # (d,) real
    vectors: np.ndarray  # (N, d) complex columns

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def total_dim(self) -> int:
        return int(self.vectors.shape[0])

    @cached_property
    def _subset_singular_values(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(rows, sv)`` over every d-row subset of ``vectors``.

        ``rows`` holds one subset per row as ascending 0-based indices, the
        subsets in lexicographic order; ``sv`` holds the descending singular
        values of each subset's d x d block, from one stacked SVD per chunk
        of at most ``_SUBSET_CHUNK`` subsets.
        """
        n, d = self.vectors.shape
        count = math.comb(n, d)
        rows = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), d)),
                           dtype=np.intp, count=count * d).reshape(count, d)
        sv = np.empty(rows.shape)
        for start in range(0, count, _SUBSET_CHUNK):
            chunk = rows[start:start + _SUBSET_CHUNK]
            sv[start:start + len(chunk)] = np.linalg.svd(self.vectors[chunk], compute_uv=False)
        return util._frozen(rows), util._frozen(sv)


def _select(values: np.ndarray, vectors: np.ndarray, indices) -> EigenSelection:
    """Read-only copies of the pairs at the 1-based positions ``indices`` (J)."""
    idx = validate_index_subset(indices, len(values), name="J")
    cols = np.asarray(idx, dtype=np.intp) - 1
    return EigenSelection(idx, util._frozen(values[cols]), util._frozen(vectors[:, cols]))


def select_eigenvectors(decomposition: EigenSelection, indices) -> EigenSelection:
    """Pick the eigenpairs at the given 1-based positions among ``decomposition``'s."""
    selection = _select(decomposition.values, decomposition.vectors, indices)
    if np.abs(np.linalg.norm(selection.vectors, axis=0) - 1.0).max() > tolerances.UNIT_NORM_TOL:
        raise ValidationError("selected eigenvectors are not unit norm")
    if not np.isfinite(util.condition_number(selection.vectors)):
        raise ValidationError("selected eigenvectors are numerically dependent")
    return selection


def enumerate_model_spaces(selection: EigenSelection, cond_cap: float = tolerances.COND_CAP):
    """All legitimate model spaces for the selected vectors.

    A subset K qualifies when the d x d matrix of model-space components
    of the selected vectors is numerically invertible with condition
    number at most ``cond_cap``. The result is sorted ascending by
    condition number, ties by K, and holds between 1 and C(N, d)
    entries; linear independence of the vectors guarantees at least one
    subset exists, so an empty result means the cap itself rejected
    everything. The singular values come from the selection's table of
    every subset, computed once in fixed-size stacked batches.
    """
    n, d = selection.total_dim, selection.dim
    rows, sv = selection._subset_singular_values
    cond = util._conditions(sv)
    keep = np.flatnonzero(np.isfinite(cond) & (cond <= cond_cap))
    if not keep.size:
        raise CapTooTight(
            f"no subset of size {d} passed cond cap {cond_cap:.3e} "
            f"out of {math.comb(n, d)} candidates"
        )
    # the table lists subsets in lexicographic order, so a stable sort by
    # condition number leaves ties ordered by K
    order = keep[np.argsort(cond[keep], kind="stable")]
    return list(zip(map(tuple, (rows[order] + 1).tolist()), cond[order].tolist()))


def _places(taken: list[int], n: int) -> list[int]:
    """Rows in geqp3's place order after it took ``taken``: each pivot
    swapped places with the row at the first untaken place."""
    order = list(range(n))
    for i, row in enumerate(taken):
        place = order.index(row, i)
        order[i], order[place] = row, order[i]
    return order


def pivoted_model_space(vectors) -> tuple[int, ...]:
    """Well-conditioned model space chosen by greedy row pivoting.

    Takes an :class:`EigenSelection` or an (N, d) array of column vectors
    and returns the d row indices (1-based, ascending) whose square block
    the pivoting ranks best. Preferable to taking the head of
    :func:`enumerate_model_spaces` when nothing else decides the choice:
    the condition number of a 1 x 1 block is identically one, so for
    d = 1 it cannot separate a healthy projection from a vanishing one.

    Each step takes the row whose part outside the span of the rows
    already taken has the largest norm. This is column-pivoted QR of the
    adjoint (Businger & Golub 1965), and exact ties go to the first row
    in LAPACK geqp3's place order, so the choice equals geqp3's.
    """
    if isinstance(vectors, EigenSelection):
        vectors = vectors.vectors
    array = util.as_complex_matrix(vectors, "vectors")
    n, d = array.shape
    if not 1 <= d <= n:
        raise DimensionMismatch(f"need between 1 and N column vectors, got shape {array.shape}")
    flat = array.view(np.float64)
    remaining = np.einsum("ij,ij->i", flat, flat)  # squared norms outside the span taken
    # orthonormal directions of the taken rows, and every row's components along them
    basis = np.zeros((d - 1, d), dtype=np.complex128)
    components = np.zeros((n, d - 1), dtype=np.complex128)
    taken: list[int] = []
    for i in range(d):
        row = int(remaining.argmax())  # the first NaN, if there is one
        if not math.isfinite(remaining[row]):
            raise NonFinite("vectors contain NaN or Inf entries, or entries too large to square")
        if n - 1 - int(remaining[::-1].argmax()) != row:
            row = max(_places(taken, n)[i:], key=remaining.__getitem__)
        taken.append(row)
        if i + 1 == d:
            break
        remaining[row] = -math.inf
        residual = array[row] - components[row] @ basis if i else array[row]
        length = math.sqrt(np.vdot(residual, residual).real)
        if length == 0.0:  # every untaken row lies in the span already
            continue
        direction = np.divide(residual, length, out=basis[i])
        along = components[:, i] = np.dot(array, direction.conj())
        remaining -= (along * along.conj()).real
    return tuple(sorted(row + 1 for row in taken))

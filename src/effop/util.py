"""Small numerical helpers shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import DimensionMismatch, SingularProjection

__all__ = ["SpectrumMatch", "match_spectra"]


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def as_complex_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {a.shape}")
    return a


def condition_number(m) -> float:
    """2-norm condition number via SVD; inf when numerically singular."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0:
        return 1.0
    return float(_conditions(sv))


def _require_conditioned(block, what: str) -> None:
    """Raises :class:`SingularProjection` unless ``block``'s condition
    number is finite and at most ``COND_CAP``; ``what`` names the block."""
    cond = condition_number(block)
    if not (np.isfinite(cond) and cond <= tolerances.COND_CAP):
        raise SingularProjection(f"{what} have condition {cond:.3e} "
                                 f"(cap {tolerances.COND_CAP:.3e}); choose another index set")


def _conditions(sv: np.ndarray) -> np.ndarray:
    """Condition numbers from singular values sorted descending along the
    last axis; inf where the largest is zero or the smallest over the
    largest falls below ``RANK_RTOL``."""
    smax, smin = sv[..., 0], sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((smax == 0.0) | (smin / smax < tolerances.RANK_RTOL), np.inf, smax / smin)


def _modulus(z):  # bit for bit Python's abs(complex); numpy's may differ in the last place
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True)
class SpectrumMatch:
    """Outcome of matching eigenvalue multisets in sorted order."""

    matched: bool
    max_deviation: float
    rtol: float


def match_spectra(approx, exact, rtol: float = tolerances.SPECTRUM_MATCH_RTOL,
                  subset: bool = False) -> SpectrumMatch:
    """Match ``approx`` against ``exact`` without replacement, both taken
    in ascending (real, imag) order; each pair must satisfy
    |a - e| <= rtol * (1 + |e|). With ``subset=True`` the approximate
    multiset may be smaller: while spares remain, an exact value below
    the next approximate one and outside its tolerance is left out. For
    real values and rtol <= 1 this finds a matching whenever one exists.

    ``max_deviation`` is the largest pair distance of the matching; when
    a subset match fails it is instead the largest distance from an
    approximate value to its nearest exact one, a lower bound on the
    largest pair distance of any matching.
    """
    a = np.sort(np.asarray(approx, dtype=np.complex128).ravel())
    e = np.sort(np.asarray(exact, dtype=np.complex128).ravel())
    spare = e.size - a.size
    if spare < 0 or (spare and not subset):
        return SpectrumMatch(False, float("inf"), rtol)
    tol = tolerances.scaled(rtol, _modulus(e))
    pool = e
    if spare:
        keep, j = [], 0
        for z in a:
            while spare and e[j] < z and _modulus(z - e[j]) > tol[j]:
                j, spare = j + 1, spare - 1
            keep.append(j)
            j += 1
        e, tol = e[keep], tol[keep]
    dev = _modulus(a - e)
    matched = bool(np.all(dev <= tol))
    if not matched and pool.size > a.size:
        dev = _modulus(a[:, np.newaxis] - pool).min(axis=1)
    return SpectrumMatch(matched, float(dev.max(initial=0.0)), rtol)

"""Small numerical helpers shared across modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import DimensionMismatch


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


def _conditions(sv: np.ndarray) -> np.ndarray:
    """Condition numbers from singular values sorted descending along the
    last axis; inf where the largest is zero or the smallest over the
    largest falls below ``RANK_RTOL``."""
    smax, smin = sv[..., 0], sv[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((smax == 0.0) | (smin / smax < tolerances.RANK_RTOL), np.inf, smax / smin)


@dataclass(frozen=True)
class SpectrumMatch:
    """Outcome of greedy nearest-neighbour matching of eigenvalue multisets."""

    matched: bool
    max_deviation: float
    rtol: float


def match_spectra(approx, exact, rtol: float = tolerances.SPECTRUM_MATCH_RTOL,
                  subset: bool = False) -> SpectrumMatch:
    """Greedily match ``approx`` against ``exact`` without replacement.

    Each pairing must satisfy |a - e| <= rtol * (1 + |e|). With
    ``subset=True`` the approximate multiset may be smaller than the
    exact one; otherwise the sizes must agree.
    """
    a_list = np.asarray(approx, dtype=np.complex128).ravel().tolist()
    e_list = np.asarray(exact, dtype=np.complex128).ravel().tolist()
    size_bad = len(a_list) > len(e_list) if subset else len(a_list) != len(e_list)
    if size_bad:
        return SpectrumMatch(False, float("inf"), rtol)
    a_list.sort(key=lambda z: (z.real, z.imag))
    remaining = list(e_list)
    matched = True
    worst = 0.0
    for z in a_list:
        dists = [abs(z - w) for w in remaining]
        j = int(np.argmin(dists))
        w = remaining.pop(j)
        dev = abs(z - w)
        worst = max(worst, dev)
        if dev > rtol * (1.0 + abs(w)):
            matched = False
    return SpectrumMatch(matched, worst, rtol)

"""Seeded problem generators for tests and the CLI.

Every generator is a pure function of its spec; the 64-bit seed drives
a PCG64 stream, so the same spec reproduces the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidSpec
from ..observables import CommutingSet, verify_commuting
from ..spaces import ObservableMatrix, eigendecompose, validate_hermitian

__all__ = [
    "KINDS",
    "PRNG_ID",
    "ProblemSpec",
    "generate",
    "gap_separated",
    "commuting_partners",
]

KINDS = ("random_hermitian", "planted_spectrum", "tridiagonal_chain", "commuting_family")
PRNG_ID = "numpy-PCG64"


@dataclass(frozen=True)
class ProblemSpec:
    """Fully seeded description of a generated problem instance."""

    kind: str
    dim: int
    seed: int
    spectrum: tuple[float, ...] | None = None  # planted_spectrum only
    coupling: float = 0.1                      # tridiagonal_chain only
    family_size: int = 2                       # commuting_family only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.dim < 2:
            raise InvalidSpec(f"dim must be at least 2, got {self.dim}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be non-negative, got {self.seed}")
        if self.spectrum is not None:
            spectrum = tuple(float(x) for x in self.spectrum)
            if len(spectrum) != self.dim:
                raise InvalidSpec(f"spectrum length {len(spectrum)} != dim {self.dim}")
            object.__setattr__(self, "spectrum", spectrum)
        if self.family_size < 1:
            raise InvalidSpec(f"family_size must be at least 1, got {self.family_size}")


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def _random_hermitian(n: int, rng) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def generate(spec: ProblemSpec):
    """Deterministic instance for a spec; returns an :class:`ObservableMatrix`
    or, for ``commuting_family``, a :class:`CommutingSet`."""
    rng = np.random.default_rng(spec.seed)
    n = spec.dim
    if spec.kind == "random_hermitian":
        return validate_hermitian(_random_hermitian(n, rng))
    if spec.kind == "planted_spectrum":
        planted = np.array(
            spec.spectrum if spec.spectrum is not None else range(1, n + 1), dtype=float
        )
        v = haar_unitary(n, rng)
        return validate_hermitian((v * planted) @ v.conj().T)
    if spec.kind == "tridiagonal_chain":
        m = np.diag(np.arange(1.0, n + 1.0))
        off = np.full(n - 1, float(spec.coupling))
        m += np.diag(off, 1) + np.diag(off, -1)
        return validate_hermitian(m)
    # commuting_family: one Haar basis shared by every member
    v = haar_unitary(n, rng)
    members = []
    for sig in range(spec.family_size):
        lam = rng.uniform(-4.0, 4.0, size=n)
        if sig == 0:
            lam = np.sort(lam)
        members.append(validate_hermitian((v * lam) @ v.conj().T))
    return verify_commuting(members)


def gap_separated(dim: int, d: int, *, gap: float = 1.0, coupling: float = 0.1,
                  seed: int = 0) -> ObservableMatrix:
    """Instance whose lowest-d eigenvectors dominate the leading axes.

    Ascending diagonal with a spectral gap after the d-th entry, plus a
    random Hermitian off-diagonal coupling of bounded magnitude. This is
    the regime in which the fixed-point solver provably tracks the
    lowest states.
    """
    if not 1 <= d < dim:
        raise InvalidSpec(f"need 1 <= d < dim, got d={d}, dim={dim}")
    rng = np.random.default_rng(seed)
    low = np.sort(rng.uniform(0.0, 1.0, size=d))
    high = np.sort(rng.uniform(0.0, 3.0, size=dim - d)) + low[-1] + gap
    m = np.diag(np.concatenate([low, high])).astype(np.complex128)
    c = _random_hermitian(dim, rng)
    np.fill_diagonal(c, 0.0)
    peak = float(np.abs(c).max())
    if peak > 0.0:
        c *= coupling / peak
    return validate_hermitian(m + c)


def commuting_partners(obs: ObservableMatrix, count: int, seed: int = 0) -> CommutingSet:
    """Commuting family sharing the eigenbasis of ``obs`` (member 1)."""
    decomposition = eigendecompose(obs)
    rng = np.random.default_rng(seed)
    members = [obs]
    v = decomposition.vectors
    for _ in range(count):
        lam = rng.uniform(-4.0, 4.0, size=obs.dim)
        members.append(validate_hermitian((v * lam) @ v.conj().T))
    return verify_commuting(members)

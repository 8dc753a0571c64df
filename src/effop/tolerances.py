"""Numerical policy: every threshold the library's checks apply.

One rule, so no verdict depends on the units of O: a threshold on a quantity
that follows ``O -> cO`` is its rtol times the scale of the observable it came
from, ``||O||_F`` for residuals and matrices, the spectral radius ``max |lambda|``
for eigenvalues and ties, ``||O_i||_F ||O_j||_F`` for a commutator; 0 for O = 0.
What does not follow O (s, unit-vector components, condition numbers) keeps a
scale-free tolerance. The ``*_tolerance`` helpers take anything with a ``norm``.
"""

import numpy as np

# Input and eigendecomposition
HERM_RTOL = 1e-12         # asymmetry, relative to max |O_ij|
EIG_RTOL = 1e-10          # eigenpair residual ||O v - lambda v||, relative to ||O||_F
PHASE_ANCHOR = 1e-8       # scale-free: smallest |v_i| of a unit eigenvector that fixes its phase
UNIT_NORM_TOL = 1e-8      # scale-free: deviation of a selected eigenvector's norm from 1

# Invertibility of projected blocks (ratios of singular values)
RANK_RTOL = 1e-12         # smallest over largest singular value below which a block is singular
COND_CAP = 1e12           # largest condition number of an accepted model-space block

# Decoupling and the invariant subspace
DECOUPLED_RTOL = 1e-9     # residual ||b_dag + f s - s (a + b s)||_F, relative to ||O||_F
MEMBERSHIP_RTOL = 1e-8    # ||Q psi - s P psi||, relative to ||psi||
CLASSIFY_RTOL = 1e-8      # residuals, relative to ||O||_F times the vector's norm; eigenvalue
                          # distances, to O's spectral radius; component norms, to ||phi||

# Spectrum matching, each pair |a - e| relative to max |e|, O's spectral radius
SPECTRUM_MATCH_RTOL = 1e-8        # match_spectra and the block factorization
DECOMPOSITION_MATCH_RTOL = 1e-9   # union of the block spectra of a decomposition

# Commuting sets
COMM_RTOL = 1e-10         # commutator norm ||[O_i, O_j]||_F of the members or of their first-type
                          # representatives, relative to ||O_i||_F ||O_j||_F
CLUSTER_RTOL = 1e-8       # each member's ties that order the joint eigenvalue tuples, and the
                          # gaps between tuples, relative to that member's spectral radius

# Fixed-point solver; s is invariant under O -> cO, so what measures s stays absolute
SOLVER_TOL = 1e-11            # residual at convergence, relative to ||O||_F;
                              # absolute for the relative step ||ds||_F / max(1, ||s||_F)
SPECTRA_DISJOINT_TOL = 1e-10  # smallest gap between the spectra of a and f, relative to ||O||_F
DIVERGENCE_CAP = 1e8          # scale-free: iterate norm ||s||_F that counts as divergence


def decoupled_tolerance(obs) -> float:
    """Residual level below which an observable counts as decoupled."""
    return DECOUPLED_RTOL * obs.norm


def eigenpair_tolerance(obs) -> float:
    """Eigenpair residual level accepted for an observable."""
    return EIG_RTOL * obs.norm


def commuting_tolerance(members) -> np.ndarray:
    """(c, c) commutator norms below which each pair of members commutes;
    a commutator follows both members' scales, so its tolerance does too."""
    norms = np.array([m.norm for m in members])
    return COMM_RTOL * np.outer(norms, norms)

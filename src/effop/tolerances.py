"""Numerical policy: every threshold the library's checks apply.

A relative tolerance is multiplied by the scale named in its comment; an
absolute one is compared as it stands, so it does not follow ``O -> cO``.
:func:`scaled` is the one place the ``1 + x`` scale is applied; the
``*_tolerance`` helpers take anything with a Frobenius ``norm``.
"""

import numpy as np

# Input and eigendecomposition
HERM_RTOL = 1e-12         # asymmetry, relative to max |O_ij|
EIG_RTOL = 1e-10          # eigenpair residual ||O v - lambda v||, relative to 1 + ||O||_F
PHASE_ANCHOR = 1e-8       # absolute: smallest |v_i| of a unit eigenvector that fixes its phase
UNIT_NORM_TOL = 1e-8      # absolute: deviation of a selected eigenvector's norm from 1

# Invertibility of projected blocks (ratios of singular values)
RANK_RTOL = 1e-12         # smallest over largest singular value below which a block is singular
COND_CAP = 1e12           # largest condition number of an accepted model-space block

# Decoupling and the invariant subspace
DECOUPLED_RTOL = 1e-9     # residual ||b_dag + f s - s (a + b s)||_F, relative to 1 + ||O||_F
MEMBERSHIP_RTOL = 1e-8    # ||Q psi - s P psi||, relative to ||psi||
CLASSIFY_RTOL = 1e-8      # residuals, relative to (1 + |lambda|) ||phi|| or (1 + ||O||_F) ||Q phi||;
                          # component norms, relative to ||phi||

# Spectrum matching, each pair |a - e| relative to 1 + |e|
SPECTRUM_MATCH_RTOL = 1e-8        # match_spectra and the block factorization
DECOMPOSITION_MATCH_RTOL = 1e-9   # union of the block spectra of a decomposition

# Commuting sets
COMM_RTOL = 1e-10         # commutator norm ||[O_i, O_j]||_F, relative to ||O_i||_F ||O_j||_F
EFFECTIVE_COMM_TOL = 1e-9 # absolute: commutator norm of first-type representatives
CLUSTER_RTOL = 1e-8       # joint-basis mix cluster, tuple-order cluster and tuple gap,
                          # relative to 1 + max |value|

# Fixed-point solver; s is invariant under O -> cO, so what measures s stays absolute
SOLVER_TOL = 1e-11            # residual at convergence, relative to ||O||_F;
                              # absolute for the relative step ||ds||_F / max(1, ||s||_F)
SPECTRA_DISJOINT_TOL = 1e-10  # smallest gap between the spectra of a and f, relative to ||O||_F
DIVERGENCE_CAP = 1e8          # absolute: iterate norm ||s||_F that counts as divergence


def scaled(rtol, magnitude):
    """``rtol * (1 + magnitude)``: a relative tolerance on a quantity that
    follows ``O -> cO``, floored at ``rtol`` where the magnitude is small.
    Elementwise on arrays."""
    return rtol * (1.0 + magnitude)


def decoupled_tolerance(obs) -> float:
    """Residual level below which an observable counts as decoupled."""
    return scaled(DECOUPLED_RTOL, obs.norm)


def eigenpair_tolerance(obs) -> float:
    """Eigenpair residual level accepted for an observable."""
    return scaled(EIG_RTOL, obs.norm)


def commuting_tolerance(members) -> np.ndarray:
    """(c, c) commutator norms below which each pair of members commutes;
    a commutator follows both members' scales, so its tolerance does too."""
    norms = np.array([m.norm for m in members])
    return COMM_RTOL * np.outer(norms, norms)

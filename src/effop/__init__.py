"""Effective operators on truncated Hermitian eigenproblems.

Reduce an N-dimensional Hermitian observable onto a chosen model space
with a block-triangular similarity transform: build the decoupling map
directly from selected eigenvectors or iteratively from the decoupling
equation, extract the spectral (first-type) and Hermitian
matrix-element (second-type) representatives, and reduce whole
commuting sets while preserving their symmetries.

The public names are those in each module's ``__all__``; that list is
the one place a name is declared.
"""

from . import effective, errors, harness, observables, solver, spaces, tolerances, transform, util
from .effective import *
from .observables import *
from .solver import *
from .spaces import *
from .transform import *
from .util import *

__version__ = "0.1.0"

__all__ = ["errors", "harness", "tolerances", *spaces.__all__, *transform.__all__,
           *solver.__all__, *effective.__all__, *observables.__all__, *util.__all__]

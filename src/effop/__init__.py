"""Effective operators on truncated Hermitian eigenproblems.

Reduce an N-dimensional Hermitian observable onto a chosen model space
with a block-triangular similarity transform: build the decoupling map
directly from selected eigenvectors or iteratively from the decoupling
equation, extract the spectral (first-type) and Hermitian
matrix-element (second-type) representatives, and reduce whole
commuting sets while preserving their symmetries.
"""

from . import errors, harness, tolerances
from .effective import (
    EffectiveOperator,
    EffectivePair,
    EigenvectorClassification,
    OverlapMatrix,
    classify_eigenvector,
    equivalence_transform,
    expansion_coefficients,
    expectation_first_type,
    expectation_second_type,
    first_type,
    matrix_element,
    membership_residual,
    overlap_matrix,
    q_block_and_factorization,
    second_type,
    spectral_reconstruct,
)
from .observables import (
    BlockReduction,
    CommutatorReport,
    CommutingSet,
    SimultaneousBasis,
    SpaceDecomposition,
    common_s,
    decompose_space,
    effective_set,
    second_type_only,
    selection_from_basis,
    simultaneous_eigenbasis,
    verify_commuting,
)
from .solver import (
    SolverConfig,
    SolverTrace,
    TraceStep,
    residual_history,
    solve_decoupling_fixed_point,
)
from .spaces import (
    EigenSelection,
    Eigendecomposition,
    ModelSpace,
    ObservableMatrix,
    eigendecompose,
    enumerate_model_spaces,
    pivoted_model_space,
    projectors,
    retrieve_full_vector,
    select_eigenvectors,
    validate_hermitian,
)
from .transform import (
    DecouplingMap,
    DirectProvenance,
    IterativeProvenance,
    TransformedBlocks,
    assemble_blocks,
    construct_s_direct,
    construct_s_from_span,
    decoupled_tolerance,
    decoupling_residual,
    exp_s,
    is_decoupled,
    partition_blocks,
    similarity_transform,
    transformed_blocks,
)
from .util import SpectrumMatch, match_spectra

__version__ = "0.1.0"

__all__ = [
    "errors",
    "harness",
    "tolerances",
    # spaces
    "ObservableMatrix",
    "ModelSpace",
    "Eigendecomposition",
    "EigenSelection",
    "validate_hermitian",
    "eigendecompose",
    "projectors",
    "select_eigenvectors",
    "enumerate_model_spaces",
    "pivoted_model_space",
    "retrieve_full_vector",
    # transform
    "DecouplingMap",
    "DirectProvenance",
    "IterativeProvenance",
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
    # solver
    "SolverConfig",
    "SolverTrace",
    "TraceStep",
    "solve_decoupling_fixed_point",
    "residual_history",
    # effective
    "EffectiveOperator",
    "EffectivePair",
    "OverlapMatrix",
    "EigenvectorClassification",
    "first_type",
    "second_type",
    "q_block_and_factorization",
    "classify_eigenvector",
    "overlap_matrix",
    "expansion_coefficients",
    "spectral_reconstruct",
    "matrix_element",
    "expectation_first_type",
    "expectation_second_type",
    "equivalence_transform",
    "membership_residual",
    # observables
    "CommutingSet",
    "SimultaneousBasis",
    "CommutatorReport",
    "BlockReduction",
    "SpaceDecomposition",
    "verify_commuting",
    "simultaneous_eigenbasis",
    "selection_from_basis",
    "common_s",
    "effective_set",
    "second_type_only",
    "decompose_space",
    # util
    "SpectrumMatch",
    "match_spectra",
]

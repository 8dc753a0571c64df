"""The package namespaces: each public name is declared once, in its
module's ``__all__``, and the packages export exactly those names."""

import importlib

import pytest

import effop
import effop.harness

EFFOP_NAMES = [
    "errors", "harness", "tolerances",
    # spaces
    "ObservableMatrix", "ModelSpace", "Eigendecomposition", "EigenSelection",
    "validate_hermitian", "eigendecompose", "projectors", "select_eigenvectors",
    "enumerate_model_spaces", "pivoted_model_space", "retrieve_full_vector",
    # transform
    "DecouplingMap", "DirectProvenance", "IterativeProvenance", "TransformedBlocks",
    "construct_s_direct", "construct_s_from_span", "exp_s", "similarity_transform",
    "transformed_blocks", "assemble_blocks", "partition_blocks", "decoupling_residual",
    "decoupled_tolerance", "is_decoupled",
    # solver
    "SolverConfig", "SolverTrace", "TraceStep", "solve_decoupling_fixed_point",
    "residual_history",
    # effective
    "EffectiveOperator", "EffectivePair", "OverlapMatrix", "EigenvectorClassification",
    "first_type", "second_type", "q_block_and_factorization", "classify_eigenvector",
    "overlap_matrix", "expansion_coefficients", "spectral_reconstruct", "matrix_element",
    "expectation_first_type", "expectation_second_type", "equivalence_transform",
    "membership_residual",
    # observables
    "CommutingSet", "SimultaneousBasis", "CommutatorReport", "BlockReduction",
    "SpaceDecomposition", "verify_commuting", "simultaneous_eigenbasis",
    "selection_from_basis", "common_s", "effective_set", "second_type_only",
    "decompose_space",
    # util
    "SpectrumMatch", "match_spectra",
]

HARNESS_NAMES = [
    # generate
    "KINDS", "PRNG_ID", "ProblemSpec", "generate", "gap_separated", "commuting_partners",
    # matio
    "read_matrix", "write_matrix", "read_observable", "write_observable",
    "read_decoupling_map", "write_decoupling_map", "write_effective",
    # report
    "CheckResult", "Report",
    # verify
    "run_verification",
]

EFFOP_MODULES = ("spaces", "transform", "solver", "effective", "observables", "util")
HARNESS_MODULES = ("generate", "matio", "report", "verify")
CASES = [
    (effop, EFFOP_NAMES, EFFOP_MODULES, {"errors", "harness", "tolerances"}),
    (effop.harness, HARNESS_NAMES, HARNESS_MODULES, set()),
]


@pytest.mark.parametrize("package, names, modules, subpackages", CASES)
def test_package_exports_exactly_its_modules_names(package, names, modules, subpackages):
    assert len(names) == len(set(names))
    assert len(package.__all__) == len(set(package.__all__))
    assert sorted(package.__all__) == sorted(names)
    declared = set(subpackages)
    for name in modules:
        declared |= set(importlib.import_module(f"{package.__name__}.{name}").__all__)
    assert set(package.__all__) == declared


@pytest.mark.parametrize("package, names, modules, subpackages", CASES)
def test_package_names_are_their_modules_objects(package, names, modules, subpackages):
    for name in subpackages:
        assert getattr(package, name) is importlib.import_module(f"{package.__name__}.{name}")
    for module_name in modules:
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        for name in module.__all__:
            assert getattr(package, name) is getattr(module, name), (module_name, name)

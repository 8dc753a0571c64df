"""The package namespaces: each public name is declared once, in its
module's ``__all__``, and the packages export exactly those names; and
each module imports only from the layers below it."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import effop
import effop.harness

EFFOP_NAMES = [
    "errors", "harness", "tolerances",
    # spaces
    "ObservableMatrix", "ModelSpace", "EigenSelection",
    "validate_hermitian", "eigendecompose", "projectors", "select_eigenvectors",
    "enumerate_model_spaces", "pivoted_model_space",
    # transform
    "DecouplingMap", "Provenance", "TransformedBlocks",
    "retrieve_full_vector",
    "construct_s_direct", "construct_s_from_span", "exp_s", "similarity_transform",
    "transformed_blocks", "assemble_blocks", "decoupling_residual",
    # solver
    "SolverConfig", "SolverTrace", "TraceStep", "solve_decoupling_fixed_point",
    # effective
    "EffectiveOperator", "EffectivePair", "OverlapMatrix", "EigenvectorClassification",
    "first_type", "second_type", "q_block_and_factorization", "classify_eigenvector",
    "overlap_matrix", "expansion_coefficients", "spectral_reconstruct", "matrix_element",
    "expectation_first_type", "expectation_second_type", "equivalence_transform",
    # observables
    "CommutingSet", "SimultaneousBasis", "CommutatorReport", "BlockReduction",
    "SpaceDecomposition", "verify_commuting", "simultaneous_eigenbasis",
    "selection_from_basis", "common_s", "effective_set", "decompose_space",
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


@pytest.mark.parametrize("package", [effop, effop.harness])
def test_no_public_name_is_an_alias(package):
    bound = {}
    for name in package.__all__:
        other = bound.setdefault(id(getattr(package, name)), name)
        assert other == name, f"{name} is an alias of {other}"


# a representative or a reduction carries its map: these take no map,
# model space or selection beside it
SIGNATURES = {
    "matrix_element": ["psi", "phi", "op"],
    "expectation_second_type": ["op", "psi"],
    "equivalence_transform": ["op", "other"],
    "assemble_blocks": ["blocks"],
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_representative_functions_read_the_map_off_the_representative(name):
    assert list(inspect.signature(getattr(effop, name)).parameters) == SIGNATURES[name]


# lowest layer first; modules on one line are peers and import neither of each other
LAYERS = [
    ("errors",), ("tolerances",), ("util",), ("spaces",), ("transform",),
    ("solver", "effective"), ("observables",), ("harness.generate",), ("harness.matio",),
    ("harness.report",), ("harness.verify",), ("harness.cli",),
]
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _relative_imports(path: Path, module: str):
    """``(line, imported module)`` of every relative import in the file,
    ``TYPE_CHECKING`` blocks and function bodies included."""
    package = module.split(".")[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) - node.level + 1]
            if node.module:
                yield node.lineno, ".".join([*base, node.module])
            else:
                for alias in node.names:
                    yield node.lineno, ".".join([*base, alias.name])


def test_modules_import_only_lower_layers():
    root = Path(effop.__file__).parent
    modules = {}
    for path in sorted(root.rglob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            modules[".".join(path.relative_to(root).with_suffix("").parts)] = path
    assert sorted(modules) == sorted(RANK)
    for module, path in modules.items():
        for line, imported in _relative_imports(path, module):
            assert RANK[imported] < RANK[module], f"{module}:{line} imports {imported}"


def test_only_util_checks_array_shapes():
    """Lengths and shapes of array arguments are checked by ``util.as_complex_*``
    alone, so no other module may spell their messages."""
    root = Path(effop.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if path == root / "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                for phrase in ("has shape", "entries, expected"):
                    assert phrase not in node.value, f"{path.name}:{node.lineno} checks a shape"

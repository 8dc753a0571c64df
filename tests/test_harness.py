import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import effop
from effop import observables, spaces, transform
from effop.errors import DimensionMismatch, InvalidSpec, MatrixFileError
from effop.harness import (
    ProblemSpec,
    Report,
    commuting_partners,
    gap_separated,
    generate,
    read_decoupling_map,
    read_matrix,
    read_observable,
    run_verification,
    write_decoupling_map,
    write_matrix,
    write_observable,
)
from effop.harness import cli
from effop.harness.verify import _enumeration_agrees
from effop.spaces import (
    EigenSelection,
    ModelSpace,
    eigendecompose,
    enumerate_model_spaces,
    pivoted_model_space,
    select_eigenvectors,
    validate_hermitian,
)
from effop.tolerances import COND_CAP
from effop.transform import DecouplingMap, DirectProvenance


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "effop", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_generate_planted_round_trip():
    obs = generate(ProblemSpec("planted_spectrum", dim=4, seed=7, spectrum=(1, 2, 3, 4)))
    dec = eigendecompose(obs)
    assert np.abs(dec.values - [1.0, 2.0, 3.0, 4.0]).max() <= 1e-10


def test_generate_tridiagonal_hand():
    obs = generate(ProblemSpec("tridiagonal_chain", dim=2, seed=0, coupling=0.1))
    assert np.allclose(obs.matrix, [[1.0, 0.1], [0.1, 2.0]])


def test_generate_deterministic():
    spec = ProblemSpec("random_hermitian", dim=6, seed=123)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.matrix, b.matrix)


def test_generate_commuting_family_shares_basis():
    family = generate(ProblemSpec("commuting_family", dim=5, seed=4, family_size=3))
    assert family.size == 3
    assert family.commutator_norms.max() <= 1e-12


def test_generate_invalid_specs():
    with pytest.raises(InvalidSpec):
        ProblemSpec("random_hermitian", dim=1, seed=0)
    with pytest.raises(InvalidSpec):
        ProblemSpec("mystery", dim=4, seed=0)
    with pytest.raises(InvalidSpec):
        ProblemSpec("planted_spectrum", dim=4, seed=0, spectrum=(1.0, 2.0))
    with pytest.raises(InvalidSpec):
        ProblemSpec("commuting_family", dim=4, seed=0, family_size=0)
    with pytest.raises(InvalidSpec):
        gap_separated(4, 4, seed=0)


def test_gap_separated_structure():
    obs = gap_separated(8, 3, gap=1.0, coupling=0.1, seed=5)
    diag = np.diag(obs.matrix).real
    assert diag[3:].min() - diag[:3].max() >= 1.0
    off = obs.matrix - np.diag(np.diag(obs.matrix))
    assert np.abs(off).max() <= 0.1 + 1e-12


def test_commuting_partners_include_source():
    obs = generate(ProblemSpec("random_hermitian", dim=5, seed=6))
    family = commuting_partners(obs, 2, seed=8)
    assert family.size == 3
    assert family.members[0] is obs


def test_matio_square_round_trip(tmp_path):
    obs = generate(ProblemSpec("random_hermitian", dim=5, seed=10))
    path = tmp_path / "m.mat"
    write_observable(path, obs, ["round trip"])
    back, comments = read_observable(path)
    assert np.array_equal(back.matrix, obs.matrix)
    assert comments == ["round trip"]


def test_matio_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.mat"
    path.write_text("# leading note\n\n2\n1 0 0 0\n\n# interior note\n0 0 1 0\n")
    matrix, comments = read_matrix(path)
    assert np.array_equal(matrix, np.eye(2, dtype=complex))
    assert comments == ["leading note", "interior note"]


def test_matio_malformed_files(tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("2\n1 0 0 0\n")
    with pytest.raises(MatrixFileError):
        read_matrix(bad)
    bad.write_text("2\n1 0 0\n0 0 1\n")
    with pytest.raises(MatrixFileError):
        read_matrix(bad)
    bad.write_text("x\n")
    with pytest.raises(MatrixFileError):
        read_matrix(bad)
    bad.write_text("# only comments\n")
    with pytest.raises(MatrixFileError):
        read_matrix(bad)


_SPECIAL = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e-300, 1.0])


@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (0, 0)])
def test_matio_round_trip_is_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(sum(shape))
    floats = rng.choice(_SPECIAL, size=(*shape, 2))
    floats.flat[: min(floats.size, _SPECIAL.size)] = _SPECIAL[: floats.size]
    matrix = floats.view(np.complex128)[..., 0]
    path = tmp_path / "special.mat"
    write_matrix(path, matrix)
    back, _ = read_matrix(path)
    assert back.shape == shape
    assert back.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("text,where", [
    ("# only comments\n", ": missing row count line"),
    ("# note\n\nx\n", ":3: expected the row count, got 'x'"),
    ("# note\n-1\n", ":2: negative row count"),
    ("2\n1 0 0 0\n0 0 1_0 0\n", ":3: non-numeric entry"),
    ("1\n1 0 ١ 0\n", ":2: non-numeric entry"),
    ("1\n1 0 # 0\n", ":2: non-numeric entry"),
    ("3\n1 0 0 x\n", ":2: non-numeric entry"),
    ("2\n\n1 0 0\n1 x\n", ":3: odd float count; entries are (re, im) pairs"),
    ("3\n1 0\n# note\n0 1\n", ": declared 3 rows, found 2"),
    ("0\n1 0\n", ": declared 0 rows, found 1"),
    ("2\n1 0 0 0\n1 0\n", ": rows have inconsistent entry counts"),
])
def test_matio_error_names_file_and_line(tmp_path, text, where):
    path = tmp_path / "bad.mat"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MatrixFileError) as excinfo:
        read_matrix(path)
    assert str(excinfo.value) == f"{path}{where}"


def test_matio_zero_width_rows_rejected_before_writing(tmp_path):
    path = tmp_path / "z.mat"
    with pytest.raises(DimensionMismatch):
        write_matrix(path, np.zeros((3, 0)))
    assert not path.exists()
    for shape in [(0, 3), (0, 0)]:
        write_matrix(path, np.zeros(shape))
        matrix, _ = read_matrix(path)
        assert matrix.shape == (0, 0)


def test_matio_decoupling_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    ms = ModelSpace(5, (1, 3))
    s = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    dm = DecouplingMap(ms, s, DirectProvenance((2, 4)))
    path = tmp_path / "s.mat"
    write_decoupling_map(path, dm)
    back = read_decoupling_map(path)
    assert back.model_space == ms
    assert np.array_equal(back.s, s)
    assert back.provenance == DirectProvenance((2, 4))


def test_matio_decoupling_requires_header(tmp_path):
    path = tmp_path / "s.mat"
    write_matrix(path, np.zeros((1, 1), dtype=complex))
    with pytest.raises(MatrixFileError):
        read_decoupling_map(path)


def test_report_line_format():
    report = Report(provenance={"seed": 3})
    report.add("alpha", 1e-12, 1e-9)
    report.add("beta", 2.0, 1.0)
    lines = report.lines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "CHECK alpha pass residual=1.000000e-12 tol=1.000000e-09"
    assert lines[2].startswith("CHECK beta fail")
    assert not report.all_passed


def test_report_merge_keeps_worst_margin_in_either_order():
    passing, failing = (5e-10, 1e-9), (2e-10, 1e-10)
    for first, second in ((passing, failing), (failing, passing)):
        report = Report()
        report.add("merged", *first)
        report.add("merged", *second)
        assert report.lines() == ["CHECK merged fail residual=2.000000e-10 tol=1.000000e-10"]
        assert not report.all_passed


def test_run_verification_green():
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=200))
    report = run_verification(obs, d=3, trials=20, seed=1)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.all_passed, failing


def test_run_verification_green_on_structured_inputs():
    # chains concentrate eigenvectors on few axes and identity is fully
    # degenerate; both once broke automatic model-space selection
    chain = generate(ProblemSpec("tridiagonal_chain", dim=10, seed=0, coupling=0.2))
    report = run_verification(chain, d=3, trials=8, seed=4)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]
    eye = validate_hermitian(np.eye(5))
    report = run_verification(eye, d=2, trials=5, seed=6)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_run_verification_degenerate_planted():
    obs = generate(ProblemSpec("planted_spectrum", dim=6, seed=2,
                               spectrum=(1.0, 1.0, 2.0, 3.0, 4.0, 5.0)))
    report = run_verification(obs, d=2, trials=8, seed=3)
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_enumeration_agreement_detects_mutated_candidates():
    # 25 rows, so the subsets span two stacked-SVD chunks; every fourth row
    # is zero, so some subsets are exactly rank deficient
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((25, 3)) + 1j * rng.standard_normal((25, 3))
    vectors[::4] = 0.0
    sel = EigenSelection(None, (1, 2, 3), np.zeros(3), vectors)
    candidates = enumerate_model_spaces(sel)
    assert _enumeration_agrees(sel, candidates, COND_CAP)
    # the lexicographically last candidate lies in the second chunk
    last = max(range(len(candidates)), key=lambda i: candidates[i][0])
    for dropped in (0, last):
        assert not _enumeration_agrees(sel, candidates[:dropped] + candidates[dropped + 1:],
                                       COND_CAP)
    deficient = (1, 2, 3)  # row 1 is zero
    assert deficient not in dict(candidates)
    assert not _enumeration_agrees(sel, [*candidates, (deficient, 1.0)], COND_CAP)


def test_cli_gen_solve_direct_hand(tmp_path):
    matrix = tmp_path / "sx.mat"
    matrix.write_text("2\n0 0 1 0\n1 0 0 0\n")
    out_s = tmp_path / "s.mat"
    result = _run_cli("solve-direct", "--matrix", str(matrix), "--J", "2",
                      "--K", "1", "--out-s", str(out_s))
    assert result.returncode == 0, result.stderr
    assert "O_eff eigenvalues: 1" in result.stdout
    assert "decoupling residual: 0.000000e+00" in result.stdout
    dm = read_decoupling_map(out_s)
    assert abs(dm.s[0, 0] - 1.0) < 1e-12


def test_cli_solve_iter_weak_coupling(tmp_path):
    matrix = tmp_path / "w.mat"
    matrix.write_text("2\n1 0 0.1 0\n0.1 0 3 0\n")
    result = _run_cli("solve-iter", "--matrix", str(matrix), "--K", "1")
    assert result.returncode == 0, result.stderr
    assert "s: -0.049875621" in result.stdout
    assert "O_eff eigenvalues: 0.995012437" in result.stdout


def test_cli_effective_first_and_second(tmp_path):
    matrix = tmp_path / "sx.mat"
    matrix.write_text("2\n0 0 1 0\n1 0 0 0\n")
    s_path = tmp_path / "s.mat"
    assert _run_cli("solve-direct", "--matrix", str(matrix), "--J", "2",
                    "--K", "1", "--out-s", str(s_path)).returncode == 0
    eff_path = tmp_path / "eff.mat"
    result = _run_cli("effective", "--matrix", str(matrix), "--s", str(s_path),
                      "--K", "1", "--out", str(eff_path))
    assert result.returncode == 0, result.stderr
    first, comments = read_matrix(eff_path)
    assert abs(first[0, 0] - 1.0) < 1e-12
    assert any(c.startswith("K=1") for c in comments)
    bar_path = tmp_path / "bar.mat"
    result = _run_cli("effective", "--matrix", str(matrix), "--s", str(s_path),
                      "--second-type", "--out", str(bar_path))
    assert result.returncode == 0, result.stderr
    second, _ = read_matrix(bar_path)
    assert abs(second[0, 0] - 2.0) < 1e-12


def test_cli_effective_k_mismatch_exits_one(tmp_path):
    matrix = tmp_path / "sx.mat"
    matrix.write_text("2\n0 0 1 0\n1 0 0 0\n")
    s_path = tmp_path / "s.mat"
    _run_cli("solve-direct", "--matrix", str(matrix), "--J", "2",
             "--K", "1", "--out-s", str(s_path))
    result = _run_cli("effective", "--matrix", str(matrix), "--s", str(s_path),
                      "--K", "2", "--out", str(tmp_path / "x.mat"))
    assert result.returncode == 1
    assert "does not match" in result.stderr


def test_cli_enumerate(tmp_path):
    matrix = tmp_path / "sx.mat"
    matrix.write_text("2\n0 0 1 0\n1 0 0 0\n")
    result = _run_cli("enumerate", "--matrix", str(matrix), "--J", "2")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("K=1 cond=")
    assert lines[1].startswith("K=2 cond=")


def test_cli_decompose(tmp_path):
    base = tmp_path / "fam.mat"
    result = _run_cli("gen", "--kind", "commuting_family", "--dim", "6",
                      "--seed", "3", "--family-size", "2", "--out", str(base))
    assert result.returncode == 0, result.stderr
    member_paths = result.stdout.split()
    assert len(member_paths) == 2
    plan = tmp_path / "plan.txt"
    plan.write_text("# two blocks\nblock: J=1,2,3 K=1,2,3\nblock: J=4,5,6 K=1,2,3\n")
    result = _run_cli("decompose", "--set", ",".join(member_paths), "--plan", str(plan))
    assert result.returncode == 0, result.stderr
    assert "block 1:" in result.stdout
    assert "member 1 spectrum union: pass" in result.stdout
    assert "member 2 spectrum union: pass" in result.stdout


def test_cli_verify_green(tmp_path):
    matrix = tmp_path / "g.mat"
    assert _run_cli("gen", "--kind", "random_hermitian", "--dim", "8",
                    "--seed", "12", "--out", str(matrix)).returncode == 0
    result = _run_cli("verify", "--matrix", str(matrix), "--d", "3",
                      "--trials", "10", "--seed", "5")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "fail" not in result.stdout


def test_cli_exit_codes(tmp_path):
    matrix = tmp_path / "sx.mat"
    matrix.write_text("2\n0 0 1 0\n1 0 0 0\n")
    # validation failure: J out of range
    result = _run_cli("solve-direct", "--matrix", str(matrix), "--J", "9", "--K", "1")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    # numerical failure: equal diagonal blocks make the sweep singular
    ones = tmp_path / "ones.mat"
    ones.write_text("2\n1 0 1 0\n1 0 1 0\n")
    result = _run_cli("solve-iter", "--matrix", str(ones), "--K", "1")
    assert result.returncode == 2
    assert result.stderr.startswith("numerical failure:")
    # missing file
    result = _run_cli("verify", "--matrix", str(tmp_path / "missing.mat"))
    assert result.returncode == 1
    # usage error also exits 1
    result = _run_cli("solve-direct", "--matrix", str(matrix))
    assert result.returncode == 1


def _count_calls(monkeypatch, original):
    """Count calls of ``original`` through every effop namespace binding
    it, so no call path escapes; returns the call list and the wrapper."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "effop" or name.startswith("effop.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls, counted


def _observable_and_map(tmp_path):
    """A 6 x 6 observable file and the s-file of its two lowest states."""
    obs_path = tmp_path / "obs.mat"
    s_path = tmp_path / "s.mat"
    assert cli.main(["gen", "--kind", "random_hermitian", "--dim", "6", "--seed", "2",
                     "--out", str(obs_path)]) == 0
    assert cli.main(["solve-direct", "--matrix", str(obs_path), "--J", "1,2",
                     "--K", "1,2", "--out-s", str(s_path)]) == 0
    return obs_path, s_path


def test_cli_effective_builds_blocks_once(tmp_path, monkeypatch):
    obs_path, s_path = _observable_and_map(tmp_path)

    calls, counted = _count_calls(monkeypatch, transform.transformed_blocks)
    assert effop.transformed_blocks is counted

    assert cli.main(["effective", "--matrix", str(obs_path), "--s", str(s_path),
                     "--out", str(tmp_path / "eff.mat")]) == 0
    assert len(calls) == 1
    _, comments = read_matrix(tmp_path / "eff.mat")
    assert any(c.startswith("residual=") for c in comments)


def test_cli_effective_second_type_partitions_once(tmp_path, monkeypatch):
    obs_path, s_path = _observable_and_map(tmp_path)
    calls, counted = _count_calls(monkeypatch, transform.partition_blocks)
    assert effop.partition_blocks is counted

    out = tmp_path / "eff_bar.mat"
    assert cli.main(["effective", "--matrix", str(obs_path), "--s", str(s_path),
                     "--second-type", "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    obs, _ = read_observable(obs_path)
    residual = transform.decoupling_residual(obs, read_decoupling_map(s_path))
    _, comments = read_matrix(out)
    assert f"residual={residual:.6e}" in comments
    assert "type=second-type" in comments


def _perfbench_module(name):
    """A module of the benchmark in perfbench/, loaded by path and
    registered under ``perfbench_<name>`` (dataclasses look it up there)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracing_targets_resolve():
    """Every function the benchmark's tracer wraps still exists, and the
    model-space complement it counts is still a property."""
    tracing = _perfbench_module("tracing")
    for module_name, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)
    assert isinstance(spaces.ModelSpace.__dict__["complement"], property)


@pytest.mark.parametrize("n, d, enumerates", [(12, 3, True), (48, 4, False)])
def test_verify_emits_the_benchmark_check_set(n, d, enumerates):
    """The CHECK names the benchmark's verify gate expects, all passing."""
    workloads = _perfbench_module("workloads")
    expected = workloads.VERIFY_CHECKS
    if enumerates:
        expected = expected | workloads.VERIFY_ENUM_CHECKS
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=n))
    report = run_verification(obs, d=d, trials=workloads.VERIFY_TRIALS, seed=1)
    assert {check.name for check in report.checks} == expected
    assert report.all_passed, [c.name for c in report.checks if not c.passed]


def test_factorization_reports_share_one_dense_spectrum(monkeypatch):
    """Eight factorization reports on one observable and eight maps run no
    non-Hermitian eigensolver and take the N x N spectrum once."""
    n = 16
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=41))
    decomposition = eigendecompose(obs)
    maps = []
    for first in range(1, 9):
        selection = select_eigenvectors(decomposition, (first, first + 4, first + 8))
        maps.append(transform.construct_s_direct(
            selection, ModelSpace(n, pivoted_model_space(selection))))
    shapes = {"eigvals": [], "eigvalsh": []}
    for name, calls in shapes.items():
        def counted(a, *args, _original=getattr(np.linalg, name), _calls=calls, **kwargs):
            _calls.append(np.shape(a))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    for dm in maps:
        _, report = effop.q_block_and_factorization(obs, dm)
        assert report.matched
    assert shapes["eigvals"] == []
    assert shapes["eigvalsh"].count((n, n)) == 1


def test_basis_computed_once_per_commuting_set(monkeypatch):
    """Two shared maps and a decomposition of one set diagonalize it once."""
    family = generate(ProblemSpec("commuting_family", dim=9, seed=5, family_size=3))
    calls, _ = _count_calls(monkeypatch, observables.simultaneous_eigenbasis)
    observables.common_s(family, (1, 2, 3), (1, 2, 3))
    observables.common_s(family, (4, 5), (1, 2))
    blocks = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
    assert observables.decompose_space(family, blocks, [(1, 2, 3)] * 3).complete
    assert len(calls) == 1


def test_run_verification_computes_the_companion_basis_once(monkeypatch):
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=3))
    calls, _ = _count_calls(monkeypatch, observables.simultaneous_eigenbasis)
    assert run_verification(obs, d=3, trials=2, seed=1).all_passed
    assert len(calls) == 1


def test_common_s_equals_the_map_of_a_fresh_basis():
    family = generate(ProblemSpec("commuting_family", dim=9, seed=8, family_size=3))
    j, k = (2, 5, 7), (1, 4, 8)
    selection = observables.selection_from_basis(
        observables.simultaneous_eigenbasis(family), j)
    expected = transform.construct_s_from_span(
        selection.vectors, ModelSpace(9, k), indices=selection.indices)
    assert np.array_equal(observables.common_s(family, j, k).s, expected.s)


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_cli_non_utf8_file_is_a_validation_error(tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe2\n")
    if command == "verify":
        result = _run_cli("verify", "--matrix", str(bad))
    else:
        member = tmp_path / "member.mat"
        assert cli.main(["gen", "--kind", "random_hermitian", "--dim", "3", "--seed", "1",
                         "--out", str(member)]) == 0
        result = _run_cli("decompose", "--set", str(member), "--plan", str(bad))
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert str(bad) in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_negative_seed_is_a_validation_error(tmp_path):
    matrix = tmp_path / "m.mat"
    result = _run_cli("gen", "--kind", "random_hermitian", "--dim", "4", "--seed", "-1",
                      "--out", str(matrix))
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert not matrix.exists()
    assert cli.main(["gen", "--kind", "random_hermitian", "--dim", "4", "--seed", "1",
                     "--out", str(matrix)]) == 0
    result = _run_cli("verify", "--matrix", str(matrix), "--seed", "-1")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_cli_solve_iter_initial_s_k_mismatch_exits_one(tmp_path):
    matrix, s_path = tmp_path / "chain.mat", tmp_path / "s124.mat"
    assert cli.main(["gen", "--kind", "tridiagonal_chain", "--dim", "8", "--seed", "11",
                     "--out", str(matrix)]) == 0
    assert cli.main(["solve-direct", "--matrix", str(matrix), "--J", "1,2,4",
                     "--K", "1,2,4", "--out-s", str(s_path)]) == 0
    result = _run_cli("solve-iter", "--matrix", str(matrix), "--K", "1,2,3",
                      "--initial-s", str(s_path))
    assert result.returncode == 1
    assert result.stderr == (
        "error: --K (1, 2, 3) does not match the s-file header K=(1, 2, 4)\n")

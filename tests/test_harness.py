import importlib
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import effop
from effop import observables, solver, spaces, transform
from effop.effective import first_type
from effop.errors import (
    DimensionMismatch,
    InvalidSpec,
    MatrixFileError,
    NonFinite,
    NotDecoupled,
    ValidationError,
)
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
    write_effective,
    write_matrix,
    write_observable,
)
from effop.harness import cli
from effop.harness import verify as verify_module
from effop.harness.verify import _enumeration_agrees, _listed, _second_model_space
from effop.spaces import (
    EigenSelection,
    ModelSpace,
    ObservableMatrix,
    eigendecompose,
    enumerate_model_spaces,
    pivoted_model_space,
    select_eigenvectors,
    validate_hermitian,
)
from effop.transform import DecouplingMap, Provenance, construct_s_direct


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
    # a map from a span without a J reads back as built: with an empty record
    spanned = transform.construct_s_from_span(rng.standard_normal((5, 2)), ms)
    for dm in (DecouplingMap(ms, s, Provenance((2, 4))), spanned):
        path = tmp_path / "s.mat"
        write_decoupling_map(path, dm)
        back = read_decoupling_map(path)
        assert back.model_space == ms
        assert np.array_equal(back.s, dm.s)
        assert back.provenance == dm.provenance
    assert spanned.provenance == Provenance()


def test_matio_decoupling_zero_row_header_with_data_rows(tmp_path):
    path = tmp_path / "s.mat"
    path.write_text("# s-matrix rows=0 cols=2 K=1,2\n1\n5 0 7 0\n", encoding="utf-8")
    with pytest.raises(MatrixFileError) as excinfo:
        read_decoupling_map(path)
    assert str(excinfo.value) == f"{path}: data shape (1, 2) does not match header (0, 2)"
    matrix = tmp_path / "two.mat"
    matrix.write_text("2\n1 0 0 0\n0 0 2 0\n", encoding="utf-8")
    out = tmp_path / "eff.mat"
    assert cli.main(["effective", "--matrix", str(matrix), "--s", str(path),
                     "--out", str(out)]) == 1
    assert not out.exists()
    # a map onto the whole space has no data rows and reads back as (0, cols)
    dm = DecouplingMap(ModelSpace(2, (1, 2)), np.zeros((0, 2), dtype=complex))
    write_decoupling_map(path, dm)
    back = read_decoupling_map(path)
    assert back.model_space == dm.model_space
    assert back.s.shape == (0, 2)


def test_matio_decoupling_requires_header(tmp_path):
    path = tmp_path / "s.mat"
    write_matrix(path, np.zeros((1, 1), dtype=complex))
    with pytest.raises(MatrixFileError):
        read_decoupling_map(path)



def _writers_refuse_before_opening(tmp_path, comment, match, named):
    """Each writer of free comments refuses ``comment`` with a ValidationError matching
    ``match`` that names ``named``, and neither creates nor truncates its file."""
    obs = generate(ProblemSpec("random_hermitian", dim=4, seed=2))
    dm = construct_s_direct(select_eigenvectors(eigendecompose(obs), (1, 2)), ModelSpace(4, (1, 2)))
    writers = {
        "matrix.mat": lambda path: write_matrix(path, obs.matrix, [comment]),
        "eff.mat": lambda path: write_effective(path, first_type(obs, dm), extra_comments=[comment]),
    }
    for name, write in writers.items():
        path = tmp_path / name
        with pytest.raises(ValidationError, match=match) as excinfo:
            write(path)
        assert repr(named) in str(excinfo.value)
        assert not path.exists()
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            write(path)
        assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("comment", ["run 3\nresidual=1", "a\x0cb", "x\u2028y", "tail\r"])
def test_matio_writers_reject_comments_with_line_breaks(tmp_path, comment):
    _writers_refuse_before_opening(tmp_path, comment, "contains a line break", comment)


@pytest.mark.parametrize("comment, surrogate", [("bad \ud800", "\ud800"), ("\udfff tail", "\udfff")])
def test_matio_writers_reject_comments_utf8_cannot_encode(tmp_path, comment, surrogate):
    _writers_refuse_before_opening(tmp_path, comment, "is not UTF-8", surrogate)


def test_matio_refuses_to_write_a_non_finite_decoupling_map(tmp_path):
    """read_decoupling_map refuses NaN and inf, so the writer does too,
    before the file is opened; write_matrix writes them."""
    path = tmp_path / "s.mat"
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFinite):
            write_decoupling_map(path, DecouplingMap(ModelSpace(3, (1,)), [[bad], [1.0]]))
        assert not path.exists()
    write_matrix(path, [[np.nan], [np.inf]])
    assert np.array_equal(read_matrix(path)[0], [[np.nan], [np.inf]], equal_nan=True)


def test_matio_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.mat"
    for text in ["2\n1 0 0 0\n0 0 1 0\n", "# note\n2\n1 0 0 0\n0 0 1 0\n"]:
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        matrix, comments = read_matrix(path)
        assert np.array_equal(matrix, np.eye(2, dtype=complex))
        assert comments == (["note"] if text.startswith("#") else [])
    plan = tmp_path / "plan.txt"
    plan.write_bytes(b"\xef\xbb\xbfblock: J=1 K=1\n")
    assert cli._read_plan(plan) == [((1,), (1,))]


def _whole_text_reference(path):
    """Matrix, comments and numbered data lines of a valid file, read the
    way the format is defined: the whole text split with str.splitlines."""
    text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    comments, rows, data = [], None, []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line and rows is None:
            rows = int(line)
        elif line:
            data.append((ln, line))
    floats = np.array([[float(t) for t in line.split()] for _, line in data]).reshape(rows, -1)
    return floats.view(np.complex128), comments, [ln for ln, _ in data]


@pytest.mark.parametrize("text", [
    "# a\r\n2\r\n1 0 0 0\r\n# b\r\n0 0 1 0\r\n",
    "# a\r2\r1 0 0 0\r\r0 0 1 0",
    "# a\x0c2\n1 0 0 0\x0c\n# b\u20280 0 1 0\n",
    "\u2028\u2028# a\u20282\u2028\x0c1 0 0 0\r\n\x0c\r0 0 1 0\u2028\n",
])
def test_matio_stream_numbers_lines_like_splitlines(tmp_path, text):
    path = tmp_path / "sep.mat"
    path.write_text(text, encoding="utf-8", newline="")
    expected, comments, numbers = _whole_text_reference(path)
    matrix, got_comments = read_matrix(path)
    assert matrix.tobytes() == expected.tobytes()
    assert got_comments == comments
    bad = text.replace("0 0 1 0", "0 0 x 0")
    path.write_text(bad, encoding="utf-8", newline="")
    with pytest.raises(MatrixFileError) as excinfo:
        read_matrix(path)
    assert str(excinfo.value) == f"{path}:{numbers[-1]}: non-numeric entry"


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_matio_non_utf8_byte_beyond_64k_names_its_file_offset(tmp_path, bom):
    path = tmp_path / "late.mat"
    head = bom + ("# " + "x" * 70_000 + "\n2\n1 0 0 0\n").encode("utf-8")
    path.write_bytes(head + b"0 0 \xff 0\n")
    with pytest.raises(MatrixFileError) as excinfo:
        read_matrix(path)
    assert str(excinfo.value) == f"{path}: not UTF-8 text (invalid start byte at byte {len(head) + 4})"


@pytest.mark.parametrize("text,comments", [
    ("0\n", []),
    ("# a\n0\n# b\n\n# c\n", ["a", "b", "c"]),
])
def test_matio_file_without_data_rows_reads_without_warning(tmp_path, text, comments):
    path = tmp_path / "empty.mat"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix, got = read_matrix(path)
    assert matrix.shape == (0, 0) and matrix.dtype == np.complex128
    assert got == comments

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
    sel = EigenSelection((1, 2, 3), np.zeros(3), vectors)
    candidates = enumerate_model_spaces(sel)
    assert _enumeration_agrees(sel, candidates)
    # the lexicographically last candidate lies in the second chunk
    last = max(range(len(candidates)), key=lambda i: candidates[i][0])
    for dropped in (0, last):
        assert not _enumeration_agrees(sel, candidates[:dropped] + candidates[dropped + 1:])
    deficient = (1, 2, 3)  # row 1 is zero
    assert deficient not in dict(candidates)
    assert not _enumeration_agrees(sel, [*candidates, (deficient, 1.0)])
    # a K that is no subset of the table, of the wrong length, or listed twice
    rng = np.random.default_rng(3)
    small = EigenSelection((1, 2, 3), np.zeros(3),
                           rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
    candidates = enumerate_model_spaces(small)
    assert _enumeration_agrees(small, candidates)
    for bogus in (((7, 8, 9), 1.0), ((2, 1, 3), 1.0), ((1, 2), 1.0), ((1, 2, 3, 4), 1.0),
                  candidates[0]):
        assert not _enumeration_agrees(small, [*candidates, bogus]), bogus


@pytest.mark.parametrize("n, d", [(25, 3), (8, 1), (8, 8), (9, 4)])
def test_listed_maps_every_table_row_to_itself(n, d):
    rng = np.random.default_rng(n + d)
    sel = EigenSelection(tuple(range(1, d + 1)), np.zeros(d),
                         rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    rows, _ = sel._subset_singular_values
    ks = [tuple(row) for row in (rows + 1).tolist()]
    # every row, and interleaved slices of them listed in reverse: each K marks its own row
    for start, step in ((0, 1), (0, 2), (1, 3)):
        expected = np.zeros(len(rows), dtype=bool)
        expected[start::step] = True
        listed = _listed(sel, [(k, 1.0) for k in ks[start::step][::-1]])
        assert np.array_equal(listed, expected)


def _two_chunk_selection():
    """25 random rows, every fourth zero: C(25, 3) subsets span two SVD stacks."""
    rng = np.random.default_rng(3)
    vectors = rng.standard_normal((25, 3)) + 1j * rng.standard_normal((25, 3))
    vectors[::4] = 0.0
    return EigenSelection((1, 2, 3), np.zeros(3), vectors)


def _stacked_svds(monkeypatch):
    """Record the stack length of every ``np.linalg.svd`` call on 3-D input."""
    stacks = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return stacks


def test_run_verification_does_one_stacked_svd_per_enumerating_trial(monkeypatch):
    # the first three trials enumerate; C(12, 3) = 220 subsets fit one stack
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=1))
    stacks = _stacked_svds(monkeypatch)
    assert run_verification(obs, d=3, trials=8, seed=1).all_passed
    assert stacks == [220] * 3


def test_enumeration_and_its_cross_check_read_one_table(monkeypatch):
    sel = _two_chunk_selection()
    stacks = _stacked_svds(monkeypatch)
    candidates = enumerate_model_spaces(sel)
    assert enumerate_model_spaces(sel) == candidates
    assert _enumeration_agrees(sel, candidates)
    assert stacks == [spaces._SUBSET_CHUNK, math.comb(25, 3) - spaces._SUBSET_CHUNK]


def _lexsort_pick(sel, candidates, k_best):
    """The listed K other than k_best by one SVD of the candidates' blocks
    and a lexsort: largest smallest singular value, then largest K."""
    others = np.array(list(dict(candidates)), dtype=np.intp)
    others = others[(others != k_best).any(axis=1)]
    smallest = np.linalg.svd(sel.vectors[others - 1], compute_uv=False)[:, -1]
    return tuple(others[np.lexsort((*others[:, ::-1].T, smallest))[-1]].tolist())


@pytest.mark.parametrize("unit_rows", [False, True])
def test_second_model_space_breaks_ties_like_lexsort(unit_rows):
    # with unit rows scaled by 1 or 2 every accepted block is a scaled
    # permutation matrix, so its smallest singular value is 1 or 2 and most
    # candidates tie
    if unit_rows:
        vectors = np.eye(3)[np.arange(25) % 3] * (1.0 + np.arange(25) % 2)[:, None]
        vectors[::4] = 0.0
        sel = EigenSelection((1, 2, 3), np.zeros(3), vectors.astype(complex))
    else:
        sel = _two_chunk_selection()
    candidates = enumerate_model_spaces(sel)
    for listed in (candidates, candidates[::3]):
        for k_best in [k for k, _ in listed[:40]] + [(1, 2, 3)]:
            assert _second_model_space(sel, listed, k_best) == _lexsort_pick(sel, listed, k_best)


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


def test_cli_solve_direct_on_a_tiny_scale(tmp_path):
    """At c = 1e-12 J = (1, 2, 3) still names the three lowest eigenpairs."""
    obs = validate_hermitian(1e-12 * generate(ProblemSpec("tridiagonal_chain", 16, 0)).matrix)
    matrix = tmp_path / "chain.mat"
    write_observable(matrix, obs)
    result = _run_cli("solve-direct", "--matrix", str(matrix), "--J", "1,2,3", "--K", "1,2,3")
    assert result.returncode == 0, result.stderr
    line = next(line for line in result.stdout.splitlines() if line.startswith("O_eff eigenvalues: "))
    printed = np.array([complex(word) for word in line.split(": ", 1)[1].split()])
    lowest = np.linalg.eigvalsh(obs.matrix)[:3]
    assert np.abs(printed - lowest).max() <= 1e-8 * obs.norm


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e12])
def test_cli_drops_imaginary_parts_relative_to_the_printed_set(c):
    """At c = 1e-12 an imaginary part of a tenth of the value is printed;
    the floor scales with the set, so the same parts print at every c."""
    values = c * np.array([2.0, 1 + 0.1j, 1 + 1e-13j])
    words = cli._fmt(values, np.abs(values).max()).split()
    assert [word.endswith("j") for word in words] == [False, True, False]
    assert cli._fmt([1e-12 + 1e-13j], 1e-12) == "1e-12+1e-13j"
    assert cli._fmt([0j, -0j], 0.0) == "0 -0"


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
                      "--out", str(eff_path))
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


def test_cli_effective_reads_k_from_the_s_file_only(tmp_path, capsys):
    # the s-file header carries the model space; there is no flag to repeat it
    assert cli.main(["effective", "--matrix", "m", "--s", "s", "--K", "1",
                     "--out", str(tmp_path / "x.mat")]) == 1
    assert "unrecognized arguments: --K 1" in capsys.readouterr().err
    assert not (tmp_path / "x.mat").exists()


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


def test_cli_decompose_error_names_its_block(tmp_path, capsys):
    members = [tmp_path / "m1.mat", tmp_path / "m2.mat"]
    for path, values in zip(members, ([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])):
        write_observable(path, validate_hermitian(np.diag(values)))
    plan = tmp_path / "plan.txt"
    argv = ["decompose", "--set", ",".join(map(str, members)), "--plan", str(plan)]
    plan.write_text("block: J=1,2 K=1,2\nblock: J=3,4 K=3\n")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == ("error: block 2 (J=(3, 4), K=(3,)): "
                                       "selection is 4x2, model space wants 4x1\n")
    plan.write_text("block: J=1,2 K=1,2\nblock: J=3,4 K=3,9\n")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: block 2 (J=(3, 4), K=(3, 9)): K index 9 outside 1..4\n"


def test_cli_verify_green(tmp_path):
    matrix = tmp_path / "g.mat"
    assert _run_cli("gen", "--kind", "random_hermitian", "--dim", "8",
                    "--seed", "12", "--out", str(matrix)).returncode == 0
    result = _run_cli("verify", "--matrix", str(matrix), "--d", "3",
                      "--trials", "10", "--seed", "5")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "fail" not in result.stdout


VERIFY_SECTIONS = ("trial", "generic_witness", "solver_suite", "commuting_suite")


@pytest.mark.parametrize("c, eps, failing, error", [
    (1.0, 1e-9, ["decoupling_residual_direct", "trial"], "trial: NotDecoupled: "),
    (1e-12, 1e-2, ["selected_vectors_mapped", "basis_change_invariance", "retrieve_round_trip",
                   "trial"], "trial: NotInSubspace: "),
])
def test_cli_verify_names_the_checks_noisy_maps_fail(tmp_path, capsys, noisy_maps, c, eps,
                                                     failing, error):
    """A typed error inside the battery is a failing CHECK of its section: a
    run on noisy maps ends in CHECK lines that name the failures, exit 1."""
    matrix = tmp_path / "obs.mat"
    obs = generate(ProblemSpec("random_hermitian", dim=16, seed=1))
    write_observable(matrix, validate_hermitian(c * obs.matrix))
    noisy_maps(eps)
    assert cli.main(["verify", "--matrix", str(matrix), "--d", "3", "--trials", "4",
                     "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    verdicts = dict(line.split()[1:3] for line in out.splitlines() if line.startswith("CHECK "))
    assert all(verdicts.get(name) == "fail" for name in failing), verdicts
    failed_sections = [name for name in VERIFY_SECTIONS if name in verdicts]
    assert all(verdicts[name] == "fail" for name in failed_sections)
    # one stderr line per failed section, in the order the battery ran them
    assert [line.split(":")[0] for line in err.splitlines()] == failed_sections
    assert any(line.startswith(error) for line in err.splitlines()), err


def test_report_section_turns_a_typed_error_into_one_failing_check():
    report = Report()
    with report.section("block"):
        report.add("inside", 0.0, 1.0)
    assert [c.name for c in report.checks] == ["inside"] and report.errors == {}
    for message in ("first", "second"):
        with report.section("block"):
            raise NotDecoupled(message)
    assert report.lines() == ["CHECK inside pass residual=0.000000e+00 tol=1.000000e+00",
                              "CHECK block fail residual=1.000000e+00 tol=5.000000e-01"]
    assert report.errors == {"block": "block: NotDecoupled: first"}
    with pytest.raises(ZeroDivisionError), report.section("other"):  # not a typed error
        1 / 0
    assert "other" not in report.errors


def test_verify_section_names_are_no_check_names():
    """A section's CHECK cannot be mistaken for a check of the benchmark's gate."""
    workloads = _perfbench_module("workloads")
    assert not set(VERIFY_SECTIONS) & (workloads.VERIFY_CHECKS | workloads.VERIFY_ENUM_CHECKS)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_cli_verify_hashes_only_a_regular_file(tmp_path, capsys):
    """A pipe is drained by the read, so its hash would be that of no bytes."""
    matrix = tmp_path / "g.mat"
    assert cli.main(["gen", "--kind", "random_hermitian", "--dim", "6", "--seed", "3",
                     "--out", str(matrix)]) == 0
    capsys.readouterr()
    argv = ["--d", "2", "--trials", "1", "--seed", "5"]
    assert cli.main(["verify", "--matrix", str(matrix), *argv]) == 0
    from_file = capsys.readouterr().out
    assert "# input_sha256=" in from_file
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, matrix.read_bytes())
        os.close(write_end)
        assert cli.main(["verify", "--matrix", f"/dev/fd/{read_end}", *argv]) == 0
    finally:
        os.close(read_end)
    from_pipe = capsys.readouterr().out
    assert "input_sha256" not in from_pipe
    checks = [line for line in from_file.splitlines() if not line.startswith("#")]
    assert [line for line in from_pipe.splitlines() if not line.startswith("#")] == checks


def test_cli_exit_codes(tmp_path, capsys):
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
    assert result.stderr.startswith("usage: effop solve-direct")
    assert "effop solve-direct: error: the following arguments are required" in result.stderr
    # argparse's own exits go through main's one mapping: help 0, usage 1
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: effop")
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: effop")
    assert "effop: error: the following arguments are required: command" in err


def test_cli_reuses_one_parser_safely(tmp_path, capsys):
    cli._parser.cache_clear()
    matrix, s_path = tmp_path / "o.mat", tmp_path / "s.mat"
    assert cli.main(["gen", "--kind", "random_hermitian", "--dim", "6", "--seed", "1",
                     "--out", str(matrix)]) == 0
    solve = ["solve-direct", "--matrix", str(matrix), "--J", "1,2", "--K", "1,2"]
    capsys.readouterr()
    assert cli.main([*solve, "--out-s", str(s_path)]) == 0
    written = capsys.readouterr().out
    assert s_path.is_file() and written.endswith(f"s written to {s_path}\n")
    # a flag given to one call is not remembered by the next
    s_path.unlink()
    assert cli.main(solve) == 0
    plain = capsys.readouterr().out
    assert not s_path.exists() and written.startswith(plain) and "written" not in plain
    # a usage error leaves the parser as it was
    assert cli.main(["solve-direct", "--matrix", str(matrix)]) == 1
    assert "the following arguments are required" in capsys.readouterr().err
    assert cli.main(solve) == 0
    assert capsys.readouterr().out == plain
    assert cli.main(["--help"]) == 0
    help_text = capsys.readouterr().out
    # build_parser ran once for the six calls, and still returns a new parser
    assert cli._parser.cache_info().misses == 1
    fresh = cli.build_parser()
    assert fresh is not cli._parser()
    assert help_text == fresh.format_help()
    assert help_text.startswith("usage: effop")
    for command in ("gen", "solve-direct", "solve-iter", "effective", "enumerate",
                    "decompose", "verify"):
        assert command in help_text
    # the same call through a newly built parser prints the same
    cli._parser.cache_clear()
    assert cli.main(solve) == 0
    assert capsys.readouterr().out == plain


def test_run_verification_diagonalizes_its_input_once(monkeypatch):
    """The input's eigendecomposition is shared by the trials and the
    commuting companions; the other 16 x 16 eigh is the joint-basis mix."""
    n = 16
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=n))
    arguments = []

    def counted(a, *args, **kwargs):
        arguments.append(a)
        return original(a, *args, **kwargs)

    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert run_verification(obs, d=3, trials=4, seed=1).all_passed
    assert sum(a is obs.matrix for a in arguments) == 1
    assert [np.shape(a) for a in arguments].count((n, n)) == 2


def _count_calls(monkeypatch, original):
    """Record calls of ``original`` through every effop namespace binding
    it, so no call path escapes; returns the list of positional argument
    tuples (which keeps the arguments alive) and the wrapper."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
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
    assert any("residual=" in c for c in comments)


def test_cli_effective_second_type_partitions_once(tmp_path, monkeypatch):
    """``effective --second-type`` reduces O by s once."""
    obs_path, s_path = _observable_and_map(tmp_path)
    calls, counted = _count_calls(monkeypatch, transform.transformed_blocks)
    assert effop.transformed_blocks is counted

    out = tmp_path / "eff_bar.mat"
    assert cli.main(["effective", "--matrix", str(obs_path), "--s", str(s_path),
                     "--second-type", "--out", str(out)]) == 0
    assert len(calls) == 1
    monkeypatch.undo()
    obs, _ = read_observable(obs_path)
    residual = transform.decoupling_residual(obs, read_decoupling_map(s_path))
    _, comments = read_matrix(out)
    assert f"J=1,2 residual={residual:.17g}" in comments
    assert "type=second-type" in comments


def test_cli_solve_direct_s_file_reads_back_its_j_and_residual(tmp_path):
    """The residual ``first_type`` measured is written into the map, to 17 digits."""
    obs_path, s_path = _observable_and_map(tmp_path)
    obs, _ = read_observable(obs_path)
    dm = read_decoupling_map(s_path)
    assert (dm.provenance.indices, dm.provenance.iterations) == ((1, 2), None)
    assert np.float64(dm.provenance.residual).tobytes() == np.float64(first_type(obs, dm).residual).tobytes()


def test_cli_solve_iter_s_file_reads_back_its_sweeps_and_residual(tmp_path, capsys):
    matrix, s_path = tmp_path / "chain.mat", tmp_path / "s.mat"
    assert cli.main(["gen", "--kind", "tridiagonal_chain", "--dim", "8", "--seed", "11",
                     "--out", str(matrix)]) == 0
    assert cli.main(["solve-iter", "--matrix", str(matrix), "--K", "1,2", "--out-s", str(s_path)]) == 0
    printed = capsys.readouterr().out.split("converged in ")[1].split()[0]
    solved, _ = solver.solve_decoupling_fixed_point(read_observable(matrix)[0], ModelSpace(8, (1, 2)))
    back = read_decoupling_map(s_path)
    assert back.s.tobytes() == solved.s.tobytes()
    assert str(back.provenance.iterations) == printed
    assert back.provenance.iterations == solved.provenance.iterations
    assert np.float64(back.provenance.residual).tobytes() == np.float64(solved.provenance.residual).tobytes()


def test_matio_decoupling_map_in_the_earlier_layout_reads_its_record(tmp_path):
    """A file with ``J=`` and a 7-digit ``residual=`` on lines of their own
    reads through the same field table."""
    path = tmp_path / "s.mat"
    path.write_text("# s-matrix rows=1 cols=3 K=1,2,3\n# J=1,2,3\n# residual=3.312828e-19\n"
                    "1\n0 0 1 0 0 0\n", encoding="utf-8")
    assert read_decoupling_map(path).provenance == Provenance((1, 2, 3), residual=3.312828e-19)


@pytest.mark.parametrize("comments, record", [
    ("# note: residual=n/a\n", Provenance()),
    ("# J=1,2,3 residual=0.25\n# first tried J=3,4 and residual=0.5\n",
     Provenance((1, 2, 3), residual=0.25)),
])
def test_matio_decoupling_map_reads_its_record_only_from_record_lines(tmp_path, comments, record):
    """A free comment that holds a record key is neither read nor refused."""
    path = tmp_path / "s.mat"
    path.write_text(f"# s-matrix rows=1 cols=3 K=1,2,3\n{comments}1\n0 0 1 0 0 0\n",
                    encoding="utf-8")
    assert read_decoupling_map(path).provenance == record


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


def _recorded_shapes(monkeypatch, *names):
    """Record the argument shape of every call of each named ``np.linalg``
    function; returns one list of shapes per name."""
    shapes = {name: [] for name in names}
    for name, calls in shapes.items():
        def counted(a, *args, _original=getattr(np.linalg, name), _calls=calls, **kwargs):
            _calls.append(np.shape(a))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def _factorization_dense_eigensolves(monkeypatch, decomposed: bool):
    """Shapes of the eigensolves run by eight factorization reports on one
    random 16 x 16 observable and eight maps; the maps come from an
    ``eigendecompose`` of that observable or of an equal, fresh one."""
    n = 16
    obs = generate(ProblemSpec("random_hermitian", dim=n, seed=41))
    decomposition = eigendecompose(obs if decomposed else ObservableMatrix(obs.matrix))
    maps = []
    for first in range(1, 9):
        selection = select_eigenvectors(decomposition, (first, first + 4, first + 8))
        maps.append(transform.construct_s_direct(
            selection, ModelSpace(n, pivoted_model_space(selection))))
    shapes = _recorded_shapes(monkeypatch, "eigvals", "eigvalsh")
    for dm in maps:
        _, report = effop.q_block_and_factorization(obs, dm)
        assert report.matched
    return n, shapes


def test_factorization_reports_share_one_dense_spectrum(monkeypatch):
    """Eight factorization reports on one observable and eight maps run no
    non-Hermitian eigensolver and reuse the spectrum of ``eigendecompose``."""
    n, shapes = _factorization_dense_eigensolves(monkeypatch, decomposed=True)
    assert shapes["eigvals"] == []
    assert shapes["eigvalsh"].count((n, n)) == 0


def test_factorization_reports_without_eigendecompose_take_one_dense_spectrum(monkeypatch):
    n, shapes = _factorization_dense_eigensolves(monkeypatch, decomposed=False)
    assert shapes["eigvals"] == []
    assert shapes["eigvalsh"].count((n, n)) == 1


def test_run_verification_solves_no_dense_nonhermitian_eigenproblem(monkeypatch):
    """The enclosure decides spectrum_preserved on every trial, so the
    non-Hermitian eigensolver sees no matrix larger than a d x d block."""
    d = 4
    obs = generate(ProblemSpec("random_hermitian", dim=48, seed=48))
    shapes = _recorded_shapes(monkeypatch, "eigvals")
    assert run_verification(obs, d=d, trials=8, seed=1).all_passed
    assert shapes["eigvals"] and max(rows for rows, _ in shapes["eigvals"]) <= d


def _spectrum_check(monkeypatch, similarity):
    """spectrum_preserved of a four-trial 12 x 12 verify run whose dense
    transform, as harness.verify sees it, is ``similarity(obs, dm)``, and
    the shapes passed to ``np.linalg.eigvals``."""
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=5))
    monkeypatch.setattr(verify_module.transform, "similarity_transform", similarity)
    shapes = _recorded_shapes(monkeypatch, "eigvals")
    report = run_verification(obs, d=3, trials=4, seed=1)
    check, = [c for c in report.checks if c.name == "spectrum_preserved"]
    return check, shapes["eigvals"]


def test_spectrum_preserved_fails_on_a_perturbed_entry(monkeypatch):
    exact = transform.similarity_transform

    def perturbed(obs, dm):
        dense = exact(obs, dm)
        dense[0, 1] += 1e-8 * obs.norm
        return dense

    check, _ = _spectrum_check(monkeypatch, perturbed)
    assert not check.passed


def test_spectrum_preserved_falls_back_on_swapped_factors(monkeypatch):
    # (1 + S) O (1 - S) is still a similarity, but (1 - S) V is not its
    # eigenbasis, so only the eigensolver can confirm it
    def swapped(obs, dm):
        return transform.exp_s(dm, 1) @ obs.matrix @ transform.exp_s(dm, -1)

    check, shapes = _spectrum_check(monkeypatch, swapped)
    assert check.passed
    assert shapes.count((12, 12)) == 4


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


def test_run_verification_reduces_each_observable_and_map_once(monkeypatch):
    obs = generate(ProblemSpec("random_hermitian", dim=12, seed=1))
    calls, _ = _count_calls(monkeypatch, transform.transformed_blocks)
    assert run_verification(obs, d=3, trials=8, seed=1).all_passed
    keys = [(id(o), id(dm)) for o, dm in calls]
    assert calls and len(set(keys)) == len(keys)


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


@pytest.mark.parametrize("flag, text, kind", [("--spectrum", "1,,2,3", "floats"),
                                               ("--K", "1,2,", "integers")])
def test_cli_list_flags_reject_empty_tokens(tmp_path, capsys, flag, text, kind):
    matrix = tmp_path / "m.mat"
    if flag == "--spectrum":
        argv = ["gen", "--kind", "planted_spectrum", "--dim", "3", "--seed", "1",
                "--spectrum", text, "--out", str(matrix)]
    else:
        matrix.write_text("2\n1 0 0 0\n0 0 2 0\n")
        argv = ["solve-iter", "--matrix", str(matrix), "--K", text]
    assert cli.main(argv) == 1
    assert f"expected comma-separated {kind}, got '{text}'" in capsys.readouterr().err
    assert flag == "--K" or not matrix.exists()


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


def test_seeded_generators_reject_negative_seeds():
    with pytest.raises(InvalidSpec):
        gap_separated(8, 3, seed=-1)
    obs = generate(ProblemSpec("random_hermitian", dim=4, seed=1))
    with pytest.raises(InvalidSpec):
        commuting_partners(obs, 2, seed=-1)


def test_cli_prints_a_library_warning_as_one_line(tmp_path):
    # repeated eigenvalue tuples make the joint basis warn; the CLI reports it
    # on one line and keeps its exit code (tier-1 turns warnings into errors,
    # so this runs in a fresh process)
    members = []
    for name, values in (("m1.mat", [1.0, 1.0, 2.0]), ("m2.mat", [5.0, 5.0, 7.0])):
        members.append(tmp_path / name)
        write_observable(members[-1], validate_hermitian(np.diag(values)))
    plan = tmp_path / "plan.txt"
    plan.write_text("block: J=1 K=1\nblock: J=2 K=2\nblock: J=3 K=3\n")
    result = _run_cli("decompose", "--set", ",".join(map(str, members)), "--plan", str(plan))
    assert result.returncode == 0
    assert result.stderr == ("warning: eigenvalue tuples are not all distinct; the commuting "
                             "set does not single out a unique joint basis\n")
    assert "member 2 spectrum union: pass" in result.stdout


def test_import_does_not_load_scipy():
    code = "import sys, effop, effop.harness.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, check=True)
    assert result.stdout == "False\n"


def test_cli_effective_rejects_a_nan_s_file(tmp_path, capsys):
    matrix, s_file, out = tmp_path / "o.txt", tmp_path / "nan.s", tmp_path / "eff.txt"
    write_observable(matrix, generate(ProblemSpec("random_hermitian", dim=4, seed=4)))
    # the file write_decoupling_map wrote before it refused non-finite maps
    write_matrix(s_file, np.full((2, 2), np.nan, dtype=complex), ["s-matrix rows=2 cols=2 K=1,3"])
    assert cli.main(["effective", "--matrix", str(matrix), "--s", str(s_file),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(s_file) in err
    assert not out.exists()


def test_plan_file_errors_keep_their_line_numbers(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("# plan\n\n  block: J=1 K=1\r\n# note\nblock J=2\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"plan\.txt:5: expected 'block:"):
        cli._read_plan(plan)
    plan.write_text("\n  # only comments\n\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="no blocks found"):
        cli._read_plan(plan)


def test_verify_skips_equivalence_when_the_listing_is_ambiguous(monkeypatch):
    enumerate_all = spaces.enumerate_model_spaces
    # one K listed twice: the listed mask is None
    monkeypatch.setattr(spaces, "enumerate_model_spaces",
                        lambda selection: (lambda found: found + found[:1])(enumerate_all(selection)))
    obs = generate(ProblemSpec("random_hermitian", dim=8, seed=8))
    report = run_verification(obs, d=2, trials=2, seed=1)
    checks = {check.name: check for check in report.checks}
    assert not checks["enumeration_rank_agreement"].passed
    assert "equivalence_transform" not in checks


def test_direct_workload_passes_the_benchmark_gate(tmp_path, capsys):
    """Every distinct problem of the benchmark's direct workload, run once
    through the CLI and judged by the workload's own gate."""
    workloads = _perfbench_module("workloads")
    problems = {problem.label: problem for problem in workloads.build("direct", 1, tmp_path)}
    assert len(problems) == 12
    for label, problem in problems.items():
        rc = cli.main(problem.argv)
        captured = capsys.readouterr()
        assert problem.gate(rc, captured.out, captured.err) == (workloads.OK, ""), label

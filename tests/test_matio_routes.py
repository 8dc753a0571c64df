"""Matrix files read alike with and without the strtold parser: every chunk
of what ``write_matrix`` writes must parse without ``np.loadtxt`` and give
the correctly rounded float64 of every token, any other chunk goes to
``np.loadtxt``, and arrays, comments and errors are those of a read that
sends every chunk there. Each read opens its path once.
"""

import builtins
import io
import os
import struct
import threading
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effop.errors import MatrixFileError
from effop.harness import matio

x87 = pytest.mark.skipif(not matio._X87_LONGDOUBLE, reason="longdouble is not x87's 80-bit format")


def _routes(path):
    """``(matrix, comments)`` or the error message of ``read_matrix`` on the
    strtold route and on the stream route."""
    results = []
    for gate in (matio._X87_LONGDOUBLE, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matio, "_X87_LONGDOUBLE", gate)
            try:
                matrix, comments = matio.read_matrix(path)
                results.append((matrix.shape, matrix.tobytes(), comments))
            except MatrixFileError as exc:
                results.append(str(exc))
    return results


def _without_loadtxt(path):
    """``read_matrix``'s result in the form of :func:`_routes`, with
    ``np.loadtxt`` refusing every chunk that reaches it."""
    def refuse(*args):
        raise AssertionError("a chunk reached np.loadtxt")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matio, "_parse_floats", refuse)
        matrix, comments = matio.read_matrix(path)
    return matrix.shape, matrix.tobytes(), comments


def _write_tokens(path, tokens, width):
    rows = [" ".join(tokens[i:i + width]) for i in range(0, len(tokens), width)]
    path.write_text(f"# corpus\n{len(rows)}\n" + "\n".join(rows) + "\n", encoding="utf-8")


# every float64 bit pattern but NaN's, and hypothesis's own float choices
_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(),
).filter(lambda x: x == x)


@x87
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6).map(lambda c: 2 * c)),
              elements=_FLOAT64))
def test_float64_bit_patterns_read_back_on_both_routes(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("bits") / "m.mat"
    matio.write_matrix(path, values.view(np.complex128), ["bits"])
    fast, stream = _routes(path)
    assert fast == stream == (values.view(np.complex128).shape, values.tobytes(), ["bits"])
    if np.isfinite(values).all():
        assert _without_loadtxt(path) == fast


def _midpoint_tokens(count):
    """40-digit tokens at, just above and just below the midpoint beneath
    doubles of magnitude 1e-300..1e300, subnormals and float64's largest."""
    rng = np.random.default_rng(2024)
    doubles = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
    doubles = [*doubles.tolist(), 5e-324, 1e-310, -2.2250738585072014e-308, 1.7976931348623157e308]
    tokens = []
    with localcontext() as context:
        context.prec = 60
        for x in doubles:
            mid = (Decimal(x) + Decimal(float(np.nextafter(x, 0.0)))) / 2
            step = abs(mid).scaleb(-38)
            tokens += [f"{t:.39e}" for t in (mid, mid + step, mid - step)]
    return tokens


HARD_TOKENS = ["2.4703282292062328e-324", "2.4703282292062327e-324", "1.7976931348623158e308",
               "1.7976931348623159e308", "1e-400", "-1e400", "-0", ".5", "5.", "+1e5", "1E5",
               "2.2250738585072011e-308", "0.000000000000000000000000000000000001"]


@x87
def test_hard_tokens_read_correctly_rounded_on_both_routes(tmp_path):
    tokens = _midpoint_tokens(300) + HARD_TOKENS
    tokens += ["0"] * (-len(tokens) % 8)
    path = tmp_path / "hard.mat"
    _write_tokens(path, tokens, 8)
    expected = np.array([float(t) for t in tokens])
    fast, stream = _routes(path)
    assert fast == stream == ((len(tokens) // 8, 4), expected.tobytes(), ["corpus"])
    assert _without_loadtxt(path) == fast


@pytest.mark.parametrize("text,where", [
    *((f"2\n1 0 0 0\n0 {token} 1 0\n", ":3: non-numeric entry")
      for token in ["1-2", "1.2.3", "1e", "-", ".", "1e5e3", "1e+", "--1", "0x10", "1e5.3"]),
    ("2\n1 0 0\n1 0 0 0 0\n", ":2: odd float count; entries are (re, im) pairs"),
    ("2\n1 0 0 0 0 0\n1 0\n", ": rows have inconsistent entry counts"),
    ("3\n1 0 0 0\n1 0\n1 0 0 0 0 0\n", ": rows have inconsistent entry counts"),
    ("4\n1 0 0 0\n1 0 0 0\n1 0\n1 0 0 0 0 0\n", ": rows have inconsistent entry counts"),
    ("99999999999999\n1 0 0 0\n", ": declared 99999999999999 rows, found 1"),
    ("3\n1 0 0 0\n0 0 1 0\n", ": declared 3 rows, found 2"),
    ("2\r\n1 0 0 0\r\n0 0 1 x\r\n", ":3: non-numeric entry"),
    ("2\n1 0 0 0\r\n0 0 1 0\n", None),
    ("2\n1 0 0 0\n# interior\n0 0 1 0\n", None),
    ("2\n1 0 inf 0\n0 0 nan 0\n", None),
    (" # a\n2\n1 0 0 0\n0 0 1 0\n", None),
])
def test_files_the_strtold_route_refuses(tmp_path, text, where):
    """Each file holds a chunk strtold does not read: it is read alike on
    both routes, or refused with the same message."""
    path = tmp_path / "bad.mat"
    path.write_text(text, encoding="utf-8", newline="")
    fast, stream = _routes(path)
    assert fast == stream
    if where is not None:
        assert stream == f"{path}{where}"


@pytest.mark.parametrize("brk", ["\r", "\r\n", "\u2028", "\x0c", "\x85"])
def test_rows_after_the_row_count_on_its_line_are_read(tmp_path, brk):
    """Lines broken other than at line feeds: the head, read up to the row
    count, hands the rest of that line to the data."""
    path = tmp_path / "breaks.mat"
    path.write_text(brk.join(["# a", "2", "1 0 0 0", "# b", "0 0 1 0", ""]), encoding="utf-8", newline="")
    fast, stream = _routes(path)
    assert fast == stream == ((2, 2), np.eye(2, dtype=complex).tobytes(), ["a", "b"])


def _finished(target, *args, timeout=30):
    """Run ``target(*args)`` in a daemon thread; whether it ended in time."""
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
MALFORMED = "2\n1 0 0 0\n0 0 x 0\n"


@fifo
def test_a_named_pipe_is_opened_once(tmp_path):
    """A pipe's bytes cannot be read twice; opening it again would wait for
    another writer."""
    path = tmp_path / "pipe.mat"
    os.mkfifo(path)
    read = []
    writer = threading.Thread(target=path.write_text, args=("2\n1 0 0 0\n0 0 1 0\n",), daemon=True)
    writer.start()
    assert _finished(lambda: read.append(matio.read_matrix(path)[0]))
    writer.join(30)
    assert np.array_equal(read[0], np.eye(2))


def _fault(path):
    """The message ``read_matrix`` raises on ``path``."""
    with pytest.raises(MatrixFileError) as info:
        matio.read_matrix(path)
    return str(info.value)


@fifo
def test_a_malformed_named_pipe_names_its_fault(tmp_path):
    """The fault is named from the bytes read, not by opening the pipe again."""
    path = tmp_path / "pipe.mat"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(MALFORMED,), daemon=True)
    writer.start()
    messages = []
    assert _finished(lambda: messages.append(_fault(path)), timeout=10)
    writer.join(30)
    assert messages == [f"{path}:3: non-numeric entry"]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_malformed_pipe_descriptor_names_its_fault():
    """A drained pipe read again would look empty: ``missing row count line``."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, MALFORMED.encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        messages = []
        assert _finished(lambda: messages.append(_fault(path)), timeout=10)
        assert messages == [f"{path}:3: non-numeric entry"]
    finally:
        os.close(read_end)


@pytest.mark.parametrize("text", [
    "# plain\n2\n1 0 0 0\n0 0 1 0\n",
    "2\n1 0 0 0\n# interior\n0 0 inf 0\n",
    MALFORMED,
], ids=["plain", "comment-inf", "malformed"])
@pytest.mark.parametrize("gate", [True, False], ids=["strtold", "loadtxt"])
def test_a_read_opens_its_path_once(tmp_path, monkeypatch, text, gate):
    path = tmp_path / "m.mat"
    path.write_text(text, encoding="utf-8")
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(matio, "_X87_LONGDOUBLE", gate and matio._X87_LONGDOUBLE)
    for module in (builtins, io):  # pathlib opens through io.open
        monkeypatch.setattr(module, "open", counting_open)
    try:
        matio.read_matrix(path)
    except MatrixFileError:
        assert text == MALFORMED
    else:
        assert text != MALFORMED
    assert opened.count(str(path)) == 1


@x87
def test_only_a_trailing_comments_chunk_reaches_loadtxt(tmp_path, monkeypatch):
    n = 200
    matrix = np.random.default_rng(5).standard_normal((n, 2 * n)).view(np.complex128)
    path = tmp_path / "m.mat"
    matio.write_matrix(path, matrix, ["head"])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("# note\n")
    parsed = []
    real_parse = matio._parse_floats

    def counting_parse(*args):
        block = real_parse(*args)
        parsed.append(len(block))
        return block

    monkeypatch.setattr(matio, "_parse_floats", counting_parse)
    values, comments = matio.read_matrix(path)
    assert values.tobytes() == matrix.tobytes() and comments == ["head", "note"]
    row_bytes = len(path.read_bytes().splitlines()[2])
    assert len(parsed) == 1 and parsed[0] <= matio._CHUNK // row_bytes + 1

"""Both read routes of matrix files give the same arrays, comments and errors:
``matio._read_plain`` must accept what ``write_matrix`` writes, return the
correctly rounded float64 of every token, and refuse every other file to
the stream route whole.
"""

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
        assert matio._read_plain(path, []) is not None


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
    assert matio._read_plain(path, []) is not None


@pytest.mark.parametrize("text,where", [
    *((f"2\n1 0 0 0\n0 {token} 1 0\n", ":3: non-numeric entry")
      for token in ["1-2", "1.2.3", "1e", "-", ".", "1e5e3", "1e+", "--1", "0x10", "1e5.3"]),
    ("2\n1 0 0\n1 0 0 0 0\n", ":2: odd float count; entries are (re, im) pairs"),
    ("2\n1 0 0 0 0 0\n1 0\n", ": rows have inconsistent entry counts"),
    ("3\n1 0 0 0\n1 0\n1 0 0 0 0 0\n", ": rows have inconsistent entry counts"),
    ("99999999999999\n1 0 0 0\n", ": declared 99999999999999 rows, found 1"),
    ("3\n1 0 0 0\n0 0 1 0\n", ": declared 3 rows, found 2"),
    ("2\r\n1 0 0 0\r\n0 0 1 x\r\n", ":3: non-numeric entry"),
    ("2\n1 0 0 0\r\n0 0 1 0\n", None),
    ("2\n1 0 0 0\n# interior\n0 0 1 0\n", None),
    ("2\n1 0 inf 0\n0 0 nan 0\n", None),
    (" # a\n2\n1 0 0 0\n0 0 1 0\n", None),
])
def test_files_the_strtold_route_refuses(tmp_path, text, where):
    """Each file falls back whole to the stream route: read alike on both
    routes, or refused with the same message."""
    path = tmp_path / "bad.mat"
    path.write_text(text, encoding="utf-8", newline="")
    fast, stream = _routes(path)
    assert fast == stream
    if where is not None:
        assert stream == f"{path}{where}"
    if matio._X87_LONGDOUBLE:
        assert matio._read_plain(path, []) is None


def _finished(target, *args, timeout=30):
    """Run ``target(*args)`` in a daemon thread; whether it ended in time."""
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_opened_once(tmp_path):
    """A pipe's bytes cannot be read twice: the strtold route refuses a pipe
    before opening it, which would wait for a writer, and the stream route
    reads it."""
    path = tmp_path / "pipe.mat"
    os.mkfifo(path)
    plain = []
    assert _finished(lambda: plain.append(matio._read_plain(path, [])), timeout=10)
    assert plain == [None]
    read = []
    writer = threading.Thread(target=path.write_text, args=("2\n1 0 0 0\n0 0 1 0\n",), daemon=True)
    writer.start()
    assert _finished(lambda: read.append(matio.read_matrix(path)[0]))
    writer.join(30)
    assert np.array_equal(read[0], np.eye(2))

"""``write_matrix`` writes every float as ``'%.17g'`` writes it, byte for
byte, on the block route and on the route where every token takes
``'%.17g'`` itself, and each line ends in a line feed.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effop.harness import matio

_ROUTES = pytest.mark.parametrize("wide", [True, False], ids=["blocks", "percent"])

# every float64 bit pattern, NaNs included, and hypothesis's own float choices
_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(),
)


def _expected(values: np.ndarray, comments=()) -> bytes:
    """The file ``'%.17g'`` formats, row by row, for the (R, 2C) floats ``values``."""
    row = " ".join(["%.17g"] * values.shape[1]) + "\n"
    head = "".join(f"# {c}\n" for c in comments) + f"{values.shape[0]}\n"
    return (head + "".join(row % tuple(line) for line in values.tolist())).encode()


def _written(path, values: np.ndarray, wide: bool) -> bytes:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matio, "_X87_LONGDOUBLE", wide and matio._X87_LONGDOUBLE)
        matio.write_matrix(path, values.view(np.complex128), ["bits"])
    return path.read_bytes()


@_ROUTES
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6).map(lambda c: 2 * c)),
              elements=_FLOAT64))
def test_float64_bit_patterns_are_written_as_percent_g(tmp_path_factory, wide, values):
    path = tmp_path_factory.mktemp("bits") / "m.mat"
    assert _written(path, values, wide) == _expected(values, ["bits"])


_EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-5, 1e-4, 9.9999999999999995e-5, 1e-10, 1e-11, 1e16, 1e17, 9999999999999998.0,
    0.99999999999999999, 123.0, 1 + 2**-17, 0.5, -1200.0, 1e15, 0.1, -3.0000000000000004,
    # longdouble rounds |x| 10**(16 - E), which is no half-integer, onto one
    935.0499881140221, 41249.63773371527, 9.78498162431907e-10, 4.809367057187921e-07,
]


@_ROUTES
def test_edge_values_are_written_as_percent_g(tmp_path, wide):
    values = np.array(_EDGES + [-v for v in _EDGES]).reshape(-1, 2)
    assert _written(tmp_path / "m.mat", values, wide) == _expected(values, ["bits"])
    text = (tmp_path / "m.mat").read_text(encoding="utf-8")
    assert "\r" not in text and text.splitlines()[2:6] == ["0 -0", "inf -inf", "nan 4.9406564584124654e-324",
                                                         "2.2250738585072014e-308 1.7976931348623157e+308"]


@_ROUTES
def test_rows_straddle_block_boundaries(tmp_path, wide):
    rng = np.random.default_rng(5)
    rows = 3 * matio._BLOCK // 14 + 1  # 14 floats a row: blocks end inside rows
    values = rng.standard_normal((rows, 14)) * 10.0 ** rng.integers(-12, 17, (rows, 14))
    values[::5] = np.round(values[::5], 2)
    assert _written(tmp_path / "m.mat", values, wide) == _expected(values, ["bits"])


@pytest.mark.skipif(not matio._X87_LONGDOUBLE, reason="longdouble is not x87's 80-bit format")
def test_blocks_format_nearly_every_float_themselves():
    """Only a float whose scaled longdouble is a half-integer takes '%.17g':
    with y's ulp of 2**-10 to 2**-7, one in a few hundred."""
    x = np.random.default_rng(6).standard_normal(64 * matio._BLOCK)
    assert matio._significands(x)[2].mean() > 0.99


@pytest.mark.parametrize("decades", [-1, 1])
def test_a_wrong_exponent_estimate_falls_back(tmp_path, monkeypatch, decades):
    """The range checks on y and m, not log10, decide which floats the
    block route writes: with the exponent estimate of every |x| < 1e15 off
    by one decade, the bytes stay those of '%.17g'."""
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + decades * (a < 1e15))
    rng = np.random.default_rng(7)
    values = np.r_[_EDGES, rng.standard_normal(64) * 10.0 ** rng.integers(-10, 16, 64)].reshape(-1, 2)
    assert _written(tmp_path / "m.mat", values, True) == _expected(values, ["bits"])

"""Plain-text matrix files.

Layout: UTF-8, a leading byte-order mark skipped; '#' comment lines,
which may not contain a line break, are ignored wherever they appear;
the first data line holds the row count R; each of the following R data
lines holds 2C whitespace-separated decimal floats, one (re, im) pair
per entry, row major. Square observables have R = C = N. Decoupling maps
are rectangular and carry ``s-matrix rows=.. cols=.. K=..`` in a
comment so the model space can be rebuilt. Values are written as ``'%.17g'``
writes them: 17 significant digits, enough to round-trip float64 exactly.
Tokens are decimal floats, ``inf`` and ``nan``, no underscores and no
non-ASCII digits. Lines end in a line feed on every platform.

A file is written in blocks of 1024 tokens, one binary write each, with
~120 bytes of temporaries a token. Where ``longdouble`` has a 64-bit
significand or wider, 1e-10 <= |x| < 1e16 of decimal exponent E scales by
the exact 10**(16 - E) <= 10**27 to y with one rounding. No half-integer
below 2**57 lies strictly between y and the exact product, so m = rint(y)
is ``'%.17g'``'s significand unless y is a half-integer or m is not in
[1e16, 1e17). Those tokens, nonzero values out of that range, inf, nan,
and every token where ``longdouble`` is narrower take ``'%.17g'`` itself,
in one ``%`` a block; zeros and m are laid out from tables.

A file is opened once and read in chunks of whole lines of about 64 KB,
each parsed into the preallocated result, so beyond the matrix a read
holds little more than one chunk. Where numpy's ``longdouble`` is x87's
80-bit format, a plain chunk (ASCII digits, ``.+-eE``, spaces, tabs and
line feeds) is parsed by one ``np.fromstring(..., np.longdouble)``, whose
glibc ``strtold`` rounds a token x correctly to r with a 64-bit
significand. Every binary64 midpoint is representable in 64 bits, so none
lies strictly between x and r, and narrowing r rounds x to nearest even
unless r is a midpoint itself (its low 11 significand bits are ``0x400``).
Those tokens, and those whose nonzero r lands at or below float64's
smallest normal magnitude or beyond its range, are parsed again by
``float()`` (Clinger, PLDI 1990). Any other chunk (comments, ``inf`` or
``nan``, other line breaks), or one ``strtold`` does not read, goes to
``np.loadtxt``; either way every token reads as its correctly rounded
float64. A refused file names its first fault from the bytes already read.
"""

from __future__ import annotations

import codecs
import io
import itertools
import os
import re
import sys
import warnings

import numpy as np

from .. import util
from ..errors import DimensionMismatch, MatrixFileError, NonFinite, ValidationError
from ..spaces import ModelSpace, ObservableMatrix, validate_hermitian
from ..transform import DecouplingMap, DirectProvenance, _direct_provenance

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_observable",
    "read_observable",
    "write_decoupling_map",
    "read_decoupling_map",
    "write_effective",
]


def write_matrix(path, matrix, comments=()) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"can only write 2-D matrices, got ndim={m.ndim}")
    if m.shape[1] == 0 < m.shape[0]:
        raise DimensionMismatch(f"{m.shape[0]} rows without entries would read back as 0 rows")
    heads = [f"# {c}" for c in comments]
    if broken := [head[2:] for head in heads if head.splitlines() != [head]]:
        raise ValidationError(f"comment {broken[0]!r} contains a line break")
    try:
        head = "".join(f"{line}\n" for line in [*heads, str(m.shape[0])]).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValidationError(f"comment text {exc.object[exc.start:exc.end]!r} is not UTF-8") from exc
    values = np.ascontiguousarray(m).view(np.float64).ravel()
    with open(path, "wb") as handle:
        handle.write(head)
        for start in range(0, values.size, _BLOCK):  # one expression frees each block once read
            handle.write(_format_block(values[start:start + _BLOCK], start, 2 * m.shape[1])
                         .tobytes().translate(_SEPARATOR, b" "))


# The block writer. A float 10**-10 <= |x| < 10**16 of decimal exponent E
# has class E - _E_MIN and 17-digit significand m = rint(|x| 10**(16 - E)).
_WIDE_LONGDOUBLE = np.finfo(np.longdouble).nmant >= 63  # else every token takes '%.17g'
_BLOCK = 1024  # tokens per block; a token holds ~120 bytes of temporaries
_E_MIN = -11
_SCALES = np.cumprod(np.r_[1, np.full(16 - _E_MIN, 10)].astype(np.longdouble))[::-1]  # exact
# the 4 digit values of each group 0000-9999 at the odd bytes of a word, and its trailing zeros
_GROUPS = np.zeros((10_000, 8), np.uint8)
_GROUPS[:, 1::2] = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
_GROUPS = _GROUPS.view(np.uint64).ravel()
_TRAILING = sum(np.arange(10_000) % 10**p == 0 for p in range(1, 5)).astype(np.uint8)
_SEPARATOR = bytes.maketrans(b",", b" ")


def _templates() -> np.ndarray:
    """Row 34 c + 2 (k - 1) + sign for class c and k digits: the sign at
    byte 0, '0.000' below 1 at 1-5, digit j at 7 + 2j, the point after it
    at 8 + 2j, an exponent at 40-43, the separator at 47, blanks between."""
    rows = np.full((17 - _E_MIN, 17, 2, 48), ord(" "), np.uint8)
    rows[:, :, 1, 0], rows[..., 47], rows[-1, ..., 7] = ord("-"), ord(","), ord("0")  # last class: zeros
    for c, e in enumerate(range(_E_MIN, 16)):
        before = e + 1 if e >= -4 else 1  # digits before the point; '%.17g' is fixed for -4 <= E < 17
        if e < -4:
            rows[c, ..., 40:44] = list(f"e-{-e:02d}".encode())
        elif e < 0:
            rows[c, ..., 1:2 - e] = list(b"0.000"[:1 - e])
        for k in range(1, 18):
            rows[c, k - 1, :, 7:7 + 2 * max(k, before):2] = ord("0")
            if k > before > 0:
                rows[c, k - 1, :, 6 + 2 * before] = ord(".")
    return rows.reshape(-1, 48)


_TEMPLATES = _templates()


def _significands(x: np.ndarray):
    """The class c of each float of ``x``, its 17-digit significand m, and
    whether m is exact; m is 0 where it is not, and for zeros."""
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e16)
    a[~fast] = 1e16  # the last class: zeros, and the tokens '%' writes
    c = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    y = np.multiply(a, np.take(_SCALES, c))  # exact scale, one rounding
    m = np.rint(y)
    # y is no half-integer, so neither is |x| 10**(16 - E), and m is in [1e16, 1e17)
    good = fast & (np.abs(y - m) < 0.5) & (y >= 1e16) & (m < 1e17) & _WIDE_LONGDOUBLE
    return c, m.astype(np.int64) * good, good


def _format_block(x: np.ndarray, start: int, width: int) -> np.ndarray:
    """The (n, 48) template rows of the floats ``x``, token ``start`` on of
    rows of ``width``: each row, less its blanks and with ',' read as a
    space, is its token's '%.17g' and separator."""
    c, mi, good = _significands(x)
    groups, high = [], 0  # the leading digit, then four groups of 4 digits
    for p in (16, 12, 8, 4, 0):
        low = mi // 10**p  # numpy's integer % is slower than // by a constant
        groups.append(low - 10**4 * high)
        high = low
    zeros = np.take(_TRAILING, groups[4])  # trailing zeros of m
    for j in (3, 2, 1):
        if not (below := (zeros >= 16 - 4 * j) & good).any():  # groups j + 1.. all zero
            break
        zeros += below * np.take(_TRAILING, groups[j])
    out = np.take(_TEMPLATES, 34 * c + 32 - 2 * zeros + np.signbit(x), axis=0)
    words = out.view(np.uint64)
    for j, group in enumerate(groups):
        words[:, j] |= np.take(_GROUPS, group)
    out[width - 1 - start % width::width, 47] = ord("\n")
    if (bad := (~good & (x != 0)).nonzero()[0]).size:
        text = ("%-47.17g" * bad.size) % tuple(x[bad].tolist())
        out[bad, :47] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 47)
    return out


def _decode_text(path, data: bytes, error=MatrixFileError) -> str:
    """The bytes ``data`` of a UTF-8 text file less a leading byte-order
    mark; any other bytes raise ``error`` naming the offset in the file."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _parse_floats(text: str, comments: list[str]) -> np.ndarray:
    """numpy's C float parser over the whitespace-separated tokens of the
    data lines of ``text``, one row per line, (0, 0) for none; comments go
    to ``comments``. Raises ValueError on a bad token or a change of width."""
    lines = [line for _, line in _data_lines([text], comments)]
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2) if lines else np.empty((0, 0))


def _data_lines(chunks, comments: list[str]):
    """``(line number, stripped text)`` of each data line in text chunks
    that each end at a line break (the last may not), numbered as
    ``str.splitlines`` numbers the whole text; comments go to ``comments``."""
    lines = itertools.chain.from_iterable(chunk.splitlines() for chunk in chunks)
    for ln, raw in enumerate(lines, start=1):
        text = raw.strip()
        if text.startswith("#"):
            comments.append(text[1:].strip())
        elif text:
            yield ln, text


def _row_count(path, line) -> int:
    """The row count on a ``(line number, text)`` data line, None where the
    file has no data line."""
    ln, text = line or (0, None)
    if text is None:
        raise MatrixFileError(f"{path}: missing row count line")
    try:
        rows = int(text)
    except ValueError as exc:
        raise MatrixFileError(f"{path}:{ln}: expected the row count, got {text!r}") from exc
    if rows < 0:
        raise MatrixFileError(f"{path}:{ln}: negative row count")
    return rows


def read_matrix(path):
    """Parse a matrix file into ``(complex matrix, comment list)``.

    The column count is taken from the rows themselves, so rectangular
    data reads back exactly as written. Each (re, im) float pair is
    viewed as one complex entry, so every double written, signed zeros
    and infinities included, reads back bit for bit (a NaN as numpy's NaN).
    The path is opened once: input that cannot seek (a pipe) is read into
    memory, so a refused file's first fault is named from the bytes read.
    """
    comments: list[str] = []
    with open(path, "rb") as file:
        handle = file if file.seekable() else io.BytesIO(file.read())
        try:
            values = _read_values(path, handle, comments)
        except (ValueError, MatrixFileError):  # a bad row count, token or UTF-8 byte
            values = None
        if values is None:
            handle.seek(0)
            _raise_first_fault(path, handle.read())
    return values.view(np.complex128), comments


# glibc's strtold rounds to a 64-bit significand, stored as the low
# little-endian half of a 16-byte longdouble.
_X87_LONGDOUBLE = (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
                   and sys.byteorder == "little")
_CHUNK = 64 * 1024  # bytes of whole lines per parse; bounds the reader's temporaries
_PLAIN_BYTES = b"0123456789 \t\n.-+eE"
_TOKEN = re.compile(rb"[^ \t\n]+")
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max


def _read_values(path, handle, comments: list[str]) -> np.ndarray | None:
    """The (R, 2C) floats of a binary matrix file, or None where they are
    not well formed: the head read line by line up to the row count, the
    rest chunk by chunk into the result, by ``strtold`` or ``np.loadtxt``."""
    size = handle.seek(0, os.SEEK_END)
    handle.seek(0)
    handle.seek(3 if handle.read(3) == codecs.BOM_UTF8 else 0)
    line, rest = None, b""
    for raw in handle:
        lines = _data_lines([raw.decode("utf-8")], comments)
        if (line := next(lines, None)) is not None:  # data after a break other than \n
            rest = "".join(f"{text}\n" for _, text in lines).encode()
            break
    rows = _row_count(path, line)
    values, width, done = np.empty((0, 0)), 0, 0
    # the rest of the row count's line, then _CHUNK bytes at a time, each
    # completed to whole lines and given a final line feed
    for chunk in itertools.chain([rest], iter(lambda: handle.read(_CHUNK), b"")):
        chunk += handle.readline() + b"\n"
        plain = _X87_LONGDOUBLE and not chunk.translate(None, _PLAIN_BYTES)
        if plain:
            starts, counts = _tokens(chunk)
            if (counts != counts[:1]).any():  # rows of other widths, which loadtxt refuses too
                return None
            shape = (counts.size, int(counts[0]) if counts.size else 0)
        else:
            block = _parse_floats(chunk.decode("utf-8"), comments)
            shape = block.shape
        if not shape[0]:
            continue
        if not width:
            width = shape[1]
            # a token takes a byte and a blank: refuse a row count the file cannot hold
            if width % 2 or rows * width * 2 > size:
                return None
            values = np.empty((rows, width))
        if shape[1] != width or done + shape[0] > rows:
            return None
        out = values[done:done + shape[0]]
        if not (plain and _narrow(chunk, starts, out.reshape(-1))):
            out[...] = _parse_floats(chunk.decode("utf-8"), comments) if plain else block
        done += shape[0]
    return values if done == rows else None


def _tokens(chunk: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Offsets at which the tokens of a chunk of plain lines begin, and the
    token count of each line that has any."""
    data = np.frombuffer(chunk, np.uint8)
    # space, tab and line feed are the alphabet's bytes at or below 32; the
    # chunk ends in a line feed, so a blank follows every token
    blanks = (data <= 32).nonzero()[0]
    starts = blanks[:-1][blanks[1:] != blanks[:-1] + 1] + 1
    if blanks[0]:
        starts = np.concatenate(([0], starts))
    # tokens before each line feed, hence each line's token count
    counts = np.diff(np.searchsorted(starts, blanks[data[blanks] == 10]), prepend=0)
    return starts, counts[counts > 0]


def _narrow(chunk: bytes, starts: np.ndarray, out: np.ndarray) -> bool:
    """Parse the tokens of ``chunk``, which begin at ``starts``, into the
    float64 ``out`` through ``strtold``; False where it does not read one
    value per token."""
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        # older numpy warns on text it cannot read; an r beyond float64 is parsed again
        warnings.simplefilter("error", DeprecationWarning)
        try:
            wide = np.fromstring(chunk, np.longdouble, sep=" ")
        except (ValueError, DeprecationWarning):
            return False
        if wide.size != out.size:
            return False
        out[...] = wide
    size = np.abs(out)
    retry = (size <= _TINY) | (size > _HUGE)
    # a binary64 midpoint: the low 11 bits of r's significand, its first word, are 0x400
    retry |= (wide.view(np.uint16)[::8] & 0x7FF) == 0x400
    flagged = retry.nonzero()[0]
    for i in flagged[wide[flagged] != 0].tolist():  # a zero r narrows exactly
        out[i] = float(_TOKEN.match(chunk, starts[i]).group())
    return True


def _raise_first_fault(path, data: bytes):
    """Raise the first fault of a refused file from its bytes ``data``:
    bytes that are not UTF-8, the row count line, a bad or odd line in file
    order, each parsed alone with the same parser, then the row count
    against the data lines, then the row widths."""
    numbered = _data_lines([_decode_text(path, data)], [])
    rows = _row_count(path, next(numbered, None))
    lines = list(numbered)
    for ln, text in lines:
        try:
            width = _parse_floats(text, []).shape[1]
        except ValueError as exc:
            raise MatrixFileError(f"{path}:{ln}: non-numeric entry") from exc
        if width % 2:
            raise MatrixFileError(f"{path}:{ln}: odd float count; entries are (re, im) pairs")
    if len(lines) != rows:
        raise MatrixFileError(f"{path}: declared {rows} rows, found {len(lines)}")
    # every line parses on its own, so the bulk parse failed on a width change
    raise MatrixFileError(f"{path}: rows have inconsistent entry counts")


def read_observable(path):
    """Square Hermitian matrix file -> (ObservableMatrix, comments)."""
    m, comments = read_matrix(path)
    if m.shape[0] != m.shape[1]:
        raise MatrixFileError(f"{path}: observable must be square, got {m.shape}")
    return validate_hermitian(m), comments


def write_observable(path, obs: ObservableMatrix, comments=()) -> None:
    write_matrix(path, obs.matrix, comments)


def _format_indices(indices) -> str:
    """``1,2,4``: an index set as files and the command line write it."""
    return ",".join(str(i) for i in indices)


def _parse_indices(text: str) -> tuple[int, ...]:
    """Inverse of :func:`_format_indices`; ValueError on a token that is not an integer."""
    return tuple(int(token) for token in text.split(","))


def _parse_fields(comment: str) -> dict[str, str]:
    """``key=value`` tokens of a whitespace-separated line; other tokens are skipped."""
    out = {}
    for token in comment.split():
        if "=" in token:
            key, _, value = token.partition("=")
            out[key] = value
    return out


def _j_comment(dm: DecouplingMap) -> list[str]:
    """``["J=<ids>"]`` for a map built from known eigenvectors, else ``[]``."""
    if isinstance(dm.provenance, DirectProvenance) and dm.provenance.indices:
        return ["J=" + _format_indices(dm.provenance.indices)]
    return []


def write_decoupling_map(path, dm: DecouplingMap, extra_comments=()) -> None:
    if not np.isfinite(dm.s).all():  # read_decoupling_map refuses such a file
        raise NonFinite("s-matrix contains NaN or Inf entries")
    ms = dm.model_space
    k = _format_indices(ms.indices)
    header = f"s-matrix rows={ms.total_dim - ms.dim} cols={ms.dim} K={k}"
    write_matrix(path, dm.s, [header, *_j_comment(dm), *extra_comments])


def read_decoupling_map(path) -> DecouplingMap:
    m, comments = read_matrix(path)
    header = next((c for c in comments if c.startswith("s-matrix")), None)
    if header is None:
        raise MatrixFileError(f"{path}: missing 's-matrix' header comment")
    fields = _parse_fields(header)
    try:
        rows = int(fields["rows"])
        cols = int(fields["cols"])
        ms = ModelSpace(rows + cols, _parse_indices(fields["K"]))
        if ms.dim != cols:
            raise DimensionMismatch(f"K has {ms.dim} indices, cols={cols}")
    except (KeyError, ValueError) as exc:
        raise MatrixFileError(f"{path}: malformed s-matrix header {header!r}") from exc
    except ValidationError as exc:
        raise MatrixFileError(f"{path}: malformed s-matrix header {header!r}: {exc}") from exc
    if rows == 0 == m.shape[0]:  # a file without data rows reads back as (0, 0)
        m = np.zeros((0, cols), dtype=np.complex128)
    if m.shape != (rows, cols):
        raise MatrixFileError(f"{path}: data shape {m.shape} does not match header ({rows}, {cols})")
    if not np.isfinite(m).all():
        raise MatrixFileError(f"{path}: s-matrix contains NaN or Inf entries")
    provenance = None
    for comment in comments:
        extra = _parse_fields(comment)
        if "J" in extra:
            try:
                provenance = _direct_provenance(_parse_indices(extra["J"]), ms)
            except (ValueError, ValidationError) as exc:
                raise MatrixFileError(f"{path}: malformed J field in {comment!r}: {exc}") from exc
    return DecouplingMap(ms, util._frozen(m), provenance)


def write_effective(path, op, *, extra_comments=()) -> None:
    """Effective-operator file with provenance comments (K, J, residual)."""
    dm = op.decoupling
    comments = ["K=" + _format_indices(dm.model_space.indices), *_j_comment(dm)]
    if op.residual is not None:
        comments.append(f"residual={op.residual:.6e}")
    comments.extend(extra_comments)
    write_matrix(path, op.matrix, comments)

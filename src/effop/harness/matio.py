"""Plain-text matrix files.

Layout: UTF-8, a leading byte-order mark skipped; '#' comment lines,
which may not contain a line break, are ignored wherever they appear;
the first data line holds the row count R; each of the following R data
lines holds 2C whitespace-separated decimal floats, one (re, im) pair
per entry, row major. Square observables have R = C = N. Decoupling maps
are rectangular and carry ``s-matrix rows=.. cols=.. K=..`` in a
comment so the model space can be rebuilt. Values are written with 17
significant digits, enough to round-trip float64 exactly. Tokens are read
by numpy's float parser: decimal floats, ``inf`` and ``nan``, no
underscores and no non-ASCII digits. Files are read and written one
row at a time, so beyond the matrix they hold about one row of text.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np

from .. import util
from ..errors import DimensionMismatch, MatrixFileError, ValidationError
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
    # '%.17g' formats through the same PyOS_double_to_string call as
    # '{:.17g}'; 17 significant digits round-trip every float64.
    row = " ".join(["%.17g"] * (2 * m.shape[1])) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{line}\n" for line in [*heads, str(m.shape[0])])
        for values in np.ascontiguousarray(m).view(np.float64):
            handle.write(row % tuple(values.tolist()))


def _read_text(path, error=MatrixFileError) -> str:
    """Contents of a UTF-8 text file less a leading byte-order mark; any
    other bytes raise ``error`` naming the offset in the file."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _parse_floats(lines) -> np.ndarray:
    """numpy's C float parser over whitespace-separated tokens: one row per
    line; raises ValueError on a bad token or a change of row width."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


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


def _row_count(path, lines) -> int:
    """The row count on the first of the ``(line number, text)`` data lines."""
    ln, text = next(lines, (0, None))
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
    Lines stream from the file into the parser; a file it refuses is read
    again whole to name its first fault.
    """
    comments: list[str] = []
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = _data_lines(handle, comments)
            rows = _row_count(path, lines)
            data = (text for _, text in lines)
            first = next(data, None)  # numpy warns on an empty stream
            values = (np.empty((0, 0)) if first is None
                      else _parse_floats(itertools.chain([first], data)))
    except (ValueError, MatrixFileError):  # a bad row count, token or UTF-8 byte
        values = None
    if values is None or values.shape[1] % 2 or len(values) != rows:
        _raise_first_fault(path)
    return values.view(np.complex128), comments


def _raise_first_fault(path):
    """Raise the first fault of a file the stream refused, reading it whole:
    bytes that are not UTF-8, the row count line, a bad or odd line in file
    order, each parsed alone with the same parser, then the row count
    against the data lines, then the row widths."""
    numbered = _data_lines([_read_text(path)], [])
    rows = _row_count(path, numbered)
    lines = list(numbered)
    for ln, text in lines:
        try:
            width = _parse_floats([text]).shape[1]
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

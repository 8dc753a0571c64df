"""Plain-text matrix files.

Layout: '#' comment lines are ignored wherever they appear; the first
data line holds the row count R; each of the following R data lines
holds 2C whitespace-separated decimal floats, one (re, im) pair per
entry, row major. Square observables have R = C = N. Decoupling maps
are rectangular and carry ``s-matrix rows=.. cols=.. K=..`` in a
comment so the model space can be rebuilt. Values are written with 17
significant digits, enough to round-trip float64 exactly. Tokens are read
by numpy's float parser: decimal floats, ``inf`` and ``nan``, no
underscores and no non-ASCII digits.
"""

from __future__ import annotations

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
    # '%.17g' formats through the same PyOS_double_to_string call as
    # '{:.17g}'; 17 significant digits round-trip every float64.
    row = " ".join(["%.17g"] * (2 * m.shape[1]))
    lines = [f"# {c}" for c in comments]
    lines.append(str(m.shape[0]))
    floats = np.ascontiguousarray(m).view(np.float64)
    lines.extend(row % tuple(values) for values in floats.tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path, error=MatrixFileError) -> str:
    """Contents of a UTF-8 text file; any other bytes raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _parse_floats(lines) -> np.ndarray:
    """numpy's C float parser over whitespace-separated tokens: one row per
    line; raises ValueError on a bad token or a change of row width."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def read_matrix(path):
    """Parse a matrix file into ``(complex matrix, comment list)``.

    The column count is taken from the rows themselves, so rectangular
    data reads back exactly as written. Each (re, im) float pair is
    viewed as one complex entry, so every double written, signed zeros
    and infinities included, reads back bit for bit (a NaN as numpy's NaN).
    """
    rows = None
    lines: list[str] = []
    line_numbers: list[int] = []
    comments: list[str] = []
    for ln, raw in enumerate(_read_text(path).splitlines(), start=1):
        text = raw.strip()
        if not text:
            continue
        if text.startswith("#"):
            comments.append(text[1:].strip())
            continue
        if rows is None:
            try:
                rows = int(text)
            except ValueError as exc:
                raise MatrixFileError(f"{path}:{ln}: expected the row count, got {text!r}") from exc
            if rows < 0:
                raise MatrixFileError(f"{path}:{ln}: negative row count")
            continue
        lines.append(text)
        line_numbers.append(ln)
    if rows is None:
        raise MatrixFileError(f"{path}: missing row count line")
    try:
        values = _parse_floats(lines) if lines else np.empty((0, 0))
    except ValueError:
        values = None
    if values is None or values.shape[1] % 2 or len(lines) != rows:
        _raise_first_fault(path, rows, lines, line_numbers)
    return values.view(np.complex128), comments


def _raise_first_fault(path, rows: int, lines: list[str], line_numbers: list[int]):
    """Raise the first fault of a file the fast path refused: a bad or
    odd line in file order, each parsed alone with the same parser, then
    the row count, then the row widths."""
    for ln, text in zip(line_numbers, lines):
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

"""Text formats: MatrixMarket matrices and turnstile stream files.

Dense matrices use ``matrix array real general`` (column-major body), sparse
ones ``matrix coordinate real general`` with 1-based indices.  Values are
written with 17 significant digits so that write-then-read reproduces the
exact float64 bits.

A stream file is a header line ``m n q`` followed by q update lines
``i j x`` with 1-based coordinates, in arrival order; it reads into a
``streaming._RECORD`` array of 0-based updates, the one stream format.

Every body parses by one rule, a numpy cast per field (_columns).  Readers
raise InputError for every malformed file: a bad number, a wrong field
count, an index out of range, a value that is not finite, or bytes that
are not UTF-8 are reported as ``path:line``.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import itemgetter, not_

import numpy as np

from .errors import InputError, InternalError
from .sparse import SparseColMatrix
from .streaming import _RECORD, _blocks

_FMT = "%.17g"


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text") from exc


def _data_lines(lines: list[str]) -> list[str]:
    """The stripped lines that are neither blank nor % comments."""
    lines = list(filter(None, map(str.strip, lines)))
    return list(compress(lines, map(not_, map(str.startswith, lines, repeat("%")))))


def _first_bad(path, text: str, start: int, fault) -> InputError | None:
    """Bad input naming the first data line, from data line start on, for
    which fault(line) says what is wrong; None when there is none."""
    index = -1
    for no, line in enumerate(map(str.strip, text.splitlines()), 1):
        if line and line[0] != "%":
            index += 1
            if index >= start and (what := fault(line)):
                return InputError(f"{path}:{no}: {what} in {line!r}")
    return None


def _fault(line: str, bounds: tuple) -> str | None:
    """What is wrong with one data line read field by field, or None."""
    fields = line.split()
    if len(fields) != len(bounds):
        return "wrong number of fields"
    try:
        for f, b in zip(fields, bounds):
            if b is None and not math.isfinite(float(f)):
                return "non-finite value"
            if b is not None and not 1 <= int(f) <= b:
                return "index out of range"
    except ValueError:
        return "malformed number"
    return None


def _columns(path, text: str, lines: list[str], bounds: tuple) -> list[np.ndarray]:
    """The data lines as one array per field, each a single numpy cast.

    bounds has one entry per field: a size makes the field a 1-based index
    at most that size, returned 0-based as int64, and None a finite float64.
    Only when a cast or a check fails are the lines walked one by one, to
    name the first bad path:line.
    """
    try:
        if len(bounds) == 1:
            # a line with more than one field fails the float cast
            fields = [lines]
        else:
            rows = list(map(str.split, lines))
            if set(map(len, rows)) - {len(bounds)}:
                raise ValueError("wrong number of fields")
            fields = [list(map(itemgetter(f), rows)) for f in range(len(bounds))]
        cols = [np.array(c, dtype=np.float64 if b is None else np.int64)
                for c, b in zip(fields, bounds)]
        if all(np.isfinite(c).all() if b is None else ((1 <= c) & (c <= b)).all()
               for c, b in zip(cols, bounds)):
            return [c if b is None else c - 1 for c, b in zip(cols, bounds)]
    except (ValueError, OverflowError):
        pass
    bad = _first_bad(path, text, 1, lambda line: _fault(line, bounds))
    raise bad or InternalError(f"{path}: numpy refused data lines that int() and float() accept")


def _sizes(path, text: str, line: str, count: int, form: str) -> list[int]:
    """The size line's count nonnegative integers (it is data line 0)."""
    fields = line.split()
    if len(fields) != count:
        raise InputError(f"{path}: {form}")
    try:
        sizes = list(map(int, fields))
    except ValueError as exc:
        raise _first_bad(path, text, 0, lambda _: "malformed number") from exc
    if min(sizes) < 0:
        raise InputError(f"{path}: negative size in {line!r}")
    return sizes


def _write(path, head: list[str], fmt: str, cols) -> None:
    """Write the head lines, then one fmt line per row of the columns."""
    body = map(fmt.__mod__, zip(*(c.tolist() for c in cols)))
    with open(path, "w") as fh:
        fh.write("\n".join([*head, *body]) + "\n")


def write_matrix_market(path, A) -> None:
    """Write a dense ndarray or SparseColMatrix in MatrixMarket format."""
    if isinstance(A, SparseColMatrix):
        _write(path, ["%%MatrixMarket matrix coordinate real general",
                      f"{A.n_rows} {A.n_cols} {A.nnz}"],
               f"%d %d {_FMT}", (A.indices + 1, A.entry_cols() + 1, A.data))
        return
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise InputError("matrix must be 2-D")
    _write(path, ["%%MatrixMarket matrix array real general", f"{A.shape[0]} {A.shape[1]}"],
           _FMT, (A.T.ravel(),))


def read_matrix_market(path):
    """Read a MatrixMarket file; returns ndarray (array) or SparseColMatrix."""
    text = _read_text(path)
    lines = text.splitlines()
    fields = lines[0].lower().split() if lines else []
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise InputError(f"{path}: not a MatrixMarket matrix file")
    kind, scalar, symmetry = fields[2], fields[3], fields[4]
    if scalar != "real" or symmetry != "general":
        raise InputError(f"{path}: only 'real general' matrices are supported")
    body = _data_lines(lines)
    if not body:
        raise InputError(f"{path}: missing size line")

    if kind == "array":
        m, n = _sizes(path, text, body[0], 2, "array size line must be 'm n'")
        if len(body) - 1 != m * n:
            raise InputError(f"{path}: expected {m * n} values, found {len(body) - 1}")
        (A,) = _columns(path, text, body[1:], (None,))
        return A.reshape((n, m)).T if m * n else np.zeros((m, n))

    if kind == "coordinate":
        m, n, nnz = _sizes(path, text, body[0], 3,
                           "coordinate size line must be 'm n nnz'")
        if len(body) - 1 != nnz:
            raise InputError(f"{path}: expected {nnz} entries, found {len(body) - 1}")
        rows, cols, vals = _columns(path, text, body[1:], (m, n, None))
        # explicit zeros are dropped; the rest sorted by column, then row
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[order]
        dup = (np.diff(cols) == 0) & (np.diff(rows) == 0)
        if np.any(dup):
            raise InputError(f"{path}: duplicate entry in column {cols[np.argmax(dup)] + 1}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return SparseColMatrix((m, n), indptr, rows, vals)

    raise InputError(f"{path}: unsupported kind {kind!r}")


def write_stream_file(path, shape, updates) -> None:
    """Write turnstile updates (i, j, x) with 0-based coords, a _RECORD
    array or any iterable of triples, to a stream file."""
    m, n = int(shape[0]), int(shape[1])
    rec = np.concatenate([np.empty(0, _RECORD), *_blocks(updates, m, n)])
    _write(path, [f"{m} {n} {len(rec)}"], f"%d %d {_FMT}",
           (rec["i"] + 1, rec["j"] + 1, rec["x"]))


def read_stream_file(path):
    """Read a stream file; returns ((m, n), _RECORD array of 0-based (i, j, x))."""
    text = _read_text(path)
    body = _data_lines(text.splitlines())
    if not body:
        raise InputError(f"{path}: empty stream file")
    m, n, q = _sizes(path, text, body[0], 3, "header must be 'm n q'")
    if len(body) - 1 != q:
        raise InputError(f"{path}: expected {q} updates, found {len(body) - 1}")
    updates = np.empty(q, _RECORD)
    updates["i"], updates["j"], updates["x"] = _columns(path, text, body[1:], (m, n, None))
    return (m, n), updates

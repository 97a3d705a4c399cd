"""Text formats: MatrixMarket matrices and turnstile stream files.

Dense matrices use ``matrix array real general`` (column-major body), sparse
ones ``matrix coordinate real general`` with 1-based indices.  Values are
written with 17 significant digits so that write-then-read reproduces the
exact float64 bits.

A stream file is a header line ``m n q`` followed by q update lines
``i j x`` with 1-based coordinates, in arrival order.

Readers raise InputError for every malformed file: a bad number, a value
that is not finite, or bytes that are not UTF-8 are reported as
``path:line``.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .sparse import SparseColMatrix

_FMT = "%.17g"


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text") from exc


def _data_lines(text: str) -> list[str]:
    """The stripped lines that are neither blank nor % comments."""
    return [line for line in map(str.strip, text.splitlines())
            if line and line[0] != "%"]


def _malformed(path, text: str, index: int, line: str,
               what: str = "malformed number") -> InputError:
    """Bad input naming the file line that holds _data_lines(text)[index]."""
    numbers = [no for no, line in enumerate(map(str.strip, text.splitlines()), 1)
               if line and line[0] != "%"]
    return InputError(f"{path}:{numbers[index]}: {what} in {line!r}")


def _finite(path, text: str, body: list[str], vals) -> np.ndarray:
    """Values of data lines 1, 2, ... as float64; a non-finite one is bad input."""
    vals = np.array(vals, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise _malformed(path, text, bad[0] + 1, body[bad[0] + 1], "non-finite value")
    return vals


def _sizes(path, text: str, line: str, count: int, form: str) -> list[int]:
    """The size line's count nonnegative integers (it is data line 0)."""
    fields = line.split()
    if len(fields) != count:
        raise InputError(f"{path}: {form}")
    try:
        sizes = [int(f) for f in fields]
    except ValueError as exc:
        raise _malformed(path, text, 0, line) from exc
    if min(sizes) < 0:
        raise InputError(f"{path}: negative size in {line!r}")
    return sizes


def write_matrix_market(path, A) -> None:
    """Write a dense ndarray or SparseColMatrix in MatrixMarket format."""
    if isinstance(A, SparseColMatrix):
        lines = ["%%MatrixMarket matrix coordinate real general",
                 f"{A.n_rows} {A.n_cols} {A.nnz}"]
        for j in range(A.n_cols):
            rows, vals = A.col(j)
            for i, v in zip(rows, vals):
                lines.append(f"{i + 1} {j + 1} {_FMT % v}")
    else:
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise InputError("matrix must be 2-D")
        lines = ["%%MatrixMarket matrix array real general",
                 f"{A.shape[0]} {A.shape[1]}"]
        for j in range(A.shape[1]):
            for i in range(A.shape[0]):
                lines.append(_FMT % A[i, j])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_market(path):
    """Read a MatrixMarket file; returns ndarray (array) or SparseColMatrix."""
    text = _read_text(path)
    first = text.splitlines()[0].strip() if text.splitlines() else ""
    fields = first.lower().split()
    if len(fields) != 5 or fields[0] != "%%matrixmarket" or fields[1] != "matrix":
        raise InputError(f"{path}: not a MatrixMarket matrix file")
    kind, scalar, symmetry = fields[2], fields[3], fields[4]
    if scalar != "real" or symmetry != "general":
        raise InputError(f"{path}: only 'real general' matrices are supported")
    body = _data_lines(text)
    if not body:
        raise InputError(f"{path}: missing size line")

    if kind == "array":
        m, n = _sizes(path, text, body[0], 2, "array size line must be 'm n'")
        if len(body) - 1 != m * n:
            raise InputError(f"{path}: expected {m * n} values, found {len(body) - 1}")
        vals = []
        try:
            for p, line in enumerate(body[1:], 1):
                vals.append(float(line))
        except ValueError as exc:
            raise _malformed(path, text, p, line) from exc
        A = _finite(path, text, body, vals)
        return A.reshape((n, m)).T if m * n else np.zeros((m, n))

    if kind == "coordinate":
        m, n, nnz = _sizes(path, text, body[0], 3,
                           "coordinate size line must be 'm n nnz'")
        if len(body) - 1 != nnz:
            raise InputError(f"{path}: expected {nnz} entries, found {len(body) - 1}")
        rows, cols, vals = [], [], []
        try:
            for p, line in enumerate(body[1:], 1):
                parts = line.split()
                if len(parts) != 3:
                    raise InputError(f"{path}: bad coordinate line {line!r}")
                i, j, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
                if not (0 <= i < m and 0 <= j < n):
                    raise InputError(f"{path}: index out of range in line {line!r}")
                rows.append(i)
                cols.append(j)
                vals.append(v)
        except ValueError as exc:
            raise _malformed(path, text, p, line) from exc
        # explicit zeros are dropped; the rest sorted by column, then row
        vals = _finite(path, text, body, vals)
        keep = vals != 0.0
        rows = np.array(rows, dtype=np.int64)[keep]
        cols = np.array(cols, dtype=np.int64)[keep]
        order = np.lexsort((rows, cols))
        rows, cols, vals = rows[order], cols[order], vals[keep][order]
        dup = (np.diff(cols) == 0) & (np.diff(rows) == 0)
        if np.any(dup):
            raise InputError(f"{path}: duplicate entry in column {cols[np.argmax(dup)] + 1}")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return SparseColMatrix((m, n), indptr, rows, vals)

    raise InputError(f"{path}: unsupported kind {kind!r}")


def write_stream_file(path, shape, updates) -> None:
    """Write turnstile updates (i, j, x) with 0-based coords to a stream file."""
    m, n = int(shape[0]), int(shape[1])
    lines = [f"{m} {n} {len(updates)}"]
    for i, j, x in updates:
        if not (0 <= i < m and 0 <= j < n):
            raise InputError(f"update index ({i}, {j}) out of range for {m} x {n}")
        lines.append(f"{i + 1} {j + 1} {_FMT % x}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_stream_file(path):
    """Read a stream file; returns ((m, n), list of 0-based (i, j, x))."""
    text = _read_text(path)
    body = _data_lines(text)
    if not body:
        raise InputError(f"{path}: empty stream file")
    m, n, q = _sizes(path, text, body[0], 3, "header must be 'm n q'")
    if len(body) - 1 != q:
        raise InputError(f"{path}: expected {q} updates, found {len(body) - 1}")
    updates = []
    try:
        for p, line in enumerate(body[1:], 1):
            parts = line.split()
            if len(parts) != 3:
                raise InputError(f"{path}: bad update line {line!r}")
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= i < m and 0 <= j < n):
                raise InputError(f"{path}: update index out of range in {line!r}")
            updates.append((i, j, float(parts[2])))
    except ValueError as exc:
        raise _malformed(path, text, p, line) from exc
    _finite(path, text, body, [x for _, _, x in updates])
    return (m, n), updates

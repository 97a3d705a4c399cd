"""Column-sparse matrix storage with per-column nonzero accounting.

The distributed column-partition protocols charge communication per column
as min(2 * nnz, m) + 1 words (a length header plus index, value pairs, or
all m values when that is fewer), so the container keeps exact per-column
nonzero counts and supports verbatim column extraction with repeats.  It is
storage and bookkeeping, not a BLAS replacement: the entry-touch kernels in
column_select_sparse read its arrays directly and accumulate through
scatter_add, the one scatter kernel of the sparse paths.

Invariants enforced at construction: row indices strictly increasing within
each column, stored values nonzero and finite, indices in range.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def scatter_add(shape, index, values) -> np.ndarray:
    """np.add.at(np.zeros(shape), index, values), bit for bit.

    index addresses the leading axes of shape: one integer array, or a
    tuple of equal-shape arrays; values has the index's shape followed by
    the remaining axes of shape.  np.bincount adds each cell's terms in
    index order from +0.0, as np.add.at does, but in one pass over a flat
    index instead of one dispatch per element.  (With no terms at all,
    bincount counts in integers, hence the cast.)
    """
    index = index if isinstance(index, tuple) else (index,)
    flat = np.ravel_multi_index(index, shape[:len(index)])
    inner = math.prod(shape[len(index):])
    if inner != 1:
        flat = flat[..., None] * inner + np.arange(inner)
    out = np.bincount(flat.ravel(), np.ravel(values), math.prod(shape))
    return out.astype(np.float64, copy=False).reshape(shape)


class SparseColMatrix:
    """CSC-style column-sparse matrix over float64."""

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(self, shape, indptr, indices, data):
        self.n_rows, self.n_cols = int(shape[0]), int(shape[1])
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError("shape must be nonnegative")
        if self.indptr.shape != (self.n_cols + 1,):
            raise InputError("indptr must have n_cols + 1 entries")
        if self.indptr[0] != 0 or np.any(np.diff(self.indptr) < 0):
            raise InputError("indptr must start at 0 and be nondecreasing")
        if self.indptr[-1] != self.indices.shape[0] or self.indices.shape != self.data.shape:
            raise InputError("indices/data length disagrees with indptr")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_rows:
                raise InputError("row index out of range")
            if not np.all(np.isfinite(self.data)):
                raise InputError("stored values must be finite")
            if np.any(self.data == 0.0):
                raise InputError("stored values must be nonzero")
        # consecutive stored entries p, p + 1 share a column unless p + 1
        # starts one
        same_col = np.ones(max(self.indices.size - 1, 0), dtype=bool)
        starts = self.indptr[1:-1]
        same_col[starts[(starts > 0) & (starts < self.indices.size)] - 1] = False
        bad = same_col & (np.diff(self.indices) <= 0)
        if np.any(bad):
            j = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
            raise InputError(f"row indices in column {j} not strictly increasing")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_dense(cls, A) -> "SparseColMatrix":
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2:
            raise InputError("from_dense needs a 2-D array")
        cols, rows = np.nonzero(A.T)     # column-major: by column, then row
        indptr = np.zeros(A.shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=A.shape[1]), out=indptr[1:])
        return cls(A.shape, indptr, rows, A[rows, cols])

    @classmethod
    def from_columns(cls, shape, cols) -> "SparseColMatrix":
        """Build from a list of (row_indices, values) pairs, one per column."""
        if len(cols) != shape[1]:
            raise InputError("need exactly one (rows, values) pair per column")
        indptr = [0]
        rows_parts, data_parts = [], []
        for rows, vals in cols:
            rows = np.asarray(rows, dtype=np.int64)
            vals = np.asarray(vals, dtype=np.float64)
            if rows.shape != vals.shape:
                raise InputError("rows and values must have equal length")
            rows_parts.append(rows)
            data_parts.append(vals)
            indptr.append(indptr[-1] + rows.size)
        indices = np.concatenate(rows_parts) if rows_parts else np.zeros(0, np.int64)
        data = np.concatenate(data_parts) if data_parts else np.zeros(0)
        return cls(shape, np.asarray(indptr), indices, data)

    # -- queries --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def col_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def entry_cols(self) -> np.ndarray:
        """The column of each stored entry, in storage order."""
        return np.repeat(np.arange(self.n_cols), np.diff(self.indptr))

    def col_sqnorms(self) -> np.ndarray:
        out = np.zeros(self.n_cols)
        sq = self.data ** 2
        for j in range(self.n_cols):
            out[j] = sq[self.indptr[j]:self.indptr[j + 1]].sum()
        return out

    def frob_sq(self) -> float:
        return float(np.sum(self.data ** 2))

    # -- conversions ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.n_rows, self.n_cols))
        A[self.indices, self.entry_cols()] = self.data
        return A

    def take_columns(self, idx) -> "SparseColMatrix":
        """Extract columns verbatim, preserving repeats and order."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_cols):
            raise InputError("column index out of range")
        starts, counts = self.indptr[idx], np.diff(self.indptr)[idx]
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        pos = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return SparseColMatrix((self.n_rows, idx.size), indptr,
                               self.indices[pos], self.data[pos])

    def __repr__(self) -> str:
        return f"SparseColMatrix(shape=({self.n_rows}, {self.n_cols}), nnz={self.nnz})"

"""Seeded sketching matrices with counter-based entry generation.

Every sketch entry is a pure function of (seed, row, column), so two parties
holding the same seed materialize bitwise-identical matrices without
communicating anything else.  The generator is a two-round splitmix64
finalizer applied to seed xor mixed cell index; it is not cryptographic, just
well distributed and reproducible across platforms.  Dense sign grids are
generated in fixed-size row blocks through ``prf_cells``, with the mixing done
in place, so a grid of any size works in cache-sized buffers.  Blocking never
changes an entry's bits; tests/test_sketches.py pins them with digests.

Families:

* sign sketches: dense +-scale entries, the workhorse for PCA and
  regression sketches and for rank-probe matrices (scale 1);
* subsampled randomized Hadamard (SRHT): used where affine-embedding
  accuracy per row matters; each entry comes from the parity of a sampled
  row index and-ed with the column index, times the column's sign;
* sparse embeddings (one nonzero per column): input-sparsity-time maps;
* Johnson-Lindenstrauss maps for norm scoring of a bounded candidate set.

Sizing helpers give the default sketch dimensions from fixed constants;
callers that want another size pass an explicit dimension instead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .sparse import scatter_add

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)   # IEEE-754 bits of 1.0
# Cells per sign-grid block: two 256 KiB uint64 buffers, small enough for L2.
_BLOCK_CELLS = 1 << 15
# Sketch cells per row block of SignSketch.apply_left: a 512 KiB float64 block.
_APPLY_CELLS = 1 << 16


def _mix64_np(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization round over uint64, in place in z.

    tmp is scratch of z's shape; it is overwritten.
    """
    np.add(z, np.uint64(_GOLDEN), out=z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, np.uint64(mult), out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def _mix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, label) -> int:
    """Derive an independent child seed from a master seed and a label.

    String labels are hashed (stable across runs and platforms); integer
    labels are mixed directly.  Derivation is associative enough for our
    needs: derive(derive(s, "a"), 3) is the per-index child of child "a".
    """
    if isinstance(label, str):
        tag = int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "big")
    elif isinstance(label, (int, np.integer)):
        tag = _mix64(int(label) & _MASK64)
    else:
        raise InputError(f"seed label must be str or int, got {type(label).__name__}")
    return _mix64(_mix64(seed & _MASK64) ^ tag)


def prf_cells(seed: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """uint64 PRF value per (row, col) cell; inputs broadcast.

    The cell grid is built once and both mixing rounds run on it in place.
    Sign grids call this once per row block (see ``_sign_grid``); the value
    of a cell depends only on (seed, row, col), so blocking never changes
    an entry's bits.  tests/test_sketches.py pins them.
    """
    # a fresh grid; asarray because 0-d inputs give a scalar, not writable
    cell = np.asarray((rows.astype(np.uint64) << np.uint64(32)) | cols.astype(np.uint64))
    tmp = np.empty_like(cell)
    _mix64_np(cell, tmp)
    np.bitwise_xor(cell, np.uint64(seed & _MASK64), out=cell)
    return _mix64_np(cell, tmp)


def _sign_grid(seed: int, lo: int, hi: int, cols: np.ndarray, scale: float) -> np.ndarray:
    """(hi - lo) x len(cols) grid, entry (r, j) = +-scale by the top bit of
    the PRF value of cell (lo + r, cols[j]).

    Filled in row blocks of about _BLOCK_CELLS cells, so the PRF's two
    buffers stay in cache.  The top bit is OR-ed onto the bits of 1.0 to
    give +-1.0, which is then multiplied by scale: the same product as
    ``np.where(h >> 63, -1.0, 1.0) * scale``, so every scale (-0.0 too)
    gives the same bits as the unblocked formula.
    """
    c = cols[None, :]
    out = np.empty((hi - lo, c.shape[1]))
    step = max(1, _BLOCK_CELLS // max(1, c.shape[1]))
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        h = prf_cells(seed, np.arange(a, b, dtype=np.uint64)[:, None], c)
        np.bitwise_and(h, _SIGN_BIT, out=h)
        np.bitwise_or(h, _ONE_BITS, out=h)
        np.multiply(h.view(np.float64), scale, out=out[a - lo:b - lo])
    return out


# -- sizing ------------------------------------------------------------


def dense_pca_dim(k: int, eps: float) -> int:
    """Rows of a dense sign sketch for rank-k PCA at accuracy eps."""
    _check_size_args(k, eps)
    return max(1, math.ceil(4.0 * k / eps**2))


def regression_dim(k: int, eps: float) -> int:
    """Rows of a sign sketch good enough for sketched regression."""
    _check_size_args(k, eps)
    return max(1, math.ceil(10.0 * k / eps))


def affine_dim(r: int, eps: float) -> int:
    """Rows of an SRHT affine embedding for an r-dimensional subspace."""
    _check_size_args(r, eps)
    return max(1, math.ceil(8.0 * r / eps**2))


def embedding_dim(k: int, eps: float) -> int:
    """Rows of a sparse embedding (one nonzero per column) for rank k."""
    _check_size_args(k, eps)
    return max(1, math.ceil(2.0 * k * k / eps**2))


def jlt_rows(n_points: int) -> int:
    """Rows of a JL map preserving n_points squared norms to a fixed factor
    with failure probability 1 / n_points: (4 + 2 beta) * 8 * ln(n_points)
    at failure exponent beta = 1."""
    if n_points < 1:
        raise InputError("n_points must be positive")
    return max(1, math.ceil(48.0 * math.log(max(n_points, 2))))


def _check_size_args(k: int, eps: float) -> None:
    if k < 0:
        raise InputError("k must be nonnegative")
    if not 0.0 < eps:
        raise InputError("eps must be positive")


def next_pow2(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


# -- dense sign sketches ----------------------------------------------


@dataclass(frozen=True)
class SignSketch:
    """Dense sketch with entries +-scale, entry (i, j) = f(seed, i, j)."""

    n_rows: int
    n_cols: int
    seed: int
    scale: float

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise InputError("sketch dimensions must be nonnegative")

    def materialize(self) -> np.ndarray:
        return _sign_grid(self.seed, 0, self.n_rows,
                          np.arange(self.n_cols, dtype=np.uint64), self.scale)

    def materialize_cols(self, cols, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Columns of the sketch by absolute index, without the rest;
        only rows lo..hi-1 of them when a row range is given."""
        hi = self.n_rows if hi is None else hi
        if not 0 <= lo <= hi <= self.n_rows:
            raise InputError(f"row range {lo}:{hi} outside a sketch of {self.n_rows} rows")
        return _sign_grid(self.seed, lo, hi,
                          np.asarray(cols, dtype=np.uint64), self.scale)

    def apply_left(self, M: np.ndarray) -> np.ndarray:
        """The product sketch @ M, with the sketch generated one row block
        at a time, so no more than about _APPLY_CELLS of its entries exist
        at once.  Each entry has the bits materialize() gives it."""
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != self.n_cols:
            raise InputError("operand rows disagree with sketch width")
        out = np.empty((self.n_rows, M.shape[1]))
        cols = np.arange(self.n_cols, dtype=np.uint64)
        step = max(1, _APPLY_CELLS // max(1, self.n_cols))
        for lo in range(0, self.n_rows, step):
            hi = min(lo + step, self.n_rows)
            np.matmul(self.materialize_cols(cols, lo, hi), M, out=out[lo:hi])
        return out


def sign_sketch(xi: int, n: int, seed: int, scale: float | None = None) -> SignSketch:
    """Standard 1/sqrt(xi)-scaled sign sketch (pass scale=1.0 for probes)."""
    if scale is None:
        scale = 1.0 / math.sqrt(xi) if xi else 1.0
    return SignSketch(xi, n, seed, scale)


# -- subsampled randomized Hadamard -----------------------------------


@dataclass(frozen=True)
class SrhtSketch:
    """Subsampled randomized Hadamard transform R H D / sqrt(xi_eff).

    H is the Sylvester Hadamard matrix of the least power of two at or above
    n_cols, restricted to its first n_cols columns, D the sign diagonal,
    and R keeps xi_eff sampled rows.  When the requested row count reaches
    the padded length every row is kept and the map is an exact isometry,
    which the capping rule exploits: xi_eff = min(xi_requested, padded
    length), since sampling is without replacement.
    """

    n_rows: int
    n_cols: int
    seed: int
    n_pad: int
    rows: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    def materialize(self) -> np.ndarray:
        """Entry (i, c) = H[rows[i], c] * signs[c] / sqrt(n_rows), where the
        Sylvester entry H[r, c] is -1 exactly when r & c has odd parity.

        Built in row blocks of about _BLOCK_CELLS cells: the parity bit of
        rows[i] & c becomes the sign bit flipped on signs[c] / sqrt(n_rows),
        which is the same float as the product, since negation is exact.
        """
        cols = np.arange(self.n_cols, dtype=np.uint64)[None, :]
        col_bits = (self.signs / math.sqrt(self.n_rows)).view(np.uint64)
        out = np.empty((self.n_rows, self.n_cols))
        step = max(1, _BLOCK_CELLS // max(1, self.n_cols))
        for a in range(0, self.n_rows, step):
            b = min(a + step, self.n_rows)
            h = self.rows[a:b, None].astype(np.uint64) & cols
            tmp = np.empty_like(h)
            for shift in (32, 16, 8, 4, 2, 1):   # xor-fold: bit 0 = parity
                np.right_shift(h, np.uint64(shift), out=tmp)
                np.bitwise_xor(h, tmp, out=h)
            np.left_shift(h, np.uint64(63), out=h)
            np.bitwise_xor(h, col_bits, out=h)
            out[a:b] = h.view(np.float64)
        return out


def srht_sketch(xi: int, n: int, seed: int) -> SrhtSketch:
    if xi < 1 or n < 1:
        raise InputError("SRHT dimensions must be positive")
    n_pad = next_pow2(n)
    xi_eff = min(xi, n_pad)
    rng = np.random.default_rng(derive_seed(seed, "srht-rows") & _MASK64)
    rows = np.sort(rng.choice(n_pad, size=xi_eff, replace=False))
    sign_cells = prf_cells(derive_seed(seed, "srht-diag"),
                           np.zeros(n, dtype=np.uint64), np.arange(n, dtype=np.uint64))
    signs = np.where(sign_cells >> np.uint64(63), -1.0, 1.0)
    return SrhtSketch(xi_eff, n, seed, n_pad, rows, signs)


# -- sparse embeddings -------------------------------------------------


@dataclass(frozen=True)
class SparseEmbedding:
    """One nonzero (+-1) per column, bucket and sign drawn from the seed.

    Application accumulates contributions in ascending column order so the
    result is bitwise identical to the naive per-column loop; a blocked
    matmul is not equivalent under floating-point addition and is avoided
    on purpose.
    """

    n_rows: int
    n_cols: int
    seed: int
    buckets: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    def apply_left(self, A: np.ndarray) -> np.ndarray:
        A = np.asarray(A, dtype=np.float64)
        if A.shape[0] != self.n_cols:
            raise InputError("operand rows disagree with sketch width")
        return scatter_add((self.n_rows,) + A.shape[1:], self.buckets,
                           self.signs.reshape((-1,) + (1,) * (A.ndim - 1)) * A)

    def apply_right(self, A: np.ndarray) -> np.ndarray:
        """A @ S.T with the same canonical accumulation order."""
        return self.apply_left(np.asarray(A, dtype=np.float64).T).T

    def materialize(self) -> np.ndarray:
        S = np.zeros((self.n_rows, self.n_cols))
        S[self.buckets, np.arange(self.n_cols)] = self.signs
        return S


def sparse_embedding(xi: int, n: int, seed: int) -> SparseEmbedding:
    if xi < 1 or n < 0:
        raise InputError("embedding needs xi >= 1 and n >= 0")
    cols = np.arange(n, dtype=np.uint64)
    zero = np.zeros(n, dtype=np.uint64)
    buckets = prf_cells(derive_seed(seed, "embed-bucket"), zero, cols) % np.uint64(xi)
    sign_cells = prf_cells(derive_seed(seed, "embed-sign"), zero, cols)
    signs = np.where(sign_cells >> np.uint64(63), -1.0, 1.0)
    return SparseEmbedding(xi, n, seed, buckets.astype(np.int64), signs)


# -- Johnson-Lindenstrauss ---------------------------------------------


def jlt_sketch(n_points: int, n: int, seed: int) -> SignSketch:
    """Sign JL map with rows chosen for n_points vectors at failure 1 / n_points."""
    r = jlt_rows(n_points)
    return SignSketch(r, n, seed, 1.0 / math.sqrt(r))

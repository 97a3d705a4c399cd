"""Turnstile-stream engine and the streaming PCA algorithms.

A stream is a sequence of additive entry updates (i, j, x) with 0-based
indices, deletions included, defining a matrix implicitly.  Its one format
is a _RECORD array (int64 i, int64 j, float64 x), as
fileio.read_stream_file returns it; any other iterable of triples is read
into _RECORD blocks as it arrives.  The sketch state maintains linear
images of that matrix small enough to keep in memory: a two-sided affine
pair M = T_left A T_right plus the mixed products L = S A T_right,
N = T_left A R, the tall factor D = A R, and optionally C = S A when the
caller wants an explicit factorization.

Accumulation is canonical: updates apply in arrival order with plain
summation, except that consecutive updates to the same entry coalesce
before their rank-1 contribution forms, each run summed left to right,
and coalesced increments are folded in chunks of a fixed count
(_FOLD_CHUNK).  consume() reads its input in small validated record
blocks (views of a _RECORD array, or blocks read from any other iterable,
a generator included); the open run and the partial chunk carry from one
block to the next, so any block boundaries give the same increments, the
same chunks and the same bits, and no array grows with the stream.  A
fold sorts its chunk stably by column, so each cell's increments keep
their arrival order, and cuts it into product blocks: groups of at most
_BLOCK_COLS distinct columns uc, on the chunk's distinct rows ur when there
are at most _BLOCK_ROWS of them, else on each group's own rows in slices of
_BLOCK_ROWS.  Each block is scattered into a
dense dA, every cell summed in arrival order, and every sketch updates
through plain products with it: W = T_left[:, ur] dA and V = S[:, ur] dA,
then M += W T_right[uc], L += V T_right[uc], N += W R[uc],
C[:, uc] += V and D[ur] += dA R[uc].  A chunk on r <= _BLOCK_ROWS
distinct rows and c distinct columns thus folds each column once, for
about xi*r*c + xi*c*xi4 multiply-adds instead of xi*b*xi4 for its b
increments; on any shape, no fold temporary grows with m, n or the
stream length.  Chunk boundaries depend on the coalesced increment
sequence alone, and the blocks are a fixed function of each chunk, so
equal sequences give equal bits.
Coalescing is what makes the linearity contract exact: splitting an
update in place into parts whose floating-point sum is exact (halves, or
a cancellation pair like (2x, -x)) collapses to the identical increment
sequence before any product or rounding happens, so every sketch is
bitwise unchanged.
The bitwise guarantee requires the split update to start its coalescing
run, i.e. its entry must differ from the entry of the update right
before it; parts that extend a run re-round against the prior partial
sum, which no plain-summation scheme can make exact.  Splits that break
either condition still agree to roundoff, just not bit for bit.

The two-pass algorithm replays the source twice and hands the rebuilt
matrix to the arbitrary-partition protocol on a one-machine cluster, so
its output is bit-identical to the distributed run by construction; the
price is m*n words in pass one, recorded as a deliberate trade against
bitwise reproducibility of the branch logic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

import numpy as np

from .arbitrary_partition import ArbProtocolParams, ArbResult, distributed_pca_arbitrary
from .batch import basis_from_lift
from .cluster import Cluster
from .errors import InputError, StreamReplayError
from .linalg import rank_constrained_affine_solve, truncated_svd
from .sketches import affine_dim, derive_seed, regression_dim, sign_sketch, srht_sketch

TAG_REGRESS_LEFT = "stream-regress-left"
TAG_REGRESS_RIGHT = "stream-regress-right"
TAG_AFFINE_LEFT = "stream-affine-left"
TAG_AFFINE_RIGHT = "stream-affine-right"

# coalesced increments per fold chunk; boundaries are a function of the
# increment sequence alone, so identical sequences give identical bits
_FOLD_CHUNK = 4096
# the most distinct columns and rows of one product block, so the gathered
# sketch rows and the products stay small whatever the shape of a chunk
_BLOCK_COLS = 32
_BLOCK_ROWS = 256
# raw updates read per ingest block; small, so no array grows with the stream
_INGEST_BLOCK = 1024
# one update (i, j, x), the format of a stream from the file to the fold;
# _walk fingerprints its bytes, those of struct.pack("<qqd", i, j, x)
_RECORD = np.dtype([("i", "<i8"), ("j", "<i8"), ("x", "<f8")])
_FIELDS = itemgetter("i", "j", "x")
# an update read with float indices, to tell an integral index from one
# that reading it into an int64 field truncates
_REAL = np.dtype([("i", "<f8"), ("j", "<f8"), ("x", "<f8")])
# an empty chunk of coalesced increments
_EMPTY = np.empty(0, _RECORD)


def _index(v) -> int | None:
    """v as an int when its value is an integer, else None.  Like
    _validated, it compares v read as a float with v read as an int, so
    both accept the same values."""
    try:
        k = int(v)
        return k if k == v or float(k) == float(v) else None
    except (TypeError, ValueError, OverflowError):
        return None


def _check(i, j, x, m: int, n: int) -> tuple[int, int, float]:
    """One raw update as (int, int, float), or InputError naming the first
    rule it breaks."""
    ii, jj = _index(i), _index(j)
    if ii is None or jj is None:
        raise InputError(f"update ({i}, {j}, {x}) has an index that is not an integer")
    if not (0 <= ii < m and 0 <= jj < n):
        raise InputError(f"update index ({ii}, {jj}) out of range for {m} x {n}")
    x = float(x)
    if not math.isfinite(x):
        raise InputError("update increment must be finite")
    return ii, jj, x


def _blocks(updates, m: int, n: int):
    """Validate updates in arrival order and yield them as _RECORD arrays of
    at most _INGEST_BLOCK updates: views of a _RECORD array, or blocks read
    from any other iterable."""
    if isinstance(updates, np.ndarray) and updates.dtype == _RECORD:
        for s in range(0, len(updates), _INGEST_BLOCK):
            yield _validated(updates[s:s + _INGEST_BLOCK], m, n)
        return
    it = iter(updates)
    # a list first, so a failing block can be re-read
    while block := list(islice(it, _INGEST_BLOCK)):
        yield _validated(block, m, n)


def _validated(block, m: int, n: int) -> np.ndarray:
    """A block of raw updates as a _RECORD array, checked as arrays.  A
    block read from tuples is read a second time with float indices, which
    must equal the int64 ones, so no index is truncated."""
    try:
        rec = block if isinstance(block, np.ndarray) else np.fromiter(block, _RECORD, len(block))
        i, j, x = _FIELDS(rec)
        if (((0 <= i) & (i < m) & (0 <= j) & (j < n)).all() and np.isfinite(x).all()
                and (rec is block or _integral(block, i, j))):
            return rec
    except (TypeError, ValueError, OverflowError):
        pass
    # re-read update by update, so the first bad one raises _check's message
    return np.fromiter([_check(i, j, x, m, n) for i, j, x in block], _RECORD, len(block))


def _integral(block, i, j) -> bool:
    real = np.fromiter(block, _REAL, len(block))
    return bool(((real["i"] == i) & (real["j"] == j)).all())


def _coalesce(run, block):
    """Split the open run (a 1-record array, or None) followed by a block
    into its runs of consecutive equal entries, each summed left to right
    as one running float would.  Returns the closed runs as a _RECORD array
    of (row, col, sum) and the last run, which stays open because the next
    update may extend it."""
    if run is not None:
        block = np.concatenate((run, block))
    rows, cols, vals = _FIELDS(block)
    new = np.empty(len(block), bool)
    new[0] = True
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(new)
    depth = np.diff(starts, append=len(block))
    # pass d adds the d-th value of every run still that long
    runs = block[starts]
    sums = runs["x"]
    live = np.flatnonzero(depth > 1)
    d = 1
    while live.size:
        sums[live] += vals[starts[live] + d]
        d += 1
        live = live[depth[live] > d]
    return runs[:-1], runs[-1:].copy()


class TurnstileSketchState:
    """Linear sketches of a matrix defined by a turnstile update stream.

    After consume() of any update sequence, M = T_left A T_right,
    L = S A T_right, N = T_left A R, D = A R, and C = S A when tracked,
    where A is the implied matrix; equality is up to floating accumulation
    against the dense products.  S and R are sign sketches of width
    regression_dim(k, eps); the affine pair is an SRHT sized from that
    width and capped by the padded sides.
    """

    def __init__(self, m: int, n: int, k: int, eps: float, seed: int, *,
                 track_columns: bool = False,
                 xi_regression: int | None = None,
                 xi_affine: int | None = None):
        if m < 1 or n < 1:
            raise InputError("stream shape must be at least 1 x 1")
        if k < 1:
            raise InputError("k must be at least 1")
        if not 0.0 < eps:
            raise InputError("eps must be positive")
        self.m, self.n, self.k, self.eps, self.seed = m, n, k, eps, seed
        xi1 = xi_regression if xi_regression is not None else regression_dim(k, eps)
        nominal = xi_affine if xi_affine is not None else affine_dim(xi1, eps)
        self.S = sign_sketch(xi1, m, derive_seed(seed, TAG_REGRESS_LEFT)).materialize()
        # the right-hand sketches are stored n x xi, row-major, so a fold
        # gathers whole contiguous rows per stream column
        self.R = np.ascontiguousarray(
            sign_sketch(xi1, n, derive_seed(seed, TAG_REGRESS_RIGHT)).materialize().T)
        self.T_left = srht_sketch(nominal, m, derive_seed(seed, TAG_AFFINE_LEFT)).materialize()
        self.T_right = np.ascontiguousarray(
            srht_sketch(nominal, n, derive_seed(seed, TAG_AFFINE_RIGHT)).materialize().T)
        self.xi1 = self.xi2 = xi1
        self.xi3 = self.T_left.shape[0]
        self.xi4 = self.T_right.shape[1]
        self.M = np.zeros((self.xi3, self.xi4))
        self.L = np.zeros((self.xi1, self.xi4))
        self.N = np.zeros((self.xi3, self.xi2))
        self.D = np.zeros((m, self.xi2))
        self.C = np.zeros((self.xi1, n)) if track_columns else None
        self.updates_applied = 0
        # while consume() reads: the open coalescing run as one (row, col,
        # running sum) record, or None, and the coalesced increments not yet
        # folded, fewer than _FOLD_CHUNK records
        self._run: np.ndarray | None = None
        self._chunk = _EMPTY

    def space_words(self) -> int:
        """Exact scalar count of the maintained accumulators."""
        words = (self.xi3 * self.xi4 + self.xi1 * self.xi4
                 + self.xi3 * self.xi2 + self.m * self.xi2)
        if self.C is not None:
            words += self.xi1 * self.n
        return words

    def _ingest(self, block) -> None:
        """Coalesce a validated block after the open run and fold every
        full chunk of the increments."""
        closed, self._run = _coalesce(self._run, block)
        inc = np.concatenate((self._chunk, closed))
        full = len(inc) - len(inc) % _FOLD_CHUNK
        for s in range(0, full, _FOLD_CHUNK):
            self._fold(*_FIELDS(inc[s:s + _FOLD_CHUNK]))
        # a copy, so the partial chunk does not keep this block alive
        self._chunk = inc[full:].copy()

    def _fold(self, rows, cols, vals) -> None:
        """Add one chunk of increments to every sketch.  The chunk is sorted
        stably by column, so each cell's increments keep their arrival
        order, and folded in groups of _BLOCK_COLS distinct columns.  A chunk
        on at most _BLOCK_ROWS distinct rows folds every group on those
        rows; otherwise each group takes its own rows, in slices of
        _BLOCK_ROWS, so no product block is larger than
        _BLOCK_ROWS x _BLOCK_COLS."""
        order = np.argsort(cols, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        # each column's first increment, and each increment's column as a rank
        cs, heads, rank = np.unique(cols, return_index=True, return_inverse=True)
        ur, ri = np.unique(rows, return_inverse=True)
        ends = np.append(heads[_BLOCK_COLS::_BLOCK_COLS], len(cols))
        for g, e in zip(range(0, len(cs), _BLOCK_COLS), ends):
            s = heads[g]
            uc, ci, v = cs[g:g + _BLOCK_COLS], rank[s:e] - g, vals[s:e]
            if len(ur) <= _BLOCK_ROWS:
                # one row set for the whole chunk spares a unique per group
                self._fold_block(ur, uc, ri[s:e], ci, v)
                continue
            gr, gi = np.unique(rows[s:e], return_inverse=True)
            for r0 in range(0, len(gr), _BLOCK_ROWS):
                part = (gi >= r0) & (gi < r0 + _BLOCK_ROWS)
                self._fold_block(gr[r0:r0 + _BLOCK_ROWS], uc, gi[part] - r0, ci[part], v[part])

    def _fold_block(self, ur, uc, ri, ci, vals) -> None:
        """Add increments vals at cells (ur[ri], uc[ci]) to every sketch:
        they become a dense block dA on rows ur and columns uc, each cell
        summed in the order given, and each sketch updates through plain
        products with it."""
        dA = np.bincount(ri * len(uc) + ci, weights=vals,
                         minlength=len(ur) * len(uc)).reshape(len(ur), len(uc))
        W = self.T_left[:, ur] @ dA
        V = self.S[:, ur] @ dA
        r = self.R[uc]
        self.D[ur] += dA @ r
        self.N += W @ r
        if self.C is not None:
            self.C[:, uc] += V
        # the widest products last, with the fewest temporaries alive
        tr = self.T_right[uc]
        self.M += W @ tr
        self.L += V @ tr

    def consume(self, updates) -> "TurnstileSketchState":
        """Apply an update sequence, any iterable of (i, j, x) or a _RECORD
        array, read in validated blocks; then fold the last run and the
        partial chunk."""
        for block in _blocks(updates, self.m, self.n):
            self.updates_applied += len(block)
            self._ingest(block)
        chunk = self._chunk if self._run is None else np.concatenate((self._chunk, self._run))
        self._run, self._chunk = None, _EMPTY
        if len(chunk):
            self._fold(*_FIELDS(chunk))
        return self


@dataclass(frozen=True)
class OnePassResult:
    """Streaming PCA output with its exact space accounting."""

    U: np.ndarray
    rank: int
    deficient: bool
    space_words: int
    updates: int
    seed: int


@dataclass(frozen=True)
class FactorizationResult:
    """Rank-k factorization T diag(sigma) K read out of one stream pass."""

    T: np.ndarray
    sigma: np.ndarray
    K: np.ndarray
    space_words: int
    updates: int
    seed: int

    def matrix(self) -> np.ndarray:
        """Dense product for tests; the factors are the real output."""
        return (self.T * self.sigma) @ self.K


def _solve_state(state: TurnstileSketchState, k: int):
    X = rank_constrained_affine_solve(state.M, state.N, state.L, k)
    return truncated_svd(X, min(k, min(X.shape)))


def one_pass_pca(updates, m: int, n: int, k: int, eps: float, seed: int, *,
                 xi_regression: int | None = None,
                 xi_affine: int | None = None) -> OnePassResult:
    """One pass over the stream, then a small rank-constrained solve.

    The affine pair (M, N, L) encodes the regression of A onto the product
    D X C in sketch space; the rank-k minimizer lifts through D to a basis
    whose projection error tracks the optimal rank-k tail.
    """
    state = TurnstileSketchState(m, n, k, eps, seed,
                                 xi_regression=xi_regression, xi_affine=xi_affine)
    state.consume(updates)
    F = _solve_state(state, k)
    T = state.D @ F.U
    U, r, deficient = basis_from_lift(T)
    return OnePassResult(U, r, deficient, state.space_words(),
                         state.updates_applied, seed)


def one_pass_factorization(updates, m: int, n: int, k: int, eps: float,
                           seed: int, *,
                           xi_regression: int | None = None,
                           xi_affine: int | None = None) -> FactorizationResult:
    """Like one_pass_pca but also tracks C = S A and reads out the whole
    factorization T diag(sigma) K; costs xi1 * n extra words of state."""
    state = TurnstileSketchState(m, n, k, eps, seed, track_columns=True,
                                 xi_regression=xi_regression, xi_affine=xi_affine)
    state.consume(updates)
    F = _solve_state(state, k)
    T = state.D @ F.U
    K = F.V.T @ state.C
    return FactorizationResult(T, F.sigma, K, state.space_words(),
                               state.updates_applied, seed)


def _replay(source):
    return source() if callable(source) else source


def _walk(source, m: int, n: int, A: np.ndarray | None = None):
    """One validated pass: fingerprint the sequence and, when A is given,
    add every increment into it in arrival order.  Returns (digest, count)."""
    digest = hashlib.blake2b(digest_size=16)
    count = 0
    for block in _blocks(_replay(source), m, n):
        if A is not None:
            # unbuffered, so repeated entries add one after another
            np.add.at(A, (block["i"], block["j"]), block["x"])
        digest.update(block.tobytes())
        count += len(block)
    return digest.digest(), count


def stream_matrix(updates, m: int, n: int) -> np.ndarray:
    """The m x n matrix a turnstile stream sums to, added in arrival order."""
    A = np.zeros((m, n))
    _walk(updates, m, n, A)
    return A


def two_pass_pca(source, m: int, n: int, k: int, eps: float, seed: int, *,
                 noise_scale: float | None = None,
                 rounding: float = 0.0) -> ArbResult:
    """Two replays of the stream, then the arbitrary-partition protocol on
    the rebuilt matrix as a one-machine cluster.

    The first pass rebuilds the matrix and fingerprints the sequence; the
    second only fingerprints it, and any difference between the passes
    raises StreamReplayError.  Because the protocol runs on identical bits,
    the branch decision and the output U match the distributed run exactly,
    which is the contract callers rely on.  source is an iterable replayed
    by re-iteration, or a zero-argument callable returning a fresh iterator
    per pass.
    """
    A = np.zeros((m, n))
    d1, c1 = _walk(source, m, n, A)
    d2, c2 = _walk(source, m, n)
    if c1 != c2 or d1 != d2:
        raise StreamReplayError(
            f"stream replay diverged: pass one had {c1} updates, pass two {c2}"
            + ("" if c1 != c2 else " with different contents"))
    cluster = Cluster([A], kind="arbitrary")
    params = ArbProtocolParams(k=k, eps=eps, seed=seed,
                               noise_scale=noise_scale, rounding=rounding)
    return distributed_pca_arbitrary(cluster, params)

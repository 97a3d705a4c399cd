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
(_FOLD_CHUNK), collected in one buffer that consume() fills in place and
drops when it returns.  consume() reads its input in small validated
record blocks (views of a _RECORD array, or blocks read from any other
iterable, a generator included); the open run and the partial chunk carry
from one block to the next, so any block boundaries give the same
increments, the same chunks and the same bits, and no array grows with
the stream.  A fold cuts its chunk into product blocks: groups of distinct
columns uc, as many as keep a block's dense dA and each image the left
sketches make of it within a cell budget (_FOLD_CELLS), on the chunk's
distinct rows ur when there are at most _BLOCK_ROWS of them, else on each
group's own rows in slices of _BLOCK_ROWS.  A chunk that needs more than
one group is first sorted stably by column, so each cell's increments
keep their arrival order.  Each block is scattered into dA, every cell
summed in arrival order, and every sketch updates through plain products
with it, right side first: dR = dA R[uc] and dT = dA T_right[uc], then
D[ur] += dR, N += T_left[:, ur] dR, M += T_left[:, ur] dT,
L += S[:, ur] dT and C[:, uc] += S[:, ur] dA.  A chunk on r rows and c
columns that fits one block thus folds each column once, for about
r*c*(xi2 + xi4) + r*(xi3*xi2 + (xi3 + xi1)*xi4) multiply-adds, instead of
xi*b*xi4 for its b increments one at a time (xi the widest left sketch).
The right sketches go through dA in column slices, and the sketch rows of
a column range a block mostly fills are read in place, so on any shape no
fold temporary grows with m, n or the stream length.  Chunk boundaries
depend on the coalesced increment sequence alone, and the blocks are a
fixed function of each chunk, so equal sequences give equal bits.
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
_FOLD_CHUNK = 8192
# float64 cells (512 KiB) of a product block's dense dA, and so of each
# image of it that the left sketches make; the right sketches pass through
# dA in column slices whose gathered rows and images take at most a quarter
# of this, so the fold's temporaries stay small whatever the shape
_FOLD_CELLS = 2 ** 16
# the most distinct rows of one product block, so that its gathered columns
# of the left sketches stay small
_BLOCK_ROWS = 256
# a block width of 32 columns that the tall-stream fold peak test states
# its bound with; no fold reads it
_BLOCK_COLS = 32
# raw updates read per ingest block; small, so no array grows with the stream
_INGEST_BLOCK = 1024
# one update (i, j, x), the format of a stream from the file to the fold;
# _walk fingerprints its bytes, those of struct.pack("<qqd", i, j, x)
_RECORD = np.dtype([("i", "<i8"), ("j", "<i8"), ("x", "<f8")])
_FIELDS = itemgetter("i", "j", "x")
# an update read with float indices, to tell an integral index from one
# that reading it into an int64 field truncates
_REAL = np.dtype([("i", "<f8"), ("j", "<f8"), ("x", "<f8")])


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

    def space_words(self) -> int:
        """Exact scalar count of the maintained accumulators."""
        words = (self.xi3 * self.xi4 + self.xi1 * self.xi4
                 + self.xi3 * self.xi2 + self.m * self.xi2)
        if self.C is not None:
            words += self.xi1 * self.n
        return words

    def _collect(self, chunk, fill: int, inc) -> int:
        """Copy coalesced increments into the chunk buffer after its first
        fill records, folding the buffer each time it fills; returns the
        records it then holds."""
        while len(inc):
            take = min(len(inc), len(chunk) - fill)
            chunk[fill:fill + take] = inc[:take]
            fill, inc = fill + take, inc[take:]
            if fill == len(chunk):
                self._fold(*_FIELDS(chunk))
                fill = 0
        return fill

    def _block_width(self, rows: int) -> int:
        """The most columns of a product block on that many rows: as many as
        keep its dense dA, and each image the left sketches make of it,
        within _FOLD_CELLS."""
        return max(1, _FOLD_CELLS // max(rows, self.xi1, self.xi3))

    def _fold(self, rows, cols, vals) -> None:
        """Add one chunk of increments to every sketch, in product blocks of
        at most _block_width distinct columns.  A chunk on at most
        _BLOCK_ROWS distinct rows folds every block on those rows; otherwise
        each group of columns takes its own rows, in slices of _BLOCK_ROWS.
        A chunk that needs more than one group is first sorted stably by
        column, so each cell's increments keep their arrival order."""
        cs, rank = np.unique(cols, return_inverse=True)
        ur, ri = np.unique(rows, return_inverse=True)
        width = self._block_width(min(len(ur), _BLOCK_ROWS))
        if len(cs) > width:
            order = np.argsort(rank, kind="stable")
            rows, rank, ri, vals = rows[order], rank[order], ri[order], vals[order]
            del order
        cuts = [0, *np.searchsorted(rank, range(width, len(cs), width)), len(rank)]
        for g, (s, e) in enumerate(zip(cuts, cuts[1:])):
            uc, ci, v = cs[g * width:(g + 1) * width], rank[s:e], vals[s:e]
            if g:
                ci = ci - g * width
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
        they become a dense block dA on rows ur, each cell summed in the
        order given, and each sketch updates through plain products with
        it, right sketches first: dR = dA R and dT = dA T_right, then
        D[ur] += dR, N += T_left[:, ur] dR, M += T_left[:, ur] dT,
        L += S[:, ur] dT and C += S[:, ur] dA.

        When uc fills more than half of its range uc[0]..uc[-1] and the
        range fits the block width, dA spans the range, its untouched
        columns zero, and the right sketches' rows are read in place, for
        less than twice the products of the columns alone; otherwise dA
        holds the columns uc, whose sketch rows are gathered slice by
        slice.  Rows ur that fill their range are read in place too."""
        r, c = len(ur), len(uc)
        lo, span = int(uc[0]), int(uc[-1]) + 1 - int(uc[0])
        view = span < 2 * c and span <= self._block_width(r)
        if view:
            ci = uc[ci] - lo
            c, cols = span, slice(lo, lo + span)
        else:
            cols = uc
        # a slice's gathered rows and its images, each at most step columns
        # wide, together take at most a quarter of the budget
        step = max(1, _FOLD_CELLS // (4 * (r + max(self.xi1, self.xi3) + (0 if view else c))))
        dA = np.bincount(ri * c + ci, weights=vals, minlength=r * c).reshape(r, c)
        if ur[-1] + 1 - ur[0] == r:
            # rows that fill their range are read in place in T_left, S and
            # D: gathering them would be the fold's largest temporaries
            ur = slice(int(ur[0]), int(ur[-1]) + 1)
        tl, sl = self.T_left[:, ur], self.S[:, ur]
        if self.C is not None:
            for a in range(0, c, step):
                at = slice(lo + a, lo + min(a + step, c)) if view else uc[a:a + step]
                self.C[:, at] += sl @ dA[:, a:a + step]
        for a in range(0, self.xi2, step):
            part = slice(a, a + step)
            dR = dA @ self.R[cols, part]
            self.D[ur, part] += dR
            self.N[:, part] += tl @ dR
        for a in range(0, self.xi4, step):
            part = slice(a, a + step)
            dT = dA @ self.T_right[cols, part]
            self.M[:, part] += tl @ dT
            self.L[:, part] += sl @ dT

    def consume(self, updates) -> "TurnstileSketchState":
        """Apply an update sequence, any iterable of (i, j, x) or a _RECORD
        array, read in validated blocks; then fold the last run and the
        partial chunk.  The chunk buffer lives only while consume() runs, so
        the state holds nothing but its sketches between calls.  When
        reading the input raises (an invalid update, or a failing
        iterable), the updates read before it are folded first, so the
        sketches hold exactly the updates_applied updates counted."""
        chunk = np.empty(_FOLD_CHUNK, _RECORD)
        fill, run = 0, None
        try:
            for block in _blocks(updates, self.m, self.n):
                self.updates_applied += len(block)
                closed, run = _coalesce(run, block)
                fill = self._collect(chunk, fill, closed)
        finally:
            if run is not None:
                fill = self._collect(chunk, fill, run)
            if fill:
                self._fold(*_FIELDS(chunk[:fill]))
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

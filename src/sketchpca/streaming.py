"""Turnstile-stream engine and the streaming PCA algorithms.

A stream is a sequence of additive entry updates (i, j, x) with 0-based
indices, deletions included, defining a matrix implicitly.  The sketch
state maintains linear images of that matrix small enough to keep in
memory: a two-sided affine pair M = T_left A T_right plus the mixed
products L = S A T_right, N = T_left A R, the tall factor D = A R, and
optionally C = S A when the caller wants an explicit factorization.

Accumulation is canonical: updates apply in arrival order with plain
summation, except that consecutive updates to the same entry coalesce
before their rank-1 contribution forms, and coalesced increments are
folded in chunks of a fixed count.  A fold groups its chunk by stream
column: the scaled T_left and S columns of its increments are summed per
distinct column, and each wide sketch then takes one product with the
T_right or R rows of those columns, so a chunk of b increments on c
distinct columns costs about xi*b + xi*c*xi4 multiply-adds instead of
xi*b*xi4; D sums the scaled R rows per distinct row.  Chunk boundaries
depend on the coalesced increment sequence alone, and the grouping is a
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
import struct
from dataclasses import dataclass

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

# chunk size for folding coalesced increments; boundaries are a function of
# the increment sequence alone, so identical sequences give identical bits
_FOLD_CHUNK = 256


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of keys and the start of each run of equal keys
    in that order, as np.add.reduceat takes them."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    return order, np.flatnonzero(np.diff(k, prepend=-1))


class TurnstileSketchState:
    """Linear sketches of a matrix defined by a turnstile update stream.

    After any update sequence (and a flush), M = T_left A T_right,
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
        self._pending: list | None = None
        self._buf: list[tuple[int, int, float]] = []

    def space_words(self) -> int:
        """Exact scalar count of the maintained accumulators."""
        words = (self.xi3 * self.xi4 + self.xi1 * self.xi4
                 + self.xi3 * self.xi2 + self.m * self.xi2)
        if self.C is not None:
            words += self.xi1 * self.n
        return words

    def update(self, i: int, j: int, x: float) -> None:
        """Absorb one additive increment to entry (i, j)."""
        i, j = int(i), int(j)
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise InputError(
                f"update index ({i}, {j}) out of range for {self.m} x {self.n}")
        x = float(x)
        if not math.isfinite(x):
            raise InputError("update increment must be finite")
        if self._pending is not None and self._pending[0] == i and self._pending[1] == j:
            self._pending[2] += x
        else:
            self._spill()
            self._pending = [i, j, x]
        self.updates_applied += 1

    def _spill(self) -> None:
        if self._pending is None:
            return
        i, j, x = self._pending
        self._pending = None
        self._buf.append((i, j, x))
        if len(self._buf) >= _FOLD_CHUNK:
            self._fold()

    def _fold(self) -> None:
        if not self._buf:
            return
        rows = np.array([t[0] for t in self._buf], dtype=np.intp)
        cols = np.array([t[1] for t in self._buf], dtype=np.intp)
        vals = np.array([t[2] for t in self._buf])
        self._buf.clear()
        # W = T_left dA and V = S dA on the chunk's distinct columns uc,
        # then one product per wide sketch
        order, starts = _groups(cols)
        r, v = rows[order], vals[order]
        uc = cols[order[starts]]
        W = np.add.reduceat(self.T_left[:, r] * v, starts, axis=1)
        V = np.add.reduceat(self.S[:, r] * v, starts, axis=1)
        tr = self.T_right[uc]
        self.M += W @ tr
        self.L += V @ tr
        self.N += W @ self.R[uc]
        if self.C is not None:
            self.C[:, uc] += V
        # D = A R: rows of v * R[cols] summed per distinct row
        order, starts = _groups(rows)
        rr = vals[order, None] * self.R[cols[order]]
        self.D[rows[order[starts]]] += np.add.reduceat(rr, starts, axis=0)

    def flush(self) -> None:
        """Fold pending and buffered increments into the sketches."""
        self._spill()
        self._fold()

    def consume(self, updates) -> "TurnstileSketchState":
        """Apply a whole update sequence and flush."""
        for i, j, x in updates:
            self.update(i, j, x)
        self.flush()
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
    return source() if callable(source) else iter(source)


def _walk(source, m: int, n: int, A: np.ndarray | None = None):
    """One validated pass: fingerprint the sequence and, when A is given,
    add every increment into it in arrival order.  Returns (digest, count)."""
    digest = hashlib.blake2b(digest_size=16)
    count = 0
    for i, j, x in _replay(source):
        i, j = int(i), int(j)
        if not (0 <= i < m and 0 <= j < n):
            raise InputError(f"update index ({i}, {j}) out of range for {m} x {n}")
        x = float(x)
        if not math.isfinite(x):
            raise InputError("update increment must be finite")
        if A is not None:
            A[i, j] += x
        digest.update(struct.pack("<qqd", i, j, x))
        count += 1
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

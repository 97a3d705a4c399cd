"""Entry-touch kernels for the column-partition protocol.

The exact kernels (column_partition's CssProtocolParams, built on
column_select) form dense residual matrices; here every pass over the data
goes through a one-nonzero-per-column embedding, a sign JL map or a product
with a thin dense factor, so the work per operation is proportional to the
number of stored entries plus sketch-sized dense algebra.  The top-k
factors of a sketch core come from a PRF-seeded range finder, not a full
SVD.  The price is randomness: each kernel fails with some probability, and
the repeated-candidate wrappers (boosted SVD, repeated barrier sampling)
drive that probability down by scoring candidates against sketched costs
and keeping a certified winner.

The barrier sampler reads its residual through one type, ResidualOperator
(A - A Z Z^T held implicitly); a plain matrix is that operator with an
empty basis Z, for which the A Z pass is skipped.

distributed_css_pca_fast is column_partition's four-stage driver run with
FastCssProtocolParams, whose methods are these kernels; the stages, ledger
and checks are the exact protocol's.

A module-level touch counter records how many times kernels pass over the
stored entries.  Tests pin exact per-operation counts, which is the teeth
behind the "never densify the input" rule: any shortcut through to_dense
would show up as a miscount.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .cluster import Cluster
from .column_partition import CssPcaResult, _CssParams, run_css_protocol
from .column_select import _POST_SLACK, CssResult, SamplingMatrix, bss_sampling
from .errors import InputError, InternalError
from .linalg import as_matrix, orthonormal_basis, qr, range_finder_top
from .sketches import (
    SparseEmbedding,
    derive_seed,
    embedding_dim,
    jlt_sketch,
    sparse_embedding,
)
from .sparse import SparseColMatrix, scatter_add

TAG_SVD_LEFT = "sparse-svd-left"
TAG_SVD_RIGHT = "sparse-svd-right"
TAG_SVD_START = "sparse-svd-start"
TAG_BOOST = "svd-boost"
TAG_BOOST_SCORE = "svd-boost-score"
TAG_BSS_EMBED = "bss-embed"
TAG_FAST_CSS_SVD = "fast-css-svd"
TAG_FAST_CSS_BSS = "fast-css-bss"
TAG_FAST_LOCAL_SVD = "fast-local-svd"
TAG_FAST_LOCAL_BSS = "fast-local-bss"
TAG_FAST_CORE = "fast-core"
TAG_FAST_JLT = "fast-residual-jlt"

# internal constants for the once-per-protocol global selector
_CSS_SPARSE_EPS = 0.5
_CSS_SPARSE_DELTA = 0.125


class TouchCounter:
    """Counts kernel passes over stored entries, one tick per entry."""

    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def add(self, n: int) -> None:
        with self._lock:
            self.count += int(n)

    def reset(self) -> None:
        with self._lock:
            self.count = 0


TOUCHES = TouchCounter()


@dataclass(frozen=True)
class FastParams:
    """Budgets shared by the sketched kernels, derived from (k, eps, delta).

    repeats is the candidate count for the boosting wrappers, embed_xi the
    bucket count of the column embeddings.
    """

    k: int
    eps: float
    delta: float
    repeats: int = field(init=False)
    embed_xi: int = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be at least 1")
        if not 0.0 < self.eps <= 1.0:
            raise InputError("eps must be in (0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise InputError("delta must be in (0, 1]")
        object.__setattr__(
            self, "repeats", max(1, math.ceil(math.log2(1.0 / self.delta)) + 1))
        object.__setattr__(self, "embed_xi", embedding_dim(self.k, self.eps))


# -- sparse-aware kernel applications ----------------------------------


def _as_sparse(A) -> SparseColMatrix:
    if isinstance(A, SparseColMatrix):
        return A
    return SparseColMatrix.from_dense(as_matrix(A, "A"))


def embed_rows(emb: SparseEmbedding, A: SparseColMatrix) -> np.ndarray:
    """emb @ A against column-sparse A, one touch per stored entry.

    Entries accumulate in storage order (ascending column, ascending row
    within a column), which matches the dense apply_left bitwise.
    """
    if emb.n_cols != A.n_rows:
        raise InputError("embedding width disagrees with the matrix rows")
    out = scatter_add((emb.n_rows, A.n_cols), (emb.buckets[A.indices], A.entry_cols()),
                      emb.signs[A.indices] * A.data)
    TOUCHES.add(A.nnz)
    return out


def embed_cols(emb: SparseEmbedding, A: SparseColMatrix, col_base: int = 0,
               lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Columns lo..hi-1 of A @ emb.T, where A's columns are emb columns
    col_base onward.

    col_base lets a machine sketch its block of a column partition against
    a globally seeded embedding without materializing the other blocks; a
    bucket span keeps only the entries hashed into it, in storage order,
    with one touch per kept entry, so spans over 0..n_rows add up to the
    whole output bit for bit and to A.nnz touches.
    """
    if col_base < 0 or col_base + A.n_cols > emb.n_cols:
        raise InputError("column block does not fit inside the embedding")
    hi = emb.n_rows if hi is None else hi
    if not 0 <= lo <= hi <= emb.n_rows:
        raise InputError(f"bucket range {lo}:{hi} outside an embedding of {emb.n_rows} rows")
    cols = col_base + A.entry_cols()
    rows, buckets, vals = A.indices, emb.buckets[cols], emb.signs[cols] * A.data
    if lo > 0 or hi < emb.n_rows:
        keep = (buckets >= lo) & (buckets < hi)
        rows, buckets, vals = rows[keep], buckets[keep] - lo, vals[keep]
    out = scatter_add((A.n_rows, hi - lo), (rows, buckets), vals)
    TOUCHES.add(vals.size)
    return out


def dense_times_sparse(M: np.ndarray, A: SparseColMatrix) -> np.ndarray:
    """M @ A for a dense M, gathering the touched columns of M per entry."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[1] != A.n_rows:
        raise InputError("operand columns disagree with the matrix rows")
    out = np.zeros((M.shape[0], A.n_cols))
    for j in range(A.n_cols):
        lo, hi = A.indptr[j], A.indptr[j + 1]
        if lo != hi:
            out[:, j] = M[:, A.indices[lo:hi]] @ A.data[lo:hi]
    TOUCHES.add(A.nnz)
    return out


def right_multiply(A: SparseColMatrix, M: np.ndarray) -> np.ndarray:
    """A @ M, accumulating column contributions in ascending column order.

    scatter_add applies the entries in storage order, so every output row
    sums its terms in the order of a per-column loop, bit for bit.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != A.n_cols:
        raise InputError("operand rows disagree with the matrix columns")
    out = scatter_add((A.n_rows, M.shape[1]), A.indices, A.data[:, None] * M[A.entry_cols()])
    TOUCHES.add(A.nnz)
    return out


# -- implicit residuals -------------------------------------------------


class ResidualOperator:
    """The residual A - A Z Z^T held implicitly.

    Sketches of the residual come from sketching A once and correcting in
    sketch space, so the dense m x w residual never exists.  Z must have
    orthonormal columns for frob_sq's cancellation identity to hold.  With
    no columns in Z the operator is A itself, and the A Z pass is skipped.
    """

    def __init__(self, A, Z):
        self.A = _as_sparse(A)
        self.Z = as_matrix(Z, "Z")
        if self.Z.shape[0] != self.A.n_cols:
            raise InputError("Z must have one row per column of A")
        self._az: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def _a_times_z(self) -> np.ndarray:
        if self._az is None:
            self._az = (right_multiply(self.A, self.Z) if self.Z.shape[1]
                        else np.zeros((self.A.n_rows, 0)))
        return self._az

    def sketch_rows(self, emb: SparseEmbedding) -> np.ndarray:
        Y = embed_rows(emb, self.A)
        return Y - (Y @ self.Z) @ self.Z.T

    def frob_sq(self) -> float:
        return max(0.0, self.A.frob_sq() - float(np.sum(self._a_times_z() ** 2)))

    def columns(self, idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        return (self.A.take_columns(idx).to_dense()
                - self._a_times_z() @ self.Z[idx, :].T)


# -- approximate SVD ----------------------------------------------------


def sparse_svd(A, k: int, eps: float, seed: int) -> np.ndarray:
    """Orthonormal right factors Z (n x k) with near-best projection error.

    Two-sided embedding pipeline run against the transpose: compress the
    rows, then the columns, take near-top-k left factors of the small core
    from a seeded range finder, and lift back through the row sketch.  One
    touch per stored entry; the dense work is on xi-sized sketches only.
    """
    A = _as_sparse(A)
    m, n = A.shape
    if not 1 <= k < min(m, n):
        raise InputError(f"k={k} out of range for shape {A.shape}")
    xi = embedding_dim(k, eps)
    left = sparse_embedding(xi, m, derive_seed(seed, TAG_SVD_LEFT))
    right = sparse_embedding(xi, n, derive_seed(seed, TAG_SVD_RIGHT))
    Y = embed_rows(left, A)
    core = right.apply_right(Y)
    top = range_finder_top(core, k, derive_seed(seed, TAG_SVD_START))
    Q, _ = qr(Y.T @ top)
    return Q


def sparse_svd_boosting(A, k: int, eps: float, delta: float, seed: int) -> np.ndarray:
    """Best of repeated sparse SVDs, judged by a JL-sketched residual.

    Generates repeats = ceil(log2(1/delta)) + 1 candidates on sub-seeds
    derive(derive(seed, TAG_BOOST), i) and keeps the one minimizing
    ||S A - (S A Z) Z^T||_F^2 for one shared sign JL map S.  Each Z has
    orthonormal columns, so that residual is ||S A||_F^2 - ||S A Z||_F^2,
    and the kept candidate is the one maximizing ||S A Z||_F^2: one pass
    over A multiplies every candidate at once, S is applied to that m x
    (repeats k) product in row blocks, and neither S A nor S itself is
    formed.  Ties keep the lowest candidate index.
    """
    A = _as_sparse(A)
    params = FastParams(k, eps, delta)
    cands = [
        sparse_svd(A, k, eps, derive_seed(derive_seed(seed, TAG_BOOST), i))
        for i in range(params.repeats)
    ]
    S = jlt_sketch(max(A.n_cols, 1), A.n_rows, derive_seed(seed, TAG_BOOST_SCORE))
    SAZ = S.apply_left(right_multiply(A, np.hstack(cands)))
    ends = np.cumsum([Z.shape[1] for Z in cands])
    scores = [float(np.sum(SAZ[:, hi - Z.shape[1]:hi] ** 2)) for Z, hi in zip(cands, ends)]
    return cands[int(np.argmax(scores))]


# -- repeated barrier sampling ------------------------------------------


def _select_top_two_thirds(spectral: np.ndarray, residual: np.ndarray) -> int:
    """Lowest index ranked in the top two thirds of both lists.

    spectral ranks descending (bigger is better), residual ascending.
    Ties keep the earlier candidate.  By counting, at least one index sits
    in both top fractions; failing to find one means the lists are broken.
    """
    r = spectral.size
    cut = math.ceil(2.0 * r / 3.0)
    rank_s = np.empty(r, dtype=np.int64)
    rank_s[np.argsort(-spectral, kind="stable")] = np.arange(r)
    rank_c = np.empty(r, dtype=np.int64)
    rank_c[np.argsort(residual, kind="stable")] = np.arange(r)
    ok = (rank_s < cut) & (rank_c < cut)
    if not np.any(ok):
        raise InternalError("no candidate ranks in the top two thirds of both lists")
    return int(np.argmax(ok))


def bss_sampling_sparse(V, E, ell: int, eps: float, delta: float,
                        seed: int) -> SamplingMatrix:
    """Barrier-walk column sampling driven by sketched residual costs.

    Runs the exact sampler against repeated embedded copies of E, ranks the
    candidates by sigma_k^2(V^T S) (descending) and by sketched residual
    mass (ascending), and prefers the lowest-index candidate in the top two
    thirds of both rankings.  Postconditions are checked against the true
    residual with the embedding distortion slack ((1+eps)/(1-eps))^2: the
    preferred candidate first, then the others in index order.  The first
    candidate that meets them is returned; when none does, the preferred
    candidate's failure is raised.

    E is a ResidualOperator, or a matrix (dense or column-sparse) read as
    the ResidualOperator with an empty basis: each candidate then sketches
    E with one touch per stored entry, bit for bit the dense apply_left.
    """
    V = as_matrix(V, "V")
    res = E
    if not isinstance(E, ResidualOperator):
        A = _as_sparse(E)
        res = ResidualOperator(A, np.zeros((A.n_cols, 0)))
    w, k = V.shape
    if res.shape[1] != w:
        raise InputError("E must have one column per row of V")
    if not 0.0 < eps < 1.0:
        raise InputError("eps must be in (0, 1) for the distortion slack")
    params = FastParams(max(k, 1), eps, delta)
    cands: list[SamplingMatrix] = []
    sig_sq = np.zeros(params.repeats)
    cost = np.zeros(params.repeats)
    for i in range(params.repeats):
        emb = sparse_embedding(
            params.embed_xi, res.shape[0],
            derive_seed(derive_seed(seed, TAG_BSS_EMBED), i))
        B = res.sketch_rows(emb)
        S = bss_sampling(V, B, ell)
        cands.append(S)
        sig = np.linalg.svd(S.apply_to(V.T), compute_uv=False)
        sig_sq[i] = sig[k - 1] ** 2
        cost[i] = float(np.sum(S.apply_to(B) ** 2))

    lower = (1.0 - math.sqrt(k / ell)) ** 2
    slack = ((1.0 + eps) / (1.0 - eps)) ** 2
    ee = res.frob_sq()
    preferred = _select_top_two_thirds(sig_sq, cost)
    first_failure = None
    for i in [preferred] + [i for i in range(params.repeats) if i != preferred]:
        S = cands[i]
        if sig_sq[i] < lower * (1.0 - _POST_SLACK):
            why = f"spectral floor violated: {sig_sq[i]:.3e} < {lower:.3e}"
        else:
            es = float(np.sum((res.columns(S.indices) * S.weights[None, :]) ** 2))
            if es <= ee * slack * (1.0 + _POST_SLACK) + 1e-12:
                return S
            why = (f"residual mass grew past the distortion slack: {es:.6e} > "
                   f"{slack:.3f} * {ee:.6e}")
        first_failure = first_failure or why
    raise InternalError(first_failure)


def deterministic_css_sparse(G, k: int, seed: int) -> CssResult:
    """Pick c = 4k columns whose span nearly carries the top-k structure,
    in time proportional to the stored entries.

    The budget is fixed at 4k because the constant-factor guarantee is
    tuned to it.  Approximate right factors stand in for the exact SVD and
    sketched costs drive the barrier walk; the price is a constant-factor
    residual bound holding with constant probability instead of always, so
    the quality contract is property-tested rather than asserted here.
    """
    G = _as_sparse(G)
    if k < 1:
        raise InputError("k must be at least 1")
    c = 4 * k
    if c > G.n_cols:
        raise InputError(f"need c <= n_cols, got c={c} for shape {G.shape}")
    Z = sparse_svd(G, k, _CSS_SPARSE_EPS, derive_seed(seed, TAG_FAST_CSS_SVD))
    S = bss_sampling_sparse(
        Z, ResidualOperator(G, Z), c, _CSS_SPARSE_EPS, _CSS_SPARSE_DELTA,
        derive_seed(seed, TAG_FAST_CSS_BSS))
    return CssResult(S.indices, G.take_columns(S.indices).to_dense())


# -- the sketched four-stage protocol -----------------------------------


@dataclass(frozen=True)
class FastCssProtocolParams(_CssParams):
    """Budgets for the sketched column-partition protocol.

    c1 is pinned at 4k because the global selector's constant-factor
    guarantee is tuned to exactly that budget, and the default finalize
    width is a CountSketch of embedding_dim(k, eps / 2) buckets; everything
    else is the exact protocol's.  delta is the total failure budget split
    across the per-machine kernels, which are its methods.
    """

    delta: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.delta < 1.0:
            raise InputError("delta must be in (0, 1)")

    def resolve(self) -> tuple[int, int, int, int]:
        return self._budgets(4 * self.k, embedding_dim)

    def part(self, cluster, i):
        return _as_sparse(cluster.parts[i])

    def local_select(self, s, i, Ai, ell):
        # boosted sparse SVD, then sketched barrier sampling on its residual
        Z = sparse_svd_boosting(
            Ai, self.k, 1.0 / 3.0, self.delta / s,
            derive_seed(derive_seed(self.seed, TAG_FAST_LOCAL_SVD), i))
        S = bss_sampling_sparse(
            Z, ResidualOperator(Ai, Z), ell, 0.5, self.delta / s,
            derive_seed(derive_seed(self.seed, TAG_FAST_LOCAL_BSS), i))
        return S.indices

    def core_select(self, G, c1):
        return deterministic_css_sparse(G, self.k, derive_seed(self.seed, TAG_FAST_CORE)).indices

    def residual_masses(self, cluster, parts, C):
        # residual magnitudes ||J (I - Yc Yc^T) a_j||^2 read off a JL sketch
        # J every machine builds from the shared seed.  The projection is
        # folded into J once, so each machine makes one product.  It stays
        # inside the product: a column in span(C) maps to ~1e-15 entries and
        # reads ~1e-30, where the identity ||a_j||^2 - ||Yc^T a_j||^2 leaves
        # ~1e-15 of rounding in the mass itself, enough to draw the column
        Jmat = jlt_sketch(cluster.n, cluster.m,
                          derive_seed(self.seed, TAG_FAST_JLT)).materialize()
        Yc = orthonormal_basis(C)
        Jmat -= (Jmat @ Yc) @ Yc.T
        masses = []
        for Ai in parts:
            sketched = dense_times_sparse(Jmat, Ai)
            masses.append(np.sum(sketched * sketched, axis=0))
        return masses

    def coefficients(self, YT, P):
        return dense_times_sparse(YT, P)

    def finalize(self, cluster, parts, xi, seed):
        emb = sparse_embedding(xi, cluster.n, seed)

        def support(i):
            # a CountSketch column of A_i is nonzero at most on the rows of the
            # entries hashed into its bucket: count the distinct (bucket, row) pairs
            P = parts[i]
            cols = cluster.col_offsets[i] + P.entry_cols()
            pairs = np.unique(emb.buckets[cols] * P.n_rows + P.indices)
            return np.bincount(pairs // P.n_rows, minlength=xi)
        return support, lambda i, lo, hi: embed_cols(emb, parts[i], cluster.col_offsets[i],
                                                     lo, hi)


def distributed_css_pca_fast(cluster: Cluster, params: FastCssProtocolParams) -> CssPcaResult:
    """Sketched variant of the four-stage column-selection protocol.

    The column-partition driver with entry-touch kernels: local selection
    runs boosted sparse SVDs (each core's top-k from a range finder) plus
    sketched barrier sampling, the global core selector and the finalize
    sketch work in entry-touch time, and the adaptive stage reads residual
    magnitudes off a JL sketch with one product per machine.  Ledger
    phases, their closed forms and the double-entry check are the exact
    protocol's.  It needs k below the row count, and refuses before any
    word moves.
    """
    if params.k >= cluster.m:
        raise InputError("target rank must be below the row count")
    return run_css_protocol(cluster, params)

"""Distributed PCA for column-partitioned, column-sparse matrices.

Machine i owns a contiguous block of columns.  The protocol ships actual
columns, never dense sketches of them, so the uplink cost tracks the column
sparsity: a column of height m with z nonzeros costs min(2z, m) + 1 words, a
header (its global index and z, in one word) and then its (row, value)
pairs or its m values, whichever is fewer.  No machine is sent a column it
already holds: such a column goes as one index word, or not at all.

Four stages:

1. local selection: each machine picks ell columns of its own block and
   uploads them verbatim;
2. global selection: the server distills those to a core set C of c1
   columns and sends each machine the core columns it does not own, so
   global-down = (s - 1) words(C) + |C|: an owner gets one index word per
   core column of its own, since it cannot tell which of its uploads the
   core kept; when the core keeps every upload ("core-all") it can, and
   global-down = (s - 1) words(C);
3. adaptive residual sampling: machines report one-word rounded residual
   magnitudes, the server splits a budget of c2 draws across machines
   proportionally, and machines upload residual-sampled columns verbatim,
   each distinct column once and each repeat as one index word (the
   position of its first occurrence); the server relays each upload to
   the other s - 1 machines, so span-down = (s - 1) adaptive, and every
   machine rebuilds the same draws, repeats included, in draw order
   (phase "adaptive" counts only these words; the two quantized scalars
   per machine ride in "adaptive-meta");
4. finalize: the server finds a rank-k basis inside the span of the
   collected columns C.  Every machine holds C, so each forms the same
   orthonormal basis Y of span(C), with r = rank C <= min(m, c) columns,
   from the first occurrence of each distinct column.  The server needs
   only the top-k left singular vectors of Y^T A, and each machine ships
   the shortest of four payloads that serve them:
   - its R factor: the q x r upper trapezoid of the QR factorization of
     (Y^T A_i)^T, q = min(n_i, r), so q * r - q (q - 1) / 2 words and at
     most r (r + 1) / 2 however wide the block is.  R^T R = Y^T A_i A_i^T Y,
     so the stacked R factors have the singular vectors of Y^T A (TSQR:
     Demmel, Grigori, Hoemmen and Langou, arXiv:0808.2664);
   - its raw columns, in the column encoding above; the server forms their
     R factor itself, with the machine's own kernel;
   - its summary P_i = U_t Sigma_t, the top t = ceil(k / (eps / 2)) left
     singular vectors of Y^T A_i scaled by their singular values, in
     r * t words, from a PRF-seeded range finder (linalg.range_finder_top).
     P_i P_i^T is Y^T A_i A_i^T Y with its tail cut, so summaries stack
     with R factors on one scale.  The top-t part of a matrix is a rank-k
     projection-cost-preserving sketch of it, and such sketches of a
     column partition add up (Cohen, Elder, Musco, Musco and Persu,
     "Dimensionality reduction for k-means clustering and low rank
     approximation", STOC 2015; local truncated SVDs serve the same way in
     Liang, Balcan, Kanchanapally and Woodruff, arXiv:1408.5823).  It is
     offered only when t < min(r, n_i), where it cuts something;
   - its sketch Y^T A_i T_i, for a shared seeded rank-k
     projection-cost-preserving sketch T (the same paper) of width xi, set
     by k and eps alone, and scaled so that E[T T^T] = I: sketched columns
     then weigh in the finalize what exact ones do.  It goes in blocks of
     w sketch columns, each as its r x w projection or, when strictly
     shorter, raw: A_i T_i itself, column-encoded.  A CountSketch of
     sparse columns stays sparse (Clarkson and Woodruff, "Low rank
     approximation and regression in input sparsity time", STOC 2013), so
     on sparse data most blocks go raw, and the server projects their sum
     once (_gather_sketches).  It is offered only when the block is wider
     than xi; a sketch no narrower than the block merges only entries that
     share a row and a bucket, and gives up exactness.
   A machine sizes every payload before it forms one, the sketch from its
   sparsity pattern alone: a block costs at most min(r * w, w + sum_j
   min(2 z_j, m)) words, where z_j bounds the nonzeros of sketch column j.
   It ships the one of fewest words among those it offers, a tie going to
   the first in the order R, raw, summary, sketch.  An explicit
   xi_subspace sketches on every machine.  The exact payloads go in one
   round, the summaries in the next and the sketches in the last, and
   lengths tell the encodings within each apart.  The server sets the
   transposed R factors, as shipped or as it forms them from raw columns,
   the summaries and the summed sketch side by side.  Any F with F F^T =
   B B^T has the top-k left singular vectors of B, so that r-row stack is
   factored once, by the top-k SVD that gives the basis: exact in span(C)
   when every machine shipped exactly, and projection-cost preserving on
   the summarized and sketched blocks otherwise.

run_css_protocol is the one driver of these stages.  A variant is its
params class, which carries the kernels in which the variants differ:
CssProtocolParams here holds the exact ones (dense SVD, the barrier
sampler, deterministic CSS, exact residuals, a sign sketch) for
distributed_css_pca, and column_select_sparse's FastCssProtocolParams
holds entry-touch ones for distributed_css_pca_fast.  Flags, draws, ledger
records and the finalize are shared.

The server does the finalize once and broadcasts the r x k coefficients
Delta of U in the basis Y of span(C) (r = rank C): every machine already
holds C, so it forms U = Y Delta itself, and no phase grows with m or n.

Every phase total is recomputed from first principles after the run and
compared with the ledger, so the accounting is double-entry checked.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .column_select import (
    bss_sampling,
    deterministic_css,
    residual_beta,
    sample_proportional,
)
from .errors import InputError, InternalError, ProtocolError
from .linalg import orthonormal_basis, range_finder_top, truncated_svd
from .sketches import dense_pca_dim, derive_seed, sign_sketch
from .sparse import SparseColMatrix, scatter_add

TAG_ADAPTIVE_MACHINES = "css-adaptive-machines"
TAG_ADAPTIVE_COLS = "css-adaptive-cols"
TAG_CSS_SUBSPACE = "css-subspace"
TAG_CSS_SUMMARY = "css-summary"
# Sketch columns per stage-4 block.  One block's sign-grid piece and
# products take about 3 MB, and no machine's whole m x xi product is built.
_FINALIZE_BLOCK = 512


@dataclass(frozen=True)
class _CssParams:
    """Budgets both column-partition protocols share; None picks defaults
    derivable from (k, eps) alone, so machines can resolve them without
    communication.  per_machine_finalize has every machine form its own
    U = Y Delta from the C it holds, and checks each against the server's U
    byte for byte; it changes no word and no bit of U.

    Each subclass is one variant, and carries the steps in which the
    variants differ as the methods run_css_protocol calls:
    resolve() -> (ell, c1, c2, xi), with xi the width of a rank-k
    projection-cost-preserving sketch unless xi_subspace is given;
    part(cluster, i) -> block i, dense or sparse; local_select(s, i, P,
    ell) -> ell column indices of a block wider than ell; core_select(G,
    c1) -> c1 positions in G; residual_masses(cluster, parts, C) -> each
    block's per-column residual mass off span(C); coefficients(YT, P) ->
    YT @ P for a block P, whose R factor or summary a payload carries;
    finalize(cluster, parts, xi, seed) -> (support, block), both over one
    shared xi-column sketch T with E[T T^T] = I (a 1 / sqrt(xi)-scaled sign
    sketch for the exact variant, a one-nonzero-per-column embedding for
    the fast one), so sketched columns weigh what exact ones do in the
    stacked finalize: support(i) bounds the nonzeros of each column of
    A_i T_i from block i's sparsity pattern alone, and block(i, lo, hi)
    forms sketch columns lo..hi-1 of A_i T_i.  _gather_sketches ships each
    block projected, or raw when that is shorter, so at most r * xi words
    per sketching machine."""

    k: int
    eps: float
    seed: int
    ell: int | None = None
    c2: int | None = None
    xi_subspace: int | None = None
    per_machine_finalize: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be at least 1")
        if not 0.0 < self.eps:
            raise InputError("eps must be positive")

    def _budgets(self, c1: int, xi_dim: Callable[[int, float], int]) -> tuple[int, int, int, int]:
        """(ell, c1, c2, xi).  The default finalize width xi is a rank-k
        projection-cost-preserving sketch, xi_dim(k, eps / 2) columns.  It
        is sized at eps / 2 because the sketch's error adds to the
        selection's: at eps itself (4k / eps^2 sign columns), a noisy rank-3
        100 x 1000 input lost 6-7% at k = 3, eps = 1/2, against under 0.1%
        for the exact finalize."""
        k, eps = self.k, self.eps
        ell = self.ell if self.ell is not None else 4 * k
        c2 = self.c2 if self.c2 is not None else math.ceil(50.0 * k / eps)
        xi = self.xi_subspace if self.xi_subspace is not None else xi_dim(k, eps / 2)
        if ell <= k or c1 <= k:
            raise InputError("budgets ell and c1 must exceed k")
        if c2 < 0 or xi < 1:
            raise InputError("c2 must be nonnegative and xi positive")
        return ell, c1, c2, xi


@dataclass
class CssPcaResult:
    """A column-partition run.  payloads[i] is machine i's stage-4 payload:
    "raw" (its columns), "R" (its R factor), "summary" (its top-t U_t
    Sigma_t) or "sketch".  finalize is "exact" when every machine shipped
    raw columns or its R factor, so that U is the optimum in span(C);
    "sketch" when none did, also when every machine shipped its summary and
    no sketch was sent; and "mixed" otherwise."""

    U: np.ndarray
    rank: int
    flags: set[str]
    core_indices: list[int]
    adaptive_indices: list[int]
    c_actual: int
    xi: int
    finalize: str
    payloads: list[str]
    betas: list[float]
    phase_words: dict[str, int]
    total_words: int
    params: _CssParams


def _col_words(block) -> np.ndarray:
    """Each column's words: a header, then its z (row, value) pairs or its
    m values."""
    nnz = (block.col_nnz() if isinstance(block, SparseColMatrix)
           else np.count_nonzero(block, axis=0))
    return np.minimum(2 * nnz, block.shape[0]) + 1


def _cols_words(block) -> int:
    return int(_col_words(block).sum())


def _sketch_payload(YT: np.ndarray, block: np.ndarray):
    """A machine's stage-4 block A_i T_i in its cheaper encoding: the pair
    (words, block), column-encoded and stored sparse, when that is strictly
    shorter than the r x w projection YT @ block, else the projection.  Ties
    go to the projection, so a raw payload is always the shorter one and
    its length alone marks it."""
    words = _cols_words(block)
    if words < YT.shape[0] * block.shape[1]:
        return words, SparseColMatrix.from_dense(block)
    return YT @ block


def _sketch_bound(support: np.ndarray, r: int, m: int) -> int:
    """At least the words of a machine's sketch payload, from the support
    z_j of each of its sketch columns alone: per block of w columns,
    min(r * w, w + sum_j min(2 z_j, m))."""
    cols = np.minimum(2 * support, m) + 1
    return sum(min(r * b.size, int(b.sum()))
               for b in np.split(cols, range(_FINALIZE_BLOCK, cols.size, _FINALIZE_BLOCK)))


def _gather_sketches(cluster: Cluster, YT: np.ndarray, sketch, sketchers: list[int],
                     xi: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Stage 4's sketch round: the r x xi sum of Y^T A_i T_i over the
    sketchers (in machine order), sent in blocks of _FINALIZE_BLOCK columns
    in their cheaper encoding; sketch(i, lo, hi) is columns lo..hi-1 of
    A_i T_i.  Per block, the server adds the projections in machine order,
    then scatters the raw blocks into one sum, in machine order, and adds
    its projection.  Also returns each raw block's (words, width)."""
    r, m = YT.shape
    total = np.empty((r, xi))
    words = [0] * len(sketchers)
    raw: list[tuple[int, int]] = []
    for lo in range(0, xi, _FINALIZE_BLOCK):
        hi = min(lo + _FINALIZE_BLOCK, xi)
        sent = cluster.map_machines(lambda i, _: _sketch_payload(YT, sketch(i, lo, hi)),
                                    sketchers)
        for i, p in zip(sketchers, sent):
            a, rows = (p[1], m) if isinstance(p, tuple) else (p, r)
            if a.shape != (rows, hi - lo):
                raise ProtocolError(f"machine {i} sent a {a.shape} block for sketch "
                                    f"columns {lo}:{hi}, not {rows} x {hi - lo}")
        blocks = [p[1] for p in sent if isinstance(p, tuple)]
        terms = [p for p in sent if not isinstance(p, tuple)]
        if blocks:
            raw.extend((_cols_words(b), b.shape[1]) for b in blocks)
            terms.append(YT @ scatter_add(
                (m, hi - lo), (np.concatenate([b.indices for b in blocks]),
                               np.concatenate([b.entry_cols() for b in blocks])),
                np.concatenate([b.data for b in blocks])))
        out = total[:, lo:hi]
        out[...] = terms[0]
        for a in terms[1:]:
            np.add(out, a, out=out)
        words = [w + (p[0] if isinstance(p, tuple) else p.size) for w, p in zip(words, sent)]
    cluster.record_gather("subspace-up", words, sketchers)
    return total, raw


def _r_words(n_i: int, r: int) -> int:
    """Words of the packed R factor of an n_i x r matrix: its q x r upper
    trapezoid, q = min(n_i, r)."""
    q = min(n_i, r)
    return q * r - q * (q - 1) // 2


# the order in which payloads of equal words win: an exact payload first,
# and between those R, so a raw payload is always shorter than R and its
# length alone marks it
_PAYLOAD_ORDER = ("R", "raw", "summary", "sketch")


def _payload_kind(offers: dict[str, int]) -> str:
    """The stage-4 payload a machine ships, from the words of each payload
    it offers: the fewest, ties going to the first in _PAYLOAD_ORDER."""
    return min((kind for kind in _PAYLOAD_ORDER if kind in offers), key=offers.__getitem__)


def _span_basis(C_full: np.ndarray, gids: list[int]) -> np.ndarray:
    """The orthonormal basis Y of span(C_full), from the first occurrence
    of each distinct column (gids names C_full's columns, repeats and all):
    a repeated draw adds nothing to the span, only to the factorization."""
    first = np.sort(np.unique(gids, return_index=True)[1])
    return orthonormal_basis(C_full[:, first])


def _r_factor(coeffs: np.ndarray) -> np.ndarray:
    """The q x r R factor of coeffs^T, q = min(shape): R^T R = coeffs
    coeffs^T, so R^T has the left singular vectors of coeffs."""
    return np.linalg.qr(coeffs.T, mode="r")


def _packed_r(coeffs: np.ndarray) -> np.ndarray:
    """The R factor of coeffs^T (coeffs = Y^T A_i, r x n_i), its upper
    trapezoid packed row by row: _r_words(n_i, r) words."""
    R = _r_factor(coeffs)
    return R[np.triu_indices(R.shape[0], 0, R.shape[1])]


def _unpack_r(packed: np.ndarray, n_i: int, r: int) -> np.ndarray:
    R = np.zeros((min(n_i, r), r))
    R[np.triu_indices(R.shape[0], 0, r)] = packed
    return R


def _columns(P, idx) -> np.ndarray:
    """Columns idx of a machine's block, verbatim and dense."""
    if isinstance(P, SparseColMatrix):
        return P.take_columns(idx).to_dense()
    return P[:, idx]


def run_css_protocol(cluster: Cluster, params) -> CssPcaResult:
    """The four stages on a column partition, with the kernels of params."""
    if cluster.kind != "column":
        raise InputError("this protocol needs a column partition")
    if cluster.ledger.messages:
        raise InputError("cluster has already run a protocol; use a new Cluster per run")
    k = params.k
    ell, c1, c2, xi = params.resolve()
    s, m = cluster.s, cluster.m
    flags: set[str] = set()
    parts = [params.part(cluster, i) for i in range(s)]

    # stage 1: local selection, verbatim uploads
    def pick_local(i, _):
        n_i = parts[i].shape[1]
        if n_i <= ell:
            if n_i <= k:
                flags.add("local-tiny")
            return np.arange(n_i, dtype=np.int64)
        return params.local_select(s, i, parts[i], ell)

    local_idx = cluster.map_machines(pick_local)
    local_blocks = [_columns(P, idx) for P, idx in zip(parts, local_idx)]
    cluster.record_gather("local-up", [_cols_words(b) for b in local_blocks])
    G = np.hstack(local_blocks)
    gids = np.concatenate([cluster.col_offsets[i] + idx
                           for i, idx in enumerate(local_idx)])

    # stage 2: global core selection
    if G.shape[1] <= c1:
        flags.add("core-all")
        core_pos = np.arange(G.shape[1], dtype=np.int64)
    else:
        core_pos = params.core_select(G, c1)
    C = G[:, core_pos]
    core_gids = gids[core_pos].tolist()
    # each machine gets the core columns it does not own, and one index word
    # for each of its own (none when the core keeps every upload)
    words = _col_words(C)
    owners = np.searchsorted(cluster.col_offsets, core_gids, side="right") - 1
    held = np.bincount(owners, words - ("core-all" not in flags), minlength=s)
    cluster.record_broadcast("global-down", (words.sum() - held).astype(int).tolist())

    # stage 3: adaptive residual sampling
    col_masses = params.residual_masses(cluster, parts, C)
    betas = [residual_beta(float(mass.sum())) for mass in col_masses]
    cluster.record_gather("adaptive-meta", 1)
    cluster.record_broadcast("adaptive-meta", 1)

    adaptive_gids: list[int] = []
    adaptive_blocks: list[np.ndarray] = []
    up_words = [0] * s
    if sum(betas) <= 0.0:
        flags.add("no-adaptive")
    else:
        picks = sample_proportional(
            np.asarray(betas), c2, derive_seed(params.seed, TAG_ADAPTIVE_MACHINES))
        draws = np.bincount(picks, minlength=s).tolist()
        for i in range(s):
            if draws[i] == 0:
                continue
            sub_seed = derive_seed(derive_seed(params.seed, TAG_ADAPTIVE_COLS), i)
            idx = sample_proportional(col_masses[i], draws[i], sub_seed)
            block = _columns(parts[i], idx)
            adaptive_blocks.append(block)
            adaptive_gids.extend((cluster.col_offsets[i] + idx).tolist())
            # each distinct draw ships once; a repeat ships as one word, the
            # position of its first occurrence
            first = np.unique(idx, return_index=True)[1]
            up_words[i] = int(_col_words(block)[first].sum()) + idx.size - first.size
    cluster.record_gather("adaptive", up_words)
    # each machine gets the other machines' uploads, relayed, and rebuilds
    # the draws in machine order around its own
    cluster.record_broadcast("span-down", [sum(up_words) - w for w in up_words])
    new_cols = np.hstack(adaptive_blocks) if adaptive_blocks else np.zeros((m, 0))
    C_full = np.hstack([C, new_cols])

    # stage 4: the top-k left singular vectors of Y^T A, with Y the basis
    # of span(C) every machine forms from C_full.  Each machine ships the
    # shortest payload that serves them, sized before it is formed: its raw
    # columns or its R factor (exact), its top-t summary, or its sketch
    c_actual = C_full.shape[1]
    Y = _span_basis(C_full, core_gids + adaptive_gids)
    r = Y.shape[1]
    # the top-t part of Y^T A_i is a rank-k projection-cost-preserving
    # sketch of it at eps / 2: like the default sketch's, its error adds to
    # the selection's
    t = math.ceil(k / (params.eps / 2))
    support, sketch = params.finalize(cluster, parts, xi,
                                       derive_seed(params.seed, TAG_CSS_SUBSPACE))
    summary_seed = derive_seed(params.seed, TAG_CSS_SUMMARY)

    def payload(i, _):
        # (kind, payload); a sketcher forms its sketch in the last round, and
        # an explicit xi_subspace sketches on every machine.  A summary of at
        # least min(r, n_i) columns is no cut, and a sketch no narrower than
        # the block merges only entries that share a bucket and a row, so
        # neither is offered then
        if params.xi_subspace is not None:
            return "sketch", None
        n_i = parts[i].shape[1]
        offers = {"raw": _cols_words(parts[i]), "R": _r_words(n_i, r)}
        if t < min(r, n_i):
            offers["summary"] = r * t
        if xi < n_i:
            offers["sketch"] = _sketch_bound(support(i), r, m)
        kind = _payload_kind(offers)
        if kind == "sketch":
            return kind, None
        if kind == "raw":
            return kind, parts[i]
        B = params.coefficients(Y.T, parts[i])
        if kind == "R":
            return kind, _packed_r(B)
        return kind, range_finder_top(B, t, derive_seed(summary_seed, i), scaled=True)

    sent = cluster.map_machines(payload)
    kinds = [kind for kind, _ in sent]
    exact = {i: p for i, (kind, p) in enumerate(sent) if kind in ("raw", "R")}
    summaries = {i: p for i, (kind, p) in enumerate(sent) if kind == "summary"}
    sketchers = [i for i, kind in enumerate(kinds) if kind == "sketch"]
    factors = []
    if exact:
        cluster.record_gather("subspace-up", [_cols_words(p) if kinds[i] == "raw" else p.size
                                              for i, p in exact.items()], exact)
        for i, p in exact.items():
            # the server forms a raw machine's R factor with the same kernel
            factors.append((_r_factor(params.coefficients(Y.T, p)) if kinds[i] == "raw"
                            else _unpack_r(p, parts[i].shape[1], r)).T)
    if summaries:
        cluster.record_gather("subspace-up", [p.size for p in summaries.values()], summaries)
        factors.extend(summaries.values())
    raw: list[tuple[int, int]] = []
    if sketchers:
        total, raw = _gather_sketches(cluster, Y.T, sketch, sketchers, xi)
        factors.append(total)
    finalize = "sketch" if not exact else "exact" if len(exact) == s else "mixed"
    Xi = np.hstack(factors)
    kk = min(k, min(Xi.shape))
    Delta = truncated_svd(Xi, kk).U
    U = Y @ Delta
    if kk < k:
        flags.add("rank-deficient")

    # every machine holds C_full (global-down, span-down), so its own basis
    # Y and the server's r x kk Delta give it U
    cluster.record_broadcast("delta-down", Delta.size)
    if params.per_machine_finalize:
        replicas = cluster.map_machines(
            lambda i, p: _span_basis(C_full, core_gids + adaptive_gids) @ Delta)
        for R in replicas:
            if R.tobytes() != U.tobytes():
                raise InternalError("per-machine finalize diverged from the server")

    result = CssPcaResult(
        U, kk, flags, core_gids, adaptive_gids, c_actual, xi, finalize, kinds, betas,
        cluster.ledger.phase_totals(), cluster.ledger.total(), params)
    cluster.ledger.check(_expected_words(cluster, result, local_blocks, C, new_cols, r, t,
                                         exact, raw))
    return result


# -- the exact variant: dense SVDs, barrier walks and sign sketches ------


@dataclass(frozen=True)
class CssProtocolParams(_CssParams):
    """Budgets for the column-partition protocol, with a free core budget
    c1 (default 4k) and a sign-sketch finalize width, and its exact
    params."""

    c1: int | None = None

    def resolve(self) -> tuple[int, int, int, int]:
        return self._budgets(self.c1 if self.c1 is not None else 4 * self.k, dense_pca_dim)

    def part(self, cluster, i):
        return cluster.part_dense(i)

    def local_select(self, s, i, Ai, ell):
        ki = min(self.k, Ai.shape[0], Ai.shape[1])
        F = truncated_svd(Ai, ki)
        E = Ai - (Ai @ F.V) @ F.V.T
        return bss_sampling(F.V, E, ell).indices

    def core_select(self, G, c1):
        # k clamped to the rank bound, as in local selection: a core of c1 > k
        # columns still carries G's span, and the finalize flags rank-deficient
        return deterministic_css(G, min(self.k, *G.shape), c1).indices

    def residual_masses(self, cluster, parts, C):
        Yc = orthonormal_basis(C)
        masses = []
        for Ai in parts:
            Psi = Ai - Yc @ (Yc.T @ Ai)
            masses.append(np.sum(Psi * Psi, axis=0))
        return masses

    def coefficients(self, YT, P):
        return YT @ P

    def finalize(self, cluster, parts, xi, seed):
        W = sign_sketch(xi, cluster.n, seed)

        def support(i):
            # a sign-sketch column of A_i is nonzero at most on A_i's nonzero rows
            return np.full(xi, np.count_nonzero(parts[i].any(axis=1)))

        def block(i, lo, hi):
            a, b = cluster.col_offsets[i], cluster.col_offsets[i + 1]
            return parts[i] @ W.materialize_cols(np.arange(a, b), lo, hi).T
        return support, block


def distributed_css_pca(cluster: Cluster, params: CssProtocolParams) -> CssPcaResult:
    """Run the four-stage column-selection protocol on a column partition."""
    return run_css_protocol(cluster, params)


def _expected_words(cluster: Cluster, result: CssPcaResult,
                    local_blocks: list[np.ndarray], core: np.ndarray,
                    adaptive: np.ndarray, r: int, t: int, exact: dict,
                    raw: list[tuple[int, int]]) -> dict[str, int]:
    """Every phase recomputed from the shipped payloads (r = rank C): exact
    maps each machine that shipped exactly to its payload, raw columns or
    an R factor; a summary ships r * t words; raw holds the (words, width)
    of each sketch block the server decoded raw, and every other sketch
    block ships r words per column."""
    s = cluster.s
    kinds = result.payloads
    widths = np.diff(cluster.col_offsets)
    raw_words = sum(words for words, _ in raw)
    raw_cols = sum(width for _, width in raw)
    # a draw's first occurrence ships whole and a repeat as one word; a
    # column goes whole to the s - 1 machines that do not own it, and its
    # owner gets its index (global-down) or nothing (span-down, core-all)
    draws = len(result.adaptive_indices)
    first = np.unique(result.adaptive_indices, return_index=True)[1]
    adaptive_words = int(_col_words(adaptive)[first].sum()) + draws - first.size
    held = 0 if "core-all" in result.flags else core.shape[1]
    return {
        "local-up": sum(_cols_words(b) for b in local_blocks),
        "global-down": (s - 1) * _cols_words(core) + held,
        "adaptive-meta": 2 * s,
        "adaptive": adaptive_words,
        "span-down": (s - 1) * adaptive_words,
        "subspace-up": sum(_cols_words(p) if kinds[i] == "raw"
                           else _r_words(int(widths[i]), r) for i, p in exact.items())
                       + r * t * kinds.count("summary") + raw_words
                       + r * (kinds.count("sketch") * result.xi - raw_cols),
        "delta-down": s * r * result.rank,
    }

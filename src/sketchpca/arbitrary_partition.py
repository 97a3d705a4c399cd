"""Distributed PCA over an arbitrary additive partition A = sum_i B_i.

A cheap 2k x 2k probe decides between two branches:

* low-rank branch, for inputs of rank at most 2k: the probe's right factor
  doubles as a span sketch, the server reconstructs a column space C = A H,
  and a small rank-constrained affine problem fits the best rank-k factor
  inside span(C);
* smoothed branch, for general inputs: the cluster runs the batch
  two-sided sketch pipeline with per-machine partial sketches summed at the
  server, an optional quantization of the small right factor bounding the
  downlink word size.  A tiny seeded perturbation breaks spectral-gap
  degeneracies: the +-eta sign grid Z on the first p = min(n, xi) columns
  of A, zero on the rest, so N' = [Z, 0] and ||N'||_F = eta sqrt(m p).  It
  is public, so the server adds its image N' Tr = Z Tr[:p] itself, in row
  blocks of Z: m p PRF cells, and no step allocates an m x n array.  An
  input with n <= xi gets the full m x n grid.  Its default scale comes
  from the gathered sketch, so no data moves off the ledger.

Each machine multiplies only its nonzero row range: the smallest contiguous
rows holding every nonzero of its summand, found once when the Cluster is
built (Cluster.row_ranges).  Its two-sided products take the matching
columns of the left factor and run through batch.sketch_two_sided, and its
m-row products (the span and the lift) fill those rows of a zero block.  A
row-block summand so costs its own rows only, and an all-zero summand
contributes exact zeros.

Every phase has a closed-form word count that is independent of n:
doubling the width of the input leaves the ledger unchanged.  The protocol
asserts its own ledger against those forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .batch import (
    TAG_NOISE,
    basis_from_lift,
    in_rows,
    lift_through_right,
    pca_sketches,
    sketch_two_sided,
)
from .cluster import Cluster
from .errors import InputError, ProtocolError
from .linalg import (
    numeric_rank,
    rank_constrained_affine_solve,
    round_to_multiple,
    svd,
    truncated_svd,
)
from .sketches import affine_dim, dense_pca_dim, derive_seed, sign_sketch

TAG_RANK_TEST = "rank-test"
TAG_RANK_TEST_RETRY = "rank-test-retry"
TAG_PROBE_LEFT = "probe-left"
TAG_AFFINE_LEFT = "affine-left"
TAG_AFFINE_RIGHT = "affine-right"

DEFAULT_NOISE_REL = 1e-6


@dataclass(frozen=True)
class ArbProtocolParams:
    """Knobs for the arbitrary-partition protocol.

    noise_scale is eta, the magnitude of every entry of the seeded sign
    grid the smoothed branch adds to the first min(n, xi) columns of A (all
    of A when n <= xi), so the perturbation has Frobenius norm
    eta sqrt(m min(n, xi)).  None picks DEFAULT_NOISE_REL times
    the RMS entry of A, estimated from the gathered two-sided sketch; 0
    disables the perturbation exactly (no-op, bit for bit).  rounding 0
    likewise disables quantization of the downlinked factor.
    """

    k: int
    eps: float
    seed: int
    noise_scale: float | None = None
    rounding: float = 0.0
    xi_sketch: int | None = None
    xi_affine: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be at least 1")
        if not 0.0 < self.eps:
            raise InputError("eps must be positive")
        if self.rounding < 0.0:
            raise InputError("rounding granularity must be nonnegative")
        if self.noise_scale is not None and self.noise_scale < 0.0:
            raise InputError("noise scale must be nonnegative")


@dataclass
class ArbResult:
    """Distributed PCA output with its communication accounting."""

    U: np.ndarray
    rank: int
    deficient: bool
    branch: str
    flags: set[str]
    retried: bool
    rank_test_full: bool | None
    phase_words: dict[str, int]
    total_words: int
    params: ArbProtocolParams


def _gather_two_sided(cluster: Cluster, phase: str, L: np.ndarray,
                      R: np.ndarray) -> np.ndarray:
    """gather_sum of L @ B_i @ R, machine i multiplying only its nonzero
    row range rs: sketch_two_sided(B_i[rs], L[:, rs], R)."""
    rows = cluster.row_ranges
    return cluster.gather_sum(phase, cluster.map_machines(
        lambda i, B: sketch_two_sided(B[rows[i]], L[:, rows[i]], R)))


def _gather_rows(cluster: Cluster, phase: str, fn) -> np.ndarray:
    """gather_sum of m-row products: machine i forms fn(B_i[rs]) on its
    nonzero row range rs and ships it in rows rs of an m-row zero block."""
    rows = cluster.row_ranges
    return cluster.gather_sum(phase, cluster.map_machines(
        lambda i, B: in_rows(cluster.m, rows[i], fn(B[rows[i]]))))


@dataclass(frozen=True)
class _Probe:
    full: bool
    probe_rank: int
    Hrt: np.ndarray


def _run_probe(cluster: Cluster, k: int, probe_seed: int) -> _Probe:
    """Broadcast a probe seed, gather H' B_i H'', decide rank >= 2k.

    Costs exactly 2 words per machine for the seed and 4k^2 per machine for
    the probe moments: s * (4k^2 + 2) in total.
    """
    m, n = cluster.m, cluster.n
    # Gaussian, not signs: on a short or narrow input two sign rows or
    # columns can coincide and hide rank
    rng = np.random.default_rng(derive_seed(probe_seed, TAG_PROBE_LEFT))
    Hl = rng.standard_normal((2 * k, m))
    Hrt = rng.standard_normal((n, 2 * k))
    cluster.record_broadcast("rank-test-seed", 2)
    G = _gather_two_sided(cluster, "rank-test-up", Hl, Hrt)
    r = numeric_rank(G)
    return _Probe(r == 2 * k, r, Hrt)


def rank_test(cluster: Cluster, k: int, seed: int) -> bool:
    """Decide whether rank(A) >= 2k from one 2k x 2k sketched moment.

    This is the probe distributed_pca_arbitrary runs first, on its own.  It
    fails only on a measure-zero set of inputs for a random seed, so it takes
    no failure probability.  Communication: s * (4k^2 + 2) words.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    return _run_probe(cluster, k, derive_seed(seed, TAG_RANK_TEST)).full


def low_rank_protocol(cluster: Cluster, params: ArbProtocolParams,
                      probe: _Probe | None = None) -> ArbResult:
    """Exact-rank branch: valid when rank(A) <= 2k.

    The probe's right factor is reused as the span sketch, so C = A H''
    captures the whole column space of A with probability 1 over seeds.  A
    span certificate compares rank(C) with the probe rank; on mismatch the
    protocol retries once with a fresh seed before giving up.
    """
    k = params.k
    m = cluster.m
    s = cluster.s
    retried = False
    for attempt in range(2):
        if attempt == 0 and probe is not None:
            cur = probe
        else:
            tag = TAG_RANK_TEST if attempt == 0 else TAG_RANK_TEST_RETRY
            cur = _run_probe(cluster, k, derive_seed(params.seed, tag))
        Hrt = cur.Hrt
        C = _gather_rows(cluster, "span-up", lambda B: B @ Hrt)
        if numeric_rank(C) == cur.probe_rank:
            break
        if attempt == 1:
            raise ProtocolError("span certificate failed after reseeding")
        retried = True

    flags: set[str] = set()
    cluster.record_broadcast("span-down", C.size)

    xi_a = params.xi_affine if params.xi_affine is not None else affine_dim(k, params.eps)
    Tl = sign_sketch(xi_a, m, derive_seed(params.seed, TAG_AFFINE_LEFT)).materialize()
    Trr = sign_sketch(xi_a, cluster.n, derive_seed(params.seed, TAG_AFFINE_RIGHT)).materialize().T
    Msum = _gather_two_sided(cluster, "affine-up", Tl, Trr)
    Lsum = _gather_two_sided(cluster, "regress-up", C.T, Trr)

    N = Tl @ C
    X = rank_constrained_affine_solve(Msum, N, Lsum, k)
    P = C @ X
    F = svd(P)
    r = F.rank()
    U = F.U[:, :k]
    deficient = r < k
    if deficient:
        flags.add("rank-deficient")
    if not np.any(C):
        flags.add("zero-input")
    cluster.record_broadcast("u-down", U.size)

    phase_words = cluster.ledger.phase_totals()
    result = ArbResult(U, min(r, k), deficient, "low-rank", flags, retried,
                       cur.full, phase_words, cluster.ledger.total(), params)
    cluster.ledger.check(_expected_low_rank(s, m, k, xi_a, retried))
    return result


def smoothed_protocol(cluster: Cluster, params: ArbProtocolParams) -> ArbResult:
    """General branch: sketch both sides, perturb, solve small, lift.

    Runs the batch pipeline with partition-summed sketches; with zero noise
    and the trivial partition it reproduces batch_low_rank bit for bit.
    Machine i sketches S[:, rs] @ B_i[rs] @ Tr and lifts B_i[rs] @ (Tr @ V)
    over its nonzero row range rs only, into rows rs of its m x k payload;
    batch_low_rank trims A by the same rule and calls the same helpers, so
    the bits agree even when A has zero rows.

    The perturbation is N' = [Z, 0]: Z = eta * (+-1) is the m x p seeded
    sign grid on the first p = min(n, xi) columns, every other column is
    zero, and ||N'||_F = eta sqrt(m p).  An input with n <= xi gets the
    full m x n grid, so its bits are those of a full-grid perturbation.  It
    is public (seed and eta), so the server adds its terms itself and no
    machine ships or holds it: the exact image N' @ Tr = Z @ Tr[:p] is
    formed in row blocks of Z, and S @ (N' @ Tr) and (N' @ Tr) @ V join
    the gathered sketch and lift.  The default eta is DEFAULT_NOISE_REL
    times the RMS entry of A, with ||A||_F estimated by the gathered
    sketch: S and Tr are 1/sqrt(xi)-scaled sign sketches, so
    E ||S A Tr||_F^2 = ||A||_F^2.
    """
    k = params.k
    m, n = cluster.m, cluster.n
    s = cluster.s
    flags: set[str] = set()

    xi = params.xi_sketch if params.xi_sketch is not None else dense_pca_dim(k, params.eps)
    S, Tr = pca_sketches(m, n, k, params.eps, params.seed, xi, xi)

    small = _gather_two_sided(cluster, "sketch-up", S, Tr)
    eta = params.noise_scale
    if eta is None:
        eta = DEFAULT_NOISE_REL * float(np.linalg.norm(small, "fro")) / math.sqrt(max(m * n, 1))
    NTr = None
    if eta > 0.0:
        p = min(n, xi)
        NTr = sign_sketch(m, p, derive_seed(params.seed, TAG_NOISE), scale=eta).apply_left(Tr[:p])
        small = small + S @ NTr
        flags.add("perturbed")

    kk = min(k, min(small.shape))
    V = truncated_svd(small, kk).V
    V = round_to_multiple(V, params.rounding)
    cluster.record_broadcast("V-down", V.size)
    Xsum = _gather_rows(cluster, "X-up", lambda B: lift_through_right(B, Tr, V))
    if NTr is not None:
        Xsum = Xsum + NTr @ V
    U, r, deficient = basis_from_lift(Xsum)
    if deficient:
        flags.add("rank-deficient")
    cluster.record_broadcast("u-down", U.size)

    result = ArbResult(U, r, deficient, "smoothed", flags, False, None,
                       cluster.ledger.phase_totals(), cluster.ledger.total(), params)
    cluster.ledger.check(_expected_smoothed(
        s, m, k, xi, kk, U.shape[1], with_probe=cluster.ledger.total_for("rank-test-seed") > 0))
    return result


def distributed_pca_arbitrary(cluster: Cluster, params: ArbProtocolParams) -> ArbResult:
    """Probe the rank, then run the branch the outcome calls for.

    A full probe (rank 2k) routes to the smoothed branch: the 2k x 2k probe
    cannot distinguish rank exactly 2k from higher rank, and the smoothed
    branch is correct for both.  A deficient probe certifies rank < 2k and
    routes to the low-rank branch.
    """
    if cluster.kind != "arbitrary":
        raise InputError("this protocol needs an arbitrary additive partition")
    if cluster.ledger.messages:
        raise InputError("cluster has already run a protocol; use a new Cluster per run")
    probe = _run_probe(cluster, params.k, derive_seed(params.seed, TAG_RANK_TEST))
    if probe.full:
        result = smoothed_protocol(cluster, params)
    else:
        result = low_rank_protocol(cluster, params, probe=probe)
    result.rank_test_full = probe.full
    return result


# -- closed-form ledger checks -----------------------------------------


def _expected_low_rank(s: int, m: int, k: int, xi_a: int, retried: bool) -> dict[str, int]:
    # one probe plus one span gather per attempt, whoever recorded the probe
    probes = 1 + (1 if retried else 0)
    span_ups = probes
    return {
        "rank-test-seed": 2 * s * probes,
        "rank-test-up": 4 * k * k * s * probes,
        "span-up": 2 * k * m * s * span_ups,
        "span-down": 2 * k * m * s,
        "affine-up": xi_a * xi_a * s,
        "regress-up": 2 * k * xi_a * s,
        "u-down": m * min(k, m) * s,
    }


def _expected_smoothed(s: int, m: int, k: int, xi: int, kk: int, u_cols: int,
                       with_probe: bool) -> dict[str, int]:
    out = {
        "sketch-up": xi * xi * s,
        "V-down": xi * kk * s,
        "X-up": m * kk * s,
        "u-down": m * u_cols * s,
    }
    if with_probe:
        out["rank-test-seed"] = 2 * s
        out["rank-test-up"] = 4 * k * k * s
    return out


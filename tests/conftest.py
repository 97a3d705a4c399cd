"""Shared helpers for the test suite.

Deterministic instance builders live here so every test file draws from the
same constructions.  All randomness flows through explicit integer seeds.
"""

from __future__ import annotations

import math

import numpy as np


def rand_matrix(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


def rand_orthonormal(seed: int, m: int, k: int) -> np.ndarray:
    G = rand_matrix(seed, m, k)
    Q, _ = np.linalg.qr(G)
    return Q


def lowrank_plus_noise(seed: int, m: int, n: int, k: int, noise: float) -> np.ndarray:
    """Planted rank-k signal with additive Gaussian noise."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, k))
    Y = rng.standard_normal((n, k))
    return X @ Y.T + noise * rng.standard_normal((m, n))


def rank_exactly(seed: int, m: int, n: int, r: int, spread: float = 1.0) -> np.ndarray:
    """Matrix with numeric rank exactly r and well-separated singular values."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    s = spread * (1.0 + rng.random(r))
    return (U * s) @ V.T


def frob_sq(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, "fro") ** 2)


def best_tail_sq(A: np.ndarray, k: int) -> float:
    s = np.linalg.svd(A, compute_uv=False)
    return float(np.sum(s[k:] ** 2))


def sparse_columns_block(seed: int, m: int, n: int, phi: int):
    """Column block with 1..phi nonzeros per column."""
    from sketchpca.sparse import SparseColMatrix

    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(n):
        z = int(rng.integers(1, phi + 1))
        rows = np.sort(rng.choice(m, size=z, replace=False))
        vals = rng.standard_normal(z)
        vals[vals == 0.0] = 1.0
        cols.append((rows, vals))
    return SparseColMatrix.from_columns((m, n), cols)


def sparse_random(seed: int, m: int, n: int, density: float = 0.4, scale: float = 1.0):
    """Gaussian entries, each kept with probability density, stored sparse."""
    from sketchpca.sparse import SparseColMatrix

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * scale
    A[rng.random((m, n)) >= density] = 0.0
    return SparseColMatrix.from_dense(A)


def selected_rank(cluster, res) -> int:
    """rank C for the columns a column-partition run collected, the row
    count of its stage-4 coefficients Y^T A."""
    C = cluster.materialize()[:, res.core_indices + res.adaptive_indices]
    return int(np.linalg.matrix_rank(C))


def split_rows(A: np.ndarray, s: int, seed: int) -> list[np.ndarray]:
    """Additive partition of A into s parts by random row ownership."""
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, s, size=A.shape[0])
    parts = []
    for i in range(s):
        P = np.zeros_like(A)
        P[owner == i] = A[owner == i]
        parts.append(P)
    return parts


def stage_four_words(cluster, res, seed: int, sketch: str) -> list[int]:
    """Each machine's stage-4 uplink words, recomputed from the data.

    Machine i's raw columns cost sum_j min(2 nnz_j, m) + 1 words, its
    packed R factor q * r - q * (q - 1) / 2, with q = min(n_i, r) and
    r = rank C, and its top-t summary r * t, t = ceil(k / (eps / 2)),
    offered when t < min(r, n_i).  Its sketch A_i T_i, for the seeded
    xi-column T ("sign" for distributed_css_pca, "count" for
    distributed_css_pca_fast), ships each block of w columns in
    min(r * w, its column encoding) words.  An explicit xi_subspace
    sketches on every machine.  Otherwise a machine ships the fewest words
    of its exact payloads, its summary and, when it is wider than xi, its
    sketch; the tie rules pick among payloads of equal words."""
    from sketchpca.column_partition import _FINALIZE_BLOCK, TAG_CSS_SUBSPACE, _cols_words
    from sketchpca.sketches import derive_seed, sign_sketch, sparse_embedding

    r, xi = selected_rank(cluster, res), res.xi
    t = math.ceil(res.params.k / (res.params.eps / 2))
    seed = derive_seed(seed, TAG_CSS_SUBSPACE)
    T = (sign_sketch(xi, cluster.n, seed) if sketch == "sign"
         else sparse_embedding(xi, cluster.n, seed)).materialize()
    words = []
    for i in range(cluster.s):
        a, b = cluster.col_offsets[i], cluster.col_offsets[i + 1]
        A_i = cluster.part_dense(i)
        AT = A_i @ T[:, a:b].T
        sketched = sum(min(r * B.shape[1], _cols_words(B))
                       for B in (AT[:, lo:lo + _FINALIZE_BLOCK]
                                 for lo in range(0, xi, _FINALIZE_BLOCK)))
        q = min(b - a, r)
        offered = [_cols_words(A_i), q * r - q * (q - 1) // 2]
        if t < q:
            offered.append(r * t)
        if b - a > xi:
            offered.append(sketched)
        words.append(sketched if res.params.xi_subspace is not None else min(offered))
    return words


def fast_sketch_uplink(cluster, res, seed: int) -> int:
    """subspace-up of a distributed_css_pca_fast run with an explicit
    xi_subspace: every machine sketches (stage_four_words)."""
    return sum(stage_four_words(cluster, res, seed, "count"))

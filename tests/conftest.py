"""Shared helpers for the test suite.

Deterministic instance builders live here so every test file draws from the
same constructions.  All randomness flows through explicit integer seeds.
"""

from __future__ import annotations

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


def fast_sketch_uplink(cluster, res, seed: int) -> int:
    """subspace-up of a distributed_css_pca_fast sketch finalize, recomputed
    from its seeded CountSketch T: every block of columns of A_i T_i ships
    in its cheaper encoding, min(r * w, _cols_words(block)) words, with
    r = rank C and w the block's width."""
    from sketchpca.column_partition import _FINALIZE_BLOCK, TAG_CSS_SUBSPACE, _cols_words
    from sketchpca.sketches import derive_seed, sparse_embedding

    r = selected_rank(cluster, res)
    T = sparse_embedding(res.xi, cluster.n, derive_seed(seed, TAG_CSS_SUBSPACE)).materialize()
    words = 0
    for i in range(cluster.s):
        a, b = cluster.col_offsets[i], cluster.col_offsets[i + 1]
        AT = cluster.part_dense(i) @ T[:, a:b].T
        for lo in range(0, res.xi, _FINALIZE_BLOCK):
            block = AT[:, lo:lo + _FINALIZE_BLOCK]
            words += min(r * block.shape[1], _cols_words(block))
    return words

"""Batch sketched low-rank PCA.

The pipeline sketches the input on both sides with seeded sign matrices,
takes the top right singular vectors of the small sketched matrix, lifts
them back through the right sketch, and orthonormalizes:

    A~ = (S @ A) @ Tr        small xi x xi matrix
    V  = top-k right singular vectors of A~
    X  = A @ (Tr @ V)        lifted m x k factor
    U  = orthonormal basis of X

The association order of the products is part of the contract: distributed
callers compute the same products per partition and sum, so the batch path
must combine factors in exactly the same order for the trivial partition to
reproduce identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import as_matrix, finalize_basis, round_to_multiple, truncated_svd
from .sketches import dense_pca_dim, derive_seed, sign_sketch

TAG_SKETCH_LEFT = "pca-sketch-left"
TAG_SKETCH_RIGHT = "pca-sketch-right"
TAG_NOISE = "pca-noise"


@dataclass(frozen=True)
class BatchResult:
    """Output of a batch PCA run.

    U has k orthonormal columns, or fewer when the lifted factor lost rank
    (deficient is then set and rank records the achieved width).
    """

    U: np.ndarray
    rank: int
    deficient: bool
    xi_left: int
    xi_right: int
    seed: int


def pca_sketches(m: int, n: int, k: int, eps: float, seed: int,
                 xi_left: int | None = None, xi_right: int | None = None):
    """The pair (S, Tr) of two-sided sketch operands shared with protocols.

    S is xi_left x m; Tr is n x xi_right, already transposed for right
    multiplication.  Both are pure functions of (seed, dims).
    """
    xl = xi_left if xi_left is not None else dense_pca_dim(k, eps)
    xr = xi_right if xi_right is not None else dense_pca_dim(k, eps)
    S = sign_sketch(xl, m, derive_seed(seed, TAG_SKETCH_LEFT)).materialize()
    Tr = sign_sketch(xr, n, derive_seed(seed, TAG_SKETCH_RIGHT)).materialize().T
    return S, Tr


def sketch_two_sided(B: np.ndarray, S: np.ndarray, Tr: np.ndarray) -> np.ndarray:
    """(S @ B) @ Tr in this association order, shared across call sites."""
    return (S @ B) @ Tr


def lift_through_right(B: np.ndarray, Tr: np.ndarray, V: np.ndarray) -> np.ndarray:
    """B @ (Tr @ V) in this association order, shared across call sites.

    Lifting V through Tr first makes the m x n product cost m n k flops,
    not m n xi."""
    return B @ (Tr @ V)


def basis_from_lift(X: np.ndarray):
    """Orthonormalize the lifted factor; trims columns on rank loss."""
    Q, r, deficient = finalize_basis(X)
    return (Q[:, :r] if deficient else Q), r, deficient


def batch_low_rank(A, k: int, eps: float, seed: int, *,
                   xi_left: int | None = None, xi_right: int | None = None,
                   rounding: float = 0.0) -> BatchResult:
    """Rank-k PCA of a dense matrix via a two-sided sketch.

    rounding > 0 quantizes the small right factor V to multiples of the
    given granularity before lifting (the distributed protocol uses this to
    bound word sizes); 0 disables quantization exactly.
    """
    A = as_matrix(A, "A")
    if k < 1:
        raise InputError("k must be at least 1")
    if not 0.0 < eps:
        raise InputError("eps must be positive")
    m, n = A.shape
    S, Tr = pca_sketches(m, n, k, eps, seed, xi_left, xi_right)
    small = sketch_two_sided(A, S, Tr)
    V = truncated_svd(small, min(k, min(small.shape))).V
    V = round_to_multiple(V, rounding)
    X = lift_through_right(A, Tr, V)
    U, r, deficient = basis_from_lift(X)
    return BatchResult(U, r, deficient, S.shape[0], Tr.shape[1], seed)

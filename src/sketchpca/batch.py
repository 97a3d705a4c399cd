"""Batch sketched low-rank PCA.

The pipeline sketches the input on both sides with seeded sign matrices,
takes the top right singular vectors of the small sketched matrix, lifts
them back through the right sketch, and orthonormalizes:

    A~ = (S @ A) @ Tr        small xi x xi matrix
    V  = top-k right singular vectors of A~
    X  = A @ (Tr @ V)        lifted m x k factor
    U  = orthonormal basis of X

Both products run over the nonzero row range of the input only (the
smallest contiguous rows holding every nonzero, nonzero_row_range), so the
rows a summand does not hold cost nothing.  Distributed callers compute the
same products per partition and sum, so the batch path calls the same two
helpers on the same trimmed operands: sketch_two_sided picks its
association order from the operand shapes alone, and the trivial partition
reproduces identical bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (
    as_matrix,
    finalize_basis,
    nonzero_row_range,
    round_to_multiple,
    truncated_svd,
)
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


def in_rows(m: int, rows: slice, Y: np.ndarray) -> np.ndarray:
    """Y placed in rows `rows` of an m-row zero block: the full-height form
    of a product B[rows] @ W whose other rows of B are zero."""
    X = np.zeros((m, Y.shape[1]))
    X[rows] = Y
    return X


def sketch_two_sided(B: np.ndarray, S: np.ndarray, Tr: np.ndarray) -> np.ndarray:
    """S @ B @ Tr in the association order with fewer multiply-adds.

    For S a x b, B b x c and Tr c x d, (S @ B) @ Tr costs abc + acd and
    S @ (B @ Tr) costs bcd + abd; ties keep (S @ B) @ Tr.  The choice reads
    only the shapes, so every call site with the same operands gets the
    same bits."""
    a, b = S.shape
    c, d = Tr.shape
    if a * b * c + a * c * d <= b * c * d + a * b * d:
        return (S @ B) @ Tr
    return S @ (B @ Tr)


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
    rows = nonzero_row_range(A)
    small = sketch_two_sided(A[rows], S[:, rows], Tr)
    V = truncated_svd(small, min(k, min(small.shape))).V
    V = round_to_multiple(V, rounding)
    X = in_rows(m, rows, lift_through_right(A[rows], Tr, V))
    U, r, deficient = basis_from_lift(X)
    return BatchResult(U, r, deficient, S.shape[0], Tr.shape[1], seed)

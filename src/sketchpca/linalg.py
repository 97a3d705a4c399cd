"""Dense numerical kernels with deterministic conventions.

Thin wrappers around ``numpy.linalg`` that pin down everything the protocols
rely on for reproducibility: a fixed sign convention for singular vectors, QR
with a nonnegative R diagonal, one numeric-rank rule, a range finder seeded
from the sketch PRF, restricted rank-k projections onto a given column span,
and the rank-constrained affine solver used by every "sketch then solve
small" step.

The numeric rank of an m x n matrix counts its singular values above
DEFAULT_RANK_TOL * max(m, n) * sigma_1.  _rank alone applies that rule, and
no routine takes a tolerance of its own.

All public routines accept and return float64 arrays.  Empty dimensions are
legal everywhere; a 0-column factor is the canonical degenerate basis.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError
from .sketches import sign_sketch

# Relative spectral cutoff for numeric rank, scaled by max(shape).
DEFAULT_RANK_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-D array, copying only when needed."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


def nonzero_row_range(B: np.ndarray) -> slice:
    """The smallest contiguous row range holding every nonzero of B; empty
    when B is all zero."""
    rows = np.flatnonzero(np.any(B, axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1) if rows.size else slice(0, 0)


def _rank(sigma: np.ndarray, shape: tuple[int, int]) -> int:
    """Numeric rank from the singular values of a matrix of this shape."""
    return int(np.sum(sigma > DEFAULT_RANK_TOL * max(shape) * sigma.max(initial=0.0)))


class SvdFactors(NamedTuple):
    """Compact SVD triple ``A ~ U @ diag(sigma) @ V.T`` with sign convention.

    Each left singular vector is flipped so that its largest-magnitude entry
    is positive (ties broken by the lowest row index), which makes the
    factorization a pure function of the input bits whenever the singular
    values are distinct.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def rank(self) -> int:
        return _rank(self.sigma, (self.U.shape[0], self.V.shape[0]))


def _apply_sign_convention(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if U.shape[1] == 0:
        return U, V
    pick = np.argmax(np.abs(U), axis=0)
    signs = np.where(U[pick, np.arange(U.shape[1])] < 0.0, -1.0, 1.0)
    return U * signs, V * signs


def svd(A) -> SvdFactors:
    """Compact SVD with the package sign convention."""
    A = as_matrix(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    U, V = _apply_sign_convention(U, Vt.T)
    return SvdFactors(U, s, V)


def truncated_svd(A, k: int) -> SvdFactors:
    """Top-k factors of the compact SVD.

    k may not exceed min(shape); k = 0 yields empty factors.  When the input
    has numeric rank below k the trailing factors correspond to (near-)zero
    singular values but k columns are still returned.
    """
    A = as_matrix(A)
    if not 0 <= k <= min(A.shape):
        raise InputError(f"rank target k={k} out of range for shape {A.shape}")
    F = svd(A)
    return SvdFactors(F.U[:, :k], F.sigma[:k], F.V[:, :k])


def tail_sq(A, k: int) -> float:
    """Squared Frobenius distance to the best rank-k approximation."""
    A = as_matrix(A)
    if not 0 <= k <= min(A.shape):
        raise InputError(f"rank target k={k} out of range for shape {A.shape}")
    s = np.linalg.svd(A, compute_uv=False)
    return float(np.sum(s[k:] ** 2))


def numeric_rank(A) -> int:
    """Numeric rank, from the singular values alone."""
    A = as_matrix(A)
    return _rank(np.linalg.svd(A, compute_uv=False), A.shape)


def qr(A) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with every diagonal entry of R nonnegative.

    Requires at least as many rows as columns.
    """
    A = as_matrix(A)
    if A.shape[0] < A.shape[1]:
        raise InputError(f"qr needs n_rows >= n_cols, got shape {A.shape}")
    Q, R = np.linalg.qr(A)
    if R.shape[0]:
        d = np.sign(np.diag(R))
        d[d == 0.0] = 1.0
        Q = Q * d
        R = R * d[:, None]
    return Q, R


def range_finder_top(A, k: int, seed: int, scaled: bool = False) -> np.ndarray:
    """k orthonormal columns spanning nearly the top-k left factors of A,
    or with scaled, those columns times their singular values (U_k Sigma_k,
    whose outer product is A A^T with its tail cut).

    A range finder on p = k + 5 columns (fewer when A is smaller): a PRF
    sign start block, two power steps with a QR after every product, and
    the exact SVD of the p-row projection.  No Gram matrix is formed, so
    the condition number is never squared.
    """
    p = min(k + 5, min(A.shape))
    Q, _ = qr(A @ sign_sketch(p, A.shape[1], seed, 1.0).materialize().T)
    for _ in range(2):
        Q, _ = qr(A.T @ Q)
        Q, _ = qr(A @ Q)
    F = truncated_svd(Q.T @ A, k)
    return Q @ (F.U * F.sigma if scaled else F.U)


def orthonormal_basis(A) -> np.ndarray:
    """Orthonormal basis for the column space, rank-revealing via SVD."""
    F = svd(A)
    return F.U[:, :F.rank()]


def finalize_basis(X) -> tuple[np.ndarray, int, bool]:
    """Orthonormalize the k columns of X, detecting rank deficiency.

    One SVD gives both the numeric rank r and k deterministic orthonormal
    columns (fewer when X has fewer rows) whose leading r span the achieved
    column space; callers decide whether to trim.  Returns (basis, achieved
    rank, deficient flag).
    """
    F = svd(X)
    r = F.rank()
    return F.U, r, r < F.V.shape[0]   # V has a row per column of X


def round_to_multiple(A, rho: float) -> np.ndarray:
    """Round every entry to the nearest multiple of rho; rho = 0 disables."""
    A = as_matrix(A)
    if rho < 0:
        raise InputError(f"rounding granularity must be nonnegative, got {rho}")
    if rho == 0.0:
        return A
    return rho * np.round(A / rho)


class SpanProjection(NamedTuple):
    """Pieces of the best rank-k approximation restricted to a given span.

    basis:    orthonormal columns spanning the candidate space
    coeffs:   basis.T @ A
    top:      top-k left singular vectors of coeffs
    """

    basis: np.ndarray
    coeffs: np.ndarray
    top: np.ndarray

    def matrix_colspan(self) -> np.ndarray:
        return self.basis @ (self.top @ (self.top.T @ self.coeffs))


def best_rank_k_in_colspan(A, V, k: int) -> SpanProjection:
    """Best rank-k approximation of A among matrices with columns in span(V).

    Let Y be an orthonormal basis of span(V) and Delta the top-k left
    singular vectors of Y.T @ A.  Then Y @ Delta @ Delta.T @ Y.T @ A attains
    the minimum Frobenius error over rank-k matrices in the span, exactly.
    """
    A = as_matrix(A, "A")
    V = as_matrix(V, "V")
    if V.shape[0] != A.shape[0]:
        raise InputError("V must have the same number of rows as A")
    if k < 0:
        raise InputError("k must be nonnegative")
    Y = orthonormal_basis(V)
    P = Y.T @ A
    kk = min(k, min(P.shape))
    Delta = truncated_svd(P, kk).U
    return SpanProjection(Y, P, Delta)


def colspan_residual_sq(A, V, k: int) -> float:
    """Squared error of the rank-k-restricted projection onto span(V)."""
    A = as_matrix(A, "A")
    proj = best_rank_k_in_colspan(A, V, k)
    return float(np.linalg.norm(A - proj.matrix_colspan(), "fro") ** 2)


def span_residual_sq(A, V) -> float:
    """Squared error of the plain orthogonal projection onto span(V)."""
    A = as_matrix(A, "A")
    Y = orthonormal_basis(as_matrix(V, "V"))
    return float(np.linalg.norm(A - Y @ (Y.T @ A), "fro") ** 2)


def _zero_tail(A, tail: float) -> bool:
    """Whether an optimal rank-k tail of A is roundoff rather than signal:
    at most 1e-22 * max(1, ||A||_F^2).  Ratios against such a tail are
    roundoff over roundoff, so no caller divides by it."""
    return tail <= 1e-22 * max(1.0, float(np.sum(A * A)))


def residual_ratio(A, U, k: int) -> float:
    """||A - U U^T A||_F^2 relative to the optimal rank-k tail.

    U must have orthonormal columns.  A zero tail with a zero residual
    reports 1.0; a zero tail with positive residual reports +inf.
    """
    A = as_matrix(A, "A")
    U = as_matrix(U, "U")
    res = float(np.linalg.norm(A - U @ (U.T @ A), "fro") ** 2)
    opt = tail_sq(A, k)
    if _zero_tail(A, opt):
        return 1.0 if res <= 1e-18 * max(1.0, float(np.sum(A * A))) else float("inf")
    return res / opt


def rank_constrained_affine_solve(M, N, L, k: int) -> np.ndarray:
    """Minimize ||M - N @ X @ L||_F over rank(X) <= k, returning the
    minimum-Frobenius-norm minimizer.

    With compact SVDs N = Un Sn Vn^T and L = Ul Sl Vl^T, the optimum is
    X = Vn Sn^{-1} B_k Sl^{-1} Ul^T where B_k is the best rank-k
    approximation of Un^T M Vl.  Rank deficiency in N or L is handled by
    keeping only the factors inside the numeric rank.
    """
    M = as_matrix(M, "M")
    N = as_matrix(N, "N")
    L = as_matrix(L, "L")
    if N.shape[0] != M.shape[0] or L.shape[1] != M.shape[1]:
        raise InputError("shapes not conformal: need M = N @ X @ L to typecheck")
    if k < 0:
        raise InputError("k must be nonnegative")

    Un, sn, Vnt = np.linalg.svd(N, full_matrices=False)
    Ul, sl, Vlt = np.linalg.svd(L, full_matrices=False)
    rn, rl = _rank(sn, N.shape), _rank(sl, L.shape)
    Un, sn, Vn = Un[:, :rn], sn[:rn], Vnt[:rn].T
    Ul, sl, Vl = Ul[:, :rl], sl[:rl], Vlt[:rl].T

    B = Un.T @ M @ Vl
    kk = min(k, min(B.shape))
    F = truncated_svd(B, kk)
    core = (F.U * F.sigma) @ F.V.T
    return (Vn / sn) @ core @ (Ul / sl).T

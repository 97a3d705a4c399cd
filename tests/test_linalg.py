"""Deterministic-convention linear algebra kernels.

The rank-constrained affine solver is checked against a random-candidate
search oracle: the solver's objective must never lose to any of a large
batch of random rank-k candidates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    best_tail_sq,
    frob_sq,
    rand_matrix,
    rand_orthonormal,
    rank_exactly,
    sparse_random,
)
from sketchpca.errors import InputError
from sketchpca import linalg
from sketchpca.column_select_sparse import sparse_svd


class TestSvd:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstructs(self, seed):
        A = rand_matrix(seed, 9, 6)
        F = linalg.svd(A)
        tol = 1e-8
        assert F.U.shape[1] == F.V.shape[1] == len(F.sigma)
        assert np.abs(F.U.T @ F.U - np.eye(len(F.sigma))).max() <= tol
        assert np.abs(F.V.T @ F.V - np.eye(len(F.sigma))).max() <= tol
        assert np.all(np.diff(F.sigma) <= tol) and np.all(F.sigma >= -tol)
        scale = max(1.0, float(np.abs(A).max()))
        assert np.abs((F.U * F.sigma) @ F.V.T - A).max() <= tol * scale * max(A.shape)

    @pytest.mark.parametrize("seed", range(5))
    def test_sign_convention(self, seed):
        F = linalg.svd(rand_matrix(seed, 8, 8))
        for c in range(8):
            col = F.U[:, c]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic_bits(self):
        A = rand_matrix(3, 12, 7)
        F1 = linalg.svd(A.copy())
        F2 = linalg.svd(A.copy())
        assert F1.U.tobytes() == F2.U.tobytes()
        assert F1.V.tobytes() == F2.V.tobytes()

    def test_empty_dims(self):
        F = linalg.svd(np.zeros((4, 0)))
        assert F.U.shape == (4, 0) and F.sigma.shape == (0,)

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            linalg.svd(np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            linalg.svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestTruncatedSvd:
    def test_matches_tail(self):
        A = rand_matrix(11, 10, 14)
        for k in (0, 1, 3, 10):
            F = linalg.truncated_svd(A, k)
            gap = frob_sq(A - (F.U * F.sigma) @ F.V.T)
            assert gap == pytest.approx(linalg.tail_sq(A, k), rel=1e-10, abs=1e-10)

    def test_out_of_range(self):
        A = rand_matrix(0, 5, 3)
        with pytest.raises(InputError):
            linalg.truncated_svd(A, 4)
        with pytest.raises(InputError):
            linalg.truncated_svd(A, -1)

    def test_rank_deficient_still_k_columns(self):
        A = rank_exactly(2, 8, 8, 2)
        F = linalg.truncated_svd(A, 5)
        assert F.U.shape == (8, 5)
        assert F.sigma[2:] == pytest.approx(0.0, abs=1e-10)


class TestRankAndPinv:
    @pytest.mark.parametrize("r", [0, 1, 3, 6])
    def test_numeric_rank_exact(self, r):
        A = rank_exactly(7, 10, 8, r) if r else np.zeros((10, 8))
        assert linalg.numeric_rank(A) == r

    @pytest.mark.parametrize("shape,r", [((10, 8), 0), ((10, 8), 1), ((7, 12), 5),
                                         ((9, 9), 9), ((0, 6), 0), ((6, 0), 0),
                                         ((0, 0), 0)])
    def test_one_rule_everywhere(self, shape, r):
        # numeric_rank, SvdFactors.rank and the basis width are one rule,
        # on random rank-r matrices, the zero matrix and empty shapes
        A = rank_exactly(r, *shape, r) if r else np.zeros(shape)
        assert linalg.numeric_rank(A) == linalg.svd(A).rank() == r
        assert linalg.orthonormal_basis(A).shape == (shape[0], r)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=25, deadline=None)
    def test_rank_is_scale_invariant(self, scale):
        A = rank_exactly(13, 9, 9, 4)
        assert linalg.numeric_rank(scale * A) == 4


class TestQr:
    @pytest.mark.parametrize("seed", range(4))
    def test_qr_convention(self, seed):
        A = rand_matrix(seed, 10, 6)
        Q, R = linalg.qr(A)
        assert np.allclose(Q @ R, A, atol=1e-10)
        assert np.allclose(Q.T @ Q, np.eye(6), atol=1e-10)
        assert np.all(np.diag(R) >= 0)

    def test_wide_rejected(self):
        with pytest.raises(InputError):
            linalg.qr(rand_matrix(0, 3, 5))


class TestFinalizeBasis:
    def test_full_rank_spans_the_columns(self):
        X = rand_matrix(21, 12, 4)
        U, r, deficient = linalg.finalize_basis(X)
        assert (r, deficient) == (4, False)
        assert U.shape == (12, 4)
        assert np.allclose(U.T @ U, np.eye(4), atol=1e-10)
        assert np.allclose(U @ (U.T @ X), X, atol=1e-10)

    def test_deficient_flagged(self):
        X = np.zeros((6, 3))
        X[:, 0] = 1.0
        U, r, deficient = linalg.finalize_basis(X)
        assert deficient and r == 1
        assert U.shape == (6, 3)
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-10)
        # leading column spans the achieved range
        assert np.allclose(U[:, 0] * (U[:, 0] @ X[:, 0]), X[:, 0], atol=1e-10)


class TestRounding:
    def test_multiples(self):
        A = rand_matrix(1, 5, 5)
        R = linalg.round_to_multiple(A, 0.25)
        assert np.all(np.round(R / 0.25) * 0.25 == R)
        assert np.abs(R - A).max() <= 0.125 + 1e-15

    def test_zero_disables(self):
        A = rand_matrix(2, 4, 4)
        assert linalg.round_to_multiple(A, 0.0) is A

    @given(st.floats(min_value=1e-8, max_value=10.0),
           st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_rounding_error_bound(self, rho, x):
        R = linalg.round_to_multiple(np.array([[x]]), rho)
        assert abs(R[0, 0] - x) <= rho / 2 * (1 + 1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            linalg.round_to_multiple(np.eye(2), -1.0)


class TestSpanProjections:
    def test_exact_on_top_singular_space(self):
        # span(V) containing the top-k left singular vectors recovers A_k
        A = rand_matrix(31, 12, 15)
        k = 3
        F = linalg.truncated_svd(A, k)
        V = np.hstack([F.U, rand_matrix(32, 12, 2)])
        got = linalg.colspan_residual_sq(A, V, k)
        assert got <= best_tail_sq(A, k) * (1 + 1e-10) + 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_random_rank_k_candidates(self, seed):
        # the restricted projection is claimed optimal among rank-k matrices
        # with columns in span(V); no random candidate may do better
        A = rand_matrix(seed, 8, 11)
        V = rand_matrix(100 + seed, 8, 4)
        k = 2
        proj = linalg.best_rank_k_in_colspan(A, V, k)
        best = frob_sq(A - proj.matrix_colspan())
        Y = linalg.orthonormal_basis(V)
        rng = np.random.default_rng(seed)
        for _ in range(300):
            W = Y @ rng.standard_normal((Y.shape[1], k))
            M = W @ rng.standard_normal((k, 11))
            assert best <= frob_sq(A - M) + 1e-9

    def test_span_residual_matches_pinv_formula(self):
        A = rand_matrix(41, 10, 13)
        V = rand_matrix(42, 10, 4)
        direct = frob_sq(A - V @ np.linalg.pinv(V) @ A)
        assert linalg.span_residual_sq(A, V) == pytest.approx(direct, rel=1e-9)

    def test_residual_ratio_of_exact_basis(self):
        A = rank_exactly(7, 10, 10, 3)
        U = linalg.truncated_svd(A, 3).U
        assert linalg.residual_ratio(A, U, 3) == 1.0


class TestRangeFinderTop:
    """The top-k left factors of a sketch core, from a PRF-seeded range
    finder with QR-stabilized power steps."""

    def test_same_seed_same_bytes(self):
        core = rand_matrix(21, 40, 40)
        U1 = linalg.range_finder_top(core, 3, 5)
        U2 = linalg.range_finder_top(core, 3, 5)
        assert U1.shape == (40, 3)
        assert U1.tobytes() == U2.tobytes()
        assert U1.tobytes() != linalg.range_finder_top(core, 3, 6).tobytes()

    def test_draws_nothing_from_numpy_random(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.random was called")

        A = sparse_random(22, 30, 24)
        want = sparse_svd(A, 3, 0.5, 9)
        for name in ("default_rng", "Generator", "RandomState", "seed", "rand",
                     "randn", "random", "random_sample", "standard_normal",
                     "normal", "uniform", "randint", "choice", "permutation",
                     "shuffle"):
            monkeypatch.setattr(np.random, name, refuse)
        assert sparse_svd(A, 3, 0.5, 9).tobytes() == want.tobytes()

    def test_exact_on_rank_k_when_the_block_is_clamped(self):
        # xi = 6 < k + 5, so the block takes all 6 columns of the core
        core = rank_exactly(23, 6, 6, 3)
        U = linalg.range_finder_top(core, 3, 4)
        assert U.shape == (6, 3)
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)
        assert frob_sq(core - U @ (U.T @ core)) <= 1e-12 * frob_sq(core)

    def test_scaled_factor_carries_the_singular_values(self):
        # U_k Sigma_k of a rank-k core: its outer product is core core^T
        core = rank_exactly(23, 12, 9, 3)
        P = linalg.range_finder_top(core, 3, 4, scaled=True)
        assert P.shape == (12, 3)
        assert np.allclose(P @ P.T, core @ core.T, atol=1e-12)
        assert np.allclose(np.linalg.norm(P, axis=0), np.linalg.svd(core, compute_uv=False)[:3])

    def test_zero_core_gives_orthonormal_columns(self):
        U = linalg.range_finder_top(np.zeros((20, 20)), 3, 7)
        assert U.shape == (20, 3)
        assert np.allclose(U.T @ U, np.eye(3), atol=1e-12)


def _random_candidate_best(M, N, L, k, trials, seed):
    """Best objective over random rank-k candidates X = P @ Q, scale-swept."""
    rng = np.random.default_rng(seed)
    c, r = N.shape[1], L.shape[0]
    P = rng.standard_normal((trials, c, k))
    Q = rng.standard_normal((trials, k, r))
    scales = np.exp(rng.uniform(-3, 3, size=trials))
    NP = np.einsum("ac,tck->tak", N, P)
    QL = np.einsum("tkr,rb->tkb", Q, L)
    approx = np.einsum("tak,tkb->tab", NP, QL) * scales[:, None, None]
    resid = M[None] - approx
    return float(np.min(np.sum(resid**2, axis=(1, 2))))


class TestRankConstrainedSolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_never_beaten_by_random_candidates(self, seed):
        M = rand_matrix(seed, 4, 4)
        N = rand_matrix(50 + seed, 4, 2)
        L = rand_matrix(90 + seed, 2, 4)
        X = linalg.rank_constrained_affine_solve(M, N, L, 1)
        assert np.linalg.matrix_rank(X, tol=1e-8) <= 1
        obj = frob_sq(M - N @ X @ L)
        oracle = _random_candidate_best(M, N, L, 1, 20000, seed)
        assert obj <= oracle + 1e-8

    def test_orthonormal_case_is_truncation(self):
        # orthonormal N columns and L rows reduce the problem to B ~ B_k
        M = rand_matrix(7, 6, 6)
        N = rand_orthonormal(8, 6, 3)
        L = rand_orthonormal(9, 6, 3).T
        for k in (1, 2, 3):
            X = linalg.rank_constrained_affine_solve(M, N, L, k)
            B = N.T @ M @ L.T
            F = linalg.truncated_svd(B, k)
            assert np.allclose(X, (F.U * F.sigma) @ F.V.T, atol=1e-8)

    def test_minimum_norm_among_minimizers(self):
        # N has a null direction; adding it must not lower the norm
        M = rand_matrix(3, 5, 5)
        N = np.hstack([rand_matrix(4, 5, 2), np.zeros((5, 1))])
        L = rand_matrix(5, 2, 5)
        X = linalg.rank_constrained_affine_solve(M, N, L, 2)
        base = frob_sq(M - N @ X @ L)
        rng = np.random.default_rng(0)
        for _ in range(20):
            Z = np.zeros((3, 2))
            Z[2] = rng.standard_normal(2)  # null(N) component
            X2 = X + Z
            assert frob_sq(M - N @ X2 @ L) == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert np.linalg.norm(X2) >= np.linalg.norm(X) - 1e-12

    def test_degenerate_zero_factors(self):
        X = linalg.rank_constrained_affine_solve(
            rand_matrix(1, 4, 4), np.zeros((4, 2)), rand_matrix(2, 3, 4), 2)
        assert X.shape == (2, 3) and np.all(X == 0)

    @pytest.mark.parametrize("n_rows,l_cols", [(0, 5), (4, 0), (0, 0)])
    def test_empty_factors_give_zeros(self, n_rows, l_cols):
        # N with 0 rows or L with 0 columns leaves nothing to fit
        N, L = rand_matrix(1, n_rows, 3), rand_matrix(2, 2, l_cols)
        X = linalg.rank_constrained_affine_solve(np.zeros((n_rows, l_cols)), N, L, 2)
        assert X.shape == (3, 2) and np.all(X == 0)

    def test_exact_when_unconstrained(self):
        # k at full size and consistent M recovers an exact fit
        N = rand_matrix(11, 6, 3)
        L = rand_matrix(12, 3, 6)
        X0 = rand_matrix(13, 3, 3)
        M = N @ X0 @ L
        X = linalg.rank_constrained_affine_solve(M, N, L, 3)
        assert frob_sq(M - N @ X @ L) <= 1e-16 * frob_sq(M)

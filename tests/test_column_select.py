"""Column selection kernels, checked against brute-force oracles.

The small-case oracle for deterministic CSS enumerates every column subset;
the sampling oracle compares empirical frequencies with exact residual
proportions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import best_tail_sq, frob_sq, rand_matrix, rand_orthonormal
from sketchpca import column_select as cs
from sketchpca.cluster import Cluster
from sketchpca.column_partition import CssProtocolParams, distributed_css_pca
from sketchpca.errors import InputError
from sketchpca.linalg import colspan_residual_sq, orthonormal_basis, span_residual_sq
from sketchpca.sketches import affine_dim


class TestBssSampling:
    @pytest.mark.parametrize("seed", range(30))
    def test_postconditions_hold(self, seed):
        w, k, ell = 40, 4, 16
        V = rand_orthonormal(seed, w, k)
        E = rand_matrix(1000 + seed, 25, w)
        S = cs.bss_sampling(V, E, ell)
        floor = (1 - math.sqrt(k / ell)) ** 2
        sig = np.linalg.svd(S.apply_to(V.T), compute_uv=False)
        assert sig[k - 1] ** 2 >= floor * (1 - 1e-9)
        assert frob_sq(S.apply_to(E)) <= frob_sq(E) * (1 + 1e-9)

    @pytest.mark.parametrize("w,k,ell", [(12, 2, 5), (20, 3, 10), (30, 5, 21)])
    def test_varied_shapes(self, w, k, ell):
        V = rand_orthonormal(7, w, k)
        E = rand_matrix(8, 9, w)
        S = cs.bss_sampling(V, E, ell)
        assert S.ell <= ell
        assert np.all(np.diff(S.indices) > 0)
        assert np.all(S.weights > 0)

    def test_structured_residual_avoids_heavy_columns(self):
        # one column of E carries almost all the mass; the sampler should
        # not put weight there unless the spectral floor forces it
        w, k, ell = 25, 2, 10
        V = rand_orthonormal(3, w, k)
        E = 1e-3 * rand_matrix(4, 10, w)
        E[:, 17] = 50.0
        S = cs.bss_sampling(V, E, ell)
        assert frob_sq(S.apply_to(E)) <= frob_sq(E) * (1 + 1e-9)
        assert 17 not in set(S.indices.tolist())

    def test_zero_residual_matrix(self):
        V = rand_orthonormal(5, 15, 3)
        S = cs.bss_sampling(V, np.zeros((6, 15)), 7)
        sig = np.linalg.svd(S.apply_to(V.T), compute_uv=False)
        assert sig[2] ** 2 >= (1 - math.sqrt(3 / 7)) ** 2 * (1 - 1e-9)

    def test_deterministic(self):
        V = rand_orthonormal(11, 20, 3)
        E = rand_matrix(12, 8, 20)
        S1 = cs.bss_sampling(V, E, 9)
        S2 = cs.bss_sampling(V, E, 9)
        assert np.array_equal(S1.indices, S2.indices)
        assert S1.weights.tobytes() == S2.weights.tobytes()

    def test_materialize_matches_apply(self):
        V = rand_orthonormal(13, 18, 2)
        E = rand_matrix(14, 6, 18)
        S = cs.bss_sampling(V, E, 8)
        M = rand_matrix(15, 4, 18)
        assert np.allclose(S.apply_to(M), M @ S.materialize(), atol=1e-12)

    def test_guards(self):
        V = rand_orthonormal(0, 10, 3)
        E = rand_matrix(1, 4, 10)
        with pytest.raises(InputError):
            cs.bss_sampling(V, E, 3)  # ell must exceed k
        with pytest.raises(InputError):
            cs.bss_sampling(V, rand_matrix(1, 4, 9), 6)  # E width mismatch
        with pytest.raises(InputError):
            cs.bss_sampling(rand_matrix(2, 10, 3), E, 6)  # not orthonormal


class TestDeterministicCss:
    @pytest.mark.parametrize("seed", range(30))
    def test_bound_vs_tail(self, seed):
        G = rand_matrix(seed, 10, 30)
        k, c = 2, 8
        res = cs.deterministic_css(G, k, c)
        ratio = span_residual_sq(G, res.columns) / best_tail_sq(G, k)
        assert ratio <= 1 + 1 / (1 - math.sqrt(k / c)) ** 2 + 1e-9
        assert ratio <= 5.0

    def test_columns_are_verbatim(self):
        G = rand_matrix(50, 8, 20)
        res = cs.deterministic_css(G, 2, 6)
        assert np.array_equal(res.columns, G[:, res.indices])

    def test_close_to_exhaustive_oracle(self):
        # small enough to enumerate every 2-subset of columns
        G = rand_matrix(77, 6, 9)
        k, c = 1, 2
        res = cs.deterministic_css(G, k, c)
        ours = span_residual_sq(G, res.columns)
        best = min(span_residual_sq(G, G[:, list(pair)])
                   for pair in itertools.combinations(range(9), 2))
        assert ours <= 6.0 * best + 1e-9

    def test_guards(self):
        G = rand_matrix(0, 6, 10)
        with pytest.raises(InputError):
            cs.deterministic_css(G, 0, 4)
        with pytest.raises(InputError):
            cs.deterministic_css(G, 3, 3)
        with pytest.raises(InputError):
            cs.deterministic_css(G, 2, 11)


class TestAdaptiveCols:
    def test_frequencies_match_residual_proportions(self):
        A = rand_matrix(21, 8, 12)
        V = A[:, :3]
        draw = cs.adaptive_cols(A, V, 20000, 1.0, seed=5)
        counts = np.bincount(draw.indices, minlength=12) / 20000
        for j in range(12):
            tol = 4 * math.sqrt(max(draw.probs[j], 1e-4) / 20000) + 5e-3
            assert abs(counts[j] - draw.probs[j]) <= tol

    def test_spanned_columns_have_zero_probability(self):
        # columns inside span(V) carry no residual mass
        A = rand_matrix(22, 8, 10)
        V = A[:, [0, 4]]
        draw = cs.adaptive_cols(A, V, 5000, 1.0, seed=6)
        assert draw.probs[0] <= 1e-12 and draw.probs[4] <= 1e-12
        assert 0 not in set(draw.indices.tolist())
        assert 4 not in set(draw.indices.tolist())

    def test_zero_residual_flags_empty(self):
        Y = rand_orthonormal(23, 8, 3)
        A = Y @ rand_matrix(24, 3, 9)
        draw = cs.adaptive_cols(A, Y, 10, 1.0, seed=7)
        assert draw.empty and draw.indices.size == 0

    def test_beta_is_interface_only(self):
        A = rand_matrix(25, 6, 8)
        V = A[:, :2]
        d1 = cs.adaptive_cols(A, V, 50, 1.0, seed=8)
        d2 = cs.adaptive_cols(A, V, 50, 2.0, seed=8)
        assert np.array_equal(d1.indices, d2.indices)
        with pytest.raises(InputError):
            cs.adaptive_cols(A, V, 50, 0.0, seed=8)

    def test_deterministic_given_seed(self):
        A = rand_matrix(26, 7, 9)
        V = A[:, :2]
        assert np.array_equal(cs.adaptive_cols(A, V, 40, 1.0, 9).indices,
                              cs.adaptive_cols(A, V, 40, 1.0, 9).indices)

    def test_expected_error_drops_toward_tail(self):
        # averaging over draws, augmenting V by residual-proportional
        # columns shrinks the restricted projection error toward the tail
        A = rand_matrix(27, 10, 30)
        V = A[:, :3]
        k, c2 = 3, 25
        base = span_residual_sq(A, V)
        tail = best_tail_sq(A, k)
        errs = []
        for t in range(60):
            draw = cs.adaptive_cols(A, V, c2, 1.0, seed=100 + t)
            C = np.hstack([V, A[:, draw.indices]])
            errs.append(colspan_residual_sq(A, C, k))
        mean = float(np.mean(errs))
        sem = float(np.std(errs, ddof=1) / math.sqrt(len(errs)))
        assert mean <= tail + (k / c2) * base + 3 * sem


class TestSampleProportional:
    def test_inverts_cumulative_sum(self):
        w = np.array([0.0, 1.0, 0.0, 3.0])
        idx = cs.sample_proportional(w, 8000, seed=1)
        counts = np.bincount(idx, minlength=4) / 8000
        assert counts[0] == 0 and counts[2] == 0
        assert abs(counts[1] - 0.25) < 0.02
        assert abs(counts[3] - 0.75) < 0.02

    def test_empty_cases(self):
        assert cs.sample_proportional(np.zeros(5), 10, 1).size == 0
        assert cs.sample_proportional(np.ones(5), 0, 1).size == 0

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            cs.sample_proportional(np.array([1.0, -1.0]), 5, 1)


class TestApproxSubspaceSvd:
    """The column-partition protocol's stage 4: the rank-k basis inside the
    span of the collected columns C, sketched when xi_subspace is given and
    exact when the data is no wider than the default sketch."""

    @staticmethod
    def _run(A, s=2, **params):
        b = [round(i * A.shape[1] / s) for i in range(s + 1)]
        cl = Cluster([A[:, b[i]:b[i + 1]] for i in range(s)], kind="column")
        res = distributed_css_pca(cl, CssProtocolParams(**params))
        return res, A[:, res.core_indices + res.adaptive_indices]

    def test_close_to_restricted_optimum(self):
        k, eps = 3, 0.5
        ratios = []
        for seed in range(15):
            A = rand_matrix(seed, 20, 40)
            budgets = dict(k=k, eps=eps, seed=200 + seed, ell=4, c1=4, c2=6)
            res, C = self._run(A, xi_subspace=affine_dim(10, eps), **budgets)
            assert res.finalize == "sketch"
            opt = colspan_residual_sq(A, C, k)
            ratios.append(frob_sq(A - res.U @ (res.U.T @ A)) / opt)
            exact, _ = self._run(A, **budgets)
            assert exact.finalize == "exact"
            assert frob_sq(A - exact.U @ (exact.U.T @ A)) <= opt * (1 + 1e-10)
        assert float(np.median(ratios)) <= 1 + eps

    def test_result_lies_in_span(self):
        A = rand_matrix(31, 15, 25)
        for xi in (None, 40):
            res, C = self._run(A, k=2, eps=0.5, seed=3, ell=3, c1=3, c2=4,
                               xi_subspace=xi)
            assert C.shape[1] < 15
            Y = orthonormal_basis(C)
            assert np.allclose(res.U, Y @ (Y.T @ res.U), atol=1e-9)
            assert np.allclose(res.U.T @ res.U, np.eye(2), atol=1e-9)

    def test_exact_when_sketch_covers_everything(self):
        # the collected columns span the whole column space, so the
        # restricted optimum is the true truncation: the exact finalize
        # lands on it and the sketched one comes close
        A = rand_matrix(32, 12, 18)
        k = 2
        exact, C = self._run(A, k=k, eps=0.5, seed=4)
        assert np.linalg.matrix_rank(C) == 12 and exact.finalize == "exact"
        got = frob_sq(A - exact.U @ (exact.U.T @ A))
        assert got <= best_tail_sq(A, k) * (1 + 1e-10)
        res, _ = self._run(A, k=k, eps=0.5, seed=4, xi_subspace=affine_dim(k, 0.5))
        got = frob_sq(A - res.U @ (res.U.T @ A))
        assert got <= best_tail_sq(A, k) * (1 + 0.6)


class TestResidualBeta:
    @pytest.mark.parametrize("r2", [0.3, 1.7, 5.0, 123.456, 1e-8, 1e12])
    def test_sandwich(self, r2):
        b = cs.residual_beta(r2)
        assert r2 <= b < 2 * r2
        assert math.frexp(b)[0] == 0.5  # an exact power of two

    @pytest.mark.parametrize("r2", [0.25, 0.5, 1.0, 2.0, 1024.0])
    def test_powers_fixed(self, r2):
        assert cs.residual_beta(r2) == r2

    def test_zero_and_guards(self):
        assert cs.residual_beta(0.0) == 0.0
        assert cs.residual_beta(1e-30) == 0.0
        with pytest.raises(InputError):
            cs.residual_beta(-1.0)
        with pytest.raises(InputError):
            cs.residual_beta(float("nan"))

"""Sketched column-selection kernels and the entry-touch protocol."""

import numpy as np
import pytest

from conftest import (
    best_tail_sq,
    fast_sketch_uplink,
    frob_sq,
    lowrank_plus_noise,
    rand_matrix,
    rand_orthonormal,
    rank_exactly,
    selected_rank,
    sparse_columns_block,
    sparse_random,
    stage_four_words,
)
from sketchpca.cluster import Cluster
from sketchpca.column_select import bss_sampling, sample_proportional
from sketchpca.column_select_sparse import (
    TOUCHES,
    TAG_BOOST,
    TAG_BSS_EMBED,
    TAG_FAST_JLT,
    FastCssProtocolParams,
    FastParams,
    ResidualOperator,
    _select_top_two_thirds,
    bss_sampling_sparse,
    dense_times_sparse,
    deterministic_css_sparse,
    distributed_css_pca_fast,
    embed_cols,
    embed_rows,
    right_multiply,
    sparse_svd,
    sparse_svd_boosting,
)
from sketchpca.column_partition import _FINALIZE_BLOCK, CssProtocolParams, distributed_css_pca
from sketchpca.errors import InputError, InternalError
from sketchpca.linalg import orthonormal_basis, residual_ratio, span_residual_sq
from sketchpca.sketches import derive_seed, embedding_dim, jlt_sketch, sparse_embedding
from sketchpca.sparse import SparseColMatrix


class TestFastParams:
    def test_repeat_counts(self):
        assert FastParams(3, 0.5, 1.0).repeats == 1
        assert FastParams(3, 0.5, 0.5).repeats == 2
        assert FastParams(3, 0.5, 0.25).repeats == 3
        assert FastParams(3, 0.5, 0.01).repeats == 8

    def test_embed_xi_matches_sizing_rule(self):
        p = FastParams(4, 0.25, 0.1)
        assert p.embed_xi == embedding_dim(4, 0.25)

    def test_validation(self):
        with pytest.raises(InputError):
            FastParams(0, 0.5, 0.5)
        with pytest.raises(InputError):
            FastParams(2, 0.0, 0.5)
        with pytest.raises(InputError):
            FastParams(2, 1.5, 0.5)
        with pytest.raises(InputError):
            FastParams(2, 0.5, 0.0)
        with pytest.raises(InputError):
            FastParams(2, 0.5, 1.0001)


class TestKernelApplications:
    def test_embed_rows_bitwise_matches_dense_apply(self):
        for seed in range(5):
            A = sparse_random(seed, 23, 17, density=0.3)
            emb = sparse_embedding(9, 23, 100 + seed)
            assert embed_rows(emb, A).tobytes() == emb.apply_left(A.to_dense()).tobytes()

    def test_embed_cols_bitwise_matches_dense_apply(self):
        for seed in range(5):
            A = sparse_random(seed, 14, 26, density=0.3)
            emb = sparse_embedding(7, 26, 200 + seed)
            assert embed_cols(emb, A).tobytes() == emb.apply_right(A.to_dense()).tobytes()

    def test_embed_cols_block_offsets_sum_to_the_whole(self):
        A = sparse_random(3, 10, 30, density=0.5)
        dense = A.to_dense()
        emb = sparse_embedding(8, 30, 9)
        left = SparseColMatrix.from_dense(dense[:, :12])
        right = SparseColMatrix.from_dense(dense[:, 12:])
        split = embed_cols(emb, left, col_base=0) + embed_cols(emb, right, col_base=12)
        assert np.allclose(split, emb.apply_right(dense))

    def test_block_must_fit_inside_embedding(self):
        A = sparse_random(0, 6, 10)
        emb = sparse_embedding(4, 12, 1)
        with pytest.raises(InputError):
            embed_cols(emb, A, col_base=5)
        with pytest.raises(InputError):
            embed_cols(emb, A, col_base=-1)

    def test_matmul_helpers_match_dense(self):
        rng = np.random.default_rng(7)
        A = sparse_random(7, 15, 12)
        M = rng.standard_normal((6, 15))
        N = rng.standard_normal((12, 4))
        assert np.allclose(dense_times_sparse(M, A), M @ A.to_dense())
        assert np.allclose(right_multiply(A, N), A.to_dense() @ N)

    def test_dimension_checks(self):
        A = sparse_random(1, 8, 5)
        with pytest.raises(InputError):
            embed_rows(sparse_embedding(3, 9, 0), A)
        with pytest.raises(InputError):
            dense_times_sparse(np.zeros((2, 9)), A)
        with pytest.raises(InputError):
            right_multiply(A, np.zeros((6, 2)))

    def test_each_helper_touches_every_entry_once(self):
        A = sparse_random(2, 20, 15, density=0.5)
        nnz = A.nnz
        emb_r = sparse_embedding(6, 20, 3)
        emb_c = sparse_embedding(6, 15, 4)
        TOUCHES.reset()
        embed_rows(emb_r, A)
        assert TOUCHES.count == nnz
        TOUCHES.reset()
        embed_cols(emb_c, A)
        assert TOUCHES.count == nnz
        TOUCHES.reset()
        dense_times_sparse(np.ones((3, 20)), A)
        assert TOUCHES.count == nnz
        TOUCHES.reset()
        right_multiply(A, np.ones((15, 2)))
        assert TOUCHES.count == nnz


class TestRightMultiplyBits:
    """The storage-order right_multiply against a per-column reference."""

    @staticmethod
    def _column_loop(A, M):
        out = np.zeros((A.n_rows, M.shape[1]))
        for j in range(A.n_cols):
            lo, hi = A.indptr[j], A.indptr[j + 1]
            rows, vals = A.indices[lo:hi], A.data[lo:hi]
            if rows.size:
                out[rows, :] += vals[:, None] * M[j, :]
        return out

    def test_matches_a_column_loop_bit_for_bit(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m, n, r = (int(v) for v in rng.integers(1, 25, size=3))
            dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < rng.random())
            dense[:, rng.integers(n)] = 0.0            # at least one empty column
            A = SparseColMatrix.from_dense(dense)
            M = rng.standard_normal((n, r)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))
            assert right_multiply(A, M).tobytes() == self._column_loop(A, M).tobytes()

    def test_empty_and_zero_width_operands(self):
        A = SparseColMatrix.from_dense(np.zeros((4, 3)))
        assert right_multiply(A, np.ones((3, 2))).tobytes() == np.zeros((4, 2)).tobytes()
        B = sparse_random(3, 6, 5)
        assert right_multiply(B, np.ones((5, 0))).shape == (6, 0)


class TestResidualOperator:
    def _instance(self, seed=0):
        A = sparse_random(seed, 18, 25, density=0.5)
        Z = rand_orthonormal(seed + 1, 25, 3)
        E = A.to_dense() - (A.to_dense() @ Z) @ Z.T
        return A, Z, E

    def test_matches_dense_residual(self):
        A, Z, E = self._instance()
        res = ResidualOperator(A, Z)
        assert res.shape == E.shape
        emb = sparse_embedding(7, 18, 5)
        assert np.allclose(res.sketch_rows(emb), emb.apply_left(E))
        assert res.frob_sq() == pytest.approx(frob_sq(E), rel=1e-12)
        idx = np.array([3, 0, 3, 11])
        assert np.allclose(res.columns(idx), E[:, idx])

    def test_frob_sq_never_negative(self):
        A = sparse_random(4, 10, 6, density=0.9)
        Z = orthonormal_basis(A.to_dense().T)
        assert ResidualOperator(A, Z).frob_sq() >= 0.0

    def test_shape_check(self):
        A = sparse_random(0, 8, 5)
        with pytest.raises(InputError):
            ResidualOperator(A, np.zeros((6, 2)))

    def test_empty_basis_is_the_plain_sparse_matrix(self):
        E = sparse_random(2, 18, 25, density=0.5)
        res = ResidualOperator(E, np.zeros((25, 0)))
        emb = sparse_embedding(7, 18, 5)
        assert res.sketch_rows(emb).tobytes() == embed_rows(emb, E).tobytes()
        idx = np.array([3, 0, 3, 11])
        TOUCHES.reset()
        assert res.frob_sq() == E.frob_sq()
        assert res.columns(idx).tobytes() == E.take_columns(idx).to_dense().tobytes()
        assert TOUCHES.count == 0       # no A Z pass

    def test_empty_basis_sketch_of_a_dense_matrix_is_apply_left(self):
        E = rand_matrix(3, 18, 25)
        emb = sparse_embedding(7, 18, 6)
        got = ResidualOperator(E, np.zeros((25, 0))).sketch_rows(emb)
        assert got.tobytes() == emb.apply_left(E).tobytes()


class TestSparseSvd:
    def test_orthonormal_output(self):
        A = sparse_random(1, 30, 22)
        Z = sparse_svd(A, 4, 0.5, 11)
        assert Z.shape == (22, 4)
        assert np.allclose(Z.T @ Z, np.eye(4), atol=1e-10)

    def test_exact_on_rank_k(self):
        rng = np.random.default_rng(2)
        U = rand_orthonormal(3, 40, 3)
        V = rand_orthonormal(4, 25, 3)
        A = U @ np.diag([5.0, 3.0, 2.0]) @ V.T
        Z = sparse_svd(A, 3, 0.5, 6)
        assert frob_sq(A - (A @ Z) @ Z.T) <= 1e-12 * frob_sq(A)

    def test_zero_matrix_gives_orthonormal_basis(self):
        A = SparseColMatrix.from_dense(np.zeros((12, 9)))
        Z = sparse_svd(A, 2, 0.5, 8)
        assert np.allclose(Z.T @ Z, np.eye(2), atol=1e-12)

    def test_rank_out_of_range(self):
        A = sparse_random(5, 6, 10)
        with pytest.raises(InputError):
            sparse_svd(A, 6, 0.5, 0)
        with pytest.raises(InputError):
            sparse_svd(A, 0, 0.5, 0)

    def test_deterministic_in_the_seed(self):
        A = sparse_random(6, 20, 16)
        Z1 = sparse_svd(A, 3, 0.5, 42)
        Z2 = sparse_svd(A, 3, 0.5, 42)
        Z3 = sparse_svd(A, 3, 0.5, 43)
        assert Z1.tobytes() == Z2.tobytes()
        assert Z1.tobytes() != Z3.tobytes()

    def test_one_touch_per_entry(self):
        A = sparse_random(9, 25, 18)
        TOUCHES.reset()
        sparse_svd(A, 3, 0.5, 1)
        assert TOUCHES.count == A.nnz

    def test_quality_on_lowrank_plus_noise(self):
        A = lowrank_plus_noise(77, 60, 100, 5, 0.05)
        tail = best_tail_sq(A, 5)
        As = SparseColMatrix.from_dense(A)
        ratios = []
        for seed in range(100):
            Z = sparse_svd(As, 5, 0.5, 3000 + seed)
            ratios.append(frob_sq(A - (A @ Z) @ Z.T) / tail)
        ratios = np.array(ratios)
        assert float(np.median(ratios)) <= 1.5
        assert int(np.sum(ratios <= 1.5)) >= 90


class TestRangeFinderTop:
    """sparse_svd's range finder reads no entry of A: the start block and
    the power steps work on the sketch core alone."""

    def test_sparse_svd_touches_each_entry_once_with_a_clamped_block(self):
        # xi = 2 < k + 5, and neither the start block nor the power steps
        # touch an entry of A
        A = sparse_random(24, 40, 35, density=0.3)
        TOUCHES.reset()
        Z = sparse_svd(A, 1, 1.0, 3)
        assert TOUCHES.count == A.nnz
        assert Z.shape == (35, 1)
        assert np.allclose(Z.T @ Z, np.eye(1), atol=1e-12)


class TestSparseSvdBoosting:
    def test_single_repeat_matches_plain_svd(self):
        A = sparse_random(3, 24, 20)
        Zb = sparse_svd_boosting(A, 3, 0.5, 1.0, 55)
        Z0 = sparse_svd(A, 3, 0.5, derive_seed(derive_seed(55, TAG_BOOST), 0))
        assert Zb.tobytes() == Z0.tobytes()

    def test_touch_count_is_repeats_plus_scoring(self):
        A = sparse_random(4, 24, 20)
        r = FastParams(3, 0.5, 0.25).repeats
        TOUCHES.reset()
        sparse_svd_boosting(A, 3, 0.5, 0.25, 7)
        assert TOUCHES.count == (r + 1) * A.nnz

    def test_deterministic(self):
        A = sparse_random(5, 20, 15)
        Z1 = sparse_svd_boosting(A, 2, 0.5, 0.25, 9)
        Z2 = sparse_svd_boosting(A, 2, 0.5, 0.25, 9)
        assert Z1.tobytes() == Z2.tobytes()

    def test_boosted_quality(self):
        A = lowrank_plus_noise(31, 30, 40, 3, 0.05)
        tail = best_tail_sq(A, 3)
        As = SparseColMatrix.from_dense(A)
        hits = 0
        for seed in range(100):
            Z = sparse_svd_boosting(As, 3, 0.5, 0.01, 5000 + seed)
            if frob_sq(A - (A @ Z) @ Z.T) <= 3.0 * 1.5 * tail:
                hits += 1
        assert hits >= 99

    def test_boosting_never_fails_more_often_than_one_shot(self):
        A = lowrank_plus_noise(13, 20, 30, 2, 0.08)
        tail = best_tail_sq(A, 2)
        As = SparseColMatrix.from_dense(A)
        bound = 1.5 * tail
        single_fail = boost_fail = 0
        for seed in range(200):
            Z0 = sparse_svd(As, 2, 0.5, derive_seed(derive_seed(seed, TAG_BOOST), 0))
            Zb = sparse_svd_boosting(As, 2, 0.5, 0.25, seed)
            if frob_sq(A - (A @ Z0) @ Z0.T) > bound:
                single_fail += 1
            if frob_sq(A - (A @ Zb) @ Zb.T) > bound:
                boost_fail += 1
        assert boost_fail <= single_fail


class TestSelectTopTwoThirds:
    def test_single_candidate(self):
        assert _select_top_two_thirds(np.array([1.0]), np.array([5.0])) == 0

    def test_best_on_both_wins(self):
        pick = _select_top_two_thirds(np.array([3.0, 2.0, 1.0]),
                                      np.array([1.0, 2.0, 3.0]))
        assert pick == 0

    def test_intersection_excludes_one_sided_leaders(self):
        # index 2 leads the spectral list but sits last on cost; index 0
        # leads cost but is last on spectral; index 1 is in both top twos
        pick = _select_top_two_thirds(np.array([1.0, 2.0, 3.0]),
                                      np.array([1.0, 2.0, 3.0]))
        assert pick == 1

    def test_ties_keep_the_earliest(self):
        pick = _select_top_two_thirds(np.array([1.0, 1.0, 1.0]),
                                      np.array([2.0, 2.0, 2.0]))
        assert pick == 0


class TestBssSamplingSparse:
    def _instance(self, seed, w=30, k=4, m=12):
        V = rand_orthonormal(seed, w, k)
        rng = np.random.default_rng(seed + 100)
        E = rng.standard_normal((m, w)) * 0.1
        return V, E

    def test_postconditions_on_true_residual(self):
        import math
        for seed in range(5):
            V, E = self._instance(seed)
            S = bss_sampling_sparse(V, E, 16, 0.5, 0.1, seed)
            sig = np.linalg.svd(S.apply_to(V.T), compute_uv=False)
            floor = (1.0 - math.sqrt(4 / 16)) ** 2
            assert sig[3] ** 2 >= floor * (1 - 1e-9)
            es = frob_sq(E[:, S.indices] * S.weights[None, :])
            assert es <= 9.0 * frob_sq(E) * (1 + 1e-9)

    def test_budget_reaches_distinct_columns(self):
        V, E = self._instance(3)
        S = bss_sampling_sparse(V, E, 16, 0.5, 0.1, 3)
        assert S.ell == 16
        assert len(set(S.indices.tolist())) == 16

    def test_residual_operator_input(self):
        A = sparse_random(8, 16, 28, density=0.6)
        Z = sparse_svd(A, 3, 0.5, 2)
        res = ResidualOperator(A, Z)
        S = bss_sampling_sparse(Z, res, 12, 0.5, 0.1, 4)
        assert S.ell == 12

    def test_plain_input_is_read_with_an_empty_basis(self):
        V, E = self._instance(4)
        for plain in (E, SparseColMatrix.from_dense(E)):
            S = bss_sampling_sparse(V, plain, 16, 0.5, 0.1, 8)
            W = bss_sampling_sparse(V, ResidualOperator(plain, np.zeros((30, 0))),
                                    16, 0.5, 0.1, 8)
            assert S.indices.tobytes() == W.indices.tobytes()
            assert S.weights.tobytes() == W.weights.tobytes()

    def test_zero_residual(self):
        V = rand_orthonormal(1, 20, 3)
        S = bss_sampling_sparse(V, np.zeros((8, 20)), 12, 0.5, 0.5, 5)
        assert S.ell == 12

    def test_single_repeat_matches_exact_sampler_on_the_sketch(self):
        V, E = self._instance(6)
        seed = 17
        S = bss_sampling_sparse(V, E, 16, 0.5, 1.0, seed)
        xi = FastParams(4, 0.5, 1.0).embed_xi
        emb = sparse_embedding(xi, E.shape[0],
                               derive_seed(derive_seed(seed, TAG_BSS_EMBED), 0))
        S0 = bss_sampling(V, emb.apply_left(E), 16)
        assert S.indices.tobytes() == S0.indices.tobytes()
        assert S.weights.tobytes() == S0.weights.tobytes()

    def test_validation(self):
        V, E = self._instance(0)
        with pytest.raises(InputError):
            bss_sampling_sparse(V, E[:, :10], 16, 0.5, 0.1, 0)
        with pytest.raises(InputError):
            bss_sampling_sparse(V, E, 16, 1.0, 0.1, 0)

    def test_deterministic(self):
        V, E = self._instance(9)
        S1 = bss_sampling_sparse(V, E, 16, 0.5, 0.1, 21)
        S2 = bss_sampling_sparse(V, E, 16, 0.5, 0.1, 21)
        assert S1.indices.tobytes() == S2.indices.tobytes()
        assert S1.weights.tobytes() == S2.weights.tobytes()

    def test_touch_count_on_sparse_residual(self):
        E = sparse_random(11, 14, 26, density=0.5)
        V = rand_orthonormal(12, 26, 3)
        r = FastParams(3, 0.5, 0.25).repeats
        TOUCHES.reset()
        bss_sampling_sparse(V, E, 12, 0.5, 0.25, 1)
        assert TOUCHES.count == r * E.nnz


class TestDeterministicCssSparse:
    def test_budget_must_be_four_k(self):
        G = sparse_random(0, 10, 30)
        with pytest.raises(InputError):
            deterministic_css_sparse(G, 0, 0)
        with pytest.raises(InputError):
            deterministic_css_sparse(sparse_random(1, 10, 6), 2, 0)

    def test_columns_are_verbatim(self):
        G = sparse_random(2, 10, 30)
        res = deterministic_css_sparse(G, 2, 3)
        dense = G.to_dense()
        assert res.columns.shape == (10, 8)
        assert res.columns.tobytes() == dense[:, res.indices].tobytes()

    def test_exact_on_planted_rank_k(self):
        # every column is an integer multiple of one of k sparse patterns
        rng = np.random.default_rng(5)
        m, k = 16, 3
        patterns = np.zeros((m, k))
        for t in range(k):
            rows = rng.choice(m, size=4, replace=False)
            patterns[rows, t] = rng.standard_normal(4)
        G = np.zeros((m, 30))
        for j in range(30):
            G[:, j] = patterns[:, rng.integers(k)] * float(rng.integers(1, 5))
        res = deterministic_css_sparse(SparseColMatrix.from_dense(G), k, 7)
        assert span_residual_sq(G, res.columns) <= 1e-12 * frob_sq(G)

    def test_deterministic(self):
        G = sparse_random(6, 12, 25)
        r1 = deterministic_css_sparse(G, 2, 11)
        r2 = deterministic_css_sparse(G, 2, 11)
        assert r1.indices.tobytes() == r2.indices.tobytes()

    def test_quality_with_constant_probability(self):
        hits = 0
        ratios = []
        for seed in range(100):
            G = sparse_random(7000 + seed, 10, 30, density=0.5)
            dense = G.to_dense()
            tail = best_tail_sq(dense, 2)
            if tail <= 1e-12 * frob_sq(dense):
                hits += 1
                continue
            try:
                res = deterministic_css_sparse(G, 2, seed)
            except InternalError:
                continue
            ratio = span_residual_sq(dense, res.columns) / tail
            ratios.append(ratio)
            if ratio <= 4820.0:
                hits += 1
        assert hits >= 65
        assert float(np.median(ratios)) <= 482.0


class TestAdaptiveColsSparse:
    """Stage 3 of distributed_css_pca_fast: per-column residual masses off
    span(C) from the JL sketch the kernel builds, and draws proportional to
    them, as the driver makes them."""

    @staticmethod
    def _masses(blocks, C, seed):
        cl = Cluster(blocks, kind="column")
        params = FastCssProtocolParams(k=1, eps=0.5, seed=seed)
        return params.residual_masses(cl, cl.parts, C)

    def test_lone_residual_column_is_always_sampled(self):
        m = 12
        v = np.zeros(m)
        v[2] = 3.0
        cols = [v * (j + 1) for j in range(8)]
        cols[5] = np.eye(m)[7] * 2.0
        A = SparseColMatrix.from_dense(np.stack(cols, axis=1))
        (mass,) = self._masses([A], v[:, None], 13)
        assert mass[5] > 0.0
        assert np.all(np.delete(mass, 5) == 0.0)
        assert np.all(sample_proportional(mass, 6, 13) == 5)

    def test_empty_when_nothing_sticks_out(self):
        m = 10
        v = np.zeros(m)
        v[4] = 2.0
        D = np.stack([v * j for j in range(1, 7)], axis=1)
        masses = self._masses([SparseColMatrix.from_dense(D[:, :2]),
                               SparseColMatrix.from_dense(D[:, 2:])], v[:, None], 3)
        assert all(np.all(mass == 0.0) for mass in masses)
        assert sample_proportional(np.concatenate(masses), 4, 3).size == 0

    def test_identical_columns_sample_uniformly(self):
        col = np.zeros(9)
        col[[1, 4]] = [1.0, -2.0]
        A = SparseColMatrix.from_dense(np.tile(col[:, None], (1, 8)))
        (mass,) = self._masses([A], np.zeros((9, 1)), 29)
        counts = np.bincount(sample_proportional(mass, 10_000, 29), minlength=8)
        expect = 10_000 / 8
        sigma = np.sqrt(10_000 * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_expected_progress(self):
        # adding c2 sampled columns cuts the score residual by roughly
        # k / c2 of the current one, up to the sampler's constant
        k, c2 = 3, 50
        A = lowrank_plus_noise(42, 20, 60, k, 0.3)
        As = SparseColMatrix.from_dense(A)
        V = rand_orthonormal(43, 20, k)
        tail = best_tail_sq(A, k)
        psi_sq = frob_sq(A - V @ (V.T @ A))
        scores = []
        for t in range(500):
            (mass,) = self._masses([As], V, 9000 + t)
            C = np.hstack([V, A[:, sample_proportional(mass, c2, 9000 + t)]])
            Y = orthonormal_basis(C)
            proj = Y.T @ A
            U, sv, Vt = np.linalg.svd(proj, full_matrices=False)
            best = (U[:, :k] * sv[:k]) @ Vt[:k]
            scores.append(frob_sq(A - Y @ best))
        scores = np.array(scores)
        stderr = float(scores.std(ddof=1) / np.sqrt(scores.size))
        assert scores.mean() <= tail + (30.0 * k / c2) * psi_sq + 3 * stderr

    def test_probabilities_are_exact_for_the_sketch(self):
        # the masses are ||J (A - Y Y^T A)||^2 per column for the protocol's
        # JL map J, so draws follow the sketched residual exactly
        A = sparse_random(4, 15, 12)
        C = rand_matrix(5, 15, 2)
        masses = self._masses([A.take_columns(np.arange(5)),
                               A.take_columns(np.arange(5, 12))], C, 7)
        J = jlt_sketch(12, 15, derive_seed(7, TAG_FAST_JLT)).materialize()
        Y = orthonormal_basis(C)
        D = A.to_dense()
        want = np.sum((J @ (D - Y @ (Y.T @ D))) ** 2, axis=0)
        assert [mass.size for mass in masses] == [5, 7]
        np.testing.assert_allclose(np.concatenate(masses), want, rtol=1e-12, atol=0.0)

    def test_touch_count(self):
        A = sparse_random(8, 14, 11)
        blocks = [A.take_columns(np.arange(4)), A.take_columns(np.arange(4, 11))]
        cl = Cluster(blocks, kind="column")
        params = FastCssProtocolParams(k=1, eps=0.5, seed=1)
        C = rand_orthonormal(9, 14, 2)
        for P in blocks:
            TOUCHES.reset()
            params.residual_masses(cl, [P], C)
            assert TOUCHES.count == P.nnz


class TestAdaptiveCancellationGuard:
    def test_exactly_low_rank_input_draws_no_adaptive_column(self):
        # columns in span(C) read ~1e-30 because the projection stays
        # inside the sketched product; the identity
        # ||a_j||^2 - ||Y^T a_j||^2 leaves ~1e-15 of rounding per column,
        # which (clipped at 0) draws all 200 adaptive columns here, 6 of
        # them distinct, for 1,230 words in all
        A = np.zeros((30, 40))
        A[:, :20] = rank_exactly(0, 30, 20, 3)
        cl = Cluster([SparseColMatrix.from_dense(A[:, :20]),
                      SparseColMatrix.from_dense(A[:, 20:])], kind="column")
        res = distributed_css_pca_fast(cl, _params(k=2, eps=0.5, seed=3))
        assert "no-adaptive" in res.flags
        assert res.phase_words["adaptive"] == 0
        assert res.total_words == 470


class TestApproxSubspaceSvdSparse:
    """Stage 4 of distributed_css_pca_fast: the rank-k basis inside the span
    of the collected columns, from C^T A_i shipped exactly or from A_i
    embedded in one pass over each machine's entries."""

    @staticmethod
    def _run(A, s=2, **params):
        b = [round(i * A.n_cols / s) for i in range(s + 1)]
        cl = Cluster([A.take_columns(np.arange(b[i], b[i + 1])) for i in range(s)],
                     kind="column")
        return distributed_css_pca_fast(cl, FastCssProtocolParams(**params)), cl

    def test_output_lives_in_the_span(self):
        A = sparse_random(1, 20, 30)
        for xi in (None, 40):
            res, cl = self._run(A, k=3, eps=0.5, seed=5, ell=4, c2=2, xi_subspace=xi)
            assert res.finalize == ("exact" if xi is None else "sketch")
            assert res.U.shape == (20, 3)
            assert np.allclose(res.U.T @ res.U, np.eye(3), atol=1e-10)
            C = cl.materialize()[:, res.core_indices + res.adaptive_indices]
            assert C.shape[1] < 20
            Y = orthonormal_basis(C)
            assert frob_sq(res.U - Y @ (Y.T @ res.U)) <= 1e-20

    def test_exact_when_the_span_suffices(self):
        rng = np.random.default_rng(2)
        U = rand_orthonormal(3, 18, 2)
        A = U @ rng.standard_normal((2, 24))
        for xi in (None, 8):
            res, _ = self._run(SparseColMatrix.from_dense(A), k=2, eps=0.5, seed=9,
                               xi_subspace=xi)
            assert frob_sq(A - res.U @ (res.U.T @ A)) <= 1e-12 * frob_sq(A)

    def test_xi_default_is_the_pcp_width(self):
        # a rank-1 projection-cost-preserving CountSketch at eps / 2 = 1/4:
        # 32 buckets at any width.  With c2 = 0, rank C <= c1 = 4, so an R
        # factor of at most 10 words undercuts the sketch, wide or narrow
        res, cl = self._run(sparse_random(4, 12, 100), k=1, eps=0.5, seed=1, c2=0)
        assert res.xi == embedding_dim(1, 0.25) == 32
        assert res.finalize == "exact"
        assert res.phase_words["subspace-up"] == sum(stage_four_words(cl, res, 1, "count"))
        small, _ = self._run(sparse_random(6, 12, 20), k=1, eps=0.5, seed=1, c2=0)
        assert (small.xi, small.finalize) == (32, "exact")

    def test_rank_clamp(self):
        A = sparse_random(8, 10, 15)
        res, _ = self._run(A, k=3, eps=0.5, seed=2, xi_subspace=1)
        assert res.U.shape[1] == res.rank == 1
        assert "rank-deficient" in res.flags

    def test_touch_count(self):
        cl = _sparse_cluster(9, m=10, widths=(12, 12))
        CT = np.random.default_rng(3).standard_normal((4, 10))
        params = _params()
        for P in cl.parts:
            TOUCHES.reset()
            params.coefficients(CT, P)
            assert TOUCHES.count == P.nnz
        TOUCHES.reset()
        _, block = params.finalize(cl, cl.parts, 7, 3)
        for i in range(cl.s):
            for lo in range(0, 7, 3):
                block(i, lo, min(lo + 3, 7))
        assert TOUCHES.count == sum(P.nnz for P in cl.parts)

    def test_validation(self):
        cl = _sparse_cluster(0, m=10, widths=(5, 5))
        with pytest.raises(InputError):
            distributed_css_pca_fast(cl, _params(k=2, xi_subspace=0))
        with pytest.raises(InputError):
            _params().coefficients(np.zeros((2, 9)), cl.parts[0])
        with pytest.raises(InputError):
            _params(k=0)


def _sparse_cluster(seed, m=30, widths=(30, 30, 30, 30), phi=8, parallel=False):
    blocks = [sparse_columns_block(seed * 97 + i, m, w, phi)
              for i, w in enumerate(widths)]
    return Cluster(blocks, kind="column", parallel=parallel)


def _params(k=2, eps=1.0, seed=0, **kw):
    return FastCssProtocolParams(k=k, eps=eps, seed=seed, **kw)


class TestFastProtocolParams:
    def test_resolution_pins_the_core_budget(self):
        ell, c1, c2, xi = _params(k=3, eps=0.5).resolve()
        assert (ell, c1, c2) == (12, 12, 300)
        assert xi == embedding_dim(3, 0.25) == 288

    def test_overrides(self):
        ell, c1, c2, xi = _params(k=2, eps=1.0, ell=5, c2=7, xi_subspace=33).resolve()
        assert (ell, c1, c2, xi) == (5, 8, 7, 33)

    def test_validation(self):
        with pytest.raises(InputError):
            FastCssProtocolParams(k=0, eps=0.5, seed=0)
        with pytest.raises(InputError):
            FastCssProtocolParams(k=2, eps=0.0, seed=0)
        with pytest.raises(InputError):
            FastCssProtocolParams(k=2, eps=0.5, seed=0, delta=1.0)
        with pytest.raises(InputError):
            _params(k=3, ell=3).resolve()


class TestFastProtocol:
    def test_runs_and_returns_orthonormal_basis(self):
        cl = _sparse_cluster(0)
        res = distributed_css_pca_fast(cl, _params(k=2, seed=100))
        assert res.U.shape[0] == 30
        assert res.rank == 2
        assert np.allclose(res.U.T @ res.U, np.eye(2), atol=1e-10)
        assert res.c_actual == 8 + 100

    def test_ledger_phases_match_closed_forms(self):
        cl = _sparse_cluster(1)
        res = distributed_css_pca_fast(cl, _params(k=2, seed=200))
        s = 4
        assert res.phase_words["adaptive-meta"] == 2 * s
        # 30-column machines, no wider than xi = 32, at r = 30: the r x 4
        # summary (120 words) undercuts the R factor (465) and the raw columns
        r = selected_rank(cl, res)
        assert r == 30 and res.payloads == ["summary"] * s and res.finalize == "sketch"
        assert res.phase_words["subspace-up"] == sum(stage_four_words(cl, res, 200, "count")) == (
            s * r * 4)
        assert res.phase_words["delta-down"] == s * selected_rank(cl, res) * res.rank
        assert "u-down" not in res.phase_words
        assert res.total_words == sum(res.phase_words.values())

    def test_deterministic_and_parallel_identical(self):
        res1 = distributed_css_pca_fast(_sparse_cluster(2), _params(k=2, seed=300))
        res2 = distributed_css_pca_fast(_sparse_cluster(2), _params(k=2, seed=300))
        res3 = distributed_css_pca_fast(_sparse_cluster(2, parallel=True),
                                        _params(k=2, seed=300))
        assert res1.U.tobytes() == res2.U.tobytes() == res3.U.tobytes()
        assert res1.core_indices == res3.core_indices
        assert res1.total_words == res3.total_words

    def test_selected_indices_point_at_real_columns(self):
        cl = _sparse_cluster(3)
        res = distributed_css_pca_fast(cl, _params(k=2, seed=400))
        for g in res.core_indices + res.adaptive_indices:
            assert 0 <= g < cl.n

    def test_exact_recovery_on_planted_rank_k(self):
        rng = np.random.default_rng(6)
        m, k = 24, 3
        patterns = np.zeros((m, k))
        for t in range(k):
            rows = rng.choice(m, size=5, replace=False)
            patterns[rows, t] = rng.standard_normal(5)
        blocks = []
        for i in range(3):
            B = np.zeros((m, 20))
            for j in range(20):
                B[:, j] = patterns[:, rng.integers(k)] * float(rng.integers(1, 5))
            blocks.append(SparseColMatrix.from_dense(B))
        cl = Cluster(blocks, kind="column")
        res = distributed_css_pca_fast(cl, _params(k=k, seed=7))
        A = cl.materialize()
        assert frob_sq(A - res.U @ (res.U.T @ A)) <= 1e-12 * frob_sq(A)

    def test_tiny_machines_ship_everything(self):
        blocks = [sparse_columns_block(i, 10, 2, 3) for i in range(2)]
        cl = Cluster(blocks, kind="column")
        res = distributed_css_pca_fast(cl, _params(k=2, seed=8, c2=0))
        assert "local-tiny" in res.flags
        assert "core-all" in res.flags

    def test_zero_adaptive_budget(self):
        cl = _sparse_cluster(4)
        res = distributed_css_pca_fast(cl, _params(k=2, seed=9, c2=0))
        assert res.adaptive_indices == []
        assert res.c_actual == 8

    def test_per_machine_finalize(self):
        base = distributed_css_pca_fast(_sparse_cluster(5), _params(k=2, seed=10))
        res = distributed_css_pca_fast(
            _sparse_cluster(5), _params(k=2, seed=10, per_machine_finalize=True))
        # the replicas change no word and no bit
        assert res.U.tobytes() == base.U.tobytes()
        assert res.phase_words == base.phase_words

    def test_dense_blocks_are_accepted(self):
        rng = np.random.default_rng(11)
        blocks = [rng.standard_normal((12, 9)) for _ in range(2)]
        cl = Cluster(blocks, kind="column")
        res = distributed_css_pca_fast(cl, _params(k=2, seed=12))
        assert res.U.shape == (12, 2)

    def test_wrong_partition_kind(self):
        cl = Cluster([np.zeros((6, 8))], kind="arbitrary")
        with pytest.raises(InputError):
            distributed_css_pca_fast(cl, _params(k=2))

    def test_rank_must_fit(self):
        cl = Cluster([sparse_columns_block(0, 4, 10, 2)], kind="column")
        with pytest.raises(InputError):
            distributed_css_pca_fast(cl, _params(k=4))

    def test_quality_on_sparse_instances(self):
        # 60 x 200 over four machines, phi = 6 nonzeros per column
        ratios = []
        for seed in range(100):
            cl = _sparse_cluster(seed, m=60, widths=(50, 50, 50, 50), phi=6)
            res = distributed_css_pca_fast(
                cl, _params(k=3, eps=0.5, seed=7000 + seed))
            ratios.append(residual_ratio(cl.materialize(), res.U, 3))
        assert float(np.median(ratios)) <= 2.0

    def test_uploads_are_column_sparse(self):
        # every shipped column costs at most 2 phi + 1 words
        phi = 6
        cl = _sparse_cluster(13, m=60, widths=(50, 50, 50, 50), phi=phi)
        res = distributed_css_pca_fast(cl, _params(k=3, eps=0.5, seed=14))
        assert res.phase_words["local-up"] <= 4 * 12 * (2 * phi + 1)
        assert res.phase_words["adaptive"] <= 300 * (2 * phi + 1)


class TestEmbedColsSpans:
    def _instance(self):
        A = sparse_random(21, 16, 40, density=0.4)
        return A, sparse_embedding(23, 50, 31)

    def test_spans_concatenate_to_the_whole_output_bitwise(self):
        A, emb = self._instance()
        whole = embed_cols(emb, A, col_base=7)
        for width in (1, 5, 8, 23):
            spans = [embed_cols(emb, A, 7, lo, min(lo + width, 23))
                     for lo in range(0, 23, width)]
            assert np.hstack(spans).tobytes() == whole.tobytes()
        assert embed_cols(emb, A, 7, 0, 23).tobytes() == whole.tobytes()
        assert embed_cols(emb, A, 7, 9, 9).shape == (16, 0)

    def test_span_touches_sum_to_nnz(self):
        A, emb = self._instance()
        counts = []
        for lo in range(0, 23, 5):
            TOUCHES.reset()
            out = embed_cols(emb, A, 3, lo, min(lo + 5, 23))
            counts.append(TOUCHES.count)
            # one touch per entry hashed into the span
            kept = np.isin(emb.buckets[3:43], np.arange(lo, min(lo + 5, 23)))
            assert TOUCHES.count == int(np.sum(A.col_nnz()[kept]))
            assert out.shape == (16, min(lo + 5, 23) - lo)
        assert sum(counts) == A.nnz
        TOUCHES.reset()
        embed_cols(emb, A, 3)
        assert TOUCHES.count == A.nnz

    def test_span_must_fit_inside_the_buckets(self):
        A, emb = self._instance()
        for lo, hi in ((-1, 4), (0, 24), (5, 4), (24, 24)):
            with pytest.raises(InputError):
                embed_cols(emb, A, 0, lo, hi)


class TestBssCandidateFallback:
    def test_falls_back_to_a_certified_candidate(self):
        # Two candidates (delta = 0.5), so the first is always preferred.  E
        # has one nonzero column, spread over two rows that the first
        # candidate's embedding hashes into one bucket with cancelling signs:
        # its sketch is zero, so it picks column 0, whose tiny leverage in V
        # buys a weight the true residual cannot afford.  The second
        # candidate's embedding keeps the rows apart and certifies.
        k, w, ell, eps, delta = 1, 10, 4, 0.5, 0.5
        params = FastParams(k, eps, delta)
        assert params.repeats == 2

        def emb(seed, i):
            return sparse_embedding(params.embed_xi, 2,
                                    derive_seed(derive_seed(seed, TAG_BSS_EMBED), i))

        def collides(seed, i):
            return emb(seed, i).buckets[0] == emb(seed, i).buckets[1]

        seed = next(t for t in range(1000) if collides(t, 0) and not collides(t, 1))
        v = np.full(w, 1.0)
        v[0] = 0.01
        V = (v / np.linalg.norm(v))[:, None]
        E = np.zeros((2, w))
        E[0, 0] = 1.0
        E[1, 0] = -emb(seed, 0).signs[0] * emb(seed, 0).signs[1]
        assert not np.any(emb(seed, 0).apply_left(E))

        first = bss_sampling(V, emb(seed, 0).apply_left(E), ell)
        es_first = frob_sq(E[:, first.indices] * first.weights[None, :])
        assert es_first > 9.0 * frob_sq(E)      # the preferred candidate fails

        S = bss_sampling_sparse(V, E, ell, eps, delta, seed)
        second = bss_sampling(V, emb(seed, 1).apply_left(E), ell)
        assert S.indices.tobytes() == second.indices.tobytes()
        assert S.weights.tobytes() == second.weights.tobytes()
        assert frob_sq(E[:, S.indices] * S.weights[None, :]) <= 9.0 * frob_sq(E)

    def test_raises_the_preferred_candidates_failure_when_none_passes(self):
        class Understated(ResidualOperator):
            """True columns ten times what the sketches see."""

            def columns(self, idx):
                return 10.0 * super().columns(idx)

        A = sparse_random(8, 16, 28, density=0.6)
        Z = sparse_svd(A, 3, 0.5, 2)
        res = Understated(A, Z)
        ell, eps, delta, seed = 12, 0.5, 0.1, 4
        params = FastParams(3, eps, delta)
        cands, sig_sq, cost = [], [], []
        for i in range(params.repeats):
            B = res.sketch_rows(sparse_embedding(
                params.embed_xi, 16, derive_seed(derive_seed(seed, TAG_BSS_EMBED), i)))
            S = bss_sampling(Z, B, ell)
            cands.append(S)
            sig_sq.append(np.linalg.svd(S.apply_to(Z.T), compute_uv=False)[2] ** 2)
            cost.append(float(np.sum(S.apply_to(B) ** 2)))
        es = [float(np.sum((res.columns(S.indices) * S.weights[None, :]) ** 2))
              for S in cands]
        preferred = _select_top_two_thirds(np.array(sig_sq), np.array(cost))
        # the preferred candidate's failure reads unlike every other one
        assert all(e != es[preferred] for i, e in enumerate(es) if i != preferred)
        assert preferred != len(cands) - 1
        with pytest.raises(InternalError) as err:
            bss_sampling_sparse(Z, res, ell, eps, delta, seed)
        assert f"past the distortion slack: {es[preferred]:.6e} >" in str(err.value)


class TestFastProtocolBlockedFinalize:
    def test_serial_and_parallel_agree_over_three_finalize_blocks(self):
        xi = 1100
        assert 2 * _FINALIZE_BLOCK < xi <= 3 * _FINALIZE_BLOCK
        params = _params(k=2, seed=500, xi_subspace=xi)
        rs = distributed_css_pca_fast(_sparse_cluster(14), params)
        rp = distributed_css_pca_fast(_sparse_cluster(14, parallel=True), params)
        assert rs.xi == rp.xi == xi
        assert rs.U.tobytes() == rp.U.tobytes()
        assert rs.phase_words == rp.phase_words
        assert rs.total_words == rp.total_words
        cl = _sparse_cluster(14)
        assert rs.phase_words["subspace-up"] <= 4 * selected_rank(cl, rs) * xi
        assert rs.phase_words["subspace-up"] == fast_sketch_uplink(cl, rs, 500)


class TestFastFinalizeTouches:
    @pytest.mark.parametrize("xi", [None, 60, 1100])
    @pytest.mark.parametrize("parallel", [False, True])
    def test_protocol_touches_are_pinned(self, xi, parallel):
        # the same count whether every machine ships its summary (xi None)
        # or its sketch: stage 4 touches every stored entry once, in
        # Y^T A_i or in the embedding.  12172 =
        # 20 * 554 + 6 * 182: each of the 554 stored entries is touched by 8
        # boosting candidates, their score, 8 barrier sketches and one A Z
        # pass (18), once by the residual masses and once by stage 4; the
        # 182 entries of the local picks G, by the core selector's sparse
        # SVD, its 4 barrier sketches and its A Z pass (6)
        cl = _sparse_cluster(1, parallel=parallel)
        TOUCHES.reset()
        res = distributed_css_pca_fast(cl, _params(k=2, seed=200, xi_subspace=xi))
        assert res.payloads == ["summary" if xi is None else "sketch"] * cl.s
        assert TOUCHES.count == 12172

"""Batch two-sided sketch PCA."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import lowrank_plus_noise, rand_matrix, rank_exactly
from sketchpca.batch import batch_low_rank, pca_sketches, sketch_two_sided
from sketchpca.errors import InputError
from sketchpca.linalg import nonzero_row_range, residual_ratio


class TestBatchLowRank:
    def test_median_ratio_on_planted_instances(self):
        ratios = []
        for seed in range(20):
            A = lowrank_plus_noise(seed, 40, 60, 3, 0.05)
            res = batch_low_rank(A, 3, 0.5, seed=1000 + seed)
            ratios.append(residual_ratio(A, res.U, 3))
        med = float(np.median(ratios))
        assert med <= 1.5
        assert all(r >= 1.0 - 1e-9 for r in ratios)

    def test_deterministic_bits(self):
        A = lowrank_plus_noise(0, 30, 45, 4, 0.1)
        r1 = batch_low_rank(A, 4, 0.5, seed=7)
        r2 = batch_low_rank(A, 4, 0.5, seed=7)
        assert r1.U.tobytes() == r2.U.tobytes()
        assert batch_low_rank(A, 4, 0.5, seed=8).U.tobytes() != r1.U.tobytes()

    def test_exact_on_rank_k_input(self):
        A = rank_exactly(5, 25, 30, 3)
        res = batch_low_rank(A, 3, 0.5, seed=2)
        assert residual_ratio(A, res.U, 3) == 1.0
        assert not res.deficient

    def test_rank_deficiency_trims_and_flags(self):
        A = rank_exactly(9, 20, 20, 1)
        res = batch_low_rank(A, 3, 0.5, seed=3)
        assert res.deficient and res.rank == 1
        assert res.U.shape == (20, 1)

    def test_dims_default_and_override(self):
        A = rand_matrix(1, 12, 15)
        res = batch_low_rank(A, 2, 0.5, seed=4)
        assert (res.xi_left, res.xi_right) == (32, 32)
        res2 = batch_low_rank(A, 2, 0.5, seed=4, xi_left=10, xi_right=11)
        assert (res2.xi_left, res2.xi_right) == (10, 11)

    def test_rounding_stays_accurate(self):
        A = lowrank_plus_noise(2, 30, 40, 3, 0.05)
        res = batch_low_rank(A, 3, 0.5, seed=5, rounding=1e-4)
        assert residual_ratio(A, res.U, 3) <= 2.0

    def test_input_guards(self):
        A = rand_matrix(0, 5, 5)
        with pytest.raises(InputError):
            batch_low_rank(A, 0, 0.5, seed=1)
        with pytest.raises(InputError):
            batch_low_rank(A, 2, 0.0, seed=1)


class TestSketchPair:
    def test_shared_operands_are_pure_functions_of_seed(self):
        S1, T1 = pca_sketches(10, 20, 2, 0.5, seed=99)
        S2, T2 = pca_sketches(10, 20, 2, 0.5, seed=99)
        assert S1.tobytes() == S2.tobytes() and T1.tobytes() == T2.tobytes()
        assert S1.shape == (32, 10) and T1.shape == (20, 32)


class TestTwoSidedOrder:
    # S is a x b, B b x c, Tr c x d: (S B) Tr costs abc + acd multiply-adds,
    # S (B Tr) costs bcd + abd; with a = d that is S B first iff c <= b
    @pytest.mark.parametrize("b,c,left_first", [(40, 10, True), (10, 40, False)])
    def test_takes_the_cheaper_association_bitwise(self, b, c, left_first):
        rng = np.random.default_rng(b * c)
        S = rng.standard_normal((8, b))
        B = rng.standard_normal((b, c))
        Tr = rng.standard_normal((c, 8))
        assert (8 * b * c + 8 * c * 8 <= b * c * 8 + 8 * b * 8) == left_first
        want = (S @ B) @ Tr if left_first else S @ (B @ Tr)
        assert sketch_two_sided(B, S, Tr).tobytes() == want.tobytes()

    def test_zero_rows_are_trimmed_from_the_products(self):
        A = lowrank_plus_noise(3, 30, 40, 3, 0.05)
        A[:4] = 0.0
        A[-3:] = 0.0
        assert nonzero_row_range(A) == slice(4, 27)
        assert nonzero_row_range(np.zeros((5, 3))) == slice(0, 0)
        res = batch_low_rank(A, 3, 0.5, seed=6)
        assert residual_ratio(A, res.U, 3) <= 1.5

"""Counter-based sketch generation.

Bitwise determinism is the load-bearing property: materializing twice, or
materializing a column block versus slicing the full matrix, must agree
exactly.  Statistical quality checks are deliberately loose; they guard
against catastrophic generator bugs, not constants.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_matrix
from sketchpca.errors import InputError
from sketchpca import sketches as sk


class TestSeedDerivation:
    def test_deterministic(self):
        assert sk.derive_seed(42, "left") == sk.derive_seed(42, "left")
        assert sk.derive_seed(42, 7) == sk.derive_seed(42, 7)

    def test_labels_separate(self):
        seen = {sk.derive_seed(1, lab) for lab in ["a", "b", "c", 0, 1, 2, "0"]}
        assert len(seen) == 7

    def test_seeds_separate(self):
        assert sk.derive_seed(1, "x") != sk.derive_seed(2, "x")

    def test_bad_label(self):
        with pytest.raises(InputError):
            sk.derive_seed(1, 3.5)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_any_uint64_seed(self, seed):
        v = sk.derive_seed(seed, "t")
        assert 0 <= v < 2**64


class TestSignSketch:
    def test_entries_and_determinism(self):
        S = sk.sign_sketch(16, 40, seed=9)
        M = S.materialize()
        assert M.shape == (16, 40)
        assert np.all(np.abs(M) == 1.0 / math.sqrt(16))
        assert np.array_equal(M, sk.sign_sketch(16, 40, seed=9).materialize())
        assert not np.array_equal(M, sk.sign_sketch(16, 40, seed=10).materialize())

    def test_column_block_matches_slice(self):
        S = sk.sign_sketch(12, 100, seed=3)
        M = S.materialize()
        cols = [7, 19, 19, 63]
        assert sk.SignSketch.materialize_cols(S, cols).tobytes() == M[:, cols].tobytes()

    def test_probe_scale(self):
        P = sk.sign_sketch(6, 10, seed=1, scale=1.0).materialize()
        assert set(np.unique(P)) == {-1.0, 1.0}

    def test_balanced_signs(self):
        M = sk.sign_sketch(200, 500, seed=4, scale=1.0).materialize()
        frac = np.mean(M > 0)
        # 100k Bernoulli(1/2) draws: 5 sigma is ~0.008
        assert abs(frac - 0.5) < 0.01

    def test_norm_preservation_statistical(self):
        x = rand_matrix(0, 60, 1)[:, 0]
        ests = []
        for seed in range(30):
            S = sk.sign_sketch(400, 60, seed=seed).materialize()
            ests.append(np.sum((S @ x) ** 2))
        assert np.median(ests) == pytest.approx(np.sum(x**2), rel=0.15)

    def test_rows_uncorrelated(self):
        M = sk.sign_sketch(50, 2000, seed=8, scale=1.0).materialize()
        G = (M @ M.T) / 2000
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 0.12


def _digest(a: np.ndarray) -> str:
    return hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()


def _unblocked(S: sk.SignSketch, cols) -> np.ndarray:
    rows = np.arange(S.n_rows, dtype=np.uint64)[:, None]
    h = sk.prf_cells(S.seed, rows, np.asarray(cols, dtype=np.uint64)[None, :])
    return np.where(h >> np.uint64(63), -1.0, 1.0) * S.scale


class TestSignGridBits:
    """Sign grids are generated in row blocks; these pin the exact bits."""

    def test_golden_digests(self):
        # 70 x 1000 spans three row blocks, the last one ragged
        S = sk.sign_sketch(70, 1000, seed=12345)
        assert _digest(S.materialize()) == "5b36de2de1e4b737b4dcf27905488f02"
        assert _digest(S.materialize_cols([999, 3, 3, 500])) == "a8678142dae07b783373a9f1e8a41e30"
        P = sk.sign_sketch(9, 33, seed=7, scale=1.0)
        assert _digest(P.materialize()) == "336fae774561c734b3ded0373181cbfc"
        h = sk.prf_cells(12345, np.arange(70, dtype=np.uint64)[:, None],
                         np.arange(1000, dtype=np.uint64)[None, :])
        assert _digest(h) == "1dfdbb63e773b2cb90f19aa45ef707f0"

    @pytest.mark.parametrize("scale", [-0.0, 0.0, -2.5, 1.0 / 3.0])
    @pytest.mark.parametrize("shape", [(70, 1000), (3, 40000), (40000, 1), (5, 7)])
    def test_matches_unblocked_formula(self, shape, scale):
        S = sk.SignSketch(*shape, seed=99, scale=scale)
        assert S.materialize().tobytes() == _unblocked(S, np.arange(shape[1])).tobytes()
        cols = [shape[1] - 1, 0, 0]
        assert S.materialize_cols(cols).tobytes() == _unblocked(S, cols).tobytes()

    def test_degenerate_shapes(self):
        assert sk.sign_sketch(0, 5, seed=1).materialize().shape == (0, 5)
        assert sk.sign_sketch(4, 0, seed=1).materialize().shape == (4, 0)
        empty = sk.sign_sketch(70, 1000, seed=1).materialize_cols([])
        assert empty.shape == (70, 0) and empty.dtype == np.float64
        assert sk.sign_sketch(0, 5, seed=1).materialize_cols([2, 4]).shape == (0, 2)

    @pytest.mark.parametrize("lo,hi", [(0, 70), (0, 0), (69, 70), (13, 57), (30, 30)])
    def test_row_range_is_a_slice(self, lo, hi):
        # 70 x 1000 grids span several row blocks; a range may start mid-block
        S = sk.sign_sketch(70, 1000, seed=12345)
        cols = [999, 3, 3, 500]
        assert S.materialize_cols(cols, lo, hi).tobytes() == \
            S.materialize_cols(cols)[lo:hi].tobytes()
        wide = np.arange(1000)
        assert S.materialize_cols(wide, lo, hi).tobytes() == S.materialize()[lo:hi].tobytes()

    @pytest.mark.parametrize("lo,hi", [(-1, 3), (5, 4), (0, 71)])
    def test_row_range_outside_rejected(self, lo, hi):
        with pytest.raises(InputError):
            sk.sign_sketch(70, 1000, seed=1).materialize_cols([0], lo, hi)


class TestSignSketchApply:
    """apply_left generates the sketch in row blocks and multiplies each."""

    @pytest.mark.parametrize("shape", [(70, 1000), (3, 40000), (200, 7), (1, 1)])
    def test_matches_materialized_product(self, shape):
        S = sk.sign_sketch(*shape, seed=4242, scale=0.25)
        M = rand_matrix(5, shape[1], 6)
        assert np.allclose(S.apply_left(M), S.materialize() @ M, rtol=1e-12, atol=1e-12)

    def test_degenerate_shapes_and_guard(self):
        assert sk.sign_sketch(0, 5, seed=1).apply_left(np.ones((5, 3))).shape == (0, 3)
        assert np.array_equal(sk.sign_sketch(4, 0, seed=1).apply_left(np.ones((0, 2))),
                              np.zeros((4, 2)))
        with pytest.raises(InputError):
            sk.sign_sketch(4, 5, seed=1).apply_left(np.ones((4, 2)))


class TestSrht:
    @pytest.mark.parametrize("xi,n,seed,digest", [
        (3200, 384, 9, "02142f0168231ecd4bf1cd421eb448dd"),   # 512 x 384, capped
        (128, 128, 3, "8ed19ecf3148cc099a4087187b4726c8"),
        (50, 13, 6, "a1bfa868e3999a571e6928b3bde53ae0"),      # capped at 16 rows
        (10, 30, 7, "d130b46bab8ab7e7438367d363de03d1"),
        (7, 1, 4, "2acb4c9cc96d8097921119dde64d52d2"),
    ])
    def test_golden_digests(self, xi, n, seed, digest):
        assert _digest(sk.srht_sketch(xi, n, seed).materialize()) == digest

    @pytest.mark.parametrize("xi,n,seed", [(8, 13, 5), (50, 13, 6), (300, 300, 2), (3, 1, 1)])
    def test_matches_sylvester_oracle(self, xi, n, seed):
        T = sk.srht_sketch(xi, n, seed)
        H = np.array([[1.0]])
        while H.shape[0] < T.n_pad:
            H = np.block([[H, H], [H, -H]])
        want = H[T.rows][:, :n] * T.signs / math.sqrt(T.n_rows)
        assert T.materialize().tobytes() == want.tobytes()

    def test_cap_makes_exact_isometry(self):
        # requesting more rows than the padded length keeps every row
        T = sk.srht_sketch(50, 13, seed=6)
        assert T.n_rows == 16 and T.n_pad == 16
        M = T.materialize()
        assert np.allclose(M.T @ M, np.eye(13), atol=1e-12)
        x = rand_matrix(4, 13, 1)
        assert np.sum(M @ x * (M @ x)) == pytest.approx(np.sum(x * x), rel=1e-12)

    def test_subsampling_without_replacement(self):
        T = sk.srht_sketch(10, 30, seed=7)
        assert T.n_rows == 10
        assert len(set(T.rows.tolist())) == 10
        assert np.all(np.diff(T.rows) > 0)

    def test_norm_preservation_statistical(self):
        x = rand_matrix(1, 24, 1)[:, 0]
        ests = [np.sum((sk.srht_sketch(16, 24, seed=s).materialize() @ x) ** 2)
                for s in range(30)]
        assert np.median(ests) == pytest.approx(np.sum(x * x), rel=0.25)

    def test_deterministic(self):
        A = sk.srht_sketch(8, 20, seed=1).materialize()
        B = sk.srht_sketch(8, 20, seed=1).materialize()
        assert A.tobytes() == B.tobytes()


class TestSparseEmbedding:
    def test_one_nonzero_per_column(self):
        E = sk.sparse_embedding(9, 40, seed=2)
        M = E.materialize()
        assert np.all(np.count_nonzero(M, axis=0) == 1)
        assert set(np.unique(M[M != 0])) <= {-1.0, 1.0}

    def test_apply_matches_naive_loop_bitwise(self):
        E = sk.sparse_embedding(7, 25, seed=3)
        A = rand_matrix(5, 25, 6)
        out = np.zeros((7, 6))
        for j in range(25):  # canonical order: ascending column index
            out[E.buckets[j]] += E.signs[j] * A[j]
        assert E.apply_left(A).tobytes() == out.tobytes()

    def test_apply_right_matches_materialized(self):
        E = sk.sparse_embedding(6, 18, seed=4)
        A = rand_matrix(6, 9, 18)
        assert np.allclose(E.apply_right(A), A @ E.materialize().T, atol=1e-12)

    def test_buckets_roughly_uniform(self):
        E = sk.sparse_embedding(10, 5000, seed=5)
        counts = np.bincount(E.buckets, minlength=10)
        assert counts.min() > 350 and counts.max() < 650

    def test_shape_mismatch(self):
        E = sk.sparse_embedding(4, 10, seed=6)
        with pytest.raises(InputError):
            E.apply_left(rand_matrix(0, 11, 2))


class TestSizing:
    def test_frozen_default_dims(self):
        # hand-computed: ceil(4*5/0.25), ceil(10*5/0.5), ceil(8*100/0.25),
        # ceil(2*9/0.25), ceil(2*4/1)
        assert sk.dense_pca_dim(5, 0.5) == 80
        assert sk.regression_dim(5, 0.5) == 100
        assert sk.affine_dim(100, 0.5) == 3200
        assert sk.embedding_dim(3, 0.5) == 72
        assert sk.embedding_dim(2, 1.0) == 8

    def test_jlt_rows_frozen(self):
        # ceil(48 * ln 100) = ceil(221.048...)
        assert sk.jlt_rows(100) == 222

    def test_jlt_sketch_scale(self):
        J = sk.jlt_sketch(100, 30, seed=1)
        M = J.materialize()
        assert M.shape[0] == 222
        assert np.all(np.abs(M) == pytest.approx(1.0 / math.sqrt(222)))

    def test_size_guards(self):
        with pytest.raises(InputError):
            sk.dense_pca_dim(-1, 0.5)
        with pytest.raises(InputError):
            sk.dense_pca_dim(2, 0.0)

    def test_next_pow2(self):
        assert [sk.next_pow2(v) for v in (0, 1, 2, 3, 16, 17)] == [1, 1, 2, 4, 16, 32]

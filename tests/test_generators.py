"""Adversarial instance generators and the exhaustive subset checker."""

import numpy as np
import pytest

from sketchpca.column_partition import CssProtocolParams, distributed_css_pca
from sketchpca.errors import InputError
from sketchpca.generators import (
    HardCssSpec,
    HardDenseSpec,
    css_hard_min_ratio,
    gen_css_hard,
    gen_dense_hard,
    gen_lowrank_noise,
)
from sketchpca.linalg import tail_sq
from sketchpca.sparse import SparseColMatrix

from conftest import frob_sq


class TestHardDenseSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            HardDenseSpec(m=10, k=11, s=3, n=40)
        with pytest.raises(InputError):
            HardDenseSpec(m=10, k=2, s=1, n=40)
        with pytest.raises(InputError):
            HardDenseSpec(m=10, k=2, s=3, n=29)
        with pytest.raises(InputError):
            HardDenseSpec(m=10, k=2, s=3, n=40, wall=1.0)

    def test_default_denominator_is_the_cubed_product(self):
        spec = HardDenseSpec(m=10, k=2, s=3, n=32)
        assert spec.denominator == float(3 * 2 * 10) ** 3
        assert HardDenseSpec(m=10, k=2, s=3, n=32, wall=64.0).denominator == 64.0


class TestGenDenseHard:
    def test_partition_layout(self):
        spec = HardDenseSpec(m=10, k=2, s=4, n=45)
        cl = gen_dense_hard(spec, 7)
        assert cl.kind == "column"
        widths = [p.shape[1] for p in cl.parts]
        assert widths == [2, 10, 10, 23]
        assert cl.n == 45
        B = spec.denominator
        assert np.array_equal(cl.parts[1], np.eye(10) / B)
        assert np.array_equal(cl.parts[2], np.eye(10) / B)
        assert not np.any(cl.parts[3])

    def test_machine_one_sits_on_the_grid_and_is_near_orthonormal(self):
        spec = HardDenseSpec(m=12, k=3, s=3, n=40)
        Rt = gen_dense_hard(spec, 1).parts[0]
        B = spec.denominator
        scaled = Rt * B
        assert np.allclose(scaled, np.round(scaled), atol=1e-6)
        assert np.max(np.abs(Rt.T @ Rt - np.eye(3))) <= 2 * 3 / B

    def test_tail_bound_holds_on_generated_instances(self):
        for seed in range(5):
            spec = HardDenseSpec(m=8, k=2, s=4, n=40)
            cl = gen_dense_hard(spec, seed)
            B = spec.denominator
            assert tail_sq(cl.materialize(), 2) < spec.s * spec.m / (B * B)

    def test_square_factor_when_k_equals_m(self):
        spec = HardDenseSpec(m=6, k=6, s=3, n=20)
        Rt = gen_dense_hard(spec, 3).parts[0]
        assert Rt.shape == (6, 6)
        assert np.max(np.abs(Rt.T @ Rt - np.eye(6))) <= 2 * 6 / spec.denominator

    def test_deterministic_by_seed(self):
        spec = HardDenseSpec(m=10, k=2, s=3, n=32)
        a = gen_dense_hard(spec, 9).materialize()
        b = gen_dense_hard(spec, 9).materialize()
        assert a.tobytes() == b.tobytes()

    def test_column_protocol_recovers_the_planted_span(self):
        spec = HardDenseSpec(m=10, k=2, s=3, n=32)
        cl = gen_dense_hard(spec, 7)
        res = distributed_css_pca(cl, CssProtocolParams(k=2, eps=0.5, seed=3))
        Q, _ = np.linalg.qr(cl.parts[0])
        assert np.linalg.norm(res.U @ res.U.T - Q @ Q.T, 2) <= 0.01


class TestHardCssSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            HardCssSpec(k=0, phi=6, eps=0.25)
        with pytest.raises(InputError):
            HardCssSpec(k=1, phi=0, eps=0.25)
        with pytest.raises(InputError):
            HardCssSpec(k=1, phi=6, eps=0.0)

    def test_subset_size_and_shape(self):
        spec = HardCssSpec(k=1, phi=6, eps=0.25)
        assert spec.subset_size == 2
        assert spec.shape == (7, 6)
        assert HardCssSpec(k=4, phi=6, eps=0.25).subset_size == 8
        assert HardCssSpec(k=2, phi=3, eps=0.25).shape == (8, 6)


class TestGenCssHard:
    def test_small_instance_matches_the_hand_built_matrix(self):
        A = gen_css_hard(HardCssSpec(k=2, phi=3, eps=0.25))
        assert isinstance(A, SparseColMatrix)
        block = np.zeros((4, 3))
        block[0, :] = 1.0
        for i in range(3):
            block[i + 1, i] = 1.0
        want = np.zeros((8, 6))
        want[:4, :3] = block
        want[4:, 3:] = block
        assert np.array_equal(A.to_dense(), want)

    def test_every_column_has_two_nonzeros(self):
        A = gen_css_hard(HardCssSpec(k=3, phi=5, eps=0.5))
        assert A.shape == (18, 15)
        assert np.all(A.col_nnz() == 2)

    def test_small_subsets_cannot_reach_the_rank_k_error(self):
        spec = HardCssSpec(k=1, phi=6, eps=0.25)
        ratio = css_hard_min_ratio(gen_css_hard(spec), spec.k, spec.subset_size)
        assert ratio > 1 + spec.eps
        assert ratio == pytest.approx(19 / 15, rel=1e-12)

    def test_hardness_holds_in_the_wide_regime(self):
        # phi >= 2k/eps, the regime the construction is designed for
        spec = HardCssSpec(k=1, phi=8, eps=0.25)
        ratio = css_hard_min_ratio(gen_css_hard(spec), spec.k, spec.subset_size)
        assert ratio > 1.25

    def test_rotation_preserves_spectrum_and_hardness(self):
        spec = HardCssSpec(k=1, phi=24, eps=1.0 / 12)
        plain = gen_css_hard(spec)
        rot = gen_css_hard(spec, rotate=True, seed=5)
        assert rot.shape == plain.shape
        sv_plain = np.linalg.svd(plain.to_dense(), compute_uv=False)
        sv_rot = np.linalg.svd(rot.to_dense(), compute_uv=False)
        assert np.max(np.abs(sv_plain - sv_rot)) <= 1e-3
        # the rotated guarantee covers the smaller floor(k / (6 eps)) subsets
        covered = int(spec.k // (6 * spec.eps))
        assert css_hard_min_ratio(rot, spec.k, covered) > 1 + spec.eps

    def test_rotation_deterministic_by_seed(self):
        spec = HardCssSpec(k=1, phi=6, eps=0.25)
        a = gen_css_hard(spec, rotate=True, seed=2)
        b = gen_css_hard(spec, rotate=True, seed=2)
        assert a.to_dense().tobytes() == b.to_dense().tobytes()


class TestCssHardMinRatio:
    def test_refuses_oversized_scans(self):
        A = gen_css_hard(HardCssSpec(k=4, phi=8, eps=0.1))
        with pytest.raises(InputError):
            css_hard_min_ratio(A, 4, 16)

    def test_refuses_degenerate_subset_sizes(self):
        A = gen_css_hard(HardCssSpec(k=1, phi=6, eps=0.25))
        with pytest.raises(InputError):
            css_hard_min_ratio(A, 1, 0)
        with pytest.raises(InputError):
            css_hard_min_ratio(A, 1, 7)

    def test_refuses_exactly_rank_k_input(self):
        with pytest.raises(InputError):
            css_hard_min_ratio(np.eye(4), 4, 1)

    def test_full_subset_of_a_spanning_matrix_reaches_the_tail(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 4))
        # all columns available: restricted rank-k equals plain rank-k
        assert css_hard_min_ratio(A, 2, 4) == pytest.approx(1.0, rel=1e-9)


class TestGenLowrankNoise:
    def test_zero_noise_is_exactly_rank_k(self):
        A = gen_lowrank_noise(20, 30, 4, 0.0, 3)
        assert np.linalg.matrix_rank(A) == 4

    def test_deterministic_by_seed(self):
        a = gen_lowrank_noise(10, 12, 2, 0.3, 5)
        b = gen_lowrank_noise(10, 12, 2, 0.3, 5)
        assert a.tobytes() == b.tobytes()
        c = gen_lowrank_noise(10, 12, 2, 0.3, 6)
        assert a.tobytes() != c.tobytes()

    def test_validation(self):
        with pytest.raises(InputError):
            gen_lowrank_noise(10, 12, 0, 0.1, 0)
        with pytest.raises(InputError):
            gen_lowrank_noise(10, 12, 11, 0.1, 0)
        with pytest.raises(InputError):
            gen_lowrank_noise(10, 12, 2, -0.1, 0)

    def test_tail_energy_tracks_the_noise_floor(self):
        scale = 0.1
        ratios = []
        for seed in range(50):
            A = gen_lowrank_noise(30, 40, 3, scale, seed)
            expect = (30 - 3) * (40 - 3) * scale * scale
            ratios.append(tail_sq(A, 3) / expect)
        mean = float(np.mean(ratios))
        assert 0.5 <= mean <= 2.0

    def test_shape_and_signal_dominance(self):
        A = gen_lowrank_noise(15, 25, 2, 0.05, 1)
        assert A.shape == (15, 25)
        assert tail_sq(A, 2) <= 0.5 * frob_sq(A)

"""Arbitrary-partition distributed PCA: branches, routing, and exact words."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import best_tail_sq, lowrank_plus_noise, rand_matrix, rank_exactly, split_rows
from sketchpca import arbitrary_partition as ap
from sketchpca.batch import batch_low_rank
from sketchpca.cluster import Cluster
from sketchpca.errors import InputError, InternalError, ProtocolError
from sketchpca.generators import gen_lowrank_noise
from sketchpca.linalg import residual_ratio


def _cluster_for(A, s, seed, **kw):
    return Cluster(split_rows(A, s, seed), **kw)


def _params(k=3, eps=0.5, seed=0, **kw):
    return ap.ArbProtocolParams(k=k, eps=eps, seed=seed, **kw)


class TestRankTest:
    @pytest.mark.parametrize("rank,expect", [(5, False), (6, True), (9, True)])
    def test_classifies_constructed_ranks(self, rank, expect):
        hits = 0
        for seed in range(20):
            A = rank_exactly(seed, 30, 30, rank)
            cl = _cluster_for(A, 3, seed=seed + 50)
            if ap.rank_test(cl, 3, seed=seed) == expect:
                hits += 1
        assert hits >= 19

    def test_short_full_rank_input_is_full_for_every_seed(self):
        # 4 x 4000 of rank 4 > 2k = 2: a 2 x 4 sign probe repeats a row for
        # some seeds (seed 7 here) and would route to the low-rank branch
        A = gen_lowrank_noise(4, 4000, 1, 0.05, 1)
        assert np.linalg.matrix_rank(A) == 4
        for seed in range(8):
            assert ap.rank_test(Cluster([A], kind="arbitrary"), 1, seed=seed), seed

    def test_narrow_full_rank_input_routes_smoothed_for_every_seed(self):
        # 4000 x 4 of rank 4 > 2k = 2: a 4 x 2 sign probe repeats a column
        # up to sign for some seeds (11 here) and would route to low-rank
        A = gen_lowrank_noise(4000, 4, 1, 0.05, 1)
        assert np.linalg.matrix_rank(A) == 4
        for seed in range(64):
            res = ap.distributed_pca_arbitrary(Cluster([A]), _params(k=1, eps=1.0, seed=seed))
            assert res.branch == "smoothed", seed

    def test_cost_is_exactly_probe_size(self):
        for s in (1, 2, 5):
            cl = _cluster_for(rand_matrix(0, 20, 25), s, seed=1)
            ap.rank_test(cl, 4, seed=3)
            assert cl.ledger.total() == s * (4 * 16 + 2)
            assert cl.ledger.phase_totals() == {
                "rank-test-seed": 2 * s, "rank-test-up": 64 * s}

    def test_guards(self):
        cl = _cluster_for(rand_matrix(0, 10, 10), 2, seed=1)
        with pytest.raises(InputError):
            ap.rank_test(cl, 0, seed=1)


class TestLowRankBranch:
    def test_recovers_rank_at_most_k(self):
        A = rank_exactly(1, 24, 40, 3)
        cl = _cluster_for(A, 3, seed=2)
        res = ap.low_rank_protocol(cl, _params(k=3, seed=11))
        assert res.branch == "low-rank"
        assert residual_ratio(A, res.U, 3) == 1.0

    def test_between_k_and_2k(self):
        A = rank_exactly(2, 30, 30, 5, spread=2.0)
        cl = _cluster_for(A, 4, seed=3)
        res = ap.low_rank_protocol(cl, _params(k=3, seed=12))
        assert residual_ratio(A, res.U, 3) <= 1.5

    def test_direct_call_at_exactly_2k(self):
        A = rank_exactly(3, 28, 28, 6)
        cl = _cluster_for(A, 2, seed=4)
        res = ap.low_rank_protocol(cl, _params(k=3, seed=13))
        assert res.rank_test_full is True  # probe saturates at rank 2k
        assert residual_ratio(A, res.U, 3) <= 2.0

    def test_ledger_matches_closed_form(self):
        A = rank_exactly(4, 16, 50, 2)
        s, k = 3, 2
        cl = _cluster_for(A, s, seed=5)
        res = ap.low_rank_protocol(cl, _params(k=k, eps=0.5, seed=14))
        xi_a = 64  # ceil(8 * 2 / 0.25)
        want = {
            "rank-test-seed": 2 * s,
            "rank-test-up": 4 * k * k * s,
            "span-up": 2 * k * 16 * s,
            "span-down": 2 * k * 16 * s,
            "affine-up": xi_a * xi_a * s,
            "regress-up": 2 * k * xi_a * s,
            "u-down": 16 * k * s,
        }
        assert res.phase_words == want
        assert res.total_words == sum(want.values())

    def test_u_down_counts_the_columns_shipped(self):
        # k above the row count: U has m columns, and u-down counts m * m
        cl = Cluster([rand_matrix(0, 2, 30), rand_matrix(1, 2, 30)])
        res = ap.distributed_pca_arbitrary(cl, _params(k=3, seed=1))
        assert res.branch == "low-rank"
        assert res.U.shape == (2, 2)
        assert res.phase_words["u-down"] == 2 * res.U.size

    def test_words_independent_of_width(self):
        k, s = 2, 3
        t1 = ap.low_rank_protocol(
            _cluster_for(rank_exactly(6, 16, 40, 2), s, seed=6),
            _params(k=k, seed=15)).total_words
        t2 = ap.low_rank_protocol(
            _cluster_for(rank_exactly(7, 16, 80, 2), s, seed=7),
            _params(k=k, seed=15)).total_words
        assert t1 == t2

    def test_zero_input_flagged(self):
        cl = Cluster([np.zeros((10, 12)) for _ in range(2)])
        res = ap.low_rank_protocol(cl, _params(k=2, seed=16))
        assert "zero-input" in res.flags
        U = res.U
        assert U.shape == (10, 2)
        assert np.allclose(U.T @ U, np.eye(2), atol=1e-12)

    def test_certificate_retry_then_success(self, monkeypatch):
        A = rank_exactly(8, 20, 30, 3)
        cl = _cluster_for(A, 2, seed=8)
        orig = ap._run_probe
        calls = {"n": 0}

        def tampered(cluster, k, seed):
            p = orig(cluster, k, seed)
            calls["n"] += 1
            if calls["n"] == 1:
                return ap._Probe(p.full, p.probe_rank + 1, p.Hrt)
            return p

        monkeypatch.setattr(ap, "_run_probe", tampered)
        res = ap.low_rank_protocol(cl, _params(k=2, seed=17))
        assert res.retried
        assert res.phase_words["rank-test-seed"] == 2 * 2 * 2  # two probes

    def test_certificate_double_failure_raises(self, monkeypatch):
        A = rank_exactly(9, 20, 30, 3)
        cl = _cluster_for(A, 2, seed=9)
        orig = ap._run_probe

        def always_bad(cluster, k, seed):
            p = orig(cluster, k, seed)
            return ap._Probe(p.full, p.probe_rank + 1, p.Hrt)

        monkeypatch.setattr(ap, "_run_probe", always_bad)
        with pytest.raises(ProtocolError):
            ap.low_rank_protocol(cl, _params(k=2, seed=18))


class TestSmoothedBranch:
    def test_trivial_partition_matches_batch_bitwise(self):
        # random data: sketched partials of the zero parts are exact zeros,
        # so the machine-order sum reproduces the batch products bit for bit
        A = lowrank_plus_noise(0, 24, 36, 3, 0.05)
        cl = Cluster([A, np.zeros_like(A), np.zeros_like(A)])
        res = ap.smoothed_protocol(cl, _params(k=3, seed=21, noise_scale=0.0))
        ref = batch_low_rank(A, 3, 0.5, seed=21)
        assert res.U.tobytes() == ref.U.tobytes()

    def test_real_partition_close_and_accurate(self):
        A = lowrank_plus_noise(1, 30, 40, 3, 0.05)
        cl = _cluster_for(A, 4, seed=2)
        res = ap.smoothed_protocol(cl, _params(k=3, seed=22, noise_scale=0.0))
        assert residual_ratio(A, res.U, 3) <= 1.5

    def test_phase_words_worked_example(self):
        # s=4 machines, m=16 rows, k=2, forced sketch size 8
        A = rand_matrix(3, 16, 30)
        cl = _cluster_for(A, 4, seed=3)
        res = ap.smoothed_protocol(
            cl, _params(k=2, seed=23, noise_scale=0.0, xi_sketch=8))
        assert res.phase_words == {
            "sketch-up": 256, "V-down": 64, "X-up": 128, "u-down": 128}

    def test_ledger_check_catches_a_payload_of_the_wrong_shape(self, monkeypatch):
        # X-up words are measured from the gathered arrays, so a lift with
        # an extra column no longer matches the closed form m * kk
        real = ap.lift_through_right
        monkeypatch.setattr(ap, "lift_through_right", lambda B, Tr, V: np.hstack(
            [real(B, Tr, V), np.zeros((B.shape[0], 1))]))
        cl = _cluster_for(rand_matrix(3, 16, 30), 4, seed=3)
        with pytest.raises(InternalError, match="ledger mismatch"):
            ap.smoothed_protocol(cl, _params(k=2, seed=23, noise_scale=0.0, xi_sketch=8))

    def test_default_noise_perturbs(self):
        A = lowrank_plus_noise(4, 20, 25, 2, 0.1)
        cl = _cluster_for(A, 2, seed=4)
        res = ap.smoothed_protocol(cl, _params(k=2, seed=24))
        assert "perturbed" in res.flags
        assert residual_ratio(A, res.U, 2) <= 2.0

    def test_explicit_noise_obeys_weyl(self):
        # singular values move by at most the spectral norm of the
        # protocol's perturbation N', at most ||N'||_F = eta sqrt(m p) with
        # p = min(n, xi): all 18 columns at xi = 32, and 32 of 60, below
        # eta sqrt(m n)
        m, eta, xi = 15, 1e-3, ap.dense_pca_dim(2, 0.5)
        for n in (18, 60):
            A = rand_matrix(5, m, n)
            res = ap.smoothed_protocol(Cluster([A]), _params(k=2, seed=25, noise_scale=eta))
            p = min(n, xi)
            N = np.zeros_like(A)
            N[:, :p] = ap.sign_sketch(m, p, ap.derive_seed(25, ap.TAG_NOISE),
                                      scale=eta).materialize()
            ref = ap.smoothed_protocol(Cluster([A + N]), _params(k=2, seed=25, noise_scale=0.0))
            assert "perturbed" in res.flags
            assert np.abs(res.U @ res.U.T - ref.U @ ref.U.T).max() <= 1e-9
            assert np.linalg.norm(N, "fro") == pytest.approx(eta * np.sqrt(m * p))
            s0 = np.linalg.svd(A, compute_uv=False)
            s1 = np.linalg.svd(A + N, compute_uv=False)
            assert np.abs(s0 - s1).max() <= eta * np.sqrt(m * p) + 1e-12

    def test_rounding_bounds_factor_entries(self):
        A = lowrank_plus_noise(6, 20, 30, 2, 0.05)
        cl = _cluster_for(A, 2, seed=6)
        res = ap.smoothed_protocol(
            cl, _params(k=2, seed=26, noise_scale=0.0, rounding=1e-3))
        assert residual_ratio(A, res.U, 2) <= 2.0

    def test_per_machine_products_run_through_map_machines(self, monkeypatch):
        # the sketch-up and X-up products are per-machine work, so a
        # parallel cluster runs them concurrently, on the noised parts
        A = lowrank_plus_noise(7, 20, 30, 2, 0.05)
        calls = []
        real = Cluster.map_machines

        def counting(self, fn):
            calls.append(self.parallel)
            return real(self, fn)

        monkeypatch.setattr(Cluster, "map_machines", counting)
        serial = ap.smoothed_protocol(_cluster_for(A, 3, seed=7), _params(k=2, seed=27))
        par = ap.smoothed_protocol(_cluster_for(A, 3, seed=7, parallel=True),
                                   _params(k=2, seed=27))
        assert calls == [False, False, True, True]
        assert "perturbed" in serial.flags
        assert par.U.tobytes() == serial.U.tobytes()


class TestDispatcher:
    def test_routes_full_rank_to_smoothed(self):
        A = lowrank_plus_noise(0, 20, 30, 3, 0.2)
        cl = _cluster_for(A, 3, seed=1)
        res = ap.distributed_pca_arbitrary(cl, _params(k=3, seed=31, noise_scale=0.0))
        assert res.branch == "smoothed" and res.rank_test_full is True

    def test_routes_low_rank_branch(self):
        A = rank_exactly(1, 20, 30, 4)
        cl = _cluster_for(A, 3, seed=2)
        res = ap.distributed_pca_arbitrary(cl, _params(k=3, seed=32))
        assert res.branch == "low-rank" and res.rank_test_full is False
        assert residual_ratio(A, res.U, 3) <= 1.5

    def test_doubling_width_leaves_words_unchanged(self):
        k, s = 3, 3
        totals = []
        for n in (40, 80):
            A = lowrank_plus_noise(2, 24, n, 3, 0.1)
            cl = _cluster_for(A, s, seed=3)
            res = ap.distributed_pca_arbitrary(
                cl, _params(k=k, seed=33, noise_scale=0.0))
            assert res.branch == "smoothed"
            totals.append(res.total_words)
        assert totals[0] == totals[1]

    def test_total_includes_probe_and_branch(self):
        A = lowrank_plus_noise(4, 16, 22, 2, 0.1)
        s, k, xi, m = 2, 2, 32, 16
        cl = _cluster_for(A, s, seed=4)
        res = ap.distributed_pca_arbitrary(cl, _params(k=k, seed=34, noise_scale=0.0))
        want = (2 + 4 * k * k) * s + (xi * xi + xi * k + m * k + m * k) * s
        assert res.total_words == want

    def test_wrong_partition_kind_rejected(self):
        cl = Cluster([rand_matrix(0, 4, 3)], kind="column")
        with pytest.raises(InputError):
            ap.distributed_pca_arbitrary(cl, _params(k=1, seed=35))

    def test_deterministic_end_to_end(self):
        A = lowrank_plus_noise(5, 18, 24, 2, 0.1)
        runs = []
        for _ in range(2):
            cl = _cluster_for(A, 3, seed=5)
            runs.append(ap.distributed_pca_arbitrary(
                cl, _params(k=2, seed=36, noise_scale=0.0)))
        assert runs[0].U.tobytes() == runs[1].U.tobytes()
        assert runs[0].phase_words == runs[1].phase_words

    def test_parallel_mode_bitwise_identical(self):
        A = lowrank_plus_noise(6, 20, 28, 2, 0.1)
        parts = split_rows(A, 4, seed=6)
        res_seq = ap.distributed_pca_arbitrary(
            Cluster(parts), _params(k=2, seed=37, noise_scale=0.0))
        res_par = ap.distributed_pca_arbitrary(
            Cluster(parts, parallel=True), _params(k=2, seed=37, noise_scale=0.0))
        assert res_seq.U.tobytes() == res_par.U.tobytes()
        assert res_seq.phase_words == res_par.phase_words


class TestServerSideNoise:
    """The perturbation is applied by the server from the seeded grid."""

    def test_same_perturbation_as_noised_part(self):
        # the server's blocked terms equal adding N' = [Z, 0] to one part:
        # the 40 x 48 grid on the first xi = 48 of the 70 columns
        A = lowrank_plus_noise(8, 40, 70, 3, 0.05)
        seed, eta = 28, 0.05
        res = ap.smoothed_protocol(_cluster_for(A, 3, seed=8),
                                   _params(k=3, seed=seed, noise_scale=eta))
        N = np.zeros_like(A)
        N[:, :48] = ap.sign_sketch(40, 48, ap.derive_seed(seed, ap.TAG_NOISE),
                                   scale=eta).materialize()
        ref = ap.smoothed_protocol(Cluster([A + N, np.zeros_like(A), np.zeros_like(A)]),
                                   _params(k=3, seed=seed, noise_scale=0.0))
        clean = ap.smoothed_protocol(_cluster_for(A, 3, seed=8),
                                     _params(k=3, seed=seed, noise_scale=0.0))
        assert "perturbed" in res.flags and "perturbed" not in ref.flags
        P = res.U @ res.U.T
        assert np.abs(P - ref.U @ ref.U.T).max() <= 1e-9
        # the noise moves the subspace far more than the tolerance
        assert np.abs(P - clean.U @ clean.U.T).max() > 1e-6

    @staticmethod
    def _spy_noise(monkeypatch, seed):
        """Record (rows, cols, scale) of each noise grid the protocol asks for."""
        real, grids = ap.sign_sketch, []
        noise_seed = ap.derive_seed(seed, ap.TAG_NOISE)

        def spy(xi, cols, sd, scale=None):
            if sd == noise_seed:
                grids.append((xi, cols, scale))
            return real(xi, cols, sd, scale)

        monkeypatch.setattr(ap, "sign_sketch", spy)
        return grids

    def test_narrow_input_adds_the_full_grid(self, monkeypatch):
        # n = 40 <= xi = 48: the default perturbation is the whole m x n
        # grid, so such inputs keep the bits of a full-grid perturbation
        A = lowrank_plus_noise(10, 30, 40, 3, 0.05)
        seed = 31
        grids = self._spy_noise(monkeypatch, seed)
        res = ap.smoothed_protocol(_cluster_for(A, 3, seed=10), _params(k=3, seed=seed))
        [(rows, cols, eta)] = grids
        assert (rows, cols) == (30, 40)
        N = ap.sign_sketch(30, 40, ap.derive_seed(seed, ap.TAG_NOISE), scale=eta).materialize()
        ref = ap.smoothed_protocol(Cluster([A + N]), _params(k=3, seed=seed, noise_scale=0.0))
        assert "perturbed" in res.flags
        assert np.abs(res.U @ res.U.T - ref.U @ ref.U.T).max() <= 1e-9

    def test_noise_costs_min_n_xi_columns(self, monkeypatch):
        # a 30 x 400 input at k = 2 (xi = 32) asks for one 30 x 32 noise
        # grid, not 30 x 400
        A = lowrank_plus_noise(11, 30, 400, 2, 0.1)
        grids = self._spy_noise(monkeypatch, 32)
        res = ap.smoothed_protocol(_cluster_for(A, 3, seed=11), _params(k=2, seed=32))
        assert "perturbed" in res.flags
        assert [(rows, cols) for rows, cols, _ in grids] == [(30, ap.dense_pca_dim(2, 0.5))]

    def test_default_scale_tracks_the_input_norm(self, monkeypatch):
        # eta comes from the gathered sketch, within 2x of the exact RMS rule
        real = ap.sign_sketch
        for seed in range(50):
            m, n = 20 + 7 * (seed % 5), 30 + 11 * (seed % 7)
            A = lowrank_plus_noise(seed, m, n, 3, 0.1)
            noise_seed = ap.derive_seed(seed + 300, ap.TAG_NOISE)
            scales = []

            def spy(xi, cols, sd, scale=None):
                if sd == noise_seed:
                    scales.append(scale)
                return real(xi, cols, sd, scale)

            monkeypatch.setattr(ap, "sign_sketch", spy)
            res = ap.smoothed_protocol(_cluster_for(A, 3, seed=seed),
                                       _params(k=2, seed=seed + 300))
            assert "perturbed" in res.flags and len(scales) == 1
            want = ap.DEFAULT_NOISE_REL * np.linalg.norm(A, "fro") / np.sqrt(m * n)
            assert 0.5 * want <= scales[0] <= 2.0 * want

    def test_peak_memory_below_one_dense_array(self):
        m, n = 400, 3000
        A = lowrank_plus_noise(9, m, n, 2, 0.1)
        cl = _cluster_for(A, 3, seed=9)
        tracemalloc.start()
        try:
            res = ap.distributed_pca_arbitrary(cl, _params(k=2, seed=29))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.branch == "smoothed" and "perturbed" in res.flags
        assert peak < 8 * m * n


class TestRowRanges:
    """Each machine multiplies only its nonzero row range."""

    @staticmethod
    def _row_blocks(A, blocks):
        parts = []
        for lo, hi in blocks:
            P = np.zeros_like(A)
            P[lo:hi] = A[lo:hi]
            parts.append(P)
        return parts + [np.zeros_like(A)]

    def test_ranges_found_once_per_part(self):
        A = rand_matrix(0, 12, 5)
        cl = Cluster(self._row_blocks(A, [(1, 4), (6, 11)]))
        assert cl.row_ranges == [slice(1, 4), slice(6, 11), slice(0, 0)]
        assert Cluster([A], kind="column").row_ranges is None

    @pytest.mark.parametrize("low_rank", [False, True])
    def test_products_never_read_outside_a_machine_row_range(self, monkeypatch, low_rank):
        # machines hold rows 2..6 and 9..14 of 20, plus a zero part; every
        # column of S, Hl, Tl and C^T outside those rows turns NaN before the
        # machines see it, and every payload must stay finite and unchanged
        m, n, k = 20, 30, 3 if low_rank else 2
        A = rank_exactly(3, m, n, 3) if low_rank else rand_matrix(3, m, n)
        parts = self._row_blocks(A, [(2, 7), (9, 15)])
        held = np.zeros(m, dtype=bool)
        held[2:7] = held[9:15] = True
        real = ap._gather_two_sided
        poisoned = []

        def poison(cluster, phase, L, R):
            L = np.array(L)
            L[:, ~held] = np.nan
            poisoned.append(phase)
            return real(cluster, phase, L, R)

        clean = ap.distributed_pca_arbitrary(Cluster(parts), _params(k=k, seed=41))
        payloads = []
        gather = Cluster.gather_sum

        def recording(self, phase, arrays):
            arrays = list(arrays)
            payloads.extend((phase, a) for a in arrays)
            return gather(self, phase, arrays)

        monkeypatch.setattr(ap, "_gather_two_sided", poison)
        monkeypatch.setattr(Cluster, "gather_sum", recording)
        res = ap.distributed_pca_arbitrary(Cluster(parts), _params(k=k, seed=41))
        assert res.branch == clean.branch == ("low-rank" if low_rank else "smoothed")
        want = ({"rank-test-up", "affine-up", "regress-up"} if low_rank
                else {"rank-test-up", "sketch-up"})
        assert set(poisoned) == want
        assert {p for p, _ in payloads} == want | {"span-up" if low_rank else "X-up"}
        for phase, a in payloads:
            assert np.all(np.isfinite(a)), phase
        assert res.U.tobytes() == clean.U.tobytes()

    def test_zero_noise_matches_batch_bitwise_with_zero_edge_rows(self):
        # 40 x 30 with rows 0..5 and 34..39 zero: the full sketch takes
        # (S A) Tr (n <= m), the trimmed 28 rows take S (A Tr), so a batch
        # path and a protocol that disagreed on trimming would differ in bits
        for seed in range(6):
            A = lowrank_plus_noise(seed, 40, 30, 3, 0.05)
            A[:6] = 0.0
            A[-6:] = 0.0
            cl = Cluster([np.zeros_like(A), A, np.zeros_like(A)])
            res = ap.distributed_pca_arbitrary(
                cl, _params(k=3, seed=seed + 60, noise_scale=0.0))
            ref = batch_low_rank(A, 3, 0.5, seed=seed + 60)
            assert cl.row_ranges[1] == slice(6, 34)
            assert res.branch == "smoothed"
            assert res.U.tobytes() == ref.U.tobytes()

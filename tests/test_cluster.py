"""Coordinator simulator: accounting exactness and mode invariance."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from conftest import rand_matrix, rank_exactly, split_rows
from sketchpca.arbitrary_partition import (
    ArbProtocolParams,
    distributed_pca_arbitrary,
    smoothed_protocol,
)
from sketchpca.cluster import SERVER, Cluster, CommLedger
from sketchpca.column_partition import CssProtocolParams, distributed_css_pca
from sketchpca.column_select_sparse import FastCssProtocolParams, distributed_css_pca_fast
from sketchpca.errors import InputError, InternalError, ProtocolError
from sketchpca.sparse import SparseColMatrix


class TestLedger:
    def test_totals_and_phases(self):
        led = CommLedger()
        led.record(1, SERVER, 0, 5, "down")
        led.record(1, SERVER, 1, 5, "down")
        led.record(2, 0, SERVER, 7, "up")
        assert led.total() == 17
        assert led.phase_totals() == {"down": 10, "up": 7}
        assert led.total_for("up") == 7
        assert led.total_for("absent") == 0

    def test_json_lines(self):
        led = CommLedger()
        led.record(1, 2, SERVER, 3, "x")
        row = json.loads(led.to_json_lines())
        assert row == {"round": 1, "from": 2, "to": -1, "words": 3, "phase": "x"}

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            CommLedger().record(1, 0, SERVER, -1, "x")

    def test_check_compares_every_phase(self):
        led = CommLedger()
        led.record(1, SERVER, 0, 5, "down")
        led.record(2, 0, SERVER, 7, "up")
        led.check({"down": 5, "up": 7})
        for wrong in ({"down": 5}, {"down": 5, "up": 6}, {"down": 5, "up": 7, "x": 0}):
            with pytest.raises(InternalError, match="ledger mismatch"):
                led.check(wrong)


class TestClusterArbitrary:
    def test_materialize_sums_in_order(self):
        A = rand_matrix(0, 6, 9)
        parts = split_rows(A, 3, seed=1)
        cl = Cluster(parts)
        manual = (parts[0] + parts[1]) + parts[2]
        assert cl.materialize().tobytes() == manual.tobytes()

    def test_gather_sum_accounting(self):
        cl = Cluster(split_rows(rand_matrix(1, 4, 5), 2, seed=2))
        out = cl.gather_sum("up", [np.ones((2, 2)), 2 * np.ones((2, 2))])
        assert np.all(out == 3) and cl.ledger.total() == 2 * 4
        cl.record_broadcast("down", 3)
        assert cl.ledger.phase_totals() == {"up": 8, "down": 6}

    def test_gather_sum_shape_mismatch(self):
        cl = Cluster(split_rows(rand_matrix(1, 4, 5), 2, seed=2))
        with pytest.raises(ProtocolError):
            cl.gather_sum("up", [np.ones((2, 2)), np.ones((3, 2))])

    def test_round_numbers_advance(self):
        cl = Cluster(split_rows(rand_matrix(1, 4, 4), 2, seed=0))
        cl.record_broadcast("a", 1)
        cl.record_gather("b", [2, 3])
        rounds = [m.round_no for m in cl.ledger.messages]
        assert rounds == [1, 1, 2, 2]
        assert [m.words for m in cl.ledger.messages] == [1, 1, 2, 3]

    def test_shape_validation(self):
        with pytest.raises(InputError):
            Cluster([np.zeros((2, 2)), np.zeros((3, 2))])
        with pytest.raises(InputError):
            Cluster([])


class TestClusterColumn:
    def _cluster(self):
        blocks = [rand_matrix(i, 5, w) for i, w in enumerate((3, 4, 2))]
        return blocks, Cluster(blocks, kind="column")

    def test_materialize_and_offsets(self):
        blocks, cl = self._cluster()
        assert np.array_equal(cl.materialize(), np.hstack(blocks))
        assert cl.col_offsets == [0, 3, 7, 9]
        assert cl.machine_of_column(0) == (0, 0)
        assert cl.machine_of_column(6) == (1, 3)
        assert cl.machine_of_column(8) == (2, 1)
        with pytest.raises(InputError):
            cl.machine_of_column(9)

    def test_sparse_parts(self):
        dense = rand_matrix(9, 4, 3)
        dense[np.abs(dense) < 0.8] = 0.0
        cl = Cluster([SparseColMatrix.from_dense(dense), rand_matrix(10, 4, 2)],
                     kind="column")
        assert cl.n == 5
        assert np.array_equal(cl.part_dense(0), dense)

    def test_row_count_mismatch(self):
        with pytest.raises(InputError):
            Cluster([np.zeros((4, 2)), np.zeros((5, 2))], kind="column")


class TestParallelMode:
    def test_results_and_transcript_identical(self):
        A = rand_matrix(7, 12, 10)
        parts = split_rows(A, 4, seed=3)

        def run(parallel):
            cl = Cluster(parts, parallel=parallel)
            W = rand_matrix(8, 10, 6)
            prods = cl.map_machines(lambda i, B: B @ W)
            total = cl.gather_sum("up", prods)
            cl.record_broadcast("down", total.shape[1])
            return total, cl.ledger.messages

        t_seq, led_seq = run(False)
        t_par, led_par = run(True)
        assert t_seq.tobytes() == t_par.tobytes()
        assert led_seq == led_par

    def test_map_preserves_machine_order(self):
        cl = Cluster([np.full((2, 2), float(i)) for i in range(5)], parallel=True)
        got = cl.map_machines(lambda i, B: (i, float(B[0, 0])))
        assert got == [(i, float(i)) for i in range(5)]


class TestGatherSumBlocks:
    """Column-block gathers sum to the bits gather_sum gives on whole arrays."""

    @staticmethod
    def _setup(s, n_cols):
        parts = split_rows(rand_matrix(11, 9, 6), s, seed=4)
        W = rand_matrix(12, 6, n_cols)
        return parts, W

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("s", [1, 2, 4])
    @pytest.mark.parametrize("block", [1, 3, 7, 50])
    def test_matches_gather_sum(self, s, block, parallel):
        parts, W = self._setup(s, 7)
        whole = Cluster(parts)
        ref = whole.gather_sum("up", whole.map_machines(lambda i, B: B @ W))
        cl = Cluster(parts, parallel=parallel)
        got = cl.gather_sum_blocks("up", lambda i, B, lo, hi: (B @ W)[:, lo:hi], 7, block)
        assert got.tobytes() == ref.tobytes()
        assert cl.ledger.messages == whole.ledger.messages

    def test_each_block_asked_once_in_machine_order(self):
        parts, W = self._setup(3, 5)
        calls = []

        def fn(i, B, lo, hi):
            calls.append((lo, hi, i))
            return (B @ W)[:, lo:hi]

        Cluster(parts).gather_sum_blocks("up", fn, 5, 2)
        assert calls == [(lo, min(lo + 2, 5), i) for lo in (0, 2, 4) for i in range(3)]

    def test_zero_columns(self):
        parts, W = self._setup(2, 0)
        cl = Cluster(parts)
        out = cl.gather_sum_blocks("up", lambda i, B, lo, hi: (B @ W)[:, lo:hi], 0, 4)
        assert out.shape == (9, 0) and cl.ledger.total() == 0

    def test_wrong_block_shape_rejected_before_recording(self):
        parts, W = self._setup(2, 6)
        cl = Cluster(parts)
        with pytest.raises(ProtocolError):
            cl.gather_sum_blocks("up", lambda i, B, lo, hi: (B @ W)[:, lo:hi + i], 6, 4)
        assert cl.ledger.messages == []

    def test_block_width_must_be_positive(self):
        parts, _ = self._setup(2, 3)
        with pytest.raises(InputError):
            Cluster(parts).gather_sum_blocks("up", lambda i, B, lo, hi: B, 3, 0)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_raw_blocks_are_summed_then_lifted_once(self, parallel):
        # machines 1 and 2 send raw blocks R in i < 3 * w words; the server
        # sums them in machine order and lifts the sum with L
        parts, W = self._setup(4, 5)
        L = rand_matrix(13, 3, 9)
        lifts = []

        def fn(i, B, lo, hi):
            R = (B @ W)[:, lo:hi]
            return (i, R) if i in (1, 2) else L @ R

        def lift(raws):
            lifts.append(len(raws))
            return L @ (raws[0] + raws[1])

        cl = Cluster(parts, parallel=parallel)
        got = cl.gather_sum_blocks("up", fn, 5, 2, lift)
        P = [B @ W for B in parts]
        ref = (L @ P[0] + L @ P[3]) + L @ (P[1] + P[2])
        assert got.tobytes() == ref.tobytes()
        assert lifts == [2, 2, 2]
        # three blocks: the arrays at their size, the raw blocks at i words each
        assert [m.words for m in cl.ledger.messages] == [3 * 5, 3 * 1, 3 * 2, 3 * 5]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_only_the_listed_machines_send(self, parallel):
        parts, W = self._setup(4, 5)
        asked = []

        def fn(i, B, lo, hi):
            asked.append(i)
            return (B @ W)[:, lo:hi]

        cl = Cluster(parts, parallel=parallel)
        got = cl.gather_sum_blocks("up", fn, 5, 2, machines=[3, 1])
        assert got.tobytes() == (parts[1] @ W + parts[3] @ W).tobytes()
        assert sorted(set(asked)) == [1, 3]
        assert [(m.sender, m.words) for m in cl.ledger.messages] == [(1, 45), (3, 45)]
        with pytest.raises(InputError):
            cl.gather_sum_blocks("up", fn, 5, 2, machines=[])

    def test_raw_block_must_be_shorter_than_its_array(self):
        parts, W = self._setup(2, 4)
        for lift in (None, lambda raws: raws[0][:2]):
            cl = Cluster(parts)
            with pytest.raises(ProtocolError):
                cl.gather_sum_blocks(
                    "up", lambda i, B, lo, hi: (2 * (hi - lo), (B @ W)[:2, lo:hi]), 4, 4, lift)
            assert cl.ledger.messages == []

    def test_parallel_working_set_is_one_block_per_machine(self):
        r, n_cols, block, s = 50, 20000, 512, 4
        cl = Cluster([np.zeros((1, 1))] * s, kind="column", parallel=True)
        tracemalloc.start()
        try:
            out = cl.gather_sum_blocks(
                "up", lambda i, B, lo, hi: np.full((r, hi - lo), i + 1.0), n_cols, block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(out == s * (s + 1) / 2)
        assert peak < 1.5 * out.nbytes


class TestOneRunPerCluster:
    """A cluster's ledger holds one protocol run; a second is bad input."""

    def test_second_run_is_refused_before_any_word_moves(self):
        A = rand_matrix(21, 10, 40)
        sparse = SparseColMatrix.from_dense(A)
        runs = [
            (Cluster([A[:, :20], A[:, 20:]], kind="column"), lambda cl: distributed_css_pca(
                cl, CssProtocolParams(k=1, eps=0.5, seed=1, c2=4))),
            (Cluster([sparse.take_columns(np.arange(20)),
                      sparse.take_columns(np.arange(20, 40))], kind="column"),
             lambda cl: distributed_css_pca_fast(
                 cl, FastCssProtocolParams(k=1, eps=0.5, seed=1, c2=4))),
            (Cluster(split_rows(A, 2, seed=3)), lambda cl: distributed_pca_arbitrary(
                cl, ArbProtocolParams(k=1, eps=0.5, seed=1))),
        ]
        for cl, run in runs:
            run(cl)
            messages = list(cl.ledger.messages)
            with pytest.raises(InputError, match="already run a protocol"):
                run(cl)
            assert cl.ledger.messages == messages


class TestNoDataOffTheLedger:
    """Protocols see the data only through per-machine steps: a cluster
    whose whole matrix cannot be read still runs every protocol."""

    @pytest.fixture(autouse=True)
    def _no_materialize(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a protocol read the whole matrix off the ledger")

        monkeypatch.setattr(Cluster, "materialize", refuse)

    def test_arbitrary_partition_both_branches(self):
        full = distributed_pca_arbitrary(
            Cluster(split_rows(rand_matrix(31, 20, 30), 3, seed=1)),
            ArbProtocolParams(k=3, eps=0.5, seed=1))
        low = distributed_pca_arbitrary(
            Cluster(split_rows(rank_exactly(32, 20, 30, 4), 3, seed=2)),
            ArbProtocolParams(k=3, eps=0.5, seed=2))
        assert full.branch == "smoothed" and "perturbed" in full.flags
        assert low.branch == "low-rank"

    def test_direct_smoothed_call(self):
        res = smoothed_protocol(Cluster(split_rows(rand_matrix(33, 20, 30), 2, seed=3)),
                                ArbProtocolParams(k=2, eps=0.5, seed=3))
        assert "perturbed" in res.flags

    def test_column_partition_protocols(self):
        A = rand_matrix(34, 10, 40)
        sparse = SparseColMatrix.from_dense(A)
        distributed_css_pca(Cluster([A[:, :20], A[:, 20:]], kind="column"),
                            CssProtocolParams(k=1, eps=0.5, seed=4, c2=4))
        distributed_css_pca_fast(
            Cluster([sparse.take_columns(np.arange(20)),
                     sparse.take_columns(np.arange(20, 40))], kind="column"),
            FastCssProtocolParams(k=1, eps=0.5, seed=4, c2=4))

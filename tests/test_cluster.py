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
from sketchpca import column_partition
from sketchpca.column_partition import CssProtocolParams, _gather_sketches, distributed_css_pca
from sketchpca.column_select_sparse import FastCssProtocolParams, distributed_css_pca_fast
from sketchpca.errors import InputError, InternalError, ProtocolError
from sketchpca.sparse import SparseColMatrix, scatter_add


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


class TestRecordBroadcast:
    def _cluster(self, s=3):
        return Cluster([np.zeros((2, 1))] * s, kind="column")

    def test_one_count_goes_to_every_machine(self):
        cl = self._cluster()
        cl.record_broadcast("down", 4)
        assert [(m.sender, m.receiver, m.words) for m in cl.ledger.messages] == [
            (SERVER, 0, 4), (SERVER, 1, 4), (SERVER, 2, 4)]

    def test_each_receiver_gets_its_own_count_in_one_round(self):
        cl = self._cluster()
        cl.record_broadcast("down", [5, 0, 7])
        assert [(m.round_no, m.sender, m.receiver, m.words, m.phase)
                for m in cl.ledger.messages] == [
            (1, SERVER, 0, 5, "down"), (1, SERVER, 1, 0, "down"), (1, SERVER, 2, 7, "down")]
        assert cl.ledger.phase_totals() == {"down": 12}

    @pytest.mark.parametrize("words", [[1, 2], [1, 2, 3, 4], []])
    def test_wrong_length_rejected_before_recording(self, words):
        cl = self._cluster()
        with pytest.raises(InputError, match="one word count per receiving machine"):
            cl.record_broadcast("down", words)
        assert cl.ledger.messages == []
        cl.record_gather("up", 1)
        assert cl.ledger.messages[0].round_no == 1


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
    """Stage 4's sketch round (column_partition._gather_sketches) gathers
    column blocks and sums them to the bits gather_sum gives on whole
    arrays.  Y^T is the identity here, so each projection is its block
    exactly, and only the order of the sums shows in the bits."""

    M = 9

    @classmethod
    def _arrays(cls, s, n_cols):
        return [rand_matrix(12 + i, cls.M, n_cols) for i in range(s)]

    @classmethod
    def _sparse(cls, seed, n_cols):
        # one nonzero per column, on a shared row pattern: 3 words a column,
        # against 9 for its projection, so every block ships raw
        X = np.zeros((cls.M, n_cols))
        X[np.arange(n_cols) % cls.M, np.arange(n_cols)] = rand_matrix(seed, 1, n_cols)[0]
        return X

    @classmethod
    def _gather(cls, cl, sketch, sketchers, n_cols):
        return _gather_sketches(cl, np.eye(cls.M), sketch, sketchers, n_cols)

    @classmethod
    def _cluster(cls, s, parallel=False):
        return Cluster([np.zeros((cls.M, 1))] * s, kind="column", parallel=parallel)

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("s", [1, 2, 4])
    @pytest.mark.parametrize("block", [1, 3, 7, 50])
    def test_matches_gather_sum(self, s, block, parallel, monkeypatch):
        monkeypatch.setattr(column_partition, "_FINALIZE_BLOCK", block)
        Xs = self._arrays(s, 7)
        whole = self._cluster(s)
        ref = whole.gather_sum("subspace-up", Xs)
        cl = self._cluster(s, parallel)
        got, raw = self._gather(cl, lambda i, lo, hi: Xs[i][:, lo:hi], list(range(s)), 7)
        assert got.tobytes() == ref.tobytes()
        assert raw == []
        assert cl.ledger.messages == whole.ledger.messages

    def test_each_block_asked_once_in_machine_order(self, monkeypatch):
        monkeypatch.setattr(column_partition, "_FINALIZE_BLOCK", 2)
        Xs = self._arrays(3, 5)
        calls = []

        def sketch(i, lo, hi):
            calls.append((lo, hi, i))
            return Xs[i][:, lo:hi]

        self._gather(self._cluster(3), sketch, [0, 1, 2], 5)
        assert calls == [(lo, min(lo + 2, 5), i) for lo in (0, 2, 4) for i in range(3)]

    def test_wrong_block_shape_rejected_before_recording(self, monkeypatch):
        # machine 1 sends one column too many, projected or raw
        monkeypatch.setattr(column_partition, "_FINALIZE_BLOCK", 4)
        for Xs in (self._arrays(2, 7), [self._sparse(20 + i, 7) for i in range(2)]):
            cl = self._cluster(2)
            with pytest.raises(ProtocolError):
                self._gather(cl, lambda i, lo, hi: Xs[i][:, lo:hi + i], [0, 1], 6)
            assert cl.ledger.messages == []

    @pytest.mark.parametrize("parallel", [False, True])
    def test_raw_blocks_are_summed_then_lifted_once(self, parallel, monkeypatch):
        # machines 1, 2 and 4 ship raw; the server adds the projections of
        # machines 0 and 3, then the lift of the raw blocks' machine-order sum
        monkeypatch.setattr(column_partition, "_FINALIZE_BLOCK", 2)
        lifts = []

        def scatter(shape, index, values):
            lifts.append((shape, values.size))
            return scatter_add(shape, index, values)

        monkeypatch.setattr(column_partition, "scatter_add", scatter)
        X = self._arrays(5, 5)
        for i in (1, 2, 4):
            X[i] = self._sparse(30 + i, 5)
        cl = self._cluster(5, parallel)
        got, raw = self._gather(cl, lambda i, lo, hi: X[i][:, lo:hi], list(range(5)), 5)
        ref = (X[0] + X[3]) + ((X[1] + X[2]) + X[4])
        assert got.tobytes() == ref.tobytes()
        assert lifts == [((9, 2), 6), ((9, 2), 6), ((9, 1), 3)]
        assert raw == [(6, 2)] * 6 + [(3, 1)] * 3
        # projections at r * xi = 45 words, raw columns at 3 words each
        assert [m.words for m in cl.ledger.messages] == [45, 15, 15, 45, 15]

    @pytest.mark.parametrize("parallel", [False, True])
    def test_only_the_listed_machines_send(self, parallel, monkeypatch):
        monkeypatch.setattr(column_partition, "_FINALIZE_BLOCK", 2)
        Xs = self._arrays(4, 5)
        asked = []

        def sketch(i, lo, hi):
            asked.append(i)
            return Xs[i][:, lo:hi]

        cl = self._cluster(4, parallel)
        got, _ = self._gather(cl, sketch, [1, 3], 5)
        assert got.tobytes() == (Xs[1] + Xs[3]).tobytes()
        assert sorted(set(asked)) == [1, 3]
        assert [(m.sender, m.words) for m in cl.ledger.messages] == [(1, 45), (3, 45)]

    def test_parallel_working_set_is_one_block_per_machine(self):
        r, n_cols, s = 50, 20000, 4
        cl = Cluster([np.zeros((r, 1))] * s, kind="column", parallel=True)
        YT = np.eye(r)
        tracemalloc.start()
        try:
            out, _ = _gather_sketches(cl, YT, lambda i, lo, hi: np.full((r, hi - lo), i + 1.0),
                                      list(range(s)), n_cols)
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

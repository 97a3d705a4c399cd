"""Turnstile streaming: sketch maintenance, one-pass solves, two-pass replay.

The state tests compare every maintained sketch against the dense product
it is defined to equal.  Linearity gets two tiers: run-initial exact-sum
splits must leave the sketches bitwise unchanged, arbitrary splits only
agree to roundoff.  Two-pass runs must match the one-machine distributed
protocol bit for bit, since both see the same rebuilt matrix.
"""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchpca.arbitrary_partition import ArbProtocolParams, distributed_pca_arbitrary
from sketchpca.cluster import Cluster
from sketchpca.errors import InputError, StreamReplayError
from sketchpca.fileio import read_stream_file, write_stream_file
from sketchpca.sketches import affine_dim, derive_seed, regression_dim, sign_sketch, srht_sketch
from sketchpca.streaming import (
    _BLOCK_COLS,
    _BLOCK_ROWS,
    _FOLD_CHUNK,
    _INGEST_BLOCK,
    _RECORD,
    TAG_AFFINE_LEFT,
    TAG_AFFINE_RIGHT,
    TAG_REGRESS_LEFT,
    TAG_REGRESS_RIGHT,
    FactorizationResult,
    OnePassResult,
    TurnstileSketchState,
    _walk,
    one_pass_factorization,
    one_pass_pca,
    stream_matrix,
    two_pass_pca,
)

from conftest import best_tail_sq, frob_sq, lowrank_plus_noise, rank_exactly


def random_stream(seed, m, n, q, delete_prob=0.2):
    """q base updates; some immediately negated to exercise deletions."""
    rng = np.random.default_rng(seed)
    ups = []
    for _ in range(q):
        i = int(rng.integers(m))
        j = int(rng.integers(n))
        x = float(rng.standard_normal())
        ups.append((i, j, x))
        if rng.random() < delete_prob:
            ups.append((i, j, -x))
    return ups


def column_order_stream(seed, m, n, transient_prob=0.1):
    """Every cell arrives once, column by column; after an arrival, with
    probability transient_prob a +d lands on a random cell, and its -d
    follows a later arrival.  Chunks then mix column-local runs with
    scattered cells."""
    rng = np.random.default_rng(seed)
    released = {}
    ups = []
    for t in range(m * n):
        j, i = divmod(t, m)
        ups.append((i, j, float(rng.standard_normal())))
        if rng.random() < transient_prob:
            cell = (int(rng.integers(m)), int(rng.integers(n)))
            d = float(rng.standard_normal())
            ups.append((*cell, d))
            released.setdefault(int(rng.integers(t, m * n)), []).append((*cell, -d))
        ups.extend(released.pop(t, []))
    return ups


def chunk_starts(ups):
    """Indices of the updates that open a fold chunk: the first update of
    coalesced increment number _FOLD_CHUNK * t, for t >= 1."""
    starts, prev, runs = [], None, 0
    for idx, (i, j, _) in enumerate(ups):
        if prev != (i, j):
            if runs and runs % _FOLD_CHUNK == 0:
                starts.append(idx)
            runs += 1
        prev = (i, j)
    return starts


def dense_to_stream(A):
    m, n = A.shape
    return [(i, j, float(A[i, j])) for i in range(m) for j in range(n)]


def replay_dense(m, n, ups):
    A = np.zeros((m, n))
    for i, j, x in ups:
        A[i, j] += x
    return A


def split_run_initial(ups, mode, seed):
    """Split roughly half of the run-initial updates in place.

    mode "half" -> (x/2, x/2), mode "cancel" -> (2x, -x); both part pairs
    sum exactly in floating point.
    """
    rng = np.random.default_rng(seed)
    out = []
    prev = None
    for i, j, x in ups:
        initial = prev != (i, j)
        prev = (i, j)
        if initial and rng.random() < 0.5:
            if mode == "half":
                out.append((i, j, x / 2))
                out.append((i, j, x / 2))
            else:
                out.append((i, j, 2 * x))
                out.append((i, j, -x))
        else:
            out.append((i, j, x))
    return out


SKETCH_NAMES = ("M", "L", "N", "D", "C")


def sketch_bytes(state):
    return tuple(
        getattr(state, name).tobytes()
        for name in SKETCH_NAMES
        if getattr(state, name) is not None
    )


def shuffled_cells(seed, m, n):
    """Every cell of an m x n matrix once, in random order."""
    rng = np.random.default_rng(seed)
    cells = rng.permutation(m * n)
    return [(int(c // n), int(c % n), float(rng.standard_normal())) for c in cells]


def coalesced(ups):
    """The coalesced increments of ups, each run summed left to right."""
    incs = []
    for i, j, x in ups:
        if incs and incs[-1][:2] == [i, j]:
            incs[-1][2] += x
        else:
            incs.append([i, j, x])
    return incs


def column_folds(ups):
    """Distinct columns per fold chunk, summed: the column count of the
    product blocks when no chunk touches more than _BLOCK_ROWS rows, since
    each column is then folded once per chunk that touches it."""
    incs = coalesced(ups)
    return sum(len({j for _, j, _ in incs[s:s + _FOLD_CHUNK]})
               for s in range(0, len(incs), _FOLD_CHUNK))


def assert_sketches_match(st_, A):
    """Every maintained sketch equals its dense product to 1e-10."""
    pairs = [
        (st_.M, st_.T_left @ A @ st_.T_right),
        (st_.L, st_.S @ A @ st_.T_right),
        (st_.N, st_.T_left @ A @ st_.R),
        (st_.D, A @ st_.R),
        (st_.C, st_.S @ A),
    ]
    for got, want in pairs:
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10


class TestStateOracle:
    def test_every_sketch_matches_its_dense_product(self):
        m, n = 32, 48
        ups = random_stream(7, m, n, 500)
        st_ = TurnstileSketchState(m, n, 3, 0.5, 11, track_columns=True).consume(ups)
        A = replay_dense(m, n, ups)
        pairs = [
            (st_.M, st_.T_left @ A @ st_.T_right),
            (st_.L, st_.S @ A @ st_.T_right),
            (st_.N, st_.T_left @ A @ st_.R),
            (st_.D, A @ st_.R),
            (st_.C, st_.S @ A),
        ]
        for got, want in pairs:
            denom = max(np.linalg.norm(want), 1e-30)
            assert np.linalg.norm(got - want) / denom < 1e-10

    def test_empty_stream_gives_zero_state(self):
        st_ = TurnstileSketchState(5, 6, 2, 0.5, 3, track_columns=True).consume([])
        for name in SKETCH_NAMES:
            assert not np.any(getattr(st_, name))
        assert st_.updates_applied == 0

    def test_single_update_is_the_expected_rank_one_term(self):
        st_ = TurnstileSketchState(5, 6, 2, 0.5, 3, track_columns=True).consume([(0, 0, 1.0)])
        assert st_.M.tobytes() == np.outer(st_.T_left[:, 0], st_.T_right[0, :]).tobytes()
        assert st_.L.tobytes() == np.outer(st_.S[:, 0], st_.T_right[0, :]).tobytes()
        assert st_.N.tobytes() == np.outer(st_.T_left[:, 0], st_.R[0, :]).tobytes()
        assert st_.D[0, :].tobytes() == st_.R[0, :].tobytes()
        assert not np.any(st_.D[1:, :])
        assert st_.C[:, 0].tobytes() == st_.S[:, 0].tobytes()

    def test_revisiting_an_entry_later_accumulates(self):
        st_ = TurnstileSketchState(4, 4, 1, 0.5, 9).consume(
            [(0, 0, 1.0), (1, 1, 2.0), (0, 0, 3.0)])
        A = np.zeros((4, 4))
        A[0, 0] = 4.0
        A[1, 1] = 2.0
        assert np.allclose(st_.D, A @ st_.R, rtol=1e-12, atol=1e-12)

    def test_same_seed_same_bits_fresh_state(self):
        ups = random_stream(21, 16, 20, 300)
        a = TurnstileSketchState(16, 20, 2, 0.5, 77, track_columns=True).consume(ups)
        b = TurnstileSketchState(16, 20, 2, 0.5, 77, track_columns=True).consume(ups)
        assert sketch_bytes(a) == sketch_bytes(b)

    def test_update_counter_counts_raw_updates(self):
        ups = random_stream(4, 8, 8, 100, delete_prob=0.5)
        st_ = TurnstileSketchState(8, 8, 2, 0.5, 1).consume(ups)
        assert st_.updates_applied == len(ups)


class TestLinearity:
    def test_run_initial_half_split_is_bitwise_invariant(self):
        ups = random_stream(7, 32, 48, 500)
        base = TurnstileSketchState(32, 48, 3, 0.5, 11, track_columns=True).consume(ups)
        sp = split_run_initial(ups, "half", 3)
        assert len(sp) > len(ups)
        other = TurnstileSketchState(32, 48, 3, 0.5, 11, track_columns=True).consume(sp)
        assert sketch_bytes(other) == sketch_bytes(base)

    def test_run_initial_cancel_split_is_bitwise_invariant(self):
        ups = random_stream(7, 32, 48, 500)
        base = TurnstileSketchState(32, 48, 3, 0.5, 11, track_columns=True).consume(ups)
        sp = split_run_initial(ups, "cancel", 3)
        assert len(sp) > len(ups)
        other = TurnstileSketchState(32, 48, 3, 0.5, 11, track_columns=True).consume(sp)
        assert sketch_bytes(other) == sketch_bytes(base)

    def test_consecutive_duplicates_coalesce_before_the_products(self):
        # a deletion pair must contribute exactly nothing, not a rounded
        # pair of rank-1 terms
        st_ = TurnstileSketchState(6, 6, 1, 0.5, 2, track_columns=True).consume(
            [(2, 3, 0.1), (2, 3, -0.1)])
        for name in SKETCH_NAMES:
            assert not np.any(getattr(st_, name))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_split_invariance_holds_across_streams(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 10)), int(rng.integers(2, 10))
        ups = random_stream(seed, m, n, 60, delete_prob=0.3)
        base = TurnstileSketchState(m, n, 2, 0.9, seed).consume(ups)
        mode = "half" if seed % 2 else "cancel"
        other = TurnstileSketchState(m, n, 2, 0.9, seed).consume(
            split_run_initial(ups, mode, seed + 1))
        assert sketch_bytes(other) == sketch_bytes(base)

    def test_arbitrary_splits_agree_to_roundoff(self):
        ups = random_stream(7, 32, 48, 500)
        base = TurnstileSketchState(32, 48, 3, 0.5, 11).consume(ups)
        rng = np.random.default_rng(5)
        sp = []
        for i, j, x in ups:
            if rng.random() < 0.5:
                sp.append((i, j, 0.3 * x))
                sp.append((i, j, 0.7 * x))
            else:
                sp.append((i, j, x))
        other = TurnstileSketchState(32, 48, 3, 0.5, 11).consume(sp)
        for name in ("M", "L", "N", "D"):
            want = getattr(base, name)
            got = getattr(other, name)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestChunkedFold:
    """Column-local runs that cross fold-chunk boundaries."""

    # enough cells for three chunk boundaries, whatever the chunk size
    m = 24
    n = 3 * _FOLD_CHUNK // m + 1

    def _stream(self):
        ups = column_order_stream(5, self.m, self.n)
        assert len(chunk_starts(ups)) >= 3
        return ups

    def test_every_sketch_matches_its_dense_product(self):
        ups = self._stream()
        st_ = TurnstileSketchState(self.m, self.n, 3, 0.5, 11,
                                   track_columns=True).consume(ups)
        assert_sketches_match(st_, replay_dense(self.m, self.n, ups))

    @pytest.mark.parametrize("mode", ["half", "cancel"])
    def test_splitting_a_chunk_opener_is_bitwise_invariant(self, mode):
        ups = self._stream()
        base = TurnstileSketchState(self.m, self.n, 3, 0.5, 11,
                                    track_columns=True).consume(ups)
        for idx in chunk_starts(ups):
            i, j, x = ups[idx]
            parts = [(i, j, x / 2)] * 2 if mode == "half" else [(i, j, 2 * x), (i, j, -x)]
            sp = ups[:idx] + parts + ups[idx + 1:]
            other = TurnstileSketchState(self.m, self.n, 3, 0.5, 11,
                                         track_columns=True).consume(sp)
            assert sketch_bytes(other) == sketch_bytes(base)

    def test_stored_sketches_keep_every_entry(self):
        m, n, k, eps, seed = 24, 40, 3, 0.5, 11
        st_ = TurnstileSketchState(m, n, k, eps, seed)
        xi1 = regression_dim(k, eps)
        xi = affine_dim(xi1, eps)
        want = {
            "S": sign_sketch(xi1, m, derive_seed(seed, TAG_REGRESS_LEFT)).materialize(),
            "R": sign_sketch(xi1, n, derive_seed(seed, TAG_REGRESS_RIGHT)).materialize().T,
            "T_left": srht_sketch(xi, m, derive_seed(seed, TAG_AFFINE_LEFT)).materialize(),
            "T_right": srht_sketch(xi, n, derive_seed(seed, TAG_AFFINE_RIGHT)).materialize().T,
        }
        for name, w in want.items():
            got = getattr(st_, name)
            assert got.shape == w.shape and got.tobytes() == np.ascontiguousarray(w).tobytes()
        assert st_.R.flags.c_contiguous and st_.T_right.flags.c_contiguous


# runs of run_stream for the ingest tests: three fold-chunk boundaries
INGEST_RUNS = 4 * _FOLD_CHUNK


class TestProductBlocks:
    """A fold sorts its chunk stably by column and folds it in product
    blocks of at most _BLOCK_ROWS distinct rows and _BLOCK_COLS distinct
    columns, whatever the shape of the matrix."""

    @staticmethod
    def _consume(monkeypatch, m, n, ups):
        """The state after ups, and the (rows, columns) of every product
        block it folded, each a list of distinct indices."""
        shapes = []
        fold_block = TurnstileSketchState._fold_block

        def recorded(self, ur, uc, ri, ci, vals):
            assert np.array_equal(ur, np.unique(ur)) and np.array_equal(uc, np.unique(uc))
            shapes.append((len(ur), len(uc)))
            fold_block(self, ur, uc, ri, ci, vals)

        monkeypatch.setattr(TurnstileSketchState, "_fold_block", recorded)
        st_ = TurnstileSketchState(m, n, 1, 1.0, 11, track_columns=True).consume(ups)
        assert_sketches_match(st_, replay_dense(m, n, ups))
        assert all(r <= _BLOCK_ROWS and c <= _BLOCK_COLS for r, c in shapes)
        return shapes

    def test_tall_stream_splits_blocks_by_rows(self, monkeypatch):
        ups = shuffled_cells(1, 4000, 4)
        shapes = self._consume(monkeypatch, 4000, 4, ups)
        assert max(r for r, _ in shapes) == _BLOCK_ROWS

    def test_wide_stream_splits_blocks_by_columns(self, monkeypatch):
        ups = shuffled_cells(2, 4, 4000)
        shapes = self._consume(monkeypatch, 4, 4000, ups)
        assert max(c for _, c in shapes) == _BLOCK_COLS
        assert sum(c for _, c in shapes) == column_folds(ups)

    def test_revisits_inside_a_chunk_sum_in_arrival_order(self, monkeypatch):
        m, n = 40, 60
        ups = random_stream(7, m, n, 2 * _FOLD_CHUNK)
        chunk = coalesced(ups)[:_FOLD_CHUNK]
        cells = [(i, j) for i, j, _ in chunk]
        # a repeated cell among coalesced increments is a non-adjacent revisit
        assert len(set(cells)) < len(cells)
        shapes = self._consume(monkeypatch, m, n, ups)
        assert max(c for _, c in shapes) == _BLOCK_COLS
        assert sum(c for _, c in shapes) == column_folds(ups)
        # folding the chunk equals folding each cell's arrival-order sum once
        sums = {}
        for i, j, x in chunk:
            sums[i, j] = sums.get((i, j), 0.0) + x
        folded = []
        for pairs in (chunk, [(i, j, x) for (i, j), x in sums.items()]):
            st_ = TurnstileSketchState(m, n, 1, 1.0, 11, track_columns=True)
            st_._fold(*(np.array(v) for v in zip(*pairs)))
            folded.append(sketch_bytes(st_))
        assert folded[0] == folded[1]

    def test_fold_peak_is_bounded_and_flat(self):
        # a tall stream: a chunk touches about 3,700 of the 20,000 rows, so
        # one unbounded block would gather an 80 x 3,700 slice of T_left
        m, n = 20_000, 4
        st_ = TurnstileSketchState(m, n, 1, 1.0, 3)
        xi1, xi2, xi3, xi4 = st_.xi1, st_.xi2, st_.xi3, st_.xi4
        br, bc = _BLOCK_ROWS, _BLOCK_COLS
        rng = np.random.default_rng(0)

        def peak(q):
            ups = np.empty(q, _RECORD)
            ups["i"], ups["j"] = rng.integers(m, size=q), rng.integers(n, size=q)
            ups["x"] = rng.standard_normal(q)
            st_ = TurnstileSketchState(m, n, 1, 1.0, 3)
            tracemalloc.start()
            try:
                st_.consume(ups)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(_FOLD_CHUNK)   # lazy imports inside numpy land outside the comparison
        short, long = peak(3 * _FOLD_CHUNK), peak(12 * _FOLD_CHUNK)
        assert long <= short + 64 * 1024
        # one block's gathered sketches and products, plus 16 words for each
        # update of one chunk and one ingest block (records, sort, indices);
        # the 80 x 3,700 slice alone would take 2.4 MB
        words = ((xi1 + xi3) * (br + bc + xi4) + (br + bc) * (bc + xi2)
                 + xi3 * xi2 + bc * xi4)
        assert long <= 8 * words + 128 * (_FOLD_CHUNK + _INGEST_BLOCK)


def run_stream(seed, m, n, runs):
    """runs coalescing runs of 1-4 updates each, every 40th of 10-29,
    adjacent runs on different entries.  Run _FOLD_CHUNK - 1 closes the
    first fold chunk and run _FOLD_CHUNK opens the second; both are long,
    and the run holding raw update _INGEST_BLOCK - 2 goes on past update
    _INGEST_BLOCK, across an ingest block."""
    rng = np.random.default_rng(seed)
    lengths = [int(rng.integers(10, 30) if r % 40 == 0 else rng.integers(1, 5))
               for r in range(runs)]
    lengths[_FOLD_CHUNK - 1], lengths[_FOLD_CHUNK] = 5, 3
    ends = np.cumsum(lengths)
    r = int(np.searchsorted(ends, _INGEST_BLOCK - 2, side="right"))
    lengths[r] = _INGEST_BLOCK + 2 - int(ends[r] - lengths[r])
    ups, prev = [], None
    for length in lengths:
        cell = prev
        while cell == prev:
            cell = (int(rng.integers(m)), int(rng.integers(n)))
        ups.extend((*cell, float(rng.standard_normal())) for _ in range(length))
        prev = cell
    return ups


def run_of(ups, idx):
    """Start and end (exclusive) of the coalescing run holding ups[idx]."""
    lo, hi = idx, idx + 1
    while lo and ups[lo - 1][:2] == ups[idx][:2]:
        lo -= 1
    while hi < len(ups) and ups[hi][:2] == ups[idx][:2]:
        hi += 1
    return lo, hi


class TestArrayIngest:
    """consume() reads raw updates from any iterable in blocks of arrays;
    the open run and the partial fold chunk carry across blocks, so any
    block boundaries give the same bits."""

    m, n = 12, 16

    def _state(self):
        return TurnstileSketchState(self.m, self.n, 3, 0.5, 11, track_columns=True)

    def _stream(self):
        ups = run_stream(3, self.m, self.n, INGEST_RUNS)
        lo, hi = run_of(ups, _INGEST_BLOCK - 1)
        assert lo < _INGEST_BLOCK - 1 and hi > _INGEST_BLOCK
        assert len(chunk_starts(ups)) >= 3
        opener = chunk_starts(ups)[0]
        assert ups[opener - 1][:2] == ups[opener - 2][:2]
        assert run_of(ups, opener)[1] - opener > 1
        assert len(ups) > 2 * _INGEST_BLOCK
        return ups

    def test_runs_sum_like_one_running_float(self):
        # the reference coalesces in a Python loop; the long runs are where a
        # pairwise or blocked sum would round differently
        ups = self._stream()
        incs = coalesced(ups)
        ref = self._state()
        for s in range(0, len(incs), _FOLD_CHUNK):
            r, c, v = zip(*incs[s:s + _FOLD_CHUNK])
            ref._fold(np.array(r), np.array(c), np.array(v))
        assert sketch_bytes(ref) == sketch_bytes(self._state().consume(ups))

    def test_generator_equals_list(self):
        ups = self._stream()
        gen = self._state().consume(u for u in ups)
        assert sketch_bytes(gen) == sketch_bytes(self._state().consume(ups))

    @pytest.mark.parametrize("bad,later", [
        ((12, 0, 1.0), (0, 0, float("nan"))),
        ((0, -1, 1.0), (0, 16, 1.0)),
        ((0, 0, float("nan")), (99, 0, 1.0)),
        ((3, 4, float("-inf")), (12, 3, 1.0)),
        ((1.5, 0, 1.0), (0, 16, 1.0)),
    ])
    @pytest.mark.parametrize("at", [5, _INGEST_BLOCK + 300])
    def test_first_bad_update_raises_the_update_message(self, bad, later, at):
        ups = self._stream()
        with pytest.raises(InputError) as want:
            self._state().consume([bad])
        seq = ups[:at] + [bad] + ups[at:at + 50] + [later] + ups[at + 50:]
        with pytest.raises(InputError) as got:
            self._state().consume(seq)
        assert str(got.value) == str(want.value)
        with pytest.raises(InputError) as walked:
            stream_matrix(iter(seq), self.m, self.n)
        assert str(walked.value) == str(want.value)

    def test_stream_matrix_adds_in_arrival_order(self):
        ups = random_stream(5, 4, 5, 3000)
        assert stream_matrix(ups, 4, 5).tobytes() == replay_dense(4, 5, ups).tobytes()

    def test_replay_digest_hashes_packed_updates(self):
        ups = self._stream()
        want = hashlib.blake2b(digest_size=16)
        for i, j, x in ups:
            want.update(struct.pack("<qqd", i, j, x))
        assert _walk(ups, self.m, self.n) == (want.digest(), len(ups))

    def test_peak_does_not_grow_with_the_stream(self):
        # the generator hands out the same 997 tuples over and over, so the
        # stream allocates no objects of its own; one int64 array over the
        # 180k extra updates would add 1.4 MB
        rng = np.random.default_rng(0)
        pattern = [(int(rng.integers(32)), int(rng.integers(48)), float(rng.standard_normal()))
                   for _ in range(997)]

        def peak(q):
            st_ = TurnstileSketchState(32, 48, 3, 0.5, 1)
            ups = (pattern[t % len(pattern)] for t in range(q))
            tracemalloc.start()
            try:
                st_.consume(ups)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2_000)   # lazy imports inside numpy land outside the comparison
        assert abs(peak(200_000) - peak(20_000)) < 128 * 1024


class TestRecordArrays:
    """read_stream_file returns a _RECORD array; it must give the same bits
    and the same errors as the list of tuples it stands for."""

    m, n = 12, 16

    def _file(self, tmp_path):
        ups = run_stream(3, self.m, self.n, INGEST_RUNS)
        lo, hi = run_of(ups, _INGEST_BLOCK - 1)
        assert lo < _INGEST_BLOCK - 1 and hi > _INGEST_BLOCK
        assert len(chunk_starts(ups)) >= 3
        # a transient +d on an entry, taken back 500 updates later
        ups[1800:1800] = [(5, 7, -0.375)]
        ups[1300:1300] = [(5, 7, 0.375)]
        p = tmp_path / "runs.stream"
        write_stream_file(p, (self.m, self.n), ups)
        return ups, read_stream_file(p)

    def test_file_records_equal_the_tuples(self, tmp_path):
        ups, (shape, rec) = self._file(tmp_path)
        assert shape == (self.m, self.n) and rec.dtype == _RECORD
        assert rec.tolist() == ups

    def test_solvers_give_the_same_bits(self, tmp_path):
        ups, (_, rec) = self._file(tmp_path)
        args = (self.m, self.n, 3, 0.5, 11)
        for solve in (one_pass_pca, one_pass_factorization, two_pass_pca):
            a, b = solve(rec, *args), solve(ups, *args)
            for name in ("U", "T", "sigma", "K"):
                if hasattr(a, name):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (stream_matrix(rec, self.m, self.n).tobytes()
                == stream_matrix(ups, self.m, self.n).tobytes())
        assert _walk(rec, self.m, self.n) == _walk(ups, self.m, self.n)

    @pytest.mark.parametrize("bad", [(12, 0, 1.0), (0, 16, 1.0), (0, -1, 1.0),
                                     (3, 4, float("nan")), (3, 4, float("-inf"))])
    def test_bad_record_raises_the_tuple_message(self, tmp_path, bad):
        ups, (_, rec) = self._file(tmp_path)
        at = _INGEST_BLOCK + 300
        with pytest.raises(InputError) as want:
            stream_matrix(ups[:at] + [bad] + ups[at:], self.m, self.n)
        rec = np.insert(rec, at, bad)
        for run in (lambda: stream_matrix(rec, self.m, self.n),
                    lambda: one_pass_pca(rec, self.m, self.n, 3, 0.5, 11)):
            with pytest.raises(InputError) as got:
                run()
            assert str(got.value) == str(want.value)


class TestValidation:
    def test_out_of_range_indices_rejected(self):
        st_ = TurnstileSketchState(4, 5, 1, 0.5, 0)
        with pytest.raises(InputError):
            st_.consume([(4, 0, 1.0)])
        with pytest.raises(InputError):
            st_.consume([(0, 5, 1.0)])
        with pytest.raises(InputError):
            st_.consume([(-1, 0, 1.0)])

    def test_non_finite_increment_rejected(self):
        st_ = TurnstileSketchState(4, 5, 1, 0.5, 0)
        with pytest.raises(InputError):
            st_.consume([(0, 0, float("nan"))])
        with pytest.raises(InputError):
            st_.consume([(0, 0, float("inf"))])

    @pytest.mark.parametrize("bad", [(1.5, 0, 1.0), (0, 2.25, 1.0), (float("nan"), 0, 1.0)])
    def test_non_integral_index_rejected_by_every_reader(self, bad, tmp_path):
        # an int64 record field would truncate 1.5 to row 1
        readers = [
            lambda ups: TurnstileSketchState(4, 4, 1, 0.5, 0).consume(ups),
            lambda ups: stream_matrix(ups, 4, 4),
            lambda ups: two_pass_pca(ups, 4, 4, 1, 0.5, 0),
            lambda ups: write_stream_file(tmp_path / "s.stream", (4, 4), ups),
        ]
        for read in readers:
            with pytest.raises(InputError) as err:
                read([(0, 0, 1.0), bad])
            assert str(err.value) == (f"update ({bad[0]}, {bad[1]}, {bad[2]}) "
                                      "has an index that is not an integer")

    def test_integral_float_index_is_the_integer(self):
        a = TurnstileSketchState(4, 4, 1, 0.5, 0).consume([(2.0, np.float64(3), 1.0)])
        b = TurnstileSketchState(4, 4, 1, 0.5, 0).consume([(2, 3, 1.0)])
        assert sketch_bytes(a) == sketch_bytes(b)

    def test_constructor_validation(self):
        with pytest.raises(InputError):
            TurnstileSketchState(0, 5, 1, 0.5, 0)
        with pytest.raises(InputError):
            TurnstileSketchState(4, 5, 0, 0.5, 0)
        with pytest.raises(InputError):
            TurnstileSketchState(4, 5, 1, 0.0, 0)


class TestSpaceAccounting:
    def test_reference_shape_word_counts(self):
        st_ = TurnstileSketchState(64, 100, 5, 0.5, 0)
        assert (st_.xi1, st_.xi2, st_.xi3, st_.xi4) == (100, 100, 64, 128)
        assert st_.space_words() == 64 * 128 + 100 * 128 + 64 * 100 + 64 * 100
        assert st_.space_words() == 33792
        tracked = TurnstileSketchState(64, 100, 5, 0.5, 0, track_columns=True)
        assert tracked.space_words() == 33792 + 100 * 100

    def test_words_follow_the_closed_form_generally(self):
        st_ = TurnstileSketchState(30, 41, 2, 0.7, 1, track_columns=True)
        want = (st_.xi3 * st_.xi4 + st_.xi1 * st_.xi4 + st_.xi3 * st_.xi2
                + 30 * st_.xi2 + st_.xi1 * 41)
        assert st_.space_words() == want

    def test_width_overrides_change_the_state(self):
        st_ = TurnstileSketchState(16, 16, 2, 0.5, 0,
                                   xi_regression=6, xi_affine=8)
        assert st_.xi1 == 6 and st_.xi3 == 8 and st_.xi4 == 8
        assert st_.space_words() == 8 * 8 + 6 * 8 + 8 * 6 + 16 * 6

    def test_init_peak_is_a_few_times_the_sketches(self):
        # the 80 x 4000 affine sketch of a 4096-padded width is built from
        # Hadamard parity in row blocks, with no padded n x n transform
        tracemalloc.start()
        try:
            st_ = TurnstileSketchState(4, 4000, 1, 1.0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = st_.S.size + st_.R.size + st_.T_left.size + st_.T_right.size
        assert peak <= 4 * 8 * cells


class TestOnePass:
    def test_recovers_a_rank_k_stream(self):
        rng = np.random.default_rng(0)
        A = rank_exactly(rng, 20, 30, 3)
        res = one_pass_pca(dense_to_stream(A), 20, 30, 3, 0.5, 5)
        assert isinstance(res, OnePassResult)
        assert res.U.shape == (20, 3)
        assert np.allclose(res.U.T @ res.U, np.eye(3), atol=1e-10)
        assert not res.deficient
        err = frob_sq(A - res.U @ (res.U.T @ A))
        assert err <= 1e-10 * frob_sq(A)

    def test_zero_stream_reports_deficiency(self):
        res = one_pass_pca([], 10, 12, 3, 0.5, 5)
        assert res.deficient
        assert res.rank == 0
        assert res.U.shape == (10, 0)

    def test_result_records_space_and_updates(self):
        ups = random_stream(3, 16, 20, 200)
        res = one_pass_pca(ups, 16, 20, 2, 0.5, 9)
        want = TurnstileSketchState(16, 20, 2, 0.5, 9).space_words()
        assert res.space_words == want
        assert res.updates == len(ups)
        assert res.seed == 9

    def test_quality_tracks_the_optimal_tail(self):
        ratios = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = lowrank_plus_noise(rng, 64, 100, 5, 0.05)
            res = one_pass_pca(dense_to_stream(A), 64, 100, 5, 0.5, seed)
            err = frob_sq(A - res.U @ (res.U.T @ A))
            ratios.append(err / best_tail_sq(A, 5))
        assert float(np.median(ratios)) <= 1.5

    def test_deterministic_given_seed(self):
        ups = random_stream(8, 24, 30, 300)
        a = one_pass_pca(ups, 24, 30, 3, 0.5, 4)
        b = one_pass_pca(ups, 24, 30, 3, 0.5, 4)
        assert a.U.tobytes() == b.U.tobytes()


class TestOnePassFactorization:
    def test_factors_have_contract_shapes(self):
        ups = random_stream(6, 20, 25, 300)
        res = one_pass_factorization(ups, 20, 25, 3, 0.5, 2)
        assert isinstance(res, FactorizationResult)
        r = res.sigma.shape[0]
        assert r <= 3
        assert res.T.shape == (20, r)
        assert res.K.shape == (r, 25)
        assert np.all(res.sigma >= 0)
        assert np.all(np.diff(res.sigma) <= 0)

    def test_recovers_a_rank_k_stream(self):
        rng = np.random.default_rng(1)
        A = rank_exactly(rng, 20, 30, 3)
        res = one_pass_factorization(dense_to_stream(A), 20, 30, 3, 0.5, 5)
        assert frob_sq(A - res.matrix()) <= 1e-8 * frob_sq(A)

    def test_costs_the_extra_column_sketch(self):
        res = one_pass_factorization([(0, 0, 1.0)], 64, 100, 5, 0.5, 0)
        assert res.space_words == 33792 + 100 * 100

    def test_quality_tracks_the_optimal_tail(self):
        ratios = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = lowrank_plus_noise(rng, 64, 100, 5, 0.05)
            res = one_pass_factorization(dense_to_stream(A), 64, 100, 5, 0.5, seed)
            ratios.append(frob_sq(A - res.matrix()) / best_tail_sq(A, 5))
        assert float(np.median(ratios)) <= 1.5


class TestTwoPass:
    def test_low_rank_stream_takes_the_low_rank_branch(self):
        rng = np.random.default_rng(2)
        A = rank_exactly(rng, 18, 24, 3)
        res = two_pass_pca(dense_to_stream(A), 18, 24, 3, 0.5, 6)
        assert res.branch == "low-rank"
        err = frob_sq(A - res.U @ (res.U.T @ A))
        assert err <= 1e-10 * frob_sq(A)

    def test_full_rank_stream_takes_the_smoothed_branch(self):
        rng = np.random.default_rng(3)
        A = lowrank_plus_noise(rng, 18, 24, 3, 0.05)
        res = two_pass_pca(dense_to_stream(A), 18, 24, 3, 0.5, 6)
        assert res.branch == "smoothed"

    @pytest.mark.parametrize("kind", ["low", "noisy"])
    def test_matches_the_one_machine_protocol_bitwise(self, kind):
        rng = np.random.default_rng(4)
        if kind == "low":
            A = rank_exactly(rng, 16, 22, 2)
            ups = dense_to_stream(A)
        else:
            ups = random_stream(4, 16, 22, 400)
        res = two_pass_pca(ups, 16, 22, 2, 0.5, 13)
        direct = distributed_pca_arbitrary(
            Cluster([replay_dense(16, 22, ups)], kind="arbitrary"),
            ArbProtocolParams(k=2, eps=0.5, seed=13))
        assert res.U.tobytes() == direct.U.tobytes()
        assert res.branch == direct.branch
        assert res.rank == direct.rank
        assert res.phase_words == direct.phase_words
        assert res.total_words == direct.total_words

    def test_callable_source_gets_a_fresh_iterator_per_pass(self):
        ups = random_stream(9, 12, 14, 150)
        res = two_pass_pca(lambda: iter(ups), 12, 14, 2, 0.5, 3)
        same = two_pass_pca(ups, 12, 14, 2, 0.5, 3)
        assert res.U.tobytes() == same.U.tobytes()

    def test_exhausted_generator_raises_replay_error(self):
        ups = random_stream(9, 12, 14, 150)
        gen = (u for u in ups)
        with pytest.raises(StreamReplayError):
            two_pass_pca(gen, 12, 14, 2, 0.5, 3)

    def test_source_that_changes_between_passes_raises(self):
        ups = random_stream(9, 12, 14, 150)
        calls = []

        def source():
            calls.append(None)
            if len(calls) == 1:
                return iter(ups)
            mutated = list(ups)
            mutated[5] = (0, 0, 42.0)
            return iter(mutated)

        with pytest.raises(StreamReplayError):
            two_pass_pca(source, 12, 14, 2, 0.5, 3)

    def test_peak_holds_one_rebuilt_matrix(self):
        # pass two only fingerprints the stream, so the process holds one
        # m x n matrix plus the low-rank branch's small sketches
        m, n = 64, 4096
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(m), rng.standard_normal(n)

        def source():
            for i in range(m):
                row = u[i] * v
                for j in range(n):
                    yield i, j, row[j]

        tracemalloc.start()
        try:
            res = two_pass_pca(source, m, n, 1, 1.0, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.branch == "low-rank"
        assert peak < 1.5 * 8 * m * n

    def test_validates_updates_like_the_state(self):
        with pytest.raises(InputError):
            two_pass_pca([(99, 0, 1.0)], 12, 14, 2, 0.5, 3)
        with pytest.raises(InputError):
            two_pass_pca([(0, 0, float("nan"))], 12, 14, 2, 0.5, 3)

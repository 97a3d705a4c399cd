"""Coordinator-model simulator with exact word accounting.

One server talks to s machines; machines never talk to each other.  Every
transfer is recorded in an append-only ledger as (round, from, to, words,
phase), where a word is one scalar.  Shipping a column of height m costs
min(2 * nnz, m) + 1 words: a header plus (row index, value) pairs, or all m
values when that is fewer.

The simulator runs machine steps sequentially by default.  Parallel mode
uses a thread pool but collects results by machine index before anything
touches shared state, so transcripts and numerics are identical in both
modes.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InputError, InternalError, ProtocolError
from .linalg import nonzero_row_range
from .sparse import SparseColMatrix

SERVER = -1


@dataclass(frozen=True)
class Message:
    round_no: int
    sender: int
    receiver: int
    words: int
    phase: str


class CommLedger:
    """Append-only transcript of every simulated transfer."""

    def __init__(self):
        self.messages: list[Message] = []

    def record(self, round_no: int, sender: int, receiver: int, words: int, phase: str):
        if words < 0:
            raise InputError("message word count must be nonnegative")
        self.messages.append(Message(round_no, sender, receiver, int(words), phase))

    def total(self) -> int:
        return sum(m.words for m in self.messages)

    def total_for(self, phase: str) -> int:
        return sum(m.words for m in self.messages if m.phase == phase)

    def phase_totals(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for m in self.messages:
            out[m.phase] = out.get(m.phase, 0) + m.words
        return out

    def check(self, expected: dict[str, int]) -> None:
        """Double-entry check: the phase totals against counts recomputed
        from the shipped payloads."""
        got = self.phase_totals()
        if got != expected:
            raise InternalError(f"ledger mismatch: got {got}, expected {expected}")

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(
            {"round": m.round_no, "from": m.sender, "to": m.receiver,
             "words": m.words, "phase": m.phase}) for m in self.messages)


class Cluster:
    """s machines holding a partitioned matrix, plus a coordinating server.

    kind "arbitrary": each part is a dense m x n summand of A, and
                      row_ranges[i] is the nonzero row range of part i
                      (linalg.nonzero_row_range), found once here: the
                      machine's products run over those rows only.
    kind "column":    part i holds a contiguous block of columns, dense or
                      column-sparse; global column l belongs to the machine
                      whose offset range contains l.
    """

    def __init__(self, parts, *, kind: str = "arbitrary", parallel: bool = False):
        if kind not in ("arbitrary", "column"):
            raise InputError(f"unknown partition kind {kind!r}")
        if not parts:
            raise InputError("cluster needs at least one machine")
        self.kind = kind
        self.parallel = parallel
        self.ledger = CommLedger()
        self._round = 0

        if kind == "arbitrary":
            self.parts = [np.asarray(p, dtype=np.float64) for p in parts]
            shapes = {p.shape for p in self.parts}
            if len(shapes) != 1 or self.parts[0].ndim != 2:
                raise InputError("arbitrary partition needs equal-shape dense parts")
            self.m, self.n = self.parts[0].shape
            self.row_ranges = [nonzero_row_range(p) for p in self.parts]
            self.col_offsets = None
        else:
            self.parts = [p if isinstance(p, SparseColMatrix)
                          else np.asarray(p, dtype=np.float64) for p in parts]
            heights = {p.shape[0] for p in self.parts}
            if len(heights) != 1:
                raise InputError("column partition needs a common row count")
            self.m = self.parts[0].shape[0]
            self.row_ranges = None
            widths = [p.shape[1] for p in self.parts]
            self.col_offsets = [0]
            for w in widths:
                self.col_offsets.append(self.col_offsets[-1] + w)
            self.n = self.col_offsets[-1]

    @property
    def s(self) -> int:
        return len(self.parts)

    def part_dense(self, i: int) -> np.ndarray:
        p = self.parts[i]
        return p.to_dense() if isinstance(p, SparseColMatrix) else p

    def map_machines(self, fn, machines=None):
        """fn(i, part) for every machine, or for the listed machines only,
        results ordered by machine index."""
        ids = range(self.s) if machines is None else sorted(machines)
        if self.parallel and len(ids) > 1:
            with ThreadPoolExecutor(max_workers=len(ids)) as pool:
                return list(pool.map(fn, ids, [self.parts[i] for i in ids]))
        return [fn(i, self.parts[i]) for i in ids]

    # -- accounting -----------------------------------------------------

    def next_round(self) -> int:
        self._round += 1
        return self._round

    def record_broadcast(self, phase: str, words_each: int) -> None:
        r = self.next_round()
        for i in range(self.s):
            self.ledger.record(r, SERVER, i, words_each, phase)

    def record_gather(self, phase: str, words, machines=None) -> None:
        """One round in which every machine, or each listed machine, sends
        the server words (one count for all, or one per sender)."""
        ids = range(self.s) if machines is None else sorted(machines)
        per = [words] * len(ids) if isinstance(words, int) else list(words)
        if len(per) != len(ids):
            raise InputError("need one word count per sending machine")
        r = self.next_round()
        for i, w in zip(ids, per):
            self.ledger.record(r, i, SERVER, w, phase)

    def gather_sum(self, phase: str, arrays) -> np.ndarray:
        """Sum per-machine arrays in machine order, recording the gather of
        each machine's array.size words.

        The left-to-right reduction order is canonical: floating-point
        addition is not associative, and protocol transcripts are compared
        bitwise.
        """
        arrays = list(arrays)
        if len(arrays) != self.s:
            raise ProtocolError("gather_sum needs one array per machine")
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ProtocolError(f"gather_sum shape mismatch: {sorted(shapes)}")
        self.record_gather(phase, int(arrays[0].size))
        return reduce(np.add, arrays)

    def gather_sum_blocks(self, phase: str, fn, n_cols: int, block: int,
                          lift=None, machines=None) -> np.ndarray:
        """gather_sum of per-machine r x n_cols arrays that machines (every
        machine, or the listed ones) compute and send in column blocks.

        fn(i, part, lo, hi) is machine i's columns lo..hi-1; block is the
        width of every block but the last.  The machines compute one block
        (through map_machines, so in parallel when the cluster is) and its
        pieces are summed into the result before the next block, so no
        machine's whole array exists and the working set stays the size of
        one block per machine.  Every entry is ((a_0 + a_1) + a_2) + ... in
        machine order, the sum gather_sum forms.

        A machine sends its r x (hi - lo) array at its size or, given lift,
        a pair (words, raw): the block in an encoding of words < r * (hi - lo),
        so its length alone tells it apart.  lift(raws) maps the raw blocks
        of one column block, in machine order, to the r x (hi - lo) sum
        they stand for, which is added after the arrays' sum.
        """
        if block < 1:
            raise InputError("column block width must be positive")
        ids = range(self.s) if machines is None else sorted(machines)
        if not ids:
            raise InputError("a gather needs at least one sending machine")
        bounds = [(lo, min(lo + block, n_cols)) for lo in range(0, n_cols, block)]
        words = dict.fromkeys(ids, 0)
        total = None
        for lo, hi in bounds or [(0, 0)]:
            sent = dict(zip(ids, self.map_machines(lambda i, p: fn(i, p, lo, hi), ids)))
            raw = {i: a for i, a in sent.items() if isinstance(a, tuple)}
            terms = [(f"machine {i}", a) for i, a in sent.items() if i not in raw]
            if raw:
                if lift is None:
                    raise ProtocolError(f"gather_sum_blocks: machine {min(raw)} sent an "
                                        "encoded block to a gather with no lift")
                terms.append((f"the lift of machines {list(raw)}",
                              lift([b for _, b in raw.values()])))
            for who, a in terms:
                if total is None:
                    total = np.empty((a.shape[0], n_cols), dtype=a.dtype)
                if a.shape != (total.shape[0], hi - lo) or a.dtype != total.dtype:
                    raise ProtocolError(
                        f"gather_sum_blocks: {who} sent a {a.dtype} block of shape "
                        f"{a.shape} for columns {lo}:{hi} of a {total.dtype} "
                        f"{total.shape[0]} x {n_cols} sum")
            full = total.shape[0] * (hi - lo)
            for i, a in sent.items():
                if i in raw and not raw[i][0] < full:
                    raise ProtocolError(
                        f"gather_sum_blocks: machine {i} encoded columns {lo}:{hi} in "
                        f"{raw[i][0]} words, not fewer than the {full} of its array")
                words[i] += raw[i][0] if i in raw else a.size
            total[:, lo:hi] = terms[0][1]
            for _, a in terms[1:]:
                np.add(total[:, lo:hi], a, out=total[:, lo:hi])
        self.record_gather(phase, list(words.values()), ids)
        return total

    # -- whole-matrix views ---------------------------------------------

    def materialize(self) -> np.ndarray:
        """The logical matrix A, combined in canonical machine order."""
        if self.kind == "arbitrary":
            return reduce(np.add, self.parts)
        return np.hstack([self.part_dense(i) for i in range(self.s)])

    def machine_of_column(self, l: int) -> tuple[int, int]:
        """Map a global column index to (machine, local index)."""
        if self.kind != "column":
            raise InputError("column lookup only applies to column partitions")
        if not 0 <= l < self.n:
            raise InputError(f"column {l} out of range")
        for i in range(self.s):
            if l < self.col_offsets[i + 1]:
                return i, l - self.col_offsets[i]
        raise InputError("unreachable")

"""Coordinator-model simulator with exact word accounting.

One server talks to s machines; machines never talk to each other.  Every
transfer is recorded in an append-only ledger as (round, from, to, words,
phase), where a word is one scalar.  The ledger records the words a protocol
says it passes; how a payload is encoded, and so what it costs, is the
protocol's business (column_partition prices a column, for one).

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

    def record_broadcast(self, phase: str, words) -> None:
        """One round in which the server sends every machine words (one
        count for all, or one per receiver)."""
        per = self._per_machine(words, self.s, "receiving")
        r = self.next_round()
        for i, w in enumerate(per):
            self.ledger.record(r, SERVER, i, w, phase)

    def record_gather(self, phase: str, words, machines=None) -> None:
        """One round in which every machine, or each listed machine, sends
        the server words (one count for all, or one per sender)."""
        ids = range(self.s) if machines is None else sorted(machines)
        per = self._per_machine(words, len(ids), "sending")
        r = self.next_round()
        for i, w in zip(ids, per):
            self.ledger.record(r, i, SERVER, w, phase)

    @staticmethod
    def _per_machine(words, count: int, role: str) -> list:
        per = [words] * count if isinstance(words, int) else list(words)
        if len(per) != count:
            raise InputError(f"need one word count per {role} machine")
        return per

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

"""One workload process: set up, run a closed loop of solves, report JSON.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src and the
BLAS thread count fixed in the environment):

    python3 perfbench/worker.py META_JSON MODE SECONDS FIRST

Every mode measures set-up up to the end of a warm-up solve (solve index
FIRST - 1).  MODE "run" then times solves FIRST, FIRST+1, ... for SECONDS;
"final" does the same, then re-runs solve FIRST and makes one untimed solve
under tracemalloc.  MODE "trace" times untraced solves for half the time,
then repeats the same seeds with every layer wrapped in spans for the
other half.  The last stdout line is the report.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import threading
import tracemalloc
from time import perf_counter

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

FIRST_INDEX = 1
# Exact counts are read from the first COUNT_SOLVES successful solves, which
# every run makes, so two runs of one seed report identical counts however
# many solves their time allowed.
COUNT_SOLVES = 3


def solve_seed(seed: int, index: int) -> int:
    """Protocol seed of solve `index`; a fresh one per solve defeats any
    seed-keyed memoisation across solves."""
    h = hashlib.blake2b(f"perfbench:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


class Loop:
    """Closed loop of solves on one client, with per-solve checks."""

    def __init__(self, meta: dict, loaded, A: np.ndarray):
        self.meta, self.loaded, self.A = meta, loaded, A
        self.attempted = 0
        self.failed = 0
        self.raised: list[str] = []      # failed operations
        self.failures: list[str] = []    # wrong outputs, failed run checks

    def solve(self, index: int, call=None):
        """(seconds, Outcome or None, ratio) for one checked solve."""
        seed = solve_seed(self.meta["seed"], index)
        self.attempted += 1
        if threading.active_count() != 1:
            raise RuntimeError("another thread is running; counts would mix")
        try:
            t0 = perf_counter()
            out = (call or workloads.solve)(self.meta, self.loaded, seed)
            dt = perf_counter() - t0
        except Exception as exc:          # a raising solve is a failed solve
            self.failed += 1
            self.raised.append(f"solve {index}: {type(exc).__name__}: {exc}")
            return None, None, None
        bad, r = checks.solve_failures(out, self.A, self.meta["k"], self.meta["tail_sq"])
        if bad:
            self.fail(f"solve {index}: " + "; ".join(bad))
            return dt, None, r
        return dt, out, r

    def fail(self, why: str, solve: bool = True) -> None:
        """Record a failed check; solve=False for a check on the whole run."""
        self.failed += solve
        self.failures.append(why)


def timed(loop: Loop, seconds: float, first: int) -> dict:
    """Solve indices first, first+1, ... until `seconds` pass and at least
    COUNT_SOLVES of them succeeded (or ten times that many were tried)."""
    results = {}
    end = perf_counter() + seconds
    index = first
    while perf_counter() < end or (len(ok_indices(results)) < COUNT_SOLVES
                                   and len(results) < 10 * COUNT_SOLVES):
        results[index] = loop.solve(index)
        index += 1
    return results


def ok_indices(results: dict) -> list:
    return [i for i, r in results.items() if r[1] is not None]


def run(loop: Loop, seconds: float, first: int, final: bool) -> dict:
    """Timed solves; the final worker also re-runs its first seed and
    measures the peak of one untimed solve."""
    results = timed(loop, seconds, first)
    ok = ok_indices(results)
    rep = {"times": [results[i][0] for i in ok], "ratios": [results[i][2] for i in ok]}
    if len(ok) < COUNT_SOLVES:
        return rep
    heads = [results[i][1] for i in ok[:COUNT_SOLVES]]
    for name in ("total_words", "space_words", "updates"):
        if getattr(heads[0], name) is not None:
            rep[name] = statistics.median_low(getattr(o, name) for o in heads)
    if not final:
        return rep
    _, again, _ = loop.solve(ok[0])
    if again is None or (again.U.tobytes() != heads[0].U.tobytes()
                         or again.ledger() != heads[0].ledger()):
        loop.fail("re-running the first seed changed U or the ledger")
    gc.collect()
    tracemalloc.start()
    try:
        loop.solve(first - 1)
        rep["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep


def _per_solve_counts(out, touches: int) -> dict:
    c = {"column_select_sparse.touches": touches}
    if out.phase_words is not None:
        for phase, words in out.phase_words.items():
            c[f"cluster.words.{phase}"] = words
    if out.branch is not None:
        c["arbitrary_partition.smoothed_share"] = float(out.branch == "smoothed")
        c["arbitrary_partition.retries"] = int(out.retried)
    if out.c_actual is not None:
        c["column_partition.c_actual"] = out.c_actual
        c["column_partition.xi"] = out.xi
    if out.updates is not None:
        c["streaming.updates"] = out.updates
    return c


def trace(loop: Loop, seconds: float, tracer: Tracer, trace_path: str) -> dict:
    plain = timed(loop, seconds / 2, FIRST_INDEX)
    counts: dict = {}

    def traced_call(index):
        def call(meta, loaded, seed):
            before = workloads.touches()
            out = tracer.root(index, workloads.solve, meta, loaded, seed)
            counts[index] = {**tracer.counts[index],
                             **_per_solve_counts(out, workloads.touches() - before)}
            return out
        return call

    tracer.install()
    try:
        traced = {}
        end = perf_counter() + seconds / 2
        for index in ok_indices(plain):
            if len(ok_indices(traced)) >= COUNT_SOLVES and perf_counter() >= end:
                break
            traced[index] = loop.solve(index, traced_call(index))
        first_ok = min(counts, default=None)
        if first_ok is not None:
            loop.solve(first_ok, traced_call("repeat"))
            if counts[first_ok] != counts.get("repeat"):
                loop.fail("exact counts differ between two traced solves of one seed")
    finally:
        tracer.uninstall()
    tracer.write_json_lines(trace_path)

    for index, (_, out, _) in traced.items():
        ref = plain[index][1]
        if out is not None and ref is not None and out.U.tobytes() != ref.U.tobytes():
            loop.fail(f"traced solve {index} returned different U bytes")
    common = [i for i in ok_indices(traced) if plain[i][1] is not None]
    if len(common) < COUNT_SOLVES:
        return {}
    t_plain = statistics.median(plain[i][0] for i in common)
    t_traced = statistics.median(traced[i][0] for i in common)
    selfs = tracer.self_times()
    per_time = []
    for i in common:
        per = dict(selfs[i])
        total = per.pop("bench.total")
        per.pop("bench", None)
        per["trace.coverage"] = sum(per.values()) / total
        per_time.append(per)
    per_count = [counts[i] for i in common[:COUNT_SOLVES]]
    # a key a solve never reached (a layer or ledger phase) counts as 0 there;
    # counts take the lower median so that they stay exact integers
    means = {"arbitrary_partition.smoothed_share", "arbitrary_partition.retries"}
    rep = {}
    for key in set().union(*per_time):
        rep[key] = statistics.median(p.get(key, 0.0) for p in per_time)
    for key in set().union(*per_count):
        values = [p.get(key, 0) for p in per_count]
        rep[key] = (statistics.fmean(values) if key in means
                    else statistics.median_low(values))
    rep["trace.overhead"] = t_traced / t_plain - 1.0
    rep["times"] = [traced[i][0] for i in common]
    return rep


def main(argv: list[str]) -> int:
    meta_path, mode, seconds, first = argv[0], argv[1], float(argv[2]), int(argv[3])
    with open(meta_path) as fh:
        meta = json.load(fh)
    A = np.load(meta["reference"])
    tracer = Tracer()

    t0 = perf_counter()
    import sketchpca  # noqa: F401  (set-up time starts before the import)
    if mode == "trace":
        tracer.install()
        try:
            loaded = tracer.root("load", workloads.load, meta)
        finally:
            tracer.uninstall()
    else:
        loaded = workloads.load(meta)
    loop = Loop(meta, loaded, A)
    loop.solve(first - 1)               # warm-up
    setup_s = perf_counter() - t0

    rep = {"setup_s": setup_s}
    if not np.array_equal(checks.loaded_matrix(meta["workload"], loaded, A.shape), A):
        loop.fail("the parsed input differs from the benchmark's reference matrix",
                  solve=False)
    if mode in ("run", "final"):
        rep.update(run(loop, seconds, first, mode == "final"))
    else:
        rep.update(trace(loop, seconds, tracer, meta["trace_path"]))
        sel = tracer.self_times()["load"]
        rep["fileio.read_s"] = sel.get("fileio.read_s", 0.0)
        rep["fileio.bytes"] = tracer.counts["load"].get("fileio.bytes", 0)
    rep["attempted"] = loop.attempted
    rep["failed"] = loop.failed
    rep["raised"] = loop.raised
    rep["failures"] = loop.failures
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The four workloads as calls into sketchpca's public entry points.

``load`` is the set-up a user pays once (parse the input through
``sketchpca.fileio``, split it across machines); ``solve`` is one call of
the workload's entry point, Cluster construction included, on one client
with ``parallel=False``.  Entry points are looked up on their modules at
call time so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np


def _mod(name: str):
    return importlib.import_module(f"sketchpca.{name}")


@dataclass
class Outcome:
    """What the checks and metrics read from one solve's result."""

    U: np.ndarray
    deficient: bool
    phase_words: dict | None = None
    total_words: int | None = None
    space_words: int | None = None
    updates: int | None = None
    branch: str | None = None
    retried: bool = False
    c_actual: int | None = None
    xi: int | None = None

    def ledger(self):
        """Exact counts that must repeat for a repeated seed."""
        return (self.phase_words, self.total_words, self.space_words, self.updates)


def _bounds(total: int, s: int) -> list[int]:
    return [round(i * total / s) for i in range(s + 1)]


def load(meta: dict):
    """Parse the input and build what every solve reuses."""
    fileio = _mod("fileio")
    name, s = meta["workload"], meta["s"]
    if name == "stream-turnstile":
        (m, n), updates = fileio.read_stream_file(meta["input"])
        return updates
    A = fileio.read_matrix_market(meta["input"])
    if name == "arb-dense":
        # row-block summands: part i is A with every other row block zeroed
        b = _bounds(A.shape[0], s)
        parts = []
        for i in range(s):
            P = np.zeros_like(A)
            P[b[i]:b[i + 1]] = A[b[i]:b[i + 1]]
            parts.append(P)
        return parts
    b = _bounds(meta["n"], s)
    if name == "css-exact":
        return [A[:, b[i]:b[i + 1]] for i in range(s)]
    return [A.take_columns(np.arange(b[i], b[i + 1])) for i in range(s)]


def solve(meta: dict, loaded, seed: int) -> Outcome:
    name, k, eps = meta["workload"], meta["k"], meta["eps"]
    if name == "stream-turnstile":
        res = _mod("streaming").one_pass_pca(loaded, meta["m"], meta["n"], k, eps, seed)
        return Outcome(res.U, res.deficient, space_words=res.space_words,
                       updates=res.updates)
    Cluster = _mod("cluster").Cluster
    if name == "arb-dense":
        ap = _mod("arbitrary_partition")
        res = ap.distributed_pca_arbitrary(
            Cluster(loaded, kind="arbitrary", parallel=False),
            ap.ArbProtocolParams(k=k, eps=eps, seed=seed))
        return Outcome(res.U, res.deficient, res.phase_words, res.total_words,
                       branch=res.branch, retried=res.retried)
    cluster = Cluster(loaded, kind="column", parallel=False)
    if name == "css-exact":
        cp = _mod("column_partition")
        res = cp.distributed_css_pca(cluster, cp.CssProtocolParams(k=k, eps=eps, seed=seed))
    else:
        css = _mod("column_select_sparse")
        res = css.distributed_css_pca_fast(cluster, css.FastCssProtocolParams(
            k=k, eps=eps, seed=seed, delta=meta["delta"]))
    deficient = res.rank < k or "rank-deficient" in res.flags
    return Outcome(res.U, deficient, res.phase_words, res.total_words,
                   c_actual=res.c_actual, xi=res.xi)


def touches() -> int:
    """The sparse kernels' process-wide entry-touch count."""
    return _mod("column_select_sparse").TOUCHES.count

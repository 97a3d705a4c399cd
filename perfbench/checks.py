"""Correctness checks written with numpy alone, independent of sketchpca.

Every solve is scored against the benchmark's own reference matrix: its
basis must be finite and orthonormal, have k columns unless the result
flags rank deficiency, carry a ledger whose phases sum to its total, and
project no better than the optimal rank-k tail (which would mean the
reference or the scoring is wrong).
"""

from __future__ import annotations

from math import comb

import numpy as np

ORTHO_TOL = 1e-8
RATIO_FLOOR = 1.0 - 1e-9
RATIO_P50_CEILING = 1.5


def raises_plausible(raised: int, attempted: int, delta: float | None) -> bool:
    """Whether `raised` of `attempted` solves raising fits a protocol that
    declares failure probability at most delta (None: it declares none).

    A randomized protocol that detects its own failure and raises has not
    returned a wrong output; the run is still wrong when raises are more
    frequent than delta makes plausible (binomial tail below 1e-3).
    """
    if raised == 0:
        return True
    if not delta:
        return False
    tail = sum(comb(attempted, j) * delta**j * (1.0 - delta) ** (attempted - j)
               for j in range(raised, attempted + 1))
    return tail >= 1e-3


def ratio(A: np.ndarray, U: np.ndarray, tail_sq: float) -> float:
    """||A - U U^T A||_F^2 over the best rank-k tail."""
    R = A - U @ (U.T @ A)
    return float(np.sum(R * R)) / tail_sq


def solve_failures(out, A: np.ndarray, k: int, tail_sq: float) -> tuple[list[str], float | None]:
    """(failed checks, ratio) for one solve's Outcome."""
    U = out.U
    bad = []
    if U.ndim != 2 or U.shape[0] != A.shape[0] or not np.all(np.isfinite(U)):
        return ["U is not a finite m-row matrix"], None
    if np.abs(U.T @ U - np.eye(U.shape[1])).max(initial=0.0) > ORTHO_TOL:
        bad.append("U columns are not orthonormal to 1e-8")
    if U.shape[1] != k and not out.deficient:
        bad.append(f"U has {U.shape[1]} columns, expected {k} with no deficiency flag")
    if out.phase_words is not None and sum(out.phase_words.values()) != out.total_words:
        bad.append("ledger phases do not sum to total_words")
    r = ratio(A, U, tail_sq)
    if not r >= RATIO_FLOOR:
        bad.append(f"ratio {r!r} is below the optimal tail")
    return bad, r


def loaded_matrix(workload: str, loaded, shape) -> np.ndarray:
    """The matrix the program parsed, rebuilt with numpy for comparison."""
    A = np.zeros(shape)
    if workload == "stream-turnstile":
        rows, cols, vals = (np.array(c) for c in zip(*loaded))
        np.add.at(A, (rows.astype(np.int64), cols.astype(np.int64)), vals)
    elif workload == "arb-dense":
        for P in loaded:
            A += P
    elif workload == "css-exact":
        A = np.hstack(loaded)
    else:
        lo = 0
        for P in loaded:
            cols = lo + np.repeat(np.arange(P.n_cols), np.diff(P.indptr))
            A[P.indices, cols] = P.data
            lo += P.n_cols
    return A

"""Column subset selection kernels.

The centerpiece is a deterministic dual-objective column sampler built on
the barrier-potential method: given the top right singular block V of a
matrix and its residual E, it selects a small weighted column set whose
restriction keeps V well conditioned while never inflating the residual
mass.  Both guarantees are asserted at runtime; they are what downstream
protocols rely on, so a violation is a bug, not a statistical fluke.

On top of it sit deterministic CSS (select from one matrix) and
residual-proportional adaptive sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalError
from .linalg import (
    as_matrix,
    orthonormal_basis,
    span_residual_sq,
    svd,
)

_POST_SLACK = 1e-9


@dataclass(frozen=True)
class SamplingMatrix:
    """Weighted column selection S with distinct ascending indices.

    Represents the w x ell matrix with S[indices[t], t] = weights[t]; ell is
    the number of stored entries.  It is below the barrier walk's budget
    when the walk added weight to a column it had already chosen.
    """

    source_cols: int
    indices: np.ndarray
    weights: np.ndarray

    @property
    def ell(self) -> int:
        return int(self.indices.size)

    def apply_to(self, M: np.ndarray) -> np.ndarray:
        """M @ S for a matrix with source_cols columns."""
        M = np.asarray(M, dtype=np.float64)
        if M.shape[1] != self.source_cols:
            raise InputError("operand columns disagree with sampler width")
        return M[:, self.indices] * self.weights[None, :]

    def materialize(self) -> np.ndarray:
        S = np.zeros((self.source_cols, self.ell))
        S[self.indices, np.arange(self.ell)] = self.weights
        return S


def bss_sampling(V, E, ell: int) -> SamplingMatrix:
    """Barrier-walk column sampling for the pair (V, E).

    V (w x k) must have orthonormal columns; E (anything x w) carries the
    per-column costs f_j = ||E_j||^2.  Runs ell barrier steps.  A column is
    eligible when its minimal barrier-restoring weight t both exists and
    fits the per-step residual budget t * f_j <= ||E||_F^2 / (1-sqrt(k/ell));
    an averaging argument shows some column always does.  Among eligible
    columns the step prefers ones not picked yet (so the support generically
    has ell distinct members) and breaks ties by smallest t * f_j.  Weights
    are rescaled by (1 - sqrt(k/ell)) / ell at the end.

    Guaranteed postconditions, asserted before returning:
      sigma_k(V.T S)^2 >= (1 - sqrt(k/ell))^2
      ||E S||_F^2      <= ||E||_F^2
    """
    V = as_matrix(V, "V")
    E = as_matrix(E, "E")
    w, k = V.shape
    if k < 1 or w < k:
        raise InputError(f"V needs at least as many rows as columns, got {V.shape}")
    if E.shape[1] != w:
        raise InputError("E must have one column per row of V")
    if not ell > k:
        raise InputError(f"budget ell={ell} must exceed k={k}")
    if ell > 0 and np.abs(V.T @ V - np.eye(k)).max() > 1e-8:
        raise InputError("V must have orthonormal columns")

    f = np.sum(E * E, axis=0)
    # per-step budget; ell of these, after rescale, sum to ||E||_F^2 exactly
    step_budget = float(np.sum(f)) / (1.0 - math.sqrt(k / ell))
    B = np.zeros((k, k))
    L = -math.sqrt(ell * k)
    s_vec = np.zeros(w)

    for _ in range(ell):
        Lp = L + 1.0
        lam, Q = np.linalg.eigh(B)
        if lam[0] <= Lp:
            raise InternalError("barrier invariant broken: spectrum reached the wall")
        d1 = 1.0 / (lam - Lp)
        gap = Lp - L
        # Phi_{L'} - Phi_L, summed in eigenbasis for accuracy
        delta = float(np.sum(gap / ((lam - Lp) * (lam - L))))
        M1 = (Q * d1) @ Q.T
        M2 = (Q * d1 * d1) @ Q.T
        p = np.einsum("wk,wk->w", V @ M1, V)
        q = np.einsum("wk,wk->w", V @ M2, V)
        denom = q - delta * p
        feasible = denom > 0.0
        if not np.any(feasible):
            raise InternalError("no feasible barrier step; potential argument violated")
        t_min = np.full(w, np.inf)
        t_min[feasible] = delta / denom[feasible]
        step_cost = np.full(w, np.inf)
        step_cost[feasible] = t_min[feasible] * f[feasible]
        eligible = step_cost <= step_budget * (1.0 + 1e-12) + 1e-300
        if not np.any(eligible):
            raise InternalError("no column fits the residual budget")
        fresh = eligible & (s_vec == 0.0)
        pool = fresh if np.any(fresh) else eligible
        cost = np.full(w, np.inf)
        cost[pool] = step_cost[pool]
        # zero-cost ties resolve to the lowest candidate index
        j = int(np.argmin(cost))
        t = float(t_min[j])
        s_vec[j] += t
        B += t * np.outer(V[j], V[j])
        L = Lp

    s_vec *= (1.0 - math.sqrt(k / ell)) / ell
    idx = np.nonzero(s_vec)[0].astype(np.int64)
    weights = np.sqrt(s_vec[idx])
    sampler = SamplingMatrix(w, idx, weights)

    VS = sampler.apply_to(V.T)
    sig = np.linalg.svd(VS, compute_uv=False)
    lower = (1.0 - math.sqrt(k / ell)) ** 2
    if sig[k - 1] ** 2 < lower * (1.0 - _POST_SLACK):
        raise InternalError(
            f"spectral floor violated: {sig[k - 1] ** 2:.3e} < {lower:.3e}")
    es = float(np.sum(sampler.apply_to(E) ** 2))
    ee = float(np.sum(E * E))
    if es > ee * (1.0 + _POST_SLACK) + 1e-12:
        raise InternalError(f"residual mass grew: {es:.6e} > {ee:.6e}")
    return sampler


@dataclass(frozen=True)
class CssResult:
    """Columns chosen from the source matrix, verbatim and unweighted."""

    indices: np.ndarray
    columns: np.ndarray


def deterministic_css(G, k: int, c: int) -> CssResult:
    """Select exactly c columns of G whose span nearly carries the top-k
    structure.

    Asserts the deterministic guarantee
      ||G - C C^+ G||_F^2 <= (1 + (1 - sqrt(k/c))^-2) * ||G - G_k||_F^2.
    A barrier walk that revisits a column yields fewer than c picks; the
    remainder is refilled with the heaviest unpicked residual columns, which
    only grows the span, so the bound survives and the count is always c.
    """
    G = as_matrix(G, "G")
    if k < 1 or k > min(G.shape):
        raise InputError(f"k={k} out of range for shape {G.shape}")
    if not k < c <= G.shape[1]:
        raise InputError(f"need k < c <= n_cols, got c={c}")
    F = svd(G)
    Vk = F.V[:, :k]
    E = G - (G @ Vk) @ Vk.T
    sampler = bss_sampling(Vk, E, c)
    indices = sampler.indices
    if indices.size < c:
        mass = np.sum(E * E, axis=0)
        mass[indices] = -1.0
        extra = np.argsort(-mass, kind="stable")[:c - indices.size]
        indices = np.sort(np.concatenate([indices, extra.astype(indices.dtype)]))
    C = G[:, indices]
    bound = (1.0 + 1.0 / (1.0 - math.sqrt(k / c)) ** 2) * np.sum(F.sigma[k:] ** 2)
    got = span_residual_sq(G, C)
    if got > bound * (1.0 + _POST_SLACK) + 1e-12:
        raise InternalError(f"css residual {got:.6e} exceeds bound {bound:.6e}")
    return CssResult(indices, C)


# -- adaptive residual sampling ----------------------------------------


@dataclass(frozen=True)
class AdaptiveSample:
    indices: np.ndarray
    probs: np.ndarray
    empty: bool


def sample_proportional(weights, count: int, seed: int) -> np.ndarray:
    """count i.i.d. draws proportional to nonnegative weights, by inverting
    the cumulative sum.  Returns an empty array when all weights vanish."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise InputError("sampling weights must be nonnegative")
    total = float(w.sum())
    if count < 0:
        raise InputError("count must be nonnegative")
    if total <= 0.0 or count == 0 or w.size == 0:
        return np.zeros(0, dtype=np.int64)
    cum = np.cumsum(w / total)
    cum[-1] = 1.0
    u = np.random.default_rng(seed).random(count)
    idx = np.searchsorted(cum, u, side="right")
    return np.clip(idx, 0, w.size - 1).astype(np.int64)


def adaptive_cols(A, V, c2: int, beta: float, seed: int) -> AdaptiveSample:
    """Sample c2 column indices of A proportional to residual mass after
    projecting out span(V).

    beta is the oversampling knob of the sampler's published signature,
    which the acceptance contract calls; with true probabilities it only
    needs validating.  A residual that is identically zero yields an empty
    draw with the empty flag set.
    """
    A = as_matrix(A, "A")
    V = as_matrix(V, "V")
    if V.shape[0] != A.shape[0]:
        raise InputError("V must have the same number of rows as A")
    if beta <= 0:
        raise InputError("beta must be positive")
    Y = orthonormal_basis(V)
    Psi = A - Y @ (Y.T @ A)
    mass = np.sum(Psi * Psi, axis=0)
    total = float(mass.sum())
    scale = max(1.0, float(np.sum(A * A)))
    if total <= 1e-24 * scale:
        return AdaptiveSample(np.zeros(0, dtype=np.int64), np.zeros(A.shape[1]), True)
    probs = mass / total
    idx = sample_proportional(mass, c2, seed)
    return AdaptiveSample(idx, probs, False)


# -- residual magnitude rounding ---------------------------------------


def residual_beta(r_sq: float) -> float:
    """Round a residual magnitude up to the nearest power of two.

    Powers of two map to themselves, zero (or anything below 1e-24) maps to
    zero, and otherwise r_sq <= beta < 2 r_sq.  Protocols ship beta as one
    word instead of the raw residual.
    """
    if r_sq < 0 or not math.isfinite(r_sq):
        raise InputError("residual must be finite and nonnegative")
    if r_sq <= 1e-24:
        return 0.0
    mant, exp = math.frexp(r_sq)
    return r_sq if mant == 0.5 else float(2.0 ** exp)

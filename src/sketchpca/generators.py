"""Adversarial and synthetic instances for exercising the protocols.

Two families are adversarial.  The dense family hides all of the rank-k
signal on one machine behind a rounding wall: the other machines hold
scaled identities whose columns are individually worthless but collectively
pin the tail, so a protocol cannot cheat by ignoring small machines.  The
sparse family is a block matrix whose columns all lean on a shared heavy
coordinate; any small column subset provably misses the optimal rank-k
error by a (1 + eps) factor, which an exhaustive scan verifies.  The third
generator is plain benchmark plumbing: planted low rank plus noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cluster import Cluster
from .errors import InputError, InternalError
from .linalg import colspan_residual_sq, qr, round_to_multiple, tail_sq
from .sparse import SparseColMatrix

# refuse exhaustive subset scans beyond this many subsets
_SCAN_LIMIT = 10_000


@dataclass(frozen=True)
class HardDenseSpec:
    """Shape of the dense adversarial column partition.

    wall is the rounding denominator: machine 1 entries are integer
    multiples of 1 / wall, the identity machines are scaled by 1 / wall.
    Defaults to (s k m)^3, large enough that rounding noise stays far
    below every quantity the protocols compare.
    """

    m: int
    k: int
    s: int
    n: int
    wall: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.k < 1 or self.n < 1:
            raise InputError("dimensions must be positive")
        if self.k > self.m:
            raise InputError("k can be at most m")
        if self.s < 2:
            raise InputError("the construction needs at least 2 machines")
        if self.n < self.s * self.m:
            raise InputError("need n >= s * m columns")
        if self.wall is not None and not self.wall >= 2.0:
            raise InputError("wall must be at least 2")

    @property
    def denominator(self) -> float:
        if self.wall is not None:
            return float(self.wall)
        return float(self.s * self.k * self.m) ** 3


def gen_dense_hard(spec: HardDenseSpec, seed: int) -> Cluster:
    """Column-partitioned cluster whose signal sits on machine 1 only.

    Machine 1 holds a random orthonormal m x k factor rounded to the wall
    grid; machines 2..s-1 hold (1/wall) I_m; machine s holds zeros wide
    enough to pad the total width to n.  Construction quality is asserted:
    the rounded factor stays within 2k/wall of orthonormal entrywise, and
    the whole matrix stays within s*m/wall^2 of rank k.
    """
    B = spec.denominator
    rng = np.random.default_rng(seed)
    R = qr(rng.standard_normal((spec.m, spec.k)))[0]
    Rt = round_to_multiple(R, 1.0 / B)
    gram_err = float(np.max(np.abs(Rt.T @ Rt - np.eye(spec.k))))
    if gram_err > 2.0 * spec.k / B:
        raise InternalError(
            f"rounded factor drifted from orthonormal: {gram_err:.3e}")

    t = spec.n - spec.k - (spec.s - 2) * spec.m
    parts = [Rt]
    parts += [np.eye(spec.m) / B for _ in range(spec.s - 2)]
    parts.append(np.zeros((spec.m, t)))

    # the zero block cannot move the tail, so check without it
    residual = tail_sq(np.hstack(parts[:-1]), spec.k)
    if not residual < spec.s * spec.m / (B * B):
        raise InternalError(
            f"tail {residual:.3e} exceeds the construction bound")
    return Cluster(parts, kind="column")


@dataclass(frozen=True)
class HardCssSpec:
    """Shape of the sparse column-selection adversary.

    The guarantee covers subsets of at most floor(k / (2 eps)) columns;
    eps also sets the (1 + eps) margin the scan checks against.
    """

    k: int
    phi: int
    eps: float

    def __post_init__(self):
        if self.k < 1:
            raise InputError("k must be at least 1")
        if self.phi < 1:
            raise InputError("phi must be at least 1")
        if not 0.0 < self.eps:
            raise InputError("eps must be positive")

    @property
    def subset_size(self) -> int:
        return int(math.floor(self.k / (2.0 * self.eps)))

    @property
    def shape(self) -> tuple[int, int]:
        return ((self.phi + 1) * self.k, self.phi * self.k)


def gen_css_hard(spec: HardCssSpec, *, rotate: bool = False, seed: int = 0,
                 granularity: float | None = None) -> SparseColMatrix:
    """Block-diagonal matrix with k blocks of shape (phi+1) x phi.

    Column i of each block is e_1 + e_{i+1}: two nonzeros, one shared with
    every sibling column.  rotate=True multiplies from the left by a
    random orthonormal matrix rounded to the granularity grid (default
    rows^-3), which destroys the sparsity pattern while provably keeping
    small column subsets bad.
    """
    m, n = spec.shape
    block, i = divmod(np.arange(n, dtype=np.int64), spec.phi)
    base = block * (spec.phi + 1)
    indices = np.column_stack([base, base + i + 1]).ravel()
    A = SparseColMatrix((m, n), 2 * np.arange(n + 1, dtype=np.int64), indices, np.ones(2 * n))
    if not rotate:
        return A
    rng = np.random.default_rng(seed)
    L = qr(rng.standard_normal((m, m)))[0]
    unit = granularity if granularity is not None else float(m) ** -3
    Lt = round_to_multiple(L, unit)
    return SparseColMatrix.from_dense(Lt @ A.to_dense())


def css_hard_min_ratio(A, k: int, subset_size: int) -> float:
    """Exhaustively scan column subsets of the given size.

    Returns the minimum over subsets of the rank-k error restricted to the
    subset's span, divided by the optimal rank-k tail.  The instance is
    adversarial when this stays above 1 + eps.  Scans beyond the subset
    budget are refused rather than silently slow.
    """
    dense = A.to_dense() if isinstance(A, SparseColMatrix) else np.asarray(A, dtype=np.float64)
    n = dense.shape[1]
    if subset_size < 1:
        raise InputError("the guarantee must cover at least one column")
    if subset_size > n:
        raise InputError("subset size exceeds the column count")
    if math.comb(n, subset_size) > _SCAN_LIMIT:
        raise InputError(
            f"{math.comb(n, subset_size)} subsets exceed the scan budget")
    tail = tail_sq(dense, k)
    if tail <= 0.0:
        raise InputError("instance is exactly rank k; the ratio is undefined")
    worst = math.inf
    for cols in itertools.combinations(range(n), subset_size):
        err = colspan_residual_sq(dense, dense[:, list(cols)], k)
        worst = min(worst, err / tail)
    return worst


def gen_lowrank_noise(m: int, n: int, k: int, noise_scale: float, seed: int) -> np.ndarray:
    """X Y^T with standard normal factors, plus entrywise Gaussian noise."""
    if not 1 <= k <= min(m, n):
        raise InputError("need 1 <= k <= min(m, n)")
    if noise_scale < 0.0:
        raise InputError("noise scale must be nonnegative")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, k))
    Y = rng.standard_normal((n, k))
    A = X @ Y.T
    if noise_scale > 0.0:
        A = A + noise_scale * rng.standard_normal((m, n))
    return A

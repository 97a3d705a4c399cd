"""Seeded workload inputs, built and written with the benchmark's own numpy.

Nothing here imports sketchpca: a change to the package's generators, file
writers or seed derivation cannot change what the benchmark feeds it.  Each
builder returns the reference matrix the checks score against (for the
stream, the matrix its updates imply, accumulated in arrival order) and
writes the input file the program parses.  Files use the text formats that
``sketchpca.fileio`` reads, with 17 significant digits so that parsing
reproduces the reference bits exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Shapes and protocol knobs per workload.  "full" is what the benchmark
# times; "smoke" is the reduced size its own test runs.
WORKLOADS = {
    "arb-dense": {
        "full": {"m": 500, "n": 2000}, "smoke": {"m": 60, "n": 200},
        "rank": 10, "k": 10, "eps": 0.5, "s": 4, "salt": 1,
    },
    "css-exact": {
        "full": {"m": 100, "n": 1000}, "smoke": {"m": 40, "n": 120},
        "rank": 3, "k": 3, "eps": 0.5, "s": 4, "salt": 2,
    },
    "css-sparse": {
        # at 500x2000 about 8% of solves raise InternalError in the sketched
        # barrier sampler's distortion-slack check; at this shape none did
        # in 20 seeds (CHANGES.md)
        "full": {"m": 1000, "n": 4000}, "smoke": {"m": 80, "n": 240},
        "rank": 3, "k": 3, "eps": 0.5, "s": 4, "delta": 0.05, "salt": 3,
        "max_col_nnz": 8,
    },
    "stream-turnstile": {
        "full": {"m": 128, "n": 384}, "smoke": {"m": 48, "n": 64},
        "rank": 5, "k": 5, "eps": 0.5, "salt": 4, "transient_prob": 0.1,
    },
}

NOISE = 0.1
_FMT = "%.17g"


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _planted(rng: np.random.Generator, m: int, n: int, rank: int) -> np.ndarray:
    return (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            + NOISE * rng.standard_normal((m, n)))


def _write_dense(path, A: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        np.savetxt(fh, A.ravel(order="F"), fmt=_FMT)


def _write_coordinate(path, shape, rows, cols, vals) -> None:
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{shape[0]} {shape[1]} {len(vals)}\n")
        np.savetxt(fh, np.column_stack([rows + 1, cols + 1, vals]),
                   fmt=["%d", "%d", _FMT])


def _write_stream(path, shape, rows, cols, vals) -> None:
    with open(path, "w") as fh:
        fh.write(f"{shape[0]} {shape[1]} {len(vals)}\n")
        np.savetxt(fh, np.column_stack([rows + 1, cols + 1, vals]),
                   fmt=["%d", "%d", _FMT])


def _dense(spec, size, seed, path):
    m, n = spec[size]["m"], spec[size]["n"]
    A = _planted(_rng(seed, spec["salt"]), m, n, spec["rank"])
    _write_dense(path, A)
    return A, m * n


def _column_sparse(spec, size, seed, path):
    """1..max_col_nnz nonzeros per column, valued from a planted factor."""
    m, n = spec[size]["m"], spec[size]["n"]
    rng = _rng(seed, spec["salt"])
    left = rng.standard_normal((m, spec["rank"]))
    right = rng.standard_normal((spec["rank"], n))
    rows, cols, vals = [], [], []
    for j in range(n):
        r = np.sort(rng.choice(m, int(rng.integers(1, spec["max_col_nnz"] + 1)),
                               replace=False))
        v = left[r] @ right[:, j] + NOISE * rng.standard_normal(r.size)
        rows.append(r)
        cols.append(np.full(r.size, j))
        vals.append(v)
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    if np.any(vals == 0.0):
        raise RuntimeError("a stored value is exactly zero; parsers drop those")
    A = np.zeros((m, n))
    A[rows, cols] = vals
    _write_coordinate(path, (m, n), rows, cols, vals)
    return A, int(vals.size)


def _turnstile(spec, size, seed, path):
    """Column-order arrivals of a planted matrix plus transient cells.

    After an arrival, with probability transient_prob a +d lands on a
    random cell; its -d is released after a later arrival chosen uniformly
    from the rest of the stream, so the stream mixes column-local runs with
    scattered insert/delete pairs.
    """
    m, n = spec[size]["m"], spec[size]["n"]
    rng = _rng(seed, spec["salt"])
    A = _planted(rng, m, n, spec["rank"])
    q = m * n
    base_j, base_i = np.divmod(np.arange(q), m)
    hit = np.nonzero(rng.random(q) < spec["transient_prob"])[0]
    cell_i = rng.integers(0, m, hit.size)
    cell_j = rng.integers(0, n, hit.size)
    d = rng.standard_normal(hit.size)
    release = rng.integers(hit + 1, q + 1) - 1   # after an arrival in (hit, q)
    # event order: arrival t, then its +d, then every -d released at t
    keys = np.concatenate([2 * np.arange(q) * (q + 1),
                           2 * hit * (q + 1) + 1,
                           (2 * release + 1) * (q + 1) + 1 + np.arange(hit.size)])
    rows = np.concatenate([base_i, cell_i, cell_i])
    cols = np.concatenate([base_j, cell_j, cell_j])
    vals = np.concatenate([A[base_i, base_j], d, -d])
    order = np.argsort(keys, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    implied = np.zeros((m, n))
    np.add.at(implied, (rows, cols), vals)      # unbuffered: arrival order
    _write_stream(path, (m, n), rows, cols, vals)
    return implied, int(vals.size)


_BUILDERS = {
    "arb-dense": (_dense, "mtx"),
    "css-exact": (_dense, "mtx"),
    "css-sparse": (_column_sparse, "mtx"),
    "stream-turnstile": (_turnstile, "stream"),
}


def build(workload: str, size: str, seed: int, directory) -> dict:
    """Write the workload input under directory; return its description.

    The reference matrix goes next to it as .npy so that worker processes
    score results against the benchmark's copy, not the program's parse.
    """
    spec = WORKLOADS[workload]
    builder, ext = _BUILDERS[workload]
    path = f"{directory}/input.{ext}"
    A, entries = builder(spec, size, seed, path)
    ref = f"{directory}/reference.npy"
    np.save(ref, A)
    k = spec["k"]
    sigma = np.linalg.svd(A, compute_uv=False)
    return {
        "workload": workload, "size": size, "seed": seed,
        "m": int(A.shape[0]), "n": int(A.shape[1]), "k": k, "eps": spec["eps"],
        "s": spec.get("s"), "delta": spec.get("delta"),
        "input": path, "reference": ref, "entries": entries,
        "tail_sq": float(np.sum(sigma[k:] ** 2)),
        "digest": file_digest(path),
    }


def file_digest(path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

"""Experiment runner: one algorithm per invocation, one JSON report out.

Report schema (single run; stable, scripts may rely on these fields):

    algorithm        subcommand name
    parameters       resolved inputs: shapes, k, eps, machines, constants
    ratio            squared projection error over the exact rank-k tail,
                     null when the tail is roundoff (at most 1e-22 times
                     max(1, ||A||_F^2)), as it is when k >= min(m, n), or
                     the matrix is too big
    ratio_estimated  true when the ratio came from a JL sketch instead of
                     the materialized matrix
    ledger           words by phase (protocols), null otherwise
    total_words      ledger total; always equals the sum over phases
    space_words      sketch state size (streaming), null otherwise
    branch, flags    protocol branch taken and advisory flags
    seed             the run seed
    wall_time_s      null unless --timings is given, so reports are
                     byte-identical across runs with the same seed

With --trials N the report instead carries per-trial reports (sorted by
trial seed) plus ratio_median / ratio_max aggregates.

Exit codes: 0 success, 2 bad input, 3 protocol or internal failure,
64 usage error.

The seven solver subcommands are the rows of one table, ``_SOLVERS``. A
row holds the subcommand's help text, a loader that reads --input once
per invocation, a solve function that runs one trial and returns the
report fields, and the flags the subcommand adds between the shared ones
(--input, -k, --eps before; --seed, --trials, --timings, --json-out
after). ``_run_solver`` runs any row; ``gen`` and ``check`` have their
own runners. Every runner returns (report or None, exit code).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arbitrary_partition import ArbProtocolParams, distributed_pca_arbitrary
from .batch import batch_low_rank
from .cluster import Cluster
from .column_partition import CssProtocolParams, distributed_css_pca
from .column_select_sparse import (
    FastCssProtocolParams,
    dense_times_sparse,
    distributed_css_pca_fast,
    embed_rows,
    sparse_svd,
)
from .errors import InputError, InternalError, ProtocolError
from .fileio import (
    read_matrix_market,
    read_stream_file,
    write_matrix_market,
    write_stream_file,
)
from .generators import (
    HardCssSpec,
    HardDenseSpec,
    css_hard_min_ratio,
    gen_css_hard,
    gen_dense_hard,
    gen_lowrank_noise,
)
from .linalg import _zero_tail, qr, tail_sq
from .sketches import derive_seed, jlt_sketch, sign_sketch, sparse_embedding
from .sparse import SparseColMatrix
from .streaming import (
    _RECORD,
    TurnstileSketchState,
    one_pass_factorization,
    one_pass_pca,
    stream_matrix,
    two_pass_pca,
)

# beyond this many entries the exact ratio is not computed
MATERIALIZE_LIMIT = 10_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


# -- ratio helpers ------------------------------------------------------


def _exact_ratio(A: np.ndarray, err_sq: float, k: int) -> float | None:
    # past min(m, n) the rank-k tail is the zero tail at min(m, n)
    tail = tail_sq(A, min(k, *A.shape))
    if _zero_tail(A, tail):
        return None
    ratio = float(err_sq / tail)
    if ratio < 1.0 - 1e-9:
        raise InternalError(f"error ratio {ratio} fell below the optimum")
    return ratio


def _basis_err_sq(A: np.ndarray, U: np.ndarray) -> float:
    if U.shape[1] == 0:
        return float(np.linalg.norm(A) ** 2)
    return float(np.linalg.norm(A - U @ (U.T @ A)) ** 2)


def _estimated_ratio(A: SparseColMatrix, U: np.ndarray, k: int, seed: int) -> float | None:
    """JL-sketched ratio for matrices too large to materialize.

    Numerator sketches the residual against U; the reference tail comes
    from an independently seeded sparse SVD basis, so the answer is a
    consistent estimate rather than a certified ratio.
    """
    J = jlt_sketch(A.n_cols, A.n_rows, derive_seed(seed, "ratio-probe")).materialize()
    JA = dense_times_sparse(J, A)
    if U.shape[1]:
        err = np.linalg.norm(JA - (J @ U) @ dense_times_sparse(np.ascontiguousarray(U.T), A)) ** 2
    else:
        err = np.linalg.norm(JA) ** 2
    Z = sparse_svd(A, k, 0.5, derive_seed(seed, "ratio-baseline"))
    base = np.linalg.norm(JA - (JA @ Z) @ Z.T) ** 2
    if base <= 0.0:
        return None
    return float(err / base)


def _css_ratio(A, U: np.ndarray, k: int, seed: int) -> tuple[float | None, bool]:
    m, n = A.shape
    if m * n <= MATERIALIZE_LIMIT:
        dense = A.to_dense() if isinstance(A, SparseColMatrix) else A
        return _exact_ratio(dense, _basis_err_sq(dense, U), k), False
    if isinstance(A, SparseColMatrix):
        return _estimated_ratio(A, U, k, seed), True
    return None, False


# -- input plumbing -----------------------------------------------------


def _split_columns(A, widths: list[int]):
    if min(widths) < 1:
        raise InputError("every machine needs at least one column")
    n = A.shape[1]
    if sum(widths) != n:
        raise InputError(f"widths sum to {sum(widths)}, matrix has {n} columns")
    parts = []
    lo = 0
    for w in widths:
        idx = np.arange(lo, lo + w)
        parts.append(A.take_columns(idx) if isinstance(A, SparseColMatrix)
                     else A[:, lo:lo + w])
        lo += w
    return parts


def _even_widths(n: int, s: int) -> list[int]:
    if s < 1:
        raise InputError("need at least one machine")
    if s > n:
        raise InputError(f"{s} machines cannot share {n} columns")
    base, extra = divmod(n, s)
    return [base + (1 if i < extra else 0) for i in range(s)]


def _summand_parts(A: np.ndarray, s: int) -> list[np.ndarray]:
    """Row-block summands: part i is A with all other row blocks zeroed."""
    m = A.shape[0]
    if s < 1:
        raise InputError("need at least one machine")
    if s > m:
        raise InputError(f"{s} machines cannot share {m} rows")
    bounds = [round(i * m / s) for i in range(s + 1)]
    parts = []
    for i in range(s):
        P = np.zeros_like(A)
        P[bounds[i]:bounds[i + 1], :] = A[bounds[i]:bounds[i + 1], :]
        parts.append(P)
    return parts


def _read_widths(path: str, n: int, machines: int | None) -> list[int]:
    if path is None:
        return _even_widths(n, machines if machines is not None else 2)
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # bad JSON or undecodable bytes
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    widths = manifest.get("widths") if isinstance(manifest, dict) else manifest
    # type() rather than isinstance(): JSON true and false are bools, and
    # bool is a subclass of int
    if not isinstance(widths, list) or not widths or not all(type(w) is int for w in widths):
        raise InputError(f"{path}: expected a JSON widths list")
    return widths


def _load_dense(args) -> np.ndarray:
    A = read_matrix_market(args.input)
    if isinstance(A, SparseColMatrix):
        if A.n_rows * A.n_cols > MATERIALIZE_LIMIT:
            raise InputError("matrix too large to materialize for this algorithm")
        # column-major, as an array file reads, so both formats give the same bits
        return np.asfortranarray(A.to_dense())
    return A


def _load_row_summands(args) -> tuple[np.ndarray, list[np.ndarray]]:
    A = _load_dense(args)
    return A, _summand_parts(A, args.machines)


def _load_column_split(args) -> tuple:
    """(A, widths, column blocks); A stays sparse when the file is."""
    A = read_matrix_market(args.input)
    widths = _read_widths(args.widths, A.shape[1], args.machines)
    return A, widths, _split_columns(A, widths)


def _load_stream(args) -> tuple:
    """((m, n), updates, A), where A is None past MATERIALIZE_LIMIT."""
    (m, n), updates = read_stream_file(args.input)
    A = stream_matrix(updates, m, n) if m * n <= MATERIALIZE_LIMIT else None
    return (m, n), updates, A


# -- report assembly ----------------------------------------------------


def _report(algorithm: str, parameters: dict, *, ratio=None, estimated=False,
            ledger=None, total=None, space=None, branch=None, flags=(),
            seed=None, extra=None) -> dict:
    if ledger is not None:
        ledger = {str(k): int(v) for k, v in sorted(ledger.items())}
        if total is None or sum(ledger.values()) != int(total):
            raise InternalError("ledger phases do not sum to the total")
    rep = {
        "algorithm": algorithm,
        "parameters": parameters,
        "ratio": None if ratio is None else float(ratio),
        "ratio_estimated": bool(estimated),
        "ledger": ledger,
        "total_words": None if total is None else int(total),
        "space_words": None if space is None else int(space),
        "branch": branch,
        "flags": sorted(str(f) for f in flags),
        "seed": None if seed is None else int(seed),
        "wall_time_s": None,
    }
    if extra:
        rep.update(extra)
    return rep


def _emit(rep: dict, args) -> None:
    text = json.dumps(rep, indent=2, sort_keys=True)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")


def _with_trials(args, one_trial) -> dict:
    """Run one_trial(seed) once, or fan --trials runs across threads."""
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.trials == 1:
        start = time.perf_counter()
        rep = one_trial(args.seed)
        if args.timings:
            rep["wall_time_s"] = time.perf_counter() - start
        return rep
    seeds = [derive_seed(args.seed, f"trial-{t}") for t in range(args.trials)]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=min(args.trials, 8)) as pool:
        reports = list(pool.map(one_trial, seeds))
    wall = time.perf_counter() - start
    reports.sort(key=lambda r: r["seed"])
    ratios = [r["ratio"] for r in reports if r["ratio"] is not None]
    return {
        "algorithm": reports[0]["algorithm"],
        "parameters": reports[0]["parameters"],
        "trials": reports,
        "ratio_median": float(np.median(ratios)) if ratios else None,
        "ratio_max": float(np.max(ratios)) if ratios else None,
        "seed": int(args.seed),
        "wall_time_s": wall if args.timings else None,
    }


# -- solves: one trial each, returning the _report fields ----------------


def _solve_batch(A, args, seed) -> dict:
    if args.k > min(A.shape):
        raise InputError(f"rank target k={args.k} out of range for shape {A.shape}")
    res = batch_low_rank(A, args.k, args.eps, seed, xi_left=args.const_xi_left,
                         xi_right=args.const_xi_right, rounding=args.rounding)
    return {"parameters": {"shape": list(A.shape), "k": args.k, "eps": args.eps,
                           "xi_left": res.xi_left, "xi_right": res.xi_right,
                           "rounding": args.rounding},
            "ratio": _exact_ratio(A, _basis_err_sq(A, res.U), args.k),
            "flags": ["deficient"] if res.deficient else []}


def _solve_dist_arb(loaded, args, seed) -> dict:
    A, parts = loaded
    res = distributed_pca_arbitrary(Cluster(parts, kind="arbitrary"), ArbProtocolParams(
        k=args.k, eps=args.eps, seed=seed, noise_scale=args.noise_scale,
        rounding=args.rounding, xi_sketch=args.const_xi_sketch,
        xi_affine=args.const_xi_affine))
    return {"parameters": {"shape": list(A.shape), "k": args.k, "eps": args.eps,
                           "machines": args.machines},
            "ratio": _exact_ratio(A, _basis_err_sq(A, res.U), args.k),
            "ledger": res.phase_words, "total": res.total_words,
            "branch": res.branch, "flags": res.flags,
            "extra": {"retried": bool(res.retried)}}


def _css_fields(loaded, args, seed, res) -> dict:
    A, widths, _ = loaded
    ratio, estimated = _css_ratio(A, res.U, args.k, seed)
    return {"parameters": {"shape": list(A.shape), "k": args.k, "eps": args.eps,
                           "machines": len(widths), "widths": widths,
                           "c_actual": int(res.c_actual), "xi": int(res.xi),
                           "finalize": res.finalize},
            "ratio": ratio, "estimated": estimated, "ledger": res.phase_words,
            "total": res.total_words, "flags": res.flags}


def _solve_dist_css(loaded, args, seed) -> dict:
    res = distributed_css_pca(Cluster(loaded[2], kind="column"), CssProtocolParams(
        k=args.k, eps=args.eps, seed=seed, ell=args.const_ell, c1=args.const_c1,
        c2=args.const_c2, xi_subspace=args.const_xi_subspace))
    return _css_fields(loaded, args, seed, res)


def _solve_dist_css_fast(loaded, args, seed) -> dict:
    res = distributed_css_pca_fast(Cluster(loaded[2], kind="column"), FastCssProtocolParams(
        k=args.k, eps=args.eps, seed=seed, delta=args.delta, ell=args.const_ell,
        c2=args.const_c2, xi_subspace=args.const_xi_subspace))
    return _css_fields(loaded, args, seed, res)


def _stream_parameters(loaded, args) -> dict:
    (m, n), updates, _ = loaded
    return {"shape": [m, n], "k": args.k, "eps": args.eps, "updates": len(updates)}


def _solve_stream_1p(loaded, args, seed) -> dict:
    (m, n), updates, A = loaded
    res = one_pass_pca(updates, m, n, args.k, args.eps, seed,
                       xi_regression=args.const_xi_regression,
                       xi_affine=args.const_xi_affine)
    ratio = None if A is None else _exact_ratio(A, _basis_err_sq(A, res.U), args.k)
    return {"parameters": _stream_parameters(loaded, args), "ratio": ratio,
            "space": res.space_words}


def _solve_stream_1p_fact(loaded, args, seed) -> dict:
    (m, n), updates, A = loaded
    res = one_pass_factorization(updates, m, n, args.k, args.eps, seed,
                                 xi_regression=args.const_xi_regression,
                                 xi_affine=args.const_xi_affine)
    ratio = None
    if A is not None:
        ratio = _exact_ratio(A, float(np.linalg.norm(A - res.matrix()) ** 2), args.k)
    return {"parameters": _stream_parameters(loaded, args), "ratio": ratio,
            "space": res.space_words}


def _solve_stream_2p(loaded, args, seed) -> dict:
    (m, n), updates, A = loaded
    res = two_pass_pca(updates, m, n, args.k, args.eps, seed,
                       noise_scale=args.noise_scale, rounding=args.rounding)
    ratio = None if A is None else _exact_ratio(A, _basis_err_sq(A, res.U), args.k)
    return {"parameters": _stream_parameters(loaded, args), "ratio": ratio,
            "ledger": res.phase_words, "total": res.total_words, "space": m * n,
            "branch": res.branch, "flags": res.flags}


# -- the solver table ---------------------------------------------------


@dataclass(frozen=True)
class _Solver:
    help: str
    load: Callable      # args -> loaded input
    solve: Callable     # (loaded input, args, seed) -> _report fields
    flags: tuple        # (flag, add_argument keywords) pairs, after --eps


def _const(name: str) -> tuple:
    """An integer override of a derived constant; None keeps the derivation."""
    return (f"--const-{name}", {"type": int, "default": None})


_ROUNDING = ("--rounding", {"type": float, "default": 0.0})
_NOISE_SCALE = ("--noise-scale", {
    "type": float, "default": None,
    "help": "entry size eta of the seeded sign grid Z the server adds in the smoothed "
            "branch, on the first p = min(n, xi) columns of A (all of A when n <= xi; "
            "xi the sketch width), through its image Z Tr[:p] under the right sketch; "
            "its Frobenius norm is eta sqrt(m p); default 1e-6 times the RMS entry of "
            "A, estimated from the gathered sketch; 0 disables it"})
_ONE_PASS_FLAGS = (_const("xi-regression"), _const("xi-affine"))
_XI_SUBSPACE = ("--const-xi-subspace", {
    "type": int, "default": None,
    "help": "width of the finalize sketch, which every machine then ships; default a "
            "rank-k projection-cost-preserving sketch (Cohen et al., STOC 2015) whose "
            "width depends on k and eps only, shipped by a machine wider than it only "
            "when shorter than both its raw columns and the R factor of (Y^T A_i)^T (Y "
            "an orthonormal basis of the selected columns' span)"})


def _css_flags(variant: tuple) -> tuple:
    """The column-partition flags; the two protocols differ in one."""
    return (
        ("--machines", {"type": int, "default": None}),
        ("--widths", {"metavar": "PATH",
                      "help": "JSON widths manifest overriding --machines"}),
        _const("ell"), variant, _const("c2"), _XI_SUBSPACE,
    )


_SOLVERS = {
    "batch": _Solver("two-sided sketch PCA on a dense matrix", _load_dense, _solve_batch,
                     (_ROUNDING, _const("xi-left"), _const("xi-right"))),
    "dist-arb": _Solver("arbitrary-partition protocol", _load_row_summands, _solve_dist_arb,
                        (("--machines", {"type": int, "default": 2}), _NOISE_SCALE,
                         _ROUNDING, _const("xi-sketch"), _const("xi-affine"))),
    "dist-css": _Solver("column-partition selection protocol", _load_column_split,
                        _solve_dist_css, _css_flags(_const("c1"))),
    "dist-css-fast": _Solver("column-partition selection protocol (sketched)",
                             _load_column_split, _solve_dist_css_fast,
                             _css_flags(("--delta", {"type": float, "default": 0.05}))),
    "stream-1p": _Solver("one-pass turnstile PCA", _load_stream, _solve_stream_1p,
                         _ONE_PASS_FLAGS),
    "stream-1p-fact": _Solver("one-pass turnstile PCA with factors", _load_stream,
                              _solve_stream_1p_fact, _ONE_PASS_FLAGS),
    "stream-2p": _Solver("two-pass turnstile PCA", _load_stream, _solve_stream_2p,
                         (_NOISE_SCALE, _ROUNDING)),
}


def _run_solver(args) -> tuple[dict, int]:
    """Load the input once, then solve once per trial seed."""
    solver = _SOLVERS[args.cmd]
    loaded = solver.load(args)

    def trial(seed):
        return _report(args.cmd, seed=seed, **solver.solve(loaded, args, seed))
    return _with_trials(args, trial), 0


# -- gen ----------------------------------------------------------------


def _run_gen(args) -> tuple[None, int]:
    need = {"dense-hard": ("m", "n", "k"), "css-hard": ("k", "phi"),
            "lowrank": ("m", "n", "k")}
    for field in need[args.family]:
        if getattr(args, field) is None:
            raise InputError(f"gen {args.family} requires --{field}")
    out = args.output if args.output else "/dev/stdout"
    if args.family == "dense-hard":
        spec = HardDenseSpec(m=args.m, k=args.k, s=args.machines, n=args.n,
                             wall=args.wall)
        cluster = gen_dense_hard(spec, args.seed)
        write_matrix_market(out, cluster.materialize())
        if args.manifest:
            widths = [int(p.shape[1]) for p in cluster.parts]
            with open(args.manifest, "w") as fh:
                json.dump({"widths": widths, "m": spec.m, "n": spec.n,
                           "k": spec.k, "machines": spec.s}, fh, indent=2)
                fh.write("\n")
    elif args.family == "css-hard":
        spec = HardCssSpec(k=args.k, phi=args.phi, eps=args.eps)
        A = gen_css_hard(spec, rotate=args.rotate, seed=args.seed,
                         granularity=args.granularity)
        write_matrix_market(out, A)
    else:  # lowrank
        A = gen_lowrank_noise(args.m, args.n, args.k, args.noise, args.seed)
        if args.stream:
            updates = np.empty(A.size, _RECORD)  # every entry, row by row
            updates["i"], updates["j"] = np.divmod(np.arange(A.size), A.shape[1])
            updates["x"] = A.ravel()
            write_stream_file(out, A.shape, updates)
        else:
            write_matrix_market(out, A)
    return None, 0


# -- check --------------------------------------------------------------


def _invariant_battery() -> list[tuple[str, "callable"]]:
    def qr_orthonormal():
        Q, R = qr(np.random.default_rng(0).standard_normal((20, 5)))
        assert np.allclose(Q.T @ Q, np.eye(5), atol=1e-10)
        assert np.all(np.diag(R) >= 0)

    def sketch_determinism():
        a = sign_sketch(8, 12, 42).materialize()
        b = sign_sketch(8, 12, 42).materialize()
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != sign_sketch(8, 12, 43).materialize().tobytes()

    def batch_ratio_floor():
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 30))
        res = batch_low_rank(A, 3, 0.5, 7)
        ratio = _exact_ratio(A, _basis_err_sq(A, res.U), 3)
        assert ratio is not None and ratio >= 1.0 - 1e-9

    def ledger_double_entry():
        rng = np.random.default_rng(2)
        parts = _summand_parts(rng.standard_normal((12, 16)), 3)
        cluster = Cluster(parts, kind="arbitrary")
        res = distributed_pca_arbitrary(cluster, ArbProtocolParams(k=2, eps=0.5, seed=3))
        assert sum(res.phase_words.values()) == res.total_words

    def arb_words_ignore_n():
        rng = np.random.default_rng(3)
        totals = []
        for n in (20, 40):
            parts = _summand_parts(rng.standard_normal((16, n)), 3)
            res = distributed_pca_arbitrary(Cluster(parts, kind="arbitrary"),
                                            ArbProtocolParams(k=2, eps=0.5, seed=5))
            totals.append(res.total_words)
        assert totals[0] == totals[1]

    def css_hard_margin():
        spec = HardCssSpec(k=1, phi=6, eps=0.25)
        ratio = css_hard_min_ratio(gen_css_hard(spec), spec.k, spec.subset_size)
        assert ratio > 1.25

    def sparse_embed_agrees_dense():
        rng = np.random.default_rng(4)
        dense = np.where(rng.random((10, 14)) < 0.25, rng.standard_normal((10, 14)), 0.0)
        A = SparseColMatrix.from_dense(dense)
        emb = sparse_embedding(6, 10, 9)
        assert embed_rows(emb, A).tobytes() == emb.apply_left(dense).tobytes()

    def stream_oracle():
        rng = np.random.default_rng(5)
        ups = [(int(rng.integers(8)), int(rng.integers(9)), float(rng.standard_normal()))
               for _ in range(80)]
        st = TurnstileSketchState(8, 9, 2, 0.5, 6).consume(ups)
        A = stream_matrix(ups, 8, 9)
        want = st.T_left @ A @ st.T_right
        assert np.linalg.norm(st.M - want) <= 1e-10 * np.linalg.norm(want)

    def stream_split_bitwise():
        ups = [(i % 6, (3 * i) % 7, 0.25 * i - 2.0) for i in range(40)]
        base = TurnstileSketchState(6, 7, 2, 0.5, 8).consume(ups)
        halves = []
        for i, j, x in ups:
            halves.append((i, j, x / 2))
            halves.append((i, j, x / 2))
        other = TurnstileSketchState(6, 7, 2, 0.5, 8).consume(halves)
        assert base.M.tobytes() == other.M.tobytes()
        assert base.D.tobytes() == other.D.tobytes()

    def two_pass_matches_one_machine():
        rng = np.random.default_rng(6)
        ups = [(int(rng.integers(8)), int(rng.integers(10)), float(rng.standard_normal()))
               for _ in range(60)]
        res = two_pass_pca(ups, 8, 10, 2, 0.5, 11)
        A = stream_matrix(ups, 8, 10)
        direct = distributed_pca_arbitrary(Cluster([A], kind="arbitrary"),
                                           ArbProtocolParams(k=2, eps=0.5, seed=11))
        assert res.U.tobytes() == direct.U.tobytes()

    return [
        ("qr-orthonormal", qr_orthonormal),
        ("sketch-determinism", sketch_determinism),
        ("batch-ratio-floor", batch_ratio_floor),
        ("ledger-double-entry", ledger_double_entry),
        ("arb-words-ignore-n", arb_words_ignore_n),
        ("css-hard-margin", css_hard_margin),
        ("sparse-embed-agrees-dense", sparse_embed_agrees_dense),
        ("stream-oracle", stream_oracle),
        ("stream-split-bitwise", stream_split_bitwise),
        ("two-pass-matches-one-machine", two_pass_matches_one_machine),
    ]


def _run_check(args) -> tuple[dict, int]:
    results = []
    for name, fn in _invariant_battery():
        try:
            fn()
            results.append({"name": name, "ok": True, "detail": None})
        except Exception as exc:  # report, never crash the battery
            results.append({"name": name, "ok": False, "detail": str(exc)})
    ok = all(r["ok"] for r in results)
    return {"algorithm": "check", "invariants": results, "ok": ok}, 0 if ok else 3


# -- argument wiring ----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sketchpca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    for name, solver in _SOLVERS.items():
        p = sub.add_parser(name, help=solver.help)
        p.add_argument("--input", required=True)
        p.add_argument("-k", "--k", type=int, required=True, dest="k")
        p.add_argument("--eps", type=float, required=True)
        for flag, kwargs in solver.flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--timings", action="store_true",
                       help="include wall_time_s (breaks byte-identical output)")
        p.add_argument("--json-out", metavar="PATH")
        p.set_defaults(func=_run_solver)

    p = sub.add_parser("gen", help="write a test instance")
    p.add_argument("family", choices=["dense-hard", "css-hard", "lowrank"])
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("-k", "--k", type=int, default=None, dest="k")
    p.add_argument("--machines", type=int, default=3)
    p.add_argument("--wall", type=float, default=None)
    p.add_argument("--phi", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--rotate", action="store_true")
    p.add_argument("--granularity", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--stream", action="store_true",
                   help="lowrank only: write a stream file instead of a matrix")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", metavar="PATH", help="default stdout")
    p.add_argument("--manifest", metavar="PATH",
                   help="dense-hard only: write the partition widths")
    p.set_defaults(func=_run_gen)

    p = sub.add_parser("check", help="rerun module invariants")
    p.add_argument("--json-out", metavar="PATH")
    p.set_defaults(func=_run_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        rep, code = args.func(args)
        if rep is not None:
            _emit(rep, args)
        return code
    except (InputError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ProtocolError, InternalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

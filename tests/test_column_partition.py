"""Column-partition CSS protocol: quality, verbatim columns, exact words.

Module runs use eps = 1 to keep the finalize sketch small; the wide-sketch
regime is exercised once by the acceptance suite.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (
    best_tail_sq,
    fast_sketch_uplink,
    frob_sq,
    lowrank_plus_noise,
    rand_matrix,
    rank_exactly,
    selected_rank,
    sparse_columns_block,
    stage_four_words,
)
from sketchpca import column_partition
from sketchpca.cluster import Cluster
from sketchpca.column_partition import (
    _FINALIZE_BLOCK,
    _PAYLOAD_ORDER,
    TAG_CSS_SUBSPACE,
    CssProtocolParams,
    _cols_words,
    _payload_kind,
    _r_words,
    _sketch_bound,
    _sketch_payload,
    distributed_css_pca,
    run_css_protocol,
)
from sketchpca.column_select_sparse import (
    FastCssProtocolParams,
    distributed_css_pca_fast,
)
from sketchpca.errors import InputError
from sketchpca.linalg import (
    best_rank_k_in_colspan,
    colspan_residual_sq,
    residual_ratio,
    span_residual_sq,
)
from sketchpca.sketches import dense_pca_dim, derive_seed, sparse_embedding
from sketchpca.sparse import SparseColMatrix


def _sparse_cluster(seed, m=30, widths=(30, 30, 30, 30), phi=8, parallel=False):
    blocks = [sparse_columns_block(seed * 97 + i, m, w, phi)
              for i, w in enumerate(widths)]
    return Cluster(blocks, kind="column", parallel=parallel)


def _params(k=2, eps=1.0, seed=0, **kw):
    return CssProtocolParams(k=k, eps=eps, seed=seed, **kw)


class TestEndToEnd:
    def test_quality_on_random_sparse(self):
        ratios = []
        for seed in range(10):
            cl = _sparse_cluster(seed)
            res = distributed_css_pca(cl, _params(k=2, seed=500 + seed))
            A = cl.materialize()
            ratios.append(residual_ratio(A, res.U, 2))
        assert float(np.median(ratios)) <= 2.0
        assert max(ratios) <= 1 + 200 * 1.0

    def test_exact_recovery_on_planted_rank_k(self):
        # every column is a multiple of one of k sparse patterns
        rng = np.random.default_rng(3)
        m, k = 24, 3
        patterns = np.zeros((m, k))
        for t in range(k):
            rows = rng.choice(m, size=5, replace=False)
            patterns[rows, t] = rng.standard_normal(5)
        blocks = []
        for i in range(3):
            B = np.zeros((m, 20))
            for j in range(20):
                B[:, j] = patterns[:, rng.integers(k)] * float(rng.integers(1, 5))
            blocks.append(SparseColMatrix.from_dense(B))
        cl = Cluster(blocks, kind="column")
        res = distributed_css_pca(cl, _params(k=k, seed=7))
        A = cl.materialize()
        assert frob_sq(A - res.U @ (res.U.T @ A)) <= 1e-16 * frob_sq(A)
        assert "no-adaptive" in res.flags

    def test_intermediate_core_bound(self):
        for seed in range(20):
            cl = _sparse_cluster(seed, m=20, widths=(25, 25, 25), phi=6)
            res = distributed_css_pca(cl, _params(k=2, seed=900 + seed))
            A = cl.materialize()
            C = A[:, res.core_indices]
            assert span_residual_sq(A, C) <= 50 * best_tail_sq(A, 2) + 1e-9

    def test_adaptive_improves_span_monotonically(self):
        cl = _sparse_cluster(4)
        res = distributed_css_pca(cl, _params(k=2, seed=44))
        A = cl.materialize()
        C = A[:, res.core_indices]
        C_full = A[:, res.core_indices + res.adaptive_indices]
        assert span_residual_sq(A, C_full) <= span_residual_sq(A, C) + 1e-12


class TestVerbatimColumns:
    def test_all_shipped_columns_are_exact_copies(self):
        cl = _sparse_cluster(5)
        res = distributed_css_pca(cl, _params(k=2, seed=55))
        A = cl.materialize()
        assert len(res.core_indices) == 8  # c1 = 4k
        for gid in res.core_indices + res.adaptive_indices:
            i, loc = cl.machine_of_column(gid)
            col = cl.part_dense(i)[:, loc]
            assert col.tobytes() == A[:, gid].tobytes()

    def test_adaptive_repeats_allowed(self):
        cl = _sparse_cluster(6)
        res = distributed_css_pca(cl, _params(k=2, seed=66))
        assert len(res.adaptive_indices) == 100  # c2 = ceil(50 k / eps)


class TestTwoLevelSampling:
    def test_machine_column_probabilities_within_factor_two(self):
        cl = _sparse_cluster(7)
        res = distributed_css_pca(cl, _params(k=2, seed=77))
        A = cl.materialize()
        C = A[:, res.core_indices]
        Yc = np.linalg.qr(C)[0][:, :np.linalg.matrix_rank(C, tol=1e-10)]
        Psi = A - Yc @ (Yc.T @ A)
        mass = np.sum(Psi * Psi, axis=0)
        total = mass.sum()
        beta_total = sum(res.betas)
        for i in range(cl.s):
            lo, hi = cl.col_offsets[i], cl.col_offsets[i + 1]
            ri2 = mass[lo:hi].sum()
            if ri2 <= 1e-18 * total:
                continue
            # two-level probability: (beta_i / sum beta) * (psi_j^2 / r_i^2)
            scale = (res.betas[i] / beta_total) * (total / ri2)
            assert 0.5 - 1e-9 <= scale <= 2.0 + 1e-9


class TestAccounting:
    def test_sparse_phase_words(self):
        phi = 6
        cl = _sparse_cluster(8, phi=phi)
        res = distributed_css_pca(cl, _params(k=2, seed=88))
        A = cl.materialize()
        nnz = lambda j: int(np.count_nonzero(A[:, j]))
        assert res.phase_words["local-up"] <= cl.s * (4 * 2) * (2 * phi + 1)
        # each distinct draw ships whole, and each repeat as one word
        distinct = set(res.adaptive_indices)
        assert len(distinct) < len(res.adaptive_indices)
        assert res.phase_words["adaptive"] == sum(2 * nnz(j) + 1 for j in distinct) + (
            len(res.adaptive_indices) - len(distinct))
        assert res.phase_words["adaptive"] <= 100 * (2 * phi + 1)
        assert res.phase_words["adaptive-meta"] == 2 * cl.s
        # every core column goes whole to the s - 1 machines that do not own
        # it, and as its one-word index to its owner
        assert "core-all" not in res.flags
        assert res.phase_words["global-down"] == (cl.s - 1) * sum(
            2 * nnz(j) + 1 for j in res.core_indices) + len(res.core_indices)
        assert res.phase_words["span-down"] == (cl.s - 1) * res.phase_words["adaptive"]
        # 30-column machines, no wider than xi = 32, at r = 30: the r x 4
        # summary (120 words) undercuts the R factor (465) and the raw columns
        r = selected_rank(cl, res)
        assert r == 30 and res.payloads == ["summary"] * cl.s and res.finalize == "sketch"
        assert res.phase_words["subspace-up"] == sum(stage_four_words(cl, res, 88, "sign")) == (
            cl.s * r * 4)
        assert res.phase_words["delta-down"] == cl.s * selected_rank(cl, res) * res.rank
        assert "u-down" not in res.phase_words
        assert res.total_words == sum(res.phase_words.values())

    def test_xi_default_follows_budgets(self):
        cl = _sparse_cluster(9)
        res = distributed_css_pca(cl, _params(k=2, seed=99))
        # a rank-2 projection-cost-preserving sign sketch at eps / 2 = 1/2,
        # whatever the c1 + c2 = 108 collected columns
        assert res.xi == dense_pca_dim(2, 0.5) == 32


class TestVariantsAndDeterminism:
    def test_per_machine_finalize_matches_server(self):
        base = distributed_css_pca(_sparse_cluster(10), _params(k=2, seed=111))
        var = distributed_css_pca(
            _sparse_cluster(10), _params(k=2, seed=111, per_machine_finalize=True))
        # the replicas change no word and no bit
        assert base.U.tobytes() == var.U.tobytes()
        assert base.phase_words == var.phase_words

    def test_deterministic(self):
        r1 = distributed_css_pca(_sparse_cluster(11), _params(k=2, seed=121))
        r2 = distributed_css_pca(_sparse_cluster(11), _params(k=2, seed=121))
        assert r1.U.tobytes() == r2.U.tobytes()
        assert r1.phase_words == r2.phase_words
        assert r1.core_indices == r2.core_indices
        assert r1.adaptive_indices == r2.adaptive_indices

    def test_parallel_identical(self):
        rs = distributed_css_pca(_sparse_cluster(12), _params(k=2, seed=131))
        rp = distributed_css_pca(_sparse_cluster(12, parallel=True),
                                 _params(k=2, seed=131))
        assert rs.U.tobytes() == rp.U.tobytes()
        assert rs.phase_words == rp.phase_words

    def test_wrong_kind_rejected(self):
        cl = Cluster([np.zeros((4, 6))], kind="arbitrary")
        with pytest.raises(InputError):
            distributed_css_pca(cl, _params())

    @pytest.mark.parametrize("n", [40, 16])
    def test_k_above_the_row_count_is_rank_deficient(self, n):
        # k = 5 > m = 4: the core selection clamps k to min(G.shape) as local
        # selection does, so the run flags the deficiency whether or not
        # the core keeps every upload, as batch and dist-arb do
        A = rand_matrix(40 + n, 4, n)
        cl = Cluster([A[:, :n // 2], A[:, n // 2:]], kind="column")
        res = distributed_css_pca(cl, _params(k=5, eps=0.5, seed=7))
        assert ("core-all" in res.flags) == (n == 16)
        assert "rank-deficient" in res.flags and res.rank == 4
        assert res.U.shape == (4, 4)
        assert np.allclose(res.U.T @ res.U, np.eye(4), atol=1e-12)

    def test_params_share_one_base(self):
        exact = CssProtocolParams(3, 0.5, 1)
        fast = FastCssProtocolParams(3, 0.5, 1)
        shared = {"k", "eps", "seed", "ell", "c2", "xi_subspace", "per_machine_finalize"}
        assert {f.name for f in dataclasses.fields(exact)} == shared | {"c1"}
        assert {f.name for f in dataclasses.fields(fast)} == shared | {"delta"}
        # the same budgets but c1, which the fast protocol pins at 4k, and
        # the default xi, a sign sketch or a CountSketch at eps / 2
        assert exact.resolve()[:3] == fast.resolve()[:3] == (12, 12, 300)
        assert dataclasses.replace(exact, c1=20).resolve()[1] == 20
        assert dataclasses.replace(fast, ell=5).resolve()[0] == 5
        for Params in (CssProtocolParams, FastCssProtocolParams):
            with pytest.raises(InputError):
                Params(k=3, eps=0.0, seed=1)
            with pytest.raises(InputError):
                Params(k=3, eps=0.5, seed=1, ell=3).resolve()
        with pytest.raises(InputError):
            FastCssProtocolParams(k=3, eps=0.5, seed=1, delta=1.0)

    def test_budget_guards(self):
        with pytest.raises(InputError):
            _params(k=3, ell=3).resolve()
        with pytest.raises(InputError):
            CssProtocolParams(k=0, eps=1.0, seed=1)


# protocol and its params class
_PROTOCOLS = {
    "exact": (distributed_css_pca, CssProtocolParams),
    "fast": (distributed_css_pca_fast, FastCssProtocolParams),
}
_SKETCH = {"exact": "sign", "fast": "count"}


def _dense_cluster(seed, m=30, widths=(30, 30, 30, 30), parallel=False):
    A = lowrank_plus_noise(seed, m, sum(widths), 2, 0.3)
    bounds = np.cumsum((0,) + widths)
    return Cluster([A[:, bounds[i]:bounds[i + 1]] for i in range(len(widths))],
                   kind="column", parallel=parallel)


@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
class TestFinalizeBranches:
    """With xi resolved by default, a machine no wider than xi ships the
    least of its raw columns, the R factor of (Y^T A_i)^T and its top-t
    summary; a wider one may also ship its sketch.  Exact payloads win when
    r <= 2t - 1, for the R factor is then no longer than the summary.  An
    explicit xi_subspace sketches on every machine.  The rule is the same
    with a per-machine finalize, whose downlink is the r x k coefficient
    matrix at any width."""

    @pytest.mark.parametrize("data", ["dense", "sparse"])
    def test_exact_branch_is_the_restricted_optimum(self, protocol, data):
        run, Params = _PROTOCOLS[protocol]
        build = _dense_cluster if data == "dense" else _sparse_cluster
        cl = build(16)
        k = 2
        # t = 8 at eps = 1/2, and r <= c1 + c2 = 14 <= 2t - 1
        res = run(cl, Params(k=k, eps=0.5, seed=160, c2=6))
        assert res.finalize == "exact"
        assert selected_rank(cl, res) <= 15
        A = cl.materialize()
        C = A[:, res.core_indices + res.adaptive_indices]
        assert np.linalg.matrix_rank(C) < cl.m     # a proper subspace
        proj = best_rank_k_in_colspan(A, C, k)
        U = proj.basis @ proj.top
        assert np.linalg.norm(res.U @ res.U.T - U @ U.T, 2) <= 1e-10

    def test_branch_rule_at_the_boundary(self, protocol):
        run, Params = _PROTOCOLS[protocol]
        budgets = (dict(k=2, eps=1.0, ell=3, c1=3, c2=2) if protocol == "exact"
                   else dict(k=2, eps=1.0, c2=0))
        s = 2
        xi = Params(seed=0, **budgets).resolve()[3]
        down = {}
        for widths in ((xi, xi), (xi, xi + 1)):
            cl = _sparse_cluster(17, widths=widths)
            res = run(cl, Params(seed=170, **budgets))
            # r = rank C <= c1 + c2 <= 8, so an R factor of at most 36
            # words, or an r x 4 summary of at most 32, undercuts the sketch
            # of the machine wider than xi too
            assert "sketch" not in res.payloads and res.xi == xi
            r = selected_rank(cl, res)
            assert r <= 8
            assert res.phase_words["subspace-up"] == sum(
                stage_four_words(cl, res, 170, _SKETCH[protocol]))
            assert res.phase_words["delta-down"] == s * r * res.rank
            assert "u-down" not in res.phase_words and "xi-down" not in res.phase_words
            down[widths] = res.phase_words["delta-down"]
        # the downlink does not grow with the width
        assert down[(xi, xi)] == down[(xi, xi + 1)]
        # an explicit sketch size sketches, however wide it is
        for explicit in (xi, s * xi):
            cl = _sparse_cluster(17, widths=(xi, xi))
            res = run(cl, Params(seed=170, xi_subspace=explicit, **budgets))
            assert (res.finalize, res.xi) == ("sketch", explicit)
            words = s * selected_rank(cl, res) * explicit
            if protocol == "fast":
                assert res.phase_words["subspace-up"] <= words
                words = fast_sketch_uplink(cl, res, 170)
            assert res.phase_words["subspace-up"] == words

    def test_exact_branch_is_bitwise_across_modes(self, protocol):
        # r <= c1 + c2 = 14 <= 2t - 1 at t = 8
        run, Params = _PROTOCOLS[protocol]
        params = Params(k=2, eps=0.5, seed=180, c2=6)
        serial = run(_sparse_cluster(18), params)
        parallel = run(_sparse_cluster(18, parallel=True), params)
        replicas = run(_sparse_cluster(18), dataclasses.replace(params, per_machine_finalize=True))
        assert serial.finalize == parallel.finalize == replicas.finalize == "exact"
        assert serial.U.tobytes() == parallel.U.tobytes() == replicas.U.tobytes()
        assert serial.phase_words == parallel.phase_words == replicas.phase_words


@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
class TestDefaultSketchBranch:
    """The default finalize ships a rank-k projection-cost-preserving
    sketch, whose size is set by k and eps, from every machine for which it
    is the shortest payload: the top-t summary, or the xi-column sketch."""

    def test_stage_four_words_do_not_grow_with_n(self, protocol):
        # a dense machine's R factor is r (r + 1) / 2 words once it holds r
        # columns, its summary r * t and its sketch r * xi, so the summary
        # is shorter when r > 2t - 1: here r = m = 40, with t = 2 and
        # xi = 16 (sign) or 8 (count)
        run, Params = _PROTOCOLS[protocol]
        s, k, m, t = 4, 1, 40, 2
        xi = Params(k=k, eps=1.0, seed=0).resolve()[3]
        assert m > 2 * t - 1 and xi > t
        up, down = {}, {}
        for width in (40, 80):      # n = 160 and 320
            cl = _dense_cluster(19, m=m, widths=(width,) * s)
            res = run(cl, Params(k=k, eps=1.0, seed=190))
            assert (res.finalize, res.xi) == ("sketch", xi)
            assert res.payloads == ["summary"] * s
            assert selected_rank(cl, res) == cl.m
            cap = s * cl.m * t
            assert res.phase_words["subspace-up"] == cap
            assert cap == sum(stage_four_words(cl, res, 190, _SKETCH[protocol]))
            up[width] = res.phase_words["subspace-up"]
            down[width] = res.phase_words["delta-down"]
        assert up[40] == up[80]
        assert down[40] == down[80] == s * cl.m * k

    def test_no_phase_grows_with_m(self, protocol):
        # the acceptance shape, then the same columns under m zero rows: a
        # column costs its nonzeros, stage 4 works in rank C coordinates
        # and the downlink is U's coefficients in span(C)
        run, Params = _PROTOCOLS[protocol]
        m, n, s, k, phi = 40, 120, 4, 3, 8
        for seed in range(3):
            parts = [sparse_columns_block(seed * s + i + 1, m, n // s, phi) for i in range(s)]
            padded = [SparseColMatrix((2 * m, P.n_cols), P.indptr, P.indices, P.data)
                      for P in parts]
            params = Params(k=k, eps=0.5, seed=seed)
            base = run(Cluster(parts, kind="column"), params)
            tall = run(Cluster(padded, kind="column"), params)
            assert tall.U.shape == (2 * m, base.rank)
            assert tall.phase_words == base.phase_words

    @pytest.mark.parametrize("data", ["dense", "sparse"])
    def test_default_sketch_quality(self, protocol, data):
        run, Params = _PROTOCOLS[protocol]
        build = _dense_cluster if data == "dense" else _sparse_cluster
        # the default width, given explicitly: at m = 30, rank C <= 30 is
        # below 2 * xi - 1, so an exact payload would be shorter
        s, k, eps = 2, 2, 0.5
        xi = Params(k=k, eps=eps, seed=0).resolve()[3]
        ratios = []
        for seed in range(20):
            cl = build(200 + seed, widths=(2 * xi,) * s)     # n = 2 * s * xi
            res = run(cl, Params(k=k, eps=eps, seed=2000 + seed, xi_subspace=xi))
            assert (res.finalize, res.xi) == ("sketch", xi)
            ratios.append(residual_ratio(cl.materialize(), res.U, k))
        assert float(np.median(ratios)) <= 1 + eps


class TestColumnPrice:
    def test_each_column_in_its_cheaper_encoding(self):
        m = 5
        block = np.zeros((m, 4))
        block[:, 0] = np.arange(1.0, m + 1)     # dense: m values
        block[[1, 3], 1] = (2.0, -1.0)          # z = 2: (row, value) pairs
        block[[0, 2, 4], 3] = 1.0               # z = 3, 2z > m: m values
        assert [_cols_words(block[:, [j]]) for j in range(4)] == [m + 1, 5, 1, m + 1]
        assert _cols_words(block) == (m + 1) + 5 + 1 + (m + 1)
        assert _cols_words(np.zeros((m, 0))) == 0


@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
@pytest.mark.parametrize("branch", ["exact", "sketch"])
class TestSpanCoordinates:
    """Stage 4 works in span(C) coordinates, r = rank C, where C holds more
    columns than A has rows: the R factor of (Y^T A_i)^T, r (r + 1) / 2
    words once a machine holds r columns, or Y^T A_i T_i, r rows.  The
    exact branch runs at eps = 1/4, where the r x 16 summary is longer than
    the R factor at r = 30."""

    def _run(self, protocol, branch, **kw):
        run, Params = _PROTOCOLS[protocol]
        cl = _dense_cluster(21)
        xi, eps = (None, 0.25) if branch == "exact" else (48, 1.0)
        params = Params(k=2, eps=eps, seed=210, xi_subspace=xi, **kw)
        return cl, params, run(cl, params)

    def test_uplink_is_rank_c_rows(self, protocol, branch):
        cl, _, res = self._run(protocol, branch)
        assert res.finalize == branch
        r = selected_rank(cl, res)
        assert r <= cl.m < res.c_actual
        if branch == "exact":
            # every machine holds 30 >= r columns, each dense: its R factor
            # undercuts its 30 * (m + 1) raw words and its r x 16 summary
            assert res.payloads == ["R"] * cl.s
            assert res.phase_words["subspace-up"] == cl.s * r * (r + 1) // 2
            assert r * (r + 1) // 2 < min(30 * (cl.m + 1), r * 16)
        elif protocol == "fast":
            # the CountSketch blocks ship raw when that is shorter
            assert res.phase_words["subspace-up"] <= r * cl.s * res.xi
            assert res.phase_words["subspace-up"] == fast_sketch_uplink(cl, res, 210)
        else:
            assert res.phase_words["subspace-up"] == r * cl.s * res.xi
        # every column of this input is dense, so each distinct draw ships as
        # m + 1 words, and each repeat as one
        distinct = len(set(res.adaptive_indices))
        assert res.phase_words["adaptive"] == distinct * (cl.m + 1) + (
            len(res.adaptive_indices) - distinct)

    def test_basis_matches_the_mapped_coefficients(self, protocol, branch):
        cl, params, res = self._run(protocol, branch)
        A = cl.materialize()
        C = A[:, res.core_indices + res.adaptive_indices]
        if branch == "sketch":
            parts = [params.part(cl, i) for i in range(cl.s)]
            _, sketch = params.finalize(cl, parts, res.xi,
                                        derive_seed(params.seed, TAG_CSS_SUBSPACE))
            A = sum(sketch(i, 0, res.xi) for i in range(cl.s))
        # C^T A mapped into span(C) coordinates through W = S_r^-1 V_r^T
        Uc, sigma, Vt = np.linalg.svd(C, full_matrices=False)
        r = selected_rank(cl, res)
        W = Vt[:r] / sigma[:r, None]
        top = np.linalg.svd(W @ (C.T @ A), full_matrices=False)[0][:, :res.rank]
        U = Uc[:, :r] @ top
        assert np.linalg.norm(res.U @ res.U.T - U @ U.T, 2) <= 1e-10

    def test_per_machine_finalize_is_bitwise(self, protocol, branch):
        _, _, server = self._run(protocol, branch)
        _, _, replicas = self._run(protocol, branch, per_machine_finalize=True)
        assert replicas.U.tobytes() == server.U.tobytes()
        assert replicas.phase_words == server.phase_words


class TestSketchPayloads:
    """Each stage-4 sketch block ships in its cheaper encoding: Y^T A_i T_i
    at r * w words, or A_i T_i column-encoded when that is strictly
    shorter.  The server sums the raw blocks and projects them once."""

    @staticmethod
    def _mixed_cluster(parallel=False):
        # a dense machine fills every bucket and ships projected; sparse
        # machines touch few buckets and ship raw
        dense = lowrank_plus_noise(23, 30, 200, 2, 0.3)
        blocks = [sparse_columns_block(230 + i, 30, 30, 3) for i in range(3)]
        return Cluster([blocks[0], dense, blocks[1], blocks[2]], kind="column",
                       parallel=parallel)

    @staticmethod
    def _uplinks(cl):
        return [msg.words for msg in cl.ledger.messages if msg.phase == "subspace-up"]

    _PARAMS = FastCssProtocolParams(k=2, eps=1.0, seed=230, xi_subspace=48)

    def test_a_tie_ships_projected(self):
        YT = np.ones((3, 5))
        block = np.zeros((5, 1))
        block[2, 0] = 1.5                       # one (row, value) pair: 3 words = r * w
        assert _cols_words(block) == 3
        payload = _sketch_payload(YT, block)
        assert isinstance(payload, np.ndarray) and payload.shape == (3, 1)
        words, raw = _sketch_payload(YT, np.zeros((5, 1)))   # 1 word < 3
        assert words == 1 and isinstance(raw, SparseColMatrix) and raw.nnz == 0

    def test_mixed_run_is_bitwise_across_modes(self):
        cl = self._mixed_cluster()
        serial = distributed_css_pca_fast(cl, self._PARAMS)
        r = selected_rank(cl, serial)
        up = self._uplinks(cl)
        assert up[1] == r * serial.xi and all(w < r * serial.xi for w in up[::2])
        assert serial.phase_words["subspace-up"] == fast_sketch_uplink(cl, serial, 230)
        cp = self._mixed_cluster(parallel=True)
        parallel = distributed_css_pca_fast(cp, self._PARAMS)
        assert parallel.U.tobytes() == serial.U.tobytes()
        assert cp.ledger.messages == cl.ledger.messages

    def test_forced_encodings_agree(self, monkeypatch):
        # every block of this sparse input is shorter raw, so either
        # encoding may be forced on every machine
        def run(encode):
            monkeypatch.setattr(column_partition, "_sketch_payload", encode)
            cl = _sparse_cluster(24, phi=3)
            return cl, distributed_css_pca_fast(cl, self._PARAMS)

        cl_raw, raw = run(lambda YT, B: (_cols_words(B), SparseColMatrix.from_dense(B)))
        cl_proj, proj = run(lambda YT, B: YT @ B)
        r = selected_rank(cl_raw, raw)
        assert all(w < r * raw.xi for w in self._uplinks(cl_raw))
        assert self._uplinks(cl_proj) == [r * proj.xi] * cl_proj.s
        assert np.max(np.abs(raw.U - proj.U)) <= 1e-12

    def test_raw_blocks_stay_entry_sized_until_the_lift(self, monkeypatch):
        # every machine's 1000 x 256 block A_i T_i ships raw; the server
        # keeps each in its column encoding and scatters them into one sum,
        # so the stage-4 peak is about one dense block at any s
        m, xi = 1000, 256
        gather, peaks = column_partition._gather_sketches, []

        def traced(*args, **kw):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = gather(*args, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        monkeypatch.setattr(column_partition, "_gather_sketches", traced)
        for s in (2, 8):
            cl = Cluster([sparse_columns_block(280 + i, m, 40, 2) for i in range(s)],
                         kind="column")
            tracemalloc.start()
            try:
                res = distributed_css_pca_fast(cl, FastCssProtocolParams(
                    k=1, eps=1.0, seed=280, xi_subspace=xi))
            finally:
                tracemalloc.stop()
            r = selected_rank(cl, res)
            assert all(w < r * xi for w in self._uplinks(cl))
        block = m * xi * 8
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 2 * block

    def test_ledger_is_the_decoded_payload_sizes(self, monkeypatch):
        sent = []

        def encode(YT, B):
            payload = _sketch_payload(YT, B)
            sent.append(payload)
            return payload

        monkeypatch.setattr(column_partition, "_sketch_payload", encode)
        cl = self._mixed_cluster()
        res = distributed_css_pca_fast(cl, self._PARAMS)
        sizes = [_cols_words(p[1]) if isinstance(p, tuple) else p.size for p in sent]
        assert {isinstance(p, tuple) for p in sent} == {True, False}
        assert self._uplinks(cl) == sizes
        assert res.phase_words["subspace-up"] == sum(sizes)

    def test_two_blocks_carry_both_encodings(self, monkeypatch):
        # at xi = 600 the sign sketch goes in two blocks; the dense machine
        # projects both, and the one with nonzeros in rows 4 and 17 ships
        # both raw, 5 words a column against r = 30
        def cluster(parallel):
            sparse = np.zeros((30, 150))
            sparse[[4, 17]] = rand_matrix(241, 2, 150)
            return Cluster([lowrank_plus_noise(240, 30, 200, 3, 0.3), sparse],
                           kind="column", parallel=parallel)

        raw = []

        def encode(YT, B):
            payload = _sketch_payload(YT, B)
            raw.append(isinstance(payload, tuple))
            return payload

        monkeypatch.setattr(column_partition, "_sketch_payload", encode)
        params = CssProtocolParams(k=2, eps=1.0, seed=11, xi_subspace=600)
        assert _FINALIZE_BLOCK < 600 <= 2 * _FINALIZE_BLOCK
        cl = cluster(False)
        serial = distributed_css_pca(cl, params)
        assert raw == [False, True, False, True]
        assert serial.phase_words["subspace-up"] == sum(stage_four_words(cl, serial, 11, "sign"))
        cp = cluster(True)
        parallel = distributed_css_pca(cp, params)
        assert parallel.U.tobytes() == serial.U.tobytes()
        assert cp.ledger.messages == cl.ledger.messages
        A = cl.materialize()
        C = A[:, serial.core_indices + serial.adaptive_indices]
        assert span_residual_sq(A, serial.U) <= (1 + params.eps) * colspan_residual_sq(A, C, 2)


@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
class TestStageFourPayloads:
    """Each machine ships the shortest stage-4 payload that serves the
    finalize: its raw columns or the R factor of (Y^T A_i)^T, both exact,
    its top-t summary U_t Sigma_t of Y^T A_i, or its sketch, each sized
    before it is formed."""

    @staticmethod
    def _uplinks(cl):
        return {msg.sender: msg.words for msg in cl.ledger.messages
                if msg.phase == "subspace-up"}

    @staticmethod
    def _exact_cluster(parallel=False):
        # no machine is wider than xi; at r = 30 and t = 16 (eps = 1/4) the
        # sparse machines ship raw and the dense one its R factor
        dense = lowrank_plus_noise(26, 30, 30, 2, 0.3)
        blocks = [sparse_columns_block(260 + i, 30, 30, 3) for i in range(2)]
        return Cluster([blocks[0], dense, blocks[1]], kind="column", parallel=parallel)

    @staticmethod
    def _mixed_cluster(parallel=False):
        # at k = 1, eps = 1 (t = 2) and r = m = 40, each machine ships
        # another payload: the 60-column dense one its r x 2 summary (80
        # words); the 8-column sparse one its raw columns; the 2-column one
        # its R factor (79 words, against 82 raw, and no summary, as t is
        # not below 2); and the 60 columns with nonzeros in row 5 alone
        # their sketch, at 3 words a column, wider than xi = 16 (sign) or
        # 8 (count)
        m = 40
        dense = lowrank_plus_noise(25, m, 62, 1, 0.3)
        row = np.zeros((m, 60))
        row[5] = rand_matrix(252, 1, 60)
        return Cluster([dense[:, :60], sparse_columns_block(250, m, 8, 3), dense[:, 60:], row],
                       kind="column", parallel=parallel)

    def test_all_exact_is_the_span_optimum(self, protocol):
        run, Params = _PROTOCOLS[protocol]
        cl = self._exact_cluster()
        res = run(cl, Params(k=2, eps=0.25, seed=260))
        assert res.finalize == "exact" and res.payloads == ["raw", "R", "raw"]
        r = selected_rank(cl, res)
        up = self._uplinks(cl)
        assert up == {0: _cols_words(cl.part_dense(0)), 1: _r_words(30, r),
                      2: _cols_words(cl.part_dense(2))}
        assert up[0] < _r_words(30, r) < _cols_words(cl.part_dense(1))
        A = cl.materialize()
        proj = best_rank_k_in_colspan(A, A[:, res.core_indices + res.adaptive_indices], 2)
        U = proj.basis @ proj.top
        assert np.linalg.norm(res.U @ res.U.T - U @ U.T, 2) <= 1e-10

    def test_forced_raw_and_forced_r_agree_bitwise(self, protocol, monkeypatch):
        # the server forms a raw machine's R factor with the machine's kernel
        run, Params = _PROTOCOLS[protocol]

        def forced(kind):
            monkeypatch.setattr(column_partition, "_payload_kind", lambda *words: kind)
            cl = self._exact_cluster()
            return cl, run(cl, Params(k=2, eps=1.0, seed=260))

        cl_raw, raw = forced("raw")
        cl_r, r_res = forced("R")
        assert raw.finalize == r_res.finalize == "exact"
        assert raw.U.tobytes() == r_res.U.tobytes()
        r = selected_rank(cl_r, r_res)
        assert self._uplinks(cl_raw) == {i: _cols_words(cl_raw.part_dense(i)) for i in range(3)}
        assert self._uplinks(cl_r) == {i: _r_words(30, r) for i in range(3)}

    def test_mixed_run_is_bitwise_across_modes(self, protocol):
        run, Params = _PROTOCOLS[protocol]
        params = Params(k=1, eps=1.0, seed=250)
        cl = self._mixed_cluster()
        serial = run(cl, params)
        assert serial.finalize == "mixed"
        assert serial.payloads == ["summary", "raw", "R", "sketch"]
        up = self._uplinks(cl)
        assert [up[i] for i in range(4)] == stage_four_words(cl, serial, 250,
                                                             _SKETCH[protocol])
        r = selected_rank(cl, serial)
        assert [up[i] for i in range(3)] == [r * 2, _cols_words(cl.part_dense(1)), _r_words(2, r)]
        cp = self._mixed_cluster(parallel=True)
        parallel = run(cp, params)
        assert parallel.U.tobytes() == serial.U.tobytes()
        assert cp.ledger.messages == cl.ledger.messages
        A = cl.materialize()
        C = A[:, serial.core_indices + serial.adaptive_indices]
        err = span_residual_sq(A, serial.U)
        assert err <= (1 + params.eps) * colspan_residual_sq(A, C, 1)

    def test_mixed_run_weighs_sketched_and_exact_columns_alike(self, protocol):
        # the sketched machine's 160 columns lie along e_1, Frobenius norm
        # 1, and sketch at 3 words a sketch column; the exact machine's 8
        # lie along e_0, norm 3; the third machine holds noise, which makes
        # r > 24, so that the sketch undercuts every r x 2 summary, and
        # ships its own summary.  A sketch that counted its columns
        # xi = 16 times over would pick e_1, at about nine times the optimum
        run, Params = _PROTOCOLS[protocol]
        m = 40
        rng = np.random.default_rng(31)
        v = rng.standard_normal(160)
        sketched = np.zeros((m, 160))
        sketched[1] = v / np.linalg.norm(v)
        exact = np.zeros((m, 8))
        exact[0] = 3.0 * rng.choice([-1.0, 1.0], 8) / np.sqrt(8)
        cl = Cluster([sketched, exact, 0.01 * rng.standard_normal((m, 80))], kind="column")
        res = run(cl, Params(k=1, eps=1.0, seed=251, c2=100))
        assert res.finalize == "mixed" and res.payloads == ["sketch", "raw", "summary"]
        assert selected_rank(cl, res) > 24
        up = self._uplinks(cl)
        assert up[1] == _cols_words(exact)
        assert up[0] <= selected_rank(cl, res) * res.xi
        A = cl.materialize()
        C = A[:, res.core_indices + res.adaptive_indices]
        assert span_residual_sq(A, res.U) <= 1.01 * colspan_residual_sq(A, C, 1)

    def test_exact_machines_never_form_their_sketch(self, protocol):
        _, Params = _PROTOCOLS[protocol]
        asked = set()

        class Counted(Params):
            def finalize(self, cluster, parts, xi, seed):
                support, block = super().finalize(cluster, parts, xi, seed)

                def counted(i, lo, hi):
                    asked.add(i)
                    return block(i, lo, hi)
                return support, counted

        cl = self._mixed_cluster()
        res = run_css_protocol(cl, Counted(k=1, eps=1.0, seed=250))
        assert res.finalize == "mixed"
        # the exact payloads go in one round, the summaries in the next and
        # the sketch blocks in the last
        rounds: dict[int, set[int]] = {}
        for msg in cl.ledger.messages:
            if msg.phase == "subspace-up":
                rounds.setdefault(msg.round_no, set()).add(msg.sender)
        assert [rounds[n] for n in sorted(rounds)] == [{1, 2}, {0}, {3}]
        assert asked == {3}

    def test_stack_preserves_projection_costs(self, protocol, monkeypatch):
        # The server factors one stack S: the R factors, the summaries and
        # the summed sketch.  For a rank-k projection X in span(C)
        # coordinates, ||S - X S||_F^2 plus the tails the summaries cut
        # must be within 1 +- eps / 2 of ||B - X B||_F^2, B = Y^T A.  At
        # k = 1, eps = 1/2 (t = 4, xi = 64 sign or 32 count buckets), each
        # machine ships another payload, as in _mixed_cluster
        run, Params = _PROTOCOLS[protocol]
        k, eps, t, m = 1, 0.5, 4, 80
        stacks, bases = [], []
        svd, span_basis = column_partition.truncated_svd, column_partition._span_basis

        def stack(X, kk):
            stacks.append(X)
            return svd(X, kk)

        def basis(C, gids):
            bases.append(span_basis(C, gids))
            return bases[-1]
        monkeypatch.setattr(column_partition, "truncated_svd", stack)
        monkeypatch.setattr(column_partition, "_span_basis", basis)
        dense = lowrank_plus_noise(29, m, 102, 1, 0.3)
        row = np.zeros((m, 160))
        row[5] = rand_matrix(290, 1, 160)
        cl = Cluster([dense[:, :100], sparse_columns_block(291, m, 8, 3), dense[:, 100:], row],
                     kind="column")
        res = run(cl, Params(k=k, eps=eps, seed=29))
        assert res.payloads == ["summary", "raw", "R", "sketch"]
        S, Y = stacks[-1], bases[-1]
        r = Y.shape[1]
        B = Y.T @ cl.materialize()
        tails = sum(float(np.sum(np.linalg.svd(Y.T @ cl.part_dense(i), compute_uv=False)[t:] ** 2))
                    for i, kind in enumerate(res.payloads) if kind == "summary")
        assert tails > 0.0
        rng = np.random.default_rng(292)
        tops = [np.linalg.svd(M, full_matrices=False)[0][:, :k] for M in (B, S)]
        for Q in tops + [np.linalg.qr(rng.standard_normal((r, k)))[0] for _ in range(30)]:
            cost = lambda M: float(np.sum((M - Q @ (Q.T @ M)) ** 2))
            assert abs(cost(S) + tails - cost(B)) <= eps / 2 * cost(B)

    def test_all_summary_is_near_the_span_optimum(self, protocol):
        # r = m = 30 > 2t - 1 at t = 8 (k = 2, eps = 1/2): every machine
        # ships its summary, and U is within 1 + eps of the span optimum
        run, Params = _PROTOCOLS[protocol]
        k, eps = 2, 0.5
        for seed in range(5):
            cl = _dense_cluster(270 + seed)
            res = run(cl, Params(k=k, eps=eps, seed=2700 + seed))
            assert res.payloads == ["summary"] * cl.s and res.finalize == "sketch"
            A = cl.materialize()
            C = A[:, res.core_indices + res.adaptive_indices]
            assert span_residual_sq(A, res.U) <= (1 + eps) * colspan_residual_sq(A, C, k)

    def test_bound_covers_the_sketch_words(self, protocol):
        m, xi, seed = 20, 600, 7
        params = _PROTOCOLS[protocol][1](k=1, eps=1.0, seed=seed)
        assert _FINALIZE_BLOCK < xi      # two blocks
        # cancelling columns: two entries in row 3 whose sketched terms sum
        # to zero in some sketch column, so the block holds fewer nonzeros
        # than its support
        cancel = np.zeros((m, 100))
        if protocol == "fast":
            # two columns hashed into one bucket, with opposite sketched terms
            emb = sparse_embedding(xi, 100, seed)
            j1, j2 = next((a, b) for b in range(100) for a in range(b)
                          if emb.buckets[a] == emb.buckets[b])
            cancel[3, [j1, j2]] = 1.0, -emb.signs[j1] * emb.signs[j2]
        else:
            # a sign-sketch column sums the two terms with opposite signs
            # about half the time
            cancel[3, :2] = 1.0
        clusters = [_sparse_cluster(27, m=m, widths=(700, 40), phi=3),
                    Cluster([cancel], kind="column")]
        cancelled = False
        for cl in clusters:
            parts = [params.part(cl, i) for i in range(cl.s)]
            support, sketch = params.finalize(cl, parts, xi, seed)
            for r in (1, 5, m):
                for i in range(cl.s):
                    blocks = [sketch(i, lo, min(lo + _FINALIZE_BLOCK, xi))
                              for lo in range(0, xi, _FINALIZE_BLOCK)]
                    actual = sum(min(r * B.shape[1], _cols_words(B)) for B in blocks)
                    bound = _sketch_bound(support(i), r, m)
                    assert bound >= actual
                    cancelled |= bound > actual
        assert cancelled

    def test_stack_holds_each_r_factor_as_shipped(self, protocol, monkeypatch):
        # three exact machines of 30 columns at r = 30 stack 90 R-factor rows,
        # more than r: the finalize SVD takes them as shipped, with no QR of
        # the stack, since any F with F F^T = B B^T has B's top-k
        run, Params = _PROTOCOLS[protocol]
        stacks = []
        svd = column_partition.truncated_svd

        def stack(X, kk):
            stacks.append(X)
            return svd(X, kk)
        monkeypatch.setattr(column_partition, "truncated_svd", stack)
        cl = self._exact_cluster()
        res = run(cl, Params(k=2, eps=0.25, seed=260))
        assert res.payloads == ["raw", "R", "raw"]
        r = selected_rank(cl, res)
        assert stacks[-1].shape == (r, 3 * min(30, r)) and 3 * min(30, r) > r


class TestPayloadRule:
    """A machine ships the payload of fewest words among those it offers,
    a tie going to the first in the order R, raw, summary, sketch."""

    @staticmethod
    def _hand_rule(raw, r, summary, sketch):
        # the rule spelled out case by case: the summary when strictly
        # shorter than both exact payloads and no longer than the sketch,
        # else the sketch when strictly the shortest, else the shorter exact
        # payload, R on a tie
        exact = min(raw, r)
        if summary is not None and summary < exact and (sketch is None or summary <= sketch):
            return "summary"
        if sketch is not None and sketch < exact:
            return "sketch"
        return "raw" if raw < r else "R"

    def test_ordered_minimum_over_a_word_grid(self):
        assert _PAYLOAD_ORDER == ("R", "raw", "summary", "sketch")
        words = range(7)
        cases = 0
        for raw in words:
            for r in words:
                for summary in (None, *words):
                    for sketch in (None, *words):
                        offers = {"raw": raw, "R": r}
                        if summary is not None:
                            offers["summary"] = summary
                        if sketch is not None:
                            offers["sketch"] = sketch
                        kind = _payload_kind(offers)
                        assert kind in offers and offers[kind] == min(offers.values())
                        earlier = _PAYLOAD_ORDER[:_PAYLOAD_ORDER.index(kind)]
                        assert all(offers[e] > offers[kind] for e in earlier if e in offers)
                        assert kind == self._hand_rule(raw, r, summary, sketch)
                        # the order in which a machine lists its offers is moot
                        assert _payload_kind(dict(reversed(offers.items()))) == kind
                        cases += 1
        assert cases == 3136


# -- what each machine is sent: a column once, and never its own ----------
#
# The wire model the ledger prices.  A column ships as a header word, which
# packs its global index and its nonzero count z, then its z (row, value)
# pairs or its m values, whichever is fewer.  An index word is negative and
# names a column the receiver already holds: its global index in stage 2's
# downlink to the column's owner, or the position of the column's first
# occurrence in the sender's draws in stage 3.


def _column_words(col, gid):
    m = col.size
    rows = np.flatnonzero(col)
    body = np.concatenate([rows, col[rows]]) if 2 * rows.size < m else col
    return [float(gid * (m + 1) + rows.size), *body.tolist()]


def _decode(words, m):
    """Items ("col", gid, column) or ("ref", x), in payload order."""
    items, p = [], 0
    while p < len(words):
        head, p = words[p], p + 1
        if head < 0:
            items.append(("ref", int(-head) - 1))
            continue
        gid, z = divmod(int(head), m + 1)
        col = np.zeros(m)
        if 2 * z < m:
            col[np.asarray(words[p:p + z], dtype=np.int64)] = words[p + z:p + 2 * z]
            p += 2 * z
        else:
            col[:] = words[p:p + m]
            p += m
        items.append(("col", gid, col))
    return items


def _owner(cl, gid):
    return cl.machine_of_column(gid)[0]


def _upload(A, draws):
    """A machine's stage-3 upload of its draws (global indices, in order)."""
    words, seen = [], {}
    for t, g in enumerate(draws):
        if g in seen:
            words.append(-1.0 - seen[g])
        else:
            seen[g] = t
            words.extend(_column_words(A[:, g], g))
    return words


def _machine_payloads(cl, res):
    """Per machine: its global-down and span-down payloads, and its upload."""
    A = cl.materialize()
    core_all = "core-all" in res.flags
    draws = [[g for g in res.adaptive_indices if _owner(cl, g) == i] for i in range(cl.s)]
    ups = [_upload(A, d) for d in draws]
    out = []
    for j in range(cl.s):
        down = []
        for g in res.core_indices:
            if _owner(cl, g) != j:
                down.extend(_column_words(A[:, g], g))
            elif not core_all:
                down.append(-1.0 - g)
        span = [w for i in range(cl.s) if i != j for w in ups[i]]
        out.append((down, ups[j], span))
    return out


def _rebuild(cl, j, res, down, span):
    """C_full as machine j rebuilds it from its own block, the columns it
    chose itself (its stage-1 uploads when the core keeps them all, and its
    stage-3 draws), and its two downlink payloads."""
    block, lo, m = cl.part_dense(j), cl.col_offsets[j], cl.m
    mine = [g for g in res.core_indices if _owner(cl, g) == j]
    core, spliced = [], False
    for item in _decode(down, m):
        if item[0] == "ref":
            core.append(block[:, item[1] - lo])
            continue
        if "core-all" in res.flags and not spliced and _owner(cl, item[1]) > j:
            core.extend(block[:, g - lo] for g in mine)
            spliced = True
        core.append(item[2])
    if "core-all" in res.flags and not spliced:
        core.extend(block[:, g - lo] for g in mine)
    # the relayed uploads arrive in machine order; a repeat names a
    # position in its sender's draws, and the sender is the owner of the
    # last whole column
    sent = {i: [] for i in range(cl.s)}
    sender = None
    for item in _decode(span, m):
        if item[0] == "col":
            sender = _owner(cl, item[1])
            sent[sender].append(item[2])
        else:
            sent[sender].append(sent[sender][item[1]])
    sent[j] = [block[:, g - lo] for g in res.adaptive_indices if _owner(cl, g) == j]
    cols = core + [c for i in range(cl.s) for c in sent[i]]
    return np.column_stack(cols) if cols else np.zeros((m, 0))


def _charged(cl, phase, receiver=None, sender=None):
    return [msg.words for msg in cl.ledger.messages if msg.phase == phase
            and (receiver is None or msg.receiver == receiver)
            and (sender is None or msg.sender == sender)]


def _zero_machine_cluster(seed):
    blocks = [sparse_columns_block(seed * 97 + i, 30, 30, 8) for i in range(2)]
    return Cluster(blocks + [SparseColMatrix.from_dense(np.zeros((30, 30)))], kind="column")


def _low_rank_cluster(seed):
    A = np.zeros((30, 40))
    A[:, :20] = rank_exactly(seed, 30, 20, 3)
    return Cluster([SparseColMatrix.from_dense(A[:, :20]),
                    SparseColMatrix.from_dense(A[:, 20:])], kind="column")


@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
class TestColumnsReachEachMachineOnce:
    """Every machine rebuilds the protocol's C_full, byte for byte, from its
    own block and exactly the words the ledger charges it."""

    CASES = {
        "repeats": lambda: _sparse_cluster(8, phi=6),
        "core-all": lambda: _sparse_cluster(8, widths=(3, 4)),
        "idle-machine": lambda: _zero_machine_cluster(5),
        "no-adaptive": lambda: _low_rank_cluster(0),
        "one-machine": lambda: _sparse_cluster(8, widths=(60,)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rebuild_from_the_charged_payloads(self, protocol, case, monkeypatch):
        run, Params = _PROTOCOLS[protocol]
        bases = []
        span_basis = column_partition._span_basis

        def spy(C, gids):
            bases.append(C.copy())
            return span_basis(C, gids)
        monkeypatch.setattr(column_partition, "_span_basis", spy)
        cl = self.CASES[case]()
        res = run(cl, Params(k=2, eps=0.5, seed=3))
        C_full = bases[-1]
        assert C_full.shape[1] == res.c_actual
        draws = np.bincount([_owner(cl, g) for g in res.adaptive_indices], minlength=cl.s)
        if case == "repeats":
            assert len(set(res.adaptive_indices)) < len(res.adaptive_indices)
            assert "core-all" not in res.flags
        if case == "idle-machine":
            assert draws[2] == 0 and draws[:2].min() > 0
        if case == "no-adaptive":
            assert "no-adaptive" in res.flags and res.adaptive_indices == []
        if case == "core-all":
            # the core keeps every upload, so an owner is sent nothing for its own
            assert "core-all" in res.flags
            assert res.phase_words["global-down"] == _cols_words(C_full[:, :len(res.core_indices)])
        if case == "one-machine":
            assert res.phase_words["global-down"] == res.phase_words["span-down"] == 0
        for j, (down, up, span) in enumerate(_machine_payloads(cl, res)):
            assert _charged(cl, "global-down", receiver=j) == [len(down)]
            assert _charged(cl, "adaptive", sender=j) == [len(up)]
            assert _charged(cl, "span-down", receiver=j) == [len(span)]
            assert _rebuild(cl, j, res, down, span).tobytes() == C_full.tobytes()


@pytest.mark.parametrize("protocol", sorted(_PROTOCOLS))
@pytest.mark.parametrize("m, s, phi", [(m, s, phi) for m in (40, 80)
                                       for s in (2, 3, 4) for phi in (2, 8)])
def test_relay_identities(protocol, m, s, phi):
    run, Params = _PROTOCOLS[protocol]
    parts = [sparse_columns_block(1000 * m + 10 * s + phi + i, m, 30, phi) for i in range(s)]
    params = Params(k=2, eps=1.0, seed=m + s + phi)
    cl = Cluster(parts, kind="column")
    res = run(cl, params)
    w = res.phase_words
    A = cl.materialize()
    words = lambda g: min(2 * int(np.count_nonzero(A[:, g])), m) + 1
    distinct = set(res.adaptive_indices)
    assert w["adaptive"] == sum(map(words, distinct)) + len(res.adaptive_indices) - len(distinct)
    assert w["span-down"] == (s - 1) * w["adaptive"]
    held = 0 if "core-all" in res.flags else len(res.core_indices)
    assert w["global-down"] == (s - 1) * sum(map(words, res.core_indices)) + held
    padded = [SparseColMatrix((2 * m, P.n_cols), P.indptr, P.indices, P.data) for P in parts]
    assert run(Cluster(padded, kind="column"), params).total_words == res.total_words

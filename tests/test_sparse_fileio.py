"""Column-sparse storage and the text file formats.

Round-trip fidelity matters here: MatrixMarket files must reproduce exact
float64 bits, because downstream protocols are tested bitwise.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rand_matrix
from sketchpca.errors import InputError
from sketchpca import fileio
from sketchpca.sparse import SparseColMatrix, scatter_add


def _random_sparse(seed: int, m: int, n: int, density: float = 0.2) -> SparseColMatrix:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
    return SparseColMatrix.from_dense(A)


class TestSparseColMatrix:
    def test_dense_round_trip(self):
        A = rand_matrix(0, 6, 9)
        A[A < 0] = 0.0
        S = SparseColMatrix.from_dense(A)
        assert np.array_equal(S.to_dense(), A)
        assert S.nnz == np.count_nonzero(A)

    def test_column_access_and_counts(self):
        S = _random_sparse(1, 8, 5)
        D = S.to_dense()
        cols = S.entry_cols()
        assert cols.shape == (S.nnz,)
        for j in range(5):
            lo, hi = S.indptr[j], S.indptr[j + 1]
            assert np.array_equal(D[S.indices[lo:hi], j], S.data[lo:hi])
            assert S.col_nnz()[j] == np.count_nonzero(D[:, j])
            assert np.all(cols[lo:hi] == j)

    def test_take_columns_verbatim_with_repeats(self):
        S = _random_sparse(2, 7, 6)
        T = S.take_columns([4, 0, 4])
        D = S.to_dense()
        assert np.array_equal(T.to_dense(), D[:, [4, 0, 4]])

    def test_frob_and_col_norms(self):
        S = _random_sparse(4, 9, 8)
        D = S.to_dense()
        assert S.frob_sq() == pytest.approx(np.sum(D * D))
        assert S.col_sqnorms() == pytest.approx(np.sum(D * D, axis=0))

    def test_empty_matrix(self):
        S = SparseColMatrix.from_dense(np.zeros((4, 0)))
        assert S.shape == (4, 0) and S.nnz == 0

    def test_validation(self):
        with pytest.raises(InputError):  # unsorted rows
            SparseColMatrix((3, 1), [0, 2], [2, 0], [1.0, 1.0])
        with pytest.raises(InputError):  # stored zero
            SparseColMatrix((3, 1), [0, 1], [1], [0.0])
        with pytest.raises(InputError):  # out of range
            SparseColMatrix((3, 1), [0, 1], [3], [1.0])
        with pytest.raises(InputError):  # indptr length
            SparseColMatrix((3, 2), [0, 1], [0], [1.0])



class TestSparseColMatrixBits:
    """The array-at-a-time storage methods against per-column references."""

    def _dense(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.4)
        A[:, [0, 4, 8]] = 0.0                      # empty columns, both ends
        A[3, 5] = -0.0                             # not a stored entry
        return A

    def test_from_dense_matches_a_column_loop(self):
        for seed in range(5):
            A = self._dense(seed)
            S = SparseColMatrix.from_dense(A)
            ref = SparseColMatrix.from_columns(A.shape, [
                (np.nonzero(A[:, j])[0], A[np.nonzero(A[:, j])[0], j])
                for j in range(A.shape[1])])
            assert S.indptr.tobytes() == ref.indptr.tobytes()
            assert S.indices.tobytes() == ref.indices.tobytes()
            assert S.data.tobytes() == ref.data.tobytes()
            assert S.to_dense().tobytes() == (A + 0.0).tobytes()

    def test_take_columns_matches_a_column_loop(self):
        S = SparseColMatrix.from_dense(self._dense(7))
        idx = [8, 2, 2, 0, 5, 1]
        T = S.take_columns(idx)
        spans = [slice(S.indptr[j], S.indptr[j + 1]) for j in idx]
        ref = SparseColMatrix.from_columns((S.n_rows, len(idx)),
                                           [(S.indices[c], S.data[c]) for c in spans])
        assert T.indptr.tobytes() == ref.indptr.tobytes()
        assert T.indices.tobytes() == ref.indices.tobytes()
        assert T.data.tobytes() == ref.data.tobytes()
        assert S.take_columns([]).shape == (7, 0)

    def test_validation_names_the_first_unsorted_column(self):
        # rows may fall between columns; within column 3 (after an empty
        # column 2) they must rise strictly
        indptr = [0, 2, 3, 3, 5, 7]
        indices = [1, 4, 0, 2, 2, 3, 1]
        with pytest.raises(InputError, match="column 3 not strictly increasing"):
            SparseColMatrix((5, 5), indptr, indices, np.ones(7))
        indices[4] = 3
        with pytest.raises(InputError, match="column 4 not strictly increasing"):
            SparseColMatrix((5, 5), indptr, indices, np.ones(7))
        indices[6] = 4
        assert SparseColMatrix((5, 5), indptr, indices, np.ones(7)).nnz == 7


class TestScatterAdd:
    """scatter_add is np.add.at into zeros, bit for bit."""

    @staticmethod
    def _add_at(shape, index, values):
        out = np.zeros(shape)
        np.add.at(out, index, values)
        return out

    def _cases(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((60, 4))
        vals[::3] = -0.0                           # -0.0 terms, and cells of only -0.0
        vals[1::7] *= 1e300                        # sums that round
        idx = rng.integers(0, 5, 60)
        rows, cols = rng.integers(0, 6, 40), rng.integers(0, 3, 40)
        pairs = np.where(rng.random(40) < 0.3, -0.0, rng.standard_normal(40))
        empty = np.zeros(0, dtype=np.int64)
        return [
            ((5, 4), idx, vals),                   # rows of a 2-D operand
            ((5,), idx, vals[:, 0]),               # a 1-D operand
            ((5, 2, 2), idx, vals.reshape(60, 2, 2)),
            ((6, 3), (rows, cols), pairs),         # one value per (row, col)
            ((0, 4), empty, np.zeros((0, 4))),     # empty shapes
            ((5, 0), empty, np.zeros((0, 0))),
            ((3,), empty, np.zeros(0)),
            ((0, 0), (empty, empty), np.zeros(0)),
        ]

    def test_matches_add_at_bitwise(self):
        for shape, index, values in self._cases():
            got = scatter_add(shape, index, values)
            ref = self._add_at(shape, index, values)
            assert got.shape == ref.shape == shape
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), shape


class TestMatrixMarket:
    @pytest.mark.parametrize("shape", [(5, 7), (1, 1), (4, 0), (0, 3)])
    def test_dense_exact_round_trip(self, tmp_path, shape):
        A = rand_matrix(9, *shape) * 1e-7  # exercise tiny magnitudes
        p = tmp_path / "a.mtx"
        fileio.write_matrix_market(p, A)
        B = fileio.read_matrix_market(p)
        assert isinstance(B, np.ndarray)
        assert B.shape == A.shape
        assert B.tobytes() == A.tobytes()

    def test_dense_awkward_values(self, tmp_path):
        A = np.array([[0.1 + 0.2, -5e-324], [1e308, -0.0]])
        p = tmp_path / "w.mtx"
        fileio.write_matrix_market(p, A)
        B = fileio.read_matrix_market(p)
        assert B.tobytes() == A.tobytes()

    def test_sparse_round_trip(self, tmp_path):
        S = _random_sparse(11, 9, 6)
        p = tmp_path / "s.mtx"
        fileio.write_matrix_market(p, S)
        T = fileio.read_matrix_market(p)
        assert isinstance(T, SparseColMatrix)
        assert T.to_dense().tobytes() == S.to_dense().tobytes()

    def test_sparse_empty(self, tmp_path):
        S = SparseColMatrix.from_dense(np.zeros((3, 4)))
        p = tmp_path / "z.mtx"
        fileio.write_matrix_market(p, S)
        T = fileio.read_matrix_market(p)
        assert T.shape == (3, 4) and T.nnz == 0

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("not a matrix\n")
        with pytest.raises(InputError):
            fileio.read_matrix_market(p)

    def test_rejects_duplicates(self, tmp_path):
        p = tmp_path / "dup.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 1 1.0\n1 1 2.0\n")
        with pytest.raises(InputError):
            fileio.read_matrix_market(p)

    def test_rejects_wrong_count(self, tmp_path):
        p = tmp_path / "short.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
        with pytest.raises(InputError):
            fileio.read_matrix_market(p)

    def test_column_major_body(self, tmp_path):
        A = np.array([[1.0, 3.0], [2.0, 4.0]])
        p = tmp_path / "cm.mtx"
        fileio.write_matrix_market(p, A)
        vals = [line for line in p.read_text().splitlines()[2:]]
        assert [float(v) for v in vals] == [1.0, 2.0, 3.0, 4.0]


def _storage(A: SparseColMatrix) -> tuple:
    return A.shape, A.indptr.tobytes(), A.indices.tobytes(), A.data.tobytes()


class TestCoordinateReader:
    """The coordinate body is read into entry arrays, sorted by (column,
    row); the declared width costs only the column index."""

    def test_a_huge_declared_width_reads_fast_and_small(self, tmp_path):
        p = tmp_path / "wide.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n1 2000000 0\n")
        assert p.stat().st_size == 58
        tracemalloc.start()
        try:
            start = time.perf_counter()
            A = fileio.read_matrix_market(p)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (1, 2000000) and A.nnz == 0
        assert elapsed < 2.0
        assert peak < 64 * 2**20

    def test_duplicates_name_the_lowest_column(self, tmp_path):
        p = tmp_path / "dup.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n3 4 5\n"
                     "2 4 1.0\n1 1 3.0\n2 4 2.0\n3 2 1.0\n3 2 -1.0\n")
        with pytest.raises(InputError, match="duplicate entry in column 2$"):
            fileio.read_matrix_market(p)

    @given(seed=st.integers(0, 2**16), zeros=st.integers(0, 3))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_entry_order_and_explicit_zeros_leave_the_bits(self, tmp_path, seed, zeros):
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(1, 7, size=2))
        S = _random_sparse(seed, m, n, density=0.5)
        p = tmp_path / "ordered.mtx"
        fileio.write_matrix_market(p, S)
        head, size, *entries = p.read_text().splitlines()
        entries += [f"{rng.integers(m) + 1} {rng.integers(n) + 1} {z}"
                    for z in ("0", "-0.0", "0e5")[:zeros]]
        shuffled = [entries[t] for t in rng.permutation(len(entries))]
        q = tmp_path / "shuffled.mtx"
        q.write_text("\n".join([head, f"{m} {n} {len(entries)}"] + shuffled) + "\n")
        ordered = fileio.read_matrix_market(p)
        assert _storage(ordered) == _storage(S)
        assert _storage(fileio.read_matrix_market(q)) == _storage(S)


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        updates = [(int(rng.integers(0, 6)), int(rng.integers(0, 8)),
                    float(rng.standard_normal())) for _ in range(40)]
        p = tmp_path / "u.stream"
        fileio.write_stream_file(p, (6, 8), updates)
        shape, got = fileio.read_stream_file(p)
        assert shape == (6, 8)
        assert len(got) == 40
        for (i, j, x), (gi, gj, gx) in zip(updates, got):
            assert (i, j) == (gi, gj)
            assert np.float64(x).tobytes() == np.float64(gx).tobytes()

    def test_bad_index_on_write(self, tmp_path):
        with pytest.raises(InputError):
            fileio.write_stream_file(tmp_path / "bad", (2, 2), [(2, 0, 1.0)])

    def test_non_finite_on_write(self, tmp_path):
        # the writer validates as the stream engine does, so it never
        # leaves a file its reader refuses
        with pytest.raises(InputError, match="finite"):
            fileio.write_stream_file(tmp_path / "bad", (2, 2), [(0, 0, 1.0), (1, 1, np.nan)])

    def test_bad_header(self, tmp_path):
        p = tmp_path / "h.stream"
        p.write_text("3 3\n")
        with pytest.raises(InputError):
            fileio.read_stream_file(p)


# -- corrupted files: a reader returns a result or raises InputError ------

_TOKENS = st.one_of(
    st.sampled_from(["abc", "x", "1e", "--1", "0x10", "nan", "inf", "-0", "1.5",
                     "%", "%%MatrixMarket", "1 2", "\t", "\xff", "\ud800"]),
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)
_INSERTS = st.sampled_from(["", "   ", "% a comment", "%", "%%MatrixMarket matrix"])


@st.composite
def _corruptions(draw, lines):
    """Replace a token, drop or duplicate a line, or insert a comment or
    blank line, one to three times."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "drop", "duplicate", "insert"]))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(_INSERTS))
            continue
        at = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        else:
            tokens = lines[at].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[at] = " ".join(tokens)
    return lines


def _valid_lines(tmp_path, kind: str, seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(1, 5, size=2))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
    p = tmp_path / "valid"
    if kind == "stream":
        fileio.write_stream_file(p, (m, n), [(int(rng.integers(m)), int(rng.integers(n)),
                                              float(rng.standard_normal()))
                                             for _ in range(int(rng.integers(0, 6)))])
    else:
        fileio.write_matrix_market(p, SparseColMatrix.from_dense(A) if kind == "coordinate"
                                   else A)
    return p.read_text().splitlines()


class TestCorruptedFiles:
    @pytest.mark.parametrize("kind", ["array", "coordinate", "stream"])
    @given(data=st.data(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_returns_or_raises_input_error(self, tmp_path, kind, data, seed):
        lines = data.draw(_corruptions(_valid_lines(tmp_path, kind, seed)))
        p = tmp_path / "corrupt"
        # surrogates stay as invalid UTF-8 bytes, so undecodable files occur
        p.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
        read = fileio.read_stream_file if kind == "stream" else fileio.read_matrix_market
        try:
            read(p)
        except InputError:
            pass

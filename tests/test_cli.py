"""End-to-end CLI runs: reports, exit codes, determinism, file plumbing."""

import json

import numpy as np
import pytest

from sketchpca.cli import main
from sketchpca.fileio import read_matrix_market, write_matrix_market
from sketchpca.sparse import SparseColMatrix


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def dense_mtx(tmp_path, capsys):
    path = str(tmp_path / "A.mtx")
    code, _, _ = run_cli(capsys, ["gen", "lowrank", "--m", "24", "--n", "30",
                                  "-k", "3", "--noise", "0.05", "--seed", "1",
                                  "--output", path])
    assert code == 0
    return path


@pytest.fixture
def stream_file(tmp_path, capsys):
    path = str(tmp_path / "s.txt")
    code, _, _ = run_cli(capsys, ["gen", "lowrank", "--m", "20", "--n", "24",
                                  "-k", "2", "--noise", "0.05", "--seed", "4",
                                  "--stream", "--output", path])
    assert code == 0
    return path


class TestBatchCommand:
    def test_report_fields_and_ratio_floor(self, capsys, dense_mtx):
        rep = run_json(capsys, ["batch", "--input", dense_mtx, "-k", "3",
                                "--eps", "0.5", "--seed", "7"])
        assert rep["algorithm"] == "batch"
        assert rep["ratio"] >= 1.0 - 1e-9
        assert rep["ratio_estimated"] is False
        assert rep["wall_time_s"] is None
        assert rep["seed"] == 7
        assert rep["parameters"]["shape"] == [24, 30]

    def test_same_seed_byte_identical_output(self, capsys, dense_mtx):
        argv = ["batch", "--input", dense_mtx, "-k", "3", "--eps", "0.5",
                "--seed", "7"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_timings_flag_fills_wall_time(self, capsys, dense_mtx):
        rep = run_json(capsys, ["batch", "--input", dense_mtx, "-k", "3",
                                "--eps", "0.5", "--seed", "7", "--timings"])
        assert isinstance(rep["wall_time_s"], float)

    def test_json_out_writes_the_same_text(self, capsys, tmp_path, dense_mtx):
        out_path = tmp_path / "rep.json"
        _, stdout, _ = run_cli(capsys, ["batch", "--input", dense_mtx, "-k", "3",
                                        "--eps", "0.5", "--seed", "7",
                                        "--json-out", str(out_path)])
        assert out_path.read_text() == stdout

    def test_const_overrides_change_the_resolved_widths(self, capsys, dense_mtx):
        rep = run_json(capsys, ["batch", "--input", dense_mtx, "-k", "3",
                                "--eps", "0.5", "--seed", "7",
                                "--const-xi-left", "9", "--const-xi-right", "11"])
        assert rep["parameters"]["xi_left"] == 9
        assert rep["parameters"]["xi_right"] == 11


class TestDistArbCommand:
    def test_ledger_sums_to_total(self, capsys, dense_mtx):
        rep = run_json(capsys, ["dist-arb", "--input", dense_mtx, "-k", "3",
                                "--eps", "0.5", "--machines", "3", "--seed", "2"])
        assert rep["branch"] in ("low-rank", "smoothed")
        assert sum(rep["ledger"].values()) == rep["total_words"]
        assert rep["ratio"] >= 1.0 - 1e-9


class TestCoordinateInputToDenseAlgorithms:
    """batch and dist-arb materialize a coordinate file before they run."""

    @pytest.mark.parametrize("command", ["batch", "dist-arb"])
    def test_coordinate_and_array_files_report_alike(self, capsys, tmp_path, dense_mtx,
                                                     command):
        coo = str(tmp_path / "A-coo.mtx")
        write_matrix_market(coo, SparseColMatrix.from_dense(read_matrix_market(dense_mtx)))
        assert isinstance(read_matrix_market(coo), SparseColMatrix)
        argv = ["-k", "3", "--eps", "0.5", "--seed", "7"]
        if command == "dist-arb":
            argv += ["--machines", "3"]
        code, from_array, err = run_cli(capsys, [command, "--input", dense_mtx] + argv)
        assert code == 0, err
        assert run_cli(capsys, [command, "--input", coo] + argv)[1] == from_array

    def test_coordinate_file_too_large_to_materialize(self, capsys, tmp_path):
        # 4000 x 3000 cells declared, three entries stored
        p = tmp_path / "big.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "4000 3000 3\n1 1 1.0\n2 2 2.0\n3 3 3.0\n")
        for command in ("batch", "dist-arb"):
            code, _, err = run_cli(capsys, [command, "--input", str(p), "-k", "1",
                                            "--eps", "0.5"])
            assert code == 2
            assert "too large to materialize" in err


class TestDistCssCommands:
    def test_css_hard_pipeline_has_a_ratio(self, capsys, tmp_path):
        h = str(tmp_path / "h.mtx")
        assert run_cli(capsys, ["gen", "css-hard", "-k", "1", "--phi", "6",
                                "--output", h])[0] == 0
        rep = run_json(capsys, ["dist-css", "--input", h, "-k", "1",
                                "--eps", "0.5", "--machines", "2", "--seed", "3"])
        assert rep["ratio"] is not None
        assert sum(rep["ledger"].values()) == rep["total_words"]

    def test_manifest_widths_flow_through(self, capsys, tmp_path):
        mtx = str(tmp_path / "dh.mtx")
        man = str(tmp_path / "dh.json")
        assert run_cli(capsys, ["gen", "dense-hard", "--m", "10", "-k", "2",
                                "--machines", "3", "--n", "32", "--seed", "5",
                                "--output", mtx, "--manifest", man])[0] == 0
        assert json.loads(open(man).read())["widths"] == [2, 10, 20]
        rep = run_json(capsys, ["dist-css", "--input", mtx, "-k", "2",
                                "--eps", "0.5", "--widths", man, "--seed", "3"])
        assert rep["parameters"]["widths"] == [2, 10, 20]
        assert rep["ratio"] >= 1.0 - 1e-9

    def test_noiseless_rank_k_input_has_no_ratio(self, capsys, tmp_path):
        # the rank-2 tail is about 1e-29 against ||A||_F^2 of about 1.6e3:
        # roundoff, so a ratio against it would be roundoff over roundoff
        mtx = str(tmp_path / "exact.mtx")
        assert run_cli(capsys, ["gen", "lowrank", "--m", "24", "--n", "40", "-k", "2",
                                "--noise", "0", "--seed", "2", "--output", mtx])[0] == 0
        rep = run_json(capsys, ["dist-css", "--input", mtx, "-k", "2", "--eps", "0.5",
                                "--seed", "3", "--machines", "2"])
        assert rep["ratio"] is None
        rep = run_json(capsys, ["batch", "--input", mtx, "-k", "2", "--eps", "0.5",
                                "--seed", "3"])
        assert rep["ratio"] is None

    def test_even_split_default(self, capsys, tmp_path):
        h = str(tmp_path / "h.mtx")
        run_cli(capsys, ["gen", "css-hard", "-k", "2", "--phi", "5",
                         "--output", h])
        rep = run_json(capsys, ["dist-css", "--input", h, "-k", "2",
                                "--eps", "0.5", "--machines", "3", "--seed", "1"])
        assert rep["parameters"]["widths"] == [4, 3, 3]

    def test_fast_variant_runs_with_delta(self, capsys, tmp_path):
        h = str(tmp_path / "h.mtx")
        run_cli(capsys, ["gen", "css-hard", "-k", "1", "--phi", "6",
                         "--output", h])
        rep = run_json(capsys, ["dist-css-fast", "--input", h, "-k", "1",
                                "--eps", "0.5", "--machines", "2",
                                "--delta", "0.1", "--seed", "3"])
        assert rep["algorithm"] == "dist-css-fast"
        assert rep["ratio"] is not None

    @pytest.mark.parametrize("command", ["dist-css", "dist-css-fast"])
    def test_report_names_the_finalize_branch(self, capsys, tmp_path, command):
        h = str(tmp_path / "h.mtx")
        run_cli(capsys, ["gen", "css-hard", "-k", "1", "--phi", "6", "--output", h])
        base = [command, "--input", h, "-k", "1", "--eps", "0.5", "--machines", "2",
                "--seed", "3"]
        rep = run_json(capsys, base)
        assert rep["parameters"]["finalize"] == "exact"
        # the server broadcasts U's coefficients in span(C), never U itself
        assert rep["ledger"]["delta-down"] > 0
        assert "u-down" not in rep["ledger"] and "xi-down" not in rep["ledger"]
        rep = run_json(capsys, base + ["--const-xi-subspace", "16"])
        assert rep["parameters"]["finalize"] == "sketch"
        assert rep["parameters"]["xi"] == 16

    def test_oversized_sparse_input_reports_estimated_ratio(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        m, n = 4000, 3000
        cols = []
        for _ in range(n):
            rows = sorted(rng.choice(m, size=2, replace=False))
            cols.append((list(int(r) for r in rows),
                         list(float(v) for v in rng.standard_normal(2))))
        big = str(tmp_path / "big.mtx")
        write_matrix_market(big, SparseColMatrix.from_columns((m, n), cols))
        rep = run_json(capsys, ["dist-css-fast", "--input", big, "-k", "1",
                                "--eps", "1.0", "--machines", "3", "--seed", "2"])
        assert rep["ratio_estimated"] is True
        assert rep["ratio"] is not None and rep["ratio"] > 0


class TestStreamCommands:
    def test_one_pass_report(self, capsys, stream_file):
        rep = run_json(capsys, ["stream-1p", "--input", stream_file, "-k", "2",
                                "--eps", "0.5", "--seed", "6"])
        assert rep["space_words"] > 0
        assert rep["ratio"] >= 1.0 - 1e-9
        assert rep["ledger"] is None

    def test_factored_one_pass_report(self, capsys, stream_file):
        rep = run_json(capsys, ["stream-1p-fact", "--input", stream_file,
                                "-k", "2", "--eps", "0.5", "--seed", "6"])
        assert rep["algorithm"] == "stream-1p-fact"
        assert rep["ratio"] >= 1.0 - 1e-9

    def test_two_pass_report_carries_the_protocol_ledger(self, capsys, stream_file):
        rep = run_json(capsys, ["stream-2p", "--input", stream_file, "-k", "2",
                                "--eps", "0.5", "--seed", "6"])
        assert rep["branch"] in ("low-rank", "smoothed")
        assert sum(rep["ledger"].values()) == rep["total_words"]
        assert rep["space_words"] == 20 * 24

    def test_one_pass_agrees_with_batch_on_the_same_matrix(self, capsys, tmp_path,
                                                           stream_file):
        rep_s = run_json(capsys, ["stream-1p", "--input", stream_file, "-k", "2",
                                  "--eps", "0.5", "--seed", "6"])
        # materialize the stream into a matrix file and run batch on it
        from sketchpca.fileio import read_stream_file
        (m, n), ups = read_stream_file(stream_file)
        A = np.zeros((m, n))
        for i, j, x in ups:
            A[i, j] += x
        mtx = str(tmp_path / "mat.mtx")
        write_matrix_market(mtx, A)
        rep_b = run_json(capsys, ["batch", "--input", mtx, "-k", "2",
                                  "--eps", "0.5", "--seed", "6"])
        assert rep_s["ratio"] <= 1.5 and rep_b["ratio"] <= 1.5


class TestTrials:
    def test_aggregate_shape_and_determinism(self, capsys, dense_mtx):
        argv = ["batch", "--input", dense_mtx, "-k", "3", "--eps", "0.5",
                "--seed", "7", "--trials", "5"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        rep = json.loads(out1)
        assert len(rep["trials"]) == 5
        seeds = [t["seed"] for t in rep["trials"]]
        assert seeds == sorted(seeds)
        assert len(set(seeds)) == 5
        assert rep["ratio_median"] >= 1.0 - 1e-9
        assert rep["ratio_max"] >= rep["ratio_median"]


class TestGen:
    def test_stdout_default(self, capfd):
        # gen with no --output writes to /dev/stdout, so capture at fd level
        code, out, _ = run_cli(capfd, ["gen", "css-hard", "-k", "1", "--phi", "6"])
        assert code == 0
        assert out.startswith("%%MatrixMarket matrix coordinate")

    def test_written_instances_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "g.mtx")
        run_cli(capsys, ["gen", "lowrank", "--m", "8", "--n", "9", "-k", "2",
                         "--noise", "0", "--seed", "3", "--output", path])
        A = read_matrix_market(path)
        assert A.shape == (8, 9)
        assert np.linalg.matrix_rank(A) == 2

    def test_rotate_flag(self, capsys, tmp_path):
        path = str(tmp_path / "r.mtx")
        code, _, _ = run_cli(capsys, ["gen", "css-hard", "-k", "1", "--phi", "6",
                                      "--rotate", "--seed", "2",
                                      "--output", path])
        assert code == 0
        A = read_matrix_market(path)
        assert A.shape == (7, 6)


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys, dense_mtx):
        code, _, _ = run_cli(capsys, ["batch", "--input", dense_mtx, "-k", "3",
                                      "--eps", "0.5", "--bogus"])
        assert code == 64

    def test_no_subcommand_is_usage(self, capsys):
        assert run_cli(capsys, [])[0] == 64

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, ["batch", "--input", "nope.mtx", "-k", "3",
                                        "--eps", "0.5"])
        assert code == 2
        assert "error" in err

    def test_stream_fed_to_batch_is_input_error(self, capsys, stream_file):
        code, _, _ = run_cli(capsys, ["batch", "--input", stream_file, "-k", "3",
                                      "--eps", "0.5"])
        assert code == 2

    def test_gen_missing_required_flag(self, capsys):
        assert run_cli(capsys, ["gen", "lowrank", "--m", "5"])[0] == 2

    def test_oversized_k_is_input_error(self, capsys, dense_mtx):
        code, _, _ = run_cli(capsys, ["batch", "--input", dense_mtx, "-k", "99",
                                      "--eps", "0.5"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0


class TestRankPastTheShape:
    """k above the row count: a protocol runs, flags its rank deficiency and
    reports a null ratio, for the rank-k tail of a matrix is zero once k
    reaches min(m, n).  batch and dist-css-fast refuse such a k up front."""

    @pytest.fixture
    def inputs(self, tmp_path, capsys):
        paths = {"matrix": str(tmp_path / "A.mtx"), "stream": str(tmp_path / "A.stream")}
        for kind, path in paths.items():
            argv = ["gen", "lowrank", "--m", "4", "--n", "16", "-k", "2", "--seed", "1",
                    "--output", path]
            assert run_cli(capsys, argv + (["--stream"] if kind == "stream" else []))[0] == 0
        return paths

    @pytest.mark.parametrize("command", ["dist-arb", "dist-css", "stream-1p",
                                         "stream-1p-fact", "stream-2p"])
    def test_ratio_is_null(self, capsys, inputs, command):
        path = inputs["stream" if command.startswith("stream") else "matrix"]
        rep = run_json(capsys, [command, "--input", path, "-k", "5", "--eps", "0.5",
                                "--seed", "7"])
        assert rep["ratio"] is None
        if command not in ("stream-1p", "stream-1p-fact"):
            assert "rank-deficient" in rep["flags"]

    @pytest.mark.parametrize("command, message", [
        ("batch", "rank target k=5 out of range for shape (4, 16)"),
        ("dist-css-fast", "target rank must be below the row count"),
    ])
    def test_refused_before_the_run(self, capsys, inputs, command, message):
        code, _, err = run_cli(capsys, [command, "--input", inputs["matrix"], "-k", "5",
                                        "--eps", "0.5", "--seed", "7"])
        assert code == 2
        assert message in err


class TestCheck:
    def test_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["check"])
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] is True
        names = [r["name"] for r in rep["invariants"]]
        assert len(names) == len(set(names))
        assert all(r["ok"] for r in rep["invariants"])


class TestMalformedInput:
    """Bad numbers and undecodable bytes are bad input: exit 2, no traceback."""

    def _expect_input_error(self, capsys, argv, where):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and where in err
        assert "Traceback" not in err

    def test_bad_array_value(self, capsys, tmp_path):
        p = tmp_path / "v.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n"
                     "2 2\n1.0\n2.0\nabc\n4.0\n")
        self._expect_input_error(capsys, ["batch", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:5:")

    def test_bad_size_line(self, capsys, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n"
                     "% a comment\n\n2 x\n1.0\n2.0\n")
        self._expect_input_error(capsys, ["dist-css", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:4:")

    def test_bad_coordinate_entry(self, capsys, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 1 1.0\n2 2 1e\n")
        self._expect_input_error(capsys, ["dist-css-fast", "--input", str(p),
                                          "-k", "1", "--eps", "0.5"], f"{p}:4:")

    def test_bad_stream_line(self, capsys, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("2 2 2\n1 1 1.0\n1 q 2.0\n")
        for cmd in ("stream-1p", "stream-1p-fact", "stream-2p"):
            self._expect_input_error(capsys, [cmd, "--input", str(p), "-k", "1",
                                              "--eps", "0.5"], f"{p}:3:")

    def test_bad_coordinate_shape_names_its_line(self, capsys, tmp_path):
        p = tmp_path / "c.mtx"
        for body, where in [("1 1 1.0\n2 2\n", f"{p}:4: wrong number of fields"),
                            ("1 1 1.0\n2 3 1.0\n", f"{p}:4: index out of range"),
                            ("% note\n0 1 1.0\n1 1 1.0\n", f"{p}:4: index out of range"),
                            ("1 1 1.0\n1e0 2 1.0\n", f"{p}:4: malformed number")]:
            p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n" + body)
            self._expect_input_error(capsys, ["dist-css-fast", "--input", str(p),
                                              "-k", "1", "--eps", "0.5"], where)

    def test_bad_stream_shape_names_its_line(self, capsys, tmp_path):
        p = tmp_path / "u.txt"
        for body, where in [("1 1 1.0\n2 1\n", f"{p}:3: wrong number of fields"),
                            ("1 1 1.0 4\n2 1 1.0\n", f"{p}:2: wrong number of fields"),
                            ("1 1 1.0\n\n1 3 2.0\n", f"{p}:4: index out of range"),
                            ("0 1 1.0\n1 1 2.0\n", f"{p}:2: index out of range"),
                            ("1 1 1.0\n2.0 1 2.0\n", f"{p}:3: malformed number")]:
            p.write_text("2 2 2\n" + body)
            for cmd in ("stream-1p", "stream-1p-fact", "stream-2p"):
                self._expect_input_error(capsys, [cmd, "--input", str(p), "-k", "1",
                                                  "--eps", "0.5"], where)

    def test_extra_array_field_names_its_line(self, capsys, tmp_path):
        p = tmp_path / "v.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n"
                     "2 1\n1.0\n2.0 3.0\n")
        self._expect_input_error(capsys, ["batch", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:4: wrong number of fields")

    def test_non_finite_array_value(self, capsys, tmp_path):
        p = tmp_path / "nan.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n"
                     "2 2\n1.0\n% note\nnan\n2.0\n4.0\n")
        self._expect_input_error(capsys, ["dist-arb", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:5: non-finite value")

    def test_non_finite_coordinate_value(self, capsys, tmp_path):
        p = tmp_path / "inf.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 1 1.0\n2 2 -inf\n")
        self._expect_input_error(capsys, ["dist-css-fast", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:4: non-finite value")

    def test_non_finite_stream_increment(self, capsys, tmp_path):
        p = tmp_path / "u.txt"
        for bad in ("nan", "inf"):
            p.write_text(f"2 2 3\n1 1 1.0\n2 1 {bad}\n1 2 2.0\n")
            for cmd in ("stream-1p", "stream-1p-fact", "stream-2p"):
                self._expect_input_error(capsys, [cmd, "--input", str(p), "-k", "1",
                                                  "--eps", "0.5"], f"{p}:3: non-finite value")

    def test_undecodable_files(self, capsys, tmp_path):
        p = tmp_path / "ff.bin"
        p.write_bytes(b"\xff%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        self._expect_input_error(capsys, ["batch", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:1:")
        self._expect_input_error(capsys, ["stream-1p", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], f"{p}:1:")

    def test_negative_sizes(self, capsys, tmp_path):
        p = tmp_path / "n.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n"
                     "-2 -3\n" + "1.0\n" * 6)
        self._expect_input_error(capsys, ["batch", "--input", str(p), "-k", "1",
                                          "--eps", "0.5"], str(p))

    def test_huge_declared_coordinate_width(self, capsys, tmp_path):
        # numpy refuses the 10^15-wide arrays before touching memory
        p = tmp_path / "wide.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n"
                     "2 1000000000000000 1\n1 1 1.0\n")
        self._expect_input_error(capsys, ["dist-css-fast", "--input", str(p), "-k", "1",
                                          "--eps", "1", "--machines", "2"], "allocate")

    def test_huge_declared_stream_width(self, capsys, tmp_path):
        p = tmp_path / "wide.stream"
        p.write_text("2 1000000000000000 1\n1 1 1.0\n")
        self._expect_input_error(capsys, ["stream-1p", "--input", str(p), "-k", "1",
                                          "--eps", "1"], "allocate")

    def test_boolean_widths_are_rejected(self, capsys, tmp_path, dense_mtx):
        # an empty list too, which would otherwise fail in the column split
        man = tmp_path / "w.json"
        for text in ('{"widths": [true, 29]}\n', '{"widths": []}\n'):
            man.write_text(text)
            self._expect_input_error(capsys, ["dist-css", "--input", dense_mtx, "-k", "1",
                                              "--eps", "0.5", "--widths", str(man)],
                                     str(man))

    def test_undecodable_widths_manifest(self, capsys, tmp_path, dense_mtx):
        man = tmp_path / "w.json"
        man.write_bytes(b'\xff{"widths": [15, 15]}\n')
        self._expect_input_error(capsys, ["dist-css", "--input", dense_mtx, "-k", "1",
                                          "--eps", "0.5", "--widths", str(man)],
                                 str(man))

"""The benchmark's own test: every workload at reduced size, both modes.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("arb-dense", "css-exact", "css-sparse", "stream-turnstile")
# counts that must repeat exactly for one seed
EXACT_PREFIXES = ("cluster.words.", "column_select_sparse.touches",
                  "sketches.prf_cells", "linalg.factorizations",
                  "sketches.materialized_words", "streaming.sketch_words",
                  "streaming.updates", "cluster.materialize_cells")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1.5", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report: "))[8:])
    return report, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_metric_and_repeats(workload):
    spec = _spec()
    runs = [_parse(_run(workload, 0)) for _ in range(2)]
    for report, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert report["failed_frac"] == {"value": 0.0, "unit": "fraction"}
        for m in spec["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] > 0
        words = "space_words" if workload == "stream-turnstile" else "total_words"
        assert report[words]["value"] == result["metrics"]["cost_words"]["value"]
        for key in ("nproc", "blas", "blas_threads", "python", "numpy"):
            assert key in report["machine"]
    (r1, m1), (r2, m2) = runs
    assert r1["input_digest"] == r2["input_digest"]
    assert m1["metrics"]["cost_words"] == m2["metrics"]["cost_words"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_counts_repeat(workload):
    spec = _spec()
    runs = [_parse(_run(workload, 1)) for _ in range(2)]
    for report, result in runs:
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        for m in spec["per_layer"]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    (_, a), (_, b) = runs
    for name, got in a["metrics"].items():
        if name.startswith(EXACT_PREFIXES):
            assert got == b["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("arb-dense", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_raises_are_judged_against_the_declared_failure_budget():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from checks import raises_plausible

    assert raises_plausible(0, 18, None)
    assert not raises_plausible(1, 18, None)      # a deterministic protocol
    assert raises_plausible(1, 18, 0.05)          # within delta = 0.05
    assert not raises_plausible(6, 18, 0.05)      # tail probability < 1e-3

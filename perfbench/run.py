"""sketchpca benchmark: one command, four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
command builds the workload input from --seed with its own numpy code,
writes it under .perfbench/, and runs the program in fresh worker
processes with the BLAS thread count and hash seed fixed before numpy
loads.  --trace 0 runs three workers one after another; each measures
set-up and times its own solve seeds for a third of --seconds, and the
metrics pool them, which averages out per-process effects such as memory
layout.  --trace 1 runs one worker that times untraced solves and then the
same seeds with every layer wrapped in spans (see tracer.py).

Stdout: a human-readable report, a "report:" JSON line with every metric of
perfbench/README.md, the machine record and the input digest, and finally
one JSON object {correct, attempted, failed, metrics}.  The exit code is 0
only when every worker ran; a wrong output sets "correct": false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread count is fixed)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from checks import RATIO_P50_CEILING, raises_plausible  # noqa: E402

WORKERS = 3
FIRST_STRIDE = 100_000      # worker w solves indices w * FIRST_STRIDE + 1, ...
WORKER_TIMEOUT_S = 120

def _units() -> tuple[dict, dict]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine_record() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    rec = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache", "Model name"):
            rec[key.strip()] = value.strip()
    return rec


def worker(meta_path: str, mode: str, seconds: float, first: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), meta_path, mode,
         str(seconds), str(first)],
        capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_tag(n: int):
    """Highest of p50..p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 75, 90, 95, 99):
        if n - int(np.ceil(p / 100 * n)) >= 10:
            best = p
    return best


def end_to_end(meta: dict, reps: list[dict]) -> dict:
    """The bounded metrics; every workload reports every one (README.md).

    Exact counts come from the first worker's first solves, the peak from
    the last worker, times and ratios from every worker's solves."""
    p50 = statistics.median(t for r in reps for t in r["times"])
    head = reps[0]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "solve_s.p50": p50,
        "updates_per_s": head.get("updates", meta["entries"]) / p50,
        "cost_words": head.get("total_words", head.get("space_words")),
        "peak_bytes": reps[-1]["peak_bytes"],
        "ratio.p50": statistics.median(x for r in reps for x in r["ratios"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the reduced shapes of the benchmark's own test")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join("src", "sketchpca")):
        print("perfbench: run from a checkout root holding src/sketchpca",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = _units()
    work = os.path.join(".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        meta = inputs.build(args.workload, args.size, args.seed, work)
        meta["trace_path"] = os.path.join(".perfbench", f"trace-{args.workload}.jsonl")
        meta_path = os.path.join(work, "meta.json")
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
        if args.trace:
            reps = [worker(meta_path, "trace", args.seconds, 1)]
        else:
            reps = [worker(meta_path, "final" if w == WORKERS - 1 else "run",
                           args.seconds / WORKERS, 1 + w * FIRST_STRIDE)
                    for w in range(WORKERS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for r in reps for f in r["failures"]]
    raised = [f for r in reps for f in r["raised"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if not raises_plausible(len(raised), attempted, meta["delta"]):
        failures.append(f"{len(raised)} of {attempted} solves raised; the protocol "
                        f"declares a failure probability of {meta['delta'] or 0}")
    times = [t for r in reps for t in r.get("times", [])]
    metrics, extra = {}, {}
    complete = args.trace or ("peak_bytes" in reps[-1] and (
        "total_words" in reps[0] or "space_words" in reps[0]))
    if not times or not complete:
        failures.append("too few solves passed their checks")
    elif args.trace:
        metrics = {name: {"value": reps[0].get(name, 0), "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        values = end_to_end(meta, reps)
        if values["ratio.p50"] > RATIO_P50_CEILING:
            failures.append(f"ratio.p50 {values['ratio.p50']:.4f} > {RATIO_P50_CEILING}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in e2e_units.items()}
        for name in ("total_words", "space_words"):
            if name in reps[0]:
                extra[name] = {"value": reps[0][name], "unit": "words"}
        tag = percentile_tag(len(times))
        if tag and tag != 50:
            extra[f"solve_s.p{tag}"] = {"value": float(np.percentile(times, tag)),
                                        "unit": "s"}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "shape": [meta["m"], meta["n"]], "input_digest": meta["digest"],
        "input_entries": meta["entries"], "machine": machine_record(),
        "solve_samples": len(times), "attempted": attempted,
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "setup_samples_s": [r["setup_s"] for r in reps],
        "raised": raised[:20], "failures": failures[:20],
        **extra,
    }
    if args.trace:
        # counts read off arguments and results at layer boundaries
        report["computed"] = sorted(n for n, u in layer_units.items()
                                    if u in ("count", "cells", "words"))
    print(f"perfbench {args.workload} seed={args.seed} shape={meta['m']}x{meta['n']} "
          f"input blake2b={meta['digest']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!r:>24} {m['unit']}")
    for f in raised[:20]:
        print(f"  RAISED: {f}")
    for f in failures[:20]:
        print(f"  FAILED: {f}")
    print("report: " + json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

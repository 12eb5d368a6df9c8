"""quditphase benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {tables,born,homodyne} --seed N --seconds S --trace {0,1}

Run from the repository root. Each run starts fresh worker processes
(``worker.py``) with BLAS pinned to one thread: one that runs the
workload as a single closed-loop client for S seconds and checks every
op, and, half before it and half after, SETUP_PROBES that only import
the library and run the warm-up ops. ``setup_s`` is the median, over
all these processes, of the time from process start to the first timed
op; spreading the probes over the run keeps one slow stretch of the
machine from setting it.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a run in which every second op is traced. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import per_layer_units
from worker import BLAS_THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tables", "born", "homodyne")
SETUP_PROBES = 5
MIN_OPS = 100  # op_ms_p90 wants at least 10 ops beyond it
RUN_LIMIT_S = 170  # a run must end within 180 s, workers included
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "samples_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _worker(args: list, deadline: float) -> tuple[float, dict]:
    """Run one worker process to completion; (spawn time, its JSON result)."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - started, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker killed after the run's {RUN_LIMIT_S} s: {' '.join(args)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}: {' '.join(args)}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quditphase", "__init__.py")):
        print(f"no quditphase sources under {ROOT}/src; run from a repository checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        setups = []

        def probe(count: int) -> None:
            for _ in range(count):
                started, probed = _worker(common + ["--probe"], deadline)
                setups.append(probed["first_op_at"] - started)

        run_args = common + ["--seconds", str(args.seconds)]
        if args.trace:
            spans = os.path.join(HERE, "_work", f"spans-{args.workload}-{args.seed}.tsv")
            run_args += ["--trace", "--spans", spans]
        else:
            probe(SETUP_PROBES // 2)
        started, res = _worker(run_args, deadline)
        setups.append(res["first_op_at"] - started)
        if not args.trace:
            probe(SETUP_PROBES - SETUP_PROBES // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, value in res["environment"].items():
        print(f"# {key}: {value}")
    for err in res["errors"]:
        print(f"# FAILED {err.strip()}")
    if res["attempted"] < MIN_OPS:
        print(f"# WARNING only {res['attempted']} ops ran, fewer than {MIN_OPS}: op_ms_p90 has fewer than 10 ops beyond it")
    if args.trace:
        units = per_layer_units()
        values = res["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = dict(res["end_to_end"], setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:9s} failed/attempted {res['failed']}/{res['attempted']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

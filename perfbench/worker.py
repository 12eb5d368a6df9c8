"""One benchmark process: set up, then run one workload as a closed loop.

    python3 perfbench/worker.py --workload tables --seed 0 --seconds 5 --workdir DIR [--trace] [--probe]

The process pins BLAS to one thread before numpy is loaded, imports the
library from ``src/`` and runs the warm-up ops. ``--probe`` stops there.
Otherwise it runs ops for ``--seconds`` (see ``harness.closed_loop``).
The last line of stdout is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True, help="scratch directory for op files")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here as TSV")
    ap.add_argument("--probe", action="store_true", help="set up, report, and exit")
    args = ap.parse_args(argv)

    # OpenBLAS reads these once, when numpy loads it; a second thread makes
    # small einsums jump by up to 50x on a 2-core machine.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness
    import workloads
    from tracer import Tracer, per_layer_metrics

    wl = workloads.make_workload(args.workload, args.workdir)
    harness.warm_up(wl, args.seed)
    result = {"first_op_at": time.perf_counter()}
    if args.probe:
        print(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    res = harness.closed_loop(wl, args.seed, args.seconds, tracer)
    result.update({
        "attempted": res.attempted,
        "failed": len(res.errors),
        "errors": res.errors[:5],
        "environment": _environment(),
    })
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer, res.counts, res.plain_ms, res.traced_ms)
        if args.spans:
            tracer.write(args.spans)
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["end_to_end"] = dict(harness.end_to_end(res), peak_rss_mib=rss_mib)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

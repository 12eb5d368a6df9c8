"""The closed loop that runs one workload's ops and times each one alone."""

from __future__ import annotations

import statistics
import time
import traceback
from dataclasses import dataclass, field

from tracer import Instrumentation, Tracer
from workloads import TIMED_STREAM, WARMUP_STREAM, op_rng

WARMUP_OPS = 2


def timed_run(wl, inp):
    """(output or None, op seconds, error text or None) of one op."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:
        return None, time.perf_counter() - t0, traceback.format_exc(limit=3)
    return out, time.perf_counter() - t0, None


def check(wl, inp, out) -> str | None:
    """Error text if the op's output fails its check, else None."""
    try:
        wl.check(inp, out)
    except Exception:
        return traceback.format_exc(limit=3)
    return None


def warm_up(wl, seed: int) -> None:
    """Fill the library's operator-stack caches and einsum paths.

    Warm-up inputs come from their own stream, so no timed input repeats
    them. A failing warm-up op is left to show up again in the timed ops.
    """
    for j in range(WARMUP_OPS):
        timed_run(wl, wl.make_input(op_rng(seed, WARMUP_STREAM, j)))


@dataclass
class LoopResult:
    plain_ms: list = field(default_factory=list)
    traced_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    samples: int = 0   # workload samples of the ops that passed
    counts: dict = field(default_factory=dict)  # workload counts of traced ops that passed

    @property
    def attempted(self) -> int:
        return len(self.plain_ms) + len(self.traced_ms)


def run_op(wl, seed: int, i: int, res: LoopResult, instrumentation: Instrumentation | None = None) -> None:
    """Run op ``i``, check it and record it in ``res``; traced if given ``instrumentation``."""
    inp = wl.make_input(op_rng(seed, TIMED_STREAM, i))
    traced = instrumentation is not None
    if traced:
        instrumentation.install()
        instrumentation.tracer.begin_op(i)
    out, elapsed, error = timed_run(wl, inp)
    if traced:
        instrumentation.uninstall()
        instrumentation.tracer.end_op(i, elapsed)
    if error is None:
        error = check(wl, inp, out)
    (res.traced_ms if traced else res.plain_ms).append(1e3 * elapsed)
    if error is None:
        res.samples += wl.samples(out)
        if traced:
            for key, value in wl.counts(out).items():
                res.counts[key] = res.counts.get(key, 0) + value
    else:
        res.errors.append(f"op {i}: {error}")


def closed_loop(wl, seed: int, seconds: float, tracer: Tracer | None = None) -> LoopResult:
    """Run op 0, 1, ... back to back until ``seconds`` pass.

    With a tracer, odd ops run traced and even ops plain, so both kinds
    sample the same stretch of a run.
    """
    instrumentation = Instrumentation(tracer) if tracer is not None else None
    res = LoopResult()
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        run_op(wl, seed, i, res, instrumentation if i % 2 == 1 else None)
        i += 1
    return res


def percentile(values: list, q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(res: LoopResult) -> dict:
    """Throughput over summed op time, and op-time percentiles."""
    ops_ms = res.plain_ms + res.traced_ms
    op_seconds = sum(ops_ms) / 1e3
    return {
        "ops_per_s": (res.attempted - len(res.errors)) / op_seconds,
        "samples_per_s": res.samples / op_seconds,
        "op_ms_p50": statistics.median(ops_ms),
        "op_ms_p90": percentile(ops_ms, 90),
    }

#!/usr/bin/env python3
"""Repeated-run accuracy benchmark for the Born-probability estimator.

Runs the qubit Fourier/T/Fourier benchmark circuit many times with
different seeds and reports how often the estimate lands within epsilon
of the exact value cos^2(pi/8), together with wall-clock statistics.
The Hoeffding bound promises a hit rate of at least 1 - p_fail.
"""

import argparse
import math
import time

import numpy as np

from quditphase import (
    CircuitDescription,
    DenseOperator,
    GateKind,
    MeasurementEffect,
    MeasurementKind,
    QuditSystem,
    computational_state,
    estimate_born,
    estimate_born_char,
)

EXACT = math.cos(math.pi / 8) ** 2


def benchmark_circuit():
    s = QuditSystem(2, 1)
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    return CircuitDescription(
        s,
        computational_state(s, 0),
        (
            (GateKind.FOURIER, (0,)),
            DenseOperator(s, t_gate, unitary=True),
            (GateKind.FOURIER, (0,)),
        ),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)),
    )


def main():
    parser = argparse.ArgumentParser(
        description="Estimator hit-rate benchmark on the F-T-F circuit",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--runs", type=int, default=200)
    parser.add_argument("--epsilon", type=float, default=0.02)
    parser.add_argument("--p-fail", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed + i")
    parser.add_argument("--frame", choices=["o", "char"], default="o")
    args = parser.parse_args()

    circuit = benchmark_circuit()
    runner = estimate_born_char if args.frame == "char" else estimate_born
    errors = []
    t0 = time.perf_counter()
    for i in range(args.runs):
        report = runner(circuit, args.epsilon, args.p_fail, seed=args.seed + i)
        errors.append(report.estimate - EXACT)
    dt = time.perf_counter() - t0

    errors = np.array(errors)
    hits = int(np.sum(np.abs(errors) <= args.epsilon))
    print(f"exact value      {EXACT:.12f}")
    print(f"samples per run  {report.samples_used}")
    print(f"forward norm     {report.forward_norm:.12f} ({report.norm_method})")
    print(f"hits             {hits}/{args.runs} within eps = {args.epsilon}")
    print(f"required         >= {math.ceil((1 - args.p_fail) * args.runs)}")
    print(f"mean error       {errors.mean():+.2e}")
    print(f"max |error|      {np.abs(errors).max():.2e}")
    print(f"wall clock       {dt:.2f} s total, {dt / args.runs * 1e3:.1f} ms per run")
    if hits < math.ceil((1 - args.p_fail) * args.runs):
        raise SystemExit(3)


if __name__ == "__main__":
    main()

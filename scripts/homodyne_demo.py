#!/usr/bin/env python3
"""Sample homodyne readouts of an encoded qudit under a logical gate.

Draws position-block samples for a chosen input state and logical
Clifford gate, prints the signed lattice histogram, and compares the
empirical point frequencies against the exact coefficient magnitudes.
"""

import argparse

import numpy as np

from quditphase import (
    Domain,
    GateKind,
    GaussianCircuit,
    QuditSystem,
    computational_state,
    logical_clifford_symplectic,
    plus_state,
    pseudo_probability_report,
    simulate_homodyne_batch,
    x_distribution,
)


def main():
    parser = argparse.ArgumentParser(
        description="Homodyne sampling demo for encoded Clifford circuits",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--state", choices=["computational", "plus"], default="plus")
    parser.add_argument("--gate", choices=[k.name for k in GateKind if k != GateKind.SUM] + ["identity"],
                        default="FOURIER")
    parser.add_argument("--samples", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    system = QuditSystem(args.d, 1)
    rho = plus_state(system) if args.state == "plus" else computational_state(system, 0)
    if args.gate == "identity":
        circuit = GaussianCircuit.identity(system)
    else:
        circuit = logical_clifford_symplectic(system, GateKind[args.gate])

    print("S =")
    print(circuit.s_matrix)
    print("displacement =", circuit.displacement)

    report = pseudo_probability_report(rho, circuit, args.samples, args.seed)
    print(f"\nsigned lattice histogram ({args.samples} samples, not normalizable):")
    print(f"{'q':>10} {'index':>6} {'weight':>10} {'count':>7}")
    for e in report.entries:
        idx = e.lattice_index[0] if e.lattice_index else "-"
        print(f"{e.position[0]:>10.4f} {idx:>6} {e.signed_weight:>10.4f} {e.count:>7}")

    # frequency check against the exact coefficient magnitudes
    dist = x_distribution(rho, Domain.FULL)
    mags = np.abs(dist.values)
    q = mags / mags.sum()
    batch = simulate_homodyne_batch(rho, circuit, args.samples, args.seed)
    rows = np.ravel_multi_index(tuple(batch.points.T), q.shape)
    counts = np.bincount(rows[batch.inverse], minlength=q.size).reshape(q.shape)
    err = float(np.max(np.abs(counts / args.samples - q)[q > 0]))
    print(f"\nmax |empirical - exact| point frequency: {err:.4f}")


if __name__ == "__main__":
    main()

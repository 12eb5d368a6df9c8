#!/usr/bin/env python3
"""Sweep the cell-norm identities over dimensions, system sizes, and p.

For each (d, n, p) cell the script draws Haar-random states, evaluates
both sides of the Wigner-cell and characteristic-cell identities, and
prints the worst absolute residual per cell. Add --stabilizers to also
sweep the enumerated single-qudit stabilizer states (their cell norms must
land on the closed-form baseline exactly). It exits 3 unless every
residual relative to max(|lhs|, 1) is below 1e-9, as ``gkp-check`` judges.
"""

import argparse
import time

import numpy as np

from quditphase import GkpKind, QuditSystem, enumerate_single_qudit_stabilizers, haar_random_state
from quditphase.gkp import _cell_sides, _relative_residual


def main():
    parser = argparse.ArgumentParser(
        description="Residual sweep of the lattice cell-norm identities",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--max-dim", type=int, default=25, help="skip cells with d^n above this")
    parser.add_argument("--p", type=float, nargs="+", default=[0.5, 1.0, 2.0, 3.0])
    parser.add_argument("--states", type=int, default=20, help="random states per cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--stabilizers", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    worst = 0.0
    print(f"{'d':>3} {'n':>3} {'p':>5} {'residual_w':>12} {'residual_c':>12}")
    for d in args.dims:
        for n in (1, 2):
            if d**n > args.max_dim:
                continue
            system = QuditSystem(d, n)
            rng = np.random.default_rng(args.seed)
            pool = [haar_random_state(system, rng) for _ in range(args.states)]
            if args.stabilizers and n == 1:
                pool.extend(enumerate_single_qudit_stabilizers(d))
            for p in args.p:
                sides = [[_cell_sides(rho, p, kind) for rho in pool] for kind in GkpKind]
                r1, r2 = (max(abs(lhs - rhs) for lhs, rhs in pairs) for pairs in sides)
                # np.max, unlike max, keeps a NaN residual, which then fails the check below
                worst = float(np.max([worst, *(_relative_residual(*pair) for pairs in sides for pair in pairs)]))
                print(f"{d:>3} {n:>3} {p:>5.2f} {r1:>12.3e} {r2:>12.3e}")
    dt = time.perf_counter() - t0
    print(f"\nworst residual {worst:.3e} relative to max(|lhs|, 1) over the sweep ({dt:.2f} s)")
    if not worst < 1e-9:
        raise SystemExit(3)


if __name__ == "__main__":
    main()

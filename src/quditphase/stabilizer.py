"""Stabilizer groups, their states, and analytic sparse coefficients.

A stabilizer group on n qudits is given by n commuting, independent
generator vectors s_i in Z_d^{2n} (shift powers first, clock powers
second) plus a phase vector v in Z_d^{2n} selecting the joint eigenspace
w_d^{c_i} P(s_i) psi = psi with c_i = v Omega s_i^T. The state is built
as the product of the n generator eigenprojectors, which at odd d
collapses to the familiar group sum d^{-n} sum_m w^{v Omega m} P(m).

``stabilizer_x_sparse`` produces the full-domain coefficient distribution
without any dense matrix work: the single-factor overlap has the closed
form

    Tr(O_{l,mu} P(a,b)) = (-1)^{mu l} w_d^{inv2 (b l + a mu)}        (odd d)
    Tr(O_{l,mu} P(a,b)) = 2 e^{i pi (b l + a mu)/d} [a=l, b=mu mod 2] (even d)

so the restricted coefficients are a d^n-point flat coset (magnitude
d^{-n}), and the doubled-domain values are its lift by ``lift_table``,
the one used for every FULL table. The result must (and in the tests does) match the dense
x-distribution to 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    DensityState,
    InvariantError,
    PauliLabel,
    QuditSystem,
    ValidationError,
    heisenberg_weyl,
)
from .basis import Domain, lift_table, lift_to_full
from .measures import QuasiDistribution

__all__ = [
    "NonCommutingGenerators",
    "DependentGenerators",
    "StabilizerGroup",
    "stabilizer_state",
    "stabilizer_x_sparse",
    "enumerate_single_qudit_groups",
    "enumerate_single_qudit_stabilizers",
    "parse_generator_lines",
    "format_generator_lines",
]


class NonCommutingGenerators(ValidationError):
    """Generators fail the symplectic commutation test."""


class DependentGenerators(ValidationError):
    """The generated group does not have order d^n."""


def _symplectic_pair(u: np.ndarray, v: np.ndarray, n: int, d: int) -> int:
    """u Omega v^T = u_b . v_a - u_a . v_b mod d."""
    ua, ub = u[:n], u[n:]
    va, vb = v[:n], v[n:]
    return int((ub @ va - ua @ vb) % d)


@dataclass(frozen=True)
class StabilizerGroup:
    """n commuting independent generators plus the phase vector v."""

    system: QuditSystem
    generators: tuple[tuple[int, ...], ...]
    phase_vector: tuple[int, ...]

    def __post_init__(self):
        d, n = self.system.d, self.system.n
        gens = tuple(tuple(int(c) % d for c in g) for g in self.generators)
        if len(gens) != n or any(len(g) != 2 * n for g in gens):
            raise ValidationError(f"need {n} generators of length {2 * n}")
        v = tuple(int(c) % d for c in self.phase_vector)
        if len(v) != 2 * n:
            raise ValidationError(f"phase vector must have length {2 * n}")
        arr = np.array(gens, dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                if _symplectic_pair(arr[i], arr[j], n, d):
                    raise NonCommutingGenerators(
                        f"generators {i} and {j} do not commute"
                    )
        if len(self.element_table_of(gens, d, n)) != d**n:
            raise DependentGenerators("generated group has order != d^n")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "phase_vector", v)

    @staticmethod
    def element_table_of(gens, d: int, n: int) -> set[tuple[int, ...]]:
        arr = np.array(gens, dtype=int)
        seen = set()
        for coeffs in product(range(d), repeat=n):
            m = tuple((np.array(coeffs) @ arr) % d)
            seen.add(m)
        return seen


def generator_phases(group: StabilizerGroup) -> tuple[int, ...]:
    """c_i = v Omega s_i^T mod d; the state obeys w^{c_i} P(s_i) psi = psi."""
    d, n = group.system.d, group.system.n
    v = np.array(group.phase_vector, dtype=int)
    return tuple(
        _symplectic_pair(v, np.array(s, dtype=int), n, d) for s in group.generators
    )


def stabilizer_state(group: StabilizerGroup) -> DensityState:
    """Product of the generator eigenprojectors d^{-1} sum_k (w^{c_i} P(s_i))^k.

    At odd d this equals d^{-n} sum_{m in M_S} w^{v Omega m} P(m); at even d
    the projector product supplies the extra Weyl power phases that the naive
    group sum misses.
    """
    system = group.system
    d, n = system.d, system.n
    rho = np.eye(system.dim, dtype=complex)
    omega = np.exp(2j * np.pi / d)
    for s, c in zip(group.generators, generator_phases(group)):
        label = PauliLabel(system, s[:n], s[n:])
        g = omega**c * heisenberg_weyl(system, label).entries
        proj = np.eye(system.dim, dtype=complex)
        power = np.eye(system.dim, dtype=complex)
        for _ in range(d - 1):
            power = power @ g
            proj = proj + power
        rho = rho @ (proj / d)
    out = DensityState(system, rho)
    if abs(out.purity() - 1.0) > 1e-9:
        raise InvariantError("projector product is not a pure state")
    return out


def _pauli_decomposition(group: StabilizerGroup) -> list[tuple[np.ndarray, complex]]:
    """Exact expansion rho = d^{-n} sum (phase . P(label)) over the group.

    Every phase in the generator-power products is an integer power of
    zeta = e^{i pi / d}, so the bookkeeping is exact: per factor
    P(a,b) = zeta^{w} X^a Z^b and X^al Z^be . X^a Z^b picks up zeta^{2 a be}.
    """
    system = group.system
    d, n = system.d, system.n
    cs = generator_phases(group)
    h2 = (2 * pow(2, -1, d)) % (2 * d) if d % 2 else 1  # zeta exponent unit for w

    def weyl_zeta(a: int, b: int) -> int:
        return (h2 * a * b) % (2 * d)

    out = []
    for coeffs in product(range(d), repeat=n):
        zeta_exp = 0
        alpha = np.zeros(n, dtype=int)
        beta = np.zeros(n, dtype=int)
        omega_exp = 0
        for i, k in enumerate(coeffs):
            omega_exp = (omega_exp + k * cs[i]) % d
            s = group.generators[i]
            for _ in range(k):
                for f in range(n):
                    a, b = s[f], s[n + f]
                    zeta_exp = (zeta_exp + weyl_zeta(a, b) + 2 * a * beta[f]) % (2 * d)
                    alpha[f] = (alpha[f] + a) % d
                    beta[f] = (beta[f] + b) % d
        # bare X^alpha Z^beta back to canonical P labels
        for f in range(n):
            zeta_exp = (zeta_exp - weyl_zeta(int(alpha[f]), int(beta[f]))) % (2 * d)
        phase = np.exp(1j * np.pi * zeta_exp / d) * np.exp(2j * np.pi * omega_exp / d)
        out.append((np.concatenate([alpha, beta]), phase))
    return out


def _overlap_factor(d: int, l: np.ndarray, mu: np.ndarray, a: int, b: int) -> np.ndarray:
    """Closed-form Tr(O_{l,mu} P(a,b)) for one factor, vectorized over (l, mu)."""
    if d % 2:
        # e^{-i pi mu l / d} = (-1)^{mu l} w^{-inv2 mu l} at odd d
        h = pow(2, -1, d)
        sign = np.where((l * mu) % 2, -1.0, 1.0)
        return sign * np.exp(2j * np.pi * (h * (b * l + a * mu) % d) / d)
    match = ((a - l) % 2 == 0) & ((b - mu) % 2 == 0)
    return np.where(match, 2.0 * np.exp(1j * np.pi * (b * l + a * mu) / d), 0.0)


def stabilizer_x_sparse(group: StabilizerGroup) -> QuasiDistribution:
    """Full-domain x coefficients from the closed-form group sum.

    Restricted values are computed analytically (a flat coset: exactly d^n
    points of magnitude d^{-n}), then lifted to Z_{2d}^{2n} by
    ``lift_table``, as every FULL table is.
    """
    system = group.system
    d, n = system.d, system.n

    grids = np.meshgrid(*([np.arange(d)] * (2 * n)), indexing="ij")
    restricted = np.zeros((d,) * (2 * n), dtype=complex)
    for m, phase in _pauli_decomposition(group):
        term = phase * np.ones_like(restricted)
        for i in range(n):
            term = term * _overlap_factor(d, grids[i], grids[n + i], int(m[i]), int(m[n + i]))
        restricted = restricted + term
    restricted = restricted / float(d ** (2 * n))
    if np.max(np.abs(restricted.imag)) > 1e-10:
        raise InvariantError("stabilizer coefficients must be real")
    rvals = restricted.real

    support = np.abs(rvals) > 1e-10
    flat = np.isclose(np.abs(rvals[support]), d ** (-float(n)), atol=1e-10)
    if int(support.sum()) != d**n or not np.all(flat):
        raise InvariantError("stabilizer coefficients are not a flat d^n coset")

    full = lift_to_full(np.where(support, rvals, 0.0), lift_table(d))
    return QuasiDistribution(system, Domain.FULL, full)


def _dual_phase_vector(gens: np.ndarray, ks: Sequence[int], d: int, n: int) -> tuple[int, ...]:
    """Some v with v Omega s_i^T = k_i mod d for every generator."""
    rows = np.zeros((n, 2 * n), dtype=int)
    for i, s in enumerate(gens):
        rows[i, :n] = (-s[n:]) % d  # coefficient of v_a
        rows[i, n:] = s[:n] % d     # coefficient of v_b
    k = np.array([int(x) % d for x in ks], dtype=int)
    # Gauss-Jordan with unit pivots mod d
    A = rows % d
    b = k.copy()
    v = np.zeros(2 * n, dtype=int)
    used_cols: list[tuple[int, int]] = []
    row = 0
    for col in range(2 * n):
        piv = None
        for r in range(row, n):
            try:
                pow(int(A[r, col]), -1, d)
                piv = r
                break
            except ValueError:
                continue
        if piv is None:
            continue
        A[[row, piv]] = A[[piv, row]]
        b[[row, piv]] = b[[piv, row]]
        inv = pow(int(A[row, col]), -1, d)
        A[row] = (A[row] * inv) % d
        b[row] = (b[row] * inv) % d
        for r in range(n):
            if r != row and A[r, col]:
                f = int(A[r, col])
                A[r] = (A[r] - f * A[row]) % d
                b[r] = (b[r] - f * b[row]) % d
        used_cols.append((row, col))
        row += 1
        if row == n:
            break
    if row == n:
        for r, col in used_cols:
            v[col] = int(b[r]) % d
        if np.all((rows @ v - k) % d == 0):
            return tuple(int(c) for c in v)
    # fall back to a brute-force search on small registers
    if d ** (2 * n) <= 10**6:
        for cand in product(range(d), repeat=2 * n):
            vv = np.array(cand, dtype=int)
            if np.all((rows @ vv - k) % d == 0):
                return tuple(cand)
        raise ValidationError("no phase vector satisfies the given phases")
    raise ValidationError("cannot solve for the phase vector at this size")


def parse_generator_lines(system: QuditSystem, text: str) -> StabilizerGroup:
    """Parse the ``a1,..,an|b1,..,bn|phase`` per-line generator format.

    The per-line integer phase k_i fixes the constraint
    v Omega s_i^T = k_i; the returned group carries one solution v.
    """
    gens, ks = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise ValidationError(f"malformed generator line: {line!r}")
        a = [int(c) for c in parts[0].split(",")]
        b = [int(c) for c in parts[1].split(",")]
        if len(a) != system.n or len(b) != system.n:
            raise ValidationError(f"generator arity mismatch in line: {line!r}")
        gens.append(tuple(c % system.d for c in a + b))
        ks.append(int(parts[2]))
    if len(gens) != system.n:
        raise ValidationError(f"expected {system.n} generators, found {len(gens)}")
    arr = np.array(gens, dtype=int)
    v = _dual_phase_vector(arr, ks, system.d, system.n)
    return StabilizerGroup(system, tuple(gens), v)


def format_generator_lines(group: StabilizerGroup) -> str:
    """Inverse of ``parse_generator_lines`` (phases recomputed from v)."""
    d, n = group.system.d, group.system.n
    v = np.array(group.phase_vector, dtype=int)
    lines = []
    for g in group.generators:
        s = np.array(g, dtype=int)
        k = _symplectic_pair(v, s, n, d)
        a = ",".join(str(c) for c in g[:n])
        b = ",".join(str(c) for c in g[n:])
        lines.append(f"{a}|{b}|{k}")
    return "\n".join(lines) + "\n"


def _phase_seed(s: tuple[int, int], d: int) -> tuple[int, int]:
    """Some u0 with u0 Omega s^T = 1 (single qudit, s of additive order d)."""
    a, b = s
    for cand in ((0, 1), (d - 1, 0)) + tuple(product(range(d), repeat=2)):
        va, vb = cand
        if (vb * a - va * b) % d == 1:
            return cand
    raise ValidationError(f"generator {s} admits no unit phase seed")


def enumerate_single_qudit_groups(d: int) -> list[StabilizerGroup]:
    """All single-qudit stabilizer groups for prime d (d(d+1) states) or d=4.

    For d = 4 the six cyclic order-4 subgroups of Z_4^2 each carry four
    phases (24 states). Other composite d are not supported.
    """
    def is_prime(x: int) -> bool:
        return x >= 2 and all(x % f for f in range(2, int(x**0.5) + 1))

    system = QuditSystem(d, 1)
    if is_prime(d):
        subgroup_reps = [(1, b) for b in range(d)] + [(0, 1)]
    elif d == 4:
        reps = set()
        for a in range(4):
            for b in range(4):
                # additive order 4 means some odd component
                if a % 2 == 1 or b % 2 == 1:
                    orbit = {((u * a) % 4, (u * b) % 4) for u in (1, 3)}
                    reps.add(min(orbit))
        subgroup_reps = sorted(reps)
    else:
        raise ValidationError(f"enumeration supports prime d or d=4, not d={d}")

    groups = []
    for s in subgroup_reps:
        u0 = _phase_seed(s, d)
        for k in range(d):
            v = ((k * u0[0]) % d, (k * u0[1]) % d)
            groups.append(StabilizerGroup(system, (tuple(s),), v))
    return groups


def enumerate_single_qudit_stabilizers(d: int) -> list[DensityState]:
    """Complete deduplicated list of pure single-qudit stabilizer states."""
    states: list[DensityState] = []
    for group in enumerate_single_qudit_groups(d):
        rho = stabilizer_state(group)
        dup = any(
            float(np.real(np.trace(rho.matrix @ other.matrix))) > 1 - 1e-9
            for other in states
        )
        if not dup:
            states.append(rho)
    return states

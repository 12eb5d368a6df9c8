"""Stabilizer groups, their states, and analytic sparse coefficients.

A stabilizer group on n qudits is given by n commuting, independent
generator vectors s_i in Z_d^{2n} (shift powers first, clock powers
second) plus a phase vector v in Z_d^{2n} selecting the joint eigenspace
w_d^{c_i} P(s_i) psi = psi with c_i = v Omega s_i^T. The state is the
group sum rho = d^{-n} sum_k phase_k P(k S) over k in Z_d^n, read from
one signed Pauli table: the labels k S mod d and, in closed form, the
phases of prod_i (w^{c_i} P(s_i))^{k_i} as integer powers of
zeta = e^{i pi / d} (at even d these carry the Weyl-ordering signs that
the naive sum of w^{v Omega m} misses). Each P(a, b) is a monomial
matrix, so the table scatters into rho in O(d^{2n}) work, and rho is
certified by the defining equations w^{c_i} P(s_i) rho = rho, which with
Hermiticity and unit trace fix it uniquely.

Every question over Z_d goes through one diagonal (Smith) form
U A V = diag(s) mod d of an integer matrix A, with U and V invertible
mod d (Hostens, Dehaene and De Moor, PRA 71, 042315 (2005)). The rows of
A generate a group of order prod_i d / gcd(s_i, d), which is the
independence test, and A v = k mod d is solvable exactly when every
gcd(s_i, d) divides (U k)_i, which gives the phase vector of a generator
text and the phase seeds of the single-qudit enumeration. That
enumeration walks Z_d^2 once at every d and lists its cyclic subgroups of
order d: every group at squarefree d, all but the non-cyclic ones otherwise.

``stabilizer_x_sparse`` produces the full-domain coefficient distribution
without any dense n-qudit matrix: the same Pauli table is contracted,
factor by factor, with the single-factor overlap

    Tr(O_{l,mu} P(a,b)) = (-1)^{mu l} w_d^{inv2 (b l + a mu)}        (odd d)
    Tr(O_{l,mu} P(a,b)) = 2 e^{i pi (b l + a mu)/d} [a=l, b=mu mod 2] (even d)

(a (d, d, d, d) table built from ``o_stack`` and ``p_stack``), in
O(n d^{2n+2}) work. The restricted coefficients are a d^n-point flat coset
(magnitude d^{-n}), and the doubled-domain values are its lift by
``lift_table``, the one used for every FULL table. The result must (and in
the tests does) match the dense x-distribution to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import DensityState, InvariantError, QuditSystem, ValidationError, _as_int, _zeta_half
from .basis import Domain, lift_table, lift_to_full, o_stack, omega_block, p_stack
from .measures import QuasiDistribution, _contract_stack, _kept, _real

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

MAX_ENUMERATED_GROUPS = 10**6  # ~1 KB of peak memory each in enumerate-stabilizers


class NonCommutingGenerators(ValidationError):
    """Generators fail the symplectic commutation test."""


class DependentGenerators(ValidationError):
    """The generated group does not have order d^n."""


def _symplectic(u: np.ndarray, v: np.ndarray, d: int) -> np.ndarray:
    """u Omega v^T mod d for row stacks u, v of Z_d^{2n} vectors."""
    return (u @ omega_block(u.shape[1] // 2) @ v.T) % d


def _smith(a: Sequence[Sequence[int]], d: int):
    """(U, s, V^T) with U A V = diag(s) mod d for an m x k integer matrix A, m <= k.

    U and V are products of swaps and integer row or column additions, so
    they are invertible mod d. Each pivot is the smallest nonzero entry
    left; Euclidean steps clear its column and row, and repeat while a
    remainder is left. The divisibility chain of a full Smith form is not
    needed here.
    """
    m, k = len(a), len(a[0])
    a = [[int(x) % d for x in row] for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vt = [[int(i == j) for j in range(k)] for i in range(k)]  # column ops on A are row ops on V^T

    def sub(rows, i, t, q):
        rows[i] = [(x - q * y) % d for x, y in zip(rows[i], rows[t])]

    for t in range(m):
        while True:
            nonzero = [(a[i][j], i, j) for i in range(t, m) for j in range(t, k) if a[i][j]]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i], u[t], u[i], vt[t], vt[j] = a[i], a[t], u[i], u[t], vt[j], vt[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                sub(a, i, t, q)
                sub(u, i, t, q)
            for j in range(t + 1, k):
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] = (row[j] - q * row[t]) % d
                sub(vt, j, t, q)
            if not any(a[i][t] for i in range(t + 1, m)) and not any(a[t][t + 1 :]):
                break
    return u, [a[i][i] for i in range(m)], vt


def _order(a: Sequence[Sequence[int]], d: int) -> int:
    """Order of the subgroup of Z_d^k generated by the rows of A."""
    return math.prod(d // math.gcd(s, d) for s in _smith(a, d)[1])


def _solve(a: Sequence[Sequence[int]], k: Sequence[int], d: int) -> tuple[int, ...] | None:
    """Some v with A v = k mod d, or None: s_i w_i = (U k)_i row by row, v = V w."""
    u, s, vt = _smith(a, d)
    w = []
    for si, row in zip(s, u):
        r = sum(x * int(y) for x, y in zip(row, k)) % d
        g = math.gcd(si, d)
        if r % g:
            return None
        w.append(r // g * pow(si // g, -1, d // g) % d)
    return tuple(sum(wi * row[j] for wi, row in zip(w, vt)) % d for j in range(len(vt)))


@dataclass(frozen=True)
class StabilizerGroup:
    """n commuting independent generators plus the phase vector v.

    Entries are read exactly as integers, never truncated, and reduced mod d.
    """

    system: QuditSystem
    generators: tuple[tuple[int, ...], ...]
    phase_vector: tuple[int, ...]

    def __post_init__(self):
        d, n = self.system.d, self.system.n
        gens = tuple(tuple(c % d for c in g) for g in _as_int(self.generators, "generator entry", depth=2))
        if len(gens) != n or any(len(g) != 2 * n for g in gens):
            raise ValidationError(f"need {n} generators of length {2 * n}")
        v = tuple(c % d for c in _as_int(self.phase_vector, "phase vector entry", depth=1))
        if len(v) != 2 * n:
            raise ValidationError(f"phase vector must have length {2 * n}")
        arr = np.array(gens, dtype=np.int64)
        clash = np.argwhere(np.triu(_symplectic(arr, arr, d), 1))
        if len(clash):
            i, j = clash[0]
            raise NonCommutingGenerators(f"generators {i} and {j} do not commute")
        if _order(gens, d) != d**n:
            raise DependentGenerators("generated group has order != d^n")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "phase_vector", v)


def generator_phases(group: StabilizerGroup) -> tuple[int, ...]:
    """c_i = v Omega s_i^T mod d; the state obeys w^{c_i} P(s_i) psi = psi."""
    v = np.array([group.phase_vector], dtype=np.int64)
    gens = np.array(group.generators, dtype=np.int64)
    return tuple(int(c) for c in _symplectic(v, gens, group.system.d)[0])


def _group_table(group: StabilizerGroup) -> tuple[np.ndarray, np.ndarray]:
    """Labels and phases of rho = d^{-n} sum_k phase_k P(label_k), all k in Z_d^n at once.

    The element prod_i (w^{c_i} P(s_i))^{k_i} has label k S mod d. With
    P(a, b) = zeta^{h(a.b)} X^a Z^b (h = ``_zeta_half``, additive mod 2d) and
    Z^b X^a = w^{a.b} X^a Z^b, the power (X^a Z^b)^k brings zeta^{k(k-1) a.b}
    and the ordered product zeta^{2 k_i k_j b_i.a_j} for i < j: the phase is zeta
    to h(sum k_i a_i.b_i) + sum k_i(k_i-1) a_i.b_i + 2 sum_{i<j} k_i k_j b_i.a_j
    + 2 sum k_i c_i, less h(alpha.beta) of the label (alpha, beta) itself.
    Rows are in ``np.indices`` order of k.
    """
    d, n = group.system.d, group.system.n
    s = np.array(group.generators, dtype=np.int64)
    a, b = s[:, :n], s[:, n:]
    k = np.indices((d,) * n).reshape(n, -1).T
    labels = k @ s % d
    ab = (a * b).sum(1) % (2 * d)
    cross = np.triu(b @ a.T, 1) % (2 * d)
    zeta = (
        _zeta_half(d, k @ ab)
        + (k * (k - 1)) @ ab
        + 2 * ((k @ cross) * k).sum(1)
        + 2 * (k @ np.array(generator_phases(group)))
        - _zeta_half(d, (labels[:, :n] * labels[:, n:]).sum(1))
    ) % (2 * d)
    return labels, np.exp(1j * np.pi * zeta / d)


def _weyl_action(d: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(a, b)|c> = zeta^{h(a.b) + 2 b.c} |c + a> on every basis column c, h = ``_zeta_half``.

    Returns the row index of c + a mod d and that exponent mod 2d, each of
    shape (..., d^n) for (..., n) label arrays a and b.
    """
    n = a.shape[-1]
    digits = np.indices((d,) * n).reshape(n, -1)
    rows = 0
    for f in range(n):
        rows = rows * d + (digits[f] + a[..., f, None]) % d
    exps = (_zeta_half(d, (a * b).sum(-1))[..., None] + 2 * (b @ digits)) % (2 * d)
    return rows, exps


def stabilizer_state(group: StabilizerGroup) -> DensityState:
    """rho = d^{-n} sum_m phase_m P(m) over the group table, certified by its generators.

    Every P(m) is a monomial matrix, so the table scatters into rho in
    O(d^{2n}) work. rho must then satisfy w^{c_i} P(s_i) rho = rho, one row
    map per generator; with the Hermiticity and unit trace that
    ``DensityState`` checks, these equations fix rho as the projector onto
    the one joint eigenvector, independently of the table that built it.
    """
    system = group.system
    d, n, dim = system.d, system.n, system.dim
    zeta = np.exp(1j * np.pi * np.arange(2 * d) / d)
    labels, phases = _group_table(group)
    rows, exps = _weyl_action(d, labels[:, :n], labels[:, n:])
    rho = np.zeros((dim, dim), dtype=complex)
    np.add.at(rho, (rows, np.arange(dim)), zeta[exps] * (phases / dim)[:, None])
    del rows, exps
    for i, (s, c) in enumerate(zip(group.generators, generator_phases(group))):
        s = np.array(s, dtype=np.int64)
        to, e = _weyl_action(d, s[:n], s[n:])
        moved = np.empty_like(rho)
        moved[to] = zeta[(e + 2 * c) % (2 * d), None] * rho
        moved -= rho
        if np.max(np.abs(moved)) > 1e-9:
            raise InvariantError(f"group table state is not fixed by generator {i}")
    return DensityState(system, rho)


@lru_cache(maxsize=32)
def _overlap_stack(d: int) -> np.ndarray:
    """Tr(O_{l,mu} P(a,b)) at [l, mu, b, a], the layout ``_contract_stack`` reads; cached read-only."""
    stack = np.einsum("lmrc,abcr->lmba", o_stack(d), p_stack(d))
    stack.flags.writeable = False
    return stack


def stabilizer_x_sparse(group: StabilizerGroup) -> QuasiDistribution:
    """Full-domain x coefficients from the closed-form group sum.

    The restricted values d^{-2n} sum_m phase_m prod_i Tr(O_{l_i,mu_i} P(m_i))
    are one contraction of the group's Pauli table with the per-factor
    overlap; they must form a flat coset (exactly d^n points of magnitude
    d^{-n}) and are lifted to Z_{2d}^{2n} by ``lift_table``, as every FULL
    table is.
    """
    system = group.system
    d, n = system.d, system.n

    labels, phases = _group_table(group)
    table = np.zeros((d,) * (2 * n), dtype=complex)
    table[tuple(labels.T)] = phases
    restricted = _contract_stack(system, _overlap_stack(d), table.reshape(system.dim, -1)) / float(d ** (2 * n))
    rvals = _real(restricted, "stabilizer coefficients")

    support = _kept(np.abs(rvals))
    flat = np.isclose(np.abs(rvals[support]), d ** (-float(n)), atol=1e-10)
    if int(support.sum()) != d**n or not np.all(flat):
        raise InvariantError("stabilizer coefficients are not a flat d^n coset")

    full = lift_to_full(np.where(support, rvals, 0.0), lift_table(d))
    return QuasiDistribution._adopt(system, Domain.FULL, full)


def _dual_phase_vector(gens, ks: Sequence[int], d: int, n: int) -> tuple[int, ...]:
    """Some v with v Omega s_i^T = k_i mod d for every generator, i.e. (S Omega^T) v = k."""
    v = _solve(np.array(gens, dtype=np.int64) @ omega_block(n).T, ks, d)
    if v is None:
        raise ValidationError("no phase vector satisfies the given phases")
    return v


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
        try:
            a = [int(c) for c in parts[0].split(",")]
            b = [int(c) for c in parts[1].split(",")]
            k = int(parts[2])
        except ValueError:
            raise ValidationError(f"non-integer entry or phase in generator line: {line!r}") from None
        if len(a) != system.n or len(b) != system.n:
            raise ValidationError(f"generator arity mismatch in line: {line!r}")
        gens.append(tuple(c % system.d for c in a + b))
        ks.append(k)
    if len(gens) != system.n:
        raise ValidationError(f"expected {system.n} generators, found {len(gens)}")
    return StabilizerGroup(system, tuple(gens), _dual_phase_vector(gens, ks, system.d, system.n))


def format_generator_lines(group: StabilizerGroup) -> str:
    """Inverse of ``parse_generator_lines`` (phases recomputed from v)."""
    n = group.system.n
    lines = []
    for g, k in zip(group.generators, generator_phases(group)):
        a = ",".join(str(c) for c in g[:n])
        b = ",".join(str(c) for c in g[n:])
        lines.append(f"{a}|{b}|{k}")
    return "\n".join(lines) + "\n"


def enumerate_single_qudit_groups(d: int) -> list[StabilizerGroup]:
    """Single-qudit stabilizer groups with one generator, at every d.

    The labels (a, b) of Z_d^2 are walked in lexicographic order; one of
    order d (gcd(a, b, d) = 1) not yet seen is the smallest generator of a
    new cyclic subgroup, whose d multiples are then marked seen. Each takes
    the d phase vectors c u0. That is every group at squarefree d (d(d+1) at
    prime d, 72 at d = 6); at other d the non-cyclic groups need two
    generators and are missing (at d = 4, the one of X^2 and Z^2). A list
    past ``MAX_ENUMERATED_GROUPS`` raises ValidationError before any group is built.
    """
    system = QuditSystem(d, 1)
    seen = np.zeros((d, d), dtype=bool)
    multiples = np.arange(d)
    generators = []
    for a, b in np.ndindex(d, d):
        if seen[a, b] or math.gcd(a, b, d) != 1:
            continue
        if (len(generators) + 1) * d > MAX_ENUMERATED_GROUPS:
            raise ValidationError(f"d={d} lists more than MAX_ENUMERATED_GROUPS = {MAX_ENUMERATED_GROUPS} groups")
        generators.append((a, b))
        seen[multiples * a % d, multiples * b % d] = True

    groups = []
    for s in generators:
        u0 = _dual_phase_vector([s], [1], d, 1)
        groups.extend(StabilizerGroup(system, (s,), (c * u0[0] % d, c * u0[1] % d)) for c in range(d))
    return groups


def enumerate_single_qudit_stabilizers(d: int) -> list[DensityState]:
    """The states of ``enumerate_single_qudit_groups``, one per group:
    every pure single-qudit stabilizer state at squarefree d, and those of
    the cyclic groups otherwise (24 of the 28 at d = 4).

    The groups are distinct cyclic subgroups, each with the d eigenvalue
    exponents c = k, so their states are distinct by construction.
    """
    return [stabilizer_state(group) for group in enumerate_single_qudit_groups(d)]

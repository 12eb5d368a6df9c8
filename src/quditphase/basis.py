"""Hermitian operator basis O_{l,m} and its phase-space bookkeeping.

The single-qudit operators are

    O_{l,m} = e^{-i pi m l / d} M_l Z^m,   M_l = sum_{u+v = l mod d} |u><v|,

indexed by points of the doubled torus Z_{2d} x Z_{2d} (they are exactly
2d-periodic in both labels). Each O is Hermitian, unitary and involutory;
the restricted index set Z_d x Z_d is an orthogonal basis with
Tr[O_u O_v] = d delta_{uv}. Multi-qudit operators are tensor products of
factors.

This module also provides:

* closed-form traces (``o_trace``) and the one doubled-domain lift: the
  sign formula ``lift_sign``, its per-factor (2d, 2d) ``lift_table`` and
  ``lift_to_full``, which turns any RESTRICTED table into the FULL one as
  a column-only lift times one cached +-1 row-sign table, written once;
  ``reduce_full_point`` reads the same formula.
  Tr O is likewise one per-factor (2d, 2d) table, which ``o_trace``, the
  x normalization check and the sampler's computational effects read,
* the Clifford action on labels as exact affine maps over Z_{2d}
  (``clifford_coordinate_action``); conjugation by a generator maps
  O_u -> O_{Mu + s} with NO sign, signs appearing only when reducing a
  doubled label back to the restricted domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DenseOperator,
    GateKind,
    QuditSystem,
    ValidationError,
    _Kind,
    _as_int,
    _read_gate,
    hw_matrix,
)

__all__ = [
    "EvenDimensionError",
    "Domain",
    "PhasePoint",
    "SymplecticAffineMap",
    "omega_block",
    "o_operator",
    "o_matrix",
    "o_stack",
    "p_stack",
    "o_trace",
    "lift_sign",
    "lift_table",
    "lift_to_full",
    "reduce_full_point",
    "clifford_coordinate_action",
]


class EvenDimensionError(ValidationError):
    """Raised by odd-d-only constructions; use O_{l,m} directly instead."""


class Domain(_Kind):
    RESTRICTED = "RESTRICTED"  # labels in Z_d
    FULL = "FULL"              # labels in Z_{2d}


@dataclass(frozen=True)
class PhasePoint:
    """A label vector (l, m) with every component reduced mod ``modulus``.

    ``l`` and ``m`` are integers or sequences of integers, read exactly:
    a label is never truncated.
    """

    l: tuple[int, ...]
    m: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        mod = _as_int(self.modulus, "modulus", 2)
        l, m = (_as_int(v if isinstance(v, Iterable) else (v,), "label", depth=1) for v in (self.l, self.m))
        if len(l) != len(m):
            raise ValidationError("l and m must have the same length")
        object.__setattr__(self, "l", tuple(c % mod for c in l))
        object.__setattr__(self, "m", tuple(c % mod for c in m))

    @property
    def n(self) -> int:
        return len(self.l)

    def vector(self) -> np.ndarray:
        """Coordinates as (l_1..l_n, m_1..m_n)."""
        return np.array(self.l + self.m, dtype=int)

    @staticmethod
    def from_vector(vec: Sequence[int], modulus: int) -> "PhasePoint":
        n = len(vec) // 2
        return PhasePoint(tuple(vec[:n]), tuple(vec[n:]), modulus)


def restricted_point(system: QuditSystem, l, m) -> PhasePoint:
    return PhasePoint(l, m, system.d)


def full_point(system: QuditSystem, l, m) -> PhasePoint:
    return PhasePoint(l, m, 2 * system.d)


def o_matrix(d: int, l: int, m: int) -> np.ndarray:
    """Single-qudit O_{l,m} = e^{-i pi m l / d} M_l Z^m at any integer labels."""
    d, l, m = _as_int(d, "local dimension", 2), _as_int(l, "label l"), _as_int(m, "label m")
    v = np.arange(d)
    mat = np.zeros((d, d), dtype=complex)
    mat[(l - v) % d, v] = np.exp(-1j * np.pi * m * l / d) * np.exp(2j * np.pi * (m % d) * v / d)
    return mat


@lru_cache(maxsize=32)
def o_stack(d: int) -> np.ndarray:
    """All single-qudit O_{l,m} at restricted labels, shape (d, d, d, d); cached read-only."""
    stack = np.array([[o_matrix(d, l, m) for m in range(d)] for l in range(d)])
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=32)
def p_stack(d: int) -> np.ndarray:
    """All single-qudit P(a, b) at restricted labels, shape (d, d, d, d); cached read-only."""
    stack = np.array([[hw_matrix(d, a, b) for b in range(d)] for a in range(d)])
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=32)
def _p_dagger_stack(d: int) -> np.ndarray:
    """All single-qudit P(a, b)^dagger at restricted labels, the dual stack of
    chi and of the Heisenberg-Weyl frame, shape (d, d, d, d); cached read-only."""
    stack = np.conj(np.swapaxes(p_stack(d), 2, 3))
    stack.flags.writeable = False
    return stack


def _check_factors(system: QuditSystem, point: PhasePoint) -> None:
    if point.n != system.n:
        raise ValidationError(f"point has {point.n} factors, system has {system.n}")


def o_operator(system: QuditSystem, point: PhasePoint) -> DenseOperator:
    """Dense O_{l,m}; multi-qudit via tensor product of factors."""
    _check_factors(system, point)
    mat = np.ones((1, 1), dtype=complex)
    for li, mi in zip(point.l, point.m):
        mat = np.kron(mat, o_matrix(system.d, li, mi))
    return DenseOperator(system, mat, unitary=True, hermitian=True)


@lru_cache(maxsize=32)
def _o_trace_table(d: int) -> np.ndarray:
    """Per-factor (2d, 2d) table of Tr O_{l,m}, cached read-only: (-1)^{l m}
    at odd d; 1 + (-1)^m at even l and 0 at odd l for even d. Its [:d, :d]
    block is the restricted one."""
    l, m = np.ogrid[: 2 * d, : 2 * d]
    if d % 2:
        table = (1 - 2 * ((l * m) % 2)).astype(float)
    else:
        table = np.where(l % 2, 0.0, 1.0 + (1 - 2 * (m % 2)))
    table.flags.writeable = False
    return table


def o_trace(system: QuditSystem, point: PhasePoint) -> complex:
    """Closed-form Tr O_{l,m}; O is 2d-periodic, so any integer labels work."""
    _check_factors(system, point)
    table, mod = _o_trace_table(system.d), 2 * system.d
    out = 1.0
    for li, mi in zip(point.l, point.m):
        out *= table[li % mod, mi % mod]
    return complex(out)


def lift_sign(d: int, l, m, eps_l, eps_m):
    """Sign of O_{l + d eps_l, m + d eps_m} relative to O_{l,m} (one factor).

    (-1)^{m eps_l + l eps_m + d eps_l eps_m}; takes ints or integer arrays.
    """
    return 1 - 2 * ((m * eps_l + l * eps_m + d * eps_l * eps_m) % 2)


@lru_cache(maxsize=32)
def lift_table(d: int, char: bool = False) -> np.ndarray:
    """Per-factor (2d, 2d) table: entry [L, M] is the sign of the label (L, M)
    relative to (L mod d, M mod d). For O it is ``lift_sign``. For P
    (``char``), per ``hw_matrix``'s doubled-label phases, it is the same at
    even d and all ones at odd d. Cached read-only.
    """
    if char and d % 2:
        table = np.ones((2 * d, 2 * d))
    else:
        lab = np.arange(2 * d)
        table = lift_sign(d, lab[:, None] % d, lab % d, lab[:, None] // d, lab // d).astype(float)
    table.flags.writeable = False
    return table


def lift_to_full(restricted: np.ndarray, table: np.ndarray) -> np.ndarray:
    """restricted(u mod d) * prod_i table[l_i, m_i] over Z_{2d}^{2n}.

    With ``lift_table(d)`` this is the FULL table of a RESTRICTED one. Every
    table lifted here has lifted rows that are its restricted rows times a
    per-column sign, table[l + d, M] = table[l, M] * s[M] (s[M] = (-1)^M,
    or 1 for the chi table at odd d); any other table raises
    ``ValidationError``. So with L_i = d e_i + l_i the FULL table factors as
    F[(e, l), M] = G[l, M] * C[e, M]. G = restricted(l, M mod d) *
    prod_i table[l_i, M_i] is the column-only lift, 1/2^n of F: a column
    gather of the restricted table times the product of the restricted
    rows. C = prod_i s[M_i]^{e_i} is a +-1 table of 2^n x (2d)^n entries,
    cached with the gather index per (d, n, s, dtype). F is written once,
    by one broadcast multiply whose inner loop spans all (2d)^n columns.
    """
    d, n = table.shape[0] // 2, restricted.ndim // 2
    top, low = table[:d], table[d:]
    flips = np.where((low == top).all(axis=0), 1, -1)
    if not (low == top * flips).all():
        raise ValidationError("lifted rows of the lift table are not +-1 times its restricted rows")
    dtype = np.result_type(restricted, table)
    columns, signs = _lift_layout(d, n, tuple(flips.tolist()), dtype)
    lifted = np.take(restricted.reshape(d**n, d**n), columns, axis=1) * _factor_product([top] * n)
    out = np.empty((2, d) * n + (len(columns),), dtype=dtype)
    np.multiply(lifted.reshape((1, d) * n + (-1,)), signs, out=out)
    return out.reshape((2 * d,) * (2 * n))


@lru_cache(maxsize=32)
def _lift_layout(d: int, n: int, flips: tuple[int, ...], dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """``lift_to_full``'s gather index of M mod d over the (2d)^n columns and
    its row-sign table C[e, M] = prod_i flips[M_i]^{e_i}, shaped
    (2, 1)^n x (2d)^n; cached read-only."""
    columns = np.zeros(1, dtype=np.intp)
    for _ in range(n):  # Horner index of M mod d in the restricted columns
        columns = (columns[:, None] * d + np.arange(2 * d) % d).ravel()
    signs = _factor_product([np.array([[1] * (2 * d), flips], dtype=dtype)] * n).reshape((2, 1) * n + (-1,))
    columns.flags.writeable = signs.flags.writeable = False
    return columns, signs


def _factor_product(tables: list[np.ndarray]) -> np.ndarray:
    """prod_i tables[i][a_i, b_i] as a (k^n, c^n) matrix from per-factor
    (k, c) tables, rows (a_1..a_n) and columns (b_1..b_n): one broadcast
    multiply per factor, last factor first, so each inner loop spans the
    columns of the factors already multiplied."""
    out = np.ones((1, 1), dtype=np.result_type(*tables))
    for table in reversed(tables):
        (k, c), (rows, cols) = table.shape, out.shape
        out = (table[:, None, :, None] * out[None, :, None, :]).reshape(k * rows, c * cols)
    return out


def reduce_full_point(system: QuditSystem, point: PhasePoint) -> tuple[PhasePoint, int]:
    """Reduce a Z_{2d} label to the restricted domain with its sign."""
    _check_factors(system, point)
    d = system.d
    l, m = np.array(point.l), np.array(point.m)
    sign = int(np.prod(lift_sign(d, l % d, m % d, l // d, m // d)))
    return PhasePoint(tuple(l % d), tuple(m % d), d), sign


def omega_block(n: int) -> np.ndarray:
    """Symplectic form [[0, -I], [I, 0]] for (l-block, m-block) coordinates."""
    eye = np.eye(n, dtype=int)
    zero = np.zeros((n, n), dtype=int)
    return np.block([[zero, -eye], [eye, zero]])


@dataclass(frozen=True)
class SymplecticAffineMap:
    """Affine label map u -> (matrix @ u + shift) mod 2d.

    Coordinates are ordered (l_1..l_n, m_1..m_n). The matrix must satisfy
    M^T Omega M = Omega over Z_{2d}. Entries are read exactly as integers,
    never truncated.
    """

    matrix: np.ndarray
    shift: np.ndarray
    modulus: int

    def __post_init__(self):
        mod = _as_int(self.modulus, "modulus", 2)
        rows, sh = _as_int(self.matrix, "matrix entry", depth=2), _as_int(self.shift, "shift entry", depth=1)
        if not rows or len(rows) % 2 or any(len(r) != len(rows) for r in rows):
            raise ValidationError("matrix must be square and even-sided")
        if len(sh) != len(rows):
            raise ValidationError("shift length must match the matrix side")
        mat, sh = ((np.array(v, dtype=object) % mod).astype(np.int64) for v in (rows, sh))
        n = mat.shape[0] // 2
        om = omega_block(n)
        if np.any((mat.T @ om @ mat - om) % mod):
            raise ValidationError("matrix is not symplectic over Z_{2d}")
        mat.flags.writeable = False
        sh.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "shift", sh)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    def apply(self, point: PhasePoint) -> PhasePoint:
        """Image of a label; accepts restricted or full points, returns full."""
        vec = (self.matrix @ point.vector() + self.shift) % self.modulus
        return PhasePoint.from_vector(vec, self.modulus)

    def compose(self, inner: "SymplecticAffineMap") -> "SymplecticAffineMap":
        """The map 'self after inner'."""
        if self.modulus != inner.modulus:
            raise ValidationError("moduli differ")
        return SymplecticAffineMap(
            self.matrix @ inner.matrix,
            self.matrix @ inner.shift + self.shift,
            self.modulus,
        )

    @staticmethod
    def identity(n: int, modulus: int) -> "SymplecticAffineMap":
        return SymplecticAffineMap(np.eye(2 * n, dtype=int), np.zeros(2 * n, dtype=int), modulus)


def clifford_coordinate_action(
    system: QuditSystem,
    kind,
    targets: tuple[int, ...] | None = None,
) -> SymplecticAffineMap:
    """Exact Z_{2d} label map of a Clifford generator.

    Conjugation acts as U O_u U^dagger = O_{map(u)} with no extra sign;
    restricted-domain signs come from ``reduce_full_point`` afterwards.
    ``targets`` selects the acted-on qudit(s); SUM takes (control, target).
    """
    kind, targets = _read_gate(system, kind, targets)
    d, n = system.d, system.n
    mod = 2 * d
    mat = np.eye(2 * n, dtype=int)
    shift = np.zeros(2 * n, dtype=int)
    if kind is GateKind.SUM:
        c, t = targets
        mat[t, c] = 1            # l_t += l_c
        mat[n + c, n + t] = -1   # m_c -= m_t
        return SymplecticAffineMap(mat, shift, mod)
    (t,) = targets
    if kind is GateKind.FOURIER:
        mat[t, t] = 0
        mat[t, n + t] = 1        # l -> m
        mat[n + t, n + t] = 0
        mat[n + t, t] = -1       # m -> -l
    elif kind is GateKind.PHASE:
        mat[n + t, t] = -1       # m -> m - l
        if d % 2:
            shift[n + t] = 1     # odd d adds the affine +1
    elif kind is GateKind.SHIFT:
        shift[t] = 2
    else:  # CLOCK
        shift[n + t] = -2
    return SymplecticAffineMap(mat, shift, mod)

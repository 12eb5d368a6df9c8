"""Dense construction of qudit Weyl and Clifford operators.

Provides the basic objects every other module consumes:

* ``QuditSystem``: a register of n qudits of local dimension d, checked
  against the dense-size cap.
* ``DenseOperator`` / ``DensityState``: validated dense matrices; a gate
  is checked for unitarity on its exact support (``_support``).
* ``hw_matrix``: the single-qudit Weyl operator P(a, b) = w_d^{ab/2} X^a Z^b;
  every half-integer power w_d^{x/2} in the library is zeta^``_zeta_half(d, x)``,
  zeta = e^{i pi/d} (the inverse of 2 mod d at odd d, plain integers at even d).
  X = P(1, 0) and Z = P(0, 1); a multi-qudit P(a, b) is the Kronecker product
  of its factors (``basis.p_stack`` holds them all).
* ``clifford_generator``: Fourier, phase, SUM, shift and clock gates, and
  ``embed_generator``, which places one on its target qudit(s) of a
  register; every named gate's targets are checked by one rule.
* ``conjugate_by``: U A U^dagger.

Everything is an immutable dense complex matrix; there is no sparse path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV_VAR = "QUDITPHASE_DIM_CAP"
# most samples one estimate or homodyne batch may draw: a larger count is
# rejected before anything is allocated (10^7 gkp-sim lines are ~1.5 GB)
SAMPLE_CAP = 10**7

__all__ = [
    "DEFAULT_DIM_CAP",
    "DIM_CAP_ENV_VAR",
    "SAMPLE_CAP",
    "QuditError",
    "ValidationError",
    "DimensionCapError",
    "InvariantError",
    "QuditSystem",
    "DenseOperator",
    "DensityState",
    "GateKind",
    "hw_matrix",
    "clifford_generator",
    "conjugate_by",
    "embed_sum",
    "embed_generator",
    "computational_state",
    "plus_state",
    "t_state",
    "maximally_mixed",
    "pure_density",
]


class QuditError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(QuditError):
    """Invalid user input (bad shapes, bad labels, malformed configs)."""


class DimensionCapError(ValidationError):
    """d^n exceeds the configured dense-matrix budget."""


class InvariantError(QuditError):
    """A numerical invariant that should hold algebraically was violated."""


def _as_int(value, what: str, lo=-math.inf, hi=math.inf, depth: int = 0):
    """``value`` read exactly as a Python int in [lo, hi), or for ``depth`` > 0 as a tuple of
    such reads nested that many sequence levels deep. Python and numpy integers pass; bool,
    float, str and every other type raise ValidationError, so no label, count or seed is truncated."""
    if depth:
        if not isinstance(value, Iterable):
            raise ValidationError(f"{what} must be a sequence of integers, got {value!r}")
        return tuple(_as_int(v, what, lo, hi, depth - 1) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if not lo <= value < hi:
        raise ValidationError(f"{what} must lie in [{lo}, {hi}), got {value}")
    return int(value)


@dataclass(frozen=True)
class QuditSystem:
    """A register of ``n`` qudits with local dimension ``d``.

    ``d`` and ``n`` are read exactly as integers, never truncated.
    Construction fails when the dense side length d^n exceeds the cap
    (default 4096, or the integer in the QUDITPHASE_DIM_CAP environment
    variable, read at each construction; a non-integer raises ValidationError).
    """

    d: int
    n: int = 1

    def __init__(self, d: int, n: int = 1):
        d, n = _as_int(d, "local dimension", 2), _as_int(n, "qudit count", 1)
        try:
            cap = int(os.environ.get(DIM_CAP_ENV_VAR, DEFAULT_DIM_CAP))
        except ValueError:
            raw = os.environ[DIM_CAP_ENV_VAR]
            raise ValidationError(f"{DIM_CAP_ENV_VAR} must be an integer, got {raw!r}") from None
        # d >= 2, so n >= cap.bit_length() exceeds the cap before d**n is worth computing
        if n >= cap.bit_length() or d**n > cap:
            raise DimensionCapError(f"d^n = {d}^{n} exceeds the dense cap {cap}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        """Dense Hilbert-space dimension d^n."""
        return self.d**self.n


def _as_matrix(entries, side: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.shape != (side, side):
        raise ValidationError(f"expected a {side}x{side} matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _check_unitary(entries: np.ndarray) -> None:
    """Raise unless U U^dagger = I to 1e-9 in max-norm; no identity is built."""
    dev = entries @ entries.conj().T
    dev.flat[:: len(dev) + 1] -= 1
    dev = np.max(np.abs(dev))
    if dev > 1e-9:
        raise ValidationError(f"unitarity violated by {dev:.3e}")


def _support(system: QuditSystem, unitary: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Qudits a gate acts on, ascending, and the gate there.

    Qudit q leaves the support only when U = I_q (x) V holds with exact
    equality, so no tolerance enters M, and U U^dagger - I has exactly the
    nonzero entries of V V^dagger - I. One qudit is always kept, so an
    identity-like gate still draws its uniform block.
    """
    d = system.d
    kept = list(range(system.n))
    t = unitary.reshape((d,) * (2 * system.n))
    for q in range(system.n):
        if len(kept) == 1:
            break
        i = kept.index(q)
        blocks = np.moveaxis(t, (i, len(kept) + i), (0, 1))
        # off-diagonal blocks first, so a dense gate is rejected before any diagonal block is compared
        off = (blocks[a, b] for a in range(d) for b in range(d) if a != b)
        if not any(map(np.any, off)) and all(np.array_equal(blocks[a, a], blocks[0, 0]) for a in range(1, d)):
            t = blocks[0, 0]
            kept.remove(q)
    return tuple(kept), np.ascontiguousarray(t).reshape(d ** len(kept), d ** len(kept))


def _check_hermitian(entries: np.ndarray) -> None:
    """Raise unless A = A^dagger to 1e-9 in max-norm, compared in row blocks of about 4 MiB."""
    rows = max(1, (4 << 20) // (entries.itemsize * len(entries)))
    blocks = range(0, len(entries), rows)
    dev = np.max([np.max(np.abs(entries[i : i + rows] - entries[:, i : i + rows].conj().T)) for i in blocks])
    if dev > 1e-9:
        raise ValidationError(f"hermiticity violated by {dev:.3e}")


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense complex matrix tied to a qudit register.

    Optional ``unitary`` (on the exact support, ``_support``) and ``hermitian`` flags are verified
    to 1e-9 in max-norm at construction; ``None`` skips the check. Compared and hashed by identity.
    """

    system: QuditSystem
    entries: np.ndarray
    unitary: bool | None = None
    hermitian: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries, self.system.dim))
        if self.unitary:
            _check_unitary(_support(self.system, self.entries)[1])
        if self.hermitian:
            _check_hermitian(self.entries)


@dataclass(frozen=True, eq=False)
class DensityState:
    """A validated density matrix: Hermitian, unit trace, PSD to 1e-9; compared and hashed by identity."""

    system: QuditSystem
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.system.dim))
        _check_hermitian(self.matrix)
        tr = self.matrix.trace()
        if abs(tr - 1) > 1e-9:
            raise ValidationError(f"density matrix trace {tr} != 1")
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -1e-9:
            raise ValidationError(f"density matrix has eigenvalue {lo:.3e} < 0")

    def purity(self) -> float:
        """Tr(rho^2) = sum_ij |rho_ij|^2, since rho is Hermitian."""
        return float(np.vdot(self.matrix, self.matrix).real)


def _zeta_half(d: int, x):
    """The zeta = e^{i pi/d} exponent of w_d^{x/2}: 2 (x 2^{-1} mod d) at odd d, x unreduced at even d."""
    return 2 * (x * pow(2, -1, d) % d) if d % 2 else x


def hw_matrix(d: int, a: int, b: int) -> np.ndarray:
    """Single-qudit P(a, b) for arbitrary integer labels.

    The phase uses the plain-integer product a*b of the labels as given,
    so evaluating at a representative in [0, 2d) reproduces the sign
    pattern of the doubled-domain periodicity (P(a+d, b) = (-1)^b P(a, b)
    for even d; exact d-periodicity for odd d).
    """
    d, a, b = _as_int(d, "local dimension", 2), _as_int(a, "label a"), _as_int(b, "label b")
    shift = np.zeros((d, d), dtype=complex)
    shift[(np.arange(d) + a) % d, np.arange(d)] = 1.0
    clock_pow = np.exp(2j * np.pi * ((b % d) * np.arange(d)) / d)
    return np.exp(1j * np.pi * _zeta_half(d, a * b) / d) * (shift * clock_pow[np.newaxis, :])


class _Kind(str, Enum):
    """A kind name: a value that names no member raises ValidationError."""

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(f"{cls.__name__} must be one of {[k.value for k in cls]}, got {value!r}") from None


class GateKind(_Kind):
    FOURIER = "FOURIER"
    PHASE = "PHASE"
    SUM = "SUM"
    SHIFT = "SHIFT"
    CLOCK = "CLOCK"

    @property
    def arity(self) -> int:
        """Qudits the generator acts on: two for SUM (control, target), else one."""
        return 2 if self is GateKind.SUM else 1


def _read_gate(system: QuditSystem, kind, targets: Iterable[int] | None = None) -> tuple[GateKind, tuple[int, ...]]:
    """A named generator read once: its ``GateKind`` and its targets, checked against the register.

    SUM takes two distinct qudits (control, target), default (0, 1); every
    other kind takes one, default (0,). Each must be an integer in [0, n);
    a bare int or any other non-sequence is rejected.
    """
    kind = GateKind(kind)
    arity = kind.arity
    targets = _as_int(range(arity) if targets is None else targets, f"{kind.value} target", 0, system.n, 1)
    if len(targets) != arity or len(set(targets)) != arity:
        raise ValidationError(f"{kind.value} takes {arity} distinct target(s), got {targets}")
    return kind, targets


def clifford_generator(system: QuditSystem, kind: GateKind | str) -> DenseOperator:
    """Dense Clifford generator of the requested kind.

    FOURIER is stored unitary (prefactor 1/sqrt d). The PHASE diagonal is
    e^{i pi j^2/d} for even d and w_d^{j(j-1)/2} for odd d; at d=2 these
    give the Hadamard and S gates, and SUM gives CNOT. SUM requires n=2;
    the other kinds require n=1.
    """
    kind = GateKind(kind)
    d = system.d
    if kind is GateKind.SUM:
        if system.n != 2:
            raise ValidationError("SUM acts on a two-qudit system")
        return embed_sum(system, 0, 1)
    if system.n != 1:
        raise ValidationError(f"{kind.value} acts on a single qudit")
    if kind is GateKind.FOURIER:
        j = np.arange(d)
        mat = np.exp(2j * np.pi * np.outer(j, j) / d) / math.sqrt(d)
        return DenseOperator(system, mat, unitary=True)
    if kind is GateKind.PHASE:
        j = np.arange(d)
        if d % 2:
            diag = np.exp(2j * np.pi * ((j * (j - 1) // 2) % d) / d)
        else:
            diag = np.exp(1j * np.pi * j * j / d)
        return DenseOperator(system, np.diag(diag), unitary=True)
    a, b = (1, 0) if kind is GateKind.SHIFT else (0, 1)
    return DenseOperator(system, hw_matrix(d, a, b), unitary=True)


def conjugate_by(u: DenseOperator, a: DenseOperator) -> DenseOperator:
    """U A U^dagger."""
    if u.system.dim != a.system.dim:
        raise ValidationError("operator shapes do not match")
    return DenseOperator(a.system, u.entries @ a.entries @ u.entries.conj().T)


def embed_sum(system: QuditSystem, control: int, target: int) -> DenseOperator:
    """Lift SUM (|i>|j> -> |i>|i+j mod d>) onto an arbitrary qudit pair."""
    d, n = system.d, system.n
    control, target = _read_gate(system, GateKind.SUM, (control, target))[1]
    idx = np.arange(d**n)
    ic = (idx // d ** (n - 1 - control)) % d
    it = (idx // d ** (n - 1 - target)) % d
    out = idx + (((it + ic) % d) - it) * d ** (n - 1 - target)
    mat = np.zeros((d**n, d**n), dtype=complex)
    mat[out, idx] = 1.0
    return DenseOperator(system, mat, unitary=True)


def embed_generator(system: QuditSystem, kind, targets: tuple[int, ...] | None = None) -> DenseOperator:
    """Dense n-qudit unitary of a named generator acting on ``targets``.

    Factor 0 is the leftmost (most significant) tensor slot.
    """
    kind, targets = _read_gate(system, kind, targets)
    if kind is GateKind.SUM:
        return embed_sum(system, *targets)
    gate = clifford_generator(QuditSystem(system.d, 1), kind).entries
    mat = np.ones((1, 1), dtype=complex)
    for k in range(system.n):
        mat = np.kron(mat, gate if k == targets[0] else np.eye(system.d))
    return DenseOperator(system, mat)


def pure_density(system: QuditSystem, vector: Iterable[complex]) -> DensityState:
    """Density matrix of a (normalized) pure state vector."""
    vec = np.asarray(list(vector), dtype=complex)
    if vec.shape != (system.dim,):
        raise ValidationError(f"state vector must have length {system.dim}")
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise ValidationError("zero state vector")
    vec = vec / norm
    return DensityState(system, np.outer(vec, vec.conj()))


def computational_state(system: QuditSystem, index: int = 0) -> DensityState:
    index = _as_int(index, "basis index", 0, system.dim)
    vec = np.zeros(system.dim, dtype=complex)
    vec[index] = 1.0
    return pure_density(system, vec)


def plus_state(system: QuditSystem) -> DensityState:
    """Uniform superposition (the Fourier transform of |0>)."""
    return pure_density(system, np.ones(system.dim, dtype=complex))


def t_state(system: QuditSystem | None = None) -> DensityState:
    """The qubit magic state (|0> + e^{i pi/4}|1>)/sqrt2."""
    system = system or QuditSystem(2, 1)
    if system.d != 2 or system.n != 1:
        raise ValidationError("the T state is defined for a single qubit")
    return pure_density(system, [1.0, np.exp(1j * np.pi / 4)])


def maximally_mixed(system: QuditSystem) -> DensityState:
    return DensityState(system, np.eye(system.dim) / system.dim)

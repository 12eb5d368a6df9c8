"""Dense construction of qudit Pauli and Clifford operators.

Provides the basic objects every other module consumes:

* ``QuditSystem``: a register of n qudits of local dimension d, with the
  doubled phase order D (d for odd d, 2d for even d) and a dense-size cap.
* ``DenseOperator`` / ``DensityState``: validated dense matrices.
* ``PauliLabel`` and ``heisenberg_weyl``: the generalized Pauli group
  P(a, b) = w_d^{ab/2} X^a Z^b with the half-integer phase handled per
  parity of d (multiplicative inverse of 2 for odd d, literal e^{i pi ab/d}
  with plain-integer products for even d).
* ``clifford_generator``: Fourier, phase, SUM, shift and clock gates.
* Small dense-algebra helpers (tensor, mul, adjoint, trace_inner,
  conjugate_by) used throughout the test suite.

Everything is an immutable dense complex matrix; there is no sparse path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

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
    "PauliLabel",
    "GateKind",
    "make_shift",
    "make_clock",
    "heisenberg_weyl",
    "hw_matrix",
    "clifford_generator",
    "tensor",
    "mul",
    "adjoint",
    "trace_inner",
    "conjugate_by",
    "embed_single",
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


def _dim_cap(override: int | None) -> int:
    if override is not None:
        return int(override)
    env = os.environ.get(DIM_CAP_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_DIM_CAP


@dataclass(frozen=True)
class QuditSystem:
    """A register of ``n`` qudits with local dimension ``d``.

    ``D`` is d for odd d and 2d for even d; it is the order of the global
    phase group of the generalized Pauli operators. Construction fails when
    the dense side length d^n exceeds the cap (default 4096, overridable via
    the QUDITPHASE_DIM_CAP environment variable or the ``cap`` argument).
    """

    d: int
    n: int = 1
    D: int = field(init=False)

    def __init__(self, d: int, n: int = 1, cap: int | None = None):
        if int(d) < 2:
            raise ValidationError(f"local dimension must be >= 2, got {d}")
        if int(n) < 1:
            raise ValidationError(f"qudit count must be >= 1, got {n}")
        d, n, cap = int(d), int(n), _dim_cap(cap)
        # d >= 2, so n >= cap.bit_length() exceeds the cap before d**n is worth computing
        if n >= cap.bit_length() or d**n > cap:
            raise DimensionCapError(f"d^n = {d}^{n} exceeds the dense cap {cap}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "D", d if d % 2 else 2 * d)

    @property
    def dim(self) -> int:
        """Dense Hilbert-space dimension d^n."""
        return self.d**self.n

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi / self.d)

    def single(self) -> "QuditSystem":
        """The one-qudit factor of this register."""
        return QuditSystem(self.d, 1)


def _as_matrix(entries, side: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.shape != (side, side):
        raise ValidationError(f"expected a {side}x{side} matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("matrix entries must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DenseOperator:
    """A dense complex matrix tied to a qudit register.

    Optional ``unitary``/``hermitian`` flags are verified to 1e-9 in
    max-norm at construction time; leaving them ``None`` skips the check.
    """

    system: QuditSystem
    entries: np.ndarray
    unitary: bool | None = None
    hermitian: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_matrix(self.entries, self.system.dim))
        eye = np.eye(self.system.dim)
        if self.unitary:
            dev = np.max(np.abs(self.entries @ self.entries.conj().T - eye))
            if dev > 1e-9:
                raise ValidationError(f"unitarity violated by {dev:.3e}")
        if self.hermitian:
            dev = np.max(np.abs(self.entries - self.entries.conj().T))
            if dev > 1e-9:
                raise ValidationError(f"hermiticity violated by {dev:.3e}")

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        return mul(self, other)


@dataclass(frozen=True)
class DensityState:
    """A validated density matrix: Hermitian, unit trace, PSD to 1e-9."""

    system: QuditSystem
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, self.system.dim))
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > 1e-9:
            raise ValidationError(f"density matrix not Hermitian (dev {herm:.3e})")
        tr = self.matrix.trace()
        if abs(tr - 1) > 1e-9:
            raise ValidationError(f"density matrix trace {tr} != 1")
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -1e-9:
            raise ValidationError(f"density matrix has eigenvalue {lo:.3e} < 0")

    def purity(self) -> float:
        """Tr(rho^2) = sum_ij |rho_ij|^2, since rho is Hermitian."""
        return float(np.vdot(self.matrix, self.matrix).real)


def _canon_vec(values: Sequence[int] | int, n: int, mod: int) -> tuple[int, ...]:
    if isinstance(values, (int, np.integer)):
        vec: tuple[int, ...] = (int(values),)
    else:
        vec = tuple(int(v) for v in values)
    if len(vec) != n:
        raise ValidationError(f"label needs {n} components, got {len(vec)}")
    return tuple(v % mod for v in vec)


@dataclass(frozen=True)
class PauliLabel:
    """Canonical label (a, b, phase_exponent) of a generalized Pauli operator.

    Components are reduced to [0, d) and the global phase exponent to
    [0, D). Tensor factors are ordered like the register.
    """

    system: QuditSystem
    a: tuple[int, ...]
    b: tuple[int, ...]
    phase_exponent: int = 0

    def __post_init__(self):
        object.__setattr__(self, "a", _canon_vec(self.a, self.system.n, self.system.d))
        object.__setattr__(self, "b", _canon_vec(self.b, self.system.n, self.system.d))
        object.__setattr__(self, "phase_exponent", int(self.phase_exponent) % self.system.D)


def make_shift(system: QuditSystem) -> DenseOperator:
    """Single-qudit shift X with X|j> = |j+1 mod d>."""
    d = system.d
    mat = np.zeros((d, d), dtype=complex)
    mat[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return DenseOperator(system.single(), mat, unitary=True)


def make_clock(system: QuditSystem) -> DenseOperator:
    """Single-qudit clock Z = diag(w^j), w = e^{2 pi i / d}."""
    d = system.d
    return DenseOperator(system.single(), np.diag(system.omega ** np.arange(d)), unitary=True)


def _half_phase(d: int, prod: int) -> complex:
    # w_d^{prod/2}: inverse of 2 mod d for odd d; literal e^{i pi prod/d},
    # with prod over the plain integers, for even d.
    if d % 2:
        inv2 = pow(2, -1, d)
        return np.exp(2j * np.pi * ((prod * inv2) % d) / d)
    return np.exp(1j * np.pi * prod / d)


def hw_matrix(d: int, a: int, b: int) -> np.ndarray:
    """Single-qudit P(a, b) for arbitrary integer labels.

    The phase uses the plain-integer product a*b of the labels as given,
    so evaluating at a representative in [0, 2d) reproduces the sign
    pattern of the doubled-domain periodicity (P(a+d, b) = (-1)^b P(a, b)
    for even d; exact d-periodicity for odd d).
    """
    shift = np.zeros((d, d), dtype=complex)
    shift[(np.arange(d) + a) % d, np.arange(d)] = 1.0
    clock_pow = np.exp(2j * np.pi * ((b % d) * np.arange(d)) / d)
    return _half_phase(d, a * b) * (shift * clock_pow[np.newaxis, :])


def heisenberg_weyl(system: QuditSystem, label: PauliLabel) -> DenseOperator:
    """Dense P(a, b) = w_D^{phase} tensor_i P(a_i, b_i)."""
    mat = np.ones((1, 1), dtype=complex)
    for ai, bi in zip(label.a, label.b):
        mat = np.kron(mat, hw_matrix(system.d, ai, bi))
    mat = mat * np.exp(2j * np.pi * label.phase_exponent / system.D)
    return DenseOperator(system, mat, unitary=True)


class GateKind(str, Enum):
    FOURIER = "FOURIER"
    PHASE = "PHASE"
    SUM = "SUM"
    SHIFT = "SHIFT"
    CLOCK = "CLOCK"


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
    if kind is GateKind.SHIFT:
        return make_shift(system)
    return make_clock(system)


def tensor(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    if a.system.d != b.system.d:
        raise ValidationError("tensor factors must share the local dimension")
    sys_out = QuditSystem(a.system.d, a.system.n + b.system.n)
    return DenseOperator(sys_out, np.kron(a.entries, b.entries))


def mul(a: DenseOperator, b: DenseOperator) -> DenseOperator:
    if a.system.dim != b.system.dim:
        raise ValidationError("operator shapes do not match")
    return DenseOperator(a.system, a.entries @ b.entries)


def adjoint(a: DenseOperator) -> DenseOperator:
    return DenseOperator(a.system, a.entries.conj().T)


def trace_inner(a: DenseOperator, b: DenseOperator) -> complex:
    """Tr[A^dagger B]."""
    if a.system.dim != b.system.dim:
        raise ValidationError("operator shapes do not match")
    return complex(np.sum(a.entries.conj() * b.entries))


def conjugate_by(u: DenseOperator, a: DenseOperator) -> DenseOperator:
    """U A U^dagger."""
    if u.system.dim != a.system.dim:
        raise ValidationError("operator shapes do not match")
    return DenseOperator(a.system, u.entries @ a.entries @ u.entries.conj().T)


def embed_single(system: QuditSystem, gate: DenseOperator, target: int) -> DenseOperator:
    """Lift a single-qudit gate onto ``target`` of an n-qudit register.

    Factor 0 is the leftmost (most significant) tensor slot.
    """
    if gate.system.dim != system.d:
        raise ValidationError("gate is not single-qudit")
    if not 0 <= target < system.n:
        raise ValidationError("target out of range")
    mat = np.ones((1, 1), dtype=complex)
    for k in range(system.n):
        mat = np.kron(mat, gate.entries if k == target else np.eye(system.d))
    return DenseOperator(system, mat)


def embed_sum(system: QuditSystem, control: int, target: int) -> DenseOperator:
    """Lift SUM (|i>|j> -> |i>|i+j mod d>) onto an arbitrary qudit pair."""
    d, n = system.d, system.n
    if control == target or not (0 <= control < n and 0 <= target < n):
        raise ValidationError("SUM needs two distinct in-range qudits")
    idx = np.arange(d**n)
    ic = (idx // d ** (n - 1 - control)) % d
    it = (idx // d ** (n - 1 - target)) % d
    out = idx + (((it + ic) % d) - it) * d ** (n - 1 - target)
    mat = np.zeros((d**n, d**n), dtype=complex)
    mat[out, idx] = 1.0
    return DenseOperator(system, mat, unitary=True)


def embed_generator(system: QuditSystem, kind, targets: tuple[int, ...] | None = None) -> DenseOperator:
    """Dense n-qudit unitary of a named generator acting on ``targets``."""
    kind = GateKind(kind)
    if kind is GateKind.SUM:
        c, t = targets if targets is not None else (0, 1)
        return embed_sum(system, c, t)
    (t,) = targets if targets is not None else (0,)
    gate = clifford_generator(system.single(), kind)
    return embed_single(system, gate, t)


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
    if not 0 <= index < system.dim:
        raise ValidationError(f"basis index must lie in [0, {system.dim}), got {index}")
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

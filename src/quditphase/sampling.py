"""Monte-Carlo Born-probability estimation from quasiprobability frames.

The estimator decomposes the input state in an operator frame (the
Hermitian O basis, or the Heisenberg-Weyl basis for the characteristic
variant), samples phase-point trajectories through the circuit, and
averages signed weights:

    M_traj = x_Pi(lam_T) sign(x_rho(lam_0)) ||x_rho||_1 prod_t sign_t ||col_t||_1

The sample count follows the Hoeffding bound
K = ceil(2 M^2 ln(2/p_f) / eps^2) with M the aggregated l1 norm of the
circuit. Both frames share one column builder: the frame's basis
operator at a label, conjugated by the gate and expanded over the dual
basis. Named generator gates never touch dense n-qudit matrices: each
column of a generator has exactly one entry of modulus one, so its frame
action is a label map with a sign (O frame) or a phase (Heisenberg-Weyl
frame), read from a table built once on the gate's 1- or 2-qudit
support. Explicit gates sample lazily computed, memoized columns.

Determinism contract: one uniform block per stream for the input draw
and one per explicit gate, in trajectory order; named gates draw nothing
in either frame. Per-stream compensated sums are merged exactly. A report
is bit-for-bit reproducible for fixed (seed, streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Union

import numpy as np

from .core import (
    DenseOperator,
    DensityState,
    GateKind,
    InvariantError,
    QuditSystem,
    ValidationError,
    clifford_generator,
)
from .basis import Domain, PhasePoint, o_stack, p_stack
from .measures import (
    NORM_CUTOFF,
    QuasiDistribution,
    _contract_stack,
    characteristic_fn,
    lp_norm,
    x_distribution,
)

__all__ = [
    "MeasurementKind",
    "MeasurementEffect",
    "NamedGate",
    "CircuitDescription",
    "EstimateReport",
    "frame_state_coeffs",
    "frame_measurement_coeffs",
    "forward_norm",
    "sample_count",
    "estimate_born",
    "estimate_born_char",
]

_SWEEP_SEED = 0x5EED  # fixed entropy for the n>=2 forward-norm sweep
_SWEEP_POINTS = 256


class MeasurementKind(str, Enum):
    COMPUTATIONAL = "COMPUTATIONAL"
    EXPLICIT = "EXPLICIT"


@dataclass(frozen=True)
class MeasurementEffect:
    """Projective computational readout on a subset, or an explicit effect."""

    kind: MeasurementKind
    indices: tuple[int, ...] = ()
    outcomes: tuple[int, ...] = ()
    operator: DenseOperator | None = None

    def validate(self, system: QuditSystem) -> None:
        if self.kind == MeasurementKind.COMPUTATIONAL:
            if len(self.indices) != len(self.outcomes) or not self.indices:
                raise ValidationError("indices and outcomes must pair up")
            if len(set(self.indices)) != len(self.indices):
                raise ValidationError("measured indices must be distinct")
            if any(not 0 <= i < system.n for i in self.indices):
                raise ValidationError("measured index out of range")
            if any(not 0 <= o < system.d for o in self.outcomes):
                raise ValidationError("outcome out of range")
        else:
            if self.operator is None:
                raise ValidationError("EXPLICIT effect needs an operator")
            if self.operator.entries.shape != (system.dim, system.dim):
                raise ValidationError("effect shape mismatch")
            eig = np.linalg.eigvalsh(self.operator.entries)
            if eig.min() < -1e-9 or eig.max() > 1 + 1e-9:
                raise ValidationError("effect must satisfy 0 <= Pi <= 1")


NamedGate = tuple[GateKind, tuple[int, ...]]
GateSpec = Union[NamedGate, DenseOperator]


@dataclass(frozen=True)
class CircuitDescription:
    """Input state, ordered gate list, and one measurement effect."""

    system: QuditSystem
    input_state: DensityState
    gates: tuple[GateSpec, ...]
    measurement: MeasurementEffect

    def __post_init__(self):
        if self.input_state.system != self.system:
            raise ValidationError("input state system mismatch")
        for g in self.gates:
            if isinstance(g, DenseOperator):
                if g.entries.shape != (self.system.dim, self.system.dim):
                    raise ValidationError("gate shape mismatch")
                u = g.entries
                if np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) > 1e-9:
                    raise ValidationError("explicit gate is not unitary")
            else:
                kind, targets = g
                kind = GateKind(kind)
                arity = 2 if kind is GateKind.SUM else 1
                if len(targets) != arity or len(set(targets)) != arity:
                    raise ValidationError(f"{kind.value} takes {arity} distinct target(s)")
                if any(not 0 <= t < self.system.n for t in targets):
                    raise ValidationError("gate target out of range")
        self.measurement.validate(self.system)


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    epsilon: float
    failure_prob: float
    samples_used: int
    forward_norm: float
    seed: int
    streams: int


# ---------------------------------------------------------------- frames

def frame_state_coeffs(rho: DensityState) -> QuasiDistribution:
    """x_rho(lam) = Tr(rho O_lam / d^n) on the restricted domain."""
    return x_distribution(rho, Domain.RESTRICTED)


def frame_measurement_coeffs(system: QuditSystem, effect: MeasurementEffect, lam: PhasePoint) -> float:
    """x_Pi(lam) = Tr(Pi O_lam), closed form for computational effects."""
    arr = _measurement_array(system, effect)
    return float(arr[tuple(lam.vector())])


@lru_cache(maxsize=16)
def _frame_stacks(d: int, char: bool) -> tuple[np.ndarray, np.ndarray]:
    """Restricted single-qudit basis stack of a frame and its dual stack."""
    if not char:
        return o_stack(d), o_stack(d)
    dual = np.conj(np.swapaxes(p_stack(d), 2, 3))
    dual.flags.writeable = False
    return p_stack(d), dual


def _column(system: QuditSystem, char: bool, unitary: np.ndarray, flat: int) -> np.ndarray:
    """x_U(lam' | lam) for every lam', lam the restricted label at ``flat``.

    The basis operator at lam is the Kronecker product of single-qudit
    stack entries; it is conjugated by U and contracted with the dual
    stack. O-frame columns are real, Heisenberg-Weyl columns complex.
    """
    d, n = system.d, system.n
    basis, dual = _frame_stacks(d, char)
    vec = np.unravel_index(flat, (d,) * (2 * n))
    op = basis[vec[0], vec[n]]
    for q in range(1, n):
        op = np.kron(op, basis[vec[q], vec[n + q]])
    col = _contract_stack(system, dual, unitary @ op @ unitary.conj().T) / d**n
    if not char:
        if np.max(np.abs(col.imag)) > 1e-10:
            raise InvariantError("frame column must be real")
        col = col.real
    col = col.reshape(-1)
    col[np.abs(col) < NORM_CUTOFF] = 0.0
    if not np.any(col):
        raise InvariantError("frame column vanished; unitary inconsistent")
    return col


@lru_cache(maxsize=64)
def _named_table(d: int, kind: GateKind, char: bool) -> tuple[np.ndarray, np.ndarray]:
    """Image label and unit phase of every local label under a generator.

    Built on the generator's own 1- or 2-qudit support (SUM as
    (control, target)), where each column has exactly one entry.
    """
    local = QuditSystem(d, 2 if kind is GateKind.SUM else 1)
    unitary = clifford_generator(local, kind).entries
    images, phases = [], []
    for flat in range(d ** (2 * local.n)):
        col = _column(local, char, unitary, flat)
        (nz,) = np.nonzero(col)
        if len(nz) != 1:
            raise InvariantError("a generator column must have a single entry")
        images.append(nz[0])
        phases.append(col[nz[0]] / abs(col[nz[0]]))
    images, phases = np.array(images), np.array(phases)
    images.flags.writeable = phases.flags.writeable = False
    return images, phases


def _named_step(system: QuditSystem, gate: NamedGate, idx: np.ndarray, char: bool) -> tuple[np.ndarray, np.ndarray]:
    """Images of flat restricted labels under a named gate, with unit phases."""
    kind, targets = gate
    d, n = system.d, system.n
    images, phases = _named_table(d, GateKind(kind), char)
    axes = [*targets, *(n + t for t in targets)]
    local_shape = (d,) * len(axes)
    vecs = np.array(np.unravel_index(idx, (d,) * (2 * n)))
    local = np.ravel_multi_index(tuple(vecs[axes]), local_shape)
    vecs[axes] = np.unravel_index(images[local], local_shape)
    return np.ravel_multi_index(tuple(vecs), (d,) * (2 * n)), phases[local]


# ------------------------------------------------------- measurement table

def _measurement_array(system: QuditSystem, effect: MeasurementEffect) -> np.ndarray:
    """x_Pi over the whole restricted domain, shape (d,)*2n."""
    d, n = system.d, system.n
    if effect.kind == MeasurementKind.EXPLICIT:
        arr = _contract_stack(system, o_stack(d), effect.operator.entries.astype(complex))
        if np.max(np.abs(arr.imag)) > 1e-10:
            raise InvariantError("x_Pi must be real")
        return arr.real
    grids = np.meshgrid(*([np.arange(d)] * (2 * n)), indexing="ij")
    out = np.ones((d,) * (2 * n))
    for q in range(n):
        l, m = grids[q], grids[n + q]
        if q in effect.indices:
            o = effect.outcomes[effect.indices.index(q)]
            num = 2 * o - l
            hit = num % d == 0
            k = np.where(hit, num // d, 0)
            fac = np.where(hit, np.where((m * k) % 2, -1.0, 1.0), 0.0)
        elif d % 2:
            fac = np.where((m * l) % 2, -1.0, 1.0)
        else:
            fac = np.where(l % 2 == 0, 1.0 + np.where(m % 2, -1.0, 1.0), 0.0)
        out = out * fac
    return out


def _char_measurement_array(system: QuditSystem, effect: MeasurementEffect) -> np.ndarray:
    """Tr(Pi P(u)) over the restricted domain (complex)."""
    d, n = system.d, system.n
    if effect.kind == MeasurementKind.EXPLICIT:
        return _contract_stack(system, p_stack(d), effect.operator.entries.astype(complex))
    grids = np.meshgrid(*([np.arange(d)] * (2 * n)), indexing="ij")
    out = np.ones((d,) * (2 * n), dtype=complex)
    for q in range(n):
        a, b = grids[q], grids[n + q]
        if q in effect.indices:
            o = effect.outcomes[effect.indices.index(q)]
            fac = np.where(a == 0, np.exp(2j * np.pi * b * o / d), 0.0)
        else:
            fac = np.where((a == 0) & (b == 0), float(d), 0.0)
        out = out * fac
    return out


# ---------------------------------------------------------------- norms

class _ColumnCache:
    """Lazy per-gate memo of explicit-gate columns keyed by source flat index.

    An entry holds the column's support, its values there, the sampling
    cdf over the support and the column's l1 norm.
    """

    def __init__(self, system: QuditSystem, char: bool):
        self.system = system
        self.char = char
        self.cols: dict[tuple[int, int], tuple] = {}

    def get(self, gate_index: int, gate: DenseOperator, flat: int):
        key = (gate_index, flat)
        if key not in self.cols:
            col = _column(self.system, self.char, gate.entries, flat)
            nz, cdf = _cdf_from_abs(np.abs(col))
            self.cols[key] = (nz, col[nz], cdf, float(np.sum(np.abs(col))))
        return self.cols[key]


def _sweep_flats(system: QuditSystem, gate_index: int):
    """Labels a column-norm max runs over: all of them at n=1 or when there
    are at most _SWEEP_POINTS, else a fixed seeded subset per gate."""
    total = system.d ** (2 * system.n)
    if system.n == 1 or total <= _SWEEP_POINTS:
        return range(total)
    rng = _stream_rng(_SWEEP_SEED, gate_index)
    return sorted(set(int(i) for i in rng.integers(0, total, size=_SWEEP_POINTS)))


def _aggregated_norm(gates, state: QuasiDistribution, meas: np.ndarray, cache: _ColumnCache) -> float:
    """Input 1-norm x explicit-gate column maxima x effect max, in the cache's frame.

    Named gates contribute exactly 1: their columns have one unit entry.
    """
    m = lp_norm(state, 1)
    for i, g in enumerate(gates):
        if isinstance(g, DenseOperator):
            m *= max(cache.get(i, g, f)[3] for f in _sweep_flats(cache.system, i))
    return m * float(np.max(np.abs(meas)))


def forward_norm(circuit: CircuitDescription) -> float:
    """Aggregated l1 norm in the O frame: input x gate column maxima x effect."""
    system = circuit.system
    return _aggregated_norm(
        circuit.gates,
        frame_state_coeffs(circuit.input_state),
        _measurement_array(system, circuit.measurement),
        _ColumnCache(system, char=False),
    )


def sample_count(m_forward: float, epsilon: float, p_fail: float) -> int:
    """Hoeffding bound ceil(2 M^2 ln(2/p_f) / eps^2)."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
    if not 0 < p_fail < 1:
        raise ValidationError("failure probability must lie in (0, 1)")
    if m_forward <= 0:
        raise ValidationError("forward norm must be positive")
    count = 2.0 * m_forward**2 * math.log(2.0 / p_fail) / epsilon**2 if epsilon**2 else math.inf
    if not math.isfinite(count):
        raise ValidationError(f"epsilon {epsilon} needs a sample count beyond float range")
    return math.ceil(count)


# ------------------------------------------------------------- estimator

def _flat_coeffs(values: np.ndarray) -> np.ndarray:
    flat = values.reshape(-1).copy()
    flat[np.abs(flat) < NORM_CUTOFF] = 0.0
    return flat


def _cdf_from_abs(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nz = np.nonzero(weights)[0]
    cdf = np.cumsum(weights[nz])
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return nz, cdf


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))
    )


def _split_sizes(total: int, streams: int) -> list[int]:
    base, rem = divmod(total, streams)
    return [base + (1 if s < rem else 0) for s in range(streams)]


def _run_estimator(circuit: CircuitDescription, epsilon, p_fail, seed, streams, char: bool):
    if streams < 1 or seed < 0:
        raise ValidationError(f"need streams >= 1 and seed >= 0, got {streams} and {seed}")
    system = circuit.system
    if char:
        state = characteristic_fn(circuit.input_state, Domain.RESTRICTED)
        meas = _char_measurement_array(system, circuit.measurement)
    else:
        state = frame_state_coeffs(circuit.input_state)
        meas = _measurement_array(system, circuit.measurement)
    cache = _ColumnCache(system, char)
    m_forward = _aggregated_norm(circuit.gates, state, meas, cache)
    coeffs = _flat_coeffs(state.values)
    meas = meas.reshape(-1)

    norm0 = float(np.sum(np.abs(coeffs)))
    if norm0 <= 0:
        raise ValidationError("input state has zero frame norm")
    k_total = sample_count(m_forward, epsilon, p_fail)

    nz0, cdf0 = _cdf_from_abs(np.abs(coeffs))
    stream_sums = []
    for s, k_s in enumerate(_split_sizes(k_total, streams)):
        if k_s == 0:
            stream_sums.append(0.0)
            continue
        rng = _stream_rng(seed, s)
        if len(nz0) == 1:
            idx = np.full(k_s, nz0[0], dtype=np.int64)
        else:
            u = rng.random(k_s)
            idx = nz0[np.minimum(np.searchsorted(cdf0, u, side="right"), len(nz0) - 1)]
        vals = coeffs[idx]
        w = norm0 * (vals / np.abs(vals))

        for gi, g in enumerate(circuit.gates):
            if isinstance(g, DenseOperator):
                u = rng.random(k_s)
                new_idx = np.empty_like(idx)
                for lam in np.unique(idx):
                    mask = idx == lam
                    nz, col, cdf, cnorm = cache.get(gi, g, int(lam))
                    pos = np.minimum(np.searchsorted(cdf, u[mask], side="right"), len(nz) - 1)
                    new_idx[mask] = nz[pos]
                    picked = col[pos]
                    w[mask] = w[mask] * cnorm * picked / np.abs(picked)
                idx = new_idx
            else:
                idx, phase = _named_step(system, g, idx, char)
                w = w * phase

        traj = w * meas[idx]
        stream_sums.append(math.fsum(np.real(traj)))

    estimate = math.fsum(stream_sums) / k_total
    return EstimateReport(
        estimate=float(estimate),
        epsilon=float(epsilon),
        failure_prob=float(p_fail),
        samples_used=k_total,
        forward_norm=float(m_forward),
        seed=int(seed),
        streams=int(streams),
    )


def estimate_born(circuit: CircuitDescription, epsilon: float, p_fail: float, seed: int, streams: int = 1) -> EstimateReport:
    """Unbiased Born-probability estimate in the Hermitian O frame."""
    return _run_estimator(circuit, epsilon, p_fail, seed, streams, char=False)


def estimate_born_char(circuit: CircuitDescription, epsilon: float, p_fail: float, seed: int, streams: int = 1) -> EstimateReport:
    """Same estimator in the Heisenberg-Weyl frame."""
    return _run_estimator(circuit, epsilon, p_fail, seed, streams, char=True)

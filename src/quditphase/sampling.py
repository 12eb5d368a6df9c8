"""Monte-Carlo Born-probability estimation from quasiprobability frames.

The estimator decomposes the input state in an operator frame (the
Hermitian O basis, or the Heisenberg-Weyl basis for the characteristic
variant), samples phase-point trajectories through the circuit, and
averages signed weights:

    M_traj = x_Pi(lam_T) sign(x_rho(lam_0)) ||x_rho||_1 prod_t sign_t ||col_t||_1

The sample count follows the Hoeffding bound
K = ceil(2 M^2 ln(2/p_f) / eps^2), and a K above ``core.SAMPLE_CAP`` is
rejected before anything is drawn. The forward norm M is the input
1-norm times each explicit gate's largest column 1-norm times the
effect's max. A trajectory is a label vector in Z_d^{2n} and a weight;
between explicit gates its future depends only on those, so a stream
holds its K trajectories as S distinct states, (2n, S) digits (the
smallest unsigned type that holds d - 1) and (S,) weights, and each
trajectory's state. The first states are the distinct input labels of one
``measures._InputLabels.draw`` (the homodyne sampler's too). A named gate
or effect step runs once per state, on the 2k label axes of its k
support qudits, at the Horner index of the local label there. An
explicit gate draws each trajectory's image from its state's column, and
each distinct (state, image) pair becomes a state. A state's weight takes
the float operations of each of its trajectories, and a stream's sum of
count x Re(weight) is rounded once, as math.fsum over the trajectories
rounds it, so reports keep their bits.

Named generators act on their 1- or 2-qudit support, where each column
has exactly one entry of modulus one: a label map with a sign (O frame)
or a phase (Heisenberg-Weyl frame), read in closed form (``_named_table``)
at O(d^{2k}) cost at any d. An explicit gate is reduced to its support
once, when the circuit is built, and checked for unitarity there
(``core._support``: qudit q is dropped only when U = I_q (x) V holds
exactly). Its frame columns come from one batched kernel (``_columns``) through the stack contraction of the x and chi tables
(``measures._contract_stack``). Its d^{2k} local columns give its factor
of M as an exact max while d^{2k} <= 4096, built in blocks of at most
4 MiB; above that the factor is the Parseval bound d^k, as every column
has l2 norm 1 in both frames. Either way M bounds every trajectory
weight, as the Hoeffding count needs, and the report says which
(``norm_method``). Sampling builds the columns of the local labels the
states hold. One setup (``_frame``) gives ``forward_norm`` and both
estimators the gate steps, the input table and the effect steps of a
frame. An effect is read like a named gate that keeps the labels, so a
readout builds no d^{2n} array: one table on all 2n axes (explicit) or
one (d, d) table per qudit (computational; unmeasured O-frame qudits
read ``basis``'s Tr O).

Determinism contract: one uniform block per stream for the input draw
and one per explicit gate, in trajectory order; named gates and effects
draw nothing. Per-stream sums are exactly rounded and merged exactly;
streams past the trajectory count would draw nothing and are not run. A
report is bit-for-bit reproducible for fixed (seed, streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .core import (
    DenseOperator,
    DensityState,
    GateKind,
    InvariantError,
    QuditSystem,
    SAMPLE_CAP,
    ValidationError,
    _Kind,
    _as_int,
    _check_hermitian,
    _check_unitary,
    _read_gate,
    _support,
    _zeta_half,
)
from .basis import (
    Domain,
    PhasePoint,
    _o_trace_table,
    _p_dagger_stack,
    clifford_coordinate_action,
    lift_table,
    o_stack,
    p_stack,
)
from .measures import (
    _InputLabels,
    _contract_stack,
    _distinct,
    _kept,
    _real,
    _stream_rng,
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
    "frame_measurement_coeffs",
    "forward_norm",
    "sample_count",
    "estimate_born",
    "estimate_born_char",
]

_EXACT_LABELS = 4096  # local labels up to which a gate's column max is exact
_BLOCK_BYTES = 4 << 20  # one block of complex columns in ``_columns``


class MeasurementKind(_Kind):
    COMPUTATIONAL = "COMPUTATIONAL"
    EXPLICIT = "EXPLICIT"


@dataclass(frozen=True)
class MeasurementEffect:
    """Projective computational readout on a subset, or an explicit effect.

    ``kind`` must name a ``MeasurementKind`` exactly, and ``indices`` and
    ``outcomes`` are read exactly as integers, never truncated; all three
    are read once, here.
    """

    kind: MeasurementKind
    indices: tuple[int, ...] = ()
    outcomes: tuple[int, ...] = ()
    operator: DenseOperator | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", MeasurementKind(self.kind))
        object.__setattr__(self, "indices", _as_int(self.indices, "measured index", depth=1))
        object.__setattr__(self, "outcomes", _as_int(self.outcomes, "outcome", depth=1))

    def validate(self, system: QuditSystem) -> None:
        if self.kind is MeasurementKind.COMPUTATIONAL:
            if len(self.indices) != len(self.outcomes) or not self.indices:
                raise ValidationError("indices and outcomes must pair up")
            if len(set(_as_int(self.indices, "measured index", 0, system.n, 1))) != len(self.indices):
                raise ValidationError("measured indices must be distinct")
            _as_int(self.outcomes, "outcome", 0, system.d, 1)
        else:
            if self.operator is None:
                raise ValidationError("EXPLICIT effect needs an operator")
            if self.operator.system != system:
                raise ValidationError("effect register mismatch")
            _check_hermitian(self.operator.entries)
            eig = np.linalg.eigvalsh(self.operator.entries)
            if eig.min() < -1e-9 or eig.max() > 1 + 1e-9:
                raise ValidationError("effect must satisfy 0 <= Pi <= 1")


NamedGate = tuple[GateKind, tuple[int, ...]]
GateSpec = Union[NamedGate, DenseOperator]


@dataclass(frozen=True)
class CircuitDescription:
    """Input state, ordered gate list and one measurement effect; each gate is read once, here.

    ``_local`` holds a named gate as (kind, targets) and an explicit one, kept as given in ``gates``, as
    its block V on its exact support (``core._support``) and those qudits; an unflagged V is checked there."""

    system: QuditSystem
    input_state: DensityState
    gates: tuple[GateSpec, ...]
    measurement: MeasurementEffect
    _local: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_state.system != self.system:
            raise ValidationError("input state system mismatch")
        gates, local = [], []
        for g in self.gates:
            if isinstance(g, DenseOperator):
                if g.system != self.system:
                    raise ValidationError("gate register mismatch")
                qudits, v = _support(self.system, g.entries)
                if not g.unitary:
                    _check_unitary(v)
            else:
                g = _read_gate(self.system, *g)
            gates.append(g)
            local.append((v, qudits) if isinstance(g, DenseOperator) else g)
        object.__setattr__(self, "gates", tuple(gates))
        object.__setattr__(self, "_local", tuple(local))
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
    norm_method: str  # "exact", or "bound" if a gate used the Parseval bound


# ---------------------------------------------------------------- frames

def frame_measurement_coeffs(system: QuditSystem, effect: MeasurementEffect, lam: PhasePoint) -> float:
    """x_Pi(lam) = Tr(Pi O_lam) at a restricted label: the effect steps read there."""
    effect.validate(system)
    if lam.modulus != system.d or lam.n != system.n:
        raise ValidationError("point does not live on this domain")
    w, labels = np.ones(1), lam.vector()[:, None]
    for axes, op in _effect_steps(system, effect, char=False):
        w = _step(system.d, labels, w, axes, op)
    return float(w[0])


def _column_blocks(system: QuditSystem, char: bool, unitary: np.ndarray, flats: np.ndarray):
    """(offset, rows) for consecutive blocks of ``flats``, each block's
    complex columns within _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (16 * system.d ** (2 * system.n)))
    for start in range(0, len(flats), step):
        yield start, _columns(system, char, unitary, flats[start : start + step])


def _columns(system: QuditSystem, char: bool, unitary: np.ndarray, flats: np.ndarray) -> np.ndarray:
    """Rows x_U(lam' | lam) over every lam', one row per restricted label at ``flats``.

    The basis operators at the labels are one batched Kronecker product of
    single-qudit stack entries; they are conjugated by U at once and
    contracted with the dual stack by ``measures._contract_stack``.
    O-frame rows are real, Heisenberg-Weyl rows complex.
    """
    d, n = system.d, system.n
    basis, dual = (p_stack(d), _p_dagger_stack(d)) if char else (o_stack(d), o_stack(d))
    vec = np.unravel_index(flats, (d,) * (2 * n))
    ops = basis[vec[0], vec[n]]
    for q in range(1, n):
        side = ops.shape[1] * d
        ops = (ops[:, :, None, :, None] * basis[vec[q], vec[n + q]][:, None, :, None, :]).reshape(-1, side, side)
    rows = _contract_stack(system, dual, unitary @ ops @ unitary.conj().T).reshape(len(ops), -1) / d**n
    if not char:
        rows = _real(rows, "frame column")
    rows[~_kept(np.abs(rows))] = 0.0
    if not np.all(np.any(rows, axis=1)):
        raise InvariantError("frame column vanished; unitary inconsistent")
    return rows


@lru_cache(maxsize=64)
def _named_table(d: int, kind: GateKind, char: bool) -> tuple[np.ndarray, np.ndarray]:
    """Image digits and unit factor of every local label under a generator.

    Column u of the (2k, d^{2k}) digit table, in the smallest unsigned
    type that holds d - 1, is the image of local label u, axis by axis.
    The factors are stored real exactly when all are +-1, so an O-frame weight stays real.

    Read in closed form from the generator's Z_{2d} label action
    u -> Au + s (``clifford_coordinate_action``) on its own 1- or 2-qudit
    support (SUM as (control, target)).

    O frame: U O_u U^dagger = O_{Au+s} with no sign, so the image is
    Au + s mod 2d, reduced mod d with the sign prod_i lift_table(d) at the
    doubled label, as in ``reduce_full_point``.

    Heisenberg-Weyl frame. With J = diag(I_k, -I_k) and R = O_0 the
    parity, O_{l,m} = e^{-i pi m l/d} X^l Z^{-m} R, so O_u is P(Ju) R up to
    a unit scalar (exactly at even d), and R P(v) R = P(-v). As
    U R U^dagger = O_s, U P(v) U^dagger is O_{AJv+s} O_s up to a scalar:
    a multiple of P(JAJv + Js) P(-Js), hence of P(JAJv). The image is
    JAJu mod 2d, reduced mod d with the factor prod_i
    lift_table(d, char=True) at the doubled label. The multiple, gate by
    gate: FOURIER, SUM and even-d PHASE (s = 0) map P(v) to exactly
    P(JAJv), at even d by the exact relation above and at odd d as linear
    symplectic maps of the Weyl representation (Gross, J. Math. Phys. 47,
    122107 (2006)). The other generators are P(t) times such a gate:
    X = P(1, 0), Z = P(0, 1), and the odd-d PHASE diagonal w^{j(j-1)/2} is
    w^{j^2/2} times Z^{-1/2}, halves read as 2^{-1} mod d. Conjugation by
    P(t) multiplies P(v) by w^{-(t_l.v_m - t_m.v_l)}, and P(t) shifts O
    labels by 2Jt. So t = ``_zeta_half(d, Js) / 2``: Js/2 at even d, where every shift
    is even, and 2^{-1} Js mod d at odd d. Each generator fixes its own shift
    (As = s), so JAJ fixes t and the factor is the same whether P(t) acts
    before or after the linear part. The powers w^{-j} are read from a root
    table whose quarter turns (4j a multiple of d) are exactly 1, -i, -1, i.
    """
    k = kind.arity
    amap = clifford_coordinate_action(QuditSystem(d, k), kind)
    u = np.indices((d,) * (2 * k)).reshape(2 * k, -1)
    flip = np.repeat([1, -1], k)
    if char:
        full = (flip[:, None] * (amap.matrix @ (flip[:, None] * u))) % (2 * d)
    else:
        full = (amap.matrix @ u + amap.shift[:, None]) % (2 * d)
    phases = np.prod(lift_table(d, char)[full[:k], full[k:]], axis=0)
    if char:
        js = flip * amap.shift
        t = _zeta_half(d, js) // 2
        j = np.arange(d)
        roots = np.where(4 * j % d, np.exp(-2j * np.pi * j / d), np.array([1, -1j, -1, 1j])[4 * j // d])
        phases = phases * roots[(t[:k] @ u[k:] - t[k:] @ u[:k]) % d]
    if not np.any(phases.imag) and np.all(np.abs(phases.real) == 1):
        phases = np.ascontiguousarray(phases.real)
    digits = (full % d).astype(np.min_scalar_type(d - 1))
    digits.flags.writeable = phases.flags.writeable = False
    return digits, phases


@dataclass(frozen=True, eq=False)
class _LocalGate:
    """An explicit gate on its qudit support, in one frame."""

    system: QuditSystem
    unitary: np.ndarray
    char: bool

    def norm(self) -> tuple[float, bool]:
        """Largest column 1-norm and True, or the Parseval bound d^k and False.

        Every column has l2 norm 1, so its 1-norm is at most
        sqrt(d^{2k}) = d^k.
        """
        d, k = self.system.d, self.system.n
        if d ** (2 * k) > _EXACT_LABELS:
            return float(d**k), False
        blocks = _column_blocks(self.system, self.char, self.unitary, np.arange(d ** (2 * k)))
        return max(float(np.max(np.sum(np.abs(rows), axis=1))) for _, rows in blocks), True

    def draw(self, local: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Image label, column 1-norm and picked entry for trajectories at ``local``.

        Trajectory t takes the first image whose cumulative |column| share
        exceeds u[t], from the column of its own local label.
        """
        d, k = self.system.d, self.system.n
        # a key of at most 16 bits sorts by radix, to the same stable order
        order = np.argsort(local.astype(np.min_scalar_type(d ** (2 * k) - 1)), kind="stable")
        counts = np.bincount(local)
        visited = np.flatnonzero(counts)
        counts = counts[visited]
        ends = np.cumsum(counts)
        image = np.empty_like(local)
        cnorm = np.empty(len(local))
        picked = np.empty(len(local), dtype=complex if self.char else float)
        for start, rows in _column_blocks(self.system, self.char, self.unitary, visited):
            weights = np.abs(rows)
            norms = np.sum(weights, axis=1)
            cdf = np.cumsum(weights, axis=1)
            cdf = cdf / cdf[:, -1:]
            for j, row in enumerate(rows):
                r = start + j
                sel = order[ends[r] - counts[r] : ends[r]]
                pos = np.searchsorted(cdf[j], u[sel], side="right")
                image[sel], cnorm[sel], picked[sel] = pos, norms[j], row[pos]
        return image, cnorm, picked


def _steps(system: QuditSystem, local, char: bool) -> list[tuple[np.ndarray, object]]:
    """Each gate on its support, (kind, targets) or (block V, qudits), as the label
    axes there (l block, then m block) and either its named table or its ``_LocalGate``."""
    steps = []
    for g, qudits in local:
        if isinstance(g, GateKind):
            op = _named_table(system.d, g, char)
        else:
            op = _LocalGate(QuditSystem(system.d, len(qudits)), g, char)
        steps.append((np.array([*qudits, *(system.n + q for q in qudits)]), op))
    return steps


def _step(d: int, labels: np.ndarray, w: np.ndarray, axes: np.ndarray, op) -> np.ndarray:
    """Carry (2n, S) label vectors through one named gate or effect step on its
    axes: gather the factor at each local label (its Horner index over the
    axes) and, for a named table, take the image digits, in place. The new
    weights are returned; nothing is drawn."""
    local = np.ravel_multi_index(labels[axes], (d,) * len(axes))
    digits, phases = op
    if digits is not None:
        labels[axes] = np.take(digits, local, axis=1)
    return w * phases[local]


def _stream_states(d: int, source: _InputLabels, steps: list, rng: np.random.Generator, count: int):
    """One stream's ``count`` trajectories as distinct states: their weights
    and trajectory counts (each >= 1), starting from the input draw's distinct labels
    and units. Named gates and effects run once per state; an explicit gate draws
    each trajectory's image from its state's column, and each distinct (state, image)
    pair becomes a state, whose weight takes the float operations of each of its trajectories."""
    labels, w, ids = source.draw(rng, count)
    for axes, op in steps:
        if not isinstance(op, _LocalGate):
            w = _step(d, labels, w, axes, op)
            continue
        dims, size = (d,) * len(axes), d ** len(axes)
        key, cnorm, picked = op.draw(np.ravel_multi_index(labels[axes], dims)[ids], rng.random(len(ids)))
        key += ids * np.int64(size)  # state * size + drawn image
        keys, first, ids = _distinct(key, len(w) * size)
        del key  # this and the trajectory-sized cnorm, picked are freed before the next draw
        cnorm, picked = cnorm[first], picked[first]
        state, image = np.divmod(keys, size)
        labels = labels[:, state]
        labels[axes] = np.unravel_index(image, dims)
        w = w[state] * cnorm * picked / np.abs(picked)
    return w, np.bincount(ids, minlength=len(w))


def _weighted_sum(w: np.ndarray, counts: np.ndarray) -> float:
    """sum_s counts[s] * Re w[s], rounded once: math.fsum over each value
    repeated counts[s] (>= 1) times, bit for bit. Each value splits exactly
    into its top 26 significant bits and the rest, with the value's sign; a
    count below 2^26 (``SAMPLE_CAP`` is 10^7) times either part is exact."""
    values = np.real(w)
    high = (values.view(np.int64) & np.int64(-1 << 27)).view(np.float64)
    low = np.copysign(values - high, values)
    return math.fsum(memoryview(np.concatenate([counts * high, counts * low])))


# ------------------------------------------------------------ frame setup

def _effect_steps(system: QuditSystem, effect: MeasurementEffect, char: bool) -> list[tuple[np.ndarray, tuple]]:
    """Tr(Pi O_u) (real) or Tr(Pi P(u)) (complex, ``char``) as label-keeping
    steps (axes, (None, flat table)) whose product, in order, is the value at u.

    An explicit effect is one table on all 2n axes, a computational one a
    (d, d) table per qudit q on axes (q, n + q). On a measured qudit with
    outcome o, <o|O_{l,m}|o> = (-1)^{m k} where l = 2o - k d, else 0, and
    <o|P(a,b)|o> = w^{b o} at a = 0, else 0; on the others Tr O_{l,m},
    and Tr P(a,b) = d at a = b = 0, else 0.
    """
    d, n = system.d, system.n
    if effect.kind is MeasurementKind.EXPLICIT:
        # the Hermitian part (Pi + Pi^dagger)/2: an effect that passes the
        # 1e-9 Hermiticity check may still carry an anti-Hermitian residue,
        # which would give Tr(Pi O_u) an imaginary part
        entries = effect.operator.entries.astype(complex)
        arr = _contract_stack(system, p_stack(d) if char else o_stack(d), (entries + entries.conj().T) / 2)
        return [(np.arange(2 * n), (None, (arr if char else _real(arr, "x_Pi")).reshape(-1)))]
    l, m = np.ogrid[:d, :d]
    tables = []
    for q in range(n):
        if q not in effect.indices:
            tables.append(np.where((l == 0) & (m == 0), float(d), 0.0) if char else _o_trace_table(d)[:d, :d])
            continue
        o = effect.outcomes[effect.indices.index(q)]
        if char:
            tables.append(np.where(l == 0, np.exp(2j * np.pi * m * o / d), 0.0))
        else:
            num = 2 * o - l
            tables.append(np.where(num % d == 0, np.where((m * (num // d)) % 2, -1.0, 1.0), 0.0))
    return [(np.array([q, n + q]), (None, t.reshape(-1))) for q, t in enumerate(tables)]


def _frame(circuit: CircuitDescription, char: bool) -> tuple[list, np.ndarray, list]:
    """The estimator's setup in one frame: the gate steps, the input's
    restricted table (x, or chi when ``char``) and the effect steps."""
    system = circuit.system
    table = characteristic_fn if char else x_distribution
    values = table(circuit.input_state, Domain.RESTRICTED).values
    return _steps(system, circuit._local, char), values, _effect_steps(system, circuit.measurement, char)


# ---------------------------------------------------------------- norms

def _aggregated_norm(steps, values: np.ndarray, effect) -> tuple[float, str]:
    """Input 1-norm x explicit-gate column maxima x effect-step maxima, and how M was obtained.

    Named gates contribute exactly 1: their columns have one unit entry.
    Effect steps act on disjoint axes, so their maxima multiply to the effect's.
    """
    m, method = lp_norm(values, 1), "exact"
    for _, op in steps:
        if isinstance(op, _LocalGate):
            gate_norm, exact = op.norm()
            m *= gate_norm
            if not exact:
                method = "bound"
    return m * math.prod(float(np.max(np.abs(t))) for _, (_, t) in effect), method


def forward_norm(circuit: CircuitDescription) -> float:
    """Forward norm M in the O frame: input 1-norm x each explicit gate's
    largest column 1-norm x effect max.

    Each explicit gate's columns are built on its qudit support. A gate
    whose support has at most 4096 local labels (d^{2k}) contributes its
    exact column max; a larger one contributes the Parseval bound d^k. M
    therefore bounds every trajectory weight from above; the estimator's
    report names the method (``norm_method``). Named gates contribute 1.
    """
    return _aggregated_norm(*_frame(circuit, char=False))[0]


def sample_count(m_forward: float, epsilon: float, p_fail: float) -> int:
    """Hoeffding bound ceil(2 M^2 ln(2/p_f) / eps^2), at most ``SAMPLE_CAP``."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
    if not 0 < p_fail < 1:
        raise ValidationError("failure probability must lie in (0, 1)")
    if m_forward <= 0:
        raise ValidationError("forward norm must be positive")
    count = 2.0 * m_forward**2 * math.log(2.0 / p_fail) / epsilon**2 if epsilon**2 else math.inf
    if not count <= SAMPLE_CAP:
        raise ValidationError(f"epsilon {epsilon} needs {count:.3g} samples, beyond the cap {SAMPLE_CAP}")
    return math.ceil(count)


# ------------------------------------------------------------- estimator

def _split_sizes(total: int, streams: int) -> list[int]:
    """Sizes of the streams that draw: with more streams than trajectories,
    streams past ``total`` would draw nothing and add an exact 0.0, so only
    the first min(streams, total) are listed."""
    used = min(streams, total)
    base, rem = divmod(total, used)
    return [base + (s < rem) for s in range(used)]


def _run_estimator(circuit: CircuitDescription, epsilon, p_fail, seed, streams, char: bool):
    streams, seed = _as_int(streams, "streams", 1), _as_int(seed, "seed", 0)
    steps, values, effect = _frame(circuit, char)
    m_forward, norm_method = _aggregated_norm(steps, values, effect)
    k_total = sample_count(m_forward, epsilon, p_fail)
    source = _InputLabels(values)
    stream_sums = [
        _weighted_sum(*_stream_states(circuit.system.d, source, steps + effect, _stream_rng(seed, s), k_s))
        for s, k_s in enumerate(_split_sizes(k_total, streams))
    ]
    return EstimateReport(
        estimate=float(math.fsum(stream_sums) / k_total), epsilon=float(epsilon), failure_prob=float(p_fail),
        samples_used=k_total, forward_norm=float(m_forward), seed=seed, streams=streams, norm_method=norm_method,
    )


def estimate_born(circuit: CircuitDescription, epsilon: float, p_fail: float, seed: int, streams: int = 1) -> EstimateReport:
    """Unbiased Born-probability estimate in the Hermitian O frame."""
    return _run_estimator(circuit, epsilon, p_fail, seed, streams, char=False)


def estimate_born_char(circuit: CircuitDescription, epsilon: float, p_fail: float, seed: int, streams: int = 1) -> EstimateReport:
    """Same estimator in the Heisenberg-Weyl frame."""
    return _run_estimator(circuit, epsilon, p_fail, seed, streams, char=True)

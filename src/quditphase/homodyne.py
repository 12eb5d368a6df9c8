"""Weak simulation of homodyne readout on encoded qudit states.

A Gaussian circuit is a real symplectic matrix S plus an additive
displacement t in the ordering (q_1..q_n, p_1..p_n). An ideal codeword
is a comb of delta peaks indexed by doubled-domain labels u with signed
weights x_rho(u), each peak sitting at sqrt(pi/2d) u in phase space, so
a homodyne sample is produced exactly:

    draw u with probability |x_rho(u)| / ||x_rho||_1 (full domain),
    x = Tr_p[t + sqrt(pi/2d) S u],   branch fixed to zero,

where Tr_p keeps the position block (the first n components). When S
is an integer matrix and t a lattice vector, as for every logical
Clifford gate, the whole map is evaluated in integer arithmetic, and
every output lands exactly on the sqrt(pi/2d) lattice. Samples carry
sign(x_rho(u)) and the constant weight ||x_rho||_1 (d/8pi)^{n/2};
the signed weighted histogram reproduces the pseudo-probability P~,
which is not normalizable and is flagged as such.

A batch is columnar: every field of a sample is a function of its drawn
label u, and the input draw (``measures._InputLabels.draw``, the Born
estimator's too) gives the distinct labels, their units and each sample's
index among them. ``simulate_homodyne_batch`` maps each distinct label
once into a ``HomodyneBatch``, an immutable sequence of ``HomodyneSample``
that builds a sample object only when it is accessed. Identical seeds and
configurations reproduce identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from .core import SAMPLE_CAP, DensityState, QuditSystem, ValidationError, _as_int
from .basis import (
    Domain,
    PhasePoint,
    SymplecticAffineMap,
    clifford_coordinate_action,
    omega_block,
)
from .gkp import _wigner_prefactor
from .measures import _InputLabels, _stream_rng, x_distribution

__all__ = [
    "GaussianCircuit",
    "HomodyneBatch",
    "HomodyneSample",
    "HistogramEntry",
    "PseudoProbabilityReport",
    "logical_clifford_symplectic",
    "simulate_homodyne_batch",
    "pseudo_probability_report",
]


@dataclass(frozen=True, eq=False)
class GaussianCircuit:
    """Real symplectic action S with an additive displacement t, read-only and compared by identity.

    The integer map is derived, never given: when S is an integer matrix
    and t = sqrt(pi/2d) k for an integer vector k, bit for bit, with no
    entry of S or k beyond 2^31 (so int64 cannot overflow), ``integer_s``
    is S and ``integer_shift`` is k as integer arrays; otherwise both are None.
    """

    system: QuditSystem
    s_matrix: np.ndarray
    displacement: np.ndarray
    integer_s: np.ndarray | None = field(init=False, default=None)
    integer_shift: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        n = self.system.n
        s = np.array(self.s_matrix, dtype=float)
        t = np.array(self.displacement, dtype=float)
        if s.shape != (2 * n, 2 * n):
            raise ValidationError(f"S must be {2 * n}x{2 * n}")
        if t.shape != (2 * n,):
            raise ValidationError(f"displacement must have length {2 * n}")
        if not (np.isfinite(s).all() and np.isfinite(t).all()):
            raise ValidationError("S and the displacement must be finite")
        omega = omega_block(n).astype(float)
        dev = np.max(np.abs(s.T @ omega @ s - omega))
        if dev > 1e-9:
            raise ValidationError(f"S is not symplectic (dev {dev:.3e})")
        c = math.sqrt(math.pi / (2 * self.system.d))
        k = np.rint(t / c)
        lattice = np.array_equal(np.rint(s), s) and np.array_equal(c * k, t)
        if lattice and max(np.abs(s).max(), np.abs(k).max()) <= 2**31:
            object.__setattr__(self, "integer_s", s.astype(np.int64))
            object.__setattr__(self, "integer_shift", k.astype(np.int64))
            self.integer_s.flags.writeable = self.integer_shift.flags.writeable = False
        s.flags.writeable = t.flags.writeable = False
        object.__setattr__(self, "s_matrix", s)
        object.__setattr__(self, "displacement", t)

    @property
    def integer_map(self) -> SymplecticAffineMap | None:
        """Mod-2d affine coordinate action, when the circuit maps the lattice to itself."""
        if self.integer_s is None:
            return None
        return SymplecticAffineMap(
            self.integer_s % (2 * self.system.d),
            self.integer_shift % (2 * self.system.d),
            2 * self.system.d,
        )

    @classmethod
    def identity(cls, system: QuditSystem) -> "GaussianCircuit":
        return cls(system, np.eye(2 * system.n), np.zeros(2 * system.n))


@dataclass(frozen=True)
class HomodyneSample:
    """One position-block readout with its lattice bookkeeping."""

    x: tuple[float, ...]
    branch: tuple[int, ...]
    sampled_point: PhasePoint
    sign: int
    weight: float
    lattice_index: tuple[int, ...] | None = None


def logical_clifford_symplectic(system: QuditSystem, kind, targets=None) -> GaussianCircuit:
    """Gaussian implementation of a logical generator on the code lattice.

    S is the integer coordinate action of the gate (centered
    representatives); the displacement is sqrt(pi/2d) times its affine
    shift, so e.g. the logical shift becomes a position displacement by
    sqrt(2 pi / d). Both are integral, so the circuit's integer map is set.
    """
    amap = clifford_coordinate_action(system, kind, targets)
    mod = 2 * system.d
    centered = lambda a: np.where(a % mod > system.d, a % mod - mod, a % mod)
    c = math.sqrt(math.pi / (2 * system.d))
    return GaussianCircuit(system, centered(amap.matrix).astype(float), c * centered(amap.shift).astype(float))


@dataclass(frozen=True, eq=False, repr=False)
class HomodyneBatch(Sequence):
    """Immutable sequence of homodyne samples stored as columns: one row per
    distinct drawn label, ascending (``points`` as (l, m) vectors, ``lattice_index``,
    ``x``, ``signs``), and each sample's row in ``inverse``, in the smallest type
    that holds it (uint32 at most at the sample cap). Sample objects are built
    only when one is accessed.
    """

    points: np.ndarray
    lattice_index: np.ndarray | None
    x: np.ndarray
    signs: np.ndarray
    inverse: np.ndarray
    weight: float
    modulus: int

    def __post_init__(self):
        for column in (self.points, self.lattice_index, self.x, self.signs, self.inverse):
            if column is not None:
                column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.inverse)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return HomodyneBatch(self.points, self.lattice_index, self.x, self.signs,
                                 self.inverse[index], self.weight, self.modulus)
        return self._sample(int(self.inverse[index]))

    def __iter__(self):
        return map(self._sample, self.inverse.tolist())

    def _sample(self, row: int) -> HomodyneSample:
        n = self.points.shape[1] // 2
        uvec = self.points[row].tolist()
        return HomodyneSample(
            x=tuple(self.x[row].tolist()),
            branch=(0,) * (2 * n),
            sampled_point=PhasePoint(tuple(uvec[:n]), tuple(uvec[n:]), self.modulus),
            sign=int(self.signs[row]),
            weight=self.weight,
            lattice_index=None if self.lattice_index is None else tuple(self.lattice_index[row].tolist()),
        )

    def __eq__(self, other):
        if not isinstance(other, HomodyneBatch):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"HomodyneBatch({len(self)} samples, {len(self.points)} distinct points)"


def simulate_homodyne_batch(
    rho: DensityState, circuit: GaussianCircuit, num_samples: int, seed: int
) -> HomodyneBatch:
    """Draw ``num_samples`` homodyne samples with one seeded stream.

    One input draw gives the distinct labels, their signs and each sample's
    row. Each label is mapped once: by one integer matmul when the circuit
    has an integer map, by the float map S (c u) + t otherwise. A position
    mapped beyond the float range raises ValidationError.
    """
    system = rho.system
    if circuit.system != system:
        raise ValidationError("circuit system mismatch")
    num_samples, seed = _as_int(num_samples, "num_samples", 0, SAMPLE_CAP + 1), _as_int(seed, "seed", 0)
    d, n = system.d, system.n
    source = _InputLabels(x_distribution(rho, Domain.FULL).values)
    c = math.sqrt(math.pi / (2 * d))
    digits, units, inverse = source.draw(_stream_rng(seed), num_samples)
    vecs = digits.astype(np.int64)  # (2n, distinct)
    if circuit.integer_s is not None:
        k = circuit.integer_s @ vecs + circuit.integer_shift[:, None]
        xfull = c * k.astype(float)
        lattice = k[:n].T
    else:
        # one matrix-vector product per point: a batched float matmul
        # rounds differently and would change the output bits
        with np.errstate(over="ignore", invalid="ignore"):
            xfull = np.array(
                [circuit.s_matrix @ (c * uvec.astype(float)) + circuit.displacement for uvec in vecs.T]
            ).reshape(-1, 2 * n).T
        lattice = None
        if not np.isfinite(xfull[:n]).all():
            raise ValidationError("a mapped position is not finite: S overflows the float range")
    return HomodyneBatch(
        points=vecs.T,
        lattice_index=lattice,
        x=xfull[:n].T,
        signs=np.sign(units).astype(np.int64),
        inverse=inverse,
        weight=source.norm * _wigner_prefactor(system),
        modulus=2 * d,
    )


@dataclass(frozen=True)
class HistogramEntry:
    position: tuple[float, ...]
    lattice_index: tuple[int, ...] | None
    signed_weight: float
    count: int


@dataclass(frozen=True)
class PseudoProbabilityReport:
    """Signed, weighted lattice histogram of homodyne outcomes.

    The aggregate is a pseudo-probability: signed weights need not sum
    to one and the underlying density is not normalizable, hence the
    permanent ``not_normalizable`` caveat.
    """

    entries: tuple[HistogramEntry, ...]
    num_samples: int
    not_normalizable: bool = True


def pseudo_probability_report(
    rho: DensityState, circuit: GaussianCircuit, num_samples: int, seed: int
) -> PseudoProbabilityReport:
    """Aggregate seeded homodyne samples into the signed histogram.

    Samples are keyed by lattice index, or by position rounded to 12
    digits off the lattice. Each key's signed weight is summed in draw
    order over ``batch.inverse``; its position is that of its first sample.
    """
    batch = simulate_homodyne_batch(rho, circuit, num_samples, seed)
    if batch.lattice_index is not None:
        row_keys = [tuple(k) for k in batch.lattice_index.tolist()]
    else:
        row_keys = [tuple(round(v, 12) for v in x) for x in batch.x.tolist()]
    keys = sorted(set(row_keys))
    slot = {key: i for i, key in enumerate(keys)}
    key_of = np.array([slot[key] for key in row_keys], dtype=np.int64)[batch.inverse]
    signed = np.zeros(len(keys))
    np.add.at(signed, key_of, batch.signs[batch.inverse] * batch.weight / max(num_samples, 1))
    counts = np.bincount(key_of, minlength=len(keys))
    first = batch.inverse[np.unique(key_of, return_index=True)[1]]
    entries = tuple(
        HistogramEntry(
            position=tuple(batch.x[row].tolist()),
            lattice_index=None if batch.lattice_index is None else key,
            signed_weight=weight,
            count=count,
        )
        for key, row, weight, count in zip(keys, first.tolist(), signed.tolist(), counts.tolist())
    )
    return PseudoProbabilityReport(entries=entries, num_samples=num_samples)

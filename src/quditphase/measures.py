"""Quasiprobability distributions over qudit phase space and magic measures.

The central object is the coefficient distribution

    x_rho(l, m) = d^{-n} Tr(O_{l,m} rho)

on the restricted torus Z_d^{2n} or the doubled torus Z_{2d}^{2n}; only the
restricted operator stacks are contracted, by the one per-factor stack
contraction of the library (``_contract_stack``, which the estimator's
frame columns and the sparse stabilizer table also call), and the doubled
tables of x and chi are their per-factor sign lifts (``basis.lift_table``). The discrete
Wigner function W of odd d is the x table relabeled per factor, with a
sign, and the normalization check reads the per-factor Tr O table. From x
(and from W and the characteristic function chi) the module computes l_p
norms, the negativity measure ||x||_1 (a monotone at odd d only), the
pure-state stabilizer Renyi entropy M_alpha, and the hyperpolyhedral
test ||x||_1 <= 1, a necessary condition for a stabilizer mixture.

Reference values kept by the test suite:

* pure stabilizer states: ||x||_1 = 1 (the minimum over pure states) to 4 eps,
  the rounding of its sum;
* the maximally mixed state: ||x||_1 = 1/2 for every even d and 1 for every
  odd d, while ||x||_2 = 1/d for all d (a purity identity);
* the qubit T state: ||x||_1 = (1 + sqrt2)/2 and M_2 = ln(4/3).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    DenseOperator,
    DensityState,
    GateKind,
    InvariantError,
    QuditSystem,
    ValidationError,
    _as_int,
    conjugate_by,
    embed_generator,
    pure_density,
)
from .basis import (
    Domain,
    EvenDimensionError,
    PhasePoint,
    SymplecticAffineMap,
    _factor_product,
    _o_trace_table,
    _p_dagger_stack,
    clifford_coordinate_action,
    lift_table,
    lift_to_full,
    o_stack,
)

__all__ = [
    "QuasiDistribution",
    "x_distribution",
    "discrete_wigner",
    "characteristic_fn",
    "lp_norm",
    "magic_negativity",
    "stabilizer_renyi",
    "is_hyperpolyhedral",
    "normalization_residual",
    "haar_random_state",
    "random_clifford_word",
    "word_unitary",
    "word_coordinate_map",
    "apply_word",
    "check_order",
    "NORM_CUTOFF",
]

# coefficients below this magnitude are treated as exact zeros before any
# norm accumulation (guards p < 1 norms against roundoff dust)
NORM_CUTOFF = 1e-12


def _kept(mags: np.ndarray) -> np.ndarray:
    """The one zero rule: a magnitude counts as nonzero where |v| >= NORM_CUTOFF."""
    return mags >= NORM_CUTOFF


def _real(arr: np.ndarray, what: str) -> np.ndarray:
    """The contiguous real part (a copy, for complex ``arr``) of a contraction
    that must be real; an imaginary part past 1e-10 raises InvariantError."""
    if np.max(np.abs(arr.imag)) > 1e-10:
        raise InvariantError(f"{what} must be real")
    return np.ascontiguousarray(arr.real)


class _Table:
    """The storage contract of every phase-space table (a frozen dataclass
    with ``system`` and ``values`` that says what its ``modulus`` is).
    Tables are declared with ``eq=False``, so they compare and hash by
    identity: an array-valued field has no single truth value to compare.

    ``values`` has 2n axes of length ``modulus``, ordered (l_1..l_n,
    m_1..m_n), and is read-only. The public constructor stores a read-only
    copy, so a caller's array stays the caller's; library functions hand
    over fresh tables through ``_adopt``, which freezes them without a copy.
    """

    def __post_init__(self):
        self._freeze(np.asarray(self.values).copy())

    @classmethod
    def _adopt(cls, *fields):
        """Wrap the fields, in constructor order, around a fresh array no one else holds."""
        table = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, fields):
            object.__setattr__(table, name, value)
        table._freeze(table.values)
        return table

    def _freeze(self, arr: np.ndarray) -> None:
        shape = (self.modulus,) * (2 * self.system.n)
        if arr.shape != shape:
            raise ValidationError(f"values shape {arr.shape} does not match {shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def value(self, point: PhasePoint) -> complex:
        if point.modulus != self.modulus or point.n != self.system.n:
            raise ValidationError("point does not live on this table")
        return self.values[point.l + point.m]


@dataclass(frozen=True, eq=False)
class QuasiDistribution(_Table):
    """Coefficients indexed by phase-space labels: a ``_Table`` whose axes
    have length d (RESTRICTED) or 2d (FULL)."""

    system: QuditSystem
    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "domain", Domain(self.domain))
        super().__post_init__()

    @property
    def modulus(self) -> int:
        return self.system.d if self.domain is Domain.RESTRICTED else 2 * self.system.d

    def items(self) -> Iterator[tuple[PhasePoint, complex]]:
        n, mod = self.system.n, self.modulus
        for idx in np.ndindex(*self.values.shape):
            yield PhasePoint(idx[:n], idx[n:], mod), self.values[idx]

    def restricted_view(self) -> np.ndarray:
        """The values at labels in [0, d) along every axis."""
        d = self.system.d
        return self.values[(slice(0, d),) * (2 * self.system.n)]


def _contract_stack(system: QuditSystem, stack: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """out[..., u] = Tr(Stack_u M) with Stack_u the Kronecker product of per-factor stack entries.

    ``stack`` has shape (mod, mod, d, d) and ``matrices`` shape (d^n, d^n),
    or (B, d^n, d^n) with a leading batch axis. The result keeps the batch
    axis and has 2n more, ordered (l-block, m-block). One ``tensordot``
    pass per qudit, outermost first.
    """
    d, n = system.d, system.n
    lead = matrices.ndim - 2
    out = matrices.reshape(matrices.shape[:lead] + (d,) * (2 * n))
    for q in range(n):
        # Tr(S M): the row and column axes of qudit q meet the stack's column and row
        out = np.tensordot(out, stack, axes=([lead, lead + n - q], [3, 2]))
    return out.transpose(*range(lead), *range(lead, lead + 2 * n, 2), *range(lead + 1, lead + 2 * n, 2))


def normalization_residual(dist: QuasiDistribution) -> float:
    """|sum_u x(u) Tr O_u - 1| = |Tr rho - 1| for an x distribution.

    The sum contracts the restricted table with the per-factor Tr O table,
    outermost factor first.
    """
    d, n = dist.system.d, dist.system.n
    total = dist.restricted_view() if dist.domain is Domain.FULL else dist.values
    trace = _o_trace_table(d)[:d, :d]
    for i in range(n):
        rest = d ** (n - 1 - i)
        total = np.einsum("lamb,lm->ab", total.reshape(d, rest, d, rest), trace)
    return abs(float(total[0, 0]) - 1.0)


def x_distribution(rho: DensityState, domain: Domain | str = Domain.RESTRICTED) -> QuasiDistribution:
    """Coefficients x(u) = d^{-n} Tr(O_u rho) on the requested domain.

    The FULL table is the RESTRICTED one lifted by ``lift_table``; the
    checks run on the restricted values, which the lift only re-signs.
    """
    domain = Domain(domain)
    system = rho.system
    raw = _contract_stack(system, o_stack(system.d), rho.matrix) / system.dim
    restricted = QuasiDistribution._adopt(system, Domain.RESTRICTED, _real(raw, "x of a Hermitian state"))
    bound = 1.0 / system.dim + 1e-9
    if np.max(np.abs(restricted.values)) > bound:
        raise InvariantError("coefficient bound |x| <= d^-n violated")
    res = normalization_residual(restricted)
    if res > 1e-9:
        raise InvariantError(f"x normalization residual {res:.3e}")
    if domain is Domain.RESTRICTED:
        return restricted
    return QuasiDistribution._adopt(system, domain, lift_to_full(restricted.values, lift_table(system.d)))


def discrete_wigner(rho: DensityState) -> QuasiDistribution:
    """W(u) = d^{-n} Tr[A(u) rho] on Z_d^{2n}; odd d only.

    W is the x table relabeled per factor (Gross, J. Math. Phys. 47, 122107
    (2006)): A(sigma(a)) = (-1)^{a_1 a_2} O_a with sigma(a_1, a_2) =
    (a_1/2, -a_2/2) mod d, so W(b) = (-1)^{a_1 a_2} x(a) at
    a = (2 b_1, -2 b_2) mod d. The x table's checks cover W.
    """
    if rho.system.d % 2 == 0:
        raise EvenDimensionError("the discrete Wigner function requires odd d")
    return _wigner_of(x_distribution(rho, Domain.RESTRICTED))


def _wigner_of(x: QuasiDistribution) -> QuasiDistribution:
    """The odd-d Wigner table relabeled from a restricted x table (``discrete_wigner``)."""
    system = x.system
    d, n = system.d, system.n
    b = np.arange(d)
    a1, a2 = (2 * b) % d, (-2 * b) % d
    w = x.values
    for axis, a in enumerate([a1] * n + [a2] * n):
        w = np.take(w, a, axis=axis)
    sign = (1 - 2 * ((a1[:, None] * a2) % 2)).astype(float)
    return QuasiDistribution._adopt(system, Domain.RESTRICTED, w * _factor_product([sign] * n).reshape(w.shape))


def characteristic_fn(rho: DensityState, domain: Domain | str = Domain.RESTRICTED) -> QuasiDistribution:
    """chi(u) = d^{-n} Tr[rho P(u)^dagger], complex-valued.

    On the FULL domain the doubled labels use the literal half-integer
    phases of ``hw_matrix``, so the FULL table is the RESTRICTED one lifted
    by ``lift_table(d, char=True)``.
    """
    domain = Domain(domain)
    system = rho.system
    raw = np.ascontiguousarray(_contract_stack(system, _p_dagger_stack(system.d), rho.matrix) / system.dim)
    if domain is Domain.FULL:
        raw = lift_to_full(raw, lift_table(system.d, char=True))
    return QuasiDistribution._adopt(system, domain, raw)


def check_order(value: float, name: str = "p") -> float:
    """``value`` as a float, checked to be a finite positive norm or Renyi order."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive, got {value}")
    return float(value)


def _renyi_order(alpha: float) -> float:
    """``alpha`` as a float, checked to be a Renyi order other than the
    alpha = 1 limit (within 1e-12), which is not implemented."""
    alpha = check_order(alpha, "alpha")
    if abs(alpha - 1.0) < 1e-12:
        raise ValidationError("alpha = 1 (the entropy limit) is not implemented")
    return alpha


def _power_sum(mags: np.ndarray, p: float) -> tuple[float, np.float64]:
    """(scale, s) with sum mags^p = scale^p s over zero-filled ``_magnitudes`` with a nonzero entry.

    While the plain sum is a normal float it is s, with scale 1, so those
    results keep their bits. Otherwise (p beyond a few hundred underflows
    every term) the terms are rescaled by the largest magnitude, so s lies
    in [1, len(mags)].
    """
    with np.errstate(under="ignore", over="ignore"):
        total = np.sum(mags**p)
        if sys.float_info.min <= total < math.inf:
            return 1.0, total
        top = float(np.max(mags))
        return top, np.sum((mags / top) ** p)


def _magnitudes(dist: QuasiDistribution | np.ndarray) -> np.ndarray:
    """The flat |f(u)| as a fresh array, the entries ``_kept`` drops zero-filled in
    place (no kept copy): the one way the library reads a table's magnitudes."""
    arr = dist.values if isinstance(dist, QuasiDistribution) else np.asarray(dist)
    mags = np.abs(arr).ravel()
    mags *= _kept(mags)
    return mags


def lp_norm(dist: QuasiDistribution | np.ndarray, p: float) -> float:
    """(sum |f(u)|^p)^{1/p} over ``_magnitudes``, whose dropped entries are zeros.

    A sum that under- or overflows is rescaled by the largest magnitude; a
    norm beyond the float range raises ValidationError.
    """
    p = check_order(p)
    mags = _magnitudes(dist)
    if not mags.any():
        return 0.0
    scale, total = _power_sum(mags, p)
    with np.errstate(over="ignore"):
        norm = float(scale * total ** (1.0 / p))
    if not norm < math.inf:
        raise ValidationError(f"the l_{p} norm lies beyond the float range")
    return norm


def _distinct(key: np.ndarray, cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of ``key`` (each in [0, cells)) ascending, the
    index of one entry holding each, and each entry's index among them in
    the smallest unsigned type that holds it: by a table over the cells
    while it is no longer than ``key``, by a sort otherwise."""
    if cells > len(key):
        values, first, ids = np.unique(key, return_index=True, return_inverse=True)
        return values, first, ids.astype(np.min_scalar_type(len(values) - 1))
    seen = np.full(cells, -1, dtype=np.intp)
    seen[key] = np.arange(len(key))
    values = np.flatnonzero(seen >= 0)
    remap = np.zeros(cells, dtype=np.min_scalar_type(len(values) - 1))
    remap[values] = np.arange(len(values))
    return values, seen[values], remap[key]


class _InputLabels:
    """The input draw of both samplers (Pashayan, Wallman and Bartlett, PRL
    115, 070501 (2015)): a label u of a signed table x, drawn with probability
    |x(u)| / ||x||_1, carries ||x||_1 times the sign (or phase) of x(u).
    ``cdf`` is cumsum |x| over the ``_kept`` flat labels, ascending, divided by its
    own last entry, so it ends at exactly 1; ``_nz`` holds those labels only when
    an entry is dropped. ``norm``, the pinned weight, is ``lp_norm(values, 1)``,
    M's input factor, bit for bit: both sum ``_magnitudes``."""

    def __init__(self, values: np.ndarray):
        self._flat, self._shape = values.reshape(-1), values.shape
        mags = _magnitudes(values)
        self.norm = float(np.sum(mags))
        if self.norm <= 0:
            raise ValidationError("input state has zero coefficient norm")
        self._nz = None if mags.all() else np.flatnonzero(mags)
        mags = mags if self._nz is None else mags[self._nz]  # the full magnitudes are freed before the cumsum
        self.cdf = np.cumsum(mags, out=mags)
        self.cdf /= self.cdf[-1]

    def draw(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``count`` labels by inverse CDF from one uniform block (none for one label), as the
        distinct labels drawn, ascending: their digits, axis by axis, in the smallest type that
        holds them, their units (``norm`` times the sign or phase) and each draw's index among them."""
        pos = np.searchsorted(self.cdf, rng.random(count), side="right") if len(self.cdf) > 1 else np.zeros(count, np.intp)
        pos, _, ids = _distinct(pos, len(self.cdf))
        flat = pos if self._nz is None else self._nz[pos]
        digits = np.array(np.unravel_index(flat, self._shape)).astype(np.min_scalar_type(self._shape[0] - 1))
        v = self._flat[flat]
        return digits, self.norm * (v / np.abs(v)), ids


def _stream_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The library's one seeded stream: Philox under SeedSequence(seed), one
    independent stream per ``spawn_key``; no key is the seed's own stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))


def magic_negativity(rho: DensityState) -> float:
    """||x_rho||_1 over the restricted domain; 1 on pure stabilizer states up to a few ulps.

    Not a monotone at even d: ||x||_1(|0><0| (x) I/d) = 1/2, and tracing
    out the second qudit, a free operation, leaves |0> at 1. At odd d,
    ||x||_1 = ||W||_1 (W is a signed relabel of x), the Wigner
    sum-negativity, which is a monotone under stabilizer operations
    (Veitch, Mousavian, Gottesman and Emerson, New J. Phys. 16, 013009
    (2014)).
    """
    return lp_norm(x_distribution(rho, Domain.RESTRICTED), 1.0)


def stabilizer_renyi(rho: DensityState, alpha: float) -> float:
    """Stabilizer Renyi entropy M_alpha (natural log).

    Uses the probability vector Xi_P = d^n |chi(P)|^2 (which sums to the
    purity): M_alpha = (1-alpha)^{-1} log sum_P Xi_P^alpha - n log d.
    The alpha = 1 limit is not implemented. A pure-state measure: on mixed
    states it is not zero on free states, e.g. M_2(I/d) = log d.
    """
    return _renyi_of(characteristic_fn(rho, Domain.RESTRICTED), alpha)


def _renyi_of(chi: QuasiDistribution, alpha: float) -> float:
    """M_alpha from a restricted chi table (``stabilizer_renyi``)."""
    alpha = _renyi_order(alpha)
    system = chi.system
    xi = system.dim * _magnitudes(chi) ** 2
    scale, total = _power_sum(xi, alpha)
    return float((alpha * np.log(scale) + np.log(float(total))) / (1.0 - alpha) - system.n * np.log(system.d))


def is_hyperpolyhedral(rho: DensityState) -> tuple[bool, float]:
    """(||x||_1 <= 1 + 1e-12, the norm itself).

    A necessary condition for a stabilizer mixture only: every such
    mixture passes (the norm is convex and 1 on pure stabilizer states),
    but so do some states whose one-qudit reduction has ||x||_1 > 1 at
    d=2, and which hence are no stabilizer mixture.
    """
    return _hyperpolyhedral_of(x_distribution(rho, Domain.RESTRICTED))


def _hyperpolyhedral_of(x: QuasiDistribution) -> tuple[bool, float]:
    """``is_hyperpolyhedral`` read from a restricted x table."""
    norm = lp_norm(x, 1.0)
    return norm <= 1.0 + 1e-12, norm


def haar_random_state(system: QuditSystem, rng: np.random.Generator) -> DensityState:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    vec = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    return pure_density(system, vec)


def random_clifford_word(
    system: QuditSystem, rng: np.random.Generator, length: int = 10
) -> list[tuple[GateKind, tuple[int, ...]]]:
    """Uniform word over the generator set; SUM appears only when n >= 2."""
    single = [GateKind.FOURIER, GateKind.PHASE, GateKind.SHIFT, GateKind.CLOCK]
    kinds = single + ([GateKind.SUM] if system.n >= 2 else [])
    word = []
    for _ in range(_as_int(length, "word length", 0)):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind is GateKind.SUM:
            c, t = rng.choice(system.n, size=2, replace=False)
            word.append((kind, (int(c), int(t))))
        else:
            word.append((kind, (int(rng.integers(system.n)),)))
    return word


def word_unitary(system: QuditSystem, word) -> DenseOperator:
    """Dense product of a generator word (first entry acts first)."""
    mat = np.eye(system.dim, dtype=complex)
    for kind, targets in word:
        mat = embed_generator(system, kind, targets).entries @ mat
    return DenseOperator(system, mat, unitary=True)


def word_coordinate_map(system: QuditSystem, word) -> SymplecticAffineMap:
    """Composed Z_{2d} label map of a generator word (first entry innermost)."""
    acc = SymplecticAffineMap.identity(system.n, 2 * system.d)
    for kind, targets in word:
        acc = clifford_coordinate_action(system, kind, targets).compose(acc)
    return acc


def apply_word(rho: DensityState, word) -> DensityState:
    u = word_unitary(rho.system, word)
    return DensityState(rho.system, conjugate_by(u, DenseOperator(rho.system, rho.matrix)).entries)

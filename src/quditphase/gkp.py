"""Exact lattice-coefficient form of ideal grid-code states.

An ideal encoded qudit state is a comb of delta peaks; everything about
it is carried by countably many coefficients attached to lattice points
with spacing sqrt(pi/2d) per quadrature. Restricted to one unit cell the
labels live on Z_{2d}^{2n}, so the whole continuous-variable object is a
finite table:

* Wigner-cell coefficients equal the doubled-domain x distribution,
  with prefactor (d/8pi)^{n/2} per delta peak.
* Characteristic-cell coefficients are
  gamma(u) = d^n e^{-i pi l.m/d} w_d^{-l.m/2} chi(u)^*,
  prefactor (2pi/d)^{n/2}, so |gamma| = d^n |chi|.

A cell is an array over Z_{2d}^{2n}: the Wigner cell is the lifted x
table, and gamma is the restricted chi^* lifted with the gamma phase and
a factor d folded into the per-factor (2d, 2d) lift table, so each cell
is written once. That table's lifted rows are built as exactly its
restricted rows times (-1)^m, the form ``basis.lift_to_full`` requires.
Cell l_p norms are prefactor * ||values||_p. For every pure stabilizer
input they collapse to closed forms, and the quotient against
that baseline reproduces d^{n(1-1/p)} ||x||_p (resp. ||chi||_p) exactly;
``verify_theorem1`` / ``verify_theorem2`` return those residuals relative
to max(|lhs|, 1), each lifting its cell from the one restricted table it
also norms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DensityState, QuditSystem, ValidationError, _Kind, _zeta_half
from .basis import Domain, lift_table, lift_to_full
from .measures import (
    QuasiDistribution,
    _Table,
    _magnitudes,
    _power_sum,
    _renyi_order,
    characteristic_fn,
    check_order,
    lp_norm,
    x_distribution,
)

__all__ = [
    "GkpKind",
    "GkpLatticeCoefficients",
    "gkp_wigner_coefficients",
    "gkp_char_coefficients",
    "cell_lp_norm",
    "stabilizer_cell_norm",
    "verify_theorem1",
    "verify_theorem2",
    "renyi_from_cell_norms",
]


class GkpKind(_Kind):
    WIGNER = "WIGNER"
    CHARACTERISTIC = "CHARACTERISTIC"


@dataclass(frozen=True, eq=False)
class GkpLatticeCoefficients(_Table):
    """One unit cell worth of delta-peak weights for an encoded state.

    ``values`` is the cell over Z_{2d}^{2n}, stored as ``QuasiDistribution``
    stores a FULL table (``measures._Table``): 2n axes of length 2d ordered
    (l-block, m-block), read-only, copied by the public constructor and
    adopted without a copy by the library. A WIGNER cell must be real to 1e-10.
    """

    system: QuditSystem
    kind: GkpKind
    values: np.ndarray
    prefactor: float

    def __post_init__(self):
        object.__setattr__(self, "kind", GkpKind(self.kind))
        super().__post_init__()

    @property
    def modulus(self) -> int:
        return 2 * self.system.d

    def _freeze(self, arr: np.ndarray) -> None:
        super()._freeze(arr)
        if self.kind is GkpKind.WIGNER and np.iscomplexobj(arr):
            worst = float(np.max(np.abs(arr.imag)))
            if worst > 1e-10:
                raise ValidationError(f"Wigner cell values must be real (dev {worst:.3e})")


def _wigner_prefactor(system: QuditSystem) -> float:
    """(d/8pi)^{n/2}, the weight of one Wigner delta peak per unit of x."""
    return (system.d / (8 * math.pi)) ** (system.n / 2)


def _wigner_cell(x: QuasiDistribution) -> GkpLatticeCoefficients:
    """The Wigner cell of a restricted x table: its doubled-domain lift."""
    vals = lift_to_full(x.values, lift_table(x.system.d))
    return GkpLatticeCoefficients._adopt(x.system, GkpKind.WIGNER, vals, _wigner_prefactor(x.system))


def gkp_wigner_coefficients(rho: DensityState) -> GkpLatticeCoefficients:
    """Wigner-cell weights: exactly the doubled-domain x distribution."""
    return _wigner_cell(x_distribution(rho, Domain.RESTRICTED))


@lru_cache(maxsize=32)
def _gamma_table(d: int) -> np.ndarray:
    """Per-factor (2d, 2d) lift table of gamma: the chi lift sign times
    d e^{-i pi l m/d} w_d^{-l m/2}, with w_d^{1/2} read by ``core._zeta_half``, so the
    n-factor product carries the d^n as well. Moving l by d multiplies the
    entry by (-1)^m, so the lifted rows are written as exactly the
    restricted rows times (-1)^m, as ``lift_to_full`` requires. Cached
    read-only."""
    lm = np.multiply.outer(np.arange(d), np.arange(2 * d))
    top = d * lift_table(d, char=True)[:d] * np.exp(-1j * math.pi * (lm + _zeta_half(d, lm)) / d)
    table = np.concatenate([top, top * (1 - 2 * (np.arange(2 * d) % 2))])
    table.flags.writeable = False
    return table


def _char_cell(chi: QuasiDistribution) -> GkpLatticeCoefficients:
    """The characteristic cell gamma of a restricted chi table: chi^* lifted
    by a per-factor table that folds in the gamma phase and the d^n."""
    system = chi.system
    vals = lift_to_full(np.conj(chi.values), _gamma_table(system.d))
    pref = (2 * math.pi / system.d) ** (system.n / 2)
    return GkpLatticeCoefficients._adopt(system, GkpKind.CHARACTERISTIC, vals, pref)


def gkp_char_coefficients(rho: DensityState) -> GkpLatticeCoefficients:
    """Characteristic-cell weights gamma."""
    return _char_cell(characteristic_fn(rho, Domain.RESTRICTED))


def cell_lp_norm(coeffs: GkpLatticeCoefficients, p: float) -> float:
    """(sum over the cell of (prefactor |value|)^p)^{1/p} = prefactor ||values||_p."""
    return coeffs.prefactor * lp_norm(coeffs.values, p)


def stabilizer_cell_norm(system: QuditSystem, kind: GkpKind, p: float) -> float:
    """Closed-form cell norm shared by every pure stabilizer input; ``kind``
    must name a ``GkpKind`` exactly."""
    kind, p = GkpKind(kind), check_order(p)
    d, n = system.d, system.n
    try:
        grid = (4 * d) ** (n / p)
    except OverflowError:
        raise ValidationError(f"the stabilizer cell norm at p = {p} lies beyond the float range") from None
    if kind is GkpKind.WIGNER:
        return grid / (8 * math.pi * d) ** (n / 2)
    return (2 * math.pi / d) ** (n / 2) * grid


_CELLS = {
    GkpKind.WIGNER: (x_distribution, _wigner_cell),
    GkpKind.CHARACTERISTIC: (characteristic_fn, _char_cell),
}


def _scaled_sides(dist: QuasiDistribution, coeffs: GkpLatticeCoefficients, p: float) -> tuple[float, float]:
    """The sides of ``_cell_sides`` as d^n (||table||_p^p / d^n)^{1/p} and
    c (||cell||_p^p / (4d)^n)^{1/p}, each from its scaled power sum, so a
    side in the float range comes out finite even where its norm or the
    baseline (4d)^{n/p} does not; c is the p-free quotient of the cell
    prefactor and the baseline's prefactor. The 1/p power scales the
    rounding of a sum (about log2 N ulps over N terms) by 1/p, so an order
    at which that exceeds 1e-9 raises ValidationError."""
    if math.log2(coeffs.values.size) * sys.float_info.epsilon / p > 1e-9:
        raise ValidationError(f"at p = {p} the scaled cell-norm sides would lose their precision")
    system = dist.system
    dn, cells = system.d ** system.n, (4 * system.d) ** system.n
    c = coeffs.prefactor * cells / stabilizer_cell_norm(system, coeffs.kind, 1.0)

    def side(values, factor: float, count: int) -> float:
        scale, total = _power_sum(_magnitudes(values), p)
        with np.errstate(over="ignore"):
            return float(factor * scale * (total / count) ** (1.0 / p))

    return side(dist, dn, dn), side(coeffs.values, c, cells)


def _cell_sides(rho: DensityState, p: float, kind: GkpKind) -> tuple[float, float]:
    """(d^{n(1-1/p)} ||table||_p, cell norm / stabilizer baseline), both
    read from one restricted table. Where a norm or the baseline leaves the
    float range both sides are read again in scaled form; a side beyond the
    float range raises ValidationError."""
    p = check_order(p)
    system = rho.system
    table, cell = _CELLS[kind]
    dist = table(rho, Domain.RESTRICTED)
    coeffs = cell(dist)
    try:
        lhs = system.d ** (system.n * (1 - 1 / p)) * lp_norm(dist, p)
        rhs = cell_lp_norm(coeffs, p) / stabilizer_cell_norm(system, kind, p)
    except ValidationError:
        lhs, rhs = _scaled_sides(dist, coeffs, p)
    if not (0 < lhs < math.inf and 0 < rhs < math.inf):
        raise ValidationError(f"a cell-norm side at p = {p} lies beyond the float range")
    return lhs, rhs


def _relative_residual(lhs: float, rhs: float) -> float:
    """The identities' verdict, scaled by max(|lhs|, 1) since sides of 1e14 agree only to their rounding; NaN stays NaN."""
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


def verify_theorem1(rho: DensityState, p: float) -> float:
    """|lhs - rhs| / max(|lhs|, 1) for lhs = d^{n(1-1/p)} ||x||_p and rhs =
    Wigner cell norm / stabilizer baseline: the verdict ``gkp-check`` reads."""
    return _relative_residual(*_cell_sides(rho, p, GkpKind.WIGNER))


def verify_theorem2(rho: DensityState, p: float) -> float:
    """Characteristic-side analogue of ``verify_theorem1``, on the same relative scale."""
    return _relative_residual(*_cell_sides(rho, p, GkpKind.CHARACTERISTIC))


def renyi_from_cell_norms(rho: DensityState, alpha: float) -> float:
    """Order-alpha stabilizer Renyi entropy recovered from cell norms.

    Uses p = 2 alpha: M_alpha = (2 alpha / (1 - alpha)) log(cell ratio),
    the ratio being the characteristic side of ``verify_theorem2``. The
    alpha = 1 limit is rejected as in ``stabilizer_renyi``.
    """
    alpha = _renyi_order(alpha)
    ratio = _cell_sides(rho, 2 * alpha, GkpKind.CHARACTERISTIC)[1]
    return float(2 * alpha / (1 - alpha) * math.log(ratio))

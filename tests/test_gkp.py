"""Grid-code lattice coefficients and the cell-norm identities.

The reference implementation of the single-mode Wigner cell used below
builds the comb weights directly from density-matrix elements: the peak
at (l, m) in Z_{2d}^2 collects every wavefunction pair (u, v) with
u + v + d t = l, weighted by e^{i pi m (u - v - d t)/d} / d.
"""

import math
import tracemalloc

import numpy as np
import pytest

from quditphase import (
    DensityState,
    GkpKind,
    GkpLatticeCoefficients,
    QuditSystem,
    ValidationError,
    cell_lp_norm,
    characteristic_fn,
    computational_state,
    enumerate_single_qudit_stabilizers,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    haar_random_state,
    plus_state,
    renyi_from_cell_norms,
    stabilizer_cell_norm,
    stabilizer_renyi,
    t_state,
    verify_theorem1,
    verify_theorem2,
)
from quditphase.basis import Domain, full_point
from quditphase.core import hw_matrix
from quditphase.gkp import _cell_sides

LOG_4_3 = math.log(4.0 / 3.0)


def comb_cell_reference(rho: np.ndarray, d: int) -> np.ndarray:
    """Independent n=1 Wigner-cell table from matrix elements."""
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for l in range(2 * d):
        for m in range(2 * d):
            acc = 0.0 + 0.0j
            for u in range(d):
                for v in range(d):
                    if (l - u - v) % d:
                        continue
                    t = (l - u - v) // d
                    acc += rho[u, v] * np.exp(1j * np.pi * m * (u - v - d * t) / d)
            out[l, m] = acc / d
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_wigner_cell_matches_comb_reference(d):
    s = QuditSystem(d, 1)
    states = [
        computational_state(s, 0),
        plus_state(s),
        haar_random_state(s, np.random.default_rng(41)),
    ]
    if d == 2:
        states.append(t_state())
    for rho in states:
        got = gkp_wigner_coefficients(rho).values
        want = comb_cell_reference(rho.matrix, d)
        assert np.max(np.abs(got - want)) < 1e-12


def test_wigner_prefactor_and_frozen_qubit_norm():
    s = QuditSystem(2, 1)
    coeffs = gkp_wigner_coefficients(computational_state(s, 0))
    assert abs(coeffs.prefactor - math.sqrt(2 / (8 * math.pi))) < 1e-15
    # 8 peaks of weight 1/2 against the sqrt(d/8pi) prefactor
    assert abs(cell_lp_norm(coeffs, 1.0) - 8 / math.sqrt(16 * math.pi)) < 1e-12
    assert abs(cell_lp_norm(coeffs, 1.0) - 1.1283791670955126) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_norm_identities_random_states(d, p):
    s = QuditSystem(d, 1)
    rng = np.random.default_rng(100 + d)
    for _ in range(5):
        rho = haar_random_state(s, rng)
        assert verify_theorem1(rho, p) < 1e-9
        assert verify_theorem2(rho, p) < 1e-9


def test_norm_identities_two_qudits():
    for d in (2, 3):
        s = QuditSystem(d, 2)
        rho = haar_random_state(s, np.random.default_rng(7))
        for p in (1.0, 2.0):
            assert verify_theorem1(rho, p) < 1e-9
            assert verify_theorem2(rho, p) < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_norm_identities_are_judged_relative_to_large_sides(seed):
    # at p = 0.1 the sides lie near 8e8, where they agree only to their rounding:
    # an absolute residual reads up to 1.3e-6, the relative one ~1e-15
    rho = haar_random_state(QuditSystem(3, 2), np.random.default_rng(seed))
    assert _cell_sides(rho, 0.1, GkpKind.WIGNER)[0] > 5e8
    assert verify_theorem1(rho, 0.1) < 1e-9
    assert verify_theorem2(rho, 0.1) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8, 9, 10, 12])
def test_stabilizer_inputs_hit_the_baseline(d):
    for rho in enumerate_single_qudit_stabilizers(d):
        for p, kind, builder in (
            (1.0, GkpKind.WIGNER, gkp_wigner_coefficients),
            (2.0, GkpKind.WIGNER, gkp_wigner_coefficients),
            (1.0, GkpKind.CHARACTERISTIC, gkp_char_coefficients),
            (2.0, GkpKind.CHARACTERISTIC, gkp_char_coefficients),
        ):
            got = cell_lp_norm(builder(rho), p)
            want = stabilizer_cell_norm(rho.system, kind, p)
            assert abs(got - want) < 1e-9


def test_stabilizer_cell_norm_closed_form_values():
    s = QuditSystem(2, 1)
    assert abs(
        stabilizer_cell_norm(s, GkpKind.WIGNER, 1.0) - 8 / math.sqrt(16 * math.pi)
    ) < 1e-15
    assert abs(
        stabilizer_cell_norm(s, GkpKind.CHARACTERISTIC, 1.0) - math.sqrt(math.pi) * 8
    ) < 1e-12


def test_char_cell_magnitudes_follow_chi():
    s = QuditSystem(3, 1)
    rho = haar_random_state(s, np.random.default_rng(5))
    gamma = gkp_char_coefficients(rho)
    chi = characteristic_fn(rho, Domain.FULL)
    assert gamma.values.shape == chi.values.shape == (6, 6)
    assert np.max(np.abs(np.abs(gamma.values) - 3 * np.abs(chi.values))) < 1e-12


def test_char_cell_pure_shift_row():
    # gamma(l, 0) is the shift-operator expectation Tr[X^l rho]
    s = QuditSystem(3, 1)
    rho = haar_random_state(s, np.random.default_rng(12))
    gamma = gkp_char_coefficients(rho)
    x = hw_matrix(3, 1, 0)
    for l in range(6):
        pt = full_point(s, (l,), (0,))
        want = np.trace(np.linalg.matrix_power(x, l) @ rho.matrix)
        assert abs(gamma.value(pt) - want) < 1e-10


def test_renyi_recovered_from_cell_norms():
    rho = t_state()
    assert abs(renyi_from_cell_norms(rho, 2.0) - LOG_4_3) < 1e-12
    s = QuditSystem(3, 1)
    rnd = haar_random_state(s, np.random.default_rng(3))
    # pinned to the bit
    assert renyi_from_cell_norms(rho, 2.0) == 0.2876820724517811
    assert renyi_from_cell_norms(rnd, 2.0) == 0.6579962244213668
    for alpha in (0.5, 2.0, 3.0):
        assert abs(renyi_from_cell_norms(rnd, alpha) - stabilizer_renyi(rnd, alpha)) < 1e-9


@pytest.mark.parametrize("alpha", [1.0, 1 - 1e-13, 1 + 1e-13])
def test_both_renyi_functions_reject_the_alpha_one_limit(alpha):
    for renyi in (stabilizer_renyi, renyi_from_cell_norms):
        with pytest.raises(ValidationError, match="alpha = 1"):
            renyi(t_state(), alpha)


def test_wigner_cell_rejects_complex_values():
    s = QuditSystem(2, 1)
    values = np.zeros((4, 4), dtype=complex)
    values[0, 0] = 1j
    with pytest.raises(ValidationError):
        GkpLatticeCoefficients(s, GkpKind.WIGNER, values, 1.0)


def test_cell_norm_rejects_nonpositive_p():
    s = QuditSystem(2, 1)
    coeffs = gkp_wigner_coefficients(computational_state(s, 0))
    with pytest.raises(ValidationError):
        cell_lp_norm(coeffs, 0.0)


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
def test_cell_functions_reject_bad_orders(p):
    s = QuditSystem(2, 1)
    rho = computational_state(s, 0)
    coeffs = gkp_wigner_coefficients(rho)
    for call in (
        lambda: cell_lp_norm(coeffs, p),
        lambda: stabilizer_cell_norm(s, GkpKind.WIGNER, p),
        lambda: verify_theorem1(rho, p),
        lambda: verify_theorem2(rho, p),
        lambda: renyi_from_cell_norms(rho, p),
    ):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("build", [gkp_wigner_coefficients, gkp_char_coefficients], ids=["wigner", "gamma"])
def test_a_cell_norm_reads_its_magnitudes_without_a_kept_copy(build, p):
    # 4^10 cell entries: the magnitudes and their p-th powers are 8 MiB each, and the zero rule
    # zero-fills the dropped entries in place rather than copying the kept ones out
    coeffs = build(haar_random_state(QuditSystem(2, 5), np.random.default_rng(5)))
    tracemalloc.start()
    try:
        cell_lp_norm(coeffs, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16.5 * (1 << 20)

"""Every doubled-domain table against the dense 2d-label reference."""

import numpy as np
import pytest

from quditphase import (
    Domain,
    QuditSystem,
    StabilizerGroup,
    characteristic_fn,
    enumerate_single_qudit_groups,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    haar_random_state,
    maximally_mixed,
    stabilizer_x_sparse,
    x_distribution,
)
from quditphase.basis import lift_sign, lift_table, lift_to_full

from dense_reference import dense_chi_full, dense_gamma, dense_stabilizer_state, dense_x_full

CASES = [(d, n) for d in (2, 3, 4, 5) for n in (1, 2)] + [(2, 3)]
TOL = 1e-12


def scrambled_group(system, rng, moves=12):
    """Z-type generators pushed through seeded Fourier, phase and SUM moves."""
    d, n = system.d, system.n
    gens = np.zeros((n, 2 * n), dtype=int)
    gens[np.arange(n), n + np.arange(n)] = 1
    for _ in range(moves):
        move = int(rng.integers(3))
        if move == 2 and n >= 2:  # SUM(c, t): a_t += a_c, b_c -= b_t
            c, t = (int(v) for v in rng.choice(n, size=2, replace=False))
            gens[:, t] += gens[:, c]
            gens[:, n + c] -= gens[:, n + t]
        else:
            t = int(rng.integers(n))
            if move == 0:  # Fourier: (a, b) -> (b, -a)
                gens[:, [t, n + t]] = np.stack([gens[:, n + t], -gens[:, t]], axis=1)
            else:  # phase: b += a
                gens[:, n + t] += gens[:, t]
        gens %= d
    phase = tuple(int(v) for v in rng.integers(d, size=2 * n))
    return StabilizerGroup(system, tuple(map(tuple, gens.tolist())), phase)


@pytest.mark.parametrize("d, n", CASES)
def test_full_tables_and_cells_match_the_dense_reference(d, n):
    s = QuditSystem(d, n)
    rng = np.random.default_rng(10 * d + n)
    for rho in (haar_random_state(s, rng), haar_random_state(s, rng), maximally_mixed(s)):
        x = x_distribution(rho, Domain.FULL).values
        assert np.max(np.abs(x - dense_x_full(rho))) < TOL
        chi = characteristic_fn(rho, Domain.FULL).values
        assert np.max(np.abs(chi - dense_chi_full(rho))) < TOL
        assert np.max(np.abs(gkp_wigner_coefficients(rho).values - dense_x_full(rho))) < TOL
        # |gamma| = d^n |chi| <= 1, so the absolute tolerance stays meaningful
        assert np.max(np.abs(gkp_char_coefficients(rho).values - dense_gamma(rho))) < TOL


@pytest.mark.parametrize("d, n", CASES)
def test_sparse_stabilizer_table_matches_the_dense_reference(d, n):
    s = QuditSystem(d, n)
    rng = np.random.default_rng(20 * d + n)
    if n == 1:
        groups = enumerate_single_qudit_groups(d)
    else:
        groups = [scrambled_group(s, rng) for _ in range(3)]
    for group in groups:
        sparse = stabilizer_x_sparse(group).values
        assert np.max(np.abs(sparse - dense_x_full(dense_stabilizer_state(group)))) < TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lift_table_entries_follow_lift_sign(d):
    o_table, p_table = lift_table(d), lift_table(d, char=True)
    for big_l in range(2 * d):
        for big_m in range(2 * d):
            l, el, m, em = big_l % d, big_l // d, big_m % d, big_m // d
            assert o_table[big_l, big_m] == lift_sign(d, l, m, el, em)
            assert p_table[big_l, big_m] == (1 if d % 2 else lift_sign(d, l, m, el, em))


def test_lift_to_full_tiles_and_multiplies_per_factor():
    d, n = 3, 2
    rng = np.random.default_rng(5)
    values = rng.standard_normal((d,) * (2 * n))
    table = rng.standard_normal((2 * d, 2 * d))
    want = np.tile(values, (2,) * (2 * n)) * table[:, None, :, None] * table[None, :, None, :]
    assert np.allclose(lift_to_full(values, table), want, rtol=1e-15, atol=0)

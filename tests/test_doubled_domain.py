"""Every doubled-domain table against the dense 2d-label reference, the
lift against its gather form, and who owns the table arrays."""

import itertools
import tracemalloc

import numpy as np
import pytest

from quditphase import (
    Domain,
    GkpKind,
    GkpLatticeCoefficients,
    PhasePoint,
    QuasiDistribution,
    QuditSystem,
    StabilizerGroup,
    ValidationError,
    characteristic_fn,
    discrete_wigner,
    enumerate_single_qudit_groups,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    haar_random_state,
    maximally_mixed,
    stabilizer_x_sparse,
    x_distribution,
)
from quditphase.basis import lift_sign, lift_table, lift_to_full
from quditphase.gkp import _gamma_table

from dense_reference import dense_chi_full, dense_gamma, dense_stabilizer_state, dense_x_full, gather_lift

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


@pytest.mark.parametrize("d, n", CASES + [(d, 1) for d in (6, 8, 9, 10, 12)])
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
    assert not o_table.flags.writeable and not p_table.flags.writeable and not _gamma_table(d).flags.writeable
    for big_l in range(2 * d):
        for big_m in range(2 * d):
            l, el, m, em = big_l % d, big_l // d, big_m % d, big_m // d
            assert o_table[big_l, big_m] == lift_sign(d, l, m, el, em)
            assert p_table[big_l, big_m] == (1 if d % 2 else lift_sign(d, l, m, el, em))


def random_lift_table(d, rng, complex_table):
    """Random restricted rows; the lifted rows are them times a random +-1 per column."""
    top = rng.standard_normal((d, 2 * d))
    if complex_table:
        top = top + 1j * rng.standard_normal(top.shape)
    return np.concatenate([top, top * rng.choice([-1.0, 1.0], size=2 * d)])


def test_lift_to_full_tiles_and_multiplies_per_factor():
    rng = np.random.default_rng(5)
    for (d, n), complex_table in itertools.product([(2, 3), (2, 4), (2, 5), (3, 3)], (False, True)):
        values = rng.standard_normal((d,) * (2 * n))
        table = random_lift_table(d, rng, complex_table)
        if complex_table:
            values = values + 1j * rng.standard_normal(values.shape)
        want = np.tile(values, (2,) * (2 * n))
        for i in range(n):  # table[L_i, M_i] broadcast over axes i and n + i
            want = want * np.moveaxis(table.reshape(table.shape + (1,) * (2 * n - 2)), (0, 1), (i, n + i))
        assert np.allclose(lift_to_full(values, table), want, rtol=1e-15, atol=0), (d, n, complex_table)


@pytest.mark.parametrize("complex_table", [False, True])
def test_lift_to_full_rejects_a_table_whose_lifted_rows_are_not_signed_copies(complex_table):
    rng = np.random.default_rng(6)
    values = rng.standard_normal((3,) * 4)
    table = random_lift_table(3, rng, complex_table)
    lift_to_full(values, table)
    table[4, 2] *= 1.5  # one lifted entry off its +-1 multiple
    with pytest.raises(ValidationError, match="lifted rows"):
        lift_to_full(values, table)
    with pytest.raises(ValidationError, match="lifted rows"):
        lift_to_full(values, rng.standard_normal((6, 6)))


@pytest.mark.parametrize("complex_values", [False, True])
def test_lift_to_full_peaks_near_its_output_bytes(complex_values):
    # with warm caches the lift allocates its output and two tables 1/2^n its size
    d, n = 2, 5
    rng = np.random.default_rng(7)
    values = rng.standard_normal((d,) * (2 * n))
    if complex_values:
        values = values + 1j * rng.standard_normal(values.shape)
    table = lift_table(d)
    lift_to_full(values, table)
    tracemalloc.start()
    try:
        out = lift_to_full(values, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes, peak / out.nbytes


LIFT_CASES = [(2, 1), (2, 5), (3, 3), (4, 2), (5, 2), (6, 2), (7, 1)]


@pytest.mark.parametrize("d, n", LIFT_CASES)
def test_lift_to_full_equals_the_gather_lift_on_sign_tables(d, n):
    rng = np.random.default_rng(30 * d + n)
    real = rng.standard_normal((d,) * (2 * n))
    for values in (real, real + 1j * rng.standard_normal(real.shape)):
        for table in (lift_table(d), lift_table(d, char=True)):
            got, want = lift_to_full(values, table), gather_lift(values, table)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("d, n", LIFT_CASES)
def test_lift_to_full_matches_the_gather_lift_on_the_gamma_table(d, n):
    # the n phase factors multiply in another order, so the last bits may differ
    rng = np.random.default_rng(40 * d + n)
    values = rng.standard_normal((d,) * (2 * n)) + 1j * rng.standard_normal((d,) * (2 * n))
    table = _gamma_table(d)
    got, want = lift_to_full(values, table), gather_lift(values, table)
    assert np.max(np.abs(got - want)) <= 4e-16 * np.max(np.abs(want))


# ------------------------------------------------------------- ownership


# both table types, built through their public constructors on Z_{2d}^{2n}
PUBLIC_TABLES = pytest.mark.parametrize(
    "build",
    [
        lambda s, arr: QuasiDistribution(s, Domain.FULL, arr),
        lambda s, arr: GkpLatticeCoefficients(s, GkpKind.WIGNER, arr, 1.0),
    ],
    ids=["distribution", "cell"],
)


@PUBLIC_TABLES
def test_public_constructors_copy_the_callers_array(build):
    s = QuditSystem(2, 2)
    arr = np.random.default_rng(6).standard_normal((4,) * 4)
    held = build(s, arr)
    before = held.values.copy()
    arr[...] = 7.0
    assert arr.flags.writeable
    assert not held.values.flags.writeable
    assert np.array_equal(held.values, before)


@PUBLIC_TABLES
def test_tables_reject_a_wrong_shape_and_a_foreign_point(build):
    s = QuditSystem(2, 1)
    with pytest.raises(ValidationError, match="does not match"):
        build(s, np.zeros((2, 2)))
    table = build(s, np.arange(16.0).reshape(4, 4))
    for point in (PhasePoint((0,), (0,), 2), PhasePoint((0, 0), (0, 0), 4)):
        with pytest.raises(ValidationError, match="does not live on this table"):
            table.value(point)
    assert table.value(PhasePoint((1,), (3,), 4)) == 7.0


@PUBLIC_TABLES
def test_tables_compare_and_hash_by_identity(build):
    s = QuditSystem(2, 1)
    arr = np.arange(16.0).reshape(4, 4)
    table, twin = build(s, arr), build(s, arr)
    assert table == table and table != twin
    assert table in [twin, table] and twin not in [table]
    assert hash(table) == hash(table) and len({table, twin}) == 2


@pytest.mark.parametrize("d, n", [(2, 2), (3, 2)])
def test_library_tables_and_cells_are_read_only(d, n):
    s = QuditSystem(d, n)
    rng = np.random.default_rng(50 * d + n)
    rho = haar_random_state(s, rng)
    built = [
        x_distribution(rho, Domain.RESTRICTED),
        x_distribution(rho, Domain.FULL),
        characteristic_fn(rho, Domain.RESTRICTED),
        characteristic_fn(rho, Domain.FULL),
        stabilizer_x_sparse(scrambled_group(s, rng)),
        gkp_wigner_coefficients(rho),
        gkp_char_coefficients(rho),
    ]
    # real restricted tables own a real buffer, not a view of the complex contraction
    owners = [built[0]] + ([discrete_wigner(rho)] if d % 2 else [])
    for table in built + owners:
        assert not table.values.flags.writeable
        assert table.values.flags.c_contiguous
    for table in owners:
        assert table.values.base is None


def test_full_chi_at_two_five_is_held_once():
    s = QuditSystem(2, 5)
    rho = haar_random_state(s, np.random.default_rng(7))
    characteristic_fn(rho, Domain.FULL)  # fill the stack cache and einsum path
    tracemalloc.start()
    try:
        chi = characteristic_fn(rho, Domain.FULL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi.values.nbytes == 16 * 2**20
    # the result plus the lift's last input (a quarter of it), never two copies
    assert peak < 1.3 * chi.values.nbytes

"""Quasiprobability coefficients and the magic measures built on them."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from quditphase import (
    Domain,
    QuasiDistribution,
    QuditSystem,
    ValidationError,
    characteristic_fn,
    computational_state,
    discrete_wigner,
    haar_random_state,
    is_hyperpolyhedral,
    lp_norm,
    magic_negativity,
    maximally_mixed,
    plus_state,
    stabilizer_renyi,
    t_state,
    x_distribution,
)
from quditphase import measures, sampling
from quditphase.basis import o_stack, p_stack
from quditphase.stabilizer import enumerate_single_qudit_stabilizers
from quditphase.measures import (
    apply_word,
    normalization_residual,
    random_clifford_word,
    word_coordinate_map,
    word_unitary,
)

from dense_reference import dense_wigner, einsum_contract_stack, sigma_permutation

LOG_4_3 = math.log(4.0 / 3.0)  # = 0.28768207245178085


@pytest.mark.parametrize("d, n", [(2, 1), (2, 5), (3, 2), (4, 3), (5, 2), (6, 2)])
@pytest.mark.parametrize(
    "stack", [o_stack, p_stack, lambda d: p_stack(d).conj().transpose(0, 1, 3, 2)], ids=["o", "p", "p-dagger"]
)
def test_contraction_matches_the_einsum_reference(d, n, stack):
    system = QuditSystem(d, n)
    rng = np.random.default_rng(100 * d + n)
    mats = rng.standard_normal((3, system.dim, system.dim)) + 1j * rng.standard_normal((3, system.dim, system.dim))
    want = np.array([einsum_contract_stack(system, stack(d), m) for m in mats])
    assert np.max(np.abs(measures._contract_stack(system, stack(d), mats[0]) - want[0])) < 1e-12
    assert np.max(np.abs(measures._contract_stack(system, stack(d), mats) - want)) < 1e-12


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_normalization_and_purity(d, seed):
    s = QuditSystem(d, 1)
    rho = haar_random_state(s, np.random.default_rng(seed))
    dist = x_distribution(rho, Domain.RESTRICTED)
    assert normalization_residual(dist) < 1e-9
    # purity identity d^n sum x^2 = Tr rho^2
    assert abs(d * float(np.sum(dist.values**2)) - rho.purity()) < 1e-9


def test_maximally_mixed_norms():
    for d in (2, 3, 4, 5, 6):
        s = QuditSystem(d, 1)
        dist = x_distribution(maximally_mixed(s))
        one = lp_norm(dist, 1)
        two = lp_norm(dist, 2)
        assert abs(two - 1.0 / d) < 1e-12
        want = 1.0 if d % 2 else 0.5
        assert abs(one - want) < 1e-12


def test_t_state_frozen_values():
    rho = t_state()
    assert abs(magic_negativity(rho) - (1 + math.sqrt(2)) / 2) < 1e-12
    assert abs(stabilizer_renyi(rho, 2.0) - LOG_4_3) < 1e-12
    inside, norm = is_hyperpolyhedral(rho)
    assert not inside
    assert norm > 1.2


def test_stabilizer_states_sit_on_the_boundary(single):
    for rho in (computational_state(single, 0), plus_state(single)):
        assert abs(magic_negativity(rho) - 1.0) < 1e-12
        inside, _ = is_hyperpolyhedral(rho)
        assert inside
        assert abs(stabilizer_renyi(rho, 2.0)) < 1e-10


# every d^n <= 343 whose FULL tables hold at most 2^20 entries; d = 2..7
SMALL_SYSTEMS = [(d, n) for d in range(2, 8) for n in range(1, 9) if d**n <= 343 and (2 * d) ** (2 * n) <= 1 << 20]


def _product_states(system):
    """|0...0>, |+...+> and the maximally mixed state."""
    return [computational_state(system, 0), plus_state(system), maximally_mixed(system)]


def test_pure_stabilizer_states_have_unit_negativity_to_a_few_ulps():
    # ||x||_1 = 1 on pure stabilizer states holds only to the rounding of the sum over d^{2n}
    # entries: the largest deviation over these states is 2 eps, read at d=5
    states = [rho for d in range(2, 8) for rho in enumerate_single_qudit_stabilizers(d)]
    systems = [QuditSystem(d, n) for d in range(2, 8) for n in range(1, 9) if d**n <= 343]
    states += [rho for system in systems for rho in _product_states(system)[:2]]
    worst = max(abs(magic_negativity(rho) - 1.0) for rho in states)
    assert worst <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("d, n", SMALL_SYSTEMS)
def test_the_norm_and_the_input_draw_read_one_sum(d, n):
    # lp_norm(t, 1) is M's input factor and _InputLabels(t).norm the drawn weight: the two
    # readings of ||x||_1 must agree bit for bit on every x and chi table, RESTRICTED and FULL
    system = QuditSystem(d, n)
    states = _product_states(system) + [haar_random_state(system, np.random.default_rng([d, n]))]
    if n == 1:
        states += enumerate_single_qudit_stabilizers(d)
    for rho in states:
        for table in (x_distribution, characteristic_fn):
            for domain in Domain:
                values = table(rho, domain).values
                assert lp_norm(values, 1) == measures._InputLabels(values).norm


@given(st.integers(2, 4), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_clifford_invariance_of_norms(d, seed):
    s = QuditSystem(d, 1)
    rng = np.random.default_rng(seed)
    rho = haar_random_state(s, rng)
    word = random_clifford_word(s, rng, length=6)
    rho2 = apply_word(rho, word)
    for p in (0.5, 1.0, 2.0):
        a = lp_norm(x_distribution(rho), p)
        b = lp_norm(x_distribution(rho2), p)
        assert abs(a - b) < 1e-9


def test_word_coordinate_map_tracks_unitary():
    s = QuditSystem(3, 2)
    rng = np.random.default_rng(8)
    word = random_clifford_word(s, rng, length=5)
    u = word_unitary(s, word).entries
    amap = word_coordinate_map(s, word)
    rho = haar_random_state(s, rng)
    rho2 = apply_word(rho, word)
    assert np.allclose(u @ rho.matrix @ u.conj().T, rho2.matrix, atol=1e-12)
    x1 = x_distribution(rho, Domain.FULL)
    x2 = x_distribution(rho2, Domain.FULL)
    for pt, v in list(x1.items())[:40]:
        assert abs(x2.value(amap.apply(pt)) - v) < 1e-9


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_norm_multiplicativity(d, seed):
    rng = np.random.default_rng(seed)
    s1 = QuditSystem(d, 1)
    a = haar_random_state(s1, rng)
    b = haar_random_state(s1, rng)
    s2 = QuditSystem(d, 2)
    joint = np.kron(a.matrix, b.matrix)
    from quditphase import DensityState

    ab = DensityState(s2, joint)
    for p in (1.0, 2.0):
        na = lp_norm(x_distribution(a), p)
        nb = lp_norm(x_distribution(b), p)
        nab = lp_norm(x_distribution(ab), p)
        assert abs(nab - na * nb) < 1e-9


def test_char_conjugation_symmetry():
    for d in (2, 3, 4, 5):
        s = QuditSystem(d, 1)
        rho = haar_random_state(s, np.random.default_rng(3))
        chi = characteristic_fn(rho, Domain.RESTRICTED).values
        for l in range(d):
            for m in range(d):
                mirror = chi[(-l) % d, (-m) % d]
                if d % 2:
                    # odd d closes exactly under conjugation
                    assert abs(np.conj(chi[l, m]) - mirror) < 1e-12
                else:
                    # even d only up to a label-wraparound sign
                    assert abs(abs(chi[l, m]) - abs(mirror)) < 1e-12


def test_char_xi_sums_to_purity():
    for d in (2, 3, 4):
        s = QuditSystem(d, 1)
        rho = haar_random_state(s, np.random.default_rng(d + 10))
        chi = characteristic_fn(rho).values
        xi = d * np.abs(chi) ** 2
        assert abs(float(np.sum(xi)) - rho.purity()) < 1e-10


def test_char_zero_label_is_inverse_dimension(single):
    rho = haar_random_state(single, np.random.default_rng(0))
    chi = characteristic_fn(rho)
    assert abs(chi.values[(0,) * 2] - 1.0 / single.d) < 1e-12


def test_wigner_matches_coefficients_odd():
    for d in (3, 5):
        s = QuditSystem(d, 1)
        rho = haar_random_state(s, np.random.default_rng(d))
        w = dense_wigner(rho)
        x = x_distribution(rho).values
        perm = sigma_permutation(d)
        for (a1, a2), target in perm.items():
            assert abs(w[target] - (-1.0) ** (a1 * a2) * x[a1, a2]) < 1e-12
        for p in (0.5, 1.0, 2.0, 3.0):
            assert abs(lp_norm(discrete_wigner(rho), p) - lp_norm(x_distribution(rho), p)) < 1e-12


@pytest.mark.parametrize("d, n", [(3, 2), (5, 2), (3, 3), (7, 2)])
def test_wigner_matches_the_phase_point_contraction(d, n):
    rho = haar_random_state(QuditSystem(d, n), np.random.default_rng(10 * d + n))
    assert np.max(np.abs(discrete_wigner(rho).values - dense_wigner(rho))) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_normalization_residual_reads_the_trace(d):
    s = QuditSystem(d, 2)
    x = x_distribution(haar_random_state(s, np.random.default_rng(d)))
    for c in (0.0, 0.5, 2.0, -1.5):
        scaled = QuasiDistribution(s, Domain.RESTRICTED, c * x.values)
        assert abs(normalization_residual(scaled) - abs(c - 1.0)) < 1e-12


def test_renyi_monotone_under_alpha():
    rho = t_state()
    # M_alpha decreases in alpha for this state family
    vals = [stabilizer_renyi(rho, a) for a in (0.5, 2.0, 3.0, 4.0)]
    assert all(x > y - 1e-12 for x, y in zip(vals, vals[1:]))


class _Uniforms:
    """A stub generator that hands out the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, count):
        assert count == len(self.uniforms)
        return self.uniforms


def _draw_at(source, positions):
    """The input draw whose uniforms land at ``positions`` among the kept labels:
    cdf[p - 1] (0 at p = 0) is the least uniform that the inverse CDF sends to p."""
    return source.draw(_Uniforms(np.where(positions > 0, source.cdf[positions - 1], 0.0)), len(positions))


def test_an_entry_at_the_cutoff_is_kept_alike_everywhere(monkeypatch):
    # |v| >= NORM_CUTOFF counts as nonzero in the norms, the input draw and the frame columns
    table = np.array([[0.5, measures.NORM_CUTOFF], [0.25, 0.0]])
    assert lp_norm(table, 1.0) > 0.75
    source = measures._InputLabels(table)
    digits, units, ids = _draw_at(source, np.arange(len(source.cdf)))
    assert np.ravel_multi_index(digits, table.shape).tolist() == [0, 1, 2] and ids.tolist() == [0, 1, 2]
    assert source.norm > 0.75 and units[1] == source.norm
    # a stubbed contraction hands the frame kernel the table times d^n = 2, which it divides out exactly
    monkeypatch.setattr(sampling, "_contract_stack", lambda system, stack, mats: np.array([2 * table], dtype=complex))
    rows = sampling._columns(QuditSystem(2, 1), False, np.eye(2), np.arange(1))
    assert rows.tolist() == [table.ravel().tolist()]


def test_an_all_zero_table_has_norm_zero_and_no_input_draw():
    table = np.zeros((3, 3))
    table[0, 1] = measures.NORM_CUTOFF / 2  # dropped by the zero rule
    assert lp_norm(table, 1.0) == 0.0 and lp_norm(table, 0.5) == 0.0
    with pytest.raises(ValidationError):
        measures._InputLabels(table)


def _haar_table(table, d, n, domain=Domain.RESTRICTED, seed=0):
    return table(haar_random_state(QuditSystem(d, n), np.random.default_rng([d, n, seed])), domain).values


@pytest.mark.parametrize("domain", list(Domain))
@pytest.mark.parametrize("table", [x_distribution, characteristic_fn], ids=["x", "chi"])
@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_the_input_labels_hold_the_tables_norms_cdf_and_digits(d, n, table, domain):
    values = _haar_table(table, d, n, domain)
    source = measures._InputLabels(values)
    mags = np.abs(values).ravel()
    kept = mags >= measures.NORM_CUTOFF
    # the draw's norm sums the zeroed full table
    assert source.norm == float(np.sum(np.where(kept, mags, 0.0)))
    assert source.cdf[-1] == 1.0
    assert np.allclose(source.cdf, np.cumsum(mags[kept]) / np.sum(mags[kept]), rtol=0, atol=1e-14)
    # a draw at every position gives every kept label, ascending, and no other
    every = np.arange(len(source.cdf))
    digits, _, ids = _draw_at(source, every)
    assert np.array_equal(ids, every)
    assert digits.dtype == np.min_scalar_type(values.shape[0] - 1)
    assert np.array_equal(digits, np.indices(values.shape).reshape(2 * n, -1)[:, kept])
    # the distinct labels drawn ascend, and each draw's index points at its own
    some, _, ids = _draw_at(source, np.array([2, 0, 2]))
    assert np.array_equal(some, digits[:, [0, 2]]) and ids.tolist() == [1, 0, 1]


@pytest.mark.parametrize("table", [x_distribution, characteristic_fn], ids=["x", "chi"])
@pytest.mark.parametrize("domain", list(Domain))
def test_input_units_have_modulus_norm_and_the_sign_of_the_table(table, domain):
    values = _haar_table(table, 3, 2, domain)
    source = measures._InputLabels(values)
    v = values.ravel()[np.abs(values).ravel() >= measures.NORM_CUTOFF]
    _, units, _ = _draw_at(source, np.arange(len(source.cdf)))
    assert np.allclose(np.abs(units), source.norm, rtol=1e-15, atol=0)
    if np.isrealobj(values):
        assert np.array_equal(np.sign(units), np.sign(v)) and np.all(np.abs(units) == source.norm)
    else:
        assert np.allclose(units / source.norm, v / np.abs(v), rtol=0, atol=1e-15)
    _, some, ids = _draw_at(source, np.array([3, 1]))
    assert np.array_equal(some, units[[1, 3]]) and ids.tolist() == [1, 0]


def test_the_input_cdf_ends_at_exactly_one_where_the_pairwise_norm_is_larger():
    # the pairwise sum (the weight) exceeds cumsum's last entry by an ulp here,
    # so cumsum / norm would end below the top uniform and draw past the kept labels
    values = np.random.default_rng(3).normal(size=(4, 4))
    source = measures._InputLabels(values)
    assert source.norm > np.cumsum(np.abs(values))[-1]
    assert source.cdf[-1] == 1.0 and np.all(np.diff(source.cdf) >= 0)
    # the largest double below 1 draws the last kept label
    digits, _, ids = source.draw(_Uniforms(np.full(5, np.nextafter(1.0, 0.0))), 5)
    last = np.flatnonzero(np.abs(values).ravel() >= measures.NORM_CUTOFF)[-1]
    assert digits.T.tolist() == [list(np.unravel_index(last, values.shape))] and ids.tolist() == [0] * 5


@pytest.mark.parametrize("n, domain", [(2, Domain.RESTRICTED), (1, Domain.FULL)])
def test_the_input_draw_has_the_law_of_the_table(n, domain):
    values = _haar_table(x_distribution, 2, n, domain)
    source = measures._InputLabels(values)
    draws = 100_000
    digits, _, ids = source.draw(measures._stream_rng(1), draws)
    counts = np.bincount(np.ravel_multi_index(digits, values.shape)[ids], minlength=values.size)
    mags = np.abs(values).ravel()
    kept = mags >= measures.NORM_CUTOFF
    assert not counts[~kept].any()
    assert stats.chisquare(counts[kept], draws * mags[kept] / np.sum(mags[kept])).pvalue > 1e-3


def test_lp_norm_rejects_nonpositive_p():
    s = QuditSystem(2, 1)
    dist = x_distribution(plus_state(s))
    with pytest.raises(ValidationError):
        lp_norm(dist, 0.0)
    with pytest.raises(ValidationError):
        lp_norm(dist, -1.0)


def test_renyi_rejects_alpha_one():
    with pytest.raises(ValidationError):
        stabilizer_renyi(t_state(), 1.0)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
def test_orders_must_be_finite(order):
    dist = x_distribution(t_state())
    with pytest.raises(ValidationError):
        lp_norm(dist, order)
    with pytest.raises(ValidationError):
        stabilizer_renyi(t_state(), order)


def test_an_all_kept_table_builds_its_draw_in_one_magnitude_array():
    # every entry kept: positions are the flat labels, so no index array is stored, and the
    # cumsum runs in place over the magnitudes; a draw reads labels and units at its distinct positions
    values = _haar_table(x_distribution, 2, 5, Domain.FULL)  # 4^10 entries, 8 MiB
    assert np.all(np.abs(values) >= measures.NORM_CUTOFF)
    pos = np.array([7, 2, 7])
    tracemalloc.start()
    try:
        source = measures._InputLabels(values)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        digits, units, ids = _draw_at(source, pos)
        read = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the magnitudes (the cdf), the kept mask (a byte per entry) and numpy's 64 KiB cast buffer
    assert build <= values.nbytes + values.size + (128 << 10)
    assert read < 16 << 10
    assert source._nz is None and len(source.cdf) == values.size
    assert np.array_equal(digits, np.array(np.unravel_index([2, 7], values.shape))) and ids.tolist() == [1, 0, 1]
    assert np.array_equal(units, source.norm * np.sign(values.ravel()[[2, 7]]))

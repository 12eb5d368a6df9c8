"""Stabilizer groups: construction, enumeration, sparse coefficients."""

import numpy as np
import pytest

from quditphase import (
    DensityState,
    Domain,
    QuditSystem,
    StabilizerGroup,
    ValidationError,
    enumerate_single_qudit_groups,
    enumerate_single_qudit_stabilizers,
    format_generator_lines,
    lp_norm,
    parse_generator_lines,
    stabilizer_state,
    stabilizer_x_sparse,
    x_distribution,
)
import quditphase.stabilizer as stabilizer_module
from quditphase.core import InvariantError
from quditphase.stabilizer import DependentGenerators, NonCommutingGenerators, generator_phases

from dense_reference import dense_stabilizer_state

ENUM_COUNTS = {2: 6, 3: 12, 4: 24, 5: 30, 6: 72, 8: 96, 9: 108, 10: 180, 12: 288}
# cyclic subgroups of Z_d^2 of order d: d prod_{p | d} (1 + 1/p)
CYCLIC_COUNTS = {6: 12, 8: 12, 9: 12, 10: 18, 12: 24, 16: 24}
COMPOSITE = [6, 8, 9, 10, 12]


def test_d4_enumeration_misses_the_joint_eigenstates_of_x2_and_z2():
    system = QuditSystem(4, 1)
    x2 = np.roll(np.eye(4), 2, axis=0)
    z2 = np.diag([1.0, -1.0, 1.0, -1.0])
    listed = enumerate_single_qudit_stabilizers(4)
    for a in (1, -1):
        for b in (1, -1):
            rho = DensityState(system, (np.eye(4) + a * x2) @ (np.eye(4) + b * z2) / 4)
            assert abs(rho.purity() - 1) < 1e-12
            assert all(np.max(np.abs(rho.matrix - other.matrix)) > 1e-6 for other in listed)
            assert abs(lp_norm(x_distribution(rho, Domain.RESTRICTED), 1) - 1) < 1e-12


def cyclic_subgroups(d):
    """Every subgroup <g> of Z_d^2 of order d, by brute force over all g."""
    spans = ({((k * a) % d, (k * b) % d) for k in range(d)} for a in range(d) for b in range(d))
    return {frozenset(span) for span in spans if len(span) == d}


@pytest.mark.parametrize("d", range(2, 17))
def test_enumeration_lists_each_cyclic_subgroup_once_with_d_phases(d):
    expected = cyclic_subgroups(d)
    assert len(expected) == CYCLIC_COUNTS.get(d, len(expected))
    groups = enumerate_single_qudit_groups(d)
    assert len(groups) == d * len(expected)
    phases = {}
    for group in groups:
        (a, b), = group.generators
        phases.setdefault(frozenset(((k * a) % d, (k * b) % d) for k in range(d)), set()).add(generator_phases(group))
    assert set(phases) == expected
    assert all(found == {(c,) for c in range(d)} for found in phases.values())


@pytest.mark.parametrize("d", [1009, 4096])
def test_enumeration_refuses_a_list_past_the_bound(d):
    assert stabilizer_module.MAX_ENUMERATED_GROUPS == 10**6
    with pytest.raises(ValidationError, match="MAX_ENUMERATED_GROUPS = 1000000"):
        enumerate_single_qudit_groups(d)


def random_group(system, rng, word_length=12):
    """Z-type generators pushed through a seeded word of symplectic moves."""
    d, n = system.d, system.n
    gens = np.zeros((n, 2 * n), dtype=np.int64)
    gens[np.arange(n), n + np.arange(n)] = 1
    for _ in range(word_length):
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
    phase_vector = tuple(int(v) for v in rng.integers(d, size=2 * n))
    return StabilizerGroup(system, tuple(map(tuple, gens.tolist())), phase_vector)


@pytest.mark.parametrize("d", [2, 3, 4, 5] + COMPOSITE)
def test_enumeration_count(d):
    states = enumerate_single_qudit_stabilizers(d)
    assert len(states) == ENUM_COUNTS[d]
    # all pure, pairwise distinct
    for rho in states:
        assert abs(rho.purity() - 1) < 1e-9
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            assert np.max(np.abs(a.matrix - b.matrix)) > 1e-6


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sparse_matches_dense_on_all_enumerated(d):
    for group in enumerate_single_qudit_groups(d):
        for shift in range(d):
            g = StabilizerGroup(
                group.system, group.generators, ((shift,) + (0,) * (2 * group.system.n - 1))
            )
            sparse = stabilizer_x_sparse(g)
            dense = x_distribution(dense_stabilizer_state(g), Domain.FULL)
            assert np.max(np.abs(sparse.values - dense.values)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5] + COMPOSITE)
def test_sparse_support_structure(d):
    for group in enumerate_single_qudit_groups(d):
        sparse = stabilizer_x_sparse(group)
        mags = np.abs(sparse.values.ravel())
        nz = mags[mags > 1e-12]
        assert len(nz) == 4 * d  # (4d)^n on the doubled domain, n = 1
        assert np.allclose(nz, 1.0 / d, atol=1e-12)
        restr = sparse.restricted_view()
        rn = np.abs(restr.ravel())
        assert (rn > 1e-12).sum() == d  # d^n restricted points
        assert abs(lp_norm(restr, 1.0) - 1.0) < 1e-12


def test_bell_pair_sparse_and_dense():
    s = QuditSystem(2, 2)
    group = StabilizerGroup(s, ((1, 1, 0, 0), (0, 0, 1, 1)), (0, 0, 0, 0))
    rho = stabilizer_state(group)
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    assert np.allclose(rho.matrix, np.outer(vec, vec), atol=1e-12)
    sparse = stabilizer_x_sparse(group)
    dense = x_distribution(dense_stabilizer_state(group), Domain.FULL)
    assert np.max(np.abs(sparse.values - dense.values)) < 1e-10


def test_qutrit_pair_sparse_and_dense():
    s = QuditSystem(3, 2)
    group = StabilizerGroup(s, ((1, 2, 0, 0), (0, 0, 1, 1)), (0, 2, 1, 0))
    sparse = stabilizer_x_sparse(group)
    dense = x_distribution(dense_stabilizer_state(group), Domain.FULL)
    assert np.max(np.abs(sparse.values - dense.values)) < 1e-10


def test_composite_dimension_single_generator():
    s = QuditSystem(6, 1)
    group = StabilizerGroup(s, ((1, 1),), (0, 0))
    sparse = stabilizer_x_sparse(group)
    dense = x_distribution(dense_stabilizer_state(group), Domain.FULL)
    assert np.max(np.abs(sparse.values - dense.values)) < 1e-10


def test_phase_vectors_resolve_orthogonal_states():
    s = QuditSystem(3, 1)
    group = StabilizerGroup(s, ((0, 1),), (0, 0))
    total = np.zeros((3, 3), dtype=complex)
    states = []
    for shift in range(3):
        g = StabilizerGroup(s, group.generators, (shift, 0))
        states.append(stabilizer_state(g).matrix)
        total += states[-1]
    assert np.allclose(total, np.eye(3), atol=1e-10)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(np.trace(states[i] @ states[j])) < 1e-10


def test_noncommuting_generators_rejected():
    # X and Z on the first qubit anticommute
    with pytest.raises(NonCommutingGenerators):
        StabilizerGroup(QuditSystem(2, 2), ((1, 0, 0, 0), (0, 0, 1, 0)), (0,) * 4)
    # X1 and X2 commute, and each anticommutes with Z1 Z2: the first clash is (0, 2)
    with pytest.raises(NonCommutingGenerators, match="generators 0 and 2 do not commute"):
        StabilizerGroup(QuditSystem(2, 3), ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0)), (0,) * 6)
    # wrong generator count
    with pytest.raises(ValidationError):
        StabilizerGroup(QuditSystem(2, 1), ((1, 0), (0, 1)), (0, 0))


def test_dependent_generators_rejected():
    s = QuditSystem(3, 2)
    with pytest.raises(DependentGenerators):
        StabilizerGroup(s, ((1, 0, 0, 0), (2, 0, 0, 0)), (0,) * 4)


def test_generator_text_roundtrip():
    s = QuditSystem(4, 2)
    group = StabilizerGroup(s, ((1, 0, 0, 1), (0, 1, 1, 0)), (1, 0, 3, 0))
    text = format_generator_lines(group)
    back = parse_generator_lines(s, text)
    assert back.generators == group.generators
    # the text stores eigenvalue exponents, not the raw phase vector
    assert np.max(np.abs(stabilizer_state(back).matrix - stabilizer_state(group).matrix)) < 1e-9


@pytest.mark.parametrize("d, n", [(4, 3), (6, 3), (6, 4), (12, 2)])
@pytest.mark.parametrize("seed", range(5))
def test_generator_text_roundtrip_on_clifford_words(d, n, seed):
    # composite d: at (6, 4) the phase constraints of seed 4 cannot be
    # solved by row reduction with unit pivots alone
    group = random_group(QuditSystem(d, n), np.random.default_rng(seed))
    back = parse_generator_lines(group.system, format_generator_lines(group))
    assert back.generators == group.generators
    assert generator_phases(back) == generator_phases(group)


def test_sparse_matches_dense_at_composite_d():
    group = random_group(QuditSystem(6, 3), np.random.default_rng(5))
    sparse = stabilizer_x_sparse(group)
    dense = x_distribution(dense_stabilizer_state(group), Domain.FULL)
    assert np.max(np.abs(sparse.values - dense.values)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_state_matches_the_projector_product_on_enumerated_groups(d):
    for group in enumerate_single_qudit_groups(d):
        dev = np.max(np.abs(stabilizer_state(group).matrix - dense_stabilizer_state(group).matrix))
        assert dev < 1e-12


@pytest.mark.parametrize("d, n, seeds", [
    (2, 4, range(4)), (3, 3, range(4)), (4, 3, range(4)), (6, 3, range(4)), (12, 2, range(4)), (6, 4, [5]),
])
def test_state_matches_the_projector_product_on_clifford_words(d, n, seeds):
    for seed in seeds:
        group = random_group(QuditSystem(d, n), np.random.default_rng(seed))
        dev = np.max(np.abs(stabilizer_state(group).matrix - dense_stabilizer_state(group).matrix))
        assert dev < 1e-12


@pytest.mark.parametrize("d, n", [(2, 1), (3, 2), (4, 2)])
def test_corrupted_group_table_fails_the_generator_certificate(monkeypatch, d, n):
    table = stabilizer_module._group_table

    def flipped(group):
        labels, phases = table(group)
        phases = phases.copy()
        phases[-1] = -phases[-1]
        return labels, phases

    group = random_group(QuditSystem(d, n), np.random.default_rng(0))
    monkeypatch.setattr(stabilizer_module, "_group_table", flipped)
    with pytest.raises(InvariantError):
        stabilizer_state(group)


def test_inconsistent_phases_have_no_phase_vector():
    # X twice with different eigenvalues: dependent rows, conflicting phases
    with pytest.raises(ValidationError, match="no phase vector"):
        parse_generator_lines(QuditSystem(3, 2), "1,0|0,0|0\n2,0|0,0|1\n")


def test_parse_skips_comments_and_blanks():
    s = QuditSystem(2, 1)
    group = parse_generator_lines(s, "# plus state\n\n1|0|0\n")
    assert group.generators == ((1, 0),)
    rho = stabilizer_state(group)
    assert abs(rho.matrix[0, 1] - 0.5) < 1e-12


def test_parse_rejects_malformed_lines():
    s = QuditSystem(2, 1)
    with pytest.raises(ValidationError):
        parse_generator_lines(s, "1|0\n")
    with pytest.raises(ValidationError):
        parse_generator_lines(s, "1,1|0|0\n")
    with pytest.raises(ValidationError, match=r"line: 'a\|0\|0'"):
        parse_generator_lines(s, "a|0|0\n")
    with pytest.raises(ValidationError, match=r"line: '1\|0\|x'"):
        parse_generator_lines(s, "1|0|x\n")

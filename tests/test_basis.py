"""Hermitian operator basis: algebra, periodicity, Clifford covariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditphase import (
    Domain,
    EvenDimensionError,
    GateKind,
    PhasePoint,
    QuditSystem,
    SymplecticAffineMap,
    ValidationError,
    clifford_coordinate_action,
    embed_generator,
    o_operator,
    o_trace,
)
from quditphase.basis import (
    full_point,
    lift_sign,
    o_matrix,
    omega_block,
    reduce_full_point,
    restricted_point,
)

from dense_reference import a_stack, phase_point_operator, sigma_permutation


def test_qubit_basis_is_pauli_with_minus_y():
    eye = np.eye(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    y = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(o_matrix(2, 0, 0), eye, atol=1e-14)
    assert np.allclose(o_matrix(2, 1, 0), x, atol=1e-14)
    assert np.allclose(o_matrix(2, 0, 1), z, atol=1e-14)
    assert np.allclose(o_matrix(2, 1, 1), -y, atol=1e-14)


def test_antidiagonal_building_block():
    # O_{l,0} = M_l has ones exactly where row + col = l mod d
    m = o_matrix(5, 3, 0)
    for u in range(5):
        for v in range(5):
            assert m[u, v] == (1.0 if (u + v) % 5 == 3 else 0.0)


@given(st.integers(2, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_basis_hermitian_unitary_involutory(d, data):
    l = data.draw(st.integers(0, 2 * d - 1))
    m = data.draw(st.integers(0, 2 * d - 1))
    o = o_matrix(d, l, m)
    assert np.allclose(o, o.conj().T, atol=1e-12)
    assert np.allclose(o @ o, np.eye(d), atol=1e-12)


def test_restricted_orthogonality(single):
    d = single.d
    flat = [o_matrix(d, l, m) for l in range(d) for m in range(d)]
    gram = np.array([[np.trace(a @ b) for b in flat] for a in flat])
    assert np.allclose(gram, d * np.eye(d * d), atol=1e-10)


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_label_periodicity_and_lift_signs(d, data):
    l = data.draw(st.integers(0, d - 1))
    m = data.draw(st.integers(0, d - 1))
    el = data.draw(st.integers(0, 1))
    em = data.draw(st.integers(0, 1))
    base = o_matrix(d, l, m)
    lifted = o_matrix(d, l + d * el, m + d * em)
    assert np.allclose(lifted, lift_sign(d, l, m, el, em) * base, atol=1e-12)
    # full 2d periodicity in either slot
    assert np.allclose(o_matrix(d, l + 2 * d, m), base, atol=1e-12)
    assert np.allclose(o_matrix(d, l, m + 2 * d), base, atol=1e-12)


def test_shift_rule_agrees_with_dense(single):
    d = single.d
    for l in range(d):
        for m in range(d):
            for el, em in [(1, 0), (0, 1), (1, 1)]:
                assert np.allclose(
                    o_matrix(d, l + d * el, m + d * em), lift_sign(d, l, m, el, em) * o_matrix(d, l, m), atol=1e-12
                )


def test_reduce_full_point_roundtrip(single):
    d = single.d
    for l in range(2 * d):
        for m in range(2 * d):
            pt = full_point(single, (l,), (m,))
            red, sign = reduce_full_point(single, pt)
            assert red.modulus == d
            assert np.allclose(
                o_matrix(d, l, m),
                sign * o_matrix(d, red.l[0], red.m[0]),
                atol=1e-12,
            )


def test_o_trace_closed_form(single):
    d = single.d
    for l in range(2 * d):
        for m in range(2 * d):
            pt = full_point(single, (l,), (m,))
            dense = np.trace(o_matrix(d, l, m))
            assert abs(o_trace(single, pt) - dense) < 1e-10


@pytest.mark.parametrize("factors", [1, 3])
def test_point_functions_check_the_factor_count(factors):
    system = QuditSystem(2, 2)
    points = (restricted_point(system, (0,) * factors, (0,) * factors), full_point(system, (1,) * factors, (3,) * factors))
    for point in points:
        for call in (o_operator, o_trace, reduce_full_point):
            with pytest.raises(ValidationError, match="factors"):
                call(system, point)


def test_tensor_basis_trace():
    sys2 = QuditSystem(3, 2)
    pt = full_point(sys2, (1, 0), (2, 0))
    op = o_operator(sys2, pt).entries
    assert abs(np.trace(op) - o_trace(sys2, pt)) < 1e-10
    assert np.allclose(op, op.conj().T, atol=1e-12)


@pytest.mark.parametrize("kind", list(GateKind))
def test_coordinate_action_matches_conjugation(single, kind):
    d = single.d
    n = 2 if kind is GateKind.SUM else 1
    system = QuditSystem(d, n)
    amap = clifford_coordinate_action(system, kind)
    u = embed_generator(system, kind).entries
    rng = np.random.default_rng(17)
    for _ in range(6):
        vec = rng.integers(0, 2 * d, size=2 * n)
        pt = PhasePoint.from_vector(vec, 2 * d)
        lhs = u @ o_operator(system, pt).entries @ u.conj().T
        rhs = o_operator(system, amap.apply(pt)).entries
        assert np.allclose(lhs, rhs, atol=1e-10), (kind, vec)


@pytest.mark.parametrize("kind", list(GateKind))
def test_coordinate_action_is_symplectic(single, kind):
    n = 2 if kind is GateKind.SUM else 1
    system = QuditSystem(single.d, n)
    amap = clifford_coordinate_action(system, kind)
    om = omega_block(n)
    assert not np.any((amap.matrix.T @ om @ amap.matrix - om) % (2 * single.d))


def test_affine_map_compose_and_identity():
    s = QuditSystem(3, 1)
    f = clifford_coordinate_action(s, GateKind.FOURIER)
    ident = SymplecticAffineMap.identity(1, 6)
    assert np.array_equal(f.compose(ident).matrix, f.matrix)
    assert f.n == ident.n == 1 and SymplecticAffineMap.identity(3, 6).n == 3
    # F^4 = identity on labels
    f4 = f.compose(f).compose(f).compose(f)
    assert np.array_equal(f4.matrix % 6, np.eye(2, dtype=int))
    assert not np.any(f4.shift % 6)


def test_affine_map_rejects_non_symplectic():
    with pytest.raises(ValidationError):
        SymplecticAffineMap(np.array([[1, 0], [0, 2]]), np.zeros(2, dtype=int), 6)


def test_phase_point_operators_odd():
    s = QuditSystem(3, 1)
    total = np.zeros((3, 3), dtype=complex)
    for a1 in range(3):
        for a2 in range(3):
            pt = restricted_point(s, (a1,), (a2,))
            a = phase_point_operator(s, pt).entries
            assert np.allclose(a, a.conj().T, atol=1e-12)
            assert abs(np.trace(a) - 1) < 1e-12
            total += a
    assert np.allclose(total, 3 * np.eye(3), atol=1e-12)


def test_phase_point_operator_rejects_even_d():
    with pytest.raises(EvenDimensionError):
        a_stack(4)


def test_sigma_is_a_permutation():
    for d in (3, 5):
        perm = sigma_permutation(d)
        assert sorted(perm.keys()) == sorted(perm.values())
        assert len(perm) == d * d
        # the closed form the library's Wigner relabel uses
        half = pow(2, -1, d)
        assert all(perm[a] == ((half * a[0]) % d, (-half * a[1]) % d) for a in perm)


def test_domain_enum_values():
    assert Domain("RESTRICTED") is Domain.RESTRICTED
    assert Domain("FULL") is Domain.FULL

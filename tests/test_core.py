"""Displacement-operator algebra and dense gate construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditphase import (
    CircuitDescription,
    DenseOperator,
    DensityState,
    DimensionCapError,
    GateKind,
    GaussianCircuit,
    MeasurementEffect,
    MeasurementKind,
    QuditSystem,
    ValidationError,
    clifford_coordinate_action,
    clifford_generator,
    computational_state,
    conjugate_by,
    embed_generator,
    logical_clifford_symplectic,
    maximally_mixed,
    plus_state,
    pure_density,
    t_state,
)
from quditphase import core
from quditphase.core import DIM_CAP_ENV_VAR, hw_matrix

# Hand-computed single-qubit displacement operators. P(1,1) carries the
# half phase i, so it lands exactly on Y.
PAULI_2 = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def test_qubit_displacements_match_pauli_matrices():
    for (a, b), expect in PAULI_2.items():
        assert np.allclose(hw_matrix(2, a, b), expect, atol=1e-15)


def test_shift_and_clock_qutrit():
    x = hw_matrix(3, 1, 0)
    z = hw_matrix(3, 0, 1)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(x, np.roll(np.eye(3), 1, axis=0))
    assert np.allclose(z, np.diag([1, w, w**2]))
    # ZX = w XZ
    assert np.allclose(z @ x, w * (x @ z))


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_displacement_composition_rule(d, data):
    a1 = data.draw(st.integers(0, d - 1))
    b1 = data.draw(st.integers(0, d - 1))
    a2 = data.draw(st.integers(0, d - 1))
    b2 = data.draw(st.integers(0, d - 1))
    lhs = hw_matrix(d, a1, b1) @ hw_matrix(d, a2, b2)
    # P(u)P(v) is P(u+v) up to a root of unity of order 2d
    prod = hw_matrix(d, (a1 + a2) % d, (b1 + b2) % d)
    ratios = lhs[np.abs(prod) > 1e-12] / prod[np.abs(prod) > 1e-12]
    assert np.allclose(ratios, ratios[0], atol=1e-12)
    assert abs(abs(ratios[0]) - 1) < 1e-12
    assert abs(ratios[0] ** (2 * d) - 1) < 1e-9


@given(st.integers(2, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_displacement_power_d_is_identity(d, data):
    a = data.draw(st.integers(0, d - 1))
    b = data.draw(st.integers(0, d - 1))
    p = hw_matrix(d, a, b)
    acc = np.eye(d, dtype=complex)
    for _ in range(d):
        acc = acc @ p
    assert np.allclose(acc, np.eye(d), atol=1e-12)


def test_trace_orthogonality(single):
    d = single.d
    for a1 in range(d):
        for b1 in range(d):
            for a2 in range(d):
                for b2 in range(d):
                    got = np.trace(hw_matrix(d, a2, b2).conj().T @ hw_matrix(d, a1, b1))
                    want = d if (a1, b1) == (a2, b2) else 0.0
                    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("kind", list(GateKind))
def test_clifford_generators_unitary(single, kind):
    if kind is GateKind.SUM:
        sys2 = QuditSystem(single.d, 2)
        u = embed_generator(sys2, kind).entries
    else:
        u = clifford_generator(single, kind).entries
    assert np.allclose(u @ u.conj().T, np.eye(len(u)), atol=1e-12)


def test_fourier_exchanges_shift_and_clock(single):
    f = clifford_generator(single, GateKind.FOURIER)
    x = clifford_generator(single, GateKind.SHIFT)
    z = clifford_generator(single, GateKind.CLOCK)
    assert np.allclose(conjugate_by(f, x).entries, z.entries, atol=1e-12)
    assert np.allclose(
        conjugate_by(f, z).entries, x.entries.conj().T, atol=1e-12
    )


def test_embed_single_acts_on_target_only():
    sys2 = QuditSystem(2, 2)
    f = embed_generator(sys2, GateKind.FOURIER, (1,)).entries
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(f, np.kron(np.eye(2), h), atol=1e-12)


def test_sum_gate_on_basis_states():
    sys2 = QuditSystem(3, 2)
    for u in (embed_generator(sys2, GateKind.SUM, (0, 1)).entries, clifford_generator(sys2, GateKind.SUM).entries):
        for c in range(3):
            for t in range(3):
                src = np.zeros(9)
                src[3 * c + t] = 1.0
                out = u @ src
                assert abs(out[3 * c + (c + t) % 3] - 1) < 1e-12
    with pytest.raises(ValidationError):
        clifford_generator(QuditSystem(3, 1), GateKind.SUM)


def test_state_constructors(single):
    d = single.d
    assert abs(computational_state(single, 0).purity() - 1) < 1e-12
    assert abs(plus_state(single).purity() - 1) < 1e-12
    assert abs(maximally_mixed(single).purity() - 1 / d) < 1e-12
    vec = np.ones(d) / np.sqrt(d)
    assert np.allclose(pure_density(single, vec).matrix, plus_state(single).matrix)


def test_t_state_is_qubit_only():
    rho = t_state().matrix
    assert abs(np.trace(rho) - 1) < 1e-12
    # equatorial magic state, Bloch vector (1,1,0)/sqrt(2)
    assert abs(rho[0, 1] - (1 - 1j) / (2 * np.sqrt(2))) < 1e-12
    with pytest.raises(ValidationError):
        t_state(QuditSystem(3, 1))


def test_dimension_cap(monkeypatch):
    with pytest.raises(DimensionCapError):
        QuditSystem(2, 40)
    monkeypatch.setenv(DIM_CAP_ENV_VAR, "8")
    QuditSystem(2, 3)
    with pytest.raises(DimensionCapError):
        QuditSystem(2, 4)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        QuditSystem(1, 1)
    with pytest.raises(ValidationError):
        QuditSystem(2, 0)
    s = QuditSystem(2, 1)
    with pytest.raises(ValidationError):
        pure_density(s, [0.0, 0.0])


@pytest.mark.parametrize(
    "build",
    [
        lambda: DenseOperator(QuditSystem(2, 1), [[np.nan, 0], [0, 1]]),
        lambda: DenseOperator(QuditSystem(2, 1), [[1, 0], [0, np.nan]], unitary=True),
        lambda: DensityState(QuditSystem(2, 1), [[np.nan, 0], [0, 1]]),
        lambda: DensityState(QuditSystem(2, 1), [[1, np.inf], [np.inf, 0]]),
        lambda: computational_state(QuditSystem(2, 1), -3),
        lambda: computational_state(QuditSystem(3, 2), 9),
        lambda: QuditSystem(2, 10**12),
    ],
    ids=["nan-operator", "nan-unitary", "nan-density", "inf-density", "negative-basis-index",
         "basis-index-past-dim", "qudit-count-far-past-cap"],
)
def test_out_of_range_inputs_are_rejected(build):
    with pytest.raises(ValidationError):
        build()


def test_pure_density_normalizes():
    s = QuditSystem(2, 1)
    assert np.allclose(pure_density(s, [1.0, 1.0]).matrix, plus_state(s).matrix)


@pytest.mark.parametrize("build", [embed_generator, clifford_coordinate_action, logical_clifford_symplectic])
@pytest.mark.parametrize(
    "kind, targets",
    [(GateKind.FOURIER, (0, 1)), (GateKind.PHASE, (0, 1)), (GateKind.SUM, (0,)), (GateKind.SUM, (1, 1)),
     (GateKind.SHIFT, (2,)), (GateKind.SUM, (0, -1)), (GateKind.FOURIER, 1), (GateKind.SUM, 0),
     (GateKind.PHASE, (0.5,))],
    ids=["fourier-two-targets", "phase-two-targets", "sum-one-target", "sum-repeated-target",
         "shift-out-of-range", "sum-negative-target", "fourier-bare-int", "sum-bare-int",
         "phase-fractional-target"],
)
def test_wrong_gate_targets_are_validation_errors(build, kind, targets):
    with pytest.raises(ValidationError):
        build(QuditSystem(2, 2), kind, targets)


QUBIT = QuditSystem(2, 1)
ARRAY_HOLDERS = {
    "operator": lambda: DenseOperator(QUBIT, np.eye(2)),
    "state": lambda: computational_state(QUBIT, 0),
    "gaussian-circuit": lambda: GaussianCircuit(QUBIT, np.eye(2), np.zeros(2)),
    "explicit-effect": lambda: MeasurementEffect(MeasurementKind.EXPLICIT, operator=DenseOperator(QUBIT, np.diag([1.0, 0.0]))),
    "circuit": lambda: CircuitDescription(
        QUBIT, computational_state(QUBIT, 0), ((GateKind.FOURIER, (0,)),),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)),
    ),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(build):
    # an array-valued field has no single truth value, so == and hash go by identity
    # (a container compares such a field by identity too)
    obj, twin = build(), build()
    assert obj == obj and obj != twin
    assert obj in [twin, obj] and twin not in [obj]
    assert hash(obj) == hash(obj) and len({obj, twin}) == 2


def _full_hermiticity_message(entries):
    """The one-shot check against A^dagger in full: its message, or None where it passes."""
    dev = np.max(np.abs(entries - entries.conj().T))
    return f"hermiticity violated by {dev:.3e}" if dev > 1e-9 else None


@pytest.mark.parametrize("side", [5, 1100], ids=["one-block", "five-blocks"])
@pytest.mark.parametrize("off", [0.0, 1e-7], ids=["hermitian", "off-by-1e-7"])
def test_the_blocked_hermiticity_check_matches_the_full_one(side, off):
    # 1100 rows are 4 blocks of 238 and one of 148; the perturbed entry sits in the last block
    rng = np.random.default_rng(side)
    b = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    entries = b + b.conj().T
    entries[side - 1, 2] += off
    want = _full_hermiticity_message(entries)
    if want is None:
        core._check_hermitian(entries)
    else:
        with pytest.raises(ValidationError) as info:
            core._check_hermitian(entries)
        assert str(info.value) == want


def test_the_hermiticity_check_makes_no_full_size_copy():
    # a 2048 x 2048 complex matrix is 64 MiB; the check works in row blocks of about 4 MiB
    side = 2048
    entries = np.zeros((side, side), dtype=complex)
    entries[np.arange(side), np.arange(side)] = 1.0
    tracemalloc.start()
    try:
        core._check_hermitian(entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20

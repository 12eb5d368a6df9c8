"""Exact reads at the library boundary.

Every label, count, size and seed goes through ``core._as_int``: Python
and numpy integers pass, while bool, float and str raise ValidationError
and are never truncated. Every kind name is read once, at construction,
and a name that is not a member raises. Norms hold at every order that
``check_order`` accepts, and the unflagged checks of gates and effects
build no identity and no throwaway operator.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from quditphase import (
    CircuitDescription,
    DenseOperator,
    DensityState,
    Domain,
    GateKind,
    GaussianCircuit,
    GkpKind,
    GkpLatticeCoefficients,
    MeasurementEffect,
    MeasurementKind,
    PhasePoint,
    QuasiDistribution,
    QuditSystem,
    StabilizerGroup,
    SymplecticAffineMap,
    ValidationError,
    cell_lp_norm,
    characteristic_fn,
    clifford_generator,
    computational_state,
    conjugate_by,
    embed_generator,
    estimate_born,
    estimate_born_char,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    haar_random_state,
    lp_norm,
    plus_state,
    pure_density,
    renyi_from_cell_norms,
    simulate_homodyne_batch,
    stabilizer_cell_norm,
    stabilizer_renyi,
    verify_theorem1,
    verify_theorem2,
    x_distribution,
)
from quditphase import cli
from quditphase.basis import o_matrix
from quditphase.cli import main
from quditphase.core import hw_matrix
from quditphase.gkp import _cell_sides
from quditphase.measures import random_clifford_word

QUBIT = QuditSystem(2, 1)


def _born_circuit() -> CircuitDescription:
    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,))
    return CircuitDescription(QUBIT, computational_state(QUBIT, 0), ((GateKind.FOURIER, (0,)),), effect)


# every boundary that takes a label, count, size or seed, each called with
# the value 2 in one integer slot (every call succeeds with the int 2)
ENTRY_POINTS = {
    "QuditSystem d": lambda v: QuditSystem(v, 1),
    "QuditSystem n": lambda v: QuditSystem(2, v),
    "gate target": lambda v: embed_generator(QuditSystem(2, 3), GateKind.FOURIER, (v,)),
    "SUM targets": lambda v: embed_generator(QuditSystem(2, 3), GateKind.SUM, (0, v)),
    "computational_state index": lambda v: computational_state(QuditSystem(2, 2), v),
    "PhasePoint label": lambda v: PhasePoint((v,), (0,), 4),
    "PhasePoint bare label": lambda v: PhasePoint(v, 0, 4),
    "PhasePoint modulus": lambda v: PhasePoint((0,), (1,), v),
    "PhasePoint.from_vector": lambda v: PhasePoint.from_vector([v, 1], 4),
    "SymplecticAffineMap matrix": lambda v: SymplecticAffineMap([[1, v], [0, 1]], [0, 0], 4),
    "SymplecticAffineMap shift": lambda v: SymplecticAffineMap([[1, 0], [0, 1]], [v, 0], 4),
    "SymplecticAffineMap modulus": lambda v: SymplecticAffineMap([[1, 0], [0, 1]], [0, 0], v),
    "StabilizerGroup generator": lambda v: StabilizerGroup(QuditSystem(3, 1), ((v, 1),), (0, 0)),
    "StabilizerGroup phase vector": lambda v: StabilizerGroup(QuditSystem(3, 1), ((0, 1),), (v, 0)),
    "MeasurementEffect index": lambda v: MeasurementEffect(MeasurementKind.COMPUTATIONAL, (v,), (0,)),
    "MeasurementEffect outcome": lambda v: MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (v,)),
    "estimate_born seed": lambda v: estimate_born(_born_circuit(), 0.5, 0.5, seed=v),
    "estimate_born streams": lambda v: estimate_born(_born_circuit(), 0.5, 0.5, seed=0, streams=v),
    "estimate_born_char seed": lambda v: estimate_born_char(_born_circuit(), 0.5, 0.5, seed=v),
    "simulate_homodyne_batch num_samples": lambda v: simulate_homodyne_batch(
        plus_state(QUBIT), GaussianCircuit.identity(QUBIT), v, 0),
    "simulate_homodyne_batch seed": lambda v: simulate_homodyne_batch(
        plus_state(QUBIT), GaussianCircuit.identity(QUBIT), 3, v),
    "o_matrix d": lambda v: o_matrix(v, 1, 1),
    "o_matrix l": lambda v: o_matrix(2, v, 1),
    "o_matrix m": lambda v: o_matrix(2, 1, v),
    "hw_matrix d": lambda v: hw_matrix(v, 1, 0),
    "hw_matrix a": lambda v: hw_matrix(2, v, 0),
    "hw_matrix b": lambda v: hw_matrix(2, 0, v),
    "random_clifford_word length": lambda v: random_clifford_word(QUBIT, np.random.default_rng(0), v),
}


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"], ids=["2.5", "2.0", "True", "str"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_integer_inputs_are_never_truncated(entry, bad):
    ENTRY_POINTS[entry](2)  # the int itself is valid here
    with pytest.raises(ValidationError, match="integer"):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_numpy_integers_pass(entry, kind):
    ENTRY_POINTS[entry](kind(2))


@pytest.mark.parametrize("call", [
    lambda: o_matrix(2, True, 1),  # once built O_{1,1}
    lambda: o_matrix(2, 1.5, 1),  # once an IndexError
    lambda: hw_matrix(2, 1.5, 0),  # once an IndexError
    lambda: random_clifford_word(QUBIT, np.random.default_rng(0), 2.5),  # once a TypeError
    lambda: random_clifford_word(QUBIT, np.random.default_rng(0), True),  # once a one-gate word
], ids=["o_matrix-True", "o_matrix-1.5", "hw_matrix-1.5", "word-length-2.5", "word-length-True"])
def test_label_builders_read_their_integers_exactly(call):
    with pytest.raises(ValidationError, match="integer"):
        call()


def test_reads_store_python_ints():
    system = QuditSystem(np.int64(3), np.uint8(2))
    assert (type(system.d), type(system.n)) == (int, int)
    assert system == QuditSystem(3, 2)
    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, np.array([1, 0]), range(2))
    assert (effect.indices, effect.outcomes) == ((1, 0), (0, 1))
    assert PhasePoint.from_vector(np.array([5, 6]), 4) == PhasePoint((1,), (2,), 4)


def test_non_sequences_raise_validation_errors():
    with pytest.raises(ValidationError, match="sequence"):
        embed_generator(QuditSystem(2, 2), GateKind.FOURIER, 0)
    with pytest.raises(ValidationError, match="sequence"):
        StabilizerGroup(QuditSystem(2, 1), 5, (0, 0))
    with pytest.raises(ValidationError, match="sequence"):
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, 0, 0)


def test_ranges_are_checked_by_the_same_read():
    with pytest.raises(ValidationError, match=r"lie in \[2, inf\)"):
        QuditSystem(1)
    with pytest.raises(ValidationError, match=r"lie in \[0, 4\)"):
        computational_state(QuditSystem(2, 2), 4)
    with pytest.raises(ValidationError, match=r"lie in \[0, 2\)"):
        embed_generator(QuditSystem(2, 2), GateKind.FOURIER, (2,))
    with pytest.raises(ValidationError, match=r"lie in \[0, 1\)"):
        embed_generator(QuditSystem(2, 1), GateKind.SUM)  # default targets (0, 1) on one qudit
    with pytest.raises(ValidationError, match=r"lie in \[1, inf\)"):
        estimate_born(_born_circuit(), 0.5, 0.5, seed=0, streams=0)


# ------------------------------------------------------------ kind names

def test_a_lowercase_effect_kind_raises_instead_of_reading_as_computational():
    projector = DenseOperator(QUBIT, np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError, match="MeasurementKind"):
        MeasurementEffect("explicit", operator=projector)
    effect = MeasurementEffect("EXPLICIT", operator=projector)
    assert effect.kind is MeasurementKind.EXPLICIT
    # <0|Pi_1|0> = 0; the misread effect (every trace, no projector) estimated 1.002
    circuit = CircuitDescription(QUBIT, computational_state(QUBIT, 0), (), effect)
    assert abs(estimate_born(circuit, 0.1, 0.05, seed=0).estimate) < 0.1


def test_a_lowercase_cell_kind_raises_instead_of_reading_as_characteristic():
    with pytest.raises(ValidationError, match="GkpKind"):
        stabilizer_cell_norm(QUBIT, "wigner", 1)
    wigner = stabilizer_cell_norm(QUBIT, "WIGNER", 1)
    assert wigner == stabilizer_cell_norm(QUBIT, GkpKind.WIGNER, 1)
    assert abs(wigner - 8 / math.sqrt(16 * math.pi)) < 1e-15  # 1.128; the misread gave 14.18


def test_every_kind_name_is_read_once_at_construction():
    with pytest.raises(ValidationError, match="GateKind"):
        embed_generator(QUBIT, "fourier")
    with pytest.raises(ValidationError, match="Domain"):
        x_distribution(plus_state(QUBIT), "restricted")
    table = QuasiDistribution(QUBIT, "RESTRICTED", np.zeros((2, 2)))
    assert table.domain is Domain.RESTRICTED and table.modulus == 2
    cell = GkpLatticeCoefficients(QUBIT, "WIGNER", np.zeros((4, 4)), 1.0)
    assert cell.kind is GkpKind.WIGNER
    with pytest.raises(ValidationError, match="GkpKind"):
        GkpLatticeCoefficients(QUBIT, "wigner", np.zeros((4, 4)), 1.0)


def test_circuit_stores_each_named_gate_read():
    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,))
    circuit = CircuitDescription(QUBIT, computational_state(QUBIT, 0), (("FOURIER", [0]), (GateKind.PHASE, None)),
                                 effect)
    assert circuit.gates == ((GateKind.FOURIER, (0,)), (GateKind.PHASE, (0,)))
    assert estimate_born(circuit, 0.5, 0.5, seed=0).samples_used > 0


# ------------------------------------------------- norms at extreme orders

def test_lp_norm_keeps_its_bits_where_the_plain_sum_is_normal():
    mags = np.abs(np.random.default_rng(5).standard_normal(300))
    for p in (0.5, 1.0, 2.0, 3.0, 7.5, 100.0):
        assert lp_norm(mags, p) == float(np.sum(mags**p) ** (1.0 / p))


def test_lp_norm_rescales_a_sum_beyond_the_float_range():
    assert lp_norm([0.5, 0.5], 1e308) == 0.5  # every term underflows: the plain sum read 0.0
    assert lp_norm([1e200] * 4, 2) == pytest.approx(2e200, rel=1e-15)  # every term overflows
    x = x_distribution(haar_random_state(QuditSystem(2, 5), np.random.default_rng(0)))
    top = float(np.max(np.abs(x.values)))
    assert top <= lp_norm(x, 300) <= top * x.values.size ** (1 / 300)
    with pytest.raises(ValidationError, match="float range"):
        lp_norm([1e308, 1e308], 1)
    with pytest.raises(ValidationError, match="float range"):
        lp_norm(x, 0.003)


def test_high_order_renyi_matches_the_cell_norm_route():
    rho = haar_random_state(QuditSystem(2, 5), np.random.default_rng(0))
    direct = stabilizer_renyi(rho, 400)  # every xi^400 underflows: the plain sum read inf
    assert math.isfinite(direct)
    assert abs(direct - renyi_from_cell_norms(rho, 400)) < 1e-9


def test_stabilizer_cell_norm_beyond_the_float_range_raises():
    with pytest.raises(ValidationError, match="float range"):
        stabilizer_cell_norm(QuditSystem(2, 5), GkpKind.WIGNER, 0.003)


def test_cell_sides_keep_their_bits_where_every_norm_is_in_range():
    system = QuditSystem(2, 3)
    rho = haar_random_state(system, np.random.default_rng(3))
    for p in (0.5, 1.0, 2.0, 300.0):
        x, chi = x_distribution(rho), characteristic_fn(rho)
        assert _cell_sides(rho, p, GkpKind.WIGNER) == (
            2 ** (3 * (1 - 1 / p)) * lp_norm(x, p),
            cell_lp_norm(gkp_wigner_coefficients(rho), p) / stabilizer_cell_norm(system, GkpKind.WIGNER, p))
        assert _cell_sides(rho, p, GkpKind.CHARACTERISTIC) == (
            2 ** (3 * (1 - 1 / p)) * lp_norm(chi, p),
            cell_lp_norm(gkp_char_coefficients(rho), p) / stabilizer_cell_norm(system, GkpKind.CHARACTERISTIC, p))


def test_theorems_hold_at_a_small_order_where_the_norms_overflow():
    rho = plus_state(QuditSystem(2, 5))
    with pytest.raises(ValidationError, match="float range"):
        cell_lp_norm(gkp_wigner_coefficients(rho), 0.01)  # ~1e450
    with pytest.raises(ValidationError, match="float range"):
        stabilizer_cell_norm(QuditSystem(2, 5), GkpKind.WIGNER, 0.01)  # (4d)^{n/p} = 8^500
    for kind in GkpKind:
        lhs, rhs = _cell_sides(rho, 0.01, kind)
        assert lhs == pytest.approx(1.0, rel=1e-12) and rhs == pytest.approx(1.0, rel=1e-12)
    assert verify_theorem1(rho, 0.01) < 1e-9
    assert verify_theorem2(rho, 0.01) < 1e-9
    assert renyi_from_cell_norms(rho, 0.005) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValidationError, match="precision"):
        verify_theorem1(rho, 1e-300)  # 1/p would scale the sum's rounding past any tolerance


@pytest.mark.parametrize("p, code", [("300", 0), ("0.003", 2), ("1e-300", 2)])
def test_gkp_check_at_extreme_orders(capsys, p, code):
    assert main(["gkp-check", "--d", "2", "--n", "5", "--p", p, "--samples", "1"]) == code
    doc = json.loads(capsys.readouterr().out)
    if code:
        assert doc["error"]["type"] == "validation"
    else:
        assert doc["max_residual"] < 1e-9  # both sides 0.9885: no false violation


def test_gkp_check_fails_a_nan_residual(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_cell_sides", lambda rho, p, kind: (math.nan, 1.0))
    assert main(["gkp-check", "--d", "2", "--samples", "1"]) == 3
    assert "invariant" in capsys.readouterr().out


def test_an_unreadable_dim_cap_is_a_validation_error_that_names_it(monkeypatch, capsys):
    monkeypatch.setenv("QUDITPHASE_DIM_CAP", "abc")
    with pytest.raises(ValidationError, match="QUDITPHASE_DIM_CAP must be an integer, got 'abc'"):
        QuditSystem(2, 1)
    assert main(["measure", "--d", "2"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "validation" and "QUDITPHASE_DIM_CAP" in error["message"]


# ------------------------------------------------------- in-place checks

def _peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_unflagged_checks_build_no_identity_and_no_throwaway_operator():
    system = QuditSystem(2, 10)
    matrix = np.eye(system.dim, dtype=complex)  # 16 MiB
    # the stored copy only: an identity beside it made 24 MiB
    assert _peak_mib(lambda: DenseOperator(system, matrix)) < 20
    gate = DenseOperator(system, matrix)
    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,))
    rho = computational_state(system, 0)
    # U U^dagger and its conjugate; a throwaway DenseOperator with its identity made 56 MiB
    assert _peak_mib(lambda: CircuitDescription(system, rho, (gate,), effect)) < 40
    explicit = MeasurementEffect(MeasurementKind.EXPLICIT, operator=gate)
    assert _peak_mib(lambda: explicit.validate(system)) < 40


def test_in_place_checks_keep_their_tolerances_and_messages():
    with pytest.raises(ValidationError, match="unitarity violated by"):
        CircuitDescription(QUBIT, computational_state(QUBIT, 0), (DenseOperator(QUBIT, np.diag([1.0, 1.1])),),
                           MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)))
    near = DenseOperator(QUBIT, np.diag([1.0, np.exp(1e-10j)]))
    CircuitDescription(QUBIT, computational_state(QUBIT, 0), (near,),
                       MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)))
    skew = DenseOperator(QUBIT, [[0.5, 1e-8], [0, 0.5]])
    with pytest.raises(ValidationError, match="hermiticity violated by"):
        MeasurementEffect(MeasurementKind.EXPLICIT, operator=skew).validate(QUBIT)


# outside inputs whose rejections no other test reaches
PAIR = QuditSystem(2, 2)
IDENTITY_MAP = np.eye(2, dtype=int)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DensityState(QUBIT, [[0.5, 0.1], [0.0, 0.5]]), "hermiticity violated by"),
        (lambda: DensityState(QUBIT, np.eye(2)), "trace"),
        (lambda: DensityState(QUBIT, np.diag([1.5, -0.5])), "eigenvalue"),
        (lambda: DensityState(QUBIT, np.eye(3) / 3), "expected a 2x2 matrix"),
        (lambda: pure_density(QUBIT, [1.0, 0.0, 0.0]), "length 2"),
        (lambda: clifford_generator(PAIR, GateKind.FOURIER), "single qudit"),
        (lambda: clifford_generator(QUBIT, GateKind.SUM), "two-qudit"),
        (lambda: conjugate_by(DenseOperator(PAIR, np.eye(4)), DenseOperator(QUBIT, np.eye(2))), "shapes"),
        (lambda: GaussianCircuit(QUBIT, np.eye(3), np.zeros(2)), "S must be 2x2"),
        (lambda: GaussianCircuit(QUBIT, np.eye(2), np.zeros(3)), "displacement must have length 2"),
        (lambda: simulate_homodyne_batch(computational_state(QUBIT, 0),
                                         GaussianCircuit(PAIR, np.eye(4), np.zeros(4)), 1, 0), "system mismatch"),
        (lambda: SymplecticAffineMap([[1, 0, 0], [0, 1, 0]], [0, 0], 4), "square"),
        (lambda: SymplecticAffineMap(IDENTITY_MAP, [0, 0, 0], 4), "shift length"),
        (lambda: SymplecticAffineMap(IDENTITY_MAP, [0, 0], 4).compose(SymplecticAffineMap(IDENTITY_MAP, [0, 0], 6)),
         "moduli differ"),
        (lambda: StabilizerGroup(QUBIT, ((0, 1),), (0,)), "phase vector must have length 2"),
        (lambda: MeasurementEffect(MeasurementKind.EXPLICIT).validate(QUBIT), "needs an operator"),
        (lambda: CircuitDescription(PAIR, computational_state(QUBIT, 0), (),
                                    MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,))), "input state"),
        (lambda: cli._matrix([[1.0, [0.0, 1.0, 2.0]]]), "real or \\[re, im\\]"),
    ],
    ids=["density-not-hermitian", "density-trace", "density-negative-eigenvalue", "matrix-shape",
         "pure-density-length", "generator-one-qudit-on-two", "generator-sum-on-one", "conjugate-shapes",
         "gaussian-s-shape", "gaussian-displacement-length", "homodyne-register",
         "map-not-square", "map-shift-length", "map-compose-moduli", "stabilizer-phase-length",
         "explicit-effect-without-operator", "circuit-input-register", "cli-matrix-entry"],
)
def test_outside_inputs_are_rejected(build, message):
    with pytest.raises(ValidationError, match=message):
        build()

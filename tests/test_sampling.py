"""Monte-Carlo Born-probability estimator: norms, bounds, determinism."""

import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quditphase import (
    CircuitDescription,
    DenseOperator,
    Domain,
    GateKind,
    MeasurementEffect,
    MeasurementKind,
    QuditSystem,
    SAMPLE_CAP,
    ValidationError,
    characteristic_fn,
    computational_state,
    estimate_born,
    estimate_born_char,
    forward_norm,
    haar_random_state,
    lp_norm,
    measures,
    plus_state,
    sample_count,
    t_state,
)
from quditphase.basis import PhasePoint, o_stack, p_stack
from quditphase.core import _support, embed_generator
from quditphase import core, sampling
from quditphase.sampling import _columns, _effect_steps, _step, _steps, frame_measurement_coeffs

from dense_reference import dense_frame_columns, einsum_contract_stack, full_unitarity_deviation
from stat_oracle import born_miss_bound, born_z_score
from trajectory_reference import per_trajectory_report

EXACT_HTH = math.cos(math.pi / 8) ** 2  # 0.8535533905932737

T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def measure_zero(system):
    return MeasurementEffect(
        MeasurementKind.COMPUTATIONAL, tuple(range(system.n)), (0,) * system.n
    )


def hth_circuit():
    s = QuditSystem(2, 1)
    return CircuitDescription(
        s,
        computational_state(s, 0),
        (
            (GateKind.FOURIER, (0,)),
            DenseOperator(s, T_GATE, unitary=True),
            (GateKind.FOURIER, (0,)),
        ),
        measure_zero(s),
    )


def test_sample_count_frozen_values():
    assert sample_count(1.0, 0.1, 0.05) == 738
    assert sample_count(math.sqrt(2), 0.1, 0.05) == 1476
    assert sample_count(1.0, 1.0, 2 / math.e**2) == 4
    assert sample_count(math.sqrt(2), 0.02, 0.05) == 36889


def test_sample_count_validation():
    with pytest.raises(ValidationError):
        sample_count(1.0, 0.0, 0.05)
    with pytest.raises(ValidationError):
        sample_count(1.0, 0.1, 1.5)
    with pytest.raises(ValidationError):
        sample_count(0.0, 0.1, 0.05)


@pytest.mark.parametrize(
    "epsilon",
    [math.nan, math.inf, -math.inf, 1e-160, 1e-300],
    ids=["nan", "inf", "-inf", "count-overflows", "square-underflows"],
)
def test_sample_count_rejects_non_finite_counts(epsilon):
    with pytest.raises(ValidationError):
        sample_count(1.0, epsilon, 0.05)


@pytest.mark.parametrize("runner", [estimate_born, estimate_born_char], ids=["o", "hw"])
@pytest.mark.parametrize(
    "streams, seed",
    [(0, 0), (-2, 0), (1, -1), (2.5, 0), (2.0, 0), (1, 1.5)],
    ids=["zero-streams", "negative-streams", "negative-seed", "fractional-streams", "float-streams", "fractional-seed"],
)
def test_estimator_rejects_bad_streams_and_seeds(runner, streams, seed):
    with pytest.raises(ValidationError):
        runner(hth_circuit(), 0.5, 0.05, seed=seed, streams=streams)


@pytest.mark.parametrize("runner", [estimate_born, estimate_born_char], ids=["o", "hw"])
def test_numpy_integer_streams_and_seeds_are_accepted(runner):
    want = runner(hth_circuit(), 0.5, 0.05, seed=3, streams=2)
    got = runner(hth_circuit(), 0.5, 0.05, seed=np.int64(3), streams=np.uint8(2))
    assert (got.estimate, got.seed, got.streams) == (want.estimate, 3, 2)
    assert type(got.seed) is type(got.streams) is int


@pytest.mark.parametrize("runner", [estimate_born, estimate_born_char], ids=["o", "hw"])
def test_streams_past_the_trajectory_count_cost_nothing(runner):
    circuit = hth_circuit()
    k_total = runner(circuit, 0.5, 0.05, seed=3).samples_used
    want = runner(circuit, 0.5, 0.05, seed=3, streams=k_total)
    tracemalloc.start()
    try:
        got = runner(circuit, 0.5, 0.05, seed=3, streams=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.estimate, got.samples_used) == (want.estimate, want.samples_used)
    assert got.streams == 10**7
    assert peak < 2**20


def test_identity_circuit_is_exact():
    s = QuditSystem(2, 1)
    circuit = CircuitDescription(s, computational_state(s, 0), (), measure_zero(s))
    assert forward_norm(circuit) == 1.0
    report = estimate_born(circuit, 0.1, 0.05, seed=0)
    assert report.estimate == 1.0
    assert report.forward_norm == 1.0
    assert report.samples_used == 738


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_clifford_circuits_have_unit_norm(d):
    s = QuditSystem(d, 1)
    circuit = CircuitDescription(
        s,
        computational_state(s, 0),
        ((GateKind.FOURIER, (0,)), (GateKind.PHASE, (0,))),
        measure_zero(s),
    )
    assert forward_norm(circuit) == 1.0


def test_hth_forward_norm_is_sqrt2():
    assert abs(forward_norm(hth_circuit()) - math.sqrt(2)) < 1e-12


def test_hth_estimate_within_epsilon():
    circuit = hth_circuit()
    for seed in (0, 1, 2, 3, 4):
        report = estimate_born(circuit, 0.1, 0.05, seed=seed)
        assert abs(report.estimate - EXACT_HTH) < 0.1
        assert report.samples_used == 1476


def test_estimates_are_deterministic():
    circuit = hth_circuit()
    a = estimate_born(circuit, 0.1, 0.05, seed=7)
    b = estimate_born(circuit, 0.1, 0.05, seed=7)
    assert a.estimate == b.estimate
    c = estimate_born(circuit, 0.1, 0.05, seed=7, streams=4)
    dd = estimate_born(circuit, 0.1, 0.05, seed=7, streams=4)
    assert c.estimate == dd.estimate
    assert c.estimate != a.estimate  # different RNG partitioning


def test_estimator_is_unbiased():
    circuit = hth_circuit()
    runs = [estimate_born(circuit, 0.5, 0.05, seed=s).estimate for s in range(200)]
    assert abs(float(np.mean(runs)) - EXACT_HTH) < 0.05


def test_explicit_clifford_matches_named_norm():
    s = QuditSystem(2, 1)
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    named = CircuitDescription(
        s, computational_state(s, 0), ((GateKind.FOURIER, (0,)),), measure_zero(s)
    )
    explicit = CircuitDescription(
        s, computational_state(s, 0), (DenseOperator(s, h, unitary=True),), measure_zero(s)
    )
    assert abs(forward_norm(named) - 1.0) < 1e-12
    assert abs(forward_norm(explicit) - 1.0) < 1e-12
    r = estimate_born(explicit, 0.1, 0.05, seed=1)
    assert abs(r.estimate - 0.5) < 0.1


def test_char_frame_agrees_with_o_frame():
    circuit = hth_circuit()
    r1 = estimate_born(circuit, 0.1, 0.05, seed=5)
    r2 = estimate_born_char(circuit, 0.1, 0.05, seed=5)
    assert abs(r1.forward_norm - r2.forward_norm) < 1e-9
    assert abs(r1.estimate - EXACT_HTH) < 0.1
    assert abs(r2.estimate - EXACT_HTH) < 0.1


def test_char_frame_zero_probability_event():
    s = QuditSystem(3, 1)
    circuit = CircuitDescription(s, computational_state(s, 1), (), measure_zero(s))
    report = estimate_born_char(circuit, 0.1, 0.05, seed=0)
    assert report.forward_norm == 1.0
    assert abs(report.estimate) < 0.1  # true Born probability is 0


def test_t_input_circuit():
    s = QuditSystem(2, 1)
    circuit = CircuitDescription(s, t_state(), (), measure_zero(s))
    report = estimate_born(circuit, 0.1, 0.05, seed=2)
    assert abs(report.estimate - 0.5) < 0.1
    # magic input costs a forward-norm factor ||x_T||_1 = (1 + sqrt 2)/2
    assert abs(report.forward_norm - (1 + math.sqrt(2)) / 2 * 1.0) < 1e-9


def test_two_qudit_sum_circuit():
    s = QuditSystem(2, 2)
    circuit = CircuitDescription(
        s,
        computational_state(s, 0),
        ((GateKind.FOURIER, (0,)), (GateKind.SUM, (0, 1))),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 1), (1, 1)),
    )
    # Bell pair: P(11) = 1/2
    assert forward_norm(circuit) == 1.0
    report = estimate_born(circuit, 0.1, 0.05, seed=3)
    assert abs(report.estimate - 0.5) < 0.1


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
def test_named_word_at_d11_matches_the_dense_born_probability(char):
    # |0,0> -> |0,1> -> |+,1> -> F|1>|1> -> |1,1> -> |1,2>: the readout (1, 2) is certain
    s = QuditSystem(11, 2)
    word = (
        (GateKind.SHIFT, (1,)),
        (GateKind.SUM, (0, 1)),
        (GateKind.FOURIER, (0,)),
        (GateKind.CLOCK, (0,)),
        *[(GateKind.FOURIER, (0,))] * 3,
        (GateKind.PHASE, (1,)),
        (GateKind.SUM, (0, 1)),
    )
    readout = (1, 2)
    unitary = np.eye(s.dim)
    for gate in word:
        unitary = embed_generator(s, *gate).entries @ unitary
    exact = abs(unitary[readout[0] * s.d + readout[1], 0]) ** 2
    assert abs(exact - 1.0) < 1e-12
    circuit = CircuitDescription(
        s, computational_state(s, 0), word, MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 1), readout)
    )
    report = (estimate_born_char if char else estimate_born)(circuit, 0.05, 0.05, seed=7)
    assert abs(report.estimate - exact) < 0.05


def test_partial_measurement_marginal():
    s = QuditSystem(3, 2)
    circuit = CircuitDescription(
        s,
        plus_state(s),
        (),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (2,)),
    )
    report = estimate_born(circuit, 0.2, 0.05, seed=9)
    assert abs(report.estimate - 1 / 3) < 0.2


def test_explicit_effect_operator():
    s = QuditSystem(2, 1)
    proj = np.array([[0.5, 0.5], [0.5, 0.5]])
    circuit = CircuitDescription(
        s,
        computational_state(s, 0),
        (),
        MeasurementEffect(MeasurementKind.EXPLICIT, operator=DenseOperator(s, proj)),
    )
    report = estimate_born(circuit, 0.1, 0.05, seed=4)
    assert abs(report.estimate - 0.5) < 0.1


@pytest.mark.parametrize("runner", [estimate_born, estimate_born_char])
def test_a_near_hermitian_effect_reads_as_its_hermitian_part(runner):
    # 4.9e-10 i J is anti-Hermitian and passes the 1e-9 Hermiticity check;
    # the effect's Hermitian part is 0.5 I
    s = QuditSystem(2, 2)
    rho = haar_random_state(s, np.random.default_rng(31))

    def estimate(matrix):
        effect = MeasurementEffect(MeasurementKind.EXPLICIT, operator=DenseOperator(s, matrix))
        circuit = CircuitDescription(s, rho, ((GateKind.FOURIER, (0,)), (GateKind.SUM, (0, 1))), effect)
        return runner(circuit, 0.1, 0.05, seed=12).estimate

    near = 0.5 * np.eye(4) + 4.9e-10j * np.ones((4, 4))
    assert abs(estimate(near) - estimate(0.5 * np.eye(4))) <= 1e-9


def test_measurement_validation():
    s = QuditSystem(2, 2)
    with pytest.raises(ValidationError):
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 0), (0, 0)).validate(s)
    with pytest.raises(ValidationError):
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (5,), (0,)).validate(s)
    with pytest.raises(ValidationError):
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (3,)).validate(s)
    bad = np.diag([2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        MeasurementEffect(
            MeasurementKind.EXPLICIT, operator=DenseOperator(QuditSystem(2, 2), bad)
        ).validate(s)
    # eigenvalues in [0, 1] but not Hermitian
    qubit = QuditSystem(2, 1)
    skew = DenseOperator(qubit, [[0.5, 0.4], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="hermiticity"):
        MeasurementEffect(MeasurementKind.EXPLICIT, operator=skew).validate(qubit)
    # the right shape on another register
    with pytest.raises(ValidationError, match="register"):
        MeasurementEffect(MeasurementKind.EXPLICIT, operator=DenseOperator(QuditSystem(4, 1), np.eye(4))).validate(s)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_computational_effect_tables_match_the_dense_projector(d):
    for n in (n for n in (1, 2, 3) if d**n <= 216):
        system = QuditSystem(d, n)
        for k in range(1, n + 1):
            for idx in itertools.combinations(range(n), k):
                # every outcome on every measured qudit, mixed across qudits
                for outs in (tuple((j + 2 * i) % d for i in range(k)) for j in range(d)):
                    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, idx, outs)
                    proj = np.ones((1, 1))
                    for q in range(n):
                        proj = np.kron(proj, np.diag(np.arange(d) == outs[idx.index(q)]) if q in idx else np.eye(d))
                    dense_o = einsum_contract_stack(system, o_stack(d), proj.astype(complex))
                    dense_p = einsum_contract_stack(system, p_stack(d), proj.astype(complex))
                    assert np.max(np.abs(effect_at_every_label(system, effect, char=False) - dense_o.ravel())) < 1e-12
                    assert np.max(np.abs(effect_at_every_label(system, effect, char=True) - dense_p.ravel())) < 1e-12


def effect_at_every_label(system, effect, char):
    """The effect steps carried through ``_step`` from every restricted label, in flat label order."""
    labels = np.indices((system.d,) * (2 * system.n)).reshape(2 * system.n, -1)
    start = labels.copy()
    w = np.ones(labels.shape[1])
    for axes, op in _effect_steps(system, effect, char):
        w = _step(system.d, labels, w, axes, op)
    assert np.array_equal(labels, start)  # effect steps keep the labels
    return w


def test_effect_steps_at_two_ten_are_built_without_full_grids():
    s = QuditSystem(2, 10)
    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 3), (1, 0))
    origin = PhasePoint((0,) * 10, (0,) * 10, 2)
    frame_measurement_coeffs(s, effect, origin)  # fill the trace-table cache
    tracemalloc.start()
    try:
        steps = [_effect_steps(s, effect, char) for char in (False, True)]
        value = frame_measurement_coeffs(s, effect, origin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense O-frame table alone would take 8 MiB
    assert peak < 64 << 10
    assert [len(frame) for frame in steps] == [10, 10]
    # both measured factors read 1 at the origin, and Tr O_{0,0} = 2 on the other eight
    assert value == 2.0**8


@pytest.mark.parametrize(
    "effect, point",
    [
        (MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (5,)), PhasePoint((0, 0), (0, 0), 2)),
        (MeasurementEffect(MeasurementKind.COMPUTATIONAL, (7,), (0,)), PhasePoint((0, 0), (0, 0), 2)),
        (MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)), PhasePoint((3, 0), (0, 0), 4)),
        (MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)), PhasePoint((0,), (0,), 2)),
    ],
    ids=["outcome", "index", "doubled-point", "one-factor-point"],
)
def test_frame_measurement_coeffs_validates_its_inputs(effect, point):
    with pytest.raises(ValidationError):
        frame_measurement_coeffs(QuditSystem(2, 2), effect, point)


def test_forward_norm_and_both_estimators_share_one_frame_setup(monkeypatch):
    frames = []
    frame = sampling._frame
    monkeypatch.setattr(sampling, "_frame", lambda circuit, char: frames.append(char) or frame(circuit, char))
    circuit = hth_circuit()
    m = forward_norm(circuit)
    assert estimate_born(circuit, 0.3, 0.05, seed=1).forward_norm == m
    estimate_born_char(circuit, 0.3, 0.05, seed=1)
    assert frames == [False, False, True]


def test_circuit_validation():
    s = QuditSystem(2, 1)
    not_unitary = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        CircuitDescription(
            s,
            computational_state(s, 0),
            (DenseOperator(s, not_unitary),),
            measure_zero(s),
        )
    with pytest.raises(ValidationError):
        CircuitDescription(
            s, computational_state(s, 0), ((GateKind.FOURIER, (3,)),), measure_zero(s)
        )
    # a gate of the right shape on another register
    s = QuditSystem(2, 2)
    with pytest.raises(ValidationError, match="register"):
        CircuitDescription(s, computational_state(s, 0), (DenseOperator(QuditSystem(4, 1), np.eye(4)),), measure_zero(s))


NAMED_GATES = [
    (GateKind.FOURIER, (0,)),
    (GateKind.PHASE, (1,)),
    (GateKind.SHIFT, (0,)),
    (GateKind.CLOCK, (1,)),
    (GateKind.SUM, (0, 1)),
    (GateKind.SUM, (1, 0)),
]
NAMED_IDS = [f"{kind.value}{''.join(map(str, t))}" for kind, t in NAMED_GATES]


def named_step(system, gate, labels, char):
    """The estimator's step for one named gate on (2n, K) label vectors: images and phases."""
    ((axes, op),) = _steps(system, (gate,), char)
    labels = labels.copy()
    return labels, _step(system.d, labels, np.ones(labels.shape[1]), axes, op)


@lru_cache(maxsize=None)
def dense_support_entries(d, kind, char):
    """Position and value of the one nonzero entry of each dense frame column
    of a generator on its own 1- or 2-qudit support (SUM as (control, target)).

    Each column is a dense conjugation (``dense_frame_columns``); it must
    have exactly one nonzero, of modulus one.
    """
    local = QuditSystem(d, 2 if kind is GateKind.SUM else 1)
    unitary = embed_generator(local, kind).entries
    hits, entries = [], []
    for flat in range(d ** (2 * local.n)):
        col = dense_frame_columns(local, char, unitary, [flat])[0]
        nonzero = np.flatnonzero(col)
        assert len(nonzero) == 1
        assert abs(abs(col[nonzero[0]]) - 1.0) < 1e-12
        hits.append(nonzero[0])
        entries.append(col[nonzero[0]])
    return np.array(hits), np.array(entries)


def check_named_step_against_dense_columns(d, gate, char):
    """Every label of a two-qudit register through one named step.

    The step must move the label's support part to the position of the
    one entry of its dense column, with that entry as its sign or phase,
    and leave the other qudit's labels as they are.
    """
    kind, targets = gate
    s = QuditSystem(d, 2)
    labels = np.array(np.unravel_index(np.arange(d**4), (d,) * 4))
    images, phases = named_step(s, gate, labels, char)
    axes = [*targets, *(2 + q for q in targets)]
    local = np.ravel_multi_index(tuple(labels[axes]), (d,) * len(axes))
    hits, entries = dense_support_entries(d, kind, char)
    assert np.max(np.abs(entries[local] - phases)) < 1e-12
    expected = labels.copy()
    expected[axes] = np.unravel_index(hits[local], (d,) * len(axes))
    assert np.array_equal(images, expected)


@pytest.mark.parametrize("gate", NAMED_GATES, ids=NAMED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_o_frame_named_step_matches_coordinate_action(d, gate):
    check_named_step_against_dense_columns(d, gate, char=False)


@pytest.mark.parametrize("gate", NAMED_GATES, ids=NAMED_IDS)
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_hw_frame_named_step_matches_dense_conjugation(d, gate):
    check_named_step_against_dense_columns(d, gate, char=True)


def hw_operators(system):
    """Dense P(u) for every restricted label u, in flat-index order."""
    d, n = system.d, system.n
    stack = p_stack(d)
    ops = []
    for vec in itertools.product(range(d), repeat=2 * n):
        op = np.ones((1, 1), dtype=complex)
        for q in range(n):
            op = np.kron(op, stack[vec[q], vec[n + q]])
        ops.append(op)
    return np.array(ops).reshape(len(ops), system.dim, system.dim)


def hw_expansion(system, unitary):
    """c[u, v] = Tr(P(v)^dagger U P(u) U^dagger) / d^n by dense conjugation."""
    ops = hw_operators(system)
    conj = unitary @ ops @ unitary.conj().T
    return conj.reshape(len(ops), -1) @ ops.conj().reshape(len(ops), -1).T / system.dim


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
def test_named_gates_draw_no_randomness(char):
    # X X = I ahead of HTH: same trajectories, so the same estimate
    estimator = estimate_born_char if char else estimate_born
    plain = hth_circuit()
    padded = CircuitDescription(
        plain.system,
        plain.input_state,
        ((GateKind.SHIFT, (0,)), (GateKind.SHIFT, (0,))) + plain.gates,
        plain.measurement,
    )
    a = estimator(plain, 0.1, 0.05, seed=3)
    b = estimator(padded, 0.1, 0.05, seed=3)
    assert abs(a.estimate - b.estimate) < 1e-12
    assert a.samples_used == b.samples_used


def test_hw_frame_draws_one_uniform_block_per_stream():
    # named gates only: a trajectory is its input label, drawn straight from
    # |chi| by one uniform block per stream, carried by the circuit's
    # one-entry Heisenberg-Weyl columns (dense conjugation) to the effect
    s = QuditSystem(3, 2)
    gates = ((GateKind.FOURIER, (0,)), (GateKind.SUM, (0, 1)), (GateKind.PHASE, (1,)))
    effect = MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 1), (0, 2))
    rho = haar_random_state(s, np.random.default_rng(11))
    seed, streams = 4, 3
    report = estimate_born_char(CircuitDescription(s, rho, gates, effect), 0.3, 0.05, seed=seed, streams=streams)

    unitary = np.eye(s.dim)
    for gate in gates:
        unitary = embed_generator(s, *gate).entries @ unitary
    cols = hw_expansion(s, unitary)
    labels = np.arange(len(cols))
    images = np.argmax(np.abs(cols), axis=1)
    readout = 0 * 3 + 2  # the basis index of |0>|2>
    weights = cols[labels, images] * hw_operators(s)[images, readout, readout]  # phase x Tr(Pi P(image))
    chi = characteristic_fn(rho, Domain.RESTRICTED).values.reshape(-1).copy()
    chi[np.abs(chi) < 1e-12] = 0.0
    nz = np.nonzero(chi)[0]
    cdf = np.cumsum(np.abs(chi[nz]))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    norm0 = float(np.sum(np.abs(chi)))
    k_total = report.samples_used
    base, rem = divmod(k_total, streams)
    sums = []
    for stream in range(streams):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))
        u = rng.random(base + (stream < rem))
        idx = nz[np.minimum(np.searchsorted(cdf, u, side="right"), len(nz) - 1)]
        sums.append(math.fsum(np.real(norm0 * chi[idx] / np.abs(chi[idx]) * weights[idx])))
    assert abs(math.fsum(sums) / k_total - report.estimate) < 1e-12


def qutrit_magic_circuit():
    s = QuditSystem(3, 3)
    k = np.arange(3)
    diag = np.diag(np.exp(2j * np.pi * k**3 / 9))
    magic = np.kron(np.eye(3), np.kron(diag, np.eye(3)))
    return CircuitDescription(
        s,
        computational_state(s, 0),
        (
            (GateKind.FOURIER, (0,)),
            (GateKind.SUM, (0, 1)),
            (GateKind.FOURIER, (2,)),
            DenseOperator(s, magic, unitary=True),
            (GateKind.PHASE, (1,)),
            (GateKind.SUM, (2, 0)),
            (GateKind.FOURIER, (1,)),
            (GateKind.SHIFT, (2,)),
            (GateKind.CLOCK, (0,)),
        ),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)),
    )


@pytest.mark.parametrize(
    "make, epsilon, seed, streams, estimate, samples, norm",
    [
        (hth_circuit, 0.1, 11, 1, 0.8585284215895526, 1476, 1.414213562373095),
        (hth_circuit, 0.1, 11, 4, 0.8460045182194723, 1476, 1.414213562373095),
        # the magic gate acts on qudit 1 alone: M is the exact max over its 9 local columns
        (qutrit_magic_circuit, 0.1, 13, 1, 0.34339000793820507, 1857, 1.5862568277145448),
    ],
    ids=["hth-1-stream", "hth-4-streams", "qutrit-3-qudits"],
)
def test_o_frame_reports_are_pinned(make, epsilon, seed, streams, estimate, samples, norm):
    # reference values: the O frame's draws, columns and +-1 signs are fixed
    # by the determinism contract, so a report must not move by one bit
    report = estimate_born(make(), epsilon, 0.05, seed=seed, streams=streams)
    assert report.estimate == estimate
    assert report.samples_used == samples
    assert report.forward_norm == norm


def controlled_t_circuit():
    # a two-qubit explicit gate: controlled-T on qubits (0, 2) of three
    s = QuditSystem(2, 3)
    ct = np.diag([1, 1, 1, np.exp(1j * np.pi / 4)])
    return CircuitDescription(
        s,
        computational_state(s, 0),
        (
            (GateKind.FOURIER, (0,)),
            (GateKind.FOURIER, (2,)),
            (GateKind.SUM, (0, 1)),
            DenseOperator(s, embed(2, 3, ct, [0, 2]), unitary=True),
            (GateKind.FOURIER, (2,)),
            (GateKind.PHASE, (1,)),
        ),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 2), (1, 0)),
    )


def qutrit_explicit_effect_circuit():
    s = QuditSystem(3, 2)
    k = np.arange(3)
    magic = np.kron(np.diag(np.exp(2j * np.pi * k**3 / 9)), np.eye(3))
    psi = haar_random_state(s, np.random.default_rng(5)).matrix
    return CircuitDescription(
        s,
        computational_state(s, 4),
        ((GateKind.FOURIER, (0,)), DenseOperator(s, magic, unitary=True), (GateKind.SUM, (1, 0))),
        MeasurementEffect(MeasurementKind.EXPLICIT, operator=DenseOperator(s, psi)),
    )


@pytest.mark.parametrize(
    "make, epsilon, seed, streams, estimate, samples, norm",
    [
        (controlled_t_circuit, 0.2, 21, 1, 0.4186389698043584, 2151, 3.414213562373095),
        (qutrit_explicit_effect_circuit, 0.2, 22, 1, 0.2022872283376903, 554, 1.7320508075688767),
        (controlled_t_circuit, 0.2, 23, 3, 0.43834365428174116, 2151, 3.414213562373095),
    ],
    ids=["two-qubit-gate", "explicit-effect", "3-streams"],
)
def test_hw_frame_reports_are_pinned(make, epsilon, seed, streams, estimate, samples, norm):
    # reference values, as for the O frame: the Heisenberg-Weyl frame's
    # draws, columns and phases are fixed by the determinism contract
    report = estimate_born_char(make(), epsilon, 0.05, seed=seed, streams=streams)
    assert report.estimate == estimate
    assert report.samples_used == samples
    assert report.forward_norm == norm


def qutrit_named_word_circuit():
    # a named-only Clifford word at d=3 on a Haar input; the readout (0, 2) is reached from
    # input labels of both signs in both frames, so a draw that dropped them would be caught
    s = QuditSystem(3, 2)
    word = ((GateKind.FOURIER, (0,)), (GateKind.PHASE, (1,)), (GateKind.SUM, (0, 1)), (GateKind.SHIFT, (1,)),
            (GateKind.CLOCK, (0,)), (GateKind.FOURIER, (1,)), (GateKind.PHASE, (0,)), (GateKind.SUM, (1, 0)))
    rho = haar_random_state(s, np.random.default_rng(10))
    return CircuitDescription(s, rho, word, MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 1), (0, 2)))


@pytest.mark.parametrize("runner", [estimate_born, estimate_born_char], ids=["o", "hw"])
@pytest.mark.parametrize(
    "make", [qutrit_named_word_circuit, controlled_t_circuit, qutrit_magic_circuit],
    ids=["d3-named-word", "controlled-t", "qutrit-readout-of-1-of-3"],
)
def test_seeded_estimates_center_on_the_dense_born_probability(make, runner):
    # check (ii) of the sampler contract: the mean of 30 seeded estimates lies within
    # 4 standard errors (their sample sd / sqrt 30) of Tr(Pi U rho U^dagger) from dense matrices
    assert abs(born_z_score(runner, make(), 0.2, range(30))) <= 4


@pytest.mark.parametrize("runner", [estimate_born, estimate_born_char], ids=["o", "hw"])
@pytest.mark.parametrize(
    "make", [qutrit_named_word_circuit, controlled_t_circuit, qutrit_magic_circuit],
    ids=["d3-named-word", "controlled-t", "qutrit-readout-of-1-of-3"],
)
def test_seeded_estimates_miss_no_more_often_than_the_failure_probability(make, runner):
    # check (iii): over 100 seeds at epsilon = 0.2, the Clopper-Pearson lower bound (99.9%) on
    # the rate of |estimate - p| > epsilon, p from dense matrices, is at most p_fail = 0.1
    assert born_miss_bound(runner, make(), 0.2, range(100), 0.1) <= 0.1


def born_workload_circuit(haar_seed=None):
    # the benchmark's born shape: two 6-gate named words around a T gate
    s = QuditSystem(2, 3)
    first = ((GateKind.FOURIER, (0,)), (GateKind.SUM, (0, 1)), (GateKind.PHASE, (2,)),
             (GateKind.SHIFT, (1,)), (GateKind.FOURIER, (2,)), (GateKind.SUM, (2, 0)))
    second = ((GateKind.CLOCK, (0,)), (GateKind.FOURIER, (1,)), (GateKind.SUM, (1, 2)),
              (GateKind.PHASE, (0,)), (GateKind.SHIFT, (2,)), (GateKind.FOURIER, (0,)))
    t = DenseOperator(s, embed(2, 3, T_GATE, [1]), unitary=True)
    rho = computational_state(s, 0) if haar_seed is None else haar_random_state(s, np.random.default_rng(haar_seed))
    return CircuitDescription(s, rho, first + (t,) + second, MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (1,)))


@pytest.mark.parametrize(
    "runner, haar_seed, epsilon, seed, streams, estimate, samples, norm",
    [
        (estimate_born, None, 0.1, 41, 1, 0.4847303994239485, 23609, 5.65685424949238),
        (estimate_born, None, 0.1, 42, 3, 0.4960820026261172, 23609, 5.65685424949238),
        (estimate_born_char, None, 0.1, 43, 1, 0.48778008386632216, 23609, 5.65685424949238),
        (estimate_born_char, None, 0.1, 44, 3, 0.517599220636198, 23609, 5.65685424949238),
        (estimate_born, 31, 0.25, 45, 2, 0.566967367548814, 19935, 12.995236561845854),
        (estimate_born_char, 31, 0.25, 46, 2, 0.5563655387247305, 19935, 12.995236561845854),
    ],
    ids=["o-1-stream", "o-3-streams", "hw-1-stream", "hw-3-streams", "o-haar-input", "hw-haar-input"],
)
def test_born_workload_reports_are_pinned(runner, haar_seed, epsilon, seed, streams, estimate, samples, norm):
    # reference values recorded before the named runs were fused and the
    # input drawn by position: neither may move a report by one bit
    report = runner(born_workload_circuit(haar_seed), epsilon, 0.05, seed=seed, streams=streams)
    assert report.estimate == estimate
    assert report.samples_used == samples
    assert report.forward_norm == norm


@pytest.mark.parametrize(
    "make", [hth_circuit, qutrit_magic_circuit, lambda: born_workload_circuit(31)], ids=["hth", "qutrit", "haar-input"]
)
def test_forward_norm_reads_the_input_table_and_builds_no_draw(monkeypatch, make):
    circuit = make()
    reported = estimate_born(circuit, 0.25, 0.05, seed=1).forward_norm
    values = sampling._frame(circuit, False)[1]
    drawn = measures._InputLabels(values).norm

    def refuse(self, values):
        raise AssertionError("forward_norm built the input draw")

    monkeypatch.setattr(measures._InputLabels, "__init__", refuse)
    assert forward_norm(circuit) == reported
    # M's input factor is lp_norm's sum over the magnitudes with dropped entries zeroed, the
    # input draw's norm, bit for bit
    mags = np.abs(values).ravel()
    factor = sampling._aggregated_norm([], values, [])[0]
    zero_filled = float(np.sum(np.where(mags >= measures.NORM_CUTOFF, mags, 0.0)))
    assert factor == lp_norm(values, 1) == zero_filled == drawn


def random_named_word(rng, n, length):
    kinds = [GateKind.FOURIER, GateKind.PHASE, GateKind.SHIFT, GateKind.CLOCK] + ([GateKind.SUM] if n > 1 else [])
    word = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        word.append((kind, tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))))
    return word


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_named_tables_are_real_exactly_when_every_factor_is_a_sign(d):
    # every O-frame generator has +-1 factors; in the Heisenberg-Weyl frame
    # FOURIER, SUM and even-d PHASE do, and SHIFT and CLOCK carry phases
    # except at d = 2, where every phase is +-1. A table is real exactly then.
    for kind in GateKind:
        signs = kind in (GateKind.FOURIER, GateKind.SUM) or (kind is GateKind.PHASE and d % 2 == 0) or d == 2
        for char, real in ((False, True), (True, signs)):
            phases = sampling._named_table(d, kind, char)[1]
            assert np.all(np.isin(phases, (1.0, -1.0))) == real
            assert phases.dtype == (np.float64 if real else np.complex128)


@pytest.mark.parametrize("kind", [GateKind.SHIFT, GateKind.CLOCK])
def test_heisenberg_weyl_quarter_turn_factors_are_exact(kind):
    # exp(-i pi) leaves -1 - 1.2e-16j; the factors come from exact quarter turns
    two = sampling._named_table(2, kind, True)[1]
    assert not np.any(two.imag) and set(two.real.tolist()) == {1.0, -1.0}
    four = sampling._named_table(4, kind, True)[1]
    assert all(v in (1, -1j, -1, 1j) for v in four.tolist())
    assert set(four.tolist()) == {1, -1j, -1, 1j}


def test_named_gate_arity_is_validated():
    s = QuditSystem(2, 2)
    for gate in ((GateKind.SUM, (0, 0)), (GateKind.SUM, (0,)), (GateKind.FOURIER, (0, 1))):
        with pytest.raises(ValidationError):
            CircuitDescription(s, computational_state(s, 0), (gate,), measure_zero(s))


# ------------------------------------------------------- forward norm


def haar_unitary(dim, seed):
    """QR of a complex normal matrix from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return u


def embed(d, n, v, qudits):
    """Dense n-qudit matrix of v acting on ``qudits`` in that order, identity elsewhere."""
    order = list(qudits) + [q for q in range(n) if q not in qudits]
    full = np.kron(v, np.eye(d ** (n - len(qudits)))).reshape((d,) * (2 * n))
    perm = list(np.argsort(order))
    return full.transpose(perm + [n + p for p in perm]).reshape(d**n, d**n)


def near_product():
    u = np.kron(np.eye(3), haar_unitary(3, 6))
    u[0, 3] = 1e-17  # off the identity block of qudit 0, far inside the unitarity tolerance
    return u


def oracle_column_max(system, unitary, flats=None):
    """Largest O-frame column 1-norm over ``flats`` (default: every label), 64 dense columns at a time."""
    flats = np.arange(system.d ** (2 * system.n)) if flats is None else np.asarray(flats)
    blocks = (dense_frame_columns(system, False, unitary, flats[i : i + 64]) for i in range(0, len(flats), 64))
    return max(float(np.max(np.sum(np.abs(rows), axis=1))) for rows in blocks)


def one_gate_circuit(system, unitary):
    gate = DenseOperator(system, unitary, unitary=True)
    return CircuitDescription(system, computational_state(system, 0), (gate,), measure_zero(system))


SUPPORT_CASES = {
    "1q-at-0": (2, 3, lambda: embed(2, 3, haar_unitary(2, 0), [0]), [0]),
    "1q-at-1": (2, 3, lambda: embed(2, 3, haar_unitary(2, 0), [1]), [1]),
    "1q-at-2": (2, 3, lambda: embed(2, 3, haar_unitary(2, 0), [2]), [2]),
    "qutrit-1q-at-0": (3, 2, lambda: embed(3, 2, haar_unitary(3, 1), [0]), [0]),
    "qutrit-1q-at-1": (3, 2, lambda: embed(3, 2, haar_unitary(3, 1), [1]), [1]),
    "2q-on-0-2": (2, 3, lambda: embed(2, 3, haar_unitary(4, 2), [0, 2]), [0, 2]),
    "2q-on-2-0": (2, 3, lambda: embed(2, 3, haar_unitary(4, 2), [2, 0]), [0, 2]),
    "product": (3, 2, lambda: np.kron(haar_unitary(3, 3), haar_unitary(3, 4)), [0, 1]),
    "haar": (2, 3, lambda: haar_unitary(8, 5), [0, 1, 2]),
    "qutrit-haar": (3, 2, lambda: haar_unitary(9, 5), [0, 1]),
    "near-product": (3, 2, near_product, [0, 1]),
    "identity-like": (2, 2, lambda: np.exp(0.3j) * np.eye(4), [1]),
}


@pytest.mark.parametrize("case", SUPPORT_CASES.values(), ids=SUPPORT_CASES.keys())
def test_forward_norm_matches_the_exhaustive_column_max(case):
    # the input |0...0> and the full readout contribute 1, so M is the gate's column max
    d, n, build, support = case
    s = QuditSystem(d, n)
    u = build()
    assert _support(s, u)[0] == tuple(support)
    assert abs(forward_norm(one_gate_circuit(s, u)) - oracle_column_max(s, u)) < 1e-12


def test_unitarity_is_checked_on_the_block_the_support_leaves(monkeypatch):
    # a full-register T on qubit 3 of 5 is 32x32; the flag and the circuit each check its 2x2 block
    s = QuditSystem(2, 5)
    u = embed(2, 5, T_GATE, [3])
    seen, check = [], core._check_unitary

    def record(entries):
        seen.append(entries.shape)
        check(entries)

    monkeypatch.setattr(core, "_check_unitary", record)
    monkeypatch.setattr(sampling, "_check_unitary", record)
    flagged = DenseOperator(s, u, unitary=True)
    CircuitDescription(s, computational_state(s, 0), (flagged, DenseOperator(s, u)), measure_zero(s))
    assert seen == [(2, 2), (2, 2)]  # the flagged gate is not checked again


def test_each_explicit_gate_is_reduced_once_when_the_circuit_is_built(monkeypatch):
    s = QuditSystem(2, 2)
    calls = []

    def count(system, unitary):
        calls.append(unitary.shape)
        return _support(system, unitary)

    monkeypatch.setattr(core, "_support", count)
    monkeypatch.setattr(sampling, "_support", count)
    gates = (DenseOperator(s, embed(2, 2, T_GATE, [1])), (GateKind.FOURIER, (0,)), DenseOperator(s, haar_unitary(4, 3)))
    circuit = CircuitDescription(s, computational_state(s, 0), gates, measure_zero(s))
    assert circuit.gates[0] is gates[0] and circuit.gates[2] is gates[2]
    forward_norm(circuit)
    estimate_born(circuit, 0.5, 0.1, seed=1)
    estimate_born_char(circuit, 0.5, 0.1, seed=1)
    assert calls == [(4, 4), (4, 4)]


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 4), data=st.data())
def test_the_block_verdict_is_the_full_register_verdict(d, n, data):
    # U = I (x) V with exact zeros, so U U^dagger - I has exactly the nonzero entries of V V^dagger - I
    k = data.draw(st.integers(1, n), label="k")
    qudits = data.draw(st.permutations(range(n)), label="order")[:k]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    scale = data.draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-1)), label="perturbation")
    rng = np.random.default_rng([seed, 1])  # a stream apart from the block's own draws
    noise = rng.normal(size=(d**k, d**k)) + 1j * rng.normal(size=(d**k, d**k))
    u = embed(d, n, haar_unitary(d**k, seed) + scale * noise / np.max(np.abs(noise)), qudits)
    s = QuditSystem(d, n)
    expect = full_unitarity_deviation(u) > 1e-9

    def refused(build):
        try:
            build()
        except ValidationError:
            return True
        return False

    assert refused(lambda: DenseOperator(s, u, unitary=True)) == expect
    assert refused(lambda: CircuitDescription(s, computational_state(s, 0), (DenseOperator(s, u),), measure_zero(s))) == expect


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
@pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_local_columns_match_the_dense_columns_and_have_unit_l2_norm(d, k, char):
    local = QuditSystem(d, k)
    u = haar_unitary(d**k, 7)
    flats = np.arange(d ** (2 * k))
    rows = _columns(local, char, u, flats)
    dense = dense_frame_columns(local, char, u, flats)
    assert np.max(np.abs(rows - dense)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
@pytest.mark.parametrize("d, trajectories", [(2, 300), (5, 400)], ids=["16-labels", "625-labels"])
def test_local_draw_matches_a_per_trajectory_inverse_cdf(d, trajectories, char):
    # 16 local labels sort on an 8-bit key, 625 on a 16-bit one; each
    # trajectory takes the first image whose cumulative |column| share
    # exceeds its uniform, from the dense column of its own local label
    local_system = QuditSystem(d, 2)
    u = haar_unitary(d * d, 8)
    rng = np.random.default_rng(d)
    local = rng.integers(0, d**4, size=trajectories)
    draws = rng.random(trajectories)
    image, cnorm, picked = sampling._LocalGate(local_system, u, char).draw(local, draws)
    for t, col in enumerate(dense_frame_columns(local_system, char, u, local)):
        cdf = np.cumsum(np.abs(col))
        pos = np.searchsorted(cdf / cdf[-1], draws[t], side="right")
        assert image[t] == pos
        assert abs(cnorm[t] - cdf[-1]) < 1e-12
        assert abs(picked[t] - col[pos]) < 1e-12


@pytest.mark.parametrize(
    "d, kind, dtype",
    [(2, GateKind.SUM, np.uint8), (5, GateKind.SUM, np.uint8), (16, GateKind.SUM, np.uint8),
     (256, GateKind.FOURIER, np.uint8), (300, GateKind.FOURIER, np.uint16)],
)
def test_named_table_digits_are_narrow(d, kind, dtype):
    k = 2 if kind is GateKind.SUM else 1
    for char in (False, True):
        digits, phases = sampling._named_table(d, kind, char)
        assert digits.dtype == dtype
        assert digits.shape == (2 * k, d ** (2 * k)) == (2 * k, len(phases))
        assert digits.nbytes <= 8 * d ** (2 * k)


def test_haar_gate_norm_is_the_exact_column_max_at_d2_n6():
    s = QuditSystem(2, 6)
    u = haar_unitary(64, 1)
    best = oracle_column_max(s, u)  # every one of the 4096 columns
    assert best > 51.84
    report = estimate_born(one_gate_circuit(s, u), 20.0, 0.05, seed=0)
    assert report.norm_method == "exact"
    assert report.forward_norm >= best - 1e-12
    assert abs(report.forward_norm - best) < 1e-12


def test_parseval_bound_holds_past_the_exact_limit():
    s = QuditSystem(2, 7)
    u = haar_unitary(128, 2)
    report = estimate_born(one_gate_circuit(s, u), 100.0, 0.05, seed=0)
    assert report.norm_method == "bound"
    assert abs(report.forward_norm - 2.0**7) < 1e-12
    flats = np.random.default_rng(3).integers(0, 4**7, size=8)
    assert report.forward_norm >= oracle_column_max(s, u, flats)


# ------------------------------------------- trajectories as distinct states


def diagonal_magic(d):
    """T at d=2, diag(e^{2 pi i k^3/9}) at d=3, seeded random phases otherwise."""
    if d == 2:
        return T_GATE
    if d == 3:
        return np.diag(np.exp(2j * np.pi * np.arange(3) ** 3 / 9))
    return np.diag(np.exp(2j * np.pi * np.random.default_rng(d).random(d)))


def random_explicit_gate(rng, d, n, kind):
    if kind == "two-qudit-haar":
        qudits = [int(q) for q in rng.choice(n, size=2, replace=False)]
        return embed(d, n, haar_unitary(d * d, int(rng.integers(1000))), qudits)
    q = int(rng.integers(n))
    v = haar_unitary(d, int(rng.integers(1000))) if kind == "haar" else diagonal_magic(d)
    return embed(d, n, v, [q])


def random_effect(rng, s, explicit):
    if explicit:
        return MeasurementEffect(MeasurementKind.EXPLICIT, operator=DenseOperator(s, haar_random_state(s, rng).matrix))
    indices = tuple(sorted(int(q) for q in rng.choice(s.n, size=int(rng.integers(1, s.n + 1)), replace=False)))
    return MeasurementEffect(MeasurementKind.COMPUTATIONAL, indices, tuple(int(o) for o in rng.integers(s.d, size=len(indices))))


def random_estimator_circuit(d, n, explicit, effect_explicit, seed):
    """A seeded circuit: a computational or Haar input, named words around
    ``explicit`` explicit gates (two-qudit Haar first, then diagonal magic
    and one-qudit Haar, in turn), and a computational or explicit readout."""
    rng = np.random.default_rng([d, n, explicit, seed])
    s = QuditSystem(d, n)
    rho = haar_random_state(s, rng) if seed % 2 else computational_state(s, int(rng.integers(s.dim)))
    gates = random_named_word(rng, n, 4)
    for i in range(explicit):
        kind = ("two-qudit-haar", "diagonal", "haar")[i % 3]
        gates.append(DenseOperator(s, random_explicit_gate(rng, d, n, kind), unitary=True))
        gates += random_named_word(rng, n, 3)
    return CircuitDescription(s, rho, tuple(gates), random_effect(rng, s, effect_explicit))


def frame_norm(circuit, char):
    """M in the estimator's frame."""
    return sampling._aggregated_norm(*sampling._frame(circuit, char))[0]


def check_reports_match_the_per_trajectory_loop(circuit, char, trajectories, few):
    """Reports of about ``trajectories`` trajectories on 1 and 3 streams, and
    of about ``few`` on K + 5 streams (one trajectory each), against the
    per-trajectory loop: every field equal, bit for bit."""
    runner = estimate_born_char if char else estimate_born
    m = frame_norm(circuit, char)
    for streams, target in ((1, trajectories), (3, trajectories), (None, few)):
        epsilon = m * math.sqrt(2 * math.log(2 / 0.05) / target)
        k = sample_count(m, epsilon, 0.05)
        streams = k + 5 if streams is None else streams
        report = runner(circuit, epsilon, 0.05, seed=k, streams=streams)
        assert report == per_trajectory_report(circuit, epsilon, 0.05, k, streams, char)


def parseval_bound_circuit():
    """A Haar gate on 7 qubits (4^7 local labels, so M holds its Parseval bound) between named gates."""
    s = QuditSystem(2, 7)
    return CircuitDescription(
        s,
        computational_state(s, 5),
        ((GateKind.FOURIER, (0,)), DenseOperator(s, haar_unitary(128, 2), unitary=True), (GateKind.SUM, (6, 0))),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0, 3), (1, 0)),
    )


# the register size per explicit-gate count (0 to 4) at each d, n <= 4
ORACLE_SHAPES = {2: (1, 2, 3, 4, 4), 3: (2, 3, 4, 2, 3), 4: (1, 2, 3, 2, 3), 5: (1, 2, 3, 2, 2)}


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
@pytest.mark.parametrize("explicit", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_state_reports_match_the_per_trajectory_loop_bit_for_bit(d, explicit, char):
    # an odd explicit-gate count reads an explicit effect, an even one a computational readout
    circuit = random_estimator_circuit(d, ORACLE_SHAPES[d][explicit], explicit, explicit % 2 == 1, seed=d + explicit)
    check_reports_match_the_per_trajectory_loop(circuit, char, 2000, 40)


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
def test_a_parseval_bound_gate_matches_the_per_trajectory_loop(char):
    # 4^7 local labels: every state's pairs outnumber the trajectories, so the states are found by a sort
    circuit = parseval_bound_circuit()
    check_reports_match_the_per_trajectory_loop(circuit, char, 300, 20)


@pytest.mark.parametrize("cells", [40, 5000], ids=["table", "sort"])
def test_distinct_keys_by_table_and_by_sort(cells):
    # 1000 keys: a table over 40 cells, a sort over 5000
    key = np.random.default_rng(cells).integers(0, cells, size=1000)
    values, first, ids = sampling._distinct(key, cells)
    assert np.array_equal(values, np.unique(key))
    assert np.array_equal(key[first], values) and np.array_equal(values[ids], key)
    assert ids.dtype == np.min_scalar_type(len(values) - 1)


@pytest.mark.parametrize("char", [False, True], ids=["o", "hw"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: random_estimator_circuit(2, 3, 2, False, seed=1),
        lambda: random_estimator_circuit(3, 2, 3, True, seed=2),
        lambda: random_estimator_circuit(5, 2, 1, False, seed=3),
        lambda: random_estimator_circuit(5, 1, 0, True, seed=4),
        qutrit_magic_circuit,
        controlled_t_circuit,
        parseval_bound_circuit,
    ],
    ids=["d2-exact-gates", "d3-explicit-effect", "d5-haar-gate", "d5-named-only", "qutrit-magic", "controlled-t", "parseval-k7"],
)
def test_every_state_score_is_within_the_forward_norm(make, char):
    # check (i) of the sampler contract, the Hoeffding precondition: |Re w| <= M for every state.
    # M is tight (a trajectory can meet every factor's max), and M and a weight are products
    # of the same factors. The input factor is one sum, shared bit for bit; the one source of
    # rounding left is a drawn column's norm, summed in a block of visited columns, against
    # _LocalGate.norm, which sums it in a block of all columns. Those may round an ulp apart,
    # so the bound carries a slack of one ulp (relative 2^-52) per factor of M and no more.
    circuit = make()
    steps, values, effect = sampling._frame(circuit, char)
    m, method = sampling._aggregated_norm(steps, values, effect)
    factors = sum(isinstance(op, sampling._LocalGate) for _, op in steps) + len(effect)
    trajectories = 20_000
    w, counts = sampling._stream_states(
        circuit.system.d, measures._InputLabels(values), steps + effect, measures._stream_rng(7), trajectories
    )
    assert counts.sum() == trajectories and counts.min() >= 1 and len(w) == len(counts)
    assert np.max(np.abs(w.real)) <= m * (1 + factors * np.finfo(float).eps)
    assert method == ("bound" if circuit.system.n == 7 else "exact")


# a weight and a count whose product is finite: zero signs, subnormals and weights near the float range
FLOAT_MAX = float(np.finfo(float).max)
EXTREME_WEIGHTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e308, -1.5e308, FLOAT_MAX, 1 + 2**-52]


@st.composite
def states_with_counts(draw, max_count, max_weight=FLOAT_MAX):
    finite = st.floats(-max_weight, max_weight, allow_nan=False, allow_infinity=False)
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        w = draw(st.one_of(st.sampled_from([v for v in EXTREME_WEIGHTS if abs(v) <= max_weight]), finite))
        top = max_count if abs(w) <= FLOAT_MAX / max_count else max(1, int(FLOAT_MAX / abs(w)))
        pairs.append((w, draw(st.integers(1, top))))
    return np.array([w for w, _ in pairs]), np.array([c for _, c in pairs])


@settings(settings.get_profile("deterministic"))
@given(states_with_counts(max_count=40))
def test_the_weighted_sum_is_fsum_over_the_expanded_list(states):
    w, counts = states
    expanded = np.repeat(w, counts)
    try:
        want = math.fsum(memoryview(expanded))
    except OverflowError:
        assume(False)  # a sum past the float range is no estimator's
    got = sampling._weighted_sum(w, counts)
    assert got == want and math.copysign(1, got) == math.copysign(1, want)


@settings(settings.get_profile("deterministic"))
@given(states_with_counts(max_count=SAMPLE_CAP, max_weight=FLOAT_MAX / (8 * SAMPLE_CAP)))
def test_the_weighted_sum_is_exact_for_counts_up_to_the_sample_cap(states):
    # fsum over the expanded list rounds the exact sum once, as the exact rational sum does
    w, counts = states
    exact = sum(Fraction(float(v)) * int(c) for v, c in zip(w, counts))
    assert sampling._weighted_sum(w, counts) == float(exact)


def test_the_weighted_sum_reads_the_real_part():
    w = np.array([1.5 + 2j, -0.25 - 1j])
    assert sampling._weighted_sum(w, np.array([3, 2])) == 4.0

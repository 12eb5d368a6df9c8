"""Weak simulation of encoded Clifford circuits by homodyne sampling."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from quditphase import (
    Domain,
    GateKind,
    GaussianCircuit,
    HomodyneBatch,
    HomodyneSample,
    PhasePoint,
    QuditSystem,
    ValidationError,
    computational_state,
    haar_random_state,
    logical_clifford_symplectic,
    lp_norm,
    plus_state,
    pseudo_probability_report,
    simulate_homodyne_batch,
    t_state,
    x_distribution,
)
from quditphase.cli import main
from quditphase.homodyne import HistogramEntry, PseudoProbabilityReport


def spacing(d):
    return math.sqrt(math.pi / (2 * d))


def test_fourier_symplectic_is_rotation():
    s = QuditSystem(2, 1)
    g = logical_clifford_symplectic(s, GateKind.FOURIER)
    assert np.array_equal(g.s_matrix, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not np.any(g.displacement)
    assert g.integer_map is not None


def test_shift_displacement():
    for d in (2, 3):
        s = QuditSystem(d, 1)
        g = logical_clifford_symplectic(s, GateKind.SHIFT)
        assert np.array_equal(g.s_matrix, np.eye(2))
        assert abs(g.displacement[0] - 2 * spacing(d)) < 1e-12
        assert g.displacement[1] == 0.0


def test_phase_gate_shear():
    s = QuditSystem(3, 1)
    g = logical_clifford_symplectic(s, GateKind.PHASE)
    assert np.array_equal(g.s_matrix, np.array([[1.0, 0.0], [-1.0, 1.0]]))
    # odd d carries the half-shift correction on the momentum leg
    assert abs(g.displacement[1] - spacing(3)) < 1e-12


def test_sum_gate_four_by_four():
    s = QuditSystem(2, 2)
    g = logical_clifford_symplectic(s, GateKind.SUM, (0, 1))
    om = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.max(np.abs(g.s_matrix.T @ om @ g.s_matrix - om)) < 1e-12
    assert np.array_equal(g.integer_s, g.s_matrix.astype(int))


@pytest.mark.parametrize(
    "s_matrix, displacement",
    [([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]), ([[1.0, 0.0], [np.inf, 1.0]], [0.0, 0.0]), (np.eye(2), [0.0, np.nan])],
    ids=["nan-S", "inf-S", "nan-displacement"],
)
def test_non_finite_circuit_rejected(s_matrix, displacement):
    with pytest.raises(ValidationError):
        GaussianCircuit(QuditSystem(2, 1), np.array(s_matrix), np.array(displacement))


def test_a_position_beyond_the_float_range_is_rejected():
    s = QuditSystem(2, 1)
    rho = plus_state(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported once, as a ValidationError
        with pytest.raises(ValidationError, match="not finite"):
            simulate_homodyne_batch(rho, GaussianCircuit(s, np.diag([1e308, 1e-308]), np.zeros(2)), 40, seed=1)
        # a momentum beyond the range is dropped with the momentum block
        batch = simulate_homodyne_batch(rho, GaussianCircuit(s, np.diag([1e-308, 1e308]), np.zeros(2)), 40, seed=1)
    assert np.isfinite(batch.x).all()


def test_non_symplectic_rejected():
    s = QuditSystem(2, 1)
    with pytest.raises(ValidationError):
        GaussianCircuit(s, np.diag([1.0, 2.0]), np.zeros(2))


def test_samples_land_on_the_lattice():
    s = QuditSystem(2, 1)
    g = logical_clifford_symplectic(s, GateKind.FOURIER)
    c = spacing(2)
    for smp in simulate_homodyne_batch(plus_state(s), g, 50, seed=3):
        assert smp.lattice_index is not None
        for xi, ki in zip(smp.x, smp.lattice_index):
            assert xi == c * ki
        assert smp.branch == (0, 0)
        assert smp.sign in (-1, 1)


def test_sample_weight_is_norm_times_prefactor():
    s = QuditSystem(2, 1)
    rho = computational_state(s, 0)
    g = GaussianCircuit.identity(s)
    full_norm = lp_norm(x_distribution(rho, Domain.FULL), 1.0)
    want = full_norm * math.sqrt(2 / (8 * math.pi))
    smp = simulate_homodyne_batch(rho, g, 1, seed=0)[0]
    assert abs(smp.weight - want) < 1e-12
    assert abs(smp.weight - 1.1283791670955123) < 1e-12


def test_signs_track_the_coefficient():
    s = QuditSystem(2, 1)
    rho = t_state()
    dist = x_distribution(rho, Domain.FULL)
    g = GaussianCircuit.identity(s)
    for smp in simulate_homodyne_batch(rho, g, 40, seed=8):
        v = dist.value(smp.sampled_point)
        assert abs(v) > 1e-12
        assert smp.sign == (1 if v > 0 else -1)


def test_batch_reproducibility():
    s = QuditSystem(3, 1)
    g = logical_clifford_symplectic(s, GateKind.PHASE)
    rho = plus_state(s)
    a = simulate_homodyne_batch(rho, g, 10, seed=4)
    b = simulate_homodyne_batch(rho, g, 10, seed=4)
    assert a == b
    c = simulate_homodyne_batch(rho, g, 10, seed=5)
    assert a != c
    assert simulate_homodyne_batch(rho, g, 1, seed=4)[0] == a[0]


def test_sampled_points_follow_the_coefficient_magnitudes():
    s = QuditSystem(2, 1)
    rho = haar_random_state(s, np.random.default_rng(21))
    dist = x_distribution(rho, Domain.FULL)
    mags = np.abs(dist.values.ravel())
    q = mags / mags.sum()
    samples = simulate_homodyne_batch(rho, GaussianCircuit.identity(s), 4000, seed=1)
    counts = np.zeros_like(q)
    for smp in samples:
        flat = int(np.ravel_multi_index(tuple(smp.sampled_point.vector()), dist.values.shape))
        counts[flat] += 1
    keep = q > 1e-12
    assert counts[~keep].sum() == 0  # never samples off the support
    chi2 = float(np.sum((counts[keep] - 4000 * q[keep]) ** 2 / (4000 * q[keep])))
    p = 1 - stats.chi2.cdf(chi2, keep.sum() - 1)
    assert p > 0.01


def test_generic_s_matrix_has_no_lattice_index():
    s = QuditSystem(2, 1)
    shear = GaussianCircuit(s, np.array([[1.0, 0.0], [0.5, 1.0]]), np.zeros(2))
    smp = simulate_homodyne_batch(computational_state(s, 0), shear, 1, seed=0)[0]
    assert smp.lattice_index is None


def test_integer_map_is_derived_from_s():
    s = QuditSystem(3, 1)
    c = spacing(3)
    with pytest.raises(TypeError):
        GaussianCircuit(s, np.eye(2), np.zeros(2), integer_s=np.eye(2, dtype=int))
    rotation = GaussianCircuit(s, np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([c * 3, 0.0]))
    assert np.array_equal(rotation.integer_s, [[0, 1], [-1, 0]])
    assert np.array_equal(rotation.integer_shift, [3, 0])
    # off the lattice by a displacement: the float map
    assert GaussianCircuit(s, np.eye(2), np.array([0.1, 0.0])).integer_s is None
    assert GaussianCircuit(s, np.eye(2), np.array([0.1, 0.0])).integer_shift is None
    assert GaussianCircuit(s, np.eye(2), np.array([0.1, 0.0])).integer_map is None
    # integral, but 2^60 u would overflow int64: the float map
    assert GaussianCircuit(s, np.array([[1.0, 2.0**60], [0.0, 1.0]]), np.zeros(2)).integer_s is None
    with pytest.raises(ValueError):
        rotation.s_matrix[0, 0] = 2.0  # the map and S cannot drift apart


def test_pseudo_probability_report_shape():
    s = QuditSystem(2, 1)
    rho = computational_state(s, 0)
    g = GaussianCircuit.identity(s)
    report = pseudo_probability_report(rho, g, 500, seed=2)
    assert report.not_normalizable
    assert report.num_samples == 500
    assert sum(e.count for e in report.entries) == 500
    # the 0 codeword only ever reads out on the even position sublattice
    for e in report.entries:
        assert e.lattice_index is not None
        assert e.lattice_index[0] % 2 == 0


def test_report_with_zero_samples():
    s = QuditSystem(2, 1)
    report = pseudo_probability_report(
        plus_state(s), GaussianCircuit.identity(s), 0, seed=0
    )
    assert report.entries == ()
    assert report.num_samples == 0


def test_batch_is_a_lazy_immutable_sequence():
    s = QuditSystem(3, 2)
    rho = haar_random_state(s, np.random.default_rng(4))
    g = logical_clifford_symplectic(s, GateKind.SUM, (0, 1))
    batch = simulate_homodyne_batch(rho, g, 300, seed=6)
    assert isinstance(batch, HomodyneBatch)
    assert len(batch) == 300
    assert len(batch.points) < 300  # repeated labels are stored once
    items = list(batch)
    assert items == [batch[i] for i in range(300)]
    assert all(isinstance(smp, HomodyneSample) for smp in items)
    assert batch[0] == items[0] and batch[-1] == items[-1] == batch[299]
    head = batch[:7]
    assert isinstance(head, HomodyneBatch) and len(head) == 7
    assert list(head) == items[:7]
    assert list(batch[::-50]) == items[::-50]
    with pytest.raises(IndexError):
        batch[300]
    with pytest.raises(ValueError):
        batch.inverse[0] = 0
    assert batch == simulate_homodyne_batch(rho, g, 300, seed=6)
    assert batch != simulate_homodyne_batch(rho, g, 300, seed=7)
    assert batch != head
    assert batch[:7] == head
    assert batch != object() and not batch == object()
    assert repr(batch) == f"HomodyneBatch(300 samples, {len(batch.points)} distinct points)"


def test_batch_equality_in_the_generic_frame():
    s = QuditSystem(2, 1)
    rho = haar_random_state(s, np.random.default_rng(3))
    shear = GaussianCircuit(s, np.array([[1.0, 0.0], [0.5, 1.0]]), np.zeros(2))
    a = simulate_homodyne_batch(rho, shear, 50, seed=1)
    assert a.lattice_index is None
    assert a == simulate_homodyne_batch(rho, shear, 50, seed=1)
    assert a != simulate_homodyne_batch(rho, shear, 50, seed=2)
    assert a != simulate_homodyne_batch(rho, GaussianCircuit.identity(s), 50, seed=1)


def test_batch_rejects_negative_sizes_and_seeds():
    s = QuditSystem(2, 1)
    g = GaussianCircuit.identity(s)
    with pytest.raises(ValidationError):
        simulate_homodyne_batch(plus_state(s), g, -1, seed=0)
    with pytest.raises(ValidationError):
        simulate_homodyne_batch(plus_state(s), g, 1, seed=-1)
    assert len(simulate_homodyne_batch(plus_state(s), g, 0, seed=0)) == 0


def test_cli_path_builds_no_phase_points(tmp_path, monkeypatch, capsys):
    built = []
    original = PhasePoint.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PhasePoint, "__post_init__", counting)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "d": 3, "n": 2, "input": {"kind": "random", "seed": 2},
        "gate": {"kind": "SUM", "targets": [0, 1]}, "samples": 500, "seed": 8,
    }))
    assert main(["gkp-sim", "--circuit", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 500
    assert built == []
    simulate_homodyne_batch(plus_state(QuditSystem(2, 1)), GaussianCircuit.identity(QuditSystem(2, 1)), 1, seed=0)[0]
    assert len(built) == 1  # the counter does see an accessed sample


def reference_batch(rho, circuit, num_samples, seed):
    """Per-sample loop: the sampler before it became columnar."""
    d, n = rho.system.d, rho.system.n
    mod, c = 2 * d, spacing(d)
    flat = x_distribution(rho, Domain.FULL).values.reshape(-1).copy()
    flat[np.abs(flat) < 1e-12] = 0.0
    norm = float(np.sum(np.abs(flat)))
    nz = np.nonzero(flat)[0]
    cdf = np.cumsum(np.abs(flat[nz])) / norm
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))
    if len(nz) == 1:
        picks = np.full(num_samples, nz[0])
    else:
        picks = nz[np.minimum(np.searchsorted(cdf, rng.random(num_samples), side="right"), len(nz) - 1)]
    vecs = np.array(np.unravel_index(picks, (mod,) * (2 * n)))
    out = []
    for j in range(num_samples):
        uvec = vecs[:, j]
        if circuit.integer_s is not None:
            k = circuit.integer_s @ uvec + circuit.integer_shift
            xfull, lattice = c * k.astype(float), tuple(int(v) for v in k[:n])
        else:
            xfull, lattice = circuit.s_matrix @ (c * uvec.astype(float)) + circuit.displacement, None
        out.append(HomodyneSample(
            x=tuple(float(v) for v in xfull[:n]),
            branch=(0,) * (2 * n),
            sampled_point=PhasePoint(tuple(uvec[:n]), tuple(uvec[n:]), mod),
            sign=int(np.sign(flat[picks[j]])),
            weight=norm * (d / (8 * math.pi)) ** (n / 2),
            lattice_index=lattice,
        ))
    return out


@pytest.mark.parametrize("d, n, kind", [(2, 1, GateKind.FOURIER), (3, 2, GateKind.SUM), (4, 1, GateKind.PHASE), (2, 2, None)])
def test_batch_matches_the_per_sample_loop(d, n, kind):
    s = QuditSystem(d, n)
    rho = haar_random_state(s, np.random.default_rng(d + 10 * n))
    if kind is None:
        rng = np.random.default_rng(1)
        a = rng.normal(size=(n, n))
        shear = np.block([[np.eye(n), np.zeros((n, n))], [a + a.T, np.eye(n)]])
        circuit = GaussianCircuit(s, shear, rng.normal(size=2 * n))
    else:
        circuit = logical_clifford_symplectic(s, kind, (0, 1) if kind is GateKind.SUM else None)
    for seed in (0, 5):
        assert list(simulate_homodyne_batch(rho, circuit, 700, seed)) == reference_batch(rho, circuit, 700, seed)


def reference_report(rho, circuit, num_samples, seed):
    """Per-sample histogram loop: the report before it became columnar."""
    acc = {}
    for smp in simulate_homodyne_batch(rho, circuit, num_samples, seed):
        key = smp.lattice_index if smp.lattice_index is not None else tuple(round(v, 12) for v in smp.x)
        slot = acc.setdefault(key, [smp.x, smp.lattice_index, 0.0, 0])
        slot[2] += smp.sign * smp.weight / max(num_samples, 1)
        slot[3] += 1
    entries = tuple(
        HistogramEntry(position=v[0], lattice_index=v[1], signed_weight=v[2], count=v[3])
        for _, v in sorted(acc.items(), key=lambda kv: kv[0])
    )
    return PseudoProbabilityReport(entries=entries, num_samples=num_samples)


@pytest.mark.parametrize("d, n, kind", [(2, 2, GateKind.SUM), (3, 2, GateKind.SUM), (2, 1, None)])
def test_report_matches_the_per_sample_loop(d, n, kind):
    s = QuditSystem(d, n)
    rho = haar_random_state(s, np.random.default_rng(7 * d + n))
    if kind is None:
        circuit = GaussianCircuit(s, np.array([[1.0, 0.0], [0.5, 1.0]]), np.array([0.1, 0.0]))
    else:
        circuit = logical_clifford_symplectic(s, kind, (0, 1))
    for seed in (0, 9):
        report = pseudo_probability_report(rho, circuit, 2000, seed)
        assert report == reference_report(rho, circuit, 2000, seed)
        assert sum(e.count for e in report.entries) == 2000

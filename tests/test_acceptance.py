"""Acceptance gate: nine numbered end-to-end checks.

Each test prints one PASS line (visible under pytest -s / -rA) after its
asserts, stating the quantity checked and the pinned tolerance. Every
expected value is produced by an oracle independent of the code path
under test: dense linear algebra, closed forms evaluated inline, or
hand-frozen constants.
"""

import math
import time
from itertools import combinations, product

import numpy as np
from scipy import stats

from quditphase import (
    CircuitDescription,
    DenseOperator,
    DensityState,
    Domain,
    GateKind,
    GkpKind,
    MeasurementEffect,
    MeasurementKind,
    QuditSystem,
    StabilizerGroup,
    cell_lp_norm,
    characteristic_fn,
    computational_state,
    discrete_wigner,
    enumerate_single_qudit_groups,
    enumerate_single_qudit_stabilizers,
    estimate_born,
    forward_norm,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    haar_random_state,
    logical_clifford_symplectic,
    lp_norm,
    magic_negativity,
    maximally_mixed,
    renyi_from_cell_norms,
    sample_count,
    simulate_homodyne_batch,
    stabilizer_cell_norm,
    stabilizer_renyi,
    stabilizer_x_sparse,
    t_state,
    x_distribution,
)
from quditphase import conjugate_by, embed_generator
from quditphase.basis import o_stack, restricted_point
from quditphase.measures import apply_word, random_clifford_word
from quditphase.sampling import frame_measurement_coeffs

from dense_reference import (
    dense_stabilizer_state,
    dense_wigner,
    dense_x_full,
    einsum_contract_stack,
    sigma_permutation,
)

GRID = [
    (d, n)
    for d in (2, 3, 4, 5)
    for n in (1, 2)
    if d**n <= 25
]
P_GRID = (0.5, 1.0, 2.0, 3.0)
STATES_PER_CELL = 50


def _grid_states(system, count, seed):
    rng = np.random.default_rng(seed)
    return [haar_random_state(system, rng) for _ in range(count)]


def test_criterion_1_wigner_cell_identity():
    """d^{n(1-1/p)} ||x||_p equals the Wigner cell norm over the baseline."""
    t0 = time.perf_counter()
    worst = 0.0
    for d, n in GRID:
        system = QuditSystem(d, n)
        for rho in _grid_states(system, STATES_PER_CELL, seed=d * 100 + n):
            dist = x_distribution(rho, Domain.RESTRICTED)
            coeffs = gkp_wigner_coefficients(rho)
            for p in P_GRID:
                lhs = d ** (n * (1 - 1 / p)) * lp_norm(dist, p)
                rhs = cell_lp_norm(coeffs, p) / stabilizer_cell_norm(
                    system, GkpKind.WIGNER, p
                )
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 60.0
    print(
        f"PASS criterion 1: Wigner cell identity, max residual {worst:.3e} < 1e-9 "
        f"over {len(GRID)} (d, n) cells x {STATES_PER_CELL} states x p in {P_GRID} "
        f"({elapsed:.1f} s < 60 s)"
    )


def test_criterion_2_char_cell_identity_and_renyi():
    """Characteristic-side identity plus the M_2 reconstruction checks."""
    worst = 0.0
    for d, n in GRID:
        system = QuditSystem(d, n)
        for rho in _grid_states(system, STATES_PER_CELL, seed=d * 200 + n):
            chi = characteristic_fn(rho, Domain.RESTRICTED)
            coeffs = gkp_char_coefficients(rho)
            for p in P_GRID:
                lhs = d ** (n * (1 - 1 / p)) * lp_norm(chi, p)
                rhs = cell_lp_norm(coeffs, p) / stabilizer_cell_norm(
                    system, GkpKind.CHARACTERISTIC, p
                )
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9

    # reconstructed M_2 against the direct computation, qubit pure states
    s2 = QuditSystem(2, 1)
    worst_m2 = 0.0
    for rho in _grid_states(s2, 50, seed=77):
        worst_m2 = max(
            worst_m2, abs(renyi_from_cell_norms(rho, 2.0) - stabilizer_renyi(rho, 2.0))
        )
    assert worst_m2 < 1e-8

    # |T>: brute-force oracle over the four qubit Paulis
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    rho_t = t_state()
    xi = np.array([abs(np.trace(rho_t.matrix @ p)) ** 2 / 2 for p in paulis])
    oracle_m2 = -math.log(float(np.sum(xi**2))) - math.log(2)
    assert abs(oracle_m2 - math.log(4 / 3)) < 1e-12
    assert abs(stabilizer_renyi(rho_t, 2.0) - oracle_m2) < 1e-9
    assert abs(renyi_from_cell_norms(rho_t, 2.0) - oracle_m2) < 1e-9
    print(
        f"PASS criterion 2: characteristic cell identity max residual {worst:.3e} < 1e-9; "
        f"M_2 reconstruction dev {worst_m2:.3e} < 1e-8; "
        f"|T> M_2 = log(4/3) from the 4-Pauli oracle to 1e-9"
    )


def test_criterion_3_monotone_properties():
    """Clifford invariance, multiplicativity, stabilizer floor, Haar bound."""
    rng = np.random.default_rng(321)
    worst_inv = 0.0
    words = 0
    while words < 50:
        d = int(rng.choice([2, 3, 4, 5]))
        n = 2 if d <= 3 and rng.integers(2) else 1
        system = QuditSystem(d, n)
        rho = haar_random_state(system, rng)
        word = random_clifford_word(system, rng, length=8)
        before = magic_negativity(rho)
        after = magic_negativity(apply_word(rho, word))
        worst_inv = max(worst_inv, abs(before - after))
        words += 1
    assert worst_inv < 1e-9

    worst_mult = 0.0
    for d in (2, 3):
        s1 = QuditSystem(d, 1)
        s2 = QuditSystem(d, 2)
        for k in range(10):
            a = haar_random_state(s1, rng)
            b = haar_random_state(s1, rng)
            ab = DensityState(s2, np.kron(a.matrix, b.matrix))
            worst_mult = max(
                worst_mult,
                abs(magic_negativity(ab) - magic_negativity(a) * magic_negativity(b)),
            )
    assert worst_mult < 1e-9

    worst_floor = 0.0
    for d in (2, 3, 4, 5):
        for rho in enumerate_single_qudit_stabilizers(d):
            worst_floor = max(worst_floor, abs(magic_negativity(rho) - 1.0))
    assert worst_floor < 1e-12

    floor_ok = True
    for d in (2, 3, 4, 5):
        system = QuditSystem(d, 1)
        g = np.random.default_rng(d)
        for _ in range(200):
            if magic_negativity(haar_random_state(system, g)) < 1 - 1e-9:
                floor_ok = False
    assert floor_ok
    print(
        f"PASS criterion 3: Clifford invariance dev {worst_inv:.3e} < 1e-9 (50 words); "
        f"multiplicativity dev {worst_mult:.3e} < 1e-9; "
        f"stabilizer floor dev {worst_floor:.3e}; "
        f"||x||_1 >= 1 - 1e-9 on 200 Haar states for each d in 2..5"
    )


def test_criterion_4_sparse_coefficients():
    """Analytic lattice coefficients match dense ones with the exact support."""
    worst = 0.0
    for d in (2, 3, 4, 5):
        for group in enumerate_single_qudit_groups(d):
            sparse = stabilizer_x_sparse(group)
            dense = dense_x_full(dense_stabilizer_state(group))
            worst = max(worst, float(np.max(np.abs(sparse.values - dense))))
            mags = np.abs(sparse.values.ravel())
            assert (mags > 1e-12).sum() == 4 * d  # (4d)^n, n = 1
            restr = np.abs(sparse.restricted_view().ravel())
            on = restr[restr > 1e-12]
            assert len(on) == d  # d^n restricted points
            assert np.max(np.abs(on - 1.0 / d)) < 1e-12
    # one multi-qudit spot check per parity
    for d, gens, phase in (
        (2, ((1, 1, 0, 0), (0, 0, 1, 1)), (0, 1, 0, 0)),
        (3, ((1, 2, 0, 0), (0, 0, 1, 1)), (0, 2, 1, 0)),
    ):
        system = QuditSystem(d, 2)
        group = StabilizerGroup(system, gens, phase)
        sparse = stabilizer_x_sparse(group)
        dense = dense_x_full(dense_stabilizer_state(group))
        worst = max(worst, float(np.max(np.abs(sparse.values - dense))))
        mags = np.abs(sparse.values.ravel())
        assert (mags > 1e-12).sum() == (4 * d) ** 2
    assert worst < 1e-10
    print(
        f"PASS criterion 4: analytic vs dense coefficients max dev {worst:.3e} < 1e-10; "
        f"d^n restricted points of magnitude d^-n and (4d)^n full-domain nonzeros "
        f"on every enumerated state, d in 2..5"
    )


def test_criterion_5_odd_d_wigner_equivalence():
    """||x||_p = ||W||_p at odd d plus the entrywise relabeling."""
    worst = 0.0
    for d in (3, 5):
        system = QuditSystem(d, 1)
        rng = np.random.default_rng(d)
        pool = [haar_random_state(system, rng) for _ in range(20)]
        pool.extend(enumerate_single_qudit_stabilizers(d))
        perm = sigma_permutation(d)
        for rho in pool:
            w = discrete_wigner(rho)
            oracle = dense_wigner(rho)  # phase-point operator contraction, not x
            x = x_distribution(rho)
            for p in P_GRID:
                worst = max(worst, abs(lp_norm(w, p) - lp_norm(x, p)))
            worst = max(worst, float(np.max(np.abs(w.values - oracle))))
            for (a1, a2), target in perm.items():
                dev = abs(oracle[target] - (-1.0) ** (a1 * a2) * x.values[a1, a2])
                worst = max(worst, dev)
    assert worst < 1e-9
    print(
        f"PASS criterion 5: odd-d norm equality, W against the phase-point contraction "
        f"and its entrywise point relabeling, max dev {worst:.3e} < 1e-9 for d in (3, 5), p in {P_GRID}"
    )


def test_criterion_6_estimator_benchmark():
    """F-T-F benchmark: exact value, forward norm oracle, hit rate, K."""
    t0 = time.perf_counter()
    s = QuditSystem(2, 1)
    t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
    f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    circuit = CircuitDescription(
        s,
        computational_state(s, 0),
        (
            (GateKind.FOURIER, (0,)),
            DenseOperator(s, t_gate, unitary=True),
            (GateKind.FOURIER, (0,)),
        ),
        MeasurementEffect(MeasurementKind.COMPUTATIONAL, (0,), (0,)),
    )

    # dense Born oracle
    u = f @ t_gate @ f
    vec = u @ np.array([1.0, 0.0])
    exact = float(abs(vec[0]) ** 2)
    assert abs(exact - math.cos(math.pi / 8) ** 2) < 1e-12

    # dense column-sum oracle for the forward norm: max over restricted
    # columns of the magic gate, Clifford factors are exactly 1
    stack = o_stack(2)
    best = 0.0
    for l in range(2):
        for m in range(2):
            conj = t_gate @ stack[l, m] @ t_gate.conj().T
            col = einsum_contract_stack(s, stack, conj) / 2
            best = max(best, float(np.sum(np.abs(col.real))))
    assert abs(best - math.sqrt(2)) < 1e-12
    assert abs(forward_norm(circuit) - best) < 1e-12

    assert sample_count(1.0, 0.1, 0.05) == 738

    hits = 0
    for seed in range(200):
        report = estimate_born(circuit, 0.02, 0.05, seed=seed)
        assert report.samples_used == 36889
        if abs(report.estimate - exact) <= 0.02:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 190
    assert elapsed < 300.0
    print(
        f"PASS criterion 6: exact Born cos^2(pi/8); forward norm sqrt(2) from the "
        f"dense column oracle; K(1, 0.1, 0.05) = 738; {hits}/200 runs within "
        f"eps = 0.02 (>= 190) in {elapsed:.1f} s < 300 s"
    )


def test_criterion_7_measurement_cost():
    """max |x_Pi| = 2^{n-k} for qubit computational effects, 1 at odd d."""
    for n in (1, 2, 3):
        system = QuditSystem(2, n)
        for k in range(1, n + 1):
            for idx in combinations(range(n), k):
                for outs in product(range(2), repeat=k):
                    effect = MeasurementEffect(
                        MeasurementKind.COMPUTATIONAL, idx, outs
                    )
                    best = max(
                        abs(frame_measurement_coeffs(system, effect, restricted_point(system, vec[:n], vec[n:])))
                        for vec in product(range(2), repeat=2 * n)
                    )
                    assert abs(best - 2.0 ** (n - k)) < 1e-12, (n, k, idx, outs)
    for n in (1, 2):
        system = QuditSystem(3, n)
        for k in range(1, n + 1):
            for idx in combinations(range(n), k):
                effect = MeasurementEffect(
                    MeasurementKind.COMPUTATIONAL, idx, (0,) * k
                )
                best = max(
                    abs(frame_measurement_coeffs(system, effect, restricted_point(system, vec[:n], vec[n:])))
                    for vec in product(range(3), repeat=2 * n)
                )
                assert abs(best - 1.0) < 1e-12, (n, k, idx)
    print(
        "PASS criterion 7: exhaustive max |x_Pi| = 2^(n-k) for qubit computational "
        "effects (n <= 3, all index subsets and outcomes); equal to 1 at d = 3"
    )


def test_criterion_8_homodyne_weak_simulation():
    """Lattice sampler: chi^2 fit against the mapped coefficients, exact grid."""
    num = 10_000
    for d, kind in ((2, GateKind.FOURIER), (3, GateKind.PHASE)):
        system = QuditSystem(d, 1)
        rho = haar_random_state(system, np.random.default_rng(90 + d))
        circuit = logical_clifford_symplectic(system, kind)
        samples = simulate_homodyne_batch(rho, circuit, num, seed=17)

        # exact coordinates: sqrt(pi/2d) Z images of the sampled points
        c = math.sqrt(math.pi / (2 * d))
        amap = circuit.integer_map
        for smp in samples[:200]:
            assert smp.lattice_index is not None
            k = circuit.integer_s @ smp.sampled_point.vector() + circuit.integer_shift
            assert smp.x == tuple(c * k[: system.n])

        # chi^2 of mapped sample frequencies against |x| of the rotated state
        u = embed_generator(system, kind)
        rot = DensityState(system, conjugate_by(u, DenseOperator(system, rho.matrix)).entries)
        ref = np.abs(x_distribution(rot, Domain.FULL).values)
        q = ref / ref.sum()
        counts = np.zeros_like(q)
        for smp in samples:
            img = amap.apply(smp.sampled_point)
            counts[tuple(img.vector())] += 1
        keep = q.ravel() > 1e-12
        flat_c, flat_q = counts.ravel()[keep], q.ravel()[keep]
        assert counts.ravel()[~keep].sum() == 0
        chi2 = float(np.sum((flat_c - num * flat_q) ** 2 / (num * flat_q)))
        pval = float(1 - stats.chi2.cdf(chi2, keep.sum() - 1))
        assert pval > 0.01, (d, kind, pval)
    print(
        "PASS criterion 8: 10^4-sample chi^2 fit passes (p > 0.01) against the "
        "covariance-mapped coefficients at d in (2, 3); all coordinates lie on "
        "sqrt(pi/2d) Z exactly"
    )


def test_criterion_9_flat_state_norms_and_hiding():
    """Flat-state norms and the one-sided tensor hiding effect."""
    for d in (2, 4, 6):
        system = QuditSystem(d, 1)
        dist = x_distribution(maximally_mixed(system))
        assert abs(lp_norm(dist, 2.0) - 1.0 / d) < 1e-12
        assert abs(lp_norm(dist, 1.0) - 0.5) < 1e-12  # even d
    for d in (3, 5):
        system = QuditSystem(d, 1)
        dist = x_distribution(maximally_mixed(system))
        assert abs(lp_norm(dist, 2.0) - 1.0 / d) < 1e-12
        assert abs(lp_norm(dist, 1.0) - 1.0) < 1e-12  # odd d

    t_norm = magic_negativity(t_state())
    s2 = QuditSystem(2, 2)
    hidden = DensityState(s2, np.kron(t_state().matrix, np.eye(2) / 2))
    hidden_norm = magic_negativity(hidden)
    assert abs(hidden_norm - t_norm / 2) < 1e-12
    assert abs(hidden_norm - 0.6035533905932737) < 1e-12
    assert hidden_norm < t_norm  # the flat factor hides the magic
    assert hidden_norm < 1.0  # below the stabilizer floor
    print(
        "PASS criterion 9: 2-norm of the flat state equals 1/d for d in (2, 4, 6); "
        "1-norms are 1/2 (even) and 1 (odd); ||x_{T x I/2}||_1 = ||x_T||_1 / 2 "
        "= 0.6035533905932737 < ||x_T||_1 (hiding)"
    )

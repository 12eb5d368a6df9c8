"""Where the magic measures are monotones, and where they are not.

Criterion 3 of the acceptance suite checks Clifford invariance,
multiplicativity and the pure-state floor; this module pins what the
docstrings of ``magic_negativity``, ``is_hyperpolyhedral`` and
``stabilizer_renyi`` say about free operations and free mixed states:
partial trace and a computational readout averaged over its outcomes.
"""

import math

import numpy as np
import pytest

from quditphase import (
    DensityState,
    QuditSystem,
    computational_state,
    haar_random_state,
    is_hyperpolyhedral,
    magic_negativity,
    maximally_mixed,
    stabilizer_renyi,
)
from quditphase.measures import apply_word, random_clifford_word


def trace_out(rho: DensityState, qudit: int) -> DensityState:
    """Partial trace over one qudit."""
    d, n = rho.system.d, rho.system.n
    reduced = np.trace(rho.matrix.reshape((d,) * (2 * n)), axis1=qudit, axis2=n + qudit)
    return DensityState(QuditSystem(d, n - 1), reduced.reshape(d ** (n - 1), -1))


def averaged_readout_negativity(rho: DensityState) -> float:
    """sum_o p_o ||x(rho_o)||_1 over the outcomes o of a computational
    readout of the last qudit, rho_o the post-readout state of the others."""
    d, n = rho.system.d, rho.system.n
    rest = rho.system.dim // d
    blocks = rho.matrix.reshape(rest, d, rest, d)
    total = 0.0
    for o in range(d):
        p = float(np.trace(blocks[:, o, :, o]).real)
        if p > 1e-12:
            total += p * magic_negativity(DensityState(QuditSystem(d, n - 1), blocks[:, o, :, o] / p))
    return total


@pytest.mark.parametrize("d", [2, 4, 6])
def test_partial_trace_raises_the_negativity_at_even_d(d):
    # |0><0| (x) I/d is a stabilizer mixture at 1/2; tracing out the
    # second qudit, a free operation, leaves the stabilizer state |0> at 1
    zero = computational_state(QuditSystem(d, 1), 0).matrix
    rho = DensityState(QuditSystem(d, 2), np.kron(zero, np.eye(d) / d))
    assert abs(magic_negativity(rho) - 0.5) < 1e-12
    assert abs(magic_negativity(trace_out(rho, 1)) - 1.0) < 1e-12


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 4), (3, 2)])
@pytest.mark.parametrize("qudit", ["first", "last"])
def test_partial_trace_does_not_raise_the_negativity_of_pure_states(d, n, qudit):
    rng = np.random.default_rng(11)
    system = QuditSystem(d, n)
    for _ in range(50):
        rho = haar_random_state(system, rng)
        reduced = trace_out(rho, 0 if qudit == "first" else n - 1)
        assert magic_negativity(reduced) <= magic_negativity(rho) + 1e-12


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_averaged_readout_does_not_raise_the_negativity_of_pure_states(d, n):
    # a single outcome can raise it (by up to 0.018 at d=2, n=2); the
    # outcome average does not
    rng = np.random.default_rng(13)
    system = QuditSystem(d, n)
    for _ in range(50):
        rho = haar_random_state(system, rng)
        assert averaged_readout_negativity(rho) <= magic_negativity(rho) + 1e-12


def assert_odd_d_mixtures_do_not_gain(operation):
    """operation(rho) <= ||x(rho)||_1 on 30 seeded mixtures of 3 Haar states
    at each of (d, n) = (3, 2), (3, 3), (5, 2)."""
    for d, n in [(3, 2), (3, 3), (5, 2)]:
        rng = np.random.default_rng(5)
        system = QuditSystem(d, n)
        for _ in range(30):
            weights = rng.dirichlet(np.ones(3))
            rho = DensityState(system, sum(w * haar_random_state(system, rng).matrix for w in weights))
            assert operation(rho) <= magic_negativity(rho) + 1e-12


def test_partial_trace_does_not_raise_the_negativity_at_odd_d():
    assert_odd_d_mixtures_do_not_gain(lambda rho: magic_negativity(trace_out(rho, rho.system.n - 1)))


def test_averaged_readout_does_not_raise_the_negativity_at_odd_d():
    assert_odd_d_mixtures_do_not_gain(averaged_readout_negativity)


def test_stabilizer_mixtures_pass_the_hyperpolyhedral_flag():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        system = QuditSystem(d, 2)
        for _ in range(5):
            weights = rng.dirichlet(np.ones(4))
            pure = [apply_word(computational_state(system, 0), random_clifford_word(system, rng, 8)) for _ in weights]
            rho = DensityState(system, sum(w * s.matrix for w, s in zip(weights, pure)))
            assert is_hyperpolyhedral(rho)[0]


def test_the_hyperpolyhedral_flag_accepts_a_state_that_is_no_stabilizer_mixture():
    # a mixture of Haar states at d=2, n=2: the flag accepts it, but its
    # one-qudit reduction has ||x||_1 > 1, and the reduction of a
    # stabilizer mixture is a stabilizer mixture, at most 1
    system = QuditSystem(2, 2)
    rng = np.random.default_rng(61)
    weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
    rho = DensityState(system, sum(w * haar_random_state(system, rng).matrix for w in weights))
    accepted, norm = is_hyperpolyhedral(rho)
    assert accepted and norm < 0.95
    assert magic_negativity(trace_out(rho, 1)) > 1.1


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stabilizer_renyi_is_log_d_on_the_maximally_mixed_qudit(d):
    # I/d is free, so M_alpha is a pure-state measure
    assert abs(stabilizer_renyi(maximally_mixed(QuditSystem(d, 1)), 2.0) - math.log(d)) < 1e-12

"""Dense reference tables and states.

Each table contracts the density matrix against a stack of single-qudit
operators at every label in [0, 2d), built from the defining formulas
(``o_matrix`` for O_{l,m}, ``hw_matrix`` for P(a, b)). It shares no code
with the per-factor sign lift that the library uses for its FULL tables,
so the tests can hold the lift against it. ``dense_stabilizer_state``
builds a stabilizer state as the product of its generator eigenprojectors
from ``hw_matrix``, sharing no code with the library's group table.
"""

import numpy as np

from quditphase.basis import o_matrix
from quditphase.core import DensityState, InvariantError, hw_matrix
from quditphase.measures import _contract_stack
from quditphase.stabilizer import generator_phases


def _full_stack(build, d):
    return np.array([[build(d, l, m) for m in range(2 * d)] for l in range(2 * d)])


def dense_x_full(rho):
    """x(u) = d^{-n} Tr(O_u rho) at every u in Z_{2d}^{2n}."""
    s = rho.system
    return _contract_stack(s, _full_stack(o_matrix, s.d), rho.matrix) / s.dim


def dense_chi_full(rho):
    """chi(u) = d^{-n} Tr(rho P(u)^dagger) at every u in Z_{2d}^{2n}."""
    s = rho.system
    dag = _full_stack(hw_matrix, s.d).conj().transpose(0, 1, 3, 2)
    return _contract_stack(s, dag, rho.matrix) / s.dim


def dense_gamma(rho):
    """Characteristic cell d^n e^{-i pi l.m/d} w_d^{-l.m/2} chi(u)^*, point by point."""
    d, n = rho.system.d, rho.system.n
    idx = np.indices((2 * d,) * (2 * n))
    lm = sum(idx[i] * idx[n + i] for i in range(n))
    phase = np.exp(-1j * np.pi * lm / d)
    if d % 2:
        phase = phase * np.exp(-2j * np.pi * ((pow(2, -1, d) * lm) % d) / d)
    else:
        phase = phase * np.exp(-1j * np.pi * lm / d)
    return d**n * phase * np.conj(dense_chi_full(rho))


def dense_stabilizer_state(group):
    """Product of the generator eigenprojectors d^{-1} sum_k (w^{c_i} P(s_i))^k."""
    system = group.system
    d, n = system.d, system.n
    rho = np.eye(system.dim, dtype=complex)
    omega = np.exp(2j * np.pi / d)
    for s, c in zip(group.generators, generator_phases(group)):
        g = np.ones((1, 1), dtype=complex)
        for a, b in zip(s[:n], s[n:]):
            g = np.kron(g, hw_matrix(d, a, b))
        g = omega**c * g
        proj = np.eye(system.dim, dtype=complex)
        power = np.eye(system.dim, dtype=complex)
        for _ in range(d - 1):
            power = power @ g
            proj = proj + power
        rho = rho @ (proj / d)
    out = DensityState(system, rho)
    if abs(out.purity() - 1.0) > 1e-9:
        raise InvariantError("projector product is not a pure state")
    return out

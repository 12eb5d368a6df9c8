"""Dense doubled-domain reference tables.

Each table contracts the density matrix against a stack of single-qudit
operators at every label in [0, 2d), built from the defining formulas
(``o_matrix`` for O_{l,m}, ``hw_matrix`` for P(a, b)). It shares no code
with the per-factor sign lift that the library uses for its FULL tables,
so the tests can hold the lift against it.
"""

import numpy as np

from quditphase.basis import o_matrix
from quditphase.core import hw_matrix
from quditphase.measures import _contract_stack


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

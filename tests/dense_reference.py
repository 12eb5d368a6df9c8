"""Dense reference tables and states.

Each table contracts the density matrix against a stack of single-qudit
operators at every label in [0, 2d), built from the defining formulas
(``o_matrix`` for O_{l,m}, ``hw_matrix`` for P(a, b)). It shares no code
with the per-factor sign lift that the library uses for its FULL tables,
so the tests can hold the lift against it. ``dense_stabilizer_state``
builds a stabilizer state as the product of its generator eigenprojectors
from ``hw_matrix``, sharing no code with the library's group table.
``dense_frame_column`` builds one estimator frame column from a dense
Kronecker product, a dense conjugation and one contraction, sharing no
code with the library's batched column kernel or its support reduction.
``gather_lift`` is the index-gather form of the per-factor lift, kept as
the reference for the library's broadcast ``lift_to_full``.
"""

from functools import reduce

import numpy as np

from quditphase.basis import o_matrix, o_stack, p_stack
from quditphase.core import DensityState, InvariantError, QuditSystem, hw_matrix
from quditphase.measures import NORM_CUTOFF, _contract_stack
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


def gather_lift(restricted, table):
    """restricted(u mod d) * prod_i table[l_i, m_i] over Z_{2d}^{2n} by gathers.

    Rows (l_1..l_n) and columns (m_1..m_n) are gathered from the restricted
    matrix at u mod d; the per-factor product is then the Kronecker power of
    ``table``, applied in place as factor 1 times the rest.
    """
    d, n = table.shape[0] // 2, restricted.ndim // 2
    index = np.ravel_multi_index(np.indices((2 * d,) * n).reshape(n, -1) % d, (d,) * n)
    mat = restricted.reshape(d**n, d**n)
    out = np.take(np.take(mat, index, axis=0), index, axis=1).astype(np.result_type(mat, table), copy=False)
    rest = reduce(np.kron, [table] * (n - 1), np.ones((1, 1)))
    view = out.reshape(2 * d, len(rest), 2 * d, len(rest))
    view *= table[:, None, :, None]
    view *= rest[None, :, None, :]
    return out.reshape((2 * d,) * (2 * n))


def dense_stabilizer_state(group):
    """Product of the generator eigenprojectors d^{-1} sum_k (w^{c_i} P(s_i))^k.

    Each generator is the dense Kronecker product of ``hw_matrix`` factors,
    a monomial matrix (one nonzero per column), so right multiplication by
    it gathers and scales columns: each power costs O(dim^2), not a matmul.
    """
    system = group.system
    d, n = system.d, system.n
    rho = np.eye(system.dim, dtype=complex)
    omega = np.exp(2j * np.pi / d)
    for s, c in zip(group.generators, generator_phases(group)):
        g = np.ones((1, 1), dtype=complex)
        for a, b in zip(s[:n], s[n:]):
            g = np.kron(g, hw_matrix(d, a, b))
        g = omega**c * g
        if np.any(np.count_nonzero(g, axis=0) != 1):
            raise InvariantError("a Heisenberg-Weyl operator must be monomial")
        rows = np.argmax(g != 0, axis=0)
        values = g[rows, np.arange(system.dim)]
        proj = power = rho
        for _ in range(d - 1):
            power = power[:, rows] * values  # power @ g
            proj = proj + power
        rho = proj / d
    out = DensityState(system, rho)
    if abs(out.purity() - 1.0) > 1e-9:
        raise InvariantError("projector product is not a pure state")
    return out


def dense_frame_column(system: QuditSystem, char: bool, unitary: np.ndarray, flat: int) -> np.ndarray:
    """x_U(lam' | lam) for every lam', lam the restricted label at ``flat``.

    The basis operator at lam is the Kronecker product of single-qudit
    stack entries; it is conjugated by U and contracted with the dual
    stack. O-frame columns are real, Heisenberg-Weyl columns complex.
    """
    d, n = system.d, system.n
    basis, dual = (p_stack(d), np.conj(np.swapaxes(p_stack(d), 2, 3))) if char else (o_stack(d), o_stack(d))
    vec = np.unravel_index(flat, (d,) * (2 * n))
    op = basis[vec[0], vec[n]]
    for q in range(1, n):
        op = np.kron(op, basis[vec[q], vec[n + q]])
    col = _contract_stack(system, dual, unitary @ op @ unitary.conj().T) / d**n
    if not char:
        if np.max(np.abs(col.imag)) > 1e-10:
            raise InvariantError("frame column must be real")
        col = col.real
    col = col.reshape(-1)
    col[np.abs(col) < NORM_CUTOFF] = 0.0
    if not np.any(col):
        raise InvariantError("frame column vanished; unitary inconsistent")
    return col

"""Dense reference tables and states.

Each table contracts the density matrix against a stack of single-qudit
operators at every label in [0, 2d), built from the defining formulas
(``o_matrix`` for O_{l,m}, ``hw_matrix`` for P(a, b)). It shares no code
with the per-factor sign lift that the library uses for its FULL tables,
so the tests can hold the lift against it. ``dense_stabilizer_state``
builds a stabilizer state as the product of its generator eigenprojectors
from ``hw_matrix``, sharing no code with the library's group table.
``dense_frame_columns`` builds estimator frame columns, a batch of labels
at a time, from dense Kronecker products, dense conjugations and one
contraction, sharing no code with the library's batched column kernel or
its support reduction.
``gather_lift`` is the index-gather form of the per-factor lift, kept as
the reference for the library's ``lift_to_full`` (a column-only lift times
a cached row-sign table); it takes any (2d, 2d) table.
``einsum_contract_stack`` is the one-einsum form of the per-factor stack
contraction Tr(Stack_u M), the reference for the library's tensordot
passes and the contraction every table here uses.
``dense_born_probability`` is Tr(Pi U rho U^dagger) of a circuit from
dense matrices alone, the oracle for the estimator's statistical checks.
``full_unitarity_deviation`` is max |U U^dagger - I| on the whole
register against a built identity, the check the library ran before it
checked a gate on the block its exact support leaves.
``dense_wigner`` contracts the state with the odd-d phase-point operators
A(u) built from their Heisenberg-Weyl sum (``a_stack``), and
``sigma_permutation`` relates A to O by matching operators numerically;
together they are the oracle for the library's relabeled-x Wigner table.
"""

import string
from functools import lru_cache, reduce

import numpy as np

from quditphase.basis import EvenDimensionError, PhasePoint, o_matrix, o_stack, p_stack
from quditphase.core import (
    DenseOperator,
    DensityState,
    InvariantError,
    QuditError,
    QuditSystem,
    ValidationError,
    embed_generator,
    hw_matrix,
)
from quditphase.measures import NORM_CUTOFF
from quditphase.sampling import MeasurementKind
from quditphase.stabilizer import generator_phases


def einsum_contract_stack(system, stack, matrix):
    """out[..., u] = Tr(Stack_u M) by one einsum over all n factors.

    ``stack`` has shape (mod, mod, d, d) and ``matrix`` shape (d^n, d^n),
    or (B, d^n, d^n) with a leading batch axis; the result keeps the batch
    axis and has 2n more, ordered (l-block, m-block).
    """
    d, n = system.d, system.n
    lead = matrix.ndim - 2
    letters = iter(string.ascii_letters)
    ls, ms, rows, cols = ([next(letters) for _ in range(n)] for _ in range(4))
    batch = "".join(next(letters) for _ in range(lead))
    subs = [l + m + r + c for l, m, r, c in zip(ls, ms, rows, cols)]
    spec = ",".join(subs + [batch + "".join(cols + rows)]) + "->" + batch + "".join(ls + ms)
    operands = [*[stack] * n, matrix.reshape(matrix.shape[:lead] + (d,) * (2 * n))]
    return np.einsum(spec, *operands, optimize=_greedy_path(spec, tuple(op.shape for op in operands)))


@lru_cache(maxsize=None)
def _greedy_path(spec, shapes):
    """The contraction order ``optimize=True`` would pick, found once per spec and shapes."""
    return np.einsum_path(spec, *[np.empty(shape) for shape in shapes], optimize="greedy")[0]


@lru_cache(maxsize=None)
def _full_stack(build, d):
    """The (2d, 2d, d, d) stack of ``build(d, l, m)``, built once per d; read-only."""
    stack = np.array([[build(d, l, m) for m in range(2 * d)] for l in range(2 * d)])
    stack.flags.writeable = False
    return stack


def dense_x_full(rho):
    """x(u) = d^{-n} Tr(O_u rho) at every u in Z_{2d}^{2n}."""
    s = rho.system
    return einsum_contract_stack(s, _full_stack(o_matrix, s.d), rho.matrix) / s.dim


def dense_chi_full(rho):
    """chi(u) = d^{-n} Tr(rho P(u)^dagger) at every u in Z_{2d}^{2n}."""
    s = rho.system
    dag = _full_stack(hw_matrix, s.d).conj().transpose(0, 1, 3, 2)
    return einsum_contract_stack(s, dag, rho.matrix) / s.dim


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


def dense_frame_columns(system: QuditSystem, char: bool, unitary: np.ndarray, flats) -> np.ndarray:
    """One row x_U(lam' | lam) over every lam' per restricted label lam at ``flats``.

    The basis operator at each lam is the Kronecker product of single-qudit
    stack entries, built over the batch by one einsum per factor; all are
    conjugated by U and contracted with the dual stack by one einsum. O-frame
    rows are real, Heisenberg-Weyl rows complex.
    """
    d, n = system.d, system.n
    basis, dual = (p_stack(d), np.conj(np.swapaxes(p_stack(d), 2, 3))) if char else (o_stack(d), o_stack(d))
    vec = np.unravel_index(np.asarray(flats), (d,) * (2 * n))
    ops = np.ones((len(vec[0]), 1, 1))
    for q in range(n):
        side = ops.shape[1] * d
        ops = np.einsum("bij,bkl->bikjl", ops, basis[vec[q], vec[n + q]]).reshape(-1, side, side)
    rows = einsum_contract_stack(system, dual, unitary @ ops @ unitary.conj().T).reshape(len(ops), -1) / d**n
    if not char:
        if np.max(np.abs(rows.imag)) > 1e-10:
            raise InvariantError("frame column must be real")
        rows = rows.real
    rows[np.abs(rows) < NORM_CUTOFF] = 0.0
    if not np.all(np.any(rows, axis=1)):
        raise InvariantError("frame column vanished; unitary inconsistent")
    return rows


def dense_born_probability(circuit) -> float:
    """Tr(Pi U rho U^dagger): the input conjugated by each gate's dense unitary in
    order (a named one by ``embed_generator``) and read by the dense effect, a
    computational one as the diagonal entries whose digits (qudit 0 the most
    significant) match the outcomes."""
    system = circuit.system
    rho = circuit.input_state.matrix
    for gate in circuit.gates:
        u = gate.entries if isinstance(gate, DenseOperator) else embed_generator(system, *gate).entries
        rho = u @ rho @ u.conj().T
    effect = circuit.measurement
    if effect.kind is MeasurementKind.EXPLICIT:
        return float(np.real(np.trace(effect.operator.entries @ rho)))
    digits = np.unravel_index(np.arange(system.dim), (system.d,) * system.n)
    hit = np.all([digits[q] == o for q, o in zip(effect.indices, effect.outcomes)], axis=0)
    return float(np.real(np.sum(np.diag(rho)[hit])))


def full_unitarity_deviation(unitary: np.ndarray) -> float:
    """max |U U^dagger - I| over the full register."""
    return float(np.max(np.abs(unitary @ unitary.conj().T - np.eye(len(unitary)))))


@lru_cache(maxsize=16)
def a_stack(d: int) -> np.ndarray:
    """All single-qudit phase-point operators A(a1, a2), odd d, cached."""
    if d % 2 == 0:
        raise EvenDimensionError("phase-space point operators require odd d")
    stack = np.zeros((d, d, d, d), dtype=complex)
    omega = np.exp(2j * np.pi / d)
    hw_dags = [[hw_matrix(d, b1, b2).conj().T for b2 in range(d)] for b1 in range(d)]
    for a1 in range(d):
        for a2 in range(d):
            acc = np.zeros((d, d), dtype=complex)
            for b1 in range(d):
                for b2 in range(d):
                    # u^T Omega v with per-factor Omega = [[0,-1],[1,0]]
                    expo = (-(a1 * (-b2) + a2 * b1)) % d
                    acc += omega**expo * hw_dags[b1][b2]
            stack[a1, a2] = acc / d
    stack.flags.writeable = False
    return stack


def phase_point_operator(system: QuditSystem, u: PhasePoint) -> DenseOperator:
    """A(u) = d^{-n} sum_v w^{-u^T Omega v} P(v)^dagger; odd d only."""
    if system.d % 2 == 0:
        raise EvenDimensionError("phase-space point operators require odd d")
    if u.n != system.n:
        raise ValidationError("point size mismatch")
    mat = np.ones((1, 1), dtype=complex)
    for a1, a2 in zip(u.l, u.m):
        mat = np.kron(mat, a_stack(system.d)[a1 % system.d, a2 % system.d])
    return DenseOperator(system, mat, hermitian=True)


@lru_cache(maxsize=16)
def sigma_permutation(d: int) -> dict[tuple[int, int], tuple[int, int]]:
    """Point relabeling sigma with (-1)^{a1 a2} O_{a1,a2} = A(sigma(a)), odd d,
    found by matching operators numerically."""
    if d % 2 == 0:
        raise EvenDimensionError("sigma relates A and O for odd d only")
    ast = a_stack(d)
    ost = o_stack(d)
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for a1 in range(d):
        for a2 in range(d):
            target = (-1.0) ** (a1 * a2) * ost[a1, a2]
            hits = [
                (b1, b2)
                for b1 in range(d)
                for b2 in range(d)
                if np.max(np.abs(ast[b1, b2] - target)) < 1e-10
            ]
            if len(hits) != 1:
                raise QuditError(f"sigma matching failed at {(a1, a2)}: {hits}")
            table[(a1, a2)] = hits[0]
    return table


def dense_wigner(rho):
    """W(u) = d^{-n} Tr[A(u) rho] on Z_d^{2n} by contraction with the A stack."""
    s = rho.system
    raw = einsum_contract_stack(s, a_stack(s.d), rho.matrix) / s.dim
    if np.max(np.abs(raw.imag)) > 1e-10:
        raise InvariantError("Wigner values must be real")
    return raw.real

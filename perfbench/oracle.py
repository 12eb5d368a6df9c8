"""Reference values the benchmark checks the library against.

Nothing here imports quditphase. Each function rebuilds its object from
the defining formula with plain numpy, so a check never runs the code
path it checks:

* single-qudit O_{l,m} and P(a, b) matrices, multiplied out with ``kron``
  (the library contracts cached operator stacks with ``einsum``);
* the exact Born probability of a generator circuit, by applying gate
  matrices to the state vector |0...0> one tensor axis at a time (the
  library estimates it by sampling in a frame, and embeds gates densely).
"""

from __future__ import annotations

import math

import numpy as np


def _omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def o_matrix(d: int, l: int, m: int) -> np.ndarray:
    """O_{l,m} = e^{-i pi l m / d} M_l Z^m with M_l |v> = |l - v mod d>."""
    v = np.arange(d)
    anti = np.zeros((d, d), dtype=complex)
    anti[(l - v) % d, v] = 1.0
    return np.exp(-1j * np.pi * l * m / d) * anti @ np.diag(_omega(d) ** (m * v))


def p_matrix(d: int, a: int, b: int) -> np.ndarray:
    """P(a, b) = w^{ab/2} X^a Z^b, the half phase taken per parity of d."""
    v = np.arange(d)
    shift = np.zeros((d, d), dtype=complex)
    shift[(v + a) % d, v] = 1.0
    if d % 2:
        half = _omega(d) ** ((a * b * (d + 1) // 2) % d)
    else:
        half = np.exp(1j * np.pi * a * b / d)
    return half * shift @ np.diag(_omega(d) ** (b * v))


def _kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def x_value(rho: np.ndarray, d: int, n: int, label) -> float:
    """x(u) = d^-n Tr(O_u rho) at one label (l_1..l_n, m_1..m_n)."""
    op = _kron_all(o_matrix(d, label[i], label[n + i]) for i in range(n))
    return float(np.real(np.sum(op.T * rho))) / d**n


def chi_value(rho: np.ndarray, d: int, n: int, label) -> complex:
    """chi(u) = d^-n Tr(rho P(u)^dagger) at one label (a-block, b-block)."""
    op = _kron_all(p_matrix(d, label[i], label[n + i]) for i in range(n))
    return complex(np.sum(rho * op.conj())) / d**n


# ------------------------------------------------------------ gate matrices

def single_gate(d: int, kind: str) -> np.ndarray:
    """Dense one-qudit Clifford generator, by its textbook definition."""
    j = np.arange(d)
    if kind == "FOURIER":
        return _omega(d) ** np.outer(j, j) / math.sqrt(d)
    if kind == "PHASE":
        if d % 2:
            return np.diag(_omega(d) ** ((j * (j - 1) // 2) % d))
        return np.diag(np.exp(1j * np.pi * j * j / d))
    if kind == "SHIFT":
        return np.roll(np.eye(d), 1, axis=0)
    if kind == "CLOCK":
        return np.diag(_omega(d) ** j)
    raise ValueError(f"no single-qudit gate {kind!r}")


def embed_dense(d: int, n: int, gate: np.ndarray, target: int) -> np.ndarray:
    """Dense d^n matrix of a one-qudit gate on ``target`` (qudit 0 leftmost)."""
    return _kron_all(gate if k == target else np.eye(d) for k in range(n))


def _apply_single(psi: np.ndarray, gate: np.ndarray, t: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(gate, psi, axes=([1], [t])), 0, t)


def _apply_sum(psi: np.ndarray, d: int, c: int, t: int) -> np.ndarray:
    """|i>_c |j>_t -> |i>_c |i + j>_t."""
    out = np.empty_like(psi)
    for i in range(d):
        src = [slice(None)] * psi.ndim
        src[c] = i
        # after fixing axis c the target axis index drops by one if t > c
        axis = t - 1 if t > c else t
        out[tuple(src)] = np.roll(psi[tuple(src)], i, axis=axis)
    return out


def born_probability(d: int, n: int, gates, outcome: int) -> float:
    """Pr[qudit 0 reads ``outcome``] after ``gates`` act on |0...0>.

    ``gates`` lists (kind, targets) for named generators and
    ("DIAG", (t,), diagonal) for an explicit one-qudit diagonal gate.
    """
    psi = np.zeros((d,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for g in gates:
        kind, targets = g[0], g[1]
        if kind == "SUM":
            psi = _apply_sum(psi, d, *targets)
        elif kind == "DIAG":
            shape = [1] * n
            shape[targets[0]] = d
            psi = psi * np.asarray(g[2]).reshape(shape)
        else:
            psi = _apply_single(psi, single_gate(d, kind), targets[0])
    return float(np.sum(np.abs(psi[outcome]) ** 2))

"""The no-go for logical non-Clifford gates on GKP codes, checked on the Wigner cell.

A code-preserving Gaussian acts on the GKP Wigner cell as the integer
relabeling of its logical Clifford (``GaussianCircuit.integer_map``), so
it leaves every cell l_p norm unchanged. A logical gate that moves the
cell 1-norm of some code state is therefore implemented by no such
Gaussian. The invariance is checked entry by entry against dense
conjugation; the witnesses are CS, CCZ and a qutrit cubic phase gate,
each applied to |+>^n.
"""

import math

import numpy as np
import pytest

from quditphase import (
    DensityState,
    GateKind,
    GkpKind,
    QuditSystem,
    SymplecticAffineMap,
    cell_lp_norm,
    embed_generator,
    gkp_wigner_coefficients,
    haar_random_state,
    logical_clifford_symplectic,
    plus_state,
    stabilizer_cell_norm,
)
from quditphase.measures import random_clifford_word, word_unitary

SYSTEMS = [(d, n) for d in (2, 3, 4) for n in (1, 2)]
GENERATORS = [
    (d, n, kind, targets)
    for d, n in SYSTEMS
    for kind in GateKind
    for targets in ([(0, 1), (1, 0)] if kind is GateKind.SUM else [(t,) for t in range(n)])
    if kind.arity <= n
]


def relabeled(values: np.ndarray, amap: SymplecticAffineMap) -> np.ndarray:
    """out[amap(u)] = values[u] at every doubled-domain label u."""
    labels = np.indices(values.shape).reshape(values.ndim, -1)
    images = (amap.matrix @ labels + amap.shift[:, None]) % amap.modulus
    out = np.full(values.shape, np.nan)
    out[tuple(images)] = values[tuple(labels)]
    assert not np.isnan(out).any()  # the map is a bijection of the cell
    return out


def assert_cell_follows_the_map(rho: DensityState, unitary: np.ndarray, amap: SymplecticAffineMap):
    moved = DensityState(rho.system, unitary @ rho.matrix @ unitary.conj().T)
    before, after = gkp_wigner_coefficients(rho), gkp_wigner_coefficients(moved)
    assert np.max(np.abs(after.values - relabeled(before.values, amap))) < 1e-12
    assert abs(cell_lp_norm(after, 1) - cell_lp_norm(before, 1)) < 1e-12


@pytest.mark.parametrize("d, n, kind, targets", GENERATORS, ids=lambda v: getattr(v, "value", str(v)))
def test_every_generator_relabels_the_wigner_cell_through_its_gaussian(d, n, kind, targets):
    system = QuditSystem(d, n)
    rho = haar_random_state(system, np.random.default_rng(10 * d + n))
    amap = logical_clifford_symplectic(system, kind, targets).integer_map
    assert_cell_follows_the_map(rho, embed_generator(system, kind, targets).entries, amap)


@pytest.mark.parametrize("d, n", SYSTEMS)
@pytest.mark.parametrize("seed", range(3))
def test_generator_words_relabel_the_wigner_cell_through_the_composed_gaussians(d, n, seed):
    system = QuditSystem(d, n)
    rng = np.random.default_rng(seed)
    rho = haar_random_state(system, rng)
    word = random_clifford_word(system, rng, length=8)
    amap = SymplecticAffineMap.identity(n, 2 * d)
    for kind, targets in word:
        amap = logical_clifford_symplectic(system, kind, targets).integer_map.compose(amap)
    assert_cell_follows_the_map(rho, word_unitary(system, word).entries, amap)


def _plus_cell_norm(d, n):
    return stabilizer_cell_norm(QuditSystem(d, n), GkpKind.WIGNER, 1)


@pytest.mark.parametrize(
    "d, n, diagonal, before, after, tol",
    [
        # closed forms (Theorem 1): |+>^n has the stabilizer cell norm, times ||x||_1 = 7/4 after CS, 15/8 after CCZ
        (2, 2, [1, 1, 1, 1j], _plus_cell_norm(2, 2), _plus_cell_norm(2, 2) * 7 / 4, 1e-12),  # CS
        (2, 3, [1] * 7 + [-1], _plus_cell_norm(2, 3), _plus_cell_norm(2, 3) * 15 / 8, 1e-12),  # CCZ
        (3, 1, [np.exp(2j * np.pi * k**3 / 9) for k in range(3)], 1.382, 2.192, 1e-3),  # qutrit cubic phase
    ],
    ids=["CS", "CCZ", "qutrit-cubic-phase"],
)
def test_non_clifford_gates_move_the_cell_norm_of_plus(d, n, diagonal, before, after, tol):
    system = QuditSystem(d, n)
    plus = plus_state(system)
    gate = np.diag(np.array(diagonal, dtype=complex))
    moved = DensityState(system, gate @ plus.matrix @ gate.conj().T)
    got = cell_lp_norm(gkp_wigner_coefficients(plus), 1), cell_lp_norm(gkp_wigner_coefficients(moved), 1)
    assert math.isclose(got[0], before, abs_tol=tol) and math.isclose(got[1], after, abs_tol=tol)

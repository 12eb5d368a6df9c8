"""The stabilizer module's one Z_d solver against brute-force references.

``enumerated_order`` and ``brute_force_solutions`` are the reference
implementations: they list every combination of generators and every
candidate vector, so they only run where d^{2n} is small.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from quditphase.stabilizer import _order, _smith, _solve

PROFILE = settings.get_profile("deterministic")

# (d, n) with d in 2..12 and d^{2n} <= 4096, composite d included
SHAPES = [(d, n) for d in range(2, 13) for n in range(1, 7) if d ** (2 * n) <= 4096]


def enumerated_order(a: np.ndarray, d: int) -> int:
    """|{c A mod d : c in Z_d^m}| by listing every c."""
    coeffs = np.array(list(itertools.product(range(d), repeat=a.shape[0])))
    return len({tuple(row) for row in (coeffs @ a % d).tolist()})


def brute_force_solutions(a: np.ndarray, k: np.ndarray, d: int) -> np.ndarray:
    """Every v in Z_d^k with A v = k mod d, by listing every candidate."""
    cands = np.array(list(itertools.product(range(d), repeat=a.shape[1])))
    return cands[np.all((cands @ a.T - k) % d == 0, axis=1)]


@st.composite
def systems(draw):
    """(d, A, k): an n x 2n integer matrix and a right-hand side, entries
    outside [0, d) included; one row of A is scaled by 1, 2, 3, d // 2 or
    d, so rows with non-unit or zero content mod d are common."""
    d, n = draw(st.sampled_from(SHAPES))
    entries = st.integers(-2 * d, 3 * d)
    a = np.array(draw(st.lists(st.lists(entries, min_size=2 * n, max_size=2 * n), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1, 1, 2, 3, d // 2, d]))
    row = draw(st.integers(0, n - 1))
    a[row] *= scale
    k = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    return d, a, k


@settings(PROFILE)
@given(systems())
def test_diagonal_form_is_exact(case):
    d, a, _ = case
    u, s, vt = _smith(a.tolist(), d)
    m = a.shape[0]
    diag = np.zeros_like(a)
    diag[np.arange(m), np.arange(m)] = s
    assert np.all((np.array(u) @ a @ np.array(vt).T - diag) % d == 0)
    # U and V are invertible mod d: their rows generate all of Z_d^m and Z_d^{2n}
    for mat in (np.array(u), np.array(vt)):
        assert enumerated_order(mat, d) == d ** len(mat)


@settings(PROFILE)
@given(systems())
def test_group_order_matches_enumeration(case):
    d, a, _ = case
    assert _order(a.tolist(), d) == enumerated_order(a, d)


@settings(PROFILE)
@given(systems())
def test_solution_exists_exactly_when_brute_force_finds_one(case):
    d, a, k = case
    v = _solve(a.tolist(), k.tolist(), d)
    assert (v is not None) == (len(brute_force_solutions(a, k, d)) > 0)
    if v is not None:
        assert len(v) == a.shape[1]
        assert np.all((a @ np.array(v) - k) % d == 0)

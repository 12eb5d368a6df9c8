"""The three benchmark workloads: inputs, one op, and its correctness check.

Every op of a workload has the same shape. Op ``i`` of a run draws its
inputs from ``numpy.random.default_rng((seed, stream, i))``, so inputs
never repeat within a run and the same seed gives the same inputs. The
inputs are built before the op's timed interval and checked after it.

The op calls the library only through module attributes (``qp.x_...``,
``cli.main``) so that the traced run, which rebinds those attributes,
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import quditphase as qp
from quditphase import cli

import oracle

TIMED_STREAM = 0
WARMUP_STREAM = 1


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stream, index))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _haar_state(system, rng: np.random.Generator):
    vec = rng.standard_normal(system.dim) + 1j * rng.standard_normal(system.dim)
    vec /= np.linalg.norm(vec)
    return qp.DensityState(system, np.outer(vec, vec.conj()))


# ------------------------------------------------------------------ tables

def _random_group(system, rng: np.random.Generator, word_length: int = 12):
    """Z-type generators pushed through a seeded word of symplectic moves."""
    d, n = system.d, system.n
    gens = np.zeros((n, 2 * n), dtype=np.int64)
    gens[np.arange(n), n + np.arange(n)] = 1
    for _ in range(word_length):
        move = int(rng.integers(3))
        if move == 2 and n >= 2:  # SUM(c, t): a_t += a_c, b_c -= b_t
            c, t = (int(v) for v in rng.choice(n, size=2, replace=False))
            gens[:, t] += gens[:, c]
            gens[:, n + c] -= gens[:, n + t]
        else:
            t = int(rng.integers(n))
            if move == 0:  # Fourier: (a, b) -> (b, -a)
                gens[:, [t, n + t]] = np.stack([gens[:, n + t], -gens[:, t]], axis=1)
            else:  # phase: b += a
                gens[:, n + t] += gens[:, t]
        gens %= d
    phase_vector = tuple(int(v) for v in rng.integers(d, size=2 * n))
    return qp.StabilizerGroup(system, tuple(map(tuple, gens.tolist())), phase_vector)


@dataclass
class TablesInput:
    qubits: object   # Haar state, d=2, n=5
    qutrits: object  # Haar state, d=3, n=2
    group: object    # stabilizer group, d=2, n=4
    spots: list      # (table key, label) pairs spot-checked against the oracle


class Tables:
    """Coefficient tables, magic measures, GKP cells and the sparse sum."""

    def make_input(self, rng: np.random.Generator) -> TablesInput:
        qubits = _haar_state(qp.QuditSystem(2, 5), rng)
        qutrits = _haar_state(qp.QuditSystem(3, 2), rng)
        group = _random_group(qp.QuditSystem(2, 4), rng)
        spots = []
        for key, mod in (("x_r", 2), ("x_f", 4), ("chi_r", 2), ("chi_f", 4)):
            for _ in range(4):
                spots.append((key, tuple(int(v) for v in rng.integers(mod, size=10))))
        return TablesInput(qubits, qutrits, group, spots)

    def run(self, inp: TablesInput) -> dict:
        rho = inp.qubits
        return {
            "x_r": qp.x_distribution(rho, qp.Domain.RESTRICTED),
            "x_f": qp.x_distribution(rho, qp.Domain.FULL),
            "chi_r": qp.characteristic_fn(rho, qp.Domain.RESTRICTED),
            "chi_f": qp.characteristic_fn(rho, qp.Domain.FULL),
            "negativity": qp.magic_negativity(rho),
            "renyi2": qp.stabilizer_renyi(rho, 2.0),
            "theorem1": qp.verify_theorem1(inp.qutrits, 1.0),
            "theorem2": qp.verify_theorem2(inp.qutrits, 2.0),
            "sparse": qp.stabilizer_x_sparse(inp.group),
        }

    def check(self, inp: TablesInput, out: dict) -> None:
        rho = inp.qubits.matrix
        for key, label in inp.spots:
            got = out[key].values[label]
            if key.startswith("x"):
                want = oracle.x_value(rho, 2, 5, label)
            else:
                want = oracle.chi_value(rho, 2, 5, label)
            _require(abs(got - want) <= 1e-10, f"{key}{label}: {got} != oracle {want}")
        _require(out["theorem1"] < 1e-9, f"theorem 1 residual {out['theorem1']:.3e}")
        _require(out["theorem2"] < 1e-9, f"theorem 2 residual {out['theorem2']:.3e}")
        _require(out["renyi2"] > -1e-9, f"negative stabilizer Renyi entropy {out['renyi2']}")
        d, n = 2, 4
        sparse = out["sparse"]
        restricted = np.abs(sparse.restricted_view())
        support = restricted > 1e-12
        _require(int(support.sum()) == d**n, f"{int(support.sum())} restricted nonzeros, want {d**n}")
        _require(
            bool(np.all(np.abs(restricted[support] - d**-n) <= 1e-12)),
            "restricted nonzeros are not all of magnitude d^-n",
        )
        dense = qp.x_distribution(qp.stabilizer_state(inp.group), qp.Domain.FULL)
        dev = float(np.max(np.abs(sparse.values - dense.values)))
        _require(dev <= 1e-10, f"sparse and dense stabilizer tables differ by {dev:.3e}")

    def samples(self, out: dict) -> int:
        """Table entries produced by the op."""
        return sum(out[k].values.size for k in ("x_r", "x_f", "chi_r", "chi_f", "sparse"))

    def counts(self, out: dict) -> dict:
        return {}


# -------------------------------------------------------------------- born

P_FAIL = 0.05
WORD_LENGTH = 6
SINGLE_KINDS = ("FOURIER", "PHASE", "SHIFT", "CLOCK")
# (d, n, epsilon, frame) of the op's three estimates
ESTIMATES = ((2, 3, 0.1, "o"), (3, 3, 0.05, "o"), (2, 2, 0.1, "char"))


def _explicit_diagonal(d: int) -> np.ndarray:
    """The qubit T gate, or diag(e^{2 pi i k^3 / 9}) at d=3."""
    k = np.arange(d)
    if d == 2:
        return np.exp(1j * np.pi * k / 4)
    return np.exp(2j * np.pi * k**3 / 9)


def _random_word(rng: np.random.Generator, n: int) -> list:
    kinds = SINGLE_KINDS + (("SUM",) if n >= 2 else ())
    word = []
    for _ in range(WORD_LENGTH):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "SUM":
            word.append((kind, tuple(int(v) for v in rng.choice(n, size=2, replace=False))))
        else:
            word.append((kind, (int(rng.integers(n)),)))
    return word


@dataclass
class BornCase:
    d: int
    n: int
    epsilon: float
    frame: str
    circuit: object  # quditphase.CircuitDescription
    spec: list       # the same gates in oracle form
    outcome: int
    seed: int


def _born_case(rng: np.random.Generator, d: int, n: int, epsilon: float, frame: str) -> BornCase:
    system = qp.QuditSystem(d, n)
    target = int(rng.integers(n))
    diag = _explicit_diagonal(d)
    spec = _random_word(rng, n) + [("DIAG", (target,), diag)] + _random_word(rng, n)
    gates = []
    for kind, targets, *_ in spec:
        if kind == "DIAG":
            dense = oracle.embed_dense(d, n, np.diag(diag), target)
            gates.append(qp.DenseOperator(system, dense, unitary=True))
        else:
            gates.append((qp.GateKind(kind), targets))
    outcome = int(rng.integers(d))
    zero = np.zeros((system.dim, system.dim), dtype=complex)
    zero[0, 0] = 1.0
    circuit = qp.CircuitDescription(
        system,
        qp.DensityState(system, zero),
        tuple(gates),
        qp.MeasurementEffect(qp.MeasurementKind.COMPUTATIONAL, (0,), (outcome,)),
    )
    seed = int(rng.integers(2**31))
    return BornCase(d, n, epsilon, frame, circuit, spec, outcome, seed)


class Born:
    """Three Hoeffding-bounded Born estimates on fresh Clifford+T circuits."""

    def make_input(self, rng: np.random.Generator) -> list:
        return [_born_case(rng, *params) for params in ESTIMATES]

    def run(self, cases: list) -> list:
        out = []
        for c in cases:
            estimator = qp.estimate_born_char if c.frame == "char" else qp.estimate_born
            out.append(estimator(c.circuit, c.epsilon, P_FAIL, c.seed))
        return out

    def check(self, cases: list, reports: list) -> None:
        for c, rep in zip(cases, reports):
            exact = oracle.born_probability(c.d, c.n, c.spec, c.outcome)
            err = abs(rep.estimate - exact)
            _require(err <= 2 * c.epsilon, f"d={c.d} n={c.n} {c.frame}: |{rep.estimate} - {exact}| > 2 eps")
            want = math.ceil(2 * rep.forward_norm**2 * math.log(2 / P_FAIL) / c.epsilon**2)
            _require(rep.samples_used == want, f"samples_used {rep.samples_used} != Hoeffding count {want}")

    def samples(self, reports: list) -> int:
        """Monte-Carlo trajectories."""
        return sum(rep.samples_used for rep in reports)

    def counts(self, reports: list) -> dict:
        return {"sampling.trajectories": self.samples(reports)}


# ---------------------------------------------------------------- homodyne

HOMODYNE_D, HOMODYNE_N, HOMODYNE_SAMPLES = 3, 2, 4000


@dataclass
class HomodyneInput:
    circuit_path: str
    output_path: str


class Homodyne:
    """``quditphase gkp-sim`` in process: homodyne samples as JSON lines."""

    def __init__(self, workdir: str):
        self.circuit_path = os.path.join(workdir, "circuit.json")
        self.output_path = os.path.join(workdir, "samples.jsonl")

    def make_input(self, rng: np.random.Generator) -> HomodyneInput:
        doc = {
            "d": HOMODYNE_D,
            "n": HOMODYNE_N,
            "input": {"kind": "random", "seed": int(rng.integers(2**31))},
            "gate": {"kind": "SUM", "targets": [0, 1]},
            "samples": HOMODYNE_SAMPLES,
            "seed": int(rng.integers(2**31)),
        }
        with open(self.circuit_path, "w") as fh:
            json.dump(doc, fh)
        if os.path.exists(self.output_path):
            os.remove(self.output_path)
        return HomodyneInput(self.circuit_path, self.output_path)

    def run(self, inp: HomodyneInput) -> int:
        argv = ["gkp-sim", "--circuit", inp.circuit_path, "--output", inp.output_path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, inp: HomodyneInput, code: int) -> None:
        _require(code == 0, f"gkp-sim exited {code}")
        with open(inp.output_path) as fh:
            lines = fh.read().splitlines()
        _require(len(lines) == HOMODYNE_SAMPLES, f"{len(lines)} lines, want {HOMODYNE_SAMPLES}")
        docs = json.loads("[" + ",".join(lines) + "]")
        k = np.array([doc["lattice_index"] for doc in docs])
        l = np.array([doc["point"]["l"] for doc in docs])
        x = np.array([doc["x"] for doc in docs])
        signs = {doc["sign"] for doc in docs}
        weights = {doc["weight"] for doc in docs}
        # logical SUM(0, 1) sends the position labels (l0, l1) to (l0, l0 + l1)
        _require(np.array_equal(k, np.stack([l[:, 0], l[:, 0] + l[:, 1]], axis=1)), "lattice index is not SUM(l)")
        c = math.sqrt(math.pi / (2 * HOMODYNE_D))
        _require(bool(np.all(np.abs(x - c * k) <= 1e-12)), "x is not sqrt(pi/2d) times the lattice index")
        _require(signs <= {1, -1}, f"signs {signs}")
        _require(len(weights) == 1 and weights.pop() > 0, "lines do not share one positive weight")

    def samples(self, code: int) -> int:
        return HOMODYNE_SAMPLES

    def counts(self, code: int) -> dict:
        return {"homodyne.samples": HOMODYNE_SAMPLES, "cli.bytes_out": os.path.getsize(self.output_path)}


NAMES = ("tables", "born", "homodyne")


def make_workload(name: str, workdir: str):
    if name == "tables":
        return Tables()
    if name == "born":
        return Born()
    if name == "homodyne":
        return Homodyne(workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")

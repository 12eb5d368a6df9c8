"""End-to-end checks of the command-line interface."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from quditphase import (
    GateKind,
    GaussianCircuit,
    HomodyneBatch,
    QuditSystem,
    haar_random_state,
    logical_clifford_symplectic,
    measures,
    simulate_homodyne_batch,
)
from quditphase import cli
from quditphase.cli import main

HTH = {
    "d": 2,
    "n": 1,
    "input": {"kind": "computational", "index": 0},
    "gates": [
        {"kind": "FOURIER"},
        {"matrix": [[1, 0], [0, [0.7071067811865476, 0.7071067811865476]]]},
        {"kind": "FOURIER"},
    ],
    "measurement": {"kind": "computational", "indices": [0], "outcomes": [0]},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_basis_json(capsys):
    code, out = run(capsys, "basis", "--d", "2", "--l", "1", "--m", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["trace"] == 0.0
    # O_{1,1} at d = 2 is -Y
    assert abs(doc["matrix"][0][1][1] - 1.0) < 1e-12


def test_measure_t_state(capsys):
    code, out = run(capsys, "measure", "--d", "2", "--state", "T")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["negativity"] - (1 + math.sqrt(2)) / 2) < 1e-12
    assert abs(doc["renyi"]["2.0"] - math.log(4 / 3)) < 1e-12
    assert doc["hyperpolyhedral"] is False
    assert "wigner_negativity" not in doc  # even d


def test_measure_includes_wigner_for_odd_d(capsys):
    code, out = run(capsys, "measure", "--d", "3", "--state", "plus")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["wigner_negativity"] - 1.0) < 1e-9


def test_measure_builds_one_x_and_one_chi_table(capsys, monkeypatch):
    calls = []
    contract = measures._contract_stack
    monkeypatch.setattr(measures, "_contract_stack", lambda *args: calls.append(1) or contract(*args))
    code, _ = run(capsys, "measure", "--d", "3", "--n", "2", "--alpha", "0.5", "2", "3")
    assert code == 0
    assert len(calls) == 2


def test_measure_csv(capsys):
    code, out = run(capsys, "measure", "--d", "2", "--state", "T", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    assert lines[1].startswith("negativity,1.207106781")


@pytest.mark.parametrize(
    "d, text",
    [
        (2, "quantity,value\nnegativity,1.6775997750746483\nnorm_1,1.6775997750746483\nrenyi_0.5,1.0347281330597793\n"
            "renyi_2.0,0.6532245003159141\nhyperpolyhedral,False\n"),
        (3, "quantity,value\nnegativity,2.499579459118598\nnorm_1,2.499579459118598\nrenyi_0.5,1.9881742374343392\n"
            "renyi_2.0,1.3499158495377208\nhyperpolyhedral,False\nwigner_negativity,2.499579459118598\n"),
    ],
)
def test_measure_csv_rows_are_the_documents_fields(capsys, d, text):
    argv = ("measure", "--d", str(d), "--n", "2", "--state", "random:3", "--alpha", "0.5", "2")
    code, out = run(capsys, *argv, "--csv")
    assert code == 0 and out == text  # pinned bytes
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    fields = {k: v for k, v in doc.items() if k not in ("schema_version", "d", "n", "renyi")}
    fields.update({f"renyi_{a}": v for a, v in doc["renyi"].items()})
    rows = list(csv.reader(text.splitlines()))[1:]
    assert sorted(name for name, _ in rows) == sorted(fields)
    assert all(value == str(fields[name]) for name, value in rows)


@pytest.mark.parametrize(
    "argv",
    [("measure", "--d", "2", "--state", "T", "--csv"),
     ("gkp-check", "--d", "2", "--p", "1", "--samples", "1", "--csv")],
    ids=["measure", "gkp-check"],
)
def test_csv_honours_output(tmp_path, capsys, argv):
    code, printed = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out.csv"
    code, out = run(capsys, *argv, "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == printed


def test_wigner_rejects_even_d(capsys):
    code, out = run(capsys, "wigner", "--d", "2", "--state", "T")
    doc = json.loads(out)
    assert code == 2
    assert doc["error"]["type"] == "validation"
    assert "odd" in doc["error"]["message"]


def test_wigner_odd_d(capsys):
    code, out = run(capsys, "wigner", "--d", "3", "--state", "plus")
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["negativity"] - 1.0) < 1e-9
    assert len(doc["values"]) == 3


def test_char_full_domain(capsys):
    code, out = run(capsys, "char", "--d", "2", "--state", "T", "--domain", "full")
    doc = json.loads(out)
    assert code == 0
    assert doc["domain"] == "FULL"
    assert len(doc["values"]) == 4


def test_enumerate_counts(capsys):
    for d, count in ((2, 6), (3, 12), (6, 72)):
        code, out = run(capsys, "enumerate-stabilizers", "--d", str(d))
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == count
        assert all("|" in g["lines"] for g in doc["groups"])


def test_enumerate_past_the_bound_is_validation_error(capsys):
    code, out = run(capsys, "enumerate-stabilizers", "--d", "4096")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "validation"
    assert "MAX_ENUMERATED_GROUPS" in doc["error"]["message"]


def test_gkp_check_single_cell(capsys):
    code, out = run(
        capsys, "gkp-check", "--d", "2", "--n", "1", "--p", "1", "2", "--samples", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["max_residual"] < 1e-9
    row = doc["results"][0]
    for key in ("d", "n", "p", "lhs", "rhs", "residual"):
        assert key in row
    assert abs(row["lhs"] - row["rhs"]) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("gkp-check", "--d", "2", "--p", "0"),
        ("gkp-check", "--d", "2", "--p", "nan"),
        ("measure", "--d", "2", "--alpha", "nan"),
        ("gkp-check", "--p", "nan", "--samples", "1"),
    ],
    ids=["gkp-check-p-zero", "gkp-check-p-nan", "measure-alpha-nan", "gkp-check-p-nan-default-grid"],
)
def test_bad_order_is_validation_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


def test_gkp_check_csv(capsys):
    code, out = run(capsys, "gkp-check", "--d", "2", "--p", "1", "--samples", "1", "--csv")
    assert code == 0
    assert out.splitlines()[0].startswith("d,n,p,")


def test_gkp_check_passes_large_sides_that_agree_to_their_rounding(capsys):
    # the sides are ~1.13e14, so their absolute residual is 0.125 at ~1e-15 relative
    code, out = run(capsys, "gkp-check", "--d", "2", "--n", "5", "--p", "0.1", "--samples", "1")
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert row["lhs"] > 1e14
    assert doc["max_residual"] == max(row["residual"], row["residual_char"]) > 1e-9


@pytest.mark.parametrize("side", [1e12, 0.5])
def test_gkp_check_fails_sides_apart_by_more_than_their_rounding(capsys, monkeypatch, side):
    # side 0.5: below 1 the check stays the absolute residual
    monkeypatch.setattr(cli, "_cell_sides", lambda rho, p, kind: (side, side + 1e-6 * max(side, 1.0)))
    code, out = run(capsys, "gkp-check", "--d", "2", "--n", "1", "--p", "1", "--samples", "1")
    assert code == 3
    assert json.loads(out.splitlines()[-1])["error"]["type"] == "invariant"


def test_simulate_circuit(tmp_path, capsys):
    path = tmp_path / "hth.json"
    path.write_text(json.dumps(HTH))
    code, out = run(
        capsys, "simulate", "--circuit", str(path), "--epsilon", "0.3", "--seed", "1"
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["estimate"] - math.cos(math.pi / 8) ** 2) < 0.3
    assert abs(doc["forward_norm"] - math.sqrt(2)) < 1e-12
    assert doc["frame"] == "o"


def haar_gate_spec(dim, seed):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return {"matrix": [[[v.real, v.imag] for v in row] for row in u]}


@pytest.mark.parametrize(
    "doc, epsilon, method, norm",
    [
        (HTH, "0.3", "exact", math.sqrt(2)),
        # 4^7 local labels exceed the exact limit: the gate contributes d^n
        ({"d": 2, "n": 7, "input": {"kind": "computational", "index": 0}, "gates": [haar_gate_spec(128, 3)]}, "100", "bound", 128.0),
    ],
    ids=["exact", "bound"],
)
def test_simulate_reports_the_norm_method(tmp_path, capsys, doc, epsilon, method, norm):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "simulate", "--circuit", str(path), "--epsilon", epsilon, "--seed", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["norm_method"] == method
    assert abs(doc["forward_norm"] - norm) < 1e-12


def test_simulate_with_more_streams_than_trajectories(tmp_path, capsys):
    path = tmp_path / "hth.json"
    path.write_text(json.dumps(HTH))
    code, out = run(capsys, "simulate", "--circuit", str(path), "--epsilon", "0.5", "--streams", "10000000")
    doc = json.loads(out)
    assert code == 0
    assert doc["streams"] == 10**7
    assert abs(doc["estimate"] - math.cos(math.pi / 8) ** 2) < 0.5


def test_simulate_deterministic_bytes(tmp_path, capsys):
    path = tmp_path / "hth.json"
    path.write_text(json.dumps(HTH))
    argv = ["simulate", "--circuit", str(path), "--epsilon", "0.3", "--seed", "6"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_simulate_char_frame(tmp_path, capsys):
    path = tmp_path / "hth.json"
    path.write_text(json.dumps(HTH))
    code, out = run(
        capsys,
        "simulate", "--circuit", str(path),
        "--epsilon", "0.3", "--seed", "1", "--frame", "char",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["frame"] == "char"
    assert abs(doc["estimate"] - math.cos(math.pi / 8) ** 2) < 0.3


def test_simulate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, "simulate", "--circuit", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "section, field, value",
    [("gates", "kind", "BOGUS"), ("input", "index", "x"), ("input", "index", 2), ("gates", "targets", [0.5])],
    ids=["bad-gate-kind", "non-integer-index", "index-out-of-range", "fractional-target"],
)
def test_simulate_rejects_bad_values(tmp_path, capsys, section, field, value):
    doc = json.loads(json.dumps(HTH))
    entry = doc[section][0] if section == "gates" else doc[section]
    entry[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "simulate", "--circuit", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--epsilon", "nan"),
        ("simulate", "--epsilon", "inf"),
        ("simulate", "--epsilon", "1e-300"),
        ("simulate", "--epsilon", "1e-9"),
        ("simulate", "--streams", "0"),
        ("simulate", "--seed", "-1"),
        ("simulate", "--circuit", "{tmp_path}"),
        ("gkp-check", "--samples", "0", "--csv"),
        ("gkp-check", "--samples", "-1"),
        ("gkp-check", "--d", "2", "--seed", "-1"),
        ("gkp-check", "--n", "3", "--samples", "1"),
        ("measure", "--d", "2", "--output", "{tmp_path}/missing/x.json"),
        ("measure", "--d", "2", "--output", "{tmp_path}"),
    ],
    ids=["epsilon-nan", "epsilon-inf", "epsilon-tiny", "epsilon-beyond-sample-cap", "zero-streams", "negative-seed",
         "circuit-is-directory", "gkp-check-zero-samples-csv", "gkp-check-negative-samples", "gkp-check-negative-seed",
         "gkp-check-n-without-d", "output-in-missing-directory", "output-is-directory"],
)
def test_bad_arguments_are_validation_errors(tmp_path, capsys, argv):
    path = tmp_path / "hth.json"
    path.write_text(json.dumps(HTH))
    command, *rest = argv
    lead = ["--circuit", str(path)] if command == "simulate" else []
    code, out = run(capsys, command, *lead, *(arg.format(tmp_path=tmp_path) for arg in rest))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


def test_simulate_rejects_missing_file(capsys):
    code, out = run(capsys, "simulate", "--circuit", "/nonexistent/x.json")
    assert code == 2


def test_gkp_sim_emits_json_lines(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "n": 1,
                "input": {"kind": "plus"},
                "gate": {"kind": "FOURIER"},
                "samples": 5,
                "seed": 11,
            }
        )
    )
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 5
    for doc in lines:
        assert doc["schema_version"] == 1
        assert doc["sign"] in (-1, 1)
        assert doc["lattice_index"] is not None
        assert len(doc["x"]) == 1


def test_gkp_sim_generic_s(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "n": 1,
                "input": {"kind": "computational", "index": 0},
                "S": [[1.0, 0.0], [0.5, 1.0]],
                "displacement": [0.0, 0.0],
                "samples": 2,
                "seed": 5,
            }
        )
    )
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    for line in out.strip().splitlines():
        assert json.loads(line)["lattice_index"] is None


def test_gkp_sim_integer_s_reports_lattice_index(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"d": 3, "n": 1, "input": {"kind": "plus"}, "S": [[0, 1], [-1, 0]],
                                "displacement": [0.0, 0.0], "samples": 20, "seed": 2}))
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    c = math.sqrt(math.pi / 6)
    for line in out.strip().splitlines():
        doc = json.loads(line)
        # the rotation sends (l, m) to (m, -l)
        assert doc["lattice_index"] == doc["point"]["m"]
        assert doc["x"] == [c * k for k in doc["lattice_index"]]


@pytest.mark.parametrize("frame", ["o", "char"])
def test_simulate_rejects_a_non_hermitian_effect(tmp_path, capsys, frame):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({**HTH, "measurement": {"kind": "explicit", "matrix": [[0.5, 0.4], [0, 0.5]]}}))
    code, out = run(capsys, "simulate", "--circuit", str(path), "--frame", frame)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


def test_gkp_sim_rejects_non_symplectic(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(
        json.dumps(
            {
                "d": 2,
                "input": {"kind": "plus"},
                "S": [[1.0, 0.0], [0.0, 2.0]],
                "samples": 1,
                "seed": 0,
            }
        )
    )
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 2
    assert "symplectic" in json.loads(out)["error"]["message"]


# sha256 of the gkp-sim output bytes, recorded before the sampler became
# columnar; the lines and their order must never change for a fixed config
PINNED_GKP_SIM = {
    "sum-d3n2-random": (
        {
            "d": 3, "n": 2, "input": {"kind": "random", "seed": 17},
            "gate": {"kind": "SUM", "targets": [0, 1]}, "samples": 4000, "seed": 9,
        },
        "531da6eb86b6b9977b3d3091a013b7fc0f53d402eb848a622d7269016137be8f",
    ),
    "fourier-d2n1": (
        {
            "d": 2, "n": 1, "input": {"kind": "magic_t"}, "gate": {"kind": "FOURIER"},
            "samples": 500, "seed": 3,
        },
        "e41eea392c8de90b3cd2ee95406757dcdb1a271ca59f078ca33daeb09d00949a",
    ),
    "shear-d2n2": (
        {
            "d": 2, "n": 2, "input": {"kind": "random", "seed": 5},
            "S": [[1, 0, 0, 0], [0, 1, 0, 0], [0.5, 0.25, 1, 0], [0.25, -0.75, 0, 1]],
            "displacement": [0.1, -0.2, 0.0, 0.3], "samples": 1000, "seed": 4,
        },
        "50a50a1eb63ddb6095d5239fa874ffe3c8f3478d223f5d9665c24205c347a7eb",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_GKP_SIM))
def test_gkp_sim_output_bytes_are_pinned(tmp_path, capsys, name):
    cfg, digest = PINNED_GKP_SIM[name]
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    target = tmp_path / "out.jsonl"
    code, _ = run(capsys, "gkp-sim", "--circuit", str(path), "--output", str(target))
    assert code == 0
    data = target.read_bytes()
    assert len(data.splitlines()) == cfg["samples"]
    assert hashlib.sha256(data).hexdigest() == digest
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    assert out.encode() == data


def gkp_sim_documents(d, n):
    """Logical FOURIER/PHASE/SUM circuits, a float shear with a -0.0
    displacement, and a scaled shear whose positions print in exponent form."""
    docs = [{"gate": {"kind": "FOURIER", "targets": [n - 1]}}, {"gate": {"kind": "PHASE", "targets": [0]}}]
    if n > 1:
        docs.append({"gate": {"kind": "SUM", "targets": [0, n - 1]}})
    shear = 0.25 * np.ones((n, n)) + np.diag(0.5 * np.arange(n))  # symmetric, so [[I, 0], [B, I]] is symplectic
    zero, eye = np.zeros((n, n)), np.eye(n)
    scale = np.diag([1e17, 1e-5, 3e20][:n])
    for s_matrix in (np.block([[eye, zero], [shear, eye]]),
                     np.block([[scale, scale @ shear], [zero, np.linalg.inv(scale)]])):
        docs.append({"S": s_matrix.tolist(), "displacement": [-0.0] * n + [0.1] * n})
    return [{"d": d, "n": n, "input": {"kind": "random", "seed": 7}, "samples": 300, "seed": 5, **doc}
            for doc in docs]


@pytest.mark.parametrize("d, n", [(d, n) for d in (2, 3, 5) for n in (1, 2, 3)])
def test_gkp_sim_lines_match_the_json_dumps_oracle(tmp_path, capsys, d, n):
    # the premise of the line encoder: str of a list of Python ints and
    # finite floats is its JSON text
    edge = [-0.0, 1e16, 1.5e-05, 2.0, -3]
    assert str(edge) == json.dumps(edge)
    system = QuditSystem(d, n)
    rho = haar_random_state(system, np.random.default_rng(7))
    x_texts = []
    for doc in gkp_sim_documents(d, n):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "gkp-sim", "--circuit", str(path))
        assert code == 0
        if "gate" in doc:
            gate = doc["gate"]
            circuit = logical_clifford_symplectic(system, GateKind(gate["kind"]), tuple(gate["targets"]))
        else:
            circuit = GaussianCircuit(system, np.array(doc["S"]), np.array(doc["displacement"]))
        batch = simulate_homodyne_batch(rho, circuit, doc["samples"], doc["seed"])
        lines = out.splitlines()
        assert len(lines) == len(batch)
        for i, line in enumerate(lines):
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True)
            sample = batch[i]
            expected = {
                "branch": list(sample.branch),
                "lattice_index": None if sample.lattice_index is None else list(sample.lattice_index),
                "point": {"l": list(sample.sampled_point.l), "m": list(sample.sampled_point.m)},
                "schema_version": 1,
                "sign": sample.sign,
                "weight": sample.weight,
                "x": list(sample.x),
            }
            assert parsed == expected
            assert line == json.dumps(expected, sort_keys=True)  # also tells -0.0 from 0.0
            x_texts.append(line.rpartition('"x": ')[2])
    # the scaled shear's 1e17 and (at n > 1) 1e-5 rows print in exponent form
    assert any("e+" in x for x in x_texts) and (n == 1 or any("e-" in x for x in x_texts))


def oracle_line(sample) -> str:
    """The JSON text of one gkp-sim sample through json.dumps."""
    return json.dumps({
        "branch": list(sample.branch),
        "lattice_index": None if sample.lattice_index is None else list(sample.lattice_index),
        "point": {"l": list(sample.sampled_point.l), "m": list(sample.sampled_point.m)},
        "schema_version": 1,
        "sign": sample.sign,
        "weight": sample.weight,
        "x": list(sample.x),
    }, sort_keys=True)


def test_gkp_sim_lines_share_a_lattice_index_row_across_labels(tmp_path, capsys):
    # logical PHASE keeps the position block, so labels that differ only in m share their lattice_index row
    doc = {"d": 3, "n": 2, "input": {"kind": "random", "seed": 7}, "gate": {"kind": "PHASE", "targets": [0]},
           "samples": 500, "seed": 5}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    system = QuditSystem(3, 2)
    circuit = logical_clifford_symplectic(system, GateKind.PHASE, (0,))
    batch = simulate_homodyne_batch(haar_random_state(system, np.random.default_rng(7)), circuit, 500, 5)
    assert len(np.unique(batch.lattice_index, axis=0)) < len(batch.points)
    assert out.splitlines() == [oracle_line(sample) for sample in batch]


def test_gkp_sim_tells_rows_apart_by_their_bytes(tmp_path, capsys, monkeypatch):
    # the float map S (c u) + t never yields -0.0, since each dot product
    # starts from +0.0, so the writer gets a hand-built batch: its x rows
    # [0.0, 0.5] and [-0.0, 0.5] are equal under == but print apart
    batch = HomodyneBatch(
        points=np.array([[0, 1, 0, 0], [0, 1, 1, 0], [1, 1, 0, 0]]),
        lattice_index=None,
        x=np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5]]),
        signs=np.array([1, -1, 1]),
        inverse=np.array([0, 1, 2, 1, 0, 2, 1]),
        weight=0.375,
        modulus=4,
    )
    assert np.array_equal(batch.x[0], batch.x[1]) and batch.x[0].tobytes() != batch.x[1].tobytes()
    monkeypatch.setattr(cli, "simulate_homodyne_batch", lambda *args: batch)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"d": 2, "n": 2, "input": {"kind": "plus"}, "S": (-np.eye(4)).tolist(),
                                "displacement": [-0.0] * 4, "samples": 7}))
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines == [oracle_line(sample) for sample in batch]
    assert [line.rpartition('"x": ')[2] for line in lines[:2]] == ["[0.0, 0.5]}", "[-0.0, 0.5]}"]


def test_gkp_sim_zero_samples_on_the_float_map_writes_an_empty_file(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"d": 2, "input": {"kind": "plus"}, "S": [[1.0, 0.0], [0.5, 1.0]], "samples": 0}))
    target = tmp_path / "out.jsonl"
    target.write_text("stale")
    code, out = run(capsys, "gkp-sim", "--circuit", str(path), "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == b""


def test_gkp_sim_zero_samples_writes_nothing(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({"d": 2, "input": {"kind": "plus"}, "gate": {"kind": "FOURIER"}, "samples": 0}))
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 0
    assert out == ""


GKP_SIM_OK = {"d": 2, "n": 1, "input": {"kind": "plus"}, "gate": {"kind": "FOURIER"}, "samples": 3, "seed": 1}


@pytest.mark.parametrize(
    "doc",
    [
        {**GKP_SIM_OK, "gate": {"kind": "FOO"}},
        {**GKP_SIM_OK, "gate": "FOURIER"},
        {**GKP_SIM_OK, "samples": "abc"},
        {**GKP_SIM_OK, "samples": -1},
        {**GKP_SIM_OK, "samples": 10**15},
        {**GKP_SIM_OK, "seed": -1},
        {"d": 2, "n": 1, "input": {"kind": "plus"}, "S": [[1.0, 0.0], [0.5]], "samples": 1},
        [GKP_SIM_OK],
        {"d": 2, "n": 1, "input": {"kind": "plus"}, "S": [[math.nan, 0.0], [0.0, 1.0]], "samples": 1},
        {"d": 2, "n": 1, "input": {"kind": "plus"}, "S": [[1.0, 0.0], [0.0, 1.0]], "displacement": [math.inf, 0.0]},
        {**GKP_SIM_OK, "displacement": [0.1, 0.0]},
        {**GKP_SIM_OK, "S": [[1.0, 0.0], [0.0, 1.0]]},
        {**GKP_SIM_OK, "gate": {"kind": "FOURIER", "target": [0]}},
        {**GKP_SIM_OK, "sample": 3},
        # finite and symplectic, but S carries a position past the float range
        {"d": 2, "n": 1, "input": {"kind": "plus"}, "S": [[1e308, 0.0], [0.0, 1e-308]], "samples": 40, "seed": 1},
    ],
    ids=["bad-gate-kind", "gate-not-object", "non-integer-samples", "negative-samples", "samples-beyond-cap",
         "negative-seed", "ragged-S", "top-level-array", "nan-in-S", "inf-displacement",
         "gate-and-displacement", "gate-and-S", "misspelt-targets", "misspelt-samples", "position-overflows"],
)
def test_gkp_sim_rejects_bad_values(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "gkp-sim", "--circuit", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "command, doc",
    [
        ("simulate", {**HTH, "d": 1e400}),
        ("simulate", {**HTH, "measurement": []}),
        ("simulate", {**HTH, "input": {"kind": "stabilizer", "generators": 5}}),
        ("simulate", {**HTH, "input": {"kind": "matrix", "matrix": [[math.nan, 0], [0, 1]]}}),
        ("simulate", {**HTH, "gates": [{"matrix": [[1, 0], [0, math.nan]]}]}),
        ("simulate", {**HTH, "gates": [{"matrix": [[1, 1], [0, 1]]}]}),
        ("simulate", {key: value for key, value in HTH.items() if key != "gates"} | {"gate": HTH["gates"]}),
        ("simulate", {**HTH, "gates": [{"kind": "FOURIER", "matrix": [[1, 0], [0, 1]]}]}),
        ("simulate", {**HTH, "measurement": {"kind": "explicit", "indices": [0], "matrix": [[1, 0], [0, 0]]}}),
        ("simulate", {**HTH, "input": {"kind": "plus", "index": 1}}),
        ("gkp-sim", {**GKP_SIM_OK, "samples": 1e400}),
        # an 8x8 gate that is I (x) [[1, 1], [0, 1]] (x) I: refused on its 2x2 block on qubit 1
        ("simulate", {"d": 2, "n": 3, "input": {"kind": "computational", "index": 0},
                      "gates": [{"matrix": np.kron(np.kron(np.eye(2), [[1, 1], [0, 1]]), np.eye(2)).tolist()}],
                      "measurement": {"kind": "computational", "indices": [0], "outcomes": [0]}}),
    ],
    ids=["d-1e400", "measurement-array", "generators-not-text", "nan-input-matrix", "nan-gate-matrix",
         "gate-not-unitary", "misspelt-gates", "gate-kind-and-matrix", "explicit-with-indices", "plus-with-index", "gkp-sim-samples-1e400",
         "block-not-unitary"],
)
def test_bad_documents_are_validation_errors(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))  # the literal JSON number 1e400
    code, out = run(capsys, command, "--circuit", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run(capsys, "measure", "--d", "2", "--state", "T", "--output", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == 1


def test_a_failing_gkp_check_writes_its_results_and_then_the_error_to_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cell_sides", lambda rho, p, kind: (0.5, 0.5 + 1e-6))
    argv = ("gkp-check", "--d", "2", "--p", "1", "--samples", "1")
    code, printed = run(capsys, *argv)
    assert code == 3
    results, error = map(json.loads, printed.splitlines())
    assert results["max_residual"] > 1e-9 and error["error"]["type"] == "invariant"
    target = tmp_path / "out.json"
    code, out = run(capsys, *argv, "--output", str(target))
    assert code == 3 and out == ""
    assert target.read_bytes() == printed.encode()


def test_a_failing_gkp_check_csv_keeps_its_stream_a_table(tmp_path, capsys, monkeypatch):
    # the invariant error goes to stderr, so every line of the stream has the header's ten columns
    monkeypatch.setattr(cli, "_cell_sides", lambda rho, p, kind: (0.5, 0.5 + 1e-6))
    argv = ["gkp-check", "--d", "2", "--p", "1", "--samples", "2", "--csv"]
    assert main(argv) == 3
    printed, err = capsys.readouterr()
    assert json.loads(err)["error"]["type"] == "invariant"
    target = tmp_path / "out.csv"
    assert main([*argv, "--output", str(target)]) == 3
    assert capsys.readouterr().out == ""
    rows = list(csv.reader(target.read_text().splitlines()))
    assert target.read_text() == printed and len(rows) == 3 and {len(row) for row in rows} == {10}


@pytest.mark.parametrize(
    "flags, doc",
    [
        (["gkp-sim", "--circuit"],
         {"d": 3, "n": 2, "input": {"kind": "random", "seed": 4}, "gate": {"kind": "SUM", "targets": [0, 1]},
          "samples": 50, "seed": 2}),
        (["measure", "--d", "3", "--n", "2", "--input-file"], {"kind": "random", "seed": 3}),
    ],
    ids=["gkp-sim", "measure"],
)
def test_output_may_name_the_runs_own_input_file(tmp_path, capsys, flags, doc):
    # the file is emptied only once the input has been read from it
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, printed = run(capsys, *flags, str(path))
    assert code == 0
    code, out = run(capsys, *flags, str(path), "--output", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == printed.encode()


def test_output_may_be_a_device(capsys):
    # a device, unlike a regular file, cannot be truncated; it is written as it is
    code, out = run(capsys, "measure", "--d", "2", "--state", "T", "--output", os.devnull)
    assert code == 0 and out == ""


def test_unknown_state_is_validation_error(capsys):
    code, out = run(capsys, "measure", "--d", "2", "--state", "bogus")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


def test_stabilizer_input_from_generator_file(tmp_path, capsys):
    gen = tmp_path / "gens.txt"
    gen.write_text("# plus state\n1|0|0\n")
    code, out = run(capsys, "measure", "--d", "2", "--generators", str(gen))
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["negativity"] - 1.0) < 1e-12
    assert doc["hyperpolyhedral"] is True


def test_composite_stabilizer_generator_file(tmp_path, capsys):
    # d=6, n=4: these phase constraints need non-unit pivots
    gen = tmp_path / "gens.txt"
    gen.write_text("0,0,0,0|1,0,0,0|5\n0,0,0,0|5,5,0,0|1\n0,0,1,1|0,0,0,1|4\n0,0,0,1|0,0,4,3|1\n")
    code, out = run(capsys, "measure", "--d", "6", "--n", "4", "--generators", str(gen))
    assert code == 0
    assert abs(json.loads(out)["negativity"] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "state",
    ["random:abc", "computational:x", "computational:-3", "computational:2", "plus:1", "computationalx", "random:-1"],
)
def test_malformed_state_label_is_validation_error(capsys, state):
    code, out = run(capsys, "measure", "--d", "2", "--state", state)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"kind": "computational", "index": "x"}',
        '{"kind": "stabilizer"}',
        '{"kind": "stabilizer", "generators": 5}',
        '{"kind": "random", "seed": 1e400}',
        '{"kind": "plus", "extra": 1}',
        '[{"kind": "plus"}]',
        "[" * 100000,
    ],
    ids=["malformed-json", "non-integer-index", "missing-generators", "generators-not-text", "seed-1e400",
         "unknown-field", "top-level-array", "nested-too-deep"],
)
def test_malformed_input_file_is_validation_error(tmp_path, capsys, text):
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out = run(capsys, "measure", "--d", "2", "--input-file", str(path))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "validation"

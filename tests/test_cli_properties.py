"""Property tests of the command-line input boundary.

Every generated argument vector, state spec and circuit document, valid
or mutated, must make ``main`` exit 0, 2 or 3, with a JSON error document
for 2 and 3, and a 0 with --output must write the file and print no
document; an escaping exception or any other code fails the test.
Mutations put wrong types, NaN, +-inf, 1e400, negative values and lists
where objects belong, and drop or add fields; a float, bool or string in
an integer field must exit 2. Valid inputs stay cheap:
d <= 3, n <= 2, at most 64 samples, epsilon >= 0.3 and at most 8 streams.
"""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import settings, given, strategies as st

from quditphase.cli import main

PROFILE = settings.get_profile("deterministic")

SHAPES = [(2, 1), (2, 2), (3, 1), (3, 2)]

# what a mutation puts in place of a value
BAD_VALUES = [None, True, "x", "", [], [1, 2], {}, {"kind": "plus"}, math.nan, math.inf, -math.inf, -1, 0, 2.5, -7.5]

# what a mutation adds to an object: unknown fields and fields of other kinds
EXTRA_FIELDS = ["extra", "gate", "gates", "S", "displacement", "matrix", "index", "seed", "targets", "kind", "samples"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-properties")


def exit_code(argv, output=None) -> int:
    """``main``'s exit code, or argparse's for an argv it rejects before decoding.

    The error document of a 2 or 3 is read from ``output`` when that is a
    writable file, and from stdout otherwise. A 0 with ``output`` must leave
    stdout without a document and the file non-empty.
    """
    if output is not None and output.is_file():
        output.unlink()  # what an earlier example wrote there must not count
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code
    if code in (2, 3):
        text = output.read_text() if output is not None and output.is_file() else out.getvalue()
        assert "error" in json.loads(text)
    if code == 0 and output is not None:
        assert out.getvalue() == ""
        assert output.stat().st_size > 0
    return code


def write_json(data, workdir, name: str, doc) -> str:
    text = json.dumps(doc)
    if data.draw(st.booleans(), label="write inf as 1e400"):
        text = text.replace("Infinity", "1e400")
    path = workdir / name
    path.write_text(text)
    return str(path)


def spots(doc, parent=None, key=None):
    """(container, key) of the values in ``doc``, entering lists by their first item only
    so that matrix entries do not crowd out the fields; the root's container is None."""
    yield parent, key
    children = doc.items() if isinstance(doc, dict) else enumerate(doc[:1]) if isinstance(doc, list) else ()
    for k, v in list(children):
        yield from spots(v, doc, k)


def bad_value(data):
    return copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES), label="bad value"))


def maybe_mutate(data, doc):
    """``doc`` as drawn, or with one to three mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(0, 3), label="mutations")):
        parent, key = data.draw(st.sampled_from(list(spots(doc))), label="spot")
        value = doc if parent is None else parent[key]
        op = data.draw(st.sampled_from(["replace", "wrap", "delete", "add"]), label="op")
        if op == "add" and isinstance(value, dict):
            value[data.draw(st.sampled_from(EXTRA_FIELDS))] = bad_value(data)
        elif op == "delete" and parent is not None:
            del parent[key]
        else:
            new = [value] if op == "wrap" else bad_value(data)
            if parent is None:
                doc = new
            else:
                parent[key] = new
    return doc


def options_argv(data, options: dict) -> list[str]:
    """``--flag=value`` tokens for ``options`` as drawn, or with up to two flags dropped or given a bad value."""
    options = dict(options)
    for _ in range(min(len(options), data.draw(st.integers(0, 2), label="option mutations"))):
        flag = data.draw(st.sampled_from(sorted(options)), label="flag")
        if data.draw(st.booleans(), label="drop"):
            del options[flag]
        else:
            options[flag] = bad_value(data)
    argv = []
    for flag, value in options.items():
        argv += [flag, *map(str, value)] if isinstance(value, list) else [f"{flag}={value}"]
    return argv


def state_specs(d: int, n: int):
    dim = d**n
    unit = lambda i: ",".join("1" if j == i else "0" for j in range(n))
    plus_lines = "\n".join(f"{unit(i)}|{','.join('0' * n)}|0" for i in range(n))
    mixed = [[1.0 / dim if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    return st.one_of(
        st.builds(lambda i: {"kind": "computational", "index": i}, st.integers(0, dim - 1)),
        st.sampled_from([
            {"kind": "computational"},
            {"kind": "plus"},
            {"kind": "mixed"},
            {"kind": "magic_t"},
            {"kind": "stabilizer", "generators": plus_lines},
            {"kind": "matrix", "matrix": mixed},
        ]),
        st.builds(lambda s: {"kind": "random", "seed": s}, st.integers(0, 2**31)),
    )


def named_gates(n: int):
    kinds = st.sampled_from(["FOURIER", "PHASE", "SHIFT", "CLOCK", "fourier"])
    gates = [st.builds(lambda k: {"kind": k}, kinds),
             st.builds(lambda k, t: {"kind": k, "targets": [t]}, kinds, st.integers(0, n - 1))]
    if n == 2:
        gates.append(st.sampled_from([{"kind": "SUM"}, {"kind": "SUM", "targets": [1, 0]}]))
    return st.one_of(gates)


def t_like_gate(dim: int) -> dict:
    """diag(e^{i pi j / 4}) as [re, im] entries: one explicit non-Clifford gate."""
    def entry(i, j):
        return [math.cos(math.pi * i / 4), math.sin(math.pi * i / 4)] if i == j else 0
    return {"matrix": [[entry(i, j) for j in range(dim)] for i in range(dim)]}


@st.composite
def simulate_docs(draw):
    d, n = draw(st.sampled_from(SHAPES))
    gates = draw(st.lists(named_gates(n), max_size=3)) + draw(st.sampled_from([[], [t_like_gate(d**n)]]))
    projector = [[1.0 if i == j == 0 else 0.0 for j in range(d**n)] for i in range(d**n)]
    measurement = draw(st.one_of(
        st.sampled_from([{}, {"kind": "computational"}, {"kind": "explicit", "matrix": projector}]),
        st.builds(lambda q, o: {"kind": "computational", "indices": [q], "outcomes": [o]},
                  st.integers(0, n - 1), st.integers(0, d - 1)),
    ))
    return {"d": d, "n": n, "input": draw(state_specs(d, n)), "gates": gates, "measurement": measurement}


@st.composite
def gkp_sim_docs(draw):
    d, n = draw(st.sampled_from(SHAPES))
    doc = {"d": d, "n": n, "input": draw(state_specs(d, n)),
           "samples": draw(st.integers(0, 64)), "seed": draw(st.integers(0, 2**31))}
    if draw(st.booleans()):
        doc["gate"] = draw(named_gates(n))
    else:
        # [[1, 0], [A, 1]] with a diagonal A is symplectic
        shear = [[1.0 if i == j else 0.0 for j in range(2 * n)] for i in range(2 * n)]
        shear[n][0] = draw(st.sampled_from([0.0, 0.5, -1.25]))
        doc["S"] = shear
        if draw(st.booleans()):
            doc["displacement"] = [0.1 * k for k in range(2 * n)]
    return doc


@settings(PROFILE)
@given(st.data())
def test_simulate_documents_exit_0_2_or_3(workdir, data):
    path = write_json(data, workdir, "simulate.json", maybe_mutate(data, data.draw(simulate_docs())))
    options = {
        "--epsilon": data.draw(st.sampled_from([0.3, 0.5, 1.0])),
        "--p-fail": data.draw(st.sampled_from([0.05, 0.5])),
        "--streams": data.draw(st.integers(1, 8)),
        "--seed": data.draw(st.integers(0, 7)),
        "--frame": data.draw(st.sampled_from(["o", "char"])),
    }
    assert exit_code(["simulate", "--circuit", path, *options_argv(data, options)]) in (0, 2, 3)


@settings(PROFILE)
@given(st.data())
def test_gkp_sim_documents_exit_0_2_or_3(workdir, data):
    path = write_json(data, workdir, "gkp-sim.json", maybe_mutate(data, data.draw(gkp_sim_docs())))
    assert exit_code(["gkp-sim", "--circuit", path]) in (0, 2, 3)


GENERATOR_LINES = ["1|0|0", "0|1|1", "1|1|0", "0|0|0", "x|0|0", "1|0", "1,0|0,0|0", "0,1|0,0|1", "0,0|1,1|0",
                   "1,1|0,0|0", "1,0|0,1|0", "# comment", ""]


@settings(PROFILE)
@given(st.data())
def test_state_inputs_exit_0_2_or_3(workdir, data):
    d, n = data.draw(st.sampled_from(SHAPES))
    argv = [data.draw(st.sampled_from(["measure", "wigner", "char"])), *options_argv(data, {"--d": d, "--n": n})]
    source = data.draw(st.sampled_from(["state", "input-file", "generators"]))
    if source == "state":
        name = data.draw(st.sampled_from(["computational", "plus", "mixed", "T", "random", "magic_t", "bogus", ""]))
        arg = data.draw(st.sampled_from([None, "0", "1", "8", "-3", "99", "x", "1.5", "", "1:2"]))
        argv.append(f"--state={name}" + ("" if arg is None else f":{arg}"))
    elif source == "input-file":
        spec = maybe_mutate(data, data.draw(state_specs(d, n)))
        argv += ["--input-file", write_json(data, workdir, "state.json", spec)]
    else:
        lines = data.draw(st.lists(st.sampled_from(GENERATOR_LINES), max_size=3))
        path = workdir / "generators.txt"
        path.write_text("\n".join(lines) + "\n")
        argv += ["--generators", path]
    assert exit_code(argv) in (0, 2, 3)


@settings(PROFILE)
@given(st.data())
def test_direct_arguments_exit_0_2_or_3(workdir, data):
    command = data.draw(st.sampled_from(["basis", "enumerate-stabilizers", "measure", "gkp-check"]))
    d, n = data.draw(st.sampled_from(SHAPES))
    if command == "basis":
        labels = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
        options = {"--d": d, "--n": n, "--l": data.draw(labels), "--m": data.draw(labels)}
    elif command == "enumerate-stabilizers":
        options = {"--d": data.draw(st.integers(2, 5))}
    elif command == "measure":
        alphas = st.lists(st.sampled_from([2.0, 0.5, 3.0]), max_size=3)
        options = {"--d": d, "--n": n, "--state": "plus", "--alpha": data.draw(alphas)}
    else:
        orders = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), max_size=2)
        options = {"--d": d, "--n": n, "--samples": data.draw(st.integers(1, 2)),
                   "--seed": data.draw(st.integers(0, 3)), "--p": data.draw(orders)}
    argv = [command, *options_argv(data, options)]
    if command in ("measure", "gkp-check") and data.draw(st.booleans(), label="csv"):
        argv.append("--csv")
    # a writable file, a missing directory or an existing directory
    target = data.draw(st.sampled_from([None, "out.json", "missing/out.json", "."]), label="output")
    output = None if target is None else workdir / target
    if output is not None:
        argv += ["--output", output]
    assert exit_code(argv, output) in (0, 2, 3)


# integer fields of simulate and gkp-sim documents, and the lists whose entries are integers
INTEGER_FIELDS = {"d", "n", "index", "seed", "samples"}
INTEGER_LISTS = {"targets", "indices", "outcomes"}


def integer_spots(doc):
    """(container, key) of every integer a valid document holds in an integer field."""
    for parent, key in spots(doc):
        if isinstance(key, str) and key in INTEGER_FIELDS and type(parent[key]) is int:
            yield parent, key
        if isinstance(key, str) and key in INTEGER_LISTS:
            yield from ((parent[key], i) for i in range(len(parent[key])))


@settings(PROFILE)
@given(st.data())
def test_non_integral_integer_fields_exit_2(workdir, data):
    """A float, bool or string in an integer field exits 2 with a JSON error
    document. Each replacement truncates back to the valid value (2 -> 2.0 or
    2.5, 1 -> true, "1"), so a read that truncated would exit 0 instead."""
    command = data.draw(st.sampled_from(["simulate", "gkp-sim"]), label="command")
    doc = data.draw(simulate_docs() if command == "simulate" else gkp_sim_docs())
    parent, key = data.draw(st.sampled_from(list(integer_spots(doc))), label="spot")
    value = parent[key]
    replacements = [float(value), value + 0.5, str(value)] + ([bool(value)] if value < 2 else [])
    parent[key] = data.draw(st.sampled_from(replacements), label="non-integer")
    path = write_json(data, workdir, "integers.json", doc)
    assert exit_code([command, "--circuit", path]) == 2


def test_a_boolean_index_exits_2(workdir):
    path = workdir / "bool-index.json"
    path.write_text(json.dumps({"d": 2, "n": 1, "input": {"kind": "computational", "index": True}, "gates": []}))
    assert exit_code(["simulate", "--circuit", path]) == 2

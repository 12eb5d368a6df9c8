"""Command-line entry points.

Each run writes to one stream, stdout or the --output file: one JSON
document (or a CSV table), one JSON line per gkp-sim sample, and after
them any error document; a CSV run's invariant error and short human
tables go to stderr. Every JSON document carries schema_version. Exit
codes: 0 success, 2 invalid configuration, 3 numerical invariant
violation. A sample count above ``core.SAMPLE_CAP`` (gkp-sim "samples",
or the Hoeffding count that simulate's --epsilon implies) is invalid.

Matrix entries in JSON files are either plain reals or [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from .core import (
    DenseOperator,
    DensityState,
    GateKind,
    InvariantError,
    QuditSystem,
    ValidationError,
    _as_int,
    _read_gate,
    computational_state,
    maximally_mixed,
    plus_state,
    t_state,
)
from .basis import Domain, full_point, o_operator, o_trace
from .measures import (
    _hyperpolyhedral_of,
    _renyi_of,
    _wigner_of,
    characteristic_fn,
    check_order,
    discrete_wigner,
    haar_random_state,
    lp_norm,
    x_distribution,
)
from .stabilizer import (
    enumerate_single_qudit_groups,
    format_generator_lines,
    parse_generator_lines,
    stabilizer_state,
)
from .gkp import GkpKind, _cell_sides, _relative_residual
from .sampling import (
    CircuitDescription,
    MeasurementEffect,
    MeasurementKind,
    estimate_born,
    estimate_born_char,
)
from .homodyne import GaussianCircuit, logical_clifford_symplectic, simulate_homodyne_batch

SCHEMA_VERSION = 1


# ----------------------------------------------------------- serialization

def _write_csv(rows, out) -> None:
    """Write ``rows`` to ``out`` as CSV, one line each, header first."""
    csv.writer(out, lineterminator="\n").writerows(rows)


def _emit(doc: dict, out, human: str = "") -> None:
    """Write ``doc`` with its schema_version to ``out`` as one JSON line, and ``human`` to stderr."""
    print(json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True), file=out)
    if human:
        print(human, file=sys.stderr)


def _complex_entry(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ValidationError(f"matrix entries must be real or [re, im], got {v!r}")


def _matrix(data) -> np.ndarray:
    return np.array([[_complex_entry(v) for v in row] for row in data], dtype=complex)


def _jsonable_matrix(arr: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def _jsonable_real(arr: np.ndarray):
    return np.asarray(arr, dtype=float).tolist()


# ------------------------------------------------------------- decoding
#
# One decoder per subcommand turns its arguments, state spec and circuit
# document into library objects; ``main`` maps what a malformed input, or
# an --output that cannot be opened, raises there to ValidationError. The
# runs after decoding are not wrapped.

_DECODE_ERRORS = (KeyError, ValueError, TypeError, AttributeError, OverflowError, IndexError, OSError,
                  RecursionError)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _fields(doc, *allowed: str) -> dict:
    """``doc`` checked to be a JSON object with no field outside ``allowed``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown field(s) {unknown}; expected among {list(allowed)}")
    return doc


# input spec kind -> (the fields it takes besides "kind", its builder)
_STATES = {
    "computational": (("index",), lambda system, spec: computational_state(system, spec.get("index", 0))),
    "plus": ((), lambda system, spec: plus_state(system)),
    "mixed": ((), lambda system, spec: maximally_mixed(system)),
    "magic_t": ((), lambda system, spec: t_state(system)),
    "stabilizer": (("generators",), lambda system, spec: stabilizer_state(parse_generator_lines(system, spec["generators"]))),
    "matrix": (("matrix",), lambda system, spec: DensityState(system, _matrix(spec["matrix"]))),
    "random": (("seed",), lambda system, spec: haar_random_state(
        system, np.random.default_rng(_as_int(spec.get("seed", 0), "seed", 0)))),
}

# --state NAME[:ARG] -> (input spec kind, the field ARG fills)
_STATE_LABELS = {
    "computational": ("computational", "index"),
    "plus": ("plus", None),
    "mixed": ("mixed", None),
    "T": ("magic_t", None),
    "random": ("random", "seed"),
}


def _state_from_spec(system: QuditSystem, spec) -> DensityState:
    """The one state decoder: an input spec object such as {"kind": "computational", "index": 3}."""
    if not isinstance(spec, dict) or spec.get("kind") not in _STATES:
        raise ValidationError(f"input spec must be an object whose 'kind' is one of {', '.join(_STATES)}")
    fields, build = _STATES[spec["kind"]]
    return build(system, _fields(spec, "kind", *fields))


def _spec_from_label(label: str) -> dict:
    """``--state NAME[:ARG]`` as the input spec it names: computational:3 is {"kind": "computational", "index": 3}."""
    name, colon, arg = label.partition(":")
    kind, field = _STATE_LABELS.get(name, (None, None))
    if kind is None or (colon and field is None):
        raise ValidationError(f"unknown state {label!r}; expected computational[:i], plus, mixed, T or random[:seed]")
    return {"kind": kind, field: int(arg)} if colon else {"kind": kind}


def _state_from_args(args) -> DensityState:
    """The input state named by --generators, --input-file or --state, in that precedence."""
    system = QuditSystem(args.d, args.n)
    if args.generators:
        with open(args.generators) as fh:
            spec = {"kind": "stabilizer", "generators": fh.read()}
    elif args.input_file:
        spec = _read_json(args.input_file)
    else:
        spec = _spec_from_label(args.state or "computational:0")
    return _state_from_spec(system, spec)


def _named_gate(system: QuditSystem, spec) -> tuple[GateKind, tuple[int, ...]]:
    """A {"kind": NAME, "targets": [...]} gate with its checked targets (default per kind)."""
    return _read_gate(system, str(_fields(spec, "kind", "targets")["kind"]).upper(), spec.get("targets"))


# ------------------------------------------------------------- subcommands

def _cmd_basis(args, system: QuditSystem, out) -> None:
    point = full_point(system, tuple(args.l), tuple(args.m))
    op = o_operator(system, point)
    doc = {
        "d": system.d,
        "n": system.n,
        "l": list(point.l),
        "m": list(point.m),
        "trace": float(np.real(o_trace(system, point))),
        "hermitian": True,
        "unitary": True,
        "matrix": _jsonable_matrix(op.entries),
    }
    human = f"O basis element d={system.d} n={system.n} (l={list(point.l)}, m={list(point.m)}), trace {doc['trace']:g}"
    _emit(doc, out, human)


def _cmd_measure(args, rho: DensityState, out) -> None:
    system = rho.system
    # one x table and one chi table serve every quantity
    x = x_distribution(rho, Domain.RESTRICTED)
    inside, norm = _hyperpolyhedral_of(x)
    chi = characteristic_fn(rho, Domain.RESTRICTED) if args.alpha else None
    renyi = {str(a): _renyi_of(chi, a) for a in args.alpha}
    doc = {
        "d": system.d,
        "n": system.n,
        "negativity": norm,
        "norm_1": norm,
        "renyi": renyi,
        "hyperpolyhedral": bool(inside),
    }
    if system.d % 2:
        doc["wigner_negativity"] = lp_norm(_wigner_of(x), 1)
    if args.csv:
        # one row per field of the document but d and n, renyi flattened to renyi_<alpha>
        rows = [["quantity", "value"]]
        for key, value in doc.items():
            if key not in ("d", "n"):
                rows += [[f"renyi_{a}", v] for a, v in value.items()] if key == "renyi" else [[key, value]]
        _write_csv(rows, out)
        return
    rows = [f"  negativity       {doc['negativity']:.12g}", f"  1-norm           {norm:.12g}"]
    rows += [f"  renyi alpha={a}   {v:.12g}" for a, v in renyi.items()]
    _emit(doc, out, "magic measures:\n" + "\n".join(rows))


def _cmd_wigner(args, rho: DensityState, out) -> None:
    system = rho.system
    wig = discrete_wigner(rho)  # raises EvenDimensionError for even d
    doc = {
        "d": system.d,
        "n": system.n,
        "values": _jsonable_real(wig.values),
        "negativity": lp_norm(wig, 1),
    }
    _emit(doc, out, f"Wigner table d={system.d} n={system.n}, 1-norm {doc['negativity']:.12g}")


def _cmd_char(args, rho: DensityState, out) -> None:
    system = rho.system
    domain = Domain.FULL if args.domain == "full" else Domain.RESTRICTED
    chi = characteristic_fn(rho, domain)
    doc = {
        "d": system.d,
        "n": system.n,
        "domain": domain.value,
        "values": _jsonable_matrix(chi.values.reshape(chi.values.shape[0], -1)),
        "norm_1": lp_norm(chi, 1),
    }
    _emit(doc, out, f"characteristic table d={system.d} n={system.n}, 1-norm {doc['norm_1']:.12g}")


def _decode_gkp_check(args) -> tuple[list[tuple[QuditSystem, float]], int, int]:
    """(cells, seed, samples): (system, p) cells from --d/--n or the d^n <= 25 grid, each at every --p."""
    if args.d is None:
        if args.n is not None:
            raise ValidationError("--n needs --d: the default grid fixes its own qudit counts")
        dims = [(d, n) for d in (2, 3, 4, 5) for n in (1, 2) if d**n <= 25]
        orders = args.p or (0.5, 1.0, 2.0, 3.0)
    else:
        dims, orders = [(args.d, 1 if args.n is None else args.n)], args.p or (1.0,)
    cells = [(QuditSystem(d, n), check_order(p)) for d, n in dims for p in orders]
    return cells, _as_int(args.seed, "--seed", 0), _as_int(args.samples, "--samples", 1)


def _cmd_gkp_check(args, decoded, out) -> None:
    cells, seed, samples = decoded
    rows = []
    worst = scaled_worst = 0.0
    for system, p in cells:
        d, n = system.d, system.n
        rng = np.random.default_rng(seed)
        for k in range(samples):
            rho = haar_random_state(system, rng)
            lhs, rhs = _cell_sides(rho, p, GkpKind.WIGNER)
            lhs_c, rhs_c = _cell_sides(rho, p, GkpKind.CHARACTERISTIC)
            # np.max, unlike max, keeps a NaN residual, which then fails the check below
            worst = float(np.max([worst, abs(lhs - rhs), abs(lhs_c - rhs_c)]))
            scaled_worst = float(np.max([scaled_worst, _relative_residual(lhs, rhs), _relative_residual(lhs_c, rhs_c)]))
            rows.append(
                {
                    "d": d,
                    "n": n,
                    "p": p,
                    "state_index": k,
                    "lhs": lhs,
                    "rhs": rhs,
                    "residual": abs(lhs - rhs),
                    "lhs_char": lhs_c,
                    "rhs_char": rhs_c,
                    "residual_char": abs(lhs_c - rhs_c),
                }
            )
    if args.csv:
        _write_csv([list(rows[0])] + [list(row.values()) for row in rows], out)
    else:
        _emit({"results": rows, "max_residual": worst}, out,
              f"cell-norm identity check: {len(rows)} rows, max residual {worst:.3e}")
    if not scaled_worst < 1e-9:
        raise InvariantError(f"cell-norm identity residual {scaled_worst:.3e} relative to max(|lhs|, 1) exceeds 1e-9")


def _gate_from_spec(system: QuditSystem, spec):
    if isinstance(spec, dict) and "matrix" in spec:
        return DenseOperator(system, _matrix(_fields(spec, "matrix")["matrix"]))
    return _named_gate(system, spec)


def _measurement_from_spec(system: QuditSystem, spec) -> MeasurementEffect:
    kind = str(_fields(spec, "kind", "indices", "outcomes", "matrix").get("kind", "computational"))
    kind = MeasurementKind(kind.upper())
    if kind is MeasurementKind.EXPLICIT:
        matrix = _matrix(_fields(spec, "kind", "matrix")["matrix"])
        return MeasurementEffect(kind, operator=DenseOperator(system, matrix))
    _fields(spec, "kind", "indices", "outcomes")
    return MeasurementEffect(kind, spec.get("indices", range(system.n)), spec.get("outcomes", (0,) * system.n))


def _decode_simulate(args) -> CircuitDescription:
    cfg = _fields(_read_json(args.circuit), "d", "n", "input", "gates", "measurement")
    system = QuditSystem(cfg["d"], cfg.get("n", 1))
    return CircuitDescription(
        system,
        _state_from_spec(system, cfg["input"]),
        tuple(_gate_from_spec(system, g) for g in cfg.get("gates", [])),
        _measurement_from_spec(system, cfg.get("measurement", {})),
    )


def _cmd_simulate(args, circuit: CircuitDescription, out) -> None:
    runner = estimate_born_char if args.frame == "char" else estimate_born
    report = runner(circuit, args.epsilon, args.p_fail, args.seed, streams=args.streams)
    _emit({**dataclasses.asdict(report), "frame": args.frame}, out,
          f"estimate {report.estimate:.6f} from {report.samples_used} samples (M = {report.forward_norm:.6g})")


def _decode_gkp_sim(args):
    """(input state, Gaussian circuit, samples, seed) of a gkp-sim document."""
    cfg = _fields(_read_json(args.circuit), "d", "n", "input", "gate", "S", "displacement", "samples", "seed")
    system = QuditSystem(cfg["d"], cfg.get("n", 1))
    rho = _state_from_spec(system, cfg["input"])
    if "gate" in cfg:
        if "S" in cfg or "displacement" in cfg:
            raise ValidationError("a circuit takes either 'gate' or 'S' with 'displacement', not both")
        circuit = logical_clifford_symplectic(system, *_named_gate(system, cfg["gate"]))
    else:
        n2 = 2 * system.n
        s = np.array(cfg["S"], dtype=float).reshape(n2, n2)
        circuit = GaussianCircuit(system, s, np.array(cfg.get("displacement", [0.0] * n2), dtype=float))
    return rho, circuit, cfg.get("samples", 1), cfg.get("seed", 0)


def _row_texts(column: np.ndarray) -> list[str]:
    """str of each row of ``column`` (a list for a 2-D column), printed once per distinct row.

    Rows match by their bytes, not by ==: 0.0 == -0.0, but the two print
    apart. For Python ints and finite floats str gives the JSON text.
    """
    rows = np.ascontiguousarray(column)
    keys = rows.view(np.dtype((np.void, rows.itemsize * math.prod(rows.shape[1:])))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array(list(map(str, rows[first].tolist())), dtype=object)[inverse].tolist()


def _cmd_gkp_sim(args, decoded, out) -> None:
    rho, circuit, num_samples, seed = decoded
    batch = simulate_homodyne_batch(rho, circuit, num_samples, seed)
    # every field of a line is a function of the drawn label: build each
    # distinct label's line once from its column texts and repeat it per
    # sample. The lines share one template, keys in sorted order, with the
    # constant fields encoded once; the sampler emits only finite floats
    n = rho.system.n
    template = (f'{{"branch": {[0] * (2 * n)}, "lattice_index": %s, "point": {{"l": %s, "m": %s}}, '
                f'"schema_version": {SCHEMA_VERSION}, "sign": %s, "weight": {json.dumps(batch.weight)}, "x": %s}}')
    lattice = ["null"] * len(batch.points) if batch.lattice_index is None else _row_texts(batch.lattice_index)
    columns = (batch.points[:, :n], batch.points[:, n:], batch.signs, batch.x)
    lines = [template % row for row in zip(lattice, *map(_row_texts, columns))]
    if len(batch):
        print("\n".join(np.array(lines, dtype=object)[batch.inverse].tolist()), file=out)
    print(f"emitted {len(batch)} homodyne samples", file=sys.stderr)


def _cmd_enumerate(args, system: QuditSystem, out) -> None:
    groups = enumerate_single_qudit_groups(system.d)
    doc = {
        "d": system.d,
        "count": len(groups),
        "groups": [
            {
                "generators": [list(g) for g in grp.generators],
                "phase_vector": list(grp.phase_vector),
                "lines": format_generator_lines(grp),
            }
            for grp in groups
        ],
    }
    _emit(doc, out, f"{len(groups)} single-qudit stabilizer groups at d={system.d}")


# ------------------------------------------------------------------ main

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: a build costs ~1.6 ms, as much as a short in-process run."""
    ap = argparse.ArgumentParser(prog="quditphase", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", help="write the JSON (or CSV) here instead of stdout")
    register = argparse.ArgumentParser(add_help=False, parents=[out])
    register.add_argument("--d", type=int, required=True)
    register.add_argument("--n", type=int, default=1)
    register.set_defaults(decode=lambda args: QuditSystem(args.d, args.n))
    state = argparse.ArgumentParser(add_help=False, parents=[register])
    state.add_argument("--state", help="computational[:i] | plus | mixed | T | random[:seed]")
    state.add_argument("--generators", help="stabilizer generator file (a|b|phase lines)")
    state.add_argument("--input-file", dest="input_file", help="JSON input spec file")
    state.set_defaults(decode=_state_from_args)

    b = sub.add_parser("basis", help="one Hermitian basis element", parents=[register])
    b.add_argument("--l", type=int, nargs="+", default=[0])
    b.add_argument("--m", type=int, nargs="+", default=[0])
    b.set_defaults(run=_cmd_basis)

    m = sub.add_parser("measure", help="magic measures of a state", parents=[state])
    m.add_argument("--alpha", type=float, nargs="*", default=[2.0])
    m.add_argument("--csv", action="store_true")
    m.set_defaults(run=_cmd_measure)

    w = sub.add_parser("wigner", help="discrete Wigner table (odd d)", parents=[state])
    w.set_defaults(run=_cmd_wigner)

    c = sub.add_parser("char", help="characteristic-function table", parents=[state])
    c.add_argument("--domain", choices=["restricted", "full"], default="restricted")
    c.set_defaults(run=_cmd_char)

    g = sub.add_parser("gkp-check", help="cell-norm identity residuals", parents=[out])
    g.add_argument("--d", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--p", type=float, nargs="*")
    g.add_argument("--samples", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--csv", action="store_true")
    g.set_defaults(decode=_decode_gkp_check, run=_cmd_gkp_check)

    s = sub.add_parser("simulate", help="Born-probability estimator", parents=[out])
    s.add_argument("--circuit", required=True, help="circuit JSON file")
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--p-fail", dest="p_fail", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--streams", type=int, default=1)
    s.add_argument("--frame", choices=["o", "char"], default="o")
    s.set_defaults(decode=_decode_simulate, run=_cmd_simulate)

    k = sub.add_parser("gkp-sim", help="homodyne weak simulation", parents=[out])
    k.add_argument("--circuit", required=True, help="circuit JSON file")
    k.set_defaults(decode=_decode_gkp_sim, run=_cmd_gkp_sim)

    e = sub.add_parser("enumerate-stabilizers", help="single-qudit stabilizer groups", parents=[out])
    e.add_argument("--d", type=int, required=True)
    e.set_defaults(decode=lambda args: QuditSystem(args.d), run=_cmd_enumerate)
    return ap


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; every document of the run goes to one stream.

    That stream is stdout, or --output opened once, before decoding, so an
    --output that cannot be opened is a validation error reported on
    stdout. The file is emptied only once the inputs are read, since they
    may be read from that same file.
    """
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        try:
            if args.output:
                out = open(args.output, "a")
            inputs = args.decode(args)
        except _DECODE_ERRORS as exc:
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else f"{type(exc).__name__}: {exc}"
            raise ValidationError(f"invalid input: {reason}") from exc
        finally:
            # emptied as mode "w" would: a regular file is truncated, a device or pipe is left as it is
            if out is not sys.stdout and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)
        args.run(args, inputs, out)
        return 0
    except ValidationError as exc:
        _emit({"error": {"type": "validation", "message": str(exc)}}, out)
        return 2
    except InvariantError as exc:
        _emit({"error": {"type": "invariant", "message": str(exc)}}, sys.stderr if getattr(args, "csv", False) else out)
        return 3
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    sys.exit(main())

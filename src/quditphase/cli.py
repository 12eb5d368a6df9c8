"""Command-line entry points.

Machine-readable JSON goes to stdout (or --output); short human tables
go to stderr. Every JSON document carries schema_version. Exit codes:
0 success, 2 invalid configuration, 3 numerical invariant violation.

Matrix entries in JSON files are either plain reals or [re, im] pairs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .core import (
    DenseOperator,
    DensityState,
    GateKind,
    InvariantError,
    QuditSystem,
    ValidationError,
    computational_state,
    maximally_mixed,
    plus_state,
    t_state,
)
from .basis import Domain, full_point, o_operator, o_trace
from .measures import (
    characteristic_fn,
    check_order,
    discrete_wigner,
    haar_random_state,
    is_hyperpolyhedral,
    lp_norm,
    magic_negativity,
    stabilizer_renyi,
    x_distribution,
)
from .stabilizer import (
    enumerate_single_qudit_groups,
    format_generator_lines,
    parse_generator_lines,
    stabilizer_state,
)
from .gkp import (
    GkpKind,
    cell_lp_norm,
    gkp_char_coefficients,
    gkp_wigner_coefficients,
    stabilizer_cell_norm,
)
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

def _write(text: str, args) -> None:
    """Write ``text`` plus a newline to --output or stdout; empty text writes nothing."""
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + ("\n" if text else ""))
    elif text:
        print(text)


def _emit(doc, args, human: str = "") -> None:
    _write(json.dumps(doc, sort_keys=True), args)
    if human:
        print(human, file=sys.stderr)


def _complex_entry(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ValidationError(f"matrix entries must be real or [re, im], got {v!r}")


def _matrix(data) -> np.ndarray:
    try:
        return np.array([[_complex_entry(v) for v in row] for row in data], dtype=complex)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"malformed matrix: {exc}")


def _jsonable_matrix(arr: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def _jsonable_real(arr: np.ndarray):
    return np.asarray(arr, dtype=float).tolist()


# ------------------------------------------------------------ state specs

def _state_from_spec(system: QuditSystem, spec) -> DensityState:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError("input spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "computational":
        return computational_state(system, int(spec.get("index", 0)))
    if kind == "plus":
        return plus_state(system)
    if kind == "mixed":
        return maximally_mixed(system)
    if kind == "magic_t":
        if (system.d, system.n) != (2, 1):
            raise ValidationError("magic_t is the single-qubit magic input")
        return t_state()
    if kind == "stabilizer":
        group = parse_generator_lines(system, spec["generators"])
        return stabilizer_state(group)
    if kind == "matrix":
        return DensityState(system, _matrix(spec["matrix"]))
    if kind == "random":
        rng = np.random.default_rng(int(spec.get("seed", 0)))
        return haar_random_state(system, rng)
    raise ValidationError(f"unknown input kind {kind!r}")


def _state_from_args(system: QuditSystem, args) -> DensityState:
    """The input state named by --generators, --input-file or --state.

    Malformed JSON, non-integer labels and missing or mistyped spec
    fields raise ValidationError.
    """
    try:
        if args.generators:
            with open(args.generators) as fh:
                return stabilizer_state(parse_generator_lines(system, fh.read()))
        if args.input_file:
            with open(args.input_file) as fh:
                return _state_from_spec(system, json.load(fh))
        name = args.state or "computational:0"
        if name.startswith("computational"):
            idx = int(name.split(":")[1]) if ":" in name else 0
            return computational_state(system, idx)
        if name == "plus":
            return plus_state(system)
        if name == "mixed":
            return maximally_mixed(system)
        if name == "T":
            if (system.d, system.n) != (2, 1):
                raise ValidationError("state T requires d=2, n=1")
            return t_state()
        if name.startswith("random"):
            seed = int(name.split(":")[1]) if ":" in name else 0
            return haar_random_state(system, np.random.default_rng(seed))
    except KeyError as exc:
        raise ValidationError(f"input spec missing field {exc}")
    except (ValueError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValidationError(f"invalid input state: {exc}")
    raise ValidationError(f"unknown state {name!r}")


def _add_state_args(sub):
    sub.add_argument("--state", help="computational[:i] | plus | mixed | T | random[:seed]")
    sub.add_argument("--generators", help="stabilizer generator file (a|b|phase lines)")
    sub.add_argument("--input-file", dest="input_file", help="JSON input spec file")
    sub.add_argument("--output", help="write JSON here instead of stdout")


# ------------------------------------------------------------- subcommands

def _cmd_basis(args) -> int:
    system = QuditSystem(args.d, args.n)
    mod = 2 * system.d
    point = full_point(system, tuple(args.l), tuple(args.m))
    op = o_operator(system, point)
    doc = {
        "schema_version": SCHEMA_VERSION,
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
    _emit(doc, args, human)
    return 0


def _cmd_measure(args) -> int:
    system = QuditSystem(args.d, args.n)
    rho = _state_from_args(system, args)
    dist = x_distribution(rho, Domain.RESTRICTED)
    norm = lp_norm(dist, 1)
    inside, _ = is_hyperpolyhedral(rho)
    renyi = {str(a): stabilizer_renyi(rho, a) for a in args.alpha}
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": system.d,
        "n": system.n,
        "negativity": magic_negativity(rho),
        "norm_1": norm,
        "renyi": renyi,
        "hyperpolyhedral": bool(inside),
    }
    if system.d % 2:
        doc["wigner_negativity"] = lp_norm(discrete_wigner(rho), 1)
    if args.csv:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["quantity", "value"])
        w.writerow(["negativity", doc["negativity"]])
        w.writerow(["norm_1", doc["norm_1"]])
        for a, v in renyi.items():
            w.writerow([f"renyi_{a}", v])
        w.writerow(["hyperpolyhedral", doc["hyperpolyhedral"]])
        if "wigner_negativity" in doc:
            w.writerow(["wigner_negativity", doc["wigner_negativity"]])
        sys.stdout.write(buf.getvalue())
        return 0
    rows = [f"  negativity       {doc['negativity']:.12g}", f"  1-norm           {norm:.12g}"]
    rows += [f"  renyi alpha={a}   {v:.12g}" for a, v in renyi.items()]
    _emit(doc, args, "magic measures:\n" + "\n".join(rows))
    return 0


def _cmd_wigner(args) -> int:
    system = QuditSystem(args.d, args.n)
    rho = _state_from_args(system, args)
    wig = discrete_wigner(rho)  # raises EvenDimensionError for even d
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": system.d,
        "n": system.n,
        "values": _jsonable_real(wig.values),
        "negativity": lp_norm(wig, 1),
    }
    _emit(doc, args, f"Wigner table d={system.d} n={system.n}, 1-norm {doc['negativity']:.12g}")
    return 0


def _cmd_char(args) -> int:
    system = QuditSystem(args.d, args.n)
    rho = _state_from_args(system, args)
    domain = Domain.FULL if args.domain == "full" else Domain.RESTRICTED
    chi = characteristic_fn(rho, domain)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": system.d,
        "n": system.n,
        "domain": domain.value,
        "values": _jsonable_matrix(chi.values.reshape(chi.values.shape[0], -1)),
        "norm_1": lp_norm(chi, 1),
    }
    _emit(doc, args, f"characteristic table d={system.d} n={system.n}, 1-norm {doc['norm_1']:.12g}")
    return 0


def _cmd_gkp_check(args) -> int:
    cells = []
    if args.d is not None:
        cells = [(args.d, args.n, p) for p in (args.p or [1.0])]
    else:
        for d in (2, 3, 4, 5):
            for n in (1, 2):
                if d**n > 25:
                    continue
                for p in (0.5, 1.0, 2.0, 3.0):
                    cells.append((d, n, p))
    rows = []
    worst = 0.0
    for d, n, p in cells:
        system = QuditSystem(d, n)
        scale = d ** (n * (1 - 1 / check_order(p)))
        rng = np.random.default_rng(args.seed)
        for k in range(args.samples):
            rho = haar_random_state(system, rng)
            lhs = scale * lp_norm(x_distribution(rho, Domain.RESTRICTED), p)
            rhs = cell_lp_norm(gkp_wigner_coefficients(rho), p) / stabilizer_cell_norm(
                system, GkpKind.WIGNER, p
            )
            lhs_c = scale * lp_norm(characteristic_fn(rho, Domain.RESTRICTED), p)
            rhs_c = cell_lp_norm(gkp_char_coefficients(rho), p) / stabilizer_cell_norm(
                system, GkpKind.CHARACTERISTIC, p
            )
            worst = max(worst, abs(lhs - rhs), abs(lhs_c - rhs_c))
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
    doc = {"schema_version": SCHEMA_VERSION, "results": rows, "max_residual": worst}
    if args.csv:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        _emit(doc, args, f"cell-norm identity check: {len(rows)} rows, max residual {worst:.3e}")
    if worst >= 1e-9:
        raise InvariantError(f"cell-norm identity residual {worst:.3e} exceeds 1e-9")
    return 0


def _gates_from_spec(system: QuditSystem, specs):
    gates = []
    for g in specs:
        if "matrix" in g:
            gates.append(DenseOperator(system, _matrix(g["matrix"]), unitary=True))
        elif "kind" in g:
            kind = GateKind(str(g["kind"]).upper())
            targets = tuple(g.get("targets", (0, 1) if kind is GateKind.SUM else (0,)))
            gates.append((kind, targets))
        else:
            raise ValidationError(f"gate spec needs 'kind' or 'matrix': {g!r}")
    return tuple(gates)


def _measurement_from_spec(system: QuditSystem, spec) -> MeasurementEffect:
    kind = str(spec.get("kind", "computational")).lower()
    if kind == "computational":
        return MeasurementEffect(
            MeasurementKind.COMPUTATIONAL,
            tuple(spec.get("indices", range(system.n))),
            tuple(spec.get("outcomes", (0,) * system.n)),
        )
    if kind == "explicit":
        return MeasurementEffect(
            MeasurementKind.EXPLICIT,
            operator=DenseOperator(system, _matrix(spec["matrix"])),
        )
    raise ValidationError(f"unknown measurement kind {kind!r}")


def _load_circuit(path: str) -> dict:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed circuit JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValidationError(f"circuit JSON must be an object, got {type(cfg).__name__}")
    return cfg


def _cmd_simulate(args) -> int:
    cfg = _load_circuit(args.circuit)
    try:
        system = QuditSystem(int(cfg["d"]), int(cfg.get("n", 1)))
        circuit = CircuitDescription(
            system,
            _state_from_spec(system, cfg["input"]),
            _gates_from_spec(system, cfg.get("gates", [])),
            _measurement_from_spec(system, cfg.get("measurement", {})),
        )
    except KeyError as exc:
        raise ValidationError(f"circuit JSON missing field {exc}")
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"invalid circuit JSON: {exc}")
    runner = estimate_born_char if args.frame == "char" else estimate_born
    report = runner(circuit, args.epsilon, args.p_fail, args.seed, streams=args.streams)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "estimate": report.estimate,
        "epsilon": report.epsilon,
        "failure_prob": report.failure_prob,
        "samples_used": report.samples_used,
        "forward_norm": report.forward_norm,
        "seed": report.seed,
        "streams": report.streams,
        "frame": args.frame,
    }
    _emit(doc, args, f"estimate {report.estimate:.6f} from {report.samples_used} samples (M = {report.forward_norm:.6g})")
    return 0


def _cmd_gkp_sim(args) -> int:
    cfg = _load_circuit(args.circuit)
    try:
        system = QuditSystem(int(cfg["d"]), int(cfg.get("n", 1)))
        rho = _state_from_spec(system, cfg["input"])
        if "gate" in cfg:
            g = cfg["gate"]
            targets = tuple(g["targets"]) if g.get("targets") else None
            circuit = logical_clifford_symplectic(system, GateKind(str(g["kind"]).upper()), targets)
        else:
            n2 = 2 * system.n
            s = np.array(cfg["S"], dtype=float).reshape(n2, n2)
            disp = np.array(cfg.get("displacement", [0.0] * n2), dtype=float)
            circuit = GaussianCircuit(system, s, disp)
        num_samples, seed = int(cfg.get("samples", 1)), int(cfg.get("seed", 0))
    except KeyError as exc:
        raise ValidationError(f"circuit JSON missing field {exc}")
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValidationError(f"invalid circuit JSON: {exc}")
    batch = simulate_homodyne_batch(rho, circuit, num_samples, seed)
    # every field of a line is a function of the drawn label: serialize
    # each distinct label once and repeat its line per sample
    n = system.n
    lattice = [None] * len(batch.points) if batch.lattice_index is None else batch.lattice_index.tolist()
    lines = [
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "x": x,
                "branch": [0] * (2 * n),
                "point": {"l": point[:n], "m": point[n:]},
                "sign": sign,
                "weight": batch.weight,
                "lattice_index": k,
            },
            sort_keys=True,
        )
        for point, x, sign, k in zip(batch.points.tolist(), batch.x.tolist(), batch.signs.tolist(), lattice)
    ]
    _write("\n".join([lines[row] for row in batch.inverse.tolist()]), args)
    print(f"emitted {len(batch)} homodyne samples", file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    groups = enumerate_single_qudit_groups(args.d)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": args.d,
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
    _emit(doc, args, f"{len(groups)} single-qudit stabilizer groups at d={args.d}")
    return 0


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quditphase", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="one Hermitian basis element")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--l", type=int, nargs="+", default=[0])
    b.add_argument("--m", type=int, nargs="+", default=[0])
    b.add_argument("--output")
    b.set_defaults(func=_cmd_basis)

    m = sub.add_parser("measure", help="magic measures of a state")
    m.add_argument("--d", type=int, required=True)
    m.add_argument("--n", type=int, default=1)
    m.add_argument("--alpha", type=float, nargs="*", default=[2.0])
    m.add_argument("--csv", action="store_true")
    _add_state_args(m)
    m.set_defaults(func=_cmd_measure)

    w = sub.add_parser("wigner", help="discrete Wigner table (odd d)")
    w.add_argument("--d", type=int, required=True)
    w.add_argument("--n", type=int, default=1)
    _add_state_args(w)
    w.set_defaults(func=_cmd_wigner)

    c = sub.add_parser("char", help="characteristic-function table")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--domain", choices=["restricted", "full"], default="restricted")
    _add_state_args(c)
    c.set_defaults(func=_cmd_char)

    g = sub.add_parser("gkp-check", help="cell-norm identity residuals")
    g.add_argument("--d", type=int)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--p", type=float, nargs="*")
    g.add_argument("--samples", type=int, default=3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--csv", action="store_true")
    g.add_argument("--output")
    g.set_defaults(func=_cmd_gkp_check)

    s = sub.add_parser("simulate", help="Born-probability estimator")
    s.add_argument("--circuit", required=True, help="circuit JSON file")
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--p-fail", dest="p_fail", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--streams", type=int, default=1)
    s.add_argument("--frame", choices=["o", "char"], default="o")
    s.add_argument("--output")
    s.set_defaults(func=_cmd_simulate)

    k = sub.add_parser("gkp-sim", help="homodyne weak simulation")
    k.add_argument("--circuit", required=True, help="circuit JSON file")
    k.add_argument("--output")
    k.set_defaults(func=_cmd_gkp_sim)

    e = sub.add_parser("enumerate-stabilizers", help="single-qudit stabilizer groups")
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--output")
    e.set_defaults(func=_cmd_enumerate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError) as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": {"type": "validation", "message": str(exc)}}, args)
        return 2
    except InvariantError as exc:
        _emit({"schema_version": SCHEMA_VERSION, "error": {"type": "invariant", "message": str(exc)}}, args)
        return 3


if __name__ == "__main__":
    sys.exit(main())

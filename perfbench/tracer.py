"""In-memory span tracing around calls into the library's public functions.

The library has no tracing of its own, so the benchmark rebinds each
traced function at every module attribute that holds it (the package
root, the defining module and every module that imported it by name),
and each traced constructor through its class. Calls made from inside
other layers are then caught too. ``uninstall`` restores the originals,
so an op run between the two is exactly the untraced program.

A span records its name, start, end, parent span and op id. Self time
is a span's duration minus what its child spans cover; the benchmark is
single-threaded, so children of one span never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

PACKAGE = "quditphase"

# module -> public functions wrapped; every module of the library is listed.
# magic_negativity is wrapped only so that its share of a tables op counts
# as covered; it reports nothing.
FUNCTIONS = {
    "core": ("embed_generator",),
    "basis": ("o_operator", "clifford_coordinate_action"),
    "measures": ("x_distribution", "characteristic_fn", "lp_norm", "stabilizer_renyi", "magic_negativity"),
    "stabilizer": ("stabilizer_x_sparse",),
    "gkp": ("gkp_wigner_coefficients", "gkp_char_coefficients", "cell_lp_norm", "verify_theorem1", "verify_theorem2"),
    "sampling": ("forward_norm", "estimate_born", "estimate_born_char"),
    "homodyne": ("simulate_homodyne_batch", "logical_clifford_symplectic"),
    "cli": ("main",),
}
CLASSES = {"core": ("DenseOperator", "DensityState")}
# these spans are named per domain argument: measures.x_distribution.FULL
BY_DOMAIN = {"x_distribution", "characteristic_fn"}

# per-layer metrics read straight from the span table: (span, stats)
SPAN_STATS = (
    ("measures.x_distribution.FULL", ("calls", "ms", "self_ms")),
    ("measures.x_distribution.RESTRICTED", ("calls", "ms", "self_ms")),
    ("measures.characteristic_fn.FULL", ("calls", "ms", "self_ms")),
    ("measures.characteristic_fn.RESTRICTED", ("calls", "ms", "self_ms")),
    ("measures.lp_norm", ("self_ms",)),
    ("measures.stabilizer_renyi", ("self_ms",)),
    ("gkp.gkp_wigner_coefficients", ("calls", "ms", "self_ms")),
    ("gkp.gkp_char_coefficients", ("calls", "ms", "self_ms")),
    ("gkp.cell_lp_norm", ("self_ms",)),
    ("gkp.verify_theorem1", ("self_ms",)),
    ("gkp.verify_theorem2", ("self_ms",)),
    ("stabilizer.stabilizer_x_sparse", ("calls", "ms", "self_ms")),
    ("sampling.forward_norm", ("calls", "ms", "self_ms")),
    ("sampling.estimate_born", ("self_ms",)),
    ("sampling.estimate_born_char", ("self_ms",)),
    ("basis.o_operator", ("calls",)),
    ("basis.clifford_coordinate_action", ("calls", "ms", "self_ms")),
    ("core.DenseOperator", ("calls", "self_ms")),
    ("core.DensityState", ("calls", "ms", "self_ms")),
    ("core.embed_generator", ("calls", "ms", "self_ms")),
    ("homodyne.simulate_homodyne_batch", ("self_ms",)),
    ("homodyne.logical_clifford_symplectic", ("ms",)),
    ("cli.main", ("self_ms",)),
)
# per-layer metrics derived from spans and op counts
DERIVED = (
    ("sampling.trajectories", "count"),
    ("sampling.us_per_trajectory", "us"),
    ("basis.o_stack.misses", "count"),
    ("basis.p_stack.misses", "count"),
    ("homodyne.samples", "count"),
    ("homodyne.us_per_sample", "us"),
    ("cli.bytes_out", "count"),
    ("cli.us_per_line", "us"),
    ("trace.traced_ops", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.top_level_coverage_pct", "%"),
)
STAT_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_STATS for stat in stats}
    units.update(DERIVED)
    return units


class Tracer:
    """Spans kept in parallel lists; written out only at the end."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_times: dict[int, float] = {}
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self, op: int, seconds: float) -> None:
        self.op_times[op] = seconds
        self._op = -1

    def summary(self) -> tuple[dict, float]:
        """(span name -> [calls, inclusive s, self s], top-level covered s)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        table: dict[str, list] = {}
        covered = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if self.parents[i] < 0 and self.ops[i] in self.op_times:
                covered += dur
        return table, covered

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def _domain_suffix(args, kwargs) -> str:
    dom = args[1] if len(args) > 1 else kwargs.get("domain", "RESTRICTED")
    return str(getattr(dom, "value", dom)).upper()


def _traced(tracer: Tracer, fn, name: str, by_domain: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(f"{name}.{_domain_suffix(args, kwargs)}" if by_domain else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


class Instrumentation:
    """The set of attribute rebinds that turns tracing on and off."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        pkg = sys.modules[PACKAGE]
        modules = [pkg] + [sys.modules[f"{PACKAGE}.{m}"] for m in FUNCTIONS]
        self._patches = []  # (owner, attribute, original, wrapper)
        for mod, names in FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:  # gone from this version of the library
                    continue
                wrapper = _traced(tracer, fn, f"{mod}.{fname}", fname in BY_DOMAIN)
                for owner in modules:
                    for attr, value in vars(owner).items():
                        if value is fn:
                            self._patches.append((owner, attr, fn, wrapper))
        for mod, names in CLASSES.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for cname in names:
                cls = getattr(home, cname, None)
                if cls is None:
                    continue
                init = cls.__dict__["__init__"]
                self._patches.append((cls, "__init__", init, _traced(tracer, init, f"{mod}.{cname}", False)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def cache_misses(fname: str) -> int:
    """Misses of a cached ``quditphase.basis`` stack function, 0 if it is gone."""
    fn = getattr(sys.modules[f"{PACKAGE}.basis"], fname, None)
    return fn.cache_info().misses if hasattr(fn, "cache_info") else 0


def per_layer_metrics(tracer: Tracer, counts: dict, plain_ms: list, traced_ms: list) -> dict:
    """Every per-layer metric, averaged per traced op."""
    table, covered = tracer.summary()
    ops = max(len(traced_ms), 1)

    def stat(span: str, name: str) -> float:
        calls, inclusive_s, self_s = table.get(span, (0, 0.0, 0.0))
        return {"calls": calls, "ms": 1e3 * inclusive_s, "self_ms": 1e3 * self_s}[name] / ops

    out = {f"{span}.{s}": stat(span, s) for span, stats in SPAN_STATS for s in stats}

    def per_op(key: str) -> float:
        return counts.get(key, 0) / ops

    def ratio_us(ms: float, count: float) -> float:
        return 1e3 * ms / count if count else 0.0

    traj = per_op("sampling.trajectories")
    samples = per_op("homodyne.samples")
    plain = statistics.median(plain_ms) if plain_ms else 0.0
    traced = statistics.median(traced_ms) if traced_ms else 0.0
    out.update({
        "sampling.trajectories": traj,
        "sampling.us_per_trajectory": ratio_us(
            stat("sampling.estimate_born", "ms") + stat("sampling.estimate_born_char", "ms"), traj
        ),
        "basis.o_stack.misses": cache_misses("o_stack"),
        "basis.p_stack.misses": cache_misses("p_stack"),
        "homodyne.samples": samples,
        "homodyne.us_per_sample": ratio_us(stat("homodyne.simulate_homodyne_batch", "ms"), samples),
        "cli.bytes_out": per_op("cli.bytes_out"),
        "cli.us_per_line": ratio_us(stat("cli.main", "self_ms"), samples),
        "trace.traced_ops": len(traced_ms),
        "trace.overhead_ms": traced - plain,
        "trace.overhead_pct": 100.0 * (traced - plain) / plain if plain else 0.0,
        "trace.top_level_coverage_pct": 100.0 * covered / sum(tracer.op_times.values())
        if tracer.op_times else 0.0,
    })
    return out


"""Benchmark for booksis: scenario throughput end to end, per-layer cost
from a separate traced run.

Usage (from the repository root):

    python3 bench/run.py --workload classical_sweep --seed 1 --seconds 10 --trace 0

Load model: one Python process, one sequential caller, closed loop.  Each
op starts when the previous one returns, so the benchmark keeps at most
one core busy.  The library is driven in process through its public
functions; inputs are generated from ``--seed`` (see ``workloads.py``).

With ``--trace 0`` the op list is cycled for ``--seconds`` and the
end-to-end metrics are printed: ``setup_s`` (median of several fresh
imports of booksis plus input generation and parsing, spread over the
run), ``ops_per_s``,
``op_p50_ms``, ``op_tail_ms`` and ``peak_rss_mb``.  The failed share is
printed beside them and carried by the ``attempted``/``failed`` fields.

With ``--trace 1`` the op list runs once untraced and once traced (a
fixed amount of work, so counts repeat exactly for a seed), then a fixed
one-call-per-layer probe runs traced, then the layer micro-timings run
untraced.  The per-layer metrics come from that run; ``trace.overhead_s``
is the traced pass's time in the ops minus the untraced pass's.

Each op's latency runs from its call to its return.  Exception mapping,
reading and hashing its output files and every check come after the
clock stops.  Per op the harness keeps the first execution's output and
a count of later executions that did not reproduce it byte for byte, so
its memory does not grow with the number of executions.

Every op's output is checked, outside the timed region: exit code
against the expected one, ``max_deviation`` against the scenario
tolerance, window edges against the analytic ``t*`` to 1e-9, pointwise
closed-form values against ``oracle.integrate_ode``, ``run_check`` results
against ``passed``, and byte-identity of the files (or values) that
repeated executions of one op produce.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from micro import micro_timings
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
# accepted bands of the observed convergence orders of compare (first
# and second order in z; the acceptance suite's halving-ratio bands)
DEVIATION_ORDER = (math.log2(1.8), math.log2(2.2))
RESIDUAL_ORDER = (math.log2(3.6), math.log2(4.4))


class Lib:
    """The booksis modules of one fresh import."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "booksis" or n.startswith("booksis.")]:
            del sys.modules[name]
        for name in ("booksis", "booksis.cli", "booksis.invariants"):
            importlib.import_module(name)
        pkg = sys.modules["booksis"]
        if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"booksis imported from {pkg.__file__}, not {SRC}")
        for name in ("canonical", "cli", "deformed", "errors", "invariants",
                     "oracle", "quadrature", "sis", "timefn"):
            setattr(self, name, sys.modules[f"booksis.{name}"])


# --- ops ------------------------------------------------------------------------

@dataclass(slots=True)
class Outcome:
    """What one op execution returned, reduced to what the checks need."""

    code: int | None          # exit code, None for an untyped exception
    value: object = None      # report / rows / state / t_max / CheckResult
    key: object = None        # must be identical across repeats of the op
    nbytes: int = 0           # bytes of output files written
    error: str | None = None


@dataclass(slots=True)
class Op:
    """One prepared op.  ``invoke`` is the timed call; ``reduce`` turns its
    result into an Outcome after the clock has stopped."""

    invoke: Callable[[], object]
    reduce: Callable[[object], Outcome]


def _failure(lib, exc: Exception) -> Outcome:
    """Map an exception to the exit code the CLI gives it."""
    errors = lib.errors
    if isinstance(exc, (errors.ScenarioError, errors.ExpressionError)):
        return Outcome(lib.cli.EXIT_INPUT, error=repr(exc))
    if isinstance(exc, errors.BooksisError):
        return Outcome(lib.cli.EXIT_DOMAIN, error=repr(exc))
    return Outcome(None, error=repr(exc))   # an untyped escape is a failed op


def execute(lib, op: Op) -> tuple[float, Outcome]:
    """Run one op: (latency in seconds, Outcome).  Only the library call
    is timed; exception mapping, file reads and hashing follow it."""
    clock = time.perf_counter
    t0 = clock()
    try:
        result = op.invoke()
    except Exception as exc:  # noqa: BLE001 - mapped to an exit code below
        latency = clock() - t0
        return latency, _failure(lib, exc)
    latency = clock() - t0
    return latency, op.reduce(result)


def _prepare_scenario_op(lib, op, work: Path) -> Op:
    path = work / "scenarios" / f"{op['name']}.json"
    path.write_text(json.dumps(op["scenario"], indent=1))
    cli = lib.cli
    cli.build_adapter(cli.load_scenario(path))
    if op["kind"] == "compare":
        def reduce_compare(result):
            rows, code = result
            return Outcome(code, rows, json.dumps(rows, sort_keys=True))
        return Op(lambda: cli.compare_scenario(path), reduce_compare)

    out_dir = work / "out"
    files = (out_dir / f"{op['name']}.csv", out_dir / f"{op['name']}.report.json")

    def reduce_run(result):
        _, report, code = result
        data = [f.read_bytes() for f in files]
        key = hashlib.sha256(b"\0".join(data)).hexdigest()
        return Outcome(code, report, key, sum(len(d) for d in data))
    return Op(lambda: cli.run_scenario(path, out_dir=out_dir), reduce_run)


def _point_system(lib, op):
    """The system of a pointwise op, parsed from its coefficient texts."""
    coef = lib.timefn.CoefficientFunction.from_text
    if "bA" in op:
        system = lib.canonical.BookSystem(coef(op["bA"]), coef(op["bB"]))
        return lib.deformed.DeformedBookSystem(system, op["z"]) if "z" in op else system
    system = lib.sis.SisSystem(coef(op["rho0"]), coef(op["b"]))
    return lib.deformed.DeformedSisSystem(system, op["z"]) if "z" in op else system


def _prepare_point_op(lib, op) -> Op:
    """Parse the op's inputs once; the returned op is one cold query."""
    kind = op["kind"]
    if kind == "run_check":
        inv = lib.invariants
        return Op(lambda: inv.run_check(op["name"], op["seed"], op["count"]),
                  lambda value: Outcome(0, value, repr(value)))
    if kind == "validity_window":
        system, mod = _point_system(lib, op), lib.deformed
        return Op(lambda: mod.validity_window(system, op["c1"], op["horizon"]),
                  lambda window: Outcome(0, window.t_max, window.t_max))
    system = _point_system(lib, op)
    constants = lib.canonical.IntegrationConstants(*op["c"])
    mod = lib.deformed if "z" in op else lib.sis if "rho0" in op else lib.canonical
    query = getattr(mod, kind)

    def reduce_state(state):
        value = (state.x, state.y) if hasattr(state, "x") else (state.q, state.p)
        return Outcome(0, value, value)
    return Op(lambda: query(system, constants, op["t"]), reduce_state)


def prepare(lib, ops, work: Path) -> list[Op]:
    (work / "scenarios").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    return [
        _prepare_scenario_op(lib, op, work) if op["kind"] in ("run", "compare")
        else _prepare_point_op(lib, op)
        for op in ops
    ]


def setup(workload, seed, work: Path):
    """Import booksis afresh, generate the inputs, write and parse them.

    numpy, imported with this module, stays loaded, so the elapsed time
    covers booksis and the inputs alone."""
    start = time.perf_counter()
    lib = Lib()
    ops = workloads.generate(workload, seed)
    prepared = prepare(lib, ops, work)
    return time.perf_counter() - start, lib, ops, prepared


# --- correctness ------------------------------------------------------------------

class Tally:
    """The executions of a run, kept in memory that grows with the number
    of ops, not of executions: every latency, the first Outcome of each
    op and, per op, how many later executions did not reproduce it."""

    def __init__(self):
        self.latencies = array("d")
        self.first: dict[int, Outcome] = {}
        self.runs: dict[int, int] = {}
        self.differs: dict[int, int] = {}

    def add(self, index: int, latency: float, out: Outcome) -> None:
        self.latencies.append(latency)
        self.runs[index] = self.runs.get(index, 0) + 1
        first = self.first.setdefault(index, out)
        if (out.code, out.key) != (first.code, first.key):
            self.differs[index] = self.differs.get(index, 0) + 1

    def digest(self) -> str:
        """sha256 over each op's first output (file digest or values), in
        op order, so that runs of one seed can be compared across
        processes."""
        text = "\n".join(f"{i} {self.first[i].key!r}" for i in sorted(self.first))
        return f"{len(self.first)} ops, digest {hashlib.sha256(text.encode()).hexdigest()}"


def check(lib, ops, tally: Tally) -> tuple[int, list[str]]:
    """(failed executions, one reason per failing op).  The first
    execution of each op is checked in full; a later one passes when it
    reproduced the first exactly (same exit code, same output bytes or
    values) and the first passed."""
    failed = 0
    reasons = []
    for index in sorted(tally.first):
        op = ops[index]
        runs, differs = tally.runs[index], tally.differs.get(index, 0)
        reason = _check_one(lib, op, tally.first[index])
        if reason is not None:
            failed += runs
        elif differs:
            failed += differs
            reason = f"output differs from the first execution in {differs} of {runs}"
        if reason is not None:
            reasons.append(f"op {index} ({op['kind']}): {reason}")
    return failed, reasons


def _oracle_state(lib, op):
    """Reference state of a pointwise query from the independent
    integrator, started from the op's initial state."""
    system = _point_system(lib, op)
    rhs, state = {
        "exact_solution": (lib.canonical.rhs, lib.canonical.CanonicalState),
        "sis_exact_solution": (lib.sis.sis_rhs, lib.sis.EpidemicState),
        "deformed_exact_solution": (lib.deformed.deformed_rhs, lib.canonical.CanonicalState),
        "deformed_sis_exact_solution": (lib.deformed.deformed_sis_rhs, lib.sis.EpidemicState),
    }[op["kind"]]
    problem = lib.oracle.OdeProblem(
        rhs=lambda t, v: np.asarray(rhs(system, t, state(float(v[0]), float(v[1])))),
        t0=0.0, state0=np.asarray(op.get("start", op["c"]), dtype=float), t_end=op["t"])
    solution = lib.oracle.integrate_ode(problem, lib.oracle.IntegratorConfig(), [op["t"]])
    return tuple(float(v) for v in solution.states[0])


def _edge_ok(found, expected) -> bool:
    if expected is None:
        return found is None or math.isinf(found)
    return found is not None and abs(found - expected) <= workloads.WINDOW_TOL


def _order_ok(value, band) -> bool:
    return value is not None and band[0] <= value <= band[1]


def _check_one(lib, op, out):
    if out.code is None:
        return f"untyped exception {out.error}"
    expected = op.get("exit", 0)
    if out.code != expected:
        return f"exit {out.code}, expected {expected} {out.error or ''}".rstrip()
    kind = op["kind"]
    if kind == "run":
        report = out.value
        if not report["max_deviation"] <= report["deviation_tolerance"]:
            return f"max_deviation {report['max_deviation']!r} above tolerance"
        if not _edge_ok(report["validity_t_max"], op["edge"]):
            return f"window edge {report['validity_t_max']!r}, expected {op['edge']!r}"
    elif kind == "compare":
        for row in out.value[:-1]:
            if not (_order_ok(row["deviation_order"], DEVIATION_ORDER)
                    and _order_ok(row["residual_order"], RESIDUAL_ORDER)):
                return f"convergence orders out of band: {row!r}"
    elif kind == "validity_window":
        if not _edge_ok(out.value, op["edge"]):
            return f"window edge {out.value!r}, expected {op['edge']!r}"
    elif kind == "run_check":
        if not out.value.passed:
            return f"check failed: {out.value!r}"
    elif out.code == 0:
        ref = _oracle_state(lib, op)
        dev = max(abs(a - b) for a, b in zip(out.value, ref))
        if not dev <= workloads.DEVIATION_TOL:
            return f"deviation {dev!r} from the oracle above tolerance"
    return None


# --- measurement --------------------------------------------------------------------

def run_pass(lib, prepared, tally: Tally) -> float:
    """Run each op once, in order; returns the seconds spent in the ops."""
    total = 0.0
    for index, op in enumerate(prepared):
        latency, out = execute(lib, op)
        tally.add(index, latency, out)
        total += latency
    return total


def timed_phase(lib, prepared, seconds: float, tally: Tally) -> float:
    """Closed loop over the op list until ``seconds`` have elapsed;
    returns the seconds spent in the ops, which leaves out the
    harness's work between them."""
    deadline = time.perf_counter() + seconds
    n = len(prepared)
    busy = 0.0
    i = len(tally.latencies)      # a later slice resumes the op cycle
    while True:
        latency, out = execute(lib, prepared[i % n])
        tally.add(i % n, latency, out)
        busy += latency
        i += 1
        if time.perf_counter() >= deadline:
            return busy


def tail(latencies):
    """(percentile, value) at the highest percentile that has at least
    ten samples beyond it: the 11th-largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, work: Path):
    # The host's speed drifts within seconds, so the set-ups are spread
    # over the run, as the ops are: one before the timed phase and one
    # after each of its slices.  The ops keep the first set-up's modules.
    elapsed, lib, ops, prepared = setup(args.workload, args.seed, work)
    setups = [elapsed]
    tally = Tally()
    busy = 0.0
    slices = SETUP_REPEATS - 1
    for _ in range(slices):
        busy += timed_phase(lib, prepared, args.seconds / slices, tally)
        setups.append(setup(args.workload, args.seed, work / "again")[0])
        gc.collect()      # free that set-up's modules outside the ops
    rss = peak_rss_mb()
    failed, reasons = check(lib, ops, tally)
    latencies = tally.latencies
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(latencies) / busy, "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    notes = [
        f"inputs: {len(ops)} ops, digest {workloads.digest(ops)}",
        f"outputs: {tally.digest()}",
        f"op_tail_ms is p{pct:.2f} of {len(latencies)} ops",
        f"failed_share = {failed / len(latencies)!r} share ({failed} of {len(latencies)})",
    ]
    return tally, failed, reasons, metrics, notes


def layer_probe(lib, work: Path):
    """One small fixed call per layer, so every layer's boundaries are
    exercised on every workload."""
    scenario = work / "scenarios" / "probe.json"
    scenario.write_text(json.dumps({
        "model": "sis-constant", "coefficients": {"rho0": "1"},
        "initial": {"chart": "qp", "values": [0.6666666666666666, 3.0]},
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_samples": 11},
    }))
    coef = lib.timefn.CoefficientFunction.from_text
    book = lib.canonical.BookSystem(coef("0.5 + 0.3*sin(t)"), coef("0.5"))
    bytes_written = 0
    lib.cli.run_scenario(scenario, out_dir=work / "out")
    for f in ("probe.csv", "probe.report.json"):
        bytes_written += (work / "out" / f).stat().st_size
    lib.canonical.exact_solution(book, lib.canonical.IntegrationConstants(0.4, 0.8), 1.0)
    deformed = lib.deformed.DeformedBookSystem(book, 1.0)
    lib.deformed.deformed_exact_solution(
        deformed, lib.canonical.IntegrationConstants(0.4, 0.8), 0.5)
    lib.deformed.validity_window(deformed, 0.4, 2.0)
    lib.invariants.run_check("chart-round-trip", 0, 5)
    return bytes_written


def per_layer(args, work: Path):
    _, lib, ops, prepared = setup(args.workload, args.seed, work)
    tally = Tally()
    untraced = run_pass(lib, prepared, tally)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(lib, prepared, tally)
        probe_bytes = layer_probe(lib, work)
    finally:
        tracer.uninstall()
    micro = micro_timings(lib)
    failed, reasons = check(lib, ops, tally)
    for name in tracer.missing:
        print(f"trace: boundary {name} not found; skipped", file=sys.stderr)

    t = tracer
    evals = t.integrand_evals
    cumulative_calls = t.calls("quadrature.cumulative")
    m = {
        "timefn.calls": metric(t.calls("timefn.call"), "count"),
        "timefn.self_s": metric(t.self_s("timefn"), "s"),
        "timefn.ns_per_call": metric(micro["timefn.ns_per_call"], "ns"),
        "timefn.parse_us": metric(micro["timefn.parse_us"], "us"),
        "quadrature.integrate_calls": metric(t.calls("quadrature.integrate"), "count"),
        "quadrature.integrand_evals": metric(evals, "count"),
        "quadrature.panels": metric(evals / 15, "count"),
        "quadrature.self_s": metric(t.self_s("quadrature"), "s"),
        "quadrature.integrate_us": metric(micro["quadrature.integrate_us"], "us"),
        "quadrature.cumulative_sweep_us": metric(micro["quadrature.cumulative_sweep_us"], "us"),
        "quadrature.cumulative_calls": metric(cumulative_calls, "count"),
        "quadrature.cumulative_hit_ratio": metric(
            t.cumulative_hits / cumulative_calls if cumulative_calls else 0.0, "ratio"),
        "canonical.eval_calls": metric(t.calls("canonical.eval"), "count"),
        "canonical.self_s": metric(t.self_s("canonical"), "s"),
        "sis.eval_calls": metric(t.calls("sis.eval"), "count"),
        "sis.self_s": metric(t.self_s("sis"), "s"),
        "deformed.eval_calls": metric(t.calls("deformed.eval"), "count"),
        "deformed.self_s": metric(t.self_s("deformed"), "s"),
        "deformed.window_calls": metric(t.calls("deformed.window"), "count"),
        "deformed.window_s": metric(t.inclusive_s("deformed.window"), "s"),
        "deformed.window_locate_us": metric(micro["deformed.window_locate_us"], "us"),
        "cli.sweep_eval_s": metric(t.sweep_eval_s, "s"),
        "cli.residual_eval_s": metric(t.residual_eval_s, "s"),
        "cli.self_s": metric(t.self_s("cli"), "s"),
        "cli.bytes_written": metric(
            sum(out.nbytes for out in tally.first.values()) + probe_bytes, "bytes"),
        "oracle.calls": metric(t.calls("oracle.integrate_ode"), "count"),
        "oracle.self_s": metric(t.self_s("oracle"), "s"),
        "oracle.steps": metric(t.oracle_stats["steps"], "count"),
        "oracle.rejected": metric(t.oracle_stats["rejected"], "count"),
        "oracle.rhs_evals": metric(t.oracle_stats["rhs_evals"], "count"),
        "oracle.steps_per_s": metric(micro["oracle.steps_per_s"], "1/s"),
        "invariants.checks": metric(t.calls("invariants.check"), "count"),
        "invariants.self_s": metric(t.self_s("invariants"), "s"),
        "trace.overhead_s": metric(traced - untraced, "s"),
    }
    notes = [
        f"inputs: {len(ops)} ops, digest {workloads.digest(ops)}",
        f"outputs: {tally.digest()}",
        f"untraced pass {untraced!r} s, traced pass {traced!r} s",
    ]
    return tally, failed, reasons, m, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "booksis" / "__init__.py").is_file():
        print(f"bench: no booksis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measure = per_layer if args.trace else end_to_end
        tally, failed, reasons, metrics, notes = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(tally.latencies),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

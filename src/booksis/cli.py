"""Scenario runner.

Scenarios are JSON files naming a model, its coefficient expressions,
the deformation parameter, initial conditions with a chart tag, and a
sample grid.  ``run`` evaluates the model's closed-form solution on the
grid, integrates the same system numerically as an independent check,
and writes a CSV time series plus a JSON report.  ``compare`` sweeps the
deformation parameter and tabulates how fast the deformed flow and its
first-order truncation collapse onto the classical one.  ``invariants``
runs the randomized structure checks, ``window`` reports the validity
window of a deformed scenario.

Exit codes: 0 pass, 1 tolerance violation, 2 input error, 3 domain exit
(validity window or singular locus reached inside the grid).

Outputs are deterministic: re-running a scenario produces byte-identical
files.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, Sequence

from . import canonical, deformed, invariants as invariants_mod, oracle, sis
from .canonical import BookSystem, CanonicalState
from .deformed import DeformedBookSystem, DeformedSisSystem
from .errors import (
    BooksisError,
    ExpressionError,
    NonFiniteSampleError,
    OdeIntegrationError,
    ScenarioError,
    ValidityWindowError,
)
from .sis import EpidemicState, MomentState, SisSystem
from .timefn import CoefficientFunction

__all__ = [
    "Scenario",
    "TrajectorySample",
    "Trajectory",
    "load_scenario",
    "run_scenario",
    "compare_scenario",
    "main",
]

EXIT_PASS = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

# most samples a scenario grid may ask for: every sample is a closed-form
# evaluation, an oracle sample and a CSV row
MAX_SAMPLES = 10**6


# --- scenario files ----------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    model: str
    coefficients: dict[str, str]
    z: float
    a: float
    chart: str
    initial: tuple[float, float]
    t_start: float
    t_end: float
    n_samples: int
    deviation_tol: float
    quadrature_tol: float
    seed: int
    name: str = "scenario"


def _as_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{label} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ScenarioError(f"{label} must be finite, got {value!r}")
    return v


def parse_scenario(data: dict, name: str = "scenario") -> Scenario:
    """Validate a decoded scenario document."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    known = {"model", "coefficients", "z", "a", "initial", "grid",
             "tolerances", "seed"}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")

    model = data.get("model")
    if model not in _MODEL_TABLE:
        raise ScenarioError(f"model must be one of {tuple(_MODEL_TABLE)}, got {model!r}")
    spec = _MODEL_TABLE[model]

    grid = data.get("grid")
    if not isinstance(grid, dict):
        raise ScenarioError("grid must be an object with t_start/t_end/n_samples")
    t_start = _as_number(grid.get("t_start"), "grid.t_start")
    t_end = _as_number(grid.get("t_end"), "grid.t_end")
    n_samples = grid.get("n_samples")
    if (not isinstance(n_samples, int) or isinstance(n_samples, bool)
            or not 2 <= n_samples <= MAX_SAMPLES):
        raise ScenarioError(
            f"grid.n_samples must be an integer in [2, {MAX_SAMPLES}], got {n_samples!r}")
    if not t_start < t_end:
        raise ScenarioError("grid must satisfy t_start < t_end")
    if not math.isfinite(t_end - t_start):
        raise ScenarioError(
            f"grid span t_end - t_start must be finite, got {t_end!r} - {t_start!r}")

    coeffs = data.get("coefficients")
    if not isinstance(coeffs, dict):
        raise ScenarioError("coefficients must be an object of expression texts")
    required = spec.coefficients
    for key in coeffs:
        if key not in required and key not in spec.optional:
            raise ScenarioError(f"coefficient {key!r} not used by model {model!r}")
    for key in required:
        if key not in coeffs:
            raise ScenarioError(f"model {model!r} requires coefficient {key!r}")
        if not isinstance(coeffs[key], str):
            raise ScenarioError(f"coefficient {key!r} must be expression text")

    z = _as_number(data.get("z", 0.0), "z")
    if not spec.deformed and z != 0.0:
        raise ScenarioError(f"model {model!r} is classical; z must be 0")

    a = _as_number(data.get("a", t_start), "a")
    if a != t_start:
        raise ScenarioError(
            "base point a must equal grid.t_start (constants are fitted at the "
            f"initial time); got a={a!r}, t_start={t_start!r}"
        )
    if spec.constant_rate and a != 0.0:
        raise ScenarioError(f"model {model!r} requires a == 0 (closed form is pinned there)")

    initial = data.get("initial")
    if not isinstance(initial, dict):
        raise ScenarioError("initial must be an object with chart/values")
    chart = initial.get("chart")
    if chart != spec.chart:
        raise ScenarioError(
            f"model {model!r} uses chart {spec.chart!r}, got {chart!r}"
        )
    values = initial.get("values")
    if not isinstance(values, list) or len(values) != 2:
        raise ScenarioError("initial.values must be a list of two numbers")
    s0 = (_as_number(values[0], "initial.values[0]"),
          _as_number(values[1], "initial.values[1]"))

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ScenarioError("tolerances must be an object")
    deviation_tol = _as_number(tolerances.get("deviation", 1e-6), "tolerances.deviation")
    quadrature_tol = _as_number(tolerances.get("quadrature", 1e-10), "tolerances.quadrature")
    if deviation_tol <= 0.0 or quadrature_tol <= 0.0:
        raise ScenarioError("tolerances must be positive")

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"seed must be an integer, got {seed!r}")

    return Scenario(
        model=model,
        coefficients={k: v for k, v in sorted(coeffs.items())},
        z=z,
        a=a,
        chart=chart,
        initial=s0,
        t_start=t_start,
        t_end=t_end,
        n_samples=n_samples,
        deviation_tol=deviation_tol,
        quadrature_tol=quadrature_tol,
        seed=seed,
        name=name,
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer past int's digit limit
        raise ScenarioError(f"invalid JSON: {exc}") from exc
    return parse_scenario(data, name=path.stem)


# --- charts and models ---------------------------------------------------------------
#
# The six models are one book system -- a dilation coefficient, a
# translation coefficient and a deformation z -- read in one of three
# charts.  The chart alone decides the field names, the companion image,
# physicality and the map of an initial state to canonical (x, y), where
# every model fits its constants (at z = 0 the deformed fit reads off
# (x0, y0) exactly).  The model decides the system object, the closed form
# and the right-hand side, a float field of (t, u, v) that each Model binds
# once, when it is built, over its system's coefficients.  Table entries
# reach library functions through their module when they are read, never
# through a reference taken at import, so a function rebound on its module
# (a tracer, a test double) before a Model is built is the one that runs.

@dataclass(frozen=True)
class _Chart:
    fields: tuple[str, str]
    state: type
    companion: str
    to_companion: Callable  # state object -> companion-chart state object
    to_xy: Callable[[tuple[float, float]], CanonicalState]  # initial values
    # the state is physical when its companion image (True) or the state
    # itself (False) has two positive entries
    physical_in_companion: bool


def _moments_to_xy(values: tuple[float, float]) -> CanonicalState:
    if values[0] <= 0.0:
        raise ScenarioError("moments requires a positive initial mean")
    if values[1] <= 0.0:
        raise ScenarioError("moments requires a positive initial variance")
    return sis.to_canonical(sis.state_from_moments(MomentState(*values)))


_CHARTS = {
    "xy": _Chart(("x", "y"), CanonicalState, "qp",
                 to_companion=lambda s: sis.from_canonical(s),
                 to_xy=lambda values: CanonicalState(*values),
                 physical_in_companion=True),
    "qp": _Chart(("q", "p"), EpidemicState, "xy",
                 to_companion=lambda s: sis.to_canonical(s),
                 to_xy=lambda values: sis.to_canonical(EpidemicState(*values)),
                 physical_in_companion=False),
    "moments": _Chart(("mean", "variance"), MomentState, "qp",
                      to_companion=lambda s: sis.state_from_moments(s),
                      to_xy=_moments_to_xy,
                      physical_in_companion=False),
}


@dataclass(frozen=True)
class _ModelSpec:
    chart: str
    coefficients: tuple[str, ...]  # dilation and translation keys, in that order
    system: Callable  # book view (a DeformedBookSystem) -> the model's system
    evaluator: Callable  # model -> t -> canonical.Jet
    field: Callable  # model -> (t, u, v) -> right-hand side, on floats
    optional: tuple[str, ...] = ()
    deformed: bool = False  # takes z and has a validity window
    constant_rate: bool = False  # rho0 read once at build, b == 1 and a == 0


def _sis_view(book: DeformedBookSystem) -> SisSystem:
    return SisSystem(book.base.b_a, book.base.b_b, book.base.a)


def _sis_field(m: "Model") -> Callable:
    return partial(sis.sis_field, m.system.rho0, m.system.b)


def _moments_field(m: "Model") -> Callable:
    """The moment system is autonomous: its field ignores t."""
    field, rate = sis.moment_field, m.rate
    return lambda t, mean, variance: field(rate, mean, variance)


def _moments_jet(jet: canonical.Jet) -> canonical.Jet:
    """(q, p) jet -> (mean, variance) jet: variance = 1/p^2 has rate
    -2 p' / p^3."""
    p = jet.state.p
    dq, dp = jet.rate
    return canonical.Jet(sis.moments_from_state(jet.state), (dq, -2.0 * dp / p / (p * p)))


_MODEL_TABLE = {
    "book-canonical": _ModelSpec(
        "xy", ("bA", "bB"), system=lambda book: book.base,
        evaluator=lambda m: canonical.book_closed_form(m.kernel, m.constants),
        field=lambda m: partial(canonical.book_field, m.system.b_a, m.system.b_b)),
    "sis": _ModelSpec(
        "qp", ("rho0", "b"), system=_sis_view,
        evaluator=lambda m: sis.chart_image(m.kernel, m.constants),
        field=_sis_field),
    "sis-constant": _ModelSpec(
        "qp", ("rho0",), optional=("b",), system=_sis_view, constant_rate=True,
        # explicit formula, no quadrature: the kernel is not read
        evaluator=lambda m: lambda t: sis.sis_constant_jet(m.rate, m.constants, t),
        field=_sis_field),
    "moments": _ModelSpec(
        "moments", ("rho0",), system=_sis_view, constant_rate=True,
        evaluator=lambda m: lambda t: _moments_jet(
            sis.sis_constant_jet(m.rate, m.constants, t)),
        field=_moments_field),
    "deformed-book": _ModelSpec(
        "xy", ("bA", "bB"), system=lambda book: book, deformed=True,
        evaluator=lambda m: canonical.book_closed_form(m.kernel, m.constants),
        field=lambda m: partial(deformed.deformed_field, m.system.base.b_a,
                                m.system.base.b_b, m.system.z)),
    "deformed-sis": _ModelSpec(
        "qp", ("rho0", "b"), deformed=True,
        system=lambda book: DeformedSisSystem(_sis_view(book), book.z),
        evaluator=lambda m: sis.chart_image(m.kernel, m.constants),
        field=lambda m: partial(deformed.deformed_sis_field, m.system.base.rho0,
                                m.system.base.b, m.system.z)),
}


class Model:
    """One scenario's model built from its chart and model table rows:
    closed-form evaluator, right-hand side, companion-chart image and
    physicality flag, all on plain state tuples; the right-hand side is
    the model's float field, bound once here.  ``kernel`` is the
    scenario's one integral kernel: its ``window_end`` is the validity
    window, and the quadrature closed forms read their integrals off it."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.spec = spec = _MODEL_TABLE[scenario.model]
        self.chart = _CHARTS[spec.chart]
        self.fields = self.chart.fields
        self.companion_fields = _CHARTS[self.chart.companion].fields
        self._values = attrgetter(*self.fields)
        self._companion_values = attrgetter(*self.companion_fields)

        coefficients = [self._coefficient(key) for key in spec.coefficients]
        self.rate = None
        if spec.constant_rate:
            self.rate = self._constant_rate(coefficients[0])
            coefficients = [CoefficientFunction.constant(self.rate),
                            CoefficientFunction.constant(1.0)]
        # the model's system seen in the canonical chart
        self.book = DeformedBookSystem(BookSystem(*coefficients, scenario.a), scenario.z)
        self.system = spec.system(self.book)
        self.constants = deformed.deformed_fit_constants(
            self.book, scenario.t_start, self.chart.to_xy(scenario.initial)
        )
        self.kernel = canonical.BookIntegrals(
            *coefficients, scenario.a, scenario.quadrature_tol,
            scenario.z * self.constants.c1)
        self._field = spec.field(self)

    def _coefficient(self, key: str) -> CoefficientFunction:
        try:
            return CoefficientFunction.from_text(self.scenario.coefficients[key])
        except ExpressionError as exc:
            raise ScenarioError(f"coefficient {key!r}: {exc}") from exc

    def _constant_rate(self, rate: CoefficientFunction) -> float:
        scenario = self.scenario
        if not rate.is_constant():
            raise ScenarioError(
                f"model {scenario.model!r} needs a constant 'rho0', "
                f"got {scenario.coefficients['rho0']!r}"
            )
        value = rate(scenario.t_start)
        if value == 0.0:
            raise ScenarioError(f"{scenario.model} requires rho0 != 0")
        if "b" in scenario.coefficients:
            b_fn = self._coefficient("b")
            if not b_fn.is_constant() or b_fn(scenario.t_start) != 1.0:
                raise ScenarioError(f"{scenario.model} fixes b == 1")
        return value

    def exact_evaluator(self) -> Callable[[float], tuple[tuple, tuple]]:
        """t -> (state, rate): the closed form's state and its exact time
        derivative, both as tuples in the chart's field order."""
        evaluate = self.spec.evaluator(self)
        values = self._values

        def jet(t: float) -> tuple[tuple, tuple]:
            state, rate = evaluate(t)
            return values(state), rate

        return jet

    def rhs(self, t: float, state: tuple[float, float]) -> tuple[float, float]:
        """The model's right-hand side at a chart state tuple.  A
        non-finite state, such as an oracle trial state past a blow-up,
        raises :class:`NonFiniteSampleError`, which the oracle may recover
        from by shrinking its step."""
        u, v = state
        if not (math.isfinite(u) and math.isfinite(v)):
            raise NonFiniteSampleError(f"non-finite trial state at t={t!r}")
        return self._field(t, u, v)

    def companion(self, state: tuple[float, float]) -> tuple[float, float] | None:
        try:
            image = self.chart.to_companion(self.chart.state(*state))
        except (BooksisError, ValueError):
            return None
        return self._companion_values(image)

    def physical(self, state: tuple[float, float],
                 companion: tuple[float, float] | None) -> bool:
        """``companion`` is the state's image from :meth:`companion`."""
        if self.chart.physical_in_companion:
            state = companion
        return state is not None and state[0] > 0.0 and state[1] > 0.0


def build_adapter(scenario: Scenario) -> Model:
    """Instantiate the scenario's model; domain problems with the initial
    state (e.g. on the singular locus) surface as ScenarioError."""
    try:
        return Model(scenario)
    except BooksisError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"initial state rejected: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def _sample_times(scenario: Scenario) -> list[float]:
    """The scenario's grid, ``numpy.linspace``'s values bit for bit: time
    i is i*step + t_start, or (i/div)*delta + t_start where the step
    underflows to 0, and the last time is t_end.  For a span near the
    float limit the product for the last time may overflow, which that
    time's being t_end hides."""
    start, div = scenario.t_start, scenario.n_samples - 1
    delta = scenario.t_end - start
    step = delta / div
    if step == 0.0:
        grid = [(i / div) * delta + start for i in range(div)]
    else:
        grid = [i * step + start for i in range(div)]
    grid.append(scenario.t_end)
    return grid


# --- trajectory -----------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: tuple[float, float]
    companion: tuple[float, float] | None
    deviation: float
    residual: float
    physical: bool


@dataclass(frozen=True)
class Trajectory:
    samples: list[TrajectorySample]
    metadata: dict


def _residual(adapter: Model, t: float, state: tuple[float, float],
              rate: tuple[float, float]) -> float:
    """Relative defect between the closed form's exact time derivative
    ``rate`` and the model right-hand side at the sample."""
    try:
        f = adapter.rhs(t, state)
    except BooksisError:
        return math.nan
    scale = max(1.0, abs(f[0]), abs(f[1]))
    return max(abs(rate[0] - f[0]), abs(rate[1] - f[1])) / scale


def _oracle_config(method: str, initial: tuple[float, float]) -> oracle.IntegratorConfig:
    """The oracle's defaults, with atol lowered to rtol times the smallest
    nonzero |initial component| where that is below the default: a fixed
    atol of 1e-12 lets a solution that starts far below it go unresolved.
    A product that underflows is floored at the least subnormal."""
    defaults = oracle.IntegratorConfig(method=method)
    scale = min((abs(v) for v in initial if v != 0.0), default=math.inf)
    atol = max(min(defaults.atol, defaults.rtol * scale), math.ulp(0.0))
    return replace(defaults, atol=atol)


def run_scenario(
    path: str | Path,
    method: str = "adaptive",
    tol: float | None = None,
    out_dir: str | Path | None = None,
) -> tuple[Trajectory, dict, int]:
    """Execute one scenario; returns (trajectory, report, exit_code) and
    writes CSV/report files when ``out_dir`` is given."""
    scenario = load_scenario(path)
    adapter = build_adapter(scenario)
    out_dir = _output_dir(out_dir)
    if tol is None:
        deviation_tol = scenario.deviation_tol
    else:  # the scenario file's rule for tolerances.deviation
        deviation_tol = _as_number(tol, "tol")
        if deviation_tol <= 0.0:
            raise ScenarioError(f"tol must be positive, got {tol!r}")

    grid = _sample_times(scenario)
    t_max = adapter.kernel.window_end(scenario.t_end + 1.0)
    domain_exit = None

    evaluate = adapter.exact_evaluator()
    exact_states: list[tuple[float, float]] = []
    exact_rates: list[tuple[float, float]] = []
    evaluated_times: list[float] = []
    # the sweep stops at the first failure it meets; an oracle that stops
    # early stops before it, and its failure is the one reported
    for t in grid:
        if t >= t_max:
            domain_exit = {"first_failing_t": t,
                           "reason": f"validity window ends at t_max={t_max!r}"}
            break
        try:
            state, rate = evaluate(t)
        except BooksisError as exc:
            domain_exit = {"first_failing_t": t, "reason": str(exc)}
            break
        exact_states.append(state)
        exact_rates.append(rate)
        evaluated_times.append(t)

    solver_stats: dict = {}
    if evaluated_times:
        # no step cap: the adaptive method samples with its own 4th-order
        # continuous extension, so its error control alone sets the steps
        config = _oracle_config(method, scenario.initial)
        # the scenario's own initial values, so that a closed form with
        # wrong integration constants shows as a deviation
        problem = oracle.OdeProblem(rhs=adapter.rhs, t0=scenario.t_start,
                                    state0=scenario.initial, t_end=evaluated_times[-1])
        try:
            solution = oracle.integrate_ode(problem, config, evaluated_times)
        except OdeIntegrationError as exc:
            # the samples the pass placed up to its last good time are kept;
            # a failed pass places none at its end, the last evaluated time
            solution = exc.solution
            kept = bisect.bisect_right(solution.times, exc.last_time)
            domain_exit = {"first_failing_t": evaluated_times[kept],
                           "reason": f"numerical integration stopped: {exc}"}
            evaluated_times = evaluated_times[:kept]
        numeric_states, solver_stats = solution.states, solution.stats

    samples = []
    max_dev = 0.0
    max_res = 0.0
    for i, t in enumerate(evaluated_times):
        state = exact_states[i]
        num = numeric_states[i]
        dev = max(abs(state[0] - num[0]), abs(state[1] - num[1]))
        res = _residual(adapter, t, state, exact_rates[i])
        max_dev = max(max_dev, dev)
        if not math.isnan(res):  # NaN: the rhs failed at the sample
            max_res = max(max_res, res)
        companion = adapter.companion(state)
        samples.append(
            TrajectorySample(
                t=t,
                state=state,
                companion=companion,
                deviation=dev,
                residual=res,
                physical=adapter.physical(state, companion),
            )
        )

    if domain_exit is not None:
        exit_code = EXIT_DOMAIN
        result = "domain-exit"
    elif max_dev > deviation_tol:
        exit_code = EXIT_TOLERANCE
        result = "tolerance-violation"
    else:
        exit_code = EXIT_PASS
        result = "pass"

    metadata = {
        "scenario": scenario.name,
        "model": scenario.model,
        "z": scenario.z,
        "seed": scenario.seed,
        "constants": {"c1": adapter.constants.c1, "c2": adapter.constants.c2},
        "validity_t_max": None if math.isinf(t_max) else t_max,
        "method": method,
        "solver_stats": solver_stats,
        "grid": {
            "t_start": scenario.t_start,
            "t_end": scenario.t_end,
            "n_samples": scenario.n_samples,
        },
        "deviation_tolerance": deviation_tol,
        "quadrature_tolerance": scenario.quadrature_tol,
        "samples_evaluated": len(samples),
        "max_deviation": max_dev,
        "max_residual": max_res,
        "domain_exit": domain_exit,
        "result": result,
        "exit_code": exit_code,
    }
    trajectory = Trajectory(samples=samples, metadata=metadata)

    if out_dir is not None:
        _write_csv(out_dir / f"{scenario.name}.csv", adapter, trajectory)
        _write_report(out_dir / f"{scenario.name}.report.json", metadata)

    return trajectory, metadata, exit_code


def _output_dir(out_dir: str | Path | None) -> Path | None:
    """``out_dir`` as a created directory, made before any work so that a
    bad path fails fast, as an input error naming it."""
    if out_dir is None:
        return None
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(
            f"cannot create output directory {str(out_dir)!r}: {exc}") from exc
    return out_dir


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {str(path)!r}: {exc}") from exc


def _fmt(value: float) -> str:
    return repr(float(value))


_NO_COMPANION = (math.nan, math.nan)


def _write_csv(path: Path, adapter: Model, trajectory: Trajectory) -> None:
    """One row per sample, each value a Python float or int written by
    ``repr``: a missing companion reads nan, physical reads 1 or 0."""
    header = ["t", *adapter.fields, *adapter.companion_fields,
              "deviation", "residual", "physical"]
    lines = [",".join(header)]
    for s in trajectory.samples:
        lines.append(",".join(map(repr, (
            s.t, *s.state, *(s.companion or _NO_COMPANION),
            s.deviation, s.residual, int(s.physical)))))
    _write_text(path, "\n".join(lines) + "\n")


def _write_report(path: Path, metadata: dict) -> None:
    _write_text(path, json.dumps(metadata, indent=2, sort_keys=True) + "\n")


# --- compare ----------------------------------------------------------------------

def compare_scenario(
    path: str | Path,
    z_values: Sequence[float] | None = None,
    out_dir: str | Path | None = None,
) -> tuple[list[dict], int]:
    """Deformation sweep: for each z report the deviation of the deformed
    flow from the classical one (expected first order in z) and the
    right-hand-side residual of the first-order truncation (expected
    second order), with observed convergence orders between consecutive
    sweep entries."""
    scenario = load_scenario(path)
    if not _MODEL_TABLE[scenario.model].deformed:
        raise ScenarioError("compare needs a deformed-book or deformed-sis scenario")
    if z_values is None:
        if scenario.z == 0.0:
            raise ScenarioError("scenario has z == 0; pass an explicit --z-sweep")
        z_values = [scenario.z, scenario.z / 2.0, scenario.z / 4.0]
    z_values = [float(z) for z in z_values]
    if not z_values:
        raise ScenarioError("the z sweep is empty")
    out_dir = _output_dir(out_dir)

    grid = _sample_times(scenario)

    # classical reference from the same initial state
    classical = build_adapter(replace(scenario, z=0.0))
    classical_states = _sweep_exact(classical, grid)

    rows: list[dict] = []
    for z in z_values:
        adapter = build_adapter(replace(scenario, z=z))
        try:
            states = _sweep_exact(adapter, grid)
        except ValidityWindowError as exc:
            raise BooksisError(
                f"z={z!r}: validity window ends at {exc.t_max!r}, inside the grid; "
                "shrink the grid or the sweep"
            ) from exc
        dev = max(
            max(abs(s[0] - c[0]), abs(s[1] - c[1]))
            for s, c in zip(states, classical_states)
        )
        res = 0.0
        for t, s in zip(grid, states):
            full = adapter.rhs(t, s)
            trunc = deformed.perturbed_rhs_first_order(
                adapter.system, t, adapter.chart.state(*s)
            )
            res = max(res, abs(full[0] - trunc[0]), abs(full[1] - trunc[1]))
        rows.append({"z": z, "deviation_vs_classical": dev,
                     "first_order_residual": res})

    # observed order between each entry and the next; None for the last
    for row, nxt in zip(rows, [*rows[1:], None]):
        for order, key in (("deviation_order", "deviation_vs_classical"),
                           ("residual_order", "first_order_residual")):
            row[order] = None if nxt is None else _order(row["z"], nxt["z"],
                                                         row[key], nxt[key])

    if out_dir is not None:
        header = ["z", "deviation_vs_classical", "deviation_order",
                  "first_order_residual", "residual_order"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(
                "" if row.get(k) is None else _fmt(row[k]) for k in header
            ))
        _write_text(out_dir / f"{scenario.name}.compare.csv", "\n".join(lines) + "\n")

    return rows, EXIT_PASS


def _order(z0: float, z1: float, v0: float, v1: float) -> float | None:
    """Slope of log v against log z between two sweep entries."""
    if z0 > 0 and z1 > 0 and z0 != z1 and v0 > 0 and v1 > 0:
        return math.log(v0 / v1) / math.log(z0 / z1)
    return None


def _sweep_exact(adapter: Model, grid: list[float]):
    evaluate = adapter.exact_evaluator()
    return [evaluate(t)[0] for t in grid]


# --- entry point ---------------------------------------------------------------------

def _cmd_run(args) -> int:
    _, md, code = run_scenario(
        args.scenario, method=args.method, tol=args.tol, out_dir=args.output,
    )
    print(f"model={md['model']} samples={md['samples_evaluated']} "
          f"max_deviation={md['max_deviation']:.3e} "
          f"max_residual={md['max_residual']:.3e} "
          f"tol={md['deviation_tolerance']:.3e} -> {md['result']}")
    if md["domain_exit"] is not None:
        print(f"domain exit at t={md['domain_exit']['first_failing_t']!r}: "
              f"{md['domain_exit']['reason']}", file=sys.stderr)
    return code


def _cmd_compare(args) -> int:
    sweep = None
    if args.z_sweep is not None:
        try:
            sweep = [float(part) for part in args.z_sweep.split(",") if part.strip()]
        except ValueError as exc:
            raise ScenarioError(f"bad --z-sweep: {exc}") from exc
    rows, code = compare_scenario(args.scenario, sweep, out_dir=args.output)
    print(f"{'z':>12} {'dev_vs_classical':>18} {'order':>7} "
          f"{'first_order_resid':>18} {'order':>7}")
    for row in rows:
        dev_order = row.get("deviation_order")
        res_order = row.get("residual_order")
        dev_text = "-" if dev_order is None else f"{dev_order:.2f}"
        res_text = "-" if res_order is None else f"{res_order:.2f}"
        print(f"{row['z']:>12.3e} {row['deviation_vs_classical']:>18.6e} "
              f"{dev_text:>7} {row['first_order_residual']:>18.6e} {res_text:>7}")
    return code


def _cmd_invariants(args) -> int:
    if args.count < 1:
        raise ScenarioError(f"--count must be at least 1, got {args.count!r}")
    results = invariants_mod.run_all(seed=args.seed, count=args.count)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  samples={r.samples:<6d} "
              f"max_defect={r.max_defect:.3e}  tol={r.tolerance:.1e}  {status}")
        failed = failed or not r.passed
    return EXIT_TOLERANCE if failed else EXIT_PASS


def _cmd_window(args) -> int:
    scenario = load_scenario(args.scenario)
    adapter = build_adapter(scenario)
    horizon = args.horizon if args.horizon is not None else scenario.t_end
    if not (scenario.t_start < horizon < math.inf):
        raise ScenarioError(
            f"--horizon must be finite and exceed the grid start, got {horizon!r}"
        )
    t_max = adapter.kernel.window_end(horizon)
    if math.isinf(t_max):
        print(f"t_max=inf (no validity exit up to horizon {horizon!r})")
    else:
        print(f"t_max={t_max!r}")
    return EXIT_PASS


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="booksis",
        description="Exact solutions of generalized time-dependent SIS "
                    "Hamiltonian systems and their quantum deformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and verify it")
    p_run.add_argument("scenario")
    p_run.add_argument("--tol", type=float, default=None,
                       help="override the scenario deviation tolerance")
    p_run.add_argument("--method", choices=("adaptive", "fixed"), default="adaptive")
    p_run.add_argument("--output", default=None, help="directory for CSV/report files")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="deformation-parameter sweep")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--z-sweep", default=None,
                       help="comma-separated z values (default: z, z/2, z/4)")
    p_cmp.add_argument("--output", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_inv = sub.add_parser("invariants", help="randomized structure checks")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.add_argument("--count", type=int, default=1000)
    p_inv.set_defaults(func=_cmd_invariants)

    p_win = sub.add_parser("window", help="validity window of a deformed scenario")
    p_win.add_argument("scenario")
    p_win.add_argument("--horizon", type=float, default=None)
    p_win.set_defaults(func=_cmd_window)

    args = parser.parse_args(argv)
    # the one place where typed failures become exit codes
    try:
        return args.func(args)
    except (ScenarioError, ExpressionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BooksisError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

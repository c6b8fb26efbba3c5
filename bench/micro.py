"""Layer micro-timings: fixed small tasks, timed untraced, median of
several repetitions."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REPEATS = 5

PARSE_TEXTS = (
    "1 + 0.5*sin(t)",
    "0.45 - 0.12*sin(1.3*t + 2.1) + 0.08*sin(0.7*t + 5.2)",
    "0.8 + 0.02*t",
    "exp(-t^2/4)*cos(3*t) + ln(2 + t)",
    "-(t - 1)^2 + abs(sin(t))",
)


def _median_time(task, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def micro_timings(lib) -> dict[str, float]:
    coef = lib.timefn.CoefficientFunction.from_text
    f = coef("0.5 + 0.3*sin(1.1*t + 0.2)")
    points = [5.0 * k / 20000 for k in range(20000)]

    def coefficient_calls():
        for t in points:
            f(t)

    def parses():
        for _ in range(20):
            for text in PARSE_TEXTS:
                lib.timefn.parse_expression(text)

    quadrature = lib.quadrature
    grid = [0.05 * k for k in range(101)]

    def sweep():
        F = quadrature.cumulative(f, 0.0, 1e-10)
        for t in grid:
            F(t)

    # window edge of a positive rate at t* = 1.5
    system = lib.deformed.DeformedBookSystem(
        lib.canonical.BookSystem(f, coef("1")), 1.0)
    theta_star = 0.75 + 0.3 / 1.1 * (math.cos(0.2) - math.cos(1.1 * 1.5 + 0.2))
    c1 = math.exp(-theta_star)

    # undamped oscillator over ten periods, a pure oracle load
    problem = lib.oracle.OdeProblem(
        rhs=lambda t, v: np.array([v[1], -v[0]]), t0=0.0,
        state0=np.array([1.0, 0.0]), t_end=20 * math.pi)
    config = lib.oracle.IntegratorConfig()
    steps = lib.oracle.integrate_ode(problem, config, [problem.t_end]).stats["steps"]

    return {
        "timefn.ns_per_call": 1e9 * _median_time(coefficient_calls) / len(points),
        "timefn.parse_us": 1e6 * _median_time(parses) / (20 * len(PARSE_TEXTS)),
        "quadrature.integrate_us": 1e6 * _median_time(
            lambda: [quadrature.integrate(f, 0.0, 5.0, 1e-10) for _ in range(10)]) / 10,
        "quadrature.cumulative_sweep_us": 1e6 * _median_time(sweep),
        "deformed.window_locate_us": 1e6 * _median_time(
            lambda: lib.deformed.validity_window(system, c1, 3.0)),
        "oracle.steps_per_s": steps / _median_time(
            lambda: lib.oracle.integrate_ode(problem, config, [problem.t_end])),
    }

"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
the measured figure next to its fixed tolerance.  Run with

    pytest tests/test_acceptance.py -v -s

Every expected value is either arithmetic checked by hand or produced by
an independent oracle inside the test (numerical ODE integration of the
defining system, finite differences, brute-force scans, Richardson
ratios); nothing is tuned to the implementation under test.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from booksis.canonical import (
    BookSystem,
    CanonicalState,
    IntegrationConstants,
    rhs,
    solution_evaluator,
)
from booksis.cli import EXIT_DOMAIN, main
from booksis.deformed import (
    DeformedBookSystem,
    DeformedSisSystem,
    deformed_fit_constants,
    deformed_rhs,
    deformed_sis_rhs,
    deformed_sis_solution_evaluator,
    deformed_solution_evaluator,
    perturbed_rhs_first_order,
    validity_window,
)
from booksis.invariants import (
    check_bracket_book,
    check_bracket_deformed,
    check_chart_canonicity,
    check_chart_round_trip,
    check_commutator_book,
    check_commutator_deformed,
    check_moment_pushforward,
    order_or_floor,
    random_book_system,
    random_constants,
)
from booksis.oracle import IntegratorConfig, OdeProblem, integrate_ode
from booksis.sis import (
    EpidemicState,
    SisSystem,
    sis_constant_solution,
    sis_rhs,
    sis_solution_evaluator,
    to_canonical,
)
from booksis.timefn import CoefficientFunction as CF


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def canonical_vector_rhs(sysb):
    return lambda t, v: np.array(rhs(sysb, t, CanonicalState(v[0], v[1])))


def test_criterion_1_classical_canonical_vs_both_integrators():
    """25 randomized classical scenarios against both integrators, within
    1e-6 and 10 seconds."""
    rng = random.Random(2024)
    started = time.perf_counter()
    worst = 0.0
    times = [0.2 * k for k in range(26)]  # [a, a + 5]
    for _ in range(25):
        sysb = random_book_system(rng)
        constants = random_constants(rng)
        evaluate = solution_evaluator(sysb, constants, tol=1e-10)
        exact = np.array([[evaluate(t).state.x, evaluate(t).state.y] for t in times])
        problem = OdeProblem(
            rhs=canonical_vector_rhs(sysb),
            t0=0.0,
            state0=np.array([constants.c1, constants.c2]),
            t_end=times[-1],
        )
        for config in (
            IntegratorConfig(method="adaptive", max_step=0.02),
            IntegratorConfig(method="adaptive"),
            IntegratorConfig(method="fixed", step=0.0025),
        ):
            sol = integrate_ode(problem, config, times)
            worst = max(worst, float(np.max(np.abs(sol.states - exact))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"max deviation {worst:.3e} (tol 1e-6), runtime {elapsed:.2f}s (< 10s)")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_classical_sis_vs_rk45():
    """Seasonal infection rate: closed form against the adaptive
    integrator on [0, 5] within 1e-6."""
    sysc = SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0), 0.0)
    start = EpidemicState(2.0 / 3.0, 3.0)
    c0 = to_canonical(start)
    evaluate = sis_solution_evaluator(sysc, IntegrationConstants(c0.x, c0.y), tol=1e-10)
    times = [0.1 * k for k in range(51)]
    exact = np.array([[evaluate(t).state.q, evaluate(t).state.p] for t in times])
    problem = OdeProblem(
        rhs=lambda t, v: np.array(sis_rhs(sysc, t, EpidemicState(v[0], v[1]))),
        t0=0.0,
        state0=np.array([start.q, start.p]),
        t_end=times[-1],
    )
    worst = 0.0
    for config in (IntegratorConfig(max_step=0.02), IntegratorConfig()):
        sol = integrate_ode(problem, config, times)
        worst = max(worst, float(np.max(np.abs(sol.states - exact))))
    ok = worst <= 1e-6
    report(2, ok, f"max deviation {worst:.3e} (tol 1e-6)")
    assert ok


def test_criterion_3_constant_rate_specialization():
    """The quadrature solution specializes to the constant-rate closed
    form within 1e-9 on [0, 10], and the density relaxes to the
    equilibrium value."""
    rho0 = 1.0
    sysc = SisSystem(CF.constant(rho0), CF.constant(1.0), 0.0)
    c0 = to_canonical(EpidemicState(2.0 / 3.0, 3.0))
    constants = IntegrationConstants(c0.x, c0.y)
    evaluate = sis_solution_evaluator(sysc, constants, tol=1e-12)
    worst = 0.0
    for t in [0.25 * k for k in range(41)]:
        general = evaluate(t).state
        special = sis_constant_solution(rho0, constants, t)
        worst = max(worst, abs(general.q - special.q), abs(general.p - special.p))
    tail = sis_constant_solution(rho0, constants, 30.0)
    equilibrium_gap = abs(tail.q - rho0)
    ok = worst <= 1e-9 and equilibrium_gap <= 1e-3
    report(3, ok, f"specialization gap {worst:.3e} (tol 1e-9), "
                  f"|q(30) - rho0| = {equilibrium_gap:.3e} (tol 1e-3)")
    assert worst <= 1e-9
    assert equilibrium_gap <= 1e-3


def test_criterion_4_deformed_exact_vs_rk45():
    """Deformed canonical and deformed SIS closed forms against the
    adaptive integrator inside the validity window, z in {0.1, 0.5}."""
    worst_book = 0.0
    worst_sis = 0.0
    for z in (0.1, 0.5):
        # canonical picture
        base = BookSystem(CF.constant(1.0), CF.constant(1.0), 0.0)
        sysd = DeformedBookSystem(base, z)
        constants = IntegrationConstants(0.5, 1.0)
        t_max = validity_window(sysd, constants.c1, 20.0).t_max
        horizon = 0.8 * t_max
        times = [horizon * k / 20 for k in range(21)]
        evaluate = deformed_solution_evaluator(sysd, constants, tol=1e-10)
        exact = np.array([[evaluate(t).state.x, evaluate(t).state.y] for t in times])
        x0 = -math.log(1.0 - z * constants.c1) / z
        problem = OdeProblem(
            rhs=lambda t, v: np.array(deformed_rhs(sysd, t, CanonicalState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([x0, constants.c2]),
            t_end=times[-1],
        )
        for config in (IntegratorConfig(max_step=0.02), IntegratorConfig()):
            sol = integrate_ode(problem, config, times)
            worst_book = max(worst_book, float(np.max(np.abs(sol.states - exact))))

        # epidemic picture
        sis_base = SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0), 0.0)
        sis_deformed = DeformedSisSystem(sis_base, z)
        book_view = DeformedBookSystem(
            BookSystem(sis_base.rho0, sis_base.b, 0.0), z
        )
        start = EpidemicState(2.0 / 3.0, 3.0)
        c_sis = deformed_fit_constants(book_view, 0.0, to_canonical(start))
        t_max = validity_window(book_view, c_sis.c1, 20.0).t_max
        horizon = 0.8 * t_max
        times = [horizon * k / 20 for k in range(21)]
        evaluate = deformed_sis_solution_evaluator(sis_deformed, c_sis, tol=1e-10)
        exact = np.array([[evaluate(t).state.q, evaluate(t).state.p] for t in times])
        problem = OdeProblem(
            rhs=lambda t, v: np.array(
                deformed_sis_rhs(sis_deformed, t, EpidemicState(v[0], v[1]))
            ),
            t0=0.0,
            state0=np.array([start.q, start.p]),
            t_end=times[-1],
        )
        for config in (IntegratorConfig(max_step=0.02), IntegratorConfig()):
            sol = integrate_ode(problem, config, times)
            worst_sis = max(worst_sis, float(np.max(np.abs(sol.states - exact))))
    ok = worst_book <= 1e-6 and worst_sis <= 1e-6
    report(4, ok, f"max deviation canonical {worst_book:.3e}, "
                  f"epidemic {worst_sis:.3e} (tol 1e-6)")
    assert worst_book <= 1e-6
    assert worst_sis <= 1e-6


def test_criterion_5_structure_relations():
    """Bracket and commutator relations, classical and deformed, at 1000
    random states with h = 1e-5; halving h shows order >= 1.9 wherever
    the defect is above the round-off floor."""
    checks = (
        ("bracket-book", check_bracket_book),
        ("commutator-book", check_commutator_book),
        ("bracket-deformed", check_bracket_deformed),
        ("commutator-deformed", check_commutator_deformed),
    )
    all_ok = True
    details = []
    for name, fn in checks:
        at_h = fn(seed=3, count=1000, h=1e-5)
        at_half = fn(seed=3, count=1000, h=5e-6)
        order, meaningful = order_or_floor(at_h.max_defect, at_half.max_defect)
        ok = at_h.passed and at_half.passed and ((not meaningful) or order >= 1.9)
        all_ok = all_ok and ok
        details.append(
            f"{name} {at_h.max_defect:.1e}"
            + ("(floor)" if not meaningful else f"(order {order:.2f})")
        )
        assert at_h.passed, at_h
        assert at_half.passed, at_half
        assert (not meaningful) or order >= 1.9
    report(5, all_ok, "defects <= 1e-6: " + ", ".join(details))


def test_criterion_6_chart_canonicity_and_round_trip():
    canonicity = check_chart_canonicity(seed=4, count=1000)
    round_trip = check_chart_round_trip(seed=4, count=1000)
    ok = canonicity.passed and round_trip.passed
    report(6, ok, f"|det J - 1| {canonicity.max_defect:.3e} (tol 1e-6), "
                  f"round trip {round_trip.max_defect:.3e} (tol 1e-12)")
    assert canonicity.passed, canonicity
    assert round_trip.passed, round_trip


def test_criterion_7_classical_limit_first_order():
    """Deformed-to-classical deviation over [a, a+3] halves with z
    (ratio 2 +/- 0.2 per halving from 1e-2 down to 2.5e-3)."""
    base = BookSystem(CF.from_text("0.5 + 0.3*sin(t)"), CF.constant(0.5), 0.0)
    s0 = CanonicalState(0.4, 0.8)
    classical = solution_evaluator(base, IntegrationConstants(s0.x, s0.y), tol=1e-12)
    times = [0.1 * k for k in range(1, 31)]
    reference = [classical(t).state for t in times]

    def deviation(z):
        sysd = DeformedBookSystem(base, z)
        c = deformed_fit_constants(sysd, 0.0, s0)
        evaluate = deformed_solution_evaluator(sysd, c, tol=1e-12)
        worst = 0.0
        for t, ref in zip(times, reference):
            s = evaluate(t).state
            worst = max(worst, abs(s.x - ref.x), abs(s.y - ref.y))
        return worst

    d = [deviation(z) for z in (1e-2, 5e-3, 2.5e-3)]
    r1, r2 = d[0] / d[1], d[1] / d[2]
    ok = 1.8 <= r1 <= 2.2 and 1.8 <= r2 <= 2.2
    report(7, ok, f"halving ratios {r1:.3f}, {r2:.3f} (band [1.8, 2.2])")
    assert ok


def test_criterion_8_perturbation_is_second_order():
    """Residual of the first-order truncations against the full deformed
    right-hand sides scales as z^2 (ratio 4 +/- 0.4 per halving)."""
    zs = (1e-2, 5e-3, 2.5e-3)

    base = BookSystem(CF.constant(1.0), CF.constant(0.5), 0.0)
    state = CanonicalState(1.2, -0.8)

    def canonical_residual(z):
        sysd = DeformedBookSystem(base, z)
        full = deformed_rhs(sysd, 0.0, state)
        trunc = perturbed_rhs_first_order(sysd, 0.0, state)
        return max(abs(full[0] - trunc[0]), abs(full[1] - trunc[1]))

    sis_base = SisSystem(CF.constant(1.0), CF.constant(1.0), 0.0)
    sis_state = EpidemicState(0.8, 2.2)

    def sis_residual(z):
        sysd = DeformedSisSystem(sis_base, z)
        full = deformed_sis_rhs(sysd, 0.0, sis_state)
        trunc = perturbed_rhs_first_order(sysd, 0.0, sis_state)
        return max(abs(full[0] - trunc[0]), abs(full[1] - trunc[1]))

    ratios = []
    for residual in (canonical_residual, sis_residual):
        r = [residual(z) for z in zs]
        ratios.append(r[0] / r[1])
        ratios.append(r[1] / r[2])
    ok = all(3.6 <= ratio <= 4.4 for ratio in ratios)
    report(8, ok, "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios)
           + " (band [3.6, 4.4])")
    assert ok


def test_criterion_9_validity_window(tmp_path):
    """t_max equals ln 2 for the unit-coefficient scenario with z = 1 and
    c1 = 0.5, and the runner exits with code 3 when the grid crosses it."""
    sysd = DeformedBookSystem(BookSystem(CF.constant(1.0), CF.constant(1.0), 0.0), 1.0)
    window = validity_window(sysd, 0.5, 5.0)
    gap = abs(window.t_max - math.log(2.0))

    # x0 = ln 2 makes c1 = (1 - e^{-z x0})/z = 0.5
    doc = {
        "model": "deformed-book",
        "coefficients": {"bA": "1", "bB": "1"},
        "z": 1.0,
        "initial": {"chart": "xy", "values": [math.log(2.0), 1.0]},
        "grid": {"t_start": 0.0, "t_end": 2.0, "n_samples": 41},
    }
    path = tmp_path / "window.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--output", str(tmp_path)])
    reported = json.loads((tmp_path / "window.report.json").read_text())
    ok = gap <= 1e-9 and code == EXIT_DOMAIN and \
        abs(reported["validity_t_max"] - math.log(2.0)) <= 1e-9
    report(9, ok, f"|t_max - ln 2| = {gap:.2e} (tol 1e-9), runner exit {code} (want 3)")
    assert gap <= 1e-9
    assert code == EXIT_DOMAIN


def test_criterion_10_moment_consistency():
    result = check_moment_pushforward(seed=10, count=100)
    report(10, result.passed,
           f"pushforward defect {result.max_defect:.3e} (tol 1e-5) "
           f"at {result.samples} random physical states")
    assert result.passed, result

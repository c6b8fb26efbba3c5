"""Randomized invariant checks.

Each check draws reproducible random states (or whole scenarios) from a
seeded generator, measures the worst defect of one structural identity,
and compares it against a fixed tolerance.  The CLI ``invariants`` verb
runs all of them; the acceptance tests reuse individual checks.

Finite-difference defects of the algebra relations deserve a note: for
the book generators the truncation terms of the central-difference
stencils are annihilated by the constant/linear structure of the
translation side, so the measured defects sit at the round-off floor
(~1e-11) instead of decaying like h^2.  Convergence-order estimates are
therefore only meaningful above that floor; see ``order_or_floor``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from . import canonical, deformed, sis
from .canonical import BookSystem, CanonicalState, IntegrationConstants
from .sis import EpidemicState, SisSystem
from .timefn import CoefficientFunction

__all__ = [
    "CheckResult",
    "ALL_CHECKS",
    "run_check",
    "run_all",
    "random_coefficient",
    "random_book_system",
    "random_canonical_state",
    "random_epidemic_state",
    "order_or_floor",
]

# defects below this are considered converged to round-off; order
# estimates across h are noise down there
ROUNDOFF_FLOOR = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    max_defect: float
    tolerance: float
    passed: bool
    note: str = ""


# --- random generators -------------------------------------------------------

def random_coefficient(rng: random.Random) -> CoefficientFunction:
    """A random constant, linear or sinusoidal coefficient (each built as
    a plain expression tree) with amplitudes small enough to keep
    exp(Theta) moderate over a few time units."""
    kind = rng.choice(("constant", "linear", "sinusoidal"))
    if kind == "constant":
        return CoefficientFunction.constant(rng.uniform(-0.5, 0.5))
    if kind == "linear":
        return CoefficientFunction.linear(
            rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3)
        )
    return CoefficientFunction.sinusoidal(
        rng.uniform(-0.5, 0.5),
        rng.uniform(-0.8, 0.8),
        rng.uniform(0.3, 1.5),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def random_book_system(rng: random.Random, a: float = 0.0) -> BookSystem:
    return BookSystem(random_coefficient(rng), random_coefficient(rng), a)


def random_constants(rng: random.Random) -> IntegrationConstants:
    return IntegrationConstants(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def random_canonical_state(rng: random.Random) -> CanonicalState:
    return CanonicalState(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


def random_epidemic_state(
    rng: random.Random, physical: bool = False, locus_margin: float = 0.1
) -> EpidemicState:
    """Random state bounded away from the singular locus q^2 p^2 = 1 and
    from p = 0, where the chart's derivatives blow up and defeat
    finite-difference stencils."""
    while True:
        if physical:
            q = rng.uniform(0.1, 2.0)
            p = rng.uniform(0.25, 3.0)
        else:
            q = rng.uniform(-2.0, 2.0)
            p = rng.uniform(-3.0, 3.0)
            if abs(q) < 0.1 or abs(p) < 0.25:
                continue
        if abs(q * q * p * p - 1.0) < locus_margin:
            continue
        return EpidemicState(q, p)


def order_or_floor(defect_h: float, defect_half: float) -> tuple[float, bool]:
    """Observed convergence order between step h and h/2.

    Returns (order, meaningful).  When both defects sit at the round-off
    floor the identity is verified beyond the stencil's resolution and
    the order estimate carries no information; ``meaningful`` is False
    and the order should be treated as vacuously passing.
    """
    if defect_h <= ROUNDOFF_FLOOR and defect_half <= ROUNDOFF_FLOOR:
        return math.inf, False
    if defect_half == 0.0:
        return math.inf, False
    return math.log2(defect_h / defect_half), True


def _locus_step(u: float, v: float) -> float:
    """Central-difference step at (u, v) for the SIS chart maps, which
    degenerate on the locus u^2 v^2 = 1: their derivatives grow like
    inverse powers of the distance d, so the step shrinks with it."""
    d = abs(u * u * v * v - 1.0)
    grad = 2.0 * max(abs(u) * v * v, u * u * abs(v)) + 1e-12
    return min(1e-5 * max(1.0, abs(u), abs(v)), 3e-5 * d / grad)


def _jacobian_det(plane_map, u: float, v: float, h: float) -> float:
    """Central-difference Jacobian determinant of (u, v) -> plane_map(u, v)."""
    xup, yup = plane_map(u + h, v)
    xum, yum = plane_map(u - h, v)
    xvp, yvp = plane_map(u, v + h)
    xvm, yvm = plane_map(u, v - h)
    return ((xup - xum) * (yvp - yvm) - (xvp - xvm) * (yup - yum)) / (4.0 * h * h)


def _sis_chart(q: float, p: float) -> tuple[float, float]:
    c = sis.to_canonical(EpidemicState(q, p))
    return c.x, c.y


# --- individual checks ----------------------------------------------------------

def check_chart_round_trip(seed: int, count: int) -> CheckResult:
    """from_canonical(to_canonical(s)) == s to 1e-12 relative."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        s = random_epidemic_state(rng)
        back = sis.from_canonical(sis.to_canonical(s))
        scale = max(1.0, abs(s.q), abs(s.p))
        worst = max(worst, abs(back.q - s.q) / scale, abs(back.p - s.p) / scale)
    return CheckResult("chart-round-trip", count, worst, 1e-12, worst <= 1e-12)


def check_chart_canonicity(seed: int, count: int) -> CheckResult:
    """Jacobian determinant of (q, p) -> (x, y) equals 1 to 1e-6, with the
    locus-aware stencil step."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        s = random_epidemic_state(rng)
        det = _jacobian_det(_sis_chart, s.q, s.p, _locus_step(s.q, s.p))
        worst = max(worst, abs(det - 1.0))
    return CheckResult("chart-canonicity", count, worst, 1e-6, worst <= 1e-6)


def check_bracket_book(seed: int, count: int, h: float = 1e-5) -> CheckResult:
    """{h_A, h_B} == -h_B via central differences."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        s = random_canonical_state(rng)
        bracket = canonical.poisson_bracket(
            canonical.hamiltonian_a, canonical.hamiltonian_b, s, h
        )
        worst = max(worst, abs(bracket + canonical.hamiltonian_b(s)))
    return CheckResult("bracket-book", count, worst, 1e-6, worst <= 1e-6)


def check_commutator_book(seed: int, count: int, h: float = 1e-5) -> CheckResult:
    """[X_A, X_B] == X_B via finite-difference Jacobians."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        s = random_canonical_state(rng)
        lie = canonical.vf_commutator(canonical.field_a, canonical.field_b, s, h)
        target = canonical.field_b(s)
        worst = max(worst, abs(lie[0] - target[0]), abs(lie[1] - target[1]))
    return CheckResult("commutator-book", count, worst, 1e-6, worst <= 1e-6)


def check_bracket_deformed(seed: int, count: int, h: float = 1e-5) -> CheckResult:
    """Deformed bracket relation defect over z in {0.1, 1}."""
    rng = random.Random(seed)
    worst = 0.0
    per_z = max(1, count // 2)
    for z in (0.1, 1.0):
        for _ in range(per_z):
            s = random_canonical_state(rng)
            worst = max(worst, deformed.deformed_poisson_bracket_defect(z, s, h))
    return CheckResult("bracket-deformed", 2 * per_z, worst, 1e-6, worst <= 1e-6)


def check_commutator_deformed(seed: int, count: int, h: float = 1e-5) -> CheckResult:
    """Deformed commutator relation defect over z in {0.1, 1}."""
    rng = random.Random(seed)
    worst = 0.0
    per_z = max(1, count // 2)
    for z in (0.1, 1.0):
        for _ in range(per_z):
            s = random_canonical_state(rng)
            worst = max(worst, deformed.deformed_commutator_defect(z, s, h))
    return CheckResult("commutator-deformed", 2 * per_z, worst, 1e-6, worst <= 1e-6)


def _pushforward_from_canonical(c: CanonicalState, velocity, h: float):
    """Chain-rule image of a canonical-plane velocity under the chart
    inverse, with central-difference partials."""
    qxp = sis.from_canonical(CanonicalState(c.x + h, c.y))
    qxm = sis.from_canonical(CanonicalState(c.x - h, c.y))
    qyp = sis.from_canonical(CanonicalState(c.x, c.y + h))
    qym = sis.from_canonical(CanonicalState(c.x, c.y - h))
    dq = ((qxp.q - qxm.q) * velocity[0] + (qyp.q - qym.q) * velocity[1]) / (2.0 * h)
    dp = ((qxp.p - qxm.p) * velocity[0] + (qyp.p - qym.p) * velocity[1]) / (2.0 * h)
    return dq, dp


def check_sis_pushforward(seed: int, count: int) -> CheckResult:
    """sis_rhs equals the finite-difference pushforward of the canonical
    rhs through the chart, to 1e-5 relative."""
    rng = random.Random(seed)
    sys_c = SisSystem(
        CoefficientFunction.from_text("1 + 0.3*sin(t)"),
        CoefficientFunction.from_text("0.8 + 0.1*cos(t)"),
    )
    book = BookSystem(sys_c.rho0, sys_c.b, sys_c.a)
    worst = 0.0
    for _ in range(count):
        s = random_epidemic_state(rng, locus_margin=0.3)
        if abs(s.p) < 0.5:
            continue
        t = rng.uniform(0.0, 5.0)
        c = sis.to_canonical(s)
        velocity = canonical.rhs(book, t, c)
        # the inverse chart degenerates at x^2 y^2 = 1
        dq_fd, dp_fd = _pushforward_from_canonical(c, velocity, _locus_step(c.x, c.y))
        dq, dp = sis.sis_rhs(sys_c, t, s)
        scale = max(1.0, abs(dq), abs(dp))
        worst = max(worst, abs(dq - dq_fd) / scale, abs(dp - dp_fd) / scale)
    return CheckResult("sis-pushforward", count, worst, 1e-5, worst <= 1e-5)


def check_moment_pushforward(seed: int, count: int) -> CheckResult:
    """moment_rhs equals the chain-rule image of sis_rhs (constant rho0,
    b = 1) under (q, p) -> (mean, variance)."""
    rng = random.Random(seed)
    rho0 = 1.3
    sys_c = SisSystem(
        CoefficientFunction.constant(rho0), CoefficientFunction.constant(1.0)
    )
    worst = 0.0
    for _ in range(count):
        s = random_epidemic_state(rng, physical=True)
        dq, dp = sis.sis_rhs(sys_c, 0.0, s)
        h = 1e-6 * max(1.0, abs(s.p))
        # d(variance)/dt by centered difference of p -> 1/p^2 along dp
        var_plus = 1.0 / (s.p + h * dp) ** 2
        var_minus = 1.0 / (s.p - h * dp) ** 2
        dvar_fd = (var_plus - var_minus) / (2.0 * h)
        m = sis.moments_from_state(s)
        dmean, dvar = sis.moment_rhs(rho0, m)
        scale = max(1.0, abs(dmean), abs(dvar))
        worst = max(worst, abs(dmean - dq) / scale, abs(dvar - dvar_fd) / scale)
    return CheckResult("moment-pushforward", count, worst, 1e-5, worst <= 1e-5)


def check_hamiltonian_consistency(seed: int, count: int) -> CheckResult:
    """sis_rhs equals (dh/dp, -dh/dq) of the SIS Hamiltonian via central
    differences, to 1e-5 relative."""
    rng = random.Random(seed)
    sys_c = SisSystem(
        CoefficientFunction.from_text("1 + 0.4*sin(t)"),
        CoefficientFunction.from_text("0.7"),
    )
    worst = 0.0
    for _ in range(count):
        s = random_epidemic_state(rng, locus_margin=0.2)
        if abs(s.p) < 0.3:
            continue
        t = rng.uniform(0.0, 5.0)
        h = 1e-5 * max(1.0, abs(s.q), abs(s.p))
        dh_dp = (
            sis.sis_hamiltonian(sys_c, t, EpidemicState(s.q, s.p + h))
            - sis.sis_hamiltonian(sys_c, t, EpidemicState(s.q, s.p - h))
        ) / (2.0 * h)
        dh_dq = (
            sis.sis_hamiltonian(sys_c, t, EpidemicState(s.q + h, s.p))
            - sis.sis_hamiltonian(sys_c, t, EpidemicState(s.q - h, s.p))
        ) / (2.0 * h)
        dq, dp = sis.sis_rhs(sys_c, t, s)
        scale = max(1.0, abs(dq), abs(dp))
        worst = max(worst, abs(dq - dh_dp) / scale, abs(dp + dh_dq) / scale)
    return CheckResult("hamiltonian-consistency", count, worst, 1e-5, worst <= 1e-5)


def check_solution_residual(seed: int, count: int) -> CheckResult:
    """Centered-difference time derivative of the closed-form canonical
    solution matches the right-hand side to 1e-5 relative, on random
    scenarios at interior times (count is the number of scenarios)."""
    rng = random.Random(seed)
    scenarios = max(1, count)
    worst = 0.0
    delta = 1e-4
    for _ in range(scenarios):
        book = random_book_system(rng)
        constants = random_constants(rng)
        evaluate = canonical.solution_evaluator(book, constants, tol=1e-12)
        for k in range(20):
            t = 0.25 * (k + 1)
            plus = evaluate(t + delta).state
            minus = evaluate(t - delta).state
            dx_fd = (plus.x - minus.x) / (2.0 * delta)
            dy_fd = (plus.y - minus.y) / (2.0 * delta)
            here = evaluate(t).state
            dx, dy = canonical.rhs(book, t, here)
            scale = max(1.0, abs(dx), abs(dy))
            worst = max(worst, abs(dx - dx_fd) / scale, abs(dy - dy_fd) / scale)
    return CheckResult("solution-residual", scenarios, worst, 1e-5, worst <= 1e-5)


def check_solution_symplectic(seed: int, count: int) -> CheckResult:
    """The time-t map (c1, c2) -> (x(t), y(t)) of the canonical flow has
    unit Jacobian determinant (area preservation) to 1e-6."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        book = random_book_system(rng)
        c = random_constants(rng)
        t = rng.uniform(0.5, 4.0)

        def flow(c1, c2):
            s = canonical.exact_solution(book, IntegrationConstants(c1, c2), t, tol=1e-12)
            return s.x, s.y

        worst = max(worst, abs(_jacobian_det(flow, c.c1, c.c2, 1e-4) - 1.0))
    return CheckResult("solution-symplectic", count, worst, 1e-6, worst <= 1e-6)


ALL_CHECKS: dict[str, Callable[[int, int], CheckResult]] = {
    "chart-round-trip": check_chart_round_trip,
    "chart-canonicity": check_chart_canonicity,
    "bracket-book": check_bracket_book,
    "commutator-book": check_commutator_book,
    "bracket-deformed": check_bracket_deformed,
    "commutator-deformed": check_commutator_deformed,
    "sis-pushforward": check_sis_pushforward,
    "moment-pushforward": check_moment_pushforward,
    "hamiltonian-consistency": check_hamiltonian_consistency,
    "solution-residual": check_solution_residual,
    "solution-symplectic": check_solution_symplectic,
}

# checks whose unit of work is a whole scenario rather than a state
_SCENARIO_CHECKS = {"solution-residual": 20, "solution-symplectic": 25}


def run_check(name: str, seed: int, count: int) -> CheckResult:
    if name not in ALL_CHECKS:
        raise KeyError(f"unknown check {name!r}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    if name in _SCENARIO_CHECKS:
        count = min(count, _SCENARIO_CHECKS[name])
    return ALL_CHECKS[name](seed, count)


def run_all(seed: int = 0, count: int = 1000) -> list[CheckResult]:
    return [run_check(name, seed, count) for name in ALL_CHECKS]

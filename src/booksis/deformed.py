"""Quantum-deformed book systems and their SIS counterparts.

A real deformation parameter ``z`` replaces the dilation Hamiltonian
x*y by ((e^{z x} - 1)/z) * y, turning the linear canonical system into

    dx/dt = b_a(t) (e^{z x} - 1)/z
    dy/dt = -b_a(t) e^{z x} y + b_b(t)

All classical expressions are recovered continuously as z -> 0; every
occurrence of (e^{z x} - 1)/z goes through a dedicated expm1-style
kernel so that the small-z regime keeps full precision (naive
evaluation loses all digits exactly where the classical-limit tests
run).  z = 0 reproduces the classical formulas identically.

The closed-form solution

    x(t) = -ln(1 - z c1 e^{Theta(t)}) / z
    y(t) = e^{-Gamma(t)} (c2 + int_a^t e^{Gamma(u)} b_b(u) du)

with Theta the cumulative integral of b_a and
Gamma(t) = int_a^t b_a(u) / (1 - z c1 e^{Theta(u)}) du, only exists
while the logarithm argument stays positive.  The supremum of valid
times is tracked as a :class:`ValidityWindow` and every evaluation is
guarded: leaving the window raises rather than producing complex or
infinite values.

The SIS image of all of this under the canonical transformation of
:mod:`booksis.sis` is provided as an independent code path and
cross-checked against the chart composition in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .canonical import (
    BookIntegrals,
    BookSystem,
    CanonicalState,
    IntegrationConstants,
    Jet,
    default_fd_step,
    exp_checked,
    finite_state,
    poisson_bracket,
    vf_commutator,
)
from .errors import ExpOverflowError, SingularLocusError, ValidityWindowError
from .quadrature import DEFAULT_TOLERANCE
from .sis import (
    SINGULAR_LOCUS_TOLERANCE,
    EpidemicState,
    SisSystem,
    sis_rhs,
)

__all__ = [
    "DeformedBookSystem",
    "DeformedSisSystem",
    "ValidityWindow",
    "expm1_over",
    "deformed_hamiltonian_a",
    "deformed_hamiltonian_b",
    "deformed_field_a",
    "deformed_field_b",
    "deformed_hamiltonian",
    "deformed_rhs",
    "deformed_fit_constants",
    "validity_window",
    "deformed_exact_solution",
    "deformed_solution_evaluator",
    "deformed_sis_hamiltonians",
    "deformed_sis_rhs",
    "deformed_sis_exact_solution",
    "deformed_sis_solution_evaluator",
    "perturbed_rhs_first_order",
    "deformed_poisson_bracket_defect",
    "deformed_commutator_defect",
]

# kernel branch point: below this the series expansion is used
_SMALL_ARG = 1e-8


def _phi(w: float) -> float:
    """(e^w - 1)/w, continuous through w = 0."""
    if abs(w) < _SMALL_ARG:
        return 1.0 + 0.5 * w * (1.0 + w / 3.0)
    try:
        return math.expm1(w) / w
    except OverflowError as exc:
        raise ExpOverflowError(f"expm1({w!r}) overflowed") from exc


def _shifted_log_ratio(w: float) -> float:
    """-ln(1 - w)/w, continuous through w = 0; requires w < 1."""
    if abs(w) < _SMALL_ARG:
        return 1.0 + w * (0.5 + w / 3.0)
    return -math.log1p(-w) / w


def expm1_over(z: float, x: float) -> float:
    """(e^{z x} - 1)/z evaluated stably for any z, including z = 0 where
    the value is x."""
    return x * _phi(z * x)


@dataclass(frozen=True)
class DeformedBookSystem:
    """Book system plus deformation parameter z; z = 0 is the classical
    system and every operation reduces to its classical counterpart
    continuously as z -> 0."""

    base: BookSystem
    z: float

    def __post_init__(self):
        if not math.isfinite(self.z):
            raise ValueError(f"z must be finite, got {self.z!r}")


@dataclass(frozen=True)
class DeformedSisSystem:
    """SIS system plus deformation parameter z."""

    base: SisSystem
    z: float

    def __post_init__(self):
        if not math.isfinite(self.z):
            raise ValueError(f"z must be finite, got {self.z!r}")


@dataclass(frozen=True)
class ValidityWindow:
    """Time range [start, t_max) on which the deformed solution exists;
    t_max is math.inf when the logarithm argument never reaches zero."""

    start: float
    t_max: float

    def contains(self, t: float) -> bool:
        return self.start <= t < self.t_max


# --- deformed generators ------------------------------------------------------

def deformed_hamiltonian_a(z: float, s: CanonicalState) -> float:
    """((e^{z x} - 1)/z) * y"""
    return expm1_over(z, s.x) * s.y


def deformed_hamiltonian_b(z: float, s: CanonicalState) -> float:
    """-x (undeformed)."""
    return -s.x


def deformed_field_a(z: float, s: CanonicalState) -> tuple[float, float]:
    """((e^{z x} - 1)/z, -e^{z x} y)"""
    return (
        expm1_over(z, s.x),
        -exp_checked(z * s.x, "deformed_field_a") * s.y,
    )


def deformed_field_b(z: float, s: CanonicalState) -> tuple[float, float]:
    return (0.0, 1.0)


# --- deformed canonical dynamics ------------------------------------------------

def deformed_hamiltonian(sys: DeformedBookSystem, t: float, s: CanonicalState) -> float:
    """b_a(t) ((e^{z x} - 1)/z) y - b_b(t) x"""
    return (
        sys.base.b_a(t) * expm1_over(sys.z, s.x) * s.y
        - sys.base.b_b(t) * s.x
    )


def deformed_rhs(sys: DeformedBookSystem, t: float, s: CanonicalState) -> tuple[float, float]:
    """(dx/dt, dy/dt) = (b_a (e^{z x} - 1)/z, -b_a e^{z x} y + b_b)"""
    ba = sys.base.b_a(t)
    return (
        ba * expm1_over(sys.z, s.x),
        -ba * exp_checked(sys.z * s.x, "deformed_rhs") * s.y + sys.base.b_b(t),
    )


def deformed_fit_constants(
    sys: DeformedBookSystem, t0: float, s0: CanonicalState
) -> IntegrationConstants:
    """Constants reproducing ``s0`` at t0 == base point:
    c1 = (1 - e^{-z x0})/z, c2 = y0 (classical read-off at z = 0)."""
    if t0 != sys.base.a:
        raise ValueError(
            f"initial time {t0!r} must equal the system base point {sys.base.a!r}"
        )
    # (1 - e^{-z x0})/z == x0 * phi(-z x0), stable through z = 0
    return IntegrationConstants(s0.x * _phi(-sys.z * s0.x), s0.y)


# --- validity window -------------------------------------------------------------

def validity_window(
    sys: DeformedBookSystem,
    c1: float,
    horizon: float,
    tol: float = DEFAULT_TOLERANCE,
) -> ValidityWindow:
    """First time in [a, horizon] where 1 - z c1 e^{Theta(t)} vanishes,
    located by the kernel's sign scan plus bisection; t_max = inf when no
    sign change occurs (in particular whenever z*c1 <= 0, where the
    argument never drops below 1).  ``horizon`` must be finite and exceed
    the base point."""
    a = sys.base.a
    if not (a < horizon < math.inf):
        raise ValueError(
            f"horizon {horizon!r} must be finite and exceed the base point {a!r}"
        )
    k = BookIntegrals(sys.base.b_a, sys.base.b_b, a, tol, sys.z * c1)
    return ValidityWindow(a, k.window_end(horizon))


# --- deformed closed-form solutions ----------------------------------------------

def deformed_solution_evaluator(
    sys: DeformedBookSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form deformed solution as an evaluator of t returning the
    :class:`~booksis.canonical.Jet` (state, (x', y')), with a shared kernel
    (see :class:`~booksis.canonical.BookIntegrals` for the tolerance
    split).  Every call verifies the requested time against the validity
    window, extending the root scan lazily.  At z c1 = 0 the jets equal
    the classical :func:`~booksis.canonical.solution_evaluator`'s bit for
    bit.
    """
    z = sys.z
    c1, c2 = constants.c1, constants.c2
    a = sys.base.a
    k = BookIntegrals(sys.base.b_a, sys.base.b_b, a, tol, z * c1)

    def evaluate(t: float) -> Jet:
        if t >= a and t >= k.window_end(t):
            raise ValidityWindowError(t, k.t_max)
        growth = exp_checked(k.theta(t), "deformed solution", t)
        w = z * c1 * growth
        if w >= 1.0:
            raise ValidityWindowError(t, t)
        x = c1 * growth * _shifted_log_ratio(w)
        g = exp_checked(k.gamma(t), "deformed solution", t)
        if g == 0.0:
            raise ExpOverflowError(f"deformed solution: exp(-Gamma) overflowed at t={t!r}")
        i_t = c2 + k.forced(t)
        state = finite_state(CanonicalState, x, i_t / g, t)
        # x = -ln(L)/z with L = 1 - w: x' = c1 e^Theta b_a / L;
        # (e^Gamma)' = e^Gamma b_a / L, I' = e^Gamma b_b
        log_arg = 1.0 - w
        b_a = k.b_a(t)
        d_growth = growth * b_a
        d_g = g * b_a / log_arg
        d_forced = g * k.b_b(t)
        return Jet(state, (c1 * d_growth / log_arg, (d_forced - i_t * d_g / g) / g))

    return evaluate


def deformed_exact_solution(
    sys: DeformedBookSystem,
    constants: IntegrationConstants,
    t: float,
    tol: float = DEFAULT_TOLERANCE,
) -> CanonicalState:
    """Closed-form deformed solution at a single time."""
    return deformed_solution_evaluator(sys, constants, tol)(t).state


# --- deformed SIS layer -------------------------------------------------------------

def deformed_sis_hamiltonians(z: float, s: EpidemicState) -> tuple[float, float]:
    """Deformed Hamiltonian pair in epidemic variables:

        h_A = q p * phi(z (q^2 p^2 - 1)/p)   with phi(w) = (e^w - 1)/w
        h_B = (1 - q^2 p^2)/p                (undeformed)

    which is the canonical deformed pair pushed through the chart.
    """
    d = s.q * s.q * s.p * s.p - 1.0
    if s.p == 0.0 or abs(d) < SINGULAR_LOCUS_TOLERANCE:
        raise SingularLocusError(
            f"(q, p)=({s.q!r}, {s.p!r}) is singular for the deformed pair",
            state=s,
        )
    return (s.q * s.p * _phi(z * d / s.p), -d / s.p)


def deformed_sis_rhs(
    sys: DeformedSisSystem, t: float, s: EpidemicState
) -> tuple[float, float]:
    """Deformed epidemic dynamics.

    With D = q^2 p^2 - 1, S = q^2 p^2 + 1, w = z D / p, E = e^w and
    phi(w) = (e^w - 1)/w:

        dq/dt = rho0(t) q (S E - 2 phi(w)) / D - b(t) (q^2 + 1/p^2)
        dp/dt = -rho0(t) p^2 (2 q^2 p E - S phi(w)/p) / D + 2 b(t) q p

    algebraically identical to the raw pushforward of the deformed
    canonical system but stable uniformly in z (classical values at
    z = 0).
    """
    qp2 = s.q * s.q * s.p * s.p
    d = qp2 - 1.0
    if s.p == 0.0 or abs(d) < SINGULAR_LOCUS_TOLERANCE:
        raise SingularLocusError(
            f"(q, p)=({s.q!r}, {s.p!r}) is singular for the deformed dynamics",
            state=s,
        )
    w = sys.z * d / s.p
    e = exp_checked(w, "deformed_sis_rhs")
    ph = _phi(w)
    su = qp2 + 1.0
    r = sys.base.rho0(t)
    b = sys.base.b(t)
    dq = r * s.q * (su * e - 2.0 * ph) / d - b * (s.q * s.q + 1.0 / (s.p * s.p))
    dp = -r * s.p * s.p * (2.0 * s.q * s.q * s.p * e - su * ph / s.p) / d \
        + 2.0 * b * s.q * s.p
    return (dq, dp)


def deformed_sis_solution_evaluator(
    sys: DeformedSisSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form deformed SIS solution as an evaluator of t returning
    the :class:`~booksis.canonical.Jet` (state, (q', p')).

    With L(t) = ln(1 - z c1 e^{Theta(t)}), Gamma as in the canonical
    deformed solution (with rho0 as the dilation coefficient) and
    I(t) = c2 + int_a^t e^{Gamma(u)} b(u) du:

        q(t) = e^{-Gamma(t)} I(t)
               / (e^{-2 Gamma(t)} I(t)^2 - z^2 / L(t)^2)
        p(t) = z / L(t) - (L(t)/z) e^{-2 Gamma(t)} I(t)^2

    This is an independent code path from composing the canonical
    deformed solution with the chart map; the two agree wherever both
    are defined.
    """
    z = sys.z
    c1, c2 = constants.c1, constants.c2
    if c1 == 0.0:
        raise ValueError("c1 must be nonzero")
    a = sys.base.a
    k = BookIntegrals(sys.base.rho0, sys.base.b, a, tol, z * c1)

    def evaluate(t: float) -> Jet:
        if t >= a and t >= k.window_end(t):
            raise ValidityWindowError(t, k.t_max)
        growth = exp_checked(k.theta(t), "deformed SIS solution", t)
        w = z * c1 * growth
        if w >= 1.0:
            raise ValidityWindowError(t, t)
        # x = -L/z stably; L = ln(1 - w)
        x = c1 * growth * _shifted_log_ratio(w)
        # x^2 is a chart denominator below; it vanishes when x underflows too
        if x * x == 0.0:
            raise SingularLocusError(f"x(t) = {x!r} gives x^2 = 0 at t={t!r}")
        decay = exp_checked(-k.gamma(t), "deformed SIS solution", t)
        i_t = c2 + k.forced(t)
        y = decay * i_t
        locus = x * x * y * y - 1.0
        if abs(locus) < SINGULAR_LOCUS_TOLERANCE:
            raise SingularLocusError(f"solution hit the singular locus at t={t!r}")
        den = y * y - 1.0 / (x * x)
        state = finite_state(EpidemicState, y / den, x * y * y - 1.0 / x, t)
        # x' = c1 e^Theta rho0 / (1 - w); (e^-Gamma)' = -e^-Gamma rho0 / (1 - w);
        # I' = e^Gamma b
        log_arg = 1.0 - w
        rho0 = k.b_a(t)
        d_x = c1 * growth * rho0 / log_arg
        d_decay = -decay * rho0 / log_arg
        d_i = exp_checked(k.gamma(t), "deformed SIS solution", t) * k.b_b(t)
        d_y = d_decay * i_t + decay * d_i
        d_x_over_x2 = d_x / x / x  # -(1/x)'
        d_den = 2.0 * y * d_y + 2.0 * d_x_over_x2 / x
        return Jet(state, ((d_y - y * d_den / den) / den,
                           d_x * y * y + 2.0 * x * y * d_y + d_x_over_x2))

    return evaluate


def deformed_sis_exact_solution(
    sys: DeformedSisSystem,
    constants: IntegrationConstants,
    t: float,
    tol: float = DEFAULT_TOLERANCE,
) -> EpidemicState:
    """Closed-form deformed SIS solution at a single time."""
    return deformed_sis_solution_evaluator(sys, constants, tol)(t).state


# --- first-order perturbations --------------------------------------------------------

def perturbed_rhs_first_order(sys, t: float, state) -> tuple[float, float]:
    """Right-hand side truncated at first order in z.

    For a :class:`DeformedBookSystem` at a :class:`CanonicalState`:

        dx/dt = b_a (x + z x^2 / 2)
        dy/dt = -b_a (y + z x y) + b_b

    For a :class:`DeformedSisSystem` at an :class:`EpidemicState`:

        dq/dt = rho0 q - b (q^2 + 1/p^2) + z rho0 q^3 p
        dp/dt = 2 b q p - rho0 p + (z/2) rho0 (1 - 3 q^2 p^2)

    z = 0 gives the classical right-hand side exactly.
    """
    if isinstance(sys, DeformedBookSystem):
        s: CanonicalState = state
        ba = sys.base.b_a(t)
        return (
            ba * (s.x + 0.5 * sys.z * s.x * s.x),
            -ba * (s.y + sys.z * s.x * s.y) + sys.base.b_b(t),
        )
    if isinstance(sys, DeformedSisSystem):
        e: EpidemicState = state
        dq0, dp0 = sis_rhs(sys.base, t, e)
        r = sys.base.rho0(t)
        return (
            dq0 + sys.z * r * e.q ** 3 * e.p,
            dp0 + 0.5 * sys.z * r * (1.0 - 3.0 * e.q * e.q * e.p * e.p),
        )
    raise TypeError(f"expected a deformed system, got {type(sys).__name__}")


# --- structure-relation defects ---------------------------------------------------------

def deformed_poisson_bracket_defect(
    z: float, s: CanonicalState, h: float | None = None
) -> float:
    """|{h_A, h_B} - (e^{-z h_B} - 1)/z| at ``s`` with the bracket taken
    by central differences; the target reduces to the classical relation
    -h_B as z -> 0."""
    bracket = poisson_bracket(
        lambda st: deformed_hamiltonian_a(z, st),
        lambda st: deformed_hamiltonian_b(z, st),
        s,
        h,
    )
    target = expm1_over(z, s.x)  # (e^{-z h_B} - 1)/z with h_B = -x
    return abs(bracket - target)


def deformed_commutator_defect(
    z: float, s: CanonicalState, h: float | None = None
) -> float:
    """Max-norm defect of [X_A, X_B] = e^{z x} X_B at ``s`` with the Lie
    bracket taken by finite-difference Jacobians."""
    if h is None:
        h = default_fd_step(s)
    lie = vf_commutator(
        lambda st: deformed_field_a(z, st),
        lambda st: deformed_field_b(z, st),
        s,
        h,
    )
    scale = exp_checked(z * s.x, "deformed_commutator_defect")
    target = (0.0, scale)
    return max(abs(lie[0] - target[0]), abs(lie[1] - target[1]))

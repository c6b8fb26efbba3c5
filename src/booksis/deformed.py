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

with Theta the cumulative integral of b_a and, for L = 1 - z c1 e^Theta,
Gamma(t) = int_a^t b_a / L = Theta(t) - ln(L(t) / L(a)), as
(Theta - ln L)' = b_a / L, only exists while L stays positive, that is
until Theta reaches ln(1/(z c1)).  The supremum of valid times is tracked
as a :class:`ValidityWindow` and every evaluation is guarded: leaving
the window raises rather than producing complex or infinite values.

The closed form is :mod:`booksis.canonical`'s one book closed form, of
which the classical solution is the case z = 0, and the deformed SIS
solution is its image under the chart of :mod:`booksis.sis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .canonical import (
    _SMALL_ARG,
    BookIntegrals,
    BookSystem,
    CanonicalState,
    IntegrationConstants,
    Jet,
    book_closed_form,
    default_fd_step,
    exp_checked,
    poisson_bracket,
    vf_commutator,
)
from .errors import ExpOverflowError, SingularLocusError
from .quadrature import DEFAULT_TOLERANCE
from .sis import (
    SINGULAR_LOCUS_TOLERANCE,
    EpidemicState,
    SisSystem,
    chart_image,
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
    "deformed_field",
    "deformed_fit_constants",
    "validity_window",
    "deformed_exact_solution",
    "deformed_solution_evaluator",
    "deformed_sis_hamiltonians",
    "deformed_sis_rhs",
    "deformed_sis_field",
    "deformed_sis_exact_solution",
    "deformed_sis_solution_evaluator",
    "perturbed_rhs_first_order",
    "deformed_poisson_bracket_defect",
    "deformed_commutator_defect",
]


def _phi(w: float) -> float:
    """(e^w - 1)/w, continuous through w = 0."""
    if abs(w) < _SMALL_ARG:
        return 1.0 + 0.5 * w * (1.0 + w / 3.0)
    try:
        return math.expm1(w) / w
    except OverflowError as exc:
        raise ExpOverflowError(f"expm1({w!r}) overflowed") from exc


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
    return deformed_field(sys.base.b_a, sys.base.b_b, sys.z, t, s.x, s.y)


def deformed_field(b_a: Callable[[float], float], b_b: Callable[[float], float],
                   z: float, t: float, x: float, y: float) -> tuple[float, float]:
    """:func:`deformed_rhs` on plain floats, with the coefficients as
    callables of t."""
    ba = b_a(t)
    return (
        ba * expm1_over(z, x),
        -ba * exp_checked(z * x, "deformed_rhs") * y + b_b(t),
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
    read off the kernel's Theta pieces and bisected; t_max = inf when no
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
    window, extending the kernel lazily; a time before the base point
    raises ``ValueError``.  It is the book closed form that
    :func:`~booksis.canonical.solution_evaluator` evaluates at z = 0, so
    at z = 0 the jets are the classical ones bit for bit.
    """
    return book_closed_form(BookIntegrals(
        sys.base.b_a, sys.base.b_b, sys.base.a, tol, sys.z * constants.c1), constants)


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
    return deformed_sis_field(sys.base.rho0, sys.base.b, sys.z, t, s.q, s.p)


def deformed_sis_field(rho0: Callable[[float], float], b: Callable[[float], float],
                       z: float, t: float, q: float, p: float) -> tuple[float, float]:
    """:func:`deformed_sis_rhs` on plain floats, with the coefficients as
    callables of t; the singular locus and p = 0 raise
    :class:`SingularLocusError` carrying the state."""
    qp2 = q * q * p * p
    d = qp2 - 1.0
    if p == 0.0 or abs(d) < SINGULAR_LOCUS_TOLERANCE:
        raise SingularLocusError(
            f"(q, p)=({q!r}, {p!r}) is singular for the deformed dynamics",
            state=EpidemicState(q, p),
        )
    w = z * d / p
    e = exp_checked(w, "deformed_sis_rhs")
    ph = _phi(w)
    su = qp2 + 1.0
    r = rho0(t)
    bt = b(t)
    dq = r * q * (su * e - 2.0 * ph) / d - bt * (q * q + 1.0 / (p * p))
    dp = -r * p * p * (2.0 * q * q * p * e - su * ph / p) / d \
        + 2.0 * bt * q * p
    return (dq, dp)


def deformed_sis_solution_evaluator(
    sys: DeformedSisSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form deformed SIS solution as an evaluator of t returning
    the :class:`~booksis.canonical.Jet` (state, (q', p')): the chart image
    of :func:`deformed_solution_evaluator`'s jets, whose states are
    :func:`~booksis.sis.from_canonical`'s bit for bit.

    With L(t) = ln(1 - z c1 e^{Theta(t)}), Gamma as in the canonical
    deformed solution (with rho0 as the dilation coefficient) and
    I(t) = c2 + int_a^t e^{Gamma(u)} b(u) du, that image is

        q(t) = e^{-Gamma(t)} I(t)
               / (e^{-2 Gamma(t)} I(t)^2 - z^2 / L(t)^2)
        p(t) = z / L(t) - (L(t)/z) e^{-2 Gamma(t)} I(t)^2

    As in :func:`deformed_solution_evaluator`, every call checks the
    validity window, and a time before the base point raises
    ``ValueError``.
    """
    return chart_image(BookIntegrals(
        sys.base.rho0, sys.base.b, sys.base.a, tol, sys.z * constants.c1), constants)


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

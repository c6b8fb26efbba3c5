"""SIS epidemic layer.

State (q, p) packs the mean infected density q = <rho> and the inverse
standard deviation p = 1/sigma.  With a time-dependent infection rate
rho0(t) and a second free coefficient b(t), the Hamiltonian

    h_t = rho0(t) * q * p + b(t) * (1 - q^2 p^2) / p

drives

    dq/dt = rho0(t) q - b(t) (q^2 + 1/p^2)
    dp/dt = -rho0(t) p + 2 b(t) q p

which is the book system of :mod:`booksis.canonical` in disguise: the
canonical transformation

    x = (q^2 p^2 - 1)/p        q = x^2 y / (x^2 y^2 - 1)
    y = q p^2 / (q^2 p^2 - 1)  p = (x^2 y^2 - 1)/x

preserves dx ^ dy = dq ^ dp and conjugates the two flows, so the exact
solution transfers to closed form here as well: the SIS closed forms, the
classical one here and the deformed one in :mod:`booksis.deformed`, are
the book closed form of :mod:`booksis.canonical` mapped through the
inverse chart, state and rate together.  The transformation is a
local diffeomorphism away from the singular locus q^2 p^2 = 1
(equivalently x^2 y^2 = 1); all maps raise a typed error near it rather
than silently crossing charts.

States with q <= 0 or p <= 0 are mathematically fine but have no
epidemic reading; they are permitted and flagged via ``is_physical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .canonical import (
    BookIntegrals,
    CanonicalState,
    IntegrationConstants,
    Jet,
    book_closed_form,
    exp_checked,
    finite_state,
)
from .errors import ExpOverflowError, MomentDomainError, SingularLocusError
from .quadrature import DEFAULT_TOLERANCE
from .timefn import CoefficientFunction

__all__ = [
    "SINGULAR_LOCUS_TOLERANCE",
    "EpidemicState",
    "SisSystem",
    "MomentState",
    "to_canonical",
    "from_canonical",
    "sis_rhs",
    "sis_hamiltonian",
    "sis_exact_solution",
    "sis_solution_evaluator",
    "chart_image",
    "sis_constant_solution",
    "sis_constant_jet",
    "moment_rhs",
    "moments_from_state",
    "state_from_moments",
]

# |q^2 p^2 - 1| (or |x^2 y^2 - 1|) below this is treated as on the locus
SINGULAR_LOCUS_TOLERANCE = 1e-12


@dataclass(frozen=True)
class EpidemicState:
    """Mean infected density q and inverse standard deviation p."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"non-finite epidemic state ({self.q!r}, {self.p!r})")

    @property
    def is_physical(self) -> bool:
        """True when the state has an epidemic reading (positive density
        and positive standard deviation)."""
        return self.q > 0.0 and self.p > 0.0


@dataclass(frozen=True)
class SisSystem:
    """Infection rate rho0(t), free coefficient b(t), quadrature base ``a``."""

    rho0: CoefficientFunction
    b: CoefficientFunction
    a: float = 0.0

    def __post_init__(self):
        self.rho0(self.a)
        self.b(self.a)


@dataclass(frozen=True)
class MomentState:
    """Mean infected density and variance of the stochastic expansion."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("non-finite moment state")
        if self.variance < 0.0:
            raise ValueError(f"negative variance {self.variance!r}")


# --- canonical transformation ------------------------------------------------

def to_canonical(s: EpidemicState) -> CanonicalState:
    """(q, p) -> (x, y) = ((q^2 p^2 - 1)/p, q p^2/(q^2 p^2 - 1)).

    Formed through v = q p (d = v^2 - 1, x = d / p, y = v p / d), so that
    the image is finite wherever (x, y) is, however large or small p
    alone is."""
    v = s.q * s.p
    d = v * v - 1.0
    if s.p == 0.0 or abs(d) < SINGULAR_LOCUS_TOLERANCE:
        raise SingularLocusError(
            f"(q, p)=({s.q!r}, {s.p!r}) lies on the singular locus q^2 p^2 = 1 "
            "or has p = 0",
            state=s,
        )
    return CanonicalState(d / s.p, v * s.p / d)


def from_canonical(s: CanonicalState) -> EpidemicState:
    """(x, y) -> (q, p) = (x^2 y/(x^2 y^2 - 1), (x^2 y^2 - 1)/x).

    Formed through u = x y (d = u^2 - 1, q = x u / d, p = d / x), so
    that the image is finite wherever (q, p) is, however large or small
    x alone is."""
    u = s.x * s.y
    d = u * u - 1.0
    if s.x == 0.0 or abs(d) < SINGULAR_LOCUS_TOLERANCE:
        raise SingularLocusError(
            f"(x, y)=({s.x!r}, {s.y!r}) lies on the singular locus x^2 y^2 = 1 "
            "or has x = 0",
            state=s,
        )
    return EpidemicState(s.x * u / d, d / s.x)


# --- dynamics -------------------------------------------------------------------

def sis_rhs(sys: SisSystem, t: float, s: EpidemicState) -> tuple[float, float]:
    """(dq/dt, dp/dt) = (rho0 q - b (q^2 + 1/p^2), -rho0 p + 2 b q p)."""
    if s.p == 0.0:
        raise SingularLocusError("p = 0 in sis_rhs", state=s)
    r = sys.rho0(t)
    b = sys.b(t)
    return (
        r * s.q - b * (s.q * s.q + 1.0 / (s.p * s.p)),
        -r * s.p + 2.0 * b * s.q * s.p,
    )


def sis_hamiltonian(sys: SisSystem, t: float, s: EpidemicState) -> float:
    """rho0(t) * q p + b(t) * (1 - q^2 p^2)/p; for constant rho0 and b = 1
    this is q p (rho0 - q) + 1/p."""
    if s.p == 0.0:
        raise SingularLocusError("p = 0 in sis_hamiltonian", state=s)
    qp = s.q * s.p
    return sys.rho0(t) * qp + sys.b(t) * (1.0 - qp * qp) / s.p


# --- exact solutions ---------------------------------------------------------------

def chart_image(kernel: BookIntegrals,
                constants: IntegrationConstants) -> Callable[[float], Jet]:
    """The book closed form on ``kernel``, with dilation rho0 and
    translation b, mapped to the (q, p) chart: an evaluator of t returning
    the :class:`~booksis.canonical.Jet` ((q, p), (q', p')).  The state is
    :func:`from_canonical`'s, q = x u / d and p = d / x with u = x y and
    d = u^2 - 1, and the rate is their chain rule.  x = 0 and the
    singular locus raise :class:`SingularLocusError`; c1 = 0, where x
    vanishes identically, raises ``ValueError``.
    """
    if constants.c1 == 0.0:
        raise ValueError("c1 must be nonzero (x(t) would vanish identically)")
    book = book_closed_form(kernel, constants)

    def evaluate(t: float) -> Jet:
        xy, (d_x, d_y) = book(t)
        x, y = xy.x, xy.y
        if x == 0.0:
            raise SingularLocusError(f"x(t) = {x!r} at t={t!r}")
        u = x * y
        d = u * u - 1.0
        if abs(d) < SINGULAR_LOCUS_TOLERANCE:
            raise SingularLocusError(f"solution hit the singular locus at t={t!r}")
        q, p = x * u / d, d / x
        state = finite_state(EpidemicState, q, p, t)
        d_u = d_x * y + x * d_y
        d_d = 2.0 * u * d_u
        return Jet(state, ((d_x * u + x * d_u - q * d_d) / d,
                           (d_d - p * d_x) / x))

    return evaluate


def sis_solution_evaluator(
    sys: SisSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form solution of the time-dependent system as an evaluator
    of t returning the :class:`~booksis.canonical.Jet` (state, (q', p')),
    with a shared integral kernel: the chart image of the book closed
    form at z = 0.

    With Theta the cumulative integral of rho0 and
    I(t) = c2 + int_a^t exp(Theta(u)) b(u) du, that image is

        q(t) = I(t) exp(Theta(t)) / (I(t)^2 - c1^-2)
        p(t) = (c1 I(t)^2 - 1/c1) exp(-Theta(t))
    """
    return chart_image(BookIntegrals(sys.rho0, sys.b, sys.a, tol), constants)


def sis_exact_solution(
    sys: SisSystem,
    constants: IntegrationConstants,
    t: float,
    tol: float = DEFAULT_TOLERANCE,
) -> EpidemicState:
    """Closed-form solution at a single time (a fresh kernel)."""
    return sis_solution_evaluator(sys, constants, tol)(t).state


def sis_constant_jet(
    rho0: float, constants: IntegrationConstants, t: float
) -> Jet:
    """Closed form for constant infection rate, b = 1 and base point 0,
    as the :class:`~booksis.canonical.Jet` (state, (q', p')); no
    quadrature is involved (Theta(t) = rho0 * t):

        q(t) = rho0 (e^{rho0 t} + c2 rho0 - 1) e^{rho0 t}
               / ((e^{rho0 t} + c2 rho0 - 1)^2 - rho0^2/c1^2)
        p(t) = (c1 (e^{rho0 t} + c2 rho0 - 1)^2 / rho0^2 - 1/c1) e^{-rho0 t}
    """
    c1, c2 = constants.c1, constants.c2
    if rho0 == 0.0:
        raise ValueError("rho0 must be nonzero")
    if c1 == 0.0:
        raise ValueError("c1 must be nonzero")
    g = exp_checked(rho0 * t, "constant-rate SIS solution", t)
    if g == 0.0:
        raise ExpOverflowError(f"exp(-rho0*t) overflowed at t={t!r}")
    k = g + c2 * rho0 - 1.0
    denom = k * k - rho0 * rho0 / (c1 * c1)
    if abs(c1 * c1 * k * k - rho0 * rho0) < SINGULAR_LOCUS_TOLERANCE * max(1.0, rho0 * rho0):
        raise SingularLocusError(f"singular denominator at t={t!r}")
    num = rho0 * k * g
    p_num = c1 * k * k / (rho0 * rho0) - 1.0 / c1
    state = finite_state(EpidemicState, num / denom, p_num / g, t)
    # (e^{rho0 t})' = rho0 e^{rho0 t}, and k' is the same
    d_g = rho0 * g
    d_num = rho0 * (d_g * g + k * d_g)
    d_denom = 2.0 * k * d_g
    d_p_num = 2.0 * c1 * k * d_g / (rho0 * rho0)
    return Jet(state, ((d_num - num * d_denom / denom) / denom,
                       (d_p_num - p_num * d_g / g) / g))


def sis_constant_solution(
    rho0: float, constants: IntegrationConstants, t: float
) -> EpidemicState:
    """State of :func:`sis_constant_jet`."""
    return sis_constant_jet(rho0, constants, t).state


# --- moment form ---------------------------------------------------------------------

def moment_rhs(rho0: float, s: MomentState) -> tuple[float, float]:
    """Mean/variance dynamics of the stochastic expansion, in cleared
    (non-logarithmic) form:

        d<rho>/dt   = <rho> (rho0 - <rho>) - sigma^2
        d sigma^2/dt = 2 sigma^2 (rho0 - 2 <rho>)

    The cleared form stays regular at sigma^2 = 0 (where the density
    equation reduces to the deterministic logistic law); a zero variance
    is therefore accepted even though the logarithmic form is not
    defined there.  A non-positive mean raises :class:`MomentDomainError`.
    """
    if s.mean <= 0.0:
        raise MomentDomainError(f"mean must be positive, got {s.mean!r}")
    return (
        s.mean * (rho0 - s.mean) - s.variance,
        2.0 * s.variance * (rho0 - 2.0 * s.mean),
    )


def moments_from_state(s: EpidemicState) -> MomentState:
    """(q, p) -> (<rho>, sigma^2) = (q, 1/p^2)."""
    if s.p == 0.0:
        raise SingularLocusError("p = 0 has no moment image", state=s)
    return MomentState(s.q, 1.0 / (s.p * s.p))


def state_from_moments(m: MomentState) -> EpidemicState:
    """(<rho>, sigma^2) -> (q, p) = (<rho>, 1/sigma); needs sigma^2 > 0."""
    if m.variance <= 0.0:
        raise ValueError("variance must be positive to form p = 1/sigma")
    return EpidemicState(m.mean, 1.0 / math.sqrt(m.variance))

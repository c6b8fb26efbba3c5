"""Book-algebra Hamiltonian systems in canonical coordinates (x, y).

The two-dimensional algebra spanned by a dilation and a translation acts
on the plane with the standard symplectic form dx ^ dy through the
Hamiltonian pair h_A = x*y, h_B = -x and the vector fields
X_A = (x, -y), X_B = (0, 1).  A time-dependent combination with
coefficients b_a(t), b_b(t) gives the linear non-autonomous system

    dx/dt = b_a(t) * x
    dy/dt = -b_a(t) * y + b_b(t)

solved in closed form by quadratures:

    x(t) = c1 * exp(Theta(t))
    y(t) = (c2 + int_a^t exp(Theta(u)) b_b(u) du) * exp(-Theta(t))

with Theta(t) the cumulative integral of b_a from the base point ``a``.

Every closed form in the package is a few lines of algebra on one
integral kernel, :class:`BookIntegrals`: Theta = int b_a, Gamma =
int b_a / (1 - z c1 e^Theta) and I = int e^Gamma b_b from ``a``, plus the
deformed forms' validity window 1 - z c1 e^Theta > 0.  The classical
forms are the case z c1 = 0, where Gamma is Theta.

Each closed-form evaluator returns a :class:`Jet`: the state together
with its exact time derivative.  The derivative is the chain rule
applied to the evaluator's own intermediates, with

    Theta' = b_a,   Gamma' = b_a / L,   I' = e^Gamma b_b,
    L = 1 - z c1 e^Theta

(so (e^Theta)' = e^Theta b_a and (e^Gamma)' = e^Gamma b_a / L), and for
the deformed coordinate x = -ln(L)/z, x' = c1 e^Theta b_a / L.  The
formula is differentiated, never the equation of motion: for
y = (c2 + I)/G the rate is y' = (I' - (c2 + I) G'/G)/G, not
b_b - b_a y, so comparing the rate with the right-hand side at the
state checks the closed-form algebra to round-off.

Finite-difference Poisson brackets and vector-field commutators are
provided to verify the algebra's structure relations numerically; they
are generic over any state-function or field evaluators, so the deformed
layer reuses them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .errors import ExpOverflowError, NonFiniteSampleError
from .quadrature import DEFAULT_TOLERANCE, cumulative
from .timefn import CoefficientFunction

__all__ = [
    "CanonicalState",
    "BookSystem",
    "BookIntegrals",
    "IntegrationConstants",
    "Jet",
    "hamiltonian_a",
    "hamiltonian_b",
    "field_a",
    "field_b",
    "hamiltonian",
    "rhs",
    "exact_solution",
    "solution_evaluator",
    "fit_constants",
    "finite_state",
    "exp_checked",
    "poisson_bracket",
    "vf_commutator",
    "default_fd_step",
]

Vector = tuple[float, float]
StateFunction = Callable[["CanonicalState"], float]
VectorField = Callable[["CanonicalState"], Vector]


@dataclass(frozen=True)
class CanonicalState:
    """Point (x, y) on the plane carrying the symplectic form dx ^ dy."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite canonical state ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class BookSystem:
    """Coefficients b_a(t) (dilation) and b_b(t) (translation) plus the
    quadrature base point ``a``."""

    b_a: CoefficientFunction
    b_b: CoefficientFunction
    a: float = 0.0

    def __post_init__(self):
        # the coefficients must be finite at the base point
        self.b_a(self.a)
        self.b_b(self.a)


@dataclass(frozen=True)
class IntegrationConstants:
    """Constants of integration; for classical systems c1 = x(a) and
    c2 = y(a)."""

    c1: float
    c2: float


class Jet(NamedTuple):
    """First-order jet of a closed form at one time: its state object and
    ``rate``, the time derivatives of the state's two fields in order."""

    state: Any
    rate: tuple[float, float]


# --- algebra generators -----------------------------------------------------

def hamiltonian_a(s: CanonicalState) -> float:
    return s.x * s.y


def hamiltonian_b(s: CanonicalState) -> float:
    return -s.x


def field_a(s: CanonicalState) -> Vector:
    return (s.x, -s.y)


def field_b(s: CanonicalState) -> Vector:
    return (0.0, 1.0)


# --- time-dependent system ----------------------------------------------------

def hamiltonian(sys: BookSystem, t: float, s: CanonicalState) -> float:
    """b_a(t)*x*y - b_b(t)*x"""
    return sys.b_a(t) * s.x * s.y - sys.b_b(t) * s.x


def rhs(sys: BookSystem, t: float, s: CanonicalState) -> Vector:
    """(dx/dt, dy/dt) = (b_a(t)*x, -b_a(t)*y + b_b(t))"""
    ba = sys.b_a(t)
    return (ba * s.x, -ba * s.y + sys.b_b(t))


def finite_state(state_type, first: float, second: float, t: float):
    """``state_type(first, second)`` for a closed-form value at time ``t``;
    a non-finite component raises :class:`NonFiniteSampleError`."""
    if not (math.isfinite(first) and math.isfinite(second)):
        raise NonFiniteSampleError(
            f"closed-form state ({first!r}, {second!r}) is not finite at t={t!r}"
        )
    return state_type(first, second)


def exp_checked(arg: float, context: str, t: float | None = None) -> float:
    """``math.exp(arg)``; an overflow raises :class:`ExpOverflowError`
    naming ``context`` and, when given, the time ``t``."""
    try:
        return math.exp(arg)
    except OverflowError as exc:
        where = "" if t is None else f" at t={t!r}"
        raise ExpOverflowError(f"{context}: exp({arg!r}) overflowed{where}") from exc


# sign-scan step and bisection resolution of the validity-window search
_SCAN_STEP = 0.02
_BISECTION_TOL = 1e-10


class BookIntegrals:
    """Theta, Gamma and I as checkpoint-cached cumulative integrals from
    ``a``, plus the validity window for ``z_c1`` = z * c1.

    At z c1 == 0 the Gamma integrand equals b_a bit for bit, so ``gamma``
    is ``theta`` and ``tol`` splits 50/50 over Theta and I; otherwise it
    splits 50/25/25 over Theta, Gamma and I.  The order in which a closed
    form calls them decides where checkpoints land, hence the last bits.

    The window [a, t_max) is found by a sign scan in steps of 0.02 from
    ``a`` and bisection of the first sign change to 1e-10, extended lazily
    by :meth:`window_end` on the shared Theta cache; for z c1 <= 0 it never
    ends.  Not safe for unsynchronized shared use (checkpoints mutate).

    ``b_a`` and ``b_b`` are kept for the closed forms' jets: Theta' = b_a,
    Gamma' = b_a / L and I' = e^Gamma b_b.
    """

    def __init__(self, b_a: CoefficientFunction, b_b: CoefficientFunction,
                 a: float, tol: float = DEFAULT_TOLERANCE, z_c1: float = 0.0):
        self.b_a = b_a
        self.b_b = b_b
        self.z_c1 = z_c1
        self.theta = theta = cumulative(b_a, a, 0.5 * tol)

        # a closure, not a method: the integrands below must not reference
        # self, or the caches would live in a cycle until the next GC pass
        def log_argument(u: float) -> float:
            """1 - z c1 e^{Theta(u)}, positive inside the validity window."""
            return 1.0 - z_c1 * exp_checked(theta(u), "validity window", u)

        self.log_argument = log_argument
        if z_c1 == 0.0:
            self.gamma = gamma = theta
            forced_tol = 0.5 * tol
        else:
            self.gamma = gamma = cumulative(
                lambda u: b_a(u) / log_argument(u), a, 0.25 * tol
            )
            forced_tol = 0.25 * tol
        self.forced = cumulative(
            lambda u: exp_checked(gamma(u), "forced integral", u) * b_b(u),
            a,
            forced_tol,
        )
        self.t_max = math.inf
        self._scanned_to = a
        if z_c1 > 0.0 and log_argument(a) <= 0.0:
            self.t_max = a  # already outside at the base point

    def window_end(self, t: float) -> float:
        """Extend the sign scan to ``t`` and return t_max, which stays
        inf while no window edge lies in [a, t]; a non-finite ``t`` raises
        ``ValueError``, as the scan to it would never end."""
        if not math.isfinite(t):
            raise ValueError(f"evaluation time must be finite, got {t!r}")
        if self.z_c1 <= 0.0 or not math.isinf(self.t_max):
            return self.t_max
        while self._scanned_to < t and math.isinf(self.t_max):
            nxt = min(self._scanned_to + _SCAN_STEP, t)
            if self.log_argument(nxt) <= 0.0:
                self.t_max = self._bisect(self._scanned_to, nxt)
            self._scanned_to = nxt
        return self.t_max

    def _bisect(self, lo: float, hi: float) -> float:
        # log_argument(lo) > 0 >= log_argument(hi); first zero to _BISECTION_TOL
        while hi - lo > _BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if self.log_argument(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def solution_evaluator(
    sys: BookSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form solution as a reusable evaluator of t returning the
    :class:`Jet` (state, (x', y')).

    The underlying cumulative integrals share their checkpoint caches
    across calls, so evaluating a whole time grid costs one sweep.
    """
    c1, c2 = constants.c1, constants.c2
    k = BookIntegrals(sys.b_a, sys.b_b, sys.a, tol)

    def evaluate(t: float) -> Jet:
        th = k.theta(t)
        growth = exp_checked(th, "book solution", t)
        if growth == 0.0:
            raise ExpOverflowError(
                f"exp(-Theta(t)) overflowed at t={t!r} (Theta={th!r})"
            )
        i_t = c2 + k.forced(t)
        state = finite_state(CanonicalState, c1 * growth, i_t / growth, t)
        # Gamma is Theta here: (e^Theta)' = e^Theta b_a, I' = e^Theta b_b
        d_growth = growth * k.b_a(t)
        d_forced = growth * k.b_b(t)
        return Jet(state, (c1 * d_growth, (d_forced - i_t * d_growth / growth) / growth))

    return evaluate


def exact_solution(
    sys: BookSystem,
    constants: IntegrationConstants,
    t: float,
    tol: float = DEFAULT_TOLERANCE,
) -> CanonicalState:
    """Closed-form solution at a single time (fresh quadrature caches)."""
    return solution_evaluator(sys, constants, tol)(t).state


def fit_constants(sys: BookSystem, t0: float, s0: CanonicalState) -> IntegrationConstants:
    """Constants reproducing ``s0`` at ``t0``; requires t0 == sys.a, where
    the solution formulas read off (c1, c2) = (x0, y0) directly."""
    if t0 != sys.a:
        raise ValueError(
            f"initial time {t0!r} must equal the system base point {sys.a!r}"
        )
    return IntegrationConstants(s0.x, s0.y)


# --- finite-difference structure checks ------------------------------------

def default_fd_step(s: CanonicalState) -> float:
    """Central-difference step balancing truncation and round-off."""
    return 1e-5 * max(1.0, abs(s.x), abs(s.y))


def _sample(f: StateFunction, x: float, y: float) -> float:
    v = f(CanonicalState(x, y))
    if not math.isfinite(v):
        raise NonFiniteSampleError(f"non-finite sample at ({x!r}, {y!r})")
    return v


def poisson_bracket(
    f: StateFunction,
    g: StateFunction,
    s: CanonicalState,
    h: float | None = None,
) -> float:
    """{f, g} = df/dx dg/dy - df/dy dg/dx via central differences."""
    if h is None:
        h = default_fd_step(s)
    if h <= 0.0:
        raise ValueError("h must be positive")
    x, y = s.x, s.y
    fx = (_sample(f, x + h, y) - _sample(f, x - h, y)) / (2.0 * h)
    fy = (_sample(f, x, y + h) - _sample(f, x, y - h)) / (2.0 * h)
    gx = (_sample(g, x + h, y) - _sample(g, x - h, y)) / (2.0 * h)
    gy = (_sample(g, x, y + h) - _sample(g, x, y - h)) / (2.0 * h)
    return fx * gy - fy * gx


def _field_sample(field: VectorField, x: float, y: float) -> Vector:
    v = field(CanonicalState(x, y))
    if not (math.isfinite(v[0]) and math.isfinite(v[1])):
        raise NonFiniteSampleError(f"non-finite field sample at ({x!r}, {y!r})")
    return v


def _fd_jacobian(field: VectorField, s: CanonicalState, h: float):
    x, y = s.x, s.y
    fxp = _field_sample(field, x + h, y)
    fxm = _field_sample(field, x - h, y)
    fyp = _field_sample(field, x, y + h)
    fym = _field_sample(field, x, y - h)
    return (
        ((fxp[0] - fxm[0]) / (2.0 * h), (fyp[0] - fym[0]) / (2.0 * h)),
        ((fxp[1] - fxm[1]) / (2.0 * h), (fyp[1] - fym[1]) / (2.0 * h)),
    )


def vf_commutator(
    field1: VectorField,
    field2: VectorField,
    s: CanonicalState,
    h: float | None = None,
) -> Vector:
    """Lie bracket [field1, field2](s) = J_2(s) field1(s) - J_1(s) field2(s)
    with finite-difference Jacobians."""
    if h is None:
        h = default_fd_step(s)
    if h <= 0.0:
        raise ValueError("h must be positive")
    a = _field_sample(field1, s.x, s.y)
    b = _field_sample(field2, s.x, s.y)
    ja = _fd_jacobian(field1, s, h)
    jb = _fd_jacobian(field2, s, h)
    return (
        jb[0][0] * a[0] + jb[0][1] * a[1] - (ja[0][0] * b[0] + ja[0][1] * b[1]),
        jb[1][0] * a[0] + jb[1][1] * a[1] - (ja[1][0] * b[0] + ja[1][1] * b[1]),
    )

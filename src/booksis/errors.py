"""Exception hierarchy shared across the package.

Data-driven failures (bad expression text, domain exits, solver
breakdowns) raise typed subclasses of :class:`BooksisError` so callers --
in particular the CLI -- can map them to exit codes.  Plain programmer
errors (bad argument values, violated call contracts) raise the usual
``ValueError``/``TypeError``.
"""

from __future__ import annotations


class BooksisError(Exception):
    """Base class for all typed failures raised by this package."""


# --- expression parsing / evaluation ------------------------------------

class ExpressionError(BooksisError):
    """Base class for coefficient-expression problems."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; ``offset`` is the byte offset of the
    offending token."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExpressionError):
    """Identifier outside the whitelist (``t`` plus the function names)."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


class ArityMismatchError(ExpressionError):
    """Function called with the wrong number of arguments."""

    def __init__(self, name: str, got: int, offset: int):
        super().__init__(
            f"function '{name}' takes 1 argument, got {got} (offset {offset})"
        )
        self.name = name
        self.got = got
        self.offset = offset


class EvaluationDomainError(BooksisError):
    """Coefficient evaluation left its mathematical domain (log of a
    non-positive value, division by zero, overflow, sin or cos of an
    infinite argument, a non-finite value)."""

    def __init__(self, message: str, t: float, subexpression: str):
        super().__init__(f"{message} at t={t!r} in '{subexpression}'")
        self.t = t
        self.subexpression = subexpression


# --- quadrature ----------------------------------------------------------

class QuadratureError(BooksisError):
    """Base class for definite-integral failures."""


class QuadratureConvergenceError(QuadratureError):
    """Panel budget exhausted before the error estimate met the tolerance."""

    def __init__(self, message: str, worst_interval: tuple[float, float]):
        super().__init__(f"{message}; worst subinterval {worst_interval}")
        self.worst_interval = worst_interval


class NonFiniteIntegrandError(QuadratureError):
    """Integrand returned a non-finite sample."""

    def __init__(self, location: float):
        super().__init__(f"integrand is not finite at {location!r}")
        self.location = location


# --- chart / solution domain ----------------------------------------------

class SingularLocusError(BooksisError):
    """State (or solution) hit the singular locus of the epidemic chart,
    where q^2 p^2 = 1 (equivalently x^2 y^2 = 1) or a chart denominator
    vanishes."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class MomentDomainError(BooksisError):
    """Moment state with a non-positive mean, outside the domain of the
    moment equations."""


class ValidityWindowError(BooksisError):
    """Requested time lies at or beyond the deformed solution's validity
    window (the logarithm argument 1 - z*c1*e^Theta reached zero)."""

    def __init__(self, t: float, t_max: float):
        super().__init__(
            f"t={t!r} is outside the validity window [a, {t_max!r})"
        )
        self.t = t
        self.t_max = t_max


class ExpOverflowError(BooksisError):
    """Exponential factor e^(z*x) (or e^Theta) overflowed, or underflowed
    to zero where the solution divides by it."""


class NonFiniteSampleError(BooksisError):
    """Finite-difference stencil or closed-form solution hit a non-finite
    value."""


# --- ODE integration -------------------------------------------------------

class OdeIntegrationError(BooksisError):
    """Base class for numerical ODE-integrator failures.  ``last_time``
    is the last time with a valid accepted state.  ``solution`` is None,
    or set by ``oracle.integrate_ode`` to the samples placed before the
    failure."""

    solution = None

    def __init__(self, message: str, last_time: float):
        super().__init__(f"{message} (last good time {last_time!r})")
        self.last_time = last_time


class StepSizeUnderflowError(OdeIntegrationError):
    """Adaptive step size shrank below the representable minimum,
    typically when approaching a singularity or validity-window edge."""


class StepLimitError(OdeIntegrationError):
    """``max_steps`` exceeded before reaching the end time."""


class NonFiniteRhsError(OdeIntegrationError):
    """Right-hand side produced a non-finite derivative and the method
    cannot recover by step rejection."""


# --- scenario files ---------------------------------------------------------

class ScenarioError(BooksisError):
    """Scenario file failed to parse or validate."""

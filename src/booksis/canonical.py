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

Every quadrature closed form in the package is one formula on one
integral kernel, :class:`BookIntegrals`: Theta = int b_a and
I = int e^Gamma b_b from ``a``, plus the validity window
L = 1 - z c1 e^Theta > 0.  The formula is the book solution for a
deformation z (see :mod:`booksis.deformed`),

    x(t) = -ln(1 - z c1 e^Theta(t))/z
    y(t) = (c2 + I(t)) e^{-Gamma(t)}

where Gamma = int b_a / L is Theta - ln(L / L(a)), as (Theta - ln L)' =
b_a + z c1 e^Theta b_a / L = b_a / L.  At z c1 = 0, where Gamma is Theta,
it is the solution above; the SIS closed forms are its image under the
chart of :mod:`booksis.sis`.  The solutions are initial-value solutions
fitted at ``a``, so the kernel runs forwards only: a time before ``a``
raises ``ValueError``.  The kernel holds the two integrals as
piecewise-Chebyshev interpolants on shared pieces (see
:mod:`booksis.quadrature`): on each piece Theta's values at the nodes
give Gamma's and so I's integrand, so one sample of each coefficient at
the piece's nodes replaces the nested adaptive quadratures.  This module
builds and reads the pieces on floats; numpy stays in
:mod:`booksis.quadrature`, for the two matrix products per piece
(samples to coefficients, coefficients to node values) whose row sums
set the bits.

Each closed-form evaluator returns a :class:`Jet`: the state together
with its exact time derivative.  The derivative is the chain rule
applied to the evaluator's own intermediates, with

    Theta' = b_a,   Gamma' = b_a / L,   I' = e^Gamma b_b,
    L = 1 - z c1 e^Theta

(so (e^Theta)' = e^Theta b_a), and for the deformed coordinate
x = -ln(L)/z, x' = c1 e^Theta b_a / L.  For y = (c2 + I) e^-Gamma the
rate is y' = b_b - y b_a / L, formed from quotients so that no product
with e^Gamma overflows where y is finite.  The formula is
differentiated, never the equation of motion (the rate has 1/L where the
right-hand side has e^{z x}), so comparing the rate with the right-hand
side at the state checks the closed-form algebra to round-off.

Finite-difference Poisson brackets and vector-field commutators are
provided to verify the algebra's structure relations numerically; they
are generic over any state-function or field evaluators, so the deformed
layer reuses them unchanged.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .errors import (
    BooksisError,
    ExpOverflowError,
    NonFiniteIntegrandError,
    NonFiniteSampleError,
    QuadratureConvergenceError,
    ValidityWindowError,
)
from .quadrature import (
    DEFAULT_TOLERANCE,
    chebyshev_at_nodes,
    chebyshev_fit,
    chebyshev_nodes,
    check_tolerance,
    clenshaw,
)
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
    "book_field",
    "exact_solution",
    "solution_evaluator",
    "book_closed_form",
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
    return book_field(sys.b_a, sys.b_b, t, s.x, s.y)


def book_field(b_a: Callable[[float], float], b_b: Callable[[float], float],
               t: float, x: float, y: float) -> Vector:
    """:func:`rhs` on plain floats, with the coefficients as callables of t."""
    ba = b_a(t)
    return (ba * x, -ba * y + b_b(t))


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


_BISECTION_TOL = 1e-10  # resolution of the window edge
_LN2 = math.log(2.0)
# pieces end on a + k * _CHUNK, or on a later asked time for z c1 <= 0, or
# halve a chunk
_CHUNK = 2.0
# pieces one extension (or one completion's splits) may build before it
# gives up with QuadratureConvergenceError
_PIECE_BUDGET = 100_000
# no piece is split below this width relative to its time: next to a
# pole the rounding of the nodes makes the samples noisy, narrow pieces
# pass the convergence test by chance, and the kernel would crawl towards
# the pole in tiny steps instead of failing
_MIN_WIDTH = 1e-10

# integrals by index
_THETA, _FORCED = range(2)


def _samples(f: Callable[[float], float], nodes: list[float]) -> list[float]:
    """``f`` at every node, one call each.  A :class:`CoefficientFunction`
    checks its own values; a plain callable's are checked for finiteness
    here."""
    values = [f(t) for t in nodes]
    return values if isinstance(f, CoefficientFunction) else _finite(values, nodes)


def _finite(values: list[float], nodes: list[float]) -> list[float]:
    """``values``; a non-finite one raises :class:`NonFiniteIntegrandError`
    at its node."""
    if not all(map(math.isfinite, values)):
        raise NonFiniteIntegrandError(
            next(t for v, t in zip(values, nodes) if not math.isfinite(v)))
    return values


def _exp_nodes(values: list[float], nodes: list[float], context: str) -> list[float]:
    """e^values by ``math.exp``, whose bits do not depend on the machine's
    vector units as numpy's do; an overflow raises ExpOverflowError naming
    the first node where it happens."""
    try:
        return [math.exp(v) for v in values]
    except OverflowError:
        return [exp_checked(v, context, t) for v, t in zip(values, nodes)]


class _Piece:
    """One Chebyshev piece: its nodes, Theta there and, per integral, the
    :func:`~booksis.quadrature.chebyshev_fit` of its antiderivative (None
    until built)."""

    __slots__ = ("nodes", "theta", "fits")

    def __init__(self, nodes: list[float], theta: list[float], theta_fit):
        self.nodes = nodes
        self.theta = theta
        self.fits = [theta_fit, None]


class BookIntegrals:
    """Theta and I from ``a`` as piecewise-Chebyshev interpolants, plus
    the validity window for ``z_c1`` = z * c1.  The kernel holds only
    these two integrals, and ``tol`` splits 50/50 over them for every
    z c1.  Gamma is Theta - ln L + ln L(a) with L = 1 - z c1 e^Theta (see
    the module docstring), Theta at z c1 == 0; ln L is formed from
    s = Theta + ln|z c1| as ln(1 - e^s) or ln(1 + e^s), so e^Theta never
    overflows (Maechler, "Accurately computing log(1 - exp(-|a|))", 2012).

    The pieces are built lazily, ending as set out below.  On each
    piece the integrals share the Chebyshev nodes: b_a sampled there
    gives Theta's series, and Theta's values there give Gamma and so I's
    integrand e^Gamma b_b, so no integral is nested in another.  A piece
    is split when a series does not converge (see
    :mod:`booksis.quadrature`): the truncation error of each piece's
    integral stays below its half of ``tol``, or at round-off.  It is
    split too when its samples of b_a (for Theta) or b_b (for I) miss a
    feature between them: where the coefficient's interval enclosure
    (:meth:`~booksis.timefn.CoefficientFunction.enclose`) leaves the hull
    of the samples by more than a quarter of the largest one (see
    :func:`_resolved`).  That test, not the density of the nodes, keeps a
    narrow lobe from passing unseen, so a piece is as wide as its series
    converges: the grid is 2 wide.  No piece is split below 1e-10 of its
    time.  At the ends of the pieces the values are cumulative sums of the
    pieces' integrals; inside a piece they are Clenshaw sums.  The pieces
    grow forwards from ``a``: a time before it, or one that is not finite,
    raises ``ValueError``.

    For z c1 > 0 a piece ends on the next grid point a + 2k, so the values
    depend only on t.  For z c1 <= 0 it ends on the later of that grid
    point and the time asked for: a cold query at t = 3, the classical
    forms' common case, is one piece, and a sweep builds one piece per
    chunk and reads the times inside it by Clenshaw sums.  Either piece is
    halved until Theta and I converge.  One rule handles a failed
    piece: where b_a cannot be sampled, or I's integrand e^Gamma b_b
    cannot be formed past the time asked for, the piece ends earlier --
    halved on the grid, cut at that time otherwise -- and a piece that
    cannot end earlier raises the failure.  A failure of I's integrand at
    or before the time asked for raises at once, as I is not defined there.

    The window [a, t_max) ends where Theta first reaches the edge level
    ln(1/(z c1)), where L = 0: each Theta piece is tested, as
    Theta + ln(z c1) >= 0, at its nodes and its end as it is built, and
    the first edge shown is bisected to 1e-10.  Building stops once a
    piece reaches the time asked for or shows the edge, which a rebuilt
    piece moves only to show it more than 1e-10 earlier; a value at or
    past t_max raises :class:`ValidityWindowError` naming it; one within
    the bisection's 1e-10 below t_max may raise it naming t.  For z c1 <= 0
    the window never ends; for z c1 >= 1 it is empty.  Not safe for
    unsynchronized shared use.

    ``cli.Model`` builds one kernel per scenario for its window and closed
    form.  ``b_a`` and ``b_b`` are kept for the closed forms' jets:
    Theta' = b_a, Gamma' = b_a / L and I' = e^Gamma b_b.
    """

    def __init__(self, b_a: CoefficientFunction, b_b: CoefficientFunction,
                 a: float, tol: float = DEFAULT_TOLERANCE, z_c1: float = 0.0):
        check_tolerance(tol)
        self.b_a = b_a
        self.b_b = b_b
        self.a = a
        self.z_c1 = z_c1
        self._tol = 0.5 * tol
        # piece j lies between _ends[j] and _ends[j + 1]; _values[i] holds
        # integral i at the ends, each the previous one plus a piece's
        # integral.  Theta's run to the last end; I's to _ends[_done], as
        # the first _done pieces carry both.
        self._ends = [a]
        self._pieces: list[_Piece] = []
        self._values = [[0.0], [0.0]]
        self._done = 0
        # Theta(a) == 0, so L(a) <= 0, and ln L(a) undefined, exactly when
        # z c1 >= 1
        self.t_max = a if z_c1 >= 1.0 else math.inf
        self._log_zc1 = math.log(abs(z_c1)) if z_c1 != 0.0 else -math.inf
        self._log_l0 = self._log_l(0.0) if z_c1 < 1.0 else math.nan

    # -- values -------------------------------------------------------------

    def integrals(self, t: float) -> tuple[float, float, float]:
        """(Theta(t), Gamma(t), I(t)), checked against the window once and
        read off one piece."""
        if t >= self.window_end(t):
            raise ValidityWindowError(t, self.t_max)
        if t > self._ends[self._done]:
            self._complete(t)
        theta, forced = self._read(t, (_THETA, _FORCED))
        if self._past_edge(theta):  # t lies within the bisection's 1e-10 of t_max
            raise ValidityWindowError(t, t)
        return theta, self._gamma(theta), forced

    def theta(self, t: float) -> float:
        """Theta(t) = int_a^t b_a."""
        return self.integrals(t)[0]

    def gamma(self, t: float) -> float:
        """Gamma(t) = int_a^t b_a / L = Theta(t) - ln L(t) + ln L(a)."""
        return self.integrals(t)[1]

    def forced(self, t: float) -> float:
        """I(t) = int_a^t e^Gamma b_b."""
        return self.integrals(t)[2]

    def _past_edge(self, theta: float) -> bool:
        """Whether L = 1 - z c1 e^Theta <= 0: Theta + ln(z c1) >= 0."""
        return self.z_c1 > 0.0 and theta + self._log_zc1 >= 0.0

    def _log_l(self, theta: float) -> float:
        """ln L from s = Theta + ln|z c1|, for Theta inside the window."""
        s = theta + self._log_zc1
        if self.z_c1 > 0.0:  # ln(1 - e^s), s < 0
            return math.log(-math.expm1(s)) if s > -_LN2 else math.log1p(-math.exp(s))
        return s + math.log1p(math.exp(-s)) if s > 0.0 else math.log1p(math.exp(s))

    def _gamma(self, theta: float) -> float:
        """Gamma = Theta - ln L + ln L(a), for Theta inside the window."""
        if self.z_c1 == 0.0:
            return theta
        return theta - self._log_l(theta) + self._log_l0

    def _read(self, t: float, which: tuple[int, ...]) -> list[float]:
        """The integrals ``which`` at ``t``, which a piece that carries them
        covers: the cumulative sums at an end, else the start values plus
        the Clenshaw sums of the piece's antiderivatives."""
        ends = self._ends
        j = bisect.bisect_left(ends, t)
        if ends[j] == t:
            return [self._values[i][j] for i in which]
        lo, hi = ends[j - 1], ends[j]
        x = (2.0 * t - lo - hi) / (hi - lo)
        fits = self._pieces[j - 1].fits
        return [self._values[i][j - 1] + clenshaw(fits[i][0], x) for i in which]

    # -- pieces ---------------------------------------------------------------

    def _extend(self, t: float, hi: float | None = None) -> None:
        """Theta pieces from the last end until one reaches ``t`` or shows
        the window edge; the first ends on ``hi`` if given, or halves it."""
        built, error = 0, None
        while self._ends[-1] < min(t, self.t_max):
            lo = self._ends[-1]
            if hi is None:
                hi = self._grid_end() if self.z_c1 > 0.0 else max(t, self._grid_end())
            built += 1
            if built > _PIECE_BUDGET:
                raise QuadratureConvergenceError(
                    f"Theta needs more than {_PIECE_BUDGET} pieces", (lo, hi))
            nodes = chebyshev_nodes(lo, hi)
            try:
                b_a = _samples(self.b_a, nodes)
            except BooksisError as exc:
                error = error or exc
                hi = self._retreat(lo, hi, t, "Theta", error)
                continue
            fit = chebyshev_fit(b_a, 0.5 * (hi - lo), self._tol)
            if fit is None or not _resolved(self.b_a, b_a, nodes, lo, hi, self._tol):
                hi = _midpoint(lo, hi, "Theta", error)
                continue
            theta = self._values[_THETA]
            start = theta[-1]
            self._pieces.append(_Piece(
                nodes, [start + v for v in chebyshev_at_nodes(fit[0])], fit))
            self._ends.append(hi)
            theta.append(start + fit[1])
            if self.z_c1 > 0.0:
                self._find_edge(lo, hi)
            hi = error = None

    def _grid_end(self) -> float:
        """The first grid point above the last end lo, else the next float."""
        lo, a = self._ends[-1], self.a
        k = (lo - a) // _CHUNK  # one low where lo - a rounded down
        return next(end for end in (a + (k + 1.0) * _CHUNK, a + (k + 2.0) * _CHUNK,
                                    math.nextafter(lo, math.inf)) if end > lo)

    def _complete(self, t: float) -> None:
        """I on every piece up to ``t``.  A piece on which it does not
        converge or that holds the window edge is rebuilt as its first
        half, and one on which I's integrand fails past ``t`` where
        :meth:`_retreat` ends it.  Later pieces are rebuilt as needed."""
        splits = 0
        while t > self._ends[self._done]:
            if self._done == len(self._pieces):
                self._extend(t)
            if t >= self.t_max:
                raise ValidityWindowError(t, self.t_max)
            j = self._done
            cut = self._fit_rest(j, t)
            if cut is None:
                continue
            splits += 1
            if splits > _PIECE_BUDGET:
                raise QuadratureConvergenceError(
                    f"I needs more than {_PIECE_BUDGET} splits",
                    (self._ends[j], self._ends[j + 1]))
            del self._pieces[j:], self._ends[j + 1:], self._values[_THETA][j + 1:]
            self._extend(cut, cut)

    def _fit_rest(self, j: int, t: float) -> float | None:
        """Fit I on piece j, whose predecessors carry it, for a value at
        ``t``.  Returns None when done, else the time at which to cut the
        piece."""
        piece = self._pieces[j]
        nodes = piece.nodes
        lo, hi = self._ends[j], self._ends[j + 1]
        if self._past_edge(max(piece.theta)):  # the piece holds the window edge
            return _midpoint(lo, hi, "I", ValidityWindowError(t, t))
        exponent = (piece.theta if self.z_c1 == 0.0
                    else [self._gamma(v) for v in piece.theta])
        # a failure at or before t leaves I(t) undefined
        past = bisect.bisect_right(nodes, t)
        integrand, b_b = self._forced_integrand(exponent[:past], nodes[:past])
        if past < len(nodes):
            try:
                rest = self._forced_integrand(exponent[past:], nodes[past:])
            except BooksisError as exc:
                return self._retreat(lo, hi, t, "I", exc)
            integrand += rest[0]
            b_b += rest[1]
        fit = chebyshev_fit(integrand, 0.5 * (hi - lo), self._tol)
        if fit is None or not _resolved(self.b_b, b_b, nodes, lo, hi, self._tol):
            return _midpoint(lo, hi, "I")
        piece.fits[_FORCED] = fit
        forced = self._values[_FORCED]
        forced.append(forced[j] + fit[1])
        self._done += 1
        return None

    def _forced_integrand(self, exponent: list[float],
                          nodes: list[float]) -> tuple[list[float], list[float]]:
        """I's integrand e^Gamma b_b at ``nodes``, checked finite, and the
        samples of b_b."""
        growth = _exp_nodes(exponent, nodes, "forced integral")
        b_b = _samples(self.b_b, nodes)
        return _finite([g * b for g, b in zip(growth, b_b)], nodes), b_b

    def _retreat(self, lo: float, hi: float, t: float, integral: str,
                 error: BooksisError) -> float:
        """Where the piece [lo, hi] on which ``integral`` failed with
        ``error`` ends instead: halved on the grid, else cut at ``t``, the
        time asked for.  A piece that cannot end earlier raises ``error``."""
        if self.z_c1 > 0.0:
            return _midpoint(lo, hi, integral, error)
        if hi <= t:
            raise error
        return t

    # -- validity window ----------------------------------------------------------

    def window_end(self, t: float) -> float:
        """Build Theta until a piece reaches ``t`` or shows an edge and
        return t_max, or inf while no edge lies in [a, t]; a non-finite
        ``t`` or one before ``a`` raises ``ValueError``."""
        if not (math.isfinite(t) and t >= self.a):
            raise ValueError(
                f"evaluation time must be finite and not before the base point "
                f"{self.a!r}, got {t!r}")
        if self.z_c1 > 0.0:
            self._extend(t)
        return self.t_max if self.t_max <= t else math.inf

    def _find_edge(self, lo: float, hi: float) -> None:
        """Where a node of the newest piece, or hi, shows the edge more than
        1e-10 before t_max, bisect the new t_max."""
        piece = self._pieces[-1]
        points = [lo, *piece.nodes, hi]
        for i, v in enumerate([*piece.theta, self._values[_THETA][-1]]):
            if self._past_edge(v):
                if points[i + 1] < self.t_max - _BISECTION_TOL:
                    self.t_max = self._bisect(points[i], points[i + 1])
                return

    def _bisect(self, lo: float, hi: float) -> float:
        # Theta + ln(z c1) is < 0 at lo and >= 0 at hi; first zero to _BISECTION_TOL
        while hi - lo > _BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if self._past_edge(self._read(mid, (_THETA,))[0]):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def _resolved(f, samples: list[float], nodes: list[float], lo: float, hi: float,
              tol: float) -> bool:
    """Whether the samples of ``f`` at the Chebyshev ``nodes`` of the piece
    [lo, hi] show all of ``f`` there: its interval enclosure stays within
    a slack of the hull of the samples.  The slack is a quarter of the
    largest sample, or the height tol / (hi - lo) that moves the piece's
    integral by ``tol``, if larger.  The whole piece is tested first; only
    where that fails are its halves tested, down to the single gaps
    between neighbouring nodes, each against the hull of its own samples,
    and each end gap against the sample at its node.  A gap that fails,
    or has no enclosure, fails the piece, except an end gap without one:
    there ``f`` leaves its domain at the piece's end, which the series'
    convergence answers for, as at a time asked for on a domain end.  A
    coefficient that is not a :class:`CoefficientFunction` has no
    enclosure to test, and passes."""
    if not isinstance(f, CoefficientFunction):
        return True
    box = f.enclose(lo, hi)
    if box is not None:
        # the hull and slack of the first and last samples lie inside the
        # full ones, so a box that passes them passes; most pieces' boxes
        # do, and need no pass over the samples
        first, last = samples[0], samples[-1]
        low, high = (first, last) if first <= last else (last, first)
        slack = max(0.25 * max(high, -low), tol / (hi - lo))
        if low - slack <= box[0] and box[1] <= high + slack:
            return True
    low, high = min(samples), max(samples)
    slack = max(0.25 * max(high, -low), tol / (hi - lo))
    if box is not None and low - slack <= box[0] and box[1] <= high + slack:
        return True
    points = [lo, *nodes, hi]
    values = [samples[0], *samples, samples[-1]]
    return _gaps_resolved(f, points, values, 0, len(points) - 1, slack)


def _gaps_resolved(f: CoefficientFunction, points: list[float], values: list[float],
                   i: int, j: int, slack: float) -> bool:
    """Whether both halves of the gaps between points i and j pass
    :func:`_resolved`'s test, each halved again where it fails."""
    m = (i + j) // 2
    for first, last in ((i, m), (m, j)):
        box = f.enclose(points[first], points[last])
        if box is None:
            if last - first == 1 and (first == 0 or last == len(points) - 1):
                continue
        else:
            window = values[first:last + 1]
            if min(window) - slack <= box[0] and box[1] <= max(window) + slack:
                continue
        if last - first == 1 or not _gaps_resolved(f, points, values, first, last, slack):
            return False
    return True


def _midpoint(lo: float, hi: float, integral: str, error=None) -> float:
    """Where to split [lo, hi], on which ``integral`` did not converge or a
    sample raised ``error``; a piece too narrow to split raises (``error``)."""
    if hi - lo < _MIN_WIDTH * max(1.0, abs(lo), abs(hi)):
        raise error or QuadratureConvergenceError(
            f"{integral} does not converge on a piece too narrow to split", (lo, hi))
    return 0.5 * (lo + hi)


# branch point of the small-|w| series for -ln(1 - w)/w here and for
# (e^w - 1)/w in :mod:`booksis.deformed`
_SMALL_ARG = 1e-8


def _shifted_log_ratio(w: float) -> float:
    """-ln(1 - w)/w, continuous through w = 0; requires w < 1."""
    if abs(w) < _SMALL_ARG:
        return 1.0 + w * (0.5 + w / 3.0)
    return -math.log1p(-w) / w


def book_closed_form(kernel: BookIntegrals,
                     constants: IntegrationConstants) -> Callable[[float], Jet]:
    """The book closed form on ``kernel`` (see the module docstring), whose
    ``z_c1`` is z * c1, as an evaluator of t returning the :class:`Jet`
    ((x, y), (x', y')).  Every call checks t against the kernel's validity
    window, which never ends when z c1 <= 0; at z c1 = 0, x = c1 e^Theta
    exactly and Gamma is Theta.
    """
    c1, c2 = constants.c1, constants.c2

    def evaluate(t: float) -> Jet:
        theta, gamma, forced = kernel.integrals(t)
        growth = exp_checked(theta, "book solution", t)
        w = kernel.z_c1 * growth
        if w >= 1.0:
            raise ValidityWindowError(t, t)
        x = c1 * growth * _shifted_log_ratio(w)
        g = exp_checked(gamma, "book solution", t)
        if g == 0.0:
            raise ExpOverflowError(f"book solution: exp(-Gamma) overflowed at t={t!r}")
        state = finite_state(CanonicalState, x, (c2 + forced) / g, t)
        # x = -ln(L)/z with L = 1 - w: x' = c1 e^Theta b_a / L; y = (c2 + I)
        # e^-Gamma with I' = e^Gamma b_b and Gamma' = b_a / L, so
        # y' = b_b - y b_a / L, formed from quotients: (c2 + I) (e^Gamma)'
        # overflows where y is finite
        log_arg = 1.0 - w
        b_a_t = kernel.b_a(t)
        d_growth = growth * b_a_t
        return Jet(state, (c1 * d_growth / log_arg, kernel.b_b(t) - state.y * b_a_t / log_arg))

    return evaluate


def solution_evaluator(
    sys: BookSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form solution as a reusable evaluator of t returning the
    :class:`Jet` (state, (x', y')): the book closed form at z = 0.

    The kernel's Chebyshev pieces are shared across calls, so evaluating
    a whole time grid costs one sweep.
    """
    return book_closed_form(BookIntegrals(sys.b_a, sys.b_b, sys.a, tol), constants)


def exact_solution(
    sys: BookSystem,
    constants: IntegrationConstants,
    t: float,
    tol: float = DEFAULT_TOLERANCE,
) -> CanonicalState:
    """Closed-form solution at a single time (a fresh kernel)."""
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

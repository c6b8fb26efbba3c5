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
forms are the case z c1 = 0, where Gamma is Theta.  The kernel holds the
three integrals as piecewise-Chebyshev interpolants on shared pieces (see
:mod:`booksis.quadrature`): on each piece Theta's values at the nodes
feed Gamma's integrand and Gamma's feed I's, so one array sample of each
coefficient per piece replaces the nested adaptive quadratures.

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

import bisect
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

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
# scan steps per chunk: the scan builds Theta one chunk (0.5 time units)
# ahead, and never past the time it was asked for
_SCAN_CHUNK = 25
# pieces one extension (or one completion's splits) may build before it
# gives up with QuadratureConvergenceError
_PIECE_BUDGET = 100_000
# no piece is split below this width relative to its time: next to a
# pole the rounding of the nodes makes the samples noisy, narrow pieces
# pass the convergence test by chance, and the kernel would crawl towards
# the pole in tiny steps instead of failing
_MIN_WIDTH = 1e-10

# integrals by index
_THETA, _GAMMA, _FORCED = range(3)


def _samples(f: Callable[[float], float], nodes: np.ndarray) -> np.ndarray:
    """``f`` at every node: one array call of a :class:`CoefficientFunction`,
    or a loop for a plain callable, whose values are checked for
    finiteness here."""
    sample = getattr(f, "sample", None)
    if sample is not None:
        return sample(nodes)
    return _finite(np.array([f(t) for t in nodes.tolist()], dtype=float), nodes)


def _finite(values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """``values``; a non-finite one raises :class:`NonFiniteIntegrandError`
    at its node."""
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteIntegrandError(float(nodes[finite.argmin()]))
    return values


def _exp_nodes(values: np.ndarray, nodes: np.ndarray, context: str) -> np.ndarray:
    """e^values by ``math.exp``, whose bits do not depend on the machine's
    vector units as numpy's do; an overflow raises ExpOverflowError."""
    return np.array([exp_checked(v, context, t)
                     for v, t in zip(values.tolist(), nodes.tolist())])


class _Piece:
    """One Chebyshev piece [lo, hi]: its nodes, b_a there and, per
    integral, the :func:`~booksis.quadrature.chebyshev_fit` of its
    antiderivative (None until built)."""

    __slots__ = ("lo", "hi", "nodes", "b_a", "fits")

    def __init__(self, lo: float, hi: float, nodes: np.ndarray, b_a: np.ndarray,
                 theta_fit):
        self.lo = lo
        self.hi = hi
        self.nodes = nodes
        self.b_a = b_a
        self.fits = [theta_fit, None, None]


class _Branch:
    """The pieces on one side of the base point, ordered away from it:
    piece j lies between ``ends[j]`` and ``ends[j + 1]``.  ``values[i]``
    holds integral i at the ends, each the previous one plus a piece's
    integral.  Theta's run to the last end; Gamma's and I's to
    ``ends[done]``, as the first ``done`` pieces carry all three."""

    __slots__ = ("sign", "ends", "keys", "pieces", "values", "done")

    def __init__(self, a: float, sign: float):
        self.sign = sign  # +1.0 after the base point, -1.0 before it
        self.ends = [a]
        self.keys = [sign * a]  # sign * ends, ascending, for bisect
        self.pieces: list[_Piece] = []
        self.values = [[0.0], [0.0], [0.0]]
        self.done = 0

    def beyond(self, t: float, end: float) -> bool:
        """Whether ``t`` lies farther from the base point than ``end``."""
        return self.sign * (t - end) > 0.0

    def start(self, j: int, which: int) -> float:
        """Integral ``which`` at the lower end of piece j."""
        near = self.values[which][j]
        return near if self.sign > 0.0 else near - self.pieces[j].fits[which][2]

    def node_values(self, j: int, which: int) -> np.ndarray:
        """Integral ``which`` at the nodes of piece j."""
        return self.start(j, which) + self.pieces[j].fits[which][1]

    def append(self, piece: _Piece, far: float) -> None:
        self.pieces.append(piece)
        self.ends.append(far)
        self.keys.append(self.sign * far)
        theta = self.values[_THETA]
        theta.append(theta[-1] + self.sign * piece.fits[_THETA][2])

    def truncate(self, j: int) -> None:
        """Drop piece j and every piece after it (none of them is done)."""
        del self.pieces[j:], self.ends[j + 1:], self.keys[j + 1:]
        del self.values[_THETA][j + 1:]

    def read(self, which: int, t: float) -> float:
        """Integral ``which`` at ``t``, which a piece that carries it
        covers: the cumulative sum at an end, else the start value plus
        the Clenshaw sum of the piece's antiderivative."""
        key = self.sign * t
        j = bisect.bisect_left(self.keys, key)
        if self.keys[j] == key:
            return self.values[which][j]
        piece = self.pieces[j - 1]
        x = (2.0 * t - piece.lo - piece.hi) / (piece.hi - piece.lo)
        return self.start(j - 1, which) + clenshaw(piece.fits[which][0], x)


class BookIntegrals:
    """Theta, Gamma and I from ``a`` as piecewise-Chebyshev interpolants,
    plus the validity window for ``z_c1`` = z * c1.

    The pieces are built lazily and end on the requested times.  On each
    piece the three integrals share the Chebyshev nodes: b_a sampled there
    gives Theta's series, Theta's values there give Gamma's integrand
    b_a / (1 - z c1 e^Theta), and Gamma's give I's, e^Gamma b_b, so no
    integral is nested in another.  A piece is split when a series does
    not converge (see :mod:`booksis.quadrature`): the truncation error of
    each piece's integral stays below the integral's share of ``tol``, or
    at round-off; no piece is split below 1e-10 of its time.  At
    the ends of the pieces the values are cumulative sums of the pieces'
    integrals; inside a piece they are Clenshaw sums.  Times before ``a``
    get their own pieces, built towards the past.

    At z c1 == 0 the Gamma integrand is b_a, so ``gamma`` is ``theta`` and
    ``tol`` splits 50/50 over Theta and I; otherwise it splits 50/25/25
    over Theta, Gamma and I.  The pieces depend only on the times asked
    for, not on which integral is asked first.

    The window [a, t_max) is found by a sign scan of 1 - z c1 e^Theta in
    steps of 0.02 from ``a`` and bisection of the first sign change to
    1e-10, extended lazily by :meth:`window_end`.  The scan builds Theta
    alone, one chunk of 25 steps ahead, and reads it from the pieces.
    Gamma and I are built on a piece when a time in it is asked for; a
    node there outside the window raises :class:`ValidityWindowError`.
    For z c1 <= 0 the window never ends.  Not safe for unsynchronized
    shared use (pieces are added lazily).

    ``b_a`` and ``b_b`` are kept for the closed forms' jets: Theta' = b_a,
    Gamma' = b_a / L and I' = e^Gamma b_b.
    """

    def __init__(self, b_a: CoefficientFunction, b_b: CoefficientFunction,
                 a: float, tol: float = DEFAULT_TOLERANCE, z_c1: float = 0.0):
        check_tolerance(tol)
        self.b_a = b_a
        self.b_b = b_b
        self.a = a
        self.z_c1 = z_c1
        if z_c1 == 0.0:
            self._gamma = _THETA
            self._tols = (0.5 * tol, 0.0, 0.5 * tol)
        else:
            self._gamma = _GAMMA
            self._tols = (0.5 * tol, 0.25 * tol, 0.25 * tol)
        self._after = _Branch(a, 1.0)
        self._before: _Branch | None = None  # built on the first time before a
        self.t_max = math.inf
        self._scanned_to = a
        if z_c1 > 0.0 and self.log_argument(a) <= 0.0:
            self.t_max = a  # already outside at the base point

    # -- values -------------------------------------------------------------

    def theta(self, t: float) -> float:
        """Theta(t) = int_a^t b_a."""
        return self._value(t, _THETA)

    def gamma(self, t: float) -> float:
        """Gamma(t) = int_a^t b_a / (1 - z c1 e^Theta)."""
        return self._value(t, self._gamma)

    def forced(self, t: float) -> float:
        """I(t) = int_a^t e^Gamma b_b."""
        return self._value(t, _FORCED)

    def log_argument(self, u: float) -> float:
        """1 - z c1 e^{Theta(u)}, positive inside the validity window.
        Builds Theta alone, so it is defined past the window too."""
        branch = self._branch(u)
        self._extend(branch, u)
        theta = branch.read(_THETA, u)
        return 1.0 - self.z_c1 * exp_checked(theta, "validity window", u)

    def _branch(self, t: float) -> _Branch:
        if not math.isfinite(t):
            raise ValueError(f"evaluation time must be finite, got {t!r}")
        if t >= self.a:
            return self._after
        if self._before is None:
            self._before = _Branch(self.a, -1.0)
        return self._before

    def _value(self, t: float, which: int) -> float:
        branch = self._branch(t)
        if branch.beyond(t, branch.ends[branch.done]):
            self._complete(branch, t)
        return branch.read(which, t)

    # -- pieces ---------------------------------------------------------------

    def _extend(self, branch: _Branch, t: float) -> None:
        """Theta pieces from the branch's last end to ``t``; a piece whose
        series does not converge is replaced by its two halves."""
        far_ends = [t] if branch.beyond(t, branch.ends[-1]) else []
        built = 0
        while far_ends:
            near, far = branch.ends[-1], far_ends[-1]
            lo, hi = (near, far) if branch.sign > 0.0 else (far, near)
            built += 1
            if built > _PIECE_BUDGET:
                raise QuadratureConvergenceError(
                    f"Theta needs more than {_PIECE_BUDGET} pieces", (lo, hi))
            nodes = chebyshev_nodes(lo, hi)
            b_a = _samples(self.b_a, nodes)
            fit = chebyshev_fit(b_a, 0.5 * (hi - lo), self._tols[_THETA])
            if fit is None:
                far_ends.append(_midpoint(lo, hi, "Theta"))
                continue
            far_ends.pop()
            branch.append(_Piece(lo, hi, nodes, b_a, fit), far)

    def _complete(self, branch: _Branch, t: float) -> None:
        """Gamma and I on every piece up to ``t``.  A piece on which one of
        them does not converge is rebuilt as two halves, the second ending
        at ``t`` if the piece reaches past it; one that reaches past ``t``
        with a node outside the validity window is cut at ``t``.  The
        pieces after it are dropped and rebuilt as needed."""
        splits = 0
        while branch.beyond(t, branch.ends[branch.done]):
            if branch.done == len(branch.pieces):
                self._extend(branch, t)
            j = branch.done
            cut = self._fit_rest(branch, j, t)
            if cut is None:
                continue
            splits += 1
            if splits > _PIECE_BUDGET:
                piece = branch.pieces[j]
                raise QuadratureConvergenceError(
                    f"Gamma and I need more than {_PIECE_BUDGET} splits",
                    (piece.lo, piece.hi))
            far = branch.ends[j + 1]
            branch.truncate(j)
            self._extend(branch, cut)
            self._extend(branch, far if branch.beyond(t, far) else t)

    def _fit_rest(self, branch: _Branch, j: int, t: float) -> float | None:
        """Fit Gamma and I on piece j, whose predecessors carry them.
        Returns None when done, else the time at which to cut the piece."""
        piece = branch.pieces[j]
        nodes = piece.nodes
        half = 0.5 * (piece.hi - piece.lo)
        exponent = branch.node_values(j, _THETA)  # Gamma, which is Theta at z c1 == 0
        if self._gamma == _GAMMA:
            with np.errstate(over="ignore"):
                log_argument = 1.0 - self.z_c1 * _exp_nodes(exponent, nodes, "validity window")
            outside = np.flatnonzero(log_argument <= 0.0)
            if outside.size:
                if branch.beyond(branch.ends[j + 1], t):
                    return t
                node = outside[0] if branch.sign > 0.0 else outside[-1]
                raise ValidityWindowError(t, float(nodes[node]))
            with np.errstate(over="ignore"):
                integrand = _finite(piece.b_a / log_argument, nodes)
            fit = chebyshev_fit(integrand, half, self._tols[_GAMMA])
            if fit is None:
                return _midpoint(piece.lo, piece.hi, "Gamma")
            piece.fits[_GAMMA] = fit
            exponent = branch.node_values(j, _GAMMA)
        with np.errstate(over="ignore"):
            integrand = (_exp_nodes(exponent, nodes, "forced integral")
                         * _samples(self.b_b, nodes))
        fit = chebyshev_fit(_finite(integrand, nodes), half, self._tols[_FORCED])
        if fit is None:
            return _midpoint(piece.lo, piece.hi, "I")
        piece.fits[_FORCED] = fit
        for which in (_GAMMA, _FORCED):
            if piece.fits[which] is not None:  # no Gamma of its own at z c1 == 0
                values = branch.values[which]
                values.append(values[j] + branch.sign * piece.fits[which][2])
        branch.done += 1
        return None

    # -- validity window ----------------------------------------------------------

    def window_end(self, t: float) -> float:
        """Extend the sign scan to ``t`` and return t_max, which stays
        inf while no window edge lies in [a, t]; a non-finite ``t`` raises
        ``ValueError``, as the scan to it would never end."""
        if not math.isfinite(t):
            raise ValueError(f"evaluation time must be finite, got {t!r}")
        if self.z_c1 <= 0.0 or not math.isinf(self.t_max):
            return self.t_max
        branch = self._after
        while self._scanned_to < t:
            points = []
            step_to = self._scanned_to
            while step_to < t and len(points) < _SCAN_CHUNK:
                step_to = min(step_to + _SCAN_STEP, t)
                points.append(step_to)
            try:
                self._extend(branch, step_to)
            except BooksisError:
                # Theta cannot be built over the whole chunk (a coefficient
                # leaves its domain or has a pole in it, maybe past the
                # edge): build it to each scan point in turn instead
                pass
            previous = self._scanned_to
            for u in points:
                if self.log_argument(u) <= 0.0:
                    self.t_max = self._bisect(previous, u)
                    self._scanned_to = u
                    return self.t_max
                previous = u
            self._scanned_to = step_to
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


def _midpoint(lo: float, hi: float, integral: str) -> float:
    """Where to split [lo, hi] because ``integral``'s series did not
    converge on it; a piece too narrow to split raises."""
    if hi - lo < _MIN_WIDTH * max(1.0, abs(lo), abs(hi)):
        raise QuadratureConvergenceError(
            f"{integral} does not converge on a piece too narrow to split", (lo, hi))
    return 0.5 * (lo + hi)


def solution_evaluator(
    sys: BookSystem,
    constants: IntegrationConstants,
    tol: float = DEFAULT_TOLERANCE,
) -> Callable[[float], Jet]:
    """Closed-form solution as a reusable evaluator of t returning the
    :class:`Jet` (state, (x', y')).

    The kernel's Chebyshev pieces are shared across calls, so evaluating
    a whole time grid costs one sweep.
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

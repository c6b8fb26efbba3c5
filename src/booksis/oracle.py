"""Independent numerical ODE integrators.

These cross-validate every closed-form solution in the package and must
stay independent of the quadrature-based evaluators: they share no code
with them.  Two methods are provided on purpose -- a fixed-step
classical 4th-order scheme and an embedded adaptive 4(5) pair -- so a
bug in one cannot silently confirm itself through the other.

Both methods are generators of accepted steps, and :func:`integrate_ode`
alone places the samples.  A state is a tuple of Python floats, from
``OdeProblem.state0`` through the steppers to the sampled
``OdeSolution``, and every stage sum is written out in one fixed order,
so the output bits depend only on IEEE double arithmetic.  An adaptive
pass on a two-component state, which every model in the package has,
runs a straight-line stepper: it holds the state and the seven stages on
scalar locals, calls the right-hand side directly and writes out every
stage sum, the error norm and the continuous extension's coefficients
with the same operations in the same order as the general loop, which
serves every other dimension, so both give the same bits.  Between the
ends of an adaptive step the samples
come from the pair's own 4th-order continuous extension, a degree-4
polynomial in the step fraction built from the step's seven stages, so
the error control alone sets the steps; between the ends of a fixed step
they come from cubic Hermite interpolation on the endpoint derivatives,
which is 4th-order accurate like the scheme.  A sample at a step's end,
t_end included, is the integrator's own state.

When the right-hand side blows up (singularity, validity-window edge)
the adaptive method keeps rejecting and shrinking the step until the
step size underflows, which is reported as a typed error carrying the
last good time and the samples placed before it -- never a silent
non-finite state.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import (
    BooksisError,
    NonFiniteRhsError,
    OdeIntegrationError,
    StepLimitError,
    StepSizeUnderflowError,
)

__all__ = ["OdeProblem", "IntegratorConfig", "OdeSolution", "integrate_ode"]

# rhs(t, y) receives y as a tuple of floats and returns a length-dim
# sequence of reals
Rhs = Callable[[float, tuple], Sequence[float]]

# Dormand-Prince 5(4) tableau; the 5th-order row propagates, the
# difference row estimates the local error.  First-same-as-last.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_ERR = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
# the pair's continuous extension (Shampine, Math. Comp. 46, 1986; Hairer,
# Norsett & Wanner, Solving ODEs I, II.6): row j holds stage j's weights
# of s, s^2, s^3 and s^4 in y(t + s*h) = y + h * sum_j (row j . s powers) k[j]
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _nonzero(row):
    return tuple((j, w) for j, w in enumerate(row) if w != 0.0)


# the same rows as (stage, weight) pairs without the zero weights, which
# are skipped rather than added as 0 * k
_DP_A_TERMS = tuple(_nonzero(row) for row in _DP_A)
_DP_B5_TERMS = _nonzero(_DP_B5)
_DP_ERR_TERMS = _nonzero(_DP_ERR)
# one (stage, weight) row per power of s
_DP_P_TERMS = tuple(_nonzero(column) for column in zip(*_DP_P))

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# exceptions from the rhs that an adaptive step may recover from by
# shrinking the step (domain exits, overflow near a singularity)
_RECOVERABLE = (BooksisError, OverflowError, ZeroDivisionError, FloatingPointError)


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem dy/dt = rhs(t, y), y(t0) = state0, on
    [t0, t_end].

    ``state0`` is stored as a tuple of dim finite Python floats.  ``rhs``
    receives the state as such a tuple and may return any sequence of dim
    reals.
    """

    rhs: Rhs
    t0: float
    state0: tuple
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "state0", tuple(map(float, self.state0)))
        if not _finite(self.state0):
            raise ValueError("state0 must be finite")
        if not (self.t_end >= self.t0):
            raise ValueError("t_end must not precede t0")


@dataclass(frozen=True)
class IntegratorConfig:
    """``method`` is "adaptive" (embedded 4(5) pair, error per step within
    rtol*|y| + atol) or "fixed" (classical 4th-order with step size
    ``step``).

    ``max_step`` is an optional user cap on the adaptive step size.  The
    samples between steps need none: they come from the pair's continuous
    extension, whose error is of the order of the step's own.
    """

    method: str = "adaptive"
    rtol: float = 1e-10
    atol: float = 1e-12
    step: float = 1e-3
    max_steps: int = 1_000_000
    max_step: float = math.inf

    def __post_init__(self):
        if self.method not in ("adaptive", "fixed"):
            raise ValueError(f"unknown method {self.method!r}")
        # written as "not > 0" so that NaN is rejected too
        if not (self.rtol > 0.0 and self.atol > 0.0 and self.step > 0.0):
            raise ValueError("tolerances and step must be positive")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")


@dataclass(frozen=True)
class OdeSolution:
    """States sampled at the requested times plus solver statistics."""

    times: tuple
    states: tuple  # one tuple of dim floats per time
    stats: dict = field(default_factory=dict)


def _finite(v) -> bool:
    return all(map(math.isfinite, v))


def _rms(v) -> float:
    """sqrt(mean(q*q)) with the squares summed in index order.  Up to 7
    components that is the order of numpy's pairwise mean too; every
    caller in the package has 1 or 2."""
    total = 0.0
    for q in v:
        total += q * q
    return math.sqrt(total / len(v))


def _combine(y: tuple, h: float, terms, k) -> tuple:
    """y + (h*w)*k[j] for the (j, w) pairs of ``terms``, added in that
    order component by component."""
    scaled = [(h * w, k[j]) for j, w in terms]
    out = []
    for d, acc in enumerate(y):
        for c, kj in scaled:
            acc += c * kj[d]
        out.append(acc)
    return tuple(out)


def _hermite(t: float, t0: float, t1: float, y0, y1, f0, f1) -> tuple:
    """Cubic Hermite interpolant matching values and derivatives at both
    endpoints: the fixed method's sampler, O(h^4) like its scheme."""
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    c0 = 2 * s3 - 3 * s2 + 1
    c1 = (s3 - 2 * s2 + s) * h
    c2 = -2 * s3 + 3 * s2
    c3 = (s3 - s2) * h
    return tuple([((c0 * a + c1 * b) + c2 * c) + c3 * d
                  for a, b, c, d in zip(y0, f0, y1, f1)])


def _dense_coefficients(h: float, k) -> list:
    """Per component d, the coefficients (c0, c1, c2, c3) of the
    continuous extension over a step of size h with stages ``k``:
    c_m = h * sum_j P[j][m] * k[j][d], summed over the nonzero P[j][m] in
    stage order."""
    out = []
    for d in range(len(k[0])):
        cs = []
        for (j0, w0), *rest in _DP_P_TERMS:
            acc = w0 * k[j0][d]
            for j, w in rest:
                acc += w * k[j][d]
            cs.append(h * acc)
        out.append(cs)
    return out


def _dense(s: float, y0, coefficients) -> tuple:
    """The continuous extension at s = (t - t_old) / h, by Horner:
    y0 + s*(c0 + s*(c1 + s*(c2 + s*c3)))."""
    return tuple([a + s * (c0 + s * (c1 + s * (c2 + s * c3)))
                  for a, (c0, c1, c2, c3) in zip(y0, coefficients)])


def _initial_step(t0: float, y0: tuple, f0: tuple,
                  t_end: float, rtol: float, atol: float) -> float:
    """Cheap starting-step heuristic based on the initial derivative."""
    span = t_end - t0
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6 * max(1.0, span)
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, span) if span > 0.0 else span


def integrate_ode(
    problem: OdeProblem,
    config: IntegratorConfig,
    sample_times: Sequence[float],
) -> OdeSolution:
    """Integrate and report states at ``sample_times`` (sorted, inside
    [t0, t_end]).

    Raises :class:`StepSizeUnderflowError` when approaching a singularity,
    :class:`StepLimitError` past ``max_steps``, and
    :class:`NonFiniteRhsError` when the derivative is non-finite at the
    initial state (the fixed-step method raises it anywhere).  The error's
    ``solution`` holds the samples placed before the failure and the
    stats of the steps taken.
    """
    ts = [float(t) for t in sample_times]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("sample_times must be sorted ascending")
    lo = problem.t0 - 1e-12 * max(1.0, abs(problem.t0))
    hi = problem.t_end + 1e-12 * max(1.0, abs(problem.t_end))
    if ts and (ts[0] < lo or ts[-1] > hi):
        raise ValueError("sample_times must lie within [t0, t_end]")

    if config.method == "fixed":
        stepper, stats = _integrate_fixed, {"steps": 0, "rhs_evals": 0}
    else:
        stats = {"steps": 0, "rejected": 0, "rhs_evals": 0}
        stepper = _integrate_pair if len(problem.state0) == 2 else _integrate_adaptive

    # each accepted step carries its endpoint values and derivatives; a
    # sample before t_end is placed on the first step that reaches it, up
    # to round-off past its end, except that the zero-length step at t0
    # takes only the samples at or before t0.  A sample at the step's end
    # is its y_new; inside an adaptive step the pair's continuous
    # extension gives it, and inside a fixed step the cubic Hermite
    # interpolant
    inner = bisect.bisect_left(ts, problem.t_end)
    out = []
    cursor = 0
    try:
        for t, t_new, y, y_new, f, f_new, dense in stepper(problem, config, stats):
            reach = t_new + 1e-14 * max(1.0, abs(t_new)) if t_new > t else t_new
            if cursor == inner or ts[cursor] > reach:
                continue
            h = t_new - t
            while cursor < inner and ts[cursor] <= reach:
                tc = ts[cursor]
                if tc == t_new or h == 0.0:
                    out.append(y_new)
                elif dense is None:
                    out.append(_hermite(tc, t, t_new, y, y_new, f, f_new))
                else:
                    out.append(_dense((tc - t) / h, y, dense))
                cursor += 1
    except OdeIntegrationError as exc:
        exc.solution = OdeSolution(tuple(ts[:cursor]), tuple(out), stats)
        raise
    # the samples at t_end and in the round-off slack past it are the
    # integrator's own final state
    out += [y_new] * (len(ts) - cursor)
    return OdeSolution(tuple(ts), tuple(out), stats)


# A stepper yields every accepted step as
# (t, t_new, y, y_new, f, f_new, dense), first a zero-length one at t0, and
# counts its steps and rhs evaluations in ``stats`` as it goes, so that the
# counts of a failed pass are those of the work it did.  dense is an
# adaptive step's continuous-extension coefficients, one (c0, c1, c2, c3)
# per component, and None for a fixed step and for the zero-length one.

def _counted(problem: OdeProblem, stats: dict) -> Rhs:
    """``problem.rhs`` returning a tuple of floats of the state's
    dimension, with every call counted in ``stats``."""
    rhs = problem.rhs
    dim = len(problem.state0)

    def eval_rhs(t: float, y: tuple) -> tuple:
        stats["rhs_evals"] += 1
        f = tuple(map(float, rhs(t, y)))
        if len(f) != dim:
            raise ValueError(_dimension_message(len(f), dim))
        return f

    return eval_rhs


def _dimension_message(got: int, expected: int) -> str:
    return f"rhs returned dimension {got}, expected {expected}"


def _integrate_fixed(problem: OdeProblem, config: IntegratorConfig, stats: dict):
    rhs = _counted(problem, stats)
    y = problem.state0
    t = problem.t0
    span = problem.t_end - problem.t0

    def checked(tv, yv):
        try:
            f = rhs(tv, yv)
        except _RECOVERABLE as exc:
            raise NonFiniteRhsError(f"rhs failed: {exc}", t) from exc
        if not _finite(f):
            raise NonFiniteRhsError("rhs returned non-finite values", t)
        return f

    f = checked(t, y)
    yield t, t, y, y, f, f, None
    if span == 0.0:
        return

    n_steps = max(1, math.ceil(span / config.step))
    if n_steps > config.max_steps:
        raise StepLimitError(
            f"{n_steps} fixed steps exceed max_steps={config.max_steps}", t
        )
    h = span / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(n_steps):
        k1 = f
        k2 = checked(t + half, tuple([a + half * b for a, b in zip(y, k1)]))
        k3 = checked(t + half, tuple([a + half * b for a, b in zip(y, k2)]))
        k4 = checked(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
        y_next = tuple([a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        if not _finite(y_next):
            raise NonFiniteRhsError("state became non-finite", t)
        t_next = problem.t0 + (k + 1) * h if k + 1 < n_steps else problem.t_end
        f_next = checked(t_next, y_next)
        yield t, t_next, y, y_next, f, f_next, None
        t, y, f = t_next, y_next, f_next
        stats["steps"] += 1


def _integrate_adaptive(problem: OdeProblem, config: IntegratorConfig, stats: dict):
    rhs = _counted(problem, stats)
    y = problem.state0
    dim = len(y)
    t = problem.t0
    t_end = problem.t_end

    try:
        f = rhs(t, y)
    except _RECOVERABLE as exc:
        raise NonFiniteRhsError(f"rhs failed at the initial state: {exc}", t) from exc
    if not _finite(f):
        raise NonFiniteRhsError("rhs non-finite at the initial state", t)
    yield t, t, y, y, f, f, None
    if t_end == t:
        return

    atol, rtol = config.atol, config.rtol
    max_steps, max_step = config.max_steps, config.max_step
    h = _initial_step(t, y, f, t_end, rtol, atol)
    h = max(h, 16.0 * math.ulp(max(abs(t), 1.0)))
    zero = (0.0,) * dim

    while t < t_end:
        if stats["steps"] + stats["rejected"] >= max_steps:
            raise StepLimitError(f"max_steps={max_steps} exceeded", t)
        h = min(h, t_end - t, max_step)
        h_min = 16.0 * math.ulp(max(abs(t), 1.0))
        # a step that lands on t_end may be shorter than h_min; one that
        # rejections shrank below it means the solution is blowing up
        if h < h_min and h != t_end - t:
            raise StepSizeUnderflowError(
                f"step size {h!r} underflowed below {h_min!r}", t
            )

        k = [f]
        try:
            for i in range(1, 7):
                ki = rhs(t + _DP_C[i] * h, _combine(y, h, _DP_A_TERMS[i], k))
                if not _finite(ki):
                    break
                k.append(ki)
        except _RECOVERABLE:
            pass
        if len(k) < 7:
            stats["rejected"] += 1
            h *= 0.5
            continue

        y_new = _combine(y, h, _DP_B5_TERMS, k)
        err_vec = _combine(zero, h, _DP_ERR_TERMS, k)
        # y is finite, y_new may be NaN (two finite stage terms can sum to
        # inf - inf); the larger magnitude is then NaN and so is err, which
        # the builtin max would hide
        err = _rms([
            e / (atol + rtol * (abs(a) if abs(a) >= abs(b) else abs(b)))
            for e, a, b in zip(err_vec, y, y_new)
        ])

        if err > 1.0 or not _finite(y_new):
            stats["rejected"] += 1
            factor = _SAFETY * err ** -0.2 if math.isfinite(err) and err > 0 else 0.5
            h *= min(1.0, max(_MIN_FACTOR, factor))
            continue

        # accepted; k[6] is f(t+h, y_new) by the first-same-as-last property
        t_new = t + h
        f_new = k[6]
        yield t, t_new, y, y_new, f, f_new, _dense_coefficients(t_new - t, k)
        t, y, f = t_new, y_new, f_new
        stats["steps"] += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h *= factor


class _NonFiniteStage(FloatingPointError):
    """A stage of the two-component stepper that is not finite: rejected
    like a recoverable rhs failure."""


def _raise_if_not_pair(r) -> None:
    """Called on a ValueError in :func:`_integrate_pair`, with ``r`` the
    last rhs result: a result of another dimension, whose unpacking raised
    it, becomes the general loop's dimension error."""
    if r is not None and len(r) != 2:
        raise ValueError(_dimension_message(len(r), 2)) from None


def _integrate_pair(problem: OdeProblem, config: IntegratorConfig, stats: dict):
    """:func:`_integrate_adaptive` for a state of two components, with
    the same steps, samples, stats and errors, bit for bit.

    The state (ya, yb) and the stages k1..k7 (k1 is f at the step's
    start, k7 f at its end) are scalar locals and ``problem.rhs`` is
    called directly.  Every sum is written out with the general loop's
    nonzero terms in its order: y + (h*w)*k from left to right, the error
    from 0.0, and the RMS norm with the first component's square first.
    Stage 7's argument is y_new itself, as the pair's last A row is its
    5th-order weights."""
    rhs = problem.rhs
    isfinite = math.isfinite
    # the tableau and the continuous extension's weights by stage (1-based)
    # and power; the zero weights are left out, as in the general loop
    _, c2, c3, c4, c5, c6, c7 = _DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A[1:6]
    b1, _, b3, b4, b5, b6, _ = _DP_B5
    e1, _, e3, e4, e5, e6, e7 = _DP_ERR
    (d10, d11, d12, d13), _, (_, d31, d32, d33), (_, d41, d42, d43), \
        (_, d51, d52, d53), (_, d61, d62, d63), (_, d71, d72, d73) = _DP_P

    t = problem.t0
    t_end = problem.t_end
    y = problem.state0
    ya, yb = y
    r = None
    try:
        stats["rhs_evals"] += 1
        r = rhs(t, y)
        k1a, k1b = r
        k1a, k1b = float(k1a), float(k1b)
    except _RECOVERABLE as exc:
        raise NonFiniteRhsError(f"rhs failed at the initial state: {exc}", t) from exc
    except ValueError:
        _raise_if_not_pair(r)
        raise
    f = (k1a, k1b)
    if not (isfinite(k1a) and isfinite(k1b)):
        raise NonFiniteRhsError("rhs non-finite at the initial state", t)
    yield t, t, y, y, f, f, None
    if t_end == t:
        return

    atol, rtol = config.atol, config.rtol
    max_steps, max_step = config.max_steps, config.max_step
    h = _initial_step(t, y, f, t_end, rtol, atol)
    h = max(h, 16.0 * math.ulp(max(abs(t), 1.0)))

    while t < t_end:
        if stats["steps"] + stats["rejected"] >= max_steps:
            raise StepLimitError(f"max_steps={max_steps} exceeded", t)
        h = min(h, t_end - t, max_step)
        h_min = 16.0 * math.ulp(max(abs(t), 1.0))
        # a step that lands on t_end may be shorter than h_min; one that
        # rejections shrank below it means the solution is blowing up
        if h < h_min and h != t_end - t:
            raise StepSizeUnderflowError(
                f"step size {h!r} underflowed below {h_min!r}", t
            )

        try:
            w1 = h * a21
            stats["rhs_evals"] += 1
            r = rhs(t + c2 * h, (ya + w1 * k1a, yb + w1 * k1b))
            k2a, k2b = r
            k2a, k2b = float(k2a), float(k2b)
            if not (isfinite(k2a) and isfinite(k2b)):
                raise _NonFiniteStage

            w1, w2 = h * a31, h * a32
            stats["rhs_evals"] += 1
            r = rhs(t + c3 * h, (ya + w1 * k1a + w2 * k2a, yb + w1 * k1b + w2 * k2b))
            k3a, k3b = r
            k3a, k3b = float(k3a), float(k3b)
            if not (isfinite(k3a) and isfinite(k3b)):
                raise _NonFiniteStage

            w1, w2, w3 = h * a41, h * a42, h * a43
            stats["rhs_evals"] += 1
            r = rhs(t + c4 * h, (ya + w1 * k1a + w2 * k2a + w3 * k3a,
                                 yb + w1 * k1b + w2 * k2b + w3 * k3b))
            k4a, k4b = r
            k4a, k4b = float(k4a), float(k4b)
            if not (isfinite(k4a) and isfinite(k4b)):
                raise _NonFiniteStage

            w1, w2, w3, w4 = h * a51, h * a52, h * a53, h * a54
            stats["rhs_evals"] += 1
            r = rhs(t + c5 * h, (ya + w1 * k1a + w2 * k2a + w3 * k3a + w4 * k4a,
                                 yb + w1 * k1b + w2 * k2b + w3 * k3b + w4 * k4b))
            k5a, k5b = r
            k5a, k5b = float(k5a), float(k5b)
            if not (isfinite(k5a) and isfinite(k5b)):
                raise _NonFiniteStage

            w1, w2, w3, w4, w5 = h * a61, h * a62, h * a63, h * a64, h * a65
            stats["rhs_evals"] += 1
            r = rhs(t + c6 * h, (
                ya + w1 * k1a + w2 * k2a + w3 * k3a + w4 * k4a + w5 * k5a,
                yb + w1 * k1b + w2 * k2b + w3 * k3b + w4 * k4b + w5 * k5b))
            k6a, k6b = r
            k6a, k6b = float(k6a), float(k6b)
            if not (isfinite(k6a) and isfinite(k6b)):
                raise _NonFiniteStage

            w1, w3, w4, w5, w6 = h * b1, h * b3, h * b4, h * b5, h * b6
            na = ya + w1 * k1a + w3 * k3a + w4 * k4a + w5 * k5a + w6 * k6a
            nb = yb + w1 * k1b + w3 * k3b + w4 * k4b + w5 * k5b + w6 * k6b
            stats["rhs_evals"] += 1
            r = rhs(t + c7 * h, (na, nb))
            k7a, k7b = r
            k7a, k7b = float(k7a), float(k7b)
            if not (isfinite(k7a) and isfinite(k7b)):
                raise _NonFiniteStage
        except _RECOVERABLE:
            stats["rejected"] += 1
            h *= 0.5
            continue
        except ValueError:
            _raise_if_not_pair(r)
            raise

        w1, w3, w4, w5, w6, w7 = h * e1, h * e3, h * e4, h * e5, h * e6, h * e7
        # y is finite, y_new may be NaN (two finite stage terms can sum to
        # inf - inf); the larger magnitude is then NaN and so is err
        qa = (0.0 + w1 * k1a + w3 * k3a + w4 * k4a + w5 * k5a + w6 * k6a + w7 * k7a) \
            / (atol + rtol * (abs(ya) if abs(ya) >= abs(na) else abs(na)))
        qb = (0.0 + w1 * k1b + w3 * k3b + w4 * k4b + w5 * k5b + w6 * k6b + w7 * k7b) \
            / (atol + rtol * (abs(yb) if abs(yb) >= abs(nb) else abs(nb)))
        err = math.sqrt((0.0 + qa * qa + qb * qb) / 2)

        if err > 1.0 or not (isfinite(na) and isfinite(nb)):
            stats["rejected"] += 1
            factor = _SAFETY * err ** -0.2 if isfinite(err) and err > 0 else 0.5
            h *= min(1.0, max(_MIN_FACTOR, factor))
            continue

        t_new = t + h
        y_new = (na, nb)
        f_new = (k7a, k7b)
        # fitted over the step as stored, t_new - t, which may differ from
        # h in its last bits
        span = t_new - t
        dense = (
            (span * (d10 * k1a),
             span * (d11 * k1a + d31 * k3a + d41 * k4a + d51 * k5a + d61 * k6a + d71 * k7a),
             span * (d12 * k1a + d32 * k3a + d42 * k4a + d52 * k5a + d62 * k6a + d72 * k7a),
             span * (d13 * k1a + d33 * k3a + d43 * k4a + d53 * k5a + d63 * k6a + d73 * k7a)),
            (span * (d10 * k1b),
             span * (d11 * k1b + d31 * k3b + d41 * k4b + d51 * k5b + d61 * k6b + d71 * k7b),
             span * (d12 * k1b + d32 * k3b + d42 * k4b + d52 * k5b + d62 * k6b + d72 * k7b),
             span * (d13 * k1b + d33 * k3b + d43 * k4b + d53 * k5b + d63 * k6b + d73 * k7b)),
        )
        yield t, t_new, y, y_new, f, f_new, dense
        t, y, f = t_new, y_new, f_new
        ya, yb, k1a, k1b = na, nb, k7a, k7b
        stats["steps"] += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h *= factor

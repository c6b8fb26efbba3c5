"""Independent numerical ODE integrators.

These cross-validate every closed-form solution in the package and must
stay independent of the quadrature-based evaluators: they share no code
with them.  Two methods are provided on purpose -- a fixed-step
classical 4th-order scheme and an embedded adaptive 4(5) pair -- so a
bug in one cannot silently confirm itself through the other.

Both methods are generators of accepted steps, and :func:`integrate_ode`
alone places the samples.  States are 1-D numpy arrays; sampling between
accepted steps uses cubic Hermite interpolation on the endpoint
derivatives (4th-order accurate, matching the integrator orders).

When the right-hand side blows up (singularity, validity-window edge)
the adaptive method keeps rejecting and shrinking the step until the
step size underflows, which is reported as a typed error carrying the
last good time -- never a silent non-finite state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BooksisError,
    NonFiniteRhsError,
    StepLimitError,
    StepSizeUnderflowError,
)

__all__ = ["OdeProblem", "IntegratorConfig", "OdeSolution", "integrate_ode"]

Rhs = Callable[[float, np.ndarray], np.ndarray]

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

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9

# exceptions from the rhs that an adaptive step may recover from by
# shrinking the step (domain exits, overflow near a singularity)
_RECOVERABLE = (BooksisError, OverflowError, ZeroDivisionError, FloatingPointError)


@dataclass(frozen=True)
class OdeProblem:
    """Initial-value problem dy/dt = rhs(t, y), y(t0) = state0, on
    [t0, t_end]."""

    rhs: Rhs
    t0: float
    state0: np.ndarray
    t_end: float

    def __post_init__(self):
        object.__setattr__(
            self, "state0", np.asarray(self.state0, dtype=float).reshape(-1)
        )
        if not np.all(np.isfinite(self.state0)):
            raise ValueError("state0 must be finite")
        if not (self.t_end >= self.t0):
            raise ValueError("t_end must not precede t0")


@dataclass(frozen=True)
class IntegratorConfig:
    """``method`` is "adaptive" (embedded 4(5) pair, error per step within
    rtol*|y| + atol) or "fixed" (classical 4th-order with step size
    ``step``).

    ``max_step`` caps the adaptive step size.  The between-step sampler is
    a cubic Hermite interpolant with O(h^4) error, so callers that need
    dense samples tighter than the step controller would naturally give
    (for example strongly growing solutions sampled to 1e-6 absolute)
    should cap the step.
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

    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    stats: dict = field(default_factory=dict)


def _hermite(t: float, t0: float, t1: float, y0, y1, f0, f1) -> np.ndarray:
    """Cubic Hermite interpolant matching values and derivatives at both
    endpoints."""
    h = t1 - t0
    if h == 0.0:
        return y0.copy()
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


def _initial_step(t0: float, y0: np.ndarray, f0: np.ndarray,
                  t_end: float, rtol: float, atol: float) -> float:
    """Cheap starting-step heuristic based on the initial derivative."""
    span = t_end - t0
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
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
    initial state (the fixed-step method raises it anywhere).
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
        stepper, stats = _integrate_adaptive, {"steps": 0, "rejected": 0, "rhs_evals": 0}
    dim = problem.state0.shape[0]

    def eval_rhs(t: float, y: np.ndarray) -> np.ndarray:
        stats["rhs_evals"] += 1
        f = np.asarray(problem.rhs(t, y), dtype=float).reshape(-1)
        if f.shape[0] != dim:
            raise ValueError(
                f"rhs returned dimension {f.shape[0]}, expected {dim}"
            )
        return f

    # each accepted step carries its endpoint values and derivatives; a
    # sample is placed on the first step that reaches it, up to round-off
    # past its end, except that the zero-length step at t0 takes only the
    # samples at or before t0
    out = np.empty((len(ts), dim))
    cursor = 0
    for t, t_new, y, y_new, f, f_new in stepper(problem, config, eval_rhs, stats):
        reach = t_new + 1e-14 * max(1.0, abs(t_new)) if t_new > t else t_new
        while cursor < len(ts) and ts[cursor] <= reach:
            out[cursor] = _hermite(ts[cursor], t, t_new, y, y_new, f, f_new)
            cursor += 1
    out[cursor:] = y_new  # numerical slack at the right endpoint
    return OdeSolution(np.asarray(ts), out, stats)


# A stepper yields every accepted step as (t, t_new, y, y_new, f, f_new),
# first a zero-length one at t0, and records its step counts in ``stats``.

def _integrate_fixed(problem: OdeProblem, config: IntegratorConfig,
                     rhs: Rhs, stats: dict):
    y = problem.state0.copy()
    t = problem.t0
    span = problem.t_end - problem.t0

    def checked(tv, yv):
        try:
            f = rhs(tv, yv)
        except _RECOVERABLE as exc:
            raise NonFiniteRhsError(f"rhs failed: {exc}", t) from exc
        if not np.all(np.isfinite(f)):
            raise NonFiniteRhsError("rhs returned non-finite values", t)
        return f

    f = checked(t, y)
    yield t, t, y, y, f, f
    if span == 0.0:
        return

    n_steps = max(1, math.ceil(span / config.step))
    if n_steps > config.max_steps:
        raise StepLimitError(
            f"{n_steps} fixed steps exceed max_steps={config.max_steps}", t
        )
    h = span / n_steps
    for k in range(n_steps):
        k1 = f
        k2 = checked(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = checked(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = checked(t + h, y + h * k3)
        y_next = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y_next)):
            raise NonFiniteRhsError("state became non-finite", t)
        t_next = problem.t0 + (k + 1) * h if k + 1 < n_steps else problem.t_end
        f_next = checked(t_next, y_next)
        yield t, t_next, y, y_next, f, f_next
        t, y, f = t_next, y_next, f_next
    stats["steps"] = n_steps


def _integrate_adaptive(problem: OdeProblem, config: IntegratorConfig,
                        rhs: Rhs, stats: dict):
    y = problem.state0.copy()
    dim = y.shape[0]
    t = problem.t0
    t_end = problem.t_end
    n_accepted = 0
    n_rejected = 0

    try:
        f = rhs(t, y)
    except _RECOVERABLE as exc:
        raise NonFiniteRhsError(f"rhs failed at the initial state: {exc}", t) from exc
    if not np.all(np.isfinite(f)):
        raise NonFiniteRhsError("rhs non-finite at the initial state", t)
    yield t, t, y, y, f, f
    if t_end == t:
        return

    h = _initial_step(t, y, f, t_end, config.rtol, config.atol)
    h = max(h, 16.0 * math.ulp(max(abs(t), 1.0)))
    k = [np.empty(dim) for _ in range(7)]

    while t < t_end:
        if n_accepted + n_rejected >= config.max_steps:
            raise StepLimitError(
                f"max_steps={config.max_steps} exceeded", t
            )
        h = min(h, t_end - t, config.max_step)
        h_min = 16.0 * math.ulp(max(abs(t), 1.0))
        # a step that lands on t_end may be shorter than h_min; one that
        # rejections shrank below it means the solution is blowing up
        if h < h_min and h != t_end - t:
            raise StepSizeUnderflowError(
                f"step size {h!r} underflowed below {h_min!r}", t
            )

        failed = False
        try:
            k[0] = f
            for i in range(1, 7):
                yi = y.copy()
                for j, aij in enumerate(_DP_A[i]):
                    if aij != 0.0:
                        yi += (h * aij) * k[j]
                k[i] = rhs(t + _DP_C[i] * h, yi)
                if not np.all(np.isfinite(k[i])):
                    failed = True
                    break
        except _RECOVERABLE:
            failed = True
        if failed:
            n_rejected += 1
            h *= 0.5
            continue

        y_new = y.copy()
        for j, bj in enumerate(_DP_B5):
            if bj != 0.0:
                y_new += (h * bj) * k[j]
        err_vec = np.zeros(dim)
        for j, ej in enumerate(_DP_ERR):
            if ej != 0.0:
                err_vec += (h * ej) * k[j]
        scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err > 1.0 or not np.all(np.isfinite(y_new)):
            n_rejected += 1
            factor = _SAFETY * err ** -0.2 if math.isfinite(err) and err > 0 else 0.5
            h *= min(1.0, max(_MIN_FACTOR, factor))
            continue

        # accepted; k[6] is f(t+h, y_new) by the first-same-as-last property
        t_new = t + h
        f_new = k[6]
        yield t, t_new, y, y_new, f, f_new
        t, y, f = t_new, y_new, f_new
        n_accepted += 1
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h *= factor
    stats["steps"] = n_accepted
    stats["rejected"] = n_rejected

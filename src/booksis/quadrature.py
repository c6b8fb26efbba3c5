"""Quadrature: adaptive Gauss-Kronrod for single integrals, Chebyshev
pieces for the integral kernel.

:func:`integrate` uses a 15-point Kronrod rule with its embedded 7-point
Gauss rule for the per-panel value/error pair; panels are split
worst-first until the summed error estimate meets the absolute tolerance.
:class:`CumulativeIntegral` wraps an integrand together with a base point
and caches checkpoints so that sweeping a trajectory grid in increasing
time costs one pass over the axis instead of one full integral per
sample.  The closed forms no longer use it (see below); it stays for its
tests and the benchmark's layer timings.

:func:`chebyshev_fit` is the building block of the closed forms' integral
kernel, :class:`booksis.canonical.BookIntegrals` (the method of chebfun:
Battles & Trefethen, SIAM J. Sci. Comput. 2004).  Samples of an integrand
at the first-kind Chebyshev nodes of a piece give its Chebyshev series,
which is integrated exactly; :func:`clenshaw` evaluates the resulting
antiderivative inside the piece.  The series has converged when its last
quarter of coefficients, times the piece's half-width, lies below the
tolerance, so that the truncation error of the piece's integral does, or
when those coefficients lie below round-off relative to the samples'
scale (a purely absolute test never passes when the tolerance is below
the round-off of a large integrand); it is then chopped after its last
coefficient above round-off (Aurentz & Trefethen, "Chopping a Chebyshev
series", ACM TOMS 2017).  The tables are built on first use, with ``math`` so that they
are the same bits on every machine.

numpy remains in two places: the product of a piece's samples with the
coefficient matrix in :func:`chebyshev_fit` and that of a series with
the T_k table in :func:`chebyshev_at_nodes`.  Each is one call on a
table of at most 32 by 33, where the interpreter would take a thousand
float operations, and their row sums, in numpy's order, set the bits of
every closed form.  Everything else on a piece works on at most 33
numbers, where a numpy call costs more than the arithmetic, so it runs
on Python floats; its sums follow the pairwise order of ``np.sum``
(:func:`_pairwise_sum`), so that the bits are those numpy gave.

Integrable singularities are deliberately not handled: when an integrand
blows up (e.g. the deformed-solution kernels at the validity-window
edge), the adaptive loop either surfaces a non-finite sample or exhausts
its panel (or piece) budget, both as typed errors.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from typing import Callable

import numpy as np

from .errors import NonFiniteIntegrandError, QuadratureConvergenceError

__all__ = [
    "integrate",
    "cumulative",
    "CumulativeIntegral",
    "DEFAULT_TOLERANCE",
    "check_tolerance",
    "CHEBYSHEV_NODES",
    "chebyshev_nodes",
    "chebyshev_fit",
    "chebyshev_at_nodes",
    "clenshaw",
]

# two spare decades below the 1e-6 residual targets of the acceptance suite
DEFAULT_TOLERANCE = 1e-10

DEFAULT_PANEL_BUDGET = 10**6

# Kronrod-15 abscissae on [-1, 1] (positive half; symmetric) and weights.
# Odd-indexed entries are the embedded Gauss-7 nodes.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def check_tolerance(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and positive."""
    # NaN or inf would let the refinement loop `while err_total > tol` stop
    # at once and return the unrefined first estimate
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _gk15(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Kronrod-15 panel on [lo, hi]; returns (value, error_estimate).

    The error estimate is the conservative |K15 - G7|.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    resk = 0.0
    resg = 0.0
    for j in range(8):
        dx = half * _XGK[j]
        if j == 7:
            fv = f(mid)
            if not math.isfinite(fv):
                raise NonFiniteIntegrandError(mid)
            resk += _WGK[7] * fv
            resg += _WG[3] * fv
            break
        x1 = mid - dx
        x2 = mid + dx
        f1 = f(x1)
        if not math.isfinite(f1):
            raise NonFiniteIntegrandError(x1)
        f2 = f(x2)
        if not math.isfinite(f2):
            raise NonFiniteIntegrandError(x2)
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    return resk * half, abs(resk - resg) * half


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOLERANCE,
) -> float:
    """Definite integral of ``f`` over [lo, hi] to absolute tolerance ``tol``.

    Adaptive worst-first bisection of Kronrod/Gauss panels.  Raises
    :class:`QuadratureConvergenceError` when the panel budget runs out,
    :class:`NonFiniteIntegrandError` on a non-finite sample and
    ``ValueError`` for a non-finite or reversed bound.
    """
    check_tolerance(tol)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration bounds must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ValueError(f"integration bounds out of order: {lo!r} > {hi!r}")
    if lo == hi:
        return 0.0

    # seed with panels of width <= 2 so oscillatory integrands are sampled
    n0 = max(1, min(64, math.ceil((hi - lo) / 2.0)))
    width = (hi - lo) / n0
    heap: list[tuple[float, int, float, float, float]] = []
    total = 0.0
    err_total = 0.0
    counter = 0
    for k in range(n0):
        a = lo + k * width
        b = hi if k == n0 - 1 else lo + (k + 1) * width
        val, err = _gk15(f, a, b)
        total += val
        err_total += err
        heapq.heappush(heap, (-err, counter, a, b, val))
        counter += 1

    panels = n0
    while err_total > tol:
        neg_err, _, a, b, val = heapq.heappop(heap)
        if panels >= DEFAULT_PANEL_BUDGET:
            raise QuadratureConvergenceError(
                f"no convergence within {DEFAULT_PANEL_BUDGET} panels "
                f"(error estimate {err_total:.3e} > tol {tol:.3e})",
                (a, b),
            )
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            raise QuadratureConvergenceError(
                "subinterval too small to split further", (a, b)
            )
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        total += v1 + v2 - val
        err_total += e1 + e2 + neg_err  # neg_err == -old error
        heapq.heappush(heap, (-e1, counter, a, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, b, v2))
        counter += 1
        panels += 1
    return total


class CumulativeIntegral:
    """Evaluator for F(t) = integral of ``integrand`` from ``base_point`` to t.

    F(base_point) is exactly 0.  Values for t below the base point are the
    negated integral over [t, base_point].  Each evaluated point becomes a
    checkpoint; later evaluations integrate only from the nearest
    checkpoint, so sweeping an increasing time grid costs an amortized
    single pass.

    Not safe for unsynchronized shared mutation: concurrent use requires
    external serialization (the checkpoint cache mutates on every call).
    """

    def __init__(self, integrand: Callable[[float], float], base_point: float,
                 tol: float = DEFAULT_TOLERANCE):
        check_tolerance(tol)
        self.integrand = integrand
        self.base_point = float(base_point)
        self.tol = tol
        self._ts: list[float] = [self.base_point]
        self._values: list[float] = [0.0]

    def value(self, t: float) -> float:
        t = float(t)
        i = bisect.bisect_left(self._ts, t)
        if i < len(self._ts) and self._ts[i] == t:
            return self._values[i]
        # nearest checkpoint on either side
        best = i - 1 if i > 0 else i
        if i > 0 and i < len(self._ts):
            if abs(self._ts[i] - t) < abs(t - self._ts[i - 1]):
                best = i
        t0 = self._ts[best]
        v0 = self._values[best]
        if t >= t0:
            v = v0 + integrate(self.integrand, t0, t, self.tol)
        else:
            v = v0 - integrate(self.integrand, t, t0, self.tol)
        self._ts.insert(i, t)
        self._values.insert(i, v)
        return v

    __call__ = value


def cumulative(f: Callable[[float], float], a: float,
               tol: float = DEFAULT_TOLERANCE) -> CumulativeIntegral:
    """Checkpoint-cached cumulative integral with base point ``a``."""
    return CumulativeIntegral(f, a, tol)


# --- Chebyshev pieces ---------------------------------------------------------------

# samples per piece: a smooth coefficient resolves to round-off over a few
# time units
CHEBYSHEV_NODES = 32

# coefficients at or below this fraction of a piece's largest sample are
# round-off: the convergence floor and the chop level
_ROUNDOFF = 2.0 ** -46

# row sums whose terms add up in size to less than this stay finite in
# any order of summation
_SAFE_SCALE = 2.0 ** 1023


@functools.cache
def _tables(n: int) -> tuple[list[float], np.ndarray, np.ndarray]:
    """First-kind nodes x_j = cos((j + 1/2) pi / n) in ascending order, the
    matrix taking samples at them to Chebyshev coefficients, and
    T_k(x_j) for k = 0..n."""
    angles = [math.pi * (n - j - 0.5) / n for j in range(n)]
    t_k = np.array([[math.cos(k * a) for k in range(n + 1)] for a in angles])
    to_coefficients = (2.0 / n) * t_k[:, :n].T
    to_coefficients[0] *= 0.5
    return [math.cos(a) for a in angles], to_coefficients, t_k


def chebyshev_nodes(lo: float, hi: float) -> list[float]:
    """The ``CHEBYSHEV_NODES`` first-kind Chebyshev nodes of [lo, hi],
    ascending; none is an endpoint.  Each end is halved before the two
    are added, so the midpoint of two ends near -DBL_MAX stays finite."""
    mid, half = 0.5 * lo + 0.5 * hi, 0.5 * (hi - lo)
    return [mid + half * x for x in _tables(CHEBYSHEV_NODES)[0]]


def _pairwise_sum(terms: list[float]) -> float:
    """``np.sum`` of ``terms`` as a float array, bit for bit, for up to 128
    terms (a fit sums at most ``CHEBYSHEV_NODES + 1``).  numpy adds to 0.0
    a pairwise sum: below 8 terms left to right, else 8 accumulators that
    each take every 8th term, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remaining
    terms left to right.  Above 128 terms numpy sums two halves."""
    n = len(terms)
    if n < 8:
        total = 0.0
        for term in terms:
            total += term
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        r0 += terms[i]
        r1 += terms[i + 1]
        r2 += terms[i + 2]
        r3 += terms[i + 3]
        r4 += terms[i + 4]
        r5 += terms[i + 5]
        r6 += terms[i + 6]
        r7 += terms[i + 7]
    total = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    for term in terms[end:]:
        total += term
    return total


def _row_sums(table: np.ndarray, vector, scale: float) -> list[float]:
    """``(table * vector).sum(axis=1)`` as floats, where the terms of each
    row add up in size to at most ``scale``.  From the float limit on a
    sum may overflow to inf or NaN, which the callers' tests and finite
    checks reject, so numpy is told not to warn of it."""
    if scale < _SAFE_SCALE:
        return (table * vector).sum(axis=1).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        return (table * vector).sum(axis=1).tolist()


def chebyshev_fit(values: list[float], half: float, tol: float):
    """Antiderivative of the integrand sampled as ``values`` at the
    :func:`chebyshev_nodes` of a piece of half-width ``half``.

    Returns None when the series has not converged (see the module
    docstring), else ``(series, total)``: the antiderivative's Chebyshev
    coefficients on the piece, a tuple whose value is 0 at the piece's
    start, and its value at the piece's end, the integral over the piece;
    :func:`chebyshev_at_nodes` gives its values at the nodes.  The
    coefficients of the samples are one numpy product; the rest runs on
    floats, with its sums in numpy's order (:func:`_pairwise_sum`).
    Neither goes through BLAS, so the bits do not depend on the machine.
    """
    n = len(values)
    largest = max(map(abs, values))
    # each row of the matrix sums to at most 2 in size: |c_k| <= 2 max |v|
    c = _row_sums(_tables(n)[1], values, 2.0 * largest)
    floor = _ROUNDOFF * largest
    # a piece one subnormal wide has half-width 0, and integral 0
    bound = tol / half if half > 0.0 else math.inf
    limit = max(bound, floor)
    for coefficient in c[-(n // 4):]:
        if not abs(coefficient) <= limit:  # NaN fails too
            return None
    # chop after the last coefficient above round-off
    m = n
    while m > 1 and not abs(c[m - 1]) > floor:
        m -= 1
    # integrate term by term: A_k = (c_{k-1} - c_{k+1}) / (2k), with c_0
    # counted twice (int T_0 = T_1), and A_0 makes the antiderivative
    # vanish at x = -1, where T_k = (-1)^k
    c = c[:m] + [0.0, 0.0]
    c[0] *= 2.0
    a = [0.0] + [half * (c[k - 1] - c[k + 1]) / (2.0 * k) for k in range(1, m + 1)]
    a[0] = _pairwise_sum(a[1::2]) - _pairwise_sum(a[2::2])
    return tuple(a), _pairwise_sum(a)


def chebyshev_at_nodes(series: tuple[float, ...]) -> list[float]:
    """Values of the Chebyshev series ``series`` at the ``CHEBYSHEV_NODES``
    first-kind nodes, by one numpy product."""
    t_k = _tables(CHEBYSHEV_NODES)[2][:, :len(series)]
    # |T_k| <= 1
    return _row_sums(t_k, series, len(series) * max(map(abs, series)))


def clenshaw(series: tuple[float, ...], x: float) -> float:
    """Value at x in [-1, 1] of the Chebyshev series with coefficients
    ``series``."""
    b1 = b2 = 0.0
    x2 = x + x
    for k in range(len(series) - 1, 0, -1):
        b1, b2 = series[k] + x2 * b1 - b2, b1
    return series[0] + x * b1 - b2

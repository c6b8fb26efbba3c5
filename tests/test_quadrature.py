import ast
import math
import random
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from booksis import quadrature
from booksis.errors import NonFiniteIntegrandError, QuadratureConvergenceError
from booksis.quadrature import CHEBYSHEV_NODES, cumulative, integrate


def simpson(f, lo, hi, n):
    """Independent brute-force composite Simpson rule (n even panels)."""
    if n % 2:
        n += 1
    h = (hi - lo) / n
    total = f(lo) + f(hi)
    for k in range(1, n):
        total += f(lo + k * h) * (4 if k % 2 else 2)
    return total * h / 3.0


class TestIntegrate:
    def test_zero(self):
        assert integrate(lambda s: 0.0, 0.0, 5.0, 1e-12) == 0.0

    def test_one(self):
        assert integrate(lambda s: 1.0, 0.0, 3.0, 1e-12) == pytest.approx(3.0, abs=1e-12)

    def test_identity(self):
        assert integrate(lambda s: s, 0.0, 2.0, 1e-12) == pytest.approx(2.0, abs=1e-12)

    def test_shifted_sine(self):
        value = integrate(lambda s: 1.0 + 0.5 * math.sin(s), 0.0, math.pi, 1e-12)
        assert value == pytest.approx(math.pi + 1.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate(math.sin, 1.3, 1.3, 1e-10) == 0.0

    def test_polynomial_exactness(self):
        # within the Gauss-7 exactness degree the error estimate is
        # round-off only, so the result is exact to 1e-13 relative
        coeffs = [0.3, -1.2, 0.5, 2.0, -0.7, 0.11, 1.3, -0.25, 0.4, 0.9,
                  -0.05, 0.6, -1.1, 0.02]  # degree 13

        def poly(s):
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * s + c
            return acc

        def poly_antiderivative(s):
            acc = 0.0
            for k in reversed(range(len(coeffs))):
                acc = acc * s + coeffs[k] / (k + 1)
            return acc * s

        lo, hi = -1.5, 2.0
        expected = poly_antiderivative(hi) - poly_antiderivative(lo)
        value = integrate(poly, lo, hi, 1e-10)
        assert abs(value - expected) <= 1e-13 * abs(expected)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, 1.0, -1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_rejects_tolerance(self, tol):
        # a NaN or inf tol would end refinement at once and return the
        # unrefined first estimate (0.46859 here against 0.50254)
        with pytest.raises(ValueError):
            integrate(lambda s: math.sin(30.0 * s) ** 2, 0.0, 1.0, tol)

    def test_non_finite_sample(self):
        def f(s):
            return math.inf if s > 1.0 else 0.0

        with pytest.raises(NonFiniteIntegrandError) as err:
            integrate(f, 0.0, 2.0, 1e-10)
        assert err.value.location > 1.0

    def test_panel_budget(self, monkeypatch):
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 4)
        with pytest.raises(QuadratureConvergenceError) as err:
            integrate(lambda s: math.sin(50.0 * s), 0.0, 10.0, 1e-15)
        lo, hi = err.value.worst_interval
        assert 0.0 <= lo < hi <= 10.0


class TestCumulative:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_rejects_tolerance(self, tol):
        with pytest.raises(ValueError):
            cumulative(math.sin, 0.0, tol)

    def test_zero_at_base_point(self):
        F = cumulative(math.sin, 1.7, 1e-10)
        assert F(1.7) == 0.0

    def test_constant_integrand(self):
        rho0 = 0.75
        F = cumulative(lambda s: rho0, 2.0, 1e-10)
        for t in (2.0, 2.5, 4.0, 10.0, 0.0, -3.0):
            assert F(t) == pytest.approx(rho0 * (t - 2.0), abs=1e-9)

    def test_exponential(self):
        F = cumulative(math.exp, 0.0, 1e-12)
        assert F(1.0) == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_negative_direction(self):
        F = cumulative(lambda s: s * s, 0.0, 1e-12)
        assert F(-3.0) == pytest.approx(-9.0, abs=1e-10)

    def test_cache_matches_cold_evaluation(self):
        tol = 1e-10

        def f(s):
            return 1.0 + 0.5 * math.sin(1.3 * s)

        F = cumulative(f, 0.0, tol)
        warm = [F(0.1 * k) for k in range(1, 61)]
        for k, value in zip(range(1, 61), warm):
            cold = integrate(f, 0.0, 0.1 * k, tol)
            assert abs(value - cold) <= tol

    def test_additivity(self):
        tol = 1e-10

        def f(s):
            return math.cos(0.7 * s) + 0.2 * s

        F = cumulative(f, 0.0, tol)
        for (b, c) in [(0.5, 1.5), (1.0, 4.0), (-2.0, 3.0), (2.2, 2.3)]:
            gap = integrate(f, b, c, tol)
            assert abs(F(c) - F(b) - gap) <= tol

    def test_repeated_calls_reuse_checkpoints(self):
        calls = 0

        def f(s):
            nonlocal calls
            calls += 1
            return math.sin(s)

        F = cumulative(f, 0.0, 1e-10)
        F(5.0)
        baseline = calls
        F(5.0)  # exact checkpoint hit costs nothing
        assert calls == baseline
        F(5.0001)  # incremental sweep over the last sliver only
        assert calls - baseline <= 30


class TestNested:
    def test_nested_against_brute_force_simpson(self):
        """Composite of two cumulative layers agrees with an independent
        single fine-grid Simpson evaluation within the summed tolerances
        (plus the Simpson truncation, which the fine grid makes tiny)."""
        z_c1 = 0.1
        t_end = 1.5  # the integrand's pole sits beyond this horizon

        def b_a(s):
            return 1.0 + 0.5 * math.sin(s)

        tol_theta = 5e-11
        tol_gamma = 2.5e-11
        theta = cumulative(b_a, 0.0, tol_theta)
        gamma = cumulative(
            lambda u: b_a(u) / (1.0 - z_c1 * math.exp(theta(u))), 0.0, tol_gamma
        )
        value = gamma(t_end)

        # brute force: theta on a fine grid by cumulative Simpson, then an
        # outer Simpson on the same grid
        n = 4000  # even
        h = t_end / n
        grid = [k * h for k in range(n + 1)]
        theta_bf = [0.0] * (n + 1)
        for k in range(0, n, 2):
            a, m, b = grid[k], grid[k + 1], grid[k + 2]
            theta_bf[k + 1] = theta_bf[k] + (m - a) / 6.0 * (
                b_a(a) + 4.0 * b_a((a + m) / 2.0) + b_a(m)
            )
            theta_bf[k + 2] = theta_bf[k + 1] + (b - m) / 6.0 * (
                b_a(m) + 4.0 * b_a((m + b) / 2.0) + b_a(b)
            )
        inner = [b_a(u) / (1.0 - z_c1 * math.exp(th)) for u, th in zip(grid, theta_bf)]
        total = inner[0] + inner[n]
        for k in range(1, n):
            total += inner[k] * (4 if k % 2 else 2)
        brute = total * h / 3.0

        assert abs(value - brute) <= tol_theta + tol_gamma + 1e-9


# --- property tests ------------------------------------------------------------

@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_additivity_property(b, c):
    def f(s):
        return math.exp(-0.1 * s * s) + 0.3 * math.cos(s)

    tol = 1e-9
    F = cumulative(f, 0.0, tol)
    lo, hi = min(b, c), max(b, c)
    gap = integrate(f, lo, hi, tol)
    assert abs(F(hi) - F(lo) - gap) <= 2.0 * tol


@given(st.floats(min_value=0.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_matches_simpson_oracle(upper):
    def f(s):
        return 1.0 / (1.0 + s * s)

    value = integrate(f, 0.0, upper, 1e-11)
    assert value == pytest.approx(math.atan(upper), abs=1e-9)


# --- Chebyshev pieces against the numpy reference ---------------------------------

def reference_chebyshev_fit(values: np.ndarray, half: float, tol: float):
    """``chebyshev_fit`` as it was written in numpy throughout, returning
    ``(series, at_nodes, total)``: the bits the float version must keep."""
    n = values.size
    _, to_coefficients, t_k = quadrature._tables(n)
    # samples near the float limit overflow the sums to inf or NaN: the
    # test below then fails, or the caller's finite checks raise
    with np.errstate(over="ignore", invalid="ignore"):
        c = (to_coefficients * values).sum(axis=1)
        magnitude = np.abs(c)
        floor = quadrature._ROUNDOFF * float(np.abs(values).max())
        # a piece one subnormal wide has half-width 0, and integral 0
        bound = tol / half if half > 0.0 else math.inf
        if not magnitude[-(n // 4):].max() <= max(bound, floor):  # NaN fails too
            return None
        above = np.flatnonzero(magnitude > floor)
        m = int(above[-1]) + 1 if above.size else 1
        # integrate term by term: A_k = (c_{k-1} - c_{k+1}) / (2k), with c_0
        # counted twice (int T_0 = T_1), and A_0 makes the antiderivative
        # vanish at x = -1, where T_k = (-1)^k
        padded = np.zeros(m + 2)
        padded[:m] = c[:m]
        padded[0] *= 2.0
        a = np.empty(m + 1)
        a[1:] = half * (padded[:m] - padded[2:]) / (2.0 * np.arange(1, m + 1))
        a[0] = a[1::2].sum() - a[2::2].sum()
        at_nodes = (t_k[:, :m + 1] * a).sum(axis=1)
        total = float(a.sum())
    return tuple(a.tolist()), at_nodes, total


def same_bits(x: float, y: float) -> bool:
    """x and y are the same double, or both NaN (whose payload numpy and
    the interpreter may propagate differently)."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return struct.pack("<d", x) == struct.pack("<d", y)


def assert_fit_matches_reference(values: list[float], half: float, tol: float):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = quadrature.chebyshev_fit(values, half, tol)
        reference = reference_chebyshev_fit(np.array(values), half, tol)
        if reference is None:
            assert fit is None
            return
        series, total = fit
        at_nodes = quadrature.chebyshev_at_nodes(series)
    expected_series, expected_at_nodes, expected_total = reference
    assert len(series) == len(expected_series)
    assert all(map(same_bits, series, expected_series))
    assert len(at_nodes) == len(expected_at_nodes)
    assert all(map(same_bits, at_nodes, expected_at_nodes.tolist()))
    assert same_bits(total, expected_total)


# |p| + |q| <= 2, so a scale up to 8.9e307 keeps the smooth samples finite
SCALES = st.sampled_from([1.0, 1e-300, 1e-8, 1e8, 1e300, 8.9e307])
TOLERANCES = st.floats(min_value=1e-14, max_value=1e-6)


@given(
    st.floats(-10.0, 10.0), st.floats(0.0, 4.0),
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 40.0), st.floats(0.0, 6.0),
    SCALES, TOLERANCES,
)
@example(lo=1.0, width=0.0, p=1.0, q=0.5, omega=3.0, phase=0.0, scale=8.9e307, tol=1e-10)
@settings(max_examples=300, deadline=None)
def test_fit_of_smooth_samples_keeps_the_reference_bits(lo, width, p, q, omega, phase,
                                                         scale, tol):
    # width 0 gives half-width 0; a large omega gives series that do not
    # converge, so the None branch is compared too
    hi = lo + width
    values = [scale * (p + q * math.sin(omega * t + phase))
              for t in quadrature.chebyshev_nodes(lo, hi)]
    assert_fit_matches_reference(values, 0.5 * (hi - lo), tol)


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=CHEBYSHEV_NODES, max_size=CHEBYSHEV_NODES),
    st.sampled_from([0.0, 5e-324, 1e-6, 0.25, 3.0]),
    TOLERANCES,
)
@example(values=[1.7e308, -1.7e308] * (CHEBYSHEV_NODES // 2), half=0.25, tol=1e-10)
@example(values=[1.7976931348623157e308] * CHEBYSHEV_NODES, half=0.0, tol=1e-10)
@example(values=[-0.0] * CHEBYSHEV_NODES, half=0.25, tol=1e-10)
@settings(max_examples=300, deadline=None)
def test_fit_of_rough_samples_keeps_the_reference_bits(values, half, tol):
    # arbitrary finite samples: round-off noise, subnormals, -0.0 and
    # samples near +-1e308, whose coefficients overflow without a warning
    assert_fit_matches_reference(values, half, tol)


@pytest.mark.parametrize("n", range(41))
def test_pairwise_sum_is_numpy_sum(n):
    # contiguous and strided views of 50 random arrays, with signed zeros,
    # subnormals and sums that overflow
    rng = random.Random(n)
    pool = [0.0, -0.0, 1e308, -1e308, 5e-324]
    for _ in range(50):
        data = np.array([rng.choice(pool) if rng.random() < 0.2
                         else rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
                         for _ in range(3 * n + 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            for view in (data[:n], data[1::2][:n], data[2::3][:n], -np.abs(data[:n]) * 0.0):
                assert same_bits(quadrature._pairwise_sum(view.tolist()), float(view.sum()))


def test_chebyshev_nodes_near_the_float_limit_are_finite():
    # hi + lo overflows here; the ends are halved before they are added
    lo, hi = -sys.float_info.max, -1e308
    nodes = quadrature.chebyshev_nodes(lo, hi)
    assert all(lo < t < hi for t in nodes)


def test_only_quadrature_imports_numpy():
    # numpy forms the two products per piece whose row sums set the
    # bits; every other module works on Python floats
    importers = set()
    for path in Path(quadrature.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.name)
    assert importers == {"quadrature.py"}

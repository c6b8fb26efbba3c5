import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booksis import quadrature
from booksis.errors import NonFiniteIntegrandError, QuadratureConvergenceError
from booksis.quadrature import cumulative, integrate


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

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booksis.canonical import BookSystem, CanonicalState, IntegrationConstants
from booksis.canonical import hamiltonian as canonical_hamiltonian
from booksis.errors import MomentDomainError, SingularLocusError
from booksis.invariants import (
    check_chart_canonicity,
    check_chart_round_trip,
    check_hamiltonian_consistency,
    check_moment_pushforward,
    check_sis_pushforward,
    random_epidemic_state,
)
from booksis.oracle import IntegratorConfig, OdeProblem, integrate_ode
from booksis.sis import (
    EpidemicState,
    MomentState,
    SisSystem,
    from_canonical,
    moment_rhs,
    moments_from_state,
    sis_constant_solution,
    sis_exact_solution,
    sis_hamiltonian,
    sis_rhs,
    sis_solution_evaluator,
    state_from_moments,
    to_canonical,
)
from booksis.timefn import CoefficientFunction as CF


def closed_form_constant_rate(rho0, c1, c2, t):
    """Inline rendition of the constant-rate closed form, used as an
    independent oracle for the quadrature-based solution."""
    g = math.exp(rho0 * t)
    k = g + c2 * rho0 - 1.0
    q = rho0 * k * g / (k * k - rho0 * rho0 / (c1 * c1))
    p = (c1 * k * k / (rho0 * rho0) - 1.0 / c1) / g
    return q, p


class TestChart:
    def test_forward_example(self):
        c = to_canonical(EpidemicState(2.0 / 3.0, 3.0))
        assert c.x == pytest.approx(1.0, abs=1e-15)
        assert c.y == pytest.approx(2.0, abs=1e-15)

    def test_forward_zero_density(self):
        c = to_canonical(EpidemicState(0.0, 1.0))
        assert (c.x, c.y) == (-1.0, 0.0)

    def test_forward_singular(self):
        with pytest.raises(SingularLocusError):
            to_canonical(EpidemicState(1.0, 1.0))

    def test_inverse_example(self):
        e = from_canonical(CanonicalState(1.0, 2.0))
        assert e.q == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert e.p == pytest.approx(3.0, abs=1e-15)

    def test_inverse_zero_density(self):
        e = from_canonical(CanonicalState(-1.0, 0.0))
        assert (e.q, e.p) == (0.0, 1.0)

    def test_inverse_singular(self):
        with pytest.raises(SingularLocusError):
            from_canonical(CanonicalState(1.0, 1.0))

    @pytest.mark.parametrize("x, y", [(1e200, 2e-200), (1e-200, 2e200)])
    def test_inverse_where_x_squared_leaves_the_float_range(self, x, y):
        # x y = 2, so d = 3 and (q, p) = (2x/3, 3/x) although x^2 overflows
        # or underflows
        e = from_canonical(CanonicalState(x, y))
        assert e.q == pytest.approx(2.0 * x / 3.0, rel=1e-15)
        assert e.p == pytest.approx(3.0 / x, rel=1e-15)

    @pytest.mark.parametrize("q, p", [(1e200, 2e-200), (1e-200, 2e200)])
    def test_forward_where_p_squared_leaves_the_float_range(self, q, p):
        # q p = 2, so d = 3 and (x, y) = (3/p, 4/(3q)) although p^2 overflows
        # or underflows
        c = to_canonical(EpidemicState(q, p))
        assert c.x == pytest.approx(3.0 / p, rel=1e-15)
        assert c.y == pytest.approx(2.0 * p / 3.0, rel=1e-15)

    def test_round_trip_randomized(self):
        result = check_chart_round_trip(seed=11, count=1000)
        assert result.passed, result

    def test_canonicity_randomized(self):
        result = check_chart_canonicity(seed=12, count=1000)
        assert result.passed, result


class TestSisRhs:
    def test_unit_coefficients(self):
        sysc = SisSystem(CF.constant(1.0), CF.constant(1.0))
        assert sis_rhs(sysc, 0.0, EpidemicState(1.0, 1.0)) == (-1.0, 1.0)

    def test_pure_dilation(self):
        sysc = SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(0.0))
        s = EpidemicState(0.4, 2.0)
        t = 1.3
        r = sysc.rho0(t)
        dq, dp = sis_rhs(sysc, t, s)
        assert dq == pytest.approx(r * s.q, abs=1e-15)
        assert dp == pytest.approx(-r * s.p, abs=1e-15)

    def test_equilibrium_in_sharp_noise_limit(self):
        # at q = rho0 with b = 1 the density derivative is -1/p^2 -> 0
        sysc = SisSystem(CF.constant(1.0), CF.constant(1.0))
        dq, _ = sis_rhs(sysc, 0.0, EpidemicState(1.0, 1e7))
        assert abs(dq) <= 1e-12

    def test_pushforward_of_canonical_rhs(self):
        result = check_sis_pushforward(seed=13, count=100)
        assert result.passed, result


class TestSisExactSolution:
    def test_initial_time(self):
        sysc = SisSystem(CF.constant(1.0), CF.constant(1.0))
        s = sis_exact_solution(sysc, IntegrationConstants(1.0, 2.0), 0.0)
        assert s.q == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert s.p == pytest.approx(3.0, abs=1e-12)

    def test_matches_constant_rate_closed_form(self):
        sysc = SisSystem(CF.constant(1.0), CF.constant(1.0))
        c = IntegrationConstants(1.0, 2.0)
        s = sis_exact_solution(sysc, c, 1.0, tol=1e-11)
        q_ref, p_ref = closed_form_constant_rate(1.0, 1.0, 2.0, 1.0)
        assert s.q == pytest.approx(q_ref, abs=1e-9)
        assert s.p == pytest.approx(p_ref, abs=1e-9)

    def test_seasonal_matches_rk45(self):
        sysc = SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0))
        start = EpidemicState(2.0 / 3.0, 3.0)
        x0 = to_canonical(start)
        c = IntegrationConstants(x0.x, x0.y)
        evaluate = sis_solution_evaluator(sysc, c, tol=1e-10)
        times = [0.5, 1.0, 2.0]
        problem = OdeProblem(
            rhs=lambda t, v: np.array(sis_rhs(sysc, t, EpidemicState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([start.q, start.p]),
            t_end=2.0,
        )
        sol = integrate_ode(problem, IntegratorConfig(rtol=1e-10, atol=1e-12), times)
        for t, num in zip(times, sol.states):
            s = evaluate(t).state
            assert abs(s.q - num[0]) <= 1e-6
            assert abs(s.p - num[1]) <= 1e-6

    @pytest.mark.parametrize("rho0", [400.0, -400.0])
    def test_chart_range(self, rho0):
        # b = 0 keeps x y = c1 c2 = 0.5 while x = e^(rho0 t), whose square
        # overflows (rho0 = 400) or underflows (rho0 = -400) at t = 1; the
        # image is q = -2x/3, p = -0.75/x with rates (rho0 q, -rho0 p)
        sysc = SisSystem(CF.constant(rho0), CF.constant(0.0))
        jet = sis_solution_evaluator(sysc, IntegrationConstants(1.0, 0.5))(1.0)
        q, p = jet.state.q, jet.state.p
        assert q == pytest.approx(-2.0 / 3.0 * math.exp(rho0), rel=1e-9)
        assert p == pytest.approx(-0.75 * math.exp(-rho0), rel=1e-9)
        assert jet.rate[0] == pytest.approx(rho0 * q, rel=1e-9)
        assert jet.rate[1] == pytest.approx(-rho0 * p, rel=1e-9)

    def test_requires_nonzero_c1(self):
        sysc = SisSystem(CF.constant(1.0), CF.constant(1.0))
        with pytest.raises(ValueError):
            sis_exact_solution(sysc, IntegrationConstants(0.0, 1.0), 1.0)


class TestConstantRateSolution:
    def test_initial_value(self):
        s = sis_constant_solution(1.0, IntegrationConstants(1.0, 2.0), 0.0)
        assert s.q == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s.p == pytest.approx(3.0, abs=1e-15)

    def test_relaxes_to_equilibrium_density(self):
        s = sis_constant_solution(1.0, IntegrationConstants(1.0, 2.0), 30.0)
        assert abs(s.q - 1.0) <= 1e-3

    def test_matches_rk45_of_autonomous_system(self):
        sysc = SisSystem(CF.constant(1.0), CF.constant(1.0))
        problem = OdeProblem(
            rhs=lambda t, v: np.array(sis_rhs(sysc, t, EpidemicState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([2.0 / 3.0, 3.0]),
            t_end=1.0,
        )
        sol = integrate_ode(problem, IntegratorConfig(rtol=1e-10, atol=1e-12), [1.0])
        s = sis_constant_solution(1.0, IntegrationConstants(1.0, 2.0), 1.0)
        assert abs(s.q - sol.states[0][0]) <= 1e-6
        assert abs(s.p - sol.states[0][1]) <= 1e-6

    def test_specialization_chain(self):
        # general quadrature solution with constant coefficients reduces
        # to the closed form on [0, 10]
        rho0 = 0.8
        sysc = SisSystem(CF.constant(rho0), CF.constant(1.0))
        start = to_canonical(EpidemicState(0.5, 2.5))
        c = IntegrationConstants(start.x, start.y)
        evaluate = sis_solution_evaluator(sysc, c, tol=1e-12)
        for t in [0.5 * k for k in range(21)]:
            general = evaluate(t).state
            special = sis_constant_solution(rho0, c, t)
            assert abs(general.q - special.q) <= 1e-9
            assert abs(general.p - special.p) <= 1e-9

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            sis_constant_solution(0.0, IntegrationConstants(1.0, 1.0), 1.0)


class TestMoments:
    def test_zero_variance_recovers_logistic_law(self):
        rho0 = 1.4
        for mean in (0.3, 0.9, 1.4):
            dmean, dvar = moment_rhs(rho0, MomentState(mean, 0.0))
            assert dmean == pytest.approx(mean * (rho0 - mean), abs=1e-15)
            assert dvar == 0.0

    def test_variance_stationary_at_half_rate(self):
        rho0 = 1.0
        _, dvar = moment_rhs(rho0, MomentState(rho0 / 2.0, 0.3))
        assert dvar == 0.0

    def test_arithmetic_example(self):
        assert moment_rhs(1.0, MomentState(1.0, 0.25)) == (-0.25, -0.5)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(MomentDomainError):
            moment_rhs(1.0, MomentState(0.0, 0.1))

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            MomentState(1.0, -0.1)

    def test_moments_from_state(self):
        m = moments_from_state(EpidemicState(0.5, 2.0))
        assert (m.mean, m.variance) == (0.5, 0.25)
        m = moments_from_state(EpidemicState(1.0, 1.0))
        assert (m.mean, m.variance) == (1.0, 1.0)

    def test_state_round_trip(self):
        s = EpidemicState(0.7, 1.8)
        back = state_from_moments(moments_from_state(s))
        assert back.q == pytest.approx(s.q, abs=1e-15)
        assert back.p == pytest.approx(s.p, abs=1e-15)

    def test_pushforward_consistency(self):
        result = check_moment_pushforward(seed=21, count=100)
        assert result.passed, result

    def test_physicality_flag(self):
        assert EpidemicState(0.5, 2.0).is_physical
        assert not EpidemicState(-0.5, 2.0).is_physical
        assert not EpidemicState(0.5, -2.0).is_physical


class TestSisHamiltonian:
    def test_matches_autonomous_form(self):
        sysc = SisSystem(CF.constant(2.0), CF.constant(1.0))
        s = EpidemicState(1.0, 1.0)
        value = sis_hamiltonian(sysc, 0.0, s)
        assert value == pytest.approx(2.0, abs=1e-15)
        rho0 = 2.0
        autonomous = s.q * s.p * (rho0 - s.q) + 1.0 / s.p
        assert value == pytest.approx(autonomous, abs=1e-15)

    def test_zero_density(self):
        sysc = SisSystem(CF.constant(3.7), CF.constant(1.0))
        assert sis_hamiltonian(sysc, 0.0, EpidemicState(0.0, 1.0)) == 1.0

    def test_cross_evaluation_through_chart(self):
        rng = random.Random(31)
        sysc = SisSystem(CF.from_text("1 + 0.3*sin(t)"), CF.from_text("0.5 + 0.1*cos(t)"))
        book = BookSystem(sysc.rho0, sysc.b, sysc.a)
        for _ in range(100):
            s = random_epidemic_state(rng, locus_margin=0.1)
            t = rng.uniform(0.0, 4.0)
            here = sis_hamiltonian(sysc, t, s)
            there = canonical_hamiltonian(book, t, to_canonical(s))
            assert here == pytest.approx(there, rel=1e-11, abs=1e-11)

    def test_canonical_equations_consistency(self):
        result = check_hamiltonian_consistency(seed=41, count=200)
        assert result.passed, result


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(q, p):
    if abs(q) < 0.05 or abs(p) < 0.1 or abs(q * q * p * p - 1.0) < 0.05:
        return
    s = EpidemicState(q, p)
    back = from_canonical(to_canonical(s))
    scale = max(1.0, abs(q), abs(p))
    assert abs(back.q - q) <= 1e-12 * scale
    assert abs(back.p - p) <= 1e-12 * scale

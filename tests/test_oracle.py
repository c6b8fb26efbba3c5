import math

import numpy as np
import pytest

from booksis.canonical import BookSystem, CanonicalState, rhs
from booksis.deformed import DeformedBookSystem, deformed_rhs
from booksis.errors import StepLimitError, StepSizeUnderflowError
from booksis.oracle import IntegratorConfig, OdeProblem, integrate_ode
from booksis.timefn import CoefficientFunction as CF


def exponential_problem(t_end=1.0):
    return OdeProblem(
        rhs=lambda t, y: y.copy(), t0=0.0, state0=np.array([1.0]), t_end=t_end
    )


class TestBasics:
    def test_constant_solution_is_exact(self):
        problem = OdeProblem(
            rhs=lambda t, y: np.zeros_like(y),
            t0=0.0,
            state0=np.array([2.5, -1.0]),
            t_end=5.0,
        )
        for config in (IntegratorConfig(), IntegratorConfig(method="fixed", step=0.1)):
            sol = integrate_ode(problem, config, [0.0, 1.3, 5.0])
            for row in sol.states:
                assert row[0] == 2.5
                assert row[1] == -1.0

    def test_exponential_growth(self):
        sol = integrate_ode(exponential_problem(), IntegratorConfig(rtol=1e-10), [1.0])
        assert abs(sol.states[0][0] - math.e) <= 1e-9

    def test_book_system_closed_form(self):
        sysb = BookSystem(CF.constant(1.0), CF.constant(1.0), 0.0)
        problem = OdeProblem(
            rhs=lambda t, v: np.array(rhs(sysb, t, CanonicalState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([1.0, 1.0]),
            t_end=1.0,
        )
        sol = integrate_ode(problem, IntegratorConfig(rtol=1e-10, atol=1e-12), [1.0])
        assert abs(sol.states[0][0] - math.e) <= 1e-8
        assert abs(sol.states[0][1] - 1.0) <= 1e-8

    def test_dense_output_between_steps(self):
        # interpolated samples follow the analytic exponential closely
        sol = integrate_ode(
            exponential_problem(),
            IntegratorConfig(rtol=1e-10, atol=1e-12),
            [0.05 * k for k in range(21)],
        )
        for t, row in zip(sol.times, sol.states):
            assert abs(row[0] - math.exp(t)) <= 1e-7  # interp is O(h^4)

    def test_sample_at_t0_and_t_end(self):
        sol = integrate_ode(exponential_problem(), IntegratorConfig(), [0.0, 1.0])
        assert sol.states[0][0] == 1.0
        assert abs(sol.states[1][0] - math.e) <= 1e-9

    def test_stats_reported(self):
        sol = integrate_ode(exponential_problem(), IntegratorConfig(), [1.0])
        assert sol.stats["steps"] > 0
        assert sol.stats["rhs_evals"] > 0


class TestValidation:
    def test_unsorted_samples_rejected(self):
        with pytest.raises(ValueError):
            integrate_ode(exponential_problem(), IntegratorConfig(), [0.5, 0.2])

    def test_out_of_range_samples_rejected(self):
        with pytest.raises(ValueError):
            integrate_ode(exponential_problem(), IntegratorConfig(), [0.0, 2.0])

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="leapfrog")

    @pytest.mark.parametrize("field", ["rtol", "atol", "step", "max_step", "max_steps"])
    def test_nan_setting_rejected(self, field):
        # NaN <= 0 is False, so a sign test alone lets NaN through
        with pytest.raises(ValueError):
            IntegratorConfig(**{field: math.nan})

    def test_unbounded_max_step_accepted(self):
        sol = integrate_ode(exponential_problem(), IntegratorConfig(max_step=math.inf), [1.0])
        assert sol.states[0][0] == pytest.approx(math.e, rel=1e-9)

    def test_reversed_time_rejected(self):
        with pytest.raises(ValueError):
            OdeProblem(rhs=lambda t, y: y, t0=1.0, state0=np.array([1.0]), t_end=0.0)

    def test_step_limit(self):
        with pytest.raises(StepLimitError):
            integrate_ode(
                exponential_problem(),
                IntegratorConfig(method="fixed", step=1e-5, max_steps=100),
                [1.0],
            )


class TestFixedStepConvergence:
    def test_fourth_order(self):
        # halving the step shrinks the error by 16 (within 15%)
        def error(step):
            sol = integrate_ode(
                exponential_problem(),
                IntegratorConfig(method="fixed", step=step),
                [1.0],
            )
            return abs(sol.states[0][0] - math.e)

        e1 = error(0.02)
        e2 = error(0.01)
        assert 16.0 * 0.85 <= e1 / e2 <= 16.0 * 1.15


class TestMethodAgreement:
    @pytest.mark.parametrize(
        "ba, bb",
        [(1.0, 1.0), (0.5, -0.3), (-0.4, 0.8)],
    )
    def test_adaptive_and_fixed_agree(self, ba, bb):
        sysb = BookSystem(CF.constant(ba), CF.constant(bb), 0.0)
        problem = OdeProblem(
            rhs=lambda t, v: np.array(rhs(sysb, t, CanonicalState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([1.0, 0.5]),
            t_end=3.0,
        )
        times = [0.5 * k for k in range(7)]
        adaptive = integrate_ode(problem, IntegratorConfig(), times)
        fixed = integrate_ode(
            problem, IntegratorConfig(method="fixed", step=0.001), times
        )
        # bounded by the adaptive method's dense-output error
        assert np.max(np.abs(adaptive.states - fixed.states)) <= 5e-8


class TestSingularityApproach:
    def test_validity_boundary_triggers_step_underflow(self):
        # dx/dt = e^{zx}-1 over z with x(0) chosen so the solution blows up
        # at t = ln 2; integrating across it must fail loudly
        sysd = DeformedBookSystem(
            BookSystem(CF.constant(1.0), CF.constant(1.0), 0.0), 1.0
        )
        x0 = -math.log(1.0 - 0.5) / 1.0  # c1 = 0.5, window ends at ln 2
        problem = OdeProblem(
            rhs=lambda t, v: np.array(
                deformed_rhs(sysd, t, CanonicalState(v[0], v[1]))
            ),
            t0=0.0,
            state0=np.array([x0, 1.0]),
            t_end=1.0,
        )
        with pytest.raises(StepSizeUnderflowError) as err:
            integrate_ode(problem, IntegratorConfig(), [1.0])
        assert err.value.last_time <= math.log(2.0)
        assert err.value.last_time >= 0.6


class TestHermiteSampling:
    def test_fixed_step_interpolation(self):
        sol = integrate_ode(
            exponential_problem(),
            IntegratorConfig(method="fixed", step=0.02),
            [0.01, 0.15, 0.333, 0.95],
        )
        for t, row in zip(sol.times, sol.states):
            assert abs(row[0] - math.exp(t)) <= 1e-7

    def test_duplicate_sample_times(self):
        sol = integrate_ode(
            exponential_problem(), IntegratorConfig(), [0.5, 0.5, 1.0]
        )
        assert sol.states[0][0] == sol.states[1][0]


class TestSharedSampler:
    """One driver places the samples of both steppers."""

    STATS_KEYS = {
        "adaptive": ["steps", "rejected", "rhs_evals"],
        "fixed": ["steps", "rhs_evals"],
    }

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    def test_zero_span_returns_state0(self, method):
        state0 = np.array([0.1, -1.0 / 3.0])
        problem = OdeProblem(rhs=lambda t, y: y.copy(), t0=0.7, state0=state0, t_end=0.7)
        # the last sample lies in the 1e-12 slack past t_end
        sol = integrate_ode(problem, IntegratorConfig(method=method), [0.7, 0.7, 0.7 + 1e-13])
        for row in sol.states:
            assert row.tobytes() == state0.tobytes()
        assert sol.stats["steps"] == 0
        assert list(sol.stats) == self.STATS_KEYS[method]

    @pytest.mark.parametrize("span", [1e-15, 5e-324])
    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    def test_span_below_minimum_step(self, method, span):
        # the span is shorter than the adaptive method's minimum step of
        # 16 ulp(1); one step lands on t_end.  The sample at t_end is read
        # on that step, not on the zero-length step at t0, although it
        # lies within round-off of t0
        sol = integrate_ode(exponential_problem(span), IntegratorConfig(method=method),
                            [0.0, span])
        assert sol.states[0][0] == 1.0
        assert sol.states[1][0] == math.exp(span)
        assert sol.stats["steps"] == 1

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    def test_sample_at_t0_is_state0(self, method):
        problem = exponential_problem()
        sol = integrate_ode(problem, IntegratorConfig(method=method), [0.0, 0.0, 0.5, 1.0])
        assert sol.states[0].tobytes() == problem.state0.tobytes()
        assert sol.states[1].tobytes() == problem.state0.tobytes()
        assert sol.stats["steps"] > 0
        assert list(sol.stats) == self.STATS_KEYS[method]

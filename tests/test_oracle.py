import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booksis import oracle as oracle_module
from booksis.canonical import BookSystem, CanonicalState, rhs
from booksis.deformed import DeformedBookSystem, deformed_rhs
from booksis.errors import (
    BooksisError,
    NonFiniteSampleError,
    StepLimitError,
    StepSizeUnderflowError,
)
from booksis.oracle import IntegratorConfig, OdeProblem, integrate_ode
from booksis.sis import EpidemicState, SisSystem, sis_rhs
from booksis.timefn import CoefficientFunction as CF


def exponential_problem(t_end=1.0):
    return OdeProblem(
        rhs=lambda t, y: y, t0=0.0, state0=np.array([1.0]), t_end=t_end
    )


def oscillator_problem(t_end):
    # y'' = -y, y(0) = 1, y'(0) = 0 as a first-order system
    return OdeProblem(rhs=lambda t, y: (y[1], -y[0]), t0=0.0,
                      state0=np.array([1.0, 0.0]), t_end=t_end)


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
        assert np.max(np.abs(np.asarray(adaptive.states) - np.asarray(fixed.states))) <= 5e-8


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


class TestDenseOutput:
    def test_adaptive_samples_are_fourth_order(self):
        # one period of y'' = -y at a loose tolerance, so the step cap sets
        # the steps; halving it shrinks the sampling error by about 2^5 for
        # the pair's continuous extension, 2^4 for cubic Hermite
        t_end = 2.0 * math.pi
        problem = oscillator_problem(t_end)
        times = [t_end * i / 997 for i in range(998)]
        exact = np.array([[math.cos(t), -math.sin(t)] for t in times])

        def error(max_step):
            config = IntegratorConfig(rtol=1e-3, atol=1e-6, max_step=max_step)
            sol = integrate_ode(problem, config, times)
            return float(np.max(np.abs(sol.states - exact)))

        coarse, fine = error(0.1), error(0.05)
        assert coarse / fine >= 24.0
        assert fine <= 2e-9

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    def test_samples_never_change_the_steps(self, method):
        t_end = 3.0
        problem = oscillator_problem(t_end)
        config = IntegratorConfig(method=method, step=0.01)
        alone = integrate_ode(problem, config, [t_end])
        dense = integrate_ode(problem, config, [t_end * i / 500 for i in range(500)] + [t_end])
        assert dense.stats == alone.stats
        assert np.asarray(dense.states[-1]).tobytes() == np.asarray(alone.states[0]).tobytes()


class TestSharedSampler:
    """One driver places the samples of both steppers."""

    STATS_KEYS = {
        "adaptive": ["steps", "rejected", "rhs_evals"],
        "fixed": ["steps", "rhs_evals"],
    }

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    def test_zero_span_returns_state0(self, method):
        state0 = np.array([0.1, -1.0 / 3.0])
        problem = OdeProblem(rhs=lambda t, y: y, t0=0.7, state0=state0, t_end=0.7)
        # the last sample lies in the 1e-12 slack past t_end
        sol = integrate_ode(problem, IntegratorConfig(method=method), [0.7, 0.7, 0.7 + 1e-13])
        for row in sol.states:
            assert np.asarray(row).tobytes() == state0.tobytes()
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
        assert np.asarray(sol.states[0]).tobytes() == np.asarray(problem.state0).tobytes()
        assert np.asarray(sol.states[1]).tobytes() == np.asarray(problem.state0).tobytes()
        assert sol.stats["steps"] > 0
        assert list(sol.stats) == self.STATS_KEYS[method]


def _oscillator():
    # ten periods of y'' = -y
    t_end = 20.0 * math.pi
    problem = oscillator_problem(t_end)
    configs = {"adaptive": IntegratorConfig(max_step=0.02),
               "fixed": IntegratorConfig(method="fixed", step=0.02)}
    times = [t_end * k / 8 for k in range(9)] + [t_end]
    return problem, configs, times


def _seasonal_sis():
    sys_ = SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0), 0.0)
    problem = OdeProblem(
        rhs=lambda t, v: sis_rhs(sys_, t, EpidemicState(v[0], v[1])),
        t0=0.0, state0=np.array([2.0 / 3.0, 3.0]), t_end=5.0,
    )
    configs = {"adaptive": IntegratorConfig(max_step=0.02),
               "fixed": IntegratorConfig(method="fixed", step=0.01)}
    return problem, configs, [0.0, 0.013, 0.5, 1.7, 2.5, 3.333, 4.99, 5.0]


def _tight_rtol():
    # a fast relaxation onto cos(t); the tight tolerance makes the
    # controller reject steps
    problem = OdeProblem(rhs=lambda t, y: (-50.0 * (y[0] - math.cos(t)),),
                         t0=0.0, state0=np.array([2.0]), t_end=2.0)
    configs = {"adaptive": IntegratorConfig(rtol=1e-12, atol=1e-14),
               "fixed": IntegratorConfig(method="fixed", step=0.01)}
    return problem, configs, [0.0, 0.01, 0.05, 0.3, 1.0, 1.234, 2.0]


def _quadratic_blowup():
    # y' = y^2, y(0) = 1 blows up at t = 1
    problem = OdeProblem(rhs=lambda t, y: (y[0] * y[0],), t0=0.0,
                         state0=np.array([1.0]), t_end=2.0)
    configs = {"adaptive": IntegratorConfig(),
               "fixed": IntegratorConfig(method="fixed", step=0.01)}
    return problem, configs, [0.5, 2.0]


def _nan_trap():
    # every rhs value is finite, but on the first attempted step (h = 10)
    # the stages at t = 3 and t = 8 add +inf and -inf into y_new, which
    # becomes NaN while the error estimate stays finite
    def g(t, y):
        if t == 3.0:
            return (1e308,)
        if t == 8.0:
            return (-1e308,)
        return (1e167 * (1.0 + 0.5 * math.sin(t)),)

    problem = OdeProblem(rhs=g, t0=0.0, state0=np.array([2e170]), t_end=10.0)
    configs = {"adaptive": IntegratorConfig(rtol=1e-3),
               "fixed": IntegratorConfig(method="fixed", step=0.5)}
    return problem, configs, [0.0, 1.0, 2.5, 5.0, 7.7, 10.0]


def _pin(case, method):
    """The bits of one run: every sampled state and the stats, or the
    error type, its last_time and its message."""
    problem, configs, times = case()
    # numpy warns on overflow where Python floats do not; the pinned
    # values are the same either way
    with np.errstate(all="ignore"):
        try:
            sol = integrate_ode(problem, configs[method], times)
        except BooksisError as exc:
            return {"error": type(exc).__name__,
                    "last_time": float(exc.last_time).hex(),
                    "message": str(exc)}
    return {"states": [[float(v).hex() for v in row] for row in sol.states],
            "stats": dict(sol.stats)}


class TestBitPin:
    """Every output bit of both steppers, recorded from the numpy-array
    implementation: a change to the oracle's arithmetic order or
    precision shows here."""

    CASES = {
        "oscillator": _oscillator,
        "seasonal_sis": _seasonal_sis,
        "tight_rtol": _tight_rtol,
        "quadratic_blowup": _quadratic_blowup,
        "nan_trap": _nan_trap,
    }

    EXPECTED = {
        ("oscillator", "adaptive"): {
            "states": [
                ["0x1.0000000000000p+0", "0x0.0p+0"],
                ["-0x1.91d5000000000p-41", "-0x1.fffffffff0be9p-1"],
                ["-0x1.ffffffffe16b9p-1", "0x1.d837080000000p-41"],
                ["0x1.3beb400000000p-40", "0x1.ffffffffd21a8p-1"],
                ["0x1.ffffffffc2cc9p-1", "-0x1.b525800000000p-40"],
                ["-0x1.c666800000000p-41", "-0x1.ffffffffb3816p-1"],
                ["-0x1.ffffffffa436bp-1", "0x1.1130000000000p-46"],
                ["-0x1.8ad9c00000000p-41", "0x1.ffffffff94eddp-1"],
                ["0x1.ffffffff858e7p-1", "0x1.3dd1c80000000p-39"],
                ["0x1.ffffffff858e7p-1", "0x1.3dd1c80000000p-39"],
            ],
            "stats": {"steps": 3147, "rejected": 0, "rhs_evals": 18883},
        },
        ("oscillator", "fixed"): {
            "states": [
                ["0x1.0000000000000p+0", "0x0.0p+0"],
                ["0x1.67a14d5d40000p-27", "-0x1.fffffffc7d55dp-1"],
                ["-0x1.fffffff96d4cep-1", "-0x1.67939092e0000p-26"],
                ["-0x1.0dab3d0c7c000p-25", "0x1.fffffff97e738p-1"],
                ["0x1.fffffffa01dd1p-1", "0x1.67938f4700000p-25"],
                ["0x1.c17be07740000p-25", "-0x1.fffffff67f32ap-1"],
                ["-0x1.fffffff36f290p-1", "-0x1.0daead3cc0000p-24"],
                ["-0x1.3a9f67be02000p-24", "0x1.fffffff3804efp-1"],
                ["0x1.fffffff403b85p-1", "0x1.6793902000000p-24"],
                ["0x1.fffffff403b85p-1", "0x1.6793902000000p-24"],
            ],
            "stats": {"steps": 3142, "rhs_evals": 12569},
        },
        ("seasonal_sis", "adaptive"): {
            "states": [
                ["0x1.5555555555555p-1", "0x1.8000000000000p+1"],
                ["0x1.5616c12b46738p-1", "0x1.81a89e215496cp+1"],
                ["0x1.881e0c06cb336p-1", "0x1.bd4045de4d8dcp+1"],
                ["0x1.35976c173c18bp+0", "0x1.abc42586f5b4cp+2"],
                ["0x1.54265cef2ec56p+0", "0x1.103ea30bf3a70p+4"],
                ["0x1.2a42c4003478bp+0", "0x1.bcf3c0e3e367ap+5"],
                ["0x1.6e59ba2bc38cbp-1", "0x1.9c969a7633dd8p+8"],
                ["0x1.6da305bcc19e2p-1", "0x1.a05bf756b899cp+8"],
            ],
            "stats": {"steps": 251, "rejected": 0, "rhs_evals": 1507},
        },
        ("seasonal_sis", "fixed"): {
            "states": [
                ["0x1.5555555555555p-1", "0x1.8000000000000p+1"],
                ["0x1.5616c12b38774p-1", "0x1.81a89e212cf89p+1"],
                ["0x1.881e0c06abb14p-1", "0x1.bd4045de21146p+1"],
                ["0x1.35976c16fcf11p+0", "0x1.abc42586752cfp+2"],
                ["0x1.54265ceec1a74p+0", "0x1.103ea30a5fec9p+4"],
                ["0x1.2a42c3ffeeeadp+0", "0x1.bcf3c0dd7640bp+5"],
                ["0x1.6e59ba2bc4c57p-1", "0x1.9c969a6c70e50p+8"],
                ["0x1.6da305bcc273ap-1", "0x1.a05bf74cdd58ep+8"],
            ],
            "stats": {"steps": 500, "rhs_evals": 2001},
        },
        ("tight_rtol", "adaptive"): {
            "states": [
                ["0x1.0000000000000p+1"],
                ["0x1.9b451bf191024p+0"],
                ["0x1.14db14f1f6762p+0"],
                ["0x1.ebf6374e03052p-1"],
                ["0x1.1d232be51a145p-1"],
                ["0x1.659527898541ap-2"],
                ["-0x1.975958b370ab7p-2"],
            ],
            "stats": {"steps": 1506, "rejected": 3, "rhs_evals": 9055},
        },
        ("tight_rtol", "fixed"): {
            "states": [
                ["0x1.0000000000000p+1"],
                ["0x1.9b54d8d0cd1adp+0"],
                ["0x1.14e5b9bb0c7d4p+0"],
                ["0x1.ebf62cb408e4ap-1"],
                ["0x1.1d23258d51fcbp-1"],
                ["0x1.65951f9ef4138p-2"],
                ["-0x1.975950368766ap-2"],
            ],
            "stats": {"steps": 200, "rhs_evals": 801},
        },
        ("quadratic_blowup", "adaptive"): {
            "error": "StepSizeUnderflowError",
            "last_time": "0x1.ffffffffdcc3cp-1",
            "message": "step size 3.494457006865965e-15 underflowed below "
                       "3.552713678800501e-15 (last good time 0.9999999999839768)",
        },
        ("quadratic_blowup", "fixed"): {
            "error": "NonFiniteRhsError",
            "last_time": "0x1.028f5c28f5c29p+0",
            "message": "rhs returned non-finite values (last good time 1.01)",
        },
        ("nan_trap", "adaptive"): {
            "states": [
                ["0x1.a7f5245e5a2cfp+565"],
                ["0x1.a83becd88c64cp+565"],
                ["0x1.a8afed811aa03p+565"],
                ["0x1.a9179030f540fp+565"],
                ["0x1.a9ac2371eeb3fp+565"],
                ["0x1.aa43be9d83313p+565"],
            ],
            "stats": {"steps": 2, "rejected": 1, "rhs_evals": 19},
        },
        ("nan_trap", "fixed"): {
            "states": [
                ["0x1.a7f5245e5a2cfp+565"],
                ["0x1.a837e1cbe1979p+565"],
                ["0x1.a8adae358f7edp+565"],
                ["0x1.7bbef5d3a60d5p+1020"],
                ["0x1.a647092ad75ebp+1020"],
                ["0x1.5f542d3587c9bp+555"],
            ],
            "stats": {"steps": 20, "rhs_evals": 81},
        },
    }

    @pytest.mark.parametrize("method", ["adaptive", "fixed"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_bits(self, name, method):
        assert _pin(self.CASES[name], method) == self.EXPECTED[name, method]

    def test_cases_reach_their_branches(self):
        assert self.EXPECTED["tight_rtol", "adaptive"]["stats"]["rejected"] > 0
        assert self.EXPECTED["quadratic_blowup", "adaptive"]["error"] == \
            "StepSizeUnderflowError"
        assert self.EXPECTED["nan_trap", "adaptive"]["stats"]["rejected"] > 0


def _hex(values):
    """Floats, and nested tuples and lists of them, by float.hex."""
    if values is None:
        return None
    if isinstance(values, float):
        return values.hex()
    return [_hex(v) for v in values]


def _steps(stepper, problem, config):
    """Every step ``stepper`` yields by float.hex, its stats and the error
    it raised (type, message and last_time)."""
    stats = {"steps": 0, "rejected": 0, "rhs_evals": 0}
    steps, error = [], None
    try:
        for step in stepper(problem, config, stats):
            steps.append(_hex(step))
    except (BooksisError, ValueError) as exc:
        error = (type(exc).__name__, str(exc), getattr(exc, "last_time", None))
    return steps, stats, error


# (trap mode, what the rhs does inside the trap window)
_TRAPS = {
    "none": None,
    "inf": lambda f: (f[0], math.inf),
    "nan": lambda f: (math.nan, f[1]),
    "overflow": OverflowError("trap"),
    "domain": NonFiniteSampleError("trap"),
    "value": ValueError("trap"),
    "short": lambda f: (f[0],),
    "long": lambda f: (*f, 0.0),
}


@st.composite
def _pair_problems(draw):
    """A linear or logistic two-component system, with a trap window in
    which the rhs raises or returns a non-finite value or the wrong
    dimension, returned as a tuple, a list or a numpy array."""
    coefficient = st.floats(-4.0, 4.0)
    a, b, c, d, g = (draw(coefficient) for _ in range(5))
    logistic = draw(st.booleans())
    trap = _TRAPS[draw(st.sampled_from(list(_TRAPS)))]
    lo = draw(st.floats(0.0, 3.0))
    hi = lo + draw(st.floats(0.0, 0.5))
    wrap = draw(st.sampled_from([tuple, list, np.array]))

    def field(t, y):
        u, v = y
        if logistic:
            f = (a * u * (1.0 - u) + b * v, c * v * (1.0 - v) - d * u + g * math.sin(t))
        else:
            f = (a * u + b * v + g * math.cos(t), c * u + d * v)
        if trap is not None and lo <= t <= hi:
            if isinstance(trap, Exception):
                raise trap
            f = trap(f)
        return wrap(f)

    state0 = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    problem = OdeProblem(rhs=field, t0=0.0, state0=state0,
                         t_end=draw(st.floats(0.0, 4.0)))
    config = IntegratorConfig(
        rtol=draw(st.floats(1e-12, 1e-3)), atol=draw(st.floats(1e-14, 1e-3)),
        max_step=draw(st.one_of(st.just(math.inf), st.floats(0.01, 2.0))),
        max_steps=300)
    return problem, config


@settings(max_examples=200, deadline=None)
@given(_pair_problems())
def test_two_component_stepper_matches_the_general_loop(case):
    # the straight-line stepper takes the general loop's steps with the
    # same bits: every yielded state, derivative and continuous-extension
    # coefficient, the stats, and any error it raises
    problem, config = case
    assert _steps(oracle_module._integrate_pair, problem, config) == \
        _steps(oracle_module._integrate_adaptive, problem, config)


def test_two_component_states_take_the_straight_line_stepper(monkeypatch):
    taken = []
    pair = oracle_module._integrate_pair
    monkeypatch.setattr(oracle_module, "_integrate_pair",
                        lambda *args: taken.append(1) or pair(*args))
    integrate_ode(oscillator_problem(1.0), IntegratorConfig(), [1.0])
    integrate_ode(exponential_problem(), IntegratorConfig(), [1.0])
    assert taken == [1]


def test_oracle_imports_only_errors_from_the_package():
    # the oracle checks the closed forms only while it shares no code
    # with them
    tree = ast.parse(Path(oracle_module.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            package += [a.name for a in node.names if a.name.split(".")[0] == "booksis"]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0:
                package.append("." * node.level + (node.module or ""))
            elif node.module.split(".")[0] == "booksis":
                package.append(node.module)
    assert package == [".errors"]

import math
import random

import numpy as np
import pytest

from booksis.canonical import (
    BookSystem,
    CanonicalState,
    IntegrationConstants,
    exact_solution,
    field_a,
    field_b,
    fit_constants,
    hamiltonian,
    hamiltonian_a,
    hamiltonian_b,
    poisson_bracket,
    rhs,
    solution_evaluator,
    vf_commutator,
)
from booksis.invariants import (
    check_bracket_book,
    check_commutator_book,
    check_solution_residual,
    check_solution_symplectic,
    order_or_floor,
    random_book_system,
    random_constants,
    run_check,
)
from booksis.oracle import IntegratorConfig, OdeProblem, integrate_ode
from booksis.timefn import CoefficientFunction as CF


def const_system(ba, bb, a=0.0):
    return BookSystem(CF.constant(ba), CF.constant(bb), a)


class TestHamiltonian:
    def test_unit_coefficients(self):
        assert hamiltonian(const_system(1, 1), 0.3, CanonicalState(1, 2)) == 1.0

    def test_vanishes_at_x_zero(self):
        sysb = const_system(2.5, -1.7)
        for y in (-3.0, 0.0, 4.2):
            assert hamiltonian(sysb, 1.0, CanonicalState(0.0, y)) == 0.0

    def test_translation_only(self):
        assert hamiltonian(const_system(0, 3), 0.0, CanonicalState(2, 5)) == -6.0


class TestRhs:
    def test_zero_coefficients(self):
        assert rhs(const_system(0, 0), 1.0, CanonicalState(3.3, -2.1)) == (0.0, 0.0)

    def test_dilation_only(self):
        assert rhs(const_system(1, 0), 0.0, CanonicalState(2, 3)) == (2.0, -3.0)

    def test_unit_coefficients(self):
        assert rhs(const_system(1, 1), 0.0, CanonicalState(1, 1)) == (1.0, 0.0)


class TestExactSolution:
    def test_initial_time_returns_constants(self):
        sysb = BookSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0), 0.0)
        s = exact_solution(sysb, IntegrationConstants(1.25, -0.5), 0.0)
        assert s.x == 1.25
        assert s.y == -0.5

    def test_zero_coefficients_frozen(self):
        sysb = const_system(0, 0)
        for t in (0.0, 1.0, 7.5, -2.0):
            s = exact_solution(sysb, IntegrationConstants(0.7, -1.3), t)
            assert s.x == pytest.approx(0.7, abs=1e-12)
            assert s.y == pytest.approx(-1.3, abs=1e-12)

    def test_unit_coefficients_closed_form(self):
        s = exact_solution(const_system(1, 1), IntegrationConstants(1, 1), 1.0)
        # x = e^t; y = (1 + (e^t - 1)) e^{-t} = 1
        assert s.x == pytest.approx(math.e, abs=1e-10)
        assert s.y == pytest.approx(1.0, abs=1e-10)

    def test_seasonal_matches_rk45(self):
        sysb = BookSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0), 0.0)
        c = IntegrationConstants(1.0, 1.0)
        s = exact_solution(sysb, c, 2.0, tol=1e-10)
        problem = OdeProblem(
            rhs=lambda t, v: np.array(rhs(sysb, t, CanonicalState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([1.0, 1.0]),
            t_end=2.0,
        )
        sol = integrate_ode(problem, IntegratorConfig(rtol=1e-10, atol=1e-12), [2.0])
        assert abs(s.x - sol.states[0][0]) <= 1e-6
        assert abs(s.y - sol.states[0][1]) <= 1e-6


class TestFitConstants:
    def test_read_off(self):
        sysb = const_system(1, 1)
        c = fit_constants(sysb, 0.0, CanonicalState(1, 2))
        assert (c.c1, c.c2) == (1.0, 2.0)

    def test_zero_x_branch(self):
        sysb = const_system(1, 0)
        c = fit_constants(sysb, 0.0, CanonicalState(0, 5))
        assert (c.c1, c.c2) == (0.0, 5.0)
        for t in (0.5, 2.0):
            assert exact_solution(sysb, c, t).x == 0.0

    def test_negative(self):
        c = fit_constants(const_system(1, 1), 0.0, CanonicalState(-1, 0))
        assert (c.c1, c.c2) == (-1.0, 0.0)

    def test_rejects_mismatched_base_point(self):
        with pytest.raises(ValueError):
            fit_constants(const_system(1, 1, a=0.0), 1.0, CanonicalState(1, 1))


class TestPoissonBracket:
    def test_generator_relation_pointwise(self):
        s = CanonicalState(1, 2)
        bracket = poisson_bracket(hamiltonian_a, hamiltonian_b, s, 1e-5)
        assert bracket == pytest.approx(-hamiltonian_b(s), abs=1e-9)
        assert bracket == pytest.approx(s.x, abs=1e-9)

    def test_antisymmetry_diagonal(self):
        f = hamiltonian_a
        assert poisson_bracket(f, f, CanonicalState(0.3, -1.7), 1e-5) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_canonical_pair(self):
        assert poisson_bracket(
            lambda s: s.x, lambda s: s.y, CanonicalState(3, -4), 1e-5
        ) == pytest.approx(1.0, abs=1e-10)


class TestCommutator:
    def test_generator_relation(self):
        lie = vf_commutator(field_a, field_b, CanonicalState(1, 1), 1e-5)
        assert lie[0] == pytest.approx(0.0, abs=1e-9)
        assert lie[1] == pytest.approx(1.0, abs=1e-9)

    def test_self_commutator_vanishes(self):
        for field in (field_a, field_b):
            lie = vf_commutator(field, field, CanonicalState(0.7, -0.2), 1e-5)
            assert max(abs(lie[0]), abs(lie[1])) <= 1e-10


class TestInvariants:
    @pytest.mark.parametrize("count", [0, -5])
    def test_run_check_rejects_count(self, count):
        # a check that samples nothing must not report PASS
        with pytest.raises(ValueError):
            run_check("solution-symplectic", 0, count)

    def test_solution_residual_on_random_scenarios(self):
        result = check_solution_residual(seed=7, count=100)
        assert result.passed, result

    def test_bracket_defect_and_floor_order(self):
        r1 = check_bracket_book(seed=1, count=1000, h=1e-5)
        r2 = check_bracket_book(seed=1, count=1000, h=5e-6)
        assert r1.passed and r2.passed
        order, meaningful = order_or_floor(r1.max_defect, r2.max_defect)
        # the bracket of these generators is stencil-exact: both defects
        # sit at the round-off floor, so the order test passes vacuously
        assert (not meaningful) or order >= 1.9

    def test_commutator_defect(self):
        r = check_commutator_book(seed=2, count=1000, h=1e-5)
        assert r.passed, r

    def test_flow_is_symplectic(self):
        result = check_solution_symplectic(seed=3, count=25)
        assert result.passed, result

    def test_exact_solution_vs_both_integrators(self):
        rng = random.Random(99)
        for _ in range(5):
            sysb = random_book_system(rng)
            constants = random_constants(rng)
            evaluate = solution_evaluator(sysb, constants, tol=1e-10)
            times = [0.5 * k for k in range(1, 11)]
            exact = [evaluate(t) for t in times]
            problem = OdeProblem(
                rhs=lambda t, v: np.array(rhs(sysb, t, CanonicalState(v[0], v[1]))),
                t0=0.0,
                state0=np.array([constants.c1, constants.c2]),
                t_end=times[-1],
            )
            for config in (
                IntegratorConfig(method="adaptive", rtol=1e-10, atol=1e-12),
                IntegratorConfig(method="fixed", step=0.0025),
            ):
                sol = integrate_ode(problem, config, times)
                for s, num in zip(exact, sol.states):
                    assert abs(s.x - num[0]) <= 1e-6
                    assert abs(s.y - num[1]) <= 1e-6

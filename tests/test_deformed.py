import decimal
import math
import os
import random
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import booksis
from booksis import canonical
from booksis.canonical import (
    BookIntegrals,
    BookSystem,
    CanonicalState,
    IntegrationConstants,
    exact_solution,
    rhs as classical_rhs,
    solution_evaluator,
)
from booksis.deformed import (
    DeformedBookSystem,
    DeformedSisSystem,
    deformed_commutator_defect,
    deformed_exact_solution,
    deformed_fit_constants,
    deformed_hamiltonian,
    deformed_hamiltonian_a,
    deformed_hamiltonian_b,
    deformed_poisson_bracket_defect,
    deformed_rhs,
    deformed_sis_exact_solution,
    deformed_sis_hamiltonians,
    deformed_sis_rhs,
    deformed_sis_solution_evaluator,
    deformed_solution_evaluator,
    expm1_over,
    perturbed_rhs_first_order,
    validity_window,
)
from booksis.errors import (
    BooksisError,
    EvaluationDomainError,
    ExpOverflowError,
    SingularLocusError,
    ValidityWindowError,
)
from booksis.invariants import (
    check_bracket_deformed,
    check_commutator_deformed,
    random_epidemic_state,
)
from booksis.oracle import IntegratorConfig, OdeProblem, integrate_ode
from booksis.quadrature import CHEBYSHEV_NODES, integrate
from booksis.sis import (
    EpidemicState,
    SisSystem,
    from_canonical,
    sis_constant_jet,
    sis_rhs,
    sis_solution_evaluator,
    to_canonical,
)
from booksis.timefn import CoefficientFunction as CF


def book(ba, bb, a=0.0):
    return BookSystem(CF.constant(ba), CF.constant(bb), a)


def deformed_book(ba, bb, z, a=0.0):
    return DeformedBookSystem(book(ba, bb, a), z)


class TestKernel:
    def test_exact_at_zero(self):
        assert expm1_over(0.0, 2.5) == 2.5
        assert expm1_over(0.0, -1.0) == -1.0

    def test_matches_direct_at_moderate_arguments(self):
        for z in (0.1, -0.5, 1.0, 2.0):
            for x in (0.3, -1.2, 2.0):
                direct = (math.exp(z * x) - 1.0) / z
                assert expm1_over(z, x) == pytest.approx(direct, rel=1e-14)

    def test_small_z_matches_series(self):
        x = 1.7
        for z in (1e-9, 1e-11, 1e-13, -1e-10):
            series = x * (1.0 + z * x / 2.0 + (z * x) ** 2 / 6.0)
            assert expm1_over(z, x) == pytest.approx(series, rel=1e-14)

    def test_branch_sides_agree_with_long_series(self):
        # both branches match the w^3 series near the switch point, so the
        # kernel has no jump there
        x = 3.0
        for w in (0.9e-8, 0.99999e-8, 1.00001e-8, 1.1e-8, -1.05e-8):
            z = w / x
            series = x * (1.0 + w / 2.0 + w * w / 6.0 + w ** 3 / 24.0)
            assert expm1_over(z, x) == pytest.approx(series, rel=1e-15)


class TestDeformedHamiltonian:
    def test_classical_limit_value(self):
        sysd = deformed_book(1.0, 1.0, 1e-15)
        value = deformed_hamiltonian(sysd, 0.0, CanonicalState(1.0, 2.0))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_log_two_point(self):
        sysd = deformed_book(1.0, 0.0, 1.0)
        value = deformed_hamiltonian(sysd, 0.0, CanonicalState(math.log(2.0), 1.0))
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_vanishes_at_origin_column(self):
        sysd = deformed_book(2.0, -3.0, 0.7)
        for y in (-1.0, 0.0, 2.0):
            assert deformed_hamiltonian(sysd, 0.0, CanonicalState(0.0, y)) == 0.0


class TestDeformedRhs:
    def test_unit_exponential_at_zero_x(self):
        sysd = deformed_book(1.0, 0.0, 1.0)
        assert deformed_rhs(sysd, 0.0, CanonicalState(0.0, 3.0)) == (0.0, -3.0)

    def test_log_two_point(self):
        sysd = deformed_book(1.0, 1.0, 1.0)
        dx, dy = deformed_rhs(sysd, 0.0, CanonicalState(math.log(2.0), 1.0))
        assert dx == pytest.approx(1.0, abs=1e-14)
        assert dy == pytest.approx(-1.0, abs=1e-14)

    def test_first_order_deviation_shape(self):
        # (deformed - classical) equals z*(ba*x^2/2, -ba*x*y) up to O(z^2)
        base = book(1.0, 0.0)
        s = CanonicalState(1.3, -0.7)
        classical = classical_rhs(base, 0.0, s)
        lead = (0.5 * s.x * s.x, -s.x * s.y)

        def defect(z):
            dx, dy = deformed_rhs(DeformedBookSystem(base, z), 0.0, s)
            return max(
                abs(dx - classical[0] - z * lead[0]),
                abs(dy - classical[1] - z * lead[1]),
            )

        d1, d2 = defect(1e-3), defect(5e-4)
        assert 3.6 <= d1 / d2 <= 4.4  # Richardson: the remainder is O(z^2)


class TestDeformedExactSolution:
    def test_initial_time(self):
        z, c1, c2 = 0.8, 0.4, -1.1
        sysd = deformed_book(1.0, 1.0, z)
        s = deformed_exact_solution(sysd, IntegrationConstants(c1, c2), 0.0)
        assert s.x == pytest.approx(-math.log(1.0 - z * c1) / z, rel=1e-12)
        assert s.y == pytest.approx(c2, abs=1e-12)

    def test_fit_constants_round_trip(self):
        sysd = deformed_book(1.0, 0.5, 0.6)
        s0 = CanonicalState(0.9, -0.3)
        c = deformed_fit_constants(sysd, 0.0, s0)
        s = deformed_exact_solution(sysd, c, 0.0)
        assert s.x == pytest.approx(s0.x, rel=1e-12)
        assert s.y == pytest.approx(s0.y, abs=1e-12)

    def test_classical_limit_at_tiny_z(self):
        base = BookSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0), 0.0)
        c = IntegrationConstants(0.8, 1.2)
        classical = solution_evaluator(base, c, tol=1e-11)
        deformed_eval = deformed_solution_evaluator(
            DeformedBookSystem(base, 1e-13), c, tol=1e-11
        )
        for t in (0.5, 1.0, 2.0, 3.0):
            a = classical(t).state
            b = deformed_eval(t).state
            assert abs(a.x - b.x) <= 1e-8
            assert abs(a.y - b.y) <= 1e-8

    def test_matches_rk45(self):
        z = 0.5
        sysd = deformed_book(1.0, 1.0, z)
        c = IntegrationConstants(0.5, 1.0)
        x0 = -math.log(1.0 - z * c.c1) / z
        s = deformed_exact_solution(sysd, c, 1.0, tol=1e-10)
        problem = OdeProblem(
            rhs=lambda t, v: np.array(deformed_rhs(sysd, t, CanonicalState(v[0], v[1]))),
            t0=0.0,
            state0=np.array([x0, 1.0]),
            t_end=1.0,
        )
        sol = integrate_ode(problem, IntegratorConfig(rtol=1e-10, atol=1e-12), [1.0])
        assert abs(s.x - sol.states[0][0]) <= 1e-6
        assert abs(s.y - sol.states[0][1]) <= 1e-6

    def test_rejects_times_past_window(self):
        sysd = deformed_book(1.0, 1.0, 1.0)
        c = IntegrationConstants(0.5, 1.0)  # window ends at ln 2
        with pytest.raises(ValidityWindowError) as err:
            deformed_exact_solution(sysd, c, 1.0)
        assert err.value.t_max == pytest.approx(math.log(2.0), abs=1e-9)


class TestValidityWindow:
    def test_non_positive_product_is_unbounded(self):
        for z, c1 in ((1.0, -0.5), (-0.3, 0.7), (0.0, 1.0), (0.5, 0.0)):
            w = validity_window(deformed_book(1.0, 1.0, z), c1, 10.0)
            assert math.isinf(w.t_max)

    def test_log_two(self):
        w = validity_window(deformed_book(1.0, 1.0, 1.0), 0.5, 5.0)
        assert w.t_max == pytest.approx(math.log(2.0), abs=1e-9)

    def test_no_crossing_within_horizon(self):
        w = validity_window(deformed_book(1.0, 1.0, 1.0), 1e-6, 5.0)
        # crossing sits near ln(1e6) ~ 13.8, beyond the horizon
        assert math.isinf(w.t_max)

    def test_seasonal_matches_grid_scan(self):
        base = BookSystem(CF.from_text("0.5 + sin(t)"), CF.constant(1.0), 0.0)
        z, c1 = 1.0, 0.3
        w = validity_window(DeformedBookSystem(base, z), c1, 6.0)
        assert math.isfinite(w.t_max)
        # independent oracle: trapezoid cumulative on a 1e-4 grid
        step = 1e-4
        n = int(6.0 / step)
        theta = 0.0
        prev_val = base.b_a(0.0)
        crossing = None
        for k in range(1, n + 1):
            t = k * step
            val = base.b_a(t)
            theta += 0.5 * step * (prev_val + val)
            prev_val = val
            if 1.0 - z * c1 * math.exp(theta) <= 0.0:
                crossing = t
                break
        assert crossing is not None
        assert abs(w.t_max - crossing) <= 1e-4

    def test_contains(self):
        w = validity_window(deformed_book(1.0, 1.0, 1.0), 0.5, 5.0)
        assert w.contains(0.5)
        assert not w.contains(0.7)


class TestIntegralKernel:
    """The deformed evaluators and the window share the classical forms'
    integral kernel, canonical.BookIntegrals."""

    @staticmethod
    def seasonal(b_a=None):
        return BookSystem(b_a or CF.from_text("0.5 + 0.3*sin(t)"), CF.constant(0.5), 0.0)

    def test_zero_z_matches_classical_bit_for_bit(self):
        base = self.seasonal()
        sis_base = SisSystem(base.b_a, base.b_b, base.a)
        c = IntegrationConstants(0.4, 0.8)
        pairs = [
            (solution_evaluator(base, c),
             deformed_solution_evaluator(DeformedBookSystem(base, 0.0), c)),
            (sis_solution_evaluator(sis_base, c),
             deformed_sis_solution_evaluator(DeformedSisSystem(sis_base, 0.0), c)),
        ]
        for classical, deformed in pairs:
            for t in np.linspace(0.0, 3.0, 61):
                assert deformed(float(t)) == classical(float(t))

    def test_zero_z_costs_no_more_than_classical(self):
        def counted_system():
            b_a = CF.from_text("0.5 + 0.3*sin(t)")
            calls = [0]

            def counting(t):
                calls[0] += 1
                return b_a(t)

            return self.seasonal(counting), calls

        c = IntegrationConstants(0.4, 0.8)
        grid = [float(t) for t in np.linspace(0.0, 3.0, 61)]
        base, classical_calls = counted_system()
        classical = solution_evaluator(base, c)
        for t in grid:
            classical(t)
        base, deformed_calls = counted_system()
        deformed = deformed_solution_evaluator(DeformedBookSystem(base, 0.0), c)
        for t in grid:
            deformed(t)
        assert 0 < deformed_calls[0] <= classical_calls[0]

    def test_evaluator_and_window_agree(self):
        sysd = DeformedBookSystem(
            BookSystem(CF.from_text("0.5 + sin(t)"), CF.constant(1.0), 0.0), 1.0
        )
        c = IntegrationConstants(0.3, 1.0)
        window = validity_window(sysd, c.c1, 6.0)
        assert math.isfinite(window.t_max)
        # a fresh evaluator scans the same Theta cache state: same bits
        with pytest.raises(ValidityWindowError) as err:
            deformed_solution_evaluator(sysd, c)(6.0)
        assert err.value.t_max == window.t_max
        # and after a sweep inside the window: the pieces lie on one grid
        evaluate = deformed_solution_evaluator(sysd, c)
        for t in np.linspace(0.0, 0.9 * window.t_max, 11):
            evaluate(float(t))
        with pytest.raises(ValidityWindowError) as err:
            evaluate(6.0)
        assert err.value.t_max == window.t_max

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_every_evaluator_rejects_tolerance(self, tol):
        book_sys = self.seasonal()
        sis_sys = SisSystem(CF.from_text("0.5 + 0.3*sin(t)"), CF.constant(0.5), 0.0)
        c = IntegrationConstants(0.4, 0.8)
        factories = [
            lambda: solution_evaluator(book_sys, c, tol),
            lambda: sis_solution_evaluator(sis_sys, c, tol),
            lambda: deformed_solution_evaluator(DeformedBookSystem(book_sys, 0.1), c, tol),
            lambda: deformed_sis_solution_evaluator(DeformedSisSystem(sis_sys, 0.1), c, tol),
            lambda: validity_window(DeformedBookSystem(book_sys, 0.1), c.c1, 3.0, tol),
        ]
        for build in factories:
            with pytest.raises(ValueError):
                build()

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "base-point", "before-base"])
    def test_window_rejects_horizon(self, horizon):
        with pytest.raises(ValueError):
            validity_window(deformed_book(1.0, 1.0, 1.0), 0.5, horizon)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, -1.0],
                             ids=["inf", "-inf", "nan", "before-base"])
    @pytest.mark.parametrize("kind", ["book", "sis", "deformed-book", "deformed-sis",
                                      "kernel"])
    def test_every_evaluator_rejects_time(self, kind, t):
        # Theta = 0.5*(1 - cos t) keeps z*c1*e^Theta <= 0.2e below 1, so the
        # window never ends and a scan to t = inf would not return
        b_a = CF.from_text("0.5*sin(t)")
        book_sys = BookSystem(b_a, CF.constant(1.0), 0.0)
        sis_sys = SisSystem(b_a, CF.constant(1.0), 0.0)
        c = IntegrationConstants(0.4, 0.8)

        def kernel():
            k = BookIntegrals(b_a, CF.constant(1.0), 0.0, 1e-10, 0.5 * c.c1)
            return [k.theta, k.gamma, k.forced, k.window_end]

        evaluators = {
            "book": lambda: [solution_evaluator(book_sys, c)],
            "sis": lambda: [sis_solution_evaluator(sis_sys, c)],
            "deformed-book": lambda: [deformed_solution_evaluator(
                DeformedBookSystem(book_sys, 0.5), c)],
            "deformed-sis": lambda: [deformed_sis_solution_evaluator(
                DeformedSisSystem(sis_sys, 0.5), c)],
            "kernel": kernel,
        }[kind]()
        for evaluate in evaluators:
            with pytest.raises(ValueError):
                evaluate(t)

    @given(
        # frequencies up to 20 need several pieces over [0, 3]
        rate=st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 0.5), st.floats(0.2, 20.0)),
        source=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(0.2, 20.0)),
        z_c1=st.one_of(st.just(0.0), st.floats(-0.5, 0.05)),
        # a few times in any order, or an ascending sweep whose times fall
        # inside pieces that end on the grid
        times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4)
        | st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12).map(sorted),
    )
    # a piece one subnormal wide, whose half-width rounds to 0
    @example(rate=(0.0, 0.0, 1.0), source=(0.0, 0.0, 1.0), z_c1=0.0, times=[5e-324])
    @settings(max_examples=40, deadline=None)
    def test_integrals_match_cold_quadrature(self, rate, source, z_c1, times):
        # each integral against a cold Kronrod integral of its own integrand,
        # which reads the kernel's Theta (for Gamma) or Gamma (for I); Theta
        # stays below 2.5, so z c1 e^Theta < 1 and the window never ends
        b_a = CF.from_text(f"{rate[0]!r} + {rate[1]!r}*sin({rate[2]!r}*t)")
        b_b = CF.from_text(f"{source[0]!r} + {source[1]!r}*cos({source[2]!r}*t + 1)")
        tol = 1e-10
        k = BookIntegrals(b_a, b_b, 0.0, tol, z_c1)
        integrands = (
            (k.theta, b_a),
            (k.gamma, lambda u: b_a(u) / (1.0 - z_c1 * math.exp(k.theta(u)))),
            (k.forced, lambda u: math.exp(k.gamma(u)) * b_b(u)),
        )
        for t in times:
            for integral, integrand in integrands:
                assert abs(integral(t) - integrate(integrand, 0.0, t, 1e-13)) <= tol

    @staticmethod
    def counted_kernel(monkeypatch, z_c1=0.0):
        """A kernel and the list of coefficients its samples called."""
        calls = []
        call = CF.__call__

        def counting(self, t):
            calls.append(self)
            return call(self, t)

        monkeypatch.setattr(CF, "__call__", counting)
        b_a = CF.from_text("0.5 + 0.3*sin(t)")
        b_b = CF.from_text("0.5 + 0.2*cos(2*t)")
        return BookIntegrals(b_a, b_b, 0.0, 1e-10, z_c1), calls

    def test_every_sample_goes_through_call(self, monkeypatch):
        # the kernel samples a coefficient only through f(t), the one
        # evaluation path (and the boundary a tracer wraps): one piece of
        # Theta calls b_a once per Chebyshev node
        k, calls = self.counted_kernel(monkeypatch)
        k.theta(0.5)
        assert sum(f is k.b_a for f in calls) == CHEBYSHEV_NODES

    def test_classical_sweep_builds_one_piece_per_chunk(self, monkeypatch):
        # 81 times on [0, 4] ask for 80 intervals; the pieces end on the
        # _CHUNK grid, so the sweep builds 4 / _CHUNK and reads the rest
        # inside them
        k, calls = self.counted_kernel(monkeypatch)
        for t in np.linspace(0.0, 4.0, 81):
            k.forced(float(t))
        pieces = round(4.0 / canonical._CHUNK)
        assert sum(f is k.b_a for f in calls) == pieces * CHEBYSHEV_NODES
        assert sum(f is k.b_b for f in calls) == pieces * CHEBYSHEV_NODES

    @pytest.mark.parametrize("z_c1", [0.1, -0.4])
    def test_deformed_sweep_fits_two_integrals_per_piece(self, monkeypatch, z_c1):
        # Gamma is formed from Theta, so each piece fits Theta and I only,
        # and forms Theta at its nodes once, for the window test and for I;
        # 61 times up to the last grid point by 3 lie inside the window
        # (0.1: t_max = 3.43), and so do the chunks that hold them
        calls = {"fit": 0, "nodes": 0}

        def counting(key, f):
            def counted(*args):
                calls[key] += 1
                return f(*args)
            return counted

        monkeypatch.setattr(canonical, "chebyshev_fit",
                            counting("fit", canonical.chebyshev_fit))
        monkeypatch.setattr(canonical, "chebyshev_at_nodes",
                            counting("nodes", canonical.chebyshev_at_nodes))
        k, samples = self.counted_kernel(monkeypatch, z_c1)
        end = canonical._CHUNK * (3.0 // canonical._CHUNK)
        for t in np.linspace(0.0, end, 61):
            k.forced(float(t))
        pieces = sum(f is k.b_a for f in samples) // CHEBYSHEV_NODES
        assert pieces == round(end / canonical._CHUNK)
        assert calls == {"fit": 2 * pieces, "nodes": pieces}

    def test_cold_classical_query_is_one_piece(self, monkeypatch):
        k, calls = self.counted_kernel(monkeypatch)
        k.forced(3.0)
        assert sum(f is k.b_a for f in calls) == CHEBYSHEV_NODES
        assert sum(f is k.b_b for f in calls) == CHEBYSHEV_NODES

    def test_call_order_does_not_change_bits(self):
        b_a = CF.from_text("0.5 + 0.3*sin(t)")
        b_b = CF.from_text("0.5 + 0.2*cos(2*t)")
        for z_c1 in (0.0, 0.1, -0.4):
            first = BookIntegrals(b_a, b_b, 0.0, 1e-10, z_c1)
            second = BookIntegrals(b_a, b_b, 0.0, 1e-10, z_c1)
            for t in (0.3, 1.7, 1.1, 2.5):
                forced = first.forced(t)
                gamma = first.gamma(t)
                theta = first.theta(t)
                assert (second.theta(t), second.gamma(t), second.forced(t)) == \
                    (theta, gamma, forced)
        # for z c1 > 0 the pieces lie on one grid, so the order of the
        # times does not change them either
        times = (0.3, 1.1, 1.7, 2.5)
        first = BookIntegrals(b_a, b_b, 0.0, 1e-10, 0.1)
        second = BookIntegrals(b_a, b_b, 0.0, 1e-10, 0.1)
        ascending = [(first.theta(t), first.gamma(t), first.forced(t)) for t in times]
        descending = [(second.theta(t), second.gamma(t), second.forced(t))
                      for t in reversed(times)]
        assert ascending == descending[::-1]

    def test_window_scan_stops_sampling_near_the_edge(self):
        # b_a = 0.5 + ln(3 - t) leaves its domain at t = 3; with the window
        # edge at t = 1 the search samples b_a at most one chunk past the
        # edge
        class Recording:
            def __init__(self, f):
                self.f = f
                self.latest = -math.inf

            def __call__(self, t):
                self.latest = max(self.latest, t)
                return self.f(t)

        b_a = Recording(CF.from_text("0.5 + ln(3 - t)"))
        theta_1 = 3.0 * math.log(3.0) - 2.0 * math.log(2.0) - 0.5  # Theta(1)
        z = 1.0
        c1 = math.exp(-theta_1) / z
        window = validity_window(DeformedBookSystem(BookSystem(b_a, CF.constant(1.0)), z),
                                 c1, 4.0)
        assert window.t_max == pytest.approx(1.0, abs=1e-9)
        assert b_a.latest <= window.t_max + canonical._CHUNK

    def test_window_scan_finds_an_edge_before_a_domain_end_in_its_chunk(self):
        # b_a = 1 - ln(1.1 - t) is undefined from t = 1.1, inside the chunk
        # [1, 1.5] that holds the edge at t = 1.05: the chunk is halved
        # until b_a can be sampled, as far as the edge
        b_a = CF.from_text("1 - ln(1.1 - t)")
        c1 = math.exp(-integrate(b_a, 0.0, 1.05, 1e-14))
        window = validity_window(DeformedBookSystem(BookSystem(b_a, CF.constant(1.0)), 1.0),
                                 c1, 2.0)
        assert window.t_max == pytest.approx(1.05, abs=1e-9)

    def test_grid_chunk_reaching_past_a_source_domain_end(self):
        # b_b = ln(1.8 - t) ends inside the chunk [1.5, 2]: the chunk is
        # halved until b_b can be sampled, so t = 1.79 still evaluates.
        # With w = z c1 = 0.04, e^Gamma = e^{t/2} (1 - w) / (1 - w e^{t/2})
        sysd = DeformedBookSystem(BookSystem(CF.constant(0.5), CF.from_text("ln(1.8 - t)")),
                                  0.1)
        c = IntegrationConstants(0.4, 1.0)
        w, t = 0.04, 1.79

        def e_gamma(u):
            return math.exp(0.5 * u) * (1.0 - w) / (1.0 - w * math.exp(0.5 * u))

        evaluate = deformed_solution_evaluator(sysd, c)
        state = evaluate(t).state
        assert state.x == pytest.approx(-math.log(1.0 - w * math.exp(0.5 * t)) / 0.1,
                                        rel=1e-12)
        forced = integrate(lambda u: e_gamma(u) * math.log(1.8 - u), 0.0, t, 1e-13)
        assert state.y == pytest.approx((c.c2 + forced) / e_gamma(t), rel=1e-9)
        with pytest.raises(EvaluationDomainError):
            evaluate(1.9)

    def test_grid_source_error_before_the_asked_time_raises_at_once(self):
        # asked at 1.9, b_b = ln(1.8 - t) fails at a node of the chunk
        # [1.5, 2] before 1.9, so I(1.9) is undefined: the kernel raises
        # from the chunk's first sampling instead of halving it towards
        # 1.8 (2,021 samples)
        class Counting:
            def __init__(self, f):
                self.f = f
                self.calls = 0

            def __call__(self, t):
                self.calls += 1
                return self.f(t)

        b_b = Counting(CF.from_text("ln(1.8 - t)"))
        k = BookIntegrals(CF.constant(0.5), b_b, 0.0, 1e-10, 0.04)
        with pytest.raises(EvaluationDomainError):
            k.forced(1.9)
        assert b_b.calls <= 4 * CHEBYSHEV_NODES
        # a failure past the asked time still halves the chunk: 1.79
        # evaluates, with the bits it had when every failure halved
        assert k.integrals(1.79) == (0.895, 0.9572006245692761, -1.85251305164234)

    def test_grid_integrand_failure_past_the_asked_time_halves(self):
        # e^Gamma b_b = e^{10 t} 1e300 e^{50 (t - 1.3)} is not finite at
        # nodes of the chunk [1, 1.5] past t = 1.2: the chunk is halved, as
        # for a b_b sample error there, so t = 1.2 evaluates
        sysd = DeformedBookSystem(
            BookSystem(CF.constant(10.0), CF.from_text("1e300*exp(50*(t - 1.3))")), 1e-10)
        c = deformed_fit_constants(sysd, 0.0, CanonicalState(1.0, 1.0))
        t = 1.2
        state = deformed_solution_evaluator(sysd, c)(t).state
        problem = OdeProblem(
            rhs=lambda u, v: np.array(deformed_rhs(sysd, u, CanonicalState(v[0], v[1]))),
            t0=0.0, state0=np.array([1.0, 1.0]), t_end=t)
        ode = integrate_ode(problem, IntegratorConfig(rtol=1e-12, atol=1e-12), [t]).states[0]
        assert state.x == pytest.approx(ode[0], rel=1e-10)
        assert state.y == pytest.approx(ode[1], rel=1e-10)

    @pytest.mark.parametrize("b_a, b_b", [("0.5", "ln(1.8 - t)"), ("ln(1.8 - t)", "0.5")],
                             ids=["source", "rate"])
    def test_classical_piece_past_a_failed_time_is_cut(self, b_a, b_b):
        # a coefficient ln(1.8 - t) ends at 1.8: t = 1.9 raises, and the
        # piece that failed there is rebuilt to end on 1.7 instead of
        # failing again
        base = BookSystem(CF.from_text(b_a), CF.from_text(b_b))
        c = IntegrationConstants(0.4, 1.0)
        evaluate = solution_evaluator(base, c)
        with pytest.raises(EvaluationDomainError):
            evaluate(1.9)
        state = evaluate(1.7).state
        assert state == solution_evaluator(base, c)(1.7).state
        if b_a == "0.5":
            assert (state.x, state.y) == (0.9358587407703963, -0.03839985958650712)
        # a sweep asks past 1.5 inside the chunk [1.5, 2], which reaches
        # past the domain end: each such piece is cut at its time
        evaluate = solution_evaluator(base, c)
        for t in np.linspace(0.0, 1.75, 36):
            state = evaluate(float(t)).state
        cold = solution_evaluator(base, c)(1.75).state
        assert state.x == pytest.approx(cold.x, rel=1e-12, abs=1e-12)
        assert state.y == pytest.approx(cold.y, rel=1e-12, abs=1e-12)
        with pytest.raises(EvaluationDomainError):
            evaluate(1.8)

    def test_classical_overflow_past_the_asked_time(self):
        # Gamma = Theta = 300 t, so e^Gamma overflows past t = 2.366, inside
        # the chunk [2, 2.5]: the piece is cut at the asked time instead
        base = BookSystem(CF.constant(300.0), CF.constant(1.0))
        c = IntegrationConstants(1e-300, 1.0)
        evaluate = solution_evaluator(base, c)
        for t in np.linspace(2.0, 2.3, 7):
            swept = evaluate(float(t)).state
        cold = solution_evaluator(base, c)(2.3).state
        for state in (swept, cold):
            assert math.isfinite(state.x) and math.isfinite(state.y)
        assert swept.x == pytest.approx(cold.x, rel=1e-12)
        assert swept.y == pytest.approx(cold.y, rel=1e-12)

    @pytest.mark.parametrize("a, horizon", [(1e15, 2.0), (1e17, 64.0)])
    def test_window_at_a_large_base_point(self, a, horizon):
        # from about 9e15 on, a + k * 0.5 rounds to the last piece end and
        # the next end is the next float.  A search that made no progress
        # would never return, so it runs under a timeout
        code = (
            "from booksis.canonical import BookSystem\n"
            "from booksis.deformed import DeformedBookSystem, validity_window\n"
            "from booksis.timefn import CoefficientFunction as CF\n"
            f"base = BookSystem(CF.constant(1.0), CF.constant(1.0), {a!r})\n"
            f"print(repr(validity_window(DeformedBookSystem(base, 1.0), 0.5, "
            f"{a + horizon!r}).t_max))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(booksis.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env, check=True)
        # within the float spacing there: 0.125 at 1e15, 16 at 1e17
        assert abs(float(done.stdout) - (a + math.log(2.0))) <= math.ulp(a)

    @pytest.mark.parametrize("b_a, c1, edge", [
        (2000.0, 0.5, math.log(2.0) / 2000.0),
        (200.0, math.exp(-705.0), 3.525),
    ])
    def test_window_edge_where_e_theta_overflows_in_its_piece(self, b_a, c1, edge):
        # Theta = b_a t passes 709.78, where e^Theta overflows, inside the
        # piece that holds the edge: those nodes lie outside the window
        sysd = DeformedBookSystem(book(b_a, 1.0), 1.0)
        c = IntegrationConstants(c1, 1.0)
        assert validity_window(sysd, c.c1, 4.0).t_max == pytest.approx(edge, abs=1e-9)
        with pytest.raises(ValidityWindowError) as err:
            deformed_solution_evaluator(sysd, c)(1.0 + edge)
        assert err.value.t_max == pytest.approx(edge, abs=1e-9)

    @pytest.mark.parametrize("distance", [1e-4, 1e-6])
    def test_evaluates_close_to_the_window_edge(self, distance):
        # near the edge I's integrand e^Gamma b_b grows as 1/L and carries
        # the rounding of L = 1 - z c1 e^Theta; its pieces converge on
        # their integral's error, as narrow Kronrod panels did
        sysd = DeformedBookSystem(
            BookSystem(CF.from_text("1 + 0.2*sin(3*t)"), CF.constant(1.0)), 1.0)
        c = IntegrationConstants(0.5, 1.0)
        t_max = validity_window(sysd, c.c1, 2.0).t_max
        t = t_max - distance
        state = deformed_solution_evaluator(sysd, c)(t).state
        theta = t + 0.2 / 3.0 * (1.0 - math.cos(3.0 * t))
        assert state.x == pytest.approx(-math.log(1.0 - c.c1 * math.exp(theta)), rel=1e-8)
        assert math.isfinite(state.y)

    @pytest.mark.parametrize("z_c1, b_a, b_b, t", [
        (5e-324, 350.0, 1.0, 2.0),
        (1e-300, 340.0, 1.0, 2.0),
        (0.3, 1.0, 1.0, 1.0),
        # Theta within 1e-12 of the level -ln(z c1); b_b = 0 keeps I
        # finite next to the pole of e^Gamma
        (0.3, -math.log(0.3) - 1e-12, 0.0, 1.0),
        (1e-280, -math.log(1e-280) - 1e-12, 0.0, 1.0),
        (-0.7, 1.0, 1.0, 3.0),
        # Theta = 800: e^Theta overflows, and Gamma tends to ln 3
        (-0.5, 400.0, 1.0, 2.0),
    ])
    def test_gamma_matches_a_decimal_reference(self, z_c1, b_a, b_b, t):
        # Gamma = Theta - ln L + ln L(a), L = 1 - z c1 e^Theta, in 40 digits
        # from the kernel's own Theta and from ln|z c1| rounded to a float,
        # the two inputs of ln L; the bound is that rounding of s = Theta +
        # ln|z c1| times the condition number e^s / L, plus a few roundings
        k = BookIntegrals(CF.constant(b_a), CF.constant(b_b), 0.0, 1e-10, z_c1)
        theta, gamma, forced = k.integrals(t)
        D = decimal.Decimal

        def log_l(s):
            return (1 - s.exp() if z_c1 > 0.0 else 1 + s.exp()).ln()

        with decimal.localcontext(decimal.Context(prec=40)):
            log_zc1 = D(math.log(abs(z_c1)))
            s = D(theta) + log_zc1
            error = abs(float(D(gamma) - (D(theta) - log_l(s) + log_l(log_zc1))))
            condition = float(abs(s.exp() / log_l(s).exp()))
            rounded = abs(theta) + abs(float(log_l(s))) + abs(float(log_l(log_zc1)))
        assert error <= condition * math.ulp(float(s)) + 8.0 * sys.float_info.epsilon * rounded
        assert math.isfinite(forced)
        if z_c1 == -0.5:
            assert gamma == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gamma_past_the_float_range_raises_typed(self):
        # next to the level 744.44 of the subnormal z c1, e^Gamma overflows
        # in I's integrand: a typed error, not a raw OverflowError
        level = -math.log(5e-324)
        k = BookIntegrals(CF.constant(level - 1e-12), CF.constant(0.0), 0.0, 1e-10, 5e-324)
        with pytest.raises(ExpOverflowError):
            k.gamma(1.0)
        assert k.window_end(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_read_past_the_level_before_t_max_raises_typed(self):
        # t_max is the midpoint of the bisection's last bracket, so Theta
        # on the interpolant can reach the level just before it; ln L is
        # undefined there, and the read raises naming t, not ValueError
        k = BookIntegrals(CF.from_text("2 + sin(3*t)"), CF.constant(0.0), 0.0, 1e-10,
                          math.exp(-1.845399184658766))
        t_max = k.window_end(10.0)
        t = t_max - 1e-11
        with pytest.raises(ValidityWindowError) as err:
            k.gamma(t)
        assert (err.value.t, err.value.t_max) == (t, t)

    @pytest.mark.parametrize("b_a", ["1", "2 + sin(3*t)", "0.5 + t"])
    def test_read_next_to_the_edge_raises_a_window_error(self, b_a):
        # a piece whose nodes show the edge is halved towards it until it
        # is too narrow to split; a read there lies within the bisection's
        # 1e-10 of t_max and raises (t, t), as the level test in
        # integrals does, not a convergence failure.  b_b = 0 makes I
        # trivial, so the edge is the only cause
        for c in np.linspace(0.05, 3.0, 25):
            kernel = BookIntegrals(CF.from_text(b_a), CF.constant(0.0), 0.0, 1e-10,
                                   math.exp(-c))
            t_max = kernel.window_end(4.0)
            below = math.nextafter(t_max, -math.inf)
            for t in (below, math.nextafter(below, -math.inf),
                      t_max - 1e-11, t_max - 3e-11, t_max - 1e-10):
                try:
                    theta, gamma, forced = kernel.integrals(t)
                except ValidityWindowError as err:
                    assert (err.t, err.t_max) == (t, t)
                else:
                    assert math.isfinite(gamma) and forced == 0.0

    @pytest.mark.parametrize("z_c1", [1.0, 2.0])
    def test_window_is_empty_from_z_c1_one(self, z_c1):
        # L(a) = 1 - z c1 <= 0: the window closes at the base point, and
        # every evaluator raises there and later
        b_a, b_b = CF.constant(1.0), CF.constant(1.0)
        sysd = DeformedBookSystem(BookSystem(b_a, b_b), 1.0)
        assert validity_window(sysd, z_c1, 3.0).t_max == 0.0
        c = IntegrationConstants(z_c1, 1.0)
        kernel = BookIntegrals(b_a, b_b, 0.0, 1e-10, z_c1)
        for evaluate in (deformed_solution_evaluator(sysd, c),
                         deformed_sis_solution_evaluator(
                             DeformedSisSystem(SisSystem(b_a, b_b), 1.0), c),
                         kernel.theta, kernel.gamma, kernel.forced):
            for t in (0.0, 1.0):
                with pytest.raises(ValidityWindowError) as err:
                    evaluate(t)
                assert err.value.t_max == 0.0

    def test_missed_narrow_excursion_raises_instead_of_integrating(self):
        # a pulse 0.003 wide, narrower than a 0.02 sampling step: Theta's
        # pieces resolve it, their node values show the edge, and the
        # evaluator and the window both report it bisected, not a node
        # (1.0000208092940722 by mpmath: Theta = 0.8 on the first lobe)
        pulse = CF.from_text(
            "300*exp(-((t-1)/0.003)^2) - 300*exp(-((t-1.006)/0.003)^2)")
        sysd = DeformedBookSystem(BookSystem(pulse, CF.constant(1.0)), 1.0)
        c = IntegrationConstants(math.exp(-0.8), 1.0)
        evaluate = deformed_solution_evaluator(sysd, c)
        evaluate(0.5)
        with pytest.raises(ValidityWindowError) as err:
            evaluate(1.5)
        edge = 1.0000208092940722
        assert err.value.t_max == pytest.approx(edge, abs=1e-9)
        assert validity_window(sysd, c.c1, 3.0).t_max == pytest.approx(edge, abs=1e-9)


class TestJets:
    """Every closed form returns its state with the exact time derivative:
    the rate matches a central difference of the states."""

    @pytest.mark.parametrize(
        "kind", ["book", "sis", "deformed-book", "deformed-sis", "sis-constant"])
    def test_rate_is_the_time_derivative(self, kind):
        b_a = CF.from_text("0.5 + 0.3*sin(t)")
        b_b = CF.from_text("0.5 + 0.2*cos(2*t)")
        book_sys = BookSystem(b_a, b_b, 0.0)
        sis_sys = SisSystem(b_a, b_b, 0.0)
        c = IntegrationConstants(0.4, 0.8)
        evaluate = {
            "book": lambda: solution_evaluator(book_sys, c, tol=1e-12),
            "sis": lambda: sis_solution_evaluator(sis_sys, c, tol=1e-12),
            "deformed-book": lambda: deformed_solution_evaluator(
                DeformedBookSystem(book_sys, 0.5), c, tol=1e-12),
            "deformed-sis": lambda: deformed_sis_solution_evaluator(
                DeformedSisSystem(sis_sys, 0.5), c, tol=1e-12),
            # c = (0.4, 0.8) would put this one on the singular locus near t = 1
            "sis-constant": lambda: lambda t: sis_constant_jet(
                1.0, IntegrationConstants(1.0, 2.0), t),
        }[kind]()
        h = 1e-5
        for t in (0.5, 1.0, 1.5):
            rate = evaluate(t).rate
            plus = astuple(evaluate(t + h).state)
            minus = astuple(evaluate(t - h).state)
            for d, p, m in zip(rate, plus, minus):
                assert d == pytest.approx((p - m) / (2.0 * h), rel=1e-7, abs=1e-7)

    def test_exact_solution_is_the_state(self):
        sysd = DeformedBookSystem(BookSystem(CF.from_text("0.5 + 0.3*sin(t)"),
                                             CF.constant(0.5), 0.0), 0.5)
        c = IntegrationConstants(0.4, 0.8)
        jet = deformed_solution_evaluator(sysd, c)(1.0)
        assert deformed_exact_solution(sysd, c, 1.0) == jet.state


class TestDeformedSisHamiltonians:
    def test_classical_limit(self):
        s = EpidemicState(0.7, 2.0)
        h_a, h_b = deformed_sis_hamiltonians(1e-15, s)
        assert h_a == pytest.approx(s.q * s.p, rel=1e-12)
        assert h_b == pytest.approx((1.0 - (s.q * s.p) ** 2) / s.p, rel=1e-12)

    def test_reference_point(self):
        h_a, h_b = deformed_sis_hamiltonians(1.0, EpidemicState(2.0 / 3.0, 3.0))
        assert h_a == pytest.approx(2.0 * (math.e - 1.0), rel=1e-12)
        assert h_b == pytest.approx(-1.0, rel=1e-12)

    def test_second_component_undeformed(self):
        s = EpidemicState(0.5, 2.5)
        classical_h_b = (1.0 - (s.q * s.p) ** 2) / s.p
        for z in (-1.0, -0.1, 0.3, 2.0):
            _, h_b = deformed_sis_hamiltonians(z, s)
            assert h_b == classical_h_b

    def test_cross_evaluation_through_chart(self):
        rng = random.Random(17)
        for _ in range(100):
            s = random_epidemic_state(rng, locus_margin=0.2)
            z = rng.uniform(-1.0, 1.0)
            c = to_canonical(s)
            h_a, h_b = deformed_sis_hamiltonians(z, s)
            assert h_a == pytest.approx(
                deformed_hamiltonian_a(z, c), rel=1e-10, abs=1e-10
            )
            assert h_b == pytest.approx(
                deformed_hamiltonian_b(z, c), rel=1e-12, abs=1e-12
            )

    def test_singular_locus(self):
        with pytest.raises(SingularLocusError):
            deformed_sis_hamiltonians(0.5, EpidemicState(1.0, 1.0))


class TestDeformedSisRhs:
    def test_classical_limit_at_tiny_z(self):
        base = SisSystem(CF.constant(1.0), CF.constant(1.0))
        s = EpidemicState(0.7, 2.0)
        classical = sis_rhs(base, 0.0, s)
        dq, dp = deformed_sis_rhs(DeformedSisSystem(base, 1e-13), 0.0, s)
        assert abs(dq - classical[0]) <= 1e-8
        assert abs(dp - classical[1]) <= 1e-8

    def test_pushforward_of_deformed_canonical_rhs(self):
        rng = random.Random(23)
        base = SisSystem(CF.from_text("1 + 0.3*sin(t)"), CF.from_text("0.8"))
        book_sys = BookSystem(base.rho0, base.b, base.a)
        for _ in range(100):
            s = random_epidemic_state(rng, locus_margin=0.3)
            if abs(s.p) < 0.5:
                continue
            z = rng.choice((0.1, 0.5))
            t = rng.uniform(0.0, 3.0)
            c = to_canonical(s)
            velocity = deformed_rhs(DeformedBookSystem(book_sys, z), t, c)
            # the inverse chart's derivatives blow up near x^2 y^2 = 1;
            # shrink the stencil with the locus distance
            d = abs(c.x * c.x * c.y * c.y - 1.0)
            grad = 2.0 * max(abs(c.x) * c.y * c.y, c.x * c.x * abs(c.y)) + 1e-12
            h = min(1e-5 * max(1.0, abs(c.x), abs(c.y)), 3e-5 * d / grad)
            qxp = from_canonical(CanonicalState(c.x + h, c.y))
            qxm = from_canonical(CanonicalState(c.x - h, c.y))
            qyp = from_canonical(CanonicalState(c.x, c.y + h))
            qym = from_canonical(CanonicalState(c.x, c.y - h))
            dq_fd = ((qxp.q - qxm.q) * velocity[0] + (qyp.q - qym.q) * velocity[1]) / (2 * h)
            dp_fd = ((qxp.p - qxm.p) * velocity[0] + (qyp.p - qym.p) * velocity[1]) / (2 * h)
            dq, dp = deformed_sis_rhs(DeformedSisSystem(base, z), t, s)
            scale = max(1.0, abs(dq), abs(dp))
            assert abs(dq - dq_fd) / scale <= 1e-5
            assert abs(dp - dp_fd) / scale <= 1e-5

    def test_first_order_residual_is_second_order(self):
        base = SisSystem(CF.constant(1.0), CF.constant(1.0))
        s = EpidemicState(0.8, 2.2)

        def residual(z):
            sysd = DeformedSisSystem(base, z)
            full = deformed_sis_rhs(sysd, 0.0, s)
            trunc = perturbed_rhs_first_order(sysd, 0.0, s)
            return max(abs(full[0] - trunc[0]), abs(full[1] - trunc[1]))

        r1, r2 = residual(1e-2), residual(5e-3)
        assert 3.6 <= r1 / r2 <= 4.4


class TestDeformedSisExactSolution:
    def _system(self):
        return DeformedSisSystem(
            SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0)), 0.1
        )

    def _constants(self, sysd, start):
        book_sys = DeformedBookSystem(
            BookSystem(sysd.base.rho0, sysd.base.b, sysd.base.a), sysd.z
        )
        return deformed_fit_constants(book_sys, sysd.base.a, to_canonical(start))

    def test_initial_time(self):
        sysd = self._system()
        start = EpidemicState(2.0 / 3.0, 3.0)
        c = self._constants(sysd, start)
        s = deformed_sis_exact_solution(sysd, c, 0.0)
        x0 = -math.log(1.0 - sysd.z * c.c1) / sysd.z
        expected = from_canonical(CanonicalState(x0, c.c2))
        assert s.q == pytest.approx(expected.q, rel=1e-11)
        assert s.p == pytest.approx(expected.p, rel=1e-11)
        assert s.q == pytest.approx(start.q, rel=1e-11)
        assert s.p == pytest.approx(start.p, rel=1e-11)

    def test_classical_limit_at_tiny_z(self):
        base = SisSystem(CF.from_text("1 + 0.5*sin(t)"), CF.constant(1.0))
        start = to_canonical(EpidemicState(2.0 / 3.0, 3.0))
        c = IntegrationConstants(start.x, start.y)
        from booksis.sis import sis_solution_evaluator

        classical = sis_solution_evaluator(base, c, tol=1e-11)
        tiny = deformed_sis_solution_evaluator(
            DeformedSisSystem(base, 1e-13), c, tol=1e-11
        )
        for t in (0.5, 1.0, 1.5):
            a = classical(t).state
            b = tiny(t).state
            assert abs(a.q - b.q) <= 1e-8
            assert abs(a.p - b.p) <= 1e-8

    def test_matches_rk45(self):
        sysd = self._system()
        start = EpidemicState(2.0 / 3.0, 3.0)
        c = self._constants(sysd, start)
        times = [0.5, 1.0]
        evaluate = deformed_sis_solution_evaluator(sysd, c, tol=1e-10)
        problem = OdeProblem(
            rhs=lambda t, v: np.array(
                deformed_sis_rhs(sysd, t, EpidemicState(v[0], v[1]))
            ),
            t0=0.0,
            state0=np.array([start.q, start.p]),
            t_end=times[-1],
        )
        sol = integrate_ode(problem, IntegratorConfig(rtol=1e-10, atol=1e-12), times)
        for t, num in zip(times, sol.states):
            s = evaluate(t).state
            assert abs(s.q - num[0]) <= 1e-6
            assert abs(s.p - num[1]) <= 1e-6

    def test_chart_equivalence(self):
        sysd = self._system()
        start = EpidemicState(2.0 / 3.0, 3.0)
        c = self._constants(sysd, start)
        book_sys = DeformedBookSystem(
            BookSystem(sysd.base.rho0, sysd.base.b, sysd.base.a), sysd.z
        )
        sis_route = deformed_sis_solution_evaluator(sysd, c, tol=1e-11)
        book_route = deformed_solution_evaluator(book_sys, c, tol=1e-11)
        for t in (0.25, 0.75, 1.25, 1.75):
            assert sis_route(t).state == from_canonical(book_route(t).state)


class TestChartRouteErrors:
    """The SIS closed forms, the book closed form's chart image, fail
    with typed errors at z = 0 and z != 0."""

    @staticmethod
    def evaluator(kind, rho0):
        # rho0 = 0 and b = 1 keep x(t) = x0 = 1 and y(t) = 0.5 + t, so the
        # solution meets the singular locus x^2 y^2 = 1 at t = 0.5
        base = SisSystem(CF.constant(rho0), CF.constant(1.0))
        if kind == "sis":
            return sis_solution_evaluator(base, IntegrationConstants(1.0, 0.5))
        z = {"deformed-sis-0": 0.0, "deformed-sis": 0.5}[kind]
        book_sys = DeformedBookSystem(BookSystem(base.rho0, base.b, base.a), z)
        c = deformed_fit_constants(book_sys, 0.0, CanonicalState(1.0, 0.5))
        return deformed_sis_solution_evaluator(DeformedSisSystem(base, z), c)

    @pytest.mark.parametrize("kind", ["sis", "deformed-sis-0", "deformed-sis"])
    def test_singular_locus(self, kind):
        with pytest.raises(SingularLocusError):
            self.evaluator(kind, 0.0)(0.5)

    @pytest.mark.parametrize("kind", ["sis", "deformed-sis-0", "deformed-sis"])
    def test_subnormal_growth(self, kind):
        # e^Theta(1) = e^-712 is subnormal: x^2 underflows and y overflows
        with pytest.raises(BooksisError):
            self.evaluator(kind, -712.0)(1.0)


class TestPerturbedRhs:
    def test_zero_z_is_classical(self):
        base = book(1.0, 0.7)
        s = CanonicalState(1.1, -0.4)
        assert perturbed_rhs_first_order(
            DeformedBookSystem(base, 0.0), 0.0, s
        ) == classical_rhs(base, 0.0, s)
        sis_base = SisSystem(CF.constant(1.0), CF.constant(1.0))
        e = EpidemicState(0.6, 1.9)
        assert perturbed_rhs_first_order(
            DeformedSisSystem(sis_base, 0.0), 0.0, e
        ) == sis_rhs(sis_base, 0.0, e)

    def test_canonical_arithmetic(self):
        sysd = deformed_book(1.0, 0.0, 0.1)
        dx, dy = perturbed_rhs_first_order(sysd, 0.0, CanonicalState(1.0, 1.0))
        assert dx == pytest.approx(1.05, abs=1e-15)
        assert dy == pytest.approx(-1.1, abs=1e-15)

    def test_sis_arithmetic(self):
        base = SisSystem(CF.constant(1.0), CF.constant(1.0))
        s = EpidemicState(1.0, 0.5)
        classical = sis_rhs(base, 0.0, s)
        dq, dp = perturbed_rhs_first_order(DeformedSisSystem(base, 0.1), 0.0, s)
        assert dq - classical[0] == pytest.approx(0.05, abs=1e-15)
        assert dp - classical[1] == pytest.approx(
            0.5 * 0.1 * (1.0 - 3.0 * 0.25), abs=1e-15
        )

    def test_rejects_other_systems(self):
        with pytest.raises(TypeError):
            perturbed_rhs_first_order(book(1, 1), 0.0, CanonicalState(1, 1))


class TestStructureDefects:
    def test_pointwise_identity(self):
        s = CanonicalState(math.log(2.0), 5.0)
        assert deformed_poisson_bracket_defect(1.0, s, 1e-5) <= 1e-9

    def test_classical_reduction(self):
        s = CanonicalState(0.8, -1.3)
        assert deformed_poisson_bracket_defect(1e-14, s, 1e-5) <= 1e-9

    def test_random_sweep(self):
        assert check_bracket_deformed(seed=5, count=1000).passed
        assert check_commutator_deformed(seed=6, count=1000).passed

    def test_uniform_over_z(self):
        rng = random.Random(77)
        for _ in range(50):
            z = rng.uniform(-1.0, 1.0)
            s = CanonicalState(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert deformed_poisson_bracket_defect(z, s, 1e-5) <= 1e-6
            assert deformed_commutator_defect(z, s, 1e-5) <= 1e-6


class TestClassicalLimitOrder:
    def test_deviation_scales_linearly_in_z(self):
        # moderate growth keeps the O(z^2) correction small enough for the
        # halving ratio to sit in the first-order band
        base = BookSystem(CF.from_text("0.5 + 0.3*sin(t)"), CF.constant(0.5), 0.0)
        s0 = CanonicalState(0.4, 0.8)
        classical = solution_evaluator(base, IntegrationConstants(s0.x, s0.y), tol=1e-12)
        times = [0.1 * k for k in range(1, 31)]
        reference = [classical(t).state for t in times]

        def deviation(z):
            sysd = DeformedBookSystem(base, z)
            c = deformed_fit_constants(sysd, 0.0, s0)
            evaluate = deformed_solution_evaluator(sysd, c, tol=1e-12)
            worst = 0.0
            for t, ref in zip(times, reference):
                s = evaluate(t).state
                worst = max(worst, abs(s.x - ref.x), abs(s.y - ref.y))
            return worst

        d1, d2, d3 = deviation(1e-2), deviation(5e-3), deviation(2.5e-3)
        assert 1.8 <= d1 / d2 <= 2.2
        assert 1.8 <= d2 / d3 <= 2.2

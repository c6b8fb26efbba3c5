import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from booksis import canonical, deformed, oracle, sis
from booksis.canonical import BookIntegrals, CanonicalState, IntegrationConstants
from booksis.cli import (
    _oracle_config,
    _residual,
    _sample_times,
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_TOLERANCE,
    build_adapter,
    compare_scenario,
    load_scenario,
    main,
    parse_scenario,
    run_scenario,
    Scenario,
)
from booksis.errors import (
    BooksisError,
    EvaluationDomainError,
    MomentDomainError,
    NonFiniteSampleError,
    ScenarioError,
    SingularLocusError,
)
from booksis.sis import EpidemicState, MomentState
from booksis.timefn import CoefficientFunction

ROOT = Path(__file__).resolve().parent.parent


def write_scenario(tmp_path, name="scen.json", **overrides):
    doc = {
        "model": "sis-constant",
        "coefficients": {"rho0": "1"},
        "initial": {"chart": "qp", "values": [2.0 / 3.0, 3.0]},
        "grid": {"t_start": 0.0, "t_end": 5.0, "n_samples": 101},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _last_number(text: str) -> float:
    """The last decimal number in ``text``, such as an edge in a message."""
    return float(re.findall(r"\d+\.\d+(?:e[-+]?\d+)?", text)[-1])


def deformed_book_doc(z=0.01, t_end=3.0, n=31):
    return {
        "model": "deformed-book",
        "coefficients": {"bA": "0.5 + 0.3*sin(t)", "bB": "0.5"},
        "z": z,
        "initial": {"chart": "xy", "values": [0.4, 0.8]},
        "grid": {"t_start": 0.0, "t_end": t_end, "n_samples": n},
    }


class TestLoadScenario:
    def test_round_trip(self, tmp_path):
        path = write_scenario(tmp_path)
        scenario = load_scenario(path)
        assert scenario.model == "sis-constant"
        assert scenario.a == 0.0
        assert scenario.n_samples == 101

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_unknown_model(self, tmp_path):
        path = write_scenario(tmp_path, model="sir")
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_wrong_chart(self, tmp_path):
        path = write_scenario(
            tmp_path, initial={"chart": "xy", "values": [1.0, 2.0]}
        )
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_unknown_field(self, tmp_path):
        path = write_scenario(tmp_path, plot=True)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_mismatched_base_point(self, tmp_path):
        path = write_scenario(tmp_path, a=1.0)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_z_on_classical_model(self, tmp_path):
        path = write_scenario(tmp_path, z=0.5)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_bad_coefficient_key(self, tmp_path):
        path = write_scenario(tmp_path, coefficients={"rho0": "1", "bA": "1"})
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_rejects_singular_initial_state(self, tmp_path):
        path = write_scenario(
            tmp_path, initial={"chart": "qp", "values": [1.0, 1.0]}
        )
        with pytest.raises(ScenarioError):
            build_adapter(load_scenario(path))


class TestRunScenario:
    def test_constant_rate_sis_passes(self, tmp_path):
        path = write_scenario(tmp_path)
        trajectory, metadata, code = run_scenario(path, out_dir=tmp_path / "out")
        assert code == EXIT_PASS
        assert metadata["max_deviation"] < 1e-6
        assert metadata["samples_evaluated"] == 101
        assert (tmp_path / "out" / "scen.csv").exists()
        assert (tmp_path / "out" / "scen.report.json").exists()
        header = (tmp_path / "out" / "scen.csv").read_text().splitlines()[0]
        assert header == "t,q,p,x,y,deviation,residual,physical"

    def test_degenerate_scenario_is_frozen(self, tmp_path):
        path = write_scenario(
            tmp_path,
            model="book-canonical",
            coefficients={"bA": "0", "bB": "0"},
            initial={"chart": "xy", "values": [1.5, -0.5]},
            grid={"t_start": 0.0, "t_end": 4.0, "n_samples": 17},
        )
        trajectory, metadata, code = run_scenario(path)
        assert code == EXIT_PASS
        for s in trajectory.samples:
            assert s.state[0] == pytest.approx(1.5, abs=1e-12)
            assert s.state[1] == pytest.approx(-0.5, abs=1e-12)

    def test_window_exit_gives_exit_code_3(self, tmp_path):
        # z*c1 > 0 with the grid crossing t_max = ln 2
        doc = {
            "model": "deformed-book",
            "coefficients": {"bA": "1", "bB": "1"},
            "z": 1.0,
            "initial": {"chart": "xy", "values": [math.log(2.0), 1.0]},
            "grid": {"t_start": 0.0, "t_end": 2.0, "n_samples": 41},
        }
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        trajectory, metadata, code = run_scenario(path, out_dir=tmp_path / "out")
        assert code == EXIT_DOMAIN
        assert metadata["domain_exit"] is not None
        # x0 = ln 2 with z = 1 gives c1 = 1 - e^{-ln 2} = 0.5: t_max = ln 2
        assert metadata["validity_t_max"] == pytest.approx(math.log(2.0), abs=1e-9)
        report = json.loads((tmp_path / "out" / "window.report.json").read_text())
        assert report["validity_t_max"] == pytest.approx(math.log(2.0), abs=1e-9)
        # evaluated samples stop strictly below t_max
        assert all(s.t < metadata["validity_t_max"] for s in trajectory.samples)

    def test_first_failure_is_reported(self, tmp_path):
        # the window ends at ln 2, but b_b = ln(0.35 - t) stops the sweep
        # first, at 0.35: the domain exit names that time and error
        doc = {
            "model": "deformed-book",
            "coefficients": {"bA": "1", "bB": "ln(0.35 - t)"},
            "z": 1.0,
            "initial": {"chart": "xy", "values": [math.log(2.0), 1.0]},
            "grid": {"t_start": 0.0, "t_end": 2.0, "n_samples": 41},
        }
        path = tmp_path / "first.json"
        path.write_text(json.dumps(doc))
        trajectory, metadata, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert len(trajectory.samples) == 7
        assert metadata["validity_t_max"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert metadata["domain_exit"]["first_failing_t"] == pytest.approx(0.35)
        assert "ln of non-positive argument" in metadata["domain_exit"]["reason"]

    def test_tolerance_violation_gives_exit_code_1(self, tmp_path):
        path = write_scenario(tmp_path, tolerances={"deviation": 1e-18})
        _, metadata, code = run_scenario(path)
        assert code == EXIT_TOLERANCE
        assert metadata["result"] == "tolerance-violation"

    def test_moments_model(self, tmp_path):
        path = write_scenario(
            tmp_path,
            model="moments",
            coefficients={"rho0": "1"},
            initial={"chart": "moments", "values": [2.0 / 3.0, 1.0 / 9.0]},
            grid={"t_start": 0.0, "t_end": 3.0, "n_samples": 31},
        )
        trajectory, metadata, code = run_scenario(path)
        assert code == EXIT_PASS
        assert metadata["max_deviation"] < 1e-6
        # mean relaxes toward the equilibrium density
        assert trajectory.samples[-1].state[0] == pytest.approx(1.0, abs=0.05)

    def test_seasonal_sis(self, tmp_path):
        path = write_scenario(
            tmp_path,
            model="sis",
            coefficients={"rho0": "1 + 0.5*sin(t)", "b": "1"},
            initial={"chart": "qp", "values": [2.0 / 3.0, 3.0]},
        )
        _, metadata, code = run_scenario(path)
        assert code == EXIT_PASS
        assert metadata["max_deviation"] < 1e-6
        assert metadata["max_residual"] < 1e-12

    def test_fixed_method(self, tmp_path):
        path = write_scenario(
            tmp_path,
            grid={"t_start": 0.0, "t_end": 2.0, "n_samples": 21},
        )
        _, metadata, code = run_scenario(path, method="fixed")
        assert code == EXIT_PASS
        assert metadata["max_deviation"] < 1e-6

    def test_deterministic_outputs(self, tmp_path):
        path = write_scenario(tmp_path, seed=7)
        run_scenario(path, out_dir=tmp_path / "a")
        run_scenario(path, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "scen.csv").read_bytes() == \
            (tmp_path / "b" / "scen.csv").read_bytes()
        assert (tmp_path / "a" / "scen.report.json").read_bytes() == \
            (tmp_path / "b" / "scen.report.json").read_bytes()

    def test_csv_columns_reload_consistently(self, tmp_path):
        path = write_scenario(tmp_path)
        trajectory, _, _ = run_scenario(path, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "scen.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(trajectory.samples)
        for row, sample in zip(rows, trajectory.samples):
            # repr round-trip: the stored text parses back to the exact value
            assert float(row[0]) == sample.t
            assert float(row[1]) == sample.state[0]
            assert float(row[2]) == sample.state[1]
            assert abs(float(row[5]) - sample.deviation) <= 1e-12
            assert abs(float(row[6]) - sample.residual) <= 1e-12
            assert row[7] == ("1" if sample.physical else "0")

    def test_residual_recomputation_matches(self, tmp_path):
        path = write_scenario(tmp_path)
        run_scenario(path, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "scen.csv").read_text().splitlines()
        stored = [float(line.split(",")[6]) for line in lines[1:]]
        trajectory, _, _ = run_scenario(path)  # independent recomputation
        for value, sample in zip(stored, trajectory.samples):
            assert abs(value - sample.residual) <= 1e-12

    @pytest.mark.parametrize("initial, atol", [
        ((0.4, 0.8), 1e-12),  # every bundled and benchmark start keeps the default
        ((0.0, 0.0), 1e-12),
        ((1e-3, 0.0), 1e-10 * 1e-3),
        ((-1e-300, 2.0), 1e-10 * 1e-300),
        ((5e-324, 1.0), 5e-324),  # the product underflows to 0: the floor
    ])
    def test_oracle_atol_scales_with_the_initial_state(self, initial, atol):
        config = _oracle_config("adaptive", initial)
        assert config.atol == atol
        assert config.rtol == oracle.IntegratorConfig().rtol


BUNDLED_SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))


class TestResidual:
    """The residual column compares the closed form's exact time
    derivative with the model right-hand side."""

    @pytest.mark.parametrize("path", BUNDLED_SCENARIOS, ids=lambda p: p.stem)
    def test_bundled_scenario_at_round_off(self, path):
        _, metadata, _ = run_scenario(path)
        assert metadata["samples_evaluated"] > 0
        assert metadata["max_residual"] <= 1e-12

    def test_tiny_start_passes_at_round_off(self, tmp_path):
        # x starts at 1e-300 and grows as e^{300 t} to 0.46 at t = 2.3,
        # where e^Gamma is 1e299 and y is 1/300: the oracle's atol scales
        # with the initial state, so it follows x, and the rate of y is
        # formed from quotients, so it stays finite with the state
        path = write_scenario(
            tmp_path, model="book-canonical", coefficients={"bA": "300", "bB": "1"},
            initial={"chart": "xy", "values": [1e-300, 1.0]},
            grid={"t_start": 0.0, "t_end": 2.3, "n_samples": 24})
        trajectory, metadata, code = run_scenario(path)
        assert code == EXIT_PASS
        assert len(trajectory.samples) == 24
        assert metadata["max_deviation"] <= 1e-7
        assert all(math.isfinite(sample.residual) for sample in trajectory.samples)
        assert metadata["max_residual"] <= 1e-12

    def test_infinite_residual_is_reported(self, tmp_path):
        # at t = 2.36, x = 1e-300 e^{708} is about 3e7, but the rate's
        # product e^Theta * b_a overflows before c1 scales it down: the
        # rate is inf while the state is finite, so the residual is inf,
        # and the report must not skip it (the fixed-step oracle keeps
        # the run short; the residual does not depend on it)
        path = write_scenario(
            tmp_path, model="book-canonical", coefficients={"bA": "300", "bB": "1"},
            initial={"chart": "xy", "values": [1e-300, 1.0]},
            grid={"t_start": 0.0, "t_end": 2.36, "n_samples": 2})
        trajectory, metadata, _ = run_scenario(path, method="fixed",
                                               out_dir=tmp_path / "out")
        assert math.isfinite(trajectory.samples[-1].state[0])
        assert math.isinf(trajectory.samples[-1].residual)
        assert metadata["max_residual"] == math.inf
        report = json.loads((tmp_path / "out" / "scen.report.json").read_text())
        assert report["max_residual"] == math.inf

    # (model, fixed coefficients, varied key, its two values, chart, values, z);
    # the constant-rate models fix b == 1, so their pair differs in rho0
    TEETH = [
        ("book-canonical", {"bA": "0.5 + 0.3*sin(t)"}, "bB", ("0.5", "0.7"),
         "xy", [0.4, 0.8], 0.0),
        ("sis", {"rho0": "1 + 0.5*sin(t)"}, "b", ("0.5", "0.7"),
         "qp", [2.0 / 3.0, 3.0], 0.0),
        ("deformed-book", {"bA": "0.5 + 0.3*sin(t)"}, "bB", ("0.5", "0.7"),
         "xy", [0.4, 0.8], 0.1),
        ("deformed-sis", {"rho0": "1 + 0.5*sin(t)"}, "b", ("0.5", "0.7"),
         "qp", [2.0 / 3.0, 3.0], 0.05),
        ("sis-constant", {}, "rho0", ("1", "0.5"), "qp", [2.0 / 3.0, 3.0], 0.0),
        ("moments", {}, "rho0", ("1", "0.5"), "moments", [2.0 / 3.0, 1.0 / 9.0], 0.0),
    ]

    @pytest.mark.parametrize("model, fixed, key, pair, chart, values, z", TEETH,
                             ids=[case[0] for case in TEETH])
    def test_residual_has_teeth(self, model, fixed, key, pair, chart, values, z):
        # the closed form of one coefficient against the right-hand side
        # of another must show, at every sample
        def build(value):
            return build_adapter(parse_scenario({
                "model": model, "coefficients": {**fixed, key: value}, "z": z,
                "initial": {"chart": chart, "values": values},
                "grid": {"t_start": 0.0, "t_end": 1.5, "n_samples": 7},
            }))

        closed_form, other = build(pair[0]), build(pair[1])
        evaluate = closed_form.exact_evaluator()
        for t in (0.25 * k for k in range(7)):
            state, rate = evaluate(t)
            assert _residual(closed_form, t, state, rate) <= 1e-12
            assert _residual(other, t, state, rate) >= 0.1

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("model, fixed, key, pair, chart, values, z", TEETH,
                             ids=[case[0] for case in TEETH])
    def test_rhs_rejects_a_non_finite_state(self, model, fixed, key, pair, chart,
                                            values, z, bad):
        # the oracle's trial state past a blow-up must give a typed error
        # it can recover from, not the state dataclass's ValueError
        adapter = build_adapter(parse_scenario({
            "model": model, "coefficients": {**fixed, key: pair[0]}, "z": z,
            "initial": {"chart": chart, "values": values},
            "grid": {"t_start": 0.0, "t_end": 1.5, "n_samples": 7},
        }))
        with pytest.raises(NonFiniteSampleError, match="non-finite trial state"):
            adapter.rhs(0.5, (bad, 1.0))


def _outcome(call):
    """A right-hand side's value by float.hex, or its error's type, message
    and attached state."""
    try:
        a, b = call()
    except BooksisError as exc:
        return type(exc), str(exc), getattr(exc, "state", None)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return a.hex(), b.hex()


_LN = CoefficientFunction.from_text("ln(2.5 - t)")  # a domain error past t = 2.5
_ONE = CoefficientFunction.constant(1.0)


class TestModelFields:
    """Each model's right-hand side is one formula: the float field that
    ``Model.rhs`` calls equals the object-level function bit for bit, in
    its values and in its errors."""

    # the dilation coefficients fail past t = 2.5 with a domain error
    DOCS = {
        "book-canonical": ({"bA": "ln(2.5 - t)", "bB": "0.5 + 0.3*sin(t)"}, "xy",
                           [0.4, 0.8], 0.0),
        "sis": ({"rho0": "ln(2.5 - t)", "b": "1 + 0.2*cos(t)"}, "qp", [2.0 / 3.0, 3.0], 0.0),
        "sis-constant": ({"rho0": "1.5"}, "qp", [2.0 / 3.0, 3.0], 0.0),
        "moments": ({"rho0": "1.5"}, "moments", [2.0 / 3.0, 1.0 / 9.0], 0.0),
        "deformed-book": ({"bA": "ln(2.5 - t)", "bB": "0.5"}, "xy", [0.4, 0.8], 0.1),
        "deformed-sis": ({"rho0": "ln(2.5 - t)", "b": "1"}, "qp", [2.0 / 3.0, 3.0], 0.05),
    }
    OBJECT_RHS = {
        "book-canonical": lambda m, t, u, v: canonical.rhs(m.system, t, CanonicalState(u, v)),
        "sis": lambda m, t, u, v: sis.sis_rhs(m.system, t, EpidemicState(u, v)),
        "sis-constant": lambda m, t, u, v: sis.sis_rhs(m.system, t, EpidemicState(u, v)),
        "moments": lambda m, t, u, v: sis.moment_rhs(m.rate, MomentState(u, v)),
        "deformed-book": lambda m, t, u, v: deformed.deformed_rhs(
            m.system, t, CanonicalState(u, v)),
        "deformed-sis": lambda m, t, u, v: deformed.deformed_sis_rhs(
            m.system, t, EpidemicState(u, v)),
    }
    # p = 0, a zero or negative mean, the singular locus, overflow
    COMPONENT = st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-200, 1e200, 800.0]),
    )

    @pytest.mark.parametrize("model", list(DOCS))
    @settings(max_examples=150, deadline=None)
    @given(t=st.one_of(st.floats(0.0, 3.0), st.just(2.5)), u=COMPONENT, v=COMPONENT)
    def test_field_equals_the_object_level_rhs(self, model, t, u, v):
        if model == "moments":
            assume(v >= 0.0)  # MomentState holds no negative variance
        coefficients, chart, values, z = self.DOCS[model]
        adapter = build_adapter(parse_scenario({
            "model": model, "coefficients": coefficients, "z": z,
            "initial": {"chart": chart, "values": values},
            "grid": {"t_start": 0.0, "t_end": 1.5, "n_samples": 7},
        }))
        assert _outcome(lambda: adapter.rhs(t, (u, v))) == \
            _outcome(lambda: self.OBJECT_RHS[model](adapter, t, u, v))

    @pytest.mark.parametrize("call, error, state", [
        (lambda: sis.sis_field(_ONE, _ONE, 0.0, 0.5, 0.0),
         SingularLocusError, EpidemicState(0.5, 0.0)),
        (lambda: deformed.deformed_sis_field(_ONE, _ONE, 0.1, 0.0, 1.0, 1.0),
         SingularLocusError, EpidemicState(1.0, 1.0)),
        (lambda: sis.moment_field(1.0, 0.0, 0.1), MomentDomainError, None),
        (lambda: sis.moment_field(1.0, -2.0, 0.1), MomentDomainError, None),
        (lambda: canonical.book_field(_LN, _ONE, 3.0, 1.0, 1.0), EvaluationDomainError, None),
        (lambda: sis.sis_field(_LN, _ONE, 3.0, 0.5, 3.0), EvaluationDomainError, None),
        (lambda: deformed.deformed_field(_LN, _ONE, 0.1, 3.0, 1.0, 1.0),
         EvaluationDomainError, None),
        (lambda: deformed.deformed_sis_field(_LN, _ONE, 0.1, 3.0, 0.5, 3.0),
         EvaluationDomainError, None),
    ])
    def test_fields_raise_typed_errors(self, call, error, state):
        with pytest.raises(error) as info:
            call()
        assert getattr(info.value, "state", None) == state


class TestRunIsTyped:
    def test_moments_trial_state_below_zero_variance(self, tmp_path):
        # a trial stage of the oracle reaches a variance of -9.3e-15; the
        # cleared moment equations hold there, so the run passes
        path = write_scenario(
            tmp_path, model="moments", coefficients={"rho0": "5"},
            initial={"chart": "moments", "values": [0.5, 0.01]},
            grid={"t_start": 0.0, "t_end": 5.0, "n_samples": 11})
        _, metadata, code = run_scenario(path)
        assert code == EXIT_PASS
        assert metadata["max_deviation"] <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["moments", "sis-constant", "sis"]),
        rho0=st.sampled_from([-2.0, -0.5, 0.5, 1.0, 5.0]),
        b=st.sampled_from([0.5, 1.0, 2.0]),
        first=st.sampled_from([0.01, 0.5, 2.0, 10.0, 50.0]),
        second=st.sampled_from([1e-12, 1e-6, 0.01, 1.0, 100.0]),
        t_end=st.sampled_from([1.0, 5.0]),
    )
    def test_moments_and_sis_starts_fail_typed(self, model, rho0, b, first, second, t_end):
        # any start either runs or raises a typed error, never another one
        if model == "sis":
            coefficients = {"rho0": repr(rho0), "b": repr(b)}
        else:
            coefficients = {"rho0": repr(rho0)}
        chart = "moments" if model == "moments" else "qp"
        with tempfile.TemporaryDirectory() as tmp:
            path = write_scenario(
                Path(tmp), model=model, coefficients=coefficients,
                initial={"chart": chart, "values": [first, second]},
                grid={"t_start": 0.0, "t_end": t_end, "n_samples": 11})
            try:
                run_scenario(path)
            except BooksisError:
                pass


class TestCompare:
    def test_orders(self, tmp_path):
        path = tmp_path / "deformed.json"
        path.write_text(json.dumps(deformed_book_doc()))
        rows, code = compare_scenario(path, [1e-2, 5e-3, 2.5e-3])
        assert code == EXIT_PASS
        for row in rows[:-1]:
            # deviation from classical is first order, the truncation
            # residual second order in z
            assert 0.8 <= row["deviation_order"] <= 1.2
            assert 1.8 <= row["residual_order"] <= 2.2

    def test_zero_z_rows_identical(self, tmp_path):
        path = tmp_path / "deformed.json"
        path.write_text(json.dumps(deformed_book_doc()))
        rows, _ = compare_scenario(path, [0.0])
        assert rows[0]["deviation_vs_classical"] <= 1e-12
        assert rows[0]["first_order_residual"] <= 1e-12

    def test_rejects_classical_scenario(self, tmp_path):
        path = write_scenario(tmp_path)
        with pytest.raises(ScenarioError):
            compare_scenario(path, [1e-2])

    def test_window_edge_inside_the_grid_names_z_and_edge(self, tmp_path):
        doc = deformed_book_doc(z=1.0, t_end=2.0)
        doc["coefficients"] = {"bA": "1", "bB": "1"}
        doc["initial"] = {"chart": "xy", "values": [math.log(2.0), 1.0]}
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        # the sweep itself stops at the edge, t_max = ln 2
        with pytest.raises(BooksisError, match="inside the grid") as err:
            compare_scenario(path, [1.0])
        assert "z=1.0" in str(err.value)
        assert _last_number(str(err.value)) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_csv_output(self, tmp_path):
        path = tmp_path / "deformed.json"
        path.write_text(json.dumps(deformed_book_doc()))
        compare_scenario(path, [1e-2, 5e-3], out_dir=tmp_path / "out")
        text = (tmp_path / "out" / "deformed.compare.csv").read_text()
        assert text.splitlines()[0] == (
            "z,deviation_vs_classical,deviation_order,"
            "first_order_residual,residual_order"
        )


class TestMainEntryPoint:
    def test_run_pass(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["run", str(path), "--output", str(tmp_path / "out")])
        assert code == EXIT_PASS
        assert "pass" in capsys.readouterr().out

    @pytest.mark.parametrize("t_end", [1e-15, 5e-324])
    def test_run_grid_shorter_than_oracle_minimum_step(self, tmp_path, capsys, t_end):
        # the adaptive oracle's minimum step is 16 ulp(1) = 3.55e-15
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(deformed_book_doc(t_end=t_end, n=2)))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == EXIT_PASS

    @pytest.mark.parametrize("rho0,t_end", [("0", 0.5), ("-712", 1.0)],
                             ids=["singular-locus", "subnormal-growth"])
    @pytest.mark.parametrize("model,z", [("sis", None), ("deformed-sis", 0.0),
                                         ("deformed-sis", 0.5)],
                             ids=["sis", "deformed-sis-0", "deformed-sis"])
    def test_run_chart_route_failure_is_domain_exit(self, tmp_path, capsys,
                                                     model, z, rho0, t_end):
        # (q, p) = (-2/3, -3/4) is (x, y) = (1, 0.5): with rho0 = 0 the
        # solution meets the singular locus at t = 0.5, with rho0 = -712
        # e^Theta(1) is subnormal
        doc = {
            "model": model,
            "coefficients": {"rho0": rho0, "b": "1"},
            "initial": {"chart": "qp", "values": [-2.0 / 3.0, -0.75]},
            "grid": {"t_start": 0.0, "t_end": t_end, "n_samples": 2},
        }
        if z is not None:
            doc["z"] = z
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == EXIT_DOMAIN
        report = json.loads((tmp_path / "out" / "chart.report.json").read_text())
        assert report["domain_exit"]["first_failing_t"] == t_end

    def test_run_missing_file(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == EXIT_INPUT

    def test_run_invalid_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, model="sir")
        assert main(["run", str(path)]) == EXIT_INPUT

    def test_run_window_exit(self, tmp_path, capsys):
        doc = {
            "model": "deformed-book",
            "coefficients": {"bA": "1", "bB": "1"},
            "z": 1.0,
            "initial": {"chart": "xy", "values": [math.log(2.0), 1.0]},
            "grid": {"t_start": 0.0, "t_end": 2.0, "n_samples": 21},
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "model, coefficients, z, chart, values",
        [
            ("book-canonical", {"bA": "-800", "bB": "0"}, 0.0, "xy", [0.4, 0.8]),
            ("sis", {"rho0": "-800", "b": "1"}, 0.0, "qp", [2.0 / 3.0, 3.0]),
            ("sis-constant", {"rho0": "-800"}, 0.0, "qp", [2.0 / 3.0, 3.0]),
            ("deformed-book", {"bA": "-800", "bB": "0"}, 0.1, "xy", [0.4, 0.8]),
            ("deformed-sis", {"rho0": "-800", "b": "1"}, 0.1, "qp", [2.0 / 3.0, 3.0]),
            ("book-canonical", {"bA": "1", "bB": "1e308"}, 0.0, "xy", [0.4, 0.8]),
            # cos of an infinite argument at every t != 0
            ("book-canonical", {"bA": "1", "bB": "cos(1e300*t*1e300)"}, 0.0, "xy",
             [0.4, 0.8]),
            # finite on [0, 1e-4] but oscillating like cos(1e310 t) there, so
            # no quadrature may be asked to integrate it after the exit
            ("book-canonical", {"bA": "1", "bB": "cos(1e300*t*1e10)"}, 0.0, "xy",
             [0.4, 0.8]),
        ],
        ids=["book-underflow", "sis-underflow", "sis-constant-underflow",
             "deformed-book-underflow", "deformed-sis-underflow", "book-overflow",
             "book-cos-overflow", "book-cos-fast-oscillation"],
    )
    def test_run_closed_form_out_of_range(self, tmp_path, capsys, model,
                                          coefficients, z, chart, values):
        # exp(+-Theta) underflows, the forced integral overflows or a
        # coefficient leaves its domain inside the grid
        path = write_scenario(
            tmp_path, model=model, coefficients=coefficients, z=z,
            initial={"chart": chart, "values": values},
            grid={"t_start": 0.0, "t_end": 2.0, "n_samples": 5},
        )
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == EXIT_DOMAIN
        report = json.loads((tmp_path / "out" / "scen.report.json").read_text())
        assert report["domain_exit"] is not None

    def test_run_moments_nonpositive_initial_mean(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, model="moments",
            initial={"chart": "moments", "values": [-0.5, 0.1]})
        assert main(["run", str(path)]) == EXIT_INPUT
        assert "positive initial mean" in capsys.readouterr().err

    def test_run_moments_mean_crosses_zero(self, tmp_path, capsys):
        # the variance drives the mean below 0 shortly after t = 0, where
        # the moment equations are undefined: the oracle stops, typed
        path = write_scenario(
            tmp_path, model="moments",
            initial={"chart": "moments", "values": [0.1, 5.0]})
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == EXIT_DOMAIN
        report = json.loads((tmp_path / "out" / "scen.report.json").read_text())
        assert "numerical integration stopped" in report["domain_exit"]["reason"]

    def test_run_integrates_once_when_the_oracle_stops(self, tmp_path, monkeypatch):
        # the samples placed before the oracle stopped are kept from that
        # one pass, not integrated again
        calls = []
        integrate_ode = oracle.integrate_ode

        def counted(*args):
            calls.append(args)
            return integrate_ode(*args)

        monkeypatch.setattr(oracle, "integrate_ode", counted)
        path = write_scenario(
            tmp_path, model="moments",
            initial={"chart": "moments", "values": [0.1, 5.0]})
        _, report, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert "numerical integration stopped" in report["domain_exit"]["reason"]
        assert report["samples_evaluated"] > 0
        assert len(calls) == 1

    def test_run_oracle_failure_at_the_initial_state_writes_outputs(self, tmp_path):
        # p*p underflows to 0, so the rhs divides by zero at t_start: the
        # oracle stops before it places a sample
        path = write_scenario(
            tmp_path, model="sis", coefficients={"rho0": "1", "b": "1"},
            initial={"chart": "qp", "values": [0.5, 1e-200]},
            grid={"t_start": 0.0, "t_end": 1.0, "n_samples": 5})
        out = tmp_path / "out"
        assert main(["run", str(path), "--output", str(out)]) == EXIT_DOMAIN
        report = json.loads((out / "scen.report.json").read_text())
        assert report["domain_exit"] is not None
        assert report["samples_evaluated"] == 0
        assert (out / "scen.csv").read_text() == "t,q,p,x,y,deviation,residual,physical\n"

    def test_run_reports_the_oracles_earlier_failure(self, tmp_path):
        # the oracle fails at t = 0, before the sweep fails at t = 0.25
        # ("closed-form state (nan, -inf) is not finite"): the earlier
        # failure is the domain exit
        path = write_scenario(
            tmp_path, model="sis", coefficients={"rho0": "1", "b": "1"},
            initial={"chart": "qp", "values": [0.5, 1e-200]},
            grid={"t_start": 0.0, "t_end": 1.0, "n_samples": 5})
        _, report, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert report["domain_exit"]["first_failing_t"] == 0.0
        assert report["domain_exit"]["reason"].startswith("numerical integration stopped")

    def test_run_catches_wrong_integration_constants(self, monkeypatch):
        # a constant-rate closed form with the sign of c2 * rho0 flipped:
        # the oracle starts from the scenario's initial values, not from
        # the closed form's state at t_start, so the run fails its tolerance
        original = sis.sis_constant_jet

        def mutated(rho0, constants, t):
            return original(rho0, IntegrationConstants(constants.c1, -constants.c2), t)

        monkeypatch.setattr(sis, "sis_constant_jet", mutated)
        _, report, code = run_scenario(ROOT / "scenarios" / "constant_sis.json")
        assert code == EXIT_TOLERANCE
        assert report["domain_exit"] is None
        assert report["max_deviation"] > 1.0

    @pytest.mark.parametrize(
        "rho0",
        ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "^".join(["1"] * 3000)],
        ids=["parentheses", "unary-minus", "power-chain"],
    )
    def test_run_deep_expression(self, tmp_path, capsys, rho0):
        path = write_scenario(tmp_path, coefficients={"rho0": rho0})
        assert main(["run", str(path)]) == EXIT_INPUT
        assert "nests deeper" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_run_rejects_tol(self, tmp_path, capsys, tol):
        # NaN would pass whatever the deviation, -1 would always fail
        path = write_scenario(tmp_path)
        assert main(["run", str(path), f"--tol={tol}"]) == EXIT_INPUT
        assert "tol must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, digits, message",
        [
            ("z", 400, "z must be finite"),
            ("initial", 400, "initial.values[0] must be finite"),
            ("t_end", 400, "grid.t_end must be finite"),
            # past Python's 4300-digit limit json.loads itself refuses it
            ("z", 5000, "invalid JSON"),
            # a float, but far more samples than a grid may hold
            ("n_samples", 16, "grid.n_samples must be an integer in [2, 1000000]"),
        ],
        ids=["z", "initial-value", "t-end", "past-digit-limit", "n-samples"],
    )
    def test_run_rejects_huge_integer(self, tmp_path, capsys, field, digits, message):
        # an integer too large for a float, or for its field
        doc = deformed_book_doc()
        if field == "z":
            doc["z"] = 7.25
        elif field == "initial":
            doc["initial"]["values"][0] = 7.25
        elif field == "n_samples":
            doc["grid"]["n_samples"] = 7.25
        else:
            doc["grid"]["t_end"] = 7.25
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace("7.25", "9" * digits))
        assert main(["run", str(path)]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-inf", "0"])
    def test_window_rejects_horizon(self, tmp_path, capsys, horizon):
        # Theta = 0.5 (1 - cos t) stays below the edge ln(1/(z c1)): a scan
        # to an infinite horizon would never return
        doc = deformed_book_doc(z=0.5)
        doc["coefficients"] = {"bA": "0.5*sin(t)", "bB": "1"}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        assert main(["window", str(path), f"--horizon={horizon}"]) == EXIT_INPUT
        assert "--horizon must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_invariants_rejects_count(self, capsys, count):
        assert main(["invariants", "--count", count]) == EXIT_INPUT
        assert "--count must be at least 1" in capsys.readouterr().err

    def test_window_verb(self, tmp_path, capsys):
        doc = deformed_book_doc(z=1.0)
        doc["coefficients"] = {"bA": "1", "bB": "1"}
        doc["initial"] = {"chart": "xy", "values": [math.log(2.0), 1.0]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        assert main(["window", str(path)]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "t_max=" in out
        assert f"{math.log(2.0)!r}"[:8] in out

    def test_narrow_pulse_edge_is_bisected_in_window_and_run(self, tmp_path, capsys):
        # the pulse is 0.003 wide; window and run's domain exit both name
        # the edge, 1.000783344010159 by mpmath, not a Chebyshev node
        path = ROOT / "scenarios" / "narrow_pulse.json"
        edge = 1.000783344010159
        assert main(["window", str(path), "--horizon", "4"]) == EXIT_PASS
        assert _last_number(capsys.readouterr().out) == pytest.approx(edge, abs=1e-9)
        _, metadata, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert metadata["validity_t_max"] == pytest.approx(edge, abs=1e-9)
        reason = metadata["domain_exit"]["reason"]
        assert _last_number(reason) == pytest.approx(edge, abs=1e-9)

    def test_window_edge_at_the_scenarios_quadrature_tolerance(self, tmp_path, capsys):
        # at tolerances.quadrature = 1e-4 the edge moves by 6e-11 from its
        # place at the default 1e-10: window and run name the edge of a
        # kernel at the scenario's tolerance, as the sweep's kernel does
        doc = deformed_book_doc(z=1.0, n=3001)
        doc["coefficients"] = {"bA": "1 + 0.9*sin(40*t)", "bB": "1"}
        doc["initial"]["values"] = [0.2, 1.0]
        doc["tolerances"] = {"quadrature": 1e-4}
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(doc))
        adapter = build_adapter(load_scenario(path))
        kernel = BookIntegrals(adapter.book.base.b_a, adapter.book.base.b_b, 0.0, 1e-4,
                               adapter.constants.c1)
        edge = kernel.window_end(3.0)
        assert main(["window", str(path)]) == EXIT_PASS
        assert capsys.readouterr().out == f"t_max={edge!r}\n"
        _, metadata, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert metadata["validity_t_max"] == edge

    @pytest.mark.parametrize("name", ["window_exit", "narrow_pulse"])
    def test_every_verb_names_one_edge(self, name, capsys):
        # window, run and each z of compare build one kernel per adapter
        # (run's domain exit and sweep read the same one), on one piece
        # grid: they bisect the same edge
        path = ROOT / "scenarios" / f"{name}.json"
        assert main(["window", str(path), "--horizon", "4"]) == EXIT_PASS
        edge = _last_number(capsys.readouterr().out)
        _, metadata, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert metadata["validity_t_max"] == edge
        assert _last_number(metadata["domain_exit"]["reason"]) == edge
        with pytest.raises(BooksisError, match="inside the grid") as err:
            compare_scenario(path)
        assert _last_number(str(err.value)) == edge

    @pytest.fixture
    def kernels_built(self, monkeypatch):
        """Every BookIntegrals built from here on."""
        built = []
        init = BookIntegrals.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(BookIntegrals, "__init__", spy)
        return built

    @pytest.mark.parametrize("name", ["deformed_book", "deformed_sis", "window_exit",
                                      "narrow_pulse"])
    def test_run_builds_one_kernel(self, name, kernels_built):
        # the window, the sweep and the residual of a run read one kernel
        run_scenario(ROOT / "scenarios" / f"{name}.json")
        assert len(kernels_built) == 1

    @pytest.mark.parametrize("name", ["deformed_book", "deformed_sis"])
    def test_compare_builds_one_kernel_per_z(self, name, kernels_built):
        # one for the classical reference, then one for each of z, z/2, z/4
        compare_scenario(ROOT / "scenarios" / f"{name}.json")
        assert len(kernels_built) == 4

    @pytest.mark.parametrize("name", ["deformed_book", "deformed_sis", "window_exit"])
    def test_fresh_evaluator_gives_the_sweeps_bits(self, name):
        # for z c1 > 0 the values depend only on t: a cold kernel asked at
        # one grid time alone gives the jet the sweep gave there
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        adapter = build_adapter(scenario)
        t_max = adapter.kernel.window_end(scenario.t_end + 1.0)
        grid = np.linspace(scenario.t_start, scenario.t_end, scenario.n_samples)
        times = [float(t) for t in grid if t < t_max]
        sweep = adapter.exact_evaluator()
        jets = [sweep(t) for t in times]
        for t, jet in zip(times, jets):
            assert build_adapter(scenario).exact_evaluator()(t) == jet

    def test_window_edge_for_a_subnormal_product(self, tmp_path, capsys):
        # z c1 = 1e-310 is subnormal: 1 - z c1 e^Theta reaches 0 only at
        # Theta = -ln(1e-310) = 713.8, past the cap ln(DBL_MAX) = 709.8 on e^Theta
        doc = deformed_book_doc(z=1e-310)
        doc["coefficients"] = {"bA": "300", "bB": "1"}
        doc["initial"] = {"chart": "xy", "values": [1.0, 1.0]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        edge = -math.log(1e-310) / 300.0
        assert main(["window", str(path)]) == EXIT_PASS
        assert _last_number(capsys.readouterr().out) == pytest.approx(edge, abs=1e-9)
        _, metadata, code = run_scenario(path)
        assert code == EXIT_DOMAIN
        assert metadata["validity_t_max"] == pytest.approx(edge, abs=1e-9)

    def test_run_rejects_an_overflowing_grid_span(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, model="book-canonical", coefficients={"bA": "1", "bB": "1"},
            initial={"chart": "xy", "values": [0.4, 0.8]}, a=-1e308,
            grid={"t_start": -1e308, "t_end": 1e308, "n_samples": 5})
        assert main(["run", str(path)]) == EXIT_INPUT
        assert "grid span t_end - t_start must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["run", "compare"])
    def test_output_naming_a_file_is_an_input_error(self, tmp_path, capsys, verb):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(deformed_book_doc()))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([verb, str(path), "--output", str(taken)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"cannot create output directory {str(taken)!r}" in captured.err
        # it fails before the sweep, so nothing is printed
        assert captured.out == ""

    def test_window_verb_unbounded(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(deformed_book_doc(z=-0.5)))
        assert main(["window", str(path)]) == EXIT_PASS
        assert "inf" in capsys.readouterr().out

    def test_invariants_verb(self, capsys):
        assert main(["invariants", "--seed", "0", "--count", "40"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_compare_verb(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(deformed_book_doc()))
        code = main(["compare", str(path), "--z-sweep", "1e-2,5e-3"])
        assert code == EXIT_PASS
        assert "dev_vs_classical" in capsys.readouterr().out

    @pytest.mark.parametrize("sweep", [",", " ", ""])
    def test_compare_rejects_empty_sweep(self, tmp_path, capsys, sweep):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(deformed_book_doc()))
        assert main(["compare", str(path), "--z-sweep", sweep]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "the z sweep is empty" in captured.err
        assert "dev_vs_classical" not in captured.out
        with pytest.raises(ScenarioError, match="the z sweep is empty"):
            compare_scenario(path, [])



# grid ends at the edges of the float range, where spans overflow or
# round, and next to 0
POSITIVE_TIMES = [5e-324, 1e-300, 1.0, 1e300, 1e308, sys.float_info.max]
EXTREME_TIMES = [0.0, *POSITIVE_TIMES, *(-t for t in POSITIVE_TIMES)]


def _book_doc(value, ends, n):
    return {"model": "book-canonical", "coefficients": {"bA": value, "bB": "1"},
            "initial": {"chart": "xy", "values": [0.4, 0.8]}, "a": ends[0],
            "grid": {"t_start": ends[0], "t_end": ends[1], "n_samples": n}}


def _sis_constant_doc(value, t_end, n):
    # the constant-rate closed form is pinned at t = 0
    return {"model": "sis-constant", "coefficients": {"rho0": value},
            "initial": {"chart": "qp", "values": [2.0 / 3.0, 3.0]},
            "grid": {"t_start": 0.0, "t_end": t_end, "n_samples": n}}


CONSTANTS = st.floats(-2.0, 2.0).map(repr)
SAMPLES = st.integers(2, 30)


@given(
    doc=st.builds(_book_doc, CONSTANTS, st.lists(st.sampled_from(EXTREME_TIMES), min_size=2,
                                                 max_size=2, unique=True).map(sorted), SAMPLES)
    | st.builds(_sis_constant_doc, CONSTANTS, st.sampled_from(POSITIVE_TIMES), SAMPLES),
    output_is_file=st.booleans(),
)
# a span that overflows, and an output path that names a file
@example(doc=_book_doc("1.0", [-1e308, 1e308], 5), output_is_file=False)
@example(doc=_sis_constant_doc("1.0", 1.0, 5), output_is_file=True)
@settings(max_examples=40, deadline=None)
def test_run_exit_code_is_always_a_documented_one(doc, output_is_file):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "scen.json"
        path.write_text(json.dumps(doc))
        output = tmp / "out"
        if output_is_file:
            output.write_text("")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(path), "--output", str(output)])
    assert code in (EXIT_PASS, EXIT_TOLERANCE, EXIT_INPUT, EXIT_DOMAIN)


def _grid_scenario(t_start, t_end, n_samples):
    return Scenario(model="book-canonical", coefficients={"bA": "1", "bB": "1"}, z=0.0,
                    a=t_start, chart="xy", initial=(0.4, 0.8), t_start=t_start,
                    t_end=t_end, n_samples=n_samples, deviation_tol=1e-6,
                    quadrature_tol=1e-10, seed=0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
DBL_MAX = sys.float_info.max


@given(FINITE, FINITE, st.integers(2, 2000))
# the last product overflows; ends near -DBL_MAX and +DBL_MAX; a step
# that underflows to 0; subnormal spans; a span of one ulp
@example(-DBL_MAX / 2, DBL_MAX / 2, 4)
@example(-DBL_MAX, -1e308, 5)
@example(1e308, DBL_MAX, 3)
@example(0.0, 5e-324, 1000)
@example(-5e-324, 5e-324, 3)
@example(1e-310, 2e-310, 100)
@example(1.0, 1.0 + 2.0 ** -52, 7)
@settings(max_examples=300, deadline=None)
def test_sample_times_are_linspace_bit_for_bit(a, b, n):
    t_start, t_end = min(a, b), max(a, b)
    assume(t_start < t_end and math.isfinite(t_end - t_start))
    with np.errstate(over="ignore"):
        expected = np.linspace(t_start, t_end, n)
    assert ([t.hex() for t in _sample_times(_grid_scenario(t_start, t_end, n))]
            == [float(t).hex() for t in expected])

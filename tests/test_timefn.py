import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from booksis.errors import (
    ArityMismatchError,
    EvaluationDomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from booksis.timefn import (
    BinOp,
    Call,
    CoefficientFunction,
    Literal,
    MAX_DEPTH,
    Neg,
    TimeVar,
    evaluate,
    evaluate_ast,
    parse_expression,
    to_text,
)


class TestParser:
    def test_single_literal(self):
        assert parse_expression("1") == Literal(1.0)

    def test_structure(self):
        tree = parse_expression("1+0.5*sin(t)")
        assert tree == BinOp(
            "+", Literal(1.0), BinOp("*", Literal(0.5), Call("sin", TimeVar()))
        )

    def test_power_precedence(self):
        assert evaluate_ast(parse_expression("2*t^3"), 2.0) == 16.0

    def test_function_requires_parentheses(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("sin t")
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expression("foo(t)")
        assert err.value.offset == 0
        with pytest.raises(UnknownIdentifierError):
            parse_expression("t + x")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError) as err:
            parse_expression("sin(t, 1)")
        assert err.value.got == 2

    def test_empty(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1 + 2) ")

    def test_unbalanced(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("(1 + 2")

    def test_unary_minus_binds_below_power(self):
        assert evaluate_ast(parse_expression("-2^2"), 0.0) == -4.0

    def test_power_right_associative(self):
        assert evaluate_ast(parse_expression("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert evaluate_ast(parse_expression("2^-3"), 0.0) == 0.125

    def test_left_associative_subtraction(self):
        assert evaluate_ast(parse_expression("10 - 4 - 3"), 0.0) == 3.0

    @pytest.mark.parametrize(
        "shape, offset",
        [
            (lambda n: "(" * (n - 1) + "t" + ")" * (n - 1), MAX_DEPTH),
            (lambda n: "-" * (n - 1) + "t", MAX_DEPTH),
            (lambda n: "^".join(["t"] * n), 2 * MAX_DEPTH),
            (lambda n: "+".join(["t"] * n), 2 * MAX_DEPTH - 1),
            (lambda n: "sin(" * (n - 1) + "t" + ")" * (n - 1), 4 * MAX_DEPTH),
        ],
        ids=["parentheses", "unary-minus", "power-chain", "sum-chain", "calls"],
    )
    def test_nesting_limit(self, shape, offset):
        # the deepest accepted tree still prints, evaluates and folds
        fn = CoefficientFunction.from_ast(parse_expression(shape(MAX_DEPTH)))
        assert parse_expression(fn.to_text()) == fn.as_expression()
        fn(0.5)
        assert not fn.is_constant()
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(shape(MAX_DEPTH + 1))
        assert err.value.offset == offset


class TestEvaluate:
    def test_constant(self):
        f = CoefficientFunction.constant(3.0)
        assert evaluate(f, 17.5) == 3.0

    def test_sinusoidal_at_zero(self):
        f = CoefficientFunction.sinusoidal(1.0, 0.5, 1.0, 0.0)
        assert evaluate(f, 0.0) == 1.0

    def test_exp_expression(self):
        f = CoefficientFunction.from_text("exp(-t)")
        assert evaluate(f, 0.0) == 1.0

    def test_linear(self):
        f = CoefficientFunction.linear(2.0, -1.0)
        assert evaluate(f, 3.0) == 5.0

    def test_ln_domain_error_reports_context(self):
        f = CoefficientFunction.from_text("ln(t)")
        with pytest.raises(EvaluationDomainError) as err:
            evaluate(f, -1.0)
        assert err.value.t == -1.0
        assert "ln" in err.value.subexpression

    def test_division_by_zero(self):
        f = CoefficientFunction.from_text("1/(t - 1)")
        with pytest.raises(EvaluationDomainError):
            evaluate(f, 1.0)

    @pytest.mark.parametrize(
        "f, t",
        [
            (CoefficientFunction.linear(1e308, 0.0), 10.0),
            (CoefficientFunction.constant(math.inf), 0.0),
            (CoefficientFunction.sinusoidal(1.0, 0.5, 1e308, 0.0), 10.0),
            (CoefficientFunction.from_text("cos(1e308*t)"), 2.0),
            (CoefficientFunction.from_text("sin(1e308*t)"), 2.0),
        ],
        ids=["linear-overflow", "constant-inf", "sinusoidal-inf-argument",
             "cos-inf-argument", "sin-inf-argument"],
    )
    def test_non_finite_value_is_a_domain_error(self, f, t):
        with pytest.raises(EvaluationDomainError) as err:
            evaluate(f, t)
        assert err.value.t == t

    def test_deterministic(self):
        f = CoefficientFunction.from_text("1 + 0.5*sin(2*t + 0.3)")
        values = {evaluate(f, 1.2345) for _ in range(10)}
        assert len(values) == 1


class TestBuiltinEquivalence:
    """Each builtin family evaluates identically to its expression tree."""

    @pytest.mark.parametrize(
        "fn",
        [
            CoefficientFunction.constant(2.75),
            CoefficientFunction.linear(0.3, -1.2),
            CoefficientFunction.sinusoidal(1.1, 0.5, 2.0, 0.7),
        ],
        ids=["constant", "linear", "sinusoidal"],
    )
    def test_matches_expression_tree(self, fn):
        import random

        rng = random.Random(12345)
        tree = fn.as_expression()
        for _ in range(1000):
            t = rng.uniform(-20.0, 20.0)
            direct = fn(t)
            via_tree = evaluate_ast(tree, t)
            assert abs(direct - via_tree) <= 1e-15 * max(1.0, abs(direct))

    def test_expression_round_trips_through_text(self):
        fn = CoefficientFunction.sinusoidal(1.1, 0.5, 2.0, 0.7)
        reparsed = CoefficientFunction.from_text(fn.to_text())
        for t in (0.0, 0.5, 1.7, -3.0):
            assert reparsed(t) == pytest.approx(fn(t), rel=1e-15)


# --- property tests -----------------------------------------------------------

_literals = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
).map(Literal)
_leaves = st.one_of(_literals, st.just(TimeVar()))


def _combine(children):
    binops = st.tuples(
        st.sampled_from("+-*/^"), children, children
    ).map(lambda t: BinOp(*t))
    calls = st.tuples(st.sampled_from(["sin", "cos", "exp", "ln", "abs"]), children).map(
        lambda t: Call(*t)
    )
    # the parser folds a negated literal, so do not generate Neg(Literal)
    negs = children.filter(lambda n: not isinstance(n, Literal)).map(Neg)
    return st.one_of(binops, calls, negs)


_asts = st.recursive(_leaves, _combine, max_leaves=25)


@given(_asts)
@settings(max_examples=300, deadline=None)
def test_pretty_print_round_trip(tree):
    assert parse_expression(to_text(tree)) == tree


@given(st.text(alphabet="0123456789.+-*/^()tsincoexplab ", max_size=40))
@example("(" * 3000 + "t" + ")" * 3000)
@example("-" * 3000 + "t")
@example("^".join(["t"] * 3000))
@example("+".join(["t"] * 3000))
@settings(max_examples=300, deadline=None)
def test_parser_never_crashes_unexpectedly(source):
    try:
        parse_expression(source)
    except (ExpressionSyntaxError, UnknownIdentifierError, ArityMismatchError):
        pass

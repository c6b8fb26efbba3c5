import math
import operator
import pickle
import random

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
        assert CoefficientFunction.from_text("2*t^3")(2.0) == 16.0

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
        assert CoefficientFunction.from_text("-2^2")(0.0) == -4.0

    def test_power_right_associative(self):
        assert CoefficientFunction.from_text("2^3^2")(0.0) == 512.0

    def test_negative_exponent(self):
        assert CoefficientFunction.from_text("2^-3")(0.0) == 0.125

    def test_left_associative_subtraction(self):
        assert CoefficientFunction.from_text("10 - 4 - 3")(0.0) == 3.0

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
        # the deepest accepted tree still prints, compiles, evaluates and folds
        fn = CoefficientFunction(parse_expression(shape(MAX_DEPTH)))
        assert parse_expression(fn.to_text()) == fn.ast
        fn(0.5)
        assert not fn.is_constant()
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(shape(MAX_DEPTH + 1))
        assert err.value.offset == offset


class TestEvaluate:
    def test_constant(self):
        f = CoefficientFunction.constant(3.0)
        assert f(17.5) == 3.0

    def test_sinusoidal_at_zero(self):
        f = CoefficientFunction.sinusoidal(1.0, 0.5, 1.0, 0.0)
        assert f(0.0) == 1.0

    def test_exp_expression(self):
        f = CoefficientFunction.from_text("exp(-t)")
        assert f(0.0) == 1.0

    def test_linear(self):
        f = CoefficientFunction.linear(2.0, -1.0)
        assert f(3.0) == 5.0

    def test_ln_domain_error_reports_context(self):
        f = CoefficientFunction.from_text("ln(t)")
        with pytest.raises(EvaluationDomainError) as err:
            f(-1.0)
        assert err.value.t == -1.0
        assert "ln" in err.value.subexpression

    def test_division_by_zero(self):
        f = CoefficientFunction.from_text("1/(t - 1)")
        with pytest.raises(EvaluationDomainError):
            f(1.0)

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
            f(t)
        assert err.value.t == t

    def test_pickle_round_trip(self):
        f = CoefficientFunction.from_text("1 + 0.5*sin(2*t + 0.3)")
        g = pickle.loads(pickle.dumps(f))
        assert g == f and g(1.2345) == f(1.2345)

    def test_deterministic(self):
        f = CoefficientFunction.from_text("1 + 0.5*sin(2*t + 0.3)")
        values = {f(1.2345) for _ in range(10)}
        assert len(values) == 1


    def test_is_constant_is_syntactic(self):
        assert CoefficientFunction.constant(0.5).is_constant()
        assert CoefficientFunction.from_text("2*exp(1)").is_constant()
        assert not CoefficientFunction.linear(0.0, 0.5).is_constant()
        assert not CoefficientFunction.from_text("0*t").is_constant()


class TestBuiltinFamilies:
    """The builtin constructors build plain expression trees."""

    @pytest.mark.parametrize(
        "fn, formula",
        [
            (CoefficientFunction.constant(2.75), lambda t: 2.75),
            (CoefficientFunction.linear(0.3, -1.2), lambda t: 0.3 * t + -1.2),
            (CoefficientFunction.sinusoidal(1.1, 0.5, 2.0, 0.7),
             lambda t: 1.1 * (1.0 + 0.5 * math.sin(2.0 * t + 0.7))),
        ],
        ids=["constant", "linear", "sinusoidal"],
    )
    def test_matches_formula(self, fn, formula):
        rng = random.Random(12345)
        for _ in range(1000):
            t = rng.uniform(-20.0, 20.0)
            assert fn(t).hex() == formula(t).hex()

    def test_round_trips_through_text(self):
        for fn in (
            CoefficientFunction.constant(-2.75),
            CoefficientFunction.linear(-0.3, -1.2),
            CoefficientFunction.sinusoidal(1.1, -0.5, 2.0, -0.7),
        ):
            assert CoefficientFunction.from_text(fn.to_text()) == fn


class TestEnclose:
    """Interval enclosures of a coefficient over a box of t."""

    @pytest.mark.parametrize("text, lo, hi, box", [
        ("0.9 + 0.04*t", 0.0, 3.0, (0.9, 0.9 + 0.04 * 3.0)),
        ("-2*t + 1", 0.0, 3.0, (-5.0, 1.0)),
        ("(t-2)^3", 0.0, 3.0, (-8.0, 1.0)),           # odd power, base of both signs
        ("(t-2)^2", 0.0, 3.0, (0.0, 4.0)),            # even power straddling 0
        ("(t+1)^-2", 0.0, 3.0, (1.0 / 16.0, 1.0)),    # negative power, base > 0
        ("abs(t-2)^0.5", 0.0, 3.0, (0.0, math.sqrt(2.0))),
        ("1/(1+t)", 0.0, 3.0, (0.25, 1.0)),
        ("t^exp(t)", 0.5, 2.0, (0.5 ** math.exp(2.0), 2.0 ** math.exp(2.0))),
        ("sin(t)", 0.0, 2.0, (0.0, 1.0)),             # peak inside
        ("cos(t)", 3.0, 4.0, (-1.0, math.cos(4.0))),  # trough inside
        ("sin(t)", 0.0, 7.0, (-1.0, 1.0)),
        ("exp(-t)", 0.0, 1.0, (math.exp(-1.0), 1.0)),
        ("ln(t)", 1.0, 2.0, (0.0, math.log(2.0))),
        ("-t", 1.0, 2.0, (-2.0, -1.0)),
    ])
    def test_bounds(self, text, lo, hi, box):
        assert CoefficientFunction.from_text(text).enclose(lo, hi) == box

    @pytest.mark.parametrize("text, lo, hi", [
        ("1/(t-1)", 0.0, 3.0),      # a divisor box that holds 0
        ("(t-1)^-2", 0.0, 3.0),     # a negative power of a base box that holds 0
        ("(t-1)^0.5", 0.0, 3.0),    # a fractional power of a base below 0
        ("t^t", -1.0, 1.0),
        ("ln(t)", 0.0, 1.0),        # ln of a box that reaches 0
        ("exp(1000*t)", 0.0, 1.0),  # overflow
        ("1e308*t + 1e308", 0.0, 2.0),
        ("1e999", 0.0, 1.0),        # a bound that is not finite
    ])
    def test_no_enclosure(self, text, lo, hi):
        assert CoefficientFunction.from_text(text).enclose(lo, hi) is None

    def test_compiled_on_first_use(self):
        f = CoefficientFunction.from_text("0.5 + 0.3*sin(t)")
        assert f._enclosed is None
        f(1.0)
        assert f._enclosed is None
        assert f.enclose(0.0, 1.0) == (0.5, 0.5 + 0.3 * math.sin(1.0))
        assert f._enclosed is not None
        # the interval closures are not part of the value
        assert f == CoefficientFunction.from_text("0.5 + 0.3*sin(t)")
        assert pickle.loads(pickle.dumps(f)) == f


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


# a plain recursive evaluator with the documented domain rules, to check
# the compiled closures against
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "ln": math.log, "abs": abs}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": math.pow}


def _reference(node, t):
    """The value of ``node`` at ``t``."""
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Neg):
        return -_reference(node.operand, t)
    if isinstance(node, Call):
        x = _reference(node.arg, t)
        if (node.name in ("sin", "cos") and math.isinf(x)) or (
                node.name == "ln" and x <= 0.0):
            raise EvaluationDomainError(node.name, t, to_text(node))
        try:
            return _FUNCTIONS[node.name](x)
        except OverflowError:
            raise EvaluationDomainError(node.name, t, to_text(node))
    a, b = _reference(node.left, t), _reference(node.right, t)
    if node.op == "/" and b == 0.0:
        raise EvaluationDomainError(node.op, t, to_text(node))
    try:
        return _OPERATORS[node.op](a, b)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise EvaluationDomainError(node.op, t, to_text(node))


def _outcome(fn, t):
    """The value's hex digits, or "domain error" for a domain error or a
    non-finite value."""
    try:
        v = fn(t)
    except EvaluationDomainError:
        return "domain error"
    return v.hex() if math.isfinite(v) else "domain error"


@given(_asts, st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e3, max_value=1e3))
@example(BinOp("*", Literal(2.0), TimeVar()), -1.5)  # c*t, one closure
@example(BinOp("+", BinOp("*", Literal(2.0), TimeVar()), Literal(0.5)), -1.5)  # c*t + d
@example(BinOp("+", Literal(1.0), BinOp("*", Literal(0.5), Call("sin", TimeVar()))),
         -1.5)  # a + b*x
@example(BinOp("/", Literal(1.0), BinOp("/", Literal(1.0), BinOp("-", TimeVar(), TimeVar()))),
         2.0)  # a division by zero inside a finite value
# a failed node that a later node would hide, as NaN^0 = 1 does
@example(BinOp("^", Call("ln", TimeVar()), Literal(0.0)), 1.0)  # ln(1)^0
@example(BinOp("^", Call("ln", TimeVar()), Literal(0.0)), -1.0)  # ln(-1)^0
@example(BinOp("^", Call("sin", BinOp("*", Literal(1e300),
                                      BinOp("*", TimeVar(), Literal(1e300)))),
               Literal(0.0)), 1.0)  # sin of inf
@settings(max_examples=500, deadline=None)
def test_compiled_matches_reference(tree, t):
    compiled = CoefficientFunction(tree)
    assert _outcome(compiled, t) == _outcome(lambda t: _reference(tree, t), t)


@given(_asts, st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=0.0, max_value=1e3),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
@example(BinOp("^", BinOp("-", TimeVar(), Literal(2.0)), Literal(3.0)), 0.0, 3.0, [0.0, 0.5, 1.0])
@example(BinOp("^", TimeVar(), Literal(-2.0)), -1.0, 2.0, [0.5])
@example(Call("sin", TimeVar()), 1.0, 1.0, [0.5])
@example(Call("cos", BinOp("*", Literal(1e5), TimeVar())), 0.0, 1e-4, [0.0, 0.3, 1.0])
@settings(max_examples=500, deadline=None)
def test_enclosure_holds_every_value(tree, lo, width, fractions):
    # every value in the box lies in its enclosure, or the tree has none
    # there, or the value is a domain error.  The bounds are plain floats,
    # monotone in their operands as rounding is, so no slack is needed
    hi = lo + width
    box = CoefficientFunction(tree).enclose(lo, hi)
    if box is None:
        return
    for u in fractions:
        t = min(lo + u * width, hi)
        outcome = _outcome(CoefficientFunction(tree), t)
        if outcome != "domain error":
            assert box[0] <= float.fromhex(outcome) <= box[1]

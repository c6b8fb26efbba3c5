"""Time-dependent coefficient functions.

Every non-autonomous system in this package is driven by real-valued
coefficient functions of time.  A :class:`CoefficientFunction` holds one
arithmetic expression tree over ``t``: parsed from text, or built by one of
the constructors for the builtin families (constant, linear, sinusoidal),
which are plain trees too.  Each tree is compiled once, at
construction, into nested closures of a float ``t``; ``f(t)`` is the
only evaluation path, so every ``sin``, ``cos``, ``exp``, ``ln`` and
``^`` comes from :mod:`math`.  ``f.enclose(lo, hi)`` bounds the values over a
box of ``t`` by interval arithmetic on the same tree, compiled into a
second set of closures on its first call; the integral kernel tests its
pieces with it for features between their samples.  Evaluation is pure
and deterministic; values are immutable and safe to share across threads.

Expression grammar (whitespace insignificant)::

    expr    := term    { ('+' | '-') term }
    term    := factor  { ('*' | '/') factor }
    factor  := '-' factor | power
    power   := atom [ '^' factor ]          # right-associative
    atom    := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'
    NAME    := sin | cos | exp | ln | abs

``^`` binds tighter than unary minus, so ``-t^2`` means ``-(t^2)``.
Discontinuous coefficients can be emulated with expression combinations,
but the quadrature layer assumes piecewise smoothness; keeping
coefficients smooth is the caller's responsibility.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Union

from .errors import (
    ArityMismatchError,
    EvaluationDomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)

__all__ = [
    "Literal",
    "TimeVar",
    "Neg",
    "BinOp",
    "Call",
    "CoefficientFunction",
    "parse_expression",
    "to_text",
    "FUNCTION_NAMES",
    "MAX_DEPTH",
]

FUNCTION_NAMES = ("sin", "cos", "exp", "ln", "abs")


# --- expression tree -------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "ExpressionAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExpressionAst"
    right: "ExpressionAst"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "ExpressionAst"


ExpressionAst = Union[Literal, TimeVar, Neg, BinOp, Call]


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {source[pos]!r}", pos
            )
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", n))
    return tokens


# --- parser -------------------------------------------------------------------

# Deepest expression the parser accepts, counted both as tree depth and as
# grammar productions open at once.  The parser recurses a few frames per
# level, the compiler two, and the printer, the compiled closures and the
# constant fold one frame per tree level, so this stays far below the
# interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; every production returns its tree and the
    tree's depth."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.level = 0  # factor productions currently open

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, offset = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise ExpressionSyntaxError(
            f"expected {op!r}, found {text!r}" if text else f"expected {op!r}",
            offset,
        )

    @staticmethod
    def check_depth(depth: int, offset: int) -> None:
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels", offset
            )

    def parse(self) -> ExpressionAst:
        node, _ = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing {text!r}", offset)
        return node

    def expr(self) -> tuple[ExpressionAst, int]:
        node, depth = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                right, right_depth = self.term()
                node, depth = BinOp(text, node, right), 1 + max(depth, right_depth)
                self.check_depth(depth, offset)
            else:
                return node, depth

    def term(self) -> tuple[ExpressionAst, int]:
        node, depth = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                right, right_depth = self.factor()
                node, depth = BinOp(text, node, right), 1 + max(depth, right_depth)
                self.check_depth(depth, offset)
            else:
                return node, depth

    def factor(self) -> tuple[ExpressionAst, int]:
        kind, text, offset = self.peek()
        # every recursion of the grammar passes through here
        self.level += 1
        self.check_depth(self.level, offset)
        if kind == "op" and text == "-":
            self.advance()
            node, depth = self.factor()
            # fold a negated literal so pretty-printing round-trips
            if isinstance(node, Literal):
                node = Literal(-node.value)
            else:
                node, depth = Neg(node), depth + 1
                self.check_depth(depth, offset)
        else:
            node, depth = self.power()
        self.level -= 1
        return node, depth

    def power(self) -> tuple[ExpressionAst, int]:
        base, depth = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent, exponent_depth = self.factor()
            depth = 1 + max(depth, exponent_depth)
            self.check_depth(depth, offset)
            return BinOp("^", base, exponent), depth
        return base, depth

    def atom(self) -> tuple[ExpressionAst, int]:
        kind, text, offset = self.advance()
        if kind == "num":
            return Literal(float(text)), 1
        if kind == "name":
            if text == "t":
                return TimeVar(), 1
            if text not in FUNCTION_NAMES:
                raise UnknownIdentifierError(text, offset)
            self.expect_op("(")
            args = [self.expr()]
            while True:
                k, tx, _ = self.peek()
                if k == "op" and tx == ",":
                    self.advance()
                    args.append(self.expr())
                else:
                    break
            self.expect_op(")")
            if len(args) != 1:
                raise ArityMismatchError(text, len(args), offset)
            arg, depth = args[0]
            self.check_depth(depth + 1, offset)
            return Call(text, arg), depth + 1
        if kind == "op" and text == "(":
            result = self.expr()
            self.expect_op(")")
            return result
        raise ExpressionSyntaxError(
            f"expected a value, found {text!r}" if text else "unexpected end of input",
            offset,
        )


def parse_expression(source: str) -> ExpressionAst:
    """Parse expression text into a tree.

    Raises :class:`ExpressionSyntaxError`, :class:`UnknownIdentifierError`
    or :class:`ArityMismatchError`, each carrying the byte offset of the
    offending token.  An expression nested deeper than ``MAX_DEPTH``
    levels is a syntax error.
    """
    if not source or not source.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(source).parse()


# --- pretty printer ----------------------------------------------------------

# precedence levels used for minimal parenthesisation
_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _render(node: ExpressionAst, min_level: int) -> str:
    if isinstance(node, Literal):
        text = repr(node.value)
        # sign test via copysign so that -0.0 is parenthesized too
        if math.copysign(1.0, node.value) < 0 and min_level > _LVL_NEG:
            return f"({text})"
        return text
    if isinstance(node, TimeVar):
        return "t"
    if isinstance(node, Call):
        return f"{node.name}({_render(node.arg, _LVL_ADD)})"
    if isinstance(node, Neg):
        text = "-" + _render(node.operand, _LVL_NEG)
        return f"({text})" if min_level > _LVL_NEG else text
    if isinstance(node, BinOp):
        if node.op in "+-":
            level = _LVL_ADD
            text = f"{_render(node.left, _LVL_ADD)} {node.op} {_render(node.right, _LVL_MUL)}"
        elif node.op in "*/":
            level = _LVL_MUL
            text = f"{_render(node.left, _LVL_MUL)}{node.op}{_render(node.right, _LVL_NEG)}"
        else:  # ^
            level = _LVL_POW
            text = f"{_render(node.left, _LVL_ATOM)}^{_render(node.right, _LVL_NEG)}"
        return f"({text})" if min_level > level else text
    raise TypeError(f"not an expression node: {node!r}")


def to_text(node: ExpressionAst) -> str:
    """Render a tree back to expression text; re-parsing the result yields
    a structurally identical tree."""
    return _render(node, _LVL_ADD)


# --- compilation ----------------------------------------------------------------

# ``+ - *`` closures by operand shape: (neither operand, the left operand,
# the right operand) a literal captured by value
_ARITH = {
    "+": (lambda f, g: lambda t: f(t) + g(t),
          lambda a, g: lambda t: a + g(t),
          lambda f, b: lambda t: f(t) + b),
    "-": (lambda f, g: lambda t: f(t) - g(t),
          lambda a, g: lambda t: a - g(t),
          lambda f, b: lambda t: f(t) - b),
    "*": (lambda f, g: lambda t: f(t) * g(t),
          lambda a, g: lambda t: a * g(t),
          lambda f, b: lambda t: f(t) * b),
}


def _compile(node: ExpressionAst) -> Callable[[float], float]:
    """Nested closures that evaluate ``node`` at ``t``, operands left to
    right.  A node outside its domain raises :class:`EvaluationDomainError`
    carrying the node's text; the root's finite check is the caller's."""
    if isinstance(node, Literal):
        value = node.value
        return lambda t: value
    if isinstance(node, TimeVar):
        return lambda t: t
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda t: -operand(t)
    if isinstance(node, BinOp):
        return _compile_binop(node)
    if isinstance(node, Call) and node.name in FUNCTION_NAMES:
        return _compile_call(node)
    raise TypeError(f"not an expression node: {node!r}")


def _compile_binop(node: BinOp) -> Callable[[float], float]:
    left, right = node.left, node.right
    # c*t, c*t + d and a + b*x, the shapes the builtin families are made
    # of, are one closure each
    if _is_scaled(node) and isinstance(right, TimeVar):
        c = left.value
        return lambda t: c * t
    if (node.op == "+" and _is_scaled(left) and isinstance(left.right, TimeVar)
            and isinstance(right, Literal)):
        c, d = left.left.value, right.value
        return lambda t: c * t + d
    if node.op == "+" and isinstance(left, Literal) and _is_scaled(right):
        a, b, g = left.value, right.left.value, _compile(right.right)
        return lambda t: a + b * g(t)
    if node.op in _ARITH:
        both, literal_left, literal_right = _ARITH[node.op]
        if isinstance(left, Literal):
            return literal_left(left.value, _compile(right))
        if isinstance(right, Literal):
            return literal_right(_compile(left), right.value)
        return both(_compile(left), _compile(right))
    f, g = _compile(left), _compile(right)
    if node.op == "/":
        def divide(t):
            a = f(t)
            b = g(t)
            if b == 0.0:
                raise EvaluationDomainError("division by zero", t, to_text(node))
            return a / b
        return divide

    def power(t):
        a = f(t)
        b = g(t)
        try:
            return math.pow(a, b)
        except (ValueError, ZeroDivisionError) as exc:
            raise EvaluationDomainError(str(exc), t, to_text(node)) from exc
        except OverflowError as exc:
            raise EvaluationDomainError("overflow in power", t, to_text(node)) from exc
    return power


def _is_scaled(node: ExpressionAst) -> bool:
    """Whether ``node`` is ``c*x`` with ``c`` a literal."""
    return isinstance(node, BinOp) and node.op == "*" and isinstance(node.left, Literal)


def _compile_call(node: Call) -> Callable[[float], float]:
    name = node.name
    arg = _compile(node.arg)
    if name == "sin" or name == "cos":
        fn = math.sin if name == "sin" else math.cos

        def trig(t):
            x = arg(t)
            try:
                return fn(x)
            except ValueError as exc:  # an infinite argument
                raise EvaluationDomainError(f"{name} of {x!r}", t, to_text(node)) from exc
        return trig
    if name == "abs":
        return lambda t: abs(arg(t))
    if name == "exp":
        def exp(t):
            x = arg(t)
            try:
                return math.exp(x)
            except OverflowError as exc:
                raise EvaluationDomainError("overflow in exp", t, to_text(node)) from exc
        return exp

    def ln(t):
        x = arg(t)
        if x <= 0.0:
            raise EvaluationDomainError(
                f"ln of non-positive argument {x!r}", t, to_text(node)
            )
        return math.log(x)
    return ln


# --- interval enclosures ----------------------------------------------------

# An enclosure closure takes a box [lo, hi] of t and returns (low, high),
# bounds of the node's values there, or raises _Unbounded (or the
# ValueError, ZeroDivisionError or OverflowError of a math call) where it
# has none.  The bounds are formed in plain float arithmetic, without
# outward rounding.

class _Unbounded(Exception):
    """A node without an enclosure on the box: outside its domain, or with
    a bound that is not finite."""


_INF = math.inf
# beyond this argument size a trig box is taken as [-1, 1], where the
# rounding of the peak positions could miss one
_TRIG_REACH = 2.0 ** 26


def _bounded(low: float, high: float) -> tuple[float, float]:
    """(low, high) when both are finite; NaN fails too."""
    if -_INF < low and high < _INF:
        return low, high
    raise _Unbounded


def _enclosure(node: ExpressionAst):
    """The enclosure closure of ``node`` (see above)."""
    if isinstance(node, Literal):
        box = (node.value, node.value)
        return lambda lo, hi: box
    if isinstance(node, TimeVar):
        return lambda lo, hi: (lo, hi)
    if isinstance(node, Neg):
        operand = _enclosure(node.operand)

        def negate(lo, hi):
            low, high = operand(lo, hi)
            return -high, -low
        return negate
    if isinstance(node, BinOp):
        return _enclosure_binop(node)
    if isinstance(node, Call) and node.name in FUNCTION_NAMES:
        return _enclosure_call(node)
    raise TypeError(f"not an expression node: {node!r}")


def _enclosure_binop(node: BinOp):
    left, right, op = node.left, node.right, node.op
    # c*t + d and a + b*x, the shapes the builtin families are made of,
    # are one closure each, as in _compile_binop
    if op == "+" and isinstance(left, Literal) and _is_scaled(right):
        a, b, g = left.value, right.left.value, _enclosure(right.right)

        def shifted(lo, hi):
            low, high = g(lo, hi)
            if b < 0.0:
                low, high = high, low
            return _bounded(a + b * low, a + b * high)
        return shifted
    if (op == "+" and _is_scaled(left) and isinstance(left.right, TimeVar)
            and isinstance(right, Literal)):
        c, d = left.left.value, right.value

        def line(lo, hi):
            if c < 0.0:
                lo, hi = hi, lo
            return _bounded(c * lo + d, c * hi + d)
        return line
    if op == "^" and isinstance(right, Literal) and right.value.is_integer():
        return _integer_power(_enclosure(left), right.value)
    f, g = _enclosure(left), _enclosure(right)
    if op == "+":
        def add(lo, hi):
            l1, h1 = f(lo, hi)
            l2, h2 = g(lo, hi)
            return _bounded(l1 + l2, h1 + h2)
        return add
    if op == "-":
        def subtract(lo, hi):
            l1, h1 = f(lo, hi)
            l2, h2 = g(lo, hi)
            return _bounded(l1 - h2, h1 - l2)
        return subtract
    if op == "*":
        def multiply(lo, hi):
            l1, h1 = f(lo, hi)
            l2, h2 = g(lo, hi)
            corners = (l1 * l2, l1 * h2, h1 * l2, h1 * h2)
            return _bounded(min(corners), max(corners))
        return multiply
    if op == "/":
        def divide(lo, hi):
            l1, h1 = f(lo, hi)
            l2, h2 = g(lo, hi)
            if l2 <= 0.0 <= h2:
                raise _Unbounded
            corners = (l1 / l2, l1 / h2, h1 / l2, h1 / h2)
            return _bounded(min(corners), max(corners))
        return divide

    def power(lo, hi):
        # x^y = e^(y ln x) for x >= 0: y ln x is bilinear on the box, so
        # the extremes lie on its corners (math.pow takes the limits at 0)
        l1, h1 = f(lo, hi)
        if l1 < 0.0:
            raise _Unbounded
        l2, h2 = g(lo, hi)
        pow_ = math.pow
        corners = (pow_(l1, l2), pow_(l1, h2), pow_(h1, l2), pow_(h1, h2))
        return _bounded(min(corners), max(corners))
    return power


def _integer_power(base, n: float):
    """The enclosure of base^n for a literal integer n, for a base box of
    any sign: monotone on the box unless it straddles 0, where an even
    power has its minimum 0 and a negative one no bound."""
    even = n % 2.0 == 0.0

    def power(lo, hi):
        low, high = base(lo, hi)
        a, b = math.pow(low, n), math.pow(high, n)
        if low < 0.0 < high:
            if n < 0.0:
                raise _Unbounded
            if even:
                return 0.0, max(a, b)
        return (a, b) if a <= b else (b, a)
    return power


def _enclosure_call(node: Call):
    name = node.name
    arg = _enclosure(node.arg)
    if name == "sin" or name == "cos":
        fn = math.sin if name == "sin" else math.cos
        # fn peaks at phase + 2 pi k and bottoms out at phase + pi (2k + 1)
        phase = 0.5 * math.pi if name == "sin" else 0.0

        def trig(lo, hi):
            low, high = arg(lo, hi)
            if low < -_TRIG_REACH or high > _TRIG_REACH:
                return -1.0, 1.0
            # the extrema in the box are at the integers of [first, last]
            first = math.ceil((low - phase) / math.pi)
            last = math.floor((high - phase) / math.pi)
            if last > first:
                return -1.0, 1.0
            a, b = fn(low), fn(high)
            if a > b:
                a, b = b, a
            if last < first:
                return a, b
            return (a, 1.0) if first % 2 == 0 else (-1.0, b)
        return trig
    if name == "abs":
        def absolute(lo, hi):
            low, high = arg(lo, hi)
            if low >= 0.0:
                return low, high
            if high <= 0.0:
                return -high, -low
            return 0.0, max(-low, high)
        return absolute
    if name == "exp":
        def exp(lo, hi):
            low, high = arg(lo, hi)
            return math.exp(low), math.exp(high)
        return exp

    def ln(lo, hi):
        low, high = arg(lo, hi)
        if low <= 0.0:
            raise _Unbounded
        return math.log(low), math.log(high)
    return ln


# --- coefficient functions -----------------------------------------------------

@dataclass(frozen=True)
class CoefficientFunction:
    """A real-valued function of time ``t``, held as its expression tree.

    The tree is compiled once, at construction, into nested closures.
    Instances are callable, and that is their one evaluation path:
    ``f(t)`` evaluates the function to a finite real or raises
    :class:`EvaluationDomainError`.  The integral kernel samples a piece
    as ``[f(t) for t in nodes]``, and bounds it between the samples with
    :meth:`enclose`.
    """

    ast: ExpressionAst
    _compiled: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _enclosed: Callable | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_compiled", _compile(self.ast))

    def __reduce__(self):  # closures do not pickle; the tree does
        return (CoefficientFunction, (self.ast,))

    # -- constructors --------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "CoefficientFunction":
        return cls(Literal(float(value)))

    @classmethod
    def linear(cls, slope: float, intercept: float) -> "CoefficientFunction":
        """slope*t + intercept"""
        return cls(BinOp("+", BinOp("*", Literal(float(slope)), TimeVar()),
                         Literal(float(intercept))))

    @classmethod
    def sinusoidal(cls, base: float, relative: float, frequency: float,
                   phase: float = 0.0) -> "CoefficientFunction":
        """base*(1 + relative*sin(frequency*t + phase))"""
        inner = BinOp("+", BinOp("*", Literal(float(frequency)), TimeVar()),
                      Literal(float(phase)))
        return cls(BinOp("*", Literal(float(base)), BinOp(
            "+", Literal(1.0), BinOp("*", Literal(float(relative)), Call("sin", inner)))))

    @classmethod
    def from_text(cls, source: str) -> "CoefficientFunction":
        return cls(parse_expression(source))

    # -- evaluation -----------------------------------------------------

    def __call__(self, t: float) -> float:
        v = self._compiled(t)
        if not math.isfinite(v):
            raise EvaluationDomainError("non-finite value", t, to_text(self.ast))
        return v

    def enclose(self, lo: float, hi: float) -> tuple[float, float] | None:
        """Finite bounds (low, high) of f(t) for t in [lo, hi], or None
        where the tree has no enclosure there.

        The bounds come from interval arithmetic on the tree: ``+ - * /``
        on the boxes' ends, ``exp`` and ``ln`` monotone, ``abs``, ``sin``
        and ``cos`` with the extrema they take inside a box, ``^`` with a
        literal integer exponent on a base of any sign and otherwise on a
        base box >= 0.  A divisor box that holds 0, an ``ln`` box that
        reaches 0, an overflow or a bound that is not finite leaves no
        enclosure.  The arithmetic is plain floats, not rounded outwards:
        the bounds hold to round-off, which is what a test for features
        between samples needs, not a proof of a tolerance.  The interval
        closures are compiled on the first call.
        """
        enclosed = self._enclosed
        if enclosed is None:
            enclosed = _enclosure(self.ast)
            object.__setattr__(self, "_enclosed", enclosed)
        try:
            box = enclosed(lo, hi)
        except (_Unbounded, ArithmeticError, ValueError):
            return None
        return box if -_INF < box[0] and box[1] < _INF else None

    # -- introspection ----------------------------------------------------

    def to_text(self) -> str:
        return to_text(self.ast)

    def is_constant(self) -> bool:
        """Whether the tree has no ``t`` in it.  The test is syntactic:
        ``linear(0, c)`` is not constant."""
        return _is_constant_ast(self.ast)


def _is_constant_ast(node: ExpressionAst) -> bool:
    if isinstance(node, Literal):
        return True
    if isinstance(node, TimeVar):
        return False
    if isinstance(node, Neg):
        return _is_constant_ast(node.operand)
    if isinstance(node, BinOp):
        return _is_constant_ast(node.left) and _is_constant_ast(node.right)
    return _is_constant_ast(node.arg)

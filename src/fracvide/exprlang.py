"""A small arithmetic expression language for problem definitions.

Grammar (see docs/expression-grammar.md): numbers, named variables,
unary minus, binary + - * / ^ with ^ right-associative, and the function
calls exp, ln, sin, cos, sqrt, pow, beta, abs. One regular expression
splits ASCII text into tokens, and precedence climbing parses them.
An expression is compiled once, in one walk of its tree, over named
variables and constants: each constant (pi, e and any the caller passes)
becomes its number, the first unknown name, unknown function or wrong
arity in left-to-right order is rejected, and the subexpressions free of
variables are evaluated then. The rest becomes nested numpy closures that
evaluate elementwise on scalars or arrays in strict IEEE double
arithmetic, and raise on domain violations, naming the first value at
fault, instead of returning NaN.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .specfun import beta as _beta_fn


class ExprSyntaxError(ValueError):
    """Lexing or parsing failure; carries the source offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprEvalError(ValueError):
    """Evaluation failure: unbound variable or numeric domain violation."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Expr = Num | Var | Neg | BinOp | Call

_CONSTANTS = {"pi": math.pi, "e": math.e}
_MAX_DEPTH = 64

# binding powers; '^' handled right-associatively in the parser
_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25


@dataclass(frozen=True)
class Token:
    kind: str      # "num" | "ident" | "op" | "lparen" | "rparen" | "comma" | "end"
    text: str
    pos: int

    @property
    def value(self):
        return float(self.text)


# One alternative per token kind, from the EBNF in docs/expression-grammar.md;
# "space" is skipped, and "illegal" takes any other single character.
_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^])
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<illegal>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(source):
    """Split source into tokens; raises ExprSyntaxError on illegal characters."""
    if not source or source.isspace():
        raise ExprSyntaxError("empty expression", 0)
    tokens = []
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "illegal":
            raise ExprSyntaxError(f"illegal character {match[0]!r}", match.start())
        tokens.append(Token(kind, match[0], match.start()))
    tokens.append(Token("end", "", len(source)))
    return tokens


def parse(source):
    """Parse a source string into an Expr by precedence climbing."""
    tokens = tokenize(source)
    i = 0

    def take(kind=None):
        nonlocal i
        tok = tokens[i]
        if kind is not None and tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        i += 1
        return tok

    def expression(min_bp, depth):
        """The longest expression whose operators all bind tighter than min_bp."""
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", tokens[i].pos)
        left = prefix(depth)
        while tokens[i].kind == "op" and _PRECEDENCE[tokens[i].text] > min_bp:
            op = take().text
            bp = _PRECEDENCE[op] - (op == "^")   # ^ is right-associative
            left = BinOp(op, left, expression(bp, depth + 1))
        return left

    def prefix(depth):
        tok = take()
        if tok.kind == "num":
            if math.isinf(tok.value):
                raise ExprSyntaxError(f"number {tok.text} is too large for a double", tok.pos)
            return Num(tok.value)
        if tok.kind == "ident" and tokens[i].kind == "lparen":
            take()
            args = [expression(0, depth + 1)]
            while tokens[i].kind == "comma":
                take()
                args.append(expression(0, depth + 1))
            take("rparen")
            return Call(tok.text, tuple(args))
        if tok.kind == "ident":
            return Var(tok.text)
        if tok.kind == "lparen":
            inner = expression(0, depth + 1)
            take("rparen")
            return inner
        if tok.text in ("+", "-"):
            operand = expression(_UNARY_PRECEDENCE, depth + 1)
            return Neg(operand) if tok.text == "-" else operand
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)

    expr = expression(0, 1)
    if tokens[i].kind != "end":
        raise ExprSyntaxError(f"unexpected {tokens[i].text!r} after expression", tokens[i].pos)
    return expr


def _first(mask, *values):
    """The values at the first position (C order) where mask holds, as floats."""
    mask = np.asarray(mask)
    index = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return tuple(float(np.broadcast_to(v, mask.shape)[index]) for v in values)


# The domain tests compare by ufunc calls, not operators: an operand may be a
# Python float (a literal, pi, a scalar binding), and a ufunc returns a numpy
# bool that has .any() and .all() even then.

def _checked(name, value):
    if not np.isfinite(value).all():
        raise ExprEvalError(f"{name} produced a non-finite result")
    return value


def _fn_exp(x):
    # exp overflows near 709.78; 709 keeps a margin, and NaN fails the test too
    if not np.less(x, 709.0).all():
        raise ExprEvalError("exp produced a non-finite result")
    return np.exp(x)


def _fn_ln(x):
    bad = np.less_equal(x, 0.0)
    if bad.any():
        raise ExprEvalError(f"ln of non-positive value {_first(bad, x)[0]}")
    return np.log(x)


def _fn_sqrt(x):
    bad = np.less(x, 0.0)
    if bad.any():
        raise ExprEvalError(f"sqrt of negative value {_first(bad, x)[0]}")
    return np.sqrt(x)


def _power(base, exponent):
    bad = np.less(base, 0.0) & np.not_equal(exponent, np.round(exponent))
    if bad.any():
        b, e = _first(bad, base, exponent)
        raise ExprEvalError(f"negative base {b} with non-integer exponent {e}")
    if (np.equal(base, 0.0) & np.less(exponent, 0.0)).any():
        raise ExprEvalError("zero raised to a negative power")
    return _checked("^", np.power(base, exponent))


def _constant_power(exponent):
    """_power with a constant exponent: whether it is an integer and whether
    it is negative is decided here, so a call tests only the base."""
    exponent = float(exponent)
    fractional = bool(exponent != np.round(exponent))
    negative = bool(exponent < 0.0)

    def power(base):
        if fractional:
            bad = np.less(base, 0.0)
            if bad.any():
                raise ExprEvalError(f"negative base {_first(bad, base)[0]} "
                                    f"with non-integer exponent {exponent}")
        if negative and np.equal(base, 0.0).any():
            raise ExprEvalError("zero raised to a negative power")
        return _checked("^", np.power(base, exponent))

    return power


def _beta_scalar(a, b):
    try:
        return _beta_fn(a, b)
    except OverflowError:
        raise ExprEvalError(f"beta({a}, {b}) overflows") from None


# Beta has no numpy ufunc; this applies the scalar one elementwise
_beta_elementwise = np.frompyfunc(_beta_scalar, 2, 1)


def _fn_beta(a, b):
    bad = np.less_equal(a, 0.0) | np.less_equal(b, 0.0)
    if bad.any():
        a0, b0 = _first(bad, a, b)
        raise ExprEvalError(f"beta requires positive arguments, got ({a0}, {b0})")
    return _checked("beta", np.asarray(_beta_elementwise(a, b), dtype=float))


def _divide(a, b):
    if np.equal(b, 0.0).any():
        raise ExprEvalError("division by zero")
    return _checked("/", np.divide(a, b))


_FUNCTIONS = {
    "exp": (1, _fn_exp),
    "ln": (1, _fn_ln),
    "sin": (1, lambda x: _checked("sin", np.sin(x))),
    "cos": (1, lambda x: _checked("cos", np.cos(x))),
    "sqrt": (1, _fn_sqrt),
    "abs": (1, lambda x: _checked("abs", np.abs(x))),
    "pow": (2, _power),
    "beta": (2, _fn_beta),
}

_BINARY = {
    "+": lambda a, b: _checked("+", np.add(a, b)),
    "-": lambda a, b: _checked("-", np.subtract(a, b)),
    "*": lambda a, b: _checked("*", np.multiply(a, b)),
    "/": _divide,
}


@np.errstate(over="ignore", invalid="ignore")
def _run(compiled, values):
    """compiled(values); overflow and invalid results are reported by the
    checks, not as warnings."""
    return compiled(values)


def _constant(value):
    """(closure, value) of a node whose value is the number value."""
    return (lambda values: value), value


def _closure(expr, names, constants):
    """(closure, value) of expr over the variables names, in one walk.

    A name in constants becomes its number; another name that is not a
    variable, an unknown function or a wrong arity raises, in tree order.
    Every operation is a numpy ufunc, so the closure evaluates elementwise
    on scalars and arrays alike, with the same bits for an element bound
    alone or in an array. Domain checks name the first value at fault.

    value is the node's number when every operand has one: the node is
    evaluated once, here, by the same operations and checks as at
    evaluation, so it has the same bits. It is None for a node with a
    variable, or whose evaluation raises, so that it raises at evaluation.
    """
    if isinstance(expr, Num):
        return _constant(expr.value)
    if isinstance(expr, Var):
        if expr.name in constants:
            return _constant(constants[expr.name])
        if expr.name not in names:
            raise ExprEvalError(f"unbound variable {expr.name!r}")
        index = names.index(expr.name)
        return (lambda values: values[index]), None
    if isinstance(expr, Neg):
        fn, operands = np.negative, (expr.operand,)
    elif isinstance(expr, BinOp):
        fn = _power if expr.op == "^" else _BINARY[expr.op]
        operands = (expr.left, expr.right)
    elif isinstance(expr, Call):
        if expr.name not in _FUNCTIONS:
            raise ExprEvalError(f"unknown function {expr.name!r}")
        arity, fn = _FUNCTIONS[expr.name]
        if len(expr.args) != arity:
            raise ExprEvalError(f"{expr.name} takes {arity} argument(s), got {len(expr.args)}")
        operands = expr.args
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    compiled = [_closure(a, names, constants) for a in operands]
    closure = _apply(fn, compiled)
    if any(value is None for _, value in compiled):
        return closure, None
    try:
        return _constant(float(_run(closure, ())))
    except ValueError:
        return closure, None


def _apply(fn, compiled):
    """The closure of fn applied to the compiled operands, each called
    directly; ^ with a numeric exponent tests only its base."""
    if len(compiled) == 1:
        (operand, _), = compiled
        return lambda values: fn(operand(values))
    (left, _), (right, exponent) = compiled
    if fn is _power and exponent is not None:
        power = _constant_power(exponent)
        return lambda values: power(left(values))
    return lambda values: fn(left(values), right(values))


def _compile(expr, variables, constants):
    """(closure, value) of expr over the positional variables.

    pi and e are the default constants; a passed constant overrides them,
    and a variable of the same name shadows both."""
    names = tuple(variables)
    bound = {name: float(value) for name, value in {**_CONSTANTS, **(constants or {})}.items()
             if name not in names}
    return _closure(expr, names, bound)


def evaluate(expr, bindings=None):
    """Evaluate an Expr with the given variable bindings (pi and e built in).

    Bindings may be scalars or arrays; the result is a float when it is a
    single value and an array otherwise."""
    bindings = bindings or {}
    compiled, _ = _compile(expr, bindings, None)
    values = [np.asarray(value, dtype=float) for value in bindings.values()]
    out = np.asarray(_run(compiled, values), dtype=float)
    return float(out) if out.ndim == 0 else out


def compile_function(source, variables, constants=None):
    """Parse and compile once; return f(*values).

    The positional values bind the named variables and are broadcast
    against each other. constants maps further names (problem constants)
    to numbers, which are folded into the expression here, as pi and e
    are; any other name raises ExprEvalError now. f evaluates elementwise:
    it returns a float when every value is a scalar, and otherwise a new
    array of their broadcast shape.
    """
    names = tuple(variables)
    tree = parse(source)
    compiled, _ = _compile(tree, names, constants)
    # only a root that is a name can return a binding itself; any other is new
    fresh = not isinstance(tree, Var)

    def fn(*values):
        if len(values) != len(names):
            raise TypeError(f"expected {len(names)} positional values for {names}")
        values = [np.asarray(v, dtype=float) for v in values]
        out = _run(compiled, values)
        shape = (values[0].shape if len(values) == 1
                 else np.broadcast_shapes(*(v.shape for v in values)))
        if not shape:
            return float(out)
        if type(out) is np.ndarray and out.shape == shape:
            return out if fresh else out.copy()
        return np.array(np.broadcast_to(out, shape))

    return fn

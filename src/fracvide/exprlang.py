"""A small arithmetic expression language for problem definitions.

Grammar (see docs/expression-grammar.md): numbers, named variables,
unary minus, binary + - * / ^ with ^ right-associative, and the function
calls exp, ln, sin, cos, sqrt, pow, beta, abs. Parsing is a Pratt
(precedence-climbing) parser with positions preserved for error messages.
An expression is compiled once: its variable-free subexpressions are
evaluated then, and the rest becomes nested numpy closures that evaluate
elementwise on scalars or arrays in strict IEEE double arithmetic, and
raise on domain violations, naming the first value at fault, instead of
returning NaN.
"""

import math
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

_OPERATORS = set("+-*/^")
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


def tokenize(source):
    """Split source into tokens; raises ExprSyntaxError on illegal characters."""
    if not source or source.isspace():
        raise ExprSyntaxError("empty expression", 0)
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            tokens.append(Token("num", source[start:i], start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(Token("ident", source[start:i], start))
        elif c in _OPERATORS:
            tokens.append(Token("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(Token("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(Token("rparen", c, i))
            i += 1
        elif c == ",":
            tokens.append(Token("comma", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"illegal character {c!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok.kind != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def parse_expression(self, min_bp=0):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError("expression nested too deeply", self.peek().pos)
        try:
            left = self._prefix()
            while True:
                tok = self.peek()
                if tok.kind != "op" or tok.text not in _PRECEDENCE:
                    break
                bp = _PRECEDENCE[tok.text]
                if bp <= min_bp:
                    break
                self.advance()
                # right-associative power: allow equal precedence on the right
                right = self.parse_expression(bp - 1 if tok.text == "^" else bp)
                left = BinOp(tok.text, left, right)
            return left
        finally:
            self.depth -= 1

    def _prefix(self):
        tok = self.advance()
        if tok.kind == "num":
            value = tok.value
            if math.isinf(value):
                raise ExprSyntaxError(f"number {tok.text} is too large for a double", tok.pos)
            return Num(value)
        if tok.kind == "ident":
            if self.peek().kind == "lparen":
                self.advance()
                args = [self.parse_expression()]
                while self.peek().kind == "comma":
                    self.advance()
                    args.append(self.parse_expression())
                self.expect("rparen")
                return Call(tok.text, tuple(args))
            return Var(tok.text)
        if tok.kind == "lparen":
            inner = self.parse_expression()
            self.expect("rparen")
            return inner
        if tok.kind == "op" and tok.text == "-":
            return Neg(self.parse_expression(_UNARY_PRECEDENCE))
        if tok.kind == "op" and tok.text == "+":
            return self.parse_expression(_UNARY_PRECEDENCE)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse(source):
    """Parse a source string into an Expr."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected {trailing.text!r} after expression", trailing.pos)
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


# Beta has no numpy ufunc; this applies the scalar one elementwise
_beta_elementwise = np.frompyfunc(_beta_fn, 2, 1)


def _fn_beta(a, b):
    bad = np.less_equal(a, 0.0) | np.less_equal(b, 0.0)
    if bad.any():
        a0, b0 = _first(bad, a, b)
        raise ExprEvalError(f"beta requires positive arguments, got ({a0}, {b0})")
    return np.asarray(_beta_elementwise(a, b), dtype=float)


def _divide(a, b):
    if np.equal(b, 0.0).any():
        raise ExprEvalError("division by zero")
    return _checked("/", np.divide(a, b))


_FUNCTIONS = {
    "exp": (1, _fn_exp),
    "ln": (1, _fn_ln),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "sqrt": (1, _fn_sqrt),
    "abs": (1, np.abs),
    "pow": (2, _power),
    "beta": (2, _fn_beta),
}

_BINARY = {
    "+": lambda a, b: _checked("+", np.add(a, b)),
    "-": lambda a, b: _checked("-", np.subtract(a, b)),
    "*": lambda a, b: _checked("*", np.multiply(a, b)),
    "/": _divide,
}


def _function(call):
    """The implementation of a Call; raises on an unknown name or a wrong arity."""
    try:
        arity, fn = _FUNCTIONS[call.name]
    except KeyError:
        raise ExprEvalError(f"unknown function {call.name!r}") from None
    if len(call.args) != arity:
        raise ExprEvalError(f"{call.name} takes {arity} argument(s), got {len(call.args)}")
    return fn


@np.errstate(over="ignore", invalid="ignore")
def _run(compiled, env):
    """compiled(env); overflow and invalid results are reported by the checks,
    not as warnings."""
    return compiled(env)


def _fold(expr):
    """expr with each subtree that holds no variable replaced by its value.

    Such a subtree is evaluated once, here, by the same operations and
    checks as at evaluation, so its value has the same bits. One whose
    evaluation raises is kept, to raise at evaluation. pi and e are
    variables, since a binding may override them. An unknown function or
    a wrong arity raises here, in the order of the tree.
    """
    if isinstance(expr, Neg):
        expr = Neg(_fold(expr.operand))
        operands = (expr.operand,)
    elif isinstance(expr, BinOp):
        expr = BinOp(expr.op, _fold(expr.left), _fold(expr.right))
        operands = (expr.left, expr.right)
    elif isinstance(expr, Call):
        _function(expr)
        expr = Call(expr.name, tuple(_fold(a) for a in expr.args))
        operands = expr.args
    else:
        return expr
    if not all(isinstance(a, Num) for a in operands):
        return expr
    try:
        value = _run(_closure(expr), {})
    except (ValueError, ArithmeticError):  # the checks, or an overflow in beta
        return expr
    return Num(float(value))


def _closure(expr):
    """Turn an Expr into a closure of the variable bindings.

    Every operation is a numpy ufunc, so the closure evaluates elementwise on
    scalars and arrays alike, and an element gets the same bits whether it
    is bound alone or in an array. Domain checks test the whole array and
    name the first value at fault.
    """
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name
        if name in _CONSTANTS:
            constant = _CONSTANTS[name]
            return lambda env: env.get(name, constant)

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise ExprEvalError(f"unbound variable {name!r}") from None

        return var
    if isinstance(expr, Neg):
        operand = _closure(expr.operand)
        return lambda env: np.negative(operand(env))
    if isinstance(expr, BinOp):
        if expr.op == "^":
            return _power_closure(expr.left, expr.right)
        op, left, right = _BINARY[expr.op], _closure(expr.left), _closure(expr.right)
        return lambda env: op(left(env), right(env))
    if isinstance(expr, Call):
        fn = _function(expr)
        if fn is _power:
            return _power_closure(*expr.args)
        args = tuple(_closure(a) for a in expr.args)
        return lambda env: fn(*[a(env) for a in args])
    raise TypeError(f"not an expression node: {expr!r}")


def _power_closure(base, exponent):
    """The closure of base^exponent, specialised when the exponent is a number."""
    base = _closure(base)
    if isinstance(exponent, Num):
        power = _constant_power(exponent.value)
        return lambda env: power(base(env))
    exponent = _closure(exponent)
    return lambda env: _power(base(env), exponent(env))


def evaluate(expr, bindings=None):
    """Evaluate an Expr with the given variable bindings (pi and e built in).

    Bindings may be scalars or arrays; the result is a float when it is a
    single value and an array otherwise."""
    env = {name: np.asarray(value, dtype=float) for name, value in (bindings or {}).items()}
    out = np.asarray(_run(_closure(_fold(expr)), env), dtype=float)
    return float(out) if out.ndim == 0 else out


def to_source(expr):
    """Render an Expr as parseable text; parse(to_source(e)) == e."""
    return _print(expr, 0)


def _print(expr, parent_bp):
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        return f"{expr.name}({', '.join(_print(a, 0) for a in expr.args)})"
    if isinstance(expr, Neg):
        text = "-" + _print(expr.operand, _UNARY_PRECEDENCE)
        return f"({text})" if parent_bp > _UNARY_PRECEDENCE else text
    if isinstance(expr, BinOp):
        bp = _PRECEDENCE[expr.op]
        if expr.op == "^":
            left = _print(expr.left, bp)       # ^ is right-associative
            right = _print(expr.right, bp - 1)
        else:
            left = _print(expr.left, bp - 1)   # left-associative
            right = _print(expr.right, bp)
        text = f"{left} {expr.op} {right}" if expr.op in "+-" else f"{left}{expr.op}{right}"
        return f"({text})" if parent_bp >= bp else text
    raise TypeError(f"not an expression node: {expr!r}")


def compile_function(source, variables):
    """Parse and compile once; return f(*values, **extra).

    The positional values bind the named variables and are broadcast
    against each other; the keyword values bind further names (problem
    constants). f evaluates elementwise: it returns a float when every
    positional value is a scalar, and otherwise a new array of their
    broadcast shape.
    """
    tree = _fold(parse(source))
    compiled = _closure(tree)
    names = tuple(variables)
    # any other root is a ufunc result, a new array; a variable is its binding
    fresh = not isinstance(tree, Var)

    def fn(*values, **extra):
        if len(values) != len(names):
            raise TypeError(f"expected {len(names)} positional values for {names}")
        values = [np.asarray(v, dtype=float) for v in values]
        env = dict(zip(names, values))
        for name, value in extra.items():
            # the ufuncs take a Python float as a double; it needs no array
            env[name] = value if type(value) is float else np.asarray(value, dtype=float)
        out = _run(compiled, env)
        shape = (values[0].shape if len(values) == 1
                 else np.broadcast_shapes(*(v.shape for v in values)))
        if not shape:
            return float(out)
        if type(out) is np.ndarray and out.shape == shape:
            return out if fresh else out.copy()
        return np.array(np.broadcast_to(out, shape))

    return fn

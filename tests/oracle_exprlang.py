"""Oracles for exprlang: a hand-written front end and a tree-walking evaluator.

`oracle_tokenize` and `oracle_parse` are the scanner and parser that
`fracvide.exprlang` used before its tokenizer became one regular expression
and its parser a set of nested functions: a loop that branches on each
character, with `str.isdigit` and `str.isalpha` deciding digits and letters,
and a parser class. On ASCII input they give the same tokens, trees, error
messages and offsets as `fracvide.exprlang`. `to_source` prints a tree as
text that parses back to it, for round-trip tests.

The evaluator is the one that `fracvide.exprlang.compile_function` used
before it folded literal-only subtrees and specialised constant exponents:
every node is a closure that runs on every call, every power tests its
exponent, and every call copies the constants and converts each binding to
an array. It uses the parser of `fracvide.exprlang`.
"""

import math

import numpy as np

from fracvide.exprlang import (
    BinOp, Call, ExprEvalError, ExprSyntaxError, Neg, Num, Token, Var, parse,
)
from fracvide.specfun import beta as _beta_fn

_OPERATORS = set("+-*/^")
_MAX_DEPTH = 64
_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25


def oracle_tokenize(source):
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


class _OracleParser:
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


def oracle_parse(source):
    """Parse a source string into an Expr."""
    parser = _OracleParser(oracle_tokenize(source))
    expr = parser.parse_expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(f"unexpected {trailing.text!r} after expression", trailing.pos)
    return expr


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


_CONSTANTS = {"pi": math.pi, "e": math.e}


def _first(mask, *values):
    """The values at the first position (C order) where mask holds, as floats."""
    mask = np.asarray(mask)
    index = np.unravel_index(int(np.argmax(mask)), mask.shape)
    return tuple(float(np.broadcast_to(v, mask.shape)[index]) for v in values)


def _checked(name, value):
    if not np.all(np.isfinite(value)):
        raise ExprEvalError(f"{name} produced a non-finite result")
    return value


def _fn_exp(x):
    if not np.all(x < 709.0):
        raise ExprEvalError("exp produced a non-finite result")
    return np.exp(x)


def _fn_ln(x):
    bad = x <= 0.0
    if np.any(bad):
        raise ExprEvalError(f"ln of non-positive value {_first(bad, x)[0]}")
    return np.log(x)


def _fn_sqrt(x):
    bad = x < 0.0
    if np.any(bad):
        raise ExprEvalError(f"sqrt of negative value {_first(bad, x)[0]}")
    return np.sqrt(x)


def _power(base, exponent):
    bad = (base < 0.0) & (exponent != np.round(exponent))
    if np.any(bad):
        b, e = _first(bad, base, exponent)
        raise ExprEvalError(f"negative base {b} with non-integer exponent {e}")
    if np.any((base == 0.0) & (exponent < 0.0)):
        raise ExprEvalError("zero raised to a negative power")
    return _checked("^", np.power(base, exponent))


def _beta_scalar(a, b):
    try:
        return _beta_fn(a, b)
    except OverflowError:
        raise ExprEvalError(f"beta({a}, {b}) overflows") from None


_beta_elementwise = np.frompyfunc(_beta_scalar, 2, 1)


def _fn_beta(a, b):
    bad = (a <= 0.0) | (b <= 0.0)
    if np.any(bad):
        a0, b0 = _first(bad, a, b)
        raise ExprEvalError(f"beta requires positive arguments, got ({a0}, {b0})")
    return _checked("beta", np.asarray(_beta_elementwise(a, b), dtype=float))


def _divide(a, b):
    if np.any(b == 0.0):
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
    "^": _power,
}


def _compile(expr):
    if isinstance(expr, Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, Var):
        name = expr.name

        def var(env):
            try:
                return env[name]
            except KeyError:
                raise ExprEvalError(f"unbound variable {name!r}") from None

        return var
    if isinstance(expr, Neg):
        operand = _compile(expr.operand)
        return lambda env: np.negative(operand(env))
    if isinstance(expr, BinOp):
        op, left, right = _BINARY[expr.op], _compile(expr.left), _compile(expr.right)
        return lambda env: op(left(env), right(env))
    if isinstance(expr, Call):
        try:
            arity, fn = _FUNCTIONS[expr.name]
        except KeyError:
            raise ExprEvalError(f"unknown function {expr.name!r}") from None
        if len(expr.args) != arity:
            raise ExprEvalError(f"{expr.name} takes {arity} argument(s), got {len(expr.args)}")
        args = tuple(_compile(a) for a in expr.args)
        return lambda env: fn(*[a(env) for a in args])
    raise TypeError(f"not an expression node: {expr!r}")


def _run(compiled, bindings):
    env = dict(_CONSTANTS)
    env.update((name, np.asarray(value, dtype=float)) for name, value in bindings.items())
    with np.errstate(over="ignore", invalid="ignore"):
        return np.asarray(compiled(env), dtype=float)


def evaluate(expr, bindings=None):
    """Evaluate an Expr with the given bindings; a float for a single value."""
    out = _run(_compile(expr), bindings or {})
    return float(out) if out.ndim == 0 else out


def compile_function(source, variables):
    """f(*values, **extra) as fracvide.exprlang.compile_function defines it."""
    compiled = _compile(parse(source))
    names = tuple(variables)

    def fn(*values, **extra):
        if len(values) != len(names):
            raise TypeError(f"expected {len(names)} positional values for {names}")
        bindings = dict(zip(names, values))
        bindings.update(extra)
        out = _run(compiled, bindings)
        shape = np.broadcast_shapes(*(np.shape(v) for v in values))
        return float(out) if not shape else np.array(np.broadcast_to(out, shape))

    return fn

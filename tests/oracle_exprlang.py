"""Tree-walking expression evaluator, kept as the oracle for exprlang.

This is the evaluator that `fracvide.exprlang.compile_function` used before
it folded literal-only subtrees and specialised constant exponents: every
node is a closure that runs on every call, every power tests its exponent,
and every call copies the constants and converts each binding to an array.
It shares the parser of `fracvide.exprlang`.
"""

import math

import numpy as np

from fracvide.exprlang import BinOp, Call, ExprEvalError, Neg, Num, Var, parse
from fracvide.specfun import beta as _beta_fn

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


_beta_elementwise = np.frompyfunc(_beta_fn, 2, 1)


def _fn_beta(a, b):
    bad = (a <= 0.0) | (b <= 0.0)
    if np.any(bad):
        a0, b0 = _first(bad, a, b)
        raise ExprEvalError(f"beta requires positive arguments, got ({a0}, {b0})")
    return np.asarray(_beta_elementwise(a, b), dtype=float)


def _divide(a, b):
    if np.any(b == 0.0):
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

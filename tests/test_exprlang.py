import math
import random

import numpy as np
import pytest

from fracvide.exprlang import (
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    compile_function,
    evaluate,
    parse,
    to_source,
    tokenize,
)


def test_tokenize_basic():
    kinds = [(t.kind, t.text) for t in tokenize("t^(3/2)*cos(t)")]
    assert kinds == [
        ("ident", "t"), ("op", "^"), ("lparen", "("), ("num", "3"), ("op", "/"),
        ("num", "2"), ("rparen", ")"), ("op", "*"), ("ident", "cos"),
        ("lparen", "("), ("ident", "t"), ("rparen", ")"), ("end", ""),
    ]


def test_tokenize_scientific():
    toks = tokenize("1e-3")
    assert toks[0].kind == "num" and toks[0].value == 0.001
    assert toks[1].kind == "end"


def test_tokenize_illegal_character_offset():
    with pytest.raises(ExprSyntaxError) as err:
        tokenize("2$3")
    assert err.value.position == 1


def test_tokenize_empty():
    with pytest.raises(ExprSyntaxError):
        tokenize("   ")


# golden precedence/associativity suite: (source, bindings, expected)
GOLDEN = [
    ("2+3*4", {}, 14.0),
    ("2*3+4", {}, 10.0),
    ("2^3^2", {}, 512.0),
    ("(2^3)^2", {}, 64.0),
    ("-t^2", {"t": 3.0}, -9.0),
    ("(-t)^2", {"t": 3.0}, 9.0),
    ("2^-3", {}, 0.125),
    ("10-4-3", {}, 3.0),
    ("12/4/3", {}, 1.0),
    ("12/(4/3)", {}, 9.0),
    ("1+2^2*3", {}, 13.0),
    ("-2-3", {}, -5.0),
    ("2*-3", {}, -6.0),
    ("cos(0)+1", {}, 2.0),
    ("cos(t)^2", {"t": 1.3}, math.cos(1.3) ** 2),
    ("exp(1)", {}, math.e),
    ("ln(e)", {}, 1.0),
    ("sqrt(2)^2", {}, 2.0),
    ("pow(2, 10)", {}, 1024.0),
    ("abs(-7.5)", {}, 7.5),
    ("pi", {}, math.pi),
    ("t^(3/2)*cos(t)", {"t": 0.25}, 0.125 * math.cos(0.25)),
    ("beta(1-mu, mu+gamma)", {"mu": 0.5, "gamma": 1.0}, math.pi / 2.0),
    ("exp(-s^(1-mu))", {"s": 1.0, "mu": 0.5}, math.exp(-1.0)),
    ("1e-3*1e3", {}, 1.0),
    ("2e2 - 0.5e1", {}, 195.0),
    (".5", {}, 0.5),
    ("1.", {}, 1.0),
    ("2.e3", {}, 2000.0),
]


@pytest.mark.parametrize("source,bindings,expected", GOLDEN)
def test_golden_expressions(source, bindings, expected):
    assert evaluate(parse(source), bindings) == pytest.approx(expected, rel=1e-14)


def test_parse_errors_have_positions():
    with pytest.raises(ExprSyntaxError):
        parse("2+")
    with pytest.raises(ExprSyntaxError):
        parse("(1+2")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")
    with pytest.raises(ExprSyntaxError):
        parse("cos(1,)")


def test_depth_cap():
    deep = "(" * 80 + "1" + ")" * 80
    with pytest.raises(ExprSyntaxError):
        parse(deep)


def test_eval_unbound_variable():
    with pytest.raises(ExprEvalError):
        evaluate(parse("t+1"), {})


def test_eval_domain_errors():
    with pytest.raises(ExprEvalError):
        evaluate(parse("ln(-1)"), {})
    with pytest.raises(ExprEvalError):
        evaluate(parse("1/0"), {})
    with pytest.raises(ExprEvalError):
        evaluate(parse("sqrt(-2)"), {})
    with pytest.raises(ExprEvalError):
        evaluate(parse("(-2)^0.5"), {})
    with pytest.raises(ExprEvalError):
        evaluate(parse("exp(1000)"), {})


def test_eval_unknown_function():
    with pytest.raises(ExprEvalError):
        evaluate(parse("sinh(1)"), {})


def test_ast_structure():
    assert parse("2+3*4") == BinOp("+", Num(2.0), BinOp("*", Num(3.0), Num(4.0)))
    assert parse("-t^2") == Neg(BinOp("^", Var("t"), Num(2.0)))
    assert parse("pow(a, 2)") == Call("pow", (Var("a"), Num(2.0)))


def _random_expr(rng, depth):
    """Random well-formed expression tree of bounded depth."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Num(round(rng.uniform(0.1, 4.0), 3))
        return Var(rng.choice(["t", "s", "mu", "gamma", "eps", "T"]))
    kind = rng.random()
    if kind < 0.6:
        return BinOp(rng.choice("+-*/^") if depth > 1 else rng.choice("+-*"),
                     _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind < 0.75:
        return Neg(_random_expr(rng, depth - 1))
    name = rng.choice(["exp", "sin", "cos", "sqrt", "abs"])
    return Call(name, (_random_expr(rng, depth - 1),))


def test_fuzz_roundtrip_and_reeval():
    rng = random.Random(20240817)
    bindings = {"t": 0.37, "s": 0.81, "mu": 0.5, "gamma": 1.25, "eps": 0.66, "T": 1.0}
    checked = 0
    for _ in range(400):
        expr = _random_expr(rng, rng.randint(1, 6))
        printed = to_source(expr)
        reparsed = parse(printed)
        assert reparsed == expr, printed
        try:
            first = evaluate(expr, bindings)
        except ExprEvalError:
            continue  # domain violation is a legal outcome; structure already checked
        second = evaluate(reparsed, bindings)
        assert first == second  # bit-identical
        checked += 1
    assert checked > 150


def test_compile_function():
    f = compile_function("t^2 + c", ("t",))
    assert f(3.0, c=1.0) == 10.0
    k = compile_function("exp(s)*t", ("t", "s"))
    assert k(2.0, 0.0) == 2.0


def test_compile_function_broadcasts_to_arrays():
    k = compile_function("exp(-c*t*s) + 0*t", ("t", "s"))
    out = k(np.array([[0.5], [1.0]]), np.array([0.0, 1.0, 2.0]), c=2.0)
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    assert type(k(0.5, 1.0, c=2.0)) is float
    # a constant, or an expression of some of the variables, fills the broadcast shape
    one = compile_function("1 + 0.5*tau", ("t", "tau"))
    assert one(np.zeros((4, 1)), np.ones(3)).shape == (4, 3)
    assert compile_function("2", ("t",))(np.zeros(5)).tolist() == [2.0] * 5
    # the result is a new array, not a view of an argument
    t = np.array([1.0, 2.0])
    same = compile_function("t", ("t",))(t)
    same[0] = 5.0
    assert t[0] == 1.0


@pytest.mark.parametrize("source", [
    "t^(3/2)*cos(t) - ln(t)/sqrt(t)",
    "exp(-s^(1-mu))*pow(t, 1/3) + abs(sin(7*t))",
    "beta(t, 1-mu) + (t^2 + 1)^-0.5",
])
def test_compiled_element_same_bits_alone_or_in_array(source):
    f = compile_function(source, ("t", "s"))
    rng = np.random.default_rng(17)
    t = rng.uniform(0.01, 3.0, 257)
    s = rng.uniform(0.0, 1.0, 257)
    at_once = f(t, s, mu=0.5)
    alone = [f(float(a), float(b), mu=0.5) for a, b in zip(t, s)]
    assert np.array_equal(at_once, alone)


@pytest.mark.parametrize("source,bindings,expected", GOLDEN)
def test_golden_expressions_on_arrays(source, bindings, expected):
    names = tuple(bindings) or ("unused",)
    values = [np.full(4, bindings.get(name, 0.0)) for name in names]
    out = compile_function(source, names)(*values)
    assert out.shape == (4,)
    assert out == pytest.approx(np.full(4, expected), rel=1e-14)


@pytest.mark.parametrize("source,values,message", [
    ("ln(t)", [2.0, 1.0, -1.0, 0.0, -2.0], "ln of non-positive value -1.0"),
    ("sqrt(t)", [4.0, -3.0, -4.0], "sqrt of negative value -3.0"),
    ("t^0.5", [2.0, -0.25, -2.0], "negative base -0.25 with non-integer exponent 0.5"),
    ("pow(t, 1.5)", [[1.0, 2.0], [-8.0, -1.0]], "negative base -8.0 with non-integer exponent 1.5"),
    ("beta(t, 1)", [1.0, 2.0, -0.5, 0.0], r"beta requires positive arguments, got \(-0.5, 1.0\)"),
    ("1/(t-1)", [0.0, 1.0, 2.0], "division by zero"),
    ("t^-1", [1.0, 0.0], "zero raised to a negative power"),
    ("exp(t)", [1.0, 710.0], "exp produced a non-finite result"),
    ("t*1e308*10", [0.0, 1.0], r"\* produced a non-finite result"),
])
def test_domain_errors_on_arrays_name_first_bad_value(source, values, message):
    f = compile_function(source, ("t",))
    with pytest.raises(ExprEvalError, match=f"^{message}$"):
        f(np.array(values))

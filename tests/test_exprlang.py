import math
import random

import numpy as np
import oracle_exprlang
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


@pytest.mark.parametrize("name", ["sin", "cos", "abs"])
def test_functions_reject_a_non_finite_result(name):
    f = compile_function(f"{name}(t)", ("t",))
    with pytest.raises(ExprEvalError, match=f"^{name} produced a non-finite result$"):
        f(np.inf)
    # finite results are the ufunc's, bit for bit
    values = np.array([-2.5, -0.0, 1e-310, 0.37, 1e300])
    assert f(values).tobytes() == getattr(np, name)(values).tobytes()


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
    ("sin(t)", [0.5, np.inf], "sin produced a non-finite result"),
    ("cos(t)", [np.nan, 0.5], "cos produced a non-finite result"),
    ("abs(t)", [-1.0, -np.inf], "abs produced a non-finite result"),
    ("beta(t, t)", [1.0, 1e-308, 1e-300], r"beta\(1e-308, 1e-308\) overflows"),
    # the log-gamma sum overflows, though B(1e308, 1) = 1e-308
    ("beta(t, 1)", [1.0, 1e308], r"beta\(1e\+308, 1.0\) overflows"),
    ("beta(t, 1)", [1.0, np.nan], "beta produced a non-finite result"),
])
def test_domain_errors_on_arrays_name_first_bad_value(source, values, message):
    f = compile_function(source, ("t",))
    with pytest.raises(ExprEvalError, match=f"^{message}$"):
        f(np.array(values))


def _outcome(fn, *values, **extra):
    """What a call gives: the result's type, shape and bytes, or the error's
    type and message."""
    try:
        out = fn(*values, **extra)
    except Exception as err:  # the oracle and the program must raise alike
        return type(err), str(err)
    return type(out), np.shape(out), np.asarray(out).tobytes()


# arrays with negatives, signed zeros, subnormals and values near overflow
_HARD_VALUES = [
    (np.array([0.37, 1.0, 2.5, 0.01]), np.array([0.81, 0.5, 3.0, 1e-3])),
    (np.array([0.5, -1.0, 0.0, -0.0, 2.0]), np.array([-2.5, 0.0, 1.0, 4.0, -0.5])),
    (np.array([1e308, 708.9, -1e308, 1e154, 5e-324]), np.array([2.0, 709.5, 1e-300, -1e154, 3.0])),
]
_SCALARS = {"mu": 0.5, "gamma": 1.25, "eps": 0.66, "T": 1.0}


def test_compiled_functions_match_the_oracle():
    rng = random.Random(20261019)
    raised = 0
    for _ in range(300):
        source = to_source(_random_expr(rng, rng.randint(1, 6)))
        new = compile_function(source, ("t", "s"))
        old = oracle_exprlang.compile_function(source, ("t", "s"))
        for t, s in _HARD_VALUES:
            expected = _outcome(old, t, s, **_SCALARS)
            raised += len(expected) == 2
            assert _outcome(new, t, s, **_SCALARS) == expected, source
            for args in ((t[:, None], s), (float(t[1]), s[1])):
                assert _outcome(new, *args, **_SCALARS) == _outcome(old, *args, **_SCALARS)
        assert _outcome(evaluate, parse(source), {"t": 0.37, "s": 0.81, **_SCALARS}) == \
            _outcome(oracle_exprlang.evaluate, parse(source), {"t": 0.37, "s": 0.81, **_SCALARS})
    assert 100 < raised < 800   # both outcomes are exercised


@pytest.mark.parametrize("source", [
    "t^(5/4)*exp(-t)", "exp(-t)*(5/4*t^(1/4) - t^(5/4))", "t^-0.5", "pow(t, -2)", "t^(-3/2)",
    "pow(t, 1/3) + t^0", "2^-3*t", "(-8)^(1/3) + t", "-(2^10) + ln(4)*t", "beta(1/2, 3/2)*t",
    "t^(2^-1)", "sqrt(2)^2 - t", "pi*t + e", "1e308*10 + t", "t/(2-2)", "pow(0, -1) + t",
])
def test_folded_and_specialised_expressions_match_the_oracle(source):
    new = compile_function(source, ("t",))
    old = oracle_exprlang.compile_function(source, ("t",))
    for t, _ in _HARD_VALUES:
        assert _outcome(new, t) == _outcome(old, t)
        for value in t:
            assert _outcome(new, float(value)) == _outcome(old, float(value))


@pytest.mark.parametrize("source,message", [
    ("ln(-1)*t", "ln of non-positive value -1.0"),
    ("t^(1/0)", "division by zero"),
    ("t + (-2)^0.5", r"negative base -2.0 with non-integer exponent 0.5"),
    ("beta(1e-308, 1e-308)*t", r"beta\(1e-308, 1e-308\) overflows"),
])
def test_a_failing_constant_raises_at_call_time(source, message):
    f = compile_function(source, ("t",))     # compiles without error
    with pytest.raises(ExprEvalError, match=f"^{message}$"):
        f(0.5)
    with pytest.raises(ExprEvalError, match=f"^{message}$"):
        f(np.array([0.5, 1.0]))


def test_unknown_function_is_named_at_compile_time_in_tree_order():
    with pytest.raises(ExprEvalError, match="^unknown function 'sinh'$"):
        compile_function("sinh(foo(1)) + t", ("t",))
    with pytest.raises(ExprEvalError, match=r"^pow takes 2 argument\(s\), got 1$"):
        compile_function("pow(cosh(2))", ("t",))


def test_bindings_override_pi_and_e():
    f = compile_function("pi*t + e", ("t",))
    assert f(2.0) == math.pi * 2.0 + math.e
    assert f(2.0, pi=3.0) == 6.0 + math.e
    assert f(2.0, pi=3.0, e=1.0) == 7.0
    assert f(np.array([1.0, 2.0]), pi=3.0).tolist() == [3.0 + math.e, 6.0 + math.e]
    assert compile_function("pi", ("pi",))(3.0) == 3.0
    assert evaluate(parse("2*pi"), {"pi": 3.0}) == 6.0


def test_integer_bindings_evaluate_as_floats():
    f = compile_function("t^-mu + 0*t", ("t",))
    assert f(2, mu=1) == 0.5
    assert f([2, 4], mu=1).tolist() == [0.5, 0.25]


def test_result_is_a_new_array_of_the_broadcast_shape():
    t = np.array([1.0, 2.0])
    for source in ("t", "t*1", "mu", "2"):
        out = compile_function(source, ("t",))(t, mu=3.0)
        assert type(out) is np.ndarray and out.shape == (2,)
        assert not np.shares_memory(out, t)
    out = compile_function("t", ("t", "s"))(t, np.zeros((3, 1)))
    assert out.shape == (3, 2) and out.flags.writeable


@pytest.mark.parametrize("source,offset", [("1e400", 0), ("2*1e400", 2), ("t + 1.8e308", 4)])
def test_overflowing_literal_is_a_syntax_error(source, offset):
    with pytest.raises(ExprSyntaxError, match="is too large for a double") as err:
        parse(source)
    assert err.value.position == offset
    with pytest.raises(ExprSyntaxError):
        compile_function(source, ("t",))


def test_largest_and_underflowing_literals_parse():
    assert parse("1.7976931348623157e308") == Num(1.7976931348623157e308)
    assert parse("1e-400") == Num(0.0)

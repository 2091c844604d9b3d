import dataclasses
import math

import numpy as np
import pytest

from fracvide.problem import (
    BUILTIN_NAMES,
    ProblemSpec,
    builtin,
    load_problem,
    manufactured_g,
    parse_problem_config,
    transform,
    validate,
)
from fracvide.specfun import beta, frac_gauss_jacobi


def closed_form_g_ex1(spec, t):
    """Hand-derived forcing for ex1: the kernel e^{s^(1-mu)} cancels the
    exponential in y, so both integrals reduce to Beta integrals."""
    mu, gam, eps = spec.mu, spec.gamma, spec.eps
    y = lambda u: u * math.exp(-(u ** (1 - mu)))
    yp = math.exp(-(t ** (1 - mu))) * (1 - (1 - mu) * t ** (1 - mu))
    return (t ** gam * yp - t ** (5 / 3) * (y(t) + y(eps * t))
            - (1 + eps) * beta(1 - mu, mu + gam + 1) * t ** (gam + 1))


def closed_form_g_ex2(spec, t):
    """Hand-derived forcing for ex2: K*y = c*s^(1+mu) exactly."""
    mu, gam, eps = spec.mu, spec.gamma, spec.eps
    c = math.sqrt(3) / (3 * math.pi)
    y = lambda u: u ** (1 + mu) * math.exp(-u)
    yp = math.exp(-t) * t ** mu * (1 + mu - t)
    return (t ** gam * yp - t ** (5 / 3) * (y(t) + y(eps * t))
            - c * (1 + eps ** (1 + mu)) * beta(1 - mu, 2 * mu + gam + 1) * t ** (1 + mu + gam))


def closed_form_g_ex3(spec, t):
    mu, gam, eps = spec.mu, spec.gamma, spec.eps
    c = math.sqrt(3) / (3 * math.pi)
    w1, w2 = 0.5, math.sqrt(2)
    y = lambda u: (u ** (1 + w1) + u ** (1 + w2)) * math.exp(-u)
    yp = math.exp(-t) * (t ** w1 * (1 + w1 - t) + t ** w2 * (1 + w2 - t))
    return (t ** gam * yp - t ** (5 / 3) * (y(t) + y(eps * t))
            - c * ((1 + eps ** (w1 + 1)) * beta(1 - mu, mu + gam + w1 + 1) * t ** (gam + w1 + 1)
                   + (1 + eps ** (w2 + 1)) * beta(1 - mu, mu + gam + w2 + 1) * t ** (gam + w2 + 1)))


def equation_residual(spec, t, n_quad=512):
    """Residual of the original equation at one point, with both integrals
    evaluated by an independent (higher-resolution) singular Gauss rule.

    Returns (residual, scale) where scale is the largest participating term.
    """
    rule = frac_gauss_jacobi(n_quad, -spec.mu, spec.mu + spec.gamma - 1.0, 1.0)
    xi, w = rule.nodes, rule.weights
    y = spec.exact
    i1 = t ** spec.gamma * float(np.sum(
        w * np.array([spec.K1(t, s) * y(s) for s in t * xi])))
    i2 = t ** spec.gamma * float(np.sum(
        w * np.array([spec.K2(t, u) * y(u) for u in spec.eps * t * xi])))
    lhs = t ** spec.gamma * spec.exact_prime(t)
    terms = [spec.p(t) * y(t), spec.q(t) * y(spec.eps * t), spec.g(t), i1, i2]
    residual = lhs - sum(terms)
    scale = max(abs(lhs), *(abs(v) for v in terms))
    return residual, scale


def test_validate_accepts_benchmark_parameters():
    spec = builtin("ex1")
    assert validate(spec) == []
    assert spec.mu == 0.5 and spec.T == 1.0 and spec.eps == 0.5


def test_validate_collects_violations():
    bad = dataclasses.replace(builtin("ex1"), gamma=0.3)
    msgs = validate(bad)
    assert len(msgs) == 1 and "mu + gamma" in msgs[0]
    bad = dataclasses.replace(builtin("ex1"), eps=1.2)
    assert any("eps" in m for m in validate(bad))
    bad = dataclasses.replace(builtin("ex1"), mu=-0.1, T=-1.0)
    assert len(validate(bad)) == 3  # mu range, mu+gamma, T


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["gamma", "T", "y0"])
def test_validate_names_a_non_finite_scalar(name, value):
    spec = dataclasses.replace(builtin("ex1"), **{name: value})
    assert f"{name} must be finite, got {value}" in validate(spec)
    with pytest.raises(ValueError, match=f"^invalid problem: .*{name} must be finite"):
        transform(spec)


def test_validate_names_every_non_finite_scalar():
    ex1 = builtin("ex1")
    spec = ProblemSpec(mu=0.5, gamma=math.inf, eps=0.5, T=math.nan, y0=math.inf,
                       p=ex1.p, q=ex1.q, g=ex1.g, K1=ex1.K1, K2=ex1.K2)
    assert validate(spec) == ["gamma must be finite, got inf", "T must be finite, got nan",
                              "y0 must be finite, got inf"]


def test_transform_identity_scaling():
    spec = builtin("ex1")  # T = 1
    tp = transform(spec)
    for theta in (0.2, 0.9):
        assert tp.p1(theta) == pytest.approx(theta ** -spec.gamma * spec.p(theta), rel=1e-13)


def test_transform_halved_interval():
    spec = builtin("ex2")  # T = 1/2, gamma = 1, p = t^(5/3)
    tp = transform(spec)
    for theta in (0.3, 0.8):
        expected = 0.5 * (theta / 2) ** (2 / 3)
        assert tp.p1(theta) == pytest.approx(expected, rel=1e-13)


def test_transform_coefficient_invariant():
    for name in ("ex1", "ex2", "ex4"):
        spec = builtin(name)
        tp = transform(spec)
        for theta in np.linspace(0.05, 1.0, 7):
            want = spec.T * (spec.T * theta) ** -spec.gamma * spec.q(spec.T * theta)
            assert tp.q1(float(theta)) == pytest.approx(want, rel=1e-13)
            want_g = spec.T * (spec.T * theta) ** -spec.gamma * spec.g(spec.T * theta)
            assert tp.g1(float(theta)) == pytest.approx(want_g, rel=1e-12, abs=1e-15)


def test_transform_exact_solution():
    tp = transform(builtin("ex1"))
    for theta in (0.1, 0.5, 1.0):
        assert tp.phi(theta) == pytest.approx(theta * math.exp(-math.sqrt(theta)), rel=1e-14)


def test_transform_inverse_consistency():
    rng = np.random.default_rng(3)
    for name in ("ex1", "ex2", "ex3"):
        spec = builtin(name)
        tp = transform(spec)
        for t in rng.uniform(0.0, spec.T, 10):
            assert tp.phi(float(t) / spec.T) == pytest.approx(spec.exact(float(t)), rel=1e-13, abs=1e-15)


def test_builtin_parameters():
    assert builtin("ex2").eps == 0.66
    assert builtin("ex3").T == 1.0
    assert builtin("ex4").y0 == 3.0
    assert builtin("ex5").mu == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-15)
    assert builtin("ex1", gamma_override=1.5).gamma == 1.5
    assert set(BUILTIN_NAMES) == {"ex1", "ex2", "ex3", "ex4", "ex5"}


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin("nosuch")
    with pytest.raises(ValueError):
        builtin("ex2", gamma_override=2.0)


def test_builtin_ex4_kernels():
    spec = builtin("ex4")
    # first kernel carries the minus sign of the benchmark equation
    assert spec.K1(0.3, 0.2) == pytest.approx(-(0.2 ** 1.5) * (1 + math.sin(0.06)), rel=1e-14)
    assert spec.K2(0.3, 0.2) == pytest.approx(0.2 ** 1.5 * (1 + math.cos(0.06)), rel=1e-14)
    assert spec.exact is None


def test_manufactured_constant_solution():
    spec = ProblemSpec(
        mu=0.5, gamma=1.0, eps=0.5, T=1.0, y0=2.0,
        p=lambda t: 0.0, q=lambda t: 0.0, g=None,
        K1=lambda t, s: 0.0, K2=lambda t, s: 0.0,
        exact=lambda t: 2.0, exact_prime=lambda t: 0.0,
    )
    g = manufactured_g(spec)
    for t in (0.0, 0.3, 1.0):
        assert g(t) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "config"])
def test_manufactured_g_on_array_matches_pointwise(name):
    spec = parse_problem_config(CONFIG) if name == "config" else builtin(name)
    t = np.linspace(0.0, spec.T, 23)
    at_once = spec.g(t)
    pointwise = np.array([spec.g(float(v)) for v in t])
    assert at_once.shape == t.shape
    assert np.max(np.abs(at_once - pointwise)) <= 1e-14 * np.max(np.abs(pointwise))
    grid = t.reshape(-1, 1)
    assert np.array_equal(spec.g(grid), at_once.reshape(-1, 1))


def test_manufactured_requires_exact():
    with pytest.raises(ValueError):
        manufactured_g(builtin("ex4"))


def test_manufactured_matches_closed_form_ex2():
    spec = builtin("ex2")
    assert spec.g(0.25) == pytest.approx(closed_form_g_ex2(spec, 0.25), rel=1e-8)
    for t in (0.05, 0.4, 0.49):
        assert spec.g(t) == pytest.approx(closed_form_g_ex2(spec, t), rel=1e-10)


def test_manufactured_matches_closed_form_ex1_ex3():
    ex1, ex3 = builtin("ex1"), builtin("ex3")
    for t in (0.1, 0.35, 0.9):
        assert ex1.g(t) == pytest.approx(closed_form_g_ex1(ex1, t), rel=1e-10)
        assert ex3.g(t) == pytest.approx(closed_form_g_ex3(ex3, t), rel=1e-10)


def test_manufactured_quadrature_saturation():
    for name in ("ex1", "ex2"):
        base = dataclasses.replace(builtin(name), g=None)
        g1 = manufactured_g(base, n_quad=200)
        g2 = manufactured_g(base, n_quad=400)
        t = 0.3
        assert abs(g1(t) - g2(t)) <= 1e-12 * abs(g2(t))


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_equation_residual_with_manufactured_g(name):
    spec = builtin(name)
    rng = np.random.default_rng(11)
    for t in rng.uniform(1e-3, spec.T, 12):
        residual, scale = equation_residual(spec, float(t))
        assert abs(residual) <= 1e-10 * scale


CONFIG = """
# a pantograph-type problem with manufactured forcing
mu = 1/2
gamma = 1
eps = 0.5
T = 1
y0 = 0
p = t^(5/3)
q = t^(5/3)
K1 = exp(s^(1-mu))
K2 = exp(tau^(1-mu))
exact = t*exp(-t^(1-mu))
exact_prime = exp(-t^(1-mu))*(1-(1-mu)*t^(1-mu))
"""


def test_parse_config_reproduces_builtin():
    spec = parse_problem_config(CONFIG)
    ref = builtin("ex1")
    assert (spec.mu, spec.gamma, spec.eps, spec.T, spec.y0) == (0.5, 1.0, 0.5, 1.0, 0.0)
    for t in (0.2, 0.7):
        assert spec.p(t) == pytest.approx(ref.p(t), rel=1e-14)
        assert spec.K1(t, 0.3) == pytest.approx(ref.K1(t, 0.3), rel=1e-14)
        assert spec.exact(t) == pytest.approx(ref.exact(t), rel=1e-14)
        assert spec.g(t) == pytest.approx(ref.g(t), rel=1e-12)


def test_parse_config_errors():
    with pytest.raises(ValueError, match="unknown key"):
        parse_problem_config("mu = 0.5\nbogus = 1")
    with pytest.raises(ValueError, match="missing required"):
        parse_problem_config("mu = 0.5")
    with pytest.raises(ValueError, match="not both"):
        parse_problem_config(CONFIG + "g = sin(t)")
    with pytest.raises(ValueError, match="forcing"):
        parse_problem_config("mu=0.5\ngamma=1\neps=0.5\nT=1\ny0=0\np=t\nq=t")
    with pytest.raises(ValueError, match="invalid problem"):
        parse_problem_config(CONFIG.replace("eps = 0.5", "eps = 1.2"))
    with pytest.raises(ValueError, match="together"):
        parse_problem_config(CONFIG.replace("exact_prime = ", "# exact_prime = "))


@pytest.mark.parametrize("value,message", [
    ("2*1e400", r"number 1e400 is too large for a double \(at offset 2\)"),
    ("10^400", r"\^ produced a non-finite result"),
    ("beta(1e-308, 1e-308)", r"beta\(1e-308, 1e-308\) overflows"),
])
@pytest.mark.parametrize("key", ["gamma", "T", "y0"])
def test_config_rejects_a_non_finite_scalar(key, value, message, tmp_path):
    lines = CONFIG.splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {value}"
    path = tmp_path / "huge.cfg"
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"^line {lineno}: bad value for {key}: {message}$"):
        load_problem(path)


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "pantograph.cfg"
    path.write_text(CONFIG)
    spec = load_problem(path)
    assert spec.name == "pantograph"
    assert spec.mu == 0.5

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracvide.collocate import (
    SolverError,
    assemble,
    singular_ratio,
    solve,
)
from fracvide import exprlang
from fracvide.problem import TransformedProblem, builtin, parse_problem_config, transform
from fracvide.specfun import beta, frac_gauss_jacobi
import fracvide.collocate as collocate
import fracvide.fracbasis as fracbasis
from oracle_assembly import assemble_rowwise, solve_block, transform_kernel
from oracle_fracbasis import eval_basis
from twin_classical import classical_solve


def make_tp(mu=0.5, gam=1.0, eps=0.5, y0=0.0, p1=None, q1=None, g1=None, k1=None, k2=None):
    """Synthetic transformed problem with directly prescribed coefficients."""
    zero = lambda theta: 0.0
    zero2 = lambda theta, eta: 0.0
    return TransformedProblem(
        mu=mu, gamma=gam, eps=eps, T=1.0, y0=y0,
        p1=p1 or zero, q1=q1 or zero, g1=g1 or zero,
        kbar1=k1 or zero2, kbar2=k2 or zero2, name="synthetic",
    )


def test_singular_ratio_lambda_one():
    xi = np.linspace(0.01, 0.99, 20)
    assert np.all(singular_ratio(xi, 1.0, 0.7) == 1.0)


def test_singular_ratio_point_value():
    # lam=1/2: xi^(1/lam) = xi^2, so the ratio is ((1-xi^2)/(1-xi))^-mu = (1+xi)^-mu
    val = singular_ratio(0.36, 0.5, 0.5)
    assert val == pytest.approx(1.36 ** -0.5, rel=1e-14)


def test_singular_ratio_limit_at_one():
    # (1 - xi^(1/lam)) / (1 - xi) -> 1/lam as xi -> 1, so the ratio -> lam^mu
    lam, mu = 0.5, 0.5
    val = singular_ratio(1.0 - 1e-9, lam, mu)
    assert val == pytest.approx(lam ** mu, rel=1e-7)


def test_singular_ratio_domain():
    with pytest.raises(ValueError):
        singular_ratio(0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        singular_ratio(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        singular_ratio(np.array([0.5, 1.2]), 0.5, 0.5)


def test_transform_kernel_lambda_one():
    kbar = lambda theta, eta: np.cos(theta) + eta
    ktil = transform_kernel(kbar, 1.0, 0.5)
    for xi in (0.2, 0.77):
        assert ktil(0.4, xi) == pytest.approx(kbar(0.4, 0.4 * xi), rel=1e-14)


def test_transform_kernel_fractional():
    kbar = lambda theta, eta: 2.0 + eta
    lam, mu = 0.5, 0.5
    ktil = transform_kernel(kbar, lam, mu)
    xi = 0.36
    expected = (1.0 / lam) * (1.36 ** -0.5) * kbar(0.4, 0.4 * xi ** 2)
    assert ktil(0.4, xi) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("lam", [1.0, 0.5])
@pytest.mark.parametrize("n", [0, 3, 8])
def test_e_h_row_sums(lam, n):
    tp = transform(builtin("ex1"))
    system = assemble(tp, n, lam)
    theta = system.basis.nodes
    assert np.max(np.abs(system.E.sum(axis=1) - theta)) <= 1e-12
    assert np.max(np.abs(system.H.sum(axis=1) - tp.eps * theta)) <= 1e-12


def test_degree_zero_E_entry():
    tp = transform(builtin("ex1"))
    system = assemble(tp, 0, 0.5)
    assert system.E.shape == (1, 1)
    assert system.E[0, 0] == pytest.approx(system.basis.nodes[0], abs=1e-14)


@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_c_row_sums_unit_kernel(lam):
    # with kbar1 = 1 each C row sums to the Beta integral of the singular factors
    mu, gam = 0.5, 1.0
    tp = make_tp(mu=mu, gam=gam, k1=lambda theta, eta: 1.0)
    expected = beta(1.0 - mu, mu + gam)
    for n in (8, 12):
        system = assemble(tp, n, lam)
        sums = system.C.sum(axis=1)
        assert np.max(np.abs(sums - expected)) <= 1e-10 * expected


@pytest.mark.parametrize("lam", [1.0, 0.5])
@pytest.mark.parametrize("n", [2, 5])
def test_e_h_match_adaptive_quadrature(lam, n):
    # every E/H entry equals the integral of the basis function it weights
    tp = transform(builtin("ex1"))
    system = assemble(tp, n, lam)
    theta = system.basis.nodes
    eps = tp.eps
    for i in range(n + 1):
        for j in range(n + 1):
            f = lambda eta: eval_basis(system.basis, j, eta)
            want_e, _ = quad(f, 0.0, theta[i], epsabs=1e-12, epsrel=1e-12, limit=200)
            want_h, _ = quad(f, 0.0, eps * theta[i], epsabs=1e-12, epsrel=1e-12, limit=200)
            assert abs(system.E[i, j] - want_e) <= 1e-10
            assert abs(system.H[i, j] - want_h) <= 1e-10


def test_kernel_rules_have_scheme_exponents():
    tp = transform(builtin("ex2"))
    lam = 1.0 / 3.0
    system = assemble(tp, 5, lam)
    assert system.kernel_rule.alpha == pytest.approx(-tp.mu)
    assert system.kernel_rule.beta == pytest.approx((tp.mu + tp.gamma) / lam - 1.0)
    assert system.anti_rule.alpha == 0.0
    assert system.anti_rule.beta == pytest.approx(1.0 / lam - 1.0)
    assert system.kernel_rule.n_points == 6


def test_solution_identities():
    tp = transform(builtin("ex1"))
    system = assemble(tp, 7, 0.5)
    sol = solve(system)
    assert np.max(np.abs(sol.u - (system.U0 + system.E @ sol.u_star))) <= 1e-12
    assert np.max(np.abs(sol.v - (system.U0 + system.H @ sol.u_star))) <= 1e-12


def test_constant_solution_fixed_point():
    # y = y0, zero kernels and coefficients, manufactured g = 0
    tp = make_tp(y0=2.0)
    sol = solve(assemble(tp, 5, 0.5))
    assert np.max(np.abs(sol.u_star)) <= 1e-11
    assert np.max(np.abs(sol.u - 2.0)) <= 1e-11
    assert np.max(np.abs(sol.v - 2.0)) <= 1e-11


def test_degree_consistency_lambda_one():
    # linear solution, constant coefficients and kernels: every quadrature in
    # the scheme is exact, so nodal values are recovered to roundoff
    mu, gam, eps = 0.5, 1.0, 0.5
    c0, c1, pc, qc, k1c, k2c = 1.5, -0.7, 0.3, 0.2, 1.0, 0.5
    phi = lambda th: c0 + c1 * th
    b0, b1 = beta(1 - mu, mu + gam), beta(1 - mu, mu + gam + 1)

    def g1(theta):
        ker1 = k1c * (c0 * b0 + c1 * b1 * theta)
        ker2 = k2c * (c0 * b0 + c1 * eps * b1 * theta)
        return c1 - pc * phi(theta) - qc * phi(eps * theta) - ker1 - ker2

    tp = make_tp(mu=mu, gam=gam, eps=eps, y0=c0,
                 p1=lambda th: pc, q1=lambda th: qc, g1=g1,
                 k1=lambda th, eta: k1c, k2=lambda th, eta: k2c)
    for n in (2, 6):
        sol = solve(assemble(tp, n, 1.0))
        nodes = sol.system.basis.nodes
        assert np.max(np.abs(sol.u - phi(nodes))) <= 1e-10
        assert np.max(np.abs(sol.u_star - c1)) <= 1e-10


def test_degree_consistency_fractional_resolved_derivative():
    # lam < 1 with kernels off and phi' in the trial space: the
    # antiderivative coupling is exact, so nodal values are recovered
    lam, eps = 0.5, 0.5
    y0, c0, c1, pc, qc = 2.0, 0.4, 1.1, 0.25, -0.3
    phi_prime = lambda th: c0 + c1 * th ** lam
    phi = lambda th: y0 + c0 * th + c1 * th ** (1 + lam) / (1 + lam)
    g1 = lambda th: phi_prime(th) - pc * phi(th) - qc * phi(eps * th)
    tp = make_tp(eps=eps, y0=y0, p1=lambda th: pc, q1=lambda th: qc, g1=g1)
    for n in (2, 5):
        sol = solve(assemble(tp, n, lam))
        nodes = sol.system.basis.nodes
        assert np.max(np.abs(sol.u - phi(nodes))) <= 1e-10
        assert np.max(np.abs(sol.u_star - phi_prime(nodes))) <= 1e-10


def test_block_solve_matches_elimination():
    tp = transform(builtin("ex1"))
    system = assemble(tp, 6, 0.5)
    a = solve(system)
    b = solve_block(system)
    assert np.max(np.abs(a.u_star - b.u_star)) <= 1e-11
    assert np.max(np.abs(a.u - b.u)) <= 1e-11
    assert np.max(np.abs(a.v - b.v)) <= 1e-11


def test_lambda_one_reduction_matches_classical_twin():
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 8, 1.0))
    theta, u_star, u, v = classical_solve(tp, 8)
    assert np.max(np.abs(sol.system.basis.nodes - theta)) <= 1e-13
    assert np.max(np.abs(sol.u_star - u_star)) <= 1e-12
    assert np.max(np.abs(sol.u - u)) <= 1e-12
    assert np.max(np.abs(sol.v - v)) <= 1e-12


def test_evaluate_at_nodes_is_nodal_value():
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 7, 0.5))
    for j, t in enumerate(sol.system.basis.nodes):
        assert sol.evaluate(float(t)) == sol.u[j]


def test_evaluate_at_origin():
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 7, 0.5))
    val = sol.evaluate(0.0)
    assert math.isfinite(val)
    # exact solution vanishes at the origin; N = 7 resolves it well
    assert abs(val) <= 1e-6


def test_evaluate_convergence_at_midpoint():
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 12, 0.5))
    assert abs(sol.evaluate(0.5) - tp.phi(0.5)) <= 1e-10


def test_to_physical():
    spec = builtin("ex2")  # T = 1/2
    sol = solve(assemble(transform(spec), 10, 1.0 / 3.0))
    assert sol.to_physical(0.25) == pytest.approx(sol.evaluate(0.5), rel=1e-15)
    assert sol.to_physical(0.0) == pytest.approx(sol.evaluate(0.0), rel=1e-15)
    with pytest.raises(ValueError):
        sol.to_physical(0.51)
    with pytest.raises(ValueError):
        sol.to_physical(-0.01)


def test_solution_convergence_monotone():
    # sup error non-increasing in N (up to a factor 3 per step)
    for name, lam in [("ex1", 0.5), ("ex2", 1.0 / 3.0), ("ex3", 0.5)]:
        tp = transform(builtin(name))
        prev = None
        for n in (4, 6, 8, 10, 12):
            sol = solve(assemble(tp, n, lam))
            grid = np.linspace(0.0, 1.0, 400)
            err = max(abs(tp.phi(float(t)) - sol.evaluate(float(t))) for t in grid)
            if prev is not None:
                assert err <= 3.0 * prev
            prev = err


def test_solver_error_on_singular_system():
    tp = make_tp()
    system = assemble(tp, 1, 1.0)
    # force A = I - P*E to be exactly singular by making E the identity and P unit
    broken = dataclasses.replace(
        system, P=np.ones(2), E=np.eye(2),
        C=np.zeros((2, 2)), D=np.zeros((2, 2)), Q=np.zeros(2))
    with pytest.raises(SolverError):
        solve(broken)


def test_an_overflowing_system_is_rejected_without_a_warning():
    # the right-hand side overflows to inf; the non-finite residual rejects
    # the solve, and numpy's overflow warning (an error under this suite's
    # warning filter) is not raised
    system = assemble(transform(builtin("ex1")), 8, 1.0)
    with pytest.raises(SolverError, match="solve residual"):
        solve(dataclasses.replace(system, U0=np.full(9, 1e308)))


def test_assemble_validates_arguments():
    tp = transform(builtin("ex1"))
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        assemble(tp, -1, 0.5)
    with pytest.raises(ValueError, match=r"^lam must lie in \(0, 1\], got 0.0$"):
        assemble(tp, 4, 0.0)
    with pytest.raises(ValueError, match=r"^lam must lie in \(0, 1\], got 1.7$"):
        assemble(tp, 4, 1.7)
    # the degree is checked first
    with pytest.raises(ValueError, match="^degree must be nonnegative$"):
        assemble(tp, -1, 1.7)


@pytest.mark.parametrize("mu,eps", [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)])
def test_boundary_parameters_same_machinery(mu, eps):
    # mu = 0 (no singularity) and eps = 1 (no delay) run through the same
    # pipeline; an analytic manufactured solution converges to roundoff
    from fracvide.problem import ProblemSpec, manufactured_g

    spec = ProblemSpec(
        mu=mu, gamma=1.0, eps=eps, T=1.0, y0=0.0,
        p=lambda t: t, q=lambda t: 0.5 * t, g=None,
        K1=lambda t, s: np.exp(-t * s), K2=lambda t, s: 1.0 + s,
        exact=lambda t: t * t * np.exp(-t),
        exact_prime=lambda t: np.exp(-t) * (2.0 * t - t * t),
        name="boundary")
    spec = dataclasses.replace(spec, g=manufactured_g(spec))
    tp = transform(spec)
    sol = solve(assemble(tp, 14, 1.0))
    grid = np.linspace(0.0, 1.0, 200)
    err = max(abs(tp.phi(float(t)) - sol.evaluate(float(t))) for t in grid)
    assert err <= 1e-10


def _max_rel_diff(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


def _assert_matches_rowwise(tp, n, lam):
    system = assemble(tp, n, lam)
    C, D, E, H = assemble_rowwise(tp, n, lam)
    for got, want in ((system.C, C), (system.D, D), (system.E, E), (system.H, H)):
        assert _max_rel_diff(got, want) <= 1e-14
    oracle = solve(dataclasses.replace(system, C=C, D=D, E=E, H=H))
    assert _max_rel_diff(solve(system).u_star, oracle.u_star) <= 1e-14


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5"])
def test_blocked_assembly_matches_rowwise_oracle(name, lam):
    # N = 64 and 200 leave the last block of rows partly filled
    tp = transform(builtin(name))
    for n in (0, 1, 8, 18, 64, 200):
        _assert_matches_rowwise(tp, n, lam)


@pytest.fixture
def fresh_antiderivative_cache():
    """Empty the E cache after the test, so that an E built under a
    patched block size reaches no other test."""
    yield
    collocate.antiderivative_matrix.cache_clear()


@pytest.mark.parametrize("work_entries", [7, 100, 400])
def test_blocked_assembly_split_rows_match_oracle(monkeypatch, fresh_antiderivative_cache,
                                                  work_entries):
    # a work array smaller than one row gives blocks of one row; the E
    # cache is emptied after the patch so that E is built in one-row blocks too
    monkeypatch.setattr(fracbasis, "_WORK_ENTRIES", work_entries)
    collocate.antiderivative_matrix.cache_clear()
    _assert_matches_rowwise(transform(builtin("ex2")), 18, 0.5)
    _assert_matches_rowwise(transform(builtin("ex4")), 6, 1.0)


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
def test_no_delay_gives_undelayed_matrices_exactly(lam):
    # eps = 1 re-interpolates with R = I, so H is E and D is the K2
    # quadrature at the points of C, bit for bit
    k2 = lambda theta, u: np.cos(theta) + u * u
    tp = make_tp(mu=0.3, gam=1.2, eps=1.0, k1=lambda theta, eta: 1.0 + eta, k2=k2)
    system = assemble(tp, 12, lam)
    assert np.array_equal(system.H, system.E)
    rule = system.kernel_rule
    theta = system.basis.nodes[:, None]
    eta = theta * (rule.nodes ** (1.0 / lam) if lam != 1.0 else rule.nodes)
    samples = k2(theta, eta) * singular_ratio(rule.nodes, lam, tp.mu) / lam
    assert np.array_equal(system.D, fracbasis.basis_quadrature(system.basis, eta, rule.weights * samples))


def test_assemble_makes_two_basis_quadrature_passes(monkeypatch):
    # two passes cold (C and D~ stacked, then E); a second problem at the
    # same discretization reuses E and makes one
    calls = []
    quadrature = collocate.basis_quadrature

    def counted(*args):
        calls.append(args)
        return quadrature(*args)

    monkeypatch.setattr(collocate, "basis_quadrature", counted)
    collocate.antiderivative_matrix.cache_clear()
    for n, lam in ((0, 1.0), (8, 0.5), (40, 0.3)):
        calls.clear()
        assemble(transform(builtin("ex1")), n, lam)
        assert len(calls) == 2
        calls.clear()
        assemble(transform(builtin("ex2")), n, lam)
        assert len(calls) == 1


def _direct_antiderivative(n, lam):
    """E by one basis_quadrature call with the formula assemble used before
    E was memoised."""
    basis = fracbasis.build_basis(n, -0.5, -0.5, lam)
    rule = frac_gauss_jacobi(n + 1, 0.0, 1.0 / lam - 1.0, 1.0)
    sh = rule.nodes ** (1.0 / lam) if lam != 1.0 else rule.nodes
    col = basis.nodes[:, None]
    return fracbasis.basis_quadrature(basis, col * sh, (col / lam) * rule.weights)


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
def test_problems_at_one_discretization_share_one_read_only_E(lam):
    first = assemble(transform(builtin("ex1")), 24, lam)
    second = assemble(transform(builtin("ex2")), 24, lam)
    assert second.E is first.E
    assert np.array_equal(first.E, _direct_antiderivative(24, lam))
    with pytest.raises(ValueError, match="read-only"):
        first.E[0, 0] = 1.0
    # H is formed afresh for each problem from the shared E
    assert not np.shares_memory(first.H, first.E)
    assert np.array_equal(second.H, second.tp.eps * (first.E @ fracbasis.basis_matrix(
        first.basis, second.tp.eps * first.basis.nodes)))


def test_assemble_rejects_underflowed_node():
    # lam = 0.01 maps the smallest node to theta = 0, where p1 = T t^-1 p(t)
    # would be 0/0; the node is rejected before any coefficient is sampled
    with pytest.raises(ValueError, match=r"lam = 0.01 is too small for n = 48: the smallest "
                                         r"collocation node .* underflows to 0"):
        assemble(transform(builtin("ex1")), 48, 0.01)


def test_assemble_names_non_finite_kernel():
    k1 = lambda theta, eta: np.where(theta > 0.5, np.nan, 1.0) + 0.0 * eta
    tp = make_tp(k1=k1)
    nodes = fracbasis.build_basis(6, -0.5, -0.5, 1.0).nodes
    first = int(np.argmax(nodes > 0.5))
    with pytest.raises(ValueError, match=rf"coefficient K1 is not finite at collocation node {first} "):
        assemble(tp, 6, 1.0)


@pytest.mark.parametrize("name, scalar_only, arrays", [
    ("p", dict(p1=lambda theta: math.sin(theta)), dict(p1=np.sin)),
    ("K1", dict(k1=lambda theta, eta: math.sin(theta * eta)),
     dict(k1=lambda theta, eta: np.sin(theta * eta))),
    ("p", dict(p1=lambda theta: theta if theta > 0 else 0.0),
     dict(p1=lambda theta: np.where(theta > 0, theta, 0.0))),
])
def test_assemble_names_a_coefficient_that_cannot_take_arrays(name, scalar_only, arrays):
    # math.sin raises TypeError on an array, and the truth test of an array
    # a plain ValueError; numpy.vectorize adapts both
    with pytest.raises(ValueError, match=rf"^coefficient {name} must take numpy arrays"):
        assemble(make_tp(**scalar_only), 6, 0.5)
    adapted = assemble(make_tp(**{key: np.vectorize(f) for key, f in scalar_only.items()}), 6, 0.5)
    want = assemble(make_tp(**arrays), 6, 0.5)
    for got, ref in ((adapted.P, want.P), (adapted.C, want.C)):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-15)


def test_a_solution_serves_as_a_kernel():
    # evaluate takes the (N+1, m) kernel points as they come, with the bits
    # of one call on the flattened points
    sol = solve(assemble(transform(builtin("ex1")), 12, 0.5))
    seen = []
    k_grid = lambda theta, eta: seen.append(eta.shape) or sol.evaluate(eta) * theta
    k_flat = lambda theta, eta: sol.evaluate(eta.ravel()).reshape(eta.shape) * theta
    got, want = assemble(make_tp(k1=k_grid), 9, 0.5), assemble(make_tp(k1=k_flat), 9, 0.5)
    assert seen == [(10, 10)]
    assert np.array_equal(got.C, want.C)


def test_config_domain_error_keeps_its_type_and_message():
    spec = parse_problem_config("mu = 1/2\ngamma = 1\neps = 0.5\nT = 1\ny0 = 0\n"
                                "p = ln(t - 0.5)\nq = t\ng = t\n")
    with pytest.raises(exprlang.ExprEvalError, match=r"^coefficient p at collocation node 0 "
                       r"\(theta = [0-9.e-]+\): ln of non-positive value -0\.4"):
        assemble(transform(spec), 6, 0.5)


@pytest.mark.parametrize("name, line, T, node, text", [
    ("g", "1/(t-0.5)", 1, 4, "division by zero"),
    ("p", "exp(t)", 1000, 6, "exp produced a non-finite result"),
    ("K1", "(s-0.5)^0.5", 1, 0, "negative base -0.4997942105383590"),
])
def test_config_domain_error_names_its_coefficient_and_node(name, line, T, node, text):
    # the node is the first where the coefficient's own evaluation raises
    # the error; its theta and the original text follow
    keys = {"mu": "1/2", "gamma": "1", "eps": "0.5", "T": T, "y0": "0", "p": "t", "q": "t",
            "g": "t", name: line}
    spec = parse_problem_config("".join(f"{key} = {value}\n" for key, value in keys.items()))
    nodes = fracbasis.build_basis(8, -0.5, -0.5, 1.0).nodes
    with pytest.raises(exprlang.ExprEvalError) as info:
        assemble(transform(spec), 8, 1.0)
    prefix = f"coefficient {name} at collocation node {node} (theta = {nodes[node]:.17g}): "
    assert str(info.value).startswith(prefix + text)


# the quarter-power problem of perfbench/workloads.py, with its seed-7 constants
QUARTER_POWER = """
mu = 1/4
gamma = 1
eps = 0.7536
T = 1
y0 = 0
p = 0.9295*cos(t)*t^2
q = 0.8603*t^2
K1 = exp(-1.0604*t*s)
K2 = 1 + 0.8290*tau^2
exact = t^(5/4)*exp(-t)
exact_prime = exp(-t)*(5/4*t^(1/4) - t^(5/4))
"""


def test_config_without_kernels_has_zero_kernel_matrices():
    text = "\n".join(line for line in QUARTER_POWER.splitlines() if not line.startswith("K"))
    spec = parse_problem_config(text)
    t, s = np.full((3, 1), 0.5), np.linspace(0.0, 1.0, 4)
    assert spec.K1(t, s).shape == (3, 4) and spec.K2(t, s).shape == (3, 4)
    system = assemble(transform(spec), 8, 0.25)
    assert np.array_equal(system.C, np.zeros((9, 9)))
    assert np.array_equal(system.D, np.zeros((9, 9)))


def test_config_assembly_calls_each_expression_a_bounded_number_of_times(monkeypatch):
    compile_function = exprlang.compile_function

    def counting(source, variables, constants=None):
        fn = compile_function(source, variables, constants)

        def counted(*values):
            calls[source] = calls.get(source, 0) + 1
            return fn(*values)

        return counted

    monkeypatch.setattr(exprlang, "compile_function", counting)
    counts = []
    for n in (4, 16):
        calls = {}
        tp = transform(parse_problem_config(QUARTER_POWER))
        assemble(tp, n, 0.25)
        counts.append(calls)
    # one array call per sampling site: independent of N
    assert counts[0] == counts[1]
    assert len(counts[0]) == 6 and max(counts[0].values()) <= 4

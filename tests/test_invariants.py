"""Seeded randomised invariants of the collocation system.

Twenty cases draw admissible (mu, gamma, eps), lam in [0.25, 1] and N <= 40
from one fixed numpy generator, so a failing case reproduces by its index.
Eight more, from a second generator, also draw the interval length T.
"""

import numpy as np
import pytest

from fracvide.collocate import assemble, solve
from fracvide.problem import ProblemSpec, TransformedProblem, transform
from fracvide.specfun import beta
from oracle_assembly import assemble_rowwise


def _draw_cases(count, seed=20261019):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        mu = rng.uniform(0.0, 0.9)
        gamma = rng.uniform(max(1.0 - mu, 0.05), 2.5)     # mu + gamma >= 1
        cases.append(dict(mu=float(mu), gamma=float(gamma), eps=float(rng.uniform(0.05, 1.0)),
                          lam=float(rng.uniform(0.25, 1.0)), n=int(rng.integers(0, 41)),
                          coef=rng.uniform(-1.0, 1.0, 8)))
    return cases


CASES = _draw_cases(20)


def _problem(case, y0=0.0, p1=None, q1=None, g1=None, k1=None, k2=None):
    a = case["coef"]
    return TransformedProblem(
        mu=case["mu"], gamma=case["gamma"], eps=case["eps"], T=1.0, y0=y0,
        p1=p1 or (lambda theta: a[0] * theta), q1=q1 or (lambda theta: a[1] + 0.0 * theta),
        g1=g1 or (lambda theta: np.cos(a[2] * theta)),
        kbar1=k1 or (lambda theta, eta: np.exp(a[3] * theta * eta) + a[4] * eta),
        kbar2=k2 or (lambda theta, u: a[5] + np.sin(a[6] * theta + u)),
        name="random")


def _max_rel_diff(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


@pytest.mark.parametrize("index", range(len(CASES)))
def test_delayed_matrices_match_rowwise_oracle(index):
    case = CASES[index]
    tp = _problem(case)
    system = assemble(tp, case["n"], case["lam"])
    _, D, _, H = assemble_rowwise(tp, case["n"], case["lam"])
    assert _max_rel_diff(system.D, D) <= 1e-14
    assert _max_rel_diff(system.H, H) <= 1e-14


@pytest.mark.parametrize("index", range(len(CASES)))
def test_antiderivative_row_sums(index):
    case = CASES[index]
    system = assemble(_problem(case), case["n"], case["lam"])
    theta = system.basis.nodes
    assert np.max(np.abs(system.E @ np.ones(case["n"] + 1) - theta)) <= 1e-12
    assert np.max(np.abs(system.H @ np.ones(case["n"] + 1) - case["eps"] * theta)) <= 1e-12


def _flattened_kernel(lam, mu, scale, c0, c1):
    """scale * kbar(theta, scale * x * theta) times the singular ratio is
    c0 + c1 * xi with xi = x**lam, a polynomial the kernel rule integrates
    exactly; the kernel cancels the ratio ((1 - x)/(1 - x**lam))**-mu."""
    def kbar(theta, eta):
        x = eta / (scale * theta)
        # 1 - x**lam by expm1: the subtraction cancels as x -> 1
        log_ratio = np.log1p(-x) - np.log(-np.expm1(lam * np.log(x)))
        return np.exp(mu * log_ratio) * (c0 + c1 * x ** lam)

    return kbar


@pytest.mark.parametrize("index", range(len(CASES)))
def test_constant_solution_is_a_fixed_point(index):
    # y = y0 solves the problem when g1 cancels p1, q1 and both kernel
    # integrals of the constant; those integrals are Beta values that the
    # (N+1)-point kernel rule reproduces exactly, so u* = 0 and u = v = y0
    case = CASES[index]
    mu, lam, eps, a = case["mu"], case["lam"], case["eps"], case["coef"]
    y0 = 1.0 + a[7]
    b = (mu + case["gamma"]) / lam
    integral = lambda c0, c1: (c0 * beta(1.0 - mu, b) + c1 * beta(1.0 - mu, b + 1.0)) / lam
    kernels = integral(a[3], a[4]) + integral(a[5], a[6])
    tp = _problem(case, y0=y0,
                  g1=lambda theta: -y0 * (a[0] * theta + a[1] + kernels),
                  k1=_flattened_kernel(lam, mu, 1.0, a[3], a[4]),
                  k2=_flattened_kernel(lam, mu, eps, a[5], a[6]))
    sol = solve(assemble(tp, case["n"], lam))
    assert np.max(np.abs(sol.u_star)) <= 1e-12 * max(1.0, abs(y0 * kernels))
    assert np.max(np.abs(sol.u - y0)) <= 1e-12
    assert np.max(np.abs(sol.v - y0)) <= 1e-12


def _draw_scaled_cases(count, seed=20261020):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        mu = rng.uniform(0.0, 0.9)
        gamma = rng.uniform(max(1.0 - mu, 0.05), 2.5)
        cases.append(dict(mu=float(mu), gamma=float(gamma), eps=float(rng.uniform(0.05, 1.0)),
                          T=float(rng.uniform(0.2, 4.0)), lam=float(rng.uniform(0.25, 1.0)),
                          n=int(rng.integers(2, 25)), coef=rng.uniform(-1.0, 1.0, 8)))
    return cases


SCALED_CASES = _draw_scaled_cases(8)


def _scaled_pair(case):
    """A problem on [0, T] and its twin rescaled by hand to [0, 1].

    With tau = t/T and Y(tau) = y(T tau), the twin has p2(tau) =
    T^(1-gamma) p(T tau) (likewise q and g) and K2(tau, sigma) =
    T K(T tau, T sigma). The exact solution y is a stand-in, not the
    solution of either problem: only its mapping by transform is compared,
    and the twin's derivative is T y'(T tau)."""
    T, gam, a = case["T"], case["gamma"], case["coef"]
    p = lambda t: a[0] * t ** gam * np.cos(t)
    q = lambda t: a[1] * t ** gam
    g = lambda t: t ** gam * np.sin(1.0 + a[2] * t)
    # kernels of size 1/T, so that the transformed kernels T K stay of size 1
    k1 = lambda t, s: (np.exp(a[3] * (t - s) / T) + a[4] * s / T) / T
    k2 = lambda t, u: (a[5] + np.cos(a[6] * t + u)) / T
    y = lambda t: np.exp(a[7] * t / T)
    yp = lambda t: a[7] / T * np.exp(a[7] * t / T)
    common = dict(mu=case["mu"], gamma=gam, eps=case["eps"], y0=1.0 + a[7], name="scaled")
    spec = ProblemSpec(T=T, p=p, q=q, g=g, K1=k1, K2=k2, exact=y, exact_prime=yp, **common)
    scale = T ** (1.0 - gam)
    twin = ProblemSpec(
        T=1.0, p=lambda tau: scale * p(T * tau), q=lambda tau: scale * q(T * tau),
        g=lambda tau: scale * g(T * tau),
        K1=lambda tau, sigma: T * k1(T * tau, T * sigma),
        K2=lambda tau, sigma: T * k2(T * tau, T * sigma),
        exact=lambda tau: y(T * tau), exact_prime=lambda tau: T * yp(T * tau), **common)
    return spec, twin


@pytest.mark.parametrize("index", range(len(SCALED_CASES)))
def test_transform_scales_time_like_the_hand_rescaled_twin(index):
    case = SCALED_CASES[index]
    spec, twin = _scaled_pair(case)
    tp, tp_twin = transform(spec), transform(twin)
    sol = solve(assemble(tp, case["n"], case["lam"]))
    sol_twin = solve(assemble(tp_twin, case["n"], case["lam"]))
    for got, want in ((sol.u, sol_twin.u), (sol.u_star, sol_twin.u_star), (sol.v, sol_twin.v)):
        assert _max_rel_diff(got, want) <= 1e-13
    theta = sol.system.basis.nodes
    assert _max_rel_diff(tp.phi(theta), tp_twin.phi(theta)) <= 1e-15
    assert _max_rel_diff(tp.phi_prime(theta), tp_twin.phi_prime(theta)) <= 1e-15
    # to_physical maps t in [0, T] to the twin at t / T
    t = np.linspace(0.0, case["T"], 37)
    assert _max_rel_diff(sol.to_physical(t), sol_twin.evaluate(t / case["T"])) <= 1e-13

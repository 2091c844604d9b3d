import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi

from fracvide.specfun import (
    CHEBYSHEV_MIN_POINTS,
    QuadratureRule,
    beta,
    frac_gauss_jacobi,
    gauss_jacobi,
)
from oracle_specfun import jacobi_eval, ln_gamma


def closed_form_jacobi(n, alpha, beta_, x):
    """Factorial/Gamma closed form; test oracle only.

    J_n(x) = Gamma(n+a+1)/(n! Gamma(n+a+b+1))
             * sum_k C(n,k) Gamma(n+k+a+b+1)/Gamma(k+a+1) ((x-1)/2)^k

    Evaluated in 40-digit arithmetic: in doubles the alternating sum
    cancels catastrophically, which is why production code never uses it.
    Degenerate at n = 0 when a+b = -1 (Gamma poles), so callers skip n = 0.
    """
    mp.mp.dps = 40
    a, b, xm = mp.mpf(alpha), mp.mpf(beta_), mp.mpf(x)
    total = mp.mpf(0)
    for k in range(n + 1):
        total += mp.binomial(n, k) * mp.gamma(n + k + a + b + 1) / mp.gamma(k + a + 1) * ((xm - 1) / 2) ** k
    return float(mp.gamma(n + a + 1) / (mp.factorial(n) * mp.gamma(n + a + b + 1)) * total)


def test_ln_gamma_values():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-13)
    assert ln_gamma(7.0) == pytest.approx(math.log(720.0), abs=1e-13)


def test_ln_gamma_accuracy_sweep():
    # compare against math.gamma where it does not overflow
    for x in np.linspace(0.05, 170.0, 200):
        assert ln_gamma(float(x)) == pytest.approx(math.log(math.gamma(x)), abs=1e-12)


def test_ln_gamma_domain():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.5)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    assert beta(0.5, 1.5) == pytest.approx(math.pi / 2.0, rel=1e-13)


def test_beta_domain():
    with pytest.raises(ValueError):
        beta(0.0, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, -0.5)


def test_jacobi_degree_zero_and_one():
    for alpha, beta_, x in [(-0.5, -0.5, 0.3), (0.2, -0.4, -0.9), (1.5, 2.0, 1.0)]:
        v, d = jacobi_eval(0, alpha, beta_, x)
        assert v == 1.0 and d == 0.0
    v, d = jacobi_eval(1, -0.5, -0.5, 0.3)
    assert v == pytest.approx(0.15, abs=1e-15)
    assert d == pytest.approx(0.5, abs=1e-15)


def test_jacobi_endpoint_identity():
    # J_n(1) = Gamma(n+a+1) / (n! Gamma(a+1))
    n, alpha, beta_ = 3, 0.2, -0.4
    v, _ = jacobi_eval(n, alpha, beta_, 1.0)
    expected = math.exp(ln_gamma(n + alpha + 1) - ln_gamma(alpha + 1)) / math.factorial(n)
    assert v == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("alpha,beta_", [(-0.5, -0.5), (0.0, 0.0), (-0.5, 2.0), (1.3, -0.7)])
def test_jacobi_recurrence_matches_closed_form(alpha, beta_):
    for n in range(1, 9):
        for x in np.linspace(-1.0, 1.0, 11):
            v, _ = jacobi_eval(n, alpha, beta_, float(x))
            assert v == pytest.approx(closed_form_jacobi(n, alpha, beta_, float(x)), abs=1e-12)


def test_jacobi_derivative_finite_difference():
    h = 1e-6
    for n, alpha, beta_ in [(3, -0.5, -0.5), (7, 0.3, 1.2), (12, -0.9, 0.0)]:
        for x in np.linspace(-0.99, 0.99, 9):
            _, d = jacobi_eval(n, alpha, beta_, float(x))
            vp, _ = jacobi_eval(n, alpha, beta_, float(x) + h)
            vm, _ = jacobi_eval(n, alpha, beta_, float(x) - h)
            assert d == pytest.approx((vp - vm) / (2 * h), abs=1e-6)


def test_jacobi_eval_vectorized():
    x = np.linspace(-1, 1, 7)
    v, d = jacobi_eval(5, -0.5, 1.0, x)
    for i, xi in enumerate(x):
        vi, di = jacobi_eval(5, -0.5, 1.0, float(xi))
        assert v[i] == pytest.approx(vi, rel=1e-15, abs=1e-15)
        assert d[i] == pytest.approx(di, rel=1e-15, abs=1e-15)


def test_gauss_jacobi_midpoint():
    nodes, weights = gauss_jacobi(1, 0.0, 0.0)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, rel=1e-15)


def test_gauss_jacobi_two_point_legendre():
    # solving the four moment equations for a symmetric 2-point rule gives
    # 2w = 2 and 2w x^2 = 2/3, hence x = 1/sqrt(3), w = 1
    nodes, weights = gauss_jacobi(2, 0.0, 0.0)
    assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert weights == pytest.approx([1.0, 1.0], rel=1e-14)


@pytest.mark.parametrize("alpha,beta_", [(-0.5, 2.0), (0.3, -0.2)])
def test_gauss_jacobi_one_point_moments(alpha, beta_):
    # zeroth and first moment equations pin the 1-point rule
    nodes, weights = gauss_jacobi(1, alpha, beta_)
    assert nodes[0] == pytest.approx((beta_ - alpha) / (alpha + beta_ + 2), rel=1e-14)
    assert weights[0] == pytest.approx(2 ** (alpha + beta_ + 1) * beta(alpha + 1, beta_ + 1), rel=1e-13)


def test_gauss_jacobi_nodes_are_jacobi_zeros():
    for n, alpha, beta_ in [(5, -0.5, -0.5), (12, 0.0, 1.5), (20, -0.9, -0.3)]:
        nodes, _ = gauss_jacobi(n, alpha, beta_)
        v, d = jacobi_eval(n, alpha, beta_, nodes)
        # |J_n(x_j)| should be tiny relative to the local derivative scale
        assert np.all(np.abs(v) <= 1e-12 * np.abs(d))


def test_gauss_jacobi_against_scipy():
    for n, alpha, beta_ in [(4, -0.5, -0.5), (16, -0.5, 2.0), (33, 0.0, 2.0), (40, -1 / 3, 3.0),
                             (800, -0.5, -0.5)]:
        nodes, weights = gauss_jacobi(n, alpha, beta_)
        ref_nodes, ref_weights = roots_jacobi(n, alpha, beta_)
        assert nodes == pytest.approx(ref_nodes, abs=1e-13)
        assert weights == pytest.approx(ref_weights, rel=1e-11)


@pytest.mark.parametrize("n", [1, 2, 64, 800, 1028, 3200])
def test_chebyshev_rule_nodes_against_scipy(n):
    nodes, _ = gauss_jacobi(n, -0.5, -0.5)
    assert nodes == pytest.approx(roots_jacobi(n, -0.5, -0.5)[0], abs=1e-15)


@pytest.mark.parametrize("n", [CHEBYSHEV_MIN_POINTS, 200, 257, 1028, 3200])
def test_chebyshev_rule_is_closed_form(n):
    nodes, weights = gauss_jacobi(n, -0.5, -0.5)
    assert np.max(np.abs(weights / (math.pi / n) - 1.0)) <= 1e-15
    assert np.array_equal(nodes, -nodes[::-1]) and np.all(np.diff(nodes) > 0)
    rule = frac_gauss_jacobi(n, -0.5, -0.5, 0.5)
    assert np.max(np.abs(rule.weights / (math.pi / n) - 1.0)) <= 1e-15


def test_default_rule_builds_in_little_memory():
    # the closed-form 1028-point rule (N = 256) peaked at 34 KB under
    # tracemalloc; the dense eigh it replaced took 16.9 MB. The bound leaves
    # a margin of about three times the measured peak
    tracemalloc.start()
    try:
        frac_gauss_jacobi.__wrapped__(1028, -0.5, -0.5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000


def test_gauss_jacobi_symmetry():
    for n in (3, 8, 21):
        nodes, weights = gauss_jacobi(n, -0.5, -0.5)
        assert np.max(np.abs(nodes + nodes[::-1])) <= 1e-13
        assert weights == pytest.approx(weights[::-1], rel=1e-12)


def test_gauss_jacobi_interlacing():
    for alpha, beta_ in [(-0.5, -0.5), (-0.5, 2.0), (0.0, 1.0)]:
        prev, _ = gauss_jacobi(1, alpha, beta_)
        for n in range(2, 41):
            cur, _ = gauss_jacobi(n, alpha, beta_)
            assert np.all(np.diff(cur) > 0)
            # zeros of J_n and J_{n+1} interlace
            assert np.all(cur[:-1] < prev) and np.all(prev < cur[1:])
            prev = cur


def test_frac_rule_lambda_one_single_point():
    rule = frac_gauss_jacobi(1, 0.0, 0.0, 1.0)
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_frac_rule_weight_sum_legendre(n):
    rule = frac_gauss_jacobi(n, 0.0, 0.0, 1.0)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("alpha,beta_,lam", [(-0.5, -0.5, 1.0), (-0.5, 3.0, 0.5), (0.0, 2.0, 1 / 3)])
def test_frac_rule_weight_sum_is_beta(alpha, beta_, lam):
    rule = frac_gauss_jacobi(12, alpha, beta_, lam)
    assert rule.weights.sum() == pytest.approx(beta(alpha + 1, beta_ + 1), rel=1e-12)


def test_frac_rule_second_moment_example():
    # substitution z = theta^lam reduces the k-th moment to B(alpha+1, beta+k+1)
    rule = frac_gauss_jacobi(8, -0.5, 3.0, 0.5)
    moment = np.sum(rule.weights * rule.nodes ** (2 * rule.lam))
    assert moment == pytest.approx(beta(0.5, 6.0), rel=1e-13)


def test_frac_rule_invariants():
    for alpha, beta_, lam in [(-0.5, 2.0, 0.5), (-1 / 3, 3.0, 1 / 3), (0.0, 1.0, 0.5)]:
        rule = frac_gauss_jacobi(15, alpha, beta_, lam)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))
        assert np.all(rule.weights > 0)


@pytest.mark.parametrize("alpha,beta_,lam", [
    (-0.5, -0.5, 1.0),
    (-0.5, 2.0, 0.5),
    (-1 / 3, 3.0, 1 / 3),
    (0.0, 1.0, 0.5),
    (0.0, 2.0, 1 / 3),
])
def test_frac_rule_moment_exactness(alpha, beta_, lam):
    # moments of the fractional weight reduce to Beta integrals
    for n in (1, 2, 3, 5, 9, 14, 25, 40):
        rule = frac_gauss_jacobi(n, alpha, beta_, lam)
        z = rule.nodes ** lam
        for k in range(0, 2 * n, max(1, (2 * n - 1) // 7)):
            exact = beta(alpha + 1, beta_ + k + 1)
            approx = float(np.sum(rule.weights * z ** k))
            assert abs(approx - exact) <= 1e-12 * exact


def test_frac_rule_rejects_bad_lambda():
    with pytest.raises(ValueError):
        frac_gauss_jacobi(4, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        frac_gauss_jacobi(4, 0.0, 0.0, 1.5)


def test_frac_rule_is_dataclass_record():
    rule = frac_gauss_jacobi(3, -0.5, 0.0, 0.5)
    assert isinstance(rule, QuadratureRule)
    assert rule.n_points == 3 and rule.lam == 0.5
    assert len(rule.nodes) == len(rule.weights) == 3


def test_frac_rule_is_cached_and_read_only():
    rule = frac_gauss_jacobi(12, -0.5, 0.25, 0.5)
    assert frac_gauss_jacobi(12, -0.5, 0.25, 0.5) is rule
    for arr in (rule.nodes, rule.weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0

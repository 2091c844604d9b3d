"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance and runtime budget.

Identity-style criteria use tight tolerances; benchmark-table reproduction
uses order-of-magnitude tolerances (x100) because the published tables
depend on an unstated collocation weight choice.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import quad

from fracvide.analysis import error_report, self_reference, sweep
from fracvide.collocate import assemble, solve
from fracvide.fracbasis import basis_matrix, build_basis, lebesgue_constant
from fracvide.problem import builtin, transform
from fracvide.specfun import beta, frac_gauss_jacobi
import oracle_exprlang
from oracle_fracbasis import eval_basis
from test_exprlang import GOLDEN, _random_expr
from test_problem import equation_residual
from twin_classical import classical_solve

from fracvide import exprlang


class budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, f"runtime {self.elapsed:.2f}s over budget"


def done(k, name):
    print(f"criterion {k:2d} ({name}): PASS")


def test_criterion_01_quadrature_exactness():
    combos = [(-0.5, -0.5, 1.0), (-0.5, 1.0, 0.5), (-1.0 / 3.0, (1.0 / 3.0 + 1.0) / (1.0 / 3.0) - 1.0, 1.0 / 3.0),
              (0.0, 1.0, 0.5), (0.0, 2.0, 1.0 / 3.0)]
    with budget(5.0):
        for alpha, beta_, lam in combos:
            for n in range(1, 41):
                rule = frac_gauss_jacobi(n, alpha, beta_, lam)
                z = rule.nodes ** lam
                k = np.arange(0, 2 * n)
                moments = (rule.weights[None, :] * z[None, :] ** k[:, None]).sum(axis=1)
                exact = np.array([beta(alpha + 1, beta_ + kk + 1) for kk in k])
                assert np.max(np.abs(moments - exact) / exact) <= 1e-12, (alpha, beta_, lam, n)
    done(1, "quadrature exactness")


def test_criterion_02_basis_identities():
    with budget(2.0):
        for lam in (1.0, 0.5, 1.0 / 3.0):
            for n in range(0, 33):
                b = build_basis(n, -0.5, -0.5, lam)
                mat = basis_matrix(b, b.nodes)
                assert np.max(np.abs(mat - np.eye(n + 1))) <= 1e-10
                grid = np.linspace(0.0, 1.0, 101)
                sums = basis_matrix(b, grid).sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) <= 1e-10
    done(2, "basis identities")


def test_criterion_03_antiderivative_identity():
    tp = transform(builtin("ex1"))
    with budget(10.0):
        for lam in (1.0, 0.5):
            for n in range(0, 11):
                system = assemble(tp, n, lam)
                theta = system.basis.nodes
                for i in range(n + 1):
                    for j in range(n + 1):
                        f = lambda eta: eval_basis(system.basis, j, eta)
                        want_e, _ = quad(f, 0.0, theta[i], epsabs=1e-12, epsrel=1e-12, limit=200)
                        want_h, _ = quad(f, 0.0, tp.eps * theta[i], epsabs=1e-12, epsrel=1e-12, limit=200)
                        assert abs(system.E[i, j] - want_e) <= 1e-10
                        assert abs(system.H[i, j] - want_h) <= 1e-10
    done(3, "antiderivative identity")


def test_criterion_04_manufactured_residual():
    rng = np.random.default_rng(2024)
    with budget(5.0):
        for name in ("ex1", "ex2", "ex3"):
            spec = builtin(name)
            for t in rng.uniform(1e-4, spec.T, 50):
                residual, scale = equation_residual(spec, float(t), n_quad=320)
                assert abs(residual) <= 1e-10 * scale, (name, t)
    done(4, "manufactured residual")


def test_criterion_05_benchmark_table_ex1():
    tp = transform(builtin("ex1"))
    with budget(1.0):
        reports = {}
        for n in (4, 6, 8, 10, 12):
            sol = solve(assemble(tp, n, 0.5, -0.5, -0.5))
            reports[n] = error_report(sol, tp.phi, tp.phi_prime)
        assert reports[12].linf_e <= 8.2e-10
        assert reports[12].l2_estar <= 2.6e-9
        assert reports[4].linf_e >= 10.0 * reports[8].linf_e
        assert reports[4].l2_e >= 10.0 * reports[8].l2_e
    done(5, "benchmark table ex1")


def test_criterion_06_convergence_dichotomy():
    with budget(2.0):
        frac = sweep(builtin("ex1"), 0.5, [4, 6, 8, 10, 12])
        poly = sweep(builtin("ex1"), 1.0, range(4, 21, 2))
        assert frac.rate_class == "exponential"
        assert poly.rate_class == "algebraic"
        last = poly.rows[-1]
        assert last.n == 20 and 1e-5 <= last.l2_e <= 1e-2
    done(6, "exponential vs algebraic dichotomy")


def test_criterion_07_benchmark_table_ex2():
    tp = transform(builtin("ex2"))
    with budget(1.0):
        sol = solve(assemble(tp, 13, 1.0 / 3.0))
        rep = error_report(sol, tp.phi, tp.phi_prime)
        assert rep.l2_e <= 2.9e-6
    done(7, "benchmark table ex2")


def test_criterion_08_benchmark_table_ex3():
    tp = transform(builtin("ex3"))
    with budget(1.0):
        sol = solve(assemble(tp, 17, 0.5))
        rep = error_report(sol, tp.phi, tp.phi_prime)
        assert rep.l2_e <= 1.7e-6
    done(8, "benchmark table ex3")


def test_criterion_09_self_reference_pipeline():
    with budget(5.0):
        ex4 = builtin("ex4")
        ref4 = self_reference(ex4, 0.5, 18)
        res4 = sweep(ex4, 0.5, [5, 7, 10, 12, 14], reference=ref4)
        by_n = {r.n: r for r in res4.rows}
        assert by_n[14].l2_e <= 1.3e-5
        assert res4.rate_class == "exponential"

        ex5 = builtin("ex5")
        ref5 = self_reference(ex5, 0.5, 18)
        res5_frac = sweep(ex5, 0.5, [5, 8, 10, 13, 15], reference=ref5)
        res5_poly = sweep(ex5, 1.0, [5, 7, 9, 11, 13, 15], reference=ref5)
        assert res5_frac.rate_class == "exponential"
        assert res5_poly.rate_class == "algebraic"
    done(9, "self-reference pipeline")


def test_criterion_10_lambda_one_reduction():
    tp = transform(builtin("ex1"))
    with budget(1.0):
        sol = solve(assemble(tp, 8, 1.0))
        _, u_star, _, _ = classical_solve(tp, 8)
        assert np.max(np.abs(sol.u_star - u_star)) <= 1e-12
    done(10, "lambda=1 reduction")


def test_criterion_11_lebesgue_diagnostic():
    with budget(2.0):
        for n in (4, 8, 16, 32, 64):
            b = build_basis(n, -0.5, -0.5, 1.0)
            lam_n = lebesgue_constant(b, max(2000, 10 * (n + 1)))
            assert lam_n / math.log(n) <= 3.0
    done(11, "Lebesgue constant growth")


def test_criterion_12_parser_suite():
    with budget(1.0):
        assert len(GOLDEN) >= 20
        for source, bindings, expected in GOLDEN:
            assert exprlang.evaluate(exprlang.parse(source), bindings) == pytest.approx(expected, rel=1e-14)
        rng = random.Random(99)
        bindings = {"t": 0.42, "s": 0.17, "mu": 0.5, "gamma": 1.0, "eps": 0.66, "T": 0.5}
        for _ in range(250):
            expr = _random_expr(rng, rng.randint(1, 6))
            printed = oracle_exprlang.to_source(expr)
            assert exprlang.parse(printed) == expr
            try:
                first = exprlang.evaluate(expr, bindings)
            except exprlang.ExprEvalError:
                continue
            assert exprlang.evaluate(exprlang.parse(printed), bindings) == first
    done(12, "expression parser suite")

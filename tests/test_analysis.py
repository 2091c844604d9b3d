import math
import tracemalloc

import numpy as np
import pytest

import fracvide.analysis as analysis
import fracvide.fracbasis as fracbasis
from fracvide.analysis import (
    ErrorReport,
    SweepResult,
    classify_decay,
    emit_table,
    error_report,
    self_reference,
    sweep,
    sweep_filename,
)
from fracvide.collocate import assemble, solve
from fracvide.fracbasis import sup_norm, weighted_l2_norm
from fracvide.problem import builtin, transform


def test_error_report_zero_for_self_comparison():
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 6, 0.5))
    rep = error_report(sol, sol.evaluate, sol.evaluate_derivative)
    assert rep.l2_e == 0.0 and rep.linf_e == 0.0
    assert rep.l2_estar == 0.0 and rep.linf_estar == 0.0


def test_error_report_nonnegative_and_benchmark_bounds():
    tp = transform(builtin("ex1"))
    rep4 = error_report(solve(assemble(tp, 4, 0.5)), tp.phi, tp.phi_prime)
    rep12 = error_report(solve(assemble(tp, 12, 0.5)), tp.phi, tp.phi_prime)
    for rep in (rep4, rep12):
        assert min(rep.l2_e, rep.linf_e, rep.l2_estar, rep.linf_estar) >= 0.0
    # benchmark magnitudes, relaxed x100 for the unstated collocation weights
    assert rep4.linf_e <= 1.47322e-02 * 100
    assert rep12.l2_estar <= 2.52306e-11 * 100
    assert rep12.linf_e < rep4.linf_e


def test_error_report_sup_norm_symmetry():
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 5, 0.5))
    a = error_report(sol, tp.phi, tp.phi_prime)
    # swap: measure the interpolant against the exact by negating the roles
    grid = np.linspace(0.0, 1.0, 1000)
    fwd = max(abs(tp.phi(float(t)) - sol.evaluate(float(t))) for t in grid)
    rev = max(abs(sol.evaluate(float(t)) - tp.phi(float(t))) for t in grid)
    assert fwd == rev
    assert a.linf_e >= fwd  # report grid also contains the nodes


def test_classify_decay_synthetic():
    ns = np.arange(4, 21, 2)
    label, rate = classify_decay(ns, 10.0 * 0.5 ** ns)
    assert label == "exponential"
    assert rate == pytest.approx(math.log(0.5), rel=1e-10)
    label, rate = classify_decay(ns, 3.0 * ns ** -3.0)
    assert label == "algebraic"
    assert rate == pytest.approx(-3.0, rel=1e-10)


def test_classify_decay_degenerate():
    assert classify_decay([4, 6], [1e-2, 1e-3])[0] == "inconclusive"
    assert classify_decay([8], [1e-2])[0] == "inconclusive"
    noise = [1e-13, 2e-13, 5e-14, 8e-14, 1e-13]
    assert classify_decay([4, 6, 8, 10, 12], noise)[0] == "inconclusive"


def test_sweep_exponential_for_matched_lambda():
    res = sweep(builtin("ex1"), 0.5, [4, 6, 8, 10, 12])
    assert res.rate_class == "exponential"
    assert res.fitted_rate < 0
    assert [r.n for r in res.rows] == [4, 6, 8, 10, 12]
    assert res.problem == "ex1" and res.lam == 0.5


def test_sweep_algebraic_for_unit_lambda():
    res = sweep(builtin("ex1"), 1.0, range(4, 21, 2))
    assert res.rate_class == "algebraic"
    # benchmark: error magnitude about 1e-3.5 at N = 20
    last = res.rows[-1]
    assert last.n == 20
    assert 1e-5 <= last.l2_e <= 1e-2


def test_sweep_requires_ascending_grid():
    with pytest.raises(ValueError):
        sweep(builtin("ex1"), 0.5, [8, 6, 4])


def test_sweep_single_degree_inconclusive():
    res = sweep(builtin("ex1"), 0.5, [8])
    assert res.rate_class == "inconclusive"
    assert math.isnan(res.fitted_rate)


def test_sweep_constant_problem_inconclusive():
    from fracvide.problem import ProblemSpec, manufactured_g
    import dataclasses

    spec = ProblemSpec(
        mu=0.5, gamma=1.0, eps=0.5, T=1.0, y0=2.0,
        p=lambda t: 0.0, q=lambda t: 0.0, g=None,
        K1=lambda t, s: 0.0, K2=lambda t, s: 0.0,
        exact=lambda t: 2.0, exact_prime=lambda t: 0.0,
        name="const")
    spec = dataclasses.replace(spec, g=manufactured_g(spec))
    res = sweep(spec, 0.5, [4, 6, 8, 10, 12])
    assert all(r.l2_e <= 1e-11 and r.linf_e <= 1e-11 for r in res.rows)
    assert res.rate_class == "inconclusive"


def test_sweep_needs_truth_source():
    with pytest.raises(ValueError):
        sweep(builtin("ex4"), 0.5, [4, 6, 8, 10])


def test_sweep_marks_failures_and_continues(monkeypatch):
    real_solve = analysis.solve

    def flaky(system):
        if system.n == 6:
            raise RuntimeError("injected failure")
        return real_solve(system)

    monkeypatch.setattr(analysis, "solve", flaky)
    res = sweep(builtin("ex1"), 0.5, [4, 6, 8, 10, 12])
    assert [r.n for r in res.rows] == [4, 8, 10, 12]
    assert res.failures == ((6, "injected failure"),)


def test_self_reference_zero_against_itself():
    spec = builtin("ex4")
    ref = self_reference(spec, 0.5, 12)
    sol = solve(assemble(transform(spec), 12, 0.5))
    rep = error_report(sol, ref.phi, ref.phi_prime)
    assert rep.linf_e <= 1e-13 and rep.linf_estar <= 1e-12


def test_self_reference_gap_enforced():
    spec = builtin("ex4")
    ref = self_reference(spec, 0.5, 12)
    with pytest.raises(ValueError):
        sweep(spec, 0.5, [4, 6, 10], reference=ref)
    res = sweep(spec, 0.5, [4, 6, 9], reference=ref)
    assert len(res.rows) == 3


def test_self_reference_benchmark_error():
    spec = builtin("ex4")
    ref = self_reference(spec, 0.5, 18)
    res = sweep(spec, 0.5, [5, 7, 10, 12, 14], reference=ref)
    by_n = {r.n: r for r in res.rows}
    assert by_n[14].l2_e <= 1.20788e-07 * 100
    assert res.rate_class == "exponential"


def test_self_reference_stability():
    # the surrogate barely moves between n_ref = 18 and 20
    spec = builtin("ex4")
    r18 = self_reference(spec, 0.5, 18)
    r20 = self_reference(spec, 0.5, 20)
    grid = np.linspace(0.0, 1.0, 400)
    diff = max(abs(r18.phi(float(t)) - r20.phi(float(t))) for t in grid)
    assert diff <= 1e-9


@pytest.mark.parametrize("name", ["ex4", "ex5"])
def test_self_reference_no_adjacent_contamination(name):
    # solutions one and two below n_ref keep a sane error ordering
    spec = builtin(name)
    tp = transform(spec)
    ref = self_reference(spec, 0.5, 18)
    e_prev = error_report(solve(assemble(tp, 16, 0.5)), ref.phi, ref.phi_prime)
    e_last = error_report(solve(assemble(tp, 17, 0.5)), ref.phi, ref.phi_prime)
    assert e_last.l2_e <= 10.0 * e_prev.l2_e


def _toy_result():
    rows = (
        ErrorReport(n=4, lam=0.5, l2_e=1.24718e-02, linf_e=1.47322e-02,
                    l2_estar=4.57408e-02, linf_estar=5.32377e-02),
        ErrorReport(n=6, lam=0.5, l2_e=1.35898e-04, linf_e=1.78065e-04,
                    l2_estar=4.69971e-04, linf_estar=5.07685e-04),
    )
    return SweepResult(problem="toy", lam=0.5, rows=rows,
                       rate_class="inconclusive", fitted_rate=math.nan)


def test_emit_table_csv_golden():
    text = emit_table(_toy_result(), "csv")
    assert text == (
        "N,L2_e,Linf_e,L2_estar,Linf_estar\n"
        "4,1.24718e-02,1.47322e-02,4.57408e-02,5.32377e-02\n"
        "6,1.35898e-04,1.78065e-04,4.69971e-04,5.07685e-04\n"
    )


def test_emit_table_single_row():
    res = SweepResult(problem="toy", lam=0.5, rows=_toy_result().rows[:1],
                      rate_class="inconclusive", fitted_rate=math.nan)
    text = emit_table(res, "csv")
    assert text.count("\n") == 2


def test_emit_table_text_layout():
    text = emit_table(_toy_result(), "text")
    lines = text.strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("N")
    assert lines[1].startswith("L2_e") and "1.24718e-02" in lines[1]
    assert lines[4].startswith("Linf_estar")


def test_emit_table_bad_arguments():
    with pytest.raises(ValueError):
        emit_table(_toy_result(), "")
    with pytest.raises(ValueError):
        emit_table(_toy_result(), "xml")
    with pytest.raises(ValueError, match="unknown format 'aligned-text'"):
        emit_table(_toy_result(), "aligned-text")
    empty = SweepResult(problem="toy", lam=0.5, rows=(),
                        rate_class="inconclusive", fitted_rate=math.nan)
    with pytest.raises(ValueError):
        emit_table(empty, "csv")


def test_sweep_filename():
    assert sweep_filename(_toy_result()) == "toy_0.5_sweep.csv"


def test_default_error_rule_grows_with_n():
    # a fixed 200-point rule read L2_estar here as 1.36e-5; a 3200-point rule gives 1.84e-4
    tp = transform(builtin("ex1"))
    rep = error_report(solve(assemble(tp, 192, 1.0)), tp.phi, tp.phi_prime)
    assert 1.84e-4 / 1.5 <= rep.l2_estar <= 1.84e-4 * 1.5
    assert analysis.default_quad_points(49) == 200
    assert analysis.default_quad_points(192) == 772


def _old_error_report(sol, phi, phi_prime, alpha_c, beta_c, quad_points):
    """The four figures by the closures error_report used before it shared
    one basis matrix between e and e*."""
    grid = analysis.default_error_grid(sol.system.basis)
    e = lambda th: phi(th) - sol.evaluate(th)
    estar = lambda th: phi_prime(th) - sol.evaluate_derivative(th)
    return (weighted_l2_norm(e, alpha_c, beta_c, 1.0, quad_points), sup_norm(e, grid),
            weighted_l2_norm(estar, alpha_c, beta_c, 1.0, quad_points), sup_norm(estar, grid))


@pytest.mark.parametrize("name, n, lam, alpha_c, beta_c, quad_points", [
    ("ex1", 12, 0.5, -0.5, -0.5, None),
    ("ex1", 40, 1.0, -0.5, -0.5, 300),
    ("ex2", 9, 1.0, -0.5, -0.5, None),
    ("ex2", 16, 0.3, 0.0, 0.0, None),
    ("ex3", 20, 0.5, -0.5, -0.5, None),
    ("ex3", 7, 0.25, 0.5, -0.5, 57),
    ("ex4", 8, 0.5, -0.5, -0.5, None),
])
def test_error_report_matches_old_closures_bit_for_bit(name, n, lam, alpha_c, beta_c, quad_points):
    spec = builtin(name)
    tp = transform(spec)
    sol = solve(assemble(tp, n, lam, alpha_c, beta_c))
    if name == "ex4":
        ref = self_reference(spec, 0.5, 18)
        phi, phi_prime = ref.phi, ref.phi_prime
    else:
        phi, phi_prime = tp.phi, tp.phi_prime
    rep = error_report(sol, phi, phi_prime, quad_points)
    m = analysis.default_quad_points(n) if quad_points is None else quad_points
    want = _old_error_report(sol, phi, phi_prime, alpha_c, beta_c, m)
    assert (rep.l2_e, rep.linf_e, rep.l2_estar, rep.linf_estar) == want


def test_error_report_evaluates_the_basis_once_per_point_set(monkeypatch):
    # one basis matrix on the error rule's nodes and one on the grid serve
    # both e and e*; both go through fracbasis.basis_matrix
    tp = transform(builtin("ex2"))
    sol = solve(assemble(tp, 14, 0.5))
    calls = []
    matrix = fracbasis.basis_matrix
    monkeypatch.setattr(fracbasis, "basis_matrix",
                        lambda basis, points: calls.append(np.size(points)) or matrix(basis, points))
    error_report(sol, tp.phi, tp.phi_prime)
    grid = analysis.default_error_grid(sol.system.basis)
    assert calls == [analysis.default_quad_points(14), grid.size]


def test_error_report_peak_memory():
    # ex1 at N = 256 with an 800-point rule peaked at 3.24 MB under
    # tracemalloc: the basis matrix on the 1257-point grid (2.6 MB) and one
    # 512 KB block of its products with the two stacked interpolants. The
    # whole-array formulas took 7.87 MB. The bound leaves a 14% margin; the
    # rule and a first report, which imports numpy.ma, come before the
    # measurement
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 256, 1.0))
    error_report(sol, tp.phi, tp.phi_prime, 800)
    tracemalloc.start()
    try:
        error_report(sol, tp.phi, tp.phi_prime, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.7e6


@pytest.mark.parametrize("name", ["ex4", "ex5"])
def test_self_reference_shares_one_basis_evaluation(name, monkeypatch):
    # phi and phi_prime are sol.evaluate and sol.evaluate_derivative bit for
    # bit, from one basis matrix per point set
    spec = builtin(name)
    ref = self_reference(spec, 0.5, 18)
    sol = solve(assemble(transform(spec), 18, 0.5))
    calls = []
    matrix = fracbasis.basis_matrix
    monkeypatch.setattr(fracbasis, "basis_matrix",
                        lambda basis, points: calls.append(np.size(points)) or matrix(basis, points))
    nodes = sol.system.basis.nodes
    points = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 37), nodes[::3]])
    for theta in (points, nodes, points):
        phi, phi_prime = ref.phi(theta), ref.phi_prime(theta)
        assert phi.tobytes() == sol.evaluate(theta).tobytes()
        assert phi_prime.tobytes() == sol.evaluate_derivative(theta).tobytes()
    # each switch of point set evaluates the reference basis once; the
    # evaluate calls above add one each
    assert calls == [points.size] * 3 + [nodes.size] * 3 + [points.size] * 3
    with pytest.raises(ValueError):
        ref.phi(points)[0] = 1.0
    for t in (0.0, 1.0, 0.3, float(nodes[5]), 1e-9):
        assert ref.phi(t) == sol.evaluate(t) and isinstance(ref.phi(t), float)
        assert ref.phi_prime(t) == sol.evaluate_derivative(t)
    # an error report against the reference: one basis matrix for the
    # reference and one for the solution on each point set
    calls.clear()
    low = solve(assemble(transform(spec), 10, 0.5))
    error_report(low, ref.phi, ref.phi_prime)
    grid = analysis.default_error_grid(low.system.basis)
    assert calls == [analysis.default_quad_points(10)] * 2 + [grid.size] * 2

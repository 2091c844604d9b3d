import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fracvide.analysis as analysis
import fracvide.fracbasis as fracbasis
from fracvide.analysis import (
    ErrorReport,
    ReferenceSolution,
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
from fracvide.problem import builtin, parse_problem_config, transform

# the quarter-power problem of perfbench/workloads.py, with its seed-0 constants
QUARTER_POWER = """
mu = 1/4
gamma = 1
eps = 0.7511
T = 1
y0 = 0
p = 1.1378*cos(t)*t^2
q = 1.1032*t^2
K1 = exp(-0.9682*t*s)
K2 = 1 + 0.9036*tau^2
exact = t^(5/4)*exp(-t)
exact_prime = exp(-t)*(5/4*t^(1/4) - t^(5/4))
"""


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


def test_classify_decay_fit_matches_an_svd_least_squares_fit():
    # the closed-form line against np.polyfit, on noisy exponential and
    # algebraic sequences at random degrees
    rng = np.random.default_rng(4)
    for _ in range(40):
        ns = np.sort(rng.choice(np.arange(2, 60), 8, replace=False))
        noise = 0.02 * rng.normal(size=8)
        for label, x, rate in (("exponential", ns, -0.7), ("algebraic", np.log(ns), -2.5)):
            log_err = rate * x + noise
            got = classify_decay(ns, np.exp(log_err))
            assert got[0] == label
            assert got[1] == pytest.approx(np.polyfit(x, log_err, 1)[0], rel=1e-12)


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
    one basis matrix between e and e*, on the uniform grid joined with the
    collocation nodes."""
    grid = np.union1d(np.linspace(0.0, 1.0, 1000), sol.system.basis.nodes)
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


def _count_interpolations(monkeypatch):
    """(basis, number of points) of each interpolation in analysis."""
    calls = []
    interpolate = analysis.interpolate

    def counting(basis, values, theta):
        calls.append((basis, np.size(theta)))
        return interpolate(basis, values, theta)

    monkeypatch.setattr(analysis, "interpolate", counting)
    return calls


def test_error_report_evaluates_the_basis_once_per_point_set(monkeypatch):
    # one array of barycentric terms on the error rule's nodes and one on
    # the error grid serve both e and e*; both come from fracbasis._bary_terms.
    # On the collocation nodes the interpolants are u and u*, so no terms
    # are formed there
    tp = transform(builtin("ex2"))
    sol = solve(assemble(tp, 14, 0.5))
    calls = []
    terms = fracbasis._bary_terms
    monkeypatch.setattr(fracbasis, "_bary_terms",
                        lambda basis, points: calls.append(np.size(points)) or terms(basis, points))
    error_report(sol, tp.phi, tp.phi_prime)
    assert calls == [analysis.default_quad_points(14), fracbasis.ERROR_GRID.size]
    # a sweep over k degrees evaluates the solutions' bases 2k times
    interpolations = _count_interpolations(monkeypatch)
    ns = [4, 8, 14]
    sweep(builtin("ex2"), 0.5, ns)
    assert [(basis.n, size) for basis, size in interpolations] == [
        (n, size) for n in ns for size in (200, fracbasis.ERROR_GRID.size)]


def test_no_node_search_away_from_the_nodes(monkeypatch):
    # assembly's points and the error rule and grid lie near no node, so
    # fracbasis._node_hits is never called; a point set with nodes in it
    # is searched and still gets their Kronecker rows
    tp = transform(builtin("ex1"))
    assemble(tp, 10, 0.5)        # warm: the rules, the basis and E are kept
    calls = []
    hits = fracbasis._node_hits
    monkeypatch.setattr(fracbasis, "_node_hits",
                        lambda basis, z: calls.append(np.size(z)) or hits(basis, z))
    sol = solve(assemble(tp, 10, 0.5))
    error_report(sol, tp.phi, tp.phi_prime)
    assert calls == []
    b = sol.system.basis
    rows = fracbasis.basis_matrix(b, np.array([0.3, b.nodes[2], b.nodes[7]]))
    assert calls == [3]
    assert rows[1:].tolist() == np.eye(11)[[2, 7]].tolist()


def test_error_report_peak_memory():
    # ex1 at N = 256 with an 800-point rule peaks at 2.80 MB under
    # tracemalloc: the barycentric terms on the 1257-point grid (2.6 MB),
    # contracted without a product array. A basis matrix with 512 KB blocks
    # of its products took 3.24 MB, and the whole-array formulas 7.87 MB.
    # The bound leaves a 14% margin; the rule and a first report, which
    # imports numpy.ma, come before the measurement
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 256, 1.0))
    error_report(sol, tp.phi, tp.phi_prime, 800)
    tracemalloc.start()
    try:
        error_report(sol, tp.phi, tp.phi_prime, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2e6


@pytest.mark.parametrize("name", ["ex4", "ex5"])
def test_self_reference_shares_one_basis_evaluation(name, monkeypatch):
    # phi and phi_prime are sol.evaluate and sol.evaluate_derivative, so a
    # plain reference evaluates its basis on each call; a sweep shares one
    # evaluation of each per point set between its reports (assembly's
    # basis matrix forms barycentric terms too, so every solve comes first)
    spec = builtin(name)
    ref = self_reference(spec, 0.5, 18)
    sol = solve(assemble(transform(spec), 18, 0.5))
    ref_basis = sol.system.basis
    calls = []
    terms = fracbasis._bary_terms
    monkeypatch.setattr(fracbasis, "_bary_terms", lambda basis, points: (
        basis is ref_basis and calls.append(np.size(points))) or terms(basis, points))
    nodes = ref_basis.nodes
    points = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 37), nodes[::3]])
    for theta in (points, nodes, points):
        assert ref.phi(theta).tobytes() == sol.evaluate(theta).tobytes()
        assert ref.phi_prime(theta).tobytes() == sol.evaluate_derivative(theta).tobytes()
    # ref.phi, sol.evaluate, ref.phi_prime and sol.evaluate_derivative: four
    # evaluations on every call's points, the repeated set included
    assert calls == [points.size] * 4 + [nodes.size] * 4 + [points.size] * 4
    for t in (0.0, 1.0, 0.3, float(nodes[5]), 1e-9):
        assert ref.phi(t) == sol.evaluate(t) and isinstance(ref.phi(t), float)
        assert ref.phi_prime(t) == sol.evaluate_derivative(t)
    # a sweep evaluates phi and phi' once on each distinct point set: the
    # rule that every degree shares and the grid at the first degree, and
    # each degree's nodes; and the solutions' bases 2k times, on the rule
    # and the grid
    calls.clear()
    interpolations = _count_interpolations(monkeypatch)
    ns = [5, 8, 10, 12, 15]
    sweep(spec, 0.5, ns, reference=ref)
    grid = fracbasis.ERROR_GRID.size
    assert calls == [size for size in [200, grid] + [n + 1 for n in ns] for _ in range(2)]
    assert [(basis.n, size) for basis, size in interpolations] == [
        (n, size) for n in ns for size in (200, grid)]


def test_a_sweep_evaluates_an_exact_truth_once_per_point_set_on_a_shared_rule():
    # N = 4..12 share the 200-point rule, so after the first degree only the
    # nodes are new
    calls = []

    def counting(f, which):
        return lambda t: calls.append((which, np.size(t))) or f(t)

    spec = builtin("ex1")
    spec = replace(spec, exact=counting(spec.exact, "phi"),
                   exact_prime=counting(spec.exact_prime, "phi'"))
    ns = [4, 8, 12]
    sweep(spec, 0.5, ns)
    sizes = [200, fracbasis.ERROR_GRID.size] + [n + 1 for n in ns]
    assert calls == [(which, size) for size in sizes for which in ("phi", "phi'")]


def test_a_sweep_gives_its_reports_read_only_truth_values(monkeypatch):
    # every report of a sweep gets the same two lookups, whose values are
    # kept per point set, found by value, and cannot be written
    captured = []
    report = analysis.error_report

    def capturing(sol, phi, phi_prime, quad_points=None):
        captured.append((phi, phi_prime))
        return report(sol, phi, phi_prime, quad_points)

    monkeypatch.setattr(analysis, "error_report", capturing)
    grid = fracbasis.ERROR_GRID
    ex1, ex4 = builtin("ex1"), builtin("ex4")
    ref = self_reference(ex4, 0.5, 18)
    tp = transform(ex1)
    for spec, reference, truth in ((ex1, None, (tp.phi, tp.phi_prime)),
                                   (ex4, ref, (ref.phi, ref.phi_prime))):
        captured.clear()
        sweep(spec, 0.5, [4, 6, 8], reference=reference)
        assert len(captured) == 3 and len(set(captured)) == 1
        for lookup, f in zip(captured[0], truth):
            values = lookup(grid)
            assert values.tobytes() == f(grid).tobytes()
            assert lookup(grid.copy()) is values
            with pytest.raises(ValueError):
                values[0] = 1.0


def test_a_sweep_evaluates_the_truth_once_per_point_set_when_each_degree_has_its_own_rule():
    # from N = 50 up each degree has a rule of its own (4(N+1) > 200 points);
    # the kept rule and nodes of one degree give way to the next one's, and
    # the grid, which every degree visits, stays kept to the floors
    calls = []

    def counting(f, which):
        return lambda t: calls.append((which, np.size(t))) or f(t)

    spec = builtin("ex1")
    spec = replace(spec, exact=counting(spec.exact, "phi"),
                   exact_prime=counting(spec.exact_prime, "phi'"))
    ns = [49, 50, 51, 53]
    result = sweep(spec, 1.0, ns)
    assert [row.n for row in result.rows] == ns and result.floor_e > 0.0
    sizes = [analysis.default_quad_points(n) for n in ns]
    assert len(set(sizes)) == len(ns)
    grid = fracbasis.ERROR_GRID.size
    want = []
    for i, (n, m) in enumerate(zip(ns, sizes)):
        for size in [m] + [grid] * (i == 0) + [n + 1]:
            want += [("phi", size), ("phi'", size)]
    assert calls == want


def test_a_reference_evaluates_an_array_changed_in_place_afresh():
    # the kept point sets are found by value, so the same array object
    # holding new points gives the values there
    spec = builtin("ex4")
    ref = self_reference(spec, 0.5, 18)
    sol = solve(assemble(transform(spec), 18, 0.5))
    theta = np.linspace(0.0, 1.0, 11)
    before = ref.phi(theta).copy()
    ref.phi_prime(theta)
    theta[1:] **= 2
    assert ref.phi(theta).tobytes() == sol.evaluate(theta).tobytes()
    assert ref.phi_prime(theta).tobytes() == sol.evaluate_derivative(theta).tobytes()
    assert not np.array_equal(ref.phi(theta), before)


@pytest.mark.parametrize("name, lam, ns, quad_points", [
    ("ex1", 0.5, [4, 6, 8, 10, 12], None),
    ("ex1", 1.0, [40, 48, 52, 60], None),      # a rule of its own from N = 50 up
    ("ex2", 1 / 3, [2, 5, 10, 11, 13], None),
    ("ex2", 1.0, [6, 9], 57),
    ("ex3", 0.5, [7, 9, 10, 11, 13, 15, 17], None),
    ("ex4", 0.5, [5, 7, 10, 12, 13, 14, 15], None),
    ("ex5", 0.5, [5, 8, 10, 13, 15], None),
    ("quarter_power", 0.25, range(4, 17), None),
])
def test_sweep_rows_match_standalone_reports_bit_for_bit(name, lam, ns, quad_points):
    # a sweep evaluates the truth once per shared point set; each row is
    # still the report of its degree alone
    spec = parse_problem_config(QUARTER_POWER) if name == "quarter_power" else builtin(name)
    tp = transform(spec)
    reference = self_reference(spec, 0.5, 18) if name in ("ex4", "ex5") else None
    phi, phi_prime = (reference.phi, reference.phi_prime) if reference else (tp.phi, tp.phi_prime)
    result = sweep(spec, lam, ns, reference=reference, quad_points=quad_points)
    assert [row.n for row in result.rows] == list(ns)
    for row in result.rows:
        alone = error_report(solve(assemble(tp, row.n, lam)), phi, phi_prime, quad_points)
        assert row == alone


def test_a_nan_of_the_truth_reaches_the_sup_norms():
    # the sup norms join the grid and the nodes; a NaN of the truth on
    # either part reads NaN, as it did over their union
    tp = transform(builtin("ex1"))
    sol = solve(assemble(tp, 8, 0.5))
    for bad in (0.0, sol.system.basis.nodes[3]):
        def phi(theta, bad=bad):
            return np.where(theta == bad, np.nan, tp.phi(theta))

        def phi_prime(theta, bad=bad):
            return np.where(theta == bad, np.nan, tp.phi_prime(theta))

        reports = [error_report(sol, phi, phi_prime)]
        truth = ReferenceSolution(phi=phi, phi_prime=phi_prime, lam=0.5, n_ref=100)
        reports += sweep(builtin("ex1"), 0.5, [6, 8], reference=truth).rows[1:]
        for rep in reports:
            assert rep.n == 8
            assert math.isnan(rep.linf_e) and math.isnan(rep.linf_estar)
            assert math.isfinite(rep.l2_e) and math.isfinite(rep.l2_estar)

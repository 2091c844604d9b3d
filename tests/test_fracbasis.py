import math
import tracemalloc

import numpy as np
import pytest

import fracvide.fracbasis as fracbasis
import oracle_fracbasis
from fracvide.collocate import assemble
from fracvide.fracbasis import (
    basis_matrix,
    basis_quadrature,
    build_basis,
    default_error_grid,
    eval_basis,
    interpolate,
    lebesgue_constant,
    sample_values,
    sup_norm,
    weighted_l2_norm,
)
from fracvide.problem import builtin, transform


def test_degree_zero_basis_is_constant_one():
    b = build_basis(0, -0.5, -0.5, 0.5)
    assert len(b.nodes) == 1
    for theta in (0.0, 0.31, 1.0):
        assert eval_basis(b, 0, theta) == pytest.approx(1.0, abs=1e-15)


def test_lambda_one_z_equals_nodes():
    b = build_basis(4, -0.5, -0.5, 1.0)
    assert b.z_nodes == pytest.approx(b.nodes, abs=0)


def test_fractional_nodes_are_powers_of_classical():
    b1 = build_basis(4, -0.5, -0.5, 1.0)
    b2 = build_basis(4, -0.5, -0.5, 0.5)
    assert b2.nodes == pytest.approx(b1.nodes ** 2, rel=1e-14)


@pytest.mark.parametrize("lam", [1.0, 0.5, 1 / 3])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_kronecker_property(n, lam):
    b = build_basis(n, -0.5, -0.5, lam)
    mat = basis_matrix(b, b.nodes)
    assert np.max(np.abs(mat - np.eye(n + 1))) <= 1e-12


@pytest.mark.parametrize("lam", [1.0, 0.5, 1 / 3])
@pytest.mark.parametrize("n", [1, 4, 16, 32])
def test_partition_of_unity(n, lam):
    b = build_basis(n, -0.5, -0.5, lam)
    grid = np.linspace(0.0, 1.0, 211)
    sums = basis_matrix(b, grid).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-10


def test_partition_of_unity_single_point():
    b = build_basis(6, -0.5, -0.5, 0.5)
    total = sum(eval_basis(b, j, 0.37) for j in range(7))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_interpolate_reproduces_theta_lam():
    rng = np.random.default_rng(7)
    for n in (1, 3, 9):
        b = build_basis(n, -0.5, -0.5, 0.5)
        vals = b.nodes ** b.lam
        for theta in rng.uniform(0.0, 1.0, 20):
            assert interpolate(b, vals, float(theta)) == pytest.approx(theta ** b.lam, abs=1e-12)


def test_interpolate_constant():
    b = build_basis(5, -0.5, -0.5, 1 / 3)
    vals = np.full(6, 2.75)
    for theta in (0.0, 0.2, 0.9):
        assert interpolate(b, vals, theta) == pytest.approx(2.75, abs=1e-12)


def test_interpolate_quadratic_in_z():
    lam = 0.5
    p = lambda t: 3.0 - 2.0 * t ** lam + t ** (2 * lam)
    b = build_basis(2, -0.5, -0.5, lam)
    vals = np.array([p(t) for t in b.nodes])
    for theta in np.linspace(0.0, 1.0, 17):
        assert interpolate(b, vals, float(theta)) == pytest.approx(p(theta), abs=1e-13)


def test_interpolate_analytic_function_spectral():
    # interpolation of exp on 17 Gauss points is accurate to roundoff
    b = build_basis(16, -0.5, -0.5, 1.0)
    vals = np.exp(b.nodes)
    grid = np.linspace(0.0, 1.0, 2000)
    err = np.max(np.abs(basis_matrix(b, grid) @ vals - np.exp(grid)))
    assert err <= 1e-12


def test_interpolate_exact_on_lambda_polynomials():
    rng = np.random.default_rng(42)
    for lam in (1.0, 0.5, 1 / 3):
        for n in (1, 2, 5, 11, 32):
            b = build_basis(n, -0.5, -0.5, lam)
            coef = rng.uniform(-1.0, 1.0, n + 1)
            f = lambda t: np.polynomial.polynomial.polyval(t ** lam, coef)
            vals = f(b.nodes)
            grid = np.linspace(0.0, 1.0, 300)
            err = np.max(np.abs(basis_matrix(b, grid) @ vals - f(grid)))
            assert err <= 1e-11 * max(1.0, np.max(np.abs(coef)))


def test_interpolate_at_nodes_returns_values():
    b = build_basis(7, -0.5, -0.5, 0.5)
    vals = np.sin(3.0 * b.nodes)
    for j, t in enumerate(b.nodes):
        assert interpolate(b, vals, float(t)) == vals[j]


def test_interpolate_rejects_wrong_length():
    b = build_basis(3, -0.5, -0.5, 1.0)
    with pytest.raises(ValueError):
        interpolate(b, np.zeros(3), 0.5)
    with pytest.raises(ValueError):
        interpolate(b, np.zeros((2, 3)), np.array([0.5]))
    with pytest.raises(ValueError):
        interpolate(b, 1.0, 0.5)


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
def test_stacked_interpolation_matches_one_function_at_a_time(monkeypatch, lam):
    b = build_basis(17, -0.5, -0.5, lam)
    stack = np.stack([np.cos(3.0 * b.nodes), b.nodes ** 0.5, np.exp(-b.nodes)])
    grid = np.union1d(np.linspace(0.0, 1.0, 301), b.nodes)
    calls = []
    matrix = fracbasis.basis_matrix
    monkeypatch.setattr(fracbasis, "basis_matrix",
                        lambda *args: calls.append(1) or matrix(*args))
    together = interpolate(b, stack, grid)
    assert together.shape == (3, grid.size) and len(calls) == 1
    for k in range(3):
        assert np.array_equal(together[k], interpolate(b, stack[k], grid))
    twice = interpolate(b, np.stack([stack[:2], stack[1:]]), grid)
    assert np.array_equal(twice[1, 1], together[2])
    for t in (0.0, 0.37, float(b.nodes[4]), 1.0):
        at_t = interpolate(b, stack, t)
        assert at_t.shape == (3,)
        assert at_t.tolist() == [interpolate(b, row, t) for row in stack]


def test_lebesgue_degree_zero():
    b = build_basis(0, -0.5, -0.5, 1.0)
    assert lebesgue_constant(b, 50) == pytest.approx(1.0, abs=1e-15)


def test_lebesgue_log_growth_band():
    for n in (4, 8, 16, 32, 64):
        b = build_basis(n, -0.5, -0.5, 1.0)
        lam_n = lebesgue_constant(b, max(2000, 10 * (n + 1)))
        assert lam_n / math.log(n) <= 3.0
        assert lam_n >= 1.0


def test_lebesgue_positive_parameters_grow_faster():
    small = lebesgue_constant(build_basis(32, -0.5, -0.5, 1.0), 2000)
    large = lebesgue_constant(build_basis(32, 0.5, 0.5, 1.0), 2000)
    assert large > small


def test_lebesgue_grid_precondition():
    b = build_basis(8, -0.5, -0.5, 1.0)
    with pytest.raises(ValueError):
        lebesgue_constant(b, 50)


def test_weighted_l2_norm_zero():
    assert weighted_l2_norm(lambda t: 0.0, -0.5, -0.5, 1.0) == 0.0


def test_weighted_l2_norm_chebyshev_weight():
    # integral of (1-t)^-1/2 t^-1/2 over [0,1] is B(1/2,1/2) = pi
    val = weighted_l2_norm(lambda t: 1.0, -0.5, -0.5, 1.0)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_weighted_l2_norm_linear():
    val = weighted_l2_norm(lambda t: t, 0.0, 0.0, 1.0)
    assert val == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_weighted_l2_norm_saturation():
    f = lambda t: 1.0 - 3.0 * t + 0.5 * t ** 4
    a = weighted_l2_norm(f, -0.5, -0.5, 1.0, m_points=200)
    b = weighted_l2_norm(f, -0.5, -0.5, 1.0, m_points=400)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_sup_norm_zero():
    assert sup_norm(lambda t: 0.0) == 0.0


def test_sup_norm_parabola():
    assert sup_norm(lambda t: t * (1.0 - t)) == pytest.approx(0.25, abs=1e-6)


def test_sup_norm_dense_grid_bound():
    val = sup_norm(lambda t: np.sin(10.0 * t))
    assert 0.999 <= val <= 1.0


def test_sup_norm_empty_grid():
    with pytest.raises(ValueError):
        sup_norm(lambda t: t, grid=np.array([]))


def test_default_error_grid_contains_nodes():
    b = build_basis(5, -0.5, -0.5, 0.5)
    grid = default_error_grid(b)
    assert np.all(np.isin(b.nodes, grid))
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_basis_is_cached_and_read_only():
    b = build_basis(9, -0.5, -0.5, 0.5)
    assert build_basis(9, -0.5, -0.5, 0.5) is b
    for arr in (b.nodes, b.z_nodes, b.bary_weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
def test_scalar_and_array_evaluation_agree_bitwise(lam):
    b = build_basis(5, -0.5, -0.5, lam)
    values = np.cos(3.0 * b.nodes) + b.nodes ** 0.5
    grid = np.linspace(0.0, 1.0, 1000)
    at_once = interpolate(b, values, grid)
    one_by_one = np.array([interpolate(b, values, float(t)) for t in grid])
    assert np.array_equal(at_once, one_by_one)
    mat = basis_matrix(b, grid)
    for j in range(b.n + 1):
        assert np.array_equal(mat[:, j], [eval_basis(b, j, float(t)) for t in grid])
    # on the nodes both paths give the nodal values exactly
    assert np.array_equal(interpolate(b, values, b.nodes), values)
    assert [interpolate(b, values, float(t)) for t in b.nodes] == values.tolist()


def test_eval_basis_on_an_array_gives_one_value_per_point():
    b = build_basis(6, -0.5, -0.5, 0.5)
    points = np.array([0.1, 0.5, b.nodes[2], 1.0])
    got = eval_basis(b, 2, points)
    assert got.shape == (4,)
    assert np.array_equal(got, basis_matrix(b, points)[:, 2])
    assert got[2] == 1.0
    assert eval_basis(b, 2, points.reshape(2, 2)).shape == (2, 2)
    assert np.array_equal(eval_basis(b, 2, [[0.1]]), [[eval_basis(b, 2, 0.1)]])


def test_basis_quadrature_matches_basis_matrix():
    b = build_basis(7, -0.5, -0.5, 0.5)
    rng = np.random.default_rng(5)
    points = rng.uniform(0.0, 1.0, (4, 6))
    weights = rng.normal(size=(4, 6))
    want = np.stack([w @ basis_matrix(b, p) for p, w in zip(points, weights)])
    assert np.max(np.abs(basis_quadrature(b, points, weights) - want)) <= 1e-14


def test_basis_quadrature_node_hit_is_kronecker():
    b = build_basis(6, -0.5, -0.5, 0.5)
    got = basis_quadrature(b, b.nodes[[2]][:, None], np.ones((1, 1)))
    assert np.array_equal(got[0], np.eye(7)[2])
    # a node among other points adds its weight to its own column only
    points = np.array([[0.3, b.nodes[4], 0.8]])
    weights = np.array([[0.5, 2.0, -1.5]])
    want = 0.5 * basis_matrix(b, 0.3)[0] + 2.0 * np.eye(7)[4] - 1.5 * basis_matrix(b, 0.8)[0]
    assert np.max(np.abs(basis_quadrature(b, points, weights)[0] - want)) <= 1e-15


@pytest.mark.parametrize("work_entries", [None, 7, 100, 400])
def test_basis_quadrature_stacked_weights_match_one_call_per_set(monkeypatch, work_entries):
    # a work array smaller than one row gives blocks of one row
    if work_entries is not None:
        monkeypatch.setattr(fracbasis, "_WORK_ENTRIES", work_entries)
    rng = np.random.default_rng(11)
    for n, lam in ((6, 0.5), (18, 1.0), (25, 0.3)):
        b = build_basis(n, -0.5, -0.5, lam)
        points = rng.uniform(0.0, 1.0, (n + 1, n + 3))
        points[1, 2] = b.nodes[3]           # node hits among the points
        points[n, 0] = b.nodes[n]
        weights = rng.normal(size=(2, 3, n + 1, n + 3))
        got = basis_quadrature(b, points, weights)
        assert got.shape == (2, 3, n + 1, n + 1)
        for index in np.ndindex(2, 3):
            want = basis_quadrature(b, points, weights[index])
            assert np.max(np.abs(got[index] - want)) <= 1e-14 * np.max(np.abs(want))


def test_basis_quadrature_rejects_mismatched_shapes():
    b = build_basis(3, -0.5, -0.5, 1.0)
    with pytest.raises(ValueError):
        basis_quadrature(b, np.full((2, 3), 0.5), np.ones((2, 2)))
    with pytest.raises(ValueError):
        basis_quadrature(b, np.full(3, 0.5), np.ones(3))
    with pytest.raises(ValueError):
        basis_quadrature(b, np.full((2, 3), 0.5), np.ones((2, 2, 2)))


# 7 rows of 5 points against 7 basis functions: 35 work entries a row
@pytest.mark.parametrize("work_entries", [35, 3 * 35])
def test_basis_quadrature_blocks_give_the_bits_of_one_block(monkeypatch, work_entries):
    # 35 entries give one-row blocks, 105 blocks of 3, 3 and 1 rows; row 4,
    # in a middle block either way, is the only one with node hits
    b = build_basis(6, -0.5, -0.5, 0.5)
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, (7, 5))
    points[4, 1] = b.nodes[2]
    points[4, 3] = b.nodes[6]
    weights = rng.normal(size=(2, 7, 5))
    whole = basis_quadrature(b, points, weights)    # one block of every row
    monkeypatch.setattr(fracbasis, "_WORK_ENTRIES", work_entries)
    blocked = basis_quadrature(b, points, weights)
    assert np.array_equal(blocked, whole)
    for w, got in zip(weights, blocked):
        assert np.array_equal(basis_quadrature(b, points, w), got)
        want = np.stack([wr @ basis_matrix(b, p) for p, wr in zip(points, w)])
        assert np.max(np.abs(got - want)) <= 1e-14


def test_warm_assembly_peak_memory():
    # a warm ex1 assemble at N = 256 peaked at 5.36 MB under tracemalloc
    # with 512 KB blocks (one row), and at 5.99 MB with 2 MB blocks (three
    # rows), the whole of a 2 MiB L2 cache; the bound keeps the block from
    # growing back
    tp = transform(builtin("ex1"))
    assemble(tp, 256, 1.0)
    tracemalloc.start()
    try:
        assemble(tp, 256, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.7e6


def test_small_lambda_basis_keeps_distinct_z_nodes():
    # theta_j = z_j**100 underflows to 0 for the smallest nodes; z_j must not
    b = build_basis(130, -0.5, -0.5, 0.01)
    assert np.all(np.diff(b.z_nodes) > 0)
    assert np.all(np.isfinite(b.bary_weights))
    grid = np.linspace(0.0, 1.0, 1500)
    assert np.max(np.abs(interpolate(b, np.ones(131), grid) - 1.0)) <= 1e-13


def test_sample_values_rejects_scalar_only_callables():
    # one call on the arrays: a scalar-only callable fails; numpy.vectorize adapts it
    pts = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    with pytest.raises(TypeError):
        sample_values(math.sin, pts)
    col = np.array([[0.5], [1.5], [2.5]])
    k = lambda t, s: math.exp(-t * s)
    with pytest.raises(TypeError):
        sample_values(k, col, pts)
    want = [[k(a, b) for b in row] for a, row in zip(col[:, 0], pts)]
    assert np.array_equal(sample_values(np.vectorize(k), col, pts), want)
    # a constant is broadcast to the points' shape, as a fresh array
    zeros = sample_values(lambda t: 0.0, pts)
    assert zeros.shape == (3, 4) and zeros.flags.writeable
    assert np.array_equal(sample_values(lambda t, s: 2.0, col, pts), np.full((3, 4), 2.0))


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("n", [0, 5, 40, 256])
def test_basis_matrix_and_interpolate_match_the_whole_array_oracle(lam, n):
    # the in-place basis matrix, and interpolation with it, keep every bit
    # of the whole-array formulas, node hits included
    b = build_basis(n, -0.5, -0.5, lam)
    rng = np.random.default_rng(n)
    points = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 300), b.nodes])
    rng.shuffle(points)
    assert np.array_equal(basis_matrix(b, points), oracle_fracbasis.basis_matrix(b, points))
    values = rng.normal(size=(2, 3, n + 1))
    for stack in (values[0, 0], values[0], values):
        want = oracle_fracbasis.interpolate(b, stack, points)
        assert interpolate(b, stack, points).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(2, 3), (2, 7), (3, 1, 4), (0,), (2, 0)])
def test_basis_matrix_and_interpolate_take_points_of_any_shape(shape):
    b = build_basis(6, -0.5, -0.5, 0.5)
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, shape)
    if points.size:
        points.flat[0] = b.nodes[2]
    flat = points.ravel()
    matrix = basis_matrix(b, points)
    assert matrix.shape == shape + (7,)
    assert np.array_equal(matrix, basis_matrix(b, flat).reshape(matrix.shape))
    values = rng.normal(size=(2, 7))
    got = interpolate(b, values, points)
    assert got.shape == (2,) + shape
    assert np.array_equal(got, interpolate(b, values, flat).reshape(got.shape))
    assert np.array_equal(interpolate(b, values[0], points), got[0])

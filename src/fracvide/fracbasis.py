"""Generalized Lagrange basis on fractional Jacobi-Gauss nodes.

The basis functions F_j are polynomials in z = theta**lam that satisfy
F_j(theta_i) = delta_ij on the mapped Gauss nodes theta_j. Evaluation uses
the second barycentric form in the z variable: O(N) per point, stable, and
exact at the nodes. Also provides the weighted L2 and grid sup norms used
as error metrics.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .specfun import frac_gauss_jacobi

# relative threshold on |z - z_j| for snapping to the Kronecker value
_NODE_HIT_RTOL = 1e-15
# float64 entries in the work array of basis_quadrature (2 MB), or one row if more
_WORK_ENTRIES = 1 << 18
# float64 entries in the products of one block of points in interpolate (512 KB)
_PRODUCT_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class FractionalBasis:
    """Nodes and barycentric data for the generalized Lagrange basis."""

    lam: float
    alpha: float
    beta: float
    nodes: np.ndarray        # collocation points theta_j, ascending in (0, 1)
    z_nodes: np.ndarray      # theta_j**lam
    bary_weights: np.ndarray

    @property
    def n(self):
        """Polynomial degree N (there are N+1 nodes)."""
        return len(self.nodes) - 1


@functools.lru_cache(maxsize=64)
def build_basis(n, alpha, beta, lam):
    """Basis of degree n on the zeros of the fractional Jacobi polynomial
    of degree n+1 with parameters (alpha, beta, lam).

    Bases are memoised on the arguments and shared between callers, so
    their arrays are read-only."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    rule = frac_gauss_jacobi(n + 1, alpha, beta, lam)
    # the lam = 1 rule's nodes are exactly z_j = theta_j**lam; the round trip
    # (z**(1/lam))**lam underflows to 0 for small lam and merges nodes
    z = frac_gauss_jacobi(n + 1, alpha, beta, 1.0).nodes
    # scale differences by the inverse capacity of [0, 1] so the products
    # stay O(1) for large n (the second form is invariant to uniform scaling)
    diff = 4.0 * (z[:, None] - z[None, :])
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    w.setflags(write=False)
    return FractionalBasis(lam=float(lam), alpha=float(alpha), beta=float(beta),
                           nodes=rule.nodes, z_nodes=z, bary_weights=w)


def basis_matrix(basis, thetas):
    """Evaluate all basis functions at the given points.

    thetas may have any shape, and a scalar counts as one point of shape
    (1,). The result has shape thetas.shape + (n+1,) and sums to 1 along
    its last axis. It is built in place: the differences z - z_j become
    the barycentric terms and then the basis values in one array.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    z = thetas ** basis.lam if basis.lam != 1.0 else thetas
    out = np.subtract.outer(z, basis.z_nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(basis.bary_weights, out, out=out)
        out /= np.sum(out, axis=-1, keepdims=True)
    node = _node_hits(basis, z)
    hits = np.nonzero(node >= 0)
    out[hits] = 0.0
    out[hits + (node[hits],)] = 1.0
    return out


def basis_quadrature(basis, points, weights):
    """Weighted sums of the basis functions over rows of points.

    points has shape (rows, m) and weights shape (..., rows, m): one or
    more weight sets over the same points. The result has shape
    (..., rows, n+1) with entry [..., r, j] = sum_k weights[..., r, k] *
    F_j(points[r, k]). The reciprocal differences 1/(z - z_j) are formed
    for blocks of whole rows in one work array of 2 MB, or of one row when
    a row's m * (n+1) entries need more; the barycentric denominators are
    their products with the barycentric weights, and each row is contracted
    with matmul, once per weight set, so a set gives the same bits stacked
    as alone. A point on a node (as in basis_matrix) adds its weight to
    that node's column alone.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.ndim != 2 or weights.shape[-2:] != points.shape:
        raise ValueError(f"points must be 2-d and weights end in their shape, got "
                         f"{points.shape} and {weights.shape}")
    rows, m = points.shape
    size = basis.n + 1
    sets = weights.reshape(-1, rows, m)
    z = points ** basis.lam if basis.lam != 1.0 else points
    node = _node_hits(basis, z)
    # z - z_j as the rank-2 product [z, 1] . [1, -z_j]: both products are
    # exact, so each entry is the one rounding of the subtraction, and
    # matmul writes the block several times faster than a broadcast subtract
    z1 = np.stack([z, np.ones_like(z)], axis=-1)
    minus_nodes = np.stack([np.ones(size), -basis.z_nodes])
    # blocks of whole rows, at least one row per block
    r_block = min(rows, max(1, _WORK_ENTRIES // (m * size)))
    work = np.empty(r_block * m * size)
    out = np.empty((len(sets), rows, size))
    for r0 in range(0, rows, r_block):
        r1 = min(rows, r0 + r_block)
        recip = work[:(r1 - r0) * m * size].reshape(r1 - r0, m, size)
        np.matmul(z1[r0:r1], minus_nodes, out=recip)
        hit = node[r0:r1] >= 0
        recip[hit] = 1.0            # a point on a node gets no reciprocals
        np.divide(1.0, recip, out=recip)
        recip[hit] = 0.0
        denom = recip @ basis.bary_weights
        denom[hit] = 1.0
        for w, o in zip(sets, out):
            coef = w[r0:r1] / denom
            o[r0:r1] = np.matmul(coef[:, None, :], recip)[:, 0, :]
    out *= basis.bary_weights
    r, k = np.nonzero(node >= 0)
    for w, o in zip(sets, out):
        np.add.at(o, (r, node[r, k]), w[r, k])
    return out.reshape(weights.shape[:-1] + (size,))


def _node_hits(basis, z):
    """Index of the node each z lies on (within _NODE_HIT_RTOL), else -1."""
    zn = basis.z_nodes
    above = np.minimum(np.searchsorted(zn, z), len(zn) - 1)
    below = np.maximum(above - 1, 0)
    tol = _NODE_HIT_RTOL * np.maximum(1.0, np.abs(zn))
    node = np.where(np.abs(z - zn[above]) <= tol[above], above, -1)
    return np.where(np.abs(z - zn[below]) <= tol[below], below, node)


def _basis_row(basis, theta):
    """All basis functions at one point, with basis_matrix's arithmetic."""
    z = np.power(theta, basis.lam) if basis.lam != 1.0 else theta
    diff = z - basis.z_nodes
    j = np.abs(diff).argmin()
    if abs(diff[j]) <= _NODE_HIT_RTOL * max(1.0, abs(basis.z_nodes[j])):
        row = np.zeros(len(diff))
        row[j] = 1.0
        return row
    terms = basis.bary_weights / diff
    return terms / terms.sum()


def eval_basis(basis, j, theta):
    """Value of the j-th basis function at theta (Kronecker on the nodes);
    scalar in, scalar out, and one value per point for an array."""
    if not 0 <= j <= basis.n:
        raise IndexError(f"basis index {j} out of range 0..{basis.n}")
    if np.ndim(theta) == 0:
        return float(_basis_row(basis, float(theta))[j])
    return basis_matrix(basis, theta)[..., j]


def interpolate(basis, values, theta):
    """Evaluate sum_j values[..., j] * F_j(theta); scalar in, scalar out.

    values holds the n+1 nodal values of one function, or of several
    stacked along leading axes; theta may have any shape. The result has
    shape values.shape[:-1] + theta.shape. The basis is evaluated once for
    all the functions, and its products with their values are formed for a
    block of points at a time, in at most _PRODUCT_ENTRIES entries. Each
    point's sum is formed on its own, so a point gives the same value bit
    for bit whether it is passed alone or in an array, and a function
    whether alone or stacked.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (basis.n + 1,):
        raise ValueError(f"expected {basis.n + 1} nodal values, got shape {values.shape}")
    if np.ndim(theta) == 0:
        out = (_basis_row(basis, float(theta)) * values).sum(axis=-1)
        return float(out) if values.ndim == 1 else out
    matrix = basis_matrix(basis, theta)
    rows = matrix.reshape(-1, basis.n + 1)
    out = np.empty(values.shape[:-1] + (len(rows),))
    step = max(1, _PRODUCT_ENTRIES // max(1, values.size))
    for r0 in range(0, len(rows), step):
        out[..., r0:r0 + step] = np.sum(rows[r0:r0 + step] * values[..., None, :], axis=-1)
    return out.reshape(values.shape[:-1] + matrix.shape[:-1])


def lebesgue_constant(basis, grid_size):
    """max over a uniform grid of sum_j |F_j(theta)|."""
    if grid_size < 10 * (basis.n + 1):
        raise ValueError("grid_size must be at least 10*(n+1)")
    grid = np.linspace(0.0, 1.0, grid_size)
    return float(np.max(np.sum(np.abs(basis_matrix(basis, grid)), axis=1)))


def sample_values(f, *points):
    """Evaluate f elementwise on the broadcast of the point arrays.

    f is called once with the arrays; a result of another shape, such as
    the constant of lambda t: 0.0, is broadcast to theirs.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    shape = np.broadcast_shapes(*(p.shape for p in points))
    out = np.asarray(f(*points), dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def weighted_l2_norm(f, alpha, beta, lam, m_points=200):
    """Weighted L2 norm of f on [0, 1] by an m_points fractional Gauss rule."""
    if m_points < 1:
        raise ValueError("m_points must be >= 1")
    rule = frac_gauss_jacobi(m_points, alpha, beta, lam)
    vals = sample_values(f, rule.nodes)
    return float(np.sqrt(np.sum(rule.weights * vals * vals)))


def sup_norm(f, grid=None):
    """max |f| over a finite grid (default: 1000 uniform points on [0, 1]).

    A grid approximation of the true sup; callers that know special points
    (e.g. collocation nodes) should include them in the grid.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 1000)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    return float(np.max(np.abs(sample_values(f, grid))))


def default_error_grid(basis, m=1000):
    """Uniform grid on [0, 1] joined with the collocation nodes."""
    return np.union1d(np.linspace(0.0, 1.0, m), basis.nodes)

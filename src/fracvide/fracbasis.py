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

# threshold on |z - z_j| for snapping to the Kronecker value (the z-nodes lie
# in (0, 1), so an absolute one)
_NODE_HIT_TOL = 1e-15
# the uniform points of every error report's sup norms, shared and read-only
ERROR_GRID = np.linspace(0.0, 1.0, 1000)
ERROR_GRID.flags.writeable = False
# float64 entries in the work array of basis_quadrature (512 KB, which leaves
# room in a 2 MiB L2 for the block's other operands), or one row if more
_WORK_ENTRIES = 1 << 16


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
    its last axis: the barycentric terms, each row divided in place by its
    sum. A point on a node gets that node's Kronecker row; the search for
    such points runs only when some point lies within 2 * _NODE_HIT_TOL
    of a node (_near_nodes).
    """
    out = _bary_terms(basis, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= np.sum(out, axis=-1, keepdims=True)
    return out


def _bary_terms(basis, thetas):
    """The barycentric terms w_j / (z - z_j) at z = theta**lam, shape
    thetas.shape + (n+1,) (a scalar counts as one point of shape (1,)).

    The differences become the terms in place. A point on a node gets the
    Kronecker row of that node instead, whose sum is 1. The second form is
    stable up to a node, so only such points need the fix-up, and the
    search for them (_node_hits) runs only when some point is near a node
    (_near_nodes); away from the nodes, as on the error grid and rules,
    it is skipped.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    z = thetas ** basis.lam if basis.lam != 1.0 else thetas
    # z - z_j as the rank-2 product [z, 1] . [1, -z_j], exact as in
    # basis_quadrature: on the 1000-point grid 12 us at N = 10 and 29 us
    # at N = 64, against 16 and 66 us by np.subtract.outer
    z1 = np.ones(z.shape + (2,))
    z1[..., 0] = z
    out = z1 @ np.stack([np.ones(basis.n + 1), -basis.z_nodes])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(basis.bary_weights, out, out=out)
    if _near_nodes(basis, z):
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
    for blocks of whole rows in one work array of 512 KB, small enough to
    stay in a 2 MiB L2 cache with the block's other operands, or of one
    row when a row's m * (n+1) entries need more (in assembly, where
    m = n+1, from n = 256 up). The barycentric denominators are their
    products with the barycentric weights, and one batched matmul per
    block contracts each row of each weight set as its own
    (1 x m) @ (m x (n+1)) product, so a set gives the same bits stacked as
    alone. A point on a node (as in basis_matrix) adds its weight to that
    node's column alone; the points are searched for such hits only when
    one lies near a node (_near_nodes), which assembly's points do not.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if points.ndim != 2 or weights.shape[-2:] != points.shape:
        raise ValueError(f"points must be 2-d and weights end in their shape, got "
                         f"{points.shape} and {weights.shape}")
    rows, m = points.shape
    size = basis.n + 1
    sets = weights.reshape(-1, rows, m)
    # skipping the power at lam = 1 keeps a warm N = 256 assembly at 5.4 MB peak, not 5.9 MB
    z = points ** basis.lam if basis.lam != 1.0 else points
    # assembly's points miss the nodes, and the guards then save 7-9% of a call at N = 64..256
    any_hit = False
    if _near_nodes(basis, z):
        node = _node_hits(basis, z)
        hits = node >= 0
        any_hit = hits.any()
    # blocks of whole rows, at least one row per block
    r_block = min(rows, max(1, _WORK_ENTRIES // (m * size)))
    # z - z_j as the rank-2 product [z, 1] . [1, -z_j]: both products are
    # exact, so each entry is the one rounding of the subtraction, and
    # matmul writes the block several times faster than a broadcast subtract
    z1 = np.ones((r_block, m, 2))
    minus_nodes = np.stack([np.ones(size), -basis.z_nodes])
    work = np.empty(r_block * m * size)
    coef = np.empty((len(sets), r_block, 1, m))
    out = np.empty((len(sets), rows, size))
    for r0 in range(0, rows, r_block):
        r1 = min(rows, r0 + r_block)
        nr = r1 - r0
        recip = work[:nr * m * size].reshape(nr, m, size)
        z1[:nr, :, 0] = z[r0:r1]
        np.matmul(z1[:nr], minus_nodes, out=recip)
        if any_hit:
            hit = hits[r0:r1]
            recip[hit] = 1.0        # a point on a node gets no reciprocals
        np.divide(1.0, recip, out=recip)
        # the denominator of a point on a node is replaced, so it may be
        # formed before that point's reciprocals are cleared
        denom = recip @ basis.bary_weights
        if any_hit:
            recip[hit] = 0.0
            denom[hit] = 1.0
        np.divide(sets[:, r0:r1], denom, out=coef[:, :nr, 0])
        np.matmul(coef[:, :nr], recip, out=out[:, r0:r1, None])
    out *= basis.bary_weights
    if any_hit:
        r, k = np.nonzero(hits)
        for w, o in zip(sets, out):
            np.add.at(o, (r, node[r, k]), w[r, k])
    return out.reshape(weights.shape[:-1] + (size,))


def _near_nodes(basis, z):
    """Whether some z lies within 2 * _NODE_HIT_TOL of a node.

    A conservative test for _node_hits: a z within tol = _NODE_HIT_TOL of
    a node lies strictly inside that node's window [z_j - 2 tol,
    z_j + 2 tol], whose rounded edges move by far less than tol, so False
    means that no z lies on a node. The windows are disjoint (the nodes lie
    far more than 4e-15 apart), so a z falls in one exactly when the number
    of window edges below it is odd: one searchsorted, 11 us on the
    1000-point grid at N = 10, where _node_hits takes 20 us. A NaN sorts
    last and is near no node, as _node_hits finds it on none.
    """
    edges = np.add.outer(basis.z_nodes, [-2.0 * _NODE_HIT_TOL, 2.0 * _NODE_HIT_TOL]).ravel()
    return bool((np.searchsorted(edges, z) & 1).any())


def _node_hits(basis, z):
    """Index of the node each z lies on (within _NODE_HIT_TOL), else -1."""
    zn = basis.z_nodes
    above = np.minimum(np.searchsorted(zn, z), len(zn) - 1)
    below = np.maximum(above - 1, 0)
    node = np.where(np.abs(z - zn[above]) <= _NODE_HIT_TOL, above, -1)
    return np.where(np.abs(z - zn[below]) <= _NODE_HIT_TOL, below, node)


def _bary_terms_row(basis, theta):
    """The barycentric terms at one point, with _bary_terms' arithmetic."""
    # 3 us a point against 19 us through _bary_terms (N = 10), for callers that go point by point
    z = np.power(theta, basis.lam) if basis.lam != 1.0 else theta
    diff = z - basis.z_nodes
    j = np.abs(diff).argmin()
    if abs(diff[j]) <= _NODE_HIT_TOL:
        row = np.zeros(len(diff))
        row[j] = 1.0
        return row
    return basis.bary_weights / diff


def interpolate(basis, values, theta):
    """Evaluate sum_j values[..., j] * F_j(theta); scalar in, scalar out.

    values holds the n+1 nodal values of one function, or of several
    stacked along leading axes; theta may have any shape. The result has
    shape values.shape[:-1] + theta.shape. By the second barycentric form,
    each value is sum_j t_j v_j / sum_j t_j with the terms
    t_j = w_j / (z - z_j), which are formed once for all the functions and
    never normalised into a basis matrix. One einsum contraction gives the
    numerators of every function and, from a row of ones, the denominator.
    It sums each point and function on its own, in an order that depends
    only on n, so a point gives the same value bit for bit whether it is
    passed alone or in an array, scalar or not, and a function whether
    alone or stacked. (A BLAS matmul would not: its blocking changes the
    order of the sums with the number of rows and columns.) A point on a
    node gives that node's value exactly.
    """
    values = np.asarray(values, dtype=float)
    size = basis.n + 1
    if values.shape[-1:] != (size,):
        raise ValueError(f"expected {basis.n + 1} nodal values, got shape {values.shape}")
    scalar = np.ndim(theta) == 0
    stacked = np.ones((values.size // size + 1, size))
    stacked[:-1] = values.reshape(-1, size)
    # the small result is allocated before the large terms, which are freed
    # on return: the other order fragments glibc's heap, and high_degree's
    # peak RSS read 2 MB higher
    sums = np.empty((len(stacked), np.size(theta)))
    terms = _bary_terms_row(basis, float(theta)) if scalar else _bary_terms(basis, theta)
    np.einsum("pj,fj->fp", terms.reshape(-1, size), stacked, out=sums)
    out = sums[:-1]
    out /= sums[-1]
    if scalar:
        return float(out[0, 0]) if values.ndim == 1 else out.reshape(values.shape[:-1])
    return out.reshape(values.shape[:-1] + terms.shape[:-1])


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
    shape = np.broadcast(*points).shape
    out = np.asarray(f(*points), dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def weighted_l2_norm(f, alpha, beta, lam, m_points=200):
    """Weighted L2 norm of f on [0, 1] by an m_points fractional Gauss rule."""
    if m_points < 1:
        raise ValueError("m_points must be >= 1")
    rule = frac_gauss_jacobi(m_points, alpha, beta, lam)
    vals = sample_values(f, rule.nodes)
    return float(np.sqrt(np.sum(rule.weights * vals * vals)))


def sup_norm(f, grid=ERROR_GRID):
    """max |f| over a finite grid (default: ERROR_GRID, 1000 uniform points
    on [0, 1]); a NaN of f gives NaN.

    A grid approximation of the true sup; callers that know special points
    (e.g. collocation nodes) should take the larger of this and the max
    over those points.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    return float(np.max(np.abs(sample_values(f, grid))))


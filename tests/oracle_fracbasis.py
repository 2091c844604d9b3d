"""Whole-array barycentric evaluation, kept as the oracle for fracbasis.

`basis_matrix` holds the formulas that `fracvide.fracbasis.basis_matrix`
used before it worked in place, with the differences, the barycentric
terms and the basis values each in an array of their own. `interpolate`
is the second barycentric form on a whole array of terms, with the
numerators of the functions and the denominator contracted separately.
They take 1-D points only. `eval_basis` gives one basis function at a
time, the scalar path by `fracbasis._bary_terms_row`, which the scalar
`interpolate` uses too.
"""

import numpy as np

import fracvide.fracbasis as fracbasis
from fracvide.fracbasis import _node_hits


def _terms(basis, thetas):
    """z at 1-D points and the terms w_j / (z - z_j), shape (len(thetas), n+1)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    z = thetas ** basis.lam if basis.lam != 1.0 else thetas
    diff = z[:, None] - basis.z_nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return z, basis.bary_weights[None, :] / diff


def _kronecker_on_nodes(basis, z, rows_of_points):
    """Replace the row of each point on a node by that node's Kronecker row."""
    node = _node_hits(basis, z)
    rows = np.nonzero(node >= 0)[0]
    rows_of_points[rows] = 0.0
    rows_of_points[rows, node[rows]] = 1.0
    return rows_of_points


def basis_matrix(basis, thetas):
    """All basis functions at 1-D points, shape (len(thetas), n+1)."""
    z, terms = _terms(basis, thetas)
    with np.errstate(invalid="ignore"):
        out = terms / np.sum(terms, axis=1, keepdims=True)
    return _kronecker_on_nodes(basis, z, out)


def interpolate(basis, values, theta):
    """sum_j t_j values[..., j] / sum_j t_j at 1-D points theta, with the
    terms t_j = w_j / (z - z_j) (a Kronecker row for a point on a node)."""
    values = np.asarray(values, dtype=float)
    z, terms = _terms(basis, theta)
    terms = _kronecker_on_nodes(basis, z, terms)
    numerators = np.einsum("pj,...j->...p", terms, values)
    return numerators / np.einsum("pj,j->p", terms, np.ones(basis.n + 1))


def eval_basis(basis, j, theta):
    """Value of the j-th basis function at theta (Kronecker on the nodes);
    scalar in, scalar out, and one value per point for an array."""
    if not 0 <= j <= basis.n:
        raise IndexError(f"basis index {j} out of range 0..{basis.n}")
    if np.ndim(theta) == 0:
        terms = fracbasis._bary_terms_row(basis, float(theta))
        return float(terms[j] / terms.sum())
    return fracbasis.basis_matrix(basis, theta)[..., j]

"""Whole-array barycentric evaluation, kept as the oracle for fracbasis.

These are the formulas that `fracvide.fracbasis.basis_matrix` used before
it worked in place, with the differences, the barycentric terms and the
basis values each in an array of their own, and `interpolate` on top of
them. They take 1-D points only.
"""

import numpy as np

from fracvide.fracbasis import _node_hits


def basis_matrix(basis, thetas):
    """All basis functions at 1-D points, shape (len(thetas), n+1)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    z = thetas ** basis.lam if basis.lam != 1.0 else thetas
    diff = z[:, None] - basis.z_nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = basis.bary_weights[None, :] / diff
        out = terms / np.sum(terms, axis=1, keepdims=True)
    node = _node_hits(basis, z)
    rows = np.nonzero(node >= 0)[0]
    out[rows] = 0.0
    out[rows, node[rows]] = 1.0
    return out


def interpolate(basis, values, theta):
    """sum_j values[..., j] * F_j(theta) at 1-D points theta."""
    values = np.asarray(values, dtype=float)
    return np.sum(basis_matrix(basis, theta) * values[..., None, :], axis=-1)

"""Per-row collocation assembly, kept as the oracle for the blocked path.

This is the assembly loop that `fracvide.collocate.assemble` used before it
evaluated the basis in blocks: one `basis_matrix` call per collocation node
and integral, with the kernel transform written out as `transform_kernel`.
The delayed matrices D and H are integrated at the delayed points directly.
`solve_block` solves the full block system without elimination, as the
oracle for `fracvide.collocate.solve`.
"""

import numpy as np

from fracvide.collocate import SolutionApprox, SolverError, singular_ratio
from fracvide.fracbasis import basis_matrix, build_basis
from fracvide.specfun import frac_gauss_jacobi


def transform_kernel(kbar, lam, mu):
    """Kernel of the fixed-interval form of a singular integral.

    Given kbar(theta, eta), returns ktil(theta_i, xi)
    = (1/lam) * singular_ratio(xi) * kbar(theta_i, theta_i * xi**(1/lam)).
    """
    def ktil(theta_i, xi):
        return singular_ratio(xi, lam, mu) / lam * kbar(theta_i, theta_i * np.asarray(xi) ** (1.0 / lam))

    return ktil


def assemble_rowwise(tp, n, lam, alpha_c=-0.5, beta_c=-0.5):
    """C, D, E, H of the collocation system, one row at a time.

    Needs kernels that accept an array second argument (the built-ins do).
    """
    mu, gam, eps = tp.mu, tp.gamma, tp.eps
    basis = build_basis(n, alpha_c, beta_c, lam)
    kernel_rule = frac_gauss_jacobi(n + 1, -mu, (mu + gam) / lam - 1.0, 1.0)
    anti_rule = frac_gauss_jacobi(n + 1, 0.0, 1.0 / lam - 1.0, 1.0)
    xi, w = kernel_rule.nodes, kernel_rule.weights
    xih, wh = anti_rule.nodes, anti_rule.weights
    sh = xih ** (1.0 / lam)
    k1til = transform_kernel(tp.kbar1, lam, mu)
    k2til = transform_kernel(lambda theta, u: tp.kbar2(theta, eps * u), lam, mu)

    size = n + 1
    C, D, E, H = (np.empty((size, size)) for _ in range(4))
    for i, ti in enumerate(basis.nodes):
        eta = ti * xi ** (1.0 / lam)
        C[i] = (w * k1til(ti, xi)) @ basis_matrix(basis, eta)
        D[i] = (w * k2til(ti, xi)) @ basis_matrix(basis, eps * eta)
        eta_h = ti * sh
        E[i] = (ti / lam) * (wh @ basis_matrix(basis, eta_h))
        H[i] = (eps * ti / lam) * (wh @ basis_matrix(basis, eps * eta_h))
    return C, D, E, H


def solve_block(system):
    """Solve the full 3(N+1) block system without elimination."""
    size = system.n + 1
    I = np.eye(size)
    Z = np.zeros((size, size))
    M = system.C + system.D
    top = np.hstack([I, -(np.diag(system.P) + M), -np.diag(system.Q)])
    mid = np.hstack([-system.E, I, Z])
    bot = np.hstack([-system.H, Z, I])
    A = np.vstack([top, mid, bot])
    rhs = np.concatenate([system.G, system.U0, system.U0])
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"singular block system (n={system.n}, lam={system.lam}): {err}") from None
    return SolutionApprox(system=system, u_star=sol[:size], u=sol[size:2 * size], v=sol[2 * size:])

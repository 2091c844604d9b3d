"""Fractional Jacobi collocation for the transformed delayed VIDE.

Collocating at the mapped Gauss nodes theta_i and substituting
eta = theta_i * xi**(1/lam) turns each weakly singular integral into a
fixed-interval integral whose basis factor is a polynomial in xi, so an
(N+1)-point Gauss-Jacobi rule with the matching weight evaluates it
exactly. The nodal unknowns (derivative values u*, solution values u and
delayed values v) satisfy

    u* = (P + C + D) u + Q v + G,   u = u0 + E u*,   v = u0 + H u*,

which collapses to one (N+1) x (N+1) solve for u*.

The delayed matrices need no quadrature at delayed points of their own.
F_j(eps * theta) is a polynomial of degree N in theta**lam, so
interpolating it on the nodes is exact: F_j(eps * eta) = sum_l F_l(eta)
R[l, j] with R = basis_matrix(basis, eps * theta). Hence D = D~ R, where
D~ is the K2-weighted quadrature at the points of C, and H = eps E R.

The antiderivative matrix E depends on the discretization alone, not on
the problem, and its rule, like the kernel rule, has N+1 points. So E is
built once per (N, lam, alpha_c, beta_c) and shared read-only.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exprlang import ExprEvalError
from .fracbasis import (basis_matrix, basis_quadrature, build_basis, interpolate,
                        sample_values)
from .problem import kernel_samples
from .specfun import frac_gauss_jacobi


class SolverError(RuntimeError):
    """Linear solve failed or produced an unacceptable residual."""


def singular_ratio(xi, lam, mu):
    """((1 - xi**(1/lam)) / (1 - xi))**(-mu) for xi in (0, 1).

    Computed via log1p to avoid cancellation near xi = 1; identically 1
    when lam = 1. The limit as xi -> 1 is lam**mu.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any((xi <= 0.0) | (xi >= 1.0)):
        raise ValueError("singular ratio is defined for xi in the open interval (0, 1)")
    return np.exp(-mu * (np.log1p(-(xi ** (1.0 / lam))) - np.log1p(-xi)))


@dataclass(frozen=True, eq=False)
class CollocationSystem:
    """Assembled matrices for one (problem, N, lam) discretization.

    P and Q hold the diagonals of the coefficient matrices; C and D carry
    the two kernel integrals, E and H the antiderivative couplings. Row
    sums satisfy sum_j E[i, j] = theta_i and sum_j H[i, j] = eps * theta_i.
    E is shared by every system of the same discretization and is
    read-only (antiderivative_matrix).
    The delayed matrices are built by exact re-interpolation: D = D~ R and
    H = eps E R, where R[l, j] = F_j(eps * theta_l) and D~ is the K2
    quadrature at the undelayed points of C; eps = 1 gives R = I exactly.
    """

    tp: object
    n: int
    lam: float
    alpha_c: float
    beta_c: float
    basis: object
    P: np.ndarray
    Q: np.ndarray
    G: np.ndarray
    U0: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    H: np.ndarray
    kernel_rule: object
    anti_rule: object


def assemble(tp, n, lam, alpha_c=-0.5, beta_c=-0.5):
    """Assemble the collocation system for the transformed problem tp.

    build_basis rejects a negative n and then a lam outside (0, 1]; a lam
    so small that the smallest node theta_0 = z_0**(1/lam) underflows to 0
    is rejected after the rules are built and before any coefficient is
    sampled."""
    mu, gam, eps = tp.mu, tp.gamma, tp.eps

    basis = build_basis(n, alpha_c, beta_c, lam)
    theta = basis.nodes
    # the kernel rule in the xi variable: weight (1-xi)^-mu xi^((mu+gam)/lam - 1)
    kernel_rule = frac_gauss_jacobi(n + 1, -mu, (mu + gam) / lam - 1.0, 1.0)
    xi, w = kernel_rule.nodes, kernel_rule.weights
    s = xi ** (1.0 / lam)            # eta_i(xi) = theta_i * s
    ratio = singular_ratio(xi, lam, mu)

    if theta[0] == 0.0:
        raise ValueError(f"lam = {lam:g} is too small for n = {n}: the smallest collocation "
                         f"node theta_0 = z_0^(1/lam) underflows to 0")
    col = theta[:, None]
    eta = col * s
    # a sample that overflows or divides by zero is reported by _samples
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        P = _samples("p", theta, sample_values, tp.p1, theta)
        Q = _samples("q", theta, sample_values, tp.q1, theta)
        G = _samples("g", theta, sample_values, tp.g1, theta)
        k1 = _samples("K1", theta, kernel_samples, tp.kbar1, col, eta) * ratio / lam
        k2 = _samples("K2", theta, kernel_samples, tp.kbar2, col, eps * eta) * ratio / lam
    C, D_undelayed = basis_quadrature(basis, eta, np.stack([w * k1, w * k2]))
    E = antiderivative_matrix(n, lam, alpha_c, beta_c)
    R = basis_matrix(basis, eps * theta)
    D = D_undelayed @ R
    H = eps * (E @ R)
    U0 = np.full(n + 1, float(tp.y0))
    return CollocationSystem(tp=tp, n=n, lam=float(lam), alpha_c=float(alpha_c),
                             beta_c=float(beta_c), basis=basis, P=P, Q=Q, G=G, U0=U0,
                             C=C, D=D, E=E, H=H,
                             kernel_rule=kernel_rule,
                             anti_rule=frac_gauss_jacobi(n + 1, 0.0, 1.0 / lam - 1.0, 1.0))


@functools.lru_cache(maxsize=32)
def antiderivative_matrix(n, lam, alpha_c, beta_c):
    """E[i, j] = int_0^theta_i F_j(theta) dtheta by the (N+1)-point rule in xi.

    E depends only on the discretization (N, lam, alpha_c, beta_c), so it
    is memoised on those four arguments and shared between systems; the
    array is read-only. At most 32 matrices are kept, 17 MB at N = 256.
    """
    basis = build_basis(n, alpha_c, beta_c, lam)
    # the rule in the xi variable: weight xi**(1/lam - 1)
    rule = frac_gauss_jacobi(n + 1, 0.0, 1.0 / lam - 1.0, 1.0)
    xih, wh = rule.nodes, rule.weights
    sh = xih ** (1.0 / lam)
    col = basis.nodes[:, None]
    E = basis_quadrature(basis, col * sh, (col / lam) * wh)
    E.setflags(write=False)
    return E


def _samples(name, theta, sample, f, *points):
    """sample(f, *points), one row per node theta_i, for coefficient name.

    Raises ValueError naming the coefficient when f cannot take arrays (it
    raises TypeError or a plain ValueError on them, as scalar code that
    tests an array's truth does), or naming it and the first node where a
    sample is not finite. A config expression's domain error keeps its
    type and text, prefixed with the coefficient and the node where it
    arises, which is found by sampling row by row, after the failure only.
    Any other subclass of ValueError says what went wrong itself and
    passes unchanged.
    """
    try:
        samples = sample(f, *points)
    except (TypeError, ValueError) as err:
        if isinstance(err, ExprEvalError):
            for i in range(len(theta)):
                try:
                    sample(f, *(p[i] for p in points))
                except ExprEvalError as row_err:
                    if str(row_err) == str(err):
                        raise type(err)(f"coefficient {name} at collocation node {i} "
                                        f"(theta = {theta[i]:.17g}): {err}") from err
        if isinstance(err, ValueError) and type(err) is not ValueError:
            raise
        raise ValueError(f"coefficient {name} must take numpy arrays and evaluate "
                         f"elementwise (wrap scalar code in numpy.vectorize): {err}") from err
    bad = ~np.isfinite(samples).reshape(len(theta), -1).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"coefficient {name} is not finite at collocation node {i} "
                         f"(theta = {theta[i]:.17g})")
    return samples


@dataclass(frozen=True, eq=False)
class SolutionApprox:
    """Nodal solution of one collocation system.

    u_star approximates phi'(theta_i); u and v are the reconstructed
    solution and delayed-solution values, u = U0 + E u*, v = U0 + H u*.
    Note the interpolant of u_star is not the derivative of the
    interpolant of u; both are first-class approximations.
    """

    system: CollocationSystem
    u_star: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def evaluate(self, theta):
        """phi_N(theta) = sum_j u_j F_j(theta)."""
        return interpolate(self.system.basis, self.u, theta)

    def evaluate_derivative(self, theta):
        """phi*_N(theta) = sum_j u*_j F_j(theta)."""
        return interpolate(self.system.basis, self.u_star, theta)

    def to_physical(self, t):
        """y_N(t) = phi_N(t / T) for t in [0, T]."""
        T = self.system.tp.T
        tt = np.asarray(t, dtype=float)
        if np.any((tt < 0.0) | (tt > T)):
            raise ValueError(f"t must lie in [0, {T}]")
        return self.evaluate(tt / T)


def solve(system):
    """Eliminate u and v and solve the dense system for u* by LU.

    Raises SolverError when the matrix is numerically singular or the
    solve residual is not finite or exceeds 1e-12 * (max|rhs| + 1).
    """
    size = system.n + 1
    # data so large that a product overflows give a residual that is not
    # finite, which is reported below, so numpy's warning is left out
    with np.errstate(over="ignore", invalid="ignore"):
        M = system.C + system.D
        A = np.eye(size) - (system.P[:, None] * system.E + M @ system.E) \
            - system.Q[:, None] * system.H
        rhs = system.U0 * (system.P + system.Q + M @ np.ones(size)) + system.G
        try:
            u_star = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"singular collocation matrix (n={system.n}, "
                              f"lam={system.lam}): {err}") from None
        residual = float(np.max(np.abs(A @ u_star - rhs)))
    if not np.isfinite(residual) or residual > 1e-12 * (float(np.max(np.abs(rhs))) + 1.0):
        raise SolverError(
            f"solve residual {residual:.3e} too large (n={system.n}, lam={system.lam})")
    u = system.U0 + system.E @ u_star
    v = system.U0 + system.H @ u_star
    return SolutionApprox(system=system, u_star=u_star, u=u, v=v)


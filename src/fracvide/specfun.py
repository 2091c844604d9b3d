"""Special functions and Gauss-Jacobi quadrature.

Provides the Beta function, classical Gauss-Jacobi rules on [-1, 1] (the
Chebyshev weight in closed form, every other weight by the Golub-Welsch
algorithm), and their fractional mapping to rules on [0, 1] for the weight

    w(theta) = lam * (1 - theta**lam)**alpha * theta**((beta+1)*lam - 1),

which reduces to (1-theta)**alpha * theta**beta when lam = 1.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# Smallest Chebyshev rule built in closed form. Below it the eigh rule costs
# well under a millisecond with one BLAS thread, and the collocation nodes
# keep the bits that the seeded invariant tests (N + 1 <= 41) were drawn
# against: their constant fixed-point check sums kernel samples whose own
# rounding, about 1e-13 relative, depends on the nodes' last bits, and a
# node set a few ulps away, such as the closed form's, can take it past its
# 1e-12 bound.
CHEBYSHEV_MIN_POINTS = 64


def beta(a, b):
    """Beta function B(a, b) = Gamma(a)*Gamma(b)/Gamma(a+b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _jacobi_recurrence(n, alpha, beta):
    """Diagonal and off-diagonal of the n x n Jacobi matrix (monic recurrence)."""
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    if n > 1:
        i = np.arange(1, n, dtype=float)
        diag[1:] = (beta * beta - alpha * alpha) / ((2 * i + ab) * (2 * i + ab + 2))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # b_1 written with the (1+ab) factor cancelled: the raw formula is
        # 0/0 at ab = -1 (e.g. alpha = beta = -1/2).
        off[0] = math.sqrt(4 * (1 + alpha) * (1 + beta) / ((2 + ab) ** 2 * (3 + ab)))
    if n > 2:
        i = np.arange(2, n, dtype=float)
        s = 2 * i + ab
        off[1:] = np.sqrt(4 * i * (i + alpha) * (i + beta) * (i + ab) / (s * s * (s * s - 1)))
    return diag, off


def gauss_jacobi(n_points, alpha, beta):
    """n-point Gauss-Jacobi rule on [-1, 1] for the weight (1-x)^alpha (1+x)^beta.

    The Chebyshev weight (alpha, beta) = (-1/2, -1/2), the default
    collocation and error-norm weight, has its rule in closed form from
    CHEBYSHEV_MIN_POINTS points up: nodes cos((2k-1)pi/2n), here written as
    sin(pi (2k-1-n)/2n) so that they are exactly antisymmetric, and weights
    pi/n. It takes O(n) time and memory at any n. Every other rule, and a
    Chebyshev rule of fewer points, comes from Golub-Welsch: the nodes are
    the eigenvalues of the symmetric tridiagonal matrix of recurrence
    coefficients (equivalently the zeros of J_n^(alpha,beta)); the weights
    come from the first components of the eigenvectors scaled by the zeroth
    moment. The matrix is diagonalised densely by numpy's eigh, in O(n^3)
    time and O(n^2) memory; rules are cached by frac_gauss_jacobi, so each
    is built once per process. Either way the rule is exact for polynomials
    of degree <= 2*n_points - 1.

    Returns (nodes, weights) as ascending float arrays.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi parameters must exceed -1")
    if alpha == beta == -0.5 and n_points >= CHEBYSHEV_MIN_POINTS:
        k = np.arange(1 - n_points, n_points, 2, dtype=float)
        return np.sin(k * (math.pi / (2 * n_points))), np.full(n_points, math.pi / n_points)
    mu0 = math.exp((alpha + beta + 1) * math.log(2.0) + math.lgamma(alpha + 1)
                   + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2))
    diag, off = _jacobi_recurrence(n_points, alpha, beta)
    if n_points == 1:
        return diag.copy(), np.array([mu0])
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = mu0 * vecs[0, :] ** 2
    return nodes, weights


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature rule on [0, 1] for the fractional Jacobi weight.

    nodes are strictly increasing in (0, 1); weights are positive and sum to
    B(alpha+1, beta+1). The rule integrates theta**(k*lam) exactly against
    the weight for all k <= 2*n_points - 1.
    """

    alpha: float
    beta: float
    lam: float
    n_points: int
    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=128)
def frac_gauss_jacobi(n_points, alpha, beta, lam):
    """Gauss rule on [0, 1] for lam*(1-theta^lam)^alpha * theta^((beta+1)*lam-1).

    Obtained from the classical rule by theta_j = ((t_j+1)/2)**(1/lam) and
    w_j -> 2**-(alpha+beta+1) * w_j; lam = 1 gives the affinely mapped
    classical rule for (1-theta)^alpha * theta^beta.

    Rules are memoised on the arguments and shared between callers, so their
    nodes and weights are read-only arrays.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"lam must lie in (0, 1], got {lam}")
    if lam != 1.0:
        # map the cached lam = 1 rule, whose nodes are the z_j = (t_j+1)/2
        classical = frac_gauss_jacobi(n_points, alpha, beta, 1.0)
        nodes = classical.nodes ** (1.0 / lam)
        nodes.setflags(write=False)
        return QuadratureRule(alpha=float(alpha), beta=float(beta), lam=float(lam),
                              n_points=int(n_points), nodes=nodes, weights=classical.weights)
    t, w = gauss_jacobi(n_points, alpha, beta)
    nodes = 0.5 * (t + 1.0)
    weights = w * 2.0 ** -(alpha + beta + 1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(alpha=float(alpha), beta=float(beta), lam=float(lam),
                          n_points=int(n_points), nodes=nodes, weights=weights)

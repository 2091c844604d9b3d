"""Special functions and Gauss-Jacobi quadrature.

Provides the Beta function, classical Gauss-Jacobi rules on [-1, 1] (the
Chebyshev weight in closed form, every other weight by the Golub-Welsch
algorithm), and their fractional mapping to rules on [0, 1] for the weight

    w(theta) = lam * (1 - theta**lam)**alpha * theta**((beta+1)*lam - 1),

which reduces to (1-theta)**alpha * theta**beta when lam = 1.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

# Larger argument of beta from which lgamma(a) - lgamma(a+b) is taken from
# Stirling's series. Below it the plain log-gamma sum is accurate to 1e-13
# (7.3e-14 at most over 3000 random pairs in (0.01, 30)); above, its error
# grows with lgamma(a+b) (2.5e-7 at a = 1e8).
BETA_STIRLING_MIN = 30.0


def beta(a, b):
    """Beta function B(a, b) = Gamma(a)*Gamma(b)/Gamma(a+b) for a, b > 0.

    Raises OverflowError when B(a, b) exceeds a double.

    For a larger argument a >= BETA_STIRLING_MIN and the smaller b, the
    difference lgamma(a) - lgamma(a+b) is not formed from its two huge
    terms. With x = b/a, Stirling's series gives it as

        -b ln a + a (x - log1p(x)) - (b - 1/2) log1p(x) + c(a) - c(a+b),

    where c is the series' tail (DiDonato and Morris, ACM TOMS 18, 1992),
    so B(a, b) = Gamma(b) a^-b exp(...), with a^-b taken as a square of
    a^(-b/2) so that it stays normal while B does.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    small, large = min(a, b), max(a, b)
    if not large >= BETA_STIRLING_MIN:
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    x = small / large
    log1p_x = math.log1p(x)
    rest = (large * (x - log1p_x) - (small - 0.5) * log1p_x
            + _stirling_tail(large) - _stirling_tail(large + small))
    half = large ** (-0.5 * small)
    if small < 171.0 and half >= sys.float_info.min:    # Gamma(small) is finite
        return math.gamma(small) * half * half * math.exp(rest)
    return math.exp(math.lgamma(small) - small * math.log(large) + rest)


def _stirling_tail(x):
    """lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) by four terms of
    Stirling's series; the first term left out is below 5e-17 from x = 30."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x


def _jacobi_recurrence(n, alpha, beta):
    """Diagonal and off-diagonal of the n x n Jacobi matrix (monic recurrence)."""
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    i = np.arange(1, n, dtype=float)
    diag[1:] = (beta * beta - alpha * alpha) / ((2 * i + ab) * (2 * i + ab + 2))
    off = np.empty(n - 1)
    if n > 1:
        # b_1 written with the (1+ab) factor cancelled: the raw formula is
        # 0/0 at ab = -1 (e.g. alpha = beta = -1/2).
        off[0] = math.sqrt(4 * (1 + alpha) * (1 + beta) / ((2 + ab) ** 2 * (3 + ab)))
    i = np.arange(2, n, dtype=float)
    s = 2 * i + ab
    off[1:] = np.sqrt(4 * i * (i + alpha) * (i + beta) * (i + ab) / (s * s * (s * s - 1)))
    return diag, off


def gauss_jacobi(n_points, alpha, beta):
    """n-point Gauss-Jacobi rule on [-1, 1] for the weight (1-x)^alpha (1+x)^beta.

    The Chebyshev weight (alpha, beta) = (-1/2, -1/2), the default
    collocation and error-norm weight, has its rule in closed form at every
    n: nodes cos((2k-1)pi/2n), here written as sin(pi (2k-1-n)/2n) so that
    they are exactly antisymmetric, and weights pi/n, in O(n) time and
    memory. Every other rule comes from Golub-Welsch: the nodes are the
    eigenvalues of the symmetric tridiagonal matrix of recurrence
    coefficients (equivalently the zeros of J_n^(alpha,beta)); the weights
    come from the first components of the eigenvectors scaled by the zeroth
    moment. The matrix is diagonalised densely by numpy's eigh, in O(n^3)
    time and O(n^2) memory; rules are cached by frac_gauss_jacobi, so each
    is built once per process. Either way the rule is exact for polynomials
    of degree <= 2*n_points - 1.

    Returns (nodes, weights) as ascending float arrays. Raises ValueError
    naming alpha and beta when the zeroth moment exceeds a double (beta
    above about 1030 at alpha = -1/2).
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise ValueError("Jacobi parameters must be finite and exceed -1, "
                         f"got alpha = {alpha}, beta = {beta}")
    if alpha == beta == -0.5:
        k = np.arange(1 - n_points, n_points, 2, dtype=float)
        return np.sin(k * (math.pi / (2 * n_points))), np.full(n_points, math.pi / n_points)
    try:
        mu0 = math.exp((alpha + beta + 1) * math.log(2.0) + math.lgamma(alpha + 1)
                       + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2))
    except OverflowError:
        raise ValueError("the zeroth moment of the Jacobi weight exceeds a double at "
                         f"alpha = {alpha}, beta = {beta}") from None
    diag, off = _jacobi_recurrence(n_points, alpha, beta)
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = mu0 * vecs[0, :] ** 2
    return nodes, weights


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature rule on [0, 1] for the fractional Jacobi weight.

    nodes ascend in [0, 1): they are strictly increasing in (0, 1) unless
    lam is so small that the smallest nodes z_j**(1/lam) underflow, to 0
    below about lam = 6.6e-3 at n_points = 9 and 1.1e-2 at n_points = 49
    for the Chebyshev weight (collocate.assemble rejects a collocation
    rule whose smallest node is 0). weights are
    positive and sum to B(alpha+1, beta+1). The rule integrates
    theta**(k*lam) exactly against the weight for all k <= 2*n_points - 1.
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

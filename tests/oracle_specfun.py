"""Jacobi polynomial values and log-gamma, kept as test oracles for specfun.

`jacobi_eval` evaluates J_n^(alpha,beta) and its derivative by the
three-term recurrence; the tests check it against a closed form and use it
to confirm that the nodes of an n-point Gauss-Jacobi rule are the zeros
of J_n.
"""

import math

import numpy as np


def ln_gamma(x):
    """Natural log of the Gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def jacobi_eval(n, alpha, beta, x):
    """Evaluate the Jacobi polynomial J_n^(alpha,beta) and its derivative at x.

    Uses the three-term recurrence (stable for all n in scope); the
    derivative comes from d/dx J_n^(a,b) = (n+a+b+1)/2 * J_{n-1}^(a+1,b+1).

    Returns (value, derivative).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi parameters must exceed -1")
    value = _jacobi_value(n, alpha, beta, x)
    if n == 0:
        deriv = 0.0 * value
    else:
        deriv = 0.5 * (n + alpha + beta + 1) * _jacobi_value(n - 1, alpha + 1, beta + 1, x)
    return value, deriv


def _jacobi_value(n, alpha, beta, x):
    x = np.asarray(x, dtype=float)
    pkm1 = np.ones_like(x)
    if n == 0:
        return pkm1 if pkm1.ndim else float(pkm1)
    pk = 0.5 * (alpha + beta + 2) * x + 0.5 * (alpha - beta)
    for k in range(2, n + 1):
        s = 2 * k + alpha + beta
        a1 = 2 * k * (k + alpha + beta) * (s - 2)
        a2 = (s - 1) * (alpha * alpha - beta * beta)
        a3 = (s - 1) * s * (s - 2)
        a4 = 2 * (k + alpha - 1) * (k + beta - 1) * s
        pk, pkm1 = ((a2 + a3 * x) * pk - a4 * pkm1) / a1, pk
    return pk if pk.ndim else float(pk)

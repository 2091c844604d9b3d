"""Correctness checks made apart from the program.

Every check takes plain numbers (nodal values, CSV rows, row sums) and returns
a list of messages, empty when the check passes. The closed-form solutions,
the equations of ex4/ex5, the barycentric interpolant, the error grid and the
quadrature are all written here from the paper's problem statements; nothing
is taken from the program except the nodal solution being checked.
"""

import math

import numpy as np
from scipy.integrate import quad

# Closed-form solutions y(t) and y'(t) on [0, T].
SQRT2 = math.sqrt(2.0)
EXACT = {
    "ex1": (1.0, lambda t: t * np.exp(-np.sqrt(t)),
            lambda t: np.exp(-np.sqrt(t)) * (1.0 - 0.5 * np.sqrt(t))),
    "ex2": (0.5, lambda t: t ** (4.0 / 3.0) * np.exp(-t),
            lambda t: np.exp(-t) * np.cbrt(t) * (4.0 / 3.0 - t)),
    "ex3": (1.0, lambda t: (t ** 1.5 + t ** (1.0 + SQRT2)) * np.exp(-t),
            lambda t: np.exp(-t) * (np.sqrt(t) * (1.5 - t) + t ** SQRT2 * (1.0 + SQRT2 - t))),
    "quarter_power": (1.0, lambda t: t ** 1.25 * np.exp(-t),
                      lambda t: np.exp(-t) * (1.25 * t ** 0.25 - t ** 1.25)),
}


def _delay_problem(mu):
    """ex4 (mu = 1/2) and ex5 (mu = 2 - sqrt 2) of the paper:
    t^gamma y' = p y + q y(eps t) + g + int_0^t (t-s)^-mu s^(mu+gamma-1) K1 y ds
                 + eps^-gamma int_0^(eps t) (eps t-u)^-mu u^(mu+gamma-1) K2 y du."""
    return {"mu": mu, "gamma": 1.0, "eps": 0.5, "T": 0.5, "y0": 3.0,
            "p": lambda t: t ** 1.5 * math.cos(t),
            "q": lambda t: t ** 1.5 * math.exp(-t),
            "g": lambda t: math.sin(2.0 * t),
            "K1": lambda t, s: -(s ** (1.0 + mu)) * (1.0 + math.sin(t * s)),
            "K2": lambda t, u: u ** (1.0 + mu) * (1.0 + math.cos(t * u))}


EQUATION = {"ex4": _delay_problem(0.5), "ex5": _delay_problem(2.0 - SQRT2)}

ROUNDING_FLOOR = 1e-12   # errors below this are rounding, not discretisation
AGREEMENT_FACTOR = 1.5   # own errors and CSV cells may differ by this factor
PUBLISHED_FACTOR = 100.0
SLOPE_WINDOW = 0.3       # fitted L2 slope within this of -2 sigma
ROW_SUM_TOL = 1e-12
DECAY_RATE = 0.3         # config-problem errors fall at least this many decades per degree
DECAY_FINAL_TOL = 1e-8   # ... and end at most this
RESIDUAL_TOL = 1e-8
GRID_UNIFORM = 4000      # L-infinity grid: uniform points ...
GRID_GEOMETRIC = 400     # ... plus a geometric cluster near 0
L2_RULE_POINTS = 800     # points of the benchmark's own L2 rule


class Interpolant:
    """Barycentric interpolant in z = theta**lam through (nodes, values).

    The weights are formed in log space so that N = 256 neither underflows
    nor overflows.
    """

    def __init__(self, nodes, values, lam):
        self.lam = float(lam)
        self.z = np.asarray(nodes, dtype=float) ** self.lam
        self.values = np.asarray(values, dtype=float)
        diff = self.z[:, None] - self.z[None, :]
        np.fill_diagonal(diff, 1.0)
        logw = -np.sum(np.log(np.abs(diff)), axis=1)
        sign = np.where(np.sum(diff < 0.0, axis=1) % 2 == 0, 1.0, -1.0)
        self.w = sign * np.exp(logw - np.max(logw))

    def __call__(self, theta):
        z = np.atleast_1d(np.asarray(theta, dtype=float)) ** self.lam
        diff = z[:, None] - self.z[None, :]
        exact = diff == 0.0
        diff[exact] = 1.0
        terms = self.w / diff
        out = (terms @ self.values) / np.sum(terms, axis=1)
        rows, cols = np.nonzero(exact)
        out[rows] = self.values[cols]
        return out


def error_grid(seed):
    """L-infinity grid on [0, 1]: a uniform grid with a seeded offset plus a
    seeded geometric cluster in [1e-8, 1e-2], where singular errors peak."""
    rng = np.random.default_rng(seed)
    u = (np.arange(GRID_UNIFORM) + rng.random()) / GRID_UNIFORM
    g = 10.0 ** (-8.0 + 6.0 * (np.arange(GRID_GEOMETRIC) + rng.random()) / GRID_GEOMETRIC)
    return np.unique(np.concatenate(([0.0, 1.0], u, g)))


def _chebyshev_weight_rule():
    """Rule for int_0^1 f(theta) (theta (1-theta))^(-1/2) dtheta: with
    theta = (1 - cos phi) / 2 the integral is int_0^pi f dphi, done by
    L2_RULE_POINTS-point Gauss-Legendre in phi."""
    x, w = np.polynomial.legendre.leggauss(L2_RULE_POINTS)
    phi = 0.5 * math.pi * (x + 1.0)
    return 0.5 * (1.0 - np.cos(phi)), 0.5 * math.pi * w


L2_NODES, L2_WEIGHTS = _chebyshev_weight_rule()


def own_errors(sol, name, grid):
    """Norms of e = phi - phi_N and e* = phi' - phi*_N from the closed form:
    L-infinity on `grid`, L2 with the collocation weight (alpha = beta = -1/2)."""
    T, y, yp = EXACT[name]
    u = Interpolant(sol["nodes"], sol["u"], sol["lam"])
    ustar = Interpolant(sol["nodes"], sol["u_star"], sol["lam"])

    def norms(th):
        e = y(T * th) - u(th)
        es = T * yp(T * th) - ustar(th)
        return e, es

    e, es = norms(grid)
    e2, es2 = norms(L2_NODES)
    return {"linf_e": float(np.max(np.abs(e))), "linf_estar": float(np.max(np.abs(es))),
            "l2_e": float(np.sqrt(np.sum(L2_WEIGHTS * e2 * e2))),
            "l2_estar": float(np.sqrt(np.sum(L2_WEIGHTS * es2 * es2)))}


def reference_linf(sol, ref, grid):
    """L-infinity distance of the solution to a reference solution."""
    u = Interpolant(sol["nodes"], sol["u"], sol["lam"])
    r = Interpolant(ref["nodes"], ref["u"], ref["lam"])
    return float(np.max(np.abs(u(grid) - r(grid))))


def read_csv(path):
    """Rows of a fracvide error CSV as {n: {column: value}}."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = {}
        for line in fh:
            cells = line.strip().split(",")
            rows[int(cells[0])] = dict(zip(header[1:], map(float, cells[1:])))
    return rows


def check_published(name, part, rows, table):
    """Every CSV cell at most PUBLISHED_FACTOR times the published value."""
    cols = ("L2_e", "Linf_e") if part == "e" else ("L2_estar", "Linf_estar")
    msgs = []
    if sorted(rows) != sorted(table["n"]):
        return [f"{name} {part}: degrees {sorted(rows)} differ from {list(table['n'])}"]
    for col, key in zip(cols, ("l2", "linf")):
        for n, published in zip(table["n"], table[key]):
            ours = rows[n][col]
            if not (math.isfinite(ours) and 0.0 <= ours <= PUBLISHED_FACTOR * published):
                msgs.append(f"{name} {part} N={n} {col}={ours:.3e} exceeds "
                            f"{PUBLISHED_FACTOR:g} x published {published:.3e}")
    return msgs


def check_agreement(label, own, csv_row):
    """Own errors and the program's CSV cells agree within AGREEMENT_FACTOR
    where either is above ROUNDING_FLOOR."""
    msgs = []
    for key, col in (("l2_e", "L2_e"), ("linf_e", "Linf_e"),
                     ("l2_estar", "L2_estar"), ("linf_estar", "Linf_estar")):
        if col not in csv_row:
            continue
        a, b = own[key], csv_row[col]
        if max(a, b) <= ROUNDING_FLOOR:
            continue
        if not (min(a, b) > 0.0
                and max(a, b) <= AGREEMENT_FACTOR * max(min(a, b), ROUNDING_FLOOR)):
            msgs.append(f"{label} {col}: program {b:.3e} vs benchmark {a:.3e}")
    return msgs


def check_slope(label, ns, errs, expected):
    """Algebraic rate: the log-log slope of the L2 error within SLOPE_WINDOW
    of `expected`."""
    if min(errs) <= 0.0:
        return [f"{label}: nonpositive error {errs}"]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    if not abs(slope - expected) <= SLOPE_WINDOW:
        return [f"{label}: L2 slope {slope:.3f} outside {expected:.3f} +- {SLOPE_WINDOW}"]
    return []


def check_row_sums(label, sol):
    """E 1 = theta and H 1 = eps theta to within ROW_SUM_TOL."""
    theta = np.asarray(sol["nodes"])
    msgs = []
    for key, target in (("E1", theta), ("H1", sol["eps"] * theta)):
        dev = float(np.max(np.abs(np.asarray(sol[key]) - target)))
        if not dev <= ROW_SUM_TOL:
            msgs.append(f"{label}: max |{key[0]} 1 - target| = {dev:.2e} > {ROW_SUM_TOL:g}")
    return msgs


def check_decay(label, ns, errs):
    """Errors fall, at least DECAY_RATE decades per degree on a log-linear
    fit, and the last is at most DECAY_FINAL_TOL."""
    msgs = []
    if min(errs) <= 0.0:
        return [f"{label}: nonpositive error {errs}"]
    rate = -float(np.polyfit(ns, np.log10(errs), 1)[0])
    if not rate >= DECAY_RATE:
        msgs.append(f"{label}: errors fall {rate:.3f} decades per degree (< {DECAY_RATE})")
    if not errs[-1] <= DECAY_FINAL_TOL:
        msgs.append(f"{label}: error {errs[-1]:.3e} at N={ns[-1]} above {DECAY_FINAL_TOL:g}")
    return msgs


def equation_residual(name, sol, t):
    """Residual of the ex4/ex5 equation at physical time t for the nodal
    solution, with both weakly singular integrals done by QUADPACK's
    algebraic-weight rule."""
    eq = EQUATION[name]
    mu, gam, eps, T = eq["mu"], eq["gamma"], eq["eps"], eq["T"]
    u = Interpolant(sol["nodes"], sol["u"], sol["lam"])
    ustar = Interpolant(sol["nodes"], sol["u_star"], sol["lam"])
    y = lambda s: float(u(s / T)[0])
    dy = float(ustar(t / T)[0]) / T
    wvar = (mu + gam - 1.0, -mu)
    i1 = quad(lambda s: eq["K1"](t, s) * y(s), 0.0, t, weight="alg", wvar=wvar,
              epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    i2 = quad(lambda s: eq["K2"](t, s) * y(s), 0.0, eps * t, weight="alg", wvar=wvar,
              epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    rhs = eq["p"](t) * y(t) + eq["q"](t) * y(eps * t) + eq["g"](t) + i1 + eps ** -gam * i2
    return t ** gam * dy - rhs


def check_residual(name, sol, points):
    """|residual| of the equation at the given physical times is at most
    RESIDUAL_TOL, and the initial value is y0."""
    msgs = []
    eq = EQUATION[name]
    y0 = float(Interpolant(sol["nodes"], sol["u"], sol["lam"])(0.0)[0])
    if not abs(y0 - eq["y0"]) <= RESIDUAL_TOL:
        msgs.append(f"{name}: y(0) = {y0!r}, expected {eq['y0']}")
    for t in points:
        r = equation_residual(name, sol, t)
        if not abs(r) <= RESIDUAL_TOL:
            msgs.append(f"{name}: equation residual {r:.3e} at t={t:.4f} (> {RESIDUAL_TOL:g})")
    return msgs

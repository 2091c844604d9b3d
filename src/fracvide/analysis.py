"""Error measurement, convergence sweeps, and decay-rate classification.

Errors are reported in the sup norm over the error grid and the
collocation nodes and in the weighted L2 norm with the collocation weight
(exponents alpha_c, beta_c, plain variable), for both the solution
interpolant and the separate derivative interpolant. A report
interpolates phi_N and phi*_N together, once on each of its two point
sets, the error rule and the error grid. A sweep evaluates the truth
(phi and phi', exact or a self-reference) once per point set: it keeps
their values for the whole sweep in one dict keyed by the points' bits.
Every degree shares the grid and, up to N = 49 or under a fixed rule
size, the rule, so after the first degree the truth is evaluated only on
each degree's nodes and on any new rule. A sweep labels the
decay exponential or algebraic by comparing linear fits of log(err)
against N and against log N; the better fit wins provided its R^2 is
within 0.02 of a perfect fit, otherwise the result is inconclusive.
Cells at the rounding floor of the truth's scale are left out of the fit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .collocate import assemble, solve
from .fracbasis import ERROR_GRID, interpolate, sup_norm, weighted_l2_norm
from .problem import transform

R2_MARGIN = 0.02   # winning fit must have R^2 >= 1 - R2_MARGIN
MIN_FIT_POINTS = 4
NOISE_FLOOR = 1e-11
# an error at or below ROUND_OFF times the truth's scale (max |phi| or
# max |phi'| on the error grid) is round-off
ROUND_OFF = 100 * np.finfo(float).eps
REFERENCE_GAP = 3  # a reference must exceed every compared N by at least this


@dataclass(frozen=True)
class ErrorReport:
    n: int
    lam: float
    l2_e: float
    linf_e: float
    l2_estar: float
    linf_estar: float


@dataclass(frozen=True)
class SweepResult:
    problem: str
    lam: float
    rows: tuple          # ErrorReport, ascending in n
    rate_class: str      # "exponential" | "algebraic" | "inconclusive"
    fitted_rate: float
    failures: tuple = () # (n, message) for degrees that failed to solve
    # round-off floors of the e and e* cells: ROUND_OFF times max |phi| and
    # max |phi'| on the error grid
    floor_e: float = 0.0
    floor_estar: float = 0.0

    def restricted(self, ns):
        """This sweep cut down to the degrees ns: their rows and failures,
        with the decay classified again from those rows alone."""
        keep = set(ns)
        rows = tuple(row for row in self.rows if row.n in keep)
        label, rate = classify_decay([r.n for r in rows], [r.l2_e for r in rows], self.floor_e)
        return replace(self, rows=rows, rate_class=label, fitted_rate=rate,
                       failures=tuple(f for f in self.failures if f[0] in keep))


def default_quad_points(n):
    """Size of the error-norm rule for degree n: max(200, 4(n+1)).

    A fixed 200-point rule reads the L2 error of the derivative interpolant
    too low once n nears 200 (13.6 times at n = 192 for ex1 with lam = 1);
    4(n+1) points read it within a factor 1.12 of a 3200-point rule for
    n = 128..256.
    """
    return max(200, 4 * (n + 1))


def error_report(sol, exact_phi, exact_phi_prime, quad_points=None):
    """Norms of e = phi - phi_N and e* = phi' - phi*_N for one solution.

    The L2 norms use a quad_points Gauss rule, by default
    default_quad_points(N), with the collocation weight the system was
    assembled with. Each sup norm is the larger of two maxima: over the
    fixed fracbasis.ERROR_GRID, and over the collocation nodes, where phi_N
    and phi*_N are u and u* exactly. So the solution is interpolated on
    two point sets only, the rule and the grid, and once on each: phi_N and
    phi*_N together, from one basis evaluation that the norms of e and e*
    share. The truth is evaluated on the rule, the grid and the nodes,
    phi before phi' on each; a sweep's truth keeps its values per point
    set, so there it is evaluated once per set.
    """
    system = sol.system
    if quad_points is None:
        quad_points = default_quad_points(system.n)
    basis, coeffs = system.basis, np.stack([sol.u, sol.u_star])

    def norms(norm, *args):
        """norm(e, *args) and norm(e*, *args): both calls pass the same
        points, and e interpolates the solution there for both."""
        interpolants = []

        def e(theta):
            phi = exact_phi(theta)
            interpolants.extend(interpolate(basis, coeffs, theta))
            return phi - interpolants[0]

        return norm(e, *args), norm(lambda theta: exact_phi_prime(theta) - interpolants[1], *args)

    l2_e, l2_estar = norms(weighted_l2_norm, system.alpha_c, system.beta_c, 1.0, quad_points)
    grid_e, grid_estar = norms(sup_norm, ERROR_GRID)
    nodes = basis.nodes
    nodes_e = sup_norm(lambda theta: exact_phi(theta) - sol.u, nodes)
    nodes_estar = sup_norm(lambda theta: exact_phi_prime(theta) - sol.u_star, nodes)
    # np.maximum, unlike max, keeps a NaN of either part
    return ErrorReport(n=system.n, lam=system.lam, l2_e=l2_e,
                       linf_e=float(np.maximum(grid_e, nodes_e)), l2_estar=l2_estar,
                       linf_estar=float(np.maximum(grid_estar, nodes_estar)))


@dataclass(frozen=True)
class ReferenceSolution:
    """High-resolution solve standing in for an unknown exact solution."""

    phi: callable
    phi_prime: callable
    lam: float
    n_ref: int


def check_reference_gap(n_ref, n_values):
    """Raise ValueError naming the first n of n_values that a reference of
    degree n_ref does not exceed by REFERENCE_GAP; callable before the
    reference is solved."""
    for n in n_values:
        if n > n_ref - REFERENCE_GAP:
            raise ValueError(f"reference at n_ref={n_ref} is too close to n={n} "
                             f"(need n <= n_ref - {REFERENCE_GAP})")


def self_reference(spec, lambda_ref, n_ref, alpha_c=-0.5, beta_c=-0.5):
    """Solve once at (lambda_ref, n_ref) and wrap the result as a surrogate
    exact solution for problems without a closed form.

    phi and phi_prime are sol.evaluate and sol.evaluate_derivative, which
    evaluate the reference basis on each call; a sweep keeps their values
    per point set.
    """
    sol = solve(assemble(transform(spec), n_ref, lambda_ref, alpha_c, beta_c))
    return ReferenceSolution(phi=sol.evaluate, phi_prime=sol.evaluate_derivative,
                             lam=lambda_ref, n_ref=n_ref)


def classify_decay(ns, errs, floor=0.0):
    """Label an error sequence exponential/algebraic/inconclusive.

    Fits log(err) linearly against N and against log N, leaving out errors
    at or below floor (round-off). The higher-R^2 fit wins provided it is
    nearly perfect (R^2 >= 1 - R2_MARGIN); anything less, too few points,
    or a largest error at or below NOISE_FLOOR is inconclusive.
    Returns (label, slope-of-winning-fit).
    """
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > floor
    ns, errs = ns[keep], errs[keep]
    if len(ns) < MIN_FIT_POINTS or float(np.max(errs)) <= NOISE_FLOOR:
        return "inconclusive", math.nan
    log_err = np.log(errs)

    def fit(x):
        # the least-squares line in closed form, about the means
        dx, dy = x - x.mean(), log_err - log_err.mean()
        slope = float(dx @ dy) / float(dx @ dx)
        total = float(dy @ dy)
        if total == 0.0:
            return 1.0, slope
        resid = dy - slope * dx
        return 1.0 - float(resid @ resid) / total, slope

    r2_exp, slope_exp = fit(ns)
    r2_alg, slope_alg = fit(np.log(ns))
    winner_r2 = max(r2_exp, r2_alg)
    if winner_r2 < 1.0 - R2_MARGIN:
        return "inconclusive", math.nan
    if r2_exp > r2_alg:
        return "exponential", slope_exp
    return "algebraic", slope_alg


def sweep(spec, lam, n_values, alpha_c=-0.5, beta_c=-0.5, reference=None, quad_points=None):
    """Solve over an ascending N grid and classify the L2 error decay.

    Uses spec.exact (transformed) as truth, or the supplied
    ReferenceSolution. The reports look the truth up in one dict that
    lives for this call, keyed by the exact bits of each point set and
    holding the read-only (phi, phi') there, so the truth is evaluated
    once per distinct point set: the error grid, each rule size and each
    degree's nodes. The dict keeps every set until the sweep returns:
    161,862 points (3.9 MB of points and values) for N = 2..256 with the
    default rules. One failing degree is recorded and skipped.
    quad_points fixes the error-norm rule size; by default it grows with N
    (default_quad_points). Cells at or below the round-off floors
    (SweepResult.floor_e, floor_estar) are left out of the fit.
    """
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    tp = transform(spec)
    if reference is not None:
        check_reference_gap(reference.n_ref, n_values)
        truth = reference.phi, reference.phi_prime
    elif tp.phi is not None and tp.phi_prime is not None:
        truth = tp.phi, tp.phi_prime
    else:
        raise ValueError(f"problem {spec.name!r} has no exact solution; supply a reference")

    values = {}    # (shape, bytes) of a point set -> read-only (phi, phi') there

    def truth_at(theta):
        key = theta.shape, theta.tobytes()
        if key not in values:
            values[key] = tuple(f(theta) for f in truth)
            for v in values[key]:
                if isinstance(v, np.ndarray):
                    v.flags.writeable = False
        return values[key]

    phi, phi_prime = (lambda theta: truth_at(theta)[0]), (lambda theta: truth_at(theta)[1])
    rows, failures = [], []
    for n in n_values:
        try:
            sol = solve(assemble(tp, n, lam, alpha_c, beta_c))
            rows.append(error_report(sol, phi, phi_prime, quad_points))
        except (ValueError, RuntimeError) as err:
            failures.append((n, str(err)))
    # ROUND_OFF times the largest finite |phi| and |phi'| on the grid, which
    # every report visited
    floor_e, floor_estar = ((ROUND_OFF * float(np.fmax.reduce(np.abs(np.ravel(v))))
                             for v in truth_at(ERROR_GRID)) if rows else (0.0, 0.0))
    label, rate = classify_decay([r.n for r in rows], [r.l2_e for r in rows], floor_e)
    return SweepResult(problem=spec.name, lam=float(lam), rows=tuple(rows),
                       rate_class=label, fitted_rate=rate, failures=tuple(failures),
                       floor_e=floor_e, floor_estar=floor_estar)


CSV_HEADER = "N,L2_e,Linf_e,L2_estar,Linf_estar"
_FIELDS = ("l2_e", "linf_e", "l2_estar", "linf_estar")
_TEXT_LABELS = ("L2_e", "Linf_e", "L2_estar", "Linf_estar")


def emit_table(result, fmt="csv"):
    """Render a SweepResult as CSV or as an aligned text table.

    CSV has one row per N with 6-significant-digit scientific notation;
    the text layout mirrors the usual convergence-table convention of one
    row per norm with N across the columns.
    """
    if not result.rows:
        raise ValueError("empty sweep result")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in result.rows:
            lines.append(",".join([str(row.n)] + [f"{getattr(row, f):.5e}" for f in _FIELDS]))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        width = 13
        header = "N".ljust(10) + "".join(str(r.n).rjust(width) for r in result.rows)
        lines = [header]
        for label, field in zip(_TEXT_LABELS, _FIELDS):
            lines.append(label.ljust(10)
                         + "".join(f"{getattr(r, field):.5e}".rjust(width) for r in result.rows))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r} (use csv or text)")


def sweep_filename(result):
    """Canonical CSV file name for a sweep."""
    return f"{result.problem}_{result.lam:g}_sweep.csv"

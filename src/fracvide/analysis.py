"""Error measurement, convergence sweeps, and decay-rate classification.

Errors are reported in the grid sup norm and the weighted L2 norm with the
collocation weight (exponents alpha_c, beta_c, plain variable), for both
the solution interpolant and the separate derivative interpolant. A sweep
solves over an ascending N grid and labels the decay exponential or
algebraic by comparing linear fits of log(err) against N and against
log N; the better fit wins provided its R^2 is within 0.02 of a perfect
fit, otherwise the result is inconclusive.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .collocate import assemble, solve
from .fracbasis import default_error_grid, interpolate, sup_norm, weighted_l2_norm
from .problem import transform

R2_MARGIN = 0.02   # winning fit must have R^2 >= 1 - R2_MARGIN
MIN_FIT_POINTS = 4
NOISE_FLOOR = 1e-11
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

    def restricted(self, ns):
        """This sweep cut down to the degrees ns: their rows and failures,
        with the decay classified again from those rows alone."""
        keep = set(ns)
        rows = tuple(row for row in self.rows if row.n in keep)
        label, rate = classify_decay([r.n for r in rows], [r.l2_e for r in rows])
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
    assembled with; the sup norms use the default_error_grid.
    """
    system = sol.system
    if quad_points is None:
        quad_points = default_quad_points(system.n)
    grid = default_error_grid(system.basis)
    e, estar = _error_functions(sol, exact_phi, exact_phi_prime)
    # e and e* in turn on each point set, so that they share its basis matrix
    l2_e = weighted_l2_norm(e, system.alpha_c, system.beta_c, 1.0, quad_points)
    l2_estar = weighted_l2_norm(estar, system.alpha_c, system.beta_c, 1.0, quad_points)
    linf_e = sup_norm(e, grid)
    linf_estar = sup_norm(estar, grid)
    return ErrorReport(n=system.n, lam=system.lam, l2_e=l2_e, linf_e=linf_e,
                       l2_estar=l2_estar, linf_estar=linf_estar)


def _error_functions(sol, exact_phi, exact_phi_prime):
    """e = phi - phi_N and e* = phi' - phi*_N as functions of theta."""
    interpolants = _latest_interpolants(sol)
    return (lambda theta: exact_phi(theta) - interpolants(theta)[0],
            lambda theta: exact_phi_prime(theta) - interpolants(theta)[1])


def _latest_interpolants(sol):
    """theta -> (phi_N(theta), phi*_N(theta)), stacked.

    phi_N and phi*_N are interpolated together, from one basis matrix, and
    kept for the latest points, so taking one and then the other on the
    same points evaluates the basis there once. The kept values are
    read-only, since each call on those points hands out the same array.
    """
    coeffs = np.stack([sol.u, sol.u_star])
    latest = [None, None]                     # points, interpolants there

    def interpolants(theta):
        if latest[0] is None or not np.array_equal(latest[0], theta):
            values = interpolate(sol.system.basis, coeffs, theta)
            values.flags.writeable = False
            latest[:] = np.array(theta), values
        return latest[1]

    return interpolants


@dataclass(frozen=True)
class ReferenceSolution:
    """High-resolution solve standing in for an unknown exact solution."""

    phi: callable
    phi_prime: callable
    lam: float
    n_ref: int

    def check_comparable(self, n):
        if n > self.n_ref - REFERENCE_GAP:
            raise ValueError(
                f"reference at n_ref={self.n_ref} is too close to n={n} "
                f"(need n <= n_ref - {REFERENCE_GAP})")


def self_reference(spec, lambda_ref, n_ref, alpha_c=-0.5, beta_c=-0.5):
    """Solve once at (lambda_ref, n_ref) and wrap the result as a surrogate
    exact solution for problems without a closed form.

    phi and phi_prime give sol.evaluate and sol.evaluate_derivative bit for
    bit; they share one basis evaluation per point set, so an error report
    taking both on the same points evaluates the reference basis once.
    """
    sol = solve(assemble(transform(spec), n_ref, lambda_ref, alpha_c, beta_c))
    interpolants = _latest_interpolants(sol)
    return ReferenceSolution(phi=lambda theta: interpolants(theta)[0],
                             phi_prime=lambda theta: interpolants(theta)[1],
                             lam=lambda_ref, n_ref=n_ref)


def classify_decay(ns, errs):
    """Label an error sequence exponential/algebraic/inconclusive.

    Fits log(err) linearly against N and against log N. The higher-R^2 fit
    wins provided it is nearly perfect (R^2 >= 1 - R2_MARGIN); anything
    less, too few points, or errors at the rounding floor is inconclusive.
    Returns (label, slope-of-winning-fit).
    """
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0.0
    ns, errs = ns[keep], errs[keep]
    if len(ns) < MIN_FIT_POINTS or float(np.max(errs)) <= NOISE_FLOOR:
        return "inconclusive", math.nan
    log_err = np.log(errs)

    def fit(x):
        slope, intercept = np.polyfit(x, log_err, 1)
        resid = log_err - (slope * x + intercept)
        total = float(np.sum((log_err - log_err.mean()) ** 2))
        if total == 0.0:
            return 1.0, slope
        return 1.0 - float(np.sum(resid ** 2)) / total, slope

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
    ReferenceSolution; one failing degree is recorded and skipped.
    quad_points fixes the error-norm rule size; by default it grows with N
    (default_quad_points).
    """
    n_values = list(n_values)
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    tp = transform(spec)
    if reference is not None:
        for n in n_values:
            reference.check_comparable(n)
        phi, phi_prime = reference.phi, reference.phi_prime
    elif tp.phi is not None and tp.phi_prime is not None:
        phi, phi_prime = tp.phi, tp.phi_prime
    else:
        raise ValueError(f"problem {spec.name!r} has no exact solution; supply a reference")

    rows, failures = [], []
    for n in n_values:
        try:
            sol = solve(assemble(tp, n, lam, alpha_c, beta_c))
            rows.append(error_report(sol, phi, phi_prime, quad_points))
        except (ValueError, RuntimeError) as err:
            failures.append((n, str(err)))
    label, rate = classify_decay([r.n for r in rows], [r.l2_e for r in rows])
    return SweepResult(problem=spec.name, lam=float(lam), rows=tuple(rows),
                       rate_class=label, fitted_rate=rate, failures=tuple(failures))


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

"""Problem definitions for the delayed weakly singular VIDE

    t^gamma y'(t) = p(t) y(t) + q(t) y(eps*t) + g(t)
        + int_0^t (t-s)^-mu s^(mu+gamma-1) K1(t,s) y(s) ds
        + eps^-gamma int_0^(eps*t) (eps*t-u)^-mu u^(mu+gamma-1) K2(t,u) y(u) du

on [0, T] with y(0) = y0, where 0 <= mu < 1, gamma > 0, mu + gamma >= 1
and 0 < eps <= 1. Includes the five built-in benchmark problems, a
manufactured-forcing oracle that back-computes g from a prescribed exact
solution, the theta-domain transformation, and a key=value config-file
loader for user problems written in the expression language.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import exprlang
from .fracbasis import sample_values
from .specfun import frac_gauss_jacobi


@dataclass(frozen=True)
class ProblemSpec:
    """One VIDE instance.

    Coefficient functions take numpy arrays and evaluate elementwise (the
    kernels broadcast their two arguments); a constant result is broadcast.
    Scalar-only code, such as a math.sin call, can be adapted with
    numpy.vectorize; assemble rejects a callable that raises TypeError on
    arrays, naming the coefficient.
    """

    mu: float
    gamma: float
    eps: float
    T: float
    y0: float
    p: callable
    q: callable
    g: callable
    K1: callable       # (t, s)
    K2: callable       # (t, tau)
    exact: callable = None
    exact_prime: callable = None
    name: str = ""


def validate(spec):
    """Collect all violated parameter constraints; empty list means valid."""
    problems = []
    if not 0.0 <= spec.mu < 1.0:
        problems.append(f"mu must lie in [0, 1), got {spec.mu}")
    if spec.gamma <= 0.0:
        problems.append(f"gamma must be positive, got {spec.gamma}")
    if spec.mu + spec.gamma < 1.0:
        problems.append(f"mu + gamma must be >= 1, got {spec.mu + spec.gamma}")
    if not 0.0 < spec.eps <= 1.0:
        problems.append(f"eps must lie in (0, 1], got {spec.eps}")
    if spec.T <= 0.0:
        problems.append(f"T must be positive, got {spec.T}")
    # the range tests above already reject a non-finite mu or eps
    for name in ("gamma", "T", "y0"):
        value = getattr(spec, name)
        if not math.isfinite(value):
            problems.append(f"{name} must be finite, got {value}")
    return problems


@dataclass(frozen=True)
class TransformedProblem:
    """The same problem rescaled to theta = t/T in [0, 1].

    p1, q1, g1 are the theta-domain coefficients T * t^-gamma * (coef)(t)
    at t = T*theta; they are defined for theta > 0 only (the coefficients
    of the divided-through equation may blow up at the origin). kbar1 and
    kbar2 absorb the factor T; kbar2's second argument is the delayed
    integration variable.
    """

    mu: float
    gamma: float
    eps: float
    T: float
    y0: float
    p1: callable
    q1: callable
    g1: callable
    kbar1: callable
    kbar2: callable
    phi: callable = None
    phi_prime: callable = None
    name: str = ""


def transform(spec):
    """Map a validated ProblemSpec from [0, T] to the unit theta interval."""
    errors = validate(spec)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    T, gam = spec.T, spec.gamma
    p, q, g, K1, K2 = spec.p, spec.q, spec.g, spec.K1, spec.K2

    def scale(f):
        return lambda theta: T * (T * theta) ** (-gam) * f(T * theta)

    phi = (lambda theta: spec.exact(T * theta)) if spec.exact else None
    phi_prime = (lambda theta: T * spec.exact_prime(T * theta)) if spec.exact_prime else None
    return TransformedProblem(
        mu=spec.mu, gamma=gam, eps=spec.eps, T=T, y0=spec.y0,
        p1=scale(p), q1=scale(q), g1=scale(g),
        kbar1=lambda theta, eta: T * K1(T * theta, T * eta),
        kbar2=lambda theta, u: T * K2(T * theta, T * u),
        phi=phi, phi_prime=phi_prime, name=spec.name,
    )


def kernel_samples(K, t, pts):
    """Evaluate K(t, s) for s in pts.

    t is a scalar or an array that broadcasts against pts (a column of
    nodes for a matrix of points); the result has the broadcast shape.
    """
    return sample_values(K, t, pts)


def manufactured_g(spec, n_quad=200):
    """Forcing term that makes spec.exact solve the equation.

    Both weakly singular integrals are mapped to [0, 1] and evaluated with
    an n_quad-point Gauss-Jacobi rule whose weight matches the singular
    factors (alpha = -mu, beta = mu+gamma-1); the t^gamma prefactors cancel
    analytically so no singular value is ever formed. The returned g takes
    a scalar or an array of t.
    """
    if spec.exact is None or spec.exact_prime is None:
        raise ValueError("manufactured forcing requires exact and exact_prime")
    rule = frac_gauss_jacobi(n_quad, -spec.mu, spec.mu + spec.gamma - 1.0, 1.0)
    xi, w = rule.nodes, rule.weights
    y, yp, p, q = spec.exact, spec.exact_prime, spec.p, spec.q
    K1, K2, eps, gam = spec.K1, spec.K2, spec.eps, spec.gamma

    def g(t):
        t = np.asarray(t, dtype=float)
        col = t[..., None]                  # one row of quadrature points per t
        s = col * xi
        tau = eps * col * xi
        i1 = np.sum(w * kernel_samples(K1, col, s) * sample_values(y, s), axis=-1)
        i2 = np.sum(w * kernel_samples(K2, col, tau) * sample_values(y, tau), axis=-1)
        out = (t ** gam * (sample_values(yp, t) - i1 - i2)
               - sample_values(p, t) * sample_values(y, t)
               - sample_values(q, t) * sample_values(y, eps * t))
        return float(out) if out.ndim == 0 else out

    return g


def builtin(name, gamma_override=None):
    """One of the five built-in benchmark problems ex1..ex5.

    ex1..ex3 carry known exact solutions and manufactured forcing; ex4/ex5
    have unknown solutions and are meant for the self-reference pipeline.
    gamma_override adjusts ex1, whose exponent is otherwise fixed at 1.
    """
    if name == "ex1":
        mu = 0.5
        gam = 1.0 if gamma_override is None else float(gamma_override)
        spec = ProblemSpec(
            mu=mu, gamma=gam, eps=0.5, T=1.0, y0=0.0,
            p=lambda t: t ** (5.0 / 3.0),
            q=lambda t: t ** (5.0 / 3.0),
            g=None,
            K1=lambda t, s: np.exp(s ** (1.0 - mu)),
            K2=lambda t, s: np.exp(s ** (1.0 - mu)),
            exact=lambda t: t * np.exp(-(t ** (1.0 - mu))),
            exact_prime=lambda t: np.exp(-(t ** (1.0 - mu))) * (1.0 - (1.0 - mu) * t ** (1.0 - mu)),
            name="ex1",
        )
        return replace(spec, g=manufactured_g(spec))
    if gamma_override is not None:
        raise ValueError("gamma_override only applies to ex1")
    if name in ("ex2", "ex3"):
        mu, c = 1.0 / 3.0, math.sqrt(3.0) / (3.0 * math.pi)
        kern = lambda t, s: c * np.exp(s)
        if name == "ex2":
            spec = ProblemSpec(
                mu=mu, gamma=1.0, eps=0.66, T=0.5, y0=0.0,
                p=lambda t: t ** (5.0 / 3.0),
                q=lambda t: t ** (5.0 / 3.0),
                g=None, K1=kern, K2=kern,
                exact=lambda t: t ** (1.0 + mu) * np.exp(-t),
                exact_prime=lambda t: np.exp(-t) * t ** mu * (1.0 + mu - t),
                name="ex2",
            )
        else:
            w1, w2 = 0.5, math.sqrt(2.0)
            spec = ProblemSpec(
                mu=mu, gamma=1.0, eps=0.66, T=1.0, y0=0.0,
                p=lambda t: t ** (5.0 / 3.0),
                q=lambda t: t ** (5.0 / 3.0),
                g=None, K1=kern, K2=kern,
                exact=lambda t: (t ** (1.0 + w1) + t ** (1.0 + w2)) * np.exp(-t),
                exact_prime=lambda t: np.exp(-t) * (t ** w1 * (1.0 + w1 - t) + t ** w2 * (1.0 + w2 - t)),
                name="ex3",
            )
        return replace(spec, g=manufactured_g(spec))
    if name in ("ex4", "ex5"):
        mu = 0.5 if name == "ex4" else 2.0 - math.sqrt(2.0)
        return ProblemSpec(
            mu=mu, gamma=1.0, eps=0.5, T=0.5, y0=3.0,
            p=lambda t: t ** 1.5 * np.cos(t),
            q=lambda t: t ** 1.5 * np.exp(-t),
            g=lambda t: np.sin(2.0 * t),
            K1=lambda t, s: -(s ** (1.0 + mu)) * (1.0 + np.sin(t * s)),
            K2=lambda t, s: s ** (1.0 + mu) * (1.0 + np.cos(t * s)),
            name=name,
        )
    raise KeyError(f"unknown problem {name!r}")


BUILTIN_NAMES = ("ex1", "ex2", "ex3", "ex4", "ex5")


_SCALAR_KEYS = ("mu", "gamma", "eps", "T", "y0")
_FUNCTION_KEYS = {"p": ("t",), "q": ("t",), "g": ("t",),
                  "K1": ("t", "s"), "K2": ("t", "tau"),
                  "exact": ("t",), "exact_prime": ("t",)}


def parse_problem_config(text, name="config"):
    """Build a ProblemSpec from flat key = expression text.

    Recognized keys: mu, gamma, eps, T, y0 (scalar expressions) and
    p, q, g, K1, K2, exact, exact_prime (function expressions over t, and
    s/tau for the kernels). mu, gamma, eps, T, y0, pi and e are constants
    in the function expressions, folded in when each is compiled; any
    other name is an error at load. A missing K1 or K2 is 0. Supply either
    g, or exact with exact_prime (the forcing is then manufactured); giving
    both is an error.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = expression")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCALAR_KEYS and key not in _FUNCTION_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValueError(f"line {lineno}: empty value for {key!r}")
        entries[key] = (value, lineno)

    missing = [k for k in _SCALAR_KEYS if k not in entries]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    scalars = {}
    for key in _SCALAR_KEYS:
        value, lineno = entries[key]
        try:
            scalars[key] = exprlang.evaluate(exprlang.parse(value))
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad value for {key}: {err}") from err

    def make_fn(key, default=None):
        """key's expression, or default when key is absent, compiled with the
        scalars as constants."""
        value, lineno = entries.get(key, (default, None))
        try:
            return exprlang.compile_function(value, _FUNCTION_KEYS[key], scalars)
        except ValueError as err:
            raise ValueError(f"line {lineno}: bad expression for {key}: {err}") from err

    fns = {}
    for key in ("p", "q"):
        if key not in entries:
            raise ValueError(f"missing required key {key!r}")
        fns[key] = make_fn(key)
    for key in ("K1", "K2"):
        fns[key] = make_fn(key, default="0")

    has_exact = "exact" in entries
    if has_exact != ("exact_prime" in entries):
        raise ValueError("exact and exact_prime must be given together")
    if has_exact and "g" in entries:
        raise ValueError("give either g or an exact solution (g is then manufactured), not both")
    if not has_exact and "g" not in entries:
        raise ValueError("a forcing term is required: give g, or exact with exact_prime")

    spec = ProblemSpec(
        mu=scalars["mu"], gamma=scalars["gamma"], eps=scalars["eps"],
        T=scalars["T"], y0=scalars["y0"],
        p=fns["p"], q=fns["q"],
        g=make_fn("g") if "g" in entries else None,
        K1=fns["K1"], K2=fns["K2"],
        exact=make_fn("exact") if has_exact else None,
        exact_prime=make_fn("exact_prime") if has_exact else None,
        name=name,
    )
    errors = validate(spec)
    if errors:
        raise ValueError("invalid problem: " + "; ".join(errors))
    if has_exact:
        spec = replace(spec, g=manufactured_g(spec))
    return spec


def load_problem(path):
    """Read a problem config file, in UTF-8 with or without a byte-order
    mark; the file stem becomes the problem name."""
    import os

    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    return parse_problem_config(text, name=os.path.splitext(os.path.basename(path))[0])

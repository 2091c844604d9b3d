"""Spans around the public functions of fracvide, recorded from outside.

A function is wrapped at every module that binds it, because `from .x import f`
copies the binding: `fracvide.collocate.basis_matrix` is wrapped as well as
`fracvide.fracbasis.basis_matrix`. Factories whose products do the work
(`problem.manufactured_g`, `exprlang.compile_function`) are wrapped so that each
closure they return is a span. Self time is a span's duration minus the
durations of the spans it encloses.

Untraced runs wrap only the four calls that the end-to-end metrics need
(assemble, solve, error_report, self_reference) and log each call's inclusive
time; traced runs add every layer and keep per-layer counts.
"""

import resource
import sys
from time import perf_counter

# (span name, function name, modules binding it; "" is the package itself)
CORE = (
    ("collocate.assemble", "assemble", ("collocate", "analysis", "cli", "")),
    ("collocate.solve", "solve", ("collocate", "analysis", "cli", "")),
    ("analysis.error_report", "error_report", ("analysis", "cli", "")),
    ("analysis.reference", "self_reference", ("analysis", "cli", "")),
)
LAYERS = (
    ("specfun.rule", "frac_gauss_jacobi", ("specfun", "fracbasis", "problem", "collocate", "")),
    ("fracbasis.build_basis", "build_basis", ("fracbasis", "collocate", "")),
    ("fracbasis.basis_matrix", "basis_matrix", ("fracbasis", "collocate", "")),
    ("fracbasis.norm", "weighted_l2_norm", ("fracbasis", "analysis", "")),
    ("fracbasis.norm", "sup_norm", ("fracbasis", "analysis", "")),
    ("problem.kernel_samples", "kernel_samples", ("problem", "collocate")),
    ("analysis.sweep", "sweep", ("analysis", "cli", "")),
)
FACTORIES = (
    ("problem.forcing", "manufactured_g", ("problem", "")),
    ("exprlang.eval", "compile_function", ("exprlang",)),
)


def _event(name, args, result):
    """(kind, problem name, degree) of a logged call, or None."""
    if name == "collocate.assemble":
        return "assemble", result.tp.name, result.n
    if name == "collocate.solve":
        return "solve", result.system.tp.name, result.system.n
    if name == "analysis.error_report":
        return "error_report", args[0].system.tp.name, result.n
    if name == "analysis.reference":
        return "reference", args[0].name, result.n_ref
    return None


class Tracer:
    """Records spans in memory; `reset` starts a new pass."""

    def __init__(self, traced):
        self.traced = traced
        self.stack = []
        self.on_solve = None      # callback(solution), set while capturing
        self.reset()

    def reset(self):
        self.events = []          # [kind, problem, n, inclusive seconds]
        self.layers = {}          # span name -> {"calls", "self_s", extra counters}
        self.attempted = 0        # solves attempted (assemble calls)
        self.failed = 0           # assemble or solve calls that raised

    def _account(self, name, seconds, extra):
        rec = self.layers.setdefault(name, {"calls": 0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += seconds
        for key, value in extra.items():
            rec[key] = rec.get(key, 0) + value

    def span(self, name, fn):
        traced = self.traced
        is_assemble = name == "collocate.assemble"
        is_solve = name == "collocate.solve"

        def wrapped(*args, **kwargs):
            if is_assemble:
                self.attempted += 1
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if traced else 0
            self.stack.append(0.0)
            result, ok = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dt
                if not ok and (is_assemble or is_solve):
                    self.failed += 1
                event = _event(name, args, result) if ok else None
                if event is not None:
                    self.events.append([*event, dt])
                    if is_solve and self.on_solve is not None:
                        self.on_solve(result)
                if traced:
                    extra = {}
                    if is_assemble:
                        extra["minor_faults"] = (
                            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
                    elif ok and is_solve:
                        extra["lu_flops"] = 2.0 / 3.0 * (result.system.n + 1) ** 3
                    elif ok and name == "specfun.rule":
                        extra["points"] = int(result.n_points)
                    elif ok and name == "fracbasis.basis_matrix":
                        extra["entries"] = int(result.size)
                    elif ok and name == "exprlang.eval":
                        extra["evals"] = 1
                    # the reference solve is reported whole, not as self time
                    whole = name == "analysis.reference"
                    self._account(name, dt if whole else dt - child, extra)

        return wrapped

    def _factory(self, name, make):
        return lambda *args, **kwargs: self.span(name, make(*args, **kwargs))

    def install(self):
        """Wrap the bindings in the imported fracvide modules; refuse to run
        if a binding is not the function the benchmark expects."""
        tables = [(CORE, self.span)]
        if self.traced:
            tables += [(LAYERS, self.span), (FACTORIES, self._factory)]
        for table, wrap in tables:
            for name, attr, modules in table:
                mods = [sys.modules["fracvide." + m if m else "fracvide"] for m in modules]
                original = getattr(mods[0], attr)
                if any(getattr(m, attr) is not original for m in mods):
                    raise RuntimeError(f"fracvide binds {attr} to different objects")
                wrapped = wrap(name, original)
                for m in mods:
                    setattr(m, attr, wrapped)

"""Command-line driver: solve one discretization, sweep over N, or
reproduce the built-in benchmark tables.

All flags are explicit long options so invocations read as documentation.
Data goes to files and standard output; progress and errors go to the
error stream, and the exit status is 0 only when everything succeeded.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .analysis import (check_reference_gap, emit_table, error_report, self_reference, sweep,
                       sweep_filename)
from .collocate import assemble, solve
from .problem import BUILTIN_NAMES, builtin, load_problem, transform
from .refdata import BENCHMARKS


class CliError(Exception):
    pass


def _load_spec(args):
    name = args.problem
    if args.gamma_override is not None and name != "ex1":
        raise CliError("--gamma-override only applies to ex1")
    if name in BUILTIN_NAMES:
        return builtin(name, gamma_override=args.gamma_override)
    if os.path.exists(name):
        return load_problem(name)
    raise CliError(f"unknown problem {name!r} (not a builtin or a config file)")


def _parse_n_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"bad N range {text!r}, expected start:step:stop")
    try:
        start, step, stop = (int(p) for p in parts)
    except ValueError:
        raise CliError(f"bad N range {text!r}, entries must be integers") from None
    if step <= 0:
        raise CliError(f"bad N range {text!r}, step must be positive")
    if stop < start or start < 0:
        raise CliError(f"bad N range {text!r}, need 0 <= start <= stop")
    return list(range(start, stop + 1, step))


def _int_at_least(least, kind):
    """argparse type of an integer no smaller than least; its error message
    asks for a kind integer ("positive", "nonnegative")."""
    def parse(text):
        if not text.isdecimal() or int(text) < least:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return int(text)

    return parse


def _lambda(text):
    """argparse type of a fractional exponent: a number in (0, 1], so not NaN."""
    try:
        if 0.0 < float(text) <= 1.0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text!r}")


def _check_output_dir(args):
    """Fail before any solve when the directory that output goes to is missing:
    --out itself for reproduce, the parent of the --out file otherwise."""
    if args.out is None:
        return
    directory = args.out if args.command == "reproduce" else os.path.dirname(args.out) or "."
    if not os.path.isdir(directory):
        raise CliError(f"output directory {directory!r} does not exist or is not a directory")


def _check_failures(result):
    """Print each degree the sweep could not solve, then raise CliError
    naming them all; the output written before holds the other degrees."""
    for n, message in result.failures:
        print(f"n={n} failed: {message}", file=sys.stderr)
    if result.failures:
        failed = ", ".join(str(n) for n, _ in result.failures)
        raise CliError(f"{result.problem}: failed at n = {failed}; their rows are left out")


def _report_lines(rep):
    return (f"n={rep.n} lambda={rep.lam:g} "
            f"L2_e={rep.l2_e:.5e} Linf_e={rep.linf_e:.5e} "
            f"L2_estar={rep.l2_estar:.5e} Linf_estar={rep.linf_estar:.5e}")


def _left_out(count):
    """The note on cells at the round-off floor, left out of a fit or band."""
    if not count:
        return ""
    return f"; {count} cell{'' if count == 1 else 's'} at round-off left out"


def _classification(result):
    """The line naming a sweep's decay verdict, its rate, and the cells at
    the round-off floor that its fit leaves out."""
    rate = f"{result.fitted_rate:.3f}" if result.rate_class != "inconclusive" else "n/a"
    below = sum(not row.l2_e > result.floor_e for row in result.rows)
    return f"classification: {result.rate_class} (fitted rate {rate}{_left_out(below)})"


def _ratio_band(cells, floor):
    """The ratios computed / benchmark of a table's (norm, N, computed,
    benchmark) cells that are above the round-off floor, and how many
    cells are left out."""
    ratios = [ours / bench_val for _, _, ours, bench_val in cells if ours > floor]
    return ratios, len(cells) - len(ratios)


def run_solve(args):
    spec = _load_spec(args)
    tp = transform(spec)
    sol = solve(assemble(tp, args.n, args.lam, args.alpha, args.beta))
    t_samples = np.linspace(0.0, spec.T, 201)
    payload = {
        "problem": spec.name or args.problem,
        "n": args.n,
        "lambda": args.lam,
        "alpha": args.alpha,
        "beta": args.beta,
        "nodes": sol.system.basis.nodes.tolist(),
        "u": sol.u.tolist(),
        "u_star": sol.u_star.tolist(),
        "v": sol.v.tolist(),
        "t": t_samples.tolist(),
        "y": sol.to_physical(t_samples).tolist(),
    }
    out = args.out or f"{payload['problem']}_{args.lam:g}_n{args.n}_solution.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    if tp.phi is not None:
        rep = error_report(sol, tp.phi, tp.phi_prime, args.quad_points)
        print(_report_lines(rep))
    return 0


def run_sweep(args):
    spec = _load_spec(args)
    n_values = _parse_n_range(args.n)
    reference = None
    if spec.exact is None:
        check_reference_gap(args.ref_n, n_values)    # before the reference is solved
        print(f"no exact solution; solving reference (lambda={args.ref_lambda:g}, "
              f"n={args.ref_n})", file=sys.stderr)
        reference = self_reference(spec, args.ref_lambda, args.ref_n, args.alpha, args.beta)
    result = sweep(spec, args.lam, n_values, args.alpha, args.beta,
                   reference=reference, quad_points=args.quad_points)
    if not result.rows:
        _check_failures(result)     # every degree failed: write no file
    text = emit_table(result, args.format)
    out = args.out or sweep_filename(result)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {out}", file=sys.stderr)
    print(_classification(result))
    _check_failures(result)
    return 0


def run_reproduce(args):
    name = args.problem
    if name not in BENCHMARKS:
        raise CliError(f"unknown problem {name!r} (reproduce covers {', '.join(BENCHMARKS)})")
    bench = BENCHMARKS[name]
    spec = builtin(name)
    lam = bench["lam"]
    reference = None
    if "reference" in bench:
        ref_cfg = bench["reference"]
        print(f"solving reference (lambda={ref_cfg['lam']:g}, n={ref_cfg['n']})", file=sys.stderr)
        reference = self_reference(spec, ref_cfg["lam"], ref_cfg["n"], args.alpha, args.beta)

    # one sweep over every degree either table needs; each table keeps its own
    result = sweep(spec, lam, sorted(set(bench["e"]["n"]) | set(bench["estar"]["n"])),
                   args.alpha, args.beta, reference=reference, quad_points=args.quad_points)

    outputs = []
    summary = []   # (part, cells of that table: (norm, N, computed, benchmark), floor)
    for part, fields, floor in (("e", ("l2_e", "linf_e"), result.floor_e),
                                ("estar", ("l2_estar", "linf_estar"), result.floor_estar)):
        table = result.restricted(bench[part]["n"])
        if table.rows:
            out = os.path.join(args.out or ".", f"{name}_{lam:g}_{part}.csv")
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(emit_table(table, "csv"))
            outputs.append(out)
        by_n = {row.n: row for row in table.rows}
        summary.append((part, [(norm_key, n, getattr(by_n[n], field), bench_val)
                               for norm_key, field in zip(("l2", "linf"), fields)
                               for n, bench_val in zip(bench[part]["n"], bench[part][norm_key])
                               if n in by_n], floor))
        if part == "e":
            print(_classification(table))

    for out in outputs:
        print(f"wrote {out}", file=sys.stderr)
    print(f"{'part':<6}{'norm':<6}{'N':>4}  {'computed':>12}  {'benchmark':>12}  {'ratio':>10}")
    for part, cells, floor in summary:
        for norm_key, n, ours, bench_val in cells:
            print(f"{part:<6}{norm_key:<6}{n:>4}  {ours:>12.5e}  {bench_val:>12.5e}  "
                  f"{ours / bench_val:>10.3e}")
        band, left_out = _ratio_band(cells, floor)
        if band:
            print(f"ratio band {part}: {min(band):.3e} to {max(band):.3e} "
                  f"over {len(band)} cells{_left_out(left_out)}")
    _check_failures(result)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracvide",
        description="Fractional Jacobi collocation solver for weakly singular "
                    "delayed Volterra integro-differential equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True,
                       help="builtin name (ex1..ex5) or problem config file path")
        p.add_argument("--alpha", type=float, default=-0.5,
                       help="collocation Jacobi exponent alpha (default -0.5)")
        p.add_argument("--beta", type=float, default=-0.5,
                       help="collocation Jacobi exponent beta (default -0.5)")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--quad-points", type=_int_at_least(1, "positive"), default=None,
                       help="points for the error-norm quadrature "
                            "(default max(200, 4(N+1)))")

    def discretization(p):
        """The flags of solve and sweep; reproduce takes its benchmark's."""
        common(p)
        p.add_argument("--lambda", dest="lam", type=_lambda, default=0.5,
                       help="fractional exponent in (0, 1] (default 0.5)")
        p.add_argument("--gamma-override", type=float, default=None,
                       help="override the ex1 exponent gamma (default 1)")

    p_solve = sub.add_parser("solve", help="solve one (N, lambda) discretization")
    discretization(p_solve)
    p_solve.add_argument("--n", type=_int_at_least(0, "nonnegative"), required=True,
                         help="polynomial degree N")
    p_solve.set_defaults(func=run_solve)

    p_sweep = sub.add_parser("sweep", help="convergence sweep over an N range")
    discretization(p_sweep)
    p_sweep.add_argument("--n", required=True, help="N range start:step:stop")
    p_sweep.add_argument("--format", choices=("csv", "text"), default="csv")
    p_sweep.add_argument("--ref-lambda", type=_lambda, default=0.5,
                         help="reference lambda when no exact solution exists")
    p_sweep.add_argument("--ref-n", type=_int_at_least(0, "nonnegative"), default=18,
                         help="reference degree when no exact solution exists")
    p_sweep.set_defaults(func=run_sweep)

    p_rep = sub.add_parser("reproduce", help="re-run a builtin benchmark and compare")
    common(p_rep)
    p_rep.set_defaults(func=run_reproduce)
    return parser


@functools.cache
def _parser():
    """The parser of main, built on its first call and kept."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        _check_output_dir(args)
        return args.func(args)
    except (CliError, ValueError, RuntimeError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

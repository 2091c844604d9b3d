"""Benchmark of fracvide: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {paper_tables,high_degree,config_problem}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from src/ and run in
fresh interpreters (perfbench/worker.py) with one BLAS thread: first a priming
start that compiles the bytecode, then PROBES set-up-only starts, then the
worker, which runs a warm-up pass and timed passes for S seconds. This process
then checks the outputs against perfbench/checks.py and prints one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Details go to .perfbench/<workload>/result.json (and trace.json).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads
from published import REFERENCE, TABLES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBES = 5

END_TO_END = {"setup_s": "s", "study_s": "s", "solution_s": "s", "time_to_tol_s": "s",
              "peak_rss_mb": "MB", "digits": "count"}
# per-layer metric -> (span, field of its per-pass record, unit)
PER_LAYER = {
    "specfun.rule_calls": ("specfun.rule", "calls", "count"),
    "specfun.rule_points": ("specfun.rule", "points", "count"),
    "specfun.rule_s": ("specfun.rule", "self_s", "s"),
    "analysis.error_report_calls": ("analysis.error_report", "calls", "count"),
    "analysis.error_report_s": ("analysis.error_report", "self_s", "s"),
    "analysis.reference_s": ("analysis.reference", "self_s", "s"),
    "analysis.sweep_s": ("analysis.sweep", "self_s", "s"),
    "fracbasis.norm_s": ("fracbasis.norm", "self_s", "s"),
    "fracbasis.build_basis_s": ("fracbasis.build_basis", "self_s", "s"),
    "fracbasis.basis_matrix_calls": ("fracbasis.basis_matrix", "calls", "count"),
    "fracbasis.basis_entries": ("fracbasis.basis_matrix", "entries", "count"),
    "fracbasis.basis_matrix_s": ("fracbasis.basis_matrix", "self_s", "s"),
    "collocate.assemble_calls": ("collocate.assemble", "calls", "count"),
    "collocate.assemble_s": ("collocate.assemble", "self_s", "s"),
    "collocate.minor_faults": ("collocate.assemble", "minor_faults", "count"),
    "collocate.solve_s": ("collocate.solve", "self_s", "s"),
    "collocate.lu_flops": ("collocate.solve", "lu_flops", "flop"),
    "exprlang.scalar_evals": ("exprlang.eval", "evals", "count"),
    "exprlang.eval_s": ("exprlang.eval", "self_s", "s"),
    "problem.kernel_samples_s": ("problem.kernel_samples", "self_s", "s"),
    "problem.forcing_evals": ("problem.forcing", "calls", "count"),
    "problem.forcing_s": ("problem.forcing", "self_s", "s"),
    "cli.command_s": ("cli.command", "self_s", "s"),
    "cli.output_bytes": (None, "output_bytes", "bytes"),
    "cli.import_s": (None, "import_s", "s"),
}


def start_worker(args, out, setup_only, env):
    """Run worker.py to its end; returns the JSON it printed (set-up only)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", out, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    timeout = 30 if setup_only else args.seconds + 90
    start = time.monotonic()
    proc = subprocess.run(cmd + ["--start", repr(start)] + (["--setup-only"] if setup_only else []),
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    if setup_only:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(out, "worker.json"), encoding="utf-8") as fh:
        return json.load(fh)


def verify(workload, run, out, seed):
    """Independent checks; returns (problem -> {n: L-inf error}, messages).
    A missing CSV, row or captured solution is a message, and its degree is
    left out of the errors."""
    sols = run["solutions"]
    grid = checks.error_grid(seed)
    errors, msgs = {}, list(dict.fromkeys(run["errors"]))
    csvs = {}
    for key, name in workloads.csv_files(workload).items():
        try:
            csvs[key] = checks.read_csv(os.path.join(out, "csv", name))
        except (OSError, ValueError) as err:
            msgs.append(f"{name}: unreadable: {err}")
            csvs[key] = {}

    def outputs(name, part, n):
        """(CSV row, captured solution) of one degree, or None if either is missing."""
        row, sol = csvs[(name, part)].get(n), sols.get(name, {}).get(str(n))
        if row is None or sol is None:
            msgs.append(f"{name} N={n}: no {'CSV row' if row is None else 'solution'}")
            return None
        return row, sol

    def exact_errors(name, n, row, sol):
        own = checks.own_errors(sol, name, grid)
        msgs.extend(checks.check_agreement(f"{name} N={n}", own, row))
        errors.setdefault(name, {})[n] = own["linf_e"]
        return own

    if workload == "paper_tables":
        rng = np.random.default_rng(seed)
        for name, table in TABLES.items():
            ref = sols.get(name, {}).get(str(REFERENCE["n"]))
            if name in checks.EQUATION and ref is None:
                msgs.append(f"{name}: no reference solution")
            for part in ("e", "estar"):
                msgs.extend(checks.check_published(name, part, csvs[(name, part)], table[part]))
                for n in table[part]["n"]:
                    found = outputs(name, part, n)
                    if found is None:
                        continue
                    row, sol = found
                    if name in checks.EXACT:
                        exact_errors(name, n, row, sol)
                        continue
                    if ref is None:
                        continue
                    err = checks.reference_linf(sol, ref, grid)
                    if part == "e":
                        msgs.extend(checks.check_agreement(
                            f"{name} N={n}", {"linf_e": err}, {"Linf_e": row["Linf_e"]}))
                    errors.setdefault(name, {})[n] = err
            if name in checks.EQUATION and ref is not None:
                T = checks.EQUATION[name]["T"]
                msgs.extend(checks.check_residual(name, ref, T * rng.uniform(0.05, 1.0, 4)))
    elif workload == "high_degree":
        for name, slope in workloads.HIGH_DEGREE.items():
            ns, l2 = [], []
            for n in workloads.LADDER:
                found = outputs(name, "e", n)
                if found is None:
                    continue
                row, sol = found
                ns.append(n)
                l2.append(exact_errors(name, n, row, sol)["l2_e"])
                msgs.extend(checks.check_row_sums(f"{name} N={n}", sol))
            if len(ns) >= 2:
                msgs.extend(checks.check_slope(name, ns, l2, slope))
    else:
        name = workloads.CONFIG_NAME
        for n in workloads.CONFIG_DEGREES:
            found = outputs(name, "e", n)
            if found is not None:
                exact_errors(name, n, *found)
        ns = sorted(errors.get(name, {}))
        if len(ns) >= 2:
            msgs.extend(checks.check_decay(name, ns, [errors[name][n] for n in ns]))
    return errors, msgs


def time_to_tol(workload, events, errors):
    """Solve plus error-measurement time of one pass along each problem's
    ascending degrees, up to the first degree whose error meets the tolerance
    (the whole climb when none does); a problem's reference solve counts."""
    first = {}
    for kind, name, n, dt in events:
        first.setdefault((kind, name, n), dt)
    total = 0.0
    for name, ns in workloads.degrees(workload).items():
        total += first.get(("reference", name, REFERENCE["n"]), 0.0)
        for n in ns:
            total += sum(first.get((kind, name, n), 0.0)
                         for kind in ("assemble", "solve", "error_report"))
            if errors.get(name, {}).get(n, math.inf) <= workloads.TOLERANCE[workload]:
                break
    return total


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fracvide", "cli.py")):
        print(f"error: no fracvide sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (os.path.join(ROOT, "src"),
                                                      os.environ.get("PYTHONPATH")) if p))
    try:
        start_worker(args, out, True, env)      # priming start: bytecode, file cache
        probes = [start_worker(args, out, True, env) for _ in range(PROBES)]
        run = start_worker(args, out, False, env)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    errors, msgs = verify(args.workload, run, out, args.seed)
    passes = run["passes"]
    samples = {
        "setup_s": [p["setup_s"] for p in probes] + [run["setup_s"]],
        "study_s": [p["wall_s"] for p in passes],
        "solution_s": [sum(e[3] for e in p["events"] if e[0] in ("assemble", "solve"))
                       for p in passes],
        "time_to_tol_s": [time_to_tol(args.workload, p["events"], errors) for p in passes],
    }
    metrics = {key: statistics.median(v) for key, v in samples.items()}
    metrics["peak_rss_mb"] = run["peak_rss_kb"] / 1024.0
    # a problem without an error at its top degree counts as no digits
    metrics["digits"] = -math.log10(max(errors.get(name, {}).get(ns[-1], 1.0)
                                        for name, ns in workloads.degrees(args.workload).items()))

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": len(passes), "attempted": run["attempted"], "failed": run["failed"],
              "host": {"speed_s": run["host_speed_s"], "cpu_per_wall": run["cpu_per_wall"],
                       "import_s": statistics.median(p["import_s"] for p in probes)},
              "problems": msgs, "errors": errors,
              "quartiles": {k: quartiles(v) for k, v in samples.items()}, "metrics": metrics}
    if args.trace:
        layer_samples = {}
        for metric, (span, field, _) in PER_LAYER.items():
            if field == "import_s":
                layer_samples[metric] = [p["import_s"] for p in probes] + [run["import_s"]]
            elif span is None:
                layer_samples[metric] = [p[field] for p in passes]
            else:
                layer_samples[metric] = [p["layers"].get(span, {}).get(field, 0)
                                         for p in passes]
        reported = {k: (statistics.median(v), PER_LAYER[k][2]) for k, v in layer_samples.items()}
        with open(os.path.join(out, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"study_s": metrics["study_s"], "layers": layer_samples}, fh, indent=1)
    else:
        reported = {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)

    for msg in msgs:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} timed passes, study_s quartiles "
          f"{detail['quartiles']['study_s']}, host {detail['host']}", file=sys.stderr)
    correct = not msgs and run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

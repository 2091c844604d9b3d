"""One workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --start T0 --out DIR
        --seconds N --trace 0|1 [--setup-only]

T0 is the parent's time.monotonic() just before it started this process, so
the set-up time runs from the start of the process. Set-up imports fracvide.cli
(with numpy and scipy) from the checkout's src/ and builds the workload's
problems. Then one untimed warm-up pass captures every nodal solution for the
checks, and timed passes of the same commands run until N seconds have passed.
A command that exits nonzero or raises is recorded and the pass goes on. After
each timed pass a fixed job that does not use fracvide is timed, as a signal of
the host's speed through the run. The measurements go to DIR/worker.json;
--setup-only prints the set-up time as JSON and exits.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import time


def capture(store):
    """on_solve callback keeping the nodal data the checks need."""
    def keep(sol):
        system = sol.system
        store.setdefault(system.tp.name, {})[str(system.n)] = {
            "lam": system.lam, "eps": system.tp.eps,
            "nodes": system.basis.nodes.tolist(), "u": sol.u.tolist(),
            "u_star": sol.u_star.tolist(),
            "E1": system.E.sum(axis=1).tolist(), "H1": system.H.sum(axis=1).tolist(),
        }
    return keep


def peak_rss_kb():
    """VmHWM of this process. Unlike ru_maxrss, it does not carry over the
    parent's resident size through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def host_job():
    """Time of a fixed numpy and pure-Python job that does not use fracvide.
    Two sets of runs whose medians differ by more than a metric's bound ran
    on a host in different states and are not to be compared."""
    import numpy as np
    a = np.eye(100) * 100.0 + np.arange(100.0)[:, None] / 100.0
    t0 = time.perf_counter()
    np.linalg.solve(a, a)
    sum(i * i for i in range(50000))
    return time.perf_counter() - t0


def run_pass(main, argvs, csv_paths):
    """One pass of CLI commands in-process; returns (seconds, output bytes, errors)."""
    out_bytes, errors = 0, []
    t0 = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:   # a crash of the program is an output to report
                code = f"raised {exc!r}"
        if code != 0:
            errors.append(f"fracvide {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        out_bytes += len(out.getvalue().encode()) + len(err.getvalue().encode())
    seconds = time.perf_counter() - t0
    out_bytes += sum(os.path.getsize(p) for p in csv_paths if os.path.exists(p))
    return seconds, out_bytes, errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fracvide.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"fracvide was imported from {cli.__file__}, not from {src}")

    import spans
    import workloads
    from fracvide import builtin, load_problem, transform

    tracer = spans.Tracer(traced=bool(args.trace))
    tracer.install()
    csv_dir = os.path.join(args.out, "csv")
    config_path = os.path.join(args.out, f"{workloads.CONFIG_NAME}.cfg")
    if args.workload == "config_problem":
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(args.seed))
        problems = [transform(load_problem(config_path))]
    else:
        problems = [transform(builtin(name)) for name in workloads.degrees(args.workload)]
    setup_s = time.monotonic() - args.start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s,
                          "problems": [tp.name for tp in problems]}))
        return 0

    argvs = workloads.commands(args.workload, csv_dir, config_path)
    csv_paths = [os.path.join(csv_dir, f) for f in workloads.csv_files(args.workload).values()]
    os.makedirs(csv_dir, exist_ok=True)
    main_fn = tracer.span("cli.command", cli.main) if args.trace else cli.main

    solutions = {}
    tracer.on_solve = capture(solutions)
    _, _, errors = run_pass(main_fn, argvs, [])
    tracer.on_solve = None

    passes, host_times, attempted, failed = [], [], 0, 0
    begin, cpu_begin = time.perf_counter(), time.process_time()
    while not passes or time.perf_counter() - begin < args.seconds:
        tracer.reset()
        seconds, out_bytes, pass_errors = run_pass(main_fn, argvs, csv_paths)
        errors += pass_errors
        attempted += tracer.attempted
        failed += tracer.failed
        passes.append({"wall_s": seconds, "output_bytes": out_bytes,
                       "events": tracer.events, "layers": tracer.layers})
        host_times.append(host_job())
    cpu_per_wall = (time.process_time() - cpu_begin) / (time.perf_counter() - begin)
    host_speed_s = statistics.median(host_times)
    peak_rss = peak_rss_kb()

    with open(os.path.join(args.out, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "import_s": import_s, "peak_rss_kb": peak_rss,
                   "host_speed_s": host_speed_s, "cpu_per_wall": cpu_per_wall,
                   "attempted": attempted, "failed": failed, "errors": errors,
                   "passes": passes, "solutions": solutions}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

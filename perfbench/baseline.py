"""Per-layer reference table: assemble, solve and error_report of the built-in
ex1 at lambda = 1/2 for N = 8..128, best of 5 and median, in one process.

    python3 perfbench/baseline.py

Run from the root of a checkout, with one BLAS thread for comparable figures
(OPENBLAS_NUM_THREADS=1). Prints a Markdown table.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fracvide import assemble, builtin, error_report, solve, transform  # noqa: E402

REPEATS = 5


def timed(fn, *args):
    times, result = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return result, f"{1e3 * min(times):.3g} / {1e3 * statistics.median(times):.3g}"


def main():
    tp = transform(builtin("ex1"))
    ns = (8, 16, 32, 64, 128)
    rows = {"assemble": [], "solve": [], "error_report": []}
    for n in ns:
        system, cell = timed(assemble, tp, n, 0.5)
        rows["assemble"].append(cell)
        sol, cell = timed(solve, system)
        rows["solve"].append(cell)
        rows["error_report"].append(timed(error_report, sol, tp.phi, tp.phi_prime)[1])
    print("| layer (ms, best / median of 5) | " + " | ".join(f"N={n}" for n in ns) + " |")
    print("|---" * (len(ns) + 1) + "|")
    for layer, cells in rows.items():
        print(f"| `{layer}` | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()

"""The three workloads: the fixed sequence of CLI commands of one pass, the
degrees each problem climbs, and the tolerance behind time_to_tol_s.

Each pass runs the same commands in the same order. Only the config problem's
constants depend on the seed; they change no expression's shape, so every
seed costs the same number of evaluations.
"""

import os
import random

from published import TABLES

WORKLOADS = ("paper_tables", "high_degree", "config_problem")

# L-infinity error of the solution that ends a problem's climb in time_to_tol_s
TOLERANCE = {"paper_tables": 5e-8, "high_degree": 3e-7, "config_problem": 2e-8}

HIGH_DEGREE = {"ex1": -3.0, "ex2": -8.0 / 3.0}   # problem -> expected L2 slope -2 sigma
LADDER = (64, 128, 192, 256)
CONFIG_NAME = "quarter_power"
CONFIG_DEGREES = tuple(range(4, 17))
CONFIG_LAM = 0.25


def config_text(seed):
    """The quarter-power problem y = t^(5/4) e^(-t) with seeded constants."""
    rng = random.Random(seed)
    a = [f"{rng.uniform(0.8, 1.2):.4f}" for _ in range(4)]
    eps = f"{rng.uniform(0.7, 0.8):.4f}"
    return f"""# quarter-power problem, seed {seed}
mu = 1/4
gamma = 1
eps = {eps}
T = 1
y0 = 0
p = {a[0]}*cos(t)*t^2
q = {a[1]}*t^2
K1 = exp(-{a[2]}*t*s)
K2 = 1 + {a[3]}*tau^2
exact = t^(5/4)*exp(-t)
exact_prime = exp(-t)*(5/4*t^(1/4) - t^(5/4))
"""


def csv_files(workload):
    """CSV file names one pass writes, keyed by (problem, part)."""
    if workload == "paper_tables":
        return {(ex, part): f"{ex}_{TABLES[ex]['lam']:g}_{part}.csv"
                for ex in TABLES for part in ("e", "estar")}
    if workload == "high_degree":
        return {(ex, "e"): f"{ex}_1_sweep.csv" for ex in HIGH_DEGREE}
    return {(CONFIG_NAME, "e"): f"{CONFIG_NAME}_{CONFIG_LAM:g}_sweep.csv"}


def commands(workload, csv_dir, config_path):
    """The argument lists of one pass, in order."""
    if workload == "paper_tables":
        return [["reproduce", "--problem", ex, "--out", csv_dir] for ex in TABLES]
    if workload == "high_degree":
        # 800 quadrature points: the default 200 under-resolve L2_estar here
        return [["sweep", "--problem", ex, "--lambda", "1", "--quad-points", "800", "--n",
                 f"{LADDER[0]}:{LADDER[1] - LADDER[0]}:{LADDER[-1]}",
                 "--out", os.path.join(csv_dir, csv_files(workload)[(ex, "e")])]
                for ex in HIGH_DEGREE]
    return [["sweep", "--problem", config_path, "--lambda", f"{CONFIG_LAM:g}", "--n",
             f"{CONFIG_DEGREES[0]}:1:{CONFIG_DEGREES[-1]}",
             "--out", os.path.join(csv_dir, csv_files(workload)[(CONFIG_NAME, "e")])]]


def degrees(workload):
    """Problem -> the ascending degrees it climbs (the solution-error table)."""
    if workload == "paper_tables":
        return {ex: TABLES[ex]["e"]["n"] for ex in TABLES}
    if workload == "high_degree":
        return {ex: LADDER for ex in HIGH_DEGREE}
    return {CONFIG_NAME: CONFIG_DEGREES}

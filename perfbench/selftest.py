"""Tests of the benchmark itself: each check passes on the program's real
output and rejects a perturbed one.

    python3 perfbench/selftest.py

Run from the root of a checkout; solves a few small problems with fracvide
from src/ (about a second).
"""

import json
import os
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from published import TABLES  # noqa: E402
from worker import capture  # noqa: E402

from fracvide import assemble, builtin, error_report, parse_problem_config, solve, transform  # noqa: E402

GRID = checks.error_grid(0)


def solved(tp, n, lam):
    """(nodal data as the worker captures it, the program's error report or None)."""
    store = {}
    sol = solve(assemble(tp, n, lam))
    capture(store)(sol)
    rep = error_report(sol, tp.phi, tp.phi_prime) if tp.phi is not None else None
    return store[tp.name][str(n)], rep


def perturbed(sol, key="u", rel=1e-4):
    """A copy of the nodal data with `key` changed by a relative `rel`, with a
    seeded sign pattern."""
    out = dict(sol)
    v = np.asarray(sol[key])
    out[key] = (v * (1.0 + rel * np.random.default_rng(0).choice([-1.0, 1.0], v.size))).tolist()
    return out


def csv_row(rep):
    return {"L2_e": rep.l2_e, "Linf_e": rep.linf_e,
            "L2_estar": rep.l2_estar, "Linf_estar": rep.linf_estar}


class PaperTables(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tp = transform(builtin("ex2"))
        cls.sol, cls.rep = solved(cls.tp, 10, 1.0 / 3.0)

    def test_own_errors_agree_with_program(self):
        own = checks.own_errors(self.sol, "ex2", GRID)
        self.assertEqual(checks.check_agreement("ex2", own, csv_row(self.rep)), [])

    def test_agreement_rejects_perturbed_solution(self):
        own = checks.own_errors(perturbed(self.sol), "ex2", GRID)
        self.assertTrue(checks.check_agreement("ex2", own, csv_row(self.rep)))

    def test_published_bound(self):
        table = TABLES["ex2"]["e"]
        rows = {n: {"L2_e": 0.5 * l2, "Linf_e": 0.5 * li}
                for n, l2, li in zip(table["n"], table["l2"], table["linf"])}
        self.assertEqual(checks.check_published("ex2", "e", rows, table), [])
        rows[10]["Linf_e"] = 101.0 * table["linf"][2]
        self.assertTrue(checks.check_published("ex2", "e", rows, table))
        rows[10]["Linf_e"] = float("nan")
        self.assertTrue(checks.check_published("ex2", "e", rows, table))

    def test_residual_rejects_perturbed_reference(self):
        ref, _ = solved(transform(builtin("ex4")), 18, 0.5)
        points = [0.06, 0.21, 0.37, 0.5]
        self.assertEqual(checks.check_residual("ex4", ref, points), [])
        self.assertTrue(checks.check_residual("ex4", perturbed(ref, "u_star"), points))
        self.assertTrue(checks.check_residual("ex4", perturbed(ref, "u"), points))


class HighDegree(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tp = transform(builtin("ex1"))
        cls.ns = (32, 64, 128)
        cls.sols = [solved(cls.tp, n, 1.0)[0] for n in cls.ns]

    def l2(self, sols):
        return [checks.own_errors(s, "ex1", GRID)["l2_e"] for s in sols]

    def test_slope_rejects_perturbed_top_degree(self):
        self.assertEqual(checks.check_slope("ex1", self.ns, self.l2(self.sols), -3.0), [])
        bad = self.sols[:-1] + [perturbed(self.sols[-1], rel=1e-5)]
        self.assertTrue(checks.check_slope("ex1", self.ns, self.l2(bad), -3.0))

    def test_row_sums_reject_perturbed_rows(self):
        sol = self.sols[-1]
        self.assertEqual(checks.check_row_sums("ex1", sol), [])
        self.assertTrue(checks.check_row_sums("ex1", perturbed(sol, "E1", 1e-11)))
        self.assertTrue(checks.check_row_sums("ex1", perturbed(sol, "H1", 1e-11)))


class ConfigProblem(unittest.TestCase):
    def test_decay_rejects_perturbed_solution(self):
        tp = transform(parse_problem_config(workloads.config_text(0), workloads.CONFIG_NAME))
        ns = (8, 12, 16)
        sols = [solved(tp, n, workloads.CONFIG_LAM)[0] for n in ns]
        errs = [checks.own_errors(s, workloads.CONFIG_NAME, GRID)["linf_e"] for s in sols]
        self.assertEqual(checks.check_decay("cfg", ns, errs), [])
        sols[-1] = perturbed(sols[-1], rel=1e-6)
        errs[-1] = checks.own_errors(sols[-1], workloads.CONFIG_NAME, GRID)["linf_e"]
        self.assertTrue(checks.check_decay("cfg", ns, errs))


class Interpolant(unittest.TestCase):
    def test_reproduces_polynomials_in_z_at_high_degree(self):
        rng = np.random.default_rng(1)
        nodes = np.sort(rng.uniform(0.0, 1.0, 257))
        lam = 0.25
        f = lambda th: np.cos(7.0 * th ** lam)
        p = checks.Interpolant(nodes, f(nodes), lam)
        th = np.linspace(0.0, 1.0, 50)
        self.assertEqual(p(nodes[[0, 100, 256]]).tolist(), f(nodes[[0, 100, 256]]).tolist())
        cheb = 0.5 * (1.0 - np.cos(np.pi * (np.arange(65) + 0.5) / 65))   # Chebyshev in z
        q = checks.Interpolant(cheb ** (1.0 / lam), np.polyval([2.0, -1.0, 0.5], cheb), lam)
        self.assertLess(np.max(np.abs(q(th) - np.polyval([2.0, -1.0, 0.5], th ** lam))), 1e-12)


class Definition(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {k: v[2] for k, v in run.PER_LAYER.items()})
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.WORKLOADS)

    def test_missing_outputs_are_reported_not_raised(self):
        with tempfile.TemporaryDirectory() as out:
            for workload in workloads.WORKLOADS:
                errors, msgs = run.verify(workload, {"solutions": {}, "errors": []}, out, 0)
                self.assertEqual(errors, {})
                self.assertTrue(msgs)
                self.assertGreater(run.time_to_tol(workload, [], errors), -1.0)

    def test_time_to_tol_stops_at_first_degree_meeting_tolerance(self):
        events = [["assemble", "ex1", 64, 1.0], ["solve", "ex1", 64, 0.5],
                  ["error_report", "ex1", 64, 0.25], ["assemble", "ex1", 128, 2.0],
                  ["solve", "ex1", 128, 0.5], ["error_report", "ex1", 128, 0.25],
                  ["assemble", "ex1", 192, 8.0]]
        errors = {"ex1": {64: 1e-5, 128: 1e-7, 192: 1e-8, 256: 1e-9},
                  "ex2": {64: 1e-8, 128: 1e-9, 192: 1e-9, 256: 1e-9}}
        self.assertEqual(run.time_to_tol("high_degree", events, errors), 4.5)


if __name__ == "__main__":
    unittest.main()

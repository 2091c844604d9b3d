import codecs
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import fracvide
from fracvide.analysis import emit_table, self_reference, sweep
from fracvide.analysis import classify_decay
from fracvide.cli import _ratio_band, main
from fracvide.collocate import SolverError, assemble, solve
from fracvide.problem import builtin, transform
from fracvide.refdata import BENCHMARKS
from test_analysis import QUARTER_POWER

CONFIG = """
mu = 1/2
gamma = 1
eps = 0.5
T = 1
y0 = 0
p = t^(5/3)
q = t^(5/3)
K1 = exp(s^(1-mu))
K2 = exp(tau^(1-mu))
exact = t*exp(-t^(1-mu))
exact_prime = exp(-t^(1-mu))*(1-(1-mu)*t^(1-mu))
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_solution_and_report(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code, stdout, _ = run(["solve", "--problem", "ex1", "--n", "12",
                           "--lambda", "0.5", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 12 and payload["lambda"] == 0.5
    assert len(payload["nodes"]) == 13 == len(payload["u"]) == len(payload["u_star"]) == len(payload["v"])
    assert len(payload["t"]) == 201 == len(payload["y"])
    assert payload["t"][0] == 0.0 and payload["t"][-1] == 1.0
    # report line carries the errors; benchmark magnitude is ~1e-12, relaxed x100
    line = [l for l in stdout.splitlines() if l.startswith("n=12")][0]
    linf = float(line.split("Linf_e=")[1].split()[0])
    assert linf <= 1e-10


def test_solve_samples_match_pointwise_evaluation(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code, _, _ = run(["solve", "--problem", "ex2", "--n", "10", "--lambda", "0.5",
                      "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    sol = solve(assemble(transform(builtin("ex2")), 10, 0.5))
    assert payload["y"] == [sol.to_physical(float(t)) for t in np.linspace(0.0, 0.5, 201)]


def test_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracvide.__file__)))
    probe = "import sys, fracvide.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_import_needs_only_the_standard_library_and_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracvide.__file__)))
    packages = os.path.dirname(os.path.dirname(os.path.abspath(np.__file__)))
    # -S: no site hooks, so every module loaded is one the import asks for
    probe = ("import sys, fracvide.cli; "
             "print(*sorted({name.partition('.')[0] for name in sys.modules}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, packages]))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    outside = set(done.stdout.split()) - set(sys.stdlib_module_names) - {"__main__"}
    assert outside == {"fracvide", "numpy"}


def test_solve_default_flags_are_explicit_defaults(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code1, out1, _ = run(["solve", "--problem", "ex1", "--n", "8",
                          "--lambda", "0.5", "--out", str(a)], capsys)
    code2, out2, _ = run(["solve", "--problem", "ex1", "--n", "8", "--lambda", "0.5",
                          "--alpha", "-0.5", "--beta", "-0.5", "--out", str(b)], capsys)
    assert code1 == code2 == 0
    assert a.read_text() == b.read_text()
    assert out1 == out2


def test_unknown_problem_fails(capsys):
    code, _, stderr = run(["solve", "--problem", "nosuch", "--n", "4"], capsys)
    assert code == 1
    assert "unknown problem" in stderr


def test_sweep_csv_and_classification(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(["sweep", "--problem", "ex1", "--lambda", "0.5",
                           "--n", "4:2:12", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,L2_e,Linf_e,L2_estar,Linf_estar"
    assert len(lines) == 6
    assert "classification: exponential" in stdout


def test_sweep_algebraic_branch(tmp_path, capsys):
    out = tmp_path / "sweep1.csv"
    code, stdout, _ = run(["sweep", "--problem", "ex1", "--lambda", "1",
                           "--n", "4:2:20", "--out", str(out)], capsys)
    assert code == 0
    assert "classification: algebraic" in stdout


def test_sweep_zero_step_usage_error(capsys):
    code, _, stderr = run(["sweep", "--problem", "ex1", "--n", "4:0:12"], capsys)
    assert code == 1
    assert "step" in stderr


def test_sweep_needs_exactly_one_grid_flag(capsys):
    # --n is required, and there is no --n-range
    for argv in (["sweep", "--problem", "ex1"],
                 ["sweep", "--problem", "ex1", "--n-range", "4:2:8"],
                 ["sweep", "--problem", "ex1", "--n", "4:2:8", "--n-range", "4:2:8"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    capsys.readouterr()


def test_sweep_text_format(tmp_path, capsys):
    out = tmp_path / "sweep.txt"
    code, _, _ = run(["sweep", "--problem", "ex1", "--lambda", "0.5",
                      "--n", "4:2:8", "--format", "text", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().startswith("N")


def test_sweep_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(["sweep", "--problem", "ex1", "--lambda", "0.5", "--n", "4:2:10", "--out", str(a)], capsys)
    run(["sweep", "--problem", "ex1", "--lambda", "0.5", "--n", "4:2:10", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "pantograph.cfg"
    cfg.write_text(CONFIG)
    out = tmp_path / "out.csv"
    code, stdout, _ = run(["sweep", "--problem", str(cfg), "--lambda", "0.5",
                           "--n", "4:2:12", "--out", str(out)], capsys)
    assert code == 0
    assert "classification: exponential" in stdout


def test_reproduce_ex1(tmp_path, capsys):
    code, stdout, stderr = run(["reproduce", "--problem", "ex1", "--out", str(tmp_path)], capsys)
    assert code == 0
    e_csv = tmp_path / "ex1_0.5_e.csv"
    estar_csv = tmp_path / "ex1_0.5_estar.csv"
    assert e_csv.exists() and estar_csv.exists()
    assert len(e_csv.read_text().strip().splitlines()) == 6
    assert "ratio" in stdout
    # every computed cell should be within x100 of the benchmark value
    result = sweep(builtin("ex1"), 0.5, BENCHMARKS["ex1"]["e"]["n"])
    floors = {"e": result.floor_e, "estar": result.floor_estar}
    ratios = {"e": [], "estar": []}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("e", "estar"):
            assert float(parts[-1]) <= 100.0
            # the N = 12 cells are round-off, and the band leaves them out
            assert (float(parts[3]) > floors[parts[0]]) == (parts[2] != "12")
            if parts[2] != "12":
                ratios[parts[0]].append(float(parts[-1]))
    # after each table, the band of its ratios: e first, then estar
    bands = [line for line in stdout.splitlines() if line.startswith("ratio band")]
    assert bands == [f"ratio band {part}: {min(r):.3e} to {max(r):.3e} over 8 cells; "
                     f"2 cells at round-off left out" for part, r in ratios.items()]
    assert stdout.splitlines()[0].endswith("; 1 cell at round-off left out)")
    lines = stdout.splitlines()
    assert lines.index(bands[0]) == 12 and lines[-1] == bands[1]


def test_reproduce_ex4_uses_reference(tmp_path, capsys):
    code, stdout, stderr = run(["reproduce", "--problem", "ex4", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "reference" in stderr and "n=18" in stderr
    assert (tmp_path / "ex4_0.5_e.csv").exists()
    assert "classification: exponential" in stdout


def test_reproduce_ex3_lambda_half(tmp_path, capsys):
    code, _, _ = run(["reproduce", "--problem", "ex3", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "ex3_0.5_e.csv").exists()
    # the derivative table uses its own N grid
    lines = (tmp_path / "ex3_0.5_estar.csv").read_text().strip().splitlines()
    assert lines[1].startswith("7,") and lines[-1].startswith("17,")


def _tables(result, bench):
    """(fit verdict and rate, ratios in the band, cells left out) of each
    table of a reproduce sweep."""
    out = []
    for part, fields, floor in (("e", ("l2_e", "linf_e"), result.floor_e),
                                ("estar", ("l2_estar", "linf_estar"), result.floor_estar)):
        table = result.restricted(bench[part]["n"])
        by_n = {row.n: row for row in table.rows}
        cells = [(norm_key, n, getattr(by_n[n], field), bench_val)
                 for norm_key, field in zip(("l2", "linf"), fields)
                 for n, bench_val in zip(bench[part]["n"], bench[part][norm_key])]
        out.append(((table.rate_class, table.fitted_rate), _ratio_band(cells, floor)))
    return out


@pytest.mark.parametrize("ulps", [-2, 3])
def test_round_off_cells_steer_neither_verdict_nor_band(ulps):
    # ex1's N = 12 cells sit at the rounding floor. Moving them by a few
    # ulps of the truth's scale (about 1) once moved the fitted rate and the
    # e* band; left out, they move neither
    bench = BENCHMARKS["ex1"]
    result = sweep(builtin("ex1"), bench["lam"], bench["e"]["n"])
    *rows, last = result.rows
    assert last.n == 12
    fields = ("l2_e", "linf_e", "l2_estar", "linf_estar")
    eps = np.finfo(float).eps
    moved_last = replace(last, **{f: getattr(last, f) + ulps * eps for f in fields})
    moved = replace(result, rows=(*rows, moved_last))
    for row in (last, moved_last):
        assert row.l2_e < result.floor_e and row.linf_e < result.floor_e
        assert row.l2_estar < result.floor_estar and row.linf_estar < result.floor_estar
    assert _tables(moved, bench) == _tables(result, bench)
    # with every cell fitted, the move shows in the rate
    ns = [row.n for row in result.rows]
    assert (classify_decay(ns, [row.l2_e for row in moved.rows])
            != classify_decay(ns, [row.l2_e for row in result.rows]))


def _counting_assemble(monkeypatch):
    import fracvide.analysis as analysis

    degrees = []
    real = analysis.assemble

    def counting(tp, n, *args, **kwargs):
        degrees.append(n)
        return real(tp, n, *args, **kwargs)

    monkeypatch.setattr(analysis, "assemble", counting)
    return degrees


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_reproduce_assembles_each_degree_once(name, tmp_path, capsys, monkeypatch):
    degrees = _counting_assemble(monkeypatch)
    code, _, _ = run(["reproduce", "--problem", name, "--out", str(tmp_path)], capsys)
    assert code == 0
    bench = BENCHMARKS[name]
    reference = [bench["reference"]["n"]] if "reference" in bench else []
    assert degrees == reference + sorted(set(bench["e"]["n"]) | set(bench["estar"]["n"]))


@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4"])
def test_reproduce_tables_match_independent_sweeps(name, tmp_path, capsys):
    # ex1's tables share their degrees; ex3's and ex4's grids differ
    code, stdout, _ = run(["reproduce", "--problem", name, "--out", str(tmp_path)], capsys)
    assert code == 0
    bench = BENCHMARKS[name]
    spec = builtin(name)
    reference = None
    if "reference" in bench:
        reference = self_reference(spec, bench["reference"]["lam"], bench["reference"]["n"])
    for part in ("e", "estar"):
        alone = sweep(spec, bench["lam"], bench[part]["n"], reference=reference)
        csv = tmp_path / f"{name}_{bench['lam']:g}_{part}.csv"
        assert csv.read_bytes() == emit_table(alone, "csv").encode()
        if part == "e":
            rate = f"{alone.fitted_rate:.3f}" if alone.rate_class != "inconclusive" else "n/a"
            # ex1's line goes on to name the round-off cell left out of its fit
            assert stdout.splitlines()[0].startswith(
                f"classification: {alone.rate_class} (fitted rate {rate}")


def _fail_at_8(monkeypatch):
    import fracvide.analysis as analysis

    real = analysis.assemble

    def fail_at_8(tp, n, *args, **kwargs):
        if n == 8:
            raise SolverError("injected failure")
        return real(tp, n, *args, **kwargs)

    monkeypatch.setattr(analysis, "assemble", fail_at_8)


def test_sweep_reports_a_failed_degree(tmp_path, capsys, monkeypatch):
    _fail_at_8(monkeypatch)
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run(["sweep", "--problem", "ex1", "--lambda", "0.5",
                                "--n", "4:2:12", "--out", str(out)], capsys)
    assert code == 1
    assert "n=8 failed: injected failure" in stderr.splitlines()
    assert stderr.splitlines()[-1] == "error: ex1: failed at n = 8; their rows are left out"
    assert "classification: " in stdout
    rows = out.read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["4", "6", "10", "12"]


def test_reproduce_reports_a_failed_degree(tmp_path, capsys, monkeypatch):
    _fail_at_8(monkeypatch)
    code, stdout, stderr = run(["reproduce", "--problem", "ex1", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "n=8 failed: injected failure" in stderr.splitlines()
    assert stderr.splitlines()[-1].startswith("error: ex1: ") and "n = 8" in stderr
    assert "Traceback" not in stderr
    cells = [line.split() for line in stdout.splitlines() if line.split()[0] in ("e", "estar")]
    assert len(cells) == 16 and all(cell[2] != "8" for cell in cells)
    # the N = 12 cells are round-off, left out of the band
    assert "ratio band e: " in stdout and "over 6 cells; 2 cells at round-off left out" in stdout
    for part in ("e", "estar"):
        rows = (tmp_path / f"ex1_0.5_{part}.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["4", "6", "10", "12"]


def test_sweep_where_every_degree_fails_names_the_cause(tmp_path, capsys, monkeypatch):
    import fracvide.analysis as analysis

    def fail(tp, n, *args, **kwargs):
        raise SolverError(f"injected failure at n = {n}")

    monkeypatch.setattr(analysis, "assemble", fail)
    out = tmp_path / "sweep.csv"
    code, _, stderr = run(["sweep", "--problem", "ex1", "--lambda", "0.5",
                           "--n", "4:2:8", "--out", str(out)], capsys)
    assert code == 1
    lines = stderr.splitlines()
    for n in (4, 6, 8):
        assert f"n={n} failed: injected failure at n = {n}" in lines
    assert lines[-1] == "error: ex1: failed at n = 4, 6, 8; their rows are left out"
    assert "empty sweep result" not in stderr
    assert not out.exists()


def test_sweep_rejects_a_range_too_close_to_the_reference_before_solving_it(capsys, monkeypatch):
    import fracvide.cli as cli

    solved = []
    monkeypatch.setattr(cli, "self_reference", lambda *args: solved.append(args))
    code, stdout, stderr = run(["sweep", "--problem", "ex4", "--n", "2:1:16"], capsys)
    assert code == 1 and stdout == "" and solved == []
    assert stderr.splitlines() == [
        "error: reference at n_ref=18 is too close to n=16 (need n <= n_ref - 3)"]


def test_solve_names_lambda_and_n_when_the_smallest_node_underflows(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code, _, stderr = run(["solve", "--problem", "ex1", "--n", "8", "--lambda", "2e-3",
                           "--out", str(out)], capsys)
    assert code == 1 and not out.exists()
    assert stderr.splitlines() == [
        "error: lam = 0.002 is too small for n = 8: the smallest collocation node "
        "theta_0 = z_0^(1/lam) underflows to 0"]


@pytest.mark.parametrize("command", [["solve", "--n", "4"], ["sweep", "--n", "4:2:8"],
                                     ["reproduce"]])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_quad_points_must_be_positive_before_any_solve(command, value, tmp_path, capsys,
                                                       monkeypatch):
    import fracvide.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("solve ran before --quad-points was checked")

    for name in ("assemble", "sweep", "self_reference"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "out"
    out.mkdir()
    argv = [command[0], "--problem", "ex1", *command[1:], "--quad-points", value,
            "--out", str(out if command[0] == "reproduce" else out / "result")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument --quad-points: must be a positive integer, got '{value}'" \
        in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--problem", "ex1", "--n", "-1"], "--n"),
    (["solve", "--problem", "ex1", "--n", "two"], "--n"),
    (["sweep", "--problem", "ex4", "--n", "4:2:8", "--ref-n", "-1"], "--ref-n"),
])
def test_degrees_must_be_nonnegative_before_any_solve(argv, flag, capsys, monkeypatch):
    import fracvide.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError(f"solve ran before {flag} was checked")

    for name in ("assemble", "sweep", "self_reference"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    stderr = capsys.readouterr().err
    assert f"argument {flag}: must be a nonnegative integer, got '{argv[-1]}'" in stderr
    assert "solving reference" not in stderr


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--problem", "ex1", "--n", "4", "--lambda", "0"], "--lambda"),
    (["sweep", "--problem", "ex1", "--n", "4:2:8", "--lambda", "nan"], "--lambda"),
    (["sweep", "--problem", "ex1", "--n", "4:2:8", "--lambda", "1.5"], "--lambda"),
    (["sweep", "--problem", "ex1", "--n", "4:2:8", "--lambda", "half"], "--lambda"),
    (["sweep", "--problem", "ex4", "--n", "4:2:8", "--ref-lambda", "2"], "--ref-lambda"),
    (["sweep", "--problem", "ex4", "--n", "4:2:8", "--ref-lambda", "-0.5"], "--ref-lambda"),
])
def test_lambdas_must_lie_in_the_unit_interval_before_any_solve(argv, flag, capsys,
                                                                monkeypatch):
    import fracvide.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError(f"solve ran before {flag} was checked")

    for name in ("assemble", "sweep", "self_reference"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    stderr = capsys.readouterr().err
    assert f"argument {flag}: must be a number in (0, 1], got '{argv[-1]}'" in stderr
    assert "solving reference" not in stderr


def test_a_jacobi_parameter_too_large_for_a_double_is_an_error_line(tmp_path, capsys):
    # at lambda = 1e-3, ex1's kernel rule has beta = (mu + gamma)/lambda - 1
    # = 1499, whose zeroth moment overflows; gamma = 2000 does the same for
    # the rule of a manufactured forcing (beta = mu + gamma - 1)
    cause = ("the zeroth moment of the Jacobi weight exceeds a double at "
             "alpha = -0.5, beta = {}")
    code, stdout, stderr = run(["solve", "--problem", "ex1", "--n", "8", "--lambda", "1e-3",
                                "--out", str(tmp_path / "sol.json")], capsys)
    assert (code, stdout, stderr.splitlines()) == (1, "", ["error: " + cause.format(1499.0)])
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run(["sweep", "--problem", "ex1", "--n", "4:2:8", "--lambda", "1e-3",
                                "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr.splitlines() == [f"n={n} failed: " + cause.format(1499.0) for n in (4, 6, 8)] + [
        "error: ex1: failed at n = 4, 6, 8; their rows are left out"]
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(CONFIG.replace("gamma = 1", "gamma = 2000"))
    code, stdout, stderr = run(["solve", "--problem", str(cfg), "--n", "4",
                                "--out", str(tmp_path / "steep.json")], capsys)
    assert (code, stdout, stderr.splitlines()) == (1, "", ["error: " + cause.format(1999.5)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["steep.cfg"]


def test_a_config_saved_with_a_byte_order_mark_solves_as_the_plain_file(tmp_path, capsys):
    outputs = []
    for folder, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        (tmp_path / folder).mkdir()
        cfg = tmp_path / folder / "quarter_power.cfg"
        cfg.write_text(QUARTER_POWER, encoding=encoding)
        out = tmp_path / folder / "sol.json"
        code, stdout, _ = run(["solve", "--problem", str(cfg), "--n", "8", "--lambda", "0.25",
                               "--out", str(out)], capsys)
        assert code == 0
        outputs.append((stdout, out.read_bytes()))
    assert (tmp_path / "bom" / "quarter_power.cfg").read_bytes().startswith(codecs.BOM_UTF8)
    assert outputs[0] == outputs[1] and outputs[0][0].startswith("n=8 ")


def test_a_reference_too_large_to_allocate_is_an_error_line():
    # the 5000001 x 5000001 node-difference matrix of the reference basis
    # exceeds the address space, so numpy refuses it at once
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracvide.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "fracvide.cli", "sweep", "--problem", "ex4", "--n", "2:1:4",
         "--ref-n", "5000000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert lines[0] == "no exact solution; solving reference (lambda=0.5, n=5000000)"
    assert len(lines) == 2 and lines[1].startswith("error: Unable to allocate ")


def test_reproduce_rejects_config_path(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CONFIG)
    code, _, stderr = run(["reproduce", "--problem", str(cfg)], capsys)
    assert code == 1
    assert "unknown problem" in stderr


def test_config_overflow_is_an_error_line_not_a_traceback(tmp_path, capsys):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text(CONFIG.replace("T = 1", "T = beta(1e-308, 1e-308)"))
    code, stdout, stderr = run(["solve", "--problem", str(cfg), "--n", "4"], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.splitlines() == [
        "error: line 5: bad value for T: beta(1e-308, 1e-308) overflows"]


def test_config_with_a_non_ascii_digit_is_an_error_line(tmp_path, capsys):
    cfg = tmp_path / "arabic.cfg"
    cfg.write_text(CONFIG.replace("p = t^(5/3)", "p = ٣*t"), encoding="utf-8")
    out = tmp_path / "sol.json"
    code, stdout, stderr = run(["solve", "--problem", str(cfg), "--n", "4", "--out", str(out)],
                               capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.splitlines() == [
        "error: line 7: bad expression for p: illegal character '٣' (at offset 0)"]
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--lambda", "0.9"), ("--gamma-override", "3")])
def test_reproduce_rejects_the_discretization_flags(flag, value, tmp_path, capsys, monkeypatch):
    # reproduce takes lambda and gamma from its benchmark, so it refuses both
    import fracvide.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError(f"reproduce ran with {flag}")

    for name in ("sweep", "self_reference"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exit_info:
        main(["reproduce", "--problem", "ex1", flag, value, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    for command in (["solve", "--n", "4"], ["sweep", "--n", "4:2:8"]):
        args = cli.build_parser().parse_args([*command, "--problem", "ex1", flag, value])
        assert (args.lam, args.gamma_override) == \
            ((0.9, None) if flag == "--lambda" else (0.5, 3.0))


def test_gamma_override_only_ex1(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(CONFIG)
    for problem in ("ex2", str(cfg)):
        code, _, stderr = run(["solve", "--problem", problem, "--n", "4",
                               "--gamma-override", "2"], capsys)
        assert code == 1
        assert stderr == "error: --gamma-override only applies to ex1\n"


@pytest.mark.parametrize("flag,value,named", [("--alpha", "nan", "alpha = nan, beta = -0.5"),
                                              ("--beta", "nan", "alpha = -0.5, beta = nan"),
                                              ("--alpha", "inf", "alpha = inf, beta = -0.5")])
def test_non_finite_jacobi_parameter_is_an_error_line(flag, value, named, capsys):
    code, stdout, stderr = run(["solve", "--problem", "ex1", "--n", "4", flag, value], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr.splitlines() == [
        f"error: Jacobi parameters must be finite and exceed -1, got {named}"]


def test_gamma_override_changes_ex1(tmp_path, capsys):
    a = tmp_path / "a.json"
    code, _, _ = run(["solve", "--problem", "ex1", "--n", "6", "--lambda", "0.5",
                      "--gamma-override", "1.5", "--out", str(a)], capsys)
    assert code == 0
    assert json.loads(a.read_text())["n"] == 6


def test_missing_output_directory_fails_before_solving(tmp_path, capsys, monkeypatch):
    import fracvide.cli as cli

    solves = []

    def refuse(*args, **kwargs):
        solves.append(args)
        raise AssertionError("solve ran before the output directory was checked")

    for name in ("assemble", "sweep", "self_reference"):
        monkeypatch.setattr(cli, name, refuse)
    missing = tmp_path / "no" / "such"
    for argv in (["reproduce", "--problem", "ex1", "--out", str(missing)],
                 ["reproduce", "--problem", "ex4", "--out", str(missing)],
                 ["sweep", "--problem", "ex1", "--n", "4:2:8", "--out", str(missing / "s.csv")],
                 ["solve", "--problem", "ex1", "--n", "4", "--out", str(missing / "s.json")]):
        code, stdout, stderr = run(argv, capsys)
        assert code == 1
        assert f"output directory '{missing}' does not exist" in stderr
        assert stdout == ""
    assert solves == []
    assert not missing.exists()


def test_main_builds_its_parser_once_and_repeats_each_outcome(tmp_path, capsys, monkeypatch):
    import fracvide.cli as cli

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    out = tmp_path / "sol.json"
    good = ["solve", "--problem", "ex1", "--n", "6", "--out", str(out)]
    usage = ["solve", "--problem", "ex1", "--n", "6", "--quad-points", "0"]
    failing = ["solve", "--problem", "nope", "--n", "6"]
    outcomes = []
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            outcomes.append(run(good, capsys))
            with pytest.raises(SystemExit) as exit_info:
                main(usage)
            outcomes.append((exit_info.value.code, *capsys.readouterr()))
            outcomes.append(run(failing, capsys))
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert outcomes[:3] == outcomes[3:]
    assert [code for code, _, _ in outcomes[:3]] == [0, 2, 1]


# the atoms and operators of the random coefficient expressions: powers,
# logarithms and poles that some node or point may hit, and fast growth
_ATOMS = ("{v}", "1", "2.5", "{v}^(-0.5)", "ln({v})", "1/({v}-0.3)", "exp(50*{v})", "abs({v}-0.5)")
_UNARY = ("exp", "sin", "sqrt", "abs", "-")


def _random_coefficient(rng, variables, depth):
    """A random expression tree of at most depth levels over the atoms."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_ATOMS).format(v=rng.choice(variables))
    if rng.random() < 0.3:
        f, inner = rng.choice(_UNARY), _random_coefficient(rng, variables, depth - 1)
        return f"-({inner})" if f == "-" else f"{f}({inner})"
    left, right = (_random_coefficient(rng, variables, depth - 1) for _ in range(2))
    return f"({left}){rng.choice('+-*/')}({right})"


def _random_config(rng):
    """The text of a valid random config, with its lambda and N."""
    mu = rng.choice([0.0, 0.1, 0.5, 0.9, 0.99, 0.999])
    gamma = rng.choice([1.0 - mu, 1.0, rng.uniform(1.0 - mu, 100.0), 100.0])
    keys = {"mu": mu, "gamma": gamma, "eps": rng.choice([1e-6, 0.01, 0.5, 1.0]),
            "T": rng.choice([1e-3, 1.0, 10.0, 1e3]), "y0": rng.choice([0.0, 1.0, -2.5, 1e10])}
    for key, variables in (("p", ("t",)), ("q", ("t",)), ("g", ("t",)),
                           ("K1", ("t", "s")), ("K2", ("t", "tau"))):
        keys[key] = _random_coefficient(rng, variables, 3)
    text = "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in keys.items())
    return text, rng.choice([1.0, 0.5, 0.25, 0.1, 0.02]), rng.choice([0, 1, 2, 8, 32])


def test_random_configs_solve_or_fail_with_one_error_line(tmp_path, capsys):
    # 100 seeded random configs, in process: each solve exits 0 with a
    # finite y, or 1 with a single error line and no traceback
    rng = random.Random(1)
    out = tmp_path / "solution.json"
    start = time.perf_counter()
    outcomes = []
    for k in range(100):
        text, lam, n = _random_config(rng)
        cfg = tmp_path / f"random{k}.cfg"
        cfg.write_text(text, encoding="utf-8")
        code, _, stderr = run(["solve", "--problem", str(cfg), "--n", str(n),
                               "--lambda", str(lam), "--out", str(out)], capsys)
        if code == 0:
            assert np.all(np.isfinite(json.loads(out.read_text())["y"])), text
        else:
            assert code == 1 and len(stderr.splitlines()) == 1, (text, stderr)
            assert stderr.startswith("error: "), (text, stderr)
        outcomes.append(code)
    assert time.perf_counter() - start < 5.0
    # both outcomes occur, so the configs are neither all trivial nor all broken
    assert set(outcomes) == {0, 1}

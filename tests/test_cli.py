import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fracvide
from fracvide.analysis import emit_table, self_reference, sweep
from fracvide.cli import main
from fracvide.collocate import SolverError, assemble, solve
from fracvide.problem import builtin, transform
from fracvide.refdata import BENCHMARKS

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
    ratios = {"e": [], "estar": []}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("e", "estar"):
            assert float(parts[-1]) <= 100.0
            ratios[parts[0]].append(float(parts[-1]))
    # after each table, the band of its ratios: e first, then estar
    bands = [line for line in stdout.splitlines() if line.startswith("ratio band")]
    assert bands == [f"ratio band {part}: {min(r):.3e} to {max(r):.3e} over 10 cells"
                     for part, r in ratios.items()]
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
            assert stdout.splitlines()[0] == f"classification: {alone.rate_class} (fitted rate {rate})"


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
    assert "ratio band e: " in stdout and "over 8 cells" in stdout
    for part in ("e", "estar"):
        rows = (tmp_path / f"ex1_0.5_{part}.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["4", "6", "10", "12"]


def test_sweep_where_every_degree_fails_names_the_cause(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, stderr = run(["sweep", "--problem", "ex1", "--lambda", "0",
                           "--n", "4:2:8", "--out", str(out)], capsys)
    assert code == 1
    lines = stderr.splitlines()
    for n in (4, 6, 8):
        assert f"n={n} failed: lam must lie in (0, 1], got 0.0" in lines
    assert lines[-1] == "error: ex1: failed at n = 4, 6, 8; their rows are left out"
    assert "empty sweep result" not in stderr
    assert not out.exists()


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


def test_gamma_override_only_ex1(capsys):
    code, _, stderr = run(["solve", "--problem", "ex2", "--n", "4",
                           "--gamma-override", "2"], capsys)
    assert code == 1
    assert "gamma-override" in stderr


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

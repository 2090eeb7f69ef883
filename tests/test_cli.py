import contextlib
import hashlib
import io
import json
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvikit import cli, solvers
from qvikit.cli import _write_csv, main
from qvikit.model import natural_residual
from qvikit.problems import dump_problem, get_builtin, load_problem, problem_to_dict
from qvikit.solvers import (
    SolverConfig,
    solve_alg1,
    solve_catchup,
    solve_zero,
    sweep_trajectory,
)

EX4_X0 = "10000,20000,30000"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _h_used(stdout):
    return re.search(r"h_used=([^ ]+)", stdout).group(1)


def test_solve_example1_writes_trace_and_summary(tmp_path, capsys):
    csv = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    code, out, _ = run(capsys, "solve", "builtin:example1",
                       "--x0", "6,2", "--h", "0.01",
                       "--out", str(csv), "--summary", str(summary))
    assert code == 0
    assert out.startswith("status=converged ")
    assert "h_used=0.01 " in out

    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iter,x1,x2,residual"
    assert lines[1].startswith("0,6,2,")

    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["converged"] is True
    assert doc["diverged"] is False
    assert doc["h_used"] == 0.01
    assert doc["iterations"] <= 700
    assert len(lines) == doc["iterations"] + 2
    assert int(lines[-1].split(",")[0]) == doc["iterations"]
    assert doc["residual_final"] <= 1e-8
    assert np.allclose(doc["x_final"], [-0.3785, 0.1870], atol=1e-3)
    assert 0.0 < doc["rate_estimate"] < 1.0


# The README commands and the sha256 of each file they write, recorded before
# the solver hot path was rewritten; the catch-up diverges and exits 2.
README_OUTPUTS = [
    ("solve builtin:example1 --x0 6,2 --h 0.01 --out trace.csv --summary run.json", 0,
     {"trace.csv": "b072bd2b4e4690632084b40c663c2b47a6e483b115e9f4826508bd5d7e47de5a",
      "run.json": "d563d5f6fae8a5ddcf1969259e05408909ff9c55e2073f76c85c9ab8c7097a6d"}),
    ("sweep builtin:example1 --x0 6,2 --h 0.01 --T 10 --out sweep.csv", 0,
     {"sweep.csv": "bdc062877c5cd6335f8f9146e72ebeaa7ed2c702ff2c3d41b38fdb57bf92c6a0"}),
    ("solve builtin:example2 --algorithm catchup --x0 43,22,55 --h 0.3 --out catchup.csv", 2,
     {"catchup.csv": "5e23550ad13f7c709ffdf144312768d0e82597abbfec0478b7031adc50357622"}),
]


def test_readme_commands_write_their_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, code, digests in README_OUTPUTS:
        assert run(capsys, *command.split())[0] == code, command
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests, command


def test_positional_and_flag_problem_agree(capsys):
    code_a, out_a, _ = run(capsys, "solve", "builtin:remark5",
                           "--x0", "0.5", "--h", "0.5")
    code_b, out_b, _ = run(capsys, "solve", "--problem", "builtin:remark5",
                           "--x0", "0.5", "--h", "0.5")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_solve_scalar_converges_fast(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code, out, _ = run(capsys, "solve", "builtin:remark5",
                       "--x0", "0.5", "--h", "0.5", "--summary", str(summary))
    assert code == 0
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["iterations"] <= 2
    assert doc["x_final"][0] == pytest.approx(-0.3168, abs=1e-3)


def test_catchup_divergence_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "builtin:example2",
                       "--algorithm", "catchup", "--x0", "43,22,55",
                       "--h", "0.3")
    assert code == 2
    assert out.startswith("status=diverged ")


def test_max_iter_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "builtin:example1",
                       "--x0", "6,2", "--h", "0.01", "--max-iter", "5")
    assert code == 3
    assert out.startswith("status=max-iter ")
    assert "iterations=5 " in out


def test_auto_step_seed_pin_and_env(monkeypatch, capsys):
    code, out0, _ = run(capsys, "solve", "builtin:example1",
                        "--x0", "6,2", "--max-iter", "1")
    assert code == 3
    assert _h_used(out0) == "0.031025305967294112"

    _, out4, _ = run(capsys, "solve", "builtin:example1",
                     "--x0", "6,2", "--max-iter", "1", "--seed", "4")
    monkeypatch.setenv("QVI_SEED", "4")
    _, out_env, _ = run(capsys, "solve", "builtin:example1",
                        "--x0", "6,2", "--max-iter", "1")
    assert _h_used(out4) == _h_used(out_env)
    assert _h_used(out4) != _h_used(out0)


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
def test_a_bad_qvi_seed_is_named(monkeypatch, capsys, value):
    monkeypatch.setenv("QVI_SEED", value)
    code, out, err = run(capsys, "solve", "builtin:example1", "--x0", "6,2", "--max-iter", "1")
    assert (code, out) == (1, "")
    assert err == f"error: argument --seed: need an integer >= 0 (default: QVI_SEED), " \
        f"got {value!r}\n"
    # Only a command that would sample reads it, and only without --seed.
    assert run(capsys, "solve", "builtin:example1", "--x0", "6,2", "--max-iter", "1",
               "--seed", "0")[0] == 3
    assert run(capsys, "zero", "builtin:example4", "--x0", EX4_X0)[0] == 0


def test_main_builds_one_parser_per_qvi_seed(monkeypatch, capsys):
    built, init = [], cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli.build_parser.cache_clear()
    argv = ("analyze", "builtin:example1", "--estimate", "l")
    for value in ("7", "7", "8", "7", "8"):
        monkeypatch.setenv("QVI_SEED", value)
        assert run(capsys, *argv) == (0, "l = 0.84721359549995801 (spectral)\n", "")
    assert built.count("qvikit") == 2


def test_qvi_seed_changes_in_one_process_act_as_in_fresh_runs(monkeypatch, capsys):
    argv = ("solve", "builtin:example1", "--x0", "6,2", "--max-iter", "1")
    for value in ("4", "5", "-1", None, "4"):
        if value is None:
            monkeypatch.delenv("QVI_SEED", raising=False)
        else:
            monkeypatch.setenv("QVI_SEED", value)
        got = run(capsys, *argv)
        if value == "-1":
            assert got == (1, "", "error: argument --seed: need an integer >= 0 "
                           "(default: QVI_SEED), got '-1'\n")
        else:
            assert got == run(capsys, *argv, "--seed", value or "0")
            assert got[0] == 3


@pytest.mark.parametrize("argv", [
    ("zero", "builtin:example4", "--x0", EX4_X0),
    ("solve", "builtin:example2", "--algorithm", "catchup", "--x0", "43,22,55", "--h", "0.3"),
    ("solve", "builtin:example1", "--x0", "6,2", "--h", "0.01", "--out"),
])
def test_a_solve_without_summary_fits_no_rate(argv, tmp_path, monkeypatch, capsys):
    fits, fit = [], solvers.fit_linear_rate

    def counted(residuals):
        fits.append(len(residuals))
        return fit(residuals)
    monkeypatch.setattr(solvers, "fit_linear_rate", counted)
    if "--out" in argv:
        argv += (str(tmp_path / "trace.csv"),)
    code, out, _ = run(capsys, *argv)
    assert code in (0, 2) and out.startswith("status=")
    assert fits == []
    if "--out" in argv:
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 689


@pytest.mark.parametrize("outputs", [(), ("--summary",), ("--out",), ("--out", "--summary")])
def test_a_solve_keeps_its_iterates_only_for_out(outputs, tmp_path, monkeypatch, capsys):
    kept, finish = [], cli._finish_solve

    def finished(args, report, iterates):
        kept.append(iterates)
        return finish(args, report, iterates)
    monkeypatch.setattr(cli, "_finish_solve", finished)
    paths = [arg for flag in outputs for arg in (flag, str(tmp_path / flag[2:]))]
    argv = ("solve", "builtin:example2", "--x0", "43,22,55", "--h", "0.3", *paths)
    assert run(capsys, *argv)[0] == 0
    assert (kept[0] is not None) == ("--out" in outputs)


@pytest.mark.parametrize("command", ["zero", "solve"])
def test_summary_rate_is_the_residual_record_rate(command, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    if command == "zero":
        argv = ("zero", "builtin:example4", "--x0", EX4_X0)
        ex4 = get_builtin("example4")
        report = solve_zero(ex4.f, ex4.w, [10000.0, 20000.0, 30000.0],
                            SolverConfig(h=1.0, tol=1e-10))
    else:
        argv = ("solve", "builtin:example1", "--x0", "6,2", "--h", "0.01")
        report = solve_alg1(get_builtin("example1"), [6.0, 2.0],
                            SolverConfig(h=0.01))
    assert run(capsys, *argv, "--summary", str(summary))[0] == 0
    got = json.loads(summary.read_text(encoding="utf-8"))["rate_estimate"]
    assert report.rate_estimate is not None
    assert got.hex() == report.rate_estimate.hex()


def test_zero_subcommand(tmp_path, capsys):
    csv = tmp_path / "zero.csv"
    summary = tmp_path / "zero.json"
    code, out, _ = run(capsys, "zero", "builtin:example4", "--x0", EX4_X0,
                       "--out", str(csv), "--summary", str(summary))
    assert code == 0
    assert out.startswith("status=converged ")
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iter,x1,x2,x3,residual"
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["iterations"] <= 36
    assert doc["residual_final"] <= 1e-10
    assert np.allclose(doc["x_final"], [-0.0931, 0.0816, -0.0555], atol=1e-3)


def test_solve_alg3_alias_for_zero_problems(capsys):
    code, out, _ = run(capsys, "solve", "builtin:example4",
                       "--algorithm", "alg3", "--x0", EX4_X0)
    assert code == 0
    assert out.startswith("status=converged ")


@pytest.mark.parametrize("step,code", [((), 0), (("--h", "0.5", "--max-iter", "5"), 3)])
def test_zero_is_solve_alg3_with_tol_1e_10(step, code, tmp_path, capsys):
    def outputs(*command):
        csv, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
        result = run(capsys, *command, "builtin:example4", "--x0", EX4_X0, *step,
                     "--out", str(csv), "--summary", str(summary))
        return result, csv.read_bytes(), summary.read_bytes()

    zero = outputs("zero")
    assert zero[0][0] == code
    assert zero == outputs("solve", "--algorithm", "alg3", "--tol", "1e-10")


def test_sweep_scalar_trace(tmp_path, capsys):
    csv = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "builtin:remark5", "--x0", "0.5",
                       "--h", "0.01", "--T", "20", "--out", str(csv))
    assert code == 0
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x1,speed"
    assert lines[1] == "0,0.5,0"
    assert len(lines) == 2002
    terminal = float(lines[-1].split(",")[1])
    assert terminal == pytest.approx(-0.3168, abs=1e-2)
    # The first step lands on the rest point, so no rate is fittable.
    assert "alpha_hat=n/a" in out


def test_sweep_reports_decay_rate(capsys):
    code, out, _ = run(capsys, "sweep", "builtin:example1", "--x0", "6,2",
                       "--h", "0.01", "--T", "10")
    assert code == 0
    match = re.search(r"alpha_hat=([^ ]+) r2=([^ ]+)", out)
    assert float(match.group(1)) > 0.0
    assert float(match.group(2)) >= 0.9


def test_sweep_decay_rate_is_per_unit_time(tmp_path, capsys):
    # f = 2 x with v = 0 steps x <- 0.8 x at h 0.1: the speeds shrink by 0.8
    # a step, a decay rate of -log(0.8) / 0.1 per unit time.
    doc = {"kind": "qvi", "dim": 1, "f": ["2*x1"], "v": {"matrix": [[0.0]]},
           "inverse": {"strategy": "linear_exact"}, "set": {"type": "whole_space"}}
    path = tmp_path / "decay.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "sweep", str(path), "--x0", "1", "--h", "0.1", "--T", "4")
    assert code == 0
    alpha = float(re.search(r"alpha_hat=([^ ]+)", out).group(1))
    assert alpha == pytest.approx(-np.log(0.8) / 0.1, abs=1e-9)


def _csv_row_by_row(first, xs, last, lead, tail):
    """The CSV text of the writer's row-by-row form, one f-string per value."""
    xs = np.asarray(xs).tolist()
    names = [f"x{i + 1}" for i in range(len(xs[0]))]
    lines = [",".join([first, *names, last])]
    for a, x, b in zip(np.asarray(lead).tolist(), xs, np.asarray(tail).tolist()):
        lines.append(",".join([f"{v:.17g}" for v in (a, *x, b)]))
    return "\n".join(lines) + "\n"


def _solve_table(solve, problem, x0, config):
    iterates = []
    report = solve(get_builtin(problem), x0, config, on_step=iterates.append)
    return report, ("iter", iterates, "residual", range(len(iterates)), report.residuals)


def _sweep_table():
    sweep = sweep_trajectory(get_builtin("example1"), [6.0, 2.0], 0.01, 10.0)
    return "t", sweep.xs, "speed", sweep.ts, np.concatenate(([0.0], sweep.speeds))


def _diverged_table():
    report, table = _solve_table(solve_catchup, "example2", [43.0, 22.0, 55.0],
                                 SolverConfig(h=0.3))
    assert report.diverged
    return table


_ODD = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 1.7976931348623157e308,
        0.1, 2.0 / 3.0, -1e16, 123456789012345678.0]
CSV_TABLES = {
    "solve": lambda: _solve_table(solve_alg1, "example1", [6.0, 2.0],
                                  SolverConfig(h=0.01))[1],
    "sweep": _sweep_table,
    "catchup-diverged": _diverged_table,
    "one-dim": lambda: _solve_table(solve_alg1, "remark5", [0.5], SolverConfig(h=0.5))[1],
    "nan-inf-zero": lambda: ("t", [[v, -v] for v in _ODD], "speed", _ODD[::-1], _ODD),
    "one-row": lambda: ("iter", [[1.0, -0.0]], "residual", range(1), [np.nan]),
    # Rows past one % block, whose last block is short.
    "blocks": lambda: ("t", np.random.default_rng(3).normal(size=(9000, 3)), "speed",
                       np.arange(9000) * 0.01, np.random.default_rng(4).exponential(size=9000)),
}


@pytest.mark.parametrize("case", CSV_TABLES)
def test_csv_writer_matches_row_by_row_formatting(case, tmp_path):
    table = CSV_TABLES[case]()
    path = tmp_path / "trace.csv"
    _write_csv(path, *table)
    assert path.read_bytes() == _csv_row_by_row(*table).encode()


def test_analyze_spectral_displacement_constant(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:example1", "--estimate", "l")
    assert code == 0
    assert "(spectral)" in out
    value = float(out.split("=")[1].split("(")[0])
    assert value == pytest.approx(0.85, abs=0.01)
    assert out == "l = 0.84721359549995801 (spectral)\n"


def test_analyze_sampled_lipschitz_label(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:example1",
                       "--estimate", "L", "--samples", "2000")
    assert code == 0
    assert out.startswith("L_hat = ")
    assert "(sampled, lower bound)" in out


def test_analyze_gamma_scalar_pin(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:remark5", "--estimate", "gamma")
    assert code == 0
    assert "gamma_linear" not in out
    match = re.search(r"gamma_hat = ([^ ]+) \(sampled, upper bound\)", out)
    assert float(match.group(1)) >= 2.0 / 9.0
    assert match.group(1) == "0.58415707178459153"


def test_analyze_gamma_linear_part(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:example2",
                       "--estimate", "gamma", "--samples", "2000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("gamma_linear = ")
    assert "(spectral, linear parts only)" in lines[0]
    value = float(lines[0].split("=")[1].split("(")[0])
    assert value == pytest.approx(29.23949760584933, abs=1e-9)
    assert lines[1].startswith("gamma_hat = ")


def test_analyze_pseudo_clean(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:remark5",
                       "--estimate", "pseudo", "--samples", "2000")
    assert code == 0
    assert re.match(r"pseudo: violations=0 of \d+ sampled ordered pairs", out)


def test_file_and_builtin_solves_bit_identical(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    dump_problem(get_builtin("example2"), path)
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    code1, _, _ = run(capsys, "solve", "builtin:example2", "--x0", "43,22,55",
                      "--h", "0.3", "--summary", str(s1))
    code2, _, _ = run(capsys, "solve", str(path), "--x0", "43,22,55",
                      "--h", "0.3", "--summary", str(s2))
    assert code1 == code2 == 0
    assert json.loads(s1.read_text()) == json.loads(s2.read_text())


def test_summary_uses_null_for_non_finite(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code, _, _ = run(capsys, "solve", "builtin:remark5",
                     "--x0", "-0.31675082877200111", "--h", "0.5",
                     "--summary", str(summary))
    assert code == 0
    doc = json.loads(summary.read_text(encoding="utf-8"))
    assert doc["iterations"] == 0
    # No step was taken, so the displacement is undefined and serializes null.
    assert doc["displacement_final"] is None
    assert doc["rate_estimate"] is None


def test_tseng_literal_flag_runs(capsys):
    code, out, _ = run(capsys, "solve", "builtin:example1",
                       "--algorithm", "tseng", "--literal",
                       "--x0", "6,2", "--h", "0.01", "--max-iter", "2000")
    assert code in (0, 2, 3)
    assert out.startswith("status=")


def test_tseng_auto_step_on_a_constant_field_exits_1(tmp_path, capsys):
    # A constant f has a sampled L of 0, so 0.9 / (L l_tilde) has no value.
    doc = {"dim": 1, "f": ["5.79"], "v": {"matrix": [[0.643]]},
           "inverse": {"strategy": "picard", "l": 0.7}, "set": {"type": "whole_space"}}
    path = tmp_path / "constant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--algorithm", "tseng", "--x0", "0.5")
    assert (code, out) == (1, "")
    assert err == "error: ConfigError: h: the auto step 0.9 / (L l_tilde) is not positive " \
        "and finite at L = 0.0, l_tilde = 3.333333333333333\n"


def test_an_auto_step_whose_formula_overflows_exits_1(tmp_path, capsys):
    # "L": 1e200 is schema-valid, but gamma / L**2 overflows: one error line
    # that names h and its constants, not an OverflowError traceback.
    doc = problem_to_dict(get_builtin("example1"))
    doc["constants"] = {"L": 1e200}
    path = tmp_path / "huge-L.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--x0", "6,2")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: ConfigError: h: the auto step gamma / L\^2 is not positive and "
                        r"finite at gamma = [0-9.e-]+, L = 1e\+200\n", err)


@pytest.mark.parametrize("argv,x0", [
    (["solve", "builtin:example1", "--h", "0.1"], "-1,2"),
    (["sweep", "builtin:example1", "--h", "0.01", "--T", "1"], "-1,2"),
    (["zero", "builtin:example4"], "-1,2,3"),
])
@pytest.mark.parametrize("joined", [True, False])
def test_a_negative_first_x0_needs_the_equals_form(argv, x0, joined, capsys):
    # argparse takes "-1,2" after a space for an option, not for a value.
    x0_args = [f"--x0={x0}"] if joined else ["--x0", x0]
    code, out, err = run(capsys, *argv, *x0_args)
    if joined:
        assert code == 0
        assert out.startswith("status=done" if argv[0] == "sweep" else "status=converged")
    else:
        assert (code, out) == (1, "")
        assert err == "error: argument --x0: expected one argument\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "1e999"])
@pytest.mark.parametrize("argv,x0", [
    (["solve", "builtin:example1", "--h", "0.01"], "{},1"),
    (["zero", "builtin:example4"], "1,{},3"),
    (["sweep", "builtin:example1", "--h", "0.01", "--T", "1"], "{},1"),
], ids=["solve", "zero", "sweep"])
def test_a_non_finite_x0_is_a_usage_error(argv, x0, bad, capsys):
    # Not an error from the first field evaluation, nor a declared divergence.
    x0 = x0.format(bad)
    code, out, err = run(capsys, *argv, "--x0", x0)
    assert (code, out, err) == (1, "", f"error: --x0 must be finite, got {x0!r}\n")


def test_picard_with_a_remainder_solves_to_its_pinned_output(capsys):
    # example1 with v = V x + 0.1 (sin x2, cos x1), inverted by Picard: each
    # inner step writes y + v(x) into a row of the spec's buffer.
    path = Path(__file__).with_name("example1-picard-remainder.json")
    code, out, err = run(capsys, "solve", str(path), "--x0", "6,2", "--h", "0.01")
    assert (code, err) == (0, "")
    assert out == ("status=converged iterations=710 h_used=0.01 "
                   "residual=9.9048321461778534e-09 "
                   "x_final=[-0.37853928702138623, 0.18702548892573995]\n")


def test_picard_over_a_false_l_with_a_remainder_diverges_at_its_first_invert(tmp_path, capsys):
    # The norm rule cannot see v = 3x + 0.5, so the file loads at l 0.5. The
    # first invert's iterate overflows, and its chunk ends the inner loop
    # (test_inverse pins the count): the solve reports divergence on one line.
    doc = {"dim": 1, "f": ["x1"], "v": {"matrix": [[3.0]], "remainder": ["0.5"]},
           "inverse": {"strategy": "picard", "l": 0.5}, "set": {"type": "whole_space"}}
    path = tmp_path / "picard-remainder.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--x0", "1", "--h", "0.5")
    assert (code, out, err) == (
        2, "status=diverged iterations=0 h_used=0.5 residual=0.5 x_final=[1]\n", "")


def test_singular_scaffold_reports_cleanly(tmp_path, capsys):
    doc = {
        "kind": "zero",
        "dim": 2,
        "f": ["x1", "x2"],
        "w": {"matrix": [[1.0, 1.0], [1.0, 1.0]]},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "zero", str(path), "--x0", "1,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: SingularLinearPart:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("t_end,h", [("inf", "0.01"), ("1", "1e-320"), ("nan", "0.01"),
                                     ("inf", "inf")])
def test_a_sweep_without_a_finite_step_count_exits_1(t_end, h, capsys):
    code, out, err = run(capsys, "sweep", "builtin:example1", "--x0", "6,2",
                         "--h", h, "--T", t_end)
    assert (code, out) == (1, "")
    assert err == f"error: t_end / h must be finite, got t_end={float(t_end)} " \
        f"and h={float(h)}\n"


def test_a_sweep_over_the_step_cap_exits_1(capsys):
    code, out, err = run(capsys, "sweep", "builtin:example1", "--x0", "6,2",
                         "--h", "0.01", "--T", "1e5")
    assert (code, out) == (1, "")
    assert err == "error: a sweep of 10000000 steps (t_end / h) exceeds the cap " \
        "of 1000000 steps\n"


@pytest.mark.parametrize("argv,needle", [
    (["solve", "--x0", "1,1"], "a problem is required"),
    (["solve", "builtin:nope", "--x0", "1"], "unknown builtin"),
    (["solve", "builtin:example1", "--x0", "1,2,3"], "dim"),
    (["solve", "builtin:example1", "--x0", "a,b"], "comma list"),
    (["solve", "builtin:example1", "--x0", "1,1", "--h", "0"], "positive"),
    (["solve", "builtin:example1", "--x0", "1,1", "--h", "fast"], "auto"),
    (["solve", "builtin:example1", "--x0", "6,2", "--h", "inf"],
     "h must be positive and finite, got inf"),
    (["solve", "builtin:example1", "--x0", "6,2", "--h", "0.01", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    (["solve", "builtin:example1", "--algorithm", "alg3", "--x0", "1,1"],
     "zero problem"),
    (["solve", "builtin:example4", "--x0", EX4_X0], "alg3"),
    (["solve", "builtin:example1", "--x0", "1,1", "--algorithm", "newton"],
     "invalid choice"),
    (["solve", "builtin:example1"], "--x0"),
    (["sweep", "builtin:example4", "--x0", EX4_X0, "--h", "1", "--T", "5"],
     "qvi problem"),
    (["sweep", "builtin:example1", "--x0", "6,2", "--h", "0", "--T", "1"],
     "--h must be positive, got 0.0"),
    (["zero", "builtin:example1", "--x0", "1,1"], "zero problem"),
    (["analyze", "builtin:example4", "--estimate", "L"], "qvi problem"),
    (["solve", "missing.json", "--x0", "1"], "missing.json"),
    (["solve", "builtin:example1", "--algorithm", "alg1", "--literal", "--x0", "6,2",
      "--h", "0.01"], "--literal needs --algorithm tseng, got alg1"),
    (["solve", "builtin:example1", "--algorithm", "catchup", "--literal", "--x0", "6,2",
      "--h", "0.01"], "--literal needs --algorithm tseng, got catchup"),
    (["solve", "builtin:example4", "--algorithm", "alg3", "--literal", "--x0", EX4_X0],
     "--literal needs --algorithm tseng, got alg3"),
    (["solve", "builtin:example1", "--x0", "1,1", "--seed", "-1"],
     "argument --seed: need an integer >= 0 (default: QVI_SEED), got '-1'"),
    (["solve", "builtin:example1", "--x0", "1,1", "--seed", "2.5"], "argument --seed"),
    (["analyze", "builtin:example1", "--estimate", "L", "--seed", "abc"], "argument --seed"),
])
def test_usage_errors_exit_one(capsys, argv, needle):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert needle in err


@pytest.mark.parametrize("argv,line", [
    (["analyze", "builtin:example1", "--estimate", "L", "--samples", "0"],
     "argument --samples: count must be at least 2"),
    (["solve", "builtin:example1", "--x0", "6,2", "--h", "0.01", "--max-iter", "0"],
     "argument --max-iter: max_iter must be at least 1"),
    (["solve", "builtin:example1", "--x0", "6,2", "--h", "0.01", "--tol", "0"],
     "argument --tol: tol must be positive and finite, got 0.0"),
    (["zero", "builtin:example4", "--x0", EX4_X0, "--tol", "nan"],
     "argument --tol: tol must be positive and finite, got nan"),
    (["zero", "builtin:example4", "--x0", EX4_X0, "--max-iter", "-3"],
     "argument --max-iter: max_iter must be at least 1"),
    (["solve", "builtin:example1", "--x0", "6,2", "--h", "inf"],
     "--h must be positive and finite, got inf"),
    (["sweep", "builtin:example1", "--x0", "6,2", "--h", "0.01", "--T", "0"],
     "--T must be at least --h, got 0.0 < 0.01"),
    (["sweep", "builtin:example1", "--x0", "6,2", "--h", "inf", "--T", "1"],
     "--T must be at least --h, got 1.0 < inf"),
])
def test_a_numeric_flag_out_of_range_names_itself(capsys, argv, line):
    # The library's own message follows the flag it came from.
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {line}\n")


def test_bad_json_file_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "solve", str(path), "--x0", "1")
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("kind", ["box-without-bounds", "set-string",
                                  "missing-bracket", "deep-parens"])
def test_malformed_problem_file_exits_1_with_typed_error(kind, tmp_path, capsys):
    doc = problem_to_dict(get_builtin("remark5" if kind == "missing-bracket"
                                      else "example1"))
    if kind == "box-without-bounds":
        doc["set"] = {"type": "box"}
    elif kind == "set-string":
        doc["set"] = "box"
    elif kind == "missing-bracket":
        del doc["inverse"]["bracket"]
    else:
        doc["f"]["remainder"][0] = "(" * 5000 + "x1" + ")" * 5000
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    x0 = "0.5" if kind == "missing-bracket" else "6,2"
    code, out, err = run(capsys, "solve", str(path), "--x0", x0, "--h", "0.01")
    assert code == 1
    assert out == ""
    assert re.match(r"error: (ConfigError|ParseError): ", err)


@pytest.mark.parametrize("section,key,needle", [
    ("inverse", "direction", "inverse.direction: unknown key"),
    ("constants", "mu", "constants.mu: unknown key"),
])
def test_a_file_with_a_dropped_key_exits_1(section, key, needle, tmp_path, capsys):
    # remark5 files once held inverse.direction, and constants.mu was read
    # and dumped but used by no solver: both are rejected now.
    doc = problem_to_dict(get_builtin("remark5"))
    doc[section][key] = "decreasing" if key == "direction" else 0.1
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--x0", "0.5", "--h", "0.5")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: ConfigError: {needle}")


@pytest.mark.parametrize("key,matrix", [("f", 5), ("v", [[1.0, 2.0]]), ("w", [[1.0]])])
def test_bad_field_matrix_exits_1_naming_its_path(key, matrix, tmp_path, capsys):
    name, command, x0 = ("example4", "zero", EX4_X0) if key == "w" \
        else ("example1", "solve", "6,2")
    doc = problem_to_dict(get_builtin(name))
    doc[key] = {"matrix": matrix}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, command, str(path), "--x0", x0, "--h", "0.01")
    assert (code, out) == (1, "")
    dim = doc["dim"]
    expected = "an array, got 5" if matrix == 5 else f"a {dim}x{dim} matrix of finite numbers"
    assert err == f"error: ConfigError: {key}.matrix: expected {expected}\n"


def test_long_sums_solve_and_dump_or_exit_1(tmp_path, capsys):
    def write(terms, name):
        doc = problem_to_dict(get_builtin("example1"))
        doc["f"]["remainder"][0] = "+".join(["cos(x2)^3"] + ["0*x1"] * (terms - 1))
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    argv = ["--x0", "6,2", "--h", "0.01"]
    _, builtin_out, _ = run(capsys, "solve", "builtin:example1", *argv)
    long_sum = write(200, "long.json")
    assert run(capsys, "solve", long_sum, *argv) == (0, builtin_out, "")
    dumped = tmp_path / "dumped.json"
    dump_problem(load_problem(long_sum), dumped)
    assert run(capsys, "solve", str(dumped), *argv) == (0, builtin_out, "")

    code, out, err = run(capsys, "solve", write(1000, "too-long.json"), *argv)
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: ParseError: f.remainder[0]: expression tree is deeper than 256 levels")


# Expression forms for the fuzzed fields, over variables i and j and a constant c.
_FORMS = ["{c}*x{i}", "{c}", "sin(x{i})", "{c}*cos(x{j}) - x{i}", "x{i}^3", "1/x{i}",
          "sqrt(x{i})", "abs(x{i}) + min(x{i}, x{j})", "max(x{i}, {c})*x{j}"]
_ENTRIES = [-2.0, -0.7, 0.0, 0.3, 0.5, 1.0, 2.5]
# Output names in a fuzzed argv, written into the run's temporary directory.
_CSV, _SUMMARY = "trace.csv", "summary.json"


@st.composite
def _cli_runs(draw):
    """A 1-3-D problem document and the argv after its path: every field
    form, inverse strategy and set kind, each command, with bounded work."""
    dim = draw(st.integers(1, 3))

    def pick(values):
        return draw(st.sampled_from(values))

    def matrix():
        return [[pick(_ENTRIES) for _ in range(dim)] for _ in range(dim)]

    def exprs():
        return [pick(_FORMS).format(c=pick(_ENTRIES), i=draw(st.integers(1, dim)),
                                    j=draw(st.integers(1, dim))) for _ in range(dim)]

    def field(form=None):
        form = form or pick(["exprs", "matrix", "split"])
        return (exprs() if form == "exprs" else {"matrix": matrix()} if form == "matrix"
                else {"matrix": matrix(), "remainder": exprs()})

    def outputs():
        """Either output of a solve, both or neither."""
        return [arg for flag, name in (("--out", _CSV), ("--summary", _SUMMARY))
                if draw(st.booleans()) for arg in (flag, name)]

    x0 = "--x0=" + ",".join(str(pick(_ENTRIES)) for _ in range(dim))
    if draw(st.integers(0, 5)) == 0:
        doc = {"kind": "zero", "dim": dim, "f": field(), "w": {"matrix": matrix()}}
        return doc, ["solve", "--algorithm", "alg3", x0, "--max-iter", "30", *outputs()]
    strategy = pick(["linear_exact", "picard", "semilinear", "scalar_bracket"])
    inverse = {"strategy": strategy, "max_inner": draw(st.integers(1, 200))}
    form = {"linear_exact": "matrix", "semilinear": "split"}.get(strategy)
    if strategy == "picard":
        inverse["l"] = pick([0.0, 0.3, 0.9])
    elif strategy == "semilinear":
        inverse["l_g"] = pick([0.05, 0.5, 3.0])
    elif strategy == "scalar_bracket":
        inverse["bracket"] = pick([[-10.0, 10.0], [0.0, 1.0], [-1e3, 5.0]])
    kind = pick(["whole_space", "orthant", "box"])
    cset = {"type": kind}
    if kind == "box":
        cset.update(lower=[-1.0 - pick(_ENTRIES) ** 2] * dim, upper=[pick(_ENTRIES) ** 2] * dim)
    doc = {"dim": dim, "f": field(), "v": field(form), "inverse": inverse, "set": cset}
    command = pick(["alg1", "tseng", "catchup", "sweep", "analyze"])
    if command == "sweep":
        return doc, ["sweep", x0, "--h", str(pick([0.05, 0.5])), "--T", "1"]
    if command == "analyze":
        return doc, ["analyze", "--estimate", pick(["L", "l", "gamma", "pseudo"]),
                     "--samples", "50"]
    h = pick(["auto", "0.1", "1"])
    return doc, ["solve", "--algorithm", command, x0, "--h", h, "--max-iter", "30", *outputs()]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_cli_runs())
# A semilinear inverse whose iterates overflow printed a NumPy warning over
# its error line.
@example(({"dim": 1, "f": {"matrix": [[-0.7]]}, "v": {"matrix": [[0.0]], "remainder": ["x1^3"]},
           "inverse": {"strategy": "semilinear", "l_g": 0.05},
           "set": {"type": "box", "lower": [-2.0], "upper": [0.0]}},
          ["sweep", "--x0=-0.7", "--h", "0.5", "--T", "1"]))
# Converged solves with both outputs, so the recomputed residuals are checked.
@example(({"dim": 1, "f": {"matrix": [[2.0]]}, "v": {"matrix": [[0.3]]},
           "inverse": {"strategy": "linear_exact"},
           "set": {"type": "box", "lower": [-1.0], "upper": [0.5]}},
          ["solve", "--algorithm", "alg1", "--x0=2.5", "--h", "0.3", "--max-iter", "30",
           "--out", _CSV, "--summary", _SUMMARY]))
@example(({"dim": 1, "f": {"matrix": [[1.0]]}, "v": {"matrix": [[0.0]]},
           "inverse": {"strategy": "linear_exact"}, "set": {"type": "orthant"}},
          ["solve", "--algorithm", "tseng", "--x0=2.5", "--h", "0.5", "--max-iter", "100",
           "--out", _CSV]))
@example(({"kind": "zero", "dim": 1, "f": ["x1 + 0.1*sin(x1)"], "w": {"matrix": [[1.5]]}},
          ["solve", "--algorithm", "alg3", "--x0=2.5", "--max-iter", "30",
           "--out", _CSV, "--summary", _SUMMARY]))
def test_fuzzed_problem_files_exit_with_a_code_or_one_error_line(run_spec):
    doc, argv = run_spec
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [str(Path(tmp) / arg) if arg in (_CSV, _SUMMARY) else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        # A warning would print a line of its own on stderr: here it raises.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            code = main([argv[0], str(path), *argv[1:]])
            # A fuzzed run does bounded work (at most 30 iterations, 200 inner
            # steps or 50 samples); about 1,900 such runs each took under 5 s.
            assert time.perf_counter() - start < 5.0
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        elif argv[0] == "solve":
            _check_solve_outputs(load_problem(path), argv, out.getvalue(), Path(tmp))


def _check_solve_outputs(problem, argv, stdout, tmp):
    """The status line, --summary and --out of one run say the same, and a
    converged x_final meets the tolerance when its residual is recomputed."""
    status, iterations, h_used, x_final = re.fullmatch(
        r"status=(\S+) iterations=(\d+) h_used=(\S+) residual=\S+ x_final=\[(.*)\]\n",
        stdout).groups()
    iterations, h_used = int(iterations), float(h_used)
    x_final = [float(v) for v in x_final.split(", ")]
    if "--summary" in argv:
        doc = json.loads((tmp / _SUMMARY).read_text(encoding="utf-8"))
        assert ("converged" if doc["converged"] else "diverged" if doc["diverged"]
                else "max-iter") == status
        assert doc["iterations"] == iterations
        assert doc["h_used"].hex() == h_used.hex()
        assert [v.hex() for v in doc["x_final"]] == [v.hex() for v in x_final]
    if "--out" in argv:
        rows = (tmp / _CSV).read_text(encoding="utf-8").splitlines()
        assert len(rows) == iterations + 2
        assert [float(v).hex() for v in rows[-1].split(",")[1:-1]] == \
            [v.hex() for v in x_final]
    if status == "converged":
        x = np.array(x_final)
        residual = (np.linalg.norm(problem.f(x)) if "alg3" in argv
                    else natural_residual(problem, x, h_used))
        assert residual <= 1e-8

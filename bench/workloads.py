"""Workloads of the qvikit benchmark: set-up, operations and their checks.

A workload yields its calls into qvikit one cycle at a time. Cycle 0 uses
the README and acceptance-test inputs; later cycles draw their inputs from
``numpy.random.default_rng`` seeded with the workload seed, so a seed fixes
every input. An operation is one call, except that from cycle 1 on a solve
is a chain of calls (see BUDGET). Each call's check runs after the timer
stops and returns the problems it found (none means the output is correct).
Its fingerprint is a digest of the output, computed without calling qvikit,
so the traced and the untraced loop can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qvikit as qk
from qvikit import cli

BUILTIN_NAMES = ("example1", "example2", "example3", "example4", "remark5")
SOLVE_CASES = ("alg1.example1", "alg1.example1-picard", "alg1.example2",
               "alg1.example3", "alg1.remark5", "tseng.example1",
               "catchup.example2", "zero.example4", "sweep.example1")

# README/acceptance start points, perturbed by up to +-50 % per component
# after cycle 0. Iteration counts then stay within about 3 % of cycle 0.
X0 = {
    "example1": (6.0, 2.0),
    "example2": (43.0, 22.0, 55.0),
    "example3": (5.0, 4.0, 2.0),
    "example4": (1e4, 2e4, 3e4),
    "remark5": (0.5,),
}
SPREAD = 0.5

# Endpoint tolerance against the recorded reference solutions (inf-norm).
ENDPOINT_TOL = 1e-6
# Sampled estimates must match the values recorded at the defining commit.
ESTIMATE_TOL = 1e-9
SEED0_AUTO_STEP_EXAMPLE1 = 0.031025305967294112

# The estimate workload cycles through SLOTS recorded plan-seed slots:
# workload seed s in cycle c uses slot (s + c) % SLOTS, and operation i of
# the cycle samples with plan seed 16 * slot + i. Distinct cycles of one run
# therefore never share pairs, and every operation has a reference value.
# A plan holds 200 pairs, not the CLI's default 10k: a call then takes a few
# ms, short enough that its fastest time in a run is steady on a busy host.
SLOTS = 512
PLAN_COUNT = 200

# `qvikit analyze builtin:example1 --estimate l` at the defining commit. The
# README shows ...796; the command prints ...801.
ANALYZE_L_STDOUT = "l = 0.84721359549995801 (spectral)\n"

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclass
class Op:
    """One benchmark operation: the timed call and how to judge its result."""

    case: str
    call: Callable[[], object]
    check: Callable[[object], list]
    fingerprint: Callable[[object], str]
    iterations: Callable[[object], int] | None = None
    outputs: tuple = ()  # files the call writes; removed before it runs
    part: int = 0  # position of the call in a chain of calls that is one operation


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def start_point(name, cycle, rng):
    x0 = np.array(X0[name])
    if cycle == 0:
        return x0
    return x0 * (1.0 + rng.uniform(-SPREAD, SPREAD, x0.size))


def off_by(x, ref):
    return float(np.max(np.abs(np.asarray(x, float) - np.asarray(ref, float))))


# --------------------------------------------------------------------------
# Set-up shared by every workload: problems, problem files, malformed files.


def _malformed_docs(docs):
    """Problem files the loader must reject with exit code 1."""
    def copy(name):
        return json.loads(json.dumps(docs[name]))

    box, text, bracket, deep, div = (copy("example1"), copy("example1"),
                                     copy("remark5"), copy("example1"),
                                     copy("example1"))
    box["set"] = {"type": "box"}
    text["set"] = "box"
    del bracket["inverse"]["bracket"]
    deep["f"]["remainder"][0] = "(" * 5000 + "x1" + ")" * 5000
    div["f"]["remainder"][0] = "x1/(x2-x2)"
    return {"box-without-bounds": box, "set-string": text,
            "missing-bracket": bracket, "deep-parens": deep,
            "division-by-zero": div}


@dataclass
class Setup:
    problems: dict  # builtin name -> problem, plus "example1-picard"
    files: dict  # problem name -> JSON file, plus "malformed.<kind>"
    timings: dict  # seconds: "get_builtin.<name>", mean "dump" and "load"
    workdir: Path


def build(workdir):
    """Build every problem and write every problem file into ``workdir``."""
    workdir = Path(workdir)
    timings = {}
    problems = {}
    for name in BUILTIN_NAMES:
        t0 = time.perf_counter()
        problems[name] = qk.get_builtin(name)
        timings[f"get_builtin.{name}"] = time.perf_counter() - t0

    files = {}
    dumps = []
    for name, problem in problems.items():
        files[name] = workdir / f"{name}.json"
        t0 = time.perf_counter()
        qk.dump_problem(problem, files[name])
        dumps.append(time.perf_counter() - t0)
    timings["dump"] = float(np.mean(dumps))

    docs = {name: json.loads(path.read_text(encoding="utf-8"))
            for name, path in files.items()}
    picard = json.loads(json.dumps(docs["example1"]))
    picard["inverse"].update(strategy="picard", l=0.85)
    files["example1-picard"] = workdir / "example1-picard.json"
    files["example1-picard"].write_text(json.dumps(picard, indent=2) + "\n",
                                        encoding="utf-8")
    for kind, doc in _malformed_docs(docs).items():
        files[f"malformed.{kind}"] = workdir / f"malformed-{kind}.json"
        files[f"malformed.{kind}"].write_text(json.dumps(doc), encoding="utf-8")

    loads = []
    for name in (*BUILTIN_NAMES, "example1-picard"):
        t0 = time.perf_counter()
        loaded = qk.load_problem(files[name])
        loads.append(time.perf_counter() - t0)
    timings["load"] = float(np.mean(loads))
    problems["example1-picard"] = loaded
    return Setup(problems, files, timings, workdir)


# --------------------------------------------------------------------------
# solve: one solve per operation, fixed h, record="none".
#
# Cycle 0 solves from the README points, one call per solve. From cycle 1 on,
# each case starts from one seeded point per run, moved by a relative JITTER
# per cycle so that no input repeats while every cycle does the same work.
# Such a solve runs as a chain of calls of at most BUDGET iterations (sweep:
# steps), each resuming from the endpoint of the call before. A call then
# takes a few ms, and the best time of each call of the chain is steady on a
# busy host where a 50-500 ms solve's best time is not. Algorithm 1 and the
# sweep carry only x, so the chain's iterates are bit-identical to one
# call's; Tseng restarts its y = x - v(x). Cycle 1 checks the chain against
# one call from the same point.

BUDGET = {"alg1.example1": 64, "alg1.example1-picard": 8, "alg1.example2": 64,
          "alg1.example3": 16, "tseng.example1": 48, "sweep.example1": 100}
# How far a chain's endpoint may lie from one call's: Tseng restarts y.
CHAIN_TOL = {"tseng.example1": 1e-12}
JITTER = 1e-6
MAX_ITER = qk.SolverConfig().max_iter
SWEEP_H, SWEEP_STEPS = 0.01, 1000


def solve_point(name, seed, index, cycle):
    """Start point of solve case ``index`` in ``cycle`` of run ``seed``."""
    x0 = np.array(X0[name])
    if cycle == 0:
        return x0
    base = x0 * (1.0 + np.random.default_rng([seed, 0, index])
                 .uniform(-SPREAD, SPREAD, x0.size))
    return base * (1.0 + JITTER * np.random.default_rng([seed, cycle, index])
                   .uniform(-1.0, 1.0, x0.size))


def _report_fp(report):
    return digest(report.x_final.tobytes(), report.iterations, report.converged,
                  report.diverged, report.residual_final, report.h_used)


def _check_converged(problem, ref, h, tol):
    def check(report):
        problems = []
        if not report.converged:
            problems.append(f"not converged after {report.iterations} iterations")
        if h is None:  # zero finder: the residual is |f(x)|
            residual = float(np.linalg.norm(problem.f(report.x_final)))
        else:
            residual = qk.natural_residual(problem, report.x_final, h)
        if not residual <= tol:
            problems.append(f"residual {residual:.3e} > tol {tol:.0e}")
        if not off_by(report.x_final, ref) <= ENDPOINT_TOL:
            problems.append(f"endpoint off the reference by "
                            f"{off_by(report.x_final, ref):.3e}")
        return problems
    return check


def _check_diverged(report):
    return [] if report.diverged and not report.converged else [
        "catch-up step on example2 was not reported as diverged"]


class SolveWorkload:
    """Nine solver cases; nearly all time in expr, model, inverse, solvers."""

    name = "solve"
    TOL = 1e-8

    def __init__(self, setup, seed, reference):
        self.seed = seed
        p = setup.problems
        sol = reference["solutions"]
        tol = self.TOL

        def alg1(problem, h):
            return lambda x0, budget=MAX_ITER: qk.solve_alg1(
                problem, x0, qk.SolverConfig(h=h, tol=tol, max_iter=budget))

        ex1, ex2 = p["example1"], p["example2"]
        # (case, start point, call(x0[, budget]), check)
        self.cases = [
            ("alg1.example1", "example1", alg1(ex1, 0.01),
             _check_converged(ex1, sol["example1"], 0.01, tol)),
            ("alg1.example1-picard", "example1", alg1(p["example1-picard"], 0.01),
             _check_converged(p["example1-picard"], sol["example1"], 0.01, tol)),
            ("alg1.example2", "example2", alg1(ex2, 0.3),
             _check_converged(ex2, sol["example2"], 0.3, tol)),
            ("alg1.example3", "example3", alg1(p["example3"], 0.3),
             _check_converged(p["example3"], sol["example3"], 0.3, tol)),
            ("alg1.remark5", "remark5", alg1(p["remark5"], 0.5),
             _check_converged(p["remark5"], sol["remark5"], 0.5, tol)),
            ("tseng.example1", "example1",
             lambda x0, budget=MAX_ITER: qk.solve_tseng(
                 ex1, x0, qk.SolverConfig(h=0.01, tol=tol, max_iter=budget)),
             _check_converged(ex1, sol["example1"], 0.01, tol)),
            ("catchup.example2", "example2",
             lambda x0: qk.solve_catchup(ex2, x0, qk.SolverConfig(h=0.3, tol=tol)),
             _check_diverged),
            ("zero.example4", "example4",
             lambda x0: qk.solve_zero(p["example4"].f, p["example4"].w, x0,
                                      qk.SolverConfig(h=1.0, tol=1e-10)),
             _check_converged(p["example4"], sol["example4"], None, 1e-10)),
        ]
        self.ex1 = ex1
        self.sol1 = sol["example1"]
        if tuple(c[0] for c in self.cases) + ("sweep.example1",) != SOLVE_CASES:
            raise RuntimeError("solve cases out of step with SOLVE_CASES")

    def _chain(self, case, x0, call, check, cycle):
        """Ops that run one solve as calls of at most BUDGET[case] iterations."""
        budget = BUDGET[case]
        x, done, part = x0, 0, 0
        while True:
            box = {}

            def run(x=x, box=box):
                box["report"] = call(x, budget)
                return box["report"]

            def check_part(report, done=done):
                total = done + report.iterations
                if not (report.converged or report.diverged) \
                        and report.iterations == budget and total < MAX_ITER:
                    return []  # the budget ran out; the next call resumes
                problems = check(report)
                if cycle == 1:  # once a run: the chain against one call
                    whole = call(x0)
                    if whole.iterations != total:
                        problems.append(f"chain took {total} iterations, one call "
                                        f"{whole.iterations}")
                    gap = off_by(report.x_final, whole.x_final)
                    if gap > CHAIN_TOL.get(case, 0.0):
                        problems.append(f"chain endpoint off one call's by {gap:.3e}")
                return problems

            yield Op(case, run, check_part, _report_fp, lambda r: r.iterations,
                     part=part)
            report = box.get("report")
            if report is None or report.converged or report.diverged \
                    or report.iterations < budget:
                return
            done += report.iterations
            if done >= MAX_ITER:
                return
            x, part = report.x_final, part + 1

    def _sweep_check(self, xs, diverged, steps):
        problems = []
        if diverged:
            problems.append("sweep diverged")
        if steps != SWEEP_STEPS:
            problems.append(f"sweep took {steps} steps, not {SWEEP_STEPS}")
        residual = qk.natural_residual(self.ex1, xs[-1], SWEEP_H)
        if not residual <= self.TOL:
            problems.append(f"sweep endpoint residual {residual:.3e}")
        if not off_by(xs[-1], self.sol1) <= ENDPOINT_TOL:
            problems.append("sweep endpoint off the reference")
        return problems

    def _sweep(self, x0, cycle):
        """Ops of the sweep: one call in cycle 0, else calls of BUDGET steps."""
        def sweep(x, steps):
            return qk.sweep_trajectory(self.ex1, x, SWEEP_H, steps * SWEEP_H)

        def fp(r):
            return digest(r.xs.tobytes(), r.diverged)

        def steps_of(r):
            return len(r.xs) - 1

        if cycle == 0:
            yield Op("sweep.example1", lambda: sweep(x0, SWEEP_STEPS),
                     lambda r: self._sweep_check(r.xs, r.diverged, steps_of(r)),
                     fp, steps_of)
            return
        budget = BUDGET["sweep.example1"]
        x, done = x0, 0
        while done < SWEEP_STEPS:
            n = min(budget, SWEEP_STEPS - done)
            box = {}

            def run(x=x, n=n, box=box):
                box["result"] = sweep(x, n)
                return box["result"]

            def check_part(r, n=n, done=done):
                if r.diverged or steps_of(r) != n:
                    return [f"sweep call of {n} steps took {steps_of(r)}, "
                            f"diverged={r.diverged}"]
                if done + n < SWEEP_STEPS:
                    return []
                problems = self._sweep_check(r.xs, r.diverged, done + n)
                if cycle == 1:  # once a run: the chain against one call
                    whole = sweep(x0, SWEEP_STEPS)
                    if not np.array_equal(whole.xs[-1], r.xs[-1]):
                        problems.append("sweep chain endpoint differs from one call's")
                return problems

            yield Op("sweep.example1", run, check_part, fp, steps_of,
                     part=done // budget)
            result = box.get("result")
            if result is None or result.diverged:
                return
            done += n
            x = result.xs[-1]

    def ops(self, cycle):
        for index, (case, start, call, check) in enumerate(self.cases):
            x0 = solve_point(start, self.seed, index, cycle)
            if cycle == 0 or case not in BUDGET:
                yield Op(case, lambda call=call, x0=x0: call(x0), check, _report_fp,
                         lambda r: r.iterations)
            else:
                yield from self._chain(case, x0, call, check, cycle)
        x0 = solve_point("example1", self.seed, len(self.cases), cycle)
        yield from self._sweep(x0, cycle)


# --------------------------------------------------------------------------
# estimate: one sampled estimator call with a 10k-pair plan per operation.


def _w_field(problem):
    return qk.FuncField(problem.dim, lambda x: x - problem.v(x))


def _pseudo_summary(report):
    return [report.checked, report.violations]


class EstimateWorkload:
    """Ten estimator calls; time in analysis.sample_pairs and expr evaluation."""

    name = "estimate"

    def __init__(self, setup, seed, reference):
        self.seed = seed
        self.reference = reference["estimate"] if reference else None
        p = setup.problems
        e1, e2, e3, r5 = p["example1"], p["example2"], p["example3"], p["remark5"]
        self.example1 = e1
        w1, w2, w5 = _w_field(e1), _w_field(e2), _w_field(r5)
        self.calls = [
            ("auto_step.example1", lambda plan: qk.auto_step(e1, plan)),
            ("auto_step.example2", lambda plan: qk.auto_step(e2, plan)),
            ("auto_step.example3", lambda plan: qk.auto_step(e3, plan)),
            ("tseng_auto_step.example3", lambda plan: qk.tseng_auto_step(e3, plan)),
            ("sample_lipschitz.example1", lambda plan: qk.sample_lipschitz(e1.f, plan)),
            ("sample_lipschitz.example2", lambda plan: qk.sample_lipschitz(e2.f, plan)),
            ("sample_pair_modulus.example1",
             lambda plan: qk.sample_pair_modulus(e1.f, w1, plan)),
            ("sample_pair_modulus.example2",
             lambda plan: qk.sample_pair_modulus(e2.f, w2, plan)),
            ("check_pseudo_pair.remark5",
             lambda plan: _pseudo_summary(qk.check_pseudo_pair(r5.f, w5, plan))),
            ("scalar_bracket_lipschitz.remark5",
             lambda plan: r5.inverse.lipschitz(seed=plan.seed, count=plan.count)),
        ]

    def _check(self, case, slot, cycle):
        def check(value):
            want = self.reference[case][slot]
            if case.startswith("check_pseudo_pair"):
                return [] if value == want else [f"{case}: {value} != {want}"]
            problems = []
            if not abs(value - want) <= ESTIMATE_TOL:
                problems.append(f"{case} slot {slot}: {value!r} != {want!r}")
            if case == "auto_step.example1" and cycle == 0:
                # Once a run, untimed: the CLI's default plan gives the pin.
                pinned = qk.auto_step(self.example1, qk.SamplingPlan(seed=0))
                if pinned != SEED0_AUTO_STEP_EXAMPLE1:
                    problems.append(f"seed-0 auto_step(example1) = {pinned!r}")
            return problems
        return check

    def ops(self, cycle):
        slot = (self.seed + cycle) % SLOTS
        out = []
        for i, (case, call) in enumerate(self.calls):
            plan = qk.SamplingPlan(seed=16 * slot + i, count=PLAN_COUNT)
            out.append(Op(case, lambda call=call, plan=plan: call(plan),
                          self._check(case, slot, cycle), digest))
        return out


# --------------------------------------------------------------------------
# cli: in-process qvikit.cli.main on README commands and malformed files.


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_status(stdout):
    """Fields of the solve status line; x_final as a list of floats."""
    head, x = stdout.split(" x_final=[", 1)
    fields = dict(part.split("=", 1) for part in head.split())
    fields["x_final"] = [float(v) for v in x.strip().rstrip("]").split(", ")]
    return fields


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines()]


class CliWorkload:
    """README commands with fixed h or spectral constants, plus bad files.

    Every problem command runs twice: from the builtin and from the file that
    set-up dumped, whose outputs must be byte-identical to the builtin's.
    A third of the operations are malformed problem files that must exit 1.
    """

    name = "cli"
    MALFORMED_X0 = {"missing-bracket": "0.5"}

    def __init__(self, setup, seed, reference):
        self.seed = seed
        self.files = setup.files
        self.dir = setup.workdir
        self.sol = reference["solutions"]
        self.last = {}  # command -> (code, stdout, stderr, files) from the builtin

    def _paths(self, command, source, suffixes):
        return tuple(self.dir / f"cli-{command}-{source}{s}" for s in suffixes)

    @staticmethod
    def _op(case, argv, outputs, check):
        def collect(result):
            code, out, err = result
            return code, out, err, {p.suffix: p.read_bytes()
                                    for p in outputs if p.exists()}

        def fp(result):
            code, out, err, files = collect(result)
            return digest(code, out, err, *[files[k] for k in sorted(files)])

        return Op(case, lambda: run_main(argv), lambda r: check(collect(r)), fp,
                  outputs=outputs)

    def _remember(self, command, check):
        def remember(result):
            self.last[command] = result
            return check(result)
        return remember

    def _check_same(self, command):
        def check(result):
            want = self.last.pop(command, None)
            if want is None:
                return [f"{command}: builtin run missing"]
            labels = ("exit code", "stdout", "stderr", "output files")
            return [f"{command}: {label} from the dumped file differs from the builtin"
                    for label, a, b in zip(labels, result, want) if a != b]
        return check

    def _check_solve(self, ref, tol, records):
        def check(result):
            code, out, err, files = result
            if code != 0:
                return [f"exit code {code}, want 0: {err.strip()}"]
            status = _parse_status(out)
            problems = []
            if status["status"] != "converged":
                problems.append(f"status {status['status']}")
            if not float(status["residual"]) <= tol:
                problems.append(f"residual {status['residual']}")
            if not off_by(status["x_final"], ref) <= ENDPOINT_TOL:
                problems.append("endpoint off the reference")
            if records:  # --summary JSON and --out CSV
                doc = json.loads(files[".json"])
                if not (doc["converged"] and doc["residual_final"] <= tol
                        and doc["iterations"] == int(status["iterations"])):
                    problems.append("summary JSON disagrees with the run")
                rows = _csv_rows(files[".csv"].decode())
                if rows[0] != ["iter", "x1", "x2", "residual"] \
                        or len(rows) != int(status["iterations"]) + 2 \
                        or not float(rows[-1][-1]) <= tol:
                    problems.append("CSV trace malformed")
                elif [float(v) for v in rows[-1][1:3]] != doc["x_final"]:
                    problems.append("CSV trace does not round-trip the endpoint")
            return problems
        return check

    def _check_sweep(self, result):
        code, out, err, files = result
        if code != 0:
            return [f"sweep exit code {code}: {err.strip()}"]
        rows = _csv_rows(files[".csv"].decode())
        problems = []
        if rows[0] != ["t", "x1", "x2", "speed"] or len(rows) != 1002:
            problems.append("sweep CSV malformed")
        elif not off_by([float(v) for v in rows[-1][1:3]], self.sol["example1"]) \
                <= ENDPOINT_TOL:
            problems.append("sweep endpoint off the reference")
        if not out.startswith("status=done "):
            problems.append(f"sweep status line {out.strip()!r}")
        return problems

    @staticmethod
    def _check_analyze(result):
        code, out, err, _ = result
        if code != 0 or out != ANALYZE_L_STDOUT:
            return [f"analyze printed {out!r} (exit {code}), want {ANALYZE_L_STDOUT!r}"]
        return []

    @staticmethod
    def _check_catchup(result):
        code, out, err, _ = result
        if code != 2 or not out.startswith("status=diverged "):
            return [f"catch-up exit {code}, stdout {out.strip()!r}; want exit 2, diverged"]
        return []

    @staticmethod
    def _check_rejected(result):
        code, out, err, _ = result
        if code != 1 or not err.startswith("error: "):
            return [f"malformed file: exit {code}, stderr {err.strip()[:80]!r}; want 1"]
        return []

    def ops(self, cycle):
        rng = np.random.default_rng([self.seed, cycle])

        def fmt(x):
            return ",".join(repr(float(v)) for v in x)

        x1 = fmt(start_point("example1", cycle, rng))
        x4 = fmt(start_point("example4", cycle, rng))
        x2 = fmt(start_point("example2", cycle, rng))
        solve_ok = self._check_solve(self.sol["example1"], 1e-8, records=True)
        zero_ok = self._check_solve(self.sol["example4"], 1e-10, records=False)
        # command -> (argv after the problem, output suffixes, builtin check)
        commands = {
            "solve": ("example1", ["solve"], ["--x0", x1, "--h", "0.01"],
                      (".csv", ".json"), solve_ok),
            "sweep": ("example1", ["sweep"],
                      ["--x0", x1, "--h", "0.01", "--T", "10"], (".csv",),
                      self._check_sweep),
            "analyze": ("example1", ["analyze"], ["--estimate", "l"], (),
                        self._check_analyze),
            "zero": ("example4", ["zero"], ["--x0", x4], (), zero_ok),
            "catchup": ("example2", ["solve"],
                        ["--algorithm", "catchup", "--x0", x2, "--h", "0.3"], (),
                        self._check_catchup),
        }
        out = []
        for command, (name, head, tail, suffixes, check) in commands.items():
            # The file run follows its builtin run, whose outputs it must equal.
            for source, problem in (("builtin", f"builtin:{name}"),
                                    ("file", str(self.files[name]))):
                paths = self._paths(command, source, suffixes)
                argv = head + [problem] + tail
                if ".csv" in suffixes:
                    argv += ["--out", str(paths[0])]
                if ".json" in suffixes:
                    argv += ["--summary", str(paths[1])]
                out.append(self._op(
                    f"{command}.{source}", argv, paths,
                    self._remember(command, check) if source == "builtin"
                    else self._check_same(command)))
        for name in sorted(self.files):
            if name.startswith("malformed."):
                kind = name.split(".", 1)[1]
                argv = ["solve", str(self.files[name]),
                        "--x0", self.MALFORMED_X0.get(kind, "6,2"), "--h", "0.01"]
                out.append(self._op(name, argv, (), self._check_rejected))
        return out


WORKLOADS = {w.name: w for w in (SolveWorkload, EstimateWorkload, CliWorkload)}

"""Record the reference values the benchmark checks outputs against.

    python3 bench/make_reference.py

Writes bench/reference.json: tight solutions (tol 1e-12) of every builtin,
and the value of every estimate-workload operation for each of the SLOTS
plan-seed slots. Run it only to define the benchmark; a change that claims
a gain must reproduce these values, not re-record them. Takes about five
minutes on one core.
"""

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import qvikit as qk  # noqa: E402
import workloads  # noqa: E402


def solutions(problems):
    steps = {"example1": 0.01, "example2": 0.3, "example3": 0.3, "remark5": 0.5}
    reports = {name: qk.solve_alg1(problems[name], np.array(workloads.X0[name]),
                                   qk.SolverConfig(h=h, tol=1e-12, max_iter=200_000))
               for name, h in steps.items()}
    ex4 = problems["example4"]
    reports["example4"] = qk.solve_zero(
        ex4.f, ex4.w, np.array(workloads.X0["example4"]),
        qk.SolverConfig(h=1.0, tol=1e-14, max_iter=1000))
    for name, report in reports.items():
        if not report.converged:
            raise RuntimeError(f"reference solve of {name} did not converge")
    return {name: report.x_final.tolist() for name, report in reports.items()}


def main():
    workdir = BENCH / "out" / "reference-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = workloads.build(workdir)
        estimate = workloads.EstimateWorkload(setup, 0, None)
        table = {case: [] for case, _ in estimate.calls}
        for slot in range(workloads.SLOTS):
            for op in estimate.ops(slot):  # seed 0, cycle c uses slot c
                table[op.case].append(op.call())
            print(f"slot {slot} done", flush=True)
        doc = {"solutions": solutions(setup.problems), "estimate": table}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: solve (fixed-point and zero-finder iterations), sweep
(time-stamped trajectory of the discretized sweeping dynamics), analyze
(constant estimation with bias direction), zero (root problems; it is
solve --algorithm alg3 with --tol 1e-10).

Exit codes are a contract: 0 converged, 2 declared divergence, 3 iteration
cap, 1 usage or input errors. CSV columns are "iter,x1,...,xn,residual"
for solves and "t,x1,...,xn,speed" for sweeps, 17 significant digits.

``main(argv)`` may be called repeatedly in one process: it builds one parser
per QVI_SEED value. A solve collects its iterates only for --out and fits
its rate only for --summary.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    SamplingPlan,
    check_pseudo_pair,
    pair_modulus_linear,
    sample_pair_modulus,
)
from .errors import DiagnosticsError, QvikitError
from .problems import ZeroProblem, get_builtin, load_problem
from .solvers import (
    SolverConfig,
    auto_step,
    loglinear_fit,
    resolve_constant,
    solve_alg1,
    solve_catchup,
    solve_tseng,
    solve_zero,
    sweep_trajectory,
    tseng_auto_step,
)


class UsageError(QvikitError):
    """Bad flags or inconsistent inputs; always exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(v):
    return f"{float(v):.17g}"


def _fmt_vec(x):
    return "[" + ", ".join(_fmt(v) for v in x) + "]"


def _num_or_none(v):
    if v is None or not np.isfinite(v):
        return None
    return float(v)


def _resolve_problem(args, zero):
    """The named problem, which must be a zero problem if ``zero``, else a QVI."""
    spec = args.problem_flag or args.problem
    if spec is None:
        raise UsageError("a problem is required: --problem FILE or builtin:NAME")
    if spec.startswith("builtin:"):
        problem = get_builtin(spec[len("builtin:"):])
    else:
        problem = load_problem(spec)
    if isinstance(problem, ZeroProblem) != zero:
        what = "solve --algorithm alg3" if zero and args.command == "solve" else args.command
        need = ('a zero problem (kind "zero"), not a qvi problem' if zero else
                "a qvi problem, not a zero problem (those run with --algorithm alg3)")
        raise UsageError(f"{what} needs {need}")
    return problem


def _parse_x0(text, dim):
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"--x0 must be a comma list of numbers, got {text!r}") from None
    if len(values) != dim:
        raise UsageError(f"--x0 has {len(values)} entries but the problem has dim {dim}")
    if not np.isfinite(values).all():
        raise UsageError(f"--x0 must be finite, got {text!r}")
    return np.asarray(values, float)


def _parse_h(text):
    if text == "auto":
        return None
    try:
        h = float(text)
    except ValueError:
        raise UsageError(f"--h must be 'auto' or a positive number, got {text!r}") from None
    if not 0 < h < math.inf:
        raise UsageError(f"--h must be positive and finite, got {text}")
    return h


def _write_csv(path, first, xs, last, lead, tail):
    """Rows "lead,x1,...,xn,tail" under the header "first,x1,...,xn,last",
    each number in _fmt's format; one % formats a block of rows."""
    xs, lead, tail = (np.asarray(a, float) for a in (xs, lead, tail))
    block = 4096  # rows per %: the text and floats of one % stay small
    names = "".join(f"x{i + 1}," for i in range(xs.shape[1]))
    row = ",".join(["%.17g"] * (xs.shape[1] + 2)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{first},{names}{last}\n")
        for i in range(0, len(xs), block):
            j = i + block
            table = np.column_stack((lead[i:j], xs[i:j], tail[i:j]))
            fh.write(row * len(table) % tuple(table.ravel().tolist()))


def _report_summary(report):
    return {
        "converged": bool(report.converged),
        "diverged": bool(report.diverged),
        "iterations": int(report.iterations),
        "x_final": [float(v) for v in report.x_final],
        "h_used": float(report.h_used),
        "residual_final": _num_or_none(report.residual_final),
        "displacement_final": _num_or_none(report.displacement_final),
        "rate_estimate": _num_or_none(report.rate_estimate),
    }


def _finish_solve(args, report, iterates):
    if args.out:
        _write_csv(args.out, "iter", iterates, "residual", range(len(iterates)),
                   report.residuals)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(_report_summary(report), fh, indent=2)
            fh.write("\n")
    status = ("converged" if report.converged
              else "diverged" if report.diverged
              else "max-iter")
    print(f"status={status} iterations={report.iterations} "
          f"h_used={_fmt(report.h_used)} residual={_fmt(report.residual_final)} "
          f"x_final={_fmt_vec(report.x_final)}")
    if report.converged:
        return 0
    return 2 if report.diverged else 3


def cmd_solve(args):
    """solve, and zero as alg3; an alg3 "auto" h is solve_zero's default."""
    zero = args.algorithm == "alg3"
    if args.literal and args.algorithm != "tseng":
        raise UsageError(f"--literal needs --algorithm tseng, got {args.algorithm}")
    problem = _resolve_problem(args, zero)
    h = _parse_h(args.h)
    x0 = _parse_x0(args.x0, problem.dim)
    if h is None and not zero:
        plan = SamplingPlan(seed=args.seed)
        h = tseng_auto_step(problem, plan) if args.algorithm == "tseng" \
            else auto_step(problem, plan)
    config = SolverConfig(h=h, tol=args.tol, max_iter=args.max_iter)
    iterates = [] if args.out else None
    on_step = None if iterates is None else iterates.append
    if zero:
        report = solve_zero(problem.f, problem.w, x0, config, on_step=on_step)
    elif args.algorithm == "alg1":
        report = solve_alg1(problem, x0, config, on_step=on_step)
    elif args.algorithm == "catchup":
        report = solve_catchup(problem, x0, config, on_step=on_step)
    else:
        report = solve_tseng(problem, x0, config, literal=args.literal, on_step=on_step)
    return _finish_solve(args, report, iterates)


def cmd_sweep(args):
    problem = _resolve_problem(args, zero=False)
    x0 = _parse_x0(args.x0, problem.dim)
    if not args.h > 0:
        raise UsageError(f"--h must be positive, got {args.h}")
    if args.t_end < args.h:
        raise UsageError(f"--T must be at least --h, got {args.t_end} < {args.h}")
    result = sweep_trajectory(problem, x0, args.h, args.t_end)
    if args.out:
        _write_csv(args.out, "t", result.xs, "speed", result.ts,
                   np.concatenate(([0.0], result.speeds)))
    alpha_hat = r2 = None
    try:
        slope, r2, _ = loglinear_fit(result.speeds)
        alpha_hat = -slope / args.h
    except DiagnosticsError:
        pass
    status = "diverged" if result.diverged else "done"
    alpha_text = "n/a" if alpha_hat is None else _fmt(alpha_hat)
    r2_text = "n/a" if r2 is None else f"{r2:.4f}"
    print(f"status={status} t_end={_fmt(result.ts[-1])} "
          f"x_final={_fmt_vec(result.xs[-1])} alpha_hat={alpha_text} r2={r2_text}")
    return 2 if result.diverged else 0


def cmd_analyze(args):
    problem = _resolve_problem(args, zero=False)
    plan = SamplingPlan(seed=args.seed, count=args.samples)
    f, v, w = problem.f, problem.v, problem.w
    if args.estimate in ("L", "l"):
        # An estimate: constants stored on the problem are skipped.
        value, source = resolve_constant(problem, args.estimate, plan, stored=False)
        if source == "spectral":
            print(f"{args.estimate} = {_fmt(value)} (spectral)")
        else:
            print(f"{args.estimate}_hat = {_fmt(value)} (sampled, lower bound)")
    elif args.estimate == "gamma":
        if f.matrix is not None and v.matrix is not None:
            eye = np.eye(problem.dim)
            value = pair_modulus_linear(f.matrix, eye - v.matrix)
            print(f"gamma_linear = {_fmt(value)} (spectral, linear parts only)")
        print(f"gamma_hat = {_fmt(sample_pair_modulus(f, w, plan))} "
              "(sampled, upper bound)")
    else:
        report = check_pseudo_pair(f, w, plan)
        print(f"pseudo: violations={report.violations} of {report.checked} "
              "sampled ordered pairs")
    return 0


def _flag_type(kind, check):
    """An argparse type: ``kind(text)``, refused with the message of the ValueError
    that ``check`` raises on it, which argparse prints after the flag."""
    def convert(text):
        value = kind(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    convert.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return convert


def _seed(text):
    if text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"need an integer >= 0 (default: QVI_SEED), got {text!r}")


def _add_problem_args(sub):
    sub.add_argument("problem", nargs="?", default=None,
                     help="problem file or builtin:NAME")
    sub.add_argument("--problem", dest="problem_flag", default=None,
                     help="problem file or builtin:NAME")


# argparse reads "--x0 -1,2" as two options; "--x0=-1,2" keeps the value.
_X0_HELP = "comma-separated start point; write --x0=-1,2 when the first entry is negative"


def _add_run_args(sub, h, tol):
    """The start, step, stopping and output flags of solve and zero."""
    sub.add_argument("--x0", required=True, help=_X0_HELP)
    sub.add_argument("--h", default=h, help="step size, or 'auto'")
    sub.add_argument("--tol", type=_flag_type(float, lambda t: SolverConfig(tol=t)),
                     default=tol)
    sub.add_argument("--max-iter", type=_flag_type(int, lambda n: SolverConfig(max_iter=n)),
                     default=10_000)
    sub.add_argument("--out", default=None, help="CSV trace path")
    sub.add_argument("--summary", default=None, help="summary JSON path")


@functools.lru_cache(maxsize=4)
def build_parser(default_seed):
    """One parser per QVI_SEED; argparse converts that --seed default on each parse."""
    parser = _Parser(prog="qvikit", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run an iterative solver")
    _add_problem_args(solve)
    solve.add_argument("--algorithm", default="alg1",
                       choices=["alg1", "tseng", "catchup", "alg3"])
    _add_run_args(solve, h="auto", tol=1e-8)
    solve.add_argument("--seed", type=_seed, default=default_seed)
    solve.add_argument("--literal", action="store_true",
                       help="with tseng: use the uncorrected update (comparison only)")
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser("sweep", help="integrate the sweeping trajectory")
    _add_problem_args(sweep)
    sweep.add_argument("--x0", required=True, help=_X0_HELP)
    sweep.add_argument("--h", type=float, required=True)
    sweep.add_argument("--T", dest="t_end", type=float, required=True)
    sweep.add_argument("--out", default=None, help="CSV trajectory path")
    sweep.set_defaults(func=cmd_sweep)

    analyze = subs.add_parser("analyze", help="estimate problem constants")
    _add_problem_args(analyze)
    analyze.add_argument("--estimate", required=True,
                         choices=["L", "l", "gamma", "pseudo"])
    analyze.add_argument("--seed", type=_seed, default=default_seed)
    analyze.add_argument("--samples", default=10_000,
                         type=_flag_type(int, lambda n: SamplingPlan(seed=0, count=n)))
    analyze.set_defaults(func=cmd_analyze)

    zero = subs.add_parser("zero", help="run the derivative-free zero finder")
    _add_problem_args(zero)
    _add_run_args(zero, h="1", tol=1e-10)
    zero.set_defaults(func=cmd_solve, algorithm="alg3", literal=False)

    return parser


def main(argv=None):
    try:
        parser = build_parser(os.environ.get("QVI_SEED", "0"))
        args = parser.parse_args(argv)
        # A run that overflows says so by its status or error line, not by
        # NumPy warnings on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QvikitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

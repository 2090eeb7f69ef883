"""Spans around qvikit's public functions, and the per-layer metrics.

The traced run installs a wrapper around each public function or method the
workloads reach, in every module namespace that holds it, because the code
looks most names up in its own module (``qvikit.solvers.project``,
``qvikit.model.invert``) and methods on their class (``LinearExact.invert``,
``VectorField.__call__``). Each call records one span: name, start, end,
parent span, operation id, a value, and whether it raised. Spans stay in
flat arrays in memory and are written out when the run ends.

Self time is a span's duration minus the durations of its child spans; the
process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np

from workloads import BUILTIN_NAMES, SOLVE_CASES

# Span name -> workload on which the wrapper must be hit at least once.
# A refactor that moves a call site then shows up as a missing span.
HOME = {
    "expr.eval": "estimate",
    "expr.parse": "cli",
    "model.field": "solve",
    "model.funcfield": "estimate",
    "model.project": "solve",
    "model.project_moving": "solve",
    "model.natural_residual": "solve",
    "inverse.invert": "solve",
    "inverse.linear_exact": "solve",
    "inverse.picard": "solve",
    "inverse.semilinear": "solve",
    "inverse.scalar_bracket": "solve",
    "inverse.scalar_bracket.lipschitz": "estimate",
    "analysis.sample_pairs": "estimate",
    "analysis.sample_lipschitz": "estimate",
    "analysis.sample_pair_modulus": "estimate",
    "analysis.check_pseudo_pair": "estimate",
    "analysis.operator_norm": "cli",
    "analysis.power_lambda_max": "cli",
    "solvers.solve_alg1": "solve",
    "solvers.solve_catchup": "solve",
    "solvers.solve_tseng": "solve",
    "solvers.solve_zero": "solve",
    "solvers.sweep_trajectory": "solve",
    "solvers.alg1_step": "solve",
    "solvers.catching_up_step": "solve",
    "solvers.zero_step": "solve",
    "solvers.auto_step": "estimate",
    "solvers.tseng_auto_step": "estimate",
    "solvers.loglinear_fit": "cli",
    "problems.get_builtin": "cli",
    "problems.load_problem": "cli",
    "problems.problem_from_dict": "cli",
    "cli.main": "cli",
}

STRATEGIES = {"LinearExact": "linear_exact", "PicardContraction": "picard",
              "Semilinear": "semilinear", "ScalarBracket": "scalar_bracket"}
FIELD_ROLES = ("f", "v", "other")
ENGINE = ("solvers.solve_alg1", "solvers.solve_catchup", "solvers.solve_tseng",
          "solvers.solve_zero", "solvers.sweep_trajectory")
STEPS = ("solvers.alg1_step", "solvers.catching_up_step", "solvers.zero_step")
# The three analysis estimators, then ScalarBracket's sampled Lipschitz bound.
ESTIMATORS = ("analysis.sample_lipschitz", "analysis.sample_pair_modulus",
              "analysis.check_pseudo_pair", "inverse.scalar_bracket.lipschitz")


class Tracer:
    """Flat, append-only span store for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")  # inner iterations, or pairs kept
        self.raised = array("b")
        self.drawn = {}  # sample_pairs span -> pairs drawn
        self.stack = []
        self.op_id = -1
        self._undo = []

    def sid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, sid):
        i = len(self.name)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.value.append(0.0)
        self.raised.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    # -- installation ------------------------------------------------------

    def span(self, name, fn):
        sid = self.sid(name)

        def wrapper(*args, **kwargs):
            i = self.open(sid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, modules, fn, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def install(self, field_roles):
        """Wrap qvikit; ``field_roles`` maps id(VectorField) to "f" or "v"."""
        import qvikit
        from qvikit import analysis, cli, expr, inverse, model, problems, solvers

        modules = (qvikit, analysis, cli, expr, inverse, model, problems, solvers)
        plain = {
            "expr.parse": expr.parse,
            "model.project": model.project,
            "model.project_moving": model.project_moving,
            "model.natural_residual": model.natural_residual,
            "inverse.invert": inverse.invert,
            "analysis.sample_lipschitz": analysis.sample_lipschitz,
            "analysis.sample_pair_modulus": analysis.sample_pair_modulus,
            "analysis.check_pseudo_pair": analysis.check_pseudo_pair,
            "analysis.operator_norm": analysis.operator_norm,
            "analysis.power_lambda_max": analysis.power_lambda_max,
            "solvers.auto_step": solvers.auto_step,
            "solvers.tseng_auto_step": solvers.tseng_auto_step,
            "solvers.loglinear_fit": solvers.loglinear_fit,
            "problems.get_builtin": problems.get_builtin,
            "problems.load_problem": problems.load_problem,
            "problems.problem_from_dict": problems.problem_from_dict,
            "cli.main": cli.main,
        }
        plain.update({f"solvers.{fn.__name__}": fn for fn in (
            solvers.solve_alg1, solvers.solve_catchup, solvers.solve_tseng,
            solvers.solve_zero, solvers.sweep_trajectory, solvers.alg1_step,
            solvers.catching_up_step, solvers.zero_step)})
        for name, fn in plain.items():
            self._patch_function(modules, fn, self.span(name, fn))
        self._patch_function(modules, expr.eval_expr, self._outermost(expr.eval_expr))
        self._patch_function(modules, analysis.sample_pairs,
                             self._sample_pairs(analysis.sample_pairs))
        self._set(model.VectorField, "__call__",
                  self._field(model.VectorField.__call__, field_roles))
        self._set(model.FuncField, "__call__",
                  self.span("model.funcfield", model.FuncField.__call__))
        for cls_name, strategy in STRATEGIES.items():
            cls = getattr(inverse, cls_name)
            self._set(cls, "invert", self._invert(f"inverse.{strategy}", cls.invert))
        self._set(inverse.ScalarBracket, "lipschitz",
                  self.span("inverse.scalar_bracket.lipschitz",
                            inverse.ScalarBracket.lipschitz))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _outermost(self, fn):
        # eval_expr recurses through its own global name: span the outer call.
        sid = self.sid("expr.eval")
        inside = [False]

        def wrapper(ast, x):
            if inside[0]:
                return fn(ast, x)
            inside[0] = True
            i = self.open(sid)
            try:
                return fn(ast, x)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
                inside[0] = False
        return wrapper

    def _field(self, fn, roles):
        sids = {role: self.sid(f"model.field.{role}") for role in FIELD_ROLES}
        role_sid = {key: sids[role] for key, role in roles.items()}
        other = sids["other"]

        def wrapper(field, x):
            i = self.open(role_sid.get(id(field), other))
            try:
                return fn(field, x)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
        return wrapper

    def _invert(self, name, fn):
        # Counts inner iterations through the public inner_log argument.
        sid = self.sid(name)

        def wrapper(spec, y, inner_log=None):
            log = [] if inner_log is None else inner_log
            before = len(log)
            i = self.open(sid)
            try:
                return fn(spec, y, inner_log=log)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
                self.value[i] = len(log) - before
        return wrapper

    def _sample_pairs(self, fn):
        sid = self.sid("analysis.sample_pairs")

        def wrapper(plan, dim):
            i = self.open(sid)
            try:
                pairs = fn(plan, dim)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
            self.value[i] = len(pairs)
            self.drawn[i] = plan.count
            return pairs
        return wrapper

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), start_ns=np.asarray(self.start),
            end_ns=np.asarray(self.end), name=np.asarray(self.name),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            value=np.asarray(self.value), raised=np.asarray(self.raised))


# --------------------------------------------------------------------------
# Per-layer metrics.

PROCESS_COMMANDS = ("solve", "sweep", "analyze", "zero", "catchup")


def metric_units():
    """Per-layer metric name -> unit, in the order BENCHMARK.json lists them."""
    units = {"failed_frac": "ratio", "raw.ops_per_s": "1/s", "raw.op_ms.p50": "ms",
             "raw.op_ms.p90": "ms", "trace.overhead_ops_per_s": "1/s",
             "expr.eval.calls": "count", "expr.eval.self_ms": "ms",
             "expr.eval.us_per_call": "us", "expr.parse.calls": "count",
             "expr.parse.self_ms": "ms",
             "model.field.calls": "count", "model.field.self_ms": "ms",
             "model.f_evals_per_iter": "count", "model.v_evals_per_iter": "count",
             "model.project.self_ms": "ms", "model.natural_residual.self_ms": "ms"}
    for case in SOLVE_CASES:
        units[f"model.field_calls.{case}"] = "count"
        units[f"model.f_evals_per_iter.{case}"] = "count"
        units[f"model.v_evals_per_iter.{case}"] = "count"
    for s in STRATEGIES.values():
        units.update({f"inverse.{s}.calls": "count", f"inverse.{s}.self_ms": "ms",
                      f"inverse.{s}.us_per_call": "us",
                      f"inverse.{s}.inner_iters_per_call": "count"})
    units.update({"inverse.calls_per_iter": "count", "inverse.failures": "count"})
    for case in SOLVE_CASES:
        units[f"solvers.iterations.{case}"] = "count"
        units[f"solvers.us_per_iter.{case}"] = "us"
    units.update({"solvers.engine.self_ms": "ms", "solvers.step.self_ms": "ms",
                  "solvers.auto_step.self_ms": "ms",
                  "analysis.sample_pairs.self_ms": "ms",
                  "analysis.sample_pairs.accepted_ratio": "ratio",
                  "analysis.f_evals_per_pair": "count",
                  "analysis.estimator.self_ms": "ms"})
    for name in BUILTIN_NAMES:
        units[f"problems.get_builtin.ms.{name}"] = "ms"
    units.update({"problems.load.ms": "ms", "problems.dump.ms": "ms",
                  "cli.main.self_ms": "ms", "cli.csv_bytes": "bytes",
                  "cli.import_s": "s"})
    for command in PROCESS_COMMANDS:
        units[f"cli.process_s.{command}"] = "s"
    return units


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def span_metrics(tracer, records, untraced):
    """Layer metrics from the traced records and their spans.

    Counts come from cycle 0 so that they repeat exactly for a seed; times
    are per operation over every traced operation. ``solvers.us_per_iter``
    uses the untraced durations, which tracing does not inflate.
    """
    names = tracer.names
    n_ops = len(records)
    name = np.asarray(tracer.name, np.int64)
    parent = np.asarray(tracer.parent, np.int64)
    op = np.asarray(tracer.op, np.int64)
    value = np.asarray(tracer.value)
    dur = (np.asarray(tracer.end) - np.asarray(tracer.start)) / 1e6  # ms
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ms = dur - child
    in_op = op >= 0
    cycle0_ops = np.array([r.cycle == 0 for r in records] + [False])
    cycle0 = cycle0_ops[np.where(in_op, op, n_ops)]

    k = len(names)
    calls0 = np.bincount(name[cycle0], minlength=k)
    self_total = np.bincount(name[in_op], weights=self_ms[in_op], minlength=k)
    dur_total = np.bincount(name[in_op], weights=dur[in_op], minlength=k)
    calls_all = np.bincount(name[in_op], minlength=k)
    value0 = np.bincount(name[cycle0], weights=value[cycle0], minlength=k)

    def ids(*span_names):
        return [tracer.sid(s) for s in span_names]

    def calls(*s):
        return int(calls0[ids(*s)].sum())

    n_operations = len({(r.case, r.cycle) for r in records})

    def self_per_op(*s):
        return _ratio(self_total[ids(*s)].sum(), n_operations)

    def us_per_call(*s):
        return _ratio(1000.0 * dur_total[ids(*s)].sum(), calls_all[ids(*s)].sum())

    fields = tuple(f"model.field.{r}" for r in FIELD_ROLES)
    m = {
        "expr.eval.calls": calls("expr.eval"),
        "expr.eval.self_ms": self_per_op("expr.eval"),
        "expr.eval.us_per_call": us_per_call("expr.eval"),
        "expr.parse.calls": calls("expr.parse"),
        "expr.parse.self_ms": self_per_op("expr.parse"),
        "model.field.calls": calls(*fields),
        "model.field.self_ms": self_per_op(*fields),
        "model.project.self_ms": self_per_op("model.project", "model.project_moving"),
        "model.natural_residual.self_ms": self_per_op("model.natural_residual"),
    }

    # Per solve case, at the README point (cycle 0); zero on other workloads.
    strategies = tuple(f"inverse.{s}" for s in STRATEGIES.values())
    by_op = {s: np.bincount(op[cycle0 & (name == tracer.sid(s))], minlength=n_ops + 1)
             for s in (*fields, *strategies)}
    case_op = {r.case: i for i, r in enumerate(records) if r.cycle == 0}
    totals = {"f": 0, "v": 0, "inv": 0, "iters": 0}
    for case in SOLVE_CASES:
        i = case_op.get(case, n_ops)  # column n_ops counts nothing
        counts = {s: int(column[i]) for s, column in by_op.items()}
        iters = records[i].iterations if i < n_ops else 0
        f, v = counts["model.field.f"], counts["model.field.v"]
        inv = sum(counts[s] for s in strategies)
        m[f"model.field_calls.{case}"] = sum(counts[s] for s in fields)
        m[f"model.f_evals_per_iter.{case}"] = _ratio(f, iters)
        m[f"model.v_evals_per_iter.{case}"] = _ratio(v, iters)
        m[f"solvers.iterations.{case}"] = iters
        durations = [u.seconds / u.iterations for u in untraced
                     if u.case == case and u.iterations]
        m[f"solvers.us_per_iter.{case}"] = \
            1e6 * statistics.median(durations) if durations else 0.0
        for key, amount in (("f", f), ("v", v), ("inv", inv), ("iters", iters)):
            totals[key] += amount
    m["model.f_evals_per_iter"] = _ratio(totals["f"], totals["iters"])
    m["model.v_evals_per_iter"] = _ratio(totals["v"], totals["iters"])

    for s in STRATEGIES.values():
        span = f"inverse.{s}"
        m[f"inverse.{s}.calls"] = calls(span)
        m[f"inverse.{s}.self_ms"] = self_per_op(span)
        m[f"inverse.{s}.us_per_call"] = us_per_call(span)
        m[f"inverse.{s}.inner_iters_per_call"] = _ratio(value0[ids(span)].sum(),
                                                        calls(span))
    m["inverse.calls_per_iter"] = _ratio(totals["inv"], totals["iters"])
    strategy_ids = ids(*strategies)
    raised = np.asarray(tracer.raised, bool)
    m["inverse.failures"] = int(np.sum(cycle0 & raised & np.isin(name, strategy_ids)))

    m["solvers.engine.self_ms"] = self_per_op(*ENGINE)
    m["solvers.step.self_ms"] = self_per_op(*STEPS)
    m["solvers.auto_step.self_ms"] = self_per_op("solvers.auto_step",
                                                 "solvers.tseng_auto_step")

    pairs = name == tracer.sid("analysis.sample_pairs")
    pair_spans = np.flatnonzero(pairs & cycle0)
    drawn = sum(tracer.drawn[i] for i in pair_spans)
    m["analysis.sample_pairs.self_ms"] = self_per_op("analysis.sample_pairs")
    m["analysis.sample_pairs.accepted_ratio"] = _ratio(value[pair_spans].sum(), drawn)
    # f evaluations made directly by an analysis estimator, per pair it drew.
    estimator = np.zeros(len(names) + 1, bool)
    estimator[ids(*ESTIMATORS[:3])] = True
    under_estimator = has_parent & estimator[np.where(has_parent, name[parent], -1)]
    f_calls = np.sum(cycle0 & under_estimator & (name == tracer.sid("model.field.f")))
    kept = value[pairs & cycle0 & under_estimator].sum()
    m["analysis.f_evals_per_pair"] = _ratio(f_calls, kept)
    m["analysis.estimator.self_ms"] = self_per_op(*ESTIMATORS)

    m["cli.main.self_ms"] = self_per_op("cli.main")
    return m


def missing_spans(tracer, workload):
    """Wrappers homed on ``workload`` that no traced operation hit."""
    hits = np.bincount(np.asarray(tracer.name, np.int64)[np.asarray(tracer.op) >= 0],
                       minlength=len(tracer.names))
    missing = []
    for span, home in HOME.items():
        if home != workload:
            continue
        spans = [f"model.field.{r}" for r in FIELD_ROLES] if span == "model.field" \
            else [span]
        if sum(hits[tracer.sid(s)] for s in spans if s in tracer.names) == 0:
            missing.append(span)
    return missing

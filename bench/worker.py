"""One benchmark process: set-up, then one workload in a closed loop.

Started by run.py in a fresh interpreter, with BLAS and OpenMP pinned to one
thread. The clock for set-up starts before qvikit is imported. The last
line of standard output is one JSON object with the results.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload solve --seed 0 --seconds 32 --trace 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path[:0] = [str(SRC), str(BENCH)]

import qvikit  # noqa: E402

if Path(qvikit.__file__).resolve().parent != SRC / "qvikit":
    sys.exit(f"qvikit imported from {qvikit.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Record:
    case: str
    cycle: int
    seconds: float
    part: int = 0  # position of the call in its operation's chain
    iterations: int = 0
    fingerprint: str = ""
    raised: str = ""  # exception type that escaped the call
    csv_bytes: int = 0  # CSV the call wrote
    problems: list = field(default_factory=list)  # check findings

    @property
    def failed(self):
        return bool(self.raised or self.problems)


def measure(workload, seconds, tracer=None, max_cycles=None):
    """Run whole cycles, one call at a time, until ``seconds`` of calls.

    Untraced operations are checked; traced ones only fingerprinted.
    """
    records = []
    busy = 0.0
    cycle = 0
    while busy < seconds and (max_cycles is None or cycle < max_cycles):
        for op in workload.ops(cycle):
            for path in op.outputs:
                path.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = time.perf_counter()
            try:
                result = op.call()
                raised = None
            except Exception as exc:  # a failed operation, counted below
                raised = exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.op_id = -1
            busy += elapsed
            rec = Record(op.case, cycle, elapsed, op.part)
            if raised is not None:
                rec.raised = type(raised).__name__
                rec.fingerprint = f"raised {rec.raised}"
            else:
                rec.fingerprint = op.fingerprint(result)
                rec.csv_bytes = sum(p.stat().st_size for p in op.outputs
                                    if p.suffix == ".csv" and p.exists())
                if op.iterations is not None:
                    rec.iterations = op.iterations(result)
                if tracer is None:
                    try:
                        rec.problems = op.check(result)
                    except Exception as exc:  # output too malformed to check
                        rec.problems = [f"check raised {type(exc).__name__}: {exc}"]
            records.append(rec)
        cycle += 1
    return records


def op_stats(ms):
    """ops_per_s, op_ms.p50 and op_ms.p90 of per-operation times in ms."""
    return {"ops_per_s": 1000.0 * len(ms) / sum(ms),
            "op_ms.p50": statistics.median(ms),
            "op_ms.p90": statistics.quantiles(ms, n=10)[8]}


def operations(records):
    """The calls of each operation, keyed by (case, cycle)."""
    ops = {}
    for r in records:
        ops.setdefault((r.case, r.cycle), []).append(r)
    return ops


def end_to_end(records):
    """End-to-end metrics over the operations of cycles 1 on, at best times.

    Every case runs once per cycle; cycle 0 is warm-up. Each call counts with
    the fastest time its case and chain position reached in any cycle, and an
    operation with the sum over its calls: this host's speed swings by up to
    2x over minutes, and the fastest of repeated runs is the time least
    disturbed by other load (the ``timeit`` convention). The same statistics
    over the raw times are kept under ``raw.``.
    """
    timed = [r for r in records if r.cycle > 0] or records
    best = {}
    for r in timed:
        key = r.case, r.part
        best[key] = min(best.get(key, r.seconds), r.seconds)
    ops = operations(timed).values()
    op_ms = {}
    for calls in ops:
        op_ms.setdefault(calls[0].case, []).append(
            1000.0 * sum(best[r.case, r.part] for r in calls))
    metrics = op_stats([ms for values in op_ms.values() for ms in values])
    metrics.update({f"raw.{k}": v for k, v in op_stats(
        [1000.0 * sum(r.seconds for r in calls) for calls in ops]).items()})
    every = operations(records).values()
    metrics["failed_frac"] = sum(any(r.failed for r in calls)
                                 for calls in every) / len(every)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {case: statistics.median(v) for case, v in op_ms.items()}


def _env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QVI_SEED", None)
    return env


def import_seconds(repeats=3):
    """Median time of ``import qvikit`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import qvikit; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def process_seconds(workdir):
    """Wall time of README commands run as `python -m qvikit.cli` processes."""
    commands = {
        "solve": (["solve", "builtin:example1", "--x0", "6,2", "--h", "0.01",
                   "--out", str(workdir / "p.csv"),
                   "--summary", str(workdir / "p.json")], 0),
        "sweep": (["sweep", "builtin:example1", "--x0", "6,2", "--h", "0.01",
                   "--T", "10", "--out", str(workdir / "s.csv")], 0),
        "analyze": (["analyze", "builtin:example1", "--estimate", "l"], 0),
        "zero": (["zero", "builtin:example4", "--x0", "10000,20000,30000"], 0),
        "catchup": (["solve", "builtin:example2", "--algorithm", "catchup",
                     "--x0", "43,22,55", "--h", "0.3"], 2),
    }
    seconds, problems = {}, []
    for name, (argv, want) in commands.items():
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "qvikit.cli", *argv], env=_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        seconds[name] = time.perf_counter() - t0
        if done.returncode != want:
            problems.append(f"process {name}: exit {done.returncode}, want {want}")
    return seconds, problems


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted((SRC / "qvikit").glob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "src_sha256": workloads.digest(*[p.read_bytes() for p in sources])[:16],
    }


def traced_run(workload, untraced, setup, seed, workdir):
    roles = {}
    for problem in setup.problems.values():
        roles[id(problem.f)] = "f"
        if hasattr(problem, "v"):
            roles[id(problem.v)] = "v"
    tracer = tracing.Tracer()
    tracer.install(roles)
    try:
        cycles = untraced[-1].cycle + 1
        traced = measure(workload, float("inf"), tracer, max_cycles=cycles)
    finally:
        tracer.uninstall()

    problems = []
    for a, b in zip(untraced, traced):
        if a.fingerprint != b.fingerprint:
            problems.append(f"traced output differs from untraced: {a.case} "
                            f"cycle {a.cycle}")
    missing = tracing.missing_spans(tracer, workload.name)
    if missing:
        problems.append("wrappers not hit on this workload: " + ", ".join(missing))

    metrics = tracing.span_metrics(tracer, traced, untraced)
    untraced_e2e, _ = end_to_end(untraced)
    for name in ("failed_frac", "raw.ops_per_s", "raw.op_ms.p50", "raw.op_ms.p90"):
        metrics[name] = untraced_e2e[name]
    untraced_rate = len(operations(untraced)) / sum(r.seconds for r in untraced)
    traced_rate = len(operations(traced)) / sum(r.seconds for r in traced)
    metrics["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    for name in workloads.BUILTIN_NAMES:
        metrics[f"problems.get_builtin.ms.{name}"] = \
            1000.0 * setup.timings[f"get_builtin.{name}"]
    metrics["problems.load.ms"] = 1000.0 * setup.timings["load"]
    metrics["problems.dump.ms"] = 1000.0 * setup.timings["dump"]
    metrics["cli.csv_bytes"] = sum(r.csv_bytes for r in untraced if r.cycle == 0)
    metrics["cli.import_s"] = import_seconds()
    process, process_problems = process_seconds(workdir)
    problems += process_problems
    for name, value in process.items():
        metrics[f"cli.process_s.{name}"] = value

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    units = tracing.metric_units()
    return ({name: metrics[name] for name in units}, problems,
            len(operations(traced)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = workloads.build(workdir)
        reference = workloads.load_reference()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        workload = workloads.WORKLOADS[args.workload](setup, args.seed, reference)
        # A traced run spends half its seconds untraced, then replays those
        # cycles traced, so that it takes about as long as an untraced run.
        untraced = measure(workload, args.seconds / 2 if args.trace else args.seconds)
        ops = operations(untraced).values()
        e2e, case_ms = end_to_end(untraced)
        result = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "setup_s": setup_s, "machine": machine(),
            "end_to_end": e2e, "case_ms": case_ms,
            "ops": len(ops), "calls": len(untraced), "cycles": untraced[-1].cycle + 1,
            "failed": sum(any(r.failed for r in calls) for calls in ops),
            "wrong": sum(any(r.problems for r in calls) for calls in ops),
            "problems": [f"{r.case} cycle {r.cycle}: {p}"
                         for r in untraced for p in r.problems][:20],
            "escapes": sorted({f"{r.case}: {r.raised}" for r in untraced if r.raised}),
        }
        if args.trace:
            layers, problems, traced = traced_run(workload, untraced, setup,
                                                  args.seed, workdir)
            result.update(per_layer=layers, traced_ops=traced)
            result["problems"] += problems
            result["trace_problems"] = len(problems)
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()

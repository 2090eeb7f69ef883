"""qvikit benchmark: one workload per call, or all three in turn.

    python3 bench/run.py --workload solve --seed 0 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 32 --trace 1

Each run starts fresh worker processes with BLAS and OpenMP pinned to one
thread: SETUP_PROBES processes that only set up, then one that sets up and
runs the workload as a closed loop with one client. ``setup_s`` is the median
set-up time of all of them. With ``--trace 1`` the worker also replays the
workload with spans around qvikit's public functions and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
operations that raised or whose output failed its check; ``correct`` is
false when an output was wrong or a tracing check failed (an exception that
escapes is a failed operation, not a wrong output). The exit code is not 0
when the program cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
WORKLOADS = ("solve", "estimate", "cli")
SETUP_PROBES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMEOUT_S = 170


def units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def worker(args, deadline):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("QVI_SEED", None)
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=deadline)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH.parent,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(name, seed, seconds, trace):
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(["--setup-only"], 60)["setup_s"])
    res = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)], TIMEOUT_S)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["end_to_end"]["setup_s"] = statistics.median(setups)
    res["revision"] = git_revision()
    return res


def report(res, trace):
    e2e_units, layer_units = units()
    m = res["machine"]
    print(f"# workload={res['workload']} seed={res['seed']} seconds={res['seconds']} "
          f"trace={trace} ops={res['ops']} cycles={res['cycles']}")
    print(f"# revision={res['revision']} src_sha256={m['src_sha256']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']} "
          f"nproc={m['nproc']} cpu={m['cpu']!r}")
    e2e = res["end_to_end"]
    samples = {"setup_s": len(res["setup_samples"])}
    if trace:
        metrics = {k: {"value": v, "unit": layer_units[k]}
                   for k, v in res["per_layer"].items()}
        for name, value in res["per_layer"].items():
            print(f"{name:44s} {value:16.6f} {layer_units[name]}")
        print(f"# traced ops={res['traced_ops']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in e2e_units.items()}
        extra = {"failed_frac": "ratio", "raw.ops_per_s": "1/s",
                 "raw.op_ms.p50": "ms", "raw.op_ms.p90": "ms"}
        for name, unit in {**e2e_units, **extra}.items():
            print(f"{name:14s} {e2e[name]:14.6f} {unit:6s} "
                  f"n={samples.get(name, res['ops'])}")
    for line in res["escapes"]:
        print(f"# raised out of the call: {line}")
    for line in res["problems"]:
        print(f"# FAILED CHECK: {line}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{res['workload']}-seed{res['seed']}-trace{trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": res["wrong"] == 0 and res.get("trace_problems", 0) == 0,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: report(run_workload(n, args.seed, args.seconds, args.trace),
                         args.trace) for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()

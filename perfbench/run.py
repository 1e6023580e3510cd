"""Benchmark of the expsample CLI.

    python3 perfbench/run.py --workload {profile,study,kernels,all}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  The workload's inputs are drawn from the seed (workloads.py).
One closed-loop client drives the real CLI paths in-process through
`expsample.cli.main`, one invocation after the other; the only other
threads are batch_eval's own pool.  EXPSAMPLE_THREADS is removed from the
workers' environment, so the pool has its default size, one worker per CPU.

With --trace 0 a run is ROUNDS rounds spread over S seconds.  A round
starts SETUP_PROBES_PER_ROUND interpreters that only set up, one worker
process (worker.py) that sets up and runs one cold pass, and one worker
that sets up, runs a cold pass and then warm passes until the round's
share of the run is spent, so a run ends about one pass after S seconds.
A cold sample costs as much run time as a warm one, so the run spends
about as much time on each.

On a shared 2-vCPU host the same warm profile pass varies by about 12%
(coefficient of variation) from one pass to the next, and its median over
30-second stretches by about 5-10%.  The fastest sample of a run depends
on whether the run happened to catch a quiet second, and spread more
from run to run than the median (0.12 against 0.05 over 30-second
stretches of one long series).  A timing metric is therefore the median
of all its samples in the run:
  setup_s      time from starting an interpreter to ready to run the
               first command (import, kernel/function/argument parsing),
               over every process started;
  cold_run_s   wall time of the first pass in a fresh process, set-up
               excluded;
  run_s        wall time of a warm pass, after the untimed first pass of
               its process;
  peak_rss_mb  median over the warm workers of their peak resident
               memory.
With --trace 1 one worker alternates untraced and traced warm passes for
S seconds and reports the per-layer metrics of tracing.py, medians over
the traced passes; trace.overhead_s is the median traced pass minus the
median untraced pass.

Every output of every pass is checked; outputs that raised or failed
their check count as failed, and fail_ratio = failed / attempted.  The
last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  The lines before it record the environment and a readable
summary.  Exit code 0 unless the benchmark itself could not run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 4
SETUP_PROBES_PER_ROUND = 2
WORKER_TIMEOUT_S = 120.0

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cold_run_s", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "functions.points_per_cell": "points/cell",
    "functions.self_s": "s",
    "expr.points": "count",
    "expr.self_s": "s",
    "kernels.eval_calls_per_cell": "calls/cell",
    "kernels.eval_points": "count",
    "kernels.self_s": "s",
    "kernels.moment_s": "s",
    "operators.cells": "count",
    "operators.self_s": "s",
    "operators.parallelism": "ratio",
    "operators.write_s": "s",
    "combinations.self_s": "s",
    "combinations.operator_calls_per_cell": "calls/cell",
    "analysis.self_s": "s",
    "analysis.write_s": "s",
    "cli.self_s": "s",
    "quadrature.self_s": "s",
    "quadrature.transform_calls": "count",
    "trace.unmeasured": "count",
    "trace.overhead_s": "s",
}
# The seed figures of one (B4, B4) cell at w = 45, which is every cell of
# the profile workload; a traced profile run prints its counts beside them.
SEED_FIGURES = {"functions.points_per_cell": 224,
                "kernels.eval_calls_per_cell": 17}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def _worker_env():
    env = dict(os.environ)
    env.pop("EXPSAMPLE_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _spawn(plan_path, mode, workdir, budget):
    """Run one worker; returns (seconds from start to ready, result dict
    or None in setup mode)."""
    os.makedirs(workdir, exist_ok=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, mode,
            workdir, repr(budget)]
    with open(os.path.join(workdir, "stderr.txt"), "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL, env=_worker_env(),
                                cwd=ROOT, text=True)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if ready != "ready\n" or code != 0:
        with open(os.path.join(workdir, "stderr.txt")) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"worker {mode} exited with {code}: {tail}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(workload, seed, seconds, trace, small=False, corrupt=False):
    """One run of one workload; returns the result record."""
    plan = workloads.make_plan(workload, seed, small)
    plan["corrupt"] = corrupt
    run_dir = os.path.join(ROOT, ".perfbench_out", f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    setups, results = [], []
    try:
        # untimed: the first start in a checkout compiles bytecode
        _spawn(plan_path, "setup", os.path.join(run_dir, "probe"), 0.0)
        deadline = time.perf_counter() + seconds
        if trace:
            _, main = _spawn(plan_path, "trace", os.path.join(run_dir, "main"),
                             seconds)
            results.append(main)
        # Rounds of fresh processes spread every kind of sample over the
        # whole run.
        for r in range(1, ROUNDS + 1) if not trace else ():
            round_start = time.perf_counter()
            for _ in range(SETUP_PROBES_PER_ROUND):
                setups.append(_spawn(plan_path, "setup",
                                     os.path.join(run_dir, "probe"), 0.0)[0])
            setup_s, result = _spawn(plan_path, "cold",
                                     os.path.join(run_dir, f"cold{r}"), 0.0)
            setups.append(setup_s)
            results.append(result)
            # the warm worker's share of what is left, after the probes and
            # cold workers of the rounds still to come
            cold_cost = time.perf_counter() - round_start
            left = deadline - time.perf_counter() - (ROUNDS - r) * cold_cost
            setup_s, result = _spawn(plan_path, "warm",
                                     os.path.join(run_dir, f"warm{r}"),
                                     max(0.0, left / (ROUNDS - r + 1)))
            setups.append(setup_s)
            results.append(result)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    main = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    record = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": main["numpy"],
            "commit": _git_commit(),
            "expsample": os.path.relpath(main["expsample_file"], ROOT),
            "EXPSAMPLE_THREADS": ("unset" if "EXPSAMPLE_THREADS" not in
                                  os.environ else "removed for the workers"),
            "warning_filters": "default",
            "digests": main["digests"],
        },
    }
    if trace:
        layers = main["layers"]
        per_layer = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            per_layer[name] = (None if None in values
                               else statistics.median(values))
        per_layer["trace.overhead_s"] = (statistics.median(main["traced_s"])
                                         - statistics.median(main["plain_s"]))
        record["per_layer"] = per_layer
        record["samples"] = {"traced": len(main["traced_s"]),
                             "untraced": len(main["plain_s"])}
    else:
        colds = [r["cold_s"] for r in results]
        warms = [w for r in results if "warm_s" in r for w in r["warm_s"]]
        record["end_to_end"] = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(warms),
            "cold_run_s": statistics.median(colds),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in results if "warm_s" in r),
        }
        record["samples"] = {"setup": len(setups), "cold": len(colds),
                             "warm": len(warms)}
    return record


def result_line(record):
    """The contract's last line: correct, attempted, failed, metrics."""
    if "per_layer" in record:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def summary(record):
    fail_ratio = record["failed"] / record["attempted"]
    parts = [f"{record['workload']} seed={record['seed']}"]
    values = record.get("end_to_end") or record["per_layer"]
    for name, value in values.items():
        text = "unmeasured" if value is None else f"{value:.6g}"
        parts.append(f"{name}={text}")
    parts.append(f"fail_ratio={fail_ratio:.6g} "
                 f"({record['failed']}/{record['attempted']})")
    parts.append("samples: " + " ".join(
        f"{k}={v}" for k, v in record["samples"].items()))
    lines = [" ".join(parts)]
    if "per_layer" in record and record["workload"] == "profile":
        lines.append("  seed figures: " + ", ".join(
            f"{name}={record['per_layer'][name]} (seed {figure})"
            for name, figure in SEED_FIGURES.items()))
    lines += [f"  failed: {f}" for f in record["failures"]]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the harness self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output per process, for the "
                             "harness self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "expsample", "cli.py")):
        print(f"perfbench: no expsample sources under {ROOT}/src; run from "
              "a source checkout", file=sys.stderr)
        return 2
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    lines = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace),
                             args.small, args.corrupt)
            print("env: " + json.dumps(record["env"], sort_keys=True))
            print(summary(record), flush=True)
            lines.append((name, result_line(record)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{name}.{metric}": value for name, line in lines
                        for metric, value in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

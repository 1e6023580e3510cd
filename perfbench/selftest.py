"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at reduced size (run.py --small),
with tracing off and on, and requires each run to print every metric
BENCHMARK.json names, to measure every layer the workload should reach,
and to fail no output.  Then runs each workload with one output
deliberately corrupted (run.py --corrupt) and requires fail_ratio > 0, so
the output checks are not vacuous.  Takes about a minute; exits 1 if any
of these fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "7",
         "--seconds", "1", "--small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {"0": {m["name"] for m in bench["end_to_end"]},
             "1": {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            line = _run("--workload", workload, "--trace", trace)
            label = f"{workload} --trace {trace}"
            if set(line["metrics"]) != names[trace]:
                problems.append(f"{label}: metrics {sorted(line['metrics'])}")
            if not line["correct"] or line["failed"]:
                problems.append(f"{label}: {line['failed']} outputs failed")
            unmeasured = [name for name, m in line["metrics"].items()
                          if m["value"] is None]
            if unmeasured:
                problems.append(f"{label}: unmeasured {unmeasured}")
        line = _run("--workload", workload, "--trace", "0", "--corrupt")
        ratio = line["failed"] / line["attempted"]
        print(f"{workload}: corrupted output gives fail_ratio={ratio:.3g} "
              f"({line['failed']}/{line['attempted']})")
        if line["correct"] or ratio <= 0:
            problems.append(f"{workload}: corrupted output not detected")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, run passes of a workload, check them.

    python3 worker.py PLAN MODE DIR BUDGET_S

The orchestrator (run.py) starts this script in a fresh interpreter and
times it until it prints `ready`: that interval is the set-up a CLI user
pays on every invocation (interpreter start, `import expsample`, kernel
and function parsing, argument parsing).  Nothing beyond the standard
library modules expsample itself loads is imported before `ready`.

MODE is one of
  setup  exit right after `ready`;
  cold   run one pass, which is the cold pass of a fresh process;
  warm   run the cold pass, then warm passes until BUDGET_S has passed;
  trace  run the cold pass, then alternate untraced and traced warm passes.

Each pass runs every invocation of the plan through `expsample.cli.main`
in this process, with stdout and stderr captured and Python's default
warning filters left alone.  The first pass is checked in full
(workloads.check_pass); every later pass must reproduce its stdout and
output files byte for byte, which the CLI's config digests promise.  The
result is one JSON object on the last line of stdout.
"""

import contextlib
import io
import json
import os
import sys
import time

# warm passes per process at least; a warm run has several processes
MIN_WARM_PASSES = {"warm": 1, "trace": 3}


def _setup(plan):
    import expsample.cli
    from expsample import function_from_spec, parse_kernel

    for descriptor in plan["kernels"]:
        parse_kernel(descriptor)
    for spec in plan["functions"]:
        function_from_spec(spec)
    expsample.cli.build_parser().parse_args(plan["invocations"][0])
    return expsample.cli


def _run_pass(cli, invocations):
    """Run every invocation once; returns [(exit code, stdout, exception)]
    and the wall time of the pass."""
    results = []
    start = time.perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as e:  # a crash is a failed output, not a crash of the run
            exc = f"{type(e).__name__}: {e}"
        except SystemExit as e:
            code = e.code
        results.append((code, out.getvalue(), exc))
    return results, time.perf_counter() - start


def _output_files(invocations):
    out = {}
    for argv in invocations:
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            try:
                with open(path, "rb") as fh:
                    out[path] = fh.read()
            except OSError:
                out[path] = None
    return out


def _corrupt(results, invocations):
    """Self-test only: damage the first output of the pass the way a wrong
    result would look, so the checks must report it."""
    argv = invocations[0]
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        with open(path) as fh:
            text = fh.read()
        head, sep, body = text.partition("\n")
        digit = next(i for i, c in enumerate(body) if c in "123456789")
        body = body[:digit] + str(int(body[digit]) % 9 + 1) + body[digit + 1:]
        with open(path, "w") as fh:
            fh.write(head + sep + body)
    else:
        code, stdout, exc = results[0]
        results[0] = (code, stdout.replace("pass", "FAIL", 1), exc)


class _Checker:
    """Counts outputs attempted and failed over all passes of a process."""

    def __init__(self, plan, workloads):
        self.plan = plan
        self.workloads = workloads
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.digests = []

    def __call__(self, results):
        invocations = self.plan["invocations"]
        files = _output_files(invocations)
        self.attempted += len(results)
        if self.reference is None:
            if self.plan.get("corrupt"):
                _corrupt(results, invocations)
                files = _output_files(invocations)
            failed = self.workloads.check_pass(self.plan, results)
            self.reference = (results, files)
            self.digests = [d for _, stdout, _ in results
                            for d in self.workloads.summary_digests(stdout)]
        else:
            ref_results, ref_files = self.reference
            failed = {}
            for i, (now, ref) in enumerate(zip(results, ref_results)):
                if now != ref:
                    failed[i] = "stdout or exit code differs from the first pass"
            for i, argv in enumerate(invocations):
                if "--out" in argv:
                    path = argv[argv.index("--out") + 1]
                    if files[path] != ref_files[path]:
                        failed.setdefault(i, f"{path} differs from the first pass")
        self.failures.extend(f"{' '.join(invocations[i][:1])} #{i}: {msg}"
                             for i, msg in sorted(failed.items()))


def main(argv):
    plan_path, mode, workdir, budget = argv[0], argv[1], argv[2], float(argv[3])
    with open(plan_path) as fh:
        plan = json.load(fh)
    cli = _setup(plan)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import resource

    import numpy

    import workloads  # found beside this script, the first sys.path entry

    os.chdir(workdir)
    check = _Checker(plan, workloads)
    invocations = plan["invocations"]
    started = time.perf_counter()
    results, cold_s = _run_pass(cli, invocations)
    check(results)
    result = {"cold_s": cold_s}

    if mode == "warm":
        warm = []
        while (len(warm) < MIN_WARM_PASSES[mode]
               or time.perf_counter() - started < budget):
            results, seconds = _run_pass(cli, invocations)
            check(results)
            warm.append(seconds)
        result["warm_s"] = warm
    elif mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        plain, traced, layers = [], [], []
        while (len(traced) < MIN_WARM_PASSES[mode]
               or time.perf_counter() - started < budget):
            results, seconds = _run_pass(cli, invocations)
            check(results)
            plain.append(seconds)
            with tracer.installed():
                results, seconds = _run_pass(cli, invocations)
            check(results)
            traced.append(seconds)
            layers.append(tracer.layer_metrics(plan["workload"]))
        result.update(plain_s=plain, traced_s=traced, layers=layers)

    result.update(
        attempted=check.attempted,
        failures=check.failures,
        digests=check.digests,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        expsample_file=cli.__file__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Workload plans and output checks for the expsample benchmark.

A plan is the list of CLI invocations one pass of a workload makes, drawn
from the seed, plus what the checks need to know about them.  Plans are
plain JSON so the orchestrator can hand them to fresh worker processes.

Checks run after a pass, outside the timed region, against files the pass
wrote into the worker's directory and the stdout it printed.  They return
one failure message per invocation that failed; an empty dict means every
output of the pass is correct.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random

WORKLOADS = ("profile", "study", "kernels")

PSI = "translates:2:a=e^2,b=e^3"
RATE_WS = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
PROFILE_W = 45.0
PROFILE_STEP = 0.002
FIG1_EXPR = "expr:x^2*cos(2*pi*x)"

# Published error values (4 decimals) of the paper's two tables, the same
# cells as tests/golden/table*_reference.csv.
TABLE1_X = (3.55, 3.98, 4.22, 4.85, 5.35)
TABLE1_W = (25.0, 45.0, 90.0)
TABLE1_REF = {
    (3.55, 25.0): 2.9795, (3.55, 45.0): 1.0033, (3.55, 90.0): 0.2587,
    (3.98, 25.0): 4.4314, (3.98, 45.0): 1.5008, (3.98, 90.0): 0.3876,
    (4.22, 25.0): 1.7758, (4.22, 45.0): 0.6922, (4.22, 90.0): 0.1869,
    (4.85, 25.0): 4.7175, (4.85, 45.0): 1.5763, (4.85, 90.0): 0.4038,
    (5.35, 25.0): 6.7779, (5.35, 45.0): 2.3721, (5.35, 90.0): 0.6125,
}
TABLE2_X = (1.75, 2.10, 2.85, 3.45, 3.95)
TABLE2_REF = {
    (1.75, 1): 0.0087, (1.75, 2): 0.0026, (1.75, 3): 0.0007,
    (2.10, 1): 0.0377, (2.10, 2): 0.0153, (2.10, 3): 0.0026,
    (2.85, 1): 0.0138, (2.85, 2): 0.0076, (2.85, 3): 0.0002,
    (3.45, 1): 0.0059, (3.45, 2): 0.0037, (3.45, 3): 0.0021,
    (3.95, 1): 0.0054, (3.95, 2): 0.0022, (3.95, 3): 0.0007,
}

VERIFY_PAIRS = (("bspline:2", "bspline:2"), ("bspline:4", "bspline:2"),
                ("bspline:6", "bspline:4"), ("char", "char"),
                (PSI, "bspline:2"))
MOMENT_ROUTES = ("discrete", "continuous", "poisson", "absolute-discrete",
                 "absolute-continuous")


def _csv_list(values):
    return ",".join(repr(v) for v in values)


def make_plan(workload, seed, small=False):
    """The invocations of one pass of `workload`, drawn from `seed`.

    `small` shrinks every workload for the harness self-test; benchmark
    runs never set it.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "profile":
        return _profile_plan(rng, small)
    if workload == "study":
        return _study_plan(rng, small)
    if workload == "kernels":
        return _kernels_plan(rng, small)
    raise ValueError(f"unknown workload {workload!r}")


def _profile_plan(rng, small):
    start = round(rng.uniform(3.1, 3.3), 3)
    n = 101 if small else 1501
    xs = [round(start + i * PROFILE_STEP, 12) for i in range(n)]
    pair = ["--chi", "bspline:4", "--phi", "bspline:4"]
    w = ["--w", repr(PROFILE_W)]
    invocations = [
        ["eval", *pair, "--fn", "name:fig1", "--x", _csv_list(xs), *w,
         "--out", "profile.csv"],
        ["eval", *pair, "--fn", FIG1_EXPR, "--x", _csv_list(xs[::5]), *w,
         "--out", "profile_expr.csv"],
    ]
    return {"workload": "profile", "invocations": invocations,
            "kernels": ["bspline:4"], "functions": ["name:fig1", FIG1_EXPR],
            "xs": xs, "sample": sorted(rng.sample(range(n), 4))}


def _study_plan(rng, small):
    count = 2 if small else 12
    xs = sorted({round(rng.uniform(1.5, 6.0), 4) for _ in range(count)})
    ws = ["--w", _csv_list(RATE_WS)]
    invocations = [
        ["table", "--chi", "bspline:4", "--phi", "bspline:4", "--fn",
         "name:fig1", "--x", _csv_list(TABLE1_X), "--w", _csv_list(TABLE1_W),
         "--out", "table1.csv"],
        ["table", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
         "name:fig2", "--x", _csv_list(TABLE2_X), "--w", "10",
         "--combine", "p=2", "--combine", "p=3", "--format", "json",
         "--out", "table2.json"],
    ]
    studies = []
    for i, x in enumerate(xs):
        common = ["--fn", "name:sinlog", "--x", repr(x), *ws]
        plain = ["--chi", "bspline:4", "--phi", "bspline:2", *common]
        for kind, argv in (
                ("rates", ["rates", *plain]),
                ("rates_p3", ["rates", *plain, "--combine", "p=3"]),
                ("voronovskaya", ["voronovskaya", "--chi", PSI, "--phi",
                                  "bspline:2", *common, "--j", "2"])):
            studies.append({"index": len(invocations), "kind": kind, "x": x})
            invocations.append([*argv, "--out", f"{kind}_{i}.json"])
    sample = [[s["index"], rng.randrange(len(RATE_WS))]
              for s in rng.sample(studies, min(4, len(studies)))]
    return {"workload": "study", "invocations": invocations,
            "kernels": ["bspline:4", "bspline:2", PSI],
            "functions": ["name:fig1", "name:fig2", "name:sinlog"],
            "studies": studies, "sample": sample}


def _kernels_plan(rng, small):
    u = round(rng.uniform(1.0, math.e), 4)
    pairs = VERIFY_PAIRS[:2] if small else VERIFY_PAIRS
    kernels = ("bspline:4",) if small else ("bspline:4", PSI)
    invocations = [["verify", "--chi", c, "--phi", p, "--r", "3"]
                   for c, p in pairs]
    for kernel in kernels:
        for route in MOMENT_ROUTES:
            argv = ["moments", "--kernel", kernel, "--order", "2",
                    "--route", route]
            if route == "discrete":
                argv += ["--u", repr(u)]
            invocations.append(argv)
    names = sorted({k for pair in pairs for k in pair} | set(kernels))
    return {"workload": "kernels", "invocations": invocations,
            "kernels": names, "functions": [], "u": u}


# --- checks -----------------------------------------------------------------

def summary_digests(stdout):
    """Config digests from the CLI summary lines of one invocation."""
    return [line.rsplit("digest=", 1)[1] for line in stdout.splitlines()
            if line.startswith("expsample ") and " digest=" in line]


def check_pass(plan, results):
    """Check one pass.  results[i] is (exit code, stdout, exception text)
    of invocation i.  Returns {invocation index: failure message}."""
    failures = {}
    for i, (code, stdout, exc) in enumerate(results):
        if exc is not None:
            failures[i] = f"raised {exc}"
        elif code != 0:
            failures[i] = f"exit code {code}"
        elif len(summary_digests(stdout)) != 1:
            failures[i] = "no summary line with a config digest"
    checker = {"profile": _check_profile, "study": _check_study,
               "kernels": _check_kernels}[plan["workload"]]
    for i, problem in checker(plan, results, failures):
        failures.setdefault(i, problem)
    return failures


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _doubled(spec):
    """The same operator at doubled nodes_per_unit."""
    cfg = spec.quadrature
    return dataclasses.replace(spec, quadrature=dataclasses.replace(
        cfg, nodes_per_unit=2 * cfg.nodes_per_unit))


def _check_profile(plan, results, failed):
    from expsample import (OperatorSpec, builtin, durrmeyer_eval,
                           function_from_spec, mellin_bspline)
    fig1 = builtin("fig1")
    xs = plan["xs"]
    spec = OperatorSpec(mellin_bspline(4), mellin_bspline(4), PROFILE_W)
    builtin_rows = None
    if 0 not in failed:
        problem, builtin_rows = _profile_rows("profile.csv", xs, fig1)
        if problem is None:
            dense = _doubled(spec)
            for i in plan["sample"]:
                oracle = durrmeyer_eval(dense, fig1, xs[i])
                if not _close(builtin_rows[i][1], oracle, 1e-9):
                    problem = (f"cell x={xs[i]!r} differs from the doubled-"
                               f"density value {oracle!r}")
                    break
        if problem is not None:
            builtin_rows = None
            yield 0, problem
    if 1 not in failed:
        problem, expr_rows = _profile_rows("profile_expr.csv", xs[::5],
                                           function_from_spec(FIG1_EXPR))
        if problem is None and builtin_rows is not None:
            for j, (fx, value) in enumerate(expr_rows):
                ref_fx, ref_value = builtin_rows[5 * j]
                if not (_close(fx, ref_fx, 1e-12)
                        and _close(value, ref_value, 1e-12)):
                    problem = (f"expr profile at x={xs[5 * j]!r} differs "
                               "from the builtin fig1 profile")
                    break
        if problem is not None:
            yield 1, problem


def _profile_rows(path, xs, f):
    """Parse an eval CSV; returns (problem or None, [(fx, value)])."""
    try:
        header, rows = _read_csv(path)
    except OSError as exc:
        return f"cannot read {path}: {exc}", None
    if header != ["x", "w", "fx", "Iwfx", "abs_err"]:
        return f"{path}: unexpected header {header}", None
    if len(rows) != len(xs):
        return f"{path}: {len(rows)} rows, expected {len(xs)}", None
    out = []
    for x, row in zip(xs, rows):
        try:
            rx, w, fx, value, err = (float(v) for v in row)
        except ValueError:
            return f"{path}: malformed row {row}", None
        if rx != x or w != PROFILE_W:
            return f"{path}: row {row} is not at x={x!r}, w={PROFILE_W}", None
        if not math.isfinite(value) or fx != f(x) or err != abs(fx - value):
            return f"{path}: inconsistent row {row}", None
        out.append((fx, value))
    return None, out


def _golden_cell(ours, ref, oracle):
    """The 1%-and-oracle policy of tests/golden/README.md: within 1% of the
    published value, or within 1e-6 of the dense oracle."""
    return abs(ours - ref) <= 0.01 * abs(ref) or abs(ours - oracle()) <= 1e-6


def _check_study(plan, results, failed):
    from expsample import (OperatorSpec, QuadratureConfig, builtin,
                           combined_eval, durrmeyer_eval, mellin_bspline,
                           parse_kernel, solve_coefficients)
    b4, b2 = mellin_bspline(4), mellin_bspline(2)
    oracle_cfg = QuadratureConfig(nodes_per_unit=200, panel_max_width=0.5)

    def oracle(chi, phi, w, f, x, p=1):
        spec = OperatorSpec(chi, phi, w, truncation_radius=4.0,
                            quadrature=oracle_cfg)
        if p == 1:
            return abs(f(x) - durrmeyer_eval(spec, f, x))
        return abs(f(x) - combined_eval(solve_coefficients(p), spec, f, x))

    if 0 not in failed:
        fig1 = builtin("fig1")
        problem = None
        try:
            header, rows = _read_csv("table1.csv")
            cells = {}
            for x, label, fx, value, err in rows:
                x, fx, value = float(x), float(fx), float(value)
                if fx != fig1(x) or float(err) != abs(fx - value):
                    problem = f"table 1: inconsistent row x={x} {label}"
                cells[(x, float(label.split("=")[1]))] = float(err)
        except (OSError, ValueError) as exc:
            problem = f"table 1: unreadable ({exc})"
        if problem is None and set(cells) != set(TABLE1_REF):
            problem = "table 1: wrong set of cells"
        if problem is None:
            for (x, w), ref in TABLE1_REF.items():
                if not _golden_cell(cells[(x, w)], ref, lambda x=x, w=w:
                                    oracle(b4, b4, w, fig1, x)):
                    problem = f"table 1 cell (x={x}, w={w}) misses {ref}"
                    break
        if problem is not None:
            yield 0, problem

    if 1 not in failed:
        fig2 = builtin("fig2")
        problem = None
        try:
            with open("table2.json") as fh:
                doc = json.load(fh)
            cells = {}
            for row in doc["rows"]:
                label = row["label"]
                p = int(label[2]) if label.startswith("p=") else 1
                if (row["fx"] != fig2(row["x"])
                        or row["abs_err"] != abs(row["fx"] - row["value"])):
                    problem = f"table 2: inconsistent row {row}"
                cells[(row["x"], p)] = row["abs_err"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"table 2: unreadable ({exc})"
        if problem is None and set(cells) != set(TABLE2_REF):
            problem = "table 2: wrong set of cells"
        if problem is None:
            for (x, p), ref in TABLE2_REF.items():
                if not _golden_cell(cells[(x, p)], ref, lambda x=x, p=p:
                                    oracle(b4, b2, 10.0, fig2, x, p)):
                    problem = f"table 2 cell (x={x}, p={p}) misses {ref}"
                    break
        if problem is not None:
            yield 1, problem

    sinlog = builtin("sinlog")
    psi = parse_kernel(PSI)
    docs = {}
    for study in plan["studies"]:
        i = study["index"]
        if i in failed:
            continue
        try:
            doc = _study_doc(plan["invocations"][i][-1], study)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            yield i, f"{study['kind']} output unreadable or wrong ({exc})"
            continue
        docs[i] = doc
    kinds = {s["index"]: s for s in plan["studies"]}
    for i, k in plan["sample"]:
        if i not in docs:
            continue
        study, w = kinds[i], RATE_WS[k]
        x = study["x"]
        fx = sinlog(x)
        if study["kind"] == "voronovskaya":
            value = docs[i]["scaled_errors"][k] / w ** 2 + fx
            spec = OperatorSpec(psi, b2, w)
            oracle_value = durrmeyer_eval(_doubled(spec), sinlog, x)
        else:
            value = docs[i]["errors"][k] + fx
            spec = _doubled(OperatorSpec(b4, b2, w))
            if study["kind"] == "rates_p3":
                oracle_value = combined_eval(solve_coefficients(3), spec,
                                             sinlog, x)
            else:
                oracle_value = durrmeyer_eval(spec, sinlog, x)
        if not _close(value, oracle_value, 1e-9):
            yield i, (f"{study['kind']} at x={x}, w={w}: {value!r} differs "
                      f"from the doubled-density value {oracle_value!r}")


def _study_doc(path, study):
    with open(path) as fh:
        doc = json.load(fh)
    meta = doc["metadata"]
    if meta["x"] != study["x"] or meta["w"] != list(RATE_WS):
        raise ValueError("metadata does not match the invocation")
    key = "scaled_errors" if study["kind"] == "voronovskaya" else "errors"
    values = doc[key]
    if len(values) != len(RATE_WS) or not all(map(math.isfinite, values)):
        raise ValueError(f"{key} is not {len(RATE_WS)} finite values")
    return doc


def _b2(v):
    import numpy as np
    return np.clip(1.0 - np.abs(v), 0.0, None)


def _psi(v):
    # psi = 3 B2(e^-2 x) - 2 B2(e^-3 x) in the log coordinate, written out
    # independently of the library's translate construction
    return 3.0 * _b2(v + 2.0) - 2.0 * _b2(v + 3.0)


def _expected_moment(kernel, route, u):
    """Independent value and tolerance of the order-2 moment."""
    import numpy as np
    if kernel == "bspline:4":
        # order-n B-spline: every order-2 route gives n/12; the Poisson
        # route carries its finite-difference error
        return 4.0 / 12.0, 1e-6 if route == "poisson" else 1e-9
    # psi: continuous moment c1 (1/6 + 2^2) + c2 (1/6 + 3^2), c = (3, -2)
    continuous = 3.0 * (1.0 / 6.0 + 4.0) - 2.0 * (1.0 / 6.0 + 9.0)
    if route == "continuous":
        return continuous, 1e-9
    if route == "discrete":
        tau = math.log(u)
        ks = np.arange(-2, 8)
        return float(np.sum(_psi(tau - ks) * (ks - tau) ** 2)), 1e-9
    if route == "poisson":
        # k != 0 transform terms are -1/(2 pi^2 k^2) each, truncated at |k| 3
        tail = sum(1.0 / k ** 2 for k in (1, 2, 3)) / math.pi ** 2
        return continuous - tail, 1e-6
    if route == "absolute-discrete":
        # in chunks of phases, so the check does not raise the worker's
        # peak memory above what the pass itself needs
        ks = np.arange(-2, 8)[None, :]
        best = 0.0
        for chunk in np.split(np.linspace(0.0, 1.0, 20000, endpoint=False), 20):
            taus = chunk[:, None]
            sums = np.sum(np.abs(_psi(taus - ks)) * (ks - taus) ** 2, axis=1)
            best = max(best, float(sums.max()))
        return best, 1e-6
    # |psi| is linear between its knots and its zero 5v + 13 = 0, so a
    # 4-point Gauss rule per piece integrates |psi| v^2 exactly
    nodes, weights = np.polynomial.legendre.leggauss(4)
    cuts = (-4.0, -3.0, -2.6, -2.0, -1.0)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        total += 0.5 * (b - a) * float(np.sum(weights * np.abs(_psi(v)) * v ** 2))
    return total, 1e-9


def _check_kernels(plan, results, failed):
    for i, argv in enumerate(plan["invocations"]):
        if i in failed:
            continue
        lines = results[i][1].splitlines()
        if argv[0] == "verify":
            verdicts = [line for line in lines if ": " in line
                        and not line.startswith(("expsample", "config"))]
            if len(verdicts) != 4 or not all(": pass (" in v
                                             for v in verdicts):
                yield i, f"verify {argv[2]} {argv[4]}: {verdicts}"
            continue
        kernel, route = argv[2], argv[6]
        try:
            value = float(lines[0])
        except (IndexError, ValueError):
            yield i, f"moments {kernel} {route}: no value printed"
            continue
        expected, tol = _expected_moment(kernel, route, plan["u"])
        if abs(value - expected) > tol * max(1.0, abs(expected)):
            yield i, (f"moments {kernel} {route}: {value!r}, expected "
                      f"{expected!r}")

"""Command-line front end.

Subcommands: moments, verify, eval, table, rates, voronovskaya, coeffs.
Flags and output columns are documented in docs/cli.md.  Every run prints
a one-line summary carrying the digest of its full configuration, and all
file output is written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__
from .analysis import (config_record, empirical_order, error_table,
                       voronovskaya_check)
from .combinations import PLAIN, solve_coefficients
from .errors import EvaluationError, ExpSampleError, InputError, OutputError
from .functions import function_from_spec
from .kernels import (absolute_moment, continuous_moment, discrete_moment,
                      parse_kernel, poisson_moment, verify_kernel)
from .operators import (Column, OperatorSpec, batch_eval, json_rows,
                        write_batch_csv, write_json)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


def _parse_reals(text, flag):
    """Parse '1,2,3' or 'start:stop:step' into a list of floats."""
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("range needs start:stop:step")
            start, stop, step = parts
            if step <= 0 or stop < start:
                raise ValueError("range must be increasing")
            # start + i * step, not repeated addition, so the last point
            # does not drift; the slack absorbs rounding in the quotient
            count = math.floor((stop - start) / step + 1e-9) + 1
            return [round(start + i * step, 12) for i in range(count)]
        out = [float(p) for p in text.split(",") if p.strip()]
        if not out:
            raise ValueError("empty list")
        return out
    except ValueError as exc:
        raise ExpSampleError(f"bad value for {flag}: {text!r} ({exc})") from None


def _parse_combine(text):
    if not text.startswith("p="):
        raise ExpSampleError(f"--combine expects p=<int>, got {text!r}")
    try:
        return int(text[2:])
    except ValueError:
        raise ExpSampleError(f"--combine expects p=<int>, got {text!r}") from None


def _summary(command, record, note):
    """The run's summary: a note and the digest of its record, then the
    rest of the record as the canonical JSON that digest hashes."""
    print(f"expsample {command}: {note} digest={record['digest']}")
    print("config: " + record.text)


def _record(args, spec=None, **fields):
    """config_record of the run: every flag that can change its output, with
    points, scales and combination orders parsed, kernels by descriptor and
    the quadrature flags as the operator's settings (spec, fields); never
    --out, nor --u where the route does not read it."""
    skip = {"out", "x", "w", "combine", "chi", "phi", "kernel",
            "nodes_per_unit", "panel_max_width"}
    if getattr(args, "route", "discrete") != "discrete":
        skip.add("u")
    flags = {k: v for k, v in vars(args).items() if k not in skip}
    return config_record(spec, **flags, **fields)


def _operator_inputs(args, label=None):
    """What the operator commands share: f, the points (a list when --x
    is one), the scales, the OperatorSpec of both kernels with the
    quadrature flags at the first scale, one combination per --combine
    and the run's record.  When label is given, each combination's
    coefficients are printed after it (formatted with the order p).  A
    function that declares neither boundedness nor a growth bound gets
    one warning line on stderr."""
    chi, phi = parse_kernel(args.chi), parse_kernel(args.phi)
    f = function_from_spec(args.fn)
    xs = _parse_reals(args.x, "--x") if isinstance(args.x, str) else args.x
    ws = _parse_reals(args.w, "--w")
    spec = OperatorSpec(chi, phi, ws[0], quadrature=QuadratureConfig(
        args.nodes_per_unit, args.panel_max_width))
    texts = args.combine if isinstance(args.combine, list) else (
        [args.combine] if args.combine else [])
    combs = []
    for text in texts:
        comb = solve_coefficients(_parse_combine(text))
        if label:
            print(label.format(p=comb.p), " ".join(f"{b:g}" for b in comb.beta))
        combs.append(comb)
    if not f.admissible:
        print(f"expsample {args.command}: warning: function {f.name!r} "
              "declares neither boundedness nor a growth bound; the "
              "operator series may not converge globally", file=sys.stderr)
    return f, xs, ws, spec, combs, _record(args, spec, x=xs, w=ws,
                                           p=[c.p for c in combs])


def _add_pair(parser):
    parser.add_argument("--chi", required=True, help="discrete-role kernel")
    parser.add_argument("--phi", required=True, help="continuous-role kernel")


def _add_operator(sub, name, summary, point=False):
    """A subcommand on the operator of a kernel pair, a function, the
    points --x (one point when point is set) and the scales --w, with the
    quadrature flags, which only these commands take, and an output file
    (CSV or JSON for eval and table, always JSON otherwise)."""
    p = sub.add_parser(name, help=summary)
    _add_pair(p)
    p.add_argument("--fn", required=True, help="name:<builtin> or expr:<string>")
    if point:
        p.add_argument("--x", type=float, required=True, help="the point x")
    else:
        p.add_argument("--x", required=True,
                       help="points: list or start:stop:step")
    p.add_argument("--w", required=True, help="scales: list or start:stop:step")
    p.add_argument("--nodes-per-unit", type=int,
                   default=DEFAULT_CONFIG.nodes_per_unit,
                   help="Gauss-Legendre points per unit log-length")
    p.add_argument("--panel-max-width", type=float,
                   default=DEFAULT_CONFIG.panel_max_width,
                   help="maximum quadrature panel width (log units)")
    p.add_argument("--out", help="output file path")
    if name in ("eval", "table"):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    return p


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state in it, so repeated main() calls can share it.  Its `commands`
    maps each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="expsample",
        description="Exponential sampling operators: kernels, moments, "
                    "error tables, and rate studies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="combination coefficients of order p")
    p.add_argument("--p", type=int, required=True, help="combination order")

    p = sub.add_parser("moments", help="kernel moments")
    p.add_argument("--kernel", required=True, help="kernel descriptor")
    p.add_argument("--order", type=int, required=True, help="moment order")
    p.add_argument("--route", default="discrete",
                   choices=("discrete", "continuous", "poisson",
                            "absolute-discrete", "absolute-continuous"),
                   help="which moment to compute (default discrete)")
    p.add_argument("--u", type=float, default=1.0,
                   help="evaluation point for the discrete route")

    p = sub.add_parser("verify", help="check the kernel-pair assumptions")
    _add_pair(p)
    p.add_argument("--r", type=int, default=1, help="moment order to check")
    p.add_argument("--tol", type=float, default=1e-8)

    p = _add_operator(sub, "eval", "evaluate the operator on a grid")
    p.add_argument("--combine", help="evaluate the combination p=<int> instead")

    p = _add_operator(sub, "table", "error table over points and scales")
    p.add_argument("--combine", action="append", default=[],
                   help="add combined columns p=<int> (repeatable)")

    p = _add_operator(sub, "rates", "empirical convergence order", point=True)
    p.add_argument("--combine", help="p=<int>")
    p.add_argument("--target-order", type=int,
                   help="order for the extrapolated constant")

    p = _add_operator(sub, "voronovskaya",
                      "predicted vs extrapolated error constant", point=True)
    p.add_argument("--j", type=int, required=True, help="expansion order")
    p.add_argument("--combine", help="p=<int>")

    parser.commands = sub.choices
    return parser


def _parse(argv):
    """The namespace build_parser().parse_args(argv) gives, key order
    included.  A command line that starts with a command is parsed once,
    by that command's parser, into a namespace that starts with
    `command`; every other one goes through the top level, and so does
    one that leaves words over, so that the top-level usage line and
    error report them."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    # the top level reads a word "--=..." as an ambiguous abbreviation
    # of its own flags
    if command and not any(a.startswith("--=") for a in argv):
        args, extra = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def _cmd_coeffs(args):
    spec = solve_coefficients(args.p)
    print(" ".join(f"{b:g}" for b in spec.beta))


def _cmd_moments(args):
    kernel = parse_kernel(args.kernel)
    if args.route == "discrete":
        value = discrete_moment(kernel, args.order, args.u)
    elif args.route == "continuous":
        value = continuous_moment(kernel, args.order)
    elif args.route == "poisson":
        value = poisson_moment(kernel, args.order)
    else:
        value = absolute_moment(kernel, args.order,
                                args.route.removeprefix("absolute-"))
    if not math.isfinite(value):
        raise EvaluationError(f"the moment of order {args.order} of "
                              f"{kernel.descriptor} overflows double precision")
    print(f"{value:.10f}")
    return (_record(args, kernel=kernel.descriptor),
            f"order {args.order} {args.route}")


def _cmd_verify(args):
    chi, phi = parse_kernel(args.chi), parse_kernel(args.phi)
    report = verify_kernel(chi, phi, args.r, args.tol)
    for cond in report.conditions():
        print(cond)
    verdict = "all pass" if report.all_passed else "FAILURES reported"
    return _record(args, chi=chi.descriptor, phi=phi.descriptor), verdict


# the columns of the eval command's CSV file and JSON rows
EVAL_HEADER = ("x", "w", "fx", "Iwfx", "abs_err")


def _cmd_eval(args):
    f, xs, ws, spec, combs, record = _operator_inputs(
        args, "combination coefficients:")
    p = (combs or [PLAIN])[-1].p
    rows = batch_eval(spec, f, xs, [Column(w, p) for w in ws])
    if not args.out:
        for x, c, fx, value, err in rows:
            print(f"x={x:g} w={c.w:g} fx={fx!r} Iwfx={value!r} "
                  f"abs_err={err!r}")
        return record, f"{len(rows)} evaluations"
    if args.format == "csv":
        write_batch_csv(rows, args.out, EVAL_HEADER)
    else:
        write_json(args.out, {"metadata": record,
                              "rows": json_rows(rows, EVAL_HEADER)})
    return record, f"wrote {len(rows)} rows to {args.out}"


def _cmd_table(args):
    f, xs, ws, spec, combs, record = _operator_inputs(
        args, "combination p={p} coefficients:")
    table = error_table(f, spec, xs, [Column(w, p) for p in
                                      [1, *(c.p for c in combs)] for w in ws])
    table.metadata = record
    if not args.out:
        for x, c, fx, value, err in table.rows:
            print(f"x={x:g} {c.label} abs_err={err!r}")
        return record, f"{len(table.rows)} cells"
    if args.format == "csv":
        table.to_csv(args.out)
    else:
        table.to_json(args.out)
    return record, f"wrote {len(table.rows)} cells to {args.out}"


def _cmd_rates(args):
    f, x, ws, spec, combs, record = _operator_inputs(
        args, "combination coefficients:")
    report = empirical_order(f, spec, x, ws, (combs or [PLAIN])[-1],
                             target_order=args.target_order)
    print(f"fitted order: {report.fitted_order:.4f}")
    print(f"extrapolated constant (order {report.target_order}): "
          f"{report.extrapolated_constant:.6g}")
    if report.zero_error:
        print("zero error encountered; order reported as +inf")
    if args.out:
        write_json(args.out, {"metadata": record, **vars(report)})
    return record, f"fitted order {report.fitted_order:.3f}"


def _cmd_voronovskaya(args):
    f, x, ws, spec, combs, record = _operator_inputs(args)
    comb = (combs or [PLAIN])[-1]
    check = voronovskaya_check(f, spec, x, ws, args.j, comb)
    if check.has_limit:
        print(f"predicted constant:    {check.predicted:.8g}")
        print(f"extrapolated constant: {check.extrapolated:.8g}")
        print(f"relative deviation:    {check.relative_deviation:.3%}")
        note = f"deviation {check.relative_deviation:.2%}"
    else:
        print(f"no limit: the order-{args.j} prediction moves with the "
              "phase of x^w")
        for w, pred, scaled in zip(ws, check.predictions, check.scaled_errors):
            print(f"w={w:g} predicted {pred:.8g} measured {scaled:.8g}")
        print(f"max deviation:         {check.max_deviation:.3g}")
        note = f"no limit, max deviation {check.max_deviation:.3g}"
    if comb.p > 1:
        print("lower orders:          " + (
            "cancel at every w" if check.lower_orders_cancel else
            f"do not cancel at every w; the order-{args.j} prediction "
            "does not hold there"))
    if check.diverged:
        print("warning: scaled errors grow along the sequence")
    if args.out:
        write_json(args.out, dict(
            metadata=record, limit=check.has_limit, predicted=check.predicted,
            extrapolated=check.extrapolated, predictions=check.predictions,
            max_deviation=check.max_deviation,
            lower_orders_cancel=check.lower_orders_cancel,
            relative_deviation=check.relative_deviation,
            scaled_errors=check.scaled_errors, diverged=check.diverged))
    return record, note


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "moments": _cmd_moments,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "table": _cmd_table,
    "rates": _cmd_rates,
    "voronovskaya": _cmd_voronovskaya,
}


def main(argv=None):
    args = _parse(argv)
    try:
        # a command returns the record and note of its summary, if any
        summary = _COMMANDS[args.command](args)
        if summary:
            _summary(args.command, *summary)
        return 0
    except InputError as exc:  # a ValueError, caught before those
        error = exc
    except (EvaluationError, ValueError, ArithmeticError) as exc:
        print(f"expsample {args.command}: numerical failure: {exc}",
              file=sys.stderr)
        return 1
    except ExpSampleError as exc:
        error = exc
    # configuration problems (bad descriptors, malformed specs, points
    # or scales the operator does not take) rank with flag errors and get
    # the usage hint; an unwritable --out, no fault of the command line,
    # exits 2 without it
    print(f"expsample {args.command}: error: {error}", file=sys.stderr)
    if not isinstance(error, OutputError):
        print(f"run 'expsample {args.command} --help' for usage",
              file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

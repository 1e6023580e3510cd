"""Command-line front end.

Subcommands: moments, verify, eval, table, rates, voronovskaya, coeffs.
Flags and output columns are documented in docs/cli.md.  Every run prints
a one-line summary carrying the digest of its full configuration, and all
file output is written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .analysis import (
    Column,
    config_digest,
    empirical_order,
    error_table,
    voronovskaya_check,
)
from .combinations import solve_coefficients
from .errors import EvaluationError, ExpSampleError, SamplingError
from .functions import function_from_spec
from .kernels import (
    absolute_moment,
    continuous_moment,
    discrete_moment,
    parse_kernel,
    poisson_moment,
    verify_kernel,
)
from .operators import OperatorSpec, batch_eval, write_batch_csv, write_json
from .quadrature import QuadratureConfig


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


def _fmt(v):
    return f"{v:g}"


def _quad_config(args):
    return QuadratureConfig(nodes_per_unit=args.nodes_per_unit,
                            panel_max_width=args.panel_max_width)


def _summary(command, payload, note):
    digest = config_digest(payload)
    print(f"expsample {command}: {note} digest={digest}")
    print(f"config: {json.dumps(payload, sort_keys=True)}")
    return digest


def _add_common(parser):
    parser.add_argument("--nodes-per-unit", type=int, default=20,
                        help="Gauss-Legendre points per unit log-length")
    parser.add_argument("--panel-max-width", type=float, default=0.5,
                        help="maximum quadrature panel width (log units)")


def _add_output(parser):
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state in it, so repeated main() calls can share it."""
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
    _add_common(p)

    p = sub.add_parser("verify", help="check the kernel-pair assumptions")
    p.add_argument("--chi", required=True, help="discrete-role kernel")
    p.add_argument("--phi", required=True, help="continuous-role kernel")
    p.add_argument("--r", type=int, default=1, help="moment order to check")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate the operator on a grid")
    p.add_argument("--chi", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--fn", required=True, help="name:<builtin> or expr:<string>")
    p.add_argument("--x", required=True, help="points: list or start:stop:step")
    p.add_argument("--w", required=True, help="scales: list or start:stop:step")
    p.add_argument("--combine", help="evaluate the combination p=<int> instead")
    _add_common(p)
    _add_output(p)

    p = sub.add_parser("table", help="error table over points and scales")
    p.add_argument("--chi", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--combine", action="append", default=[],
                   help="add combined columns p=<int> (repeatable)")
    _add_common(p)
    _add_output(p)

    p = sub.add_parser("rates", help="empirical convergence order")
    p.add_argument("--chi", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--w", required=True, help="geometric scale sequence")
    p.add_argument("--combine", help="p=<int>")
    p.add_argument("--target-order", type=int,
                   help="order for the extrapolated constant")
    _add_common(p)
    _add_output(p)

    p = sub.add_parser("voronovskaya",
                       help="predicted vs extrapolated error constant")
    p.add_argument("--chi", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--j", type=int, required=True, help="expansion order")
    p.add_argument("--w", required=True)
    p.add_argument("--combine", help="p=<int>")
    _add_common(p)
    _add_output(p)

    return parser


def _cmd_coeffs(args):
    spec = solve_coefficients(args.p)
    print(" ".join(_fmt(b) for b in spec.beta))
    return 0


def _cmd_moments(args):
    kernel = parse_kernel(args.kernel)
    cfg = _quad_config(args)
    if args.route == "discrete":
        value = discrete_moment(kernel, args.order, args.u)
    elif args.route == "continuous":
        value = continuous_moment(kernel, args.order, cfg)
    elif args.route == "poisson":
        value = poisson_moment(kernel, args.order, cfg=cfg)
    elif args.route == "absolute-discrete":
        value = absolute_moment(kernel, args.order, "discrete", cfg)
    else:
        value = absolute_moment(kernel, args.order, "continuous", cfg)
    print(f"{value:.10f}")
    payload = {"command": "moments", "kernel": kernel.descriptor,
               "order": args.order, "route": args.route, "u": args.u,
               "version": __version__}
    _summary("moments", payload, f"order {args.order} {args.route}")
    return 0


def _cmd_verify(args):
    chi = parse_kernel(args.chi)
    phi = parse_kernel(args.phi)
    report = verify_kernel(chi, phi, args.r, args.tol, _quad_config(args))
    for cond in report.conditions():
        print(cond)
    payload = {"command": "verify", "chi": chi.descriptor,
               "phi": phi.descriptor, "r": args.r, "tol": args.tol,
               "version": __version__}
    verdict = "all pass" if report.all_passed else "FAILURES reported"
    _summary("verify", payload, verdict)
    return 0


def _cmd_eval(args):
    chi = parse_kernel(args.chi)
    phi = parse_kernel(args.phi)
    f = function_from_spec(args.fn)
    xs = _parse_reals(args.x, "--x")
    ws = _parse_reals(args.w, "--w")
    cfg = _quad_config(args)
    spec = OperatorSpec(chi, phi, ws[0], quadrature=cfg)
    p = _parse_combine(args.combine) if args.combine else None

    comb = None
    if p is not None:
        comb = solve_coefficients(p)
        print("combination coefficients:", " ".join(_fmt(b) for b in comb.beta))

    points = [(x, w) for x in xs for w in ws]
    rows = batch_eval(spec, f, points, combination=comb)
    payload = {"command": "eval", "chi": chi.descriptor, "phi": phi.descriptor,
               "fn": args.fn, "x": xs, "w": ws, "p": p,
               "quadrature": {"nodes_per_unit": cfg.nodes_per_unit,
                              "panel_max_width": cfg.panel_max_width},
               "version": __version__}
    if args.out:
        if args.format == "csv":
            write_batch_csv(rows, args.out)
        else:
            doc = {"metadata": {"digest": config_digest(payload), **payload},
                   "rows": [dict(zip(("x", "w", "fx", "Iwfx", "abs_err"), r))
                            for r in rows]}
            write_json(args.out, doc)
        note = f"wrote {len(rows)} rows to {args.out}"
    else:
        for x, w, fx, val, err in rows:
            print(f"x={x:g} w={w:g} fx={fx!r} Iwfx={val!r} abs_err={err!r}")
        note = f"{len(rows)} evaluations"
    _summary("eval", payload, note)
    return 0


def _cmd_table(args):
    chi = parse_kernel(args.chi)
    phi = parse_kernel(args.phi)
    f = function_from_spec(args.fn)
    xs = _parse_reals(args.x, "--x")
    ws = _parse_reals(args.w, "--w")
    cfg = _quad_config(args)
    spec = OperatorSpec(chi, phi, ws[0], quadrature=cfg)
    columns = [Column(w) for w in ws]
    for text in args.combine:
        p = _parse_combine(text)
        comb = solve_coefficients(p)
        print(f"combination p={p} coefficients:",
              " ".join(_fmt(b) for b in comb.beta))
        columns.extend(Column(w, p) for w in ws)
    table = error_table(f, spec, xs, columns)
    payload = {"command": "table", "digest_of": table.metadata["digest"],
               "fn": args.fn, "version": __version__}
    if args.out:
        if args.format == "csv":
            table.to_csv(args.out)
        else:
            table.to_json(args.out)
        note = f"wrote {len(table.rows)} cells to {args.out}"
    else:
        for x, label, fx, value in table.rows:
            print(f"x={x:g} {label} abs_err={abs(fx - value)!r}")
        note = f"{len(table.rows)} cells"
    print(f"expsample table: {note} digest={table.metadata['digest']}")
    print(f"config: {json.dumps(payload, sort_keys=True)}")
    return 0


def _cmd_rates(args):
    chi = parse_kernel(args.chi)
    phi = parse_kernel(args.phi)
    f = function_from_spec(args.fn)
    ws = _parse_reals(args.w, "--w")
    cfg = _quad_config(args)
    spec = OperatorSpec(chi, phi, ws[0], quadrature=cfg)
    comb = None
    if args.combine:
        comb = solve_coefficients(_parse_combine(args.combine))
        print("combination coefficients:", " ".join(_fmt(b) for b in comb.beta))
    report = empirical_order(f, spec, args.x, ws, combination=comb,
                             target_order=args.target_order)
    print(f"fitted order: {report.fitted_order:.4f}")
    print(f"extrapolated constant (order {report.target_order}): "
          f"{report.extrapolated_constant:.6g}")
    if report.zero_error:
        print("zero error encountered; order reported as +inf")
    payload = {"command": "rates", "chi": chi.descriptor, "phi": phi.descriptor,
               "fn": args.fn, "x": args.x, "w": ws,
               "p": comb.p if comb else None, "version": __version__}
    if args.out:
        doc = {"metadata": {"digest": config_digest(payload), **payload},
               "x": report.x, "w_sequence": list(report.w_sequence),
               "errors": list(report.errors),
               "fitted_order": report.fitted_order,
               "extrapolated_constant": report.extrapolated_constant,
               "target_order": report.target_order,
               "zero_error": report.zero_error}
        write_json(args.out, doc)
    _summary("rates", payload, f"fitted order {report.fitted_order:.3f}")
    return 0


def _cmd_voronovskaya(args):
    chi = parse_kernel(args.chi)
    phi = parse_kernel(args.phi)
    f = function_from_spec(args.fn)
    ws = _parse_reals(args.w, "--w")
    cfg = _quad_config(args)
    spec = OperatorSpec(chi, phi, ws[0], quadrature=cfg)
    comb = solve_coefficients(_parse_combine(args.combine)) if args.combine else None
    check = voronovskaya_check(f, spec, args.x, ws, args.j, combination=comb)
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
    if comb is not None and comb.p > 1:
        print("lower orders:          " + (
            "cancel at every w" if check.lower_orders_cancel else
            f"do not cancel at every w; the order-{args.j} prediction "
            "does not hold there"))
    if check.diverged:
        print("warning: scaled errors grow along the sequence")
    payload = {"command": "voronovskaya", "chi": chi.descriptor,
               "phi": phi.descriptor, "fn": args.fn, "x": args.x, "j": args.j,
               "w": ws, "p": comb.p if comb else None, "version": __version__}
    if args.out:
        doc = {"metadata": {"digest": config_digest(payload), **payload},
               "limit": check.has_limit,
               "predicted": check.predicted,
               "extrapolated": check.extrapolated,
               "predictions": list(check.predictions),
               "max_deviation": check.max_deviation,
               "lower_orders_cancel": check.lower_orders_cancel,
               "relative_deviation": check.relative_deviation,
               "scaled_errors": list(check.scaled_errors),
               "diverged": check.diverged}
        write_json(args.out, doc)
    _summary("voronovskaya", payload, note)
    return 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EvaluationError, SamplingError) as exc:
        print(f"expsample {args.command}: numerical failure: {exc}",
              file=sys.stderr)
        return 1
    except ExpSampleError as exc:
        # configuration problems (bad descriptors, malformed specs) rank
        # with flag errors
        print(f"expsample {args.command}: error: {exc}", file=sys.stderr)
        print(f"run 'expsample {args.command} --help' for usage",
              file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"expsample {args.command}: numerical failure: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Error tables, empirical convergence orders, and asymptotic-constant
checks.

The rate instruments work on the scaled error a_w = w^j (I_w f - f)(x).
A single Richardson elimination step on a geometric w-sequence,
a_{qw} + (a_{qw} - a_w)/(q - 1), strips the next-order term and converges
an order faster than reading off the last a_w directly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .combinations import combined_eval, combined_moment, solve_coefficients
from .operators import OperatorSpec, durrmeyer_eval
from .quadrature import DEFAULT_CONFIG


def config_digest(payload):
    """Stable hex digest of a configuration mapping (short form)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _spec_payload(spec):
    return {
        "chi": spec.chi.descriptor,
        "phi": spec.phi.descriptor,
        "quadrature": {
            "nodes_per_unit": spec.quadrature.nodes_per_unit,
            "panel_max_width": spec.quadrature.panel_max_width,
        },
        "truncation_radius": spec.truncation_radius,
        "version": __version__,
    }


@dataclass(frozen=True)
class Column:
    """One table column: scale w combined at order p (p = 1 is plain)."""

    w: float
    p: int = 1

    @property
    def label(self):
        if self.p == 1:
            return f"w={self.w:g}"
        return f"p={self.p},w={self.w:g}"


@dataclass
class ErrorTable:
    """Rows (x, label, f(x), value, abs error) plus run metadata.

    The absolute error is recomputed from the stored values, never carried
    independently; rounding happens only at serialization time.
    """

    rows: list
    metadata: dict

    def to_csv(self, path):
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("x", "label", "fx", "value", "abs_err"))
            for x, label, fx, value in self.rows:
                writer.writerow([repr(x), label, repr(fx), repr(value),
                                 repr(abs(fx - value))])
        os.replace(tmp, path)

    def to_json(self, path=None):
        doc = {
            "metadata": self.metadata,
            "rows": [
                {"x": x, "label": label, "fx": fx, "value": value,
                 "abs_err": abs(fx - value)}
                for x, label, fx, value in self.rows
            ],
        }
        if path is None:
            return doc
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
        return doc

    def cell(self, x, label):
        for rx, rlabel, fx, value in self.rows:
            if rlabel == label and math.isclose(rx, x):
                return abs(fx - value)
        raise KeyError(f"no cell ({x}, {label})")


def error_table(f, spec, xs, columns):
    """Cross product of evaluation points and columns, row-major.

    Each column is one evaluation of the operator (combined when the
    column says so) on the array of points, at full precision; the
    metadata digest pins kernels, scales, points, and quadrature so a
    rerun can be matched byte for byte.
    """
    cols = [c if isinstance(c, Column) else Column(float(c)) for c in columns]
    points = np.array(xs, dtype=float)
    by_column = []
    for col in cols:
        if col.p == 1:
            values = durrmeyer_eval(spec.with_w(col.w), f, points)
        else:
            comb = solve_coefficients(col.p)
            values = combined_eval(comb, spec.with_w(col.w), f, points)
        by_column.append(values.tolist())
    rows = []
    for i, x in enumerate(xs):
        fx = f(x)
        for col, values in zip(cols, by_column):
            rows.append((x, col.label, fx, values[i]))
    payload = dict(_spec_payload(spec))
    payload.update({
        "fn": getattr(f, "name", "?"),
        "xs": list(map(float, xs)),
        "columns": [c.label for c in cols],
    })
    meta = {
        "chi": spec.chi.descriptor,
        "phi": spec.phi.descriptor,
        "fn": getattr(f, "name", "?"),
        "digest": config_digest(payload),
        "version": __version__,
    }
    return ErrorTable(rows=rows, metadata=meta)


@dataclass(frozen=True)
class RateReport:
    """Fitted empirical convergence order at one point.

    fitted_order is the negated least-squares slope of log|error| against
    log w; extrapolated_constant estimates lim w^p * error (signed) by one
    Richardson elimination step on the last pair of the sequence.
    """

    x: float
    w_sequence: tuple
    errors: tuple
    fitted_order: float
    extrapolated_constant: float
    target_order: int
    zero_error: bool = False


def richardson(ws, values):
    """One elimination step on the last pair of a geometric sequence."""
    if len(ws) < 2:
        return values[-1]
    q = ws[-1] / ws[-2]
    if q <= 1:
        raise ValueError("w sequence must be strictly increasing")
    return values[-1] + (values[-1] - values[-2]) / (q - 1.0)


def empirical_order(f, spec, x, ws, combination=None, target_order=None):
    """Fit the empirical convergence order of the (combined) operator.

    Needs at least 3 scales.  A zero error anywhere makes the order
    meaningless; it is reported as +inf with the zero_error flag set.
    """
    ws = [float(w) for w in ws]
    if len(ws) < 3:
        raise ValueError("need at least 3 scales for a rate fit")
    if any(b >= a for a, b in zip(ws[1:], ws[:-1])):
        raise ValueError("w sequence must be strictly increasing")
    fx = f(x)
    errors = []
    for w in ws:
        if combination is None:
            val = durrmeyer_eval(spec.with_w(w), f, x)
        else:
            val = combined_eval(combination, spec.with_w(w), f, x)
        errors.append(val - fx)
    if any(e == 0.0 for e in errors):
        return RateReport(x=x, w_sequence=tuple(ws), errors=tuple(errors),
                          fitted_order=math.inf, extrapolated_constant=0.0,
                          target_order=target_order or 0, zero_error=True)
    slope = np.polyfit(np.log(ws), np.log(np.abs(errors)), 1)[0]
    fitted = -float(slope)
    if target_order is None:
        target_order = max(1, round(fitted))
    scaled = [w ** target_order * e for w, e in zip(ws, errors)]
    const = richardson(ws, scaled)
    return RateReport(x=x, w_sequence=tuple(ws), errors=tuple(errors),
                      fitted_order=fitted, extrapolated_constant=const,
                      target_order=target_order)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Predicted-vs-extrapolated record for the order-j error constant."""

    x: float
    order: int
    predicted: float
    extrapolated: float
    scaled_errors: tuple
    diverged: bool

    @property
    def relative_deviation(self):
        if self.predicted == 0.0:
            return math.inf if self.extrapolated != 0.0 else 0.0
        return abs(self.extrapolated - self.predicted) / abs(self.predicted)


def voronovskaya_check(f, spec, x, ws, j, combination=None):
    """Compare the moment-formula prediction of lim w^j (I_w f - f)(x)
    against Richardson extrapolation of the measured scaled errors.

    The prediction is theta^j f(x)/j! times the order-j moment coefficient
    (evaluated at u = x); f must carry a closed form for theta^j f.
    Divergence of the scaled-error sequence is flagged, not raised.
    """
    ws = [float(w) for w in ws]
    if len(ws) < 3:
        raise ValueError("need at least 3 scales")
    deriv = f.log_derivative(j)
    if deriv is None:
        raise ValueError(
            f"{getattr(f, 'name', f)!r} has no closed-form derivative of "
            f"order {j}; the prediction needs one")
    comb = combination if combination is not None else solve_coefficients(1)
    coeff = combined_moment(comb, spec.chi, spec.phi, j, x, spec.quadrature)
    predicted = deriv(x) / math.factorial(j) * coeff

    fx = f(x)
    scaled = []
    for w in ws:
        if combination is None:
            val = durrmeyer_eval(spec.with_w(w), f, x)
        else:
            val = combined_eval(combination, spec.with_w(w), f, x)
        scaled.append(w ** j * (val - fx))
    extrapolated = richardson(ws, scaled)
    mags = [abs(s) for s in scaled]
    diverged = len(mags) >= 3 and mags[-1] > 2.0 * mags[0] and mags[-1] > mags[-2] > mags[-3]
    return AsymptoticCheck(x=x, order=j, predicted=predicted,
                           extrapolated=extrapolated, scaled_errors=tuple(scaled),
                           diverged=diverged)

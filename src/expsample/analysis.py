"""Error tables, empirical convergence orders, and asymptotic-constant
checks.

The rate instruments work on the scaled error a_w = w^j (I_w f - f)(x).
A single Richardson elimination step on a geometric w-sequence,
a_{qw} + (a_{qw} - a_w)/(q - 1), strips the next-order term and converges
an order faster than reading off the last a_w directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .combinations import PLAIN, _moment_terms, combined_eval
from .errors import InputError
from .operators import (batch_eval, f_values, json_rows, write_batch_csv,
                        write_json)

# hashlib loads OpenSSL (about 3.4 MB of resident memory) for this one
# digest; CPython's built-in module computes the same SHA-256
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


class _Record(dict):
    """A run record that keeps in `text` the canonical JSON of the record
    without its digest: the exact text the digest hashes."""

    __slots__ = ("text",)


def config_record(spec=None, **fields):
    """The run record: fields, the kernels, quadrature and truncation radius
    of spec, and the version, plus "digest", the first 16 hex digits of
    the SHA-256 of their canonical JSON (sorted keys, compact separators,
    strict).  Its keys are in sorted order, that of the canonical JSON,
    so a JSON file that writes the record as it is holds the same bytes
    for the same digest."""
    if spec is not None:
        fields = {**fields, "quadrature": vars(spec.quadrature),
                  "chi": spec.chi.descriptor, "phi": spec.phi.descriptor,
                  "truncation_radius": spec.truncation_radius}
    record = {**fields, "version": __version__}
    try:
        text = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except ValueError:  # strict JSON: a non-finite number becomes a string
        return config_record(**json.loads(json.dumps(record), parse_constant=str))
    digest = sha256(text.encode()).hexdigest()[:16]
    out = _Record(sorted({"digest": digest, **record}.items()))
    out.text = text
    return out


# the columns of the table command's CSV file and JSON rows
TABLE_HEADER = ("x", "label", "fx", "value", "abs_err")

# error_table and ErrorTable hold no logic of their own: the benchmark's
# layer spans (perfbench/tracing.py) patch these names, and its study
# workload must open ErrorTable's writers, so they stay until the spans
# are found without a list of names


@dataclass
class ErrorTable:
    """Grid rows (x, column, f(x), value, abs_err) of batch_eval plus
    metadata, the run record that to_json writes."""

    rows: list
    metadata: dict

    def to_csv(self, path):
        write_batch_csv(self.rows, path, TABLE_HEADER)

    def to_json(self, path):
        write_json(path, {"metadata": self.metadata,
                          "rows": json_rows(self.rows, TABLE_HEADER)})


def error_table(f, spec, xs, columns):
    """batch_eval's grid of xs and the Columns as an ErrorTable with an
    empty metadata: the run record is the caller's."""
    return ErrorTable(batch_eval(spec, f, xs, columns), {})


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


def _scales(ws):
    """ws as a list of floats, or an InputError unless it holds at least
    3 strictly increasing scales."""
    ws = [float(w) for w in ws]
    if len(ws) < 3:
        raise InputError("need at least 3 scales")
    if any(b <= a for a, b in zip(ws, ws[1:])):
        raise InputError("w sequence must be strictly increasing")
    return ws


def empirical_order(f, spec, x, ws, combination=PLAIN, target_order=None):
    """Fit the empirical convergence order of the combined operator (by
    default order 1, the operator itself).

    Needs at least 3 strictly increasing scales.  The operator values
    come first, from one engine call, which checks x; then f(x), from
    f_values.  A zero error anywhere makes the order meaningless;
    it is reported as +inf with the zero_error flag set.
    """
    ws = _scales(ws)
    values = combined_eval(combination, spec, f, x, ws).tolist()
    fx, = f_values(f, [x]).tolist()
    errors = [val - fx for val in values]
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
    """Predicted-vs-measured record for the order-j error constant.

    predictions[i] is the moment-formula value of w^j (I_w f - f)(x) at
    the i-th scale, scaled_errors[i] its measurement.  magnitude is the
    largest over the scales of the summed magnitudes of the terms of a
    prediction; a prediction within 1e-12 of it is zero up to roundoff
    and is reported as 0.0.  When the predictions agree to 1e-12 of
    magnitude the limit exists: has_limit is set, predicted is that
    constant and extrapolated its Richardson estimate.  Otherwise there
    is no limit and both are None; the measurement is then compared
    scale by scale (max_deviation).  lower_orders_cancel is False when a
    combination (p > 1) leaves an order below j uncancelled at some
    scale, so that the order-j prediction does not describe the error
    there; it is checked only for such combinations.
    """

    x: float
    order: int
    predicted: Optional[float]
    extrapolated: Optional[float]
    scaled_errors: tuple
    diverged: bool
    predictions: tuple
    has_limit: bool
    magnitude: float
    lower_orders_cancel: bool = True

    @property
    def max_deviation(self):
        """max over w of |w^j err_w - pred_w|."""
        return max(abs(s - p) for s, p in zip(self.scaled_errors, self.predictions))

    @property
    def relative_deviation(self):
        """|extrapolated - predicted| / |predicted| when the limit exists;
        when that limit is 0 (its terms cancel), |extrapolated| over
        magnitude, the size of the cancelling terms (inf, or 0.0 when
        extrapolated is 0 too, if every term is 0); without a limit,
        max_deviation over the largest |pred_w|."""
        if not self.has_limit:
            return self.max_deviation / max(abs(p) for p in self.predictions)
        if self.predicted == 0.0:
            if self.magnitude == 0.0:
                return math.inf if self.extrapolated != 0.0 else 0.0
            return abs(self.extrapolated) / self.magnitude
        return abs(self.extrapolated - self.predicted) / abs(self.predicted)


# relative size below which a moment coefficient is zero up to roundoff
_ROUNDOFF = 1e-12


def voronovskaya_check(f, spec, x, ws, j, combination=PLAIN):
    """Compare the moment-formula prediction of w^j (I_w f - f)(x) with
    the measured scaled errors.

    The prediction at scale w is theta^j f(x)/j! times the order-j moment
    coefficient with its discrete factors at u = x^w, i.e. at the phase
    frac(w log x) (x^{iw} for the i-th term of a combination); f must
    carry a closed form for theta^j f.  For b-spline pairs the phase does
    not matter, and the limit constant is compared with the Richardson
    extrapolation of the scaled errors.  For kernels whose lattice
    moments oscillate, such as translate combinations, the predictions
    move with w and there is no limit: has_limit is False and each scaled
    error is compared with its own prediction.  Predictions and their
    spread are judged against the size of their terms, so a coefficient
    that vanishes (such as order p of a b-spline combination of order p)
    has the limit 0.0.  With a combination the prediction covers order j
    only: the orders below j cancel only where their coefficients are the
    same at every x^{iw}, which lower_orders_cancel reports.  Divergence
    of the scaled-error sequence is flagged, not raised.  The scales are
    checked as by empirical_order, then j >= 1 and the closed form (an
    InputError each), and the operator values at all of the scales are
    one engine call, which checks x; f(x) comes from f_values.  The
    combination defaults to order 1, the operator itself.
    """
    ws = _scales(ws)
    if j < 1:
        raise InputError(f"j must be >= 1, got {j}")
    deriv = f.log_derivative(j)
    if deriv is None:
        raise InputError(
            f"{f.name!r} has no closed-form derivative of order {j}; the "
            "prediction needs one")
    values = combined_eval(combination, spec, f, x, ws).tolist()
    fx, = f_values(f, [x]).tolist()
    # the phase comes from w log x: x^w itself overflows
    log_u = np.array(ws) * math.log(x)
    coeffs, sizes = (_moment_terms(combination, spec.chi, spec.phi, j, log_u,
                                   absolute) for absolute in (False, True))
    factor = deriv(x) / math.factorial(j)
    sizes = abs(factor) * sizes
    predictions = tuple(0.0 if abs(p) <= _ROUNDOFF * s else float(p)
                        for p, s in zip(factor * coeffs, sizes))
    magnitude = float(sizes.max())
    spread = max(abs(p - predictions[-1]) for p in predictions)
    has_limit = spread <= _ROUNDOFF * magnitude

    scaled = [w ** j * (val - fx) for w, val in zip(ws, values)]
    mags = [abs(s) for s in scaled]
    diverged = mags[-1] > 2.0 * mags[0] and mags[-1] > mags[-2] > mags[-3]
    return AsymptoticCheck(
        x=x, order=j,
        predicted=predictions[-1] if has_limit else None,
        extrapolated=richardson(ws, scaled) if has_limit else None,
        scaled_errors=tuple(scaled), diverged=diverged,
        predictions=predictions, has_limit=has_limit, magnitude=magnitude,
        lower_orders_cancel=combination.p == 1 or _lower_orders_cancel(
            combination, spec.chi, spec.phi, j, log_u))


def _lower_orders_cancel(comb, chi, phi, j, log_u):
    """Whether the combined coefficients of orders 1 .. j-1 vanish at
    every entry of log_u, to 1e-12 of the sum of the magnitudes of their
    terms there."""
    for k in range(1, j):
        value, size = (_moment_terms(comb, chi, phi, k, log_u, absolute)
                       for absolute in (False, True))
        if np.any(np.abs(value) > _ROUNDOFF * size):
            return False
    return True

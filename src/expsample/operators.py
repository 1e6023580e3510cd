"""Sampling-type operators on the multiplicative half-line.

The central object replaces each sample value of f at the node e^{k/w}
with a convolution mean against a second kernel phi:

    (I_w f)(x) = sum_k chi(e^{-k} x^w) * w * int phi(e^{-k} t^w) f(t) dt/t

For compactly supported chi the k-sum is an exact finite sum; the inner
integral lives on log t in [(k + lo_phi)/w, (k + hi_phi)/w] and is done by
knot-aligned Gauss-Legendre panels.  durrmeyer_eval computes each distinct
window (w, k) that its points need once, from one evaluation of f on the
nodes of the lattice periods those windows reach (see the engine notes
below).  Choosing phi as the indicator of [1, e) turns the inner integral
into the plain mean of f(e^u) over [k/w, (k+1)/w]; kantorovich_eval
implements that form directly as an independent route, and sampling_eval
is the bare series driven by raw sample values.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, SamplingError
from .functions import RealFunction
from .kernels import Kernel
from .quadrature import (DEFAULT_CONFIG, LogInterval, QuadratureConfig,
                         cell_rule, log_rule, panel_counts)


@dataclass(frozen=True)
class OperatorSpec:
    """A (chi, phi) kernel pair with scale w and numerical policy.

    truncation_radius narrows the outer sum to |k - w log x| <= radius (None:
    the window of chi's support); it may not be smaller than chi's support
    radius, so it drops only terms where chi is 0 and changes no value.
    """

    chi: Kernel
    phi: Kernel
    w: float
    truncation_radius: Optional[float] = None
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.w <= 0:
            raise ValueError(f"w must be positive, got {self.w}")
        if self.truncation_radius is not None:
            if self.truncation_radius < self.chi.log_support_radius:
                raise ValueError(
                    "truncation_radius may not be smaller than the support "
                    f"radius {self.chi.log_support_radius} of chi")

    def with_w(self, w):
        return OperatorSpec(self.chi, self.phi, w,
                            self.truncation_radius, self.quadrature)


def _admissibility_warning(f):
    if not getattr(f, "admissible", False):
        name = getattr(f, "name", repr(f))
        warnings.warn(
            f"function {name!r} declares neither boundedness nor a growth "
            "bound; the operator series may not converge globally",
            stacklevel=3)


# beyond 2^52 consecutive integers are no longer exactly representable
# around w log x, so the lattice indices of a window would be wrong
_MAX_CENTRE = 2.0 ** 52


def _windows(chi, w, xs, radius=None):
    """Centres w log x and the ranges kmin..kmax of integers k with
    chi(e^{-k} x^w) != 0 (possibly narrowed by radius), one per x; w is
    a float or an array of one scale per x."""
    xs = np.asarray(xs, dtype=float)
    ws = np.broadcast_to(np.asarray(w, dtype=float), xs.shape)
    tc = ws * np.log(xs)
    big = np.abs(tc) >= _MAX_CENTRE
    if np.any(big):
        i = int(np.argmax(big))
        raise EvaluationError(
            f"w log x = {tc[i]:.6g} for w={ws[i]}, x={xs[i]}: at |w log x| "
            ">= 2^52 the lattice indices around it are not exact in double "
            "precision")
    lo, hi = chi.support
    kmin = np.floor(tc - hi)
    kmax = np.ceil(tc - lo)
    if radius is not None:
        kmin = np.maximum(kmin, np.ceil(tc - radius))
        kmax = np.minimum(kmax, np.floor(tc + radius))
    empty = kmin > kmax
    if np.any(empty):
        i = int(np.argmax(empty))
        raise EvaluationError(
            f"empty summation window for w={ws[i]}, x={xs[i]}: check "
            "truncation_radius")
    return tc, kmin.astype(np.int64), kmax.astype(np.int64)


def _outer_window(chi, w, x, radius=None):
    """Integers k with chi(e^{-k} x^w) != 0 (possibly narrowed by radius)."""
    tc, kmin, kmax = _windows(chi, w, [x], radius)
    return float(tc[0]), np.arange(kmin[0], kmax[0] + 1)


def _convolution_log(phi, f, w, log_s, cfg):
    """w * int phi(t^w / s^w) f(t) dt/t with log s given directly."""
    lo, hi = phi.support
    iv = LogInterval(log_s + lo / w, log_s + hi / w)
    knots = tuple(log_s + k / w for k in phi.knots)
    nodes, weights = log_rule(iv, cfg, knots)
    phis = np.asarray(phi.eval_log(w * (nodes - log_s)), dtype=float)
    total = 0.0
    for u, wt, pv in zip(nodes, weights, phis):
        if pv == 0.0:
            continue
        t = math.exp(u)
        try:
            fv = f(t)
        except EvaluationError as exc:
            raise EvaluationError(
                f"evaluating f at t={t!r} inside the convolution window "
                f"around s=e^{log_s:.6g}: {exc}") from exc
        if not math.isfinite(fv):
            raise EvaluationError(
                f"non-finite value of f at t={t!r} inside the "
                f"convolution window around s=e^{log_s:.6g}")
        total += wt * pv * fv
    return float(w * total)


def mellin_convolution(phi, f, w, s, cfg=DEFAULT_CONFIG):
    """Convolution mean of f against the scaled kernel w phi(u^w), centred
    at s > 0.  Reproduces constants exactly whenever phi integrates to 1."""
    if s <= 0:
        raise ValueError("s must be positive")
    return _convolution_log(phi, f, w, math.log(s), cfg)


# --- shared-lattice engine --------------------------------------------------
#
# In b = w log t the term k of the series weights the window mean
# int phi(b - k) f(e^{b/w}) db.  The knots of phi cut every window on the
# lattice m + p of the knot phases p = knot mod 1, so one period rule (the
# cells between consecutive phases, subdivided like every log_rule) at the
# offsets m serves all windows of a scale, and the phi weights at the nodes
# m + b_j depend only on d = m - k: one (d, j) template per rule.  Only the
# subdivision depends on w; scales with the same one share a rule.
#
# Two tables, found with one lexsort each, drive the engine: the distinct
# windows (w, k) that the chi rows need and the distinct periods
# (w, m = k + d) their templates reach.  f is called once, on the period
# nodes that a needed window weights, so overlapping windows share samples.
# A window mean is the sum over d, from the left, of the row sums of
# template row d times period row k + d; a value reads its own windows only.

_PHASE_TOL = 1e-12


def _knot_phases(phi):
    """Distinct phases mod 1 of the knots and support ends of phi, sorted;
    phases closer than _PHASE_TOL count as one."""
    raw = sorted({0.0 if p > 1.0 - _PHASE_TOL else p
                  for p in (v % 1.0 for v in (*phi.knots, *phi.support))})
    phases = [raw[0]]
    for p in raw[1:]:
        if p - phases[-1] > _PHASE_TOL:
            phases.append(p)
    return tuple(phases)


def _f_at_nodes(f, us, where):
    """f at t = e^u for every u: one array call for a RealFunction, then
    point by point when that fails or for any other callable, so an error
    names the first offending t and its window (where(i) for us[i])."""
    ts = np.exp(us)
    if isinstance(f, RealFunction):
        try:
            values = np.asarray(f(ts), dtype=float)
            if np.all(np.isfinite(values)):
                return values
        except EvaluationError:
            pass
    values = np.empty_like(ts)
    for i, t in enumerate(ts.tolist()):
        try:
            fv = f(t)
        except EvaluationError as exc:
            raise EvaluationError(
                f"evaluating f at t={t!r} inside {where(i)}: {exc}") from exc
        if not math.isfinite(fv):
            raise EvaluationError(
                f"non-finite value of f at t={t!r} inside {where(i)}")
        values[i] = fv
    return values


def _distinct(major, minor):
    """The distinct pairs of two arrays, sorted by major, then minor, and
    the index of every input pair among them."""
    order = np.lexsort((minor, major))
    major, minor = major[order], minor[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (major[1:] != major[:-1]) | (minor[1:] != minor[:-1])
    index = np.empty_like(order)
    index[order] = new.cumsum() - 1
    return major[new], minor[new], index


def _shared_lattice(spec, f, xs, ws):
    """Operator values at the pairs (xs[i], ws[i]) of 1-d arrays, x > 0."""
    chi, phi, cfg = spec.chi, spec.phi, spec.quadrature
    tc, kmin, kmax = _windows(chi, ws, xs, spec.truncation_radius)
    ks = kmin[:, None] + np.arange(int((kmax - kmin).max()) + 1)
    chi_rows = np.asarray(chi.eval_log((tc[:, None] - ks).ravel()),
                          dtype=float).reshape(ks.shape)
    chi_rows[ks > kmax[:, None]] = 0.0
    needed = chi_rows != 0.0

    phases = _knot_phases(phi)
    lo, hi = phi.support
    ds = np.arange(math.floor(lo - phases[0] - 1.0),
                   math.ceil(hi - phases[0]) + 1)
    win_w, win_k, window_of = _distinct(
        np.broadcast_to(ws[:, None], ks.shape)[needed], ks[needed])
    per_w, per_m, period_of = _distinct(np.tile(win_w, ds.size),
                                        (ds[:, None] + win_k).ravel())
    # runs of consecutive scales with the same subdivision share a rule;
    # both tables are sorted by w, so a rule's rows are one slice of each
    # (np.unique(ws) would import numpy.ma: 15 ms on a process's first call)
    scales = np.array(sorted(set(ws.tolist())))
    # log_rule's panels of the cells [p_i / w, p_{i+1} / w] at each scale
    ends = [*phases, phases[0] + 1.0]
    panels, points = panel_counts(np.diff(ends) / scales[:, None], cfg)
    first = np.ones(scales.size, dtype=bool)
    first[1:] = ((panels[1:] != panels[:-1]) |
                 (points[1:] != points[:-1])).any(axis=1)
    bounds = np.append(scales[first], np.inf)
    win_cut, per_cut = (np.searchsorted(w, bounds) for w in (win_w, per_w))
    parts, end = [], 0
    for rule, (m, n) in enumerate(zip(panels[first].tolist(),
                                      points[first].tolist())):
        # the period [p0, p0 + 1) in b, its cells cut into equal panels
        nodes, weights = cell_rule(ends, m, n)
        band = np.asarray(phi.eval_log((ds[:, None] + nodes).ravel()),
                          dtype=float).reshape(ds.size, nodes.size) * weights
        p0, p1 = per_cut[rule:rule + 2]
        # rows[d, i]: the period row k + d of the rule's window i
        rows = period_of.reshape(ds.size, -1)[
            :, win_cut[rule]:win_cut[rule + 1]] - p0
        # the nodes some needed window weights (a row of rows is distinct)
        live = np.zeros((p1 - p0, nodes.size), dtype=bool)
        for row, weighted in zip(rows, band != 0.0):
            live[row] |= weighted
        # a node of period m sits at b = m + b_j, that is u = (m + b_j) / w
        us = ((per_m[p0:p1, None] + nodes) / per_w[p0:p1, None])[live]
        end += us.size
        parts.append((end, p0, rows, band, live, us))

    def where(i):
        # of the needed windows that weight the node, the one whose centre
        # is nearest to it
        end, p0, _, band, live, us = parts[
            np.searchsorted([part[0] for part in parts], i, side="right")]
        i -= end - us.size
        p, j = np.argwhere(live)[i] + (p0, 0)
        w = per_w[p]
        reach = np.intersect1d(per_m[p] - ds[band[:, j] != 0.0],
                               win_k[win_w == w])
        k = reach[np.argmin(np.abs(w * us[i] - reach - 0.5 * (lo + hi)))]
        return f"the convolution window around s=e^{k / w:.6g}"

    values = _f_at_nodes(f, np.concatenate([part[-1] for part in parts]), where)
    means = []
    for end, _, rows, band, live, us in parts:
        grid = np.zeros(live.shape)
        grid[live] = values[end - us.size:end]
        # row by row rather than a matrix product, whose blocking of the
        # rows would make a row's sum depend on the rows around it
        means.append(sum((grid[row] * weights).sum(axis=1)
                         for row, weights in zip(rows, band)))
    window_means = np.zeros(ks.shape)
    window_means[needed] = np.concatenate(means)[window_of]
    # k by k from the left, so the zeros that pad a short window to the
    # longest of the call change nothing
    return functools.reduce(np.add, (chi_rows * window_means).T)


def durrmeyer_eval(spec, f, x, w=None):
    """Evaluate the convolution-sampling operator at x > 0, a float or a
    numpy array of points.

    w, when given (a float or an array), replaces spec.w and broadcasts
    against x; the result has the broadcast shape, or is a float when
    both are scalars.  Exact finite sum over the support window of chi;
    each term weights the convolution mean of f around the node e^{k/w}.
    Each distinct window (w, k) of the call is one such mean, computed
    once; all means read one evaluation of f on the nodes of the distinct
    lattice periods (w, m) they reach, and scales whose period rules have
    the same panels share one knot-aligned rule in w log t.  The value at
    (x, w) depends only on spec, f, x and w, not on the other pairs of the
    call.
    """
    xs, ws = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(spec.w if w is None else w,
                                            dtype=float))
    if not np.all(xs > 0):
        raise ValueError("x must be positive")
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    if not np.all(ws > 0):
        raise ValueError("w must be positive")
    if not np.all(np.isfinite(ws)):
        raise ValueError("w must be finite")
    _admissibility_warning(f)
    if xs.size == 0:
        return np.empty(xs.shape)
    values = _shared_lattice(spec, f, xs.ravel(), ws.ravel())
    if xs.ndim == 0:
        return float(values[0])
    return values.reshape(xs.shape)


def kantorovich_eval(chi, f, w, x, cfg=DEFAULT_CONFIG):
    """The integral-mean form: sum_k chi(e^{-k} x^w) w int_{k/w}^{(k+1)/w}
    f(e^u) du, written out directly rather than through a phi kernel.
    Must agree with durrmeyer_eval under the characteristic kernel."""
    if x <= 0:
        raise ValueError("x must be positive")
    _admissibility_warning(f)
    tc, ks = _outer_window(chi, w, x)
    weights = np.asarray(chi.eval_log(tc - ks), dtype=float)
    total = 0.0
    for k, cw in zip(ks, weights):
        if cw == 0.0:
            continue
        iv = LogInterval(k / w, (k + 1) / w)
        inner = 0.0
        for u, wt in zip(*log_rule(iv, cfg)):
            t = math.exp(u)
            try:
                fv = f(t)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"evaluating f at t={t!r} in the mean over "
                    f"[{k}/{w}, {k + 1}/{w}]: {exc}") from exc
            if not math.isfinite(fv):
                raise EvaluationError(
                    f"non-finite value of f at t={t!r} in the "
                    f"mean over [{k}/{w}, {k + 1}/{w}]")
            inner += wt * fv
        total += cw * w * inner
    return float(total)


@dataclass(frozen=True)
class SampleAccessor:
    """Sample values g(e^{k/w}) by synthesis from a function or from an
    explicit table keyed by k."""

    fn: Optional[Callable[[float], float]] = None
    table: Optional[dict] = None

    @classmethod
    def from_function(cls, f):
        return cls(fn=f)

    @classmethod
    def from_table(cls, table):
        return cls(table=dict(table))

    def sample(self, k, w):
        if self.fn is not None:
            return self.fn(math.exp(k / w))
        if self.table is not None:
            try:
                return self.table[k]
            except KeyError:
                raise SamplingError(
                    f"no sample for k={k} (node e^{{{k}/{w}}}) in the table"
                ) from None
        raise SamplingError("sample accessor has neither function nor table")


def sampling_eval(chi, samples, w, x):
    """The bare sampling series sum_k chi(e^{-k} x^w) g(e^{k/w})."""
    if x <= 0:
        raise ValueError("x must be positive")
    tc, ks = _outer_window(chi, w, x)
    weights = np.asarray(chi.eval_log(tc - ks), dtype=float)
    total = 0.0
    for k, cw in zip(ks, weights):
        if cw == 0.0:
            continue
        total += cw * samples.sample(int(k), w)
    return float(total)


# --- batch evaluation -------------------------------------------------------

def batch_eval(spec, f, points, combination=None):
    """Evaluate the operator, or the combination sum_i beta_i I_{iw} when
    one is given, at a list of (x, w) pairs.

    All points are one durrmeyer_eval (or combined_eval) call, so the
    points of one scale share one lattice and all scales one evaluation
    of f.  Returns rows (x, w, f(x), value, abs_err) in input order, with
    f(x) from a scalar call.
    """
    xs = np.array([x for x, _ in points], dtype=float)
    ws = np.array([w for _, w in points], dtype=float)
    if combination is None:
        values = durrmeyer_eval(spec, f, xs, ws)
    else:
        from .combinations import combined_eval
        values = combined_eval(combination, spec, f, xs, ws)
    rows = []
    for (x, w), value in zip(points, values.tolist()):
        fx = f(x)
        rows.append((x, w, fx, value, abs(fx - value)))
    return rows


BATCH_CSV_COLUMNS = ("x", "w", "fx", "Iwfx", "abs_err")


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """A text file to write path through: a temporary file beside it,
    renamed over path on leaving the block, so no reader sees a partial
    file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline=newline) as fh:
        yield fh
    os.replace(tmp, path)


def write_csv(path, rows):
    """Write CSV rows (header first) to path atomically."""
    with atomic_open(path, newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_json(path, doc):
    """Write a JSON document (2-space indent, final newline) to path
    atomically."""
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_batch_csv(rows, path):
    """Serialize batch rows with the documented column set, atomically,
    as the bytes csv.writer would give.  The file is formatted as one
    string and written once: a float's repr never needs CSV quoting."""
    text = ",".join(BATCH_CSV_COLUMNS) + "\r\n" + "".join(
        "%r,%r,%r,%r,%r\r\n" % tuple(row) for row in rows)
    with atomic_open(path, newline="") as fh:
        fh.write(text)

"""Sampling-type operators on the multiplicative half-line.

The central object replaces each sample value of f at the node e^{k/w}
with a convolution mean against a second kernel phi:

    (I_w f)(x) = sum_k chi(e^{-k} x^w) * w * int phi(e^{-k} t^w) f(t) dt/t

For compactly supported chi the k-sum is an exact finite sum; the inner
integral lives on log t in [(k + lo_phi)/w, (k + hi_phi)/w] and is done by
knot-aligned Gauss-Legendre panels.  durrmeyer_eval computes each distinct
window (w, k) that its points need once, from one evaluation of f on the
nodes of the lattice periods those windows reach (see the engine notes
below).  Choosing phi as the indicator of [1, e) (the char kernel) turns
the inner integral into the plain mean of f(e^u) over [k/w, (k+1)/w]:
the Kantorovich form is that operator, with no route of its own.  The
bare sampling series of raw sample values has no route either; its
scalar loop is a test oracle.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EvaluationError, InputError, OutputError
from .kernels import Kernel
from .quadrature import QuadratureConfig, cell_rule, panel_counts


@dataclass(frozen=True)
class OperatorSpec:
    """A (chi, phi) kernel pair with scale w and numerical policy.

    The engine does not read truncation_radius: every series sums over
    the window of chi's support, outside which chi is 0.  The field stays
    for callers that pass it, is validated (it may not be smaller than
    chi's support radius) and enters the run record, null from the CLI.
    """

    chi: Kernel
    phi: Kernel
    w: float
    truncation_radius: Optional[float] = None
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.w <= 0:
            raise InputError(f"w must be positive, got {self.w}")
        if self.truncation_radius is not None:
            if self.truncation_radius < self.chi.log_support_radius:
                raise InputError(
                    "truncation_radius may not be smaller than the support "
                    f"radius {self.chi.log_support_radius} of chi")


# beyond 2^52 consecutive integers are no longer exactly representable
# around w log x, so the lattice indices of a window would be wrong
_MAX_CENTRE = 2.0 ** 52


def _windows(chi, w, xs):
    """Centres w log x and the ranges kmin..kmax of integers k with
    chi(e^{-k} x^w) != 0, one per x; w is a float or an array of one
    scale per x."""
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
    return (tc, np.floor(tc - hi).astype(np.int64),
            np.ceil(tc - lo).astype(np.int64))


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
# Two tables, each a union of runs of consecutive k (_run_union), drive
# the engine: the distinct windows (w, k) that the chi rows need and the
# distinct periods (w, m = k + d) their templates reach.  f is called
# once, on the period nodes that a needed window weights, so overlapping
# windows share samples.
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


def f_values(f, xs, name=None):
    """f at every point of xs, a list or an array, as a float array: one
    array call, then, when that raises or gives a non-finite value, one
    call per point in order, so that an error names the first offending
    point.  name(i) is the text that names xs[i], by default x=<xs[i]>."""
    xs = np.asarray(xs, dtype=float)
    try:
        values = f(xs)
        if np.all(np.isfinite(values)):
            return values
    except EvaluationError:
        pass
    name = name or (lambda i: f"x={float(xs[i])!r}")
    values = np.empty_like(xs)
    for i in range(xs.size):
        try:
            values[i:i + 1] = f(xs[i:i + 1])
        except EvaluationError as exc:
            raise EvaluationError(f"evaluating f at {name(i)}: {exc}") from exc
        if not math.isfinite(values[i]):
            raise EvaluationError(f"non-finite value of f at {name(i)}")
    return values


def _f_at_nodes(f, us, where):
    """f at t = e^u for every u, by f_values, so an error names the first
    offending t and its window.  where(i) gives the scale and the window
    of us[i].  A node whose e^u is 0 or inf in double precision fails
    before f is called, naming its u, w and window."""
    with np.errstate(over="ignore"):
        ts = np.exp(us)
    outside = ~((ts > 0.0) & (ts < math.inf))
    if np.any(outside):
        i = int(np.argmax(outside))
        w, window = where(i)
        raise EvaluationError(
            f"the node t=e^u at u={us[i]:.6g} for w={w} rounds to "
            f"t={float(ts[i])!r} in double precision, inside {window}")
    return f_values(f, ts,
                    lambda i: f"t={float(ts[i])!r} inside {where(i)[1]}")


def _run_union(w, lo, hi):
    """The union of the runs lo[i]..hi[i] at scales w[i], sorted by w
    and, within a scale, by both lo and hi, so that a run meets the
    earlier runs of its scale only through the one before it: the
    union's entries (w, k), sorted by w, then k, and the entry of each
    lo[i], found without sorting the entries."""
    # the first k of each run that no earlier run of its scale reached
    first = lo.copy()
    first[1:] = np.where(w[1:] == w[:-1], np.maximum(lo[1:], hi[:-1] + 1),
                         lo[1:])
    new = hi - first + 1
    end = new.cumsum()
    k = np.repeat(first - end + new, new) + np.arange(end[-1])
    return np.repeat(w, new), k, end - (hi - lo + 1)


def _needed_windows(ws, tc, kmin, kmax, needed):
    """The distinct windows (w, k) of the entries needed[i, j],
    k = kmin[i] + j, sorted by w, then k, and the index of each such
    entry among them."""
    # by w, then w log x, neither kmin nor kmax falls within a scale
    order = np.lexsort((tc, ws))
    union_w, union_k, start = _run_union(ws[order], kmin[order], kmax[order])
    first = np.empty_like(start)
    first[order] = start
    entry = (first[:, None] + np.arange(needed.shape[1]))[needed]
    used = np.zeros(union_k.size, dtype=bool)
    used[entry] = True
    return union_w[used], union_k[used], used.cumsum()[entry] - 1


def _series(spec, f, xs, ws):
    """The series sum_k chi(e^{-k} x^w) v_k at the pairs of the checked
    arrays xs and ws of one shape: an array of that shape, or a float
    for 0-d arrays.  The v_k are the convolution means of f at the
    distinct windows (w, k) that some chi row weights (_window_means);
    a value reads its own windows only."""
    shape = xs.shape
    if xs.size == 0:
        return np.empty(shape)
    chi = spec.chi
    xs, ws = xs.ravel(), ws.ravel()
    tc, kmin, kmax = _windows(chi, ws, xs)
    ks = kmin[:, None] + np.arange(int((kmax - kmin).max()) + 1)
    chi_rows = np.asarray(chi.eval_log((tc[:, None] - ks).ravel()),
                          dtype=float).reshape(ks.shape)
    chi_rows[ks > kmax[:, None]] = 0.0
    needed = chi_rows != 0.0
    win_w, win_k, window_of = _needed_windows(ws, tc, kmin, kmax, needed)
    terms = np.zeros(ks.shape)
    terms[needed] = _window_means(spec, f, win_w, win_k)[window_of]
    # k by k from the left, so the zeros that pad a short window to the
    # longest of the call change nothing
    values = functools.reduce(np.add, (chi_rows * terms).T)
    return float(values[0]) if not shape else values.reshape(shape)


def _period(phi):
    """The ends p_0 < ... < p_C = p_0 + 1 of the cells of phi's period
    in b, p_0 .. p_{C-1} its knot phases, and the offsets d = m - k of
    the periods m that a window k reaches."""
    phases = _knot_phases(phi)
    lo, hi = phi.support
    return [*phases, phases[0] + 1.0], np.arange(
        math.floor(lo - phases[0] - 1.0), math.ceil(hi - phases[0]) + 1)


@functools.lru_cache(maxsize=64)
def _period_rule(phi, subdivision):
    """The period rule of phi for one subdivision (panels, points) of
    its cells: the nodes b_j of the period [p_0, p_0 + 1), its phi band
    phi(d + b_j) times the weight of b_j, one row per offset d, and the
    band's nonzero mask.  The quadrature settings enter only through the
    subdivision, and by the dilation invariance of the lattice e^{k/w}
    neither x nor w enters at all, so one rule serves every call with
    that key; the arrays are shared, so they are read-only."""
    ends, ds = _period(phi)
    nodes, weights = cell_rule(ends, *subdivision)
    band = np.asarray(phi.eval_log((ds[:, None] + nodes).ravel()),
                      dtype=float).reshape(ds.size, nodes.size) * weights
    weighted = band != 0.0
    for a in (nodes, band, weighted):
        a.flags.writeable = False
    return nodes, band, weighted


def _window_means(spec, f, win_w, win_k):
    """The convolution means of f at the windows (win_w[i], win_k[i]),
    sorted by w, then k.  Each distinct scale's subdivision of the
    period cells is worked out on plain floats by panel_counts, as
    log_rule does; the rule and phi band of each subdivision come from
    _period_rule, built once per (phi, subdivision) in a process."""
    phi, cfg = spec.phi, spec.quadrature
    ends, ds = _period(phi)
    lo, hi = phi.support
    # period_of[d, i]: the period row k + d of window i
    per_w, per_m, start = _run_union(win_w, win_k + ds[0], win_k + ds[-1])
    period_of = start + np.arange(ds.size)[:, None]
    # runs of consecutive scales with the same subdivision share a rule;
    # both tables are sorted by w, so a rule's rows are one slice of each
    widths = [b - a for a, b in zip(ends, ends[1:])]
    rules, firsts = [], []
    for w in win_w[np.diff(win_w, prepend=0.0) != 0.0].tolist():
        # log_rule's panels of the cells [p_i / w, p_{i+1} / w]
        try:
            counts = panel_counts([x / w for x in widths], cfg)
        except ValueError as exc:
            raise ValueError(f"at w={w!r}: {exc}") from None
        subdivision = tuple(map(tuple, counts))
        if not rules or subdivision != rules[-1]:
            rules.append(subdivision)
            firsts.append(w)
    win_cut, per_cut = (np.searchsorted(w, [*firsts, math.inf])
                        for w in (win_w, per_w))
    parts, end = [], 0
    for rule, subdivision in enumerate(rules):
        # the period [p0, p0 + 1) in b, its cells cut into equal panels
        nodes, band, weighted = _period_rule(phi, subdivision)
        p0, p1 = per_cut[rule:rule + 2]
        # rows[d, i]: the period row k + d of the rule's window i
        rows = period_of[:, win_cut[rule]:win_cut[rule + 1]] - p0
        # the nodes some needed window weights (a row of rows is distinct)
        live = np.zeros((p1 - p0, nodes.size), dtype=bool)
        for row, mask in zip(rows, weighted):
            live[row] |= mask
        # a node of period m sits at b = m + b_j, that is u = (m + b_j) / w
        us = ((per_m[p0:p1, None] + nodes) / per_w[p0:p1, None])[live]
        end += us.size
        parts.append((end, p0, rows, band, weighted, live, us))

    def where(i):
        # of the needed windows that weight the node, the one whose centre
        # is nearest to it
        end, p0, _, _, weighted, live, us = parts[
            np.searchsorted([part[0] for part in parts], i, side="right")]
        i -= end - us.size
        p, j = np.argwhere(live)[i] + (p0, 0)
        w = per_w[p]
        reach = np.intersect1d(per_m[p] - ds[weighted[:, j]],
                               win_k[win_w == w])
        k = reach[np.argmin(np.abs(w * us[i] - reach - 0.5 * (lo + hi)))]
        return float(w), f"the convolution window around s=e^{k / w:.6g}"

    values = _f_at_nodes(f, np.concatenate([part[-1] for part in parts]), where)
    means = []
    for end, _, rows, band, _, live, us in parts:
        grid = np.zeros(live.shape)
        grid[live] = values[end - us.size:end]
        # row by row rather than a matrix product, whose blocking of the
        # rows would make a row's sum depend on the rows around it
        means.append(sum((grid[row] * weights).sum(axis=1)
                         for row, weights in zip(rows, band)))
    return np.concatenate(means)


def _pairs(x, w):
    """x and w as float arrays broadcast against each other, or an
    InputError unless every x and w is positive and finite."""
    xs, ws = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(w, dtype=float))
    for name, values in (("x", xs), ("w", ws)):
        if not np.all(values > 0):
            raise InputError(f"{name} must be positive")
        if not np.all(np.isfinite(values)):
            raise InputError(f"{name} must be finite")
    return xs, ws


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
    xs, ws = _pairs(x, spec.w if w is None else w)
    return _series(spec, f, xs, ws)


# --- batch evaluation -------------------------------------------------------

def batch_eval(spec, f, points, combination=None):
    """Evaluate the combination sum_i beta_i I_{iw} at a list of (x, w)
    pairs; without one, the order-1 combination, the operator itself.

    All points are one combined_eval call, so the points of one scale
    share one lattice and all scales one evaluation of f.  Returns rows
    (x, w, f(x), value, abs_err) in input order, with f(x) from
    f_values.
    """
    # combinations imports this module, so its names are read at call time
    from .combinations import PLAIN, combined_eval
    xs = [x for x, _ in points]
    values = combined_eval(combination or PLAIN, spec, f,
                           np.array(xs, dtype=float),
                           np.array([w for _, w in points], dtype=float))
    return [(x, w, fx, value, abs(fx - value)) for (x, w), fx, value in
            zip(points, f_values(f, xs).tolist(), values.tolist())]


BATCH_CSV_COLUMNS = ("x", "w", "fx", "Iwfx", "abs_err")


def write_text(path, text):
    """Write text to path whole or not at all: through a temporary file
    beside it, renamed over path, so no reader sees a partial file.  On
    any failure the temporary file is removed; an OSError becomes an
    OutputError that names path and the reason."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(text.encode())
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: "
                              f"{exc.strerror or exc}") from None
        raise


def write_json(path, doc):
    """Write a JSON document (2-space indent, final newline) to path
    atomically."""
    write_text(path, json.dumps(doc, indent=2) + "\n")


def write_batch_csv(rows, path):
    """Serialize batch rows with the documented column set, atomically,
    as the bytes csv.writer would give: a float's repr never needs CSV
    quoting.  Each distinct scale is formatted once."""
    scales = {w: repr(w) for w in {row[1] for row in rows}}
    write_text(path, ",".join(BATCH_CSV_COLUMNS) + "\r\n" + "".join(
        "%r,%s,%r,%r,%r\r\n" % (x, scales[w], fx, value, err)
        for x, w, fx, value, err in rows))

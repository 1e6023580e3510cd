"""Sampling-type operators on the multiplicative half-line.

The central object replaces each sample value of f at the node e^{k/w}
with a convolution mean against a second kernel phi:

    (I_w f)(x) = sum_k chi(e^{-k} x^w) * w * int phi(e^{-k} t^w) f(t) dt/t

For compactly supported chi the k-sum is an exact finite sum; the inner
integral lives on log t in [(k + lo_phi)/w, (k + hi_phi)/w] and is done by
knot-aligned Gauss-Legendre panels; durrmeyer_eval shares one such rule
and one evaluation of f among all the x it is given (see the engine notes
below).  Choosing phi as the indicator of
[1, e) turns the inner integral into the plain mean of f(e^u) over
[k/w, (k+1)/w]; kantorovich_eval implements that form directly as an
independent route, and sampling_eval is the bare series driven by raw
sample values.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationError, SamplingError
from .functions import RealFunction
from .kernels import Kernel
from .quadrature import DEFAULT_CONFIG, LogInterval, QuadratureConfig, _panel_nodes


@dataclass(frozen=True)
class OperatorSpec:
    """A (chi, phi) kernel pair with scale w and numerical policy.

    truncation_radius bounds |k - w log x| in the outer sum; None means
    the exact window induced by the support of chi.  A finite radius may
    not cut into that support.
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
    bounded = getattr(f, "bounded", False)
    growth = getattr(f, "growth_bound", None)
    if not bounded and growth is None:
        name = getattr(f, "name", repr(f))
        warnings.warn(
            f"function {name!r} declares neither boundedness nor a growth "
            "bound; the operator series may not converge globally",
            stacklevel=3)


def _windows(chi, w, xs, radius=None):
    """Centres w log x and the ranges kmin..kmax of integers k with
    chi(e^{-k} x^w) != 0 (possibly narrowed by radius), one per x."""
    tc = w * np.array([math.log(x) for x in xs], dtype=float)
    lo, hi = chi.support
    kmin = np.floor(tc - hi)
    kmax = np.ceil(tc - lo)
    if radius is not None:
        kmin = np.maximum(kmin, np.ceil(tc - radius))
        kmax = np.minimum(kmax, np.floor(tc + radius))
    empty = kmin > kmax
    if np.any(empty):
        x = xs[int(np.argmax(empty))]
        raise EvaluationError(
            f"empty summation window for w={w}, x={x}: check truncation_radius")
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
    total = 0.0
    for nodes, weights in _panel_nodes(iv, cfg, knots):
        phis = np.asarray(phi.eval_log(w * (nodes - log_s)), dtype=float)
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
# For a fixed (chi, phi, w) every convolution window [(k + lo)/w, (k + hi)/w]
# is cut at the knots k + knot of phi, and all those cuts fall on the
# lattice m + p over the knot phases p = knot mod 1.  So one rule over the
# union of the windows serves every k and every x: it is one period rule
# (the cells between consecutive phases, subdivided like _panel_nodes)
# repeated at the offsets m/w.  In the scaled coordinate b = w u a node of
# period m sits at m + b_j, and phi(b - k) depends only on d = m - k, so the
# phi weights of all windows form a small (d, j) template and the inner
# integrals are a banded sum over d.

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


def _period_rule(phases, w, cfg):
    """Nodes and weights of the rule on one period [p0/w, (p0 + 1)/w) of
    the log coordinate, cut at every phase."""
    iv = LogInterval(phases[0] / w, (phases[0] + 1.0) / w)
    panels = list(_panel_nodes(iv, cfg, [p / w for p in phases[1:]]))
    return (np.concatenate([n for n, _ in panels]),
            np.concatenate([wt for _, wt in panels]))


def _clusters(kmin, kmax, reach):
    """Split the x, given by their k-ranges, into clusters of sorted x
    whose k-ranges come within reach of each other, so memory grows with
    the windows covered and not with the span of x.  Yields (indices of
    the x, lowest k, highest k)."""
    order = np.argsort(kmin, kind="stable")
    top = np.maximum.accumulate(kmax[order])
    breaks = np.flatnonzero(kmin[order][1:] > top[:-1] + reach) + 1
    for idx, last in zip(np.split(order, breaks),
                         np.append(breaks, order.size) - 1):
        yield idx, int(kmin[idx[0]]), int(top[last])


def _f_at_nodes(f, us, where):
    """f at t = e^u for every u: one array call for a RealFunction, then
    point by point when that fails or for any other callable, so an error
    names the first offending t and its window (where(u))."""
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
                f"evaluating f at t={t!r} inside {where(us[i])}: {exc}") from exc
        if not math.isfinite(fv):
            raise EvaluationError(
                f"non-finite value of f at t={t!r} inside {where(us[i])}")
        values[i] = fv
    return values


def _shared_lattice(spec, f, xs):
    """Operator values at the 1-d array xs (all > 0) on one shared rule."""
    chi, phi, w = spec.chi, spec.phi, spec.w
    tc, kmin, kmax = _windows(chi, w, xs, spec.truncation_radius)
    ks = kmin[:, None] + np.arange(int((kmax - kmin).max()) + 1)
    chi_rows = np.asarray(chi.eval_log((tc[:, None] - ks).ravel()),
                          dtype=float).reshape(ks.shape)
    chi_rows[ks > kmax[:, None]] = 0.0

    phases = _knot_phases(phi)
    nodes, weights = _period_rule(phases, w, spec.quadrature)
    offsets = w * nodes
    lo, hi = phi.support
    ds = np.arange(math.floor(lo - phases[0] - 1.0),
                   math.ceil(hi - phases[0]) + 1)
    phi_rows = np.asarray(phi.eval_log((ds[:, None] + offsets).ravel()),
                          dtype=float).reshape(ds.size, offsets.size)
    band = phi_rows * weights
    nd = ds.size

    # clusters more than nd apart share no period of the node grid
    clusters = []
    for idx, k0, k1 in _clusters(kmin, kmax, nd):
        nk = k1 - k0 + 1
        needed = np.zeros(nk, dtype=bool)
        needed[ks[idx][chi_rows[idx] != 0.0] - k0] = True
        # period m = k0 + ds[0] + r for row r of the node grid
        mask = np.zeros((nk + nd - 1, nodes.size), dtype=bool)
        for r in range(nd):
            mask[r:r + nk] |= needed[:, None] & (phi_rows[r] != 0.0)
        periods = k0 + ds[0] + np.arange(nk + nd - 1)
        us = (periods[:, None] / w + nodes)[mask]
        clusters.append((idx, k0, nk, needed, mask, us))

    def where(u):
        # the needed window whose centre is nearest to u contains it
        needed_ks = np.concatenate([k0 + np.flatnonzero(needed)
                                    for _, k0, _, needed, _, _ in clusters])
        k = needed_ks[np.argmin(np.abs(w * u - needed_ks - 0.5 * (lo + hi)))]
        return f"the convolution window around s=e^{k / w:.6g}"

    values = _f_at_nodes(f, np.concatenate([c[-1] for c in clusters]), where)
    out = np.empty(xs.size)
    start = 0
    for idx, k0, nk, needed, mask, us in clusters:
        grid = np.zeros(mask.shape)
        grid[mask] = values[start:start + us.size]
        start += us.size
        inner = sum(grid[r:r + nk] @ band[r] for r in range(nd)) * w
        cols = np.clip(ks[idx] - k0, 0, nk - 1)
        out[idx] = np.sum(chi_rows[idx] * inner[cols], axis=1)
    return out


def durrmeyer_eval(spec, f, x):
    """Evaluate the convolution-sampling operator at x > 0, a float or a
    numpy array of points (the result has the same shape).

    Exact finite sum over the support window of chi; each term weights the
    convolution mean of f around the node e^{k/w}.  All points share one
    knot-aligned rule and one evaluation of f on its nodes.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0):
        raise ValueError("x must be positive")
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    _admissibility_warning(f)
    if xs.size == 0:
        return np.empty(xs.shape)
    values = _shared_lattice(spec, f, xs.ravel())
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
        for nodes, wts in _panel_nodes(iv, cfg):
            for u, wt in zip(nodes, wts):
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

def batch_eval(spec, f, points, evaluator=None):
    """Evaluate the operator on a grid of (x, w) pairs.

    Points are grouped by w and each group is one evaluator call on the
    array of its x, so the points of one scale share one lattice.  The
    evaluator maps (array of x, w) to the array of values and defaults to
    durrmeyer_eval.  Returns rows (x, w, f(x), value, abs_err) in input
    order, with f(x) from a scalar call.
    """
    if evaluator is None:
        def evaluator(xs, w):
            return durrmeyer_eval(spec.with_w(w), f, xs)

    groups = {}
    for i, (_, w) in enumerate(points):
        groups.setdefault(w, []).append(i)
    values = [None] * len(points)
    for w, idx in groups.items():
        xs = np.array([points[i][0] for i in idx], dtype=float)
        for i, value in zip(idx, np.asarray(evaluator(xs, w)).tolist()):
            values[i] = value
    rows = []
    for (x, w), value in zip(points, values):
        fx = f(x)
        rows.append((x, w, fx, value, abs(fx - value)))
    return rows


BATCH_CSV_COLUMNS = ("x", "w", "fx", "Iwfx", "abs_err")


def write_batch_csv(rows, path):
    """Serialize batch rows with the documented column set, atomically."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BATCH_CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(v) for v in row])
    os.replace(tmp, path)

"""Log-domain numerical foundations.

Every integral on the multiplicative half-line carries the measure dt/t.
Substituting u = log t turns it into an ordinary Lebesgue integral, which
is what the routines here compute: composite Gauss-Legendre rules over a
finite interval of the log coordinate.  Derivatives are likewise taken in
the log coordinate, where x f'(x) becomes d/du f(e^u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError


@dataclass(frozen=True)
class LogInterval:
    """A finite interval [lo, hi] in the log coordinate."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self):
        return self.hi - self.lo


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings.

    nodes_per_unit:  Gauss-Legendre points per unit of log-length.
    panel_max_width: maximum width of a single panel, in log units.
    """

    nodes_per_unit: int = 20
    panel_max_width: float = 0.5

    def __post_init__(self):
        if self.nodes_per_unit < 2:
            raise ValueError("nodes_per_unit must be >= 2")
        if self.panel_max_width <= 0:
            raise ValueError("panel_max_width must be positive")


@dataclass(frozen=True)
class MellinPoint:
    """A point s = c + it on a vertical line of the Mellin plane."""

    c: float = 0.0
    t: float = 0.0


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def log_rule(iv, cfg=DEFAULT_CONFIG, breakpoints=()):
    """Composite Gauss-Legendre rule on iv as flat (nodes, weights)
    arrays: panels cut at the breakpoints, then subdivided to respect
    panel_max_width.

    Each panel gets at least max(6, 0.7 * nodes_per_unit) points so that
    short panels stay honest: the floor scales with the configured density,
    which keeps a 10x-density configuration a genuinely finer rule even
    when the window is much narrower than a unit, and gives the default
    density ~1e-10 accuracy on integrands oscillating up to ~10 radians
    per panel.
    """
    cuts = [iv.lo]
    for b in sorted(set(breakpoints)):
        if iv.lo < b < iv.hi:
            cuts.append(b)
    cuts.append(iv.hi)
    floor = max(6, math.ceil(0.7 * cfg.nodes_per_unit))
    nodes, weights = [np.empty(0)], [np.empty(0)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        npanels = max(1, math.ceil((b - a) / cfg.panel_max_width))
        step = (b - a) / npanels
        for i in range(npanels):
            lo = a + i * step
            hi = a + (i + 1) * step
            n = max(floor, math.ceil(cfg.nodes_per_unit * (hi - lo)))
            x, w = _leggauss(n)
            half = 0.5 * (hi - lo)
            nodes.append(0.5 * (lo + hi) + half * x)
            weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def integrate_log(g, iv, cfg=DEFAULT_CONFIG, breakpoints=()):
    """Integrate g over the log interval iv by composite Gauss-Legendre.

    g is a real-valued function of the log coordinate; the result
    approximates the Haar integral of g(log t) dt/t over [e^lo, e^hi].
    Deterministic for a fixed configuration.  Optional breakpoints force
    panel boundaries (used to align panels with kernel knots, which makes
    the rule exact for piecewise polynomials).
    """
    total = 0.0
    for u, wt in zip(*log_rule(iv, cfg, breakpoints)):
        val = g(u)
        if not math.isfinite(val):
            raise EvaluationError(f"non-finite integrand value {val!r} at u={u!r}")
        total += wt * val
    return float(total)


# Central finite-difference stencils of accuracy order 2.
# offsets are in units of the step h; dividing by h**r gives the derivative.
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    5: ((-3, -2, -1, 1, 2, 3), (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5)),
    6: ((-3, -2, -1, 0, 1, 2, 3), (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0)),
}

# Truncation error shrinks with h while roundoff grows like eps/h^r, so the
# sweet spot moves right as the order goes up.
_DEFAULT_STEPS = {1: 1e-3, 2: 1e-3, 3: 1e-2, 4: 1e-2, 5: 3e-2, 6: 3e-2}


def default_step(r):
    """Default finite-difference step (in log units) for derivative order r."""
    return _DEFAULT_STEPS[r]


def mellin_derivative(f, x, r=1, h=None):
    """r-th derivative of u -> f(e^u) at u = log x, by central differences.

    For a function on the positive reals this equals the r-fold application
    of the operator g -> x g'(x), i.e. the derivative taken in the log
    coordinate.  Accuracy order 2 in h.
    """
    if r < 1 or r > 6:
        raise ValueError(f"derivative order r={r} outside supported range 1..6")
    if h is None:
        h = default_step(r)
    if h <= 0:
        raise ValueError("step h must be positive")
    if x <= 0:
        raise ValueError("x must be positive")
    u0 = math.log(x)
    offsets, coeffs = _STENCILS[r]
    acc = 0.0
    for k, c in zip(offsets, coeffs):
        acc += c * f(math.exp(u0 + k * h))
    return acc / h**r


def mellin_transform(f, point, cfg=DEFAULT_CONFIG, support=None, order=0):
    """Numerical Mellin transform of f at s = c + it.

    Computes the integral of f(u) u^s du/u, i.e. of f(e^u) e^{su} du over
    the declared log-support, outside of which f must vanish.  Kernel
    objects carry their own support and knots; for anything else the caller
    must pass a finite LogInterval.  order = r > 0 gives the r-th
    derivative in s, differentiated under the integral sign: the integral
    of f(e^u) u^r e^{su} du on the same panels.
    """
    knots = ()
    if support is None:
        sup = getattr(f, "support", None)
        if sup is None:
            raise ValueError("a finite log-support interval is required")
        support = LogInterval(sup[0], sup[1])
        knots = tuple(getattr(f, "knots", ()))
    if not (math.isfinite(support.lo) and math.isfinite(support.hi)):
        raise ValueError("unbounded support is rejected; supply a finite interval")
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")

    eval_log = getattr(f, "eval_log", None)

    nodes, weights = log_rule(support, cfg, knots)
    if eval_log is not None:
        vals = np.asarray(eval_log(nodes), dtype=float)
    else:
        vals = np.array([f(math.exp(u)) for u in nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise EvaluationError(f"non-finite transform integrand at u={bad!r}")
    s = complex(point.c, point.t)
    return np.sum(weights * vals * nodes**order * np.exp(s * nodes))

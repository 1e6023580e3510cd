"""Log-domain numerical foundations.

Every integral on the multiplicative half-line carries the measure dt/t.
Substituting u = log t turns it into an ordinary Lebesgue integral, which
is what the routines here compute: composite Gauss-Legendre rules over a
finite interval of the log coordinate, set by a QuadratureConfig, and on
the default rule (DEFAULT_CONFIG) the Mellin transform of a kernel,
which the Poisson moment route reads.  Only the operator engine takes
other settings, from the quadrature flags of the operator commands.  The
finite-difference derivative in the log coordinate, where x f'(x)
becomes d/du f(e^u), and the pointwise convolution mean serve only as
test oracles; they live in tests/oracles.py.

The Gauss-Legendre rules themselves are built here (_leggauss), bit for
bit as numpy.polynomial builds them, because importing numpy.polynomial
would cost the first command of every process about 4 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, InputError


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


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings.

    nodes_per_unit:  Gauss-Legendre points per unit of log-length.
    panel_max_width: maximum width of a single panel, in log units.
    """

    nodes_per_unit: int = 20
    panel_max_width: float = 0.5

    def __post_init__(self):
        if not self.nodes_per_unit >= 2:
            raise InputError("nodes_per_unit must be >= 2")
        if not self.panel_max_width > 0:
            raise InputError("panel_max_width must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def _legval(x, c):
    """Clenshaw sum of the Legendre series c (low degree first) at x."""
    if len(c) == 1:
        return c[0] + 0 * x
    nd, c0, c1 = len(c), c[-2], c[-1]
    for i in range(3, len(c) + 1):
        tmp = c0
        nd = nd - 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@lru_cache(maxsize=64)
def _leggauss(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Golub & Welsch ("Calculation of Gauss quadrature rules", Math. Comp.
    23, 1969): the nodes are the eigenvalues of the symmetric Jacobi
    matrix of P_n, polished by one Newton step, and the weights follow
    from P_n' and P_{n-1} at the nodes.  The steps and their operation
    order are those of numpy's `numpy.polynomial.legendre.leggauss`
    (numpy 2.4, BSD-3-Clause), so the rule is the same to the bit;
    building it here keeps numpy.polynomial out of the process.
    """
    k = np.arange(n)
    scl = 1. / np.sqrt(2 * k + 1)
    off = k[1:] * scl[:n - 1] * scl[1:n]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # P_n = e_n; its derivative series has 2k + 1 at k = n-1, n-3, ...
    c = [0.0] * n + [1.0]
    der = np.where((n - 1 - k) % 2 == 0, 2. * k + 1, 0.).tolist()
    dy = _legval(x, c)
    df = _legval(x, der)
    x -= dy / df
    # weights 1 / (P_{n-1} P_n') at the nodes, each factor scaled by its
    # largest magnitude against overflow; P_n' is taken before the Newton
    # step, as numpy does
    fm = _legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


# The most nodes a rule may hold, and the most doubles in the n x n matrix
# that _leggauss builds for n points a panel: 8 MiB for each such array,
# as for a rule's nodes, its weights and each row of the engine's phi band.
MAX_RULE_DOUBLES = 2 ** 20


def panel_counts(widths, cfg):
    """Panels per cell and points per panel of log_rule on cells of the
    given widths, two lists of ints: cells are cut into equal panels no
    wider than panel_max_width, and a panel gets nodes_per_unit points
    per unit of its width, but at least max(6, 0.7 * nodes_per_unit).
    Plain floats: the lists are short, and numpy's fixed cost per call
    would outweigh their arithmetic.  A rule of more than
    MAX_RULE_DOUBLES nodes, or of more than its square root points in a
    panel, is an InputError naming both settings, before anything is
    built."""
    least = max(6, math.ceil(0.7 * cfg.nodes_per_unit))
    # each count is capped at the budget before math.ceil, so that one
    # past it (inf included) is refused below instead of overflowing
    cap = MAX_RULE_DOUBLES
    panels = [max(1, math.ceil(min(w / cfg.panel_max_width, cap)))
              for w in widths]
    points = [max(least, math.ceil(min(cfg.nodes_per_unit * w / m, cap)))
              for w, m in zip(widths, panels)]
    if (sum(m * n for m, n in zip(panels, points)) > cap
            or max(points, default=0) ** 2 > cap):
        raise InputError(
            f"nodes_per_unit={cfg.nodes_per_unit} and panel_max_width="
            f"{cfg.panel_max_width!r} ask for a quadrature rule beyond "
            f"{cap} nodes or {math.isqrt(cap)} points per panel on cells "
            f"up to {max(widths):.6g} wide")
    return panels, points


def cell_rule(cuts, panels, points):
    """Flat (nodes, weights) of Gauss-Legendre panels: the cell between
    cuts[i] and cuts[i + 1] cut into panels[i] equal panels of points[i]
    points each."""
    nodes, weights = [np.empty(0)], [np.empty(0)]
    for a, b, m, n in zip(cuts[:-1], cuts[1:], panels, points):
        x, w = _leggauss(n)
        step = (b - a) / m
        for i in range(m):
            lo, hi = a + i * step, a + (i + 1) * step
            half = 0.5 * (hi - lo)
            nodes.append(0.5 * (lo + hi) + half * x)
            weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def log_rule(iv, cfg=DEFAULT_CONFIG, breakpoints=()):
    """Composite Gauss-Legendre rule on iv as flat (nodes, weights)
    arrays: panels cut at the breakpoints, then subdivided to respect
    panel_max_width (see panel_counts).

    Each panel gets at least max(6, 0.7 * nodes_per_unit) points so that
    short panels stay honest: the floor scales with the configured density,
    which keeps a 10x-density configuration a genuinely finer rule even
    when the window is much narrower than a unit, and gives the default
    density ~1e-10 accuracy on integrands oscillating up to ~10 radians
    per panel.
    """
    cuts = sorted({iv.lo, iv.hi,
                   *(b for b in breakpoints if iv.lo < b < iv.hi)})
    return cell_rule(cuts, *panel_counts(
        [b - a for a, b in zip(cuts, cuts[1:])], cfg))


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


def mellin_transform(kernel, points, order=0):
    """Numerical Mellin transform of a Kernel at each complex s of points,
    a list with one value per point.

    Computes the integral of K(u) u^s du/u, i.e. of K(e^u) e^{su} du, on
    one rule of DEFAULT_CONFIG per interval of kernel.intervals, its
    panels cut at kernel.knots, where the polynomial pieces meet, with the
    values from kernel.eval_log.  order = r > 0 gives the r-th derivative
    in s, differentiated under the integral sign: the integral of
    K(e^u) u^r e^{su} du on the same panels.  Every point shares one rule
    and one evaluation of the kernel, and each value is summed on its
    own, so it does not depend on the other points.
    """
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")
    rules = [log_rule(LogInterval(*iv), breakpoints=kernel.knots)
             for iv in kernel.intervals]
    nodes, weights = (np.concatenate(part) for part in zip(*rules))
    vals = np.asarray(kernel.eval_log(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise EvaluationError(f"non-finite transform integrand at u={bad!r}")
    base = weights * vals * nodes**order
    return [np.sum(base * np.exp(s * nodes)) for s in points]

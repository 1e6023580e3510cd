"""Kernel families for exponential sampling and their moment machinery.

All kernels here are compactly supported once viewed in the log
coordinate v = log x:

  * b-spline kernels: the central polynomial B-spline of order n composed
    with log, supported on |v| < n/2, nonnegative, with transform
    (sin(t/2) / (t/2))^n on the imaginary axis;
  * translate combinations: c1 B(a x) + c2 B(b x) with the coefficients
    chosen so the zeroth discrete moment is 1 and the first vanishes;
  * the characteristic kernel: the indicator of [1, e), whose integral
    means turn the sampling series into its Kantorovich form.

Two moment families drive all asymptotic constants.  For a kernel in the
discrete role (weights at integer log-shifts):

    m_nu(chi, u)  = sum_k chi(e^{-k} u) (k - log u)^nu
    M_nu(chi)     = sup_u sum_k |chi(e^{-k} u)| |k - log u|^nu

and for a kernel in the continuous role (a density for dt/t):

    mhat_nu(phi)  = int phi(u) log^nu u du/u
    Mhat_nu(phi)  = int |phi(u)| |log u|^nu du/u

The discrete sums are 1-periodic in log u; they are constant in u exactly
when the corresponding transform derivatives vanish at the points 2 k pi i
for k != 0, which holds for the order-n B-spline up to order n-1 but not
in general (translate combinations of low-order splines oscillate with u
from order 2 on).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import KernelError
from .quadrature import (
    DEFAULT_CONFIG,
    LogInterval,
    MellinPoint,
    log_rule,
    mellin_transform,
)


class Kernel:
    """A named kernel with vectorized log-domain evaluation.

    support is the open log-domain interval outside of which the kernel is
    exactly zero; knots are the breakpoints of its piecewise-polynomial
    representation (integration panels aligned with them make quadrature
    exact on each piece).
    """

    def __init__(self, name, descriptor, eval_log, support, knots):
        self.name = name
        self.descriptor = descriptor
        self._eval_log = eval_log
        self.support = (float(support[0]), float(support[1]))
        self.knots = tuple(sorted(set(float(k) for k in knots)))

    def __repr__(self):
        return f"Kernel({self.descriptor})"

    def __eq__(self, other):
        return isinstance(other, Kernel) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    @property
    def log_support_radius(self):
        lo, hi = self.support
        return max(abs(lo), abs(hi))

    def eval_log(self, v):
        """Evaluate at log-coordinate v (scalar or numpy array)."""
        v = np.asarray(v, dtype=float)
        out = self._eval_log(np.atleast_1d(v))
        return float(out[0]) if v.ndim == 0 else out

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("kernels are defined on positive reals")
        return self.eval_log(np.log(x))


@functools.cache
def _bspline_pieces(n):
    """Coefficients of the central B-spline of order n on its pieces, a
    (n, n + 2) table: column i + 1 holds, highest power first, the
    coefficients of the polynomial in t = s - i that equals B(s - n/2) on
    s in [i, i + 1), for i = 0 .. n - 1; columns 0 and n + 1 are zero.
    Each entry is an exact integer numerator over (n - 1)!, divided once.
    The table is shared by every caller, so it is read-only."""
    table = np.zeros((n, n + 2))
    scale = math.factorial(n - 1)
    for i in range(n):
        for m in range(n):
            # t^m coefficient of sum_{j <= i} (-1)^j C(n, j) (t + i - j)^(n-1)
            num = math.comb(n - 1, m) * sum(
                (-1) ** j * math.comb(n, j) * (i - j) ** (n - 1 - m)
                for j in range(i + 1))
            table[n - 1 - m, i + 1] = num / scale
    table.flags.writeable = False
    return table


def _central_bspline_log(n):
    """Evaluator (over 1-d arrays) for the central B-spline of order n in
    the log coordinate, by Horner's rule on the piece that holds each
    point: with s = v + n/2, piece floor(s) at t = s - floor(s).  Points
    outside [-n/2, n/2), +-inf and nan included, are clipped onto a zero
    column, so they give exactly 0.0."""
    table = _bspline_pieces(n)
    half = n / 2.0

    def evaln(v):
        s = np.fmin(np.fmax(v + half, -1.0), n)
        i = np.floor(s)
        t = s - i
        col = i.astype(np.intp) + 1
        out = table[0].take(col)
        for row in table[1:]:
            out = out * t + row.take(col)
        return out

    return evaln


def mellin_bspline(n):
    """B-spline kernel of order n >= 1 in the log coordinate."""
    if n < 1:
        raise KernelError(f"b-spline order must be >= 1, got {n}")
    half = n / 2.0
    knots = [j - half for j in range(n + 1)]
    return Kernel(
        name=f"bspline{n}",
        descriptor=f"bspline:{n}",
        eval_log=_central_bspline_log(n),
        support=(-half, half),
        knots=knots,
    )


def bspline_eval(n, x):
    """Value of the order-n b-spline kernel at x > 0."""
    return mellin_bspline(n)(x)


def characteristic():
    """Indicator of [1, e): the kernel whose convolution means are plain
    integral averages over [k/w, (k+1)/w] in the log coordinate."""
    def eval_log(v):
        return np.where((v >= 0.0) & (v < 1.0), 1.0, 0.0)

    return Kernel(
        name="char",
        descriptor="char",
        eval_log=eval_log,
        support=(0.0, 1.0),
        knots=(0.0, 1.0),
    )


def _log_literal(value):
    """Canonical descriptor text for a translate: e^<k> when the log is
    integral, else the plain float."""
    if value == int(value):
        return f"e^{int(value)}"
    return repr(value)


def make_translate_combination(n, log_a, log_b):
    """Kernel psi(x) = c1 B_n(a x) + c2 B_n(b x) with

        c1 = log b / (log b - log a),   c2 = -log a / (log b - log a)

    so that c1 + c2 = 1 and c1 log a + c2 log b = 0; the construction
    forces the zeroth discrete moment to 1 and the first to 0.  The
    translates are given as log a, log b so that e^k shifts stay exact.
    """
    if log_a == log_b:
        raise KernelError("singular system: log a = log b")
    c1 = log_b / (log_b - log_a)
    c2 = -log_a / (log_b - log_a)
    base = _central_bspline_log(n)
    half = n / 2.0

    def eval_log(v):
        return c1 * base(v + log_a) + c2 * base(v + log_b)

    lo = min(-half - log_a, -half - log_b)
    hi = max(half - log_a, half - log_b)
    knots = [j - half - log_a for j in range(n + 1)]
    knots += [j - half - log_b for j in range(n + 1)]
    kern = Kernel(
        name=f"translates{n}",
        descriptor=f"translates:{n}:a={_log_literal(log_a)},b={_log_literal(log_b)}",
        eval_log=eval_log,
        support=(lo, hi),
        knots=knots,
    )
    kern.coefficients = (c1, c2)
    return kern


_E_POW = re.compile(r"^e\^(-?\d+(\.\d+)?)$")


def _parse_translate_value(text, field):
    m = _E_POW.match(text)
    if m:
        return float(m.group(1))
    try:
        v = float(text)
    except ValueError:
        raise KernelError(f"bad value {text!r} for field {field!r}; "
                          "expected a real or e^<k>") from None
    if v <= 0:
        raise KernelError(f"field {field!r} must be positive, got {text!r}")
    return math.log(v)


def parse_kernel(descriptor):
    """Parse a CLI kernel descriptor.

    Forms: 'bspline:<n>', 'char',
    'translates:<n>:a=<real|e^<k>>,b=<real|e^<k>>'.
    """
    if descriptor == "char":
        return characteristic()
    if descriptor.startswith("bspline:"):
        text = descriptor.split(":", 1)[1]
        try:
            n = int(text)
        except ValueError:
            raise KernelError(f"bad b-spline order {text!r} in {descriptor!r}") from None
        return mellin_bspline(n)
    if descriptor.startswith("translates:"):
        parts = descriptor.split(":", 2)
        if len(parts) != 3:
            raise KernelError(f"malformed translates descriptor {descriptor!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise KernelError(f"bad order {parts[1]!r} in {descriptor!r}") from None
        fields = {}
        for item in parts[2].split(","):
            if "=" not in item:
                raise KernelError(f"expected a=... or b=..., got {item!r}")
            key, val = item.split("=", 1)
            fields[key.strip()] = val.strip()
        missing = {"a", "b"} - set(fields)
        if missing:
            raise KernelError(f"missing field {sorted(missing)[0]!r} in {descriptor!r}")
        log_a = _parse_translate_value(fields["a"], "a")
        log_b = _parse_translate_value(fields["b"], "b")
        return make_translate_combination(n, log_a, log_b)
    raise KernelError(f"unknown kernel descriptor {descriptor!r}")


# --- moments ---------------------------------------------------------------

def _k_window(kernel, tau):
    """Integers k with chi(e^{-k} u) possibly nonzero, log u = tau."""
    lo, hi = kernel.support
    # tau - k in (lo, hi)  =>  k in (tau - hi, tau - lo); pad one to be
    # safe against half-open edges.
    kmin = math.floor(tau - hi) - 1
    kmax = math.ceil(tau - lo) + 1
    return np.arange(kmin, kmax + 1)


def discrete_moment(chi, nu, u=1.0):
    """Algebraic moment of order nu of a discrete-role kernel at u: the
    exact finite sum over the integers inside the kernel support, entry
    nu of phase_moments at log u."""
    if not 0 < u < math.inf:
        raise ValueError(f"u must be positive and finite, got {u}")
    return float(phase_moments(chi, nu, math.log(u))[0, nu])


def _order(nu):
    """nu, checked to be a moment order (>= 0)."""
    if nu < 0:
        raise ValueError(f"moment order must be >= 0, got {nu}")
    return nu


# Phases per block of a phase-grid evaluation.  Each (phase, k) pair of a
# block is one kernel point, gathered from the piece table: at 512 phases
# the gathers and the Horner temporaries stay in cache, a whole 2048-phase
# grid falls out of it, and smaller blocks pay more per-block overhead.  A
# warm kernels-workload pass (perfbench, seed 1, 2-vCPU shared host, median
# of 15) took 22.4, 19.5, 19.2, 22.5 and 25.0 ms at 128, 256, 512, 1024 and
# 2048 phases.
_PHASE_BLOCK = 512


def _phase_sums(kernel, taus, summand, ks=None):
    """Sums over k of summand(kernel(tau - k), k - tau), (phases, k)
    matrices in and axis 1 summed, for every phase tau in [0, 1), one
    kernel evaluation per block of phases.  ks defaults to every k that
    reaches a phase."""
    if ks is None:
        ks = _k_window(kernel, 0.5)
        ks = np.arange(ks[0] - 1, ks[-1] + 2)
    out = []
    for start in range(0, max(taus.size, 1), _PHASE_BLOCK):
        d = ks - taus[start:start + _PHASE_BLOCK, None]
        vals = kernel.eval_log(-d.ravel()).reshape(d.shape)
        out.append(np.sum(summand(vals, d), axis=1))
    return np.concatenate(out)


def phase_moments(chi, j, log_u, absolute=False):
    """Discrete moments m_0 .. m_j of chi at u = e^{log_u}, one row per
    entry of log_u (shape (len(log_u), j + 1)); absolute=True gives the
    sums of |chi(e^{-k} u)| |k - log u|^nu instead.

    The sums are 1-periodic in log u, so only the phase frac(log u)
    matters; taking the log keeps u = x^w usable where x^w overflows.
    """
    taus = np.mod(np.atleast_1d(np.asarray(log_u, dtype=float)), 1.0)
    powers = np.arange(_order(j) + 1)

    def summand(vals, d):
        if absolute:
            vals, d = np.abs(vals), np.abs(d)
        return vals[:, :, None] * d[:, :, None] ** powers
    return _phase_sums(chi, taus, summand)


# Closed-form continuous moments.  The order-n spline is the n-fold
# convolution of the unit uniform density, so its even moments follow from
# cumulants: var = n/12 and the fourth cumulant is -n/120.
_BSPLINE_CONTINUOUS = {
    0: lambda n: 1.0,
    1: lambda n: 0.0,
    2: lambda n: n / 12.0,
    3: lambda n: 0.0,
    4: lambda n: n * n / 48.0 - n / 120.0,
}


def _quad_moment(phi, nu, cfg, absolute=False):
    extra = (0.0,) if absolute else ()
    nodes, weights = log_rule(LogInterval(*phi.support), cfg, phi.knots + extra)
    vals = phi.eval_log(nodes)
    if absolute:
        vals, nodes = np.abs(vals), np.abs(nodes)
    return float(np.sum(weights * vals * nodes ** nu))


def continuous_moment(phi, nu, cfg=DEFAULT_CONFIG):
    """Algebraic moment of order nu of a continuous-role kernel:
    the integral of phi(u) log^nu u du/u over the support.

    Uses the closed form for b-spline and characteristic kernels when one
    is known, cross-checked against knot-aligned quadrature.
    """
    quad = _quad_moment(phi, _order(nu), cfg)
    closed = None
    if phi.descriptor.startswith("bspline:") and nu in _BSPLINE_CONTINUOUS:
        n = int(phi.descriptor.split(":")[1])
        closed = _BSPLINE_CONTINUOUS[nu](n)
    elif phi.descriptor == "char":
        closed = 1.0 / (nu + 1.0)
    if closed is not None:
        if abs(quad - closed) > 1e-9 * (1.0 + abs(closed)):
            raise ArithmeticError(
                f"closed-form moment {closed} disagrees with quadrature {quad} "
                f"for {phi.descriptor} order {nu}")
        return closed
    return quad


_SUP_GRID = 2048


def absolute_moment(kernel, nu, side, cfg=DEFAULT_CONFIG):
    """Absolute moment of order nu.

    side='discrete': sup over u of sum_k |chi(e^{-k} u)| |k - log u|^nu,
    approximated by the maximum over a fine grid of one period of log u
    (the summand is 1-periodic and piecewise polynomial, so a grid maximum
    is adequate).  side='continuous': quadrature of |phi| |log|^nu, with
    extra panel splits at sign changes so each piece stays smooth.
    """
    _order(nu)
    if side == "discrete":
        taus = np.linspace(0.0, 1.0, _SUP_GRID, endpoint=False)
        sums = _phase_sums(kernel, taus,
                           lambda vals, d: np.abs(vals) * np.abs(d) ** nu)
        return float(sums.max())
    if side == "continuous":
        kern = _with_sign_change_knots(kernel)
        return _quad_moment(kern, nu, cfg, absolute=True)
    raise ValueError("side must be 'discrete' or 'continuous'")


def _with_sign_change_knots(kernel):
    """Return the kernel with knots augmented by its sign-change points:
    every bracket of a 4096-point probe where the sign flips is bisected
    80 times, all brackets in one kernel evaluation per step."""
    lo, hi = kernel.support
    probe = np.linspace(lo, hi, 4096)
    vals = kernel.eval_log(probe)
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    if i.size == 0:
        return kernel
    a, x0, x1 = vals[i], probe[i], probe[i + 1]
    for _ in range(80):
        mid = 0.5 * (x0 + x1)
        left = a * kernel.eval_log(mid) <= 0
        x0, x1 = np.where(left, x0, mid), np.where(left, mid, x1)
    roots = tuple((0.5 * (x0 + x1)).tolist())
    return Kernel(kernel.name, kernel.descriptor, kernel._eval_log,
                  kernel.support, kernel.knots + roots)


def poisson_moment(chi, j, K=3, cfg=DEFAULT_CONFIG):
    """Discrete moment of order j through the transform route.

    The Poisson summation identity turns the lattice sum into transform
    derivatives at the points 2 k pi i:

        m_j(chi, u) = i^j sum_k  d^j/dt^j T(t) |_{t = 2 k pi}  u^{-2 k pi i}

    with T(t) the transform along the imaginary axis, so the k-th term is
    the k-th Fourier coefficient of m_j(chi, e^s) over one period
    s in [0, 1).  This routine evaluates the right-hand side at u = 1 for
    |k| <= K: the sum of those 2K + 1 coefficients.  Each derivative is
    taken under the integral sign, i^j T^(j)(2 k pi) being the integral
    of chi(v) (-v)^j e^{2 k pi i v} on the knot-aligned panels of
    mellin_transform, so the route is exact up to quadrature for every
    kernel, asymmetric ones included.  For b-spline kernels of order n
    every k != 0 term vanishes through order n-1, so the result is then
    the lattice moment at every u; in general it is the partial Fourier
    sum at u = 1, which tends to m_j(chi, 1) as K grows wherever the
    lattice moment is continuous in log u.
    """
    if j > 4:
        raise ValueError("poisson route supports orders j <= 4")
    total = sum(mellin_transform(chi, MellinPoint(0.0, 2.0 * math.pi * k), cfg,
                                 order=j)
                for k in range(-K, K + 1))
    # i^j T^(j)(t) = i^j i^j M^(j)(it) with M the transform in s
    return float(((-1) ** j * total).real)


# --- assumption checking ---------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    residual: float

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status} (residual {self.residual:.3e})"


@dataclass(frozen=True)
class AssumptionReport:
    partition_of_unity: ConditionResult
    unit_integral: ConditionResult
    moments_finite: ConditionResult
    tail_vanishing: ConditionResult

    @property
    def all_passed(self):
        return all(c.passed for c in self.conditions())

    def conditions(self):
        return (self.partition_of_unity, self.unit_integral,
                self.moments_finite, self.tail_vanishing)


def verify_kernel(chi, phi, r=1, tol=1e-8, cfg=DEFAULT_CONFIG):
    """Check the two kernel assumptions for a (chi, phi) pair.

    First condition: the integer translates of chi sum to 1 at every point
    (checked on 1000 grid points of one log-period) and phi integrates to
    1 against du/u.  Second condition: the absolute moments of order r are
    finite and the tail of the chi sum beyond the support radius vanishes.
    Failures are reported with measured residuals, never raised.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    sums = _phase_sums(chi, np.linspace(0.0, 1.0, 1000, endpoint=False),
                       lambda vals, d: vals)
    worst = float(np.max(np.abs(sums - 1.0)))
    partition = ConditionResult("partition of unity", worst <= tol, worst)

    integral = continuous_moment(phi, 0, cfg)
    resid = abs(integral - 1.0)
    unit = ConditionResult("unit integral", resid <= tol, resid)

    m_r = absolute_moment(chi, r, "discrete", cfg)
    mhat_r = absolute_moment(phi, r, "continuous", cfg)
    finite = math.isfinite(m_r) and math.isfinite(mhat_r)
    moments = ConditionResult(f"absolute moments of order {r} finite",
                              finite, m_r + mhat_r if finite else math.inf)

    # each phase keeps the k beyond gamma of the union of its windows
    gamma = chi.log_support_radius
    taus = np.linspace(0.0, 1.0, 64, endpoint=False)
    far = np.arange(math.floor(-gamma) - 50, math.ceil(taus[-1] + gamma) + 51)
    tails = _phase_sums(chi, taus, lambda vals, d: np.where(
        np.abs(d) > gamma, np.abs(vals) * np.abs(d) ** r, 0.0), far)
    tail = float(tails.max())
    tail_ok = tail < max(tol, 1e-12)
    tail_res = ConditionResult("tail vanishing", tail_ok, tail)

    return AssumptionReport(partition, unit, moments, tail_res)

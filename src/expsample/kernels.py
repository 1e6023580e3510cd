"""Kernel families for exponential sampling and their moment machinery.

Every kernel here is a sum of translates of one cardinal B-spline in the
log coordinate v = log x:

    K(v) = sum_i c_i N_n(v + o_i),

N_n the B-spline of order n on [0, n), a polynomial of degree n - 1 on
each [j, j + 1) (de Boor, A Practical Guide to Splines).  The families:

  * b-spline kernels: the central B-spline of order n, one term
    (1, n/2), supported on |v| < n/2, nonnegative, with transform
    (sin(t/2) / (t/2))^n on the imaginary axis;
  * translate combinations: c1 B(a x) + c2 B(b x), the terms
    (c1, log a + n/2) and (c2, log b + n/2), with the coefficients chosen
    so the zeroth discrete moment is 1 and the first vanishes;
  * the characteristic kernel: the indicator of [1, e), the term (1, 0)
    of order 1, whose integral means turn the sampling series into its
    Kantorovich form.

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
from order 2 on; Strang & Fix 1973).

Since a kernel is piecewise polynomial, so are K(v) v^nu and |K(v)| |v|^nu
once they are cut at the real roots of the pieces and at v = 0, and so are
their lattice sums as functions of the phase of log u, with breaks at the
phases of the cuts.  Every lattice moment reads one table of these
phase polynomials per (kernel, nu, absolute), whose cost grows with the
pieces, not with the support's width.  The continuous moments are exact
integrals of the pieces, and the tails beyond the support vanish
identically.  Every kernel-only result (piece tables, phase polynomials,
algebraic and absolute moments, the partition residual) is computed
once per process and kept in a bounded cache keyed by the read-only
Kernel; a bad argument raises on every call, since no exception is
cached.  Only the Poisson route integrates numerically, at every call,
so that it stays an independent check.

The piece tables are short float lists, handled one polynomial at a
time: numpy's fixed cost per call would outweigh their arithmetic.  They
repeat the float operations of the whole-array form in
tests/test_piece_algebra.py in its order, to the same doubles; numpy
stays where its rounding differs from Python's (binomial powers, the
continuous absolute moment's pairwise sum) and for roots of degree >= 2.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, KernelError
from .quadrature import mellin_transform


class Kernel:
    """The kernel sum_i c_i N_n(v + o_i) of order n, terms the pairs
    (c_i, o_i), with vectorized log-domain evaluation; its descriptor is
    its identity.

    support is the log-domain interval outside of which the kernel is
    exactly zero, intervals the disjoint union of the term supports
    [-o_i, n - o_i] within it; knots are the breakpoints of its pieces
    (integration panels aligned with them make quadrature exact on each
    piece); coefficients are the c_i.  parse_kernel shares one instance
    per descriptor, and the moment and rule caches are keyed by it, so a
    Kernel is read-only: setting or deleting an attribute raises
    AttributeError.
    """

    def __init__(self, descriptor, n, terms):
        if n < 1:
            raise KernelError(f"kernel order must be >= 1, got {n}")
        terms = tuple((float(c), float(o)) for c, o in terms)
        merged = []
        for lo, hi in sorted((-o, n - o) for _, o in terms):
            if merged and lo <= merged[-1][1]:  # every term is n wide
                lo = merged.pop()[0]
            merged.append((lo, hi))
        vars(self).update(
            descriptor=descriptor, order=n, terms=terms,
            coefficients=tuple(c for c, _ in terms),
            knots=tuple(sorted({j - o for _, o in terms
                                for j in range(n + 1)})),
            intervals=tuple(merged), support=(merged[0][0], merged[-1][1]))

    def __setattr__(self, name, value):
        raise AttributeError(f"{self!r} is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{self!r} is read-only; cannot delete {name!r}")

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
        """Evaluate at log-coordinate v (scalar or numpy array), by
        Horner's rule on the piece of each term that holds each point:
        with s = v + o_i, piece floor(s) at t = s - floor(s).  Points
        outside a term's [0, n), +-inf and nan included, are clipped onto
        a zero column, so they give exactly 0.0."""
        v = np.asarray(v, dtype=float)
        points = np.atleast_1d(v)
        table = _bspline_pieces(self.order)
        out = None
        for c, o in self.terms:
            s = np.fmin(np.fmax(points + o, -1.0), self.order)
            i = np.floor(s)
            t = s - i
            col = i.astype(np.intp) + 1
            val = table[0].take(col)
            for row in table[1:]:
                val = val * t + row.take(col)
            out = c * val if out is None else out + c * val
        return float(out[0]) if v.ndim == 0 else out


@functools.cache
def _bspline_pieces(n):
    """Coefficients of the B-spline N_n on its pieces, a (n, n + 2)
    table: column i + 1 holds, highest power first, the coefficients of
    the polynomial in t = s - i that equals N_n(s) on s in [i, i + 1),
    for i = 0 .. n - 1; columns 0 and n + 1 are zero.  Each entry is an
    exact integer numerator over (n - 1)!, divided once.  The table is
    shared by every caller, so it is read-only."""
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


def mellin_bspline(n):
    """B-spline kernel of order n >= 1 in the log coordinate."""
    return Kernel(f"bspline:{n}", n, ((1.0, n / 2.0),))


def characteristic():
    """Indicator of [1, e): the kernel whose convolution means are plain
    integral averages over [k/w, (k+1)/w] in the log coordinate."""
    return Kernel("char", 1, ((1.0, 0.0),))


def _log_literal(value):
    """Canonical descriptor text for a translate of log value: e^<k> when
    the log is integral, else e^<repr of the log>, which parses back to
    the same float."""
    if value == int(value):
        return f"e^{int(value)}"
    return f"e^{value!r}"


# the Poisson route's quadrature loses digits with a translate kernel's width:
# at log a = -log b = 1e6 it reads 999999999884.67 for m_2(chi, 1) = 1e12
MAX_TRANSLATE_LOG = 2.0 ** 16


def make_translate_combination(n, log_a, log_b):
    """Kernel psi(x) = c1 B_n(a x) + c2 B_n(b x) with

        c1 = log b / (log b - log a),   c2 = -log a / (log b - log a)

    so that c1 + c2 = 1 and c1 log a + c2 log b = 0; the construction
    forces the zeroth discrete moment to 1 and the first to 0.  The
    translates are given as log a, log b so that e^k shifts stay exact;
    each must lie within +-MAX_TRANSLATE_LOG.
    """
    for field, value in (("a", log_a), ("b", log_b)):
        if not abs(value) <= MAX_TRANSLATE_LOG:
            raise KernelError(
                f"field {field!r}: |log {field}| = {abs(value):.6g} exceeds "
                f"the bound 2^16 = {MAX_TRANSLATE_LOG:g}")
    if log_a == log_b:
        raise KernelError("singular system: log a = log b")
    c1 = log_b / (log_b - log_a)
    c2 = -log_a / (log_b - log_a)
    half = n / 2.0
    descriptor = f"translates:{n}:a={_log_literal(log_a)},b={_log_literal(log_b)}"
    return Kernel(descriptor, n, ((c1, log_a + half), (c2, log_b + half)))


def _parse_translate_value(text, field):
    """log of a translate field: a positive finite real, or e^<real> with
    a finite exponent."""
    power = text.startswith("e^")
    try:
        v = float(text[2:] if power else text)
    except ValueError:
        raise KernelError(f"bad value {text!r} for field {field!r}; "
                          "expected a real or e^<real>") from None
    if not math.isfinite(v):
        raise KernelError(f"field {field!r} must be finite, got {text!r}")
    if power:
        return v
    if v <= 0:
        raise KernelError(f"field {field!r} must be positive, got {text!r}")
    return math.log(v)


@functools.lru_cache(maxsize=64)
def parse_kernel(descriptor):
    """Parse a CLI kernel descriptor.

    Forms: 'bspline:<n>', 'char',
    'translates:<n>:a=<real|e^<real>>,b=<real|e^<real>>'.

    A process parses each descriptor once and shares the read-only
    Kernel (bounded cache); a bad descriptor raises on every call.
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

def _inf_past_double_range(moment):
    """moment, giving inf or nan past double range, without warnings."""
    @functools.wraps(moment)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return moment(*args, **kwargs)
        except OverflowError:  # a binomial coefficient or a Fraction
            return math.inf
    return guarded


@_inf_past_double_range
def discrete_moment(chi, nu, u=1.0):
    """The lattice moment m_nu(chi, u) of a discrete-role kernel."""
    if not 0 < u < math.inf:
        raise InputError(f"u must be positive and finite, got {u}")
    return float(lattice_moments(chi, nu, math.log(u))[0])


def _order(nu):
    """nu as an int, checked to be a moment order (>= 0); every route
    calls it before any cache keyed by the order, so that a float order,
    which raises TypeError here, does so whatever the caches hold."""
    nu = operator.index(nu)
    if nu < 0:
        raise InputError(f"moment order must be >= 0, got {nu}")
    return nu


def lattice_moments(chi, nu, log_u, absolute=False):
    """m_nu(chi, e^tau) at the entries tau of log_u (a float or a 1-d
    array), as an array, or with absolute=True the absolute sums: Horner's
    rule about the nearer end of the cell of each phase (about the left
    end only, B2 loses up to 85 eps at orders 3-4).  The log keeps u = x^w
    usable where x^w overflows."""
    cells, left, right = _lattice_polynomials(chi, _order(nu), absolute)
    out = []
    for tau in np.ravel(log_u).tolist():
        tau = tau % 1.0 % 1.0  # -1e-20 % 1.0 rounds up to 1.0, the phase 0
        c = bisect.bisect_right(cells, tau) - 1
        a, b = cells[c], cells[c + 1]
        out.append(_horner(left[c], tau - a) if tau - a <= b - tau
                   else _horner(right[c], tau - b))
    return np.array(out)


def _horner(row, t):
    """The polynomial row (highest power first) at t."""
    out = row[0]
    for c in row[1:]:
        out = out * t + c
    return out


def _shifted(row, d):
    """The polynomial row p(t) (highest power first) as p(t + d), a new
    list: repeated synthetic division, exact when d = 0."""
    row = list(row)
    for k in range(len(row) - 1, 0, -1):
        for i in range(1, k + 1):
            row[i] += d * row[i - 1]
    return row


def _real_roots(row, width):
    """The real roots of the polynomial row inside (0, width).  A line
    a t + b is solved directly, as np.roots solves it: the root -b/a,
    no root when a = 0, and the root 0 (outside) when b = 0."""
    if len(row) == 2:
        a, b = row
        r = -b / a if a != 0 and b != 0 else 0.0
        return np.array([r] if 0 < r < width else [])
    r = np.roots(row)
    return r.real[(r.imag == 0) & (r.real > 0) & (r.real < width)]


@functools.lru_cache(maxsize=256)
def _pieces(kernel, cuts):
    """The kernel as a piecewise polynomial: edges e_0 < ... < e_P, its
    knots and the points of the tuple cuts inside its support, and a
    (P, n) table whose row p holds, highest power first, the kernel on
    [e_p, e_{p+1}) as a polynomial in t = v - e_p, the Taylor-shifted
    B-spline pieces of every term summed.  Both arrays are shared by
    every caller, so they are read-only."""
    n, columns = kernel.order, _bspline_pieces(kernel.order).T.tolist()
    lo, hi = kernel.support
    edges = sorted({*kernel.knots, *(c for c in cuts if lo < c < hi)})
    rows = []
    for left, right in zip(edges, edges[1:]):
        row = [0.0] * n
        for c, o in kernel.terms:
            # piece j of the term holds the interval; outside [0, n) the
            # clip selects a zero column
            j = math.floor(0.5 * (left + right) + o)
            shifted = _shifted(columns[min(max(j, -1), n) + 1], left + o - j)
            row = [r + c * s for r, s in zip(row, shifted)]
        rows.append(row)
    edges, rows = np.array(edges), np.array(rows)
    edges.flags.writeable = rows.flags.writeable = False
    return edges, rows


@functools.lru_cache(maxsize=256)
def _weighted_pieces(kernel, nu, absolute):
    """Edges and piece rows (as in _pieces, as tuples) of K(v) v^nu, or
    with absolute=True of |K(v)| |v|^nu, cut also at v = 0 and at the
    real roots of the kernel's pieces so that each piece keeps one sign;
    a process builds them once (bounded cache), so both routes of one
    kernel share its roots."""
    cuts = [0.0] if absolute else []
    # with no negative coefficient the kernel keeps its sign
    if absolute and min(kernel.coefficients) < 0:
        edges, rows = (a.tolist() for a in _pieces(kernel, ()))
        for e, f, row in zip(edges, edges[1:], rows):
            cuts.extend(e + r for r in _real_roots(row, f - e).tolist())
    edges, rows = _pieces(kernel, tuple(cuts))
    # (e_p + t)^nu, expanded by the binomial theorem
    factors = [(math.comb(nu, k) * edges[:-1] ** (nu - k)).tolist()
               for k in range(nu + 1)]
    edges, out = edges.tolist(), []
    for p, row in enumerate(rows.tolist()):
        acc = [0.0] * (len(row) + nu)
        # a zero piece stays zero, also where a factor overflows
        for k, factor in enumerate(factors if any(row) else ()):
            f = factor[p]
            for i, r in enumerate(row, nu - k):
                acc[i] += r * f
        if absolute and _horner(acc, 0.5 * (edges[p + 1] - edges[p])) < 0.0:
            acc = [-a for a in acc]
        out.append(tuple(acc))
    return tuple(edges), tuple(out)


@functools.lru_cache(maxsize=256)
def _lattice_polynomials(kernel, nu, absolute):
    """The lattice sum m_nu(kernel, e^tau) as a polynomial on each cell
    between the phases of its breaks: cells 0 = p_0 < ... < p_C = 1 and
    two tables whose rows c hold, highest power first, the sum on
    [p_c, p_{c+1}) in s = tau - p_c (left) and in s = tau - p_{c+1}
    (right); absolute=True gives the sums of |chi(e^{-k} u)| |k - log u|^nu.
    Each term k lies on one piece over a whole cell (found at its midpoint),
    summed in rising k; a process builds the tuples once (bounded cache)."""
    edges, rows = _weighted_pieces(kernel, nu, absolute)
    cells = sorted({*(e % 1.0 for e in edges), 0.0, 1.0})
    spans = [(a, b, row) for a, b, row in zip(edges, edges[1:], rows)
             if any(row)]
    flip = not absolute and nu % 2 == 1  # (k - tau)^nu = (-v)^nu, v = tau - k
    left, right = [], []
    for a, b in zip(cells, cells[1:]):
        terms = [(row, k, lo) for lo, hi, row in spans
                 for k in range(math.floor(lo - b), math.ceil(hi - a) + 1)
                 if lo <= 0.5 * (b - a) + (a + k) < hi]
        for end, table in ((a, left), (b, right)):
            total = [0.0] * len(rows[0])
            for row, k, lo in terms:
                total = [s + x for s, x in zip(total, _shifted(row, end + k - lo))]
            table.append(tuple(-x if flip else x for x in total))
    return tuple(cells), tuple(left), tuple(right)


def _max_abs(cells, table):
    """The supremum over tau in [0, 1) of |M(tau)|, M the polynomials of
    table on the cells: the largest |M_c| at the ends of its cell (the
    one-sided limits there) and at the real roots of M_c' inside it;
    inf when an end is not finite (a moment past double range)."""
    widths = [b - a for a, b in zip(cells, cells[1:])]
    ends = [abs(x) for row, w in zip(table, widths)
            for x in (row[-1], _horner(row, w))]
    if not all(map(math.isfinite, ends)):
        return math.inf
    best, degree = max(ends), len(table[0]) - 1
    if degree < 2:
        return best
    for row, width in zip(table, widths):
        slope = [c * (degree - i) for i, c in enumerate(row[:-1])]
        for s in _real_roots(slope, width).tolist():
            best = max(best, abs(_horner(row, s)))
    return best


@functools.cache
def _spline_moments(n, nu):
    """The moments int N_n(s) s^k ds, k = 0 .. nu, as exact fractions:
    N_n is the n-fold convolution of the indicator of [0, 1) with the
    unit mass at 0, so by the binomial theorem each convolution maps the
    moments mu_m to sum_m C(k, m) mu_m / (k - m + 1)."""
    moments = [Fraction(int(k == 0)) for k in range(nu + 1)]
    for _ in range(n):
        moments = [sum(math.comb(k, m) * moments[m] / (k - m + 1)
                       for m in range(k + 1)) for k in range(nu + 1)]
    return moments


@functools.lru_cache(maxsize=256, typed=True)
@_inf_past_double_range
def continuous_moment(phi, nu):
    """Algebraic moment of order nu of a continuous-role kernel: the
    integral of phi(u) log^nu u du/u over the support.  A term
    c N_n(v + o) contributes c int N_n(s) (s - o)^nu ds, a binomial sum
    of the moments of N_n; the whole sum is exact in rational arithmetic
    (c and o are exact binary fractions) and rounded once; a process
    computes it once per (phi, nu) (bounded cache)."""
    moments = _spline_moments(phi.order, _order(nu))
    total = Fraction(0)
    for c, o in phi.terms:
        shift = -Fraction(o)
        total += Fraction(c) * sum(math.comb(nu, k) * shift ** (nu - k) * m
                                   for k, m in enumerate(moments))
    return float(total)


@functools.lru_cache(maxsize=256, typed=True)
@_inf_past_double_range
def absolute_moment(kernel, nu, side):
    """Absolute moment of order nu, exact on the polynomial pieces of the
    kernel cut at their real roots and at v = 0; a process computes it
    once per (kernel, nu, side) (bounded cache), and a bad order or side
    raises on every call.

    side='discrete': sup over u of sum_k |chi(e^{-k} u)| |k - log u|^nu,
    the largest value of the lattice-sum polynomials of the phase of
    log u over their cells, one-sided limits at the cell ends included.
    side='continuous': the integral of |phi| |log|^nu.
    """
    if side == "discrete":
        return _max_abs(*_lattice_polynomials(kernel, _order(nu), True)[:2])
    if side == "continuous":
        edges, rows = _weighted_pieces(kernel, _order(nu), absolute=True)
        powers = np.arange(len(rows[0]), 0, -1)
        widths = np.diff(edges)[:, None]
        return float(np.sum(np.array(rows) * widths ** powers / powers))
    raise ValueError("side must be 'discrete' or 'continuous'")


# the Poisson route sums the frequencies |k| <= POISSON_K
POISSON_K = 3


def poisson_moment(chi, j):
    """Discrete moment of order j through the transform route.

    The Poisson summation identity turns the lattice sum into transform
    derivatives at the points 2 k pi i:

        m_j(chi, u) = i^j sum_k  d^j/dt^j T(t) |_{t = 2 k pi}  u^{-2 k pi i}

    with T(t) the transform along the imaginary axis, so the k-th term is
    the k-th Fourier coefficient of m_j(chi, e^s) over one period
    s in [0, 1).  This routine evaluates the right-hand side at u = 1 for
    |k| <= K = POISSON_K: the sum of those 2K + 1 coefficients, from one
    mellin_transform call whose frequencies share one rule and one kernel
    evaluation.  Each derivative is taken under the integral sign,
    i^j T^(j)(2 k pi) being the integral of chi(v) (-v)^j e^{2 k pi i v}
    on the knot-aligned panels of mellin_transform's default rule (20
    points per unit log-length, panels at most 0.5 wide), so the route is
    exact up to quadrature for every kernel, asymmetric ones included.  For
    b-spline kernels of order n every k != 0 term vanishes through order
    n-1, so the result is then the lattice moment at every u; in general
    it is the partial Fourier sum at u = 1, which tends to m_j(chi, 1) as
    K grows wherever the lattice moment is continuous in log u.
    """
    j = _order(j)
    if j > 4:
        raise InputError("poisson route supports orders j <= 4")
    points = [complex(0.0, 2.0 * math.pi * k)
              for k in range(-POISSON_K, POISSON_K + 1)]
    total = sum(mellin_transform(chi, points, order=j))
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


@functools.lru_cache(maxsize=256)
def _partition_residual(chi):
    """The largest |m_0(chi, u) - 1| over the whole period, read from the
    lattice-sum polynomials of order 0; once per process (bounded cache)."""
    cells, table, _ = _lattice_polynomials(chi, 0, False)
    return _max_abs(cells, [(*row[:-1], row[-1] - 1.0) for row in table])


def verify_kernel(chi, phi, r=1, tol=1e-8):
    """Check the two kernel assumptions for a (chi, phi) pair.

    First condition: the integer translates of chi sum to 1 at every point
    (the largest |m_0 - 1| of the lattice-sum polynomials over the whole
    period) and phi integrates to 1 against du/u.  Second condition: the
    absolute moments of order r are finite and the tail of the chi sum
    beyond the support radius vanishes, which holds identically because
    the support lies within that radius.  Failures are reported with
    measured residuals, never raised.  The residuals and moments are
    computed once per process (bounded caches); the report and its
    tolerance checks are built at every call.
    """
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
    worst = _partition_residual(chi)
    partition = ConditionResult("partition of unity", worst <= tol, worst)

    resid = abs(continuous_moment(phi, 0) - 1.0)
    unit = ConditionResult("unit integral", resid <= tol, resid)

    m_r = absolute_moment(chi, r, "discrete")
    mhat_r = absolute_moment(phi, r, "continuous")
    finite = math.isfinite(m_r) and math.isfinite(mhat_r)
    moments = ConditionResult(f"absolute moments of order {r} finite",
                              finite, m_r + mhat_r if finite else math.inf)

    tail = ConditionResult("tail vanishing", True, 0.0)
    return AssumptionReport(partition, unit, moments, tail)

"""The kernels piece algebra against its vectorized numpy form.

kernels runs its piecewise-polynomial algebra on short lists of Python
floats, one polynomial at a time, with the float operations of the
vectorized form in the same order.  The vectorized form is kept below as
the reference (_horner, _shifted, _pieces without its cache,
_weighted_pieces, _lattice_polynomials and _max_abs); every table,
moment and residual of the library must equal it byte for byte, signed
zeros included.
"""

import math
import random

import numpy as np
import pytest

from expsample import (
    absolute_moment,
    characteristic,
    make_translate_combination,
    mellin_bspline,
    parse_kernel,
    verify_kernel,
)
from expsample import kernels
from expsample.kernels import _bspline_pieces, _real_roots


# --- reference: the vectorized algebra ---------------------------------------

def _horner(table, t):
    """Each row of table (highest power first) at its own t."""
    out = table[..., 0]
    for col in np.moveaxis(table[..., 1:], -1, 0):
        out = out * t + col
    return out


def _shifted(table, d):
    """Each row p(t) of table (highest power first) as p(t + d), d one
    shift per row: repeated synthetic division, exact when d = 0."""
    table = np.array(table, dtype=float)
    degree = table.shape[-1] - 1
    for k in range(degree):
        for i in range(1, degree + 1 - k):
            table[..., i] += d * table[..., i - 1]
    return table


def _pieces(kernel, cuts):
    """The kernel as a piecewise polynomial: edges e_0 < ... < e_P, its
    knots and the points of the tuple cuts inside its support, and a
    (P, n) table whose row p holds, highest power first, the kernel on
    [e_p, e_{p+1}) as a polynomial in t = v - e_p, the Taylor-shifted
    B-spline pieces of every term summed.  Both arrays are shared by
    every caller, so they are read-only."""
    n, table = kernel.order, _bspline_pieces(kernel.order)
    lo, hi = kernel.support
    edges = np.array(sorted({*kernel.knots,
                             *(c for c in cuts if lo < c < hi)}))
    left, mid = edges[:-1], 0.5 * (edges[:-1] + edges[1:])
    rows = 0.0
    for c, o in kernel.terms:
        # piece j of the term holds each interval; outside [0, n) the
        # clip selects a zero column
        j = np.floor(mid + o)
        cols = np.clip(j, -1, n).astype(np.intp) + 1
        rows = rows + c * _shifted(table[:, cols].T, left + o - j)
    edges.flags.writeable = rows.flags.writeable = False
    return edges, rows


def _weighted_pieces(kernel, nu, absolute):
    """Edges and piece table (as in _pieces) of K(v) v^nu, or with
    absolute=True of |K(v)| |v|^nu, cut also at v = 0 and at the real
    roots of the kernel's pieces so that each piece keeps one sign."""
    cuts = [0.0] if absolute else []
    # with no negative coefficient the kernel keeps its sign
    if absolute and min(kernel.coefficients) < 0:
        edges, rows = _pieces(kernel, ())
        for e, width, row in zip(edges[:-1], np.diff(edges), rows):
            cuts.extend((e + _real_roots(row, width)).tolist())
    edges, rows = _pieces(kernel, tuple(cuts))
    # (e_p + t)^nu, expanded by the binomial theorem
    left, width = edges[:-1], rows.shape[1]
    out = np.zeros((rows.shape[0], width + nu))
    for k in range(nu + 1):
        out[:, nu - k:nu - k + width] += rows * (
            math.comb(nu, k) * left ** (nu - k))[:, None]
    if absolute:
        signs = _horner(out, 0.5 * np.diff(edges))
        out *= np.where(signs < 0.0, -1.0, 1.0)[:, None]
    return edges, out


def _lattice_polynomials(kernel, nu, absolute=False, right=False):
    """The lattice sum m_nu(kernel, e^tau) as a polynomial on each cell
    between the phases of its breaks: cells 0 = p_0 < ... < p_C = 1 and
    a table whose row c holds, highest power first, the sum on
    [p_c, p_{c+1}) in s = tau - p_c, or with right=True in
    s = tau - p_{c+1}.  absolute=True gives the sums of
    |chi(e^{-k} u)| |k - log u|^nu instead.  Every term k of the sum
    lies on one piece over a whole cell, found at the cell's midpoint."""
    edges, rows = _weighted_pieces(kernel, nu, absolute)
    cells = np.array(sorted({*np.mod(edges, 1.0).tolist(), 0.0, 1.0}))
    ks = np.arange(math.floor(edges[0]) - 1, math.ceil(edges[-1]) + 1)
    at = cells[:-1, None] + ks
    p = np.searchsorted(edges, 0.5 * (cells[1:, None] - cells[:-1, None])
                        + at, side="right") - 1
    inside = (p >= 0) & (p < rows.shape[0])
    p = np.clip(p, 0, rows.shape[0] - 1)
    if right:
        at = cells[1:, None] + ks
    table = _shifted(rows[p] * inside[..., None], at - edges[p]).sum(axis=1)
    # (k - tau)^nu = (-v)^nu with v = tau - k on the kernel's side
    return cells, (table if absolute or nu % 2 == 0 else -table)


def _max_abs(cells, table):
    """The supremum over tau in [0, 1) of |M(tau)|, M the polynomials of
    table on the cells: the largest |M_c| at the ends of its cell (the
    one-sided limits there) and at the real roots of M_c' inside it."""
    widths = np.diff(cells)
    best = max(np.abs(table[:, -1]).max(),
               np.abs(_horner(table, widths)).max())
    degree = table.shape[1] - 1
    if degree < 2:
        return float(best)
    slopes = table[:, :-1] * np.arange(degree, 0, -1)
    for row, slope, width in zip(table, slopes, widths):
        for s in _real_roots(slope, width).tolist():
            best = max(best, abs(_horner(row, s)))
    return float(best)


def _absolute_moment(kernel, nu, side):
    if side == "discrete":
        return _max_abs(*_lattice_polynomials(kernel, nu, absolute=True))
    edges, rows = _weighted_pieces(kernel, nu, absolute=True)
    powers = np.arange(rows.shape[1], 0, -1)
    return float(np.sum(rows * np.diff(edges)[:, None] ** powers / powers))


def _partition_residual(chi):
    cells, table = _lattice_polynomials(chi, 0)
    table[:, -1] -= 1.0
    return _max_abs(cells, table)


# --- kernels -----------------------------------------------------------------

def _seeded_translates(count=32, seed=20190817):
    """Translate pairs of orders 1-6: overlapping with real logs, with
    integer logs, gapped (term supports apart) and wide."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, 6)
        kind = i % 4
        if kind == 0:
            log_a, log_b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        elif kind == 1:
            log_a, log_b = rng.sample(range(-5, 6), 2)
        elif kind == 2:
            log_a = rng.uniform(-3.0, 3.0)
            log_b = log_a + rng.choice((-1, 1)) * rng.uniform(n + 0.5, 40.0)
        else:
            log_a, log_b = -rng.uniform(100.0, 2000.0), rng.uniform(100.0, 2000.0)
        out.append(make_translate_combination(n, float(log_a), float(log_b)))
    return out


KERNELS = ([mellin_bspline(n) for n in range(1, 9)] + [characteristic()]
           + [parse_kernel(d) for d in (
               "translates:2:a=e^-2,b=e^-3", "translates:2:a=e^2,b=e^3",
               "translates:5:a=1.7,b=9.1",
               "translates:2:a=e^-65536,b=e^65536")]
           + _seeded_translates())
IDS = [k.descriptor for k in KERNELS]
PHIS = [mellin_bspline(2), mellin_bspline(4), characteristic(),
        parse_kernel("translates:2:a=e^2,b=e^3")]


def _bytes(value):
    return np.asarray(value, dtype=float).tobytes()


def test_kernel_set():
    gapped = [k for k in KERNELS if len(k.terms) == 2
              and abs(k.terms[0][1] - k.terms[1][1]) > k.order]
    wide = [k for k in KERNELS if k.support[1] - k.support[0] > 200]
    assert len(KERNELS) - 13 >= 30 and len(gapped) >= 8 and len(wide) >= 8


@pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
def test_piece_tables_match_reference(kernel):
    for cuts in ((), (0.0,)):
        edges, rows = kernels._pieces(kernel, cuts)
        ref_edges, ref_rows = _pieces(kernel, cuts)
        assert _bytes(edges) == _bytes(ref_edges)
        assert _bytes(rows) == _bytes(ref_rows)


@pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
def test_lattice_algebra_matches_reference(kernel):
    for nu in range(6):
        for absolute in (False, True):
            edges, rows = kernels._weighted_pieces(kernel, nu, absolute)
            ref_edges, ref_rows = _weighted_pieces(kernel, nu, absolute)
            assert _bytes(edges) == _bytes(ref_edges), (nu, absolute)
            assert _bytes(rows) == _bytes(ref_rows), (nu, absolute)
            cells, table, right = kernels._lattice_polynomials(kernel, nu,
                                                               absolute)
            ref_cells, ref_table = _lattice_polynomials(kernel, nu, absolute)
            ref_right = _lattice_polynomials(kernel, nu, absolute, True)[1]
            assert _bytes(cells) == _bytes(ref_cells), (nu, absolute)
            assert _bytes(table) == _bytes(ref_table), (nu, absolute)
            assert _bytes(right) == _bytes(ref_right), (nu, absolute)
            assert (_bytes(kernels._max_abs(cells, table))
                    == _bytes(_max_abs(ref_cells, ref_table))), (nu, absolute)
        for side in ("discrete", "continuous"):
            assert (_bytes(absolute_moment(kernel, nu, side))
                    == _bytes(_absolute_moment(kernel, nu, side))), (nu, side)


@pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
def test_verify_residuals_match_reference(kernel):
    partition = _partition_residual(kernel)
    for phi in PHIS:
        for r in (1, 2, 3):
            report = verify_kernel(kernel, phi, r)
            assert (_bytes(report.partition_of_unity.residual)
                    == _bytes(partition))
            moments = (_absolute_moment(kernel, r, "discrete")
                       + _absolute_moment(phi, r, "continuous"))
            assert _bytes(report.moments_finite.residual) == _bytes(moments)


def test_cost_grows_with_the_pieces(monkeypatch):
    # e^-65536 and e^65536 put 131072 integers between the two terms; the
    # lattice sum shifts each nonzero piece once per cell, never once per k
    kernel = parse_kernel("translates:2:a=e^-65536,b=e^65536")
    edges, rows = kernels._weighted_pieces(kernel, 3, True)
    cells = kernels._lattice_polynomials(kernel, 3, True)[0]
    shifts = []
    shifted = kernels._shifted
    monkeypatch.setattr(kernels, "_shifted",
                        lambda row, d: shifts.append(d) or shifted(row, d))
    for cache in (kernels._pieces, kernels._weighted_pieces,
                  kernels._lattice_polynomials, absolute_moment):
        cache.cache_clear()
    absolute_moment(kernel, 3, "discrete")
    pieces = len(edges) - 1
    # the piece tables (one shift per piece and term) and the lattice sum
    # (one per nonzero piece, cell and cell end)
    assert len(shifts) <= (len(kernel.terms) + 2 * (len(cells) - 1)) * pieces

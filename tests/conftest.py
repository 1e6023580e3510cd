"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check: the
B-spline oracles are the Cox-de Boor recursion and the truncated-power sum
in exact rational arithmetic, rounded once, instead of Horner's rule on
the pieces; the moment oracle is a raw lattice sum, and the operator
oracle stacks a composite Simpson rule over the full combined window
without any knot alignment.  The scalar oracles that used to be library
functions live in tests/oracles.py: the pointwise convolution mean
mellin_convolution, the scalar sampling-series loop series_oracle, and
the finite-difference log derivative mellin_derivative.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from expsample import (
    OperatorSpec,
    QuadratureConfig,
    characteristic,
    durrmeyer_eval,
    make_translate_combination,
    mellin_bspline,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def b2():
    return mellin_bspline(2)


@pytest.fixture
def b4():
    return mellin_bspline(4)


@pytest.fixture
def char():
    return characteristic()


@pytest.fixture
def psi():
    return make_translate_combination(2, -2.0, -3.0)


def cox_de_boor(n, t):
    """Central B-spline of order n at t, by the Cox-de Boor recursion on
    the uniform knots 0..n shifted to be centred at zero."""
    x = t + n / 2.0

    def N(i, k):
        if k == 1:
            return 1.0 if i <= x < i + 1 else 0.0
        return ((x - i) / (k - 1)) * N(i, k - 1) \
            + ((i + k - x) / (k - 1)) * N(i + 1, k - 1)

    return N(0, n)


def exact_bspline(n, t):
    """Central B-spline of order n at the float t, correctly rounded: the
    truncated-power sum sum_j (-1)^j C(n, j) (t + n/2 - j)_+^(n-1) / (n-1)!
    in exact rationals, so no float operation order enters.  With 0^0 = 1
    order 1 is the half-open indicator of [-1/2, 1/2)."""
    s = Fraction(t) + Fraction(n, 2)
    if not 0 <= s < n:
        return 0.0
    total = sum((-1) ** j * math.comb(n, j) * (s - j) ** (n - 1)
                for j in range(n) if s >= j)
    return float(total / math.factorial(n - 1))


def direct_discrete_moment(kernel, nu, u, kspan=60):
    """Raw lattice sum over a wide fixed window."""
    tau = math.log(u)
    total = 0.0
    for k in range(math.floor(tau) - kspan, math.ceil(tau) + kspan + 1):
        total += float(kernel.eval_log(tau - k)) * (k - tau) ** nu
    return total


def simpson_operator_oracle(chi, phi, w, f, x, n_inner=4001):
    """Operator value via composite Simpson on each inner window, with no
    knot alignment and a generous node count."""
    tc = w * math.log(x)
    lo_c, hi_c = chi.support
    lo_p, hi_p = phi.support
    total = 0.0
    for k in range(math.floor(tc - hi_c) - 1, math.ceil(tc - lo_c) + 2):
        cw = float(chi.eval_log(tc - k))
        if cw == 0.0:
            continue
        a = (k + lo_p) / w
        b = (k + hi_p) / w
        us = np.linspace(a, b, n_inner)
        vals = np.array([float(phi.eval_log(w * u - k)) * f(math.exp(u))
                         for u in us])
        inner = float(np.trapezoid(vals, us)) if hasattr(np, "trapezoid") \
            else float(np.trapz(vals, us))
        total += cw * w * inner
    return total


def dense_config_oracle(spec, f, x):
    """The package's own evaluator at 10x quadrature density; independent
    of the default configuration.  Its truncation radius of twice chi's
    support radius is recorded but not read: every series sums over the
    window of chi's support."""
    dense = OperatorSpec(
        chi=spec.chi,
        phi=spec.phi,
        w=spec.w,
        truncation_radius=2.0 * spec.chi.log_support_radius,
        quadrature=QuadratureConfig(
            nodes_per_unit=10 * spec.quadrature.nodes_per_unit,
            panel_max_width=spec.quadrature.panel_max_width),
    )
    return durrmeyer_eval(dense, f, x)

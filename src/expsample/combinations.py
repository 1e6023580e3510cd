"""Convergence-accelerating linear combinations.

A combination sum_i beta_i I_{i w} cancels the first p-1 terms of the
asymptotic error expansion when the beta solve

    sum_i beta_i       = 1
    sum_i beta_i / i^k = 0       for k = 1 .. p-1,

a Vandermonde system in the nodes 1/i.  The solve is done in exact
rational arithmetic and converted to floats afterwards, which keeps small
cases bit-exact (p = 3 gives exactly (0.5, -4, 4.5)) and the residuals at
roundoff level through p = 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .kernels import continuous_moment, discrete_moment
from .operators import durrmeyer_eval
from .quadrature import DEFAULT_CONFIG

MAX_ORDER = 12


@dataclass(frozen=True)
class CombinationSpec:
    p: int
    beta: tuple

    def __post_init__(self):
        if len(self.beta) != self.p:
            raise ValueError("coefficient count must equal p")


def solve_coefficients(p):
    """Solve the coefficient system of order p by exact rational
    elimination; 1 <= p <= 12 (conditioning bound in double precision)."""
    if not (1 <= p <= MAX_ORDER):
        raise ValueError(f"p must be in 1..{MAX_ORDER}, got {p}")
    a = [[Fraction(1, i ** k) for i in range(1, p + 1)] for k in range(p)]
    rhs = [Fraction(1)] + [Fraction(0)] * (p - 1)
    for col in range(p):
        piv = next(r for r in range(col, p) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(p):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                rhs[r] -= factor * rhs[col]
    beta = tuple(float(rhs[i] / a[i][i]) for i in range(p))
    return CombinationSpec(p=p, beta=beta)


def residuals(spec):
    """Residual of each equation of the coefficient system, in float."""
    out = []
    for k in range(spec.p):
        target = 1.0 if k == 0 else 0.0
        s = sum(b / i ** k for b, i in zip(spec.beta, range(1, spec.p + 1)))
        out.append(s - target)
    return out


def combined_eval(spec, op, f, x):
    """sum_i beta_i (I_{i w} f)(x) at a float or an array of x; the scaled
    evaluations are summed in index order for determinism."""
    total = 0.0
    for i, beta in enumerate(spec.beta, start=1):
        total += beta * durrmeyer_eval(op.with_w(i * op.w), f, x)
    return total


def pair_moment(chi, phi, j, x=1.0, cfg=DEFAULT_CONFIG):
    """The order-j coefficient of the single-operator error expansion:

        sum_eta binom(j, eta) mhat_{j-eta}(phi) m_eta(chi, x)

    The discrete factors are evaluated at u = x; they are constant in u
    for b-spline kernels up to order n-1 but genuinely oscillate with
    log u for translate combinations from order 2 on, so the choice of x
    matters exactly when the kernel makes it matter.
    """
    total = 0.0
    for eta in range(j + 1):
        mhat = continuous_moment(phi, j - eta, cfg)
        m = discrete_moment(chi, eta, x)
        total += math.comb(j, eta) * mhat * m
    return total


def combined_moment(spec, chi, phi, j, x=1.0, cfg=DEFAULT_CONFIG):
    """Order-j coefficient for the combined operator:

        sum_i beta_i / i^j * pair_moment(chi, phi, j, x)

    Vanishes for j = 1 .. p-1 by construction of the beta whenever the
    pair moment is independent of the scale index.
    """
    inner = pair_moment(chi, phi, j, x, cfg)
    scale = sum(b / i ** j for b, i in zip(spec.beta, range(1, spec.p + 1)))
    return scale * inner

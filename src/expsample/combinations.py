"""Convergence-accelerating linear combinations.

A combination sum_i beta_i I_{i w} cancels the first p-1 terms of the
asymptotic error expansion when the beta solve

    sum_i beta_i       = 1
    sum_i beta_i / i^k = 0       for k = 1 .. p-1,

a Vandermonde system in the nodes 1/i.  Its solution has a closed form
in integers, divided once per coefficient, which keeps small cases
bit-exact (p = 3 gives exactly (0.5, -4, 4.5)) and the residuals at
roundoff level through p = 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import continuous_moment, lattice_moments
from .operators import durrmeyer_eval

MAX_ORDER = 12


@dataclass(frozen=True)
class CombinationSpec:
    """The coefficients beta_1 .. beta_p of sum_i beta_i I_{i w}."""

    beta: tuple

    @property
    def p(self):
        """The order: the number of coefficients."""
        return len(self.beta)


def solve_coefficients(p):
    """The coefficients of order p, 1 <= p <= 12 (conditioning bound in
    double precision), in closed form: beta_i is the Lagrange basis
    polynomial of the nodes 1/i at 0,

        beta_i = (-1)^(p-i) i^(p-1) / ((i-1)! (p-i)!),

    one exact integer division, correctly rounded, per coefficient."""
    if not (1 <= p <= MAX_ORDER):
        raise ValueError(f"p must be in 1..{MAX_ORDER}, got {p}")
    beta = tuple((-1) ** (p - i) * i ** (p - 1)
                 / (math.factorial(i - 1) * math.factorial(p - i))
                 for i in range(1, p + 1))
    return CombinationSpec(beta)


# the order-1 combination, beta = (1): the operator itself
PLAIN = solve_coefficients(1)


def combined_eval(spec, op, f, x, w=None):
    """sum_i beta_i (I_{i w} f)(x) at a float or an array of x; w, when
    given (a float or an array), replaces op.w and broadcasts against x.
    All the pairs (x, i w) are one durrmeyer_eval call; the scaled
    evaluations are summed in index order for determinism."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(op.w if w is None else w, dtype=float)
    i = np.arange(1, spec.p + 1).reshape((-1,) + (1,) * max(x.ndim, w.ndim))
    total = combine(spec, durrmeyer_eval(op, f, x, i * w))
    return float(total) if total.ndim == 0 else total


def combine(spec, values):
    """sum_i beta_i values[i - 1], in index order, over the leading axis
    of values (the evaluations at the scales w, 2w, ..., pw).  The sum
    starts from beta_1 values[0], so order 1 returns the values
    themselves, signed zeros included."""
    total = spec.beta[0] * values[0]
    for beta, value in zip(spec.beta[1:], values[1:]):
        total = total + beta * value
    return total


def pair_moment(chi, phi, j, u=1.0):
    """The order-j coefficient of the single-operator error expansion:

        sum_eta binom(j, eta) mhat_{j-eta}(phi) m_eta(chi, u)

    In the expansion of (I_w f)(x) the discrete factors belong at
    u = x^w, that is at the phase frac(w log x); they are constant in u
    for b-spline kernels up to order n-1 but genuinely oscillate with
    log u for translate combinations from order 2 on, so the phase
    matters exactly when the kernel makes it matter.
    """
    return combined_moment(PLAIN, chi, phi, j, u)


def combined_moment(spec, chi, phi, j, u=1.0, log_u=None):
    """Order-j coefficient for the combined operator:

        sum_i beta_i / i^j * pair_moment(chi, phi, j, u^i)

    where u = x^w for the operator at scale w, so the i-th term sits at
    the phase of x^{iw}.  log_u, when given, replaces u and may be a
    1-d array (one coefficient per entry, returned as an array); pass
    w log x there, since x^w itself overflows.  The continuous factors
    are computed once for all entries.  Vanishes for j = 1 .. p-1 by
    construction of the beta whenever the pair moment is the same at
    every u^i, as for b-spline pairs.
    """
    return _moment_terms(spec, chi, phi, j,
                         math.log(u) if log_u is None else log_u)


def _moment_terms(spec, chi, phi, j, log_u, absolute=False):
    """combined_moment(spec, chi, phi, j, log_u=log_u), the sum of the
    terms beta_i / i^j binom(j, eta) mhat_{j-eta}(phi) m_eta(chi, u^i),
    or with absolute=True the sum of their magnitudes, read from chi's
    absolute lattice tables: the scale of the roundoff in that
    coefficient, so a coefficient below about 1e-12 of it is zero.
    log_u is a float or a 1-d array, as the result."""
    part = abs if absolute else float  # a term, or its magnitude
    weights = [part(math.comb(j, eta) * continuous_moment(phi, j - eta))
               for eta in range(j + 1)]
    logs = np.asarray(log_u, dtype=float)
    total = 0.0
    for i, beta in enumerate(spec.beta, start=1):
        total = total + part(beta) / i ** j * sum(
            weight * lattice_moments(chi, eta, i * logs, absolute)
            for eta, weight in enumerate(weights))
    return total if logs.ndim else float(total[0])

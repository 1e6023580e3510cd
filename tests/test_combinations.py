"""Coefficient solver and accelerated combinations."""

import math
from fractions import Fraction

import numpy as np
import pytest

from expsample import (
    OperatorSpec,
    builtin,
    combined_eval,
    combined_moment,
    durrmeyer_eval,
    pair_moment,
    residuals,
    solve_coefficients,
)
from expsample.combinations import _moment_terms, combine


def _eliminate(p):
    """The coefficient system of order p solved by exact rational
    Gauss-Jordan elimination, converted to floats once: the oracle of
    the closed form."""
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
    return tuple(float(rhs[i] / a[i][i]) for i in range(p))


class TestSolver:
    def test_p1(self):
        assert solve_coefficients(1).beta == (1.0,)

    def test_p2(self):
        assert solve_coefficients(2).beta == (-1.0, 2.0)

    def test_p3_exact(self):
        # the closed form divides exact integers, so these are exact
        assert solve_coefficients(3).beta == (0.5, -4.0, 4.5)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_residuals(self, p):
        spec = solve_coefficients(p)
        assert max(abs(r) for r in residuals(spec)) <= 1e-12

    def test_largest_supported(self):
        spec = solve_coefficients(12)
        assert max(abs(r) for r in residuals(spec)) <= 1e-9

    @pytest.mark.parametrize("p", range(1, 13))
    def test_closed_form_equals_elimination(self, p):
        assert solve_coefficients(p).beta == _eliminate(p)

    @pytest.mark.parametrize("p", [0, -1, 13])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError, match=f"p must be in 1..12, got {p}"):
            solve_coefficients(p)


class TestCombinedEval:
    def test_constant(self, b4, b2):
        comb = solve_coefficients(3)
        spec = OperatorSpec(b4, b2, 10.0)
        got = combined_eval(comb, spec, builtin("const:-1"), 2.0)
        assert got == pytest.approx(-1.0, abs=1e-10)

    def test_p1_is_plain(self, b4, b2):
        comb = solve_coefficients(1)
        spec = OperatorSpec(b4, b2, 17.0)
        f = builtin("fig2")
        assert combined_eval(comb, spec, f, 2.3) == durrmeyer_eval(spec, f, 2.3)

    def test_order_1_returns_its_input_bit_for_bit(self, rng):
        # the sum starts from beta_1 values[0]: a start at 0.0 would turn
        # -0.0 into 0.0 + 1.0 * -0.0 = 0.0
        values = np.array([[-0.0, 0.0, 1.5, -2.5e-310, math.inf,
                            *rng.normal(size=5)]])
        got = combine(solve_coefficients(1), values)
        assert got.tobytes() == values[0].tobytes()
        assert np.signbit(got[0]) and not np.signbit(got[1])
        assert np.signbit(combine(solve_coefficients(1), [-0.0]))

    def test_p3_beats_plain_on_smooth_function(self, b4, b2):
        f = builtin("fig2")
        x = 2.1
        spec = OperatorSpec(b4, b2, 10.0)
        plain = abs(durrmeyer_eval(spec, f, x) - f(x))
        accel = abs(combined_eval(solve_coefficients(3), spec, f, x) - f(x))
        assert accel < plain / 5


class TestCombinedMoments:
    def test_first_order_vanishes_for_symmetric_pairs(self, b4, b2):
        for p in (1, 2, 3):
            comb = solve_coefficients(p)
            assert combined_moment(comb, b4, b2, 1, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_pair_moment_b4_b2(self, b4, b2):
        # mhat_2 + m_2 = 1/6 + 1/3
        assert pair_moment(b4, b2, 2, 2.0) == pytest.approx(0.5, abs=1e-10)

    def test_order2_constant_b4_b2(self, b4, b2):
        comb = solve_coefficients(1)
        assert combined_moment(comb, b4, b2, 2, 5.0) == pytest.approx(0.5, abs=1e-10)

    def test_order2_psi_b2_at_unit_branch(self, psi, b2):
        # at integer log u the discrete second moment sits at -6, so the
        # pair coefficient is 1/6 - 6 = -35/6
        got = combined_moment(solve_coefficients(1), psi, b2, 2, math.e)
        assert got == pytest.approx(-35.0 / 6.0, abs=1e-10)

    def test_annihilation_p3(self, b4, b2):
        comb = solve_coefficients(3)
        for j in (1, 2):
            assert combined_moment(comb, b4, b2, j, 3.3) == pytest.approx(0.0, abs=1e-12)

    def test_third_order_psi_value(self, psi, b2):
        # sum beta_i / i^3 = 1/6 and the pair moment reduces to m_3(psi)
        comb = solve_coefficients(3)
        got = combined_moment(comb, psi, b2, 3, math.e)
        assert got == pytest.approx(5.0, abs=1e-9)

    def test_size_bounds_the_coefficient(self, b4, b2, psi):
        # a nonnegative pair's partition of unity has size 1; a vanishing
        # coefficient keeps the size of its terms; psi's lobes cancel
        p1, p3 = solve_coefficients(1), solve_coefficients(3)
        assert _moment_terms(p1, b4, b2, 0, 2.0)[1] == pytest.approx(1.0)
        log_u = np.array([0.3, 7.9])
        for j in (1, 2):
            value, size = _moment_terms(p3, b4, b2, j, log_u=log_u)
            assert np.array_equal(
                value, combined_moment(p3, b4, b2, j, log_u=log_u))
            assert np.all(size > 0.1)
            assert np.all(np.abs(value) <= 1e-12 * size)
        value, size = _moment_terms(p1, psi, b2, 2, math.e)
        assert size > abs(value) + 1.0

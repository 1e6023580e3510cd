"""Kernel evaluation, moments, and assumption checks.

Expected values here come from independent routes: the Cox-de Boor
recursion for spline values, raw lattice sums for discrete moments, and
hand integrals for the continuous ones (the hat-function moments
integral (1-|u|) u^nu du are 1, 0, 1/6, 0, 1/15 for nu = 0..4).
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from expsample import (
    DEFAULT_CONFIG,
    Kernel,
    KernelError,
    LogInterval,
    MellinPoint,
    absolute_moment,
    characteristic,
    continuous_moment,
    discrete_moment,
    integrate_log,
    make_translate_combination,
    mellin_bspline,
    mellin_transform,
    parse_kernel,
    poisson_moment,
    solve_coefficients,
    verify_kernel,
)
from expsample.combinations import _moment_terms
from expsample.kernels import (
    _lattice_polynomials,
    _pieces,
    _real_roots,
    _weighted_pieces,
    lattice_moments,
)
from conftest import cox_de_boor, direct_discrete_moment, exact_bspline
from oracles import exact_lattice_moment


class TestBsplineEvaluation:
    def test_outside_support(self):
        assert mellin_bspline(2).eval_log(1.5) == 0.0

    def test_hat_at_center(self):
        assert mellin_bspline(2).eval_log(math.log(1.0)) == 1.0

    def test_cubic_at_center(self):
        assert mellin_bspline(4).eval_log(math.log(1.0)) == pytest.approx(
            2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_cox_de_boor(self, n, rng):
        kern = mellin_bspline(n)
        for t in rng.uniform(-n / 2 - 0.5, n / 2 + 0.5, size=200):
            t = float(t)
            if n == 1 and abs(abs(t) - 0.5) < 1e-9:
                continue  # the order-1 indicator edges differ by convention
            assert kern.eval_log(t) == pytest.approx(cox_de_boor(n, t), abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_within_an_ulp_of_exact(self, n, rng):
        # Horner's rule on the pieces is backward stable: every value,
        # knots included, is within 2.3e-16 of the exact rational one
        kern = mellin_bspline(n)
        ts = np.concatenate([rng.uniform(-n / 2 - 0.5, n / 2 + 0.5, size=500),
                             np.arange(n + 1) - n / 2])
        exact = np.array([exact_bspline(n, t) for t in ts.tolist()])
        assert np.max(np.abs(kern.eval_log(ts) - exact)) <= 2.3e-16

    @pytest.mark.parametrize("kern", [*(mellin_bspline(n) for n in range(1, 7)),
                                      make_translate_combination(2, -2.0, -3.0)],
                             ids=str)
    def test_edges_and_infinities_exact_zero(self, kern):
        # points outside the support, the right end and +-inf included,
        # give exactly 0.0 without an inf - inf (RuntimeWarnings fail the
        # suite); the left end of order 1 belongs to its support
        lo, hi = kern.support
        ts = np.array([lo - 1e-12, hi, hi + 1e-12, hi + 3.0, lo - 3.0,
                       1e300, -1e300, math.inf, -math.inf])
        assert np.all(kern.eval_log(ts) == 0.0)
        assert all(kern.eval_log(float(t)) == 0.0 for t in ts)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_compact_support_exact_zero(self, n):
        kern = mellin_bspline(n)
        for t in (n / 2, -n / 2, n / 2 + 1e-12, n / 2 + 3.0):
            assert kern.eval_log(t) == 0.0
            assert kern.eval_log(-t) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_symmetry(self, n, rng):
        kern = mellin_bspline(n)
        for x in rng.uniform(0.2, 5.0, size=100):
            x = float(x)
            assert abs(kern.eval_log(math.log(x))
                       - kern.eval_log(math.log(1.0 / x))) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_partition_of_unity(self, n, rng):
        kern = mellin_bspline(n)
        ks = np.arange(-12, 13)
        for u in rng.uniform(math.exp(-5), math.exp(5), size=1000):
            tau = math.log(float(u))
            total = float(np.sum(kern.eval_log(tau - (ks + math.floor(tau)))))
            assert abs(total - 1.0) <= 1e-10

    def test_rejects_bad_order(self):
        with pytest.raises(KernelError):
            mellin_bspline(0)

    @pytest.mark.parametrize("descriptor", [
        "bspline:0", "bspline:-1", "translates:0:a=2,b=3",
        "translates:-1:a=e^2,b=e^3"])
    def test_every_family_names_a_bad_order(self, descriptor):
        # one constructor check for every family: a translate order below
        # 1 is a configuration error, not a numerical failure inside the
        # piece table
        with pytest.raises(KernelError, match="order must be >= 1"):
            parse_kernel(descriptor)

    def test_vectorized_matches_scalar(self, b4, rng):
        ts = rng.uniform(-3, 3, size=64)
        vec = b4.eval_log(ts)
        for t, v in zip(ts, vec):
            assert v == b4.eval_log(float(t))


class TestTranslateCombination:
    def test_printed_coefficients(self, psi):
        assert psi.coefficients == (3.0, -2.0)

    def test_symmetric_translates(self):
        kern = make_translate_combination(2, -1.0, 1.0)
        assert kern.coefficients == (0.5, 0.5)

    def test_singular(self):
        with pytest.raises(KernelError, match="singular"):
            make_translate_combination(2, 1.0, 1.0)

    def test_translate_logs_are_bounded(self):
        # up to 2^16 a translate builds; past it, or nan, is named
        kern = make_translate_combination(2, -2.0 ** 16, 2.0 ** 16)
        assert kern.coefficients == (0.5, 0.5)
        for la, lb, field in [(2.0 ** 16 + 1.0, 3.0, "a"),
                              (2.0, -1e300, "b"), (math.nan, 3.0, "a")]:
            with pytest.raises(KernelError, match=f"field '{field}'.*2\\^16"):
                make_translate_combination(2, la, lb)

    def test_coefficients_sum_to_one(self):
        for la, lb in [(-2.0, -3.0), (0.5, 2.0), (-1.0, 4.0)]:
            kern = make_translate_combination(3, la, lb)
            c1, c2 = kern.coefficients
            assert c1 + c2 == pytest.approx(1.0, abs=1e-14)

    def test_zeroth_and_first_moment_by_construction(self, psi, rng):
        for u in rng.uniform(0.5, 10.0, size=20):
            u = float(u)
            assert discrete_moment(psi, 0, u) == pytest.approx(1.0, abs=1e-12)
            assert discrete_moment(psi, 1, u) == pytest.approx(0.0, abs=1e-12)

    def test_support_and_knots(self, psi):
        assert psi.support == (1.0, 4.0)
        assert psi.knots == (1.0, 2.0, 3.0, 4.0)


class TestDiscreteMoments:
    def test_b4_low_orders(self, b4, rng):
        for u in rng.uniform(0.3, 20.0, size=10):
            u = float(u)
            assert discrete_moment(b4, 0, u) == pytest.approx(1.0, abs=1e-10)
            assert discrete_moment(b4, 1, u) == pytest.approx(0.0, abs=1e-10)
            assert discrete_moment(b4, 2, u) == pytest.approx(1.0 / 3.0, abs=1e-9)
            assert discrete_moment(b4, 3, u) == pytest.approx(0.0, abs=1e-9)

    def test_u_independence_below_kernel_order(self, rng):
        # transform zeros at 2 k pi have order n, so moments of order
        # j <= n-1 are constant in u
        for n in (2, 3, 4, 5, 6):
            kern = mellin_bspline(n)
            for j in range(min(4, n)):
                vals = [discrete_moment(kern, j, float(u))
                        for u in rng.uniform(0.5, 10.0, size=100)]
                assert max(vals) - min(vals) <= 1e-10, (n, j)

    def test_b2_second_moment_oscillates(self, b2):
        # order 2 kernel: the second moment genuinely depends on u
        at_integer = discrete_moment(b2, 2, 1.0)
        at_half = discrete_moment(b2, 2, math.exp(0.5))
        assert at_integer == pytest.approx(0.0, abs=1e-12)
        assert at_half == pytest.approx(0.25, abs=1e-12)

    def test_psi_measured_values(self, psi):
        # direct lattice sums; the second and third moments of this kernel
        # depend on u (the transform has only double zeros at 2 k pi)
        assert discrete_moment(psi, 2, 1.0) == pytest.approx(-6.0, abs=1e-10)
        assert discrete_moment(psi, 3, 1.0) == pytest.approx(30.0, abs=1e-10)
        assert discrete_moment(psi, 2, math.exp(0.5)) == pytest.approx(-5.75, abs=1e-10)

    def test_psi_second_moment_band(self, psi, rng):
        for u in rng.uniform(0.5, 10.0, size=50):
            v = discrete_moment(psi, 2, float(u))
            assert -6.0 - 1e-9 <= v <= -5.75 + 1e-9

    def test_matches_direct_sum(self, b4, psi, rng):
        for kern in (b4, psi):
            for nu in range(4):
                for u in rng.uniform(0.5, 5.0, size=5):
                    u = float(u)
                    assert discrete_moment(kern, nu, u) == pytest.approx(
                        direct_discrete_moment(kern, nu, u), abs=1e-11)

    def test_odd_moments_vanish_by_symmetry(self, rng):
        for n in (2, 4, 6):
            kern = mellin_bspline(n)
            for u in rng.uniform(0.5, 5.0, size=10):
                assert discrete_moment(kern, 1, float(u)) == pytest.approx(0.0, abs=1e-10)


class TestContinuousMoments:
    def test_hat_moments(self, b2):
        assert continuous_moment(b2, 0) == pytest.approx(1.0, abs=1e-10)
        assert continuous_moment(b2, 1) == pytest.approx(0.0, abs=1e-12)
        assert continuous_moment(b2, 2) == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert continuous_moment(b2, 4) == pytest.approx(1.0 / 15.0, abs=1e-10)

    def test_characteristic_moments(self, char):
        # integral of v^nu over [0, 1)
        assert continuous_moment(char, 0) == pytest.approx(1.0, abs=1e-13)
        assert continuous_moment(char, 1) == pytest.approx(0.5, abs=1e-12)
        assert continuous_moment(char, 2) == pytest.approx(1.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_second_moment_scales_with_order(self, n):
        assert continuous_moment(mellin_bspline(n), 2) == pytest.approx(n / 12.0, abs=1e-10)

    def test_translate_combination_moment(self, psi):
        # c1 (m2 + la^2) + c2 (m2 + lb^2) with m2 = 1/6:
        # 3 (1/6 + 4) - 2 (1/6 + 9) = -35/6
        assert continuous_moment(psi, 2) == pytest.approx(-35.0 / 6.0, rel=1e-10)


class TestAbsoluteMoments:
    def test_nonnegative_kernel_equals_plain(self, b2):
        assert absolute_moment(b2, 0, "discrete") == pytest.approx(1.0, abs=1e-12)

    def test_characteristic_unit(self, char):
        assert absolute_moment(char, 0, "continuous") == pytest.approx(1.0, abs=1e-13)

    def test_triangle_inequality_on_psi(self, psi, rng):
        m2_abs = absolute_moment(psi, 2, "discrete")
        for u in rng.uniform(0.5, 10.0, size=10):
            assert m2_abs >= abs(discrete_moment(psi, 2, float(u)))

    def test_psi_absolute_mass(self, psi):
        # |psi| integrates to 3.8: pieces 3/2, 9/10, 2/5, 1 around the
        # sign change at log-coordinate 13/5
        assert absolute_moment(psi, 0, "continuous") == pytest.approx(3.8, abs=1e-9)

    def test_bad_side(self, b2):
        with pytest.raises(ValueError):
            absolute_moment(b2, 0, "both")


class TestMomentArguments:
    # a negative order has no moment: each route names it instead of
    # returning a number (0.0, inf, a quadrature value) or an IndexError
    @pytest.mark.parametrize("moment", [
        lambda k: lattice_moments(k, -1, 0.0),
        lambda k: discrete_moment(k, -1),
        lambda k: continuous_moment(k, -1),
        lambda k: absolute_moment(k, -1, "discrete"),
        lambda k: absolute_moment(k, -1, "continuous")])
    def test_negative_order_named(self, b2, moment):
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            moment(b2)

    @pytest.mark.parametrize("u", [math.nan, math.inf, 0.0, -1.0])
    def test_u_must_be_positive_and_finite(self, b2, u):
        with pytest.raises(ValueError, match="u must be positive and finite"):
            discrete_moment(b2, 2, u)


class TestPoissonRoute:
    def test_b4_agreement_all_orders(self, b4, rng):
        for j in range(4):
            pm = poisson_moment(b4, j, K=3)
            for u in rng.uniform(0.5, 10.0, size=10):
                dm = discrete_moment(b4, j, float(u))
                assert abs(pm - dm) <= 1e-6, (j, u)

    def test_psi_low_orders(self, psi, rng):
        for j in (0, 1):
            pm = poisson_moment(psi, j, K=3)
            for u in rng.uniform(0.5, 10.0, size=10):
                assert abs(pm - discrete_moment(psi, j, float(u))) <= 1e-6

    def test_psi_higher_orders_carry_truncation_tail(self, psi):
        # m_2(psi, e^s) = -6 + s(1-s) has Fourier coefficients
        # -1/(2 pi^2 k^2) for k != 0, so the order-2 sum at K = 3 misses
        # m_2(psi, 1) = -6 by the tail 1/6 - (1 + 1/4 + 1/9)/pi^2; the
        # order-3 oscillation s(1-s)(1-2s) is a pure sine series, whose
        # partial sums vanish at u = 1, so order 3 gives 30 at every K
        pm = poisson_moment(psi, 2, K=3)
        dm = discrete_moment(psi, 2, 1.0)
        tail = 1.0 / 6.0 - (1.0 + 1.0 / 4.0 + 1.0 / 9.0) / math.pi ** 2
        assert abs((pm - dm) - tail) <= 1e-9
        assert abs(poisson_moment(psi, 3, K=3) - 30.0) <= 1e-9

    def test_order_cap(self, b4):
        with pytest.raises(ValueError):
            poisson_moment(b4, 5)

    @pytest.mark.parametrize("K", [-1, -4])
    def test_negative_frequency_bound_named(self, b4, K):
        with pytest.raises(ValueError, match=f"K={K}"):
            poisson_moment(b4, 2, K=K)

    @pytest.mark.parametrize("descriptor", ["bspline:4", "char",
                                            "translates:2:a=e^2,b=e^3"])
    def test_one_kernel_evaluation(self, descriptor, monkeypatch):
        # every frequency shares one rule and one evaluation, and the sum
        # is that of one transform call per frequency
        kernel = parse_kernel(descriptor)
        calls = []
        eval_log = Kernel.eval_log

        def counted(self, v):
            if self is kernel:
                calls.append(v)
            return eval_log(self, v)

        # a parsed kernel is shared and read-only: count on the class
        monkeypatch.setattr(Kernel, "eval_log", counted)
        for j in range(5):
            calls.clear()
            got = poisson_moment(kernel, j, K=3)
            assert len(calls) == 1
            total = sum(mellin_transform(
                kernel, MellinPoint(0.0, 2.0 * math.pi * k), order=j)
                for k in range(-3, 4))
            assert got == float(((-1) ** j * total).real)

    @pytest.mark.parametrize("descriptor, values", [
        ("bspline:4", ["0x1.ffffffffffff9p-1", "-0x1.0000000000000p-59",
                       "0x1.5555555555551p-2", "-0x1.b000000000000p-58",
                       "0x1.5518f69c06074p-2"]),
        ("translates:2:a=e^-2,b=e^-3", [
            "0x1.ffffffffffff8p-1", "-0x1.a000000000000p-53",
            "-0x1.7e28d73c0f638p+2", "0x1.dfffffffffffcp+4",
            "-0x1.cc075e48ca433p+6"])])
    def test_one_interval_keeps_its_values(self, descriptor, values):
        # a support of one interval gets one rule over all of it
        kernel = parse_kernel(descriptor)
        assert kernel.intervals == (kernel.support,)
        assert [poisson_moment(kernel, j).hex() for j in range(5)] == values

    def test_rule_skips_the_gap_between_terms(self, monkeypatch):
        # the two terms sit 131070 apart; the kernel is zero in between,
        # and the rule covers only the two term supports
        kernel = parse_kernel("translates:2:a=e^-65536,b=e^65536")
        assert kernel.intervals == ((-65537.0, -65535.0), (65535.0, 65537.0))
        points = []
        eval_log = Kernel.eval_log

        def counted(self, v):
            if self is kernel:
                points.append(len(v))
            return eval_log(self, v)

        monkeypatch.setattr(Kernel, "eval_log", counted)
        for j in range(5):
            poisson_moment(kernel, j)
        assert len(points) == 5 and sum(points) < 10 ** 4
        # the terms are the hat shifted by -+65536 with weight 1/2 each, so
        # m_0 = 1 and m_2 = 65536^2 + O(1); the nodes near |v| = 65536 are
        # placed to an ulp of 65536, 1.5e-11
        assert poisson_moment(kernel, 0) == pytest.approx(1.0, abs=1e-9)
        assert poisson_moment(kernel, 2) == pytest.approx(2.0 ** 32, rel=1e-10)

    def test_overlapping_and_touching_terms_merge(self):
        assert parse_kernel("translates:2:a=e^-1,b=e^1").intervals == (
            (-2.0, 2.0),)
        assert parse_kernel("translates:2:a=e^-3,b=e^3").intervals == (
            (-4.0, -2.0), (2.0, 4.0))


class TestVerifyKernel:
    def test_b4_b2_passes(self, b4, b2):
        report = verify_kernel(b4, b2, r=3)
        assert report.all_passed
        assert report.partition_of_unity.residual <= 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_partition_residual_at_roundoff(self, n):
        # the translates sum to 1 up to a few ulps of 1 when each spline
        # value is within an ulp of exact
        report = verify_kernel(mellin_bspline(n), mellin_bspline(n - 2), r=3)
        assert report.partition_of_unity.residual <= 1e-15

    def test_b2_characteristic_passes(self, b2, char):
        report = verify_kernel(b2, char, r=1)
        assert report.all_passed

    def test_characteristic_partition_is_exact(self, char, b2):
        # half-open indicator translates tile the line exactly, so the
        # discrete condition holds with zero residual
        report = verify_kernel(char, b2, r=1)
        assert report.partition_of_unity.passed
        assert report.partition_of_unity.residual == 0.0
        assert report.all_passed

    def test_psi_passes(self, psi, b2):
        report = verify_kernel(psi, b2, r=3)
        assert report.all_passed

    def test_report_strings(self, b4, b2):
        report = verify_kernel(b4, b2, r=2)
        for cond in report.conditions():
            assert "pass" in str(cond)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_tolerance_must_be_positive(self, b4, b2, tol):
        # otherwise every comparison with it fails and each check is FAIL
        with pytest.raises(ValueError, match="tol must be positive"):
            verify_kernel(b4, b2, tol=tol)

    def test_negative_order_named(self, b4, b2):
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            verify_kernel(b4, b2, r=-1)


class TestDescriptors:
    def test_bspline(self):
        kern = parse_kernel("bspline:4")
        assert kern.descriptor == "bspline:4"
        assert kern.support == (-2.0, 2.0)

    def test_char(self):
        assert parse_kernel("char").descriptor == "char"

    def test_translates_with_exponent_literals(self):
        kern = parse_kernel("translates:2:a=e^-2,b=e^-3")
        assert kern.coefficients == (3.0, -2.0)

    def test_translates_with_plain_reals(self):
        kern = parse_kernel("translates:2:a=0.5,b=2.0")
        c1, c2 = kern.coefficients
        assert c1 + c2 == pytest.approx(1.0)

    def test_bad_field_named(self):
        with pytest.raises(KernelError, match="'b'"):
            parse_kernel("translates:2:a=e^-2")

    def test_bad_value_named(self):
        with pytest.raises(KernelError, match="'a'"):
            parse_kernel("translates:2:a=zebra,b=2")

    def test_unknown(self):
        with pytest.raises(KernelError):
            parse_kernel("gauss:3")

    @pytest.mark.parametrize("descriptor", [
        "translates:2:a=2,b=3", "translates:2:a=e^1.5,b=e^3",
        "translates:2:a=1e-300,b=3", "translates:2:a=0.5,b=e^-2"])
    def test_descriptor_parses_back_to_the_kernel(self, descriptor):
        # a non-integral log is written e^<log>, never as the plain log
        kern = parse_kernel(descriptor)
        again = parse_kernel(kern.descriptor)
        assert again.terms == kern.terms
        assert again.descriptor == kern.descriptor

    def test_integral_logs_keep_their_text(self):
        for descriptor in ("translates:2:a=e^2,b=e^3",
                           "translates:4:a=e^-2,b=e^-3"):
            assert parse_kernel(descriptor).descriptor == descriptor

    @pytest.mark.parametrize("value", ["inf", "nan", "e^inf", "e^nan"])
    def test_non_finite_value_named(self, value):
        with pytest.raises(KernelError, match="field 'a' must be finite"):
            parse_kernel(f"translates:2:a={value},b=2")


# --- reference loops ---------------------------------------------------------
#
# Per-phase and per-root loops kept as independent oracles: one kernel call
# per phase, per bisection step, or per quadrature node.  A grid of phases
# can only bound a supremum from below, so the exact routes are checked to
# lie above each grid maximum and within the grid's own slope times its
# spacing of it.

def phase_moments(chi, j, log_u, absolute=False):
    """Discrete moments m_0 .. m_j of chi at u = e^{log_u} as direct
    lattice sums, one row per entry of log_u (shape (len(log_u), j + 1));
    absolute=True gives the sums of |chi(e^{-k} u)| |k - log u|^nu
    instead.  Every (phase, k) term is one point of a single kernel
    evaluation, over the k that reach a phase in [0, 1) and a margin of
    two: with one power numpy sums the k axis pairwise, in blocks of 8,
    so a window cut to the support would move m_0 by an ulp."""
    taus = np.mod(np.atleast_1d(np.asarray(log_u, dtype=float)), 1.0)
    powers = np.arange(j + 1)
    lo, hi = chi.support
    ks = np.arange(math.floor(0.5 - hi) - 2, math.ceil(0.5 - lo) + 3)
    d = ks - taus[:, None]
    vals = chi.eval_log(-d.ravel()).reshape(d.shape)
    if absolute:
        vals, d = np.abs(vals), np.abs(d)
    return np.sum(vals[:, :, None] * d[:, :, None] ** powers, axis=1)


def _loop_window(chi):
    """Every k with chi(tau - k) possibly nonzero for a tau in [0, 1)."""
    lo, hi = chi.support
    return np.arange(math.floor(-hi) - 1, math.ceil(1.0 - lo) + 2)


@functools.lru_cache(maxsize=None)
def _loop_absolute_discrete(kernel, phases=2048):
    """sum_k |chi(tau - k)| |k - tau|^nu on a grid of phases, one row per
    order 0..4."""
    ks = _loop_window(kernel)
    rows = []
    for tau in np.linspace(0.0, 1.0, phases, endpoint=False):
        vals = np.abs(kernel.eval_log(tau - ks))
        rows.append([float(np.sum(vals * np.abs(ks - tau) ** nu))
                     for nu in range(5)])
    return np.array(rows).T


def _brackets_supremum(sup, grid):
    """sup is at or above the maximum of the periodic grid of sums, up to
    roundoff, and within twice its steepest step of it: the supremum lies
    within half a grid spacing of a grid point."""
    steps = np.abs(np.diff(np.append(grid, grid[0])))
    top = grid.max()
    return top - 1e-14 * max(1.0, top) <= sup <= top + 2.0 * steps.max()


@functools.lru_cache(maxsize=None)
def _loop_sign_changes(kernel):
    lo, hi = kernel.support
    probe = np.linspace(lo, hi, 4096)
    vals = np.asarray(kernel.eval_log(probe), dtype=float)
    roots = []
    for i in range(len(probe) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0 or a * b >= 0:
            continue
        x0, x1 = probe[i], probe[i + 1]
        for _ in range(80):
            mid = 0.5 * (x0 + x1)
            if a * float(kernel.eval_log(mid)) <= 0:
                x1 = mid
            else:
                x0 = mid
        roots.append(0.5 * (x0 + x1))
    return tuple(roots)


def _loop_absolute_continuous(kernel, nu):
    knots = kernel.knots + _loop_sign_changes(kernel) + (0.0,)
    return integrate_log(
        lambda u: abs(kernel.eval_log(u)) * abs(u) ** nu,
        LogInterval(*kernel.support), DEFAULT_CONFIG, knots)


def _loop_partition(chi):
    ks = _loop_window(chi)
    worst = 0.0
    for tau in np.linspace(0.0, 1.0, 1000, endpoint=False):
        worst = max(worst, abs(float(np.sum(chi.eval_log(tau - ks))) - 1.0))
    return worst


def _loop_tail(chi, r):
    gamma = chi.log_support_radius
    tail = 0.0
    for tau in np.linspace(0.0, 1.0, 64, endpoint=False):
        far = np.arange(math.floor(tau - gamma) - 50, math.ceil(tau + gamma) + 51)
        far = far[np.abs(far - tau) > gamma]
        vals = np.abs(chi.eval_log(tau - far))
        tail = max(tail, float(np.sum(vals * np.abs(far - tau) ** r)))
    return tail


def _close(got, ref):
    # partition and tail residuals are differences of sums of order 1, so
    # they are compared on that scale
    return abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


EQUIVALENCE_KERNELS = [f"bspline:{n}" for n in range(1, 7)] + [
    "char", "translates:2:a=e^-2,b=e^-3",
    # non-integer logs: knots at two different phases mod 1
    "translates:3:a=2,b=3"]


def _stretched_hat():
    """1.5 B2: its integer translates sum to 1.5, not 1."""
    return Kernel("stretched", "1.5*bspline:2", 2, ((1.5, 1.0),))


def _psi_reference(v):
    """3 B2(v + 2) - 2 B2(v + 3) with B2 the hat 1 - |v|, written out."""
    hat = lambda x: np.maximum(0.0, 1.0 - np.abs(x))
    return 3.0 * hat(v + 2.0) - 2.0 * hat(v + 3.0)


class TestVectorisedRoutes:
    @pytest.mark.parametrize("descriptor", EQUIVALENCE_KERNELS)
    def test_absolute_moments_match_loops(self, descriptor):
        kernel = parse_kernel(descriptor)
        grids = _loop_absolute_discrete(kernel)
        for nu in range(5):
            assert _brackets_supremum(
                absolute_moment(kernel, nu, "discrete"), grids[nu]), nu
            assert absolute_moment(kernel, nu, "continuous") == pytest.approx(
                _loop_absolute_continuous(kernel, nu), rel=1e-13, abs=0.0), nu

    @pytest.mark.parametrize("descriptor", EQUIVALENCE_KERNELS)
    def test_verify_residuals_match_loops(self, descriptor, b2):
        chi = parse_kernel(descriptor)
        partition = _loop_partition(chi)
        for r in (1, 2, 3):
            report = verify_kernel(chi, b2, r=r)
            assert _close(report.partition_of_unity.residual, partition)
            assert report.tail_vanishing.residual == _loop_tail(chi, r) == 0.0
            continuous = _loop_absolute_continuous(b2, r)
            assert _brackets_supremum(
                report.moments_finite.residual - continuous,
                _loop_absolute_discrete(chi)[r])

    @pytest.mark.parametrize("count", [1, 512, 1029])
    def test_phase_blocks_match_loop(self, psi, count):
        # any number of phases, each read from its cell's polynomial
        log_u = np.linspace(-3.0, 7.0, count)
        got = np.array([lattice_moments(psi, nu, log_u)
                        for nu in range(5)]).T
        assert got.shape == (count, 5)
        ref = phase_moments(psi, 4, log_u)
        assert np.allclose(got, ref, rtol=1e-13, atol=1e-12)
        for row, lu in zip(got, log_u):
            tau = lu % 1.0
            ks = _loop_window(psi)
            vals = psi.eval_log(tau - ks)
            loop = [float(np.sum(vals * (ks - tau) ** nu)) for nu in range(5)]
            assert np.allclose(row, loop, rtol=1e-13, atol=1e-12)

    def test_batched_roots_match_scalar_bisection(self):
        # the absolute routes cut the pieces at the real roots of every
        # piece at once; the cuts inside the support that are neither
        # knots nor v = 0 are the sign changes a scalar bisection finds
        for descriptor in ("translates:2:a=e^2,b=e^3",
                           "translates:3:a=e^1,b=e^4",
                           "translates:5:a=1.7,b=9.1"):
            kernel = parse_kernel(descriptor)
            edges = _weighted_pieces(kernel, 0, absolute=True)[0]
            cuts = sorted(set(edges) - set(kernel.knots) - {0.0})
            ref = _loop_sign_changes(kernel)
            assert ref, descriptor
            assert np.allclose(cuts, ref, rtol=0.0, atol=1e-12), descriptor

    def test_line_roots_match_np_roots(self, rng):
        # a line is solved without the eigensolver, to the same result
        def reference(row, width):
            r = np.roots(row)
            return r.real[(r.imag == 0) & (r.real > 0) & (r.real < width)]

        rows = [(a, -a * float(x)) for a, x in
                zip(rng.normal(size=300), rng.uniform(-1.0, 3.0, 300))]
        rows += [tuple(rng.normal(size=2)) for _ in range(100)]
        rows += [(a, b) for a in (1.5, -2.0, 0.0, -0.0)
                 for b in (0.0, -0.0, 0.75, -0.75)]
        for a, b in rows:
            for width in (0.5, 1.0, 2.0):
                row = np.array([a, b])
                got, ref = _real_roots(row, width), reference(row, width)
                assert got.dtype == ref.dtype, (a, b)
                assert got.tobytes() == ref.tobytes(), (a, b)

    def test_piece_tables_are_built_once(self, psi, b2):
        # verify_kernel needs psi's plain pieces (for its roots), psi cut
        # at them and b2 cut at 0; the two absolute routes of psi that
        # follow reuse psi's tables, and no caller can write to them
        _pieces.cache_clear()
        _lattice_polynomials.cache_clear()
        verify_kernel(psi, b2, 3)
        absolute_moment(psi, 2, "discrete")
        absolute_moment(psi, 2, "continuous")
        assert _pieces.cache_info().misses == 3
        edges, rows = _pieces(psi, ())
        assert not edges.flags.writeable and not rows.flags.writeable

    def test_lattice_tables_are_built_once(self, psi, b2):
        # every moment caller reads one table per (kernel, nu, absolute):
        # verify_kernel builds (psi, 0, plain) and (psi, 3, absolute), the
        # discrete route (psi, 2, plain), a combined coefficient and its
        # size the plain table of order 1 and the absolute tables of
        # orders 0-2, and the rest reuse them
        _lattice_polynomials.cache_clear()
        verify_kernel(psi, b2, 3)
        discrete_moment(psi, 2, 1.7)
        _moment_terms(solve_coefficients(3), psi, b2, 2, 1.7)
        absolute_moment(psi, 2, "discrete")
        lattice_moments(psi, 0, [0.25, 0.5])
        info = _lattice_polynomials.cache_info()
        assert info.misses == 7 and info.currsize == 7
        cells, left, right = _lattice_polynomials(psi, 2, False)
        assert all(isinstance(t, tuple) for t in (cells, *left, *right))

    def test_failing_partition_reports_same_residual(self, b2):
        chi = _stretched_hat()
        report = verify_kernel(chi, b2, r=1)
        residual = report.partition_of_unity.residual
        assert not report.partition_of_unity.passed
        assert "partition of unity: FAIL" in str(report.partition_of_unity)
        assert residual == pytest.approx(0.5, abs=1e-15)
        assert _close(residual, _loop_partition(chi))


class TestExactSuprema:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_characteristic_supremum_is_one(self, char, nu):
        # sum_k |chi(tau - k)| |k - tau|^nu = tau^nu on [0, 1): the
        # supremum is the limit 1 as the phase tends to 1, which no grid
        # of phases reaches
        assert absolute_moment(char, nu, "discrete") == 1.0
        assert _loop_absolute_discrete(char)[nu].max() < 1.0

    def test_psi_order_two_matches_dense_oracle(self):
        # psi = 3 B2(e^2 x) - 2 B2(e^3 x): the 20000-phase sum of the
        # written-out kernel peaks at phase 0 with 3 * 2^2 + 2 * 3^2 = 30
        psi = parse_kernel("translates:2:a=e^2,b=e^3")
        ks = np.arange(-2, 8)[None, :]
        taus = np.linspace(0.0, 1.0, 20000, endpoint=False)[:, None]
        oracle = float(np.max(np.sum(
            np.abs(_psi_reference(taus - ks)) * (ks - taus) ** 2,
            axis=1)))
        assert oracle == 30.0
        assert absolute_moment(psi, 2, "discrete") == pytest.approx(
            30.0, rel=1e-15)

    def test_supremum_above_a_fine_grid(self):
        # knots at two phases mod 1: the suprema fall between the points
        # of a 2^20-phase grid
        kernel = parse_kernel("translates:5:a=1.7,b=9.1")
        expected = [1.4568950477930946, 1.3260118327392574,
                    2.1722942605351685, 4.731817195640128]
        ks = _loop_window(kernel)
        grid = np.empty((4, 2 ** 20))
        for start in range(0, 2 ** 20, 2 ** 15):
            taus = np.arange(start, start + 2 ** 15)[:, None] / 2.0 ** 20
            d = np.abs(ks - taus)
            vals = np.abs(kernel.eval_log(taus - ks))
            for nu in range(4):
                grid[nu, start:start + 2 ** 15] = np.sum(vals * d ** nu, axis=1)
        for nu in range(4):
            sup = absolute_moment(kernel, nu, "discrete")
            assert _brackets_supremum(sup, grid[nu]), nu
            assert sup == pytest.approx(expected[nu], rel=1e-14), nu

    def test_psi_phase_polynomials(self):
        # m_2(psi, e^s) = -6 + s - s^2 and m_3 = 30 + s - 3 s^2 + 2 s^3 on
        # the one cell [0, 1), highest power first
        psi = parse_kernel("translates:2:a=e^-2,b=e^-3")
        for nu, coeffs in ((2, [0.0, -1.0, 1.0, -6.0]),
                           (3, [0.0, 2.0, -3.0, 1.0, 30.0])):
            cells, table, _ = _lattice_polynomials(psi, nu, False)
            assert cells == (0.0, 1.0)
            assert np.allclose(table[0], coeffs, rtol=0.0, atol=1e-13)


# --- exact lattice moments ---------------------------------------------------

ORACLE_KERNELS = ["bspline:2", "bspline:4", "bspline:6", "char",
                  "translates:2:a=e^-2,b=e^-3", "translates:3:a=e^1,b=e^4",
                  "translates:5:a=1.7,b=9.1"]


class TestLatticeMomentAccuracy:
    # each moment read from the phase polynomials lies within 16 eps of
    # the exact absolute sum S of its terms: at seeded log u, at phases
    # 1e-9 inside every cell end (given in [0, 1), so the float is the
    # phase itself), and at log u = -42.0057, phase 0.9943, where B2
    # expanded about the left end of its cell only is 32-85 eps S off at
    # orders 3-4, and up to 5e8 eps S off 1e-9 before the end
    @pytest.mark.parametrize("descriptor", ORACLE_KERNELS)
    def test_within_16_eps_of_exact(self, descriptor):
        kernel = parse_kernel(descriptor)
        rng = random.Random(20261019)
        seeded = [rng.uniform(-60.0, 60.0) for _ in range(24)] + [-42.0057]
        eps = np.finfo(float).eps
        for nu in range(5):
            for absolute in (False, True):
                cells = _lattice_polynomials(kernel, nu, absolute)[0]
                log_u = (seeded + [p - 1e-9 for p in cells[1:]]
                         + [p + 1e-9 for p in cells[:-1]])
                got = lattice_moments(kernel, nu, log_u, absolute)
                for value, lu in zip(got.tolist(), log_u):
                    plain, size = exact_lattice_moment(kernel, nu, lu)
                    exact = size if absolute else plain
                    assert abs(Fraction(value) - exact) <= 16 * eps * size, (
                        nu, absolute, lu)

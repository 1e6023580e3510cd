"""Kernel evaluation, moments, and assumption checks.

Expected values here come from independent routes: the Cox-de Boor
recursion for spline values, raw lattice sums for discrete moments, and
hand integrals for the continuous ones (the hat-function moments
integral (1-|u|) u^nu du are 1, 0, 1/6, 0, 1/15 for nu = 0..4).
"""

import functools
import math

import numpy as np
import pytest

from expsample import (
    DEFAULT_CONFIG,
    Kernel,
    KernelError,
    LogInterval,
    absolute_moment,
    bspline_eval,
    characteristic,
    continuous_moment,
    discrete_moment,
    integrate_log,
    make_translate_combination,
    mellin_bspline,
    parse_kernel,
    poisson_moment,
    verify_kernel,
)
from expsample.kernels import (
    _PHASE_BLOCK,
    _k_window,
    _with_sign_change_knots,
    phase_moments,
)
from conftest import cox_de_boor, direct_discrete_moment, exact_bspline


class TestBsplineEvaluation:
    def test_outside_support(self):
        assert bspline_eval(2, math.exp(1.5)) == 0.0

    def test_hat_at_center(self):
        assert bspline_eval(2, 1.0) == 1.0

    def test_cubic_at_center(self):
        assert bspline_eval(4, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

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
            assert abs(kern(x) - kern(1.0 / x)) <= 1e-12

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
        lambda k: phase_moments(k, -1, 0.0),
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


# --- reference loops ---------------------------------------------------------
#
# The per-phase and per-root loops that the blocked array evaluations of
# kernels.py replaced, kept as oracles: one kernel call per phase, per
# bisection step, or per quadrature node.

def _loop_window(chi):
    ks = _k_window(chi, 0.5)
    return np.arange(ks[0] - 1, ks[-1] + 2)


@functools.lru_cache(maxsize=None)
def _loop_absolute_discrete(kernel):
    """Orders 0..4 from one pass over the phases."""
    best = [0.0] * 5
    ks = _loop_window(kernel)
    for tau in np.linspace(0.0, 1.0, 2048, endpoint=False):
        vals = np.abs(kernel.eval_log(tau - ks))
        for nu in range(5):
            best[nu] = max(best[nu], float(np.sum(vals * np.abs(ks - tau) ** nu)))
    return best


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


def _wave():
    """cos(2v) on |v| < 1.5: sign changes at -pi/4 and pi/4."""
    def eval_log(v):
        return np.where(np.abs(v) < 1.5, np.cos(2.0 * v), 0.0)
    return Kernel("wave", "wave", eval_log, (-1.5, 1.5), (-1.5, 1.5))


def _stretched_hat():
    """B2(v / 1.5) / 1.5: unit integral, but its integer translates do
    not sum to 1."""
    base = mellin_bspline(2)
    def eval_log(v):
        return base.eval_log(v / 1.5) / 1.5
    return Kernel("stretched", "stretched", eval_log, (-1.5, 1.5), (-1.5, 0.0, 1.5))


class TestVectorisedRoutes:
    @pytest.mark.parametrize("descriptor", EQUIVALENCE_KERNELS)
    def test_absolute_moments_match_loops(self, descriptor):
        kernel = parse_kernel(descriptor)
        for nu in range(5):
            assert absolute_moment(kernel, nu, "discrete") == pytest.approx(
                _loop_absolute_discrete(kernel)[nu], rel=1e-13, abs=0.0), nu
            assert absolute_moment(kernel, nu, "continuous") == pytest.approx(
                _loop_absolute_continuous(kernel, nu), rel=1e-13, abs=0.0), nu

    @pytest.mark.parametrize("descriptor", EQUIVALENCE_KERNELS)
    def test_verify_residuals_match_loops(self, descriptor, b2):
        chi = parse_kernel(descriptor)
        partition = _loop_partition(chi)
        for r in (1, 2, 3):
            report = verify_kernel(chi, b2, r=r)
            assert _close(report.partition_of_unity.residual, partition)
            assert _close(report.tail_vanishing.residual, _loop_tail(chi, r))
            moments = (_loop_absolute_discrete(chi)[r]
                       + _loop_absolute_continuous(b2, r))
            assert report.moments_finite.residual == pytest.approx(
                moments, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("count", [1, _PHASE_BLOCK, 2 * _PHASE_BLOCK + 5])
    def test_phase_blocks_match_loop(self, psi, count):
        # block boundaries fall inside the grid unless it is one block
        log_u = np.linspace(-3.0, 7.0, count)
        got = phase_moments(psi, 4, log_u)
        assert got.shape == (count, 5)
        for row, lu in zip(got, log_u):
            tau = lu % 1.0
            ks = np.arange(_k_window(psi, tau)[0], _k_window(psi, tau)[-1] + 1)
            vals = psi.eval_log(tau - ks)
            ref = [float(np.sum(vals * (ks - tau) ** nu)) for nu in range(5)]
            assert np.allclose(row, ref, rtol=1e-13, atol=1e-12)

    def test_batched_roots_match_scalar_bisection(self):
        kernel = _wave()
        ref = _loop_sign_changes(kernel)
        got = sorted(set(_with_sign_change_knots(kernel).knots) - set(kernel.knots))
        assert len(ref) == 2
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12)
        assert np.allclose(got, [-math.pi / 4, math.pi / 4], rtol=0.0, atol=1e-12)

    def test_failing_partition_reports_same_residual(self, b2):
        chi = _stretched_hat()
        report = verify_kernel(chi, b2, r=1)
        residual = report.partition_of_unity.residual
        assert not report.partition_of_unity.passed
        assert "partition of unity: FAIL" in str(report.partition_of_unity)
        assert residual > 0.1
        assert _close(residual, _loop_partition(chi))

"""Log-domain quadrature, derivatives, and the numerical transform."""

import ast
import inspect
import math

import numpy as np
import pytest

from expsample import (
    EvaluationError,
    LogInterval,
    QuadratureConfig,
    integrate_log,
    mellin_bspline,
    mellin_transform,
    parse_kernel,
)
from expsample import quadrature
from expsample.quadrature import _leggauss, log_rule
from oracles import mellin_derivative


class TestIntegrateLog:
    def test_constant(self):
        assert integrate_log(lambda u: 1.0, LogInterval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_quadratic(self):
        got = integrate_log(lambda u: u * u, LogInterval(0.0, 1.0))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_gaussian_reference(self):
        # the tail beyond |u| = 6 contributes ~2e-17, below the tolerance,
        # so the full-line value sqrt(pi) serves as the reference
        got = integrate_log(lambda u: math.exp(-u * u), LogInterval(-6.0, 6.0))
        assert abs(got - math.sqrt(math.pi)) <= 1e-12

    def test_linearity(self, rng):
        iv = LogInterval(-1.0, 2.0)
        for _ in range(20):
            c1 = rng.uniform(-3, 3, size=4)
            c2 = rng.uniform(-3, 3, size=4)
            alpha = float(rng.uniform(-5, 5))
            g1 = lambda u, c=c1: float(np.polyval(c, u))
            g2 = lambda u, c=c2: float(np.polyval(c, u))
            both = integrate_log(lambda u: alpha * g1(u) + g2(u), iv)
            i1 = integrate_log(g1, iv)
            i2 = integrate_log(g2, iv)
            assert abs(both - (alpha * i1 + i2)) <= 1e-14 * (1 + abs(alpha * i1) + abs(i2))

    def test_polynomial_exactness(self, rng):
        # the panel floor is 4 Gauss points, exact through degree 7
        iv = LogInterval(-0.7, 1.3)
        for deg in range(8):
            coeffs = rng.uniform(-2, 2, size=deg + 1)
            got = integrate_log(lambda u: float(np.polyval(coeffs, u)), iv)
            exact = float(np.polyval(np.polyint(coeffs), iv.hi)
                          - np.polyval(np.polyint(coeffs), iv.lo))
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)

    def test_deterministic(self):
        cfg = QuadratureConfig(nodes_per_unit=17, panel_max_width=0.3)
        a = integrate_log(lambda u: math.sin(u), LogInterval(0, 3), cfg)
        b = integrate_log(lambda u: math.sin(u), LogInterval(0, 3), cfg)
        assert a == b

    def test_nonfinite_integrand_named(self):
        with pytest.raises(EvaluationError, match="u="):
            integrate_log(lambda u: float("nan"), LogInterval(0, 1))

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            LogInterval(2.0, 1.0)
        with pytest.raises(ValueError):
            LogInterval(0.0, math.inf)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes_per_unit=1)
        with pytest.raises(ValueError):
            QuadratureConfig(panel_max_width=0.0)

    def test_nan_settings_named(self):
        # rejected where they are set, not later by numpy's Gauss-Legendre
        # rule ("deg must be a positive integer"); inf means no panel cap
        with pytest.raises(ValueError, match="panel_max_width"):
            QuadratureConfig(panel_max_width=math.nan)
        with pytest.raises(ValueError, match="nodes_per_unit"):
            QuadratureConfig(nodes_per_unit=math.nan)
        nodes, weights = log_rule(LogInterval(0.0, 1.0),
                                  QuadratureConfig(panel_max_width=math.inf))
        assert math.isclose(float(np.sum(weights)), 1.0)

    # cells of width 2.1 cut into three panels of 0.7, where nodes_per_unit
    # times the computed panel width lands within an ulp of an integer
    @pytest.mark.parametrize("npu, lo, hi", [
        (10, 2.0015274656746715, 4.101527465674671),
        (20, -5.120295069127259, -3.02029506912726),
        (60, -7.915755126950804, -5.815755126950805)])
    def test_equal_panels_get_equal_point_counts(self, npu, lo, hi):
        nodes, _ = log_rule(LogInterval(lo, hi), QuadratureConfig(npu, 0.7))
        counts = np.histogram(nodes, np.linspace(lo, hi, 4))[0]
        assert counts.tolist() == [counts[0]] * 3


class TestRuleBudget:
    """panel_counts refuses a rule beyond MAX_RULE_DOUBLES nodes or its
    square root points per panel, naming both settings, before any rule
    is built; it is plain arithmetic, so these requests build nothing."""

    @pytest.mark.parametrize("widths, cfg", [
        # --w 1e-9: the one cell of a B2 phi is 1e9 log units wide
        ([1.0 / 1e-9], QuadratureConfig()),
        # --panel-max-width 1e-9: 1e8 panels on a cell of width 0.1
        ([0.1], QuadratureConfig(20, 1e-9)),
        # --nodes-per-unit 20000: 14000 points, a 14000 x 14000 matrix
        ([0.1], QuadratureConfig(20000, 0.5)),
        # one panel of 2e10 points
        ([1e9], QuadratureConfig(20, 1e9)),
        # a panel count past float range
        ([0.1], QuadratureConfig(20, 1e-320)),
    ], ids=["w", "panel-max-width", "nodes-per-unit", "wide-panel", "inf"])
    def test_unbounded_request_is_refused(self, widths, cfg):
        with pytest.raises(ValueError) as exc:
            quadrature.panel_counts(widths, cfg)
        assert str(exc.value) == (
            f"nodes_per_unit={cfg.nodes_per_unit} and panel_max_width="
            f"{cfg.panel_max_width!r} ask for a quadrature rule beyond "
            f"1048576 nodes or 1024 points per panel on cells up to "
            f"{max(widths):.6g} wide")

    def test_budget_admits_the_settings_in_use(self):
        assert quadrature.MAX_RULE_DOUBLES == 2 ** 20
        # --w 0.002 on a B2 phi, and nodes_per_unit 200
        assert quadrature.panel_counts([500.0], QuadratureConfig()) == (
            [1000], [14])
        assert quadrature.panel_counts([0.1], QuadratureConfig(200, 0.5)) \
            == ([1], [140])

    @pytest.mark.parametrize("widths, cfg, admitted", [
        # 1024 points per panel, 1024^2 doubles in _leggauss: the edge
        ([0.1], QuadratureConfig(1462, 0.5), True),
        ([0.1], QuadratureConfig(1463, 0.5), False),
        # 74898 panels of 14 points: 1048572 nodes
        ([37449.0], QuadratureConfig(), True),
        ([37449.5], QuadratureConfig(), False),
    ])
    def test_edges_of_the_budget(self, widths, cfg, admitted):
        if admitted:
            panels, points = quadrature.panel_counts(widths, cfg)
            assert max(points) ** 2 <= 2 ** 20
            assert sum(m * n for m, n in zip(panels, points)) <= 2 ** 20
        else:
            with pytest.raises(ValueError, match="ask for a quadrature rule"):
                quadrature.panel_counts(widths, cfg)


class TestGaussLegendreRule:
    def test_matches_numpy(self):
        for n in range(1, 201):
            x, w = _leggauss(n)
            ref_x, ref_w = np.polynomial.legendre.leggauss(n)
            assert np.allclose(x, ref_x, rtol=0.0, atol=1e-15), n
            assert np.allclose(w, ref_w, rtol=0.0, atol=1e-15), n

    # every panel of the default configuration has 14 points; for larger n
    # the node error of a double-precision rule, amplified k times by x^k,
    # reaches about 2e-13 at n = 40..100
    @pytest.mark.parametrize("n", range(1, 17))
    def test_exact_for_monomials(self, n):
        x, w = _leggauss(n)
        for k in range(2 * n):
            got = float(np.sum(w * x**k))
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            scale = float(np.sum(np.abs(w * x**k)))
            assert abs(got - exact) <= 1e-14 * scale, (k, got, exact)

    @pytest.mark.parametrize("n", [1, 2, 5, 14, 33, 100])
    def test_symmetric_with_unit_mass(self, n):
        x, w = _leggauss(n)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0) and np.all(w > 0)
        assert float(np.sum(w)) == pytest.approx(2.0, rel=1e-15)

    def test_builds_without_numpy_polynomial(self):
        tree = ast.parse(inspect.getsource(quadrature))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "polynomial"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", "") or ""]
                assert not any("polynomial" in name for name in names)


class TestMellinDerivative:
    def test_constant_is_zero(self):
        assert mellin_derivative(lambda x: 4.2, 1.7, 1) == pytest.approx(0.0, abs=1e-10)

    def test_identity_function(self):
        # x f'(x) = x, so the log-derivative of f(x) = x at x = 2 is 2;
        # truncation for f(e^u) = e^u at h = 1e-3 is h^2/6 * f = 3.3e-7
        got = mellin_derivative(lambda x: x, 2.0, 1)
        assert got == pytest.approx(2.0, rel=1e-6)

    def test_log_squared(self):
        # f(e^u) = u^2: the central stencil is exact on quadratics
        got = mellin_derivative(lambda x: math.log(x) ** 2, math.e, 1)
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_second_order_convergence(self):
        f = lambda x: math.sin(math.log(x))
        exact = math.cos(math.log(2.0))
        e1 = abs(mellin_derivative(f, 2.0, 1, h=2e-3) - exact)
        e2 = abs(mellin_derivative(f, 2.0, 1, h=1e-3) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_higher_orders_on_sinlog(self, r):
        f = lambda x: math.sin(math.log(x))
        cycle = [math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.sin]
        exact = cycle[r - 1](math.log(3.0))
        assert mellin_derivative(f, 3.0, r) == pytest.approx(exact, abs=5e-5)

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            mellin_derivative(lambda x: x, 1.0, 7)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            mellin_derivative(lambda x: x, 1.0, 1, h=0.0)


class TestMellinTransform:
    def test_unit_mass_at_origin(self):
        for n in range(1, 7):
            got, = mellin_transform(mellin_bspline(n), [0j])
            assert abs(got - 1.0) <= 1e-10

    def test_bspline2_at_t1(self):
        got, = mellin_transform(mellin_bspline(2), [1j])
        ref = (math.sin(0.5) / 0.5) ** 2
        assert abs(got - ref) <= 1e-12

    def test_bspline4_at_t2(self):
        got, = mellin_transform(mellin_bspline(4), [2j])
        ref = (math.sin(1.0) / 1.0) ** 4
        assert abs(got - ref) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    def test_identity_grid(self, n, t):
        got, = mellin_transform(mellin_bspline(n), [complex(0.0, t)])
        ref = (math.sin(t / 2) / (t / 2)) ** n
        assert abs(got - ref) <= 1e-8

    @pytest.mark.parametrize("descriptor", [
        *(f"bspline:{n}" for n in range(1, 7)), "char",
        "translates:2:a=e^2,b=e^3", "translates:5:a=1.7,b=9.1"])
    @pytest.mark.parametrize("order", range(5))
    def test_point_list_equals_single_calls(self, descriptor, order, rng):
        kernel = parse_kernel(descriptor)
        points = [complex(0.0, 2.0 * math.pi * k) for k in range(-3, 4)]
        points += [complex(c, t) for c, t in
                   zip(rng.uniform(-1.0, 1.0, 4), rng.uniform(-9.0, 9.0, 4))]
        got = mellin_transform(kernel, points, order=order)
        assert got == [mellin_transform(kernel, [p], order=order)[0]
                       for p in points]

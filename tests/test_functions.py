"""Builtin test functions and their closed-form log derivatives."""

import math

import numpy as np
import pytest

from expsample import ExpSampleError, builtin, function_from_spec
from oracles import default_step, mellin_derivative


class TestBuiltins:
    def test_const(self):
        f = builtin("const:3")
        assert f(0.1) == 3.0
        assert f(57.0) == 3.0
        assert f.growth_bound == (3.0, 0.0) and f.admissible

    def test_fig1_value(self):
        f = builtin("fig1")
        assert f(0.5) == pytest.approx(-0.25, abs=1e-15)

    def test_fig2_value(self):
        f = builtin("fig2")
        assert f(1.0) == pytest.approx(math.exp(-math.sin(1.0)), rel=1e-14)

    def test_logsq_second_derivative_constant(self):
        f = builtin("logsq")
        for x in (0.3, 1.0, 7.7):
            assert f.log_derivative(2)(x) == 2.0

    def test_sinlog_growth_bound(self):
        f = builtin("sinlog")
        assert f.admissible
        a, b = f.growth_bound
        assert abs(f(math.exp(3.0))) <= a + b * 3.0

    def test_unknown_name(self):
        with pytest.raises(ExpSampleError, match="unknown builtin"):
            builtin("nope")

    def test_bad_const(self):
        with pytest.raises(ExpSampleError):
            builtin("const:abc")

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            builtin("sinlog")(-1.0)


class TestAnalyticDerivativesMatchFiniteDifferences:
    # C bounds |fd - analytic| <= C h^2 over x in [0.5, 10] at the default
    # step of each order; C scales with the (r+2)-nd log-derivative of the
    # function, which for fig1 grows like (2 pi x)^{r+2} x^2
    CONSTANTS = {"sinlog": 5.0, "logsq": 5.0, "fig1": 1e9, "const:2.5": 1.0}

    @pytest.mark.parametrize("name,orders", [
        ("sinlog", (1, 2, 3, 4)),
        ("logsq", (1, 2)),
        ("fig1", (1, 2)),
        ("const:2.5", (1, 2)),
    ])
    def test_agreement(self, name, orders, rng):
        f = builtin(name)
        for r in orders:
            h = default_step(r)
            bound = self.CONSTANTS[name] * h * h
            analytic = f.log_derivative(r)
            assert analytic is not None
            for x in rng.uniform(0.5, 10.0, size=100):
                x = float(x)
                fd = mellin_derivative(f, x, r, h=h)
                assert abs(fd - analytic(x)) <= bound, (name, r, x)

    def test_halving_step_quarters_error(self):
        f = builtin("sinlog")
        x = 2.0
        exact = f.log_derivative(1)(x)
        e1 = abs(mellin_derivative(f, x, 1, h=2e-3) - exact)
        e2 = abs(mellin_derivative(f, x, 1, h=1e-3) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)


class TestFunctionSpecs:
    def test_name_spec(self):
        assert function_from_spec("name:fig1")(0.5) == pytest.approx(-0.25)

    def test_expr_spec(self):
        f = function_from_spec("expr:x^2")
        assert f(3.0) == 9.0

    def test_bad_prefix(self):
        with pytest.raises(ExpSampleError, match="name:"):
            function_from_spec("fig1")


class TestOneEvaluator:
    """f at a point is the same double whether it is evaluated alone, in
    a chunk or with all points: the engine, the fx column and a float
    call all read the one array evaluator, so fx equals f(x) and the
    engine's point-by-point pass meets the values of its array call."""

    @pytest.mark.parametrize("spec", [
        "name:fig1", "name:fig2", "name:sinlog", "name:logsq",
        "name:const:2.5", "expr:x^2*cos(2*pi*x)",
        "expr:x^(-3)*exp(-sin(x^2))"])
    def test_values_do_not_depend_on_the_other_points(self, spec):
        f = function_from_spec(spec)
        rng = np.random.default_rng(20261022)
        xs = np.exp(rng.uniform(-3.0, 3.0, 20000))
        whole = f(xs)
        assert whole.tolist() == [f(x) for x in xs.tolist()]
        # chunks of the sizes of a profile pass (1501, 301) and of SIMD
        # tails, then 40 random cuts
        sizes = np.cumsum([1501, 301, 7, 1, 2, 3, 5, 8, 15, 16, 17, 33])
        cuts = np.union1d(sizes, rng.integers(sizes[-1], xs.size, 40))
        assert np.concatenate([f(part) for part in np.split(xs, cuts)]
                              ).tolist() == whole.tolist()

"""Expression parsing, printing, and evaluation."""

import math

import numpy as np
import pytest

from expsample import (EvaluationError, OperatorSpec, ParseError,
                       durrmeyer_eval, parse_function)
from expsample.expr import parse_expression
from oracles import to_source, walk_expression


class TestParsing:
    def test_polynomial_times_cosine(self):
        f = parse_function("x^2 * cos(2*pi*x)")
        assert f(1.0) == pytest.approx(1.0, abs=1e-14)

    def test_negative_power_composition(self):
        f = parse_function("x^(-3) * exp(-sin(x^2))")
        assert f(1.0) == pytest.approx(math.exp(-math.sin(1.0)), rel=1e-14)

    def test_trailing_operator_offset(self):
        with pytest.raises(ParseError) as err:
            parse_function("2 +")
        assert err.value.offset == 3

    @pytest.mark.parametrize("src, offset", [("2²", 1), ("x^²", 2)])
    def test_superscript_digit_is_not_a_number(self, src, offset):
        with pytest.raises(ParseError) as err:
            parse_function(src)
        assert err.value.offset == offset

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'y'"):
            parse_function("y + 1")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_function("sinh(x)")

    def test_arity(self):
        with pytest.raises(ParseError, match="exactly one argument"):
            parse_function("sin(x, 2)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_function("(x + 1")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_function("   ")

    def test_scientific_notation(self):
        f = parse_function("1.5e-2 * x")
        assert f(2.0) == pytest.approx(0.03)

    def test_power_right_associative(self):
        f = parse_function("2^3^2")
        assert f(1.0) == 512.0

    def test_unary_minus_binds_looser_than_power(self):
        f = parse_function("-x^2")
        assert f(3.0) == -9.0

    def test_constants(self):
        f = parse_function("e^2 + pi")
        assert f(1.0) == pytest.approx(math.e ** 2 + math.pi)


class TestEvaluation:
    def test_negative_base_fractional_power(self):
        f = parse_function("(x - 2)^0.5")
        with pytest.raises(EvaluationError):
            f(1.0)

    def test_negative_base_integer_power_ok(self):
        f = parse_function("(x - 3)^3")
        assert f(1.0) == -8.0

    def test_log_domain(self):
        f = parse_function("log(x - 5)")
        with pytest.raises(EvaluationError):
            f(2.0)

    def test_division_by_zero(self):
        f = parse_function("1 / (x - 1)")
        with pytest.raises(EvaluationError):
            f(1.0)

    def test_error_names_the_point_once(self, b4, b2):
        # a call gives numpy's cause only, for a float as for an array;
        # the engine, which evaluates point by point after a failed array
        # call, names the point
        f = parse_function("1/(x-2)")
        for x in (2.0, np.array([1.0, 2.0])):
            with pytest.raises(
                    EvaluationError,
                    match=r"^divide by zero encountered in divide$"):
                f(x)
        pole = parse_function("1/(x-2.045485878677874)")
        with pytest.raises(EvaluationError) as exc:
            durrmeyer_eval(OperatorSpec(b4, b2, 10.0), pole, 2.5)
        assert str(exc.value) == (
            "evaluating f at t=2.045485878677874 inside the convolution "
            "window around s=e^0.8: divide by zero encountered in divide")


ROUND_TRIP_SOURCES = [
    "x^2 * cos(2*pi*x)",
    "x^(-3) * exp(-sin(x^2))",
    "1 + 2*x - 3/x + x^0.5",
    "sqrt(abs(x - 2)) + tan(x/10)",
    "-x + (-(x^2)) * 1e-3",
    "log(x) * log(x) / (1 + x)",
    "2^-3 + x^2^2",
    "sin(cos(exp(1/x)))",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_print_parse_round_trip(src, rng):
    # the compiled form of the printed source against the independent
    # walk of the parsed AST, to 1e-12 relative or absolute: the two
    # differ by a few ulp per operation at most
    ast = parse_expression(src)
    xs = rng.uniform(0.5, 10.0, size=100)
    reparsed = parse_function(to_source(ast))(xs)
    for x, b in zip(xs.tolist(), reparsed.tolist()):
        assert b == pytest.approx(walk_expression(ast, x), rel=1e-12,
                                  abs=1e-12)

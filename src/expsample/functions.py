"""Test functions on the positive reals.

A RealFunction bundles an evaluator with optional closed-form derivatives
in the log coordinate (order r maps to the r-fold application of
g -> x g'(x)).  Builtins cover the functions used throughout the test and
acceptance suites; arbitrary expressions come in through parse_function.

Every function has one evaluator, which maps a float array to the array
of its values (numpy ufuncs for the builtins, the compiled form for
expressions).  Calls accept a float or a numpy array of points; a float
is a one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import EvaluationError, ExpSampleError


@dataclass(frozen=True)
class RealFunction:
    """An evaluable map from the positive reals to the reals.

    evaluator maps a float array to the float array of values.
    analytic_log_derivatives maps derivative order (in the log coordinate)
    to a closed-form function; an instrument that needs an absent order
    (voronovskaya_check) raises.  growth_bound = (a, b) declares
    |f(e^v)| <= a + b|v|; a bounded function declares (sup|f|, 0).
    """

    evaluator: Callable
    name: str
    analytic_log_derivatives: dict = field(default_factory=dict)
    growth_bound: Optional[tuple] = None

    def __call__(self, x):
        """f at x, a float (giving a float) or a numpy array (giving an
        array of its shape).  Overflow, division by zero and invalid
        operations in the evaluator raise an EvaluationError that gives
        numpy's cause only; a caller that needs the failing point
        evaluates point by point, as operators.f_values does."""
        scalar = not isinstance(x, np.ndarray)
        xs = np.asarray([x] if scalar else x, dtype=float)
        if not np.all(xs > 0):
            bad = float(xs[~(xs > 0)].flat[0])
            raise ValueError(f"{self.name} is defined on positive reals, got x={bad!r}")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                values = self.evaluator(xs)
        except FloatingPointError as exc:
            raise EvaluationError(str(exc)) from None
        return float(values[0]) if scalar else values

    def log_derivative(self, order):
        """Closed-form derivative of the given order, or None."""
        return self.analytic_log_derivatives.get(order)

    @property
    def admissible(self):
        """Whether a declared growth bound justifies the operator series
        converging; purely informational."""
        return self.growth_bound is not None


def parse_function(src):
    """Parse an expression string into a RealFunction.

    The grammar is documented in docs/expr.md.  The resulting function has
    no closed-form derivatives and no declared growth bound.
    """
    compiled = _expr.compile_expression(_expr.parse_expression(src))

    def evaluator(x):
        # evaluate is read at call time, so a wrapper put there sees
        # every point
        return _expr.evaluate(compiled, x)

    return RealFunction(evaluator=evaluator, name=src.strip())


def _fig1_d1(x):
    tp = 2.0 * math.pi
    return 2.0 * x * x * math.cos(tp * x) - tp * x**3 * math.sin(tp * x)


def _fig1_d2(x):
    tp = 2.0 * math.pi
    return (4.0 * x * x * math.cos(tp * x)
            - 10.0 * math.pi * x**3 * math.sin(tp * x)
            - tp * tp * x**4 * math.cos(tp * x))


_BUILTINS = {}


def _register(name, fn):
    _BUILTINS[name] = fn
    return fn


_register("fig1", RealFunction(
    evaluator=lambda x: x * x * np.cos(2.0 * np.pi * x),
    name="fig1",
    analytic_log_derivatives={1: _fig1_d1, 2: _fig1_d2},
))

_register("fig2", RealFunction(
    evaluator=lambda x: np.exp(-np.sin(x * x)) / x**3, name="fig2"))

_register("sinlog", RealFunction(
    evaluator=lambda x: np.sin(np.log(x)),
    name="sinlog",
    analytic_log_derivatives={
        1: lambda x: math.cos(math.log(x)),
        2: lambda x: -math.sin(math.log(x)),
        3: lambda x: -math.cos(math.log(x)),
        4: lambda x: math.sin(math.log(x)),
    },
    growth_bound=(1.0, 0.0),
))

_register("logsq", RealFunction(
    evaluator=lambda x: np.log(x) ** 2,
    name="logsq",
    analytic_log_derivatives={
        1: lambda x: 2.0 * math.log(x),
        2: lambda x: 2.0,
        3: lambda x: 0.0,
        4: lambda x: 0.0,
    },
))


def builtin(name):
    """Look up a builtin test function by name.

    Known names: fig1 (x^2 cos(2 pi x)), fig2 (x^-3 e^{-sin x^2}),
    sinlog (sin log x), logsq (log^2 x), and const:<value>.
    """
    if name.startswith("const:"):
        try:
            v = float(name.split(":", 1)[1])
        except ValueError:
            raise ExpSampleError(f"bad constant in builtin name {name!r}") from None
        orders = {r: (lambda x, _v=0.0: 0.0) for r in range(1, 7)}
        return RealFunction(
            evaluator=lambda x, _v=v: np.full(x.shape, _v),
            name=name,
            analytic_log_derivatives=orders,
            growth_bound=(abs(v), 0.0),
        )
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS) + ["const:<v>"])
        raise ExpSampleError(f"unknown builtin {name!r}; known: {known}") from None


def function_from_spec(spec):
    """Resolve a CLI function spec: 'name:<builtin>' or 'expr:<string>'."""
    if spec.startswith("name:"):
        return builtin(spec[5:])
    if spec.startswith("expr:"):
        return parse_function(spec[5:])
    raise ExpSampleError(
        f"function spec {spec!r} must start with 'name:' or 'expr:'")

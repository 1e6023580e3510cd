"""Property tests: the shared-lattice engine against the pointwise
composition, the compiled expression form against an independent AST
walker, the evaluation of every f point by point against one array
call, and the printer against the parser."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expsample import (
    EvaluationError,
    OperatorSpec,
    RealFunction,
    builtin,
    characteristic,
    durrmeyer_eval,
    mellin_bspline,
    parse_function,
    parse_kernel,
)
from expsample.expr import (
    Binary,
    Call,
    Const,
    Num,
    Unary,
    Var,
    compile_expression,
    evaluate,
    parse_expression,
)
from oracles import (mellin_convolution, series_oracle, to_source,
                     walk_expression)
from test_expr import ROUND_TRIP_SOURCES

# --- engine ------------------------------------------------------------------

B = {n: mellin_bspline(n) for n in range(2, 7)}
CHAR = characteristic()
PSI = parse_kernel("translates:2:a=e^2,b=e^3")
# non-integer logs: knots on two phases that are not multiples of 1/2
MIXED = parse_kernel("translates:2:a=2,b=3")

PAIRS = [(B[n], B[n]) for n in range(2, 7)] + [
    (B[4], B[3]), (B[3], B[2]), (B[2], CHAR), (CHAR, CHAR),
    (PSI, B[2]), (MIXED, B[2]), (B[4], MIXED),
]


def reference(chi, phi, w, f, x):
    """The pointwise composition: the sampling series of the convolution
    means, each mean on its own window, summed by the scalar loop that
    shares no code with the engine."""
    return series_oracle(chi, lambda t: mellin_convolution(phi, f, w, t),
                         w, x)


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(PAIRS),
       w=st.one_of(st.floats(0.5, 2.0, exclude_max=True),
                   st.floats(2.0, 200.0)),
       xs=st.lists(st.floats(0.2, 20.0), min_size=1, max_size=4))
def test_engine_matches_pointwise_composition(pair, w, xs):
    # f = sin log is bounded by 1, so the tolerance is relative to
    # max(1, |value|)
    chi, phi = pair
    f = builtin("sinlog")
    spec = OperatorSpec(chi, phi, w)
    batch = durrmeyer_eval(spec, f, np.array(xs))
    for x, value in zip(xs, batch.tolist()):
        single = durrmeyer_eval(spec, f, x)
        ref = reference(chi, phi, w, f, x)
        assert abs(value - single) <= 1e-11 * max(1.0, abs(single))
        assert abs(single - ref) <= 1e-11 * max(1.0, abs(ref))


SCALES = st.one_of(st.floats(0.5, 1.43), st.floats(2.0, 200.0))


@settings(max_examples=80, deadline=None)
@given(pair=st.sampled_from(PAIRS),
       points=st.lists(st.tuples(st.floats(0.2, 20.0), SCALES),
                       min_size=1, max_size=6),
       repeat=st.booleans(),
       radius=st.one_of(st.none(), st.floats(0.0, 2.0)))
def test_mixed_scales_match_per_pair_calls(pair, points, repeat, radius):
    # pairs (x, w) with any mix of scales: small w (more panels per cell)
    # next to w > 2, translates with knots on two phases as phi, several x
    # at one w, and a finite truncation radius.  A value depends only on
    # (spec, f, x, w), so each is the same double as the pair's own call
    chi, phi = pair
    if repeat:
        points = points + [(2.0 * points[0][0], points[0][1])]
    spec = OperatorSpec(chi, phi, 1.0, truncation_radius=None if radius is None
                        else chi.log_support_radius + radius)
    f = parse_function("2 + sin(log(x))")
    xs, ws = (np.array(v) for v in zip(*points))
    values = durrmeyer_eval(spec, f, xs, ws)
    for x, w, value in zip(xs.tolist(), ws.tolist(), values.tolist()):
        assert value == durrmeyer_eval(spec, f, x, w)


@pytest.mark.parametrize("chi,phi,fn,ws,xs,tol", [
    (B[4], B[4], "fig1", (25.0, 45.0, 90.0),
     (3.55, 3.98, 4.22, 4.85, 5.35), 1e-12),
    (B[4], B[2], "fig2", (10.0,), (1.75, 2.10, 2.85, 3.45, 3.95), 1e-12),
    (PSI, B[2], "sinlog", (50.0, 200.0, 800.0, 1600.0),
     (1.6, 2.0, math.e, 5.0, 5.9), 1e-11),
])
def test_engine_on_published_pairs(chi, phi, fn, ws, xs, tol):
    f = builtin(fn)
    for w in ws:
        values = durrmeyer_eval(OperatorSpec(chi, phi, w), f, np.array(xs))
        for x, value in zip(xs, values.tolist()):
            ref = reference(chi, phi, w, f, x)
            assert abs(value - ref) <= tol * abs(ref), (x, w)


@settings(max_examples=60, deadline=None)
@given(pair=st.sampled_from(PAIRS), w=st.floats(2.0, 200.0),
       xs=st.lists(st.floats(0.5, 5.0), min_size=1, max_size=3),
       r=st.floats(-0.5, 0.5))
def test_error_names_a_window_that_weights_t(pair, w, xs, r):
    # f = log(t - c) fails at every node t <= c, with c within half a
    # lattice period of the first x; the window the error names must
    # weight the named t and carry a nonzero chi weight at that w
    chi, phi = pair
    c = xs[0] * math.exp(r / w)
    f = parse_function(f"log(x - {c!r})")
    try:
        durrmeyer_eval(OperatorSpec(chi, phi, w), f, np.array(xs))
    except EvaluationError as exc:
        found = re.search(r"t=(\S+) inside the convolution window around "
                          r"s=e\^(\S+):", str(exc))
    else:
        assume(False)
    t, k = float(found[1]), round(w * float(found[2]))
    assert t <= c
    assert phi.eval_log(w * math.log(t) - k) != 0.0
    assert any(chi.eval_log(w * math.log(x) - k) != 0.0 for x in xs)


# --- expressions -------------------------------------------------------------

_LEAVES = st.one_of(
    st.floats(0.0, 1e6).map(Num),
    st.just(Var()),
    st.sampled_from([Const("pi"), Const("e")]),
)


def _extend(children):
    return st.one_of(
        children.map(lambda a: Unary("-", a)),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(
            ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]), children),
    )


ASTS = st.recursive(_LEAVES, _extend, max_leaves=8)

# seeded points and the domain edges of the expressions here: zero and
# negative arguments of log, sqrt, / and fractional powers, overflow of
# exp and ^, and the edges of the double range; f is defined on the
# positive reals, and at a finite x numpy flags every step that makes a
# value non-finite
WALK_XS = [1.0, 2.0, 5e-324, 1e-300, 1e300, 709.8, 710.0,
           *np.random.default_rng(20261019).uniform(0.0, 100.0, 24).tolist()]

# per-operation difference allowed between numpy and the math calls of
# the walk
_U = 4 * 2.0 ** -52


class _WalkFails(Exception):
    """The walk raises at a step; decided tells whether the outcome of
    every step on the way is decided (_walk_with_spread)."""

    def __init__(self, decided):
        super().__init__(decided)
        self.decided = decided


def _walk_with_spread(node, x):
    """The walk's value of node at x, a bound on how far a last-ulp
    difference in every operation can move it (forward propagation),
    and whether every step is decided: each operand is off 0 by more
    than its spread, so that a sign, a zero divisor or a domain edge
    there is the same for numpy.  Where the walk raises, _WalkFails."""
    if isinstance(node, (Num, Var, Const)):
        return walk_expression(node, x), 0.0, True
    operands = [_walk_with_spread(child, x) for child in node
                if isinstance(child, tuple)]
    decided = all(d and (e == 0.0 or e < abs(a)) for a, e, d in operands)
    try:
        v = walk_expression(node, x)
    except EvaluationError:
        raise _WalkFails(decided) from None
    if isinstance(node, Unary):
        return v, operands[0][1], decided
    if isinstance(node, Call):
        (a, ea, _), = operands
        if node.name in ("sin", "cos"):
            e = min(2.0, ea)
        elif node.name == "tan":
            e = 2.0 * ea * (1.0 + v * v) if ea * (1.0 + v * v) < 0.1 else math.inf
        elif node.name == "exp":
            e = abs(v) * math.expm1(ea) if ea < 700 else math.inf
        elif node.name == "log":
            e = ea / (a - ea) if a > ea else math.inf
        elif node.name == "sqrt":
            e = ea / (v + math.sqrt(max(a - ea, 0.0))) if v > 0 else math.sqrt(ea)
        else:
            e = ea
        return v, e + _U * abs(v), decided
    (a, ea, _), (b, eb, _) = operands
    if node.op in "+-":
        e = ea + eb
    elif node.op == "*":
        # an unbounded factor leaves the product unbounded (not 0 * inf)
        e = (abs(a) * eb + abs(b) * ea + ea * eb if math.isfinite(ea + eb)
             else math.inf)
    elif node.op == "/":
        e = (ea + abs(v) * eb) / (abs(b) - eb) if abs(b) > eb else math.inf
    elif a > ea:
        r = abs(b) * ea / (a - ea) + abs(math.log(a)) * eb
        e = abs(v) * math.expm1(r) if r < 700 else math.inf
    else:
        e = 0.0 if ea == eb == 0.0 else math.inf
    return v, e + _U * abs(v), decided


def _finite_steps(node, x):
    """Whether every subexpression of node has a finite value at x; the
    walk evaluates without error there."""
    return math.isfinite(walk_expression(node, x)) and all(
        _finite_steps(child, x) for child in node if isinstance(child, tuple))


def _assert_compiled_matches_the_walk(ast, xs):
    """The compiled form, called as every f is called, at the array xs
    against the independent walk of the AST at each x: within 1e-13
    relative plus twice the propagated spread of a few ulp per
    operation.  Where the walk raises at a decided step numpy raises
    too; numpy also raises at a step that the walk carries through as a
    non-finite value (an overflow to inf, inf - inf).  Where a step is
    undecided, either may raise."""
    f = RealFunction(evaluator=functools.partial(
        evaluate, compile_expression(ast)), name=to_source(ast))
    try:
        walked = [_walk_with_spread(ast, x) for x in xs]
    except _WalkFails as exc:
        if exc.decided:
            with pytest.raises(EvaluationError):
                f(np.array(xs))
        return
    try:
        got = f(np.array(xs))
    except EvaluationError:
        assert not all(d and _finite_steps(ast, x)
                       for x, (_, _, d) in zip(xs, walked)), (
            to_source(ast), xs)
        return
    for (value, spread, _), a in zip(walked, got.tolist()):
        if not math.isfinite(value):
            assert a == value or (math.isnan(a) and math.isnan(value))
        else:
            assert abs(a - value) <= 1e-13 * abs(value) + 2.0 * spread, (
                to_source(ast), xs)


@settings(max_examples=300, deadline=None)
@given(ast=ASTS)
# both operands fail below x = 3, each with its own cause
@example(ast=parse_expression("log(x - 3) + sqrt(x - 4)"))
def test_compiled_scalar_form_is_the_ast_walk(ast):
    # the compiled form one point at a time, at the domain edges
    for x in WALK_XS:
        _assert_compiled_matches_the_walk(ast, [x])


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_compiled_scalar_form_is_the_ast_walk_on_sources(src):
    for x in WALK_XS:
        _assert_compiled_matches_the_walk(parse_expression(src), [x])


@settings(max_examples=300, deadline=None)
@given(ast=ASTS, xs=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4))
@example(ast=parse_expression("exp(-exp(1000))"), xs=[1.0])
@example(ast=parse_expression("log(x - 5)"), xs=[7.0, 2.0])
@example(ast=parse_expression("x^2 * cos(2*pi*x)"), xs=[0.5, 3.2, 6.1])
def test_compiled_expression_matches_scalar(ast, xs):
    # the compiled form on arrays of points against the scalar walk
    _assert_compiled_matches_the_walk(ast, xs)


def test_overflow_inside_a_finite_value_raises():
    # plain numpy maps exp(-exp(1000)) to 0.0 with only a warning; a call
    # of f must raise, as the walk does
    with np.errstate(over="ignore"):
        assert np.exp(-np.exp(np.array([1000.0])))[0] == 0.0
    with pytest.raises(EvaluationError):
        walk_expression(parse_expression("exp(-exp(1000))"), 1.0)
    f = parse_function("exp(-exp(1000))")
    for x in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(EvaluationError,
                           match="^overflow encountered in exp$"):
            f(x)


@settings(max_examples=300, deadline=None)
@given(ast=ASTS)
def test_to_source_round_trips(ast):
    assert parse_expression(to_source(ast)) == ast

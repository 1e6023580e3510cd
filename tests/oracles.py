"""Scalar oracles that the library does not use.

Each computes one value point by point, on its own code path: the
convolution mean of f on its own knot-aligned rule, the sampling series
as a loop over k, the integral-mean (Kantorovich) form as a loop over k
of plain means, the log-coordinate derivative by central finite
differences, an expression's value by a walk over its AST, and a
kernel's lattice moments exactly, in rational arithmetic, from its own
truncated-power B-spline.  Beside them stand restatements of what the
library only defines: an AST printed back to source, the residuals of
the combination coefficient system, and the run-record digest of
docs/cli.md.  They may import from expsample only its errors and its
quadrature rules; tests/test_oracles_independent.py checks that, that
the printer and the digest use no library name at all, and that the
package defines none of the names here.
"""

import hashlib
import json
import math
import operator
from fractions import Fraction

import numpy as np

from expsample.errors import EvaluationError
from expsample.quadrature import DEFAULT_CONFIG, LogInterval, log_rule


def _convolution_log(phi, f, w, log_s, cfg):
    """w * int phi(t^w / s^w) f(t) dt/t with log s given directly."""
    lo, hi = phi.support
    iv = LogInterval(log_s + lo / w, log_s + hi / w)
    knots = tuple(log_s + k / w for k in phi.knots)
    nodes, weights = log_rule(iv, cfg, knots)
    phis = np.asarray(phi.eval_log(w * (nodes - log_s)), dtype=float)
    total = 0.0
    for u, wt, pv in zip(nodes, weights, phis):
        if pv == 0.0:
            continue
        t = math.exp(u)
        try:
            fv = f(t)
        except EvaluationError as exc:
            raise EvaluationError(
                f"evaluating f at t={t!r} inside the convolution window "
                f"around s=e^{log_s:.6g}: {exc}") from exc
        if not math.isfinite(fv):
            raise EvaluationError(
                f"non-finite value of f at t={t!r} inside the "
                f"convolution window around s=e^{log_s:.6g}")
        total += wt * pv * fv
    return float(w * total)


def mellin_convolution(phi, f, w, s, cfg=DEFAULT_CONFIG):
    """Convolution mean of f against the scaled kernel w phi(u^w), centred
    at s > 0.  Reproduces constants exactly whenever phi integrates to 1."""
    if s <= 0:
        raise ValueError("s must be positive")
    return _convolution_log(phi, f, w, math.log(s), cfg)


def series_oracle(chi, g, w, x):
    """The sampling series sum_k chi(e^{-k} x^w) g(e^{k/w}) at one x > 0,
    summed k by k from the left over the integers with
    chi(e^{-k} x^w) != 0."""
    lo, hi = chi.support
    tc = (w * np.log(np.array([x], dtype=float)))[0]
    ks = np.arange(int(np.floor(tc - hi)), int(np.ceil(tc - lo)) + 1)
    weights = np.asarray(chi.eval_log(tc - ks), dtype=float)
    total = 0.0
    for k, cw in zip(ks.tolist(), weights):
        if cw == 0.0:
            continue
        total += cw * g(math.exp(k / w))
    return float(total)


def kantorovich_eval(chi, f, w, x, cfg=DEFAULT_CONFIG):
    """The integral-mean form sum_k chi(e^{-k} x^w) w int_{k/w}^{(k+1)/w}
    f(e^u) du at one x > 0, written out directly rather than through a
    phi kernel: the operator with phi = char, summed k by k from the left
    over the integers with chi(e^{-k} x^w) != 0."""
    lo, hi = chi.support
    tc = (w * np.log(np.array([x], dtype=float)))[0]
    ks = np.arange(int(np.floor(tc - hi)), int(np.ceil(tc - lo)) + 1)
    weights = np.asarray(chi.eval_log(tc - ks), dtype=float)
    total = 0.0
    for k, cw in zip(ks.tolist(), weights):
        if cw == 0.0:
            continue
        inner = 0.0
        for u, wt in zip(*log_rule(LogInterval(k / w, (k + 1) / w), cfg)):
            t = math.exp(u)
            try:
                fv = f(t)
            except EvaluationError as exc:
                raise EvaluationError(
                    f"evaluating f at t={t!r} in the mean over "
                    f"[{k}/{w}, {k + 1}/{w}]: {exc}") from exc
            if not math.isfinite(fv):
                raise EvaluationError(
                    f"non-finite value of f at t={t!r} in the "
                    f"mean over [{k}/{w}, {k + 1}/{w}]")
            inner += wt * fv
        total += cw * w * inner
    return float(total)


def _truncated_power_bspline(n, s):
    """N_n(s) for a Fraction s, exactly: the truncated-power form
    sum_j (-1)^j C(n, j) (s - j)_+^(n-1) / (n-1)!, zero outside [0, n)."""
    if not 0 <= s < n:
        return Fraction(0)
    total = sum((-1) ** j * math.comb(n, j) * (s - j) ** (n - 1)
                for j in range(n + 1) if s >= j)
    return total / math.factorial(n - 1)


def exact_lattice_moment(kernel, nu, log_u):
    """The lattice moment sum_k sum_i c_i N_n(tau - k + o_i) (k - tau)^nu
    and the matching absolute sum sum_k |chi(tau - k)| |k - tau|^nu, as
    exact Fractions at the exact phase tau of the float log_u.  The kernel
    is read as data only: its order n and its terms (c_i, o_i)."""
    tau = Fraction(log_u) % 1
    n = kernel.order
    terms = [(Fraction(c), Fraction(o)) for c, o in kernel.terms]
    ks = sorted({k for _, o in terms
                 for k in range(math.ceil(tau + o - n), math.floor(tau + o) + 1)})
    plain = absolute = Fraction(0)
    for k in ks:
        value = sum(c * _truncated_power_bspline(n, tau - k + o)
                    for c, o in terms)
        plain += value * (k - tau) ** nu
        absolute += abs(value) * abs(k - tau) ** nu
    return plain, absolute


# Central finite-difference stencils of accuracy order 2.
# offsets are in units of the step h; dividing by h**r gives the derivative.
_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    5: ((-3, -2, -1, 1, 2, 3), (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5)),
    6: ((-3, -2, -1, 0, 1, 2, 3), (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0)),
}

# Truncation error shrinks with h while roundoff grows like eps/h^r, so the
# sweet spot moves right as the order goes up.
_DEFAULT_STEPS = {1: 1e-3, 2: 1e-3, 3: 1e-2, 4: 1e-2, 5: 3e-2, 6: 3e-2}


def default_step(r):
    """Default finite-difference step (in log units) for derivative order r."""
    return _DEFAULT_STEPS[r]


def mellin_derivative(f, x, r=1, h=None):
    """r-th derivative of u -> f(e^u) at u = log x, by central differences.

    For a function on the positive reals this equals the r-fold application
    of the operator g -> x g'(x), i.e. the derivative taken in the log
    coordinate.  Accuracy order 2 in h.
    """
    if r < 1 or r > 6:
        raise ValueError(f"derivative order r={r} outside supported range 1..6")
    if h is None:
        h = default_step(r)
    if h <= 0:
        raise ValueError("step h must be positive")
    if x <= 0:
        raise ValueError("x must be positive")
    u0 = math.log(x)
    offsets, coeffs = _STENCILS[r]
    acc = 0.0
    for k, c in zip(offsets, coeffs):
        acc += c * f(math.exp(u0 + k * h))
    return acc / h**r


_WALK_CALLS = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
               "exp": math.exp, "log": math.log, "sqrt": math.sqrt,
               "abs": abs}
_WALK_OPERATORS = {"+": operator.add, "-": operator.sub,
                   "*": operator.mul, "/": operator.truediv, "^": math.pow}


def walk_expression(node, x):
    """The value of an expression AST at x, node by node: the AST walker
    the library once had.  It dispatches on the class name of a node and
    raises EvaluationError with the cause only, as the compiled form does."""
    kind = type(node).__name__
    if kind == "Num":
        return node.value
    if kind == "Var":
        return x
    if kind == "Const":
        return {"pi": math.pi, "e": math.e}[node.name]
    if kind == "Unary":
        return -walk_expression(node.operand, x)
    if kind == "Binary":
        a = walk_expression(node.left, x)
        b = walk_expression(node.right, x)
        try:
            return _WALK_OPERATORS[node.op](a, b)
        except ZeroDivisionError:
            raise EvaluationError("division by zero") from None
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(
                f"'{node.op}' failed for ({a!r}, {b!r}): {exc}") from None
    if kind == "Call":
        v = walk_expression(node.arg, x)
        try:
            return _WALK_CALLS[node.name](v)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{node.name}({v!r}) failed: {exc}") from None
    raise TypeError(f"not an AST node: {node!r}")


def to_source(node):
    """An expression AST rendered back to parseable source, conservatively
    parenthesized.  Like walk_expression, it dispatches on the class name
    of a node."""
    kind = type(node).__name__
    if kind == "Num":
        return repr(node.value)
    if kind == "Var":
        return "x"
    if kind == "Const":
        return node.name
    if kind == "Unary":
        return f"(-{to_source(node.operand)})"
    if kind == "Binary":
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if kind == "Call":
        return f"{node.name}({to_source(node.arg)})"
    raise TypeError(f"not an AST node: {node!r}")


def residuals(spec):
    """The residual of each equation sum_i beta_i / i^k = [k == 0],
    k = 0 .. p-1, of a combination's coefficients, in float."""
    return [sum(b / i ** k for i, b in enumerate(spec.beta, start=1))
            - (1.0 if k == 0 else 0.0) for k in range(len(spec.beta))]


def config_digest(record):
    """The digest of a run record as docs/cli.md defines it: the first 16
    hex digits of the SHA-256 of its canonical JSON (sorted keys,
    separators ',' and ':', strict)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

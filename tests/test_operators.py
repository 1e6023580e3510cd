"""Operator evaluation: convolution means, the sampling series of them,
and the dual-route checks that keep them honest."""

import csv
import dataclasses
import io
import math
import os

import numpy as np
import pytest

from expsample import (
    EvaluationError,
    OperatorSpec,
    QuadratureConfig,
    batch_eval,
    builtin,
    combined_eval,
    durrmeyer_eval,
    function_from_spec,
    parse_function,
    parse_kernel,
    solve_coefficients,
    write_batch_csv,
)
from expsample import operators
from expsample.operators import BATCH_CSV_COLUMNS
from conftest import dense_config_oracle, pointwise, simpson_operator_oracle
from oracles import kantorovich_eval, mellin_convolution, series_oracle
from test_analysis import _counting


ALL_PAIRS = [
    ("bspline:4", "bspline:4"),
    ("bspline:4", "bspline:2"),
    ("translates:2:a=e^-2,b=e^-3", "bspline:2"),
    ("bspline:2", "char"),
]


def _nan_below_5():
    """log(t - 5), whose evaluators return nan at t <= 5 instead of
    raising, so that the engine, not f, names the offending node."""
    return pointwise(lambda t: math.log(t - 5.0) if t > 5.0 else math.nan,
                     "log(t - 5)")


def _pair(b2, b4, char, psi, chi_d, phi_d):
    table = {"bspline:2": b2, "bspline:4": b4, "char": char,
             "translates:2:a=e^-2,b=e^-3": psi}
    return table[chi_d], table[phi_d]


class TestMellinConvolution:
    def test_constant(self, b2, char, rng):
        c = builtin("const:-2.5")
        for phi in (b2, char):
            for _ in range(5):
                s = float(rng.uniform(0.3, 5.0))
                w = float(rng.uniform(1.0, 40.0))
                assert mellin_convolution(phi, c, w, s) == pytest.approx(-2.5, abs=1e-12)

    def test_characteristic_log_mean(self, char):
        got = mellin_convolution(char, lambda t: math.log(t), 1.0, 1.0)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_expansion_is_exact(self, b2):
        # log^2 t integrates against the scaled hat exactly to mhat_2/w^2
        got = mellin_convolution(b2, builtin("logsq"), 10.0, 1.0)
        assert got == pytest.approx(1.0 / 600.0, abs=1e-15)

    def test_error_carries_location(self, b2):
        f = parse_function("log(x - 5)")
        with pytest.raises(EvaluationError, match="t="):
            mellin_convolution(b2, f, 2.0, 2.0)


class TestDurrmeyer:
    @pytest.mark.parametrize("chi_d,phi_d", ALL_PAIRS)
    @pytest.mark.parametrize("c", [-1.0, 0.0, 7.5])
    @pytest.mark.parametrize("w", [5.0, 50.0])
    def test_constant_reproduction(self, b2, b4, char, psi, chi_d, phi_d, c, w):
        chi, phi = _pair(b2, b4, char, psi, chi_d, phi_d)
        spec = OperatorSpec(chi, phi, w)
        f = builtin(f"const:{c}")
        for x in (0.7, 2.0, 9.3):
            assert abs(durrmeyer_eval(spec, f, x) - c) <= 1e-10

    def test_linearity(self, b4, b2, rng):
        spec = OperatorSpec(b4, b2, 12.0)
        f = builtin("sinlog")
        g = builtin("logsq")
        for _ in range(5):
            alpha = float(rng.uniform(-4, 4))
            x = float(rng.uniform(0.7, 6.0))
            combo = pointwise(lambda t: alpha * f(t) + g(t))
            lhs = durrmeyer_eval(spec, combo, x)
            rhs = alpha * durrmeyer_eval(spec, f, x) + durrmeyer_eval(spec, g, x)
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))

    def test_matches_simpson_oracle(self, b4, b2):
        f = builtin("sinlog")
        for x, w in [(2.0, 8.0), (3.7, 15.0), (0.9, 30.0)]:
            ours = durrmeyer_eval(OperatorSpec(b4, b2, w), f, x)
            ref = simpson_operator_oracle(b4, b2, w, f, x)
            assert ours == pytest.approx(ref, abs=5e-8)

    def test_matches_dense_config_oracle(self, b4, b2, rng):
        f = builtin("fig2")
        spec = OperatorSpec(b4, b2, 1.0)
        for _ in range(20):
            x = float(rng.uniform(1.2, 4.0))
            w = float(rng.uniform(5.0, 60.0))
            ours = durrmeyer_eval(spec, f, x, w)
            ref = dense_config_oracle(dataclasses.replace(spec, w=w), f, x)
            assert abs(ours - ref) <= 1e-8

    def test_locality(self, b4, b2):
        # a bump outside the combined support window cannot change the value
        f = builtin("sinlog")
        x, w = 2.0, 10.0
        r_chi = b4.log_support_radius
        r_phi = b2.log_support_radius
        cut = (r_chi + r_phi + 1.0) / w

        def patched(t):
            if abs(math.log(t) - math.log(x)) > cut:
                return f(t) + 100.0 * math.sin(37.0 * t)
            return f(t)

        spec = OperatorSpec(b4, b2, w)
        assert durrmeyer_eval(spec, pointwise(patched), x) == durrmeyer_eval(
            spec, f, x)

    def test_truncation_radius_validation(self, b4, b2):
        with pytest.raises(ValueError, match="truncation_radius"):
            OperatorSpec(b4, b2, 10.0, truncation_radius=1.0)

    def test_truncation_radius_drops_only_zero_terms(self, b4, b2):
        # the engine does not read the radius (here twice the support
        # radius of chi), so the oracle of the golden tables gives the
        # values of the exact window, bit for bit
        f = builtin("fig2")
        cfg = QuadratureConfig(nodes_per_unit=200)
        xs = np.linspace(1.2, 4.8, 50)[:, None]
        ws = [10.0, 25.0, 90.0]
        plain = durrmeyer_eval(OperatorSpec(b4, b2, 1.0, quadrature=cfg),
                               f, xs, ws)
        narrowed = durrmeyer_eval(OperatorSpec(
            b4, b2, 1.0, truncation_radius=4.0, quadrature=cfg), f, xs, ws)
        assert plain.shape == (50, 3)
        assert np.array_equal(plain, narrowed)

    def test_bad_w(self, b4, b2):
        with pytest.raises(ValueError):
            OperatorSpec(b4, b2, 0.0)

    def test_array_x(self, b4, b2):
        spec = OperatorSpec(b4, b2, 12.0)
        f = builtin("fig2")
        xs = np.array([[0.4, 3.0], [1.7, 250.0]])
        got = durrmeyer_eval(spec, f, xs)
        assert got.shape == xs.shape
        for x, value in zip(xs.ravel(), got.ravel()):
            scalar = durrmeyer_eval(spec, f, float(x))
            assert abs(value - scalar) <= 1e-13 * abs(scalar)
        assert durrmeyer_eval(spec, f, np.array([])).shape == (0,)

    def test_far_apart_x_form_clusters(self, b4):
        # w log x spans about 1.4e6 lattice periods; the points form two
        # clusters instead of one node grid over the whole span
        spec = OperatorSpec(b4, b4, 1e6)
        f = builtin("sinlog")
        got = durrmeyer_eval(spec, f, np.array([0.5, 2.0]))
        for x, value in zip((0.5, 2.0), got.tolist()):
            scalar = durrmeyer_eval(spec, f, x)
            assert abs(value - scalar) <= 1e-13 * abs(scalar)

    @pytest.mark.parametrize("xs,w,points", [
        (np.array([round(3.1 + i * 0.002, 12) for i in range(1501)]), 45.0,
         532),
        (np.geomspace(1.0, 1e3, 1501), 1e4, 147084),
    ])
    def test_overlapping_windows_share_f_samples(self, b4, xs, w, points):
        # one array call, one sample per period node that some needed
        # window weights: a node set per window would sample the nodes
        # where windows overlap once per window
        f, calls = _counting(builtin("sinlog"))
        durrmeyer_eval(OperatorSpec(b4, b4, w), f, xs)
        assert calls == [points]

    @pytest.mark.parametrize("descriptor", [
        "bspline:2", "bspline:4", "translates:2:a=e^2,b=e^3"])
    @pytest.mark.parametrize("holes", [False, True])
    def test_needed_windows_match_a_sort_of_every_entry(self, descriptor,
                                                        holes, rng):
        # pairs at repeated and mixed scales, some x repeated; with holes,
        # interior entries are dropped as an exact zero of chi would drop
        # them (psi has one between its knots)
        chi = parse_kernel(descriptor)
        xs = np.concatenate([rng.uniform(0.3, 8.0, 300), [2.0, 2.0, 5.0]])
        ws = rng.choice([0.7, 3.0, 45.0, 200.0], xs.size)
        tc, kmin, kmax = operators._windows(chi, ws, xs)
        ks = kmin[:, None] + np.arange(int((kmax - kmin).max()) + 1)
        needed = ((np.asarray(chi.eval_log(tc[:, None] - ks)) != 0.0)
                  & (ks <= kmax[:, None]))
        if holes:
            needed &= rng.uniform(size=needed.shape) > 0.2
        entry_w = np.broadcast_to(ws[:, None], ks.shape)[needed]
        entry_k = ks[needed]
        order = np.lexsort((entry_k, entry_w))
        new = np.ones(order.size, dtype=bool)
        new[1:] = ((entry_w[order][1:] != entry_w[order][:-1])
                   | (entry_k[order][1:] != entry_k[order][:-1]))
        index = np.empty_like(order)
        index[order] = new.cumsum() - 1
        win_w, win_k, window_of = operators._needed_windows(
            ws, tc, kmin, kmax, needed)
        assert np.array_equal(win_w, entry_w[order][new])
        assert np.array_equal(win_k, entry_k[order][new])
        assert np.array_equal(window_of, index)

    def test_window_beyond_integer_precision_raises(self, b4):
        # w log 2 = 6.9e16 > 2^52: the old code returned 0.42597 for 0.63896
        f = builtin("sinlog")
        spec = OperatorSpec(b4, b4, 1e17)
        message = r"w log x = 6\.93147e\+16 for w=1e\+17, x=2\.0: .*2\^52"
        with pytest.raises(EvaluationError, match=message):
            durrmeyer_eval(spec, f, 2.0)

    def test_window_below_integer_precision_evaluates(self, b4):
        # w log 2 = 6.9e14 < 2^52: the lattice indices are still exact
        f = builtin("sinlog")
        value = durrmeyer_eval(OperatorSpec(b4, b4, 1e15), f, 2.0)
        assert abs(value - f(2.0)) <= 1e-14

    def test_array_x_validation(self, b4, b2):
        spec = OperatorSpec(b4, b2, 12.0)
        with pytest.raises(ValueError, match="positive"):
            durrmeyer_eval(spec, builtin("sinlog"), np.array([1.0, -2.0]))
        with pytest.raises(ValueError, match="positive"):
            durrmeyer_eval(spec, builtin("sinlog"), 0.0)

    def test_error_names_t_and_window(self, b2):
        spec = OperatorSpec(b2, b2, 2.0)
        for f in (parse_function("log(x - 5)"), _nan_below_5()):
            with pytest.raises(EvaluationError, match="t=.*window around s="):
                durrmeyer_eval(spec, f, np.array([10.0, 2.0]))

    def test_error_names_t_and_window_in_a_w_sweep(self, b2):
        # only the w = 2 pairs reach t <= 5; the window named is the one
        # at that scale (k = 3, s = e^{3/2}), not one of the w = 50 pairs
        spec = OperatorSpec(b2, b2, 1.0)
        for f in (parse_function("log(x - 5)"), _nan_below_5()):
            with pytest.raises(EvaluationError,
                               match=r"t=2\.727.*window around s=e\^1\.5\b"):
                durrmeyer_eval(spec, f, 6.0, np.array([50.0, 2.0, 50.0]))

    def test_window_guard_names_the_offending_scale(self, b4):
        spec = OperatorSpec(b4, b4, 10.0)
        with pytest.raises(EvaluationError,
                           match=r"for w=1e\+17, x=2\.0: .*2\^52"):
            durrmeyer_eval(spec, builtin("sinlog"), 2.0, [10.0, 1e17])

    def test_w_broadcasts_against_x(self, b4, b2):
        spec = OperatorSpec(b4, b2, 12.0)
        f = builtin("fig2")
        xs = np.array([1.7, 3.0])
        ws = np.array([[12.0], [40.0], [0.9]])
        got = durrmeyer_eval(spec, f, xs, ws)
        assert got.shape == (3, 2)
        for i, w in enumerate(ws.ravel()):
            for j, x in enumerate(xs):
                scalar = durrmeyer_eval(spec, f, float(x), float(w))
                assert abs(got[i, j] - scalar) <= 1e-13 * abs(scalar)
        assert isinstance(durrmeyer_eval(spec, f, 2.0, 30.0), float)
        with pytest.raises(ValueError, match="w must be positive"):
            durrmeyer_eval(spec, f, xs, np.array([12.0, -1.0]))


class TestKantorovich:
    def test_constant(self, b2):
        assert kantorovich_eval(b2, builtin("const:3"), 9.0, 1.4) == pytest.approx(3.0, abs=1e-12)

    def test_agrees_with_characteristic_durrmeyer(self, b2, char, rng):
        # the mean-value form and the convolution form are the same
        # operator; the two independent code paths must coincide
        f = builtin("sinlog")
        for _ in range(20):
            x = float(rng.uniform(0.6, 8.0))
            w = float(rng.uniform(2.0, 80.0))
            a = kantorovich_eval(b2, f, w, x)
            b = durrmeyer_eval(OperatorSpec(b2, char, w), f, x)
            assert abs(a - b) <= 1e-10

    def test_error_carries_location(self, char):
        f = parse_function("log(x-5)")
        with pytest.raises(EvaluationError, match="t="):
            kantorovich_eval(char, f, 10.0, 2.0)

    def test_first_order_constant_on_logsq(self, b2):
        # w (I_w f - f)(x) approaches (1/2) theta f = log x; the order-2
        # coefficient oscillates with u but is damped by 1/w
        f = builtin("logsq")
        x, w = 2.0, 400.0
        scaled = w * (kantorovich_eval(b2, f, w, x) - f(x))
        assert scaled == pytest.approx(math.log(x), rel=5e-3)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("which", ["x", "w"])
    def test_every_form_rejects_what_durrmeyer_rejects(self, b4, bad, which):
        f = builtin("sinlog")
        spec = OperatorSpec(b4, b4, 10.0)
        x, w = (bad, 10.0) if which == "x" else (2.0, bad)
        with pytest.raises(ValueError) as expected:
            durrmeyer_eval(spec, f, x, w)
        assert str(expected.value).startswith(f"{which} must be")
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            combined_eval(solve_coefficients(3), spec, f, x, w)
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            batch_eval(spec, f, [(x, w)])


SAMPLING_KERNELS = [f"bspline:{n}" for n in range(1, 7)] + [
    "char", "translates:2:a=e^-2,b=e^-3", "translates:5:a=1.7,b=9.1"]


class TestSampling:
    @pytest.mark.parametrize("descriptor", SAMPLING_KERNELS)
    def test_callable_matches_scalar_series(self, descriptor, b2, rng):
        # the operator is the sampling series of the convolution means
        # around the nodes e^{k/w}.  Both sides integrate on the same
        # Gauss-Legendre panels between phi's knots and differ only in
        # the rounding of the nodes and of the order of the sums: 1e-12
        # of the size of the values is far above that
        f = builtin("fig2")
        chi = parse_kernel(descriptor)
        for x, w in zip(rng.uniform(1.2, 4.0, 3).tolist(),
                        rng.uniform(5.0, 60.0, 3).tolist()):
            composed = series_oracle(
                chi, lambda t: mellin_convolution(b2, f, w, t), w, x)
            direct = durrmeyer_eval(OperatorSpec(chi, b2, w), f, x)
            assert abs(composed - direct) <= 1e-12 * max(1.0, abs(direct)), (
                x, w)

    def test_factorization(self, b4, rng):
        # the same identity with every descriptor in the convolution role
        # phi and B4 sampling the means, at the same bound
        f = builtin("fig2")
        for descriptor in SAMPLING_KERNELS:
            phi = parse_kernel(descriptor)
            for x, w in zip(rng.uniform(1.2, 4.0, 3).tolist(),
                            rng.uniform(5.0, 60.0, 3).tolist()):
                composed = series_oracle(
                    b4, lambda t: mellin_convolution(phi, f, w, t), w, x)
                direct = durrmeyer_eval(OperatorSpec(b4, phi, w), f, x)
                assert abs(composed - direct) <= 1e-12 * max(1.0, abs(direct)), (
                    descriptor, x, w)


class TestBatch:
    def test_rows_and_csv(self, b4, b2, tmp_path):
        spec = OperatorSpec(b4, b2, 10.0)
        f = builtin("sinlog")
        points = [(2.0, 10.0), (2.0, 20.0), (3.0, 10.0)]
        rows = batch_eval(spec, f, points)
        assert [r[:2] for r in rows] == points
        for x, w, fx, val, err in rows:
            assert err == abs(fx - val)
        path = tmp_path / "batch.csv"
        write_batch_csv(rows, str(path))
        text = path.read_text().splitlines()
        assert text[0] == "x,w,fx,Iwfx,abs_err"
        assert len(text) == 1 + len(points)

    def test_rows_match_scalar_eval(self, b4, b2):
        # one array evaluation per w gives each point's scalar value
        spec = OperatorSpec(b4, b2, 10.0)
        f = builtin("sinlog")
        points = [(x, w) for x in (1.5, 2.5, 3.5) for w in (5.0, 10.0)]
        for x, w, fx, val, err in batch_eval(spec, f, points):
            scalar = durrmeyer_eval(spec, f, x, w)
            assert abs(val - scalar) <= 1e-13 * abs(scalar)
            assert fx == f(x) and err == abs(fx - val)

    def test_combination_rows_match_combined_eval(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        f = builtin("sinlog")
        comb = solve_coefficients(3)
        points = [(x, w) for x in (1.5, 3.5) for w in (5.0, 10.0)]
        for x, w, fx, val, err in batch_eval(spec, f, points, combination=comb):
            scalar = combined_eval(comb, spec, f, x, w)
            assert abs(val - scalar) <= 1e-13 * abs(scalar)
            assert err == abs(fx - val)

    @pytest.mark.parametrize("fn", [
        "name:fig1", "name:fig2", "name:sinlog", "name:logsq",
        "name:const:2.5", "expr:x^2*cos(2*pi*x)",
        "expr:x^(-3)*exp(-sin(x^2))"])
    def test_fx_is_the_scalar_value(self, b4, b2, fn, rng):
        f = function_from_spec(fn)
        xs = rng.uniform(0.2, 9.0, 200).tolist()
        rows = batch_eval(OperatorSpec(b4, b2, 10.0), f,
                          [(x, 10.0) for x in xs])
        assert [repr(row[2]) for row in rows] == [repr(f(x)) for x in xs]

    @pytest.mark.parametrize("bad, text", [
        (0.0, "x must be positive"), (-1.0, "x must be positive"),
        (math.nan, "x must be positive"), (math.inf, "x must be finite")])
    def test_bad_x_is_rejected_before_fx(self, b4, b2, bad, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            batch_eval(OperatorSpec(b4, b2, 10.0), builtin("fig1"),
                       [(2.0, 10.0), (bad, 10.0)])

    def test_csv_bytes_match_csv_writer(self, b4, b2, tmp_path):
        # one formatted string gives the bytes csv.writer gives
        spec = OperatorSpec(b4, b2, 10.0)
        rows = batch_eval(spec, builtin("fig1"), [(x, w) for x in
                                                  (0.5, 2.0, 3.3, 1e-3)
                                                  for w in (10.0, 2.5)])
        path = tmp_path / "batch.csv"
        write_batch_csv(rows, str(path))
        ref = io.StringIO(newline="")
        csv.writer(ref).writerows([BATCH_CSV_COLUMNS,
                                   *([repr(v) for v in row] for row in rows)])
        assert path.read_bytes() == ref.getvalue().encode()

    def test_csv_deterministic(self, b4, b2, tmp_path):
        spec = OperatorSpec(b4, b2, 10.0)
        f = builtin("fig2")
        points = [(2.0, 10.0), (2.5, 10.0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_batch_csv(batch_eval(spec, f, points), str(p1))
        write_batch_csv(batch_eval(spec, f, points), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        # written through a temporary file that is renamed over the target
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]

"""Operator evaluation: convolution means, the sampling series, and the
dual-route checks that keep them honest."""

import csv
import dataclasses
import io
import math
import os
import warnings

import numpy as np
import pytest

from expsample import (
    EvaluationError,
    OperatorSpec,
    QuadratureConfig,
    SamplingError,
    batch_eval,
    builtin,
    combined_eval,
    durrmeyer_eval,
    function_from_spec,
    parse_function,
    parse_kernel,
    sampling_eval,
    solve_coefficients,
    write_batch_csv,
)
from expsample import operators
from expsample.operators import BATCH_CSV_COLUMNS
from conftest import dense_config_oracle, simpson_operator_oracle
from oracles import kantorovich_eval, mellin_convolution, series_oracle
from test_analysis import _counting


ALL_PAIRS = [
    ("bspline:4", "bspline:4"),
    ("bspline:4", "bspline:2"),
    ("translates:2:a=e^-2,b=e^-3", "bspline:2"),
    ("bspline:2", "char"),
]


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
            combo = lambda t: alpha * f(t) + g(t)
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
        assert durrmeyer_eval(spec, patched, x) == durrmeyer_eval(spec, f, x)

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
        with pytest.raises(EvaluationError, match=message):
            sampling_eval(b4, f, 1e17, 2.0)

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
        for f in (parse_function("log(x - 5)"),
                  lambda t: math.log(t - 5.0) if t > 5.0 else math.nan):
            with pytest.raises(EvaluationError, match="t=.*window around s="):
                durrmeyer_eval(spec, f, np.array([10.0, 2.0]))

    def test_error_names_t_and_window_in_a_w_sweep(self, b2):
        # only the w = 2 pairs reach t <= 5; the window named is the one
        # at that scale (k = 3, s = e^{3/2}), not one of the w = 50 pairs
        spec = OperatorSpec(b2, b2, 1.0)
        for f in (parse_function("log(x - 5)"),
                  lambda t: math.log(t - 5.0) if t > 5.0 else math.nan):
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

    def test_admissibility_warning(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            durrmeyer_eval(spec, builtin("fig1"), 4.0)
        assert any("growth" in str(w.message) for w in caught)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            durrmeyer_eval(spec, builtin("sinlog"), 4.0)
        assert not caught


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
        x, w = (bad, 10.0) if which == "x" else (2.0, bad)
        with pytest.raises(ValueError) as expected:
            durrmeyer_eval(OperatorSpec(b4, b4, 10.0), f, x, w)
        assert str(expected.value).startswith(f"{which} must be")
        with pytest.raises(ValueError, match=f"^{expected.value}$"):
            sampling_eval(b4, f, w, x)


SAMPLING_KERNELS = [f"bspline:{n}" for n in range(1, 7)] + [
    "char", "translates:2:a=e^-2,b=e^-3", "translates:5:a=1.7,b=9.1"]


def _sampling_pairs(rng, count):
    ws = rng.uniform(0.5, 200.0, count)
    xs = np.exp(rng.uniform(-2.0, 3.0, count))
    return xs, ws


class TestSampling:
    @pytest.mark.parametrize("descriptor", SAMPLING_KERNELS)
    def test_table_equals_scalar_series(self, descriptor, rng):
        # the same products summed k by k from the left: the same double
        chi = parse_kernel(descriptor)
        table = {k: float(v) for k, v in
                 zip(range(-700, 701), rng.normal(size=1401))}
        xs, ws = _sampling_pairs(rng, 40)
        values = sampling_eval(chi, table, ws, xs)
        for x, w, value in zip(xs.tolist(), ws.tolist(), values.tolist()):
            assert value == series_oracle(chi, table, w, x), (x, w)

    @pytest.mark.parametrize("descriptor", SAMPLING_KERNELS)
    def test_callable_matches_scalar_series(self, descriptor, rng):
        # the nodes e^{k/w} come from np.exp here and math.exp in the
        # oracle, which may differ in the last bit
        chi = parse_kernel(descriptor)
        xs, ws = _sampling_pairs(rng, 20)
        for g in (builtin("sinlog"), lambda t: math.sin(math.log(t))):
            values = sampling_eval(chi, g, ws, xs)
            for x, w, value in zip(xs.tolist(), ws.tolist(),
                                   values.tolist()):
                ref = series_oracle(chi, g, w, x)
                assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref))

    def test_values_do_not_depend_on_the_batch(self, psi, rng):
        table = {k: float(v) for k, v in
                 zip(range(-700, 701), rng.normal(size=1401))}
        xs, ws = _sampling_pairs(rng, 50)
        for samples in (table, builtin("sinlog"), math.log):
            values = sampling_eval(psi, samples, ws, xs)
            assert values.shape == (50,)
            for x, w, value in zip(xs.tolist(), ws.tolist(),
                                   values.tolist()):
                assert value == sampling_eval(psi, samples, w, x)

    def test_real_function_gets_one_array_call(self, b4):
        f, calls = _counting(builtin("sinlog"))
        # at w = 1 the points x = e^0.5 and e^1.5 share the nodes k = 0..2
        sampling_eval(b4, f, 1.0, np.exp([0.5, 1.5]))
        assert calls == [5]

    def test_batch_names_the_first_missing_k(self, b4):
        # the windows are read in (w, k) order, whatever the pair order
        table = {k: 1.0 for k in range(-1, 2)}
        xs = [1.0, math.exp(5.5), math.exp(-3.25)]
        ws = [1.0, 1.0, 2.0]
        for order in (slice(None), slice(None, None, -1)):
            with pytest.raises(SamplingError, match=r"k=4 \(node e\^\{4/1\.0\}\)"):
                sampling_eval(b4, table, ws[order], xs[order])

    def test_error_names_t_and_sample_node(self, b2):
        with pytest.raises(EvaluationError,
                           match=r"t=1\.0 inside .* node e\^\{0/1\.0\}"):
            sampling_eval(b2, parse_function("log(x - 5)"), 1.0, 2.0)

    def test_node_beyond_double_range_is_named(self, b4):
        # at w = 0.001 the nodes around x = 2 include e^-1000, which is 0
        # in double precision; g is never called there
        with pytest.raises(EvaluationError,
                           match=r"u=-1000 for w=0\.001 rounds to t=0\.0 in "
                                 r"double precision, inside the sampling "
                                 r"series at its node e\^\{-1/0\.001\}"):
            sampling_eval(b4, lambda t: 1.0, 0.001, 2.0)

    def test_constant_samples(self, b4):
        assert sampling_eval(b4, lambda t: 4.0, 3.0, 2.2) == pytest.approx(4.0, abs=1e-12)

    def test_odd_moment_cancellation(self, b4):
        assert sampling_eval(b4, math.log, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_factorization(self, b4, b2):
        # the operator is the sampling series applied to convolution means
        f = builtin("fig2")
        w, x = 10.0, 2.3
        composed = sampling_eval(
            b4, lambda t: mellin_convolution(b2, f, w, t), w, x)
        direct = durrmeyer_eval(OperatorSpec(b4, b2, w), f, x)
        assert abs(composed - direct) <= 1e-12

    def test_table_mode(self, b4):
        w, x = 1.0, 1.0
        table = {k: float(k) for k in range(-3, 4)}
        got = sampling_eval(b4, table, w, x)
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_missing_table_entry_lists_k(self, b4):
        with pytest.raises(SamplingError, match="k=-1"):
            sampling_eval(b4, {0: 1.0}, 1.0, 1.0)


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

    def test_plain_callable(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        points = [(1.5, 10.0), (3.0, 20.0)]
        rows = batch_eval(spec, lambda t: math.sin(math.log(t)), points)
        ref = batch_eval(spec, builtin("sinlog"), points)
        for (x, _, fx, value, _), (_, _, _, expected, _) in zip(rows, ref):
            assert fx == math.sin(math.log(x))
            assert abs(value - expected) <= 1e-13

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

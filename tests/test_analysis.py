"""Error tables, rate fits, and asymptotic-constant checks."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from expsample import (
    Column,
    EvaluationError,
    OperatorSpec,
    batch_eval,
    builtin,
    combined_eval,
    config_record,
    durrmeyer_eval,
    empirical_order,
    error_table,
    parse_function,
    richardson,
    solve_coefficients,
    voronovskaya_check,
    __version__,
)
from expsample.errors import InputError
from oracles import config_digest


class TestErrorTable:
    def test_constant_function(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("const:1"), spec, [1.5, 2.5],
                            [Column(10.0), Column(20.0)])
        for x, label, fx, value in table.rows:
            assert abs(fx - value) <= 1e-10

    def test_row_major_cross_product(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("sinlog"), spec, [1.5, 2.5],
                            [Column(10.0), Column(20.0)])
        labels = [(x, lab) for x, lab, _, _ in table.rows]
        assert labels == [(1.5, "w=10"), (1.5, "w=20"), (2.5, "w=10"), (2.5, "w=20")]

    def test_combined_columns(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        cols = [Column(10.0), Column(10.0, p=2), Column(10.0, p=3)]
        table = error_table(builtin("fig2"), spec, [2.1], cols)
        errs = [abs(fx - v) for _, _, fx, v in table.rows]
        assert errs[2] < errs[1] < errs[0]

    def test_csv_deterministic(self, b4, b2, tmp_path):
        spec = OperatorSpec(b4, b2, 10.0)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            table = error_table(builtin("fig2"), spec, [1.75, 2.1],
                                [Column(10.0)])
            table.to_csv(str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, b4, b2, tmp_path):
        # the table carries no record of its own; to_json writes the one
        # its caller sets (the CLI's run record, see tests/test_cli.py)
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("sinlog"), spec, [2.0], [Column(10.0)])
        assert table.metadata == {}
        table.metadata = config_record(spec, x=[2.0])
        path = tmp_path / "t.json"
        table.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["metadata"] == table.metadata
        x, label, fx, value = table.rows[0]
        assert doc["rows"] == [{"x": x, "label": label, "fx": fx,
                                "value": value, "abs_err": abs(fx - value)}]

    def test_abs_err_recomputed(self, b4, b2, tmp_path):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("sinlog"), spec, [2.0], [Column(10.0)])
        _, _, fx, value = table.rows[0]
        table.to_json(str(tmp_path / "t.json"))
        doc = json.loads((tmp_path / "t.json").read_text())
        assert doc["rows"][0]["abs_err"] == abs(fx - value)


def _canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


class TestConfigDigest:
    """A run record's digest is the first 16 hex digits of the SHA-256 of
    its canonical JSON, as docs/cli.md defines it and tests/oracles.py
    restates it."""

    @pytest.mark.parametrize("fields", [
        {"chi": "bspline:4", "x": [1.5, 2.0], "p": [], "note": None,
         "quadrature": {"panel_max_width": 0.5, "nodes_per_unit": 20}},
        {"x": [1.0 + 5.0 * i / 1500 for i in range(1501)], "w": [25.0]},
    ], ids=["small", "1501-floats"])
    def test_equals_hashlib(self, fields):
        record = config_record(**fields)
        rest = {k: v for k, v in record.items() if k != "digest"}
        assert record.text == _canonical(rest)
        expected = hashlib.sha256(_canonical(rest).encode()).hexdigest()
        assert record["digest"] == config_digest(rest) == expected[:16]

    def test_non_finite_fallback_record(self):
        # the record of --panel-max-width inf: the number becomes a string
        record = config_record(quadrature={"nodes_per_unit": 20,
                                           "panel_max_width": math.inf},
                               x=[2.0])
        rest = {k: v for k, v in record.items() if k != "digest"}
        assert rest["quadrature"]["panel_max_width"] == "Infinity"
        expected = hashlib.sha256(_canonical(rest).encode()).hexdigest()
        assert record["digest"] == config_digest(rest) == expected[:16]

    def test_pinned_value(self):
        # moves if the hash or the canonical form ever changes
        assert config_digest({"a": 1}) == "015abd7f5cc57a2d"
        assert config_record(a=1)["digest"] == config_digest(
            {"a": 1, "version": __version__})


class TestReadingFx:
    """empirical_order and voronovskaya_check run the engine, which checks
    x, and then read f(x) through f_values, which names x."""

    @pytest.mark.parametrize("instrument", [
        empirical_order,
        lambda f, spec, x, ws: voronovskaya_check(f, spec, x, ws, 2)],
        ids=["empirical_order", "voronovskaya_check"])
    def test_fx_failure_names_x(self, b4, b2, instrument):
        # an expression whose only pole is x itself, with a derivative
        # attached so that voronovskaya_check gets as far as f(x)
        f = dataclasses.replace(parse_function("log(abs(x-2.5))"),
                                analytic_log_derivatives={2: math.cos})
        with pytest.raises(EvaluationError, match=(
                r"^evaluating f at x=2\.5: divide by zero encountered in "
                "log$")):
            instrument(f, OperatorSpec(b4, b2, 10.0), 2.5, [10.0, 20.0, 40.0])

    @pytest.mark.parametrize("instrument", [
        empirical_order,
        lambda f, spec, x, ws: voronovskaya_check(f, spec, x, ws, 2)],
        ids=["empirical_order", "voronovskaya_check"])
    @pytest.mark.parametrize("x, message", [(-1.0, "x must be positive"),
                                            (math.inf, "x must be finite")])
    def test_engine_checks_x(self, b4, b2, instrument, x, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            instrument(builtin("sinlog"), OperatorSpec(b4, b2, 10.0), x,
                       [10.0, 20.0, 40.0])


class TestEmpiricalOrder:
    def test_second_order_pair(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        report = empirical_order(builtin("sinlog"), spec, 2.0,
                                 [50.0, 100.0, 200.0, 400.0])
        assert report.fitted_order == pytest.approx(2.0, abs=0.2)

    def test_first_order_pair(self, b2, char):
        spec = OperatorSpec(b2, char, 1.0)
        report = empirical_order(builtin("sinlog"), spec, 2.0,
                                 [50.0, 100.0, 200.0, 400.0])
        assert report.fitted_order == pytest.approx(1.0, abs=0.2)

    def test_accelerated_order(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        report = empirical_order(builtin("sinlog"), spec, 2.0,
                                 [10.0, 20.0, 40.0, 80.0],
                                 combination=solve_coefficients(3))
        assert report.fitted_order >= 2.7

    def test_zero_error_sentinel(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        report = empirical_order(builtin("const:0"), spec, 2.0,
                                 [10.0, 20.0, 40.0])
        assert report.zero_error
        assert math.isinf(report.fitted_order)

    def test_needs_three_scales(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        with pytest.raises(ValueError):
            empirical_order(builtin("sinlog"), spec, 2.0, [10.0, 20.0])

    def test_monotone_scales_required(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        with pytest.raises(ValueError):
            empirical_order(builtin("sinlog"), spec, 2.0, [10.0, 40.0, 20.0])


class TestRichardson:
    def test_strips_next_order_term(self):
        ws = [10.0, 20.0, 40.0, 80.0]
        a = [1.0 + 3.0 / w for w in ws]
        assert richardson(ws, a) == pytest.approx(1.0, abs=1e-12)

    def test_general_ratio(self):
        ws = [10.0, 30.0]
        a = [1.0 + 3.0 / w for w in ws]
        assert richardson(ws, a) == pytest.approx(1.0, abs=1e-12)


class TestVoronovskaya:
    def test_b4_b2_second_order(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        f = builtin("sinlog")
        for x in (2.0, 5.0):
            check = voronovskaya_check(f, spec, x, [50.0, 100.0, 200.0, 400.0], 2)
            assert check.predicted == pytest.approx(
                0.25 * -math.sin(math.log(x)), abs=1e-10)
            assert check.relative_deviation <= 0.05
            assert not check.diverged

    def test_psi_b2_second_order_at_integer_log(self, psi, b2):
        # at x = e every scale keeps log(x^w) integral, so the oscillating
        # second moment stays on the -6 branch and the limit constant is
        # (1/6 - 6)/2 = -35/12 times the second log-derivative
        spec = OperatorSpec(psi, b2, 1.0)
        f = builtin("sinlog")
        check = voronovskaya_check(f, spec, math.e, [50.0, 100.0, 200.0, 400.0], 2)
        assert check.predicted == pytest.approx(
            (-35.0 / 12.0) * -math.sin(1.0), rel=1e-9)
        assert check.relative_deviation <= 0.05

    def test_psi_b2_prediction_follows_phase(self, psi, b2):
        # away from integer log x the discrete second moment of psi sits
        # at the phase s_w = frac(w log x) of x^w, so the prediction is
        # (1/2)(1/6 - 6 + s_w(1 - s_w)) theta^2 f(x) per scale, the
        # sequence has no limit, and each scaled error tracks its own
        # prediction
        spec = OperatorSpec(psi, b2, 1.0)
        f = builtin("sinlog")
        x = 5.0
        ws = [50.0, 100.0, 200.0, 400.0, 800.0]
        check = voronovskaya_check(f, spec, x, ws, 2)
        theta2 = -math.sin(math.log(x))
        closed = [0.5 * (1.0 / 6.0 - 6.0 + s * (1.0 - s)) * theta2
                  for s in ((w * math.log(x)) % 1.0 for w in ws)]
        assert not check.has_limit
        assert check.predicted is None and check.extrapolated is None
        assert check.predictions == pytest.approx(closed, rel=1e-9)
        assert [round(p, 3) for p in check.predictions] == [
            2.790, 2.888, 2.865, 2.827, 2.791]
        assert check.max_deviation <= 0.005

    def test_limit_flag_for_phase_free_pairs(self, b4, b2, psi):
        f = builtin("sinlog")
        for chi, x in ((b4, 2.0), (b4, 5.0), (psi, math.e)):
            check = voronovskaya_check(f, OperatorSpec(chi, b2, 1.0), x,
                                       [50.0, 100.0, 200.0, 400.0], 2)
            assert check.has_limit
            assert check.predicted == check.predictions[-1]

    def test_kantorovich_first_order_on_logsq(self, b2, char):
        spec = OperatorSpec(b2, char, 1.0)
        f = builtin("logsq")
        check = voronovskaya_check(f, spec, 2.0, [50.0, 100.0, 200.0, 400.0], 1)
        assert check.predicted == pytest.approx(math.log(2.0), abs=1e-12)
        assert check.relative_deviation <= 0.05

    def test_accelerated_third_order_constant(self, psi, b2):
        spec = OperatorSpec(psi, b2, 1.0)
        f = builtin("sinlog")
        comb = solve_coefficients(3)
        check = voronovskaya_check(f, spec, math.e, [25.0, 50.0, 100.0, 200.0],
                                   3, combination=comb)
        assert check.predicted == pytest.approx(5.0 / 6.0 * -math.cos(1.0), rel=1e-9)
        assert check.relative_deviation <= 0.10
        assert check.lower_orders_cancel

    def test_uncancelled_lower_orders_flagged(self, psi, b2):
        # at x = 2 the second moment of psi differs between the phases of
        # x^w, x^2w and x^3w, so the p = 3 combination leaves an order-2
        # term and the order-3 prediction (about -0.64) misses the
        # measured 0.17, 0.78, 2.51, 1.00
        f = builtin("sinlog")
        check = voronovskaya_check(f, OperatorSpec(psi, b2, 1.0), 2.0,
                                   [25.0, 50.0, 100.0, 200.0], 3,
                                   combination=solve_coefficients(3))
        assert not check.lower_orders_cancel
        assert check.max_deviation > 0.5

    def test_bspline_lower_orders_cancel(self, b4, b2):
        f = builtin("sinlog")
        check = voronovskaya_check(f, OperatorSpec(b4, b2, 1.0), 2.0,
                                   [25.0, 50.0, 100.0, 200.0], 3,
                                   combination=solve_coefficients(3))
        assert check.lower_orders_cancel

    def test_lower_orders_unchecked_without_combination(self, psi, b2):
        check = voronovskaya_check(builtin("sinlog"), OperatorSpec(psi, b2, 1.0),
                                   2.0, [25.0, 50.0, 100.0, 200.0], 3)
        assert check.lower_orders_cancel

    def test_vanishing_order_has_limit_zero(self, b4, b2):
        # for a b-spline pair the order-3 coefficient of the p = 3
        # combination vanishes at every w; its roundoff (1.2e-15, -4.6e-16,
        # 8.0e-16, 7.7e-17 at x = 2) is judged against the size of its
        # terms, not against itself
        f = builtin("sinlog")
        for x in (2.0, 5.0):
            check = voronovskaya_check(f, OperatorSpec(b4, b2, 1.0), x,
                                       [25.0, 50.0, 100.0, 200.0], 3,
                                       combination=solve_coefficients(3))
            assert check.has_limit
            assert check.predicted == 0.0
            assert check.predictions == (0.0, 0.0, 0.0, 0.0)
            assert check.magnitude > 0.0
            assert check.relative_deviation == (
                abs(check.extrapolated) / check.magnitude)

    def test_zero_derivative_gives_zero_magnitude(self, b4, b2):
        # theta^3 log^2 x = 0: every term of the prediction is 0, so there
        # is nothing to judge the measured constant against
        check = voronovskaya_check(builtin("logsq"), OperatorSpec(b4, b2, 1.0),
                                   2.0, [25.0, 50.0, 100.0, 200.0], 3)
        assert check.has_limit
        assert check.predicted == 0.0
        assert check.magnitude == 0.0
        assert check.extrapolated != 0.0
        assert check.relative_deviation == math.inf

    def test_requires_closed_form_derivative(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        with pytest.raises(ValueError, match="closed-form"):
            voronovskaya_check(builtin("fig2"), spec, 2.0, [10.0, 20.0, 40.0], 2)


def _counting(f):
    """f with a list that records the size of every call of its
    evaluator."""
    calls = []

    def evaluator(x):
        calls.append(x.size)
        return f.evaluator(x)
    return dataclasses.replace(f, evaluator=evaluator), calls


class TestOneEngineCall:
    # every scale of a w-sweep or a combination shares one array call of
    # f; an instrument then reads f(x) at its points in one more call
    def test_instruments_call_f_once(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        ws = [50.0, 100.0, 200.0, 400.0]
        comb = solve_coefficients(3)
        for run, fx_points in (
                (lambda f: empirical_order(f, spec, 2.0, ws), [1]),
                (lambda f: empirical_order(f, spec, 2.0, ws,
                                           combination=comb), [1]),
                (lambda f: voronovskaya_check(f, spec, 2.0, ws, 2), [1]),
                (lambda f: voronovskaya_check(f, spec, 2.0, ws, 3,
                                              combination=comb), [1]),
                (lambda f: combined_eval(comb, spec, f, 2.0, 50.0), []),
                (lambda f: combined_eval(comb, spec, f, np.array([1.5, 2.0]),
                                         np.array([50.0, 80.0])), []),
                (lambda f: batch_eval(spec, f, [(2.0, 50.0), (3.0, 90.0)],
                                      combination=comb), [2])):
            f, calls = _counting(builtin("sinlog"))
            run(f)
            assert len(calls) == 1 + len(fx_points)
            assert calls[1:] == fx_points

    def test_error_table_calls_f_once(self, b4, b2):
        f, calls = _counting(builtin("sinlog"))
        cols = [Column(10.0), Column(20.0), Column(10.0, p=2),
                Column(10.0, p=3)]
        table = error_table(f, OperatorSpec(b4, b2, 10.0), [1.5, 2.5], cols)
        assert len(calls) == 2 and calls[1] == 2
        spec = OperatorSpec(b4, b2, 10.0)
        for x, label, _, value in table.rows:
            col = cols[[c.label for c in cols].index(label)]
            if col.p == 1:
                ref = durrmeyer_eval(spec, f, x, col.w)
            else:
                ref = combined_eval(solve_coefficients(col.p), spec, f, x,
                                    col.w)
            assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_values_do_not_depend_on_the_other_scales(self, b4, b2):
        # a column's values are the same doubles whatever other columns
        # share the engine call, and a sweep's are those of single calls
        f = builtin("sinlog")
        spec = OperatorSpec(b4, b2, 10.0)
        both = error_table(f, spec, [1.5, 2.5], [Column(10.0), Column(20.0)])
        alone = error_table(f, spec, [1.5, 2.5], [Column(20.0)])
        assert [r for r in both.rows if r[1] == "w=20"] == alone.rows
        ws = [50.0, 100.0, 200.0, 400.0]
        report = empirical_order(f, spec, 2.0, ws)
        assert list(report.errors) == [
            durrmeyer_eval(spec, f, 2.0, w) - f(2.0) for w in ws]
        comb = solve_coefficients(3)
        report = empirical_order(f, spec, 2.0, ws, combination=comb)
        assert list(report.errors) == [
            combined_eval(comb, spec, f, 2.0, w) - f(2.0) for w in ws]

    def test_errors_name_t_and_window_through_a_sweep(self, b2):
        f = parse_function("log(x - 5)")
        spec = OperatorSpec(b2, b2, 1.0)
        with pytest.raises(EvaluationError, match="t=.*window around s="):
            empirical_order(f, spec, 6.0, [2.0, 50.0, 100.0])
        with pytest.raises(EvaluationError, match="t=.*window around s="):
            empirical_order(f, spec, 6.0, [2.0, 50.0, 100.0],
                            combination=solve_coefficients(2))

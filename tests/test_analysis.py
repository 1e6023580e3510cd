"""Error tables, rate fits, and asymptotic-constant checks."""

import json
import math

import pytest

from expsample import (
    Column,
    OperatorSpec,
    builtin,
    empirical_order,
    error_table,
    richardson,
    solve_coefficients,
    voronovskaya_check,
)


class TestErrorTable:
    def test_constant_function(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("const:1"), spec, [1.5, 2.5], [10.0, 20.0])
        for x, label, fx, value in table.rows:
            assert abs(fx - value) <= 1e-10

    def test_row_major_cross_product(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("sinlog"), spec, [1.5, 2.5], [10.0, 20.0])
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
            table = error_table(builtin("fig2"), spec, [1.75, 2.1], [10.0])
            table.to_csv(str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_digest_tracks_config(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        t1 = error_table(builtin("sinlog"), spec, [2.0], [10.0])
        t2 = error_table(builtin("sinlog"), spec, [2.0], [10.0])
        t3 = error_table(builtin("sinlog"), spec, [2.0], [20.0])
        assert t1.metadata["digest"] == t2.metadata["digest"]
        assert t1.metadata["digest"] != t3.metadata["digest"]

    def test_json_round_trip(self, b4, b2, tmp_path):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("sinlog"), spec, [2.0], [10.0])
        path = tmp_path / "t.json"
        table.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["metadata"]["digest"] == table.metadata["digest"]
        assert len(doc["rows"]) == 1

    def test_abs_err_recomputed(self, b4, b2):
        spec = OperatorSpec(b4, b2, 10.0)
        table = error_table(builtin("sinlog"), spec, [2.0], [10.0])
        assert table.cell(2.0, "w=10") == abs(table.rows[0][2] - table.rows[0][3])


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

    def test_requires_closed_form_derivative(self, b4, b2):
        spec = OperatorSpec(b4, b2, 1.0)
        with pytest.raises(ValueError, match="closed-form"):
            voronovskaya_check(builtin("fig2"), spec, 2.0, [10.0, 20.0, 40.0], 2)

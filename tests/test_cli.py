"""Command-line interface behavior."""

import json

import pytest

from expsample.cli import _parse_reals, main


class TestCoeffs:
    def test_p3_output(self, capsys):
        assert main(["coeffs", "--p", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0.5 -4 4.5"

    def test_p2_output(self, capsys):
        assert main(["coeffs", "--p", "2"]) == 0
        assert capsys.readouterr().out.strip() == "-1 2"

    def test_out_of_range_is_numerical_failure(self, capsys):
        assert main(["coeffs", "--p", "40"]) == 1


class TestMoments:
    def test_b4_second_moment(self, capsys):
        assert main(["moments", "--kernel", "bspline:4", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0.3333333333"
        assert "digest=" in out

    def test_continuous_route(self, capsys):
        assert main(["moments", "--kernel", "bspline:2", "--order", "2",
                     "--route", "continuous"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.1666666667"

    def test_bad_descriptor_is_usage_error(self, capsys):
        assert main(["moments", "--kernel", "nope:1", "--order", "0"]) == 2


class TestVerify:
    def test_all_pass(self, capsys):
        assert main(["verify", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "all pass" in out
        assert out.count("pass") >= 4


class TestEvalAndTable:
    def test_eval_prints_rows(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "name:sinlog", "--x", "2", "--w", "10,20"]) == 0
        out = capsys.readouterr().out
        assert out.count("abs_err=") == 2

    def test_eval_numerical_failure_exit_code(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "expr:log(x - 5)", "--x", "2", "--w", "10"]) == 1

    def test_table_csv_and_digest_reproducible(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["table", "--chi", "bspline:4", "--phi", "bspline:4",
                "--fn", "name:fig1", "--x", "3.55,3.98", "--w", "25,45",
                "--out"]
        assert main(argv + [str(out1)]) == 0
        first = capsys.readouterr().out
        assert main(argv + [str(out2)]) == 0
        second = capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        digest1 = [ln.split("digest=")[1] for ln in first.splitlines()
                   if "digest=" in ln]
        digest2 = [ln.split("digest=")[1] for ln in second.splitlines()
                   if "digest=" in ln]
        assert digest1 == digest2 and digest1
        header = out1.read_text().splitlines()[0]
        assert header == "x,label,fx,value,abs_err"

    def test_table_with_combined_columns(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["table", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", "name:fig2", "--x", "2.1", "--w", "10",
                     "--combine", "p=2", "--combine", "p=3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + plain + p=2 + p=3
        assert any("p=3,w=10" in ln for ln in lines)

    def test_range_is_start_plus_multiples_of_step(self):
        xs = _parse_reals("0.1:100:0.1", "--x")
        assert len(xs) == 1000 and xs[-1] == 100.0
        assert xs[:3] == [0.1, 0.2, 0.3]
        xs = _parse_reals("3.1:6.1:0.002", "--x")
        assert len(xs) == 1501 and xs[-1] == 6.1

    def test_x_range_syntax(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "name:sinlog", "--x", "1:2:0.5", "--w", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count("abs_err=") == 3


class TestRatesAndVoronovskaya:
    def test_rates_json(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["rates", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", "name:sinlog", "--x", "2",
                     "--w", "50,100,200,400", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["fitted_order"] - 2.0) < 0.2
        assert "digest" in doc["metadata"]

    def test_voronovskaya_reports_deviation(self, capsys):
        assert main(["voronovskaya", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", "name:sinlog", "--x", "2", "--j", "2",
                     "--w", "50,100,200,400"]) == 0
        out = capsys.readouterr().out
        assert "predicted constant" in out
        assert "relative deviation" in out

    def test_voronovskaya_without_limit(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["voronovskaya", "--chi", "translates:2:a=e^-2,b=e^-3",
                     "--phi", "bspline:2", "--fn", "name:sinlog", "--x", "2",
                     "--j", "2", "--w", "50,100,200,400",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "no limit" in text
        assert "extrapolated constant" not in text
        doc = json.loads(out.read_text())
        assert len(doc["scaled_errors"]) == 4
        assert doc["metadata"]["x"] == 2.0
        assert doc["limit"] is False
        assert len(doc["predictions"]) == 4
        assert doc["lower_orders_cancel"] is True
        assert "lower orders" not in text

    def test_voronovskaya_flags_uncancelled_lower_orders(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["voronovskaya", "--chi", "translates:2:a=e^-2,b=e^-3",
                     "--phi", "bspline:2", "--fn", "name:sinlog", "--x", "2",
                     "--j", "3", "--w", "25,50,100,200", "--combine", "p=3",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "lower orders:          do not cancel at every w" in text
        assert json.loads(out.read_text())["lower_orders_cancel"] is False


class TestFlagHandling:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--p", "3", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["moments", "--order", "2"])
        assert exc.value.code == 2

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--chi", "--phi", "--fn", "--x", "--w", "--combine",
                     "--out", "--format"):
            assert flag in out

    def test_bad_combine_spec(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "name:sinlog", "--x", "2", "--w", "10",
                     "--combine", "3"]) == 2

    def test_empty_x_list(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "name:sinlog", "--x", ",", "--w", "10"]) == 2

"""Command-line interface behavior."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from expsample import expr
from expsample.cli import _parse, _parse_reals, build_parser, main
from expsample.kernels import parse_kernel
from oracles import config_digest, exact_lattice_moment


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def _run(capsys, argv):
    """Exit code, stdout and record of one run.  The record is the config
    line, checked to be strict JSON whose config_digest is the digest of
    the summary line, plus that digest.  The line is the exact text that
    digest hashes, so SHA-256 alone reproduces it."""
    code = main(argv)
    out = capsys.readouterr().out
    lines = out.splitlines()
    summary = [ln for ln in lines if ln.startswith("expsample ")]
    config = [ln for ln in lines if ln.startswith("config: ")]
    assert len(summary) == len(config) == 1, out
    digest = summary[0].rsplit("digest=", 1)[1]
    text = config[0].removeprefix("config: ")
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    record = json.loads(text, parse_constant=_strict)
    assert config_digest(record) == digest
    return code, out, {"digest": digest, **record}


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
        # every route gives n/12 for the order-n b-spline at order 2
        for route in ("continuous", "poisson", "absolute-discrete",
                      "absolute-continuous"):
            code, out, _ = _run(capsys, ["moments", "--kernel", "bspline:4",
                                         "--order", "2", "--route", route])
            assert code == 0
            assert out.splitlines()[0] == "0.3333333333", route

    def test_continuous_route(self, capsys):
        assert main(["moments", "--kernel", "bspline:2", "--order", "2",
                     "--route", "continuous"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "0.1666666667"

    def test_bad_descriptor_is_usage_error(self, capsys):
        assert main(["moments", "--kernel", "nope:1", "--order", "0"]) == 2

    @pytest.mark.parametrize("kernel", ["translates:0:a=2,b=3",
                                        "translates:-1:a=2,b=3"])
    def test_translate_order_below_one_is_usage_error(self, capsys, kernel):
        assert main(["moments", "--kernel", kernel, "--order", "0"]) == 2
        assert "order must be >= 1, got" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "e^inf", "e^nan"])
    def test_non_finite_translate_is_usage_error(self, capsys, value):
        assert main(["moments", "--kernel", f"translates:2:a={value},b=2",
                     "--order", "2"]) == 2
        assert "field 'a' must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field, route, value", [
        ("a", "discrete", "e^1e8"), ("a", "continuous", "e^1e21"),
        ("b", "continuous", "e^1e300"), ("b", "poisson", "e^-65537")])
    def test_huge_translate_log_is_usage_error(self, capsys, field, route,
                                               value):
        # past |log a| = 2^16 the lattice sums exhaust memory (e^1e8 asked
        # for 763 MiB) or lose every digit (e^1e300 printed -3.0e300)
        other = "b=e^3" if field == "a" else "a=e^3"
        kernel = f"translates:2:{field}={value},{other}"
        assert main(["moments", "--kernel", kernel, "--order", "2",
                     "--route", route]) == 2
        err = capsys.readouterr().err
        assert f"field {field!r}: |log {field}| = " in err
        assert "exceeds the bound 2^16 = 65536" in err

    @pytest.mark.parametrize("kernel, route, value", [
        ("translates:2:a=e^1e4,b=e^3", "continuous", "-29999.8333333333"),
        ("translates:2:a=e^1e4,b=e^3", "discrete", "-30000.0000000000"),
        ("translates:2:a=e^2,b=e^3", "continuous", "-5.8333333333"),
        ("translates:2:a=e^2,b=e^3", "discrete", "-6.0000000000")])
    def test_translates_within_the_bound_are_unchanged(self, capsys, kernel,
                                                       route, value):
        assert main(["moments", "--kernel", kernel, "--order", "2",
                     "--route", route]) == 0
        assert capsys.readouterr().out.splitlines()[0] == value

    @pytest.mark.parametrize("route", ["discrete", "continuous", "poisson",
                                       "absolute-discrete",
                                       "absolute-continuous"])
    def test_negative_order_is_numerical_failure(self, capsys, route):
        assert main(["moments", "--kernel", "bspline:2", "--order", "-1",
                     "--route", route]) == 1
        assert "order must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("u", ["nan", "inf"])
    def test_non_finite_u_is_numerical_failure(self, capsys, u):
        assert main(["moments", "--kernel", "bspline:2", "--order", "2",
                     "--u", u]) == 1
        assert "u must be positive and finite" in capsys.readouterr().err


class TestVerify:
    def test_all_pass(self, capsys):
        assert main(["verify", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "all pass" in out
        assert out.count("pass") >= 4

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "nan"), ("--tol", "-1"), ("--r", "-1")])
    def test_meaningless_setting_is_numerical_failure(self, capsys, flag,
                                                      value):
        assert main(["verify", "--chi", "bspline:4", "--phi", "bspline:2",
                     flag, value]) == 1
        out, err = capsys.readouterr()
        assert "numerical failure" in err and "FAIL" not in out


class TestEvalAndTable:
    def test_eval_prints_rows(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "name:sinlog", "--x", "2", "--w", "10,20"]) == 0
        out = capsys.readouterr().out
        assert out.count("abs_err=") == 2

    def test_eval_numerical_failure_exit_code(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "expr:log(x - 5)", "--x", "2", "--w", "10"]) == 1

    @pytest.mark.parametrize("fn, x, w, node", [
        # the node e^u underflows to 0 at u near -1000, far from x = 2
        ("name:const:1", "2", "0.002",
         "u=-999.997 for w=0.002 rounds to t=0.0"),
        # the node overflows to inf; f once read t = inf (const:1 printed 1)
        ("name:sinlog", "1e308", "1", "u=709.83 for w=1.0 rounds to t=inf"),
        ("name:const:1", "1e308", "1", "u=709.83 for w=1.0 rounds to t=inf")])
    def test_node_beyond_double_range_is_named(self, capsys, fn, x, w, node):
        assert main(["eval", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", fn, "--x", x, "--w", w]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert (f"numerical failure: the node t=e^u at {node} in double "
                "precision, inside the convolution window around s=e^") in err

    @pytest.mark.parametrize("command, fn, point", [
        # the pole sits on a quadrature node: the engine names t and window
        ("eval", "expr:1/(x-2.045485878677874)",
         "evaluating f at t=2.045485878677874 inside the convolution window "
         "around s=e^0.8: divide by zero encountered in divide"),
        # the engine never meets the pole; the fx column names x
        ("eval", "expr:log(abs(x-2.5))",
         "evaluating f at x=2.5: divide by zero encountered in log"),
        ("table", "expr:log(abs(x-2.5))",
         "evaluating f at x=2.5: divide by zero encountered in log")])
    def test_expression_error_names_its_point_once(self, capsys, command,
                                                   fn, point):
        assert main([command, "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", fn, "--x", "2.5", "--w", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"expsample {command}: numerical failure: {point}")

    def test_failing_node_is_evaluated_once(self, capsys, monkeypatch):
        # the array call raises with the cause only; the engine then walks
        # the nodes point by point, each once, up to the failing one
        calls = []
        evaluate = expr.evaluate

        def counted(compiled, x):
            calls.append(x.copy())
            return evaluate(compiled, x)

        monkeypatch.setattr(expr, "evaluate", counted)
        assert main(["eval", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", "expr:1/(x-2.045485878677874)", "--x", "2.5",
                     "--w", "10"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "expsample eval: numerical failure: evaluating f at "
            "t=2.045485878677874 inside the convolution window around "
            "s=e^0.8: divide by zero encountered in divide")
        nodes, *walk = calls
        assert [x.size for x in walk] == [1] * len(walk)
        assert np.concatenate(walk).tolist() == nodes[:len(walk)].tolist()
        assert walk[-1][0] == 2.045485878677874
        assert len(walk) == 4

    @pytest.mark.parametrize("fn, cause", [
        ("name:fig2", "divide by zero encountered in divide"),
        ("expr:x^(-3)*exp(-sin(x^2))", "overflow encountered in power")])
    def test_builtin_fails_at_the_node_its_expression_twin_does(
            self, capsys, fn, cause):
        # x^3 underflows at the nodes near x = 1e-110; a builtin runs
        # under the floating-point policy of an expression, so it raises
        # no numpy warning and its error names the same t and window
        assert main(["eval", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", fn, "--x", "1e-110", "--w", "10"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[1:] == [
            "expsample eval: numerical failure: evaluating f at "
            "t=8.065785733210377e-111 inside the convolution window around "
            f"s=e^-253.4: {cause}"]

    @pytest.mark.parametrize("name, warned", [("fig2", True),
                                              ("sinlog", False)])
    def test_admissibility_warning(self, capsys, name, warned):
        # one stderr line that names the function, not a library file
        assert main(["eval", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", f"name:{name}", "--x", "4", "--w", "10"]) == 0
        err = capsys.readouterr().err
        assert err == (
            f"expsample eval: warning: function '{name}' declares neither "
            "boundedness nor a growth bound; the operator series may not "
            "converge globally\n" if warned else "")

    def test_eval_malformed_expression_is_usage_error(self, capsys):
        assert main(["eval", "--chi", "bspline:2", "--phi", "char",
                     "--fn", "expr:2²", "--x", "2", "--w", "10"]) == 2
        assert "(offset 1)" in capsys.readouterr().err

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
        # without --out the same cells go to stdout
        assert main(["table", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", "name:fig2", "--x", "2.1", "--w", "10",
                     "--combine", "p=2", "--combine", "p=3"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("abs_err=") == 3
        assert "x=2.1 p=3,w=10 abs_err=" in printed

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_eval_out(self, capsys, tmp_path, fmt):
        out = tmp_path / f"e.{fmt}"
        code, text, record = _run(capsys, [
            "eval", "--chi", "bspline:2", "--phi", "char", "--fn",
            "name:sinlog", "--x", "2,3", "--w", "10,20", "--format", fmt,
            "--out", str(out)])
        assert code == 0 and "wrote 4 rows" in text
        if fmt == "csv":
            lines = out.read_text().splitlines()
            assert lines[0] == "x,w,fx,Iwfx,abs_err" and len(lines) == 5
        else:
            doc = json.loads(out.read_text())
            assert doc["metadata"] == record
            assert [(r["x"], r["w"]) for r in doc["rows"]] == [
                (2.0, 10.0), (2.0, 20.0), (3.0, 10.0), (3.0, 20.0)]

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

    def test_rates_zero_error(self, capsys):
        # the (B2, char) operator reproduces a constant exactly at x = 2
        code, out, _ = _run(capsys, [
            "rates", "--chi", "bspline:2", "--phi", "char",
            "--fn", "name:const:2", "--x", "2", "--w", "1,2,4"])
        assert code == 0
        assert "fitted order: inf" in out
        assert "zero error encountered; order reported as +inf" in out

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


    def test_voronovskaya_with_vanishing_prediction(self, tmp_path, capsys):
        # theta^3 log^2 x = 0, so the prediction and all its terms are 0
        out = tmp_path / "v.json"
        assert main(["voronovskaya", "--chi", "bspline:4", "--phi",
                     "bspline:2", "--fn", "name:logsq", "--x", "2", "--j", "3",
                     "--w", "25,50,100,200", "--out", str(out)]) == 0
        assert "relative deviation:    inf%" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["limit"] is True and doc["predicted"] == 0.0
        assert doc["relative_deviation"] == math.inf


class TestPointChecks:
    """Every operator command checks x in the engine, and rates and
    voronovskaya read f(x) after it, naming x when that fails."""

    COMMON = ["--chi", "bspline:4", "--phi", "bspline:2", "--w", "10,20,40"]

    @pytest.mark.parametrize("argv", [["eval"], ["table"], ["rates"],
                                      ["voronovskaya", "--j", "2"]],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("x, message", [
        # rates once read f(-1) first ("sinlog is defined on positive
        # reals"), and voronovskaya once raised an IndexError from its
        # moment tables at inf and nan
        ("-1", "x must be positive"), ("inf", "x must be finite"),
        ("nan", "x must be positive")])
    def test_engine_checks_x(self, capsys, argv, x, message):
        # a point the operator does not take is an error of the command
        # line: exit 2 with the usage hint
        assert main([*argv, *self.COMMON, "--fn", "name:sinlog",
                     "--x", x]) == 2
        assert capsys.readouterr() == ("", (
            f"expsample {argv[0]}: error: {message}\n"
            f"run 'expsample {argv[0]} --help' for usage\n"))

    def test_rates_names_x_when_fx_fails(self, capsys):
        # the engine's nodes miss the pole at x itself
        assert main(["rates", *self.COMMON, "--fn", "expr:log(abs(x-2.5))",
                     "--x", "2.5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "expsample rates: numerical failure: evaluating f at x=2.5: "
            "divide by zero encountered in log")


class TestScaleChecks:
    @pytest.mark.parametrize("w, message", [
        ("0", "w must be positive, got 0.0"),
        ("-1", "w must be positive, got -1.0"),
        ("nan", "w must be positive"), ("inf", "w must be finite")])
    def test_scale_must_be_positive_and_finite(self, capsys, w, message):
        # an error of the command line: exit 2 with the usage hint
        assert main(["eval", "--chi", "bspline:4", "--phi", "bspline:2",
                     "--fn", "name:sinlog", "--x", "2", "--w", w]) == 2
        assert capsys.readouterr() == ("", (
            f"expsample eval: error: {message}\n"
            "run 'expsample eval --help' for usage\n"))

    @pytest.mark.parametrize("ws", ["400,100,50,200", "50,50,100",
                                    "50,200,100", "50,100"])
    @pytest.mark.parametrize("chi", ["bspline:4", "translates:2:a=e^2,b=e^3"])
    def test_rates_and_voronovskaya_reject_the_same_scales(self, capsys, ws,
                                                           chi):
        # one check, before the engine call: at least 3 strictly
        # increasing scales (voronovskaya once accepted all but the last);
        # an error of the command line, so exit 2 with the usage hint
        common = ["--chi", chi, "--phi", "bspline:2", "--fn", "name:sinlog",
                  "--x", "2", "--w", ws]
        messages = []
        for argv in (["rates", *common],
                     ["voronovskaya", *common, "--j", "2"]):
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == ""
            messages.append(err.removeprefix(f"expsample {argv[0]}: ")
                            .removesuffix(f"run 'expsample {argv[0]} --help' "
                                          "for usage\n"))
        assert messages[0] == messages[1]
        assert messages[0] in ("error: need at least 3 scales\n",
                               "error: w sequence must be strictly "
                               "increasing\n")


class TestRepeatedCalls:
    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process: --combine (an appending
        # flag) must not carry over into the next call, and a repeated
        # call must reproduce stdout and file byte for byte
        out = tmp_path / "t.csv"
        argv = ["table", "--chi", "bspline:4", "--phi", "bspline:2",
                "--fn", "name:fig2", "--x", "2.1,2.85", "--w", "10",
                "--out", str(out)]
        assert main(argv + ["--combine", "p=2"]) == 0
        assert "p=2,w=10" in out.read_text()
        capsys.readouterr()
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[0] == runs[1]
        assert "combination" not in runs[0][0]
        assert b"p=" not in runs[0][1]
        assert len(runs[0][1].splitlines()) == 3


class TestFlagHandling:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--p", "3", "--frobnicate"])
        assert exc.value.code == 2

    def test_format_only_where_it_chooses(self, capsys):
        # rates and voronovskaya always write a JSON document
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--chi", "bspline:4", "--phi", "bspline:2",
                  "--fn", "name:sinlog", "--x", "2", "--w", "50,100,200",
                  "--format", "csv"])
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

    @pytest.mark.parametrize("argv", [
        ["moments", "--kernel", "bspline:4", "--order", "2",
         "--route", "poisson"],
        ["verify", "--chi", "bspline:4", "--phi", "bspline:2"]],
        ids=["moments", "verify"])
    @pytest.mark.parametrize("flag", ["--nodes-per-unit", "--panel-max-width"])
    def test_quadrature_flags_only_on_operator_commands(self, capsys, argv,
                                                        flag):
        # the kernel commands run no quadrature that a setting could change
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "8"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, width", [
        (["eval", "--chi", "bspline:4", "--phi", "bspline:2",
          "--fn", "name:sinlog", "--x", "2", "--w", "10"], "0.1")])
    def test_panel_count_beyond_float_range_is_named(self, capsys, argv,
                                                     width):
        # width / panel_max_width overflows to inf: the rule-size check of
        # panel_counts refuses it, before any rule is built, and the engine
        # names the scale (tests/test_quadrature.py::TestRuleBudget checks
        # the other requests past the budget without the engine)
        assert main([*argv, "--panel-max-width", "1e-320"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"expsample {argv[0]}: numerical failure: at w=10.0: "
            "nodes_per_unit=20 and panel_max_width=1e-320 ask for a "
            "quadrature rule beyond 1048576 nodes or 1024 points per panel "
            f"on cells up to {width} wide\n")


MOMENTS = ["moments", "--kernel", "translates:2:a=e^2,b=e^3", "--order", "2"]
VERIFY = ["verify", "--chi", "bspline:4", "--phi", "bspline:2", "--r", "3"]
RATES = ["rates", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
         "name:fig1", "--x", "2", "--w", "1,2,4", "--panel-max-width", "5"]
VORONOVSKAYA = ["voronovskaya", "--chi", "bspline:4", "--phi", "bspline:2",
                "--fn", "name:sinlog", "--x", "2", "--j", "2",
                "--w", "50,100,200"]
EVAL = ["eval", "--chi", "bspline:2", "--phi", "char", "--fn", "name:sinlog",
        "--x", "2", "--w", "10", "--out", "e.out"]
TABLE = ["table", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
         "name:fig2", "--x", "2.1", "--w", "10", "--out", "t.out"]
NODES = ["--nodes-per-unit", "20"], ["--nodes-per-unit", "8"]

# (argv, flags, other flags): the runs argv + flags and argv + other flags
# differ in one input
DIGEST_CHANGES = [
    # different outputs that once shared a digest
    (RATES, ["--nodes-per-unit", "20"], ["--nodes-per-unit", "2"]),
    (RATES, ["--target-order", "2"], ["--target-order", "3"]),
    (EVAL, ["--format", "csv"], ["--format", "json"]),
    (VORONOVSKAYA, *NODES),
    # every other input
    (MOMENTS, ["--kernel", "bspline:4"], ["--kernel", "bspline:6"]),
    (MOMENTS, ["--order", "1"], ["--order", "2"]),
    (MOMENTS, ["--route", "discrete"], ["--route", "continuous"]),
    (MOMENTS, ["--u", "1"], ["--u", "1.5"]),
    (VERIFY, ["--phi", "bspline:2"], ["--phi", "char"]),
    (VERIFY, ["--r", "2"], ["--r", "3"]),
    (VERIFY, ["--tol", "1e-8"], ["--tol", "1e-6"]),
    (RATES, ["--chi", "bspline:4"], ["--chi", "bspline:6"]),
    (RATES, ["--combine", "p=2"], ["--combine", "p=3"]),
    (VORONOVSKAYA, ["--j", "2"], ["--j", "3"]),
    (EVAL, ["--fn", "name:sinlog"], ["--fn", "name:fig1"]),
    (EVAL, ["--x", "2"], ["--x", "3"]),
    (EVAL, ["--w", "10"], ["--w", "20"]),
    (EVAL, ["--panel-max-width", "0.5"], ["--panel-max-width", "inf"]),
    (EVAL, *NODES),
    (EVAL, [], ["--combine", "p=2"]),
    (TABLE, [], ["--combine", "p=2"]),
    (TABLE, ["--format", "csv"], ["--format", "json"]),
    (TABLE, *NODES),
    (TABLE, ["--panel-max-width", "0.5"], ["--panel-max-width", "0.25"]),
    (RATES, ["--panel-max-width", "5"], ["--panel-max-width", "0.5"]),
    (VORONOVSKAYA, ["--panel-max-width", "0.5"], ["--panel-max-width", "0.25"]),
    (VORONOVSKAYA, [], ["--combine", "p=2"]),
]
# (argv, flags, other flags) as above whose runs share stdout (up to the
# file name) and record
DIGEST_KEPT = [
    # --u is read by the discrete route only
    (MOMENTS + ["--route", "continuous"], ["--u", "1"], ["--u", "5"]),
    (EVAL, ["--out", "a.csv"], ["--out", "b.csv"]),
    (TABLE, ["--out", "a.csv"], ["--out", "b.csv"]),
    (RATES, ["--out", "a.json"], ["--out", "b.json"]),
    (VORONOVSKAYA, ["--out", "a.json"], ["--out", "b.json"]),
]


# the top-level usage, which reports a missing or unknown command and any
# word that the command's parser leaves over
USAGE = ("usage: expsample [-h] [--version]\n"
         "                 {coeffs,moments,verify,eval,table,rates,"
         "voronovskaya} ...\n")
RATES_USAGE = (
    "usage: expsample rates [-h] --chi CHI --phi PHI --fn FN --x X --w W\n"
    "                       [--nodes-per-unit NODES_PER_UNIT]\n"
    "                       [--panel-max-width PANEL_MAX_WIDTH] [--out OUT]\n"
    "                       [--combine COMBINE] [--target-order TARGET_ORDER]\n")
TABLE_HELP = """\
usage: expsample table [-h] --chi CHI --phi PHI --fn FN --x X --w W
                       [--nodes-per-unit NODES_PER_UNIT]
                       [--panel-max-width PANEL_MAX_WIDTH] [--out OUT]
                       [--format {csv,json}] [--combine COMBINE]

options:
  -h, --help            show this help message and exit
  --chi CHI             discrete-role kernel
  --phi PHI             continuous-role kernel
  --fn FN               name:<builtin> or expr:<string>
  --x X                 points: list or start:stop:step
  --w W                 scales: list or start:stop:step
  --nodes-per-unit NODES_PER_UNIT
                        Gauss-Legendre points per unit log-length
  --panel-max-width PANEL_MAX_WIDTH
                        maximum quadrature panel width (log units)
  --out OUT             output file path
  --format {csv,json}   output format (default csv)
  --combine COMBINE     add combined columns p=<int> (repeatable)
"""
TOP_HELP = USAGE + """
Exponential sampling operators: kernels, moments, error tables, and rate
studies.

positional arguments:
  {coeffs,moments,verify,eval,table,rates,voronovskaya}
    coeffs              combination coefficients of order p
    moments             kernel moments
    verify              check the kernel-pair assumptions
    eval                evaluate the operator on a grid
    table               error table over points and scales
    rates               empirical convergence order
    voronovskaya        predicted vs extrapolated error constant

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
SINLOG_RATES = ["rates", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
                "name:sinlog", "--x", "2", "--w", "50,100,200"]

# (argv, exit code, stdout, stderr), as argparse prints them at 80 columns
USAGE_CASES = [
    ([], 2, "", USAGE + "expsample: error: the following arguments are "
     "required: command\n"),
    (["frobnicate"], 2, "", USAGE + "expsample: error: argument command: "
     "invalid choice: 'frobnicate' (choose from 'coeffs', 'moments', "
     "'verify', 'eval', 'table', 'rates', 'voronovskaya')\n"),
    (["--version"], 0, "0.1.0\n", ""),
    (["-h"], 0, TOP_HELP, ""),
    (SINLOG_RATES + ["--bogus", "1"], 2, "",
     USAGE + "expsample: error: unrecognized arguments: --bogus 1\n"),
    (["coeffs", "--p", "3", "--", "x"], 2, "",
     USAGE + "expsample: error: unrecognized arguments: -- x\n"),
    # the top level reads "--=" as an abbreviation of both its flags
    (["table", "--=1"], 2, "", USAGE + "expsample: error: ambiguous option: "
     "--=1 could match --help, --version\n"),
    (["moments", "--order", "2"], 2, "",
     "usage: expsample moments [-h] --kernel KERNEL --order ORDER\n"
     "                         [--route {discrete,continuous,poisson,"
     "absolute-discrete,absolute-continuous}]\n"
     "                         [--u U]\n"
     "expsample moments: error: the following arguments are required: "
     "--kernel\n"),
    (["rates", "--chi", "bspline:4", "--x"], 2, "", RATES_USAGE +
     "expsample rates: error: argument --x: expected one argument\n"),
    (["table", "--help"], 0, TABLE_HELP, ""),
]


class TestUsageAndErrors:
    """Each command line is parsed once, by its command's parser; usage
    text, errors and exit codes are those of the one top-level parser."""

    @pytest.mark.parametrize("flag, value, error", [
        ("--chi", "bogus", "unknown kernel descriptor 'bogus'"),
        ("--fn", "expr:2 +", "expected a number, 'x', or '(', found "
                             "'end of input' (offset 3)"),
        ("--fn", "name:nope", "unknown builtin 'nope'; known: fig1, fig2, "
                              "logsq, sinlog, const:<v>"),
        ("--x", ",", "bad value for --x: ',' (empty list)")])
    def test_command_line_errors_print_the_usage_hint(self, capsys, flag,
                                                      value, error):
        argv = ["eval", "--chi", "bspline:4", "--phi", "bspline:2", "--fn",
                "name:sinlog", "--x", "2", "--w", "10"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            f"expsample eval: error: {error}\n"
            "run 'expsample eval --help' for usage\n"))

    @pytest.mark.parametrize("argv, code, out, err", USAGE_CASES,
                             ids=[" ".join(c[0][:3]) or "none"
                                  for c in USAGE_CASES])
    def test_output_and_exit_code(self, capsys, monkeypatch, argv, code, out,
                                  err):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv", [
        SINLOG_RATES, SINLOG_RATES + ["--combine=p=3", "--target-order", "2"],
        MOMENTS, VERIFY, EVAL + ["--combine", "p=2"],
        TABLE + ["--combine", "p=2", "--combine", "p=3"],
        VORONOVSKAYA, ["coeffs", "--p", "3"]])
    def test_namespace_is_the_top_level_one(self, argv):
        # the run record's keys follow the namespace, in its order
        got = vars(_parse(argv))
        want = vars(build_parser().parse_args(argv))
        assert list(got.items()) == list(want.items())

# the summary and config lines of one run of each operator command: the
# quadrature flags are theirs alone, and their records keep these digests
OPERATOR_RECORDS = {
    "eval": [
        "expsample eval: wrote 1 rows to e.out digest=ad1ad93cec20c925",
        'config: {"chi":"bspline:2","command":"eval","fn":"name:sinlog",'
        '"format":"csv","p":[],"phi":"char","quadrature":{"nodes_per_unit":'
        '20,"panel_max_width":0.5},"truncation_radius":null,'
        '"version":"0.1.0","w":[10.0],"x":[2.0]}'],
    "table": [
        "expsample table: wrote 1 cells to t.out digest=1c150fef945829da",
        'config: {"chi":"bspline:4","command":"table","fn":"name:fig2",'
        '"format":"csv","p":[],"phi":"bspline:2","quadrature":'
        '{"nodes_per_unit":20,"panel_max_width":0.5},"truncation_radius":'
        'null,"version":"0.1.0","w":[10.0],"x":[2.1]}'],
    "rates": [
        "expsample rates: fitted order 0.123 digest=615cf81e7e2a4649",
        'config: {"chi":"bspline:4","command":"rates","fn":"name:fig1",'
        '"p":[],"phi":"bspline:2","quadrature":{"nodes_per_unit":20,'
        '"panel_max_width":5.0},"target_order":null,"truncation_radius":'
        'null,"version":"0.1.0","w":[1.0,2.0,4.0],"x":2.0}'],
    "voronovskaya": [
        "expsample voronovskaya: deviation 0.00% digest=4971a0a449b65990",
        'config: {"chi":"bspline:4","command":"voronovskaya","fn":'
        '"name:sinlog","j":2,"p":[],"phi":"bspline:2","quadrature":'
        '{"nodes_per_unit":20,"panel_max_width":0.5},"truncation_radius":'
        'null,"version":"0.1.0","w":[50.0,100.0,200.0],"x":2.0}'],
}


class TestRunRecord:
    """A run's record holds every input that can change its stdout or
    files, so equal digests mean equal outputs."""

    @pytest.mark.parametrize("base, one, other", DIGEST_CHANGES, ids=[
        "_".join([base[0], *other]) for base, _, other in DIGEST_CHANGES])
    def test_each_input_changes_the_digest(self, capsys, tmp_path,
                                           monkeypatch, base, one, other):
        monkeypatch.chdir(tmp_path)
        first, second = (_run(capsys, base + extra) for extra in (one, other))
        assert first[0] == second[0] == 0
        assert first[2]["digest"] != second[2]["digest"]

    @pytest.mark.parametrize("base, one, other", DIGEST_KEPT)
    def test_ignored_inputs_keep_the_digest(self, capsys, tmp_path,
                                            monkeypatch, base, one, other):
        monkeypatch.chdir(tmp_path)
        first, second = (_run(capsys, base + extra) for extra in (one, other))
        assert first[1] == second[1].replace("b.csv", "a.csv")
        assert first[2] == second[2]

    def test_every_optional_flag_is_covered(self):
        # a flag that changes no output must not slip into a record: each
        # optional flag of a command that prints one is shown either to
        # move the digest or to keep it
        covered = {(base[0], word)
                   for base, one, other in DIGEST_CHANGES + DIGEST_KEPT
                   for word in one + other if word.startswith("--")}
        missing = [(name, action.option_strings[0])
                   for name, parser in build_parser().commands.items()
                   if name != "coeffs"  # prints no record
                   for action in parser._actions
                   if action.option_strings and not action.required
                   and action.dest != "help"
                   and (name, action.option_strings[0]) not in covered]
        assert missing == []

    @pytest.mark.parametrize("argv", [EVAL, TABLE, RATES, VORONOVSKAYA],
                             ids=lambda argv: argv[0])
    def test_operator_records_are_pinned(self, capsys, tmp_path, monkeypatch,
                                         argv):
        monkeypatch.chdir(tmp_path)
        code, out, _ = _run(capsys, argv)
        assert code == 0
        assert [ln for ln in out.splitlines() if ln.startswith(
            ("expsample ", "config: "))] == OPERATOR_RECORDS[argv[0]]

    @pytest.mark.parametrize("argv", [
        TABLE + ["--format", "json", "--combine", "p=3"],
        EVAL + ["--format", "json", "--panel-max-width", "inf"],
        RATES + ["--out", "r.json"],
        VORONOVSKAYA + ["--out", "v.json"]])
    def test_json_metadata_is_the_record(self, capsys, tmp_path, monkeypatch,
                                         argv):
        monkeypatch.chdir(tmp_path)
        code, _, record = _run(capsys, argv)
        assert code == 0
        out = tmp_path / argv[argv.index("--out") + 1]
        assert json.loads(out.read_text())["metadata"] == record

    @pytest.mark.parametrize("argv", [
        EVAL + ["--format", "json"], TABLE + ["--format", "json"],
        RATES + ["--out", "r.json"], VORONOVSKAYA + ["--out", "v.json"]],
        ids=lambda argv: argv[0])
    def test_json_metadata_keys_are_in_canonical_order(
            self, capsys, tmp_path, monkeypatch, argv):
        # the order of the canonical JSON the digest hashes, so equal
        # digests mean byte-identical files
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        out = tmp_path / argv[argv.index("--out") + 1]
        metadata = json.loads(out.read_text())["metadata"]
        assert list(metadata) == sorted(metadata)
        assert list(metadata["quadrature"]) == sorted(metadata["quadrature"])


class TestUnwritableOut:
    """An --out that cannot be written exits 2 naming the path and the
    reason, with no usage hint, since the command line is not at fault,
    and leaves no temporary file behind."""

    @pytest.mark.parametrize("argv", [EVAL, TABLE, RATES, VORONOVSKAYA],
                             ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_exit_2_names_the_path(self, capsys, tmp_path, monkeypatch, argv,
                                   target):
        monkeypatch.chdir(tmp_path)
        if target == "directory":
            (tmp_path / "dir").mkdir()
            path, reason = "dir", "Is a directory"
        else:
            path, reason = "missing/x.out", "No such file or directory"
        if "--out" in argv:
            argv = argv[:argv.index("--out")] + argv[argv.index("--out") + 2:]
        assert main([*argv, "--out", path]) == 2
        err = capsys.readouterr().err
        assert err.endswith(
            f"expsample {argv[0]}: error: cannot write {path}: {reason}\n")
        assert "--help" not in err and "Traceback" not in err
        assert [p.name for p in tmp_path.rglob("*.tmp.*")] == []


WIDE = "translates:2:a=e^-65536,b=e^65536"
PSI_BENCH = "translates:2:a=e^2,b=e^3"
ROUTES = ("discrete", "continuous", "poisson", "absolute-discrete",
          "absolute-continuous")

# the full stdout of the kernels commands; their residuals are at
# roundoff level, so any change in the order of the float operations
# behind them moves these lines
VERIFY_STDOUT = {
    ("bspline:2", "bspline:2"): (
        "partition of unity: pass (residual 0.000e+00)\n"
        "unit integral: pass (residual 0.000e+00)\n"
        "absolute moments of order 3 finite: pass (residual 2.250e-01)\n"
        "tail vanishing: pass (residual 0.000e+00)\n"
        "expsample verify: all pass digest=ed0aacf14d12b8ab\n"
        'config: {"chi":"bspline:2","command":"verify","phi":"bspline:2",'
        '"r":3,"tol":1e-08,"version":"0.1.0"}\n'),
    ("bspline:4", "bspline:2"): (
        "partition of unity: pass (residual 1.388e-16)\n"
        "unit integral: pass (residual 0.000e+00)\n"
        "absolute moments of order 3 finite: pass (residual 4.333e-01)\n"
        "tail vanishing: pass (residual 0.000e+00)\n"
        "expsample verify: all pass digest=2f90857a2cf79eed\n"
        'config: {"chi":"bspline:4","command":"verify","phi":"bspline:2",'
        '"r":3,"tol":1e-08,"version":"0.1.0"}\n'),
    ("bspline:6", "bspline:4"): (
        "partition of unity: pass (residual 1.214e-17)\n"
        "unit integral: pass (residual 0.000e+00)\n"
        "absolute moments of order 3 finite: pass (residual 8.619e-01)\n"
        "tail vanishing: pass (residual 0.000e+00)\n"
        "expsample verify: all pass digest=0964dad09620764a\n"
        'config: {"chi":"bspline:6","command":"verify","phi":"bspline:4",'
        '"r":3,"tol":1e-08,"version":"0.1.0"}\n'),
    ("char", "char"): (
        "partition of unity: pass (residual 0.000e+00)\n"
        "unit integral: pass (residual 0.000e+00)\n"
        "absolute moments of order 3 finite: pass (residual 1.250e+00)\n"
        "tail vanishing: pass (residual 0.000e+00)\n"
        "expsample verify: all pass digest=4269cb1edc268cb3\n"
        'config: {"chi":"char","command":"verify","phi":"char","r":3,'
        '"tol":1e-08,"version":"0.1.0"}\n'),
    (PSI_BENCH, "bspline:2"): (
        "partition of unity: pass (residual 0.000e+00)\n"
        "unit integral: pass (residual 0.000e+00)\n"
        "absolute moments of order 3 finite: pass (residual 7.810e+01)\n"
        "tail vanishing: pass (residual 0.000e+00)\n"
        "expsample verify: all pass digest=8bc509440f7e8bd1\n"
        'config: {"chi":"translates:2:a=e^2,b=e^3","command":"verify",'
        '"phi":"bspline:2","r":3,"tol":1e-08,"version":"0.1.0"}\n'),
}
MOMENTS_STDOUT = {
    ("bspline:4", "discrete"): (
        "0.3333333333\n"
        "expsample moments: order 2 discrete digest=f6ae5b6b6bee8da8\n"
        'config: {"command":"moments","kernel":"bspline:4","order":2,'
        '"route":"discrete","u":1.7,"version":"0.1.0"}\n'),
    ("bspline:4", "continuous"): (
        "0.3333333333\n"
        "expsample moments: order 2 continuous digest=1c2ef39ce4418e22\n"
        'config: {"command":"moments","kernel":"bspline:4","order":2,'
        '"route":"continuous","version":"0.1.0"}\n'),
    ("bspline:4", "poisson"): (
        "0.3333333333\n"
        "expsample moments: order 2 poisson digest=d7b8179922611371\n"
        'config: {"command":"moments","kernel":"bspline:4","order":2,'
        '"route":"poisson","version":"0.1.0"}\n'),
    ("bspline:4", "absolute-discrete"): (
        "0.3333333333\n"
        "expsample moments: order 2 absolute-discrete "
        "digest=0d8d3c74ed37a9c2\n"
        'config: {"command":"moments","kernel":"bspline:4","order":2,'
        '"route":"absolute-discrete","version":"0.1.0"}\n'),
    ("bspline:4", "absolute-continuous"): (
        "0.3333333333\n"
        "expsample moments: order 2 absolute-continuous "
        "digest=de3324212982c20e\n"
        'config: {"command":"moments","kernel":"bspline:4","order":2,'
        '"route":"absolute-continuous","version":"0.1.0"}\n'),
    (PSI_BENCH, "discrete"): (
        "-5.7509380898\n"
        "expsample moments: order 2 discrete digest=86d63b30fa85cd60\n"
        'config: {"command":"moments","kernel":"translates:2:a=e^2,b=e^3",'
        '"order":2,"route":"discrete","u":1.7,"version":"0.1.0"}\n'),
    (PSI_BENCH, "continuous"): (
        "-5.8333333333\n"
        "expsample moments: order 2 continuous digest=1ade2f6c001d2514\n"
        'config: {"command":"moments","kernel":"translates:2:a=e^2,b=e^3",'
        '"order":2,"route":"continuous","version":"0.1.0"}\n'),
    (PSI_BENCH, "poisson"): (
        "-5.9712427222\n"
        "expsample moments: order 2 poisson digest=16c50eaf8f4b71c2\n"
        'config: {"command":"moments","kernel":"translates:2:a=e^2,b=e^3",'
        '"order":2,"route":"poisson","version":"0.1.0"}\n'),
    (PSI_BENCH, "absolute-discrete"): (
        "30.0000000000\n"
        "expsample moments: order 2 absolute-discrete "
        "digest=1a9478815fe67be8\n"
        'config: {"command":"moments","kernel":"translates:2:a=e^2,b=e^3",'
        '"order":2,"route":"absolute-discrete","version":"0.1.0"}\n'),
    (PSI_BENCH, "absolute-continuous"): (
        "23.0813333333\n"
        "expsample moments: order 2 absolute-continuous "
        "digest=8a4930c4ebd20884\n"
        'config: {"command":"moments","kernel":"translates:2:a=e^2,b=e^3",'
        '"order":2,"route":"absolute-continuous","version":"0.1.0"}\n'),
}


class TestKernelsStdout:
    @pytest.mark.parametrize("chi, phi", list(VERIFY_STDOUT))
    def test_verify(self, capsys, chi, phi):
        assert main(["verify", "--chi", chi, "--phi", phi, "--r", "3"]) == 0
        assert capsys.readouterr().out == VERIFY_STDOUT[chi, phi]

    @pytest.mark.parametrize("kernel, route", list(MOMENTS_STDOUT))
    def test_moments(self, capsys, kernel, route):
        assert main(["moments", "--kernel", kernel, "--order", "2",
                     "--route", route, "--u", "1.7"]) == 0
        assert capsys.readouterr().out == MOMENTS_STDOUT[kernel, route]


class TestOrdersPastDoubleRange:
    # |v|^80 reaches 65537^80 = 10^385 on the wide kernel
    @pytest.mark.parametrize("route", [r for r in ROUTES if r != "poisson"])
    def test_moments_fail_with_named_cause(self, capsys, route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["moments", "--kernel", WIDE, "--order", "80",
                         "--route", route])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == (f"expsample moments: numerical failure: the moment of "
                       f"order 80 of {WIDE} overflows double precision\n")

    def test_wide_kernel_reads_the_direct_sum(self, capsys):
        # 2^32 + 0.249..., the rounded exact lattice sum at log 1.7, which
        # the direct sum over every lattice point printed too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["moments", "--kernel", WIDE, "--order", "2",
                         "--route", "discrete", "--u", "1.7"])
        out = capsys.readouterr().out
        exact = exact_lattice_moment(parse_kernel(WIDE), 2, math.log(1.7))[0]
        assert code == 0
        assert out.splitlines()[0] == "4294967296.2490615845"
        assert f"{float(exact):.10f}" == "4294967296.2490615845"

    def test_poisson_route_keeps_its_order_cap(self, capsys):
        assert main(["moments", "--kernel", WIDE, "--order", "80",
                     "--route", "poisson"]) == 1
        assert "supports orders j <= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("r, phi", [(80, WIDE), (1100, "bspline:2")])
    def test_verify_reports_the_failure(self, capsys, r, phi):
        # 1100 is past double range already in the binomial coefficients
        chi = WIDE if r == 80 else "bspline:4"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--chi", chi, "--phi", phi,
                         "--r", str(r)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[2] == (f"absolute moments of order {r} finite: "
                            "FAIL (residual inf)")
        assert lines[4].startswith("expsample verify: FAILURES reported ")

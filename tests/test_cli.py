"""Command line behavior: subcommands, formats, exit codes."""

from __future__ import annotations

import importlib.resources
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gacalc
from conftest import NESTINGS
from gacalc import G2, Multivector, Signature, cli
from gacalc.cli import emit_cayley, main, multivector_json, run_script
from gacalc.expr import Environment, repl_loop


# -- eval ----------------------------------------------------------------


def test_eval_prints_canonical_form(capsys):
    assert main(["eval", "e1*e2*e1*e2"]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_eval_json(capsys):
    assert main(["eval", "(e1 + 2*e2).(e1 + 2*e2)", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"signature": [3, 0], "terms": {"1": 5.0}}


def test_eval_json_term_order(capsys):
    assert main(["eval", "e123 + e1 + 1 + e12", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc["terms"]) == ["1", "e1", "e12", "e123"]


def test_eval_with_signature(capsys):
    assert main(["eval", "e2*e2", "--sig", "1,1"]) == 0
    assert capsys.readouterr().out == "-1\n"


def test_eval_parse_error_exits_2(capsys):
    assert main(["eval", "e1 +"]) == 2
    assert "ga:" in capsys.readouterr().err


def test_eval_lex_error_exits_2(capsys):
    assert main(["eval", "e21"]) == 2


def test_eval_overflowing_literal_exits_2(capsys):
    assert main(["eval", "1e+400*e1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ga: number 1e+400 overflows to inf (at 0..6)\n"


def test_run_counts_an_overflowing_literal_as_a_failure(tmp_path, capsys):
    path = write_script(tmp_path, "let a = 2*1e+400\nassert e1 ~ e1\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1: error: number 1e+400 overflows to inf (at 10..16)" in out
    assert "inf*" not in out


def test_eval_evaluation_error_exits_1(capsys):
    assert main(["eval", "1/(e1 + e1*e2)"]) == 1
    assert "ga:" in capsys.readouterr().err
    assert main(["eval", "nope"]) == 1


def test_eval_non_finite_exp_exits_1(capsys):
    assert main(["eval", "exp(1e+300*1e+300*e12)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ga: ") and "not finite" in err


def test_eval_exp_overflow_exits_1(capsys):
    assert main(["eval", "--sig", "1,1", "exp(1000*e12)"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ga: ") and "overflows" in err
    assert main(["eval", "--sig", "1,1", "exp(700*e12)"]) == 0
    assert "inf" not in capsys.readouterr().out


@pytest.mark.parametrize("selector", ["1e+300*1e+300", "1e+300*1e+300 - 1e+300*1e+300"])
def test_eval_non_finite_grade_selector_exits_1(capsys, selector):
    assert main(["eval", f"grade(e1, {selector})"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "ga: grade() selector must be a finite integer\n"
    assert captured.out == ""


@pytest.mark.parametrize("shape", NESTINGS)
def test_eval_deep_nesting_exits_2(capsys, shape):
    assert main(["eval", "--", NESTINGS[shape][0](5000)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ga: ") and "nesting exceeds" in err


def test_eval_bad_signature_exits_2(capsys):
    assert main(["eval", "e1", "--sig", "banana"]) == 2
    assert main(["eval", "e1", "--sig", "12,0"]) == 2


def test_exp_coefficient_overflow_exits_1(capsys):
    B = "1e+10*e13 + 9999999999.999975*e12"  # B*B ~ 4.9e5, scale ~ 1e301
    assert main(["eval", "--sig", "2,1", f"exp({B})"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ga: ") and "overflows" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [["eval", "e1"], ["repl"], ["table"]])
def test_bad_signature_prints_the_reason(capsys, command):
    assert main([*command, "--sig", "10,0"]) == 2
    assert "dimension 10 exceeds the language limit 9" in capsys.readouterr().err


# -- table ---------------------------------------------------------------


def test_table_text_g1(capsys):
    assert main(["table", "--sig", "1,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["1", "e1"]
    assert lines[1].split() == ["1", "1", "e1"]
    assert lines[2].split() == ["e1", "e1", "1"]


def test_table_json_g2(capsys):
    assert main(["table", "--sig", "2,0", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["signature"] == [2, 0]
    assert doc["blades"] == ["1", "e1", "e2", "e12"]
    assert doc["table"][3][3] == "-1"
    assert doc["table"][1][2] == "e12"
    assert doc["table"][2][1] == "-e12"


def test_table_dimension_limit_exits_2(capsys):
    assert main(["table", "--sig", "4,3"]) == 2
    assert main(["table", "--sig", "3,3"]) == 0


def test_table_requires_signature(capsys):
    assert main(["table"]) == 2


def test_emit_cayley_text_matches_json():
    text = emit_cayley(Signature(1, 1), "text")
    doc = json.loads(emit_cayley(Signature(1, 1), "json"))
    rows = text.splitlines()
    assert rows[0].split() == doc["blades"]
    for name, row, cells in zip(doc["blades"], rows[1:], doc["table"]):
        assert row.split() == [name] + cells


# -- repl ----------------------------------------------------------------


def test_repl_piped_session(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("let a = e1 + 2*e2\na.a\n:quit\n"))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out == "5\n"


def test_repl_survives_non_finite_exp(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("exp(1e+300*1e+300*e12)\ne1*e2\n"))
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.endswith("\n1*e12\n")


def test_repl_survives_exp_overflow(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("exp(1000*e12)\ne1*e2\n"))
    assert main(["repl", "--sig", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.endswith("\n1*e12\n")


def test_repl_survives_non_finite_grade_selector(capsys, monkeypatch):
    lines = "grade(e1, 1e+300*1e+300)\ngrade(e1, 1e+300*1e+300 - 1e+300*1e+300)\ne1*e2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out == (
        "error: grade() selector must be a finite integer\n" * 2 + "1*e12\n"
    )


def test_repl_with_signature(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("e2*e2\n"))
    assert main(["repl", "--sig", "0,2"]) == 0
    assert capsys.readouterr().out == "-1\n"


@pytest.mark.parametrize(
    "expr, out",
    [
        ("norm(1e+200*e1)", "9.9999999999999997e+199\n"),
        ("norm(1e-200*e1)", "9.9999999999999998e-201\n"),
        ("inv(1e-200*e1)", "9.9999999999999997e+199*e1\n"),
        ("inv(1e+200*e1)", "9.9999999999999998e-201*e1\n"),
    ],
)
def test_eval_norm_and_inv_of_huge_and_tiny_values(capsys, expr, out):
    assert main(["eval", expr]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize(
    "expr, out",
    [
        ("proj(e1, 1e+200*e1)", "1*e1\n"),
        ("rej(e2, 1e+200*e1)", "1*e2\n"),
        ("proj(3e+200*e1, 2e+200*e1)", "2.9999999999999999e+200*e1\n"),
        ("proj(e1, 1e-200*e1)", "1*e1\n"),
        ("rej(e2, 1e-200*e1)", "1*e2\n"),
        ("dist(e1, 1e-200*e2, e3)", "1.4142135623730951\n"),
        ("dist(1e+200*e1, e2, 0*e1)", "9.9999999999999997e+199\n"),
        ("dist(1e-200*e1, e2, 0*e1)", "9.9999999999999998e-201\n"),
        ("dist(0*e1, e1, 3e+200*e2 + 1e+200*e1)", "2.9999999999999999e+200\n"),
    ],
)
def test_eval_directions_of_huge_and_tiny_scale(capsys, expr, out):
    assert main(["eval", expr]) == 0
    assert capsys.readouterr().out == out


# nan from finite literals, so these stay valid if an overflowing literal
# ever becomes a parse error
NAN = "(1e+300*1e+300 - 1e+300*1e+300)"


@pytest.mark.parametrize(
    "expr, message",
    [
        (f"rot(e1, {NAN})", "ga: rotate expects a unit rotor: R * ~R must be 1\n"),
        (
            f"reflectn(e2, e1 + {NAN}*e3)",
            "ga: reflect_normal expects a unit vector, got squared length nan\n",
        ),
        (
            f"rotor(e1, e1 + {NAN}*e2)",
            "ga: rotor_between expects a unit vector, got squared length nan\n",
        ),
        (
            f"probp(e1, e1 + {NAN}*e2)",
            "ga: prob_plus expects a unit vector, got squared length nan\n",
        ),
        (
            f"unstereo(e1 + {NAN}*e3)",
            "ga: stereo_unproject expects a point in the equatorial plane (x.e3 = 0)\n",
        ),
        (f"dist(0*e1, {NAN}*e1, e2)", "ga: Line.direction must have positive square\n"),
    ],
)
def test_eval_a_nan_fails_the_unit_rotor_and_plane_guards(capsys, expr, message):
    assert main(["eval", expr]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_eval_norm_of_a_sum_whose_squares_overflow(capsys):
    assert main(["eval", "norm(3e+200*e1 + 4e+200*e2)"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(5e200, rel=1e-15)


# -- run -----------------------------------------------------------------


def write_script(tmp_path, text):
    path = tmp_path / "script.ga"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_passing_script(tmp_path, capsys):
    path = write_script(
        tmp_path,
        "# a comment\nlet a = 2*e1\nassert a*a ~ 4 1e-12\nassert a.a ~ 4\n",
    )
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "2 assertions, 0 failures\n"


def test_run_failing_assert_reports_line(tmp_path, capsys):
    path = write_script(tmp_path, "assert e1 ~ e2 1e-3\nassert e1 ~ e1\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1:" in out
    assert "2 assertions, 1 failures" in out


def test_run_reports_the_finite_gap_of_huge_sides(tmp_path, capsys):
    path = write_script(
        tmp_path, "assert inv(1e-200*e1) ~ 1e+200*e1 1e+185\nassert 1e+300*e1 ~ -1e+300*e1\n"
    )
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:2: assert failed: |lhs - rhs| = 2.0000000000000001e+300 exceeds" in out
    assert "2 assertions, 1 failures" in out


def test_run_fails_every_null_difference(tmp_path, capsys):
    # each difference is null in its signature, so its metric norm is 0
    path = write_script(
        tmp_path,
        ":sig 4,1\nassert e4 + e5 ~ 0\nassert e12 ~ e12 + e14 + e15\n"
        ":sig 1,1\nassert 1 ~ 1 + 1e+6*e1 + 1e+6*e2\n",
    )
    assert main(["run", path]) == 1
    tail = " exceeds tolerance 9.9999999999999998e-13"
    assert capsys.readouterr().out.splitlines() == [
        f"{path}:2: assert failed: |lhs - rhs| = 1.4142135623730951{tail}",
        f"{path}:3: assert failed: |lhs - rhs| = 1.4142135623730951{tail}",
        f"{path}:5: assert failed: |lhs - rhs| = 1414213.562373095{tail}",
        "3 assertions, 3 failures",
    ]


def test_run_counts_parse_and_eval_errors(tmp_path, capsys):
    path = write_script(tmp_path, "e1 +\nunbound\nassert e1 ~ e1\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1:" in out
    assert f"{path}:2:" in out
    assert "1 assertions, 2 failures" in out


def test_run_empty_script(tmp_path, capsys):
    path = write_script(tmp_path, "")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "0 assertions, 0 failures\n"


def test_run_expression_statements_stay_silent(tmp_path, capsys):
    path = write_script(tmp_path, "e1*e2\nlet a = 5\n")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "0 assertions, 0 failures\n"


def test_run_honors_colon_commands(tmp_path, capsys):
    path = write_script(tmp_path, ":sig 1,1\nassert e2*e2 ~ -1\n")
    assert main(["run", path]) == 0


def test_run_quit_stops_early(tmp_path, capsys):
    path = write_script(tmp_path, "assert e1 ~ e1\n:quit\nassert e1 ~ e2\n")
    assert main(["run", path]) == 0
    assert "1 assertions, 0 failures" in capsys.readouterr().out


def test_run_bad_colon_command_counts_as_failure(tmp_path, capsys):
    path = write_script(tmp_path, ":sig nope\n")
    assert main(["run", path]) == 1
    assert f"{path}:1:" in capsys.readouterr().out


def test_repl_and_run_report_the_same_verdicts(tmp_path):
    lines = [
        "assert e1*e1 ~ 1",
        "assert e1 ~ e2 0.5",
        "e1 +",
        "nope + 1",
        ":tol -1",
        ":sig 1,1",
        "assert e2*e2 ~ -1",
        ":quit",
        "assert e1 ~ e2",
    ]
    # a "0" after each line closes that line's REPL output; scripts print no values
    text = "".join(f"{line}\n0\n" for line in lines)
    out = io.StringIO()
    assert repl_loop(Environment(), io.StringIO(text), out) == 0
    groups = "\n".join(out.getvalue().splitlines()).split("\n0")[:-1]
    repl_failed = [g.strip().startswith(("error:", "assert failed:")) for g in groups]
    path = write_script(tmp_path, text)
    script = io.StringIO()
    assert run_script(path, Environment(), script) == 1
    run_failed = [f"{path}:{2 * i + 1}:" in script.getvalue() for i in range(len(lines))]
    assert repl_failed == run_failed[: lines.index(":quit")]
    assert repl_failed == [False, True, True, True, True, False, False]
    assert not any(run_failed[lines.index(":quit") :])
    assert script.getvalue().endswith("3 assertions, 4 failures\n")


def test_run_counts_a_non_finite_assert_tolerance_as_a_failure(tmp_path, capsys):
    path = write_script(tmp_path, "assert e1 ~ e2 1e+400\nassert e1 ~ e1\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1: error: assert tolerance 1e+400 is not finite" in out
    assert out.endswith("1 assertions, 1 failures\n")


def test_run_reports_an_assert_with_a_non_finite_side(tmp_path, capsys):
    path = write_script(tmp_path, "assert 1e+300*1e+300*e1 ~ 1e+300*1e+300*e1\nassert e1 ~ e1\n")
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert f"{path}:1: error: assert: the left side is not finite (inf*e1)" in out
    assert "nan" not in out
    assert out.endswith("2 assertions, 1 failures\n")


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.ga")]) == 2


def test_run_shipped_identity_script(capsys):
    path = importlib.resources.files("gacalc").joinpath("identities.ga")
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("0 failures\n")


# -- environment and usage -----------------------------------------------


def test_module_launch_prints_no_warning():
    src = Path(gacalc.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "gacalc.cli", "eval", "e1*e2"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "1*e12\n")


def test_cli_names_stay_importable_from_the_package():
    for name in ("emit_cayley", "main", "multivector_json", "run_script"):
        assert getattr(gacalc, name) is getattr(cli, name)
    with pytest.raises(AttributeError):
        gacalc.no_such_name


def test_ga_tol_overrides_default(tmp_path, capsys, monkeypatch):
    path = write_script(tmp_path, "assert e1 ~ 1.0001*e1\n")
    assert main(["run", path]) == 1
    capsys.readouterr()
    monkeypatch.setenv("GA_TOL", "0.1")
    assert main(["run", path]) == 0


def test_invalid_ga_tol_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GA_TOL", "banana")
    assert main(["eval", "e1"]) == 2
    monkeypatch.setenv("GA_TOL", "-1e-12")
    assert main(["eval", "e1"]) == 2


def test_ga_tol_error_is_one_line(capsys, monkeypatch):
    monkeypatch.setenv("GA_TOL", "inf")
    assert main(["eval", "e1"]) == 2
    err = capsys.readouterr().err
    assert err == "ga: GA_TOL: tolerance must be a positive finite number, got 'inf'\n"


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "eval" in capsys.readouterr().out


def test_output_is_deterministic(capsys):
    assert main(["eval", "0.1*e1 + 0.2*e2 - 7e-3*e123"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "0.1*e1 + 0.2*e2 - 7e-3*e123"]) == 0
    assert capsys.readouterr().out == first


# -- json helpers ---------------------------------------------------------


def test_multivector_json_zero():
    assert multivector_json(Multivector.zero(G2)) == {
        "signature": [2, 0],
        "terms": {},
    }

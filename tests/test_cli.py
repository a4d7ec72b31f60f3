"""Command-line behavior: outputs, JSON schema, exit codes, determinism."""

import argparse
import json
from pathlib import Path

import pytest

from gbgeom import cli
from gbgeom.cli import build_parser, main, run_command

FIXTURES = Path(__file__).parent / "fixtures"
PARABOLOID = str(FIXTURES / "paraboloid_cylinder.sys")
CURVE = str(FIXTURES / "cubic_curve.sys")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_cleared_lines(capsys):
    code, out, _ = run(capsys, "basis", PARABOLOID, "--cleared")
    assert code == 0
    assert out.splitlines() == [
        "b*x + a*y - a*b*z",
        "2*y^2 - 2*b*y*z + b^2*z^2 - b^2*z",
    ]


def test_basis_monic_is_the_default(capsys):
    code, out, _ = run(capsys, "basis", PARABOLOID)
    assert code == 0
    assert out.splitlines() == [
        "x + a/b*y - a*z",
        "y^2 - b*y*z + 1/2*b^2*z^2 - 1/2*b^2*z",
    ]


def test_basis_json_schema(capsys):
    code, out, _ = run(capsys, "basis", PARABOLOID, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == "lex"
    assert payload["vars"] == ["x", "y", "z"]
    assert payload["params"] == ["a", "b"]
    assert payload["basis"] == [
        {"monic": "x + a/b*y - a*z", "cleared": "b*x + a*y - a*b*z"},
        {
            "monic": "y^2 - b*y*z + 1/2*b^2*z^2 - 1/2*b^2*z",
            "cleared": "2*y^2 - 2*b*y*z + b^2*z^2 - b^2*z",
        },
    ]


def test_basis_inline_system(capsys):
    code, out, _ = run(
        capsys, "basis", "--vars", "x y z", "--poly", "x - y", "--poly", "x - z"
    )
    assert code == 0
    assert out.splitlines() == ["x - z", "y - z"]


def test_basis_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "basis", PARABOLOID, "--json")
    _, second, _ = run(capsys, "basis", PARABOLOID, "--json")
    assert first == second


def test_reduce_reports_cofactors_and_normal_form(capsys):
    code, out, _ = run(capsys, "reduce", CURVE, "--target", "x + y + z - 4")
    assert code == 0
    assert out.splitlines() == [
        "basis 1: x + z^3 + z - 3",
        "basis 2: y - z^3 - 1",
        "cofactor 1: 1",
        "cofactor 2: 1",
        "normal form: 0",
    ]


def test_reduce_json_reconstruction_fields(capsys):
    code, out, _ = run(capsys, "reduce", CURVE, "--target", "x*y", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"order", "vars", "params", "basis", "cofactors", "normal_form"}
    assert len(payload["cofactors"]) == len(payload["basis"]) == 2


def test_planar_parametric_plane(capsys):
    code, out, _ = run(capsys, "planar", PARABOLOID)
    assert code == 0
    assert out == "b*x + a*y - a*b*z = 0\n"


def test_planar_hidden_plane(capsys):
    code, out, _ = run(capsys, "planar", CURVE)
    assert code == 0
    assert out == "x + y + z - 4 = 0\n"


def test_planar_monic_flag(capsys):
    code, out, _ = run(capsys, "planar", PARABOLOID, "--monic")
    assert code == 0
    assert out == "x + a/b*y - a*z = 0\n"


def test_planar_none_result_still_succeeds(capsys):
    code, out, _ = run(
        capsys, "planar", "--vars", "x y z", "--poly", "x^2 - y", "--poly", "x^3 - z"
    )
    assert code == 0
    assert out == "none\n"


def test_planar_empty_variety(capsys):
    code, out, _ = run(capsys, "planar", "--vars", "x y z", "--poly", "x", "--poly", "x + 1")
    assert code == 0
    assert out == "empty-variety\n"


def test_planar_json_statuses(capsys):
    code, out, _ = run(capsys, "planar", PARABOLOID, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "planes"
    assert payload["planes"] == [{"A": "1", "B": "a/b", "C": "-a", "D": "0"}]
    code, out, _ = run(
        capsys, "planar", "--vars", "x y z", "--poly", "x^2 - y", "--poly", "x^3 - z", "--json"
    )
    assert json.loads(out) == {
        "order": "lex",
        "vars": ["x", "y", "z"],
        "params": [],
        "status": "none",
        "planes": [],
    }


def test_conoid_section_line_pair(capsys):
    code, out, _ = run(capsys, "conoid", "section", "--axis", "y", "--value", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "plane y = 0: line-pair"
    assert "  x = 2*(z - 1)" in lines
    assert "  x = -2*(z - 1)" in lines


def test_conoid_section_empty_with_custom_parameters(capsys):
    code, out, _ = run(
        capsys,
        "conoid", "section", "--a", "2", "--b", "1", "--d", "1", "--h", "1",
        "--axis", "y", "--value", "3/2",
    )
    assert code == 0
    assert out.splitlines()[0] == "plane y = 3/2: empty"


def test_conoid_section_json(capsys):
    code, out, _ = run(capsys, "conoid", "section", "--axis", "y", "--value", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "double-line"
    assert payload["lines"] == ["x = (z - 1)"]
    assert payload["discriminant"] == "0"


def test_conoid_conic_analysis_shows_constraint_basis(capsys):
    code, out, _ = run(capsys, "conoid", "conic-analysis")
    assert code == 0
    assert "  A^2 + 2*d*h/(a^2 + d^2)*A" in out.splitlines()
    assert "  B" in out.splitlines()
    assert "  D + h" in out.splitlines()
    assert "family 1: plane z - h = 0 (A = 0, B = 0, C = 1, D = -h)" in out.splitlines()


def test_conoid_verdict_ends_with_conclusion(capsys):
    code, out, _ = run(capsys, "conoid", "verdict")
    assert code == 0
    assert out.rstrip().endswith("no plane section is a non-degenerate conic")


def test_conoid_verdict_json(capsys):
    code, out, _ = run(capsys, "conoid", "verdict", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "no plane section is a non-degenerate conic"
    assert payload["family_bases"][0] == ["x^2", "z - h"]
    assert payload["forced_zero_coefficient"] == "-2*d*h*A^2/B^2"


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "basis", "definitely_missing.sys")
    assert code == 1
    assert "error" in err


def test_bad_expression_exits_one(capsys):
    code, _, err = run(capsys, "basis", "--vars", "x", "--poly", "x + w")
    assert code == 1
    assert "unknown identifier" in err


def test_deep_nesting_exits_one(capsys):
    nested = "(" * 10_000 + "x" + ")" * 10_000
    code, out, err = run(capsys, "basis", "--vars", "x", "--poly", nested)
    assert code == 1
    assert out == ""
    assert "expression nested too deeply" in err
    code, out, _ = run(capsys, "basis", "--vars", "x", "--poly", "(" * 100 + "x" + ")" * 100)
    assert code == 0
    assert out == "x\n"


def test_huge_exponent_exits_one(capsys):
    code, out, err = run(capsys, "basis", "--vars", "x", "--poly", "(x + 1)^100000000")
    assert code == 1
    assert out == ""
    assert "column 9: exponent too large" in err


def test_exponent_over_division_limit_exits_one(capsys):
    # nested powers stay within the parser's bounds but pass division's limit
    # of 2^31 - 1 per exponent; the answer is refused, not computed wrongly
    power = "(((x^1000)^1000)^1000)^3"
    code, out, err = run(capsys, "basis", "--vars", "x,y", "--poly", f"{power} - y", "--poly", "y - 1")
    assert code == 1
    assert out == ""
    assert "exponent 3000000000 is over the limit 2147483647" in err
    assert "Traceback" not in err


def test_oversized_power_exits_one(capsys):
    code, out, err = run(capsys, "basis", "--vars", "x,y,z", "--poly", "(x+y+z+1)^1000")
    assert code == 1
    assert out == ""
    assert "column 10: expression too large" in err
    assert "Traceback" not in err


def test_overlong_integer_literal_exits_one(capsys):
    code, out, err = run(capsys, "basis", "--vars", "x", "--poly", "x + " + "9" * 5000)
    assert code == 1
    assert out == ""
    assert "column 5: integer literal too long" in err
    assert "Traceback" not in err

def test_file_and_inline_flags_conflict(capsys):
    code, _, err = run(capsys, "basis", PARABOLOID, "--vars", "x")
    assert code == 1
    assert "not both" in err


def test_no_system_at_all(capsys):
    code, _, err = run(capsys, "basis")
    assert code == 1
    assert "no system" in err


def test_invalid_conoid_parameters_exit_one(capsys):
    code, _, err = run(
        capsys, "conoid", "section", "--a", "1", "--b", "2", "--axis", "y", "--value", "0"
    )
    assert code == 1
    assert "a > b > 0" in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        run_command(["basis", "--order", "grevlex", "--vars", "x", "--poly", "x"])
    assert info.value.code == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run_command(["conoid", "section", "--axis", "y", "--value", "pi"])
    assert info.value.code == 1
    capsys.readouterr()
    # a zero denominator, and an exponent bounded before Fraction expands it
    for option, number, message in (
        ("--value", "1/0", "zero denominator: '1/0'"),
        ("--a", "1/0", "zero denominator: '1/0'"),
        ("--value", "1e999999999", "exponent over 1000: '1e999999999'"),
    ):
        with pytest.raises(SystemExit) as info:
            run_command(["conoid", "section", "--axis", "y", "--value", "1", option, number])
        assert info.value.code == 1
        assert message in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        run_command([])
    assert info.value.code == 1
    capsys.readouterr()


def test_main_accepts_explicit_argv(capsys):
    assert main(["planar", CURVE]) == 0
    assert capsys.readouterr().out == "x + y + z - 4 = 0\n"


def _defaults(parser):
    """The defaults of a parser, of its actions and of its subparsers, in order."""
    out = [parser._defaults]
    for action in parser._actions:
        out.append((action.dest, action.default))
        if isinstance(action, argparse._SubParsersAction):
            out += [(name, _defaults(sub)) for name, sub in action.choices.items()]
    return out


def test_run_command_reuses_one_parser(capsys):
    command = ["basis", "--vars", "x y", "--poly", "x^2 - y", "--poly", "y - 1"]
    with pytest.raises(SystemExit) as info:
        run_command(["basis", "--vars", "x", "--poly", "x", "--order", "grevlex"])
    assert info.value.code == 1
    capsys.readouterr()
    outputs = [run(capsys, *command) for _ in range(2)]
    assert outputs[0] == outputs[1] == (0, "x^2 - 1\ny - 1\n", "")
    assert cli._command_parser() is cli._command_parser()
    # no parse left a value behind: --poly appends to a list of its own each time
    assert _defaults(cli._command_parser()) == _defaults(build_parser())

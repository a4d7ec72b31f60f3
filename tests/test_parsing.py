"""Expression grammar, system files, and the render round-trip."""

from fractions import Fraction

import pytest

from gbgeom import render
from gbgeom.parsing import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    ParseError,
    SystemFile,
    parse_expression,
    parse_system,
    read_system,
)
from gbgeom.polynomials import VarContext, clear_denominators

CTX = VarContext(("x", "y", "z"), ("a", "b"))
X, Y, Z = (CTX.variable(n) for n in ("x", "y", "z"))


def test_parses_sums_products_and_powers():
    assert parse_expression("x + y*z + y - z^4 - 4", CTX) == X + Y * Z + Y - Z**4 - 4
    assert parse_expression("x^2*y^3", CTX) == X * X * Y**3
    assert parse_expression("0", CTX) == CTX.zero()
    assert parse_expression("7", CTX) == CTX.constant(7)


def test_parses_parameter_division():
    p = parse_expression("z - x^2/a^2 - y^2/b^2", CTX)
    a, b = CTX.coefficient("a"), CTX.coefficient("b")
    assert p == Z - (X * X).scale((a * a).invert()) - (Y * Y).scale((b * b).invert())
    assert parse_expression("x/2", CTX) == X / 2
    assert parse_expression("x/(a*b)", CTX) == X.scale((a * b).invert())
    assert parse_expression("6/4", CTX) == CTX.constant(Fraction(3, 2))


def test_unary_minus_and_parentheses():
    assert parse_expression("-x + y", CTX) == Y - X
    assert parse_expression("-(x + y)^2", CTX) == -((X + Y) ** 2)
    assert parse_expression("x - (y - z)", CTX) == X - Y + Z
    assert parse_expression("((x))", CTX) == X
    assert parse_expression("(-y)", CTX) == -Y


def test_precedence_and_associativity():
    assert parse_expression("x + y*z^2", CTX) == X + Y * Z * Z
    assert parse_expression("x*y/2", CTX) == X * Y / 2
    assert parse_expression("x/2/2", CTX) == X / 4
    assert parse_expression("2*x^2", CTX) == 2 * X * X


def test_rejects_implicit_multiplication():
    with pytest.raises(ParseError) as info:
        parse_expression("2x", CTX)
    assert "implicit multiplication" in str(info.value)
    with pytest.raises(ParseError):
        parse_expression("x (y)", CTX)


def test_rejects_unknown_identifiers_with_position():
    with pytest.raises(ParseError) as info:
        parse_expression("x + w*y", CTX)
    assert info.value.position == 4
    assert "unknown identifier 'w'" in str(info.value)


def test_rejects_variable_and_zero_divisors():
    with pytest.raises(ParseError) as info:
        parse_expression("x/y", CTX)
    assert "containing variables" in str(info.value)
    with pytest.raises(ParseError):
        parse_expression("1/(a - a)", CTX)
    with pytest.raises(ParseError):
        parse_expression("x/0", CTX)
    # a divisor that cancels to a parameter constant is fine
    assert parse_expression("x/(y - y + a)", CTX) == X.scale(CTX.coefficient("a").invert())


def test_rejects_bad_exponents():
    with pytest.raises(ParseError) as info:
        parse_expression("x^-2", CTX)
    assert "non-negative" in str(info.value)
    with pytest.raises(ParseError):
        parse_expression("x^(2)", CTX)
    with pytest.raises(ParseError):
        parse_expression("x^2^3", CTX)


def test_rejects_malformed_syntax():
    for text in ("x +", "* x", "(x + y", "x)", "", "x $ y", "x + + y"):
        with pytest.raises(ParseError):
            parse_expression(text, CTX)


def test_deep_nesting_is_a_parse_error():
    assert parse_expression("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, CTX) == X
    with pytest.raises(ParseError) as info:
        parse_expression("(" * 10_000 + "x" + ")" * 10_000, CTX)
    assert info.value.message == "expression nested too deeply"
    assert info.value.position == MAX_NESTING


def test_huge_exponent_is_a_parse_error():
    for exponent in (str(MAX_EXPONENT + 1), "9" * 5000):
        with pytest.raises(ParseError) as info:
            parse_expression(f"(x + y)^{exponent}", CTX)
        assert info.value.message == "exponent too large"
        assert info.value.position == 8


def test_oversized_power_or_product_is_a_parse_error():
    # (x+y+z+1)^1000 would have C(1003, 3) terms; over Q(a, b) the terms of
    # parameter numerators and denominators count too
    for text, position in (
        ("(x + y + z + 1)^1000", 15),
        ("(a + b + 1)^1000", 11),
        ("(x + 1/(a + b))^1000", 15),
    ):
        with pytest.raises(ParseError) as info:
            parse_expression(text, CTX)
        assert info.value.message == "expression too large"
        assert info.value.position == position
    # a product's bound is the product of its factors' sizes: 100 * 100 is
    # accepted, 100 * 101 is not
    rational = VarContext(("x", "y"))
    assert MAX_TERMS == 100 * 100
    assert len(parse_expression("(x + 1)^99 * (y + 1)^99", rational).terms) == MAX_TERMS
    with pytest.raises(ParseError) as info:
        parse_expression("(x + 1)^99 * (y + 1)^100", rational)
    assert info.value.message == "expression too large"
    assert info.value.position == 11
    # C(12, 2) = 66 terms
    assert len(parse_expression("(x + y + 1)^10", rational).terms) == 66


def test_overlong_integer_literal_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_expression("x + " + "9" * 5000, CTX)
    assert info.value.message == "integer literal too long"
    assert info.value.position == 4

def test_system_file_parsing():
    text = """
    # a system with two generators
    vars: x y z
    params: a b
    order: lex
    poly: z - x^2/a^2 - y^2/b^2
    poly: x + y
    """
    system = parse_system(text)
    assert system.variables == ("x", "y", "z")
    assert system.parameters == ("a", "b")
    assert system.order == "lex"
    assert len(system.polynomials) == 2
    built = system.build()
    assert built[1] == X + Y
    assert system.context() == CTX


def test_system_file_comma_names_and_defaults():
    system = parse_system("vars: x, y, z\npoly: x\n")
    assert system.variables == ("x", "y", "z")
    assert system.parameters == ()
    assert system.order == "lex"


def test_system_file_errors_carry_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_system("vars: x\norder: grevlex\n")
    assert info.value.line == 2
    for text in (
        "poly: x\n",  # missing vars
        "vars: x\nvars: y\n",
        "vars: x\nparams: a\nparams: b\n",
        "vars: x\norder: lex\norder: lex\n",
        "vars: 2bad\n",
        "vars:\n",
        "vars: x\npoly:\n",
        "vars: x\nnonsense: 1\n",
        "no separator\n",
    ):
        with pytest.raises(ParseError):
            parse_system(text)


def test_system_file_build_reports_offending_polynomial():
    system = parse_system("vars: x\npoly: x\npoly: x + w\n")
    with pytest.raises(ParseError) as info:
        system.build()
    assert "poly 2" in str(info.value)


def test_system_file_rejects_non_lex_order_on_construction():
    with pytest.raises(ParseError):
        SystemFile(("x",), (), "grevlex", ())


def test_read_system_from_disk(tmp_path):
    path = tmp_path / "probe.sys"
    path.write_text("vars: x y z\npoly: x - y\n", encoding="utf-8")
    system = read_system(path)
    assert system.build() == [VarContext(("x", "y", "z")).variable("x") - VarContext(("x", "y", "z")).variable("y")]


def test_render_modes():
    a, b = CTX.coefficient("a"), CTX.coefficient("b")
    p = X.scale(b) + Y.scale(a) - Z.scale(a * b)
    assert render(p, "cleared") == "b*x + a*y - a*b*z"
    assert render(p, "monic") == "x + a/b*y - a*z"
    assert render(CTX.zero(), "monic") == "0"
    assert render(CTX.zero(), "cleared") == "0"
    with pytest.raises(ValueError):
        render(p, "fancy")


def test_render_parse_round_trip_is_identity_on_normal_forms():
    a, b = CTX.coefficient("a"), CTX.coefficient("b")
    samples = [
        X + Y.scale(a / b) - Z.scale(a),
        2 * Y * Y - (Y * Z).scale(2 * b) + (Z * Z).scale(b * b) - Z.scale(b * b),
        X**3 - X / 2 + CTX.constant(Fraction(1, 6)),
    ]
    for p in samples:
        assert parse_expression(render(p, "monic"), CTX) == p.monic()
        assert parse_expression(render(p, "cleared"), CTX) == clear_denominators(p)

"""Polynomials under lex order: canonical terms, arithmetic, rendering, helpers."""

from fractions import Fraction

import pytest

from gbgeom.coefficients import ParamFraction
from gbgeom.polynomials import (
    Monomial,
    Polynomial,
    VarContext,
    clear_denominators,
    coefficient_of,
    leading_parts,
    monomial_gcd,
    monomial_lcm,
    substitute,
)

from support import lex_compare

CTX = VarContext(("x", "y", "z"), ("a", "b"))
X, Y, Z = (CTX.variable(n) for n in ("x", "y", "z"))
A = CTX.constant("a")
B = CTX.constant("b")


def test_context_rejects_bad_names():
    with pytest.raises(ValueError):
        VarContext(())
    with pytest.raises(ValueError):
        VarContext(("x", "x"))
    with pytest.raises(ValueError):
        VarContext(("x",), ("x",))
    with pytest.raises(ValueError):
        VarContext(("x-y",))


def test_context_coercion_paths():
    half = CTX.coefficient(Fraction(1, 2))
    assert half.is_constant() and half.constant_value() == Fraction(1, 2)
    assert CTX.coefficient("a") == ParamFraction.parameter(("a", "b"), "a")
    with pytest.raises(ValueError):
        CTX.coefficient(ParamFraction.parameter(("q",), "q"))
    with pytest.raises(ValueError):
        CTX.variable("a")


def test_monomial_operations():
    u = Monomial((2, 0, 1))
    v = Monomial((1, 3, 0))
    assert u.degree == 3
    assert (u * v).exponents == (3, 3, 1)
    assert monomial_lcm(u, v).exponents == (2, 3, 1)
    assert monomial_gcd(u, v).exponents == (1, 0, 0)
    assert Monomial((1, 0, 0)).divides(u)
    assert not v.divides(u)
    assert u.quotient(Monomial((1, 0, 0))).exponents == (1, 0, 1)
    with pytest.raises(ValueError):
        u.quotient(v)
    with pytest.raises(ValueError):
        Monomial((-1, 0, 0))


def test_lex_order_comparisons():
    x, y, z = Monomial((1, 0, 0)), Monomial((0, 1, 0)), Monomial((0, 0, 1))
    assert lex_compare(x, y) > 0
    assert lex_compare(y, z) > 0
    assert lex_compare(Monomial((0, 0, 5)), x) < 0  # x beats any power of z
    assert lex_compare(x, x) == 0
    assert Monomial((1, 2, 0)).exponents > Monomial((1, 1, 9)).exponents
    assert [t.monomial for t in (Z**5 + X).terms] == [x, Monomial((0, 0, 5))]


def test_polynomial_terms_canonical_and_descending():
    p = Z + X * X + Y
    exps = [t.monomial.exponents for t in p.terms]
    assert exps == [(2, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert X - X == CTX.zero()
    assert not (X - X)
    assert (X + Y) + (X - Y) == X.scale(CTX.coefficient(2))


def test_polynomial_equality_and_hash():
    assert X + Y == Y + X
    assert hash(X + Y) == hash(Y + X)
    assert X != Y
    assert CTX.constant(3) == CTX.constant(Fraction(6, 2))


def test_polynomial_arithmetic_with_scalars():
    assert 2 * X == X + X
    assert X * Fraction(1, 2) + X * Fraction(1, 2) == X
    assert (X + 1) - 1 == X
    assert 1 - (1 - X) == X
    assert X / 2 + X / 2 == X
    with pytest.raises(TypeError):
        X / Y  # polynomial division lives in the division module


def test_polynomial_powers():
    assert (X + Y) ** 0 == CTX.one()
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert (X - Y) ** 3 == X**3 - 3 * X**2 * Y + 3 * X * Y**2 - Y**3
    with pytest.raises(ValueError):
        X ** -1


def test_monic_divides_by_leading_coefficient():
    p = 2 * X * X + 4 * Y
    assert p.monic() == X * X + 2 * Y
    q = X.scale(CTX.coefficient("a")) + Y
    assert q.monic() == X + Y.scale(CTX.coefficient("a").invert())
    assert CTX.zero().monic() == CTX.zero()  # zero is a fixpoint, not an error


def test_leading_parts():
    p = Y + X.scale(CTX.coefficient("b")) + Z * Z
    term, monomial, coeff = leading_parts(p)
    assert monomial.exponents == (1, 0, 0)
    assert coeff == CTX.coefficient("b")
    assert term.monomial is monomial


def test_coefficient_of():
    p = (X + Y) ** 2 + Z.scale(CTX.coefficient("a"))
    assert coefficient_of(p, (1, 1, 0)) == CTX.coefficient(2)
    assert coefficient_of(p, (0, 0, 1)) == CTX.coefficient("a")
    assert coefficient_of(p, (5, 0, 0)) == CTX.coefficient(0)
    assert coefficient_of(p, Monomial((2, 0, 0))) == CTX.coefficient(1)


def test_evaluate_variables_and_parameters():
    p = X * X + Y.scale(CTX.coefficient("a")) - CTX.constant(1)
    value = p.evaluate(
        {"x": Fraction(2), "y": Fraction(3), "z": Fraction(0)}, {"a": Fraction(5), "b": Fraction(1)}
    )
    assert value == Fraction(18)


def test_substitute_replaces_one_variable():
    p = X * X * Y + Z
    assert substitute(p, "x", Y) == Y**3 + Z
    assert substitute(p, "z", CTX.zero()) == X * X * Y
    # substituting a variable by itself returns the identical object
    assert substitute(p, "y", Y) is p
    assert substitute(p, "x", X + 1) == (X + 1) ** 2 * Y + Z


def test_substitute_with_constant_value():
    p = (X - 1) * (X + 1)
    assert substitute(p, "x", CTX.constant(1)) == CTX.zero()
    assert substitute(CTX.one(), "x", Z) == CTX.one()


def test_clear_denominators_produces_primitive_integer_form():
    p = X.scale(CTX.coefficient(Fraction(1, 2))) + Y.scale(CTX.coefficient(Fraction(1, 3)))
    cleared = clear_denominators(p)
    assert cleared == 3 * X + 2 * Y
    q = X + Y.scale(CTX.coefficient("a") / CTX.coefficient("b"))
    assert clear_denominators(q) == X.scale(CTX.coefficient("b")) + Y.scale(CTX.coefficient("a"))
    assert clear_denominators(CTX.zero()) == CTX.zero()
    assert clear_denominators(-2 * X - 4 * Y) == X + 2 * Y  # sign and content normalized


def test_clear_denominators_removes_common_parameter_factor():
    a, b = CTX.coefficient("a"), CTX.coefficient("b")
    p = X.scale(a * b) + Y.scale(a * a)
    assert clear_denominators(p) == X.scale(b) + Y.scale(a)


def test_str_rendering_signs_and_fractions():
    assert str(X - Y) == "x - y"
    assert str(-X + Y) == "-x + y"
    assert str(X * X * Y**3) == "x^2*y^3"
    assert str(CTX.zero()) == "0"
    assert str(X / 2 - CTX.constant(Fraction(7, 3))) == "1/2*x - 7/3"
    p = X.scale(CTX.coefficient("a") + CTX.coefficient("b")) + Y
    assert str(p) == "(a + b)*x + y"
    assert str(-p) == "-(a + b)*x - y"
    q = Z.scale((CTX.coefficient("a") ** 2 + CTX.coefficient("b")) / CTX.coefficient("b"))
    assert str(q) == "(a^2 + b)/b*z"


def test_str_round_trips_via_parser():
    from gbgeom.parsing import parse_expression

    samples = [
        X * X - Y.scale(CTX.coefficient("a") / CTX.coefficient("b")) + CTX.constant(Fraction(5, 7)),
        -X + 2 * Y - 3 * Z,
        (X + Y + Z) ** 3,
        CTX.zero(),
    ]
    for p in samples:
        assert parse_expression(str(p), CTX) == p


def test_cross_context_operations_rejected():
    other = VarContext(("x", "y"), ("a",))
    with pytest.raises(ValueError):
        X + other.variable("x")

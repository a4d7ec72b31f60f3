"""Polynomials under lex order: canonical terms, arithmetic, rendering, helpers."""

from fractions import Fraction

import pytest

from gbgeom.coefficients import ParamFraction
from gbgeom.groebner import _divides
from gbgeom.polynomials import (
    Polynomial,
    Term,
    VarContext,
    clear_denominators,
    coefficient_of,
    leading_parts,
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


def test_context_rejects_float_coefficients():
    with pytest.raises(TypeError):
        CTX.constant(0.1)


def test_context_rejects_unknown_parameter_names():
    with pytest.raises(ValueError, match=r"^unknown parameter: 'q'$"):
        CTX.coefficient("q")


def test_monomial_operations():
    # a monomial is its exponent tuple
    u = Polynomial.from_terms(CTX, [((2, 0, 1), 1)])
    v = Polynomial.from_terms(CTX, [((1, 3, 0), 1)])
    assert u.total_degree() == 3
    assert (u * v).terms[0].monomial == (3, 3, 1)
    assert _divides((1, 0, 0), (2, 0, 1))
    assert not _divides((1, 3, 0), (2, 0, 1))
    with pytest.raises(ValueError, match="^exponent is not a non-negative integer: -1$"):
        Polynomial.from_terms(CTX, [((-1, 0, 0), 1)])
    with pytest.raises(ValueError, match="^exponent is not a non-negative integer: -1$"):
        coefficient_of(u, (2, 0, -1))
    with pytest.raises(ValueError, match="^exponent is not a non-negative integer: 1.5$"):
        Polynomial.from_terms(CTX, [((1.5, 0, 0), 1)])
    with pytest.raises(ValueError, match="^exponent tuple has wrong length$"):
        coefficient_of(u, (2, 0))


def test_constructor_checks_terms_as_from_terms_does():
    q = VarContext(("x", "y", "z"))
    with pytest.raises(TypeError):
        Polynomial(q, [Term(0.5, (1, 0, 0))])
    with pytest.raises(ValueError, match="^exponent tuple has wrong length$"):
        Polynomial(q, [Term(1, (1,))])
    with pytest.raises(ValueError, match="^exponent is not a non-negative integer: -1$"):
        Polynomial(q, [Term(1, (1, -1, 0))])
    half = Fraction(1, 2)
    p = Polynomial(CTX, [Term(2, (1, 0, 0)), Term("a", (0, 1, 0)), Term(half, [0, 0, 1])])
    assert p == Polynomial.from_terms(CTX, [((1, 0, 0), 2), ((0, 1, 0), "a"), ((0, 0, 1), half)])
    assert p.terms[1] == (CTX.coefficient("a"), (0, 1, 0))


def test_lex_order_comparisons():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert lex_compare(x, y) > 0
    assert lex_compare(y, z) > 0
    assert lex_compare((0, 0, 5), x) < 0  # x beats any power of z
    assert lex_compare(x, x) == 0
    assert (1, 2, 0) > (1, 1, 9)
    assert [t.monomial for t in (Z**5 + X).terms] == [x, (0, 0, 5)]


def test_polynomial_terms_canonical_and_descending():
    p = Z + X * X + Y
    exps = [t.monomial for t in p.terms]
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


def test_constant_value():
    assert CTX.zero().constant_value() == CTX.coefficient(0)
    assert CTX.constant("a").constant_value() == CTX.coefficient("a")
    rational = VarContext(("x",))
    assert rational.constant(Fraction(-3, 4)).constant_value() == Fraction(-3, 4)
    assert rational.zero().constant_value() == rational.coefficient(0) == 0
    for p in (X, X + 1, rational.variable("x")):
        with pytest.raises(ValueError, match="^not a constant polynomial$"):
            p.constant_value()


def test_monic_divides_by_leading_coefficient():
    p = 2 * X * X + 4 * Y
    assert p.monic() == X * X + 2 * Y
    q = X.scale(CTX.coefficient("a")) + Y
    assert q.monic() == X + Y.scale(CTX.coefficient("a").invert())
    assert CTX.zero().monic() == CTX.zero()  # zero is a fixpoint, not an error


def test_leading_parts():
    p = Y + X.scale(CTX.coefficient("b")) + Z * Z
    term, monomial, coeff = leading_parts(p)
    assert monomial == (1, 0, 0)
    assert coeff == CTX.coefficient("b")
    assert term.monomial is monomial


def test_coefficient_of():
    p = (X + Y) ** 2 + Z.scale(CTX.coefficient("a"))
    assert coefficient_of(p, (1, 1, 0)) == CTX.coefficient(2)
    assert coefficient_of(p, (0, 0, 1)) == CTX.coefficient("a")
    assert coefficient_of(p, (5, 0, 0)) == CTX.coefficient(0)
    assert coefficient_of(p, [2, 0, 0]) == CTX.coefficient(1)


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

"""Multivariate division: reconstruction identity, remainder purity, ordering."""

from fractions import Fraction

import pytest

from gbgeom.division import multivariate_divide, normal_form
from gbgeom.groebner import GroebnerBasis
from gbgeom.polynomials import VarContext, leading_parts

CTX = VarContext(("x", "y"))
X, Y = CTX.variable("x"), CTX.variable("y")


def assert_pure(remainder, divisors):
    for term in remainder.terms:
        for d in divisors:
            assert not leading_parts(d)[1].divides(term.monomial)


def test_single_divisor_textbook_case():
    f = X * X * Y + X * Y * Y + Y * Y
    result = multivariate_divide(f, [X * Y - 1])
    assert result.quotients == (X + Y,)
    assert result.remainder == X + Y * Y + Y
    assert result.reconstruct() == f


def test_two_divisors_and_first_divisor_preference():
    f = X * X * Y + X * Y * Y + Y * Y
    first = multivariate_divide(f, [X * Y - 1, Y * Y - 1])
    assert first.quotients == (X + Y, CTX.one())
    assert first.remainder == X + Y + 1
    swapped = multivariate_divide(f, [Y * Y - 1, X * Y - 1])
    assert swapped.quotients == (X + 1, X)
    assert swapped.remainder == 2 * X + 1
    for outcome in (first, swapped):
        assert outcome.reconstruct() == f
        assert_pure(outcome.remainder, outcome.divisors)


def test_divisible_input_leaves_zero_remainder():
    f = (X + Y) * (X - Y)
    result = multivariate_divide(f, [X + Y])
    assert result.remainder == CTX.zero()
    assert result.quotients == (X - Y,)


def test_remainder_only_when_nothing_divides():
    f = X + 1
    result = multivariate_divide(f, [X * Y - 1])
    assert result.quotients == (CTX.zero(),)
    assert result.remainder == f


def test_division_by_constant_absorbs_everything():
    f = X * X + Y
    result = multivariate_divide(f, [CTX.constant(2)])
    assert result.remainder == CTX.zero()
    assert result.quotients == (f / 2,)


def test_division_rejects_degenerate_divisors():
    with pytest.raises(ValueError):
        multivariate_divide(X, [])
    with pytest.raises(ValueError):
        multivariate_divide(X, [CTX.zero()])


def test_division_with_parametric_coefficients():
    ctx = VarContext(("x", "y"), ("a",))
    x, y = ctx.variable("x"), ctx.variable("y")
    a = ctx.coefficient("a")
    f = x * x - y.scale(a * a)
    result = multivariate_divide(f, [x - y.scale(a)])
    assert result.remainder == y * y.scale(a * a) - y.scale(a * a)
    assert result.reconstruct() == f


def test_zero_dividend():
    result = multivariate_divide(CTX.zero(), [X - 1, Y - 1])
    assert result.remainder == CTX.zero()
    assert result.quotients == (CTX.zero(), CTX.zero())


def test_normal_form_accepts_sequences_and_bases():
    f = X * X * Y + X * Y * Y + Y * Y
    divisors = (X * Y - 1, Y * Y - 1)
    assert normal_form(f, divisors) == X + Y + 1
    basis = GroebnerBasis(divisors, reduced=False)
    assert normal_form(f, basis) == X + Y + 1
    assert normal_form(f, GroebnerBasis(())) == f


def test_division_result_exposes_inputs():
    f = X * Y + 1
    divisors = [X - 1]
    result = multivariate_divide(f, divisors)
    assert result.divisors == tuple(divisors)
    assert len(result.quotients) == 1

"""Randomized algebraic invariants.

Each suite draws a few hundred cases from a fixed seed and checks exact
identities; anything order-of-operations or canonical-form related that a
hand-picked example could miss should land here.
"""

import math
import random
from fractions import Fraction

from gbgeom import (
    ParamFraction,
    ParamPoly,
    Polynomial,
    VarContext,
    clear_denominators,
    leading_parts,
    multivariate_divide,
    normal_form,
    param_poly_gcd,
    param_poly_lcm,
    parse_expression,
    substitute,
)
from gbgeom.intgcd import integer_primitive

from support import (
    divides,
    lex_compare,
    monomial_product,
    random_exponents,
    random_fraction,
    random_nonzero_fraction,
    random_nonzero_param_poly,
    random_nonzero_polynomial,
    random_param_poly,
    random_point,
    random_polynomial,
)

AB = ("a", "b")
XY = VarContext(("x", "y"))
XY_AB = VarContext(("x", "y"), AB)


def random_param_fraction(rng):
    num = random_param_poly(rng, AB, max_terms=2, max_degree=2, span=5)
    den = random_nonzero_param_poly(rng, AB, max_terms=2, max_degree=2, span=5)
    return ParamFraction(num, den)


def test_param_fraction_field_axioms():
    rng = random.Random(101)
    for _ in range(300):
        f = random_param_fraction(rng)
        g = random_param_fraction(rng)
        h = random_param_fraction(rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == ParamFraction.zero(AB)
        if f != ParamFraction.zero(AB):
            assert f * f.invert() == ParamFraction.one(AB)


def assert_canonical(f):
    """Numerator and denominator coprime, the denominator integer-primitive
    with a positive leading coefficient, and zero as 0/1.

    The stored parts say the same: ``f.f`` and ``f.g`` are integer
    polynomials, primitive with positive leading coefficients, and the
    views are ``scale * f.f`` and ``f.g``.
    """
    assert f.num == ParamPoly(f.params, ((e, f.scale * c) for e, c in f.f.items()))
    assert f.den == ParamPoly(f.params, f.g.items())
    if not f:
        assert f.den.is_one() and f.scale == 0 and f.f == {}
        return
    for part in (f.f, f.g):
        assert all(type(c) is int for c in part.values())
        assert math.gcd(*part.values()) == 1 and part[max(part)] > 0
    assert param_poly_gcd(f.num, f.den).is_one()
    assert all(c.denominator == 1 for _, c in f.den.terms)
    assert integer_primitive(f.den.terms)[0] == 1
    assert f.den.leading_coefficient() > 0


def test_param_fraction_canonical_form():
    rng = random.Random(103)
    for _ in range(300):
        assert_canonical(random_param_fraction(rng))


def random_factored_poly(rng, factors):
    """A rational times up to two of the factors, so that the operands of
    one operation often have factors in common."""
    p = ParamPoly.constant(factors[0].params, random_nonzero_fraction(rng, 5))
    for factor in rng.sample(factors, rng.randint(0, 2)):
        p = p * factor
    return p


def test_param_fraction_arithmetic_is_canonical():
    # every result is canonical and equals the textbook formula, built by the constructor
    rng = random.Random(163)
    for params, cases in ((AB, 200), (("a", "b", "c"), 40)):
        factors = [
            random_nonzero_param_poly(rng, params, max_terms=3, max_degree=1, span=4)
            for _ in range(5)
        ]
        for _ in range(cases):
            f, g = (
                ParamFraction(*(random_factored_poly(rng, factors) for _ in range(2)))
                for _ in range(2)
            )
            (n1, d1), (n2, d2) = (f.num, f.den), (g.num, g.den)
            results = [
                (f + g, ParamFraction(n1 * d2 + n2 * d1, d1 * d2)),
                (f - g, ParamFraction(n1 * d2 - n2 * d1, d1 * d2)),
                (f * g, ParamFraction(n1 * n2, d1 * d2)),
                (f / g, ParamFraction(n1 * d2, d1 * n2)),
                (f.invert(), ParamFraction(d1, n1)),
                # the denominators share g's, and the sum cancels down to f
                ((f - g) + g, f),
            ]
            for result, textbook in results:
                assert_canonical(result)
                assert result == textbook


def test_param_gcd_divides_and_product_identity():
    rng = random.Random(107)
    for _ in range(300):
        p = random_nonzero_param_poly(rng, AB, max_terms=2, max_degree=2, span=5)
        q = random_nonzero_param_poly(rng, AB, max_terms=2, max_degree=2, span=5)
        g = param_poly_gcd(p, q)
        assert p.exact_div(g) * g == p
        assert q.exact_div(g) * g == q
        product = p * q
        sign = 1 if product.leading_coefficient() > 0 else -1
        assert product.quo_ground(integer_primitive(product.terms)[0]) == (
            g * param_poly_lcm(p, q) * Fraction(sign)
        )


def test_param_gcd_keeps_a_planted_factor():
    # a gcd of 1, or any proper factor of g, would fail the exact division
    rng = random.Random(151)
    for params in (AB, ("a", "b", "c")):
        for _ in range(80):
            g = random_nonzero_param_poly(rng, params, max_terms=3, max_degree=2, span=5)
            if g.is_constant():
                continue
            p = g * random_nonzero_param_poly(rng, params, max_terms=2, max_degree=2, span=5)
            q = g * random_nonzero_param_poly(rng, params, max_terms=2, max_degree=2, span=5)
            gcd = param_poly_gcd(p, q)
            gcd.exact_div(g)
            p.exact_div(gcd)
            q.exact_div(gcd)


def test_param_gcd_keeps_a_planted_factor_by_remainder_sequence(remainder_sequence):
    test_param_gcd_keeps_a_planted_factor()


def test_polynomial_ring_axioms():
    rng = random.Random(109)
    for _ in range(300):
        p = random_polynomial(rng, XY)
        q = random_polynomial(rng, XY)
        r = random_polynomial(rng, XY)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Polynomial.from_terms(XY, [])


def test_evaluate_is_a_ring_homomorphism():
    rng = random.Random(113)
    for _ in range(300):
        p = random_polynomial(rng, XY)
        q = random_polynomial(rng, XY)
        point = random_point(rng, XY.variables)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_substitute_then_evaluate_commutes():
    rng = random.Random(127)
    for _ in range(200):
        p = random_polynomial(rng, XY)
        g = random_polynomial(rng, XY)
        point = random_point(rng, XY.variables)
        shifted = dict(point)
        shifted["x"] = g.evaluate(point)
        assert substitute(p, "x", g).evaluate(point) == p.evaluate(shifted)


def test_clear_denominators_invariants():
    rng = random.Random(131)
    for _ in range(300):
        p = random_nonzero_polynomial(rng, XY)
        cleared = clear_denominators(p)
        assert cleared.monic() == p.monic()
        values = [term.coefficient for term in cleared.terms]
        assert all(value.denominator == 1 for value in values)
        _, _, lead = leading_parts(cleared)
        assert lead > 0
        assert math.gcd(*(value.numerator for value in values)) == 1


def test_parse_of_rendered_polynomial_round_trips():
    rng = random.Random(137)
    for _ in range(300):
        ctx = XY if rng.random() < 0.5 else XY_AB
        p = random_polynomial(rng, ctx)
        if ctx.parameters:
            fr = random_param_fraction(rng)
            p = p * fr if rng.random() < 0.5 else p + Polynomial.from_terms(
                ctx, [((0, 0), fr)]
            )
        assert parse_expression(str(p), ctx) == p


def with_parameter_coefficients(rng, p):
    """p with every coefficient times a random nonzero polynomial in a, b."""
    ctx = p.context
    return Polynomial.from_terms(ctx, [
        (m, c * ctx.coefficient(random_nonzero_param_poly(rng, AB, max_terms=2, max_degree=1)))
        for c, m in p.terms
    ])


def test_division_reconstruction_quick():
    rng = random.Random(139)
    for ctx in (XY, XY_AB):
        for _ in range(200):
            f = random_polynomial(rng, ctx)
            divisors = [
                random_nonzero_polynomial(rng, ctx, max_terms=2)
                for _ in range(rng.randint(1, 2))
            ]
            if ctx.parameters:
                f = with_parameter_coefficients(rng, f)
                divisors = [with_parameter_coefficients(rng, d) for d in divisors]
            result = multivariate_divide(f, divisors)
            assert normal_form(f, divisors) == result.remainder
            rebuilt = result.remainder
            for quotient, divisor in zip(result.quotients, divisors):
                rebuilt = rebuilt + quotient * divisor
            assert rebuilt == f
            lead_monomials = [leading_parts(d)[1] for d in divisors]
            for term in result.remainder.terms:
                assert not any(divides(lm, term.monomial) for lm in lead_monomials)


def test_order_axioms_quick():
    rng = random.Random(149)
    one = random_exponents(rng, 3, 0)
    for _ in range(300):
        u = random_exponents(rng, 3, 4)
        v = random_exponents(rng, 3, 4)
        w = random_exponents(rng, 3, 4)
        cmp_uv = lex_compare(u, v)
        assert cmp_uv in (-1, 0, 1)
        assert cmp_uv == -lex_compare(v, u)
        assert (cmp_uv == 0) == (u == v)
        if cmp_uv < 0:
            assert lex_compare(monomial_product(u, w), monomial_product(v, w)) < 0
        assert lex_compare(one, u) <= 0

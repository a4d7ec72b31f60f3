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
    param_poly_gcd,
    param_poly_lcm,
    parse_expression,
    substitute,
)

from support import (
    lex_compare,
    random_fraction,
    random_monomial,
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


def test_param_fraction_canonical_form():
    # invariants: numerator and denominator coprime, denominator
    # integer-primitive with a positive leading rational
    rng = random.Random(103)
    for _ in range(300):
        f = random_param_fraction(rng)
        if f == ParamFraction.zero(AB):
            assert f.den.is_one()
            continue
        assert param_poly_gcd(f.num, f.den).is_one()
        assert f.den.content() == 1
        assert f.den.leading_coefficient() > 0


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
        assert product.primitive() == g * param_poly_lcm(p, q) * Fraction(sign)


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
        values = [term.coefficient.constant_value() for term in cleared.terms]
        assert all(value.denominator == 1 for value in values)
        _, _, lead = leading_parts(cleared)
        assert lead.constant_value() > 0
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


def test_division_reconstruction_quick():
    rng = random.Random(139)
    for _ in range(200):
        f = random_polynomial(rng, XY)
        divisors = [
            random_nonzero_polynomial(rng, XY, max_terms=2)
            for _ in range(rng.randint(1, 2))
        ]
        result = multivariate_divide(f, divisors)
        rebuilt = result.remainder
        for quotient, divisor in zip(result.quotients, divisors):
            rebuilt = rebuilt + quotient * divisor
        assert rebuilt == f
        lead_monomials = [leading_parts(d)[1] for d in divisors]
        for term in result.remainder.terms:
            assert not any(lm.divides(term.monomial) for lm in lead_monomials)


def test_order_axioms_quick():
    rng = random.Random(149)
    one = random_monomial(rng, 3, 0)
    for _ in range(300):
        u = random_monomial(rng, 3, 4)
        v = random_monomial(rng, 3, 4)
        w = random_monomial(rng, 3, 4)
        cmp_uv = lex_compare(u, v)
        assert cmp_uv in (-1, 0, 1)
        assert cmp_uv == -lex_compare(v, u)
        assert (cmp_uv == 0) == (u == v)
        if cmp_uv < 0:
            assert lex_compare(u * w, v * w) < 0
        assert lex_compare(one, u) <= 0

"""Parametric coefficient field: polynomial arithmetic, gcd, canonical fractions."""

import math
import random
from fractions import Fraction

import pytest

from gbgeom import intgcd
from gbgeom.coefficients import (
    ParamFraction,
    ParamPoly,
    fraction_gcd,
    normalize_fraction,
    param_poly_gcd,
    param_poly_lcm,
)
from gbgeom.intgcd import PRIME, integer_primitive, point_value

from support import oracle_gcd_pair, random_nonzero_param_poly

AB = ("a", "b")


def poly(pairs):
    return ParamPoly(AB, pairs)


def frac(num_pairs, den_pairs=None):
    num = poly(num_pairs)
    return ParamFraction(num) if den_pairs is None else ParamFraction(num, poly(den_pairs))


A = poly([((1, 0), Fraction(1))])
B = poly([((0, 1), Fraction(1))])
ONE = ParamPoly.constant(AB, 1)


def test_fraction_gcd_of_rationals():
    assert fraction_gcd([Fraction(4, 9), Fraction(2, 3)]) == Fraction(2, 9)
    assert fraction_gcd([Fraction(-4), Fraction(6)]) == Fraction(2)
    assert fraction_gcd([Fraction(0), Fraction(0)]) == Fraction(0)
    assert fraction_gcd([Fraction(0), Fraction(5, 7)]) == Fraction(5, 7)


def test_parameter_constructors_reject_unknown_names():
    for make in (ParamPoly.parameter, ParamFraction.parameter):
        with pytest.raises(ValueError, match="^unknown parameter: 'q'$"):
            make(("a",), "q")
        assert str(make(AB, "b")) == "b"


def test_param_poly_terms_are_sorted_and_merged():
    p = poly([((0, 1), Fraction(1)), ((1, 0), Fraction(2)), ((0, 1), Fraction(3))])
    assert p.terms == (((1, 0), Fraction(2)), ((0, 1), Fraction(4)))
    assert not poly([((1, 0), Fraction(0))])


def test_param_poly_refuses_inexact_coefficients_and_bad_exponents():
    for make in (lambda: ParamPoly(("a",), [((1,), 0.1)]), lambda: ParamPoly.constant(AB, 0.1)):
        with pytest.raises(TypeError, match="^not an exact coefficient: 0.1$"):
            make()
    with pytest.raises(ValueError, match="^exponent tuple has wrong length$"):
        ParamPoly(AB, [((1,), 1)])
    for bad in (-1, 1.5):
        with pytest.raises(ValueError, match=f"^exponent is not a non-negative integer: {bad}$"):
            ParamPoly(AB, [((1, bad), 1)])
    # int coefficients are kept as Fractions
    assert [type(c) for _, c in poly([((1, 0), 2), ((0, 0), 1)]).terms] == [Fraction, Fraction]


def test_param_poly_arithmetic():
    assert (A + B) - B == A
    assert (A + B) * (A - B) == A * A - B * B
    assert (A + B) ** 2 == A * A + A * B * 2 + B * B
    assert -(A - B) == B - A
    assert A * ParamPoly.constant(AB, 0) == ParamPoly.constant(AB, 0)
    assert (A + ONE) ** 0 == ONE


def test_param_poly_leading_parts_under_lex():
    p = (A + B) ** 2
    assert p.leading_exponents() == (2, 0)
    assert p.leading_coefficient() == Fraction(1)
    assert B.leading_exponents() == (0, 1)


def test_param_poly_mixed_integer_operands():
    assert A * 2 == A + A
    assert A.mul_ground(Fraction(3, 2)).quo_ground(Fraction(3, 2)) == A


def test_param_poly_evaluate():
    p = A * A * 2 - B + ParamPoly.constant(AB, -3)
    assert p.evaluate({"a": Fraction(2), "b": Fraction(1, 2)}) == Fraction(9, 2)


def test_param_poly_ground_operations_refuse_floats():
    for ground in (A.mul_ground, A.quo_ground):
        with pytest.raises(TypeError, match="^not an exact coefficient: 0.1$"):
            ground(0.1)
    assert A.mul_ground(3) == A * 3 and A.quo_ground(2) == A * Fraction(1, 2)


def test_param_poly_content_and_primitive():
    p = A * 4 + B * 6
    assert fraction_gcd(c for _, c in p.terms) == Fraction(2)
    assert integer_primitive(p.terms) == (Fraction(2), {(1, 0): 2, (0, 1): 3})
    q = A * Fraction(1, 2) + B * Fraction(1, 3)
    scale, ints = integer_primitive(q.terms)
    assert scale == Fraction(1, 6) and ints == {(1, 0): 3, (0, 1): 2}
    assert fraction_gcd(c for _, c in q.quo_ground(scale).terms) == Fraction(1)


def test_param_poly_exact_div():
    p = (A + B) * (A - B)
    assert p.exact_div(A + B) == A - B
    assert (A * A * B).exact_div(A * B) == A
    assert (A * 6).exact_div(ParamPoly.constant(AB, 3)) == A * 2
    with pytest.raises(ValueError):
        (A + ONE).exact_div(B)


def test_param_poly_exact_div_with_rational_coefficients():
    g = A * Fraction(1, 3) + B * Fraction(2, 7) + Fraction(1, 5)
    cofactor = A * Fraction(-3, 4) + Fraction(5, 2)
    assert (g * cofactor).exact_div(g) == cofactor
    assert (g * cofactor).exact_div(cofactor) == g
    assert g.exact_div(ParamPoly.constant(AB, Fraction(2, 3))) == g * Fraction(3, 2)
    assert (A * B * Fraction(1, 2)).exact_div(B * -3) == A * Fraction(-1, 6)
    assert poly([]).exact_div(g) == poly([])
    with pytest.raises(ValueError, match="^not exactly divisible$"):
        (g * cofactor + Fraction(1, 9)).exact_div(g)
    with pytest.raises(ValueError, match="^not exactly divisible$"):
        (A * Fraction(1, 2)).exact_div(A * B * Fraction(2, 3))


def test_param_poly_gcd_is_primitive_with_positive_lead():
    # rational content is a unit of Q[a, b]; the canonical gcd drops it
    assert param_poly_gcd(A * A * B * 4, A * B * B * 6) == A * B
    assert param_poly_gcd(A * -2, A * A * 4) == A
    assert param_poly_gcd(poly([]), A) == A
    assert param_poly_gcd(poly([]), poly([])) == poly([])


def test_param_poly_gcd_needs_remainder_sequence():
    left = (A + B) ** 2 * (A - B)
    right = (A + B) * (A * A + B * B)
    assert param_poly_gcd(left, right) == A + B
    assert param_poly_gcd(A * A - B * B, (A + B) ** 2) == A + B
    assert param_poly_gcd(A * A - B * B, A * A + A * B * 2 + B * B) == A + B


def test_param_poly_gcd_positive_leading_sign():
    g = param_poly_gcd((B - A) * B * 2, (B - A) * A * 2)
    assert g.leading_coefficient() > 0
    assert g == A - B
    assert param_poly_gcd(A - B, B - A) == A - B


# Inputs that are unlucky at the fixed point of the gcd certificate: each
# must fall through to the remainder sequence and get its answer.
VA = point_value(0)
VB = point_value(1)


def test_param_poly_gcd_when_a_leading_coefficient_vanishes_at_the_point():
    # lc in a is b - VB and lc in b is a - VA: g maps to 1 in both images
    g = (A - VA) * (B - VB) + ONE
    assert param_poly_gcd(g * (A + ONE), g * (B + 2)) == g


def test_param_poly_gcd_when_a_denominator_is_divisible_by_the_prime():
    g = A * B + ONE
    left = g * (A + B * Fraction(1, PRIME))
    assert param_poly_gcd(left, g * (A + B + ONE)) == g


def test_param_poly_gcd_when_coprime_inputs_have_a_common_image():
    # both images are a - VA (in a) and b - VB up to sign (in b)
    assert param_poly_gcd((A - VA) + (B - VB), (A - VA) - (B - VB)) == ONE


UNLUCKY_POINTS = (
    test_param_poly_gcd_when_a_leading_coefficient_vanishes_at_the_point,
    test_param_poly_gcd_when_a_denominator_is_divisible_by_the_prime,
    test_param_poly_gcd_when_coprime_inputs_have_a_common_image,
)


@pytest.mark.parametrize("case", UNLUCKY_POINTS, ids=lambda case: case.__name__[len("test_"):])
def test_unlucky_points_by_remainder_sequence(case, remainder_sequence):
    case()


C = ParamPoly.parameter(("a", "b", "c"), "c")
A3, B3 = (ParamPoly.parameter(("a", "b", "c"), name) for name in ("a", "b"))

# (gcd, cofactor of p, cofactor of q), each a proper factor of both inputs
# unless a cofactor is one
HAND_MADE_GCDS = {
    "coefficients over 10^30": (
        A * 10**30 + B * (10**30 + 7) + 3 * 10**30 + 1,
        A * B - 10**31,
        A + B * 2 + 10**30 + 9,
    ),
    "rational coefficients": (
        A * Fraction(1, 3) + B * Fraction(2, 7) + Fraction(1, 5),
        A + Fraction(1, 2),
        A * B - Fraction(3, 4),
    ),
    "a parameter in one input only": (A3 * B3 + 1, C + A3, A3 - B3),
    "the gcd is one input": (A * A * B - B + 3, ParamPoly.constant(AB, 1), A * B + 1),
    # a^2 + a and a^2 + a + 2 are even at every integer, so every image gcd
    # is twice the image of a + b
    "image gcds with extra content": (A + B, A * A + A, A * A + A + 2),
}


def same_up_to_a_unit(p, q):
    return p.mul_ground(q.leading_coefficient() / p.leading_coefficient()) == q


def integer_part(p):
    """The primitive integer dict of p, the form ``intgcd`` works on."""
    return integer_primitive(p.terms)[1]


@pytest.mark.parametrize("name", sorted(HAND_MADE_GCDS))
def test_heuristic_gcd_of_hand_made_inputs(name):
    g, cp, cq = HAND_MADE_GCDS[name]
    h, _, _ = intgcd._heuristic_gcd(integer_part(g * cp), integer_part(g * cq))
    # every planted gcd has a positive leading coefficient
    assert h == integer_part(g)


# "divisibility" is the whole gcd, whose shortcut takes every pair in which
# one input divides the other; "heuristic" turns the shortcut off, so GCDHEU
# takes those pairs too; "remainder sequence" turns both off.
GCD_ROUTES = ["divisibility", "heuristic", "remainder sequence"]


def take_route(route, request, monkeypatch):
    if route == "heuristic":
        monkeypatch.setattr(intgcd, "_divisor_gcd", lambda f, g: None)
    elif route == "remainder sequence":
        request.getfixturevalue("remainder_sequence")


@pytest.mark.parametrize("route", GCD_ROUTES)
@pytest.mark.parametrize("name", sorted(HAND_MADE_GCDS))
def test_param_poly_gcd_of_hand_made_inputs(name, route, request, monkeypatch):
    take_route(route, request, monkeypatch)
    g, cp, cq = HAND_MADE_GCDS[name]
    gcd = param_poly_gcd(g * cp, g * cq)
    assert integer_primitive(gcd.terms)[0] == 1 and gcd.leading_coefficient() > 0
    assert same_up_to_a_unit(gcd, g)


@pytest.mark.parametrize("route", GCD_ROUTES)
def test_gcd_returns_primitive_gcd_and_cofactors(route, request, monkeypatch):
    take_route(route, request, monkeypatch)
    pairs = [(g * cp, g * cq) for g, cp, cq in HAND_MADE_GCDS.values()]
    pairs += [oracle_gcd_pair(seed) for seed in range(30)]
    for p, q in pairs:
        f, g = integer_part(p), integer_part(q)
        h, cf, cg = intgcd.gcd(f, g)
        assert math.gcd(*h.values()) == 1 and h[max(h)] > 0
        h = ParamPoly(p.params, h.items())
        for whole, cofactor in ((f, cf), (g, cg)):
            assert h * ParamPoly(p.params, cofactor.items()) == ParamPoly(p.params, whole.items())


def test_heuristic_gcd_needs_coprime_cofactors(monkeypatch):
    g = A + B
    cases = [
        # 1 divides both inputs, but the cofactors share a + b
        ((ONE, g * (A + ONE), g * (B + 2)), None),
        ((g, A + ONE, B + 2), g),
        # a constant cofactor needs no proof: the other input is a multiple of g
        ((g, ONE, B + 2), g),
    ]
    for found, expected in cases:
        h, cf, cg = found
        answer = tuple(map(integer_part, found))
        monkeypatch.setattr(intgcd, "common_divisor", lambda *inputs, answer=answer: answer)
        proven = intgcd._heuristic_gcd(integer_part(h * cf), integer_part(h * cg))
        if expected is None:
            assert proven is None
        else:
            assert proven[0] == integer_part(expected)


# The divisibility shortcut: one input divides the other.
_divisor_gcd = intgcd._divisor_gcd


def random_integer_poly(rng, params=AB):
    """A seeded integer polynomial with two to four terms, so no monomial shortcut takes it."""
    while True:
        p = integer_part(random_nonzero_param_poly(rng, params, max_terms=4, max_degree=2))
        if len(p) > 1:
            return p


def times(f, c):
    return {e: v * c for e, v in f.items()}


def product(f, g):
    return intgcd._mul_add({}, f, g)


def test_divisibility_shortcut_matches_the_remainder_sequence(remainder_sequence):
    rng = random.Random(16)
    cases = []
    while len(cases) < 120:
        g, k = random_integer_poly(rng), random_integer_poly(rng)
        if len(product(g, k)) < len(g):
            continue  # the shortcut tries no divisor with more terms
        content, sign = rng.choice([1, 2, 6]), rng.choice([1, -1])
        # a divisor with a negative lead or integer content, in both orders
        divisor, multiple = times(g, sign * content), times(product(g, k), content)
        cases += [
            (divisor, multiple),
            (times(multiple, -rng.randint(1, 4)), divisor),
            # a unit cofactor: the inputs are equal up to sign
            (g, times(g, -1)),
        ]
    for f, g in cases:
        found = _divisor_gcd(f, g)
        assert found is not None
        # with the fixture on, gcd runs the remainder sequence
        assert found == intgcd.gcd(f, g)
        h = found[0]
        assert math.gcd(*h.values()) == 1 and h[max(h)] > 0


def test_divisibility_shortcut_rejects_by_the_value_at_the_point(monkeypatch):
    divisions = []
    monkeypatch.setattr(
        intgcd, "_exact_quotient", lambda f, h: divisions.append((f, h)) or None
    )
    # the degree bounds allow a + 1 to divide a^2 + 2, but VA^2 + 2 leaves
    # the remainder 3 on division by VA + 1
    assert _divisor_gcd(integer_part(A + 1), integer_part(A * A + 2)) is None
    # a - VA vanishes at the point, and a^2 + 1 does not
    assert _divisor_gcd(integer_part(A - VA), integer_part(A * A + 1)) is None
    assert divisions == []


def test_divisibility_shortcut_when_the_value_at_the_point_is_zero():
    divisor = integer_part(A - VA)
    # both vanish at the point, so only the exact division decides
    assert _divisor_gcd(divisor, integer_part(A * B - VA * VB)) is None
    multiple = integer_part((A - VA) * (B + 2))
    assert _divisor_gcd(divisor, multiple) == (divisor, {(0, 0): 1}, integer_part(B + 2))
    assert _divisor_gcd(multiple, divisor) == (divisor, integer_part(B + 2), {(0, 0): 1})


def test_param_poly_lcm():
    assert param_poly_lcm(A * B, A * A) == A * A * B
    assert param_poly_lcm(A + B, A + B) == A + B
    assert param_poly_lcm(poly([]), A) == poly([])


def test_param_fraction_cancels_to_canonical_form():
    f = ParamFraction(A * A - B * B, A + B)
    assert f == ParamFraction(A - B)
    g = ParamFraction(A, A * B)
    assert g.num == ONE and g.den == B


def test_param_fraction_denominator_normalization():
    f = ParamFraction(ONE, -A)
    assert f.den == A and f.num == -ONE
    g = ParamFraction(A, ParamPoly.constant(AB, Fraction(2, 3)))
    assert g == ParamFraction(A.mul_ground(Fraction(3, 2)))
    h = ParamFraction(A, B * Fraction(-2, 3))
    assert h.den.leading_coefficient() > 0


def test_param_fraction_zero_and_division_guards():
    zero = ParamFraction.zero(AB)
    assert not zero
    assert zero.den == ONE
    a = ParamFraction.parameter(AB, "a")
    assert zero + zero == zero and a + zero == a and zero - a == -a
    assert zero * a == zero and a * zero == zero and (zero + zero).scale == 0
    with pytest.raises(ZeroDivisionError):
        ParamFraction(A, poly([]))
    with pytest.raises(ZeroDivisionError):
        zero.invert()


def test_param_fraction_parts():
    # scale * f / g with f and g primitive integer polynomials, positive leading coefficients
    f = ParamFraction(A * Fraction(-2, 3) + B * 4, A * 6 + B * 3)
    assert f.scale == Fraction(-2, 9)
    assert (f.f, f.g) == ({(1, 0): 1, (0, 1): -6}, {(1, 0): 2, (0, 1): 1})
    assert f.num == A * Fraction(-2, 9) + B * Fraction(4, 3) and f.den == A * 2 + B
    zero = ParamFraction.zero(AB)
    assert (zero.scale, zero.f, zero.g) == (0, {}, {(0, 0): 1})


def test_param_fraction_sum_moves_integer_content_and_sign_to_the_scale():
    a = ParamFraction.parameter(AB, "a")
    # 1/(a + 3) - 1/a = -3/(a^2 + 3a): the sum's numerator is -3
    difference = (a + 3).invert() - a.invert()
    assert difference == ParamFraction(ONE * -3, A * A + A * 3)
    assert (difference.scale, difference.f) == (-3, {(0, 0): 1})


def test_param_fraction_addition_over_common_denominator():
    a = ParamFraction.parameter(AB, "a")
    b = ParamFraction.parameter(AB, "b")
    assert a.invert() + b.invert() == ParamFraction(A + B, A * B)
    assert a + (-a) == ParamFraction.zero(AB)
    assert a + 1 == ParamFraction(A + ONE)
    assert 1 + a == a + 1


def test_param_fraction_sum_matches_the_cross_multiplied_fraction():
    rng = random.Random(1956)

    def part():
        return random_nonzero_param_poly(rng, AB, max_terms=3)

    pairs = []
    for _ in range(30):
        shared, e1, e2, n1, n2 = part(), part(), part(), part(), part()
        first = ParamFraction(n1, shared * e1)
        pairs += [
            (first, ParamFraction(n2, shared * e2)),
            # equal denominators, and a numerator sum that shares a factor with them
            (first, ParamFraction(n2, shared * e1)),
            (first, ParamFraction(shared * n2 - n1, shared * e1)),
            (first, -first),
        ]
    for a, b in pairs:
        total = a + b
        cross = normalize_fraction(a.num * b.den + b.num * a.den, a.den * b.den)
        assert (total.params, total.scale, total.f, total.g) == (
            cross.params, cross.scale, cross.f, cross.g
        )
    assert any(not (a + b) for a, b in pairs)


def test_param_fraction_multiplication_cross_cancels():
    a = ParamFraction.parameter(AB, "a")
    b = ParamFraction.parameter(AB, "b")
    assert (a / b) * (b / a) == ParamFraction.one(AB)
    assert (a / b) * b == a
    product = ParamFraction(A + B, A) * ParamFraction(A, A - B)
    assert product == ParamFraction(A + B, A - B)


def test_product_of_polynomial_fractions_needs_no_gcd():
    rng = random.Random(817)
    for _ in range(200):
        p = random_nonzero_param_poly(rng, AB, max_terms=3, span=5)
        q = random_nonzero_param_poly(rng, AB, max_terms=3, span=5)
        product = ParamFraction(p) * ParamFraction(q)
        assert product == normalize_fraction(p * q, ONE)
        assert product.den == ONE


def test_param_fraction_powers_and_division():
    a = ParamFraction.parameter(AB, "a")
    b = ParamFraction.parameter(AB, "b")
    assert (a / b) ** 3 == ParamFraction(A * A * A, B * B * B)
    assert (a / b) ** 0 == ParamFraction.one(AB)
    assert a / a == ParamFraction.one(AB)
    assert (a - a) / b == ParamFraction.zero(AB)
    with pytest.raises(ZeroDivisionError):
        a / (b - b)


def test_param_fraction_constant_interop_matches_fractions():
    two_thirds = ParamFraction.from_fraction(AB, Fraction(2, 3))
    assert two_thirds.is_constant()
    assert two_thirds.constant_value() == Fraction(2, 3)
    assert two_thirds == Fraction(2, 3)
    assert hash(two_thirds) == hash(Fraction(2, 3))
    assert two_thirds + Fraction(1, 3) == 1


def test_param_fraction_negative_lead_flag():
    a = ParamFraction.parameter(AB, "a")
    assert (-a).negative_lead
    assert not a.negative_lead
    assert ParamFraction(B - A).negative_lead  # lex leading term is -a
    assert not ParamFraction.zero(AB).negative_lead


def test_param_fraction_evaluate():
    f = ParamFraction(A + B, A - B)
    values = {"a": Fraction(3), "b": Fraction(1)}
    assert f.evaluate(values) == Fraction(2)
    assert ParamFraction.from_fraction(AB, 7).evaluate({}) == 7


def test_param_fraction_str_is_grammar_compatible():
    a = ParamFraction.parameter(AB, "a")
    b = ParamFraction.parameter(AB, "b")
    # the denominator stays primitive, so rational content sits on the numerator
    assert str((a * a + b * b) / (a * b * 2)) == "(1/2*a^2 + 1/2*b^2)/(a*b)"
    assert str(a * Fraction(1, 2)) == "1/2*a"
    assert str(-(a / b)) == "-a/b"
    assert str(ParamFraction.from_fraction(AB, Fraction(-3, 4))) == "-3/4"
    assert str(ParamFraction.zero(AB)) == "0"


def test_normalize_fraction_matches_constructor():
    built = normalize_fraction(A * A - B * B, (A + B) * 2)
    assert built == ParamFraction(A - B, ParamPoly.constant(AB, 2))
    assert str(built) == "1/2*a - 1/2*b"

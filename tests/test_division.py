"""Multivariate division: reconstruction identity, remainder purity, ordering."""

import math
import random
from fractions import Fraction

import pytest

from gbgeom.division import multivariate_divide, normal_form
from gbgeom.groebner import GroebnerBasis, s_polynomial
from gbgeom.polynomials import Polynomial, VarContext, leading_parts

from support import divides, random_nonzero_polynomial

CTX = VarContext(("x", "y"))
X, Y = CTX.variable("x"), CTX.variable("y")


def assert_pure(remainder, divisors):
    for term in remainder.terms:
        for d in divisors:
            assert not divides(leading_parts(d)[1], term.monomial)


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


def test_cancelled_monomial_created_again():
    # x^3 -> quotient x cancels x*y^2 and adds x^2*y; x^2*y -> quotient y adds x*y^2 back
    f = X**3 - X * Y * Y
    result = multivariate_divide(f, [X * X - X * Y - Y * Y])
    assert result.quotients == (X + Y,)
    assert result.remainder == X * Y * Y + Y**3
    assert result.reconstruct() == f


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


def test_an_exponent_over_the_key_limit_is_refused_not_wrapped():
    # keys pack each exponent into a field of VarContext._WIDTH bits whose top
    # bit stays clear, so exponents stop at _LIMIT - 1 = 2 ** (_WIDTH - 1) - 1
    limit = VarContext._LIMIT
    assert limit == 2 ** (VarContext._WIDTH - 1)
    message = f"limit {limit - 1}"
    # the product x * y^(limit/2) -> y^limit overflows inside the kernel
    with pytest.raises(ValueError, match=message):
        normal_form(X * X, [X - Y ** (limit // 2)])
    with pytest.raises(ValueError, match=message):
        multivariate_divide(X * X, [X - Y ** (limit // 2)])
    # an input exponent at the limit is refused before any reduction
    with pytest.raises(ValueError, match=message):
        normal_form(Y ** limit, [X])
    with pytest.raises(ValueError, match=message):
        normal_form(X, [Y ** limit])
    # the largest allowed exponent still divides and is divided exactly
    top = Y ** (limit - 1)
    assert normal_form(top, [X]) == top
    assert not normal_form(top * X, [top])
    assert multivariate_divide(top * X, [X]).quotients == (top,)


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


def fraction_long_division(f, divisors):
    """The plain field long division the fraction-free kernel must agree with.

    Each elimination divides by the divisor's leading coefficient over Q.
    Besides the quotients and the remainder, it replays the kernel's integer
    scale: the work starts as d * f for f's least common denominator d, and
    eliminating a term of integer coefficient c by a divisor whose primitive
    integer multiple has lead l rescales everything by l // gcd(c, l).  It
    returns True as its last value when some rescale came after both a
    remainder term and a quotient term were recorded.
    """
    ctx = f.context
    leads = []
    for g in divisors:
        coefficients = [t.coefficient for t in g.terms]
        lcm = math.lcm(*(c.denominator for c in coefficients))
        lead = abs(coefficients[0]) * lcm / math.gcd(*(c.numerator for c in coefficients))
        assert lead.denominator == 1
        leads.append(lead.numerator)
    scale = math.lcm(*(t.coefficient.denominator for t in f.terms))
    work = {m: c for c, m in f.terms}
    quotients = [{} for _ in divisors]
    remainder = {}
    late_rescale = False
    while work:
        m = max(work)
        c = work[m]
        for i, g in enumerate(divisors):
            lead_coefficient, lead_monomial = g.terms[0]
            if divides(lead_monomial, m):
                integer = c * scale
                assert integer.denominator == 1  # the kernel's work dict stays integral
                if integer.numerator % leads[i]:
                    scale *= leads[i] // math.gcd(integer.numerator, leads[i])
                    late_rescale = late_rescale or (bool(remainder) and any(quotients))
                factor = c / lead_coefficient
                shift = tuple(a - b for a, b in zip(m, lead_monomial))
                quotients[i][shift] = quotients[i].get(shift, 0) + factor
                for tc, tm in g.terms:
                    k = tuple(a + b for a, b in zip(shift, tm))
                    work[k] = work.get(k, 0) - factor * tc
                    if not work[k]:
                        del work[k]
                break
        else:
            remainder[m] = work.pop(m)
    quotients = [Polynomial.from_terms(ctx, q.items()) for q in quotients]
    return quotients, Polynomial.from_terms(ctx, remainder.items()), late_rescale


def test_fraction_free_kernel_equals_field_long_division():
    rng = random.Random(20261019)
    ctx = VarContext(("x", "y", "z"))
    late = 0
    for _ in range(200):
        f = random_nonzero_polynomial(rng, ctx, max_terms=8, max_degree=3)
        divisors = [
            random_nonzero_polynomial(rng, ctx, max_terms=3, max_degree=2)
            for _ in range(rng.randint(1, 3))
        ]
        result = multivariate_divide(f, divisors)
        assert result.reconstruct() == f
        assert_pure(result.remainder, divisors)
        quotients, remainder, late_rescale = fraction_long_division(f, divisors)
        assert list(result.quotients) == quotients
        assert result.remainder == remainder
        assert normal_form(f, divisors) == remainder
        late += late_rescale
    # the draws exercise rescaling after remainder and quotient terms exist
    assert late >= 10, late


def test_s_polynomial_of_non_integral_non_monic_inputs():
    rng = random.Random(1993)
    ctx = VarContext(("x", "y", "z"))
    for _ in range(100):
        f = random_nonzero_polynomial(rng, ctx, max_terms=4, max_degree=3)
        g = random_nonzero_polynomial(rng, ctx, max_terms=4, max_degree=3)
        lcm = tuple(map(max, f.terms[0].monomial, g.terms[0].monomial))
        # lcm / lt(p) as a polynomial
        left, right = (
            Polynomial.from_terms(ctx, [(tuple(a - b for a, b in zip(lcm, m)), 1 / c)])
            for c, m in (f.terms[0], g.terms[0])
        )
        assert s_polynomial(f, g) == left * f - right * g

"""Shared generators for the randomized suites.

Every generator takes an explicit ``random.Random`` so each test module
owns its seed and reruns are reproducible.
"""

from fractions import Fraction

from gbgeom import Monomial, ParamPoly, Polynomial, VarContext


def random_fraction(rng, span=9):
    """Uniform-ish nonzero-denominator rational with small numerator and denominator."""
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_nonzero_fraction(rng, span=9):
    while True:
        value = random_fraction(rng, span)
        if value:
            return value


def random_exponents(rng, width, max_degree):
    return tuple(rng.randint(0, max_degree) for _ in range(width))


def random_monomial(rng, width, max_degree):
    return Monomial(random_exponents(rng, width, max_degree))


def lex_compare(u, v):
    """Three-way lex comparison: exponent tuples, the key Polynomial sorts terms by."""
    return (u.exponents > v.exponents) - (u.exponents < v.exponents)


def random_polynomial(rng, ctx, max_terms=3, max_degree=2, span=9):
    """Random element of Q[vars]; may be zero when all drawn coefficients vanish."""
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        coefficient = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if coefficient:
            pairs.append((random_exponents(rng, len(ctx.variables), max_degree), coefficient))
    return Polynomial.from_terms(ctx, pairs)


def random_nonzero_polynomial(rng, ctx, max_terms=3, max_degree=2, span=9):
    while True:
        p = random_polynomial(rng, ctx, max_terms, max_degree, span)
        if p:
            return p


def random_param_poly(rng, params, max_terms=3, max_degree=2, span=9):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        coefficient = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if coefficient:
            pairs.append((random_exponents(rng, len(params), max_degree), coefficient))
    return ParamPoly(params, pairs)


def random_nonzero_param_poly(rng, params, max_terms=3, max_degree=2, span=9):
    while True:
        p = random_param_poly(rng, params, max_terms, max_degree, span)
        if p:
            return p


def random_point(rng, names, span=5):
    """Evaluation point keyed by name; coordinates stay small to keep products exact and fast."""
    return {name: random_fraction(rng, span) for name in names}

"""Shared generators for the randomized suites, and the named test systems.

Every generator takes an explicit ``random.Random`` so each test module
owns its seed and reruns are reproducible.  ``systems`` is the set of small
systems that the sympy oracle and the coefficient-domain tests both run, and
``reference_buchberger`` is the plain pair loop the engine's is checked
against.
"""

import heapq
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from gbgeom import ParamPoly, Polynomial, VarContext, parse_expression, read_system
from gbgeom.division import normal_form
from gbgeom.groebner import GroebnerBasis, s_polynomial


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


def lex_compare(u, v):
    """Three-way lex comparison of exponent tuples, the order Polynomial sorts terms by."""
    return (u > v) - (u < v)


def divides(u, v):
    """True when the monomial u divides the monomial v."""
    return all(a <= b for a, b in zip(u, v))


def monomial_product(u, v):
    return tuple(a + b for a, b in zip(u, v))


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


ORACLE_GCD_PARAMS = ("a", "b", "c")


def _binomial_or_longer(rng):
    """A seeded element of Q[a, b, c] with two or three terms; monomials have a shortcut."""
    while True:
        p = random_nonzero_param_poly(rng, ORACLE_GCD_PARAMS, max_terms=3, span=5)
        if len(p.terms) > 1:
            return p


def oracle_gcd_pair(seed):
    """The seeded pair whose gcd ``test_oracle`` checks; two in three share a factor."""
    rng = random.Random(seed)
    p, q = _binomial_or_longer(rng), _binomial_or_longer(rng)
    if seed % 3:
        g = _binomial_or_longer(rng)
        p, q = p * g, q * g
    return p, q


def random_point(rng, names, span=5):
    """Evaluation point keyed by name; coordinates stay small to keep products exact and fast."""
    return {name: random_fraction(rng, span) for name in names}


FIXTURES = Path(__file__).parent / "fixtures"
XYZ = ("x", "y", "z")
QUADRIC_MONOMIALS = [
    (i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2
]
PARAM_COEFFICIENTS = ("a", "b", "a + 1", "a*b", "a - b", "2", "-3")


def katsura(n):
    """Katsura-n: sum over l of u_|l| * u_|m-l| = u_m for m < n, and u0 + 2*(u1 + ... + un) = 1."""
    names = tuple(f"u{i}" for i in range(n + 1))
    polys = []
    for m in range(n):
        counts = Counter(
            tuple(sorted((abs(l), abs(m - l)))) for l in range(-n, n + 1) if abs(m - l) <= n
        )
        terms = [f"{c}*{names[i]}*{names[j]}" for (i, j), c in sorted(counts.items())]
        polys.append(" + ".join(terms) + f" - {names[m]}")
    polys.append(" + ".join([names[0]] + [f"2*{u}" for u in names[1:]]) + " - 1")
    return VarContext(names), polys


def cyclic(n):
    names = tuple(f"x{i}" for i in range(n))
    polys = [
        " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    return VarContext(names), polys + ["*".join(names) + " - 1"]


def stress_system():
    """The parametric stress system over Q(a, b, c): an ellipsoid, a cylinder and x*y*z = c."""
    ctx = VarContext(XYZ, ("a", "b", "c"))
    return ctx, ["x^2/a^2 + y^2/b^2 + z^2/c^2 - 1", "x^2 + y^2 - a*x", "x*y*z - c"]


def stress_plane_system():
    """The stress system with x*y*z = c replaced by the plane x + y + z = c."""
    ctx = VarContext(XYZ, ("a", "b", "c"))
    return ctx, ["x^2/a^2 + y^2/b^2 + z^2/c^2 - 1", "x^2 + y^2 - a*x", "x + y + z - c"]


def pinned_13_5():
    """The benchmark's pinned heavy pair ``pinned-13-5`` over Q(a, b), written out.

    Its lex pair loop runs the parameter gcd's monomial split, irreducible
    input and GCDHEU.
    """
    ctx = VarContext(XYZ, ("a", "b"))
    return ctx, [
        "b*z^2 + a^2*x*z + (a - b)*x^2 + (a - b)*z + a*y",
        "(a - b)*y^2 + a*x*z + a*x^2 - z - y",
    ]


def parsed(case):
    """The generators of a (context, texts) case such as ``katsura(n)``, parsed."""
    ctx, polys = case
    return [parse_expression(text, ctx) for text in polys]


def quadric_pair(seed, params):
    """Two sparse quadrics in x, y, z, three terms each, with seeded coefficients."""
    rng = random.Random(seed)
    ctx = VarContext(XYZ, ("a", "b") if params else ())
    polys = []
    for _ in range(2):
        terms = []
        for exps in rng.sample(QUADRIC_MONOMIALS, 3):
            if params:
                coeff = rng.choice(PARAM_COEFFICIENTS)
            else:
                coeff = str(rng.choice([-1, 1]) * rng.randint(1, 9))
            mono = "*".join(f"{n}^{e}" for n, e in zip(XYZ, exps) if e) or "1"
            terms.append(f"({coeff})*{mono}")
        polys.append(" + ".join(terms))
    return ctx, polys


def systems():
    """Name -> (context, generator texts): both fixtures, katsura-2, cyclic-3/4, 16 pairs."""
    cases = {}
    for path in sorted(FIXTURES.glob("*.sys")):
        spec = read_system(path)
        cases[path.stem] = (spec.context(), list(spec.polynomials))
    cases["katsura-2"] = katsura(2)
    cases["cyclic-3"] = cyclic(3)
    cases["cyclic-4"] = cyclic(4)
    for seed in range(8):
        cases[f"pair-Q-{seed}"] = quadric_pair(seed, params=False)
        cases[f"pair-Qab-{seed}"] = quadric_pair(seed, params=True)
    return cases


def reference_buchberger(generators):
    """Plain Buchberger for differential tests: every pair reduced, smallest lcm degree first."""
    basis = [g for g in generators if g]
    lead = [g.terms[0].monomial for g in basis]
    queue = []

    def push_pairs(j):
        for i in range(j):
            heapq.heappush(queue, (sum(map(max, lead[i], lead[j])), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while queue:
        _, i, j = heapq.heappop(queue)
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            basis.append(remainder)
            lead.append(remainder.terms[0].monomial)
            push_pairs(len(basis) - 1)
    return GroebnerBasis(tuple(basis))

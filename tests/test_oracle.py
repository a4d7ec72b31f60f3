"""Differential oracle: reduced lex bases and parameter gcds agree with sympy.

sympy is an independent implementation, so agreement on both coefficient
rings, Q and Q(a, b), pins the sparse-term core and everything above it, and
agreement with ``sympy.gcd`` pins the gcd that keeps Q(a, b, c) canonical.
sympy is a test-only dependency; without it this module is skipped.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from gbgeom import ParamPoly, param_poly_gcd, parse_expression, reduced_basis  # noqa: E402

from support import (  # noqa: E402
    ORACLE_GCD_PARAMS,
    katsura,
    oracle_gcd_pair,
    stress_system,
    systems,
)

SYSTEMS = {**systems(), "katsura-3": katsura(3)}


def sympy_reduced_basis(ctx, polys, method="buchberger"):
    """sympy's reduced lex basis, parsed back into gbgeom and made monic."""
    symbols = {name: sympy.Symbol(name) for name in ctx.variables + ctx.parameters}
    exprs = [sympy.sympify(text.replace("^", "**"), locals=symbols) for text in polys]
    domain = f"QQ({','.join(ctx.parameters)})" if ctx.parameters else "QQ"
    basis = sympy.groebner(
        exprs,
        *(symbols[name] for name in ctx.variables),
        order="lex",
        domain=domain,
        method=method,
    )
    theirs = [parse_expression(str(g).replace("**", "^"), ctx).monic() for g in basis.exprs]
    return sorted(theirs, key=lambda g: g.terms[0].monomial, reverse=True)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_reduced_basis_matches_sympy(name):
    ctx, polys = SYSTEMS[name]
    ours = reduced_basis([parse_expression(text, ctx) for text in polys]).elements
    assert list(ours) == sympy_reduced_basis(ctx, polys)


def test_stress_system_matches_sympy_f5b():
    ctx, polys = stress_system()
    ours = reduced_basis([parse_expression(text, ctx) for text in polys]).elements
    assert list(ours) == sympy_reduced_basis(ctx, polys, method="f5b")


ABC = ORACLE_GCD_PARAMS


def to_sympy(p):
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms}
    return sympy.Poly.from_dict(terms, *sympy.symbols(ABC), domain="QQ")


@pytest.mark.parametrize("seed", range(30))
def test_param_poly_gcd_matches_sympy(seed):
    p, q = oracle_gcd_pair(seed)
    ours = param_poly_gcd(p, q)
    gcd = to_sympy(p).gcd(to_sympy(q))
    theirs = ParamPoly(ABC, [(e, Fraction(c.numerator, c.denominator)) for e, c in gcd.terms()])
    # equal up to the normalization: a rational factor
    assert theirs.mul_ground(ours.leading_coefficient() / theirs.leading_coefficient()) == ours


@pytest.mark.parametrize("seed", range(30))
def test_param_poly_gcd_matches_sympy_by_remainder_sequence(seed, remainder_sequence):
    test_param_poly_gcd_matches_sympy(seed)

"""Differential oracle: reduced lex bases agree with sympy's ``groebner``.

sympy is an independent implementation, so agreement on both coefficient
rings, Q and Q(a, b), pins the sparse-term core and everything above it.
sympy is a test-only dependency; without it this module is skipped.
"""

import pytest

sympy = pytest.importorskip("sympy")

from gbgeom import parse_expression, reduced_basis  # noqa: E402

from support import systems  # noqa: E402

SYSTEMS = systems()


def sympy_reduced_basis(ctx, polys):
    """sympy's reduced lex basis, parsed back into gbgeom and made monic."""
    symbols = {name: sympy.Symbol(name) for name in ctx.variables + ctx.parameters}
    exprs = [sympy.sympify(text.replace("^", "**"), locals=symbols) for text in polys]
    domain = f"QQ({','.join(ctx.parameters)})" if ctx.parameters else "QQ"
    basis = sympy.groebner(
        exprs, *(symbols[name] for name in ctx.variables), order="lex", domain=domain
    )
    theirs = [parse_expression(str(g).replace("**", "^"), ctx).monic() for g in basis.exprs]
    return sorted(theirs, key=lambda g: g.terms[0].monomial.exponents, reverse=True)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_reduced_basis_matches_sympy(name):
    ctx, polys = SYSTEMS[name]
    ours = reduced_basis([parse_expression(text, ctx) for text in polys]).elements
    assert list(ours) == sympy_reduced_basis(ctx, polys)

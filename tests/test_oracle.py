"""Differential oracle: reduced lex bases agree with sympy's ``groebner``.

sympy is an independent implementation, so agreement on both coefficient
rings, Q and Q(a, b), pins the sparse-term core and everything above it.
sympy is a test-only dependency; without it this module is skipped.
"""

import random
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from gbgeom import VarContext, parse_expression, read_system, reduced_basis  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
XYZ = ("x", "y", "z")
QUADRIC_MONOMIALS = [
    (i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2
]
PARAM_COEFFICIENTS = ("a", "b", "a + 1", "a*b", "a - b", "2", "-3")


def katsura_2():
    ctx = VarContext(("u0", "u1", "u2"))
    polys = ["u0^2 + 2*u1^2 + 2*u2^2 - u0", "2*u0*u1 + 2*u1*u2 - u1", "u0 + 2*u1 + 2*u2 - 1"]
    return ctx, polys


def cyclic(n):
    names = tuple(f"x{i}" for i in range(n))
    polys = [
        " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    return VarContext(names), polys + ["*".join(names) + " - 1"]


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
    cases = {}
    for path in sorted(FIXTURES.glob("*.sys")):
        spec = read_system(path)
        cases[path.stem] = (spec.context(), list(spec.polynomials))
    cases["katsura-2"] = katsura_2()
    cases["cyclic-3"] = cyclic(3)
    cases["cyclic-4"] = cyclic(4)
    for seed in range(8):
        cases[f"pair-Q-{seed}"] = quadric_pair(seed, params=False)
        cases[f"pair-Qab-{seed}"] = quadric_pair(seed, params=True)
    return cases


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

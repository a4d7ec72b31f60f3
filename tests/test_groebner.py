"""Buchberger pipeline: S-polynomials, basis completion, minimal and reduced forms."""

import random
from fractions import Fraction

import pytest

from gbgeom import ParamFraction, detect_planes, parse_expression, render
from gbgeom.division import multivariate_divide, normal_form
from gbgeom.groebner import (
    GroebnerBasis,
    PairStats,
    buchberger,
    is_groebner,
    minimalize,
    reduce_basis,
    reduced_basis,
    s_polynomial,
)
from gbgeom.polynomials import VarContext, leading_parts

from support import (
    cyclic,
    divides,
    katsura,
    parsed,
    random_nonzero_polynomial,
    reference_buchberger,
    stress_system,
    systems,
)

CTX = VarContext(("x", "y", "z"))
X, Y, Z = (CTX.variable(n) for n in ("x", "y", "z"))


def lm_exponents(basis):
    return [leading_parts(g)[1] for g in basis]


def test_s_polynomial_cancels_leading_terms():
    s = s_polynomial(X - Y, X - Z)
    assert s == Z - Y
    f = X * X * X - 2 * X * Y
    g = X * X * Y - 2 * Y * Y + X
    assert s_polynomial(f, g) == -(X * X)
    # leading coefficients are divided out: y*(x^2 + y/2) - x*(x*y + 1/3)
    assert s_polynomial(2 * X * X + Y, 3 * X * Y + 1) == Y * Y / 2 - X / 3
    with pytest.raises(ValueError):
        s_polynomial(X, CTX.zero())


def test_generators_drop_zeros_and_share_one_context():
    assert buchberger([X, CTX.zero(), Y]).elements == (X, Y)
    assert buchberger([CTX.zero()]).elements == ()
    # x and the other context's y have coprime leading monomials, so their
    # pair is never reduced and only the up-front check sees the mix
    other_y = VarContext(("x", "y", "z"), ("a",)).variable("y")
    with pytest.raises(ValueError):
        buchberger([X, other_y])
    with pytest.raises(ValueError):
        buchberger([CTX.zero(), VarContext(("t",)).variable("t")])


def test_is_groebner_rejects_mixed_contexts():
    # the coprime pair is skipped, so only an up-front check sees the mix
    other_y = VarContext(("x", "y", "z"), ("a",)).variable("y")
    with pytest.raises(ValueError, match="different context"):
        is_groebner([X, other_y])


def test_buchberger_keeps_generators_and_completes():
    gens = (X * X - Y, X * X * X - Z)
    basis = buchberger(gens)
    assert set(gens) <= set(basis.elements)
    assert is_groebner(basis)
    assert not basis.reduced


def test_twisted_cubic_reduced_basis():
    # lex basis of the ideal of the curve (t, t^2, t^3)
    gb = reduced_basis([X * X - Y, X * X * X - Z])
    assert gb.elements == (
        X * X - Y,
        X * Y - Z,
        X * Z - Y * Y,
        Y * Y * Y - Z * Z,
    )
    assert gb.reduced
    assert is_groebner(gb)


def test_two_planes_reduce_to_staircase():
    gb = reduced_basis([X - Y, X - Z])
    assert gb.elements == (X - Z, Y - Z)


def test_unit_ideal_reduces_to_one():
    gb = reduced_basis([X, X + 1])
    assert gb.elements == (CTX.one(),)


def test_zero_ideal_gives_empty_basis():
    gb = reduced_basis([])
    assert gb.elements == ()
    assert len(gb) == 0
    with pytest.raises(ValueError):
        gb.context


def test_minimalize_drops_redundant_leading_terms():
    basis = GroebnerBasis((X * X, X))
    assert is_groebner(basis)
    assert minimalize(basis).elements == (X,)


def test_reduce_basis_clears_tails_and_sorts():
    basis = buchberger([X + Y, Y])
    reduced = reduce_basis(minimalize(basis))
    assert reduced.elements == (X, Y)
    assert reduced.reduced


def test_reduced_elements_are_monic_pure_and_descending():
    gb = reduced_basis([X * X - Y, X * X * X - Z])
    lms = lm_exponents(gb)
    assert lms == sorted(lms, reverse=True)
    for i, g in enumerate(gb):
        assert leading_parts(g)[2] == 1
        others = [h for j, h in enumerate(gb) if j != i]
        for term in g.terms:
            assert not any(divides(leading_parts(h)[1], term.monomial) for h in others)


def test_reduced_basis_invariant_under_generator_order_and_scale():
    gens = [X * X - Y, X * X * X - Z]
    expected = reduced_basis(gens).elements
    assert reduced_basis(list(reversed(gens))).elements == expected
    assert reduced_basis([g * 7 for g in gens]).elements == expected
    assert reduced_basis([gens[0], gens[1] / 3]).elements == expected


def test_coprime_criterion_does_not_change_result():
    gens = [X * Y - 1, Y * Z - 1, X - Z * Z]
    with_pruning = reduced_basis(gens)
    plain = reduce_basis(reference_buchberger(gens))
    assert with_pruning.elements == plain.elements


def test_pair_statistics_on_katsura_3():
    basis = buchberger(parsed(katsura(3)))
    stats = basis.stats
    # every pair formed is pruned by one criterion or reduced
    assert stats.formed == stats.coprime + stats.chain + stats.reduced
    assert stats.zero < stats.reduced
    assert stats.peak_basis == len(basis)
    assert reduce_basis(basis).stats is stats
    assert stats.coprime > 0 and stats.chain > 0
    # a loop with the coprime criterion alone reduces 109 S-polynomials
    assert stats.reduced <= 30


def test_stats_stay_outside_equality_and_hash():
    basis = buchberger([X * X - Y, X * X * X - Z])
    assert isinstance(basis.stats, PairStats)
    bare = GroebnerBasis(basis.elements)
    assert bare.stats is None
    assert bare == basis and hash(bare) == hash(basis)


DIFFERENTIAL = {**systems(), "katsura-3": katsura(3)}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_pair_loop_matches_plain_buchberger(name):
    gens = parsed(DIFFERENTIAL[name])
    assert reduced_basis(gens).elements == reduce_basis(reference_buchberger(gens)).elements


def test_pair_loop_matches_plain_buchberger_on_random_systems():
    rng = random.Random(6)
    for _ in range(150):
        ctx = VarContext(("x", "y", "z")[: rng.randint(2, 3)])
        gens = [
            random_nonzero_polynomial(rng, ctx, max_terms=3, max_degree=2, span=3)
            for _ in range(rng.randint(2, 4))
        ]
        assert reduced_basis(gens).elements == reduce_basis(reference_buchberger(gens)).elements


def test_cyclic_5_completes():
    gens = parsed(cyclic(5))
    gb = reduced_basis(gens)
    assert len(gb) == 11
    assert is_groebner(gb)
    assert not any(normal_form(g, gb) for g in gens)


def test_stress_system_completes():
    gens = parsed(stress_system())
    gb = reduced_basis(gens)
    assert lm_exponents(gb) == [(1, 0, 0), (0, 1, 0), (0, 0, 12)]
    assert is_groebner(gb)
    assert not any(normal_form(g, gb) for g in gens)


def test_is_groebner_detects_incomplete_sets():
    assert not is_groebner([X * X - Y, X * X * X - Z])
    assert is_groebner([X * X - Y, X * Y - Z, X * Z - Y * Y, Y * Y * Y - Z * Z])
    assert is_groebner([X - Y])  # coprime pair shortcut covers single elements


def test_membership_via_normal_form():
    gb = reduced_basis([X * X - Y, X * X * X - Z])
    assert normal_form(X * Z - Y * Y, gb) == CTX.zero()
    assert normal_form(X + 1, gb) == X + 1


def test_parametric_system_reduced_basis():
    ctx = VarContext(("x", "y", "z"), ("a", "b"))
    x, y, z = (ctx.variable(n) for n in ("x", "y", "z"))
    a, b = ctx.coefficient("a"), ctx.coefficient("b")
    paraboloid = z - x * x.scale((a * a).invert()) - y * y.scale((b * b).invert())
    cylinder = (
        x * x.scale((a * a).invert())
        + y * y.scale((b * b).invert())
        - x.scale(a.invert())
        - y.scale(b.invert())
    )
    gb = reduced_basis([paraboloid, cylinder])
    assert gb.elements == (
        x + y.scale(a / b) - z.scale(a),
        y * y - y * z.scale(b) + z * z.scale(b * b / 2) - z.scale(b * b / 2),
    )
    assert is_groebner(gb)


RATIONAL_SYSTEMS = {name: case for name, case in systems().items() if not case[0].parameters}


def _domain_outputs(ctx, polys):
    """Every printed answer of one system: basis renders, planes, and one division."""
    basis = reduced_basis([parse_expression(text, ctx) for text in polys])
    out = [render(g, mode) for mode in ("monic", "cleared") for g in basis]
    if len(ctx.variables) == 3:
        detection = detect_planes(basis)
        planes = detection.family.planes if detection.family is not None else ()
        out += [detection.status] + [str(c) for plane in planes for c in plane]
    names = ctx.variables
    target = parse_expression(f"({' + '.join(names)} + 1)^3 - 2*{names[0]}*{names[-1]}", ctx)
    division = multivariate_divide(target, basis.elements)
    out += [str(q) for q in division.quotients] + [str(division.remainder)]
    return basis, out


@pytest.mark.parametrize("name", sorted(RATIONAL_SYSTEMS))
def test_rational_and_rational_function_domains_agree(name):
    """Over Q the coefficients are Fractions; an unused parameter t gives the same text."""
    ctx, polys = RATIONAL_SYSTEMS[name]
    basis, rational = _domain_outputs(VarContext(ctx.variables), polys)
    lifted_basis, lifted = _domain_outputs(VarContext(ctx.variables, ("t",)), polys)
    assert rational == lifted
    assert all(isinstance(t.coefficient, Fraction) for g in basis for t in g.terms)
    assert all(isinstance(t.coefficient, ParamFraction) for g in lifted_basis for t in g.terms)

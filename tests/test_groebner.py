"""Buchberger pipeline: S-polynomials, basis completion, minimal and reduced forms."""

from fractions import Fraction

import pytest

from gbgeom.division import normal_form
from gbgeom.groebner import (
    GroebnerBasis,
    buchberger,
    is_groebner,
    minimalize,
    reduce_basis,
    reduced_basis,
    s_polynomial,
)
from gbgeom.polynomials import VarContext, leading_parts

CTX = VarContext(("x", "y", "z"))
X, Y, Z = (CTX.variable(n) for n in ("x", "y", "z"))


def lm_exponents(basis):
    return [leading_parts(g)[1].exponents for g in basis]


def test_s_polynomial_cancels_leading_terms():
    s = s_polynomial(X - Y, X - Z)
    assert s == Z - Y
    f = X * X * X - 2 * X * Y
    g = X * X * Y - 2 * Y * Y + X
    assert s_polynomial(f, g) == -(X * X)
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
        assert leading_parts(g)[2].is_one()
        others = [h for j, h in enumerate(gb) if j != i]
        for term in g.terms:
            assert not any(leading_parts(h)[1].divides(term.monomial) for h in others)


def test_reduced_basis_invariant_under_generator_order_and_scale():
    gens = [X * X - Y, X * X * X - Z]
    expected = reduced_basis(gens).elements
    assert reduced_basis(list(reversed(gens))).elements == expected
    assert reduced_basis([g * 7 for g in gens]).elements == expected
    assert reduced_basis([gens[0], gens[1] / 3]).elements == expected


def test_coprime_criterion_does_not_change_result():
    gens = [X * Y - 1, Y * Z - 1, X - Z * Z]
    with_pruning = reduced_basis(gens)
    plain = reduce_basis(minimalize(buchberger(gens, use_coprime_criterion=False)))
    assert with_pruning.elements == plain.elements


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

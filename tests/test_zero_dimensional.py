"""Zero-dimensional ideals: the graded reverse lex route and FGLM, and the reducer tables.

``reduced_basis`` answers a zero-dimensional ideal with at least as many
generators as variables by a grevlex basis converted to lex by FGLM.  These
tests check the route's answer by certificate and against the lex pair loop,
check which inputs take the route, and pin the private grevlex context and
the reducer tables the fused S-pair kernel reads.
"""

from fractions import Fraction
from itertools import product

import pytest

from gbgeom import conic_constraints, groebner, parse_expression
from gbgeom.division import _table, normal_form
from gbgeom.groebner import buchberger, is_groebner, reduce_basis, reduced_basis
from gbgeom.polynomials import VarContext, _Grevlex

from support import cyclic, katsura, parsed, stress_system, systems


def grevlex_basis(gens):
    """The reduced grevlex basis the route computes, built the same way."""
    ctx = gens[0].context
    order = _Grevlex(ctx.variables, ctx.parameters)
    return reduce_basis(buchberger(groebner._in_context(gens, order)))


def standard_monomials(basis):
    """Monomials no leading monomial divides; the basis must have a pure power of each variable."""
    leads = [g.terms[0].monomial for g in basis]
    n = len(basis.context.variables)
    caps = [min(m[i] for m in leads if not any(m[:i] + m[i + 1:])) for i in range(n)]
    return [
        m for m in product(*(range(c) for c in caps))
        if not any(all(a <= b for a, b in zip(lead, m)) for lead in leads)
    ]


def test_katsura_4_certificate():
    gens = parsed(katsura(4))
    basis = reduced_basis(gens)
    assert len(basis) == 5 and basis.reduced
    assert is_groebner(basis)
    assert not any(normal_form(g, basis) for g in gens)
    grevlex = grevlex_basis(gens)
    assert is_groebner(grevlex)
    order = grevlex.context
    assert not any(normal_form(g, grevlex) for g in groebner._in_context(basis, order))
    # 2^4 solutions, counted with multiplicity (Bezout): the quotient's dimension
    assert len(standard_monomials(basis)) == 16 == len(standard_monomials(grevlex))


DIFFERENTIAL = {
    "katsura-2": lambda: parsed(katsura(2)),
    "katsura-3": lambda: parsed(katsura(3)),
    "cyclic-3": lambda: parsed(cyclic(3)),
    "cyclic-4": lambda: parsed(cyclic(4)),
    "cyclic-5": lambda: parsed(cyclic(5)),
    "stress": lambda: parsed(stress_system()),
    "conoid-constraints": conic_constraints,
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_route_matches_the_lex_pair_loop(name):
    gens = DIFFERENTIAL[name]()
    assert len(gens) >= len(gens[0].context.variables)
    assert reduced_basis(gens).elements == reduce_basis(buchberger(gens)).elements


@pytest.fixture
def spy(monkeypatch):
    """Records the term order of every pair loop; FGLM may not run unless allowed."""
    runs = []
    loop = groebner.buchberger

    def recording(generators):
        generators = list(generators)
        runs.append(type(generators[0].context))
        return loop(generators)

    def refused(basis, context):
        raise AssertionError("FGLM on an ideal that is not zero-dimensional")

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(groebner, "_fglm", refused)
    return runs


@pytest.mark.parametrize("text", [
    ("x^2 + y^2 + z^2 - 1", "x - y"),
    ("x^2 - y", "x^3 - z"),
    ("x*y - 1",),
])
def test_fewer_generators_than_variables_never_start_a_grevlex_run(spy, text):
    ctx = VarContext(("x", "y", "z"))
    reduced_basis([parse_expression(t, ctx) for t in text])
    assert spy == [VarContext]


def test_fixtures_and_quadric_pairs_stay_lex(spy):
    cases = systems()
    for name in ("paraboloid_cylinder", "cubic_curve", "pair-Q-0", "pair-Qab-0"):
        reduced_basis(parsed(cases[name]))
    assert set(spy) == {VarContext}


def test_cyclic_4_takes_the_lex_fallback(spy):
    gens = parsed(cyclic(4))
    basis = reduced_basis(gens)
    # positive-dimensional: the grevlex basis seeds the lex pair loop
    assert spy == [_Grevlex, VarContext]
    assert basis.elements == reduce_basis(buchberger(gens)).elements


def test_stats_on_the_route_are_the_grevlex_run():
    gens = parsed(katsura(3))
    stats = reduced_basis(gens).stats
    assert stats.formed == stats.coprime + stats.chain + stats.reduced
    assert stats == grevlex_basis(gens).stats
    assert stats != buchberger(gens).stats


@pytest.mark.parametrize(
    "system, counts",
    [
        (katsura(3), (26, 13, 2, 11, 6, 9)),
        (katsura(4), (85, 39, 16, 30, 20, 15)),
        (cyclic(4), (28, 9, 11, 8, 7, 8)),
        (cyclic(5), (714, 131, 471, 112, 75, 42)),
    ],
    ids=["katsura-3", "katsura-4", "cyclic-4", "cyclic-5"],
)
def test_pair_loop_counts_are_pinned(system, counts):
    # a reduction that only multiplies each remainder by a nonzero constant
    # takes the same pair decisions, so the counts of the field kernel hold
    stats = reduced_basis(parsed(system)).stats
    assert (
        stats.formed, stats.coprime, stats.chain, stats.reduced, stats.zero, stats.peak_basis
    ) == counts


def test_grevlex_is_a_private_context_of_its_own():
    lex = VarContext(("x", "y", "z"))
    order = _Grevlex(lex.variables)
    assert order != lex and lex != order
    x, y, z = (order.variable(n) for n in "xyz")
    # graded first; within a degree, the smaller power of the last variable ranks higher
    p = x * z + y * y + x + z * z * z
    assert [t.monomial for t in p.terms] == [(0, 0, 3), (0, 2, 0), (1, 0, 1), (1, 0, 0)]
    with pytest.raises(ValueError):
        p + lex.variable("x")
    with pytest.raises(ValueError):
        normal_form(lex.variable("x"), [x])


def test_grevlex_heap_key_is_linear_and_inverts():
    order = _Grevlex(("x", "y", "z"))
    for u, v in [((1, 0, 2), (0, 3, 1)), ((2, 2, 0), (0, 0, 0))]:
        w = tuple(a + b for a, b in zip(u, v))
        assert order._key(w) == tuple(a + b for a, b in zip(order._key(u), order._key(v)))
        assert order._monomial(order._key(u)) == u
        # the smallest key is the highest term: higher degree, then the
        # smaller exponent of the last variable where the two differ
        higher = sum(u) > sum(v) or (sum(u) == sum(v) and u[::-1] < v[::-1])
        assert (order._key(u) < order._key(v)) == higher


def test_reducer_table_is_built_once_integral_over_q_and_monic_over_params():
    ctx = VarContext(("x", "y"))
    x, y = ctx.variable("x"), ctx.variable("y")
    g = x * y / 2 + Fraction(1, 3)
    table = _table(g)
    assert _table(g) is table
    # over Q: the primitive integer multiple 3xy + 2, with a positive int lead
    bound, lead, tail = table
    assert type(lead) is int and lead == 3
    assert tail == (((1, 1), 2),) and type(tail[0][1]) is int
    assert _table(-g)[1:] == (3, (((1, 1), 2),))
    # the tables stay outside equality and hashing
    assert g == x * y / 2 + Fraction(1, 3) and hash(g) == hash(x * y / 2 + Fraction(1, 3))
    assert normal_form(x * x * y, [g]) == -Fraction(2, 3) * x
    # over Q(params): the tail divided once by the leading coefficient, lead 1
    pctx = VarContext(("x", "y"), ("a",))
    px, py, a = pctx.variable("x"), pctx.variable("y"), pctx.coefficient("a")
    h = px * py * a + 1
    _, lead, tail = _table(h)
    assert lead == 1
    assert tail == (((1, 1), 1 / a),)
    assert normal_form(px * px * py, [h]) == -px / a

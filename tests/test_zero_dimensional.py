"""Zero-dimensional ideals: the graded reverse lex route and FGLM, and the kernels' layouts.

``reduced_basis`` answers a zero-dimensional ideal with at least as many
generators as variables by a grevlex basis converted to lex by FGLM.  These
tests check the route's answer by certificate and against the lex pair loop,
check which inputs take the route, and pin the private grevlex context, the
packed int keys of both orders, the reducer tables the fused S-pair kernel
reads, the tables every basis element carries, and the rows of the
elimination kernel FGLM and plane detection share.
"""

import math
import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from gbgeom import conic_constraints, groebner, parse_expression
from gbgeom.division import _table, _work, multivariate_divide, normal_form
from gbgeom.groebner import _eliminate, buchberger, is_groebner, reduce_basis, reduced_basis
from gbgeom.polynomials import Polynomial, VarContext, _Grevlex

from support import (
    cyclic, katsura, parsed, quadric_pair, random_fraction, stress_plane_system, stress_system,
    systems,
)


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


def scaled_katsura_3():
    """katsura-3 with its generators scaled by non-integer rationals: the same ideal."""
    scales = (Fraction(3, 7), Fraction(-5, 2), Fraction(11, 3), Fraction(-1, 4))
    return [g.scale(s) for g, s in zip(parsed(katsura(3)), scales)]


def substituted_katsura_3():
    """katsura-3 with u1 replaced by 2/3 * u1, so its reduced bases hold non-integer rationals."""
    ctx, polys = katsura(3)
    return parsed((ctx, [p.replace("u1", "(2/3*u1)") for p in polys]))


def quadric_pair_and_plane(seed):
    """The seeded quadric pair over Q(a, b) cut by the plane x + 2*y - z + a: FGLM over Q(a, b)."""
    ctx, polys = quadric_pair(seed, True)
    return parsed((ctx, [*polys, "x + 2*y - z + a"]))


DIFFERENTIAL = {
    "katsura-2": lambda: parsed(katsura(2)),
    "katsura-3": lambda: parsed(katsura(3)),
    "katsura-3-scaled": scaled_katsura_3,
    "katsura-3-substituted": substituted_katsura_3,
    "cyclic-3": lambda: parsed(cyclic(3)),
    "cyclic-4": lambda: parsed(cyclic(4)),
    "cyclic-5": lambda: parsed(cyclic(5)),
    "stress": lambda: parsed(stress_system()),
    "stress-plane": lambda: parsed(stress_plane_system()),
    "conoid-constraints": conic_constraints,
    **{f"pair-{seed}-plane": partial(quadric_pair_and_plane, seed) for seed in (0, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_route_matches_the_lex_pair_loop(name):
    gens = DIFFERENTIAL[name]()
    assert len(gens) >= len(gens[0].context.variables)
    assert reduced_basis(gens).elements == reduce_basis(buchberger(gens)).elements


def test_rational_differential_cases_are_not_integral():
    # the denominator and content bookkeeping of FGLM is exercised only when
    # the generators, and the grevlex basis it converts, are not integral
    assert reduced_basis(scaled_katsura_3()).elements == reduced_basis(parsed(katsura(3))).elements
    assert any(c.denominator != 1 for g in scaled_katsura_3() for c, _ in g.terms)
    grevlex = grevlex_basis(substituted_katsura_3())
    assert any(c.denominator != 1 for g in grevlex for c, _ in g.terms)


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


def tuple_key(order, exponents):
    """The order as a tuple key, the smallest the highest term: the reference for the int key."""
    if isinstance(order, _Grevlex):
        return (-sum(exponents), *reversed(exponents))
    return tuple(-e for e in exponents)


@pytest.mark.parametrize("order", [VarContext(("x", "y", "z")), _Grevlex(("x", "y", "z"))],
                         ids=["lex", "grevlex"])
def test_key_is_linear_inverts_and_orders_like_the_tuple_key(order):
    rng = random.Random(2017)
    top = order._LIMIT - 1
    monomials = [(1, 0, 2), (0, 3, 1), (2, 2, 0), (0, 0, 0), (top, 0, top), (0, top, 1)]
    monomials += [tuple(rng.randrange(5) for _ in range(3)) for _ in range(40)]
    mask, _ = order._masks
    width = order._WIDTH
    # the first variable is the most significant field under lex, the last under grevlex
    positions = (0, 1, 2) if isinstance(order, _Grevlex) else (2, 1, 0)
    for u in monomials:
        key = order._key(u)
        assert type(key) is int
        assert key & mask == sum(e << width * p for e, p in zip(u, positions))
        assert order._monomial(key) == u
        for v in monomials:
            w = tuple(a + b for a, b in zip(u, v))
            if max(w) <= top:
                assert order._key(w) == key + order._key(v)
            # the smallest key is the highest term, as with the tuple key
            assert (key < order._key(v)) == (tuple_key(order, u) < tuple_key(order, v))


@pytest.mark.parametrize("order", [VarContext(("x", "y", "z")), _Grevlex(("x", "y", "z"))],
                         ids=["lex", "grevlex"])
def test_packed_divisibility_is_componentwise_le(order):
    # the kernel's guard-bit test decides whether a single-term divisor reduces
    # a single-term dividend; exponents include 0 and the largest allowed
    rng = random.Random(1998)
    top = order._LIMIT - 1
    values = [0, 1, 2, top - 1, top]
    for _ in range(400):
        u, v = (tuple(rng.choice(values) for _ in range(3)) for _ in range(2))
        divisor = Polynomial.from_terms(order, [(u, 1)])
        dividend = Polynomial.from_terms(order, [(v, 1)])
        divides = all(a <= b for a, b in zip(u, v))
        assert (not normal_form(dividend, [divisor])) == divides, (u, v)
        if divides:
            quotient = multivariate_divide(dividend, [divisor]).quotients[0]
            assert quotient.terms[0].monomial == tuple(b - a for a, b in zip(u, v))


def test_reducer_table_is_built_once_integral_over_q_and_monic_over_params():
    ctx = VarContext(("x", "y"))
    x, y = ctx.variable("x"), ctx.variable("y")
    g = x * y / 2 + Fraction(1, 3)
    table = _table(g)
    assert _table(g) is table
    # over Q: the primitive integer multiple 3xy + 2, with a positive int lead
    bound, lead, tail = table
    assert type(lead) is int and lead == 3
    # the bound is the lead's packed exponents; a tail offset is an int key difference
    offset = ctx._key((0, 0)) - ctx._key((1, 1))
    assert bound == ctx._key((1, 1)) & ctx._masks[0]
    assert tail == ((offset, 2),) and type(tail[0][0]) is int and type(tail[0][1]) is int
    assert _table(-g)[1:] == (3, ((offset, 2),))
    # the tables stay outside equality and hashing
    assert g == x * y / 2 + Fraction(1, 3) and hash(g) == hash(x * y / 2 + Fraction(1, 3))
    assert normal_form(x * x * y, [g]) == -Fraction(2, 3) * x
    # over Q(params): the tail divided once by the leading coefficient, lead 1
    pctx = VarContext(("x", "y"), ("a",))
    px, py, a = pctx.variable("x"), pctx.variable("y"), pctx.coefficient("a")
    h = px * py * a + 1
    _, lead, tail = _table(h)
    assert lead == 1
    assert tail == ((pctx._key((0, 0)) - pctx._key((1, 1)), 1 / a),)
    assert normal_form(px * px * py, [h]) == -px / a


@pytest.fixture
def returned(monkeypatch):
    """Records every basis that buchberger and reduce_basis return inside reduced_basis."""
    bases = []
    for name in ("buchberger", "reduce_basis"):

        def recording(basis, run=getattr(groebner, name)):
            bases.append(run(basis))
            return bases[-1]

        monkeypatch.setattr(groebner, name, recording)
    return bases


CARRIED = {
    "katsura-3": lambda: [parsed(katsura(3))],
    "katsura-4": lambda: [parsed(katsura(4))],
    "cyclic-4": lambda: [parsed(cyclic(4))],  # grevlex, then the seeded lex loop
    "cyclic-5": lambda: [parsed(cyclic(5))],
    "stress": lambda: [parsed(stress_system())],
    "conoid-constraints": lambda: [conic_constraints()],  # FGLM over Q(a, b, d, h)
    "pairs-Q": lambda: [parsed(quadric_pair(seed, False)) for seed in range(20)],
    "pairs-Qab": lambda: [parsed(quadric_pair(seed, True)) for seed in range(20)],
}


@pytest.mark.parametrize("name", sorted(CARRIED))
def test_every_basis_element_carries_the_table_of_its_terms(returned, name):
    # pair-loop remainders, reduced elements and FGLM's lex elements are built
    # with their reducer tables from the kernel's numbers; each must be the
    # table that its terms give when built again from a bare copy
    for gens in CARRIED[name]():
        returned.clear()
        result = reduced_basis(gens)
        assert returned
        one = type(gens[0].context.coefficient(1))
        for basis in (*returned, result):
            for g in basis:
                assert g._table is not None
                assert g._table == _table(Polynomial._make(g.context, g.terms))
                assert all(type(c) is one for c, _ in g.terms)



def field_eliminate(rows, vector, combination):
    """The elimination over the field that the integer kernel replaces.

    A row is (pivot, row with 1 at the pivot, its combination); the vector
    and combination are dicts of field elements, changed in place.
    """
    for pivot, row, combo in rows:
        c = vector.get(pivot)
        if c:
            for target, source in ((vector, row), (combination, combo)):
                for k, v in source.items():
                    target[k] = target.get(k, 0) - c * v
                    if not target[k]:
                        del target[k]
    if not vector:
        return combination
    pivot, c = next(iter(vector.items()))
    inverse = 1 / c
    rows.append((
        pivot,
        {k: v * inverse for k, v in vector.items()},
        {k: v * inverse for k, v in combination.items()},
    ))
    return None


def proportional(left, right):
    """True when two nonzero dicts are nonzero multiples of each other."""
    return left.keys() == right.keys() and len({left[k] / right[k] for k in left}) == 1


def span_draws(rng, draw, dimension, count):
    """Sparse vectors: a few random ones, then random combinations of those, so some vanish."""
    keys = [(i, -i) for i in range(dimension)]
    base = [
        {k: draw() for k in rng.sample(keys, rng.randint(1, dimension))}
        for _ in range(count // 2)
    ]
    vectors = list(base)
    for _ in range(count - len(base)):
        total = {}
        for v in rng.sample(base, rng.randint(1, 3)):
            factor = draw()
            for k, c in v.items():
                total[k] = total.get(k, 0) + factor * c
        vectors.append({k: c for k, c in total.items() if c})
    rng.shuffle(vectors)
    return vectors


def assert_rows_are_their_combinations(rows, inputs):
    """Each row equals its combination of the inputs, and is zero at earlier rows' pivots."""
    for n, (pivot, _, row, combo) in enumerate(rows):
        total = {}
        for i, factor in combo.items():
            for k, c in inputs[i].items():
                total[k] = total.get(k, 0) + factor * c
        assert {k: c for k, c in total.items() if c} == row
        assert not any(earlier[0] in row for earlier in rows[:n])


def test_elimination_rows_over_q_are_primitive_integer_vectors():
    rng = random.Random(1993)
    ctx = VarContext(("x",))
    relations = scaled = 0
    for _ in range(20):
        vectors = span_draws(rng, lambda: random_fraction(rng) or Fraction(1), 6, 10)
        rows, field_rows = [], []
        for i, vector in enumerate(vectors):
            # cleared as the callers clear it: d * vector on integers, recorded as d times input i
            work, d = _work(ctx, vector.items())
            scaled += any(lead != 1 and pivot in work for pivot, lead, _, _ in rows)
            relation = _eliminate(rows, work, {i: d})
            expected = field_eliminate(field_rows, dict(vector), {i: Fraction(1)})
            assert (relation is None) == (expected is None)
            if relation is not None:
                relations += 1
                # content is divided out after every row step, so a relation is primitive
                assert all(type(c) is int for c in relation.values())
                assert math.gcd(*relation.values()) == 1
                assert proportional(relation, expected)
            for pivot, lead, row, combo in rows:
                assert all(type(c) is int for c in (*row.values(), *combo.values()))
                assert math.gcd(*row.values(), *combo.values()) == 1
                assert type(lead) is int and lead == row[pivot] and lead > 0
            assert_rows_are_their_combinations(rows, vectors)
            assert [r[0] for r in rows] == [r[0] for r in field_rows]
    # the draws exercise both outcomes and rows whose lead is not 1
    assert relations >= 50 and scaled >= 50, (relations, scaled)


def test_elimination_rows_over_params_keep_their_pivot_entry():
    rng = random.Random(2009)
    ctx = VarContext(("x",), ("a", "b"))
    a, b, one = ctx.coefficient("a"), ctx.coefficient("b"), ctx.coefficient(1)
    choices = (a, b, a + one, a * b, a - b, one * 2, one * -3, one / a, b / (a + one))
    relations = divided = 0
    for _ in range(5):
        vectors = span_draws(rng, lambda: rng.choice(choices), 4, 6)
        rows, field_rows = [], []
        for i, vector in enumerate(vectors):
            divided += any(lead != 1 and pivot in vector for pivot, lead, _, _ in rows)
            relation = _eliminate(rows, dict(vector), {i: one})
            expected = field_eliminate(field_rows, dict(vector), {i: one})
            assert (relation is None) == (expected is None)
            if relation is not None:
                relations += 1
                assert proportional(relation, expected)
            for pivot, lead, row, _ in rows:
                assert lead == row[pivot] and lead
            assert_rows_are_their_combinations(rows, vectors)
            assert [r[0] for r in rows] == [r[0] for r in field_rows]
    # the draws exercise both outcomes and rows whose pivot entry is not 1
    assert relations >= 10 and divided >= 10, (relations, divided)

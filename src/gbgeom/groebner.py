"""Groebner bases via Buchberger's algorithm.

The pair loop follows Gebauer and Moeller (J. Symb. Comp. 6, 1988), in the
form of algorithm UPDATE of Becker and Weispfenning's *Groebner Bases*.  When
an element h joins the basis:

- new pairs (g, h) are formed only for active g;
- a new pair is dropped when another new pair's lcm divides its lcm; among
  new pairs with equal lcms at most one is kept, and none if one of them is
  coprime (the chain criterion);
- then new pairs with coprime leading monomials are dropped, since they
  reduce to zero;
- an old pair (i, j) is dropped when lm(h) divides lcm(i, j) and neither
  lcm(i, h) nor lcm(j, h) equals it;
- every element whose leading monomial lm(h) divides leaves the active set.

Pairs are taken by smallest sugar (Giovini, Mora, Niesi, Robbiano and
Traverso, ISSAC 1991), ties broken by the pair indices, so runs are
deterministic for a given generator list.  A generator's sugar is its total
degree; a pair's is the larger of its elements' sugars, each raised by the
degree that takes its leading monomial to the lcm; a remainder inherits the
sugar of its pair.  Each S-polynomial is written straight into the division
work dict from the two elements' reducer tables (``division._table``),
reduced against the whole basis in insertion order, and a nonzero remainder
is made monic, with its reducer table, before it joins
(``division._monic``).  Over Q the tables hold primitive integer multiples
with integer leads l and l', so the work dict holds the integer
S-polynomial of those multiples, scaled by l' // gcd(l, l') and
l // gcd(l, l'); the remainder is a multiple of the true one, which is all
the pair loop needs, since it is made monic straight from its integers.

``reduce_basis`` produces THE reduced basis: monic elements, no monomial of
any element divisible by another element's leading monomial, sorted descending
by leading monomial.  It is unique for a given ideal, which is what makes
reduced bases usable as canonical forms.  The output order is always lex.

``reduced_basis`` takes a shorter route to the same basis when the ideal is
zero-dimensional.  With at least as many generators as variables, it first
computes the reduced basis under graded reverse lex (``polynomials._Grevlex``),
which is far cheaper than lex.  If that basis has a pure power of every
variable among its leading monomials, the ideal is zero-dimensional, and FGLM
(Faugere, Gianni, Lazard and Mora, J. Symb. Comp. 16, 1993) converts it to
the lex one by linear algebra.  Over Q that linear algebra is fraction-free
too: each normal form is kept as an integer remainder with an integer
denominator, the incremental elimination (``_eliminate``) keeps primitive
integer rows (``division._primitive`` divides out their content), and
``Fraction``s appear only when a relation is made monic as a lex basis
element, by the same ``division._monic`` as the pair loop's remainders.
Otherwise the grevlex basis, already complete under one order, replaces the
generators of the lex pair loop.  By Krull's height theorem a proper ideal
with fewer generators than variables is never zero-dimensional, so those go
straight to lex.  The routing is written once, in ``_completed``: the basis
that ``reduced_basis`` has before its last step, the reduced grevlex basis or
the lex pair loop's unreduced output.  A normal form is unique modulo any
Groebner basis of a fixed order, so plane detection reads its normal forms
off that basis and takes no last step at all.

The pair loop keeps monomials as exponent tuples: an lcm is
``map(max, ...)``, two monomials are coprime when ``map(min, ...)`` is all
zero, and ``_divides`` is ``map(le, ...)``.  Only the division kernel and
FGLM's normal forms live in division's key space of packed ints
(``VarContext._key``); an S-polynomial's lcm enters it as one key, and each
tail term as that key plus its offset.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from operator import le
from typing import Iterable

from .coefficients import _collect
from .division import _divided, _keyed, _monic, _polynomial, _primitive, _reduce, _table, _work
from .division import normal_form  # noqa: F401 (re-exported as groebner.normal_form)
from .polynomials import Polynomial, VarContext, _Grevlex, _terms


@dataclass
class PairStats:
    """Counts of one Buchberger run.

    Every pair formed is dropped by the coprime criterion, dropped by the
    chain criterion or Gebauer-Moeller elimination, or reduced:
    ``formed == coprime + chain + reduced``.
    """

    formed: int = 0
    coprime: int = 0
    chain: int = 0
    reduced: int = 0
    zero: int = 0
    peak_basis: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis together with its reduction status and run statistics.

    ``stats`` are the counts of the last pair loop that completed the basis.
    When ``reduced_basis`` converted a zero-dimensional ideal by FGLM, which
    forms no pairs, that loop ran under graded reverse lex; when the ideal
    was not zero-dimensional, it is the lex loop that the grevlex basis
    seeded.
    """

    elements: tuple[Polynomial, ...]
    reduced: bool = False
    stats: PairStats | None = field(default=None, compare=False)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def context(self) -> VarContext:
        if not self.elements:
            raise ValueError("empty basis has no context")
        return self.elements[0].context


def _divides(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """True when the monomial u divides the monomial v."""
    return all(map(le, u, v))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: both leading terms scaled to the lcm and subtracted."""
    f._check(g)
    if not f or not g:
        raise ValueError("s-polynomial of a zero polynomial")
    context = f.context
    lcm = tuple(map(max, f.terms[0].monomial, g.terms[0].monomial))
    left, right = _table(f), _table(g)
    # the work dict is lcm(l, l') times the S-polynomial of f and g
    work = sorted(_s_work(context, left, right, lcm).items())
    return _polynomial(context, _divided(context, work, math.lcm(left[1], right[1])))


def _s_work(context: VarContext, left: tuple, right: tuple, lcm) -> dict:
    """S-polynomial of the reducer tables left and right, as division's work dict.

    It is lcm(l, l') times the S-polynomial of the two elements, for their
    tables' leads l and l', which are 1 over Q(params).  Both leading terms
    cancel, so only the tails are written: a tail term of offset o lands at
    key(lcm) + o.
    """
    lcm_key = context._key(lcm)
    _, lead, tail = left
    _, other, other_tail = right
    common = math.gcd(lead, other)
    u, v = other // common, lead // common
    work = {lcm_key + offset: c if u == 1 else c * u for offset, c in tail}
    shifted = ((lcm_key + offset, -c if v == 1 else c * -v) for offset, c in other_tail)
    return _collect(shifted, work)


def _s_remainder(context: VarContext, tables: list[tuple], i: int, j: int, lcm) -> list[tuple]:
    """A nonzero multiple of the remainder of S(basis[i], basis[j]) modulo the basis.

    It is division's (key, coefficient) list, highest term first.
    """
    return _reduce(_s_work(context, tables[i], tables[j], lcm), tables, context._masks)[0]


def _nonzero(generators: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero generators; raises unless all share the first one's context."""
    generators = tuple(generators)
    if any(g.context != generators[0].context for g in generators):
        raise ValueError("generator from a different context")
    return [g for g in generators if g]


def buchberger(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Complete the generators to a (generally unreduced) Groebner basis.

    Every generator must share the first one's context.  The returned basis
    contains every nonzero generator, followed by the monic remainders that
    completed it, and carries the run's ``PairStats``.  A zero ideal yields an
    empty basis.
    """
    generators = _nonzero(generators)
    stats = PairStats()
    basis: list[Polynomial] = []
    tables: list[tuple] = []
    leads: list[tuple[int, ...]] = []
    sugars: list[int] = []
    active: list[int] = []
    live: dict[tuple[int, int], tuple[int, ...]] = {}  # waiting pair -> its lcm
    queue: list[tuple[int, int, int]] = []  # (sugar, i, j); dropped pairs go stale

    def insert(h: Polynomial, sugar: int) -> None:
        """Add h to the basis and run the pair update for it."""
        k = len(basis)
        lead = h.terms[0].monomial
        basis.append(h)
        tables.append(_table(h))
        leads.append(lead)
        sugars.append(sugar)
        new = [(tuple(map(max, leads[i], lead)), i) for i in active]
        stats.formed += len(new)
        kept = []
        for n, (lcm, i) in enumerate(new):
            coprime = not any(map(min, leads[i], lead))
            if coprime or not (
                any(_divides(other, lcm) for other, _ in new[n + 1:])
                or any(_divides(other, lcm) for other, _, _ in kept)
            ):
                kept.append((lcm, i, coprime))
            else:
                stats.chain += 1
        for (i, j), lcm in list(live.items()):
            if (
                _divides(lead, lcm)
                and tuple(map(max, leads[i], lead)) != lcm
                and tuple(map(max, leads[j], lead)) != lcm
            ):
                del live[i, j]
                stats.chain += 1
        for lcm, i, coprime in kept:
            if coprime:
                stats.coprime += 1
                continue
            pair_sugar = sum(lcm) + max(sugars[i] - sum(leads[i]), sugar - sum(lead))
            live[i, k] = lcm
            heapq.heappush(queue, (pair_sugar, i, k))
        active[:] = [i for i in active if not _divides(lead, leads[i])]
        active.append(k)

    for g in generators:
        insert(g, g.total_degree())
    while queue:
        sugar, i, j = heapq.heappop(queue)
        lcm = live.pop((i, j), None)
        if lcm is None:
            continue
        stats.reduced += 1
        context = basis[i].context
        remainder = _s_remainder(context, tables, i, j, lcm)
        if remainder:
            insert(_monic(context, remainder), sugar)
        else:
            stats.zero += 1
    stats.peak_basis = len(basis)
    return GroebnerBasis(tuple(basis), reduced=False, stats=stats)


def _lead_key(p: Polynomial) -> int:
    """The key of p's leading monomial: the smallest key is the highest lead."""
    return p.context._key(p.terms[0].monomial)


def minimalize(basis: GroebnerBasis) -> GroebnerBasis:
    """Drop elements whose leading monomial another element's divides."""
    ranked = sorted(basis.elements, key=_lead_key, reverse=True)
    kept: list[Polynomial] = []
    for g in ranked:
        lm = g.terms[0].monomial
        if any(_divides(h.terms[0].monomial, lm) for h in kept):
            continue
        kept.append(g)
    kept.reverse()  # smallest key first: the kept leads are distinct
    return GroebnerBasis(tuple(kept), reduced=False, stats=basis.stats)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Minimalize, then reduce each element against the smaller ones and scale it monic.

    Elements are taken smallest leading monomial first.  A tail monomial is
    below its element's leading monomial, so no larger leading monomial divides
    it: reducing against the elements already reduced is enough, in one pass.
    Only the monic remainder is kept, so the multiplier of the fraction-free
    reduction over Q is not needed.
    """
    elements: list[Polynomial] = []
    tables: list[tuple] = []
    for g in reversed(minimalize(basis).elements):
        context = g.context
        remainder, _ = _reduce(_work(context, _keyed(g))[0], tables, context._masks)
        if not remainder:
            raise ValueError("minimal basis element reduced to zero")
        reduced = _monic(context, remainder)
        elements.append(reduced)
        tables.append(_table(reduced))
    elements.reverse()
    return GroebnerBasis(tuple(elements), reduced=True, stats=basis.stats)


def _in_context(polys: Iterable[Polynomial], context: VarContext) -> list[Polynomial]:
    """The polynomials with their terms sorted again in a context of another term order."""
    return [
        Polynomial._make(context, _terms(context._sorted({m: c for c, m in g.terms})))
        for g in polys
    ]


def _zero_dimensional(basis: GroebnerBasis) -> bool:
    """True when the leading monomials hold a pure power of every variable, or 1."""
    powers = set()
    for g in basis:
        support = [i for i, e in enumerate(g.terms[0].monomial) if e]
        if not support:
            return True
        if len(support) == 1:
            powers.add(support[0])
    return len(powers) == len(basis.context.variables)


def _eliminate(rows: list[tuple], vector: dict, combination: dict) -> dict | None:
    """Eliminate a sparse vector against the rows, consuming it and its combination.

    The combination records which multiple of the inputs the vector is.  A row
    is (pivot, lead, row, its combination), zero at earlier rows' pivots, with
    lead its entry at the pivot.  Over Q the vector and combination hold
    integers and a row is primitive: the gcd of its entries and its
    combination's is 1.  Before an entry c is eliminated by a row of lead l,
    the vector and its combination are multiplied by l // gcd(c, l), and
    after each row step their content is divided out, which keeps the
    integers from growing with the number of rows.  Over Q(params) rows keep
    their pivot entry; a step divides one entry, c by l, and subtracts c / l
    times the row and its combination, so the vector's combination is never
    scaled.  A vanishing vector returns its combination, a relation, up to a
    nonzero constant over Q; any other joins the rows, with its first entry
    as the pivot.
    """
    for pivot, lead, row, combo in rows:
        c = vector.get(pivot)
        if c is None:
            continue
        if lead != 1:
            if type(c) is int:
                common = math.gcd(c, lead)
                m = lead // common
                if m != 1:
                    vector = {k: v * m for k, v in vector.items()}
                    combination = {k: v * m for k, v in combination.items()}
                c //= common
            else:
                c = c / lead
        _collect(((k, -c * v) for k, v in row.items()), vector)
        _collect(((k, -c * v) for k, v in combo.items()), combination)
        if type(c) is int:
            vector, combination = _primitive(1, vector, combination)
    if not vector:
        return combination
    pivot, c = next(iter(vector.items()))
    if type(c) is int:
        vector, combination = _primitive(1 if c > 0 else -1, vector, combination)
    rows.append((pivot, vector[pivot], vector, combination))
    return None


def _fglm(basis: GroebnerBasis, context: VarContext) -> GroebnerBasis:
    """The reduced lex basis in context of a zero-dimensional ideal from a reduced basis of it.

    Monomials are taken in increasing lex order, each one a variable times a
    standard monomial found before it, so its normal form is that standard
    monomial's normal form shifted by the variable and reduced once more.
    Normal forms live in division's key space.  Over Q each one is kept as
    (r, d), integers with no common factor whose quotient r / d is the exact
    normal form: the remainder ``_reduce`` returns for the shifted r, and the
    multiplier times the parent's d, with their content divided out
    (``division._primitive``).  Over Q(params) r is the normal form itself
    and d is 1.  Each r is eliminated against the rows kept so far
    (``_eliminate``), recording the combination of monomials it came from,
    which starts as d times the current one.  If it vanishes, that
    combination, keyed by the lex context and made monic by
    ``division._monic`` with its reducer table, is an element of the reduced
    lex basis whose leading monomial is the current one, and no multiple of
    it is taken later; otherwise it joins the rows and the monomial is
    standard.  The walk ends because the quotient ring has finite dimension.
    """
    order = basis.context
    tables = [_table(g) for g in basis]
    masks, key, lex = order._masks, order._key, context._key
    n = len(context.variables)
    steps = [key(tuple(int(i == j) for j in range(n))) for i in range(n)]
    one = context.coefficient(1) if context.parameters else 1
    normal: dict[tuple[int, ...], tuple] = {}  # standard monomial -> (r, d), normal form r / d
    rows: list[tuple] = []
    leads: list[tuple[int, ...]] = []
    elements: list[Polynomial] = []
    queue = [((0,) * n, None, 0)]  # (monomial, the standard monomial it extends, variable)
    while queue:
        monomial, parent, i = heapq.heappop(queue)
        if monomial in normal or any(_divides(lead, monomial) for lead in leads):
            continue
        if parent is None:
            work, d = {key(monomial): one}, one
        else:
            form, d = normal[parent]
            work = {k + steps[i]: c for k, c in form.items()}
        remainder, multiplier = _reduce(work, tables, masks)
        form, combination = dict(remainder), {monomial: d}
        if multiplier != 1 or d != 1:
            form, combination = _primitive(1, form, {monomial: d * multiplier})
            d = combination[monomial]
        relation = _eliminate(rows, dict(form), combination)
        if relation is None:
            normal[monomial] = form, d
            for v in range(n):
                step = monomial[:v] + (monomial[v] + 1,) + monomial[v + 1:]
                heapq.heappush(queue, (step, monomial, v))
        else:
            leads.append(monomial)
            elements.append(_monic(context, sorted((lex(m), c) for m, c in relation.items())))
    elements.reverse()
    return GroebnerBasis(tuple(elements), reduced=True, stats=basis.stats)


def _completed(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """The Groebner basis that ``reduced_basis`` finishes: its last step not yet taken.

    With at least as many nonzero generators as variables, the reduced
    graded reverse lex basis, in a ``_Grevlex`` context; otherwise the lex
    pair loop's output, unreduced.  Normal forms modulo either are the
    unique ones of its order, which is all plane detection needs.
    """
    generators = _nonzero(generators)
    if generators and len(generators) >= len(generators[0].context.variables):
        context = generators[0].context
        grevlex = _Grevlex(context.variables, context.parameters)
        return reduce_basis(buchberger(_in_context(generators, grevlex)))
    return buchberger(generators)


def reduced_basis(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """The reduced lex basis of the ideal the generators span.

    Buchberger, minimalize and reduce.  With at least as many generators as
    variables, the reduced graded reverse lex basis comes first
    (``_completed``): FGLM converts it when the ideal is zero-dimensional,
    and otherwise it seeds the lex pair loop in place of the generators (see
    the module docstring).  Either way the basis is the same.
    """
    generators = _nonzero(generators)
    basis = _completed(generators)
    if not basis.reduced:
        return reduce_basis(basis)
    context = generators[0].context
    if _zero_dimensional(basis):
        return _fglm(basis, context)
    return reduce_basis(buchberger(_in_context(basis, context)))


def is_groebner(generators: Iterable[Polynomial]) -> bool:
    """Buchberger criterion: every S-polynomial has normal form zero; one context."""
    polys = _nonzero(generators)
    tables = [_table(g) for g in polys]
    leads = [g.terms[0].monomial for g in polys]
    for j in range(len(polys)):
        for i in range(j):
            if not any(map(min, leads[i], leads[j])):
                continue
            if _s_remainder(polys[i].context, tables, i, j, tuple(map(max, leads[i], leads[j]))):
                return False
    return True

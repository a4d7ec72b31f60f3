"""Multivariate division with remainder.

The division loop always eliminates the current leading term: if some
divisor's leading monomial divides it, the first such divisor in list order is
used; otherwise the leading term moves to the remainder.  The remainder is
therefore pure, meaning none of its monomials is divisible by any divisor's
leading monomial, and f = sum(quotient_i * divisor_i) + remainder holds
exactly.

The dividend is reduced in place: a ``{key: coefficient}`` dict holds its
terms and a heap holds their keys, where a term's key is one int, its
context's key (``VarContext._key``): a linear map of the exponents whose
smallest key is the highest term, so a tail product's key is a sum.  A term
that cancels leaves its key in the heap; the stale entry is skipped when it
comes up.  Public contexts are lex; the same loop serves the graded reverse
lex context of ``groebner``'s zero-dimensional route, and
``groebner.buchberger`` fills the work dict with an S-polynomial directly.

The low bits of a key pack the exponents into fields of ``_WIDTH`` bits
whose top bit, the guard bit, is clear, so one subtraction and one mask
decide divisibility (``_reduce``).  Exponents stay below
``VarContext._LIMIT`` = 2 ** (_WIDTH - 1): ``_key`` refuses larger ones, and
the kernel catches a product that reaches the limit.  Every key that enters
a work dict is a checked key plus a checked offset: a tail term's key minus
its lead's, added to the key of a term that lead divides, or FGLM's step by
one variable.  So every field of a product stays below 2 ** _WIDTH and never
carries into the next one, an exponent over the limit always sets its guard
bit, and the kernel, which tests the guard bits of each term it takes,
raises ``ValueError`` naming the limit.  The map is one to one on such
fields, so an overflowed term can never merge with a valid one.

Over Q the reduction is fraction-free (Becker and Weispfenning, *Groebner
Bases*, 1993): the work dict holds the integers of d * f for the least common
denominator d of f's coefficients (``_work``), and each divisor is used as
its primitive integer multiple, with a positive integer lead l.  Before a
term with coefficient c is eliminated, the work dict, the remainder so far
and the quotients so far are multiplied by l // gcd(c, l), so the
elimination is exact over Z; ``_reduce`` returns the product of those
factors with the remainder.  Over Q(params) the work dict holds the field
elements themselves, each divisor's tail is divided by its leading
coefficient once, l is 1, and nothing is ever multiplied.  Either way the
exact remainder is the returned one divided by d times the multiplier
(``_divided``).

Division is also the one place where the kernel's numbers become reducer
tables, primitive vectors and polynomials.  One builder (``_tabulate``)
makes a reducer table from (key, coefficient) pairs listed highest term
first: integers over Q, field elements over Q(params).  A divisor's table
is built from its terms on its first use as a divisor and kept on the
polynomial (``_table``).  A remainder that the pair loop, ``reduce_basis``
or FGLM keeps is made monic from the table of the kernel's own pairs and
carries it (``_monic``), so its table is never rebuilt from its
``Fraction``s.  Over Q one content step (``_primitive``) divides integer
vectors by the gcd of their entries: a table's multiple, FGLM's normal
forms and the rows of ``groebner._eliminate``.  ``normal_form`` and
``multivariate_divide`` share one call into the kernel (``_divide``);
``normal_form`` records no quotients.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .polynomials import Polynomial, Term, VarContext


@dataclass(frozen=True)
class DivisionResult:
    """Quotients and remainder of one division, with the divisors used."""

    quotients: tuple[Polynomial, ...]
    remainder: Polynomial
    divisors: tuple[Polynomial, ...]

    def reconstruct(self) -> Polynomial:
        total = self.remainder
        for q, g in zip(self.quotients, self.divisors):
            total = total + q * g
        return total


def _primitive(sign: int, *vectors: dict) -> tuple[dict, ...]:
    """The integer vectors divided by sign times the gcd of all their entries.

    sign is 1 or -1.  This is the one content step over Q: of a reducer
    table (``_tabulate``), of FGLM's normal forms and of the rows of
    ``groebner._eliminate``.
    """
    content = 0
    for vector in vectors:
        content = math.gcd(content, *vector.values())
    content *= sign
    if content in (0, 1):
        return vectors
    return tuple({k: c // content for k, c in vector.items()} for vector in vectors)


def _tabulate(context, pairs: Sequence[tuple]) -> tuple:
    """The reducer table of the nonzero (key, coefficient) pairs listed highest term first.

    The table is (divisibility bound, lead l, tail) of a multiple of their
    polynomial with lead l.  Over Q the coefficients are integers, and the
    multiple is their primitive vector with a positive lead; over Q(params)
    they are field elements, the multiple is monic and l is 1.  The bound is
    R(lead), the lead's packed exponents.  The tail holds
    (key(m) - key(lead), coefficient) for each tail term m: a tail product's
    key is then the key of the term being eliminated plus that offset, and
    the leading term is never multiplied out, since it cancels exactly.
    """
    if context.parameters:
        (lead_key, lc), *tail = pairs
        lead = 1
        if lc != 1:
            inverse = 1 / lc
            tail = [(k, c * inverse) for k, c in tail]
    else:
        (vector,) = _primitive(1 if pairs[0][1] > 0 else -1, dict(pairs))
        (lead_key, lead), *tail = vector.items()
    return lead_key & context._masks[0], lead, tuple((k - lead_key, c) for k, c in tail)


def _table(g: Polynomial) -> tuple:
    """g's reducer table (``_tabulate``), built on first use and kept on g."""
    table = g._table
    if table is None:
        context = g.context
        work, _ = _work(context, _keyed(g))
        table = g._table = _tabulate(context, list(work.items()))
    return table


def _reduce(work: dict, tables: Sequence[tuple], masks, quotients=None) -> tuple[list[tuple], int]:
    """Reduce the ``{key: coefficient}`` dict work, consuming it; returns (remainder, multiplier).

    The remainder is a list of (key, coefficient), highest term first, of
    multiplier times the work dict's value modulo the divisors.  With
    quotients, the (key, factor) of each elimination by divisor i goes to
    quotients[i], on the same scale: multiplier * work = sum of quotient_i
    times divisor i's table multiple, plus the remainder.

    masks is the context's (mask, guard): ``key & mask`` is a term's packed
    exponents d, and guard holds each field's top bit.  A set guard bit in d
    is an exponent over the limit, and raises.  Otherwise the fields of
    d | guard minus a divisor's bound never borrow from each other, and
    every guard bit survives exactly when the divisor's lead divides the
    term.
    """
    mask, guard = masks
    heap = list(work)
    heapq.heapify(heap)
    remainder = []
    multiplier = 1
    while heap:
        key = heapq.heappop(heap)
        coeff = work.pop(key, None)
        if coeff is None:
            continue
        d = key & mask
        if d & guard:
            raise ValueError(f"exponent over the limit {VarContext._LIMIT - 1}")
        d |= guard
        for i, (bound, lead, tail) in enumerate(tables):
            if (d - bound) & guard == guard:  # the leading monomial divides this one
                if lead != 1:
                    common = math.gcd(coeff, lead)
                    if common != lead:
                        # scale everything so that lead divides this term's coefficient
                        m = lead // common
                        multiplier *= m
                        work = {k: c * m for k, c in work.items()}
                        remainder = [(k, c * m) for k, c in remainder]
                        if quotients is not None:
                            quotients[:] = [[(k, c * m) for k, c in q] for q in quotients]
                    coeff //= common
                if quotients is not None:
                    quotients[i].append((key, coeff))
                factor = -coeff
                for offset, c in tail:
                    k = key + offset
                    prev = work.get(k)
                    if prev is None:
                        work[k] = factor * c
                        heapq.heappush(heap, k)
                    else:
                        total = prev + factor * c
                        if total:
                            work[k] = total
                        else:
                            del work[k]
                break
        else:
            remainder.append((key, coeff))
    return remainder, multiplier


def _work(context, items: Iterable[tuple]) -> tuple[dict, int]:
    """(work, d): the work dict of d times the (key, coefficient) items, for an integer d.

    Over Q d is the least common denominator of the coefficients, so the
    work dict holds integers; over Q(params) d is 1.
    """
    if context.parameters:
        return dict(items), 1
    items = list(items)
    d = math.lcm(*(c.denominator for _, c in items))
    return {k: c.numerator * (d // c.denominator) for k, c in items}, d


def _divided(context, pairs, d) -> Iterable[tuple]:
    """The (key, coefficient / d) pairs: the exact values of a reduction's output.

    Over Q the coefficients are integers and d is an integer or a rational;
    over Q(params) both are field elements.
    """
    if not context.parameters:
        return [(k, Fraction(c, d)) for k, c in pairs]
    if d == 1:
        return pairs
    inverse = 1 / d
    return [(k, c * inverse) for k, c in pairs]


def _polynomial(context, pairs) -> Polynomial:
    """The polynomial of (key, coefficient) pairs listed highest term first."""
    monomial = context._monomial
    return Polynomial._make(context, tuple(Term(c, monomial(k)) for k, c in pairs))


def _monic(context, pairs) -> Polynomial:
    """The monic polynomial of nonzero (key, coefficient) pairs listed highest term first.

    It is read off the pairs' reducer table (``_tabulate``): its tail is the
    table's tail divided by the table's lead l.  It carries that table, which
    is the one its own terms give, so no table is built again from its
    ``Fraction``s.
    """
    table = _tabulate(context, pairs)
    _, lead, tail = table
    lead_key = pairs[0][0]
    shifted = _divided(context, [(lead_key + offset, c) for offset, c in tail], lead)
    monic = _polynomial(context, [(lead_key, context.coefficient(1)), *shifted])
    monic._table = table
    return monic


def _keyed(f: Polynomial):
    """f's terms as (key, coefficient)."""
    key = f.context._key
    return ((key(m), c) for c, m in f.terms)


def _divide(f: Polynomial, divisors: Sequence[Polynomial], quotients=None) -> tuple:
    """(tables, remainder, d): f divided by the divisors, through their reducer tables.

    Raises on a zero divisor or another context.  The remainder is exact;
    quotients, if given, are recorded on the kernel's scale, d times the
    exact ones up to each divisor's table multiple (see ``_reduce``).
    """
    context = f.context
    tables = []
    for g in divisors:
        f._check(g)
        if not g:
            raise ValueError("zero divisor")
        tables.append(_table(g))
    work, d = _work(context, _keyed(f))
    remainder, multiplier = _reduce(work, tables, context._masks, quotients)
    d *= multiplier
    return tables, _polynomial(context, _divided(context, remainder, d)), d


def multivariate_divide(f: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Divide f by an ordered list of divisors; ties go to the first divisor."""
    divisors = tuple(divisors)
    if not divisors:
        raise ValueError("at least one divisor is required")
    quotients: list[list[tuple]] = [[] for _ in divisors]
    tables, remainder, d = _divide(f, divisors, quotients)
    # Divisor g entered as l / lc(g) times g, so its quotient is the recorded one
    # times l / lc(g) / d.  A quotient term's key is the eliminated term's key
    # minus g's lead key.
    context = f.context
    key = context._key
    exact = []
    for q, g, (_, lead, _) in zip(quotients, divisors, tables):
        lead_key = key(g.terms[0].monomial)
        shifted = ((k - lead_key, c) for k, c in q)
        scale = g.terms[0].coefficient * Fraction(d, lead)
        exact.append(_polynomial(context, _divided(context, shifted, scale)))
    return DivisionResult(quotients=tuple(exact), remainder=remainder, divisors=divisors)


def normal_form(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Remainder of f on division by the given polynomials."""
    elements = tuple(basis)
    if not elements:
        return f
    return _divide(f, elements)[1]

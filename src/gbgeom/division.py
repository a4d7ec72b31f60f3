"""Multivariate division with remainder.

The division loop always eliminates the current leading term: if some
divisor's leading monomial divides it, the first such divisor in list order is
used; otherwise the leading term moves to the remainder.  The remainder is
therefore pure, meaning none of its monomials is divisible by any divisor's
leading monomial, and f = sum(quotient_i * divisor_i) + remainder holds
exactly.

The dividend is reduced in place: a ``{key: coefficient}`` dict holds its
terms and a heap holds their keys, where a term's key is its context's heap
key (``VarContext._key``): the negated exponent tuple under lex, so the
smallest key is the highest term.  A term that cancels leaves its key in the
heap; the stale entry is skipped when it comes up.  Public contexts are lex;
the same loop serves the graded reverse lex context of ``groebner``'s
zero-dimensional route, and ``groebner.buchberger`` fills the work dict with
an S-polynomial directly.

Each divisor's reducer table is built once, on its first use as a divisor,
and kept on the polynomial (``_table``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, sub
from typing import Iterable, Sequence

from .polynomials import Polynomial, Term


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


def _table(g: Polynomial) -> tuple:
    """g's reducer table: (divisibility bound, inverse leading coefficient, tail).

    The inverse is None when g is monic.  The tail holds (key(m) - key(lead),
    coefficient) for each tail term m: a tail product's key is then the key
    of the term being eliminated plus that offset, and the leading term is
    never multiplied out, since it cancels exactly.
    """
    table = g._table
    if table is None:
        context = g.context
        key = context._key
        lead, lead_key = g.terms[0], key(g.terms[0].monomial)
        tail = tuple((tuple(map(sub, key(m), lead_key)), c) for c, m in g.terms[1:])
        inverse = None if lead.coefficient == 1 else 1 / lead.coefficient
        table = g._table = (context._bound(lead.monomial), inverse, tail)
    return table


def _tables(f: Polynomial, divisors: Sequence[Polynomial]) -> list[tuple]:
    """The divisors' reducer tables; raises on a zero divisor or another context."""
    tables = []
    for g in divisors:
        f._check(g)
        if not g:
            raise ValueError("zero divisor")
        tables.append(_table(g))
    return tables


def _reduce(work: dict, tables: Sequence[tuple], covers, quotients=None) -> list[tuple]:
    """Reduce the ``{key: coefficient}`` dict work in place; returns the remainder.

    The remainder is a list of (key, coefficient), highest term first.  With
    quotients, the (key, factor) of each elimination by divisor i goes to
    quotients[i].  covers is the context's ``_covers``.
    """
    heap = list(work)
    heapq.heapify(heap)
    remainder = []
    while heap:
        key = heapq.heappop(heap)
        coeff = work.pop(key, None)
        if coeff is None:
            continue
        for i, (bound, inverse, tail) in enumerate(tables):
            if all(map(covers, key, bound)):  # the leading monomial divides this one
                if inverse is not None:
                    coeff = coeff * inverse
                if quotients is not None:
                    quotients[i].append((key, coeff))
                factor = -coeff
                for offset, c in tail:
                    k = tuple(map(add, key, offset))
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
    return remainder


def _polynomial(context, pairs) -> Polynomial:
    """The polynomial of (key, coefficient) pairs listed highest term first."""
    monomial = context._monomial
    return Polynomial._make(context, tuple(Term(c, monomial(k)) for k, c in pairs))


def _work(f: Polynomial) -> dict:
    key = f.context._key
    return {key(m): c for c, m in f.terms}


def multivariate_divide(f: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Divide f by an ordered list of divisors; ties go to the first divisor."""
    divisors = tuple(divisors)
    if not divisors:
        raise ValueError("at least one divisor is required")
    context = f.context
    quotients: list[list[tuple]] = [[] for _ in divisors]
    remainder = _reduce(_work(f), _tables(f, divisors), context._covers, quotients)
    # A quotient term's key is the eliminated term's key minus the divisor's lead key.
    key = context._key
    lead_keys = [key(g.terms[0].monomial) for g in divisors]
    return DivisionResult(
        quotients=tuple(
            _polynomial(context, ((tuple(map(sub, k, lead)), c) for k, c in q))
            for q, lead in zip(quotients, lead_keys)
        ),
        remainder=_polynomial(context, remainder),
        divisors=divisors,
    )


def normal_form(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Remainder of f on division by the given polynomials."""
    elements = tuple(basis)
    if not elements:
        return f
    context = f.context
    return _polynomial(context, _reduce(_work(f), _tables(f, elements), context._covers))

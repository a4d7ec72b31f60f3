"""Multivariate division with remainder.

The division loop always eliminates the current leading term: if some
divisor's leading monomial divides it, the first such divisor in list order is
used; otherwise the leading term moves to the remainder.  The remainder is
therefore pure, meaning none of its monomials is divisible by any divisor's
leading monomial, and f = sum(quotient_i * divisor_i) + remainder holds
exactly.

The dividend is reduced in place: a ``{key: coefficient}`` dict holds its
terms and a heap holds their keys, where a term's key is its exponent tuple
negated, so the smallest key is the lex-largest term.  A term that cancels
leaves its key in the heap; the stale entry is skipped when it comes up.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add, le, sub
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


def _negated(exponents: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-e for e in exponents)


def _reduce(
    f: Polynomial, divisors: tuple[Polynomial, ...], quotients: list[list[Term]] | None
) -> Polynomial:
    """Remainder of f on division by divisors; quotient terms go to quotients if given."""
    # Per divisor: the negated leading monomial, the inverse leading coefficient
    # and the tail terms as (lead - tail exponents, coefficient).  The leading
    # term is never multiplied out: it cancels exactly.  With quotient exponents
    # -key - lead, a tail product's key is key + (lead - tail).
    reducers = []
    for g in divisors:
        f._check(g)
        if not g:
            raise ValueError("zero divisor")
        lead = g.terms[0].monomial
        tail = [(tuple(map(sub, lead, m)), c) for c, m in g.terms[1:]]
        reducers.append((_negated(lead), 1 / g.terms[0].coefficient, tail))
    work = {_negated(m): c for c, m in f.terms}
    heap = list(work)
    heapq.heapify(heap)
    remainder: list[Term] = []
    while heap:
        key = heapq.heappop(heap)
        coeff = work.pop(key, None)
        if coeff is None:
            continue
        for i, (bound, inverse, tail) in enumerate(reducers):
            if all(map(le, key, bound)):  # the leading monomial divides this one
                factor = coeff * inverse
                if quotients is not None:
                    quotients[i].append(Term(factor, tuple(map(add, _negated(key), bound))))
                factor = -factor
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
            remainder.append(Term(coeff, _negated(key)))
    return Polynomial._make(f.context, tuple(remainder))


def multivariate_divide(f: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Divide f by an ordered list of divisors; ties go to the first divisor."""
    divisors = tuple(divisors)
    if not divisors:
        raise ValueError("at least one divisor is required")
    quotients: list[list[Term]] = [[] for _ in divisors]
    remainder = _reduce(f, divisors, quotients)
    return DivisionResult(
        quotients=tuple(Polynomial._make(f.context, tuple(q)) for q in quotients),
        remainder=remainder,
        divisors=divisors,
    )


def normal_form(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Remainder of f on division by the given polynomials."""
    elements = tuple(basis)
    if not elements:
        return f
    return _reduce(f, elements, None)

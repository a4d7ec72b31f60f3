"""Multivariate division with remainder.

The division loop always eliminates the current leading term: if some
divisor's leading monomial divides it, the first such divisor in list order is
used; otherwise the leading term moves to the remainder.  The remainder is
therefore pure, meaning none of its monomials is divisible by any divisor's
leading monomial, and f = sum(quotient_i * divisor_i) + remainder holds
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .coefficients import ParamFraction, _scale
from .polynomials import Monomial, Polynomial, Term, _terms


def _mul_term(p: Polynomial, coeff: ParamFraction, mono: Monomial) -> Polynomial:
    """p scaled by a single term; term order is preserved."""
    return Polynomial._make(p.context, _terms(_scale(p._pairs(), coeff, mono.exponents)))


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


def multivariate_divide(f: Polynomial, divisors: Sequence[Polynomial]) -> DivisionResult:
    """Divide f by an ordered list of divisors; ties go to the first divisor."""
    divisors = tuple(divisors)
    if not divisors:
        raise ValueError("at least one divisor is required")
    leads = []
    for g in divisors:
        f._check(g)
        if not g:
            raise ValueError("zero divisor")
        leads.append((g.terms[0].monomial, g.terms[0].coefficient))
    quotients: list[list[Term]] = [[] for _ in divisors]
    remainder: list[Term] = []
    p = f
    while p:
        lc, lm = p.terms[0].coefficient, p.terms[0].monomial
        for i, (glm, glc) in enumerate(leads):
            if glm.divides(lm):
                t = Term(lc / glc, lm.quotient(glm))
                quotients[i].append(t)
                p = p - _mul_term(divisors[i], t.coefficient, t.monomial)
                break
        else:
            remainder.append(p.terms[0])
            p = Polynomial._make(p.context, p.terms[1:])
    ctx = f.context
    return DivisionResult(
        quotients=tuple(Polynomial._make(ctx, tuple(q)) for q in quotients),
        remainder=Polynomial._make(ctx, tuple(remainder)),
        divisors=divisors,
    )


def normal_form(f: Polynomial, basis: Iterable[Polynomial]) -> Polynomial:
    """Remainder of f on division by the given polynomials."""
    elements = tuple(basis)
    if not elements:
        return f
    return multivariate_divide(f, elements).remainder

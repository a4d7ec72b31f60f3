"""Groebner bases via Buchberger's algorithm.

The pair queue is a heap keyed by (degree of the leading-monomial lcm, pair
indices), so runs are deterministic for a given generator list.  Pairs with
coprime leading monomials reduce to zero automatically and are skipped by
default; the flag exists so the pruning itself can be tested.

``reduce_basis`` produces THE reduced basis: monic elements, no monomial of
any element divisible by another element's leading monomial, sorted descending
by leading monomial.  It is unique for a given ideal, which is what makes
reduced bases usable as canonical forms.  The order is always lex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .coefficients import Coefficient, _scale
from .division import normal_form
from .polynomials import Monomial, Polynomial, VarContext, _terms, monomial_gcd, monomial_lcm


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis together with its reduction status."""

    elements: tuple[Polynomial, ...]
    reduced: bool = False

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def context(self) -> VarContext:
        if not self.elements:
            raise ValueError("empty basis has no context")
        return self.elements[0].context


def _mul_term(p: Polynomial, coeff: Coefficient, mono: Monomial) -> Polynomial:
    """p scaled by a single term; term order is preserved."""
    return Polynomial._make(p.context, _terms(_scale(p._pairs(), coeff, mono.exponents)))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial: both leading terms scaled to the lcm and subtracted."""
    f._check(g)
    if not f or not g:
        raise ValueError("s-polynomial of a zero polynomial")
    lf, lg = f.terms[0], g.terms[0]
    lcm = monomial_lcm(lf.monomial, lg.monomial)
    left = _mul_term(f, 1 / lf.coefficient, lcm.quotient(lf.monomial))
    right = _mul_term(g, 1 / lg.coefficient, lcm.quotient(lg.monomial))
    return left - right


def _nonzero(generators: Iterable[Polynomial]) -> list[Polynomial]:
    """The nonzero generators; raises unless all share the first one's context."""
    generators = tuple(generators)
    if any(g.context != generators[0].context for g in generators):
        raise ValueError("generator from a different context")
    return [g for g in generators if g]


def buchberger(
    generators: Iterable[Polynomial], use_coprime_criterion: bool = True
) -> GroebnerBasis:
    """Complete the generators to a (generally unreduced) Groebner basis.

    Every generator must share the first one's context.  The returned basis
    contains every nonzero generator.  A zero ideal yields an empty basis.
    """
    basis = _nonzero(generators)
    if not basis:
        return GroebnerBasis((), reduced=False)
    pairs: list[tuple[int, int, int]] = []
    for j in range(len(basis)):
        for i in range(j):
            lcm = monomial_lcm(basis[i].terms[0].monomial, basis[j].terms[0].monomial)
            heapq.heappush(pairs, (lcm.degree, i, j))
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lm_i = basis[i].terms[0].monomial
        lm_j = basis[j].terms[0].monomial
        if use_coprime_criterion and monomial_gcd(lm_i, lm_j).is_one():
            continue
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            basis.append(remainder)
            k = len(basis) - 1
            for i2 in range(k):
                lcm = monomial_lcm(basis[i2].terms[0].monomial, remainder.terms[0].monomial)
                heapq.heappush(pairs, (lcm.degree, i2, k))
    return GroebnerBasis(tuple(basis), reduced=False)


def _lead_key(p: Polynomial) -> tuple[int, ...]:
    return p.terms[0].monomial.exponents


def minimalize(basis: GroebnerBasis) -> GroebnerBasis:
    """Drop elements whose leading monomial another element's divides."""
    ranked = sorted(basis.elements, key=_lead_key)
    kept: list[Polynomial] = []
    for g in ranked:
        lm = g.terms[0].monomial
        if any(h.terms[0].monomial.divides(lm) for h in kept):
            continue
        kept.append(g)
    kept.sort(key=_lead_key, reverse=True)
    return GroebnerBasis(tuple(kept), reduced=False)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Minimalize, then autoreduce every element and scale it monic."""
    minimal = minimalize(basis)
    elements = [g.monic() for g in minimal.elements]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(elements):
            others = elements[:i] + elements[i + 1:]
            if not others:
                continue
            reduced = normal_form(g, others).monic()
            if reduced != g:
                if not reduced:
                    raise ValueError("minimal basis element reduced to zero")
                elements[i] = reduced
                changed = True
    elements.sort(key=_lead_key, reverse=True)
    return GroebnerBasis(tuple(elements), reduced=True)


def reduced_basis(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Buchberger, minimalize and reduce in one step."""
    return reduce_basis(buchberger(generators))


def is_groebner(generators: Iterable[Polynomial]) -> bool:
    """Buchberger criterion: every S-polynomial has normal form zero; one context."""
    polys = _nonzero(generators)
    for j in range(len(polys)):
        for i in range(j):
            lm_i = polys[i].terms[0].monomial
            lm_j = polys[j].terms[0].monomial
            if monomial_gcd(lm_i, lm_j).is_one():
                continue
            if normal_form(s_polynomial(polys[i], polys[j]), polys):
                return False
    return True

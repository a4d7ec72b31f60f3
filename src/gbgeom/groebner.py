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
sugar of its pair.  Each S-polynomial is reduced against the whole basis in
insertion order, and a nonzero remainder is made monic before it joins.

``reduce_basis`` produces THE reduced basis: monic elements, no monomial of
any element divisible by another element's leading monomial, sorted descending
by leading monomial.  It is unique for a given ideal, which is what makes
reduced bases usable as canonical forms.  The order is always lex.

A monomial is an exponent tuple: an lcm is ``map(max, ...)``, two monomials
are coprime when ``map(min, ...)`` is all zero, and ``_divides`` is
``map(le, ...)``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import le, sub
from typing import Iterable

from .coefficients import _collect, _lex_sorted, _scale
from .division import normal_form
from .polynomials import Polynomial, VarContext, _terms


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
    """A Groebner basis together with its reduction status and run statistics."""

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
    lf, lg = f.terms[0], g.terms[0]
    lcm = tuple(map(max, lf.monomial, lg.monomial))
    left = _scale(f._pairs(), 1 / lf.coefficient, tuple(map(sub, lcm, lf.monomial)))
    right = _scale(g._pairs(), -1 / lg.coefficient, tuple(map(sub, lcm, lg.monomial)))
    return Polynomial._make(f.context, _terms(_lex_sorted(_collect(left + right, {}))))


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
        if live.pop((i, j), None) is None:
            continue
        stats.reduced += 1
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder:
            insert(remainder.monic(), sugar)
        else:
            stats.zero += 1
    stats.peak_basis = len(basis)
    return GroebnerBasis(tuple(basis), reduced=False, stats=stats)


def _lead_key(p: Polynomial) -> tuple[int, ...]:
    return p.terms[0].monomial


def minimalize(basis: GroebnerBasis) -> GroebnerBasis:
    """Drop elements whose leading monomial another element's divides."""
    ranked = sorted(basis.elements, key=_lead_key)
    kept: list[Polynomial] = []
    for g in ranked:
        lm = g.terms[0].monomial
        if any(_divides(h.terms[0].monomial, lm) for h in kept):
            continue
        kept.append(g)
    kept.sort(key=_lead_key, reverse=True)
    return GroebnerBasis(tuple(kept), reduced=False, stats=basis.stats)


def reduce_basis(basis: GroebnerBasis) -> GroebnerBasis:
    """Minimalize, then reduce each element against the smaller ones and scale it monic.

    Elements are taken smallest leading monomial first.  A tail monomial is
    below its element's leading monomial, so no larger leading monomial divides
    it: reducing against the elements already reduced is enough, in one pass.
    """
    elements: list[Polynomial] = []
    for g in reversed(minimalize(basis).elements):
        reduced = normal_form(g, elements).monic()
        if not reduced:
            raise ValueError("minimal basis element reduced to zero")
        elements.append(reduced)
    elements.reverse()
    return GroebnerBasis(tuple(elements), reduced=True, stats=basis.stats)


def reduced_basis(generators: Iterable[Polynomial]) -> GroebnerBasis:
    """Buchberger, minimalize and reduce in one step."""
    return reduce_basis(buchberger(generators))


def is_groebner(generators: Iterable[Polynomial]) -> bool:
    """Buchberger criterion: every S-polynomial has normal form zero; one context."""
    polys = _nonzero(generators)
    for j in range(len(polys)):
        for i in range(j):
            if not any(map(min, polys[i].terms[0].monomial, polys[j].terms[0].monomial)):
                continue
            if normal_form(s_polynomial(polys[i], polys[j]), polys):
                return False
    return True

"""Deciding which planes contain the variety of an ideal.

Three views of the same question, in increasing strength:

- ``scan_linear``: a reduced Groebner basis containing a degree-1 element
  exhibits a plane directly.
- ``lt_membership``: which variables lie in the leading-term ideal.  When no
  variable after the first does, any single containing plane with a nonzero
  leading-variable coefficient is forced to appear in the reduced basis, so a
  failed scan is conclusive for that shape of plane.
- ``detect_planes``: the complete answer.  A plane A*x + B*y + C*z + D = 0
  contains the variety exactly when the combination of normal forms
  A*NF(x) + B*NF(y) + C*NF(z) + D*NF(1) vanishes.  Eliminating the four
  normal forms in turn, as FGLM does (``groebner._eliminate``), gives one
  relation for each that depends on the ones before it; these span every
  such plane, including the ones a basis scan misses.  The relations do
  not depend on the basis or its order, since a normal form is unique
  modulo any Groebner basis of a fixed order, so the columns are reduced
  against whichever basis the pair loop produced (``groebner._completed``):
  the reduced grevlex basis, or the unreduced lex one; no lex reduction,
  FGLM or seeded lex loop runs.  Each column is reduced by division's
  kernel against that basis's reducer tables, keyed in its own order, so
  over Q the normal forms, the elimination and the relations stay on
  integers, and each plane vector is divided by its lead only at the end;
  the family is built in the generators' lex context.
  ``PlaneFamily.contains`` clears its vectors to integers for the same
  kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coefficients import Coefficient
from .division import _divided, _reduce, _table, _work
from .groebner import GroebnerBasis, _completed, _divides, _eliminate, reduce_basis
from .polynomials import Polynomial, VarContext, coefficient_of


@dataclass(frozen=True)
class LTMembershipReport:
    """Which variables belong to the leading-term ideal of a basis."""

    variables: tuple[str, ...]
    in_lt_ideal: tuple[bool, ...]

    def contains(self, name: str) -> bool:
        return self.in_lt_ideal[self.variables.index(name)]

    def tail_variables_absent(self) -> bool:
        """True when no variable after the first lies in the leading-term ideal."""
        return not any(self.in_lt_ideal[1:])


PlaneCoefficients = tuple[Coefficient, Coefficient, Coefficient, Coefficient]


@dataclass(frozen=True)
class PlaneFamily:
    """All planes containing a variety: an affine family A*x + B*y + C*z + D = 0.

    ``planes`` holds a basis of the coefficient-vector space, each vector
    normalized so its first nonzero entry among (A, B, C) is 1.
    """

    context: VarContext
    planes: tuple[PlaneCoefficients, ...]

    def __len__(self) -> int:
        return len(self.planes)

    def __iter__(self):
        return iter(self.planes)

    def __bool__(self) -> bool:
        return bool(self.planes)

    def as_polynomials(self) -> tuple[Polynomial, ...]:
        out = []
        for coeffs in self.planes:
            p = self.context.zero()
            for name, c in zip(self.context.variables, coeffs[:3]):
                p = p + self.context.variable(name).scale(c)
            out.append(p + self.context.constant(coeffs[3]))
        return tuple(out)

    def contains(self, plane) -> bool:
        """Span membership of a plane, given as 4 coefficients or a linear polynomial.

        Raises ValueError for a polynomial from another context, a coefficient
        tuple of another length, or A = B = C = 0, which is no plane.
        """
        rows: list[tuple] = []
        # a vector that vanishes adds no row: the last one, the target, decides
        for vector in (*self.planes, _plane_vector(self.context, plane)):
            # cleared to integers over Q; its scale does not change the span
            work, _ = _work(self.context, [(i, c) for i, c in enumerate(vector) if c])
            relation = _eliminate(rows, work, {})
        return relation is not None


@dataclass(frozen=True)
class PlaneDetection:
    """Outcome of the complete plane search."""

    status: str  # "planes" | "none" | "empty-variety"
    family: PlaneFamily | None

    def __bool__(self) -> bool:
        return self.status == "planes"


def scan_linear(basis: GroebnerBasis) -> Polynomial | None:
    """First degree-1 element of the reduced basis, if any."""
    if not basis.reduced:
        basis = reduce_basis(basis)
    for g in basis.elements:
        if g.total_degree() == 1:
            return g
    return None


def lt_membership(basis: GroebnerBasis) -> LTMembershipReport:
    """Test each variable for membership in the leading-term ideal."""
    if not basis.reduced:
        basis = reduce_basis(basis)
    context = basis.context if basis.elements else None
    if context is None:
        raise ValueError("membership report needs a nonempty basis")
    leads = [g.terms[0].monomial for g in basis.elements]
    flags = []
    for name in context.variables:
        mono = context.variable(name).terms[0].monomial
        flags.append(any(_divides(lm, mono) for lm in leads))
    return LTMembershipReport(context.variables, tuple(flags))


def detect_planes(generators: Iterable[Polynomial]) -> PlaneDetection:
    """Enumerate every plane containing the variety of the given ideal.

    The normal forms are taken modulo the basis the pair loop completed
    (``groebner._completed``): the reduced grevlex basis, or the unreduced
    lex one.  A ``GroebnerBasis`` passed with ``reduced=True`` is used as
    given.  Raises ValueError unless the first generator's context has
    exactly three variables; no generators give "none".
    """
    given = isinstance(generators, GroebnerBasis) and generators.reduced
    generators = tuple(generators)
    if not generators:
        return PlaneDetection("none", None)
    context = generators[0].context
    if len(context.variables) != 3:
        raise ValueError("plane detection needs exactly three variables")
    basis = generators if given else _completed(generators).elements
    if not basis:
        return PlaneDetection("none", None)
    if any(g.is_constant() for g in basis):
        return PlaneDetection("empty-variety", None)
    # the basis's own order keys its reducer tables, cached by the pair loop
    tables = [_table(g) for g in basis]
    order = basis[0].context
    key, masks = order._key, order._masks
    columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
    zero = context.coefficient(0)
    one = context.coefficient(1) if context.parameters else 1
    rows: list[tuple] = []
    planes = []
    for i, column in enumerate(columns):
        # multiplier times NF(column), on integers over Q
        remainder, multiplier = _reduce({key(column): one}, tables, masks)
        relation = _eliminate(rows, dict(remainder), {i: one * multiplier})
        if relation is None:
            continue
        lead = next((relation[j] for j in range(3) if j in relation), None)
        if lead is None:
            # A = B = C = 0 forces D*1 in the ideal, caught as empty variety above
            raise ValueError("degenerate plane vector")
        plane = dict(_divided(context, relation.items(), lead))
        planes.append(tuple(plane.get(j, zero) for j in range(4)))
    if not planes:
        return PlaneDetection("none", None)
    return PlaneDetection("planes", PlaneFamily(context, tuple(planes)))


def _plane_vector(context: VarContext, plane) -> PlaneCoefficients:
    """(A, B, C, D) of a linear polynomial in context or of four coefficients."""
    if isinstance(plane, Polynomial):
        if plane.context != context:
            raise ValueError("mismatched contexts")
        if plane.total_degree() > 1:
            raise ValueError("not a plane equation")
        nvars = len(context.variables)
        monomials = [tuple(int(j == i) for j in range(nvars)) for i in range(nvars)]
        vector = tuple(coefficient_of(plane, m) for m in (*monomials, (0,) * nvars))
    else:
        vector = tuple(plane)
        if len(vector) != 4:
            raise ValueError(f"a plane has 4 coefficients, not {len(vector)}")
        vector = tuple(context.coefficient(c) for c in vector)
    if not any(vector[:3]):
        raise ValueError("not a plane equation")
    return vector

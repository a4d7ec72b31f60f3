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
  A*NF(x) + B*NF(y) + C*NF(z) + D*NF(1) vanishes, which is a finite linear
  system over the coefficient field; its nullspace enumerates every such
  plane, including the ones a basis scan misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coefficients import Coefficient
from .division import normal_form
from .groebner import GroebnerBasis, _divides, reduce_basis, reduced_basis
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
        """Span membership of a plane, given as 4 coefficients or a linear polynomial."""
        target = _plane_vector(self.context, plane)
        rows = [list(v) for v in self.planes]
        reduced, pivots = _rref(rows)
        vec = list(target)
        for row, pivot in zip(reduced, pivots):
            factor = vec[pivot]
            if factor:
                vec = [v - factor * r for v, r in zip(vec, row)]
        return not any(vec)


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
    """Enumerate every plane containing the variety of the given ideal."""
    if isinstance(generators, GroebnerBasis) and generators.reduced:
        basis = generators
    else:
        basis = reduced_basis(generators)
    if not basis.elements:
        return PlaneDetection("none", None)
    context = basis.context
    if len(context.variables) != 3:
        raise ValueError("plane detection needs exactly three variables")
    if any(g.is_constant() for g in basis.elements):
        return PlaneDetection("empty-variety", None)
    columns = [normal_form(context.variable(name), basis) for name in context.variables]
    columns.append(normal_form(context.one(), basis))
    monomials = sorted({t.monomial for col in columns for t in col.terms}, reverse=True)
    zero = context.coefficient(0)
    lookup = [{t.monomial: t.coefficient for t in col.terms} for col in columns]
    rows = [[table.get(m, zero) for table in lookup] for m in monomials]
    vectors = _nullspace(rows, 4, context)
    if not vectors:
        return PlaneDetection("none", None)
    planes = []
    for vec in vectors:
        lead = next((c for c in vec[:3] if c), None)
        if lead is None:
            # A = B = C = 0 forces D*1 in the ideal, caught as empty variety above
            raise ValueError("degenerate plane vector")
        if lead != 1:
            inv = 1 / lead
            vec = [c * inv for c in vec]
        planes.append(tuple(vec))
    return PlaneDetection("planes", PlaneFamily(context, tuple(planes)))


def _plane_vector(context: VarContext, plane) -> PlaneCoefficients:
    if isinstance(plane, Polynomial):
        if plane.total_degree() > 1:
            raise ValueError("not a plane equation")
        nvars = len(context.variables)
        coeffs = []
        for i in range(nvars):
            mono = tuple(1 if j == i else 0 for j in range(nvars))
            coeffs.append(coefficient_of(plane, mono))
        coeffs.append(coefficient_of(plane, (0,) * nvars))
        return tuple(coeffs)
    return tuple(context.coefficient(c) for c in plane)


def _rref(rows: list[list[Coefficient]]) -> tuple[list[list[Coefficient]], list[int]]:
    """Reduced row echelon form over the exact coefficient field."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [c - factor * p for c, p in zip(row, rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _nullspace(
    rows: list[list[Coefficient]], ncols: int, context: VarContext
) -> list[list[Coefficient]]:
    """Canonical basis of the solution space of rows * v = 0."""
    reduced, pivots = _rref(rows)
    zero = context.coefficient(0)
    one = context.coefficient(1)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for row, pivot in zip(reduced, pivots):
            if row[f]:
                vec[pivot] = -row[f]
        basis.append(vec)
    return basis

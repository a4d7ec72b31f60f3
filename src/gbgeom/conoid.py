"""Case study: an egg-curve conoid and the planarity of its sections.

The surface is the quartic ruled surface

    (a^2 y^2 + d^2 y^2 - a^2 b^2)(z - h)^2 - 2 d h x y^2 (z - h) + b^2 h^2 x^2 = 0

whose directrix in the plane z = 0 is the egg curve
b^2 x^2 + a^2 y^2 + 2 d x y^2 + d^2 y^2 - a^2 b^2 = 0.  This module classifies
its axis-parallel plane sections, and runs the complete analysis showing that
no plane section of the surface is a non-degenerate conic: the candidate
planes surviving the degree-two constraints cut the surface in double lines,
and the remaining branches reduce to the axis-parallel cases.

Each fact of the study is written once.  The surface formula is one list of
summands: ``conoid_surface`` is their sum, and the quintic check multiplies
each by z - h.  Each candidate family's plane (A, B, C, D) is one function of
a, d, h and a free scale; its normalized form (A, B, D)/C is read off it at
scale 1.  One conic analysis builds the constraints and their reduced basis
and verifies the families against both; ``solve_conic_constraints``,
``final_verdict`` and the ``conoid conic-analysis`` command all use it.

Square roots never enter the coefficient field: a line with an irrational
slope is verified by adjoining a fresh lowest-precedence variable s together
with the relation s^2 - delta and reducing modulo that relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coefficients import Coefficient, ParamFraction, _lifted, _rational
from .division import normal_form
from .groebner import GroebnerBasis, reduced_basis
from .polynomials import (
    Polynomial,
    VarContext,
    clear_denominators,
    coefficient_of,
    substitute,
)

AXES = ("x", "y", "z")

SECTION_KINDS = frozenset(
    {"quartic-curve", "cubic-curve", "line-pair", "double-line", "degenerate-locus", "empty"}
)

CONCLUSION = "no plane section is a non-degenerate conic"


@dataclass(frozen=True)
class ConoidParams:
    """Shape parameters: symbolic names or exact positive rationals (ints or Fractions).

    a and b are the egg-curve semi-axes, d the offset of the moving circle
    and h the height of the line directrix.  Numeric values must satisfy
    a > b > 0, 0 < d <= a - b and h > 0.  The symbolic verdict holds where
    b, d, h, a - d, a + d and a^2 + d^2, the parameter polynomials
    ``final_verdict`` divides by, are nonzero, which the numeric hypotheses
    imply (a - d >= b > 0); B and C, which it also divides by, are plane
    coefficients that its own branches split on (C != 0; C = 0, B != 0).
    """

    a: Fraction | str = "a"
    b: Fraction | str = "b"
    d: Fraction | str = "d"
    h: Fraction | str = "h"

    def __post_init__(self):
        for name in ("a", "b", "d", "h"):
            value = getattr(self, name)
            if isinstance(value, str):
                if not value.isidentifier():
                    raise ValueError(f"invalid parameter name: {value!r}")
            else:
                value = _rational(value)
                object.__setattr__(self, name, value)
                if value <= 0:
                    raise ValueError(f"parameter {name} must be positive")
        if self.is_numeric:
            if not self.a > self.b:
                raise ValueError("need a > b > 0")
            if not self.d <= self.a - self.b:
                raise ValueError("need 0 < d <= a - b")

    @classmethod
    def symbolic(cls) -> "ConoidParams":
        return cls()

    @classmethod
    def numeric(cls, a, b, d, h) -> "ConoidParams":
        return cls(*(_rational(v) for v in (a, b, d, h)))

    @property
    def is_numeric(self) -> bool:
        return not any(isinstance(getattr(self, n), str) for n in ("a", "b", "d", "h"))

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(v for v in (self.a, self.b, self.d, self.h) if isinstance(v, str))

    def context(
        self, extra_vars: tuple[str, ...] = (), extra_params: tuple[str, ...] = ()
    ) -> VarContext:
        return VarContext(AXES + tuple(extra_vars), self.parameter_names() + tuple(extra_params))

    def coefficients(self, ctx: VarContext) -> tuple[Coefficient, ...]:
        return tuple(ctx.coefficient(getattr(self, n)) for n in ("a", "b", "d", "h"))


def egg_curve(params: ConoidParams, ctx: VarContext | None = None) -> Polynomial:
    """The directrix b^2 x^2 + a^2 y^2 + 2 d x y^2 + d^2 y^2 - a^2 b^2."""
    ctx = ctx or params.context()
    a, b, d, _ = params.coefficients(ctx)
    x, y = ctx.variable("x"), ctx.variable("y")
    return (
        (x**2).scale(b * b)
        + (y**2).scale(a * a + d * d)
        + (x * y**2).scale(d * 2)
        - ctx.constant(a * a * b * b)
    )


def _surface_summands(
    params: ConoidParams, ctx: VarContext
) -> tuple[Polynomial, tuple[Polynomial, ...]]:
    """z - h, and the three summands of the surface formula in the module docstring."""
    a, b, d, h = params.coefficients(ctx)
    x, y, z = (ctx.variable(n) for n in AXES)
    zh = z - ctx.constant(h)
    lead = (y**2).scale(a * a + d * d) - ctx.constant(a * a * b * b)
    return zh, (lead * zh**2, (x * y**2 * zh).scale(d * h * -2), (x**2).scale(b * b * h * h))


def conoid_surface(params: ConoidParams, ctx: VarContext | None = None) -> Polynomial:
    """The quartic surface, fully expanded."""
    first, *rest = _surface_summands(params, ctx or params.context())[1]
    return sum(rest, first)


def quintic_decomposition_check(
    params: ConoidParams, surface: Polynomial | None = None
) -> bool:
    """Whether (z - h) * surface equals the sum of (z - h) times each summand.

    The quintic form of the surface splits off the plane z = h; this verifies
    that identity exactly.  ``surface`` defaults to the quartic itself, and may
    be overridden (e.g. perturbed) to show the identity is not vacuous.
    """
    zh, (first, *rest) = _surface_summands(params, params.context())
    if surface is None:
        surface = sum(rest, first)
    return zh * surface == sum((zh * s for s in rest), zh * first)


def _exact_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    n = math.isqrt(value.numerator)
    d = math.isqrt(value.denominator)
    if n * n == value.numerator and d * d == value.denominator:
        return Fraction(n, d)
    return None


@dataclass(frozen=True)
class SectionLine:
    """The line x = (rational_num + sign*sqrt(radicand))/den * (z - h), y fixed."""

    sign: int
    rational_num: Fraction
    den: Fraction
    radicand: Fraction
    h: Fraction

    @property
    def exact_slope(self) -> Fraction | None:
        root = _exact_sqrt(self.radicand)
        if root is None:
            return None
        return (self.rational_num + self.sign * root) / self.den

    def describe(self) -> str:
        zh = f"(z - {self.h})"
        slope = self.exact_slope
        if slope is not None:
            if slope == 1:
                return f"x = {zh}"
            if slope == -1:
                return f"x = -{zh}"
            return f"x = {slope}*{zh}"
        sign = "+" if self.sign >= 0 else "-"
        return f"x = ({self.rational_num} {sign} sqrt({self.radicand}))/{self.den}*{zh}"


@dataclass(frozen=True)
class SectionReport:
    """Classification of one axis-parallel plane section."""

    axis: str
    value: Fraction
    kind: str
    curve: Polynomial | None = None
    lines: tuple[SectionLine, ...] = ()
    discriminant: Fraction | None = None
    strip_bounds: tuple[Fraction, Fraction] | None = None
    line_y_squared: Fraction | None = None

    def __post_init__(self):
        if self.kind not in SECTION_KINDS:
            raise ValueError(f"unknown section kind: {self.kind!r}")

    def describe(self) -> list[str]:
        out = [f"plane {self.axis} = {self.value}: {self.kind}"]
        if self.kind in ("quartic-curve", "cubic-curve") and self.curve is not None:
            out.append(f"  section curve: {self.curve} = 0")
        for line in self.lines:
            out.append(f"  {line.describe()}")
        if self.discriminant is not None:
            out.append(f"  discriminant: {self.discriminant}")
        if self.kind == "empty":
            lo, hi = self.strip_bounds
            out.append(f"  no real section: {lo} < |{self.axis}| < {hi}")
        if self.kind == "degenerate-locus":
            lo, hi = self.strip_bounds
            out.append(f"  contains the strip of the line directrix: |y| <= {lo} or |y| >= {hi}")
            if self.line_y_squared is not None:
                out.append(f"  plus the pair of lines y^2 = {self.line_y_squared}, x = 0")
        return out


def _y_section(a, b, d, h, beta):
    """The section y = beta: its discriminant and the two parts of its line slopes.

    The lines are x = (z - h)(d beta^2 +- sqrt(delta))/(b^2 h) with
    delta = (b^2 - beta^2)(a^2 b^2 - d^2 beta^2); this returns delta, d beta^2
    and b^2 h, on any values with + - *, rationals or context coefficients.
    """
    delta = (b * b - beta * beta) * (a * a * b * b - d * d * beta * beta)
    return delta, d * beta * beta, b * b * h


def axis_section(params: ConoidParams, axis: str, value) -> SectionReport:
    """Classify the section by a plane parallel to a coordinate plane.

    The trichotomy: x = alpha is a quartic curve for alpha != 0 and a
    degenerate locus for alpha = 0; y = beta is a pair of lines (a double line
    on the boundary) when the section is real, otherwise empty; z = gamma is a
    cubic curve for gamma != h and a degenerate locus for gamma = h.
    """
    if not params.is_numeric:
        raise ValueError("real-section classification needs numeric parameters")
    if axis not in AXES:
        raise ValueError(f"unknown axis: {axis!r}")
    value = _rational(value)
    ctx = params.context()
    surface = conoid_surface(params, ctx)
    a, b, d, h = params.a, params.b, params.d, params.h
    curve = substitute(surface, axis, ctx.constant(value))
    strip = (b, a * b / d)
    if axis == "x":
        if value:
            return SectionReport(axis, value, "quartic-curve", curve=curve)
        return SectionReport(
            axis,
            value,
            "degenerate-locus",
            curve=curve,
            strip_bounds=strip,
            line_y_squared=a * a * b * b / (a * a + d * d),
        )
    if axis == "z":
        if value != h:
            return SectionReport(axis, value, "cubic-curve", curve=curve)
        return SectionReport(axis, value, "degenerate-locus", curve=curve, strip_bounds=strip)
    delta, num, den = _y_section(a, b, d, h, value)
    if delta < 0:
        return SectionReport(
            axis, value, "empty", curve=curve, discriminant=delta, strip_bounds=strip
        )
    if delta == 0:
        lines = (SectionLine(0, num, den, delta, h),)
        kind = "double-line"
    else:
        lines = (SectionLine(1, num, den, delta, h), SectionLine(-1, num, den, delta, h))
        kind = "line-pair"
    return SectionReport(
        axis, value, kind, curve=curve, lines=lines, discriminant=delta, strip_bounds=strip
    )


def verify_section_lines(params: ConoidParams, beta) -> bool:
    """Check both candidate lines of the section y = beta lie on the surface.

    Adjoins s with the relation s^2 - delta, substitutes
    x = (z - h)(d beta^2 +- s)/(b^2 h) and y = beta into the surface, and
    requires both sign choices to reduce to zero modulo the relation.  beta
    may be a rational or a fresh symbolic name.
    """
    symbolic_beta = isinstance(beta, str)
    extra = (beta,) if symbolic_beta else ()
    ctx = params.context(extra_vars=("s",), extra_params=extra)
    a, b, d, h = params.coefficients(ctx)
    beta_c = ctx.coefficient(beta if symbolic_beta else _rational(beta))
    delta, num, den = _y_section(a, b, d, h, beta_c)
    lifted = _lifted(delta)
    if lifted.is_constant() and lifted.constant_value() < 0:
        raise ValueError("the section plane misses the surface: negative discriminant")
    surface = conoid_surface(params, ctx)
    s = ctx.variable("s")
    z = ctx.variable("z")
    relation = s**2 - ctx.constant(delta)
    slice_poly = substitute(surface, "y", ctx.constant(beta_c))
    zh = z - ctx.constant(h)
    inv = 1 / den
    for sign in (1, -1):
        line = (zh * (ctx.constant(num) + s.scale(sign))).scale(inv)
        if normal_form(substitute(slice_poly, "x", line), (relation,)):
            return False
    return True


def plane_projection(params: ConoidParams, case: str) -> Polynomial:
    """Project the intersection with A*x + B*y + C*z + D = 0 onto a coordinate plane.

    case "xy" assumes C != 0 and eliminates z; case "xz" assumes C = 0 and
    B != 0 and eliminates y.  A, B, C, D are adjoined as extra parameters, so
    the result is exact over Q(a, b, d, h, A, B, C, D).
    """
    if case not in ("xy", "xz"):
        raise ValueError(f"unknown projection case: {case!r}")
    ctx = params.context(extra_params=("A", "B", "C", "D"))
    A, B, C, D = (ctx.coefficient(n) for n in ("A", "B", "C", "D"))
    x, y = ctx.variable("x"), ctx.variable("y")
    surface = conoid_surface(params, ctx)
    if case == "xy":
        inv = 1 / C
        plane = x.scale(-(A * inv)) + y.scale(-(B * inv)) + ctx.constant(-(D * inv))
        return substitute(surface, "z", plane)
    inv = 1 / B
    plane = x.scale(-(A * inv)) + ctx.constant(-(D * inv))
    return substitute(surface, "y", plane)


# x-y projection coefficients whose vanishing drops the section to degree two:
# x^2 y^2, x y^3, y^4, x y^2, y^3
CONSTRAINT_MONOMIALS = ((2, 2, 0), (1, 3, 0), (0, 4, 0), (1, 2, 0), (0, 3, 0))


def conic_constraints() -> list[Polynomial]:
    """The five conditions on A, B, D (C normalized to 1) for a degree-two section.

    The surface is built with A, B, D as variables after x, y, z over
    Q(a, b, d, h), and z = -(A*x + B*y + D) is substituted.  Each constraint is
    read off that ring: the terms whose x, y, z part is one of
    ``CONSTRAINT_MONOMIALS``, a degree>2 monomial of the projected quartic, as
    a polynomial in A, B, D.  A plane section can be a conic only where all
    five vanish.
    """
    params = ConoidParams.symbolic()
    ctx = params.context(extra_vars=("A", "B", "D"))
    A, B, D = (ctx.variable(n) for n in ("A", "B", "D"))
    x, y = ctx.variable("x"), ctx.variable("y")
    projection = substitute(conoid_surface(params, ctx), "z", -(A * x + B * y + D))
    target = VarContext(("A", "B", "D"), ctx.parameters)
    return [
        Polynomial.from_terms(target, [(m[3:], c) for c, m in projection.terms if m[:3] == exps])
        for exps in CONSTRAINT_MONOMIALS
    ]


@dataclass(frozen=True)
class ConicCandidateFamily:
    """One family of candidate planes, scaled by a free nonzero factor."""

    family_id: str
    scale_name: str
    coefficients: tuple[ParamFraction, ...]  # (A, B, C, D) as functions of the scale
    normalized: tuple[ParamFraction, ...]  # (A, B, D)/C at scale 1, so C = 1

    def plane_equation(self) -> Polynomial:
        """The plane in x, y, z over Q(a, b, d, h), denominators cleared."""
        ctx = VarContext(AXES, ("a", "b", "d", "h"))
        A, B, D = self.normalized
        x, y, z = (ctx.variable(n) for n in AXES)
        plane = x.scale(ctx.coefficient(A)) + y.scale(ctx.coefficient(B)) + z
        return clear_denominators(plane + ctx.constant(D))


def _plane_vector(
    family_id: str, params: tuple[str, ...], scale: ParamFraction | int
) -> tuple[ParamFraction | int, ...]:
    """Family ``family_id``'s plane (A, B, C, D) over Q(params), scaled by ``scale``."""
    zero, h = ParamFraction.zero(params), ParamFraction.parameter(params, "h")
    if family_id == "1":
        return (zero, zero, scale, -(scale * h))
    a, d = ParamFraction.parameter(params, "a"), ParamFraction.parameter(params, "d")
    s = (a * a + d * d) * scale
    return (scale, zero, -s / (d * h * 2), s / (d * 2))


def _families() -> tuple[ConicCandidateFamily, ConicCandidateFamily]:
    base = ("a", "b", "d", "h")
    families = []
    for family_id, scale_name in (("1", "p"), ("2", "q")):
        scaled = base + (scale_name,)
        vector = _plane_vector(family_id, scaled, ParamFraction.parameter(scaled, scale_name))
        A, B, C, D = _plane_vector(family_id, base, 1)
        families.append(ConicCandidateFamily(family_id, scale_name, vector, (A / C, B / C, D / C)))
    return tuple(families)


def conic_constraint_basis() -> GroebnerBasis:
    """Reduced basis of the constraint ideal in lex A > B > D over Q(a,b,d,h)."""
    return reduced_basis(conic_constraints())


def _at_point(p: Polynomial, values: tuple[ParamFraction, ...]) -> Polynomial:
    for name, value in zip(p.context.variables, values):
        p = substitute(p, name, p.context.constant(value))
    return p


def solve_conic_constraints() -> tuple[ConicCandidateFamily, ConicCandidateFamily]:
    """The two candidate families, verified against the constraint ideal.

    Verifies that each family annihilates all five constraints, and that the
    reduced constraint basis consists of B, D + h and a quadratic in A whose
    roots are exactly the two families' A values, so no further family exists.
    """
    return _conic_analysis()[2]


def _conic_analysis() -> tuple[list[Polynomial], GroebnerBasis, tuple[ConicCandidateFamily, ...]]:
    """The conic constraints, their reduced basis, and the families verified against both."""
    constraints = conic_constraints()
    basis = reduced_basis(constraints)
    ctx = constraints[0].context
    families = _families()
    for family in families:
        for constraint in constraints:
            if _at_point(constraint, family.normalized):
                raise ArithmeticError(f"family {family.family_id} fails a conic constraint")
    A = ctx.variable("A")
    roots = [family.normalized[0] for family in families]
    expected = (
        (A - ctx.constant(roots[0])) * (A - ctx.constant(roots[1])),
        ctx.variable("B"),
        ctx.variable("D") + ctx.constant(ParamFraction.parameter(ctx.parameters, "h")),
    )
    if basis.elements != expected:
        raise ArithmeticError("constraint basis does not match the two-family structure")
    return constraints, basis, families


@dataclass(frozen=True)
class ConoidVerdict:
    """Full report of the plane-section analysis."""

    families: tuple[ConicCandidateFamily, ...]
    family_bases: tuple[GroebnerBasis, ...]
    constraint_basis: GroebnerBasis
    forced_zero_coefficient: ParamFraction
    branches: tuple[str, ...]
    conclusion: str


def final_verdict() -> ConoidVerdict:
    """Run every branch of the section analysis and collect the conclusion.

    C != 0 planes must belong to one of the two candidate families and both
    cut the surface in a double line; C = 0 planes reduce to the axis-parallel
    classification, with B != 0 forcing A = 0 through the x^3 z coefficient of
    the x-z projection.
    """
    params = ConoidParams.symbolic()
    _, constraint_basis, families = _conic_analysis()
    surface = conoid_surface(params)
    planes = [family.plane_equation() for family in families]
    bases = tuple(reduced_basis((surface, plane)) for plane in planes)
    projection = plane_projection(params, "xz")
    forced = coefficient_of(projection, (3, 0, 1))
    shown = [", ".join(str(clear_denominators(g)) for g in basis) for basis in bases]
    branches = (
        "C != 0: a degree-two section must satisfy all five conic constraints, "
        "whose ideal admits exactly the two candidate families",
        f"family 1 ({planes[0]} = 0): reduced basis {{{shown[0]}}}, a double line",
        f"family 2 ({planes[1]} = 0): reduced basis {{{shown[1]}}}, a double line",
        "C = 0, B = 0, A = 0: no plane at all",
        "C = 0, B = 0, A != 0: plane x = -D/A, an axis-parallel section "
        "(quartic curve or degenerate locus)",
        f"C = 0, B != 0: the x-z projection has x^3*z coefficient {forced}, "
        "which must vanish, forcing A = 0; plane y = -D/B, an axis-parallel "
        "section (line pair or double line)",
    )
    return ConoidVerdict(
        families=families,
        family_bases=bases,
        constraint_basis=constraint_basis,
        forced_zero_coefficient=forced,
        branches=branches,
        conclusion=CONCLUSION,
    )

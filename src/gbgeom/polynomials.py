"""Multivariate polynomials in ordered variables over an exact coefficient field.

A ``VarContext`` fixes the tuple of variables (highest-precedence first) and
the tuple of parameter names appearing in coefficients.  ``Polynomial`` stores
its terms sorted descending under the lexicographic order, which makes leading
parts O(1) and keeps every printed form deterministic.  Lex is the only
order: it is the order on the ``Monomial.exponents`` tuples.

``render`` prints a polynomial in one of two deterministic text forms that
parse back to it, so regression artifacts can be pinned as text: ``monic``
rescales the leading coefficient to one; ``cleared`` multiplies denominators
away and normalizes the integer content instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

from .coefficients import (
    ParamFraction,
    ParamPoly,
    _monomial_str,
    fraction_gcd,
    param_poly_gcd,
    param_poly_lcm,
)

CoefficientLike = Union["ParamFraction", "ParamPoly", Fraction, int, str]


@dataclass(frozen=True)
class VarContext:
    """Fixed variable and parameter name tuples shared by a family of polynomials."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.variables + self.parameters
        if not self.variables:
            raise ValueError("at least one variable is required")
        if len(set(names)) != len(names):
            raise ValueError("variable and parameter names must be distinct")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"invalid name: {name!r}")

    def index_of(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable: {name!r}") from None

    def coefficient(self, value: CoefficientLike) -> ParamFraction:
        """Coerce ints, rationals, parameter names and ParamPolys to the field."""
        if isinstance(value, ParamFraction):
            if value.params != self.parameters:
                raise ValueError("coefficient from a different context")
            return value
        if isinstance(value, ParamPoly):
            if value.params != self.parameters:
                raise ValueError("coefficient from a different context")
            return ParamFraction(value)
        if isinstance(value, str):
            return ParamFraction.parameter(self.parameters, value)
        return ParamFraction.from_fraction(self.parameters, value)

    def variable(self, name: str) -> "Polynomial":
        exps = tuple(1 if i == self.index_of(name) else 0 for i in range(len(self.variables)))
        return Polynomial._make(self, (Term(ParamFraction.one(self.parameters), Monomial(exps)),))

    def constant(self, value: CoefficientLike) -> "Polynomial":
        return Polynomial.from_terms(self, [((0,) * len(self.variables), value)])

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)


@dataclass(frozen=True)
class Monomial:
    """Exponent vector over the context's variables."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise ValueError("negative exponent")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return not any(self.exponents)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def quotient(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError("monomial does not divide")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))


def monomial_lcm(u: Monomial, v: Monomial) -> Monomial:
    return Monomial(tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


def monomial_gcd(u: Monomial, v: Monomial) -> Monomial:
    return Monomial(tuple(min(a, b) for a, b in zip(u.exponents, v.exponents)))


class Term(NamedTuple):
    coefficient: ParamFraction
    monomial: Monomial


class Polynomial:
    """Polynomial with terms sorted descending under lex; immutable.

    Arithmetic accepts another ``Polynomial`` or anything ``VarContext.coefficient``
    coerces.  Equality is structural and includes the context.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: VarContext, terms: Iterable[Term] = ()):
        acc: dict[Monomial, ParamFraction] = {}
        for coeff, mono in terms:
            if not coeff:
                continue
            prev = acc.get(mono)
            total = coeff if prev is None else prev + coeff
            if total:
                acc[mono] = total
            else:
                del acc[mono]
        self.context = context
        self.terms = tuple(
            Term(acc[m], m) for m in sorted(acc, key=lambda m: m.exponents, reverse=True)
        )

    @classmethod
    def _make(cls, context: VarContext, terms: tuple[Term, ...]) -> "Polynomial":
        out = cls.__new__(cls)
        out.context = context
        out.terms = terms
        return out

    @classmethod
    def from_terms(cls, context: VarContext, pairs: Iterable[tuple] ) -> "Polynomial":
        """Build from (exponents-or-Monomial, coefficient-like) pairs."""
        terms = []
        nvars = len(context.variables)
        for exps, coeff in pairs:
            mono = exps if isinstance(exps, Monomial) else Monomial(tuple(exps))
            if len(mono.exponents) != nvars:
                raise ValueError("exponent tuple has wrong length")
            terms.append(Term(context.coefficient(coeff), mono))
        return cls(context, terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0].monomial.is_one())

    def constant_value(self) -> ParamFraction:
        if not self.terms:
            return ParamFraction.zero(self.context.parameters)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0].coefficient

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(t.monomial.degree for t in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.context, self.terms))

    def _check(self, other: "Polynomial") -> None:
        if self.context != other.context:
            raise ValueError("mismatched contexts")

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.context, tuple(Term(-c, m) for c, m in self.terms))

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.context.constant(other)
        self._check(other)
        acc = {m: c for c, m in self.terms}
        for coeff, mono in other.terms:
            prev = acc.get(mono)
            total = coeff if prev is None else prev + coeff
            if total:
                acc[mono] = total
            else:
                del acc[mono]
        terms = tuple(
            Term(acc[m], m) for m in sorted(acc, key=lambda m: m.exponents, reverse=True)
        )
        return Polynomial._make(self.context, terms)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.context.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(self.context.coefficient(other))
        self._check(other)
        acc: dict[Monomial, ParamFraction] = {}
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                mono = m1 * m2
                prod = c1 * c2
                prev = acc.get(mono)
                total = prod if prev is None else prev + prod
                if total:
                    acc[mono] = total
                else:
                    del acc[mono]
        terms = tuple(
            Term(acc[m], m) for m in sorted(acc, key=lambda m: m.exponents, reverse=True)
        )
        return Polynomial._make(self.context, terms)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, coeff: CoefficientLike) -> "Polynomial":
        coeff = self.context.coefficient(coeff)
        if not coeff:
            return self.context.zero()
        return Polynomial._make(self.context, tuple(Term(c * coeff, m) for c, m in self.terms))

    def __truediv__(self, other) -> "Polynomial":
        return self.scale(self.context.coefficient(other).invert())

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.context.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lead = self.terms[0].coefficient
        if lead.is_one():
            return self
        return self.scale(lead.invert())

    def evaluate(
        self,
        variables: Mapping[str, Fraction],
        parameters: Mapping[str, Fraction] | None = None,
    ) -> Fraction:
        """Evaluate at the point; only names that occur need a value."""
        names = self.context.variables
        parameters = parameters or {}
        total = Fraction(0)
        for coeff, mono in self.terms:
            value = coeff.evaluate(parameters)
            for name, e in zip(names, mono.exponents):
                if e:
                    value *= Fraction(variables[name]) ** e
            total += value
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.context.variables
        pieces = []
        for coeff, mono in self.terms:
            if coeff.negative_lead:
                pieces.append((True, _term_str(-coeff, mono, names)))
            else:
                pieces.append((False, _term_str(coeff, mono, names)))
        negative, text = pieces[0]
        out = "-" + text if negative else text
        for negative, text in pieces[1:]:
            out += (" - " if negative else " + ") + text
        return out

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coeff_str(coeff: ParamFraction) -> str:
    text = str(coeff)
    if coeff.den.is_one() and len(coeff.num.terms) > 1:
        return f"({text})"
    return text


def _term_str(coeff: ParamFraction, mono: Monomial, names: tuple[str, ...]) -> str:
    mono_s = _monomial_str(names, mono.exponents)
    if not mono_s:
        return _coeff_str(coeff)
    if coeff.is_one():
        return mono_s
    if coeff == -1:
        return "-" + mono_s
    return f"{_coeff_str(coeff)}*{mono_s}"


def leading_parts(p: Polynomial) -> tuple[Term, Monomial, ParamFraction]:
    """(leading term, leading monomial, leading coefficient); errors on zero."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading parts")
    lead = p.terms[0]
    return lead, lead.monomial, lead.coefficient


def coefficient_of(p: Polynomial, monomial: Monomial | tuple[int, ...]) -> ParamFraction:
    """Coefficient of an exact monomial, zero when absent."""
    if not isinstance(monomial, Monomial):
        monomial = Monomial(tuple(monomial))
    if len(monomial.exponents) != len(p.context.variables):
        raise ValueError("exponent tuple has wrong length")
    for coeff, mono in p.terms:
        if mono == monomial:
            return coeff
    return ParamFraction.zero(p.context.parameters)


def substitute(p: Polynomial, var: str, replacement: Polynomial) -> Polynomial:
    """Replace one variable by a polynomial, evaluating by Horner's scheme."""
    p._check(replacement)
    index = p.context.index_of(var)
    if replacement == p.context.variable(var):
        return p
    layers: dict[int, list[Term]] = {}
    for coeff, mono in p.terms:
        e = mono.exponents[index]
        rest = Monomial(mono.exponents[:index] + (0,) + mono.exponents[index + 1:])
        layers.setdefault(e, []).append(Term(coeff, rest))
    if not layers:
        return p
    top = max(layers)
    result = Polynomial(p.context, layers.get(top, ()))
    for e in range(top - 1, -1, -1):
        result = result * replacement + Polynomial(p.context, layers.get(e, ()))
    return result


def clear_denominators(p: Polynomial) -> Polynomial:
    """Scale to parameter-polynomial coefficients with no common factor.

    The result has the fraction-free normal form: coefficient denominators
    cleared, overall rational content 1, no common parameter-poly divisor, and
    a positive-leading leading coefficient.  Scaling a polynomial by any
    nonzero field element leaves this form unchanged.
    """
    if not p.terms:
        return p
    params = p.context.parameters
    lcm = ParamPoly.constant(params, 1)
    for coeff, _ in p.terms:
        lcm = param_poly_lcm(lcm, coeff.den)
    nums = [(coeff * ParamFraction(lcm)).as_poly() for coeff, _ in p.terms]
    rational = fraction_gcd(c for num in nums for _, c in num.terms)
    common = ParamPoly(params)
    for num in nums:
        common = param_poly_gcd(common, num)
        if common.is_one():
            break
    nums = [num.quo_ground(rational) for num in nums]
    if not common.is_one():
        nums = [num.exact_div(common) for num in nums]
    if nums[0].leading_coefficient() < 0:
        nums = [-num for num in nums]
    terms = tuple(
        Term(ParamFraction(num), mono)
        for num, (_, mono) in zip(nums, p.terms)
    )
    return Polynomial._make(p.context, terms)


RENDER_MODES = ("monic", "cleared")


def render(p: Polynomial, mode: str = "monic") -> str:
    if mode not in RENDER_MODES:
        raise ValueError(f"unknown render mode {mode!r}")
    if not p.terms:
        return "0"
    if mode == "cleared":
        return str(clear_denominators(p))
    return str(p.monic())

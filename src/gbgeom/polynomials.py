"""Multivariate polynomials in ordered variables over an exact coefficient field.

A ``VarContext`` fixes the tuple of variables (highest-precedence first) and
the tuple of parameter names appearing in coefficients.  ``Polynomial`` stores
its terms sorted descending under the lexicographic order, which makes leading
parts O(1) and keeps every printed form deterministic.  A monomial is its
exponent tuple, the form the sparse core in ``coefficients`` works on, and lex
is the only order: it is the order of those tuples.  ``Polynomial``,
``from_terms`` and ``coefficient_of`` take exponents from outside and check
that each is a non-negative integer of the right count; every other monomial
is made from checked ones.

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
    Coefficient,
    ParamFraction,
    ParamPoly,
    _collect,
    _evaluate,
    _exponents,
    _join_signed,
    _lifted,
    _lex_sorted,
    _power,
    _scale,
    _term_product,
    _term_str,
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

    def coefficient(self, value: CoefficientLike) -> Coefficient:
        """Coerce ints, rationals, parameter names and ParamPolys to the field; no floats.

        The field is chosen by the parameter tuple alone: a plain ``Fraction``
        when there are no parameters, a canonical ``ParamFraction`` otherwise.
        """
        params = self.parameters
        if isinstance(value, (int, Fraction)):
            if params:
                return ParamFraction.from_fraction(params, value)
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, str):
            return ParamFraction.parameter(params, value)
        if not isinstance(value, (ParamFraction, ParamPoly)):
            raise TypeError(f"not an exact coefficient: {value!r}")
        if value.params != params:
            raise ValueError("coefficient from a different context")
        if isinstance(value, ParamPoly):
            value = ParamFraction(value)
        return value if params else value.constant_value()

    def variable(self, name: str) -> "Polynomial":
        index = self.index_of(name)
        exps = tuple(int(i == index) for i in range(len(self.variables)))
        return Polynomial._make(self, (Term(self.coefficient(1), exps),))

    def constant(self, value: CoefficientLike) -> "Polynomial":
        return Polynomial.from_terms(self, [((0,) * len(self.variables), value)])

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)


class Term(NamedTuple):
    coefficient: Coefficient
    monomial: tuple[int, ...]


def _terms(pairs) -> tuple[Term, ...]:
    """Terms from the (exponents, coefficient) pairs of the shared core."""
    return tuple(Term(c, e) for e, c in pairs)


class Polynomial:
    """Polynomial with terms sorted descending under lex; immutable.

    The constructor takes ``Term``s of any coefficient ``VarContext.coefficient``
    coerces and checks each exponent tuple.  Arithmetic accepts another
    ``Polynomial`` or such a coefficient.  Equality is structural and includes
    the context.
    """

    __slots__ = ("context", "terms")

    def __init__(self, context: VarContext, terms: Iterable[Term] = ()):
        self.context = context
        pairs = ((_exponents(m, len(context.variables)), context.coefficient(c)) for c, m in terms)
        self.terms = _terms(_lex_sorted(_collect(pairs, {})))

    @classmethod
    def _make(cls, context: VarContext, terms: tuple[Term, ...]) -> "Polynomial":
        out = cls.__new__(cls)
        out.context = context
        out.terms = terms
        return out

    def _pairs(self) -> list[tuple[tuple[int, ...], Coefficient]]:
        return [(m, c) for c, m in self.terms]

    @classmethod
    def from_terms(cls, context: VarContext, pairs: Iterable[tuple]) -> "Polynomial":
        """Build from (exponents, coefficient-like) pairs."""
        return cls(context, (Term(c, e) for e, c in pairs))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0].monomial))

    def constant_value(self) -> Coefficient:
        if not self.terms:
            return self.context.coefficient(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0].coefficient

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(t.monomial) for t in self.terms)

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
        acc = _collect(other._pairs(), dict(self._pairs()))
        return Polynomial._make(self.context, _terms(_lex_sorted(acc)))

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
        acc = _term_product(self._pairs(), other._pairs())
        return Polynomial._make(self.context, _terms(_lex_sorted(acc)))

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def scale(self, coeff: CoefficientLike) -> "Polynomial":
        coeff = self.context.coefficient(coeff)
        if not coeff:
            return self.context.zero()
        return Polynomial._make(self.context, _terms(_scale(self._pairs(), coeff)))

    def __truediv__(self, other) -> "Polynomial":
        return self.scale(1 / self.context.coefficient(other))

    def __pow__(self, n: int) -> "Polynomial":
        return _power(self, n, self.context.one())

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lead = self.terms[0].coefficient
        if lead == 1:
            return self
        return self.scale(1 / lead)

    def evaluate(
        self,
        variables: Mapping[str, Fraction],
        parameters: Mapping[str, Fraction] | None = None,
    ) -> Fraction:
        """Evaluate at the point; only names that occur need a value."""
        pairs = ((m, _lifted(c).evaluate(parameters or {})) for c, m in self.terms)
        return _evaluate(self.context.variables, pairs, variables)

    def __str__(self) -> str:
        names = self.context.variables
        lifted = ((_lifted(c), m) for c, m in self.terms)
        return _join_signed(
            (c.negative_lead, _term_str(names, m, _coeff_str(c))) for c, m in lifted
        )

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coeff_str(coeff: ParamFraction) -> str:
    """Unsigned text of a coefficient, in parentheses when it is a sum."""
    if coeff.negative_lead:
        coeff = -coeff
    text = str(coeff)
    if coeff.den.is_one() and len(coeff.num.terms) > 1:
        return f"({text})"
    return text


def leading_parts(p: Polynomial) -> tuple[Term, tuple[int, ...], Coefficient]:
    """(leading term, leading monomial, leading coefficient); errors on zero."""
    if not p.terms:
        raise ValueError("zero polynomial has no leading parts")
    lead = p.terms[0]
    return lead, lead.monomial, lead.coefficient


def coefficient_of(p: Polynomial, monomial: Iterable[int]) -> Coefficient:
    """Coefficient of an exact monomial, zero when absent."""
    monomial = _exponents(monomial, len(p.context.variables))
    for coeff, mono in p.terms:
        if mono == monomial:
            return coeff
    return p.context.coefficient(0)


def substitute(p: Polynomial, var: str, replacement: Polynomial) -> Polynomial:
    """Replace one variable by a polynomial, evaluating by Horner's scheme."""
    p._check(replacement)
    index = p.context.index_of(var)
    if replacement == p.context.variable(var):
        return p
    # Zeroing one exponent keeps the lex order of the terms that share it, so
    # each layer is already a sorted term tuple.
    layers: dict[int, list[Term]] = {}
    for coeff, mono in p.terms:
        rest = mono[:index] + (0,) + mono[index + 1:]
        layers.setdefault(mono[index], []).append(Term(coeff, rest))
    if not layers:
        return p
    top = max(layers)
    result = Polynomial._make(p.context, tuple(layers[top]))
    for e in range(top - 1, -1, -1):
        result = result * replacement + Polynomial._make(p.context, tuple(layers.get(e, ())))
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
    coeffs = [_lifted(coeff) for coeff, _ in p.terms]
    lcm = ParamPoly.constant(params, 1)
    for coeff in coeffs:
        lcm = param_poly_lcm(lcm, coeff.den)
    nums = [(coeff * ParamFraction(lcm)).as_poly() for coeff in coeffs]
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
        Term(p.context.coefficient(num), mono)
        for num, (_, mono) in zip(nums, p.terms)
    )
    return Polynomial._make(p.context, terms)


RENDER_MODES = ("monic", "cleared")


def render(p: Polynomial, mode: str = "monic") -> str:
    if mode not in RENDER_MODES:
        raise ValueError(f"unknown render mode {mode!r}")
    if mode == "cleared":
        return str(clear_denominators(p))
    return str(p.monic())

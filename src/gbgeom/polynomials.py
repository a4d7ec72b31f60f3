"""Multivariate polynomials in ordered variables over an exact coefficient field.

A ``VarContext`` fixes the tuple of variables (highest-precedence first) and
the tuple of parameter names appearing in coefficients.  ``Polynomial`` stores
its terms sorted descending under its context's term order, which makes
leading parts O(1) and keeps every printed form deterministic.  A monomial is
its exponent tuple, the form the sparse core in ``coefficients`` works on.
Every context the public API builds orders terms by lex, the order of those
tuples; division compares and shifts monomials as packed int keys that each
context defines (``VarContext._key``).  The term order belongs to the
context: ``_Grevlex`` is the same variables under graded reverse lex, a
different context that only ``groebner`` builds for its zero-dimensional
route, so ``_check`` refuses to mix the two.  ``Polynomial``, ``from_terms``
and ``coefficient_of`` take exponents from outside and check that each is a
non-negative integer of the right count; every other monomial is made from
checked ones.

``render`` prints a polynomial in one of two deterministic text forms that
parse back to it, so regression artifacts can be pinned as text: ``monic``
rescales the leading coefficient to one; ``cleared`` multiplies denominators
away and normalizes the integer content instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Union

from .coefficients import (
    Coefficient,
    ParamFraction,
    ParamPoly,
    _cleared,
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
)
from .intgcd import is_constant

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

    # The term order, and division's key space.  ``_key`` maps a monomial to
    # one int, its key, by a linear map whose smallest key is the highest
    # term: a product's key is the sum of its factors' keys, so every shift in
    # key space is one addition.  Each exponent gets a field of ``_WIDTH``
    # bits whose top bit, the guard bit, stays clear, so ``_key`` refuses an
    # exponent of ``_LIMIT`` = 2 ** (_WIDTH - 1) or more.  The low n * _WIDTH
    # bits of a key hold the packed exponents R(e) and ``key & mask`` gives
    # R(e) back; ``_monomial`` unpacks it.  Under lex the first variable is
    # the most significant field, and the key is R(e) - (R(e) << n * _WIDTH).
    # A monomial u divides the one with packed exponents d (guard bits
    # clear) exactly when ((d | guard) - R(u)) & guard == guard: no field
    # borrows from the next, and each keeps its guard bit where its exponent
    # is at least u's.  ``_sorted`` lists a collected dict highest term first.

    _WIDTH = 32  # bits per exponent field, packed as struct's "i"
    _LIMIT = 1 << _WIDTH - 1
    _BYTEORDER = "big"  # the first variable is the most significant field
    _sorted = staticmethod(_lex_sorted)

    @cached_property
    def _struct(self) -> struct.Struct:
        """R(e)'s bytes: one signed field per variable, so packing refuses the limit."""
        return struct.Struct(f"{'>' if self._BYTEORDER == 'big' else '<'}{len(self.variables)}i")

    @cached_property
    def _masks(self) -> tuple[int, int]:
        """(mask, guard): ``key & mask`` is R(e), and guard holds every field's top bit."""
        mask = (1 << len(self.variables) * self._WIDTH) - 1
        return mask, mask // ((1 << self._WIDTH) - 1) << self._WIDTH - 1

    def _packed(self, exponents: tuple[int, ...]) -> int:
        """R(e); raises ValueError for an exponent at or over the limit."""
        try:
            return int.from_bytes(self._struct.pack(*exponents), self._BYTEORDER)
        except struct.error:
            raise ValueError(
                f"exponent {max(exponents)} is over the limit {self._LIMIT - 1}"
            ) from None

    def _key(self, exponents: tuple[int, ...]) -> int:
        packed = self._packed(exponents)
        return packed - (packed << len(self.variables) * self._WIDTH)

    def _monomial(self, key: int) -> tuple[int, ...]:
        layout = self._struct
        return layout.unpack((key & self._masks[0]).to_bytes(layout.size, self._BYTEORDER))


@dataclass(frozen=True)
class _Grevlex(VarContext):
    """The same variables under graded reverse lex; unequal to the lex context.

    Higher total degree ranks higher; within a degree, the smaller exponent
    of the last variable where two monomials differ.  The last variable is
    the most significant field of R(e), and the key is
    R(e) - (deg(e) << n * _WIDTH): the degree ranks first, then R(e).
    """

    _BYTEORDER = "little"  # the last variable is the most significant field

    def _key(self, exponents: tuple[int, ...]) -> int:
        return self._packed(exponents) - (sum(exponents) << len(self.variables) * self._WIDTH)

    def _sorted(self, acc: dict) -> tuple:
        key = self._key
        return tuple(sorted(acc.items(), key=lambda pair: key(pair[0])))


class Term(NamedTuple):
    coefficient: Coefficient
    monomial: tuple[int, ...]


def _terms(pairs) -> tuple[Term, ...]:
    """Terms from the (exponents, coefficient) pairs of the shared core."""
    return tuple(Term(c, e) for e, c in pairs)


class Polynomial:
    """Polynomial with terms sorted descending under its context's order; immutable.

    The constructor takes ``Term``s of any coefficient ``VarContext.coefficient``
    coerces and checks each exponent tuple.  Arithmetic accepts another
    ``Polynomial`` or such a coefficient.  Equality is structural and includes
    the context.  ``_table`` caches division's reducer table for this
    polynomial as a divisor (``division._table``); it is built on first use.
    """

    __slots__ = ("context", "terms", "_table")

    def __init__(self, context: VarContext, terms: Iterable[Term] = ()):
        self.context = context
        pairs = ((_exponents(m, len(context.variables)), context.coefficient(c)) for c, m in terms)
        self.terms = _terms(context._sorted(_collect(pairs, {})))
        self._table = None

    @classmethod
    def _make(cls, context: VarContext, terms: tuple[Term, ...]) -> "Polynomial":
        out = cls.__new__(cls)
        out.context = context
        out.terms = terms
        out._table = None
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
        return Polynomial._make(self.context, _terms(self.context._sorted(acc)))

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
        return Polynomial._make(self.context, _terms(self.context._sorted(acc)))

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
    if is_constant(coeff.g) and len(coeff.f) > 1:
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
    cleared = _cleared([_lifted(coeff) for coeff, _ in p.terms])
    terms = tuple(
        Term(p.context.coefficient(coeff), mono) for coeff, (_, mono) in zip(cleared, p.terms)
    )
    return Polynomial._make(p.context, terms)


RENDER_MODES = ("monic", "cleared")


def render(p: Polynomial, mode: str = "monic") -> str:
    if mode not in RENDER_MODES:
        raise ValueError(f"unknown render mode {mode!r}")
    if mode == "cleared":
        return str(clear_denominators(p))
    return str(p.monic())

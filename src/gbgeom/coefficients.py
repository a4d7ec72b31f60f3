"""Exact coefficient arithmetic: rationals and rational functions of parameters.

Coefficients live in the field Q(p1, ..., pk) of rational functions in a fixed
tuple of parameter names.  ``ParamPoly`` is a multivariate polynomial over Q in
those parameters; ``ParamFraction`` is a quotient of two of them kept in a
canonical form, so equality is structural and hashing is cheap.  The gcds
that keep it canonical come from ``intgcd.gcd`` with their cofactors, so
cancelling a gcd divides nothing again.  When there
are no parameters (k = 0) the field is Q itself and its elements are plain
``Fraction`` values: ``VarContext.coefficient`` picks the domain from the
parameter tuple, and code shared by both domains combines coefficients only
through operators both types support (``+``, ``*``, ``1 / c``, ``c == 1``).
``_lifted`` turns a ``Fraction`` into a ``ParamFraction`` for the few places
that need a numerator and a denominator polynomial.

Everything here is immutable and exact; the constructors refuse floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .intgcd import _exact_quotient, gcd, integer_primitive, is_constant

Exponents = tuple[int, ...]


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """Positive gcd of a collection of rationals, 0 for an empty/zero collection."""
    num = 0
    den = 1
    for v in values:
        if not v:
            continue
        num = math.gcd(num, abs(v.numerator))
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)


def _exponents(exponents: Iterable[int], count: int) -> Exponents:
    """An exponent tuple from outside, checked to hold count non-negative ints."""
    exponents = tuple(exponents)
    if len(exponents) != count:
        raise ValueError("exponent tuple has wrong length")
    for e in exponents:
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent is not a non-negative integer: {e!r}")
    return exponents


def _rational(value) -> Fraction:
    """An int or a Fraction as a Fraction; anything else is not exact."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"not an exact coefficient: {value!r}")
    return value if isinstance(value, Fraction) else Fraction(value)


def _monomial_str(names: tuple[str, ...], exponents: Exponents) -> str:
    """Power product such as ``x^2*y``; empty for the unit monomial."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e > 0
    )


# The sparse-term core shared by ``ParamPoly`` (Fraction coefficients) and
# ``polynomials.Polynomial`` (ParamFraction coefficients).  Terms are
# ``(exponents, coefficient)`` pairs and lex order is tuple comparison.
# Coefficients meet only through plain operators, so one body serves both.


def _collect(pairs, acc: dict) -> dict:
    """Add pairs into the ``{exponents: coefficient}`` dict acc, dropping zeros."""
    for exps, coeff in pairs:
        if not coeff:
            continue
        prev = acc.get(exps)
        total = coeff if prev is None else prev + coeff
        if total:
            acc[exps] = total
        else:
            del acc[exps]
    return acc


def _lex_sorted(acc: dict) -> tuple:
    """The pairs of a collected dict, descending in lex order."""
    return tuple(sorted(acc.items(), reverse=True))


def _term_product(left, right) -> dict:
    """Collected product of two term sequences."""
    products = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in left for e2, c2 in right)
    return _collect(products, {})


def _power(base, n: int, one):
    """base ** n by square-and-multiply, starting from one."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _scale(pairs, coeff, shift: Exponents | None = None) -> tuple:
    """Every term times coeff (and the monomial of shift); the order is kept."""
    if shift is None:
        return tuple((e, c * coeff) for e, c in pairs)
    return tuple((tuple(map(add, e, shift)), c * coeff) for e, c in pairs)


def _evaluate(names: tuple[str, ...], pairs, values: Mapping[str, Fraction]) -> Fraction:
    """Sum of the terms at the point; only names that occur need a value."""
    total = Fraction(0)
    for exps, coeff in pairs:
        for name, e in zip(names, exps):
            if e:
                coeff *= Fraction(values[name]) ** e
        total += coeff
    return total


def _term_str(names: tuple[str, ...], exponents: Exponents, coeff: str) -> str:
    """One unsigned term, ``coeff*x^2*y``, dropping a unit coefficient."""
    mono = _monomial_str(names, exponents)
    if not mono:
        return coeff
    return mono if coeff == "1" else f"{coeff}*{mono}"


def _join_signed(pieces: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, unsigned text) pieces as ``a - b + c``; ``0`` when empty."""
    out = "".join((" - " if negative else " + ") + text for negative, text in pieces)
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


class ParamPoly:
    """Polynomial over Q in a fixed tuple of parameters.

    Terms are held as a tuple of ``(exponents, coefficient)`` pairs sorted in
    descending lexicographic order of the exponent tuples, with nonzero
    Fraction coefficients.  The representation is canonical, so ``==`` and
    ``hash`` are structural.  The constructor takes int or Fraction
    coefficients and checks each exponent tuple against the parameters.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: tuple[str, ...], terms: Iterable[tuple[Exponents, Fraction]] = ()):
        self.params = tuple(params)
        pairs = ((_exponents(e, len(self.params)), _rational(c)) for e, c in terms)
        self.terms = _lex_sorted(_collect(pairs, {}))

    @classmethod
    def _make(cls, params: tuple[str, ...], terms: tuple) -> "ParamPoly":
        out = cls.__new__(cls)
        out.params = params
        out.terms = terms
        return out

    @classmethod
    def constant(cls, params: tuple[str, ...], value) -> "ParamPoly":
        value = _rational(value)
        return cls._make(tuple(params), (((0,) * len(params), value),) if value else ())

    @classmethod
    def parameter(cls, params: tuple[str, ...], name: str) -> "ParamPoly":
        if name not in params:
            raise ValueError(f"unknown parameter: {name!r}")
        exps = tuple(1 if p == name else 0 for p in params)
        return cls(params, [(exps, Fraction(1))])

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(self.terms[0][0]))

    def is_one(self) -> bool:
        return len(self.terms) == 1 and not any(self.terms[0][0]) and self.terms[0][1] == 1

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

    def leading_exponents(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.params, self.terms))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._make(self.params, tuple((e, -c) for e, c in self.terms))

    def _coerce(self, other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.constant(self.params, other)
        return None

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ParamPoly._make(self.params, _lex_sorted(_collect(other.terms, dict(self.terms))))

    def __radd__(self, other) -> "ParamPoly":
        return self + other

    def __sub__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ParamPoly._make(self.params, _lex_sorted(_term_product(self.terms, other.terms)))

    def __rmul__(self, other) -> "ParamPoly":
        return self * other

    def __pow__(self, n: int) -> "ParamPoly":
        return _power(self, n, ParamPoly.constant(self.params, 1))

    def mul_ground(self, c: Fraction) -> "ParamPoly":
        if not c:
            return ParamPoly(self.params)
        return ParamPoly._make(self.params, _scale(self.terms, c))

    def quo_ground(self, c: Fraction) -> "ParamPoly":
        return self.mul_ground(Fraction(1) / Fraction(c))

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at the point; only parameters that occur need a value."""
        return _evaluate(self.params, self.terms, values)

    def content(self) -> Fraction:
        return fraction_gcd(c for _, c in self.terms)

    def primitive(self) -> "ParamPoly":
        c = self.content()
        if not c or c == 1:
            return self
        return self.quo_ground(c)

    def exact_div(self, divisor: "ParamPoly") -> "ParamPoly":
        """Quotient self / divisor, raising ValueError unless it divides exactly."""
        # the primitive integer parts divide over Z when they do over Q (Gauss's lemma)
        self._check(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        scale, f = integer_primitive(self.terms)
        divisor_scale, h = integer_primitive(divisor.terms)
        quo = f and _exact_quotient(f, h)
        if quo is None:
            raise ValueError("not exactly divisible")
        return _from_integers(self.params, quo, scale / divisor_scale)

    def _check(self, other: "ParamPoly") -> None:
        if self.params != other.params:
            raise ValueError("mismatched parameter tuples")

    def __str__(self) -> str:
        return _join_signed((c < 0, _term_str(self.params, e, str(abs(c)))) for e, c in self.terms)

    def __repr__(self) -> str:
        return f"ParamPoly({str(self)!r}, params={self.params!r})"


def _from_integers(params: tuple[str, ...], f: dict, scale: Fraction) -> ParamPoly:
    """scale times the integer polynomial f."""
    return ParamPoly._make(params, _lex_sorted({e: scale * c for e, c in f.items()}))


def _gcd_parts(p: ParamPoly, q: ParamPoly) -> tuple[ParamPoly, ParamPoly, ParamPoly]:
    """(h, p / h, q / h) for the canonical gcd h, from one call of ``intgcd.gcd``."""
    p._check(q)
    p_scale, f = integer_primitive(p.terms)
    q_scale, g = integer_primitive(q.terms)
    h, f, g = gcd(f, g)
    if is_constant(h):
        return ParamPoly.constant(p.params, 1), p, q
    parts = ((h, Fraction(1)), (f, p_scale), (g, q_scale))
    return tuple(_from_integers(p.params, part, scale) for part, scale in parts)


def param_poly_gcd(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    """Gcd in Q[params], normalized primitive with positive leading rational.

    The gcd of two zero polynomials is zero; a nonzero constant is a unit, so
    any pair involving one has gcd 1.
    """
    return _gcd_parts(p, q)[0]


def param_poly_lcm(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    p._check(q)
    if not p or not q:
        return ParamPoly(p.params)
    lcm = (p * _gcd_parts(p, q)[2]).primitive()
    return -lcm if lcm.leading_coefficient() < 0 else lcm


class ParamFraction:
    """Quotient of two ``ParamPoly`` values in canonical form.

    Canonical means the gcd of numerator and denominator is 1 and the
    denominator is integer-primitive with positive leading rational; zero is
    0/1.  Construction normalizes, so equality and hashing are structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        if den is None:
            den = ParamPoly.constant(num.params, 1)
        normalized = normalize_fraction(num, den)
        self.num = normalized.num
        self.den = normalized.den

    @classmethod
    def _raw(cls, num: ParamPoly, den: ParamPoly) -> "ParamFraction":
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def from_fraction(cls, params: tuple[str, ...], value) -> "ParamFraction":
        return cls._raw(ParamPoly.constant(params, value), ParamPoly.constant(params, 1))

    @classmethod
    def parameter(cls, params: tuple[str, ...], name: str) -> "ParamFraction":
        return cls._raw(ParamPoly.parameter(params, name), ParamPoly.constant(params, 1))

    @classmethod
    def zero(cls, params: tuple[str, ...]) -> "ParamFraction":
        return cls._raw(ParamPoly(params), ParamPoly.constant(params, 1))

    @classmethod
    def one(cls, params: tuple[str, ...]) -> "ParamFraction":
        one = ParamPoly.constant(params, 1)
        return cls._raw(one, one)

    @property
    def params(self) -> tuple[str, ...]:
        return self.num.params

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return self.den.is_one() and self.num.is_constant()

    def constant_value(self) -> Fraction:
        if not self.den.is_one():
            raise ValueError("not a constant")
        return self.num.constant_value()

    @property
    def negative_lead(self) -> bool:
        """True when the display form starts with a minus sign."""
        return bool(self.num) and self.num.leading_coefficient() < 0

    def as_poly(self) -> ParamPoly:
        if not self.den.is_one():
            raise ValueError("fraction has a nontrivial denominator")
        return self.num

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        den = self.den.evaluate(values)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.num.evaluate(values) / den

    def _coerce(self, other) -> "ParamFraction | None":
        if isinstance(other, ParamFraction):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamFraction.from_fraction(self.params, other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self.den.is_one() and self.num.is_constant():
            return hash(self.num.constant_value())
        return hash((self.num, self.den))

    def __neg__(self) -> "ParamFraction":
        return ParamFraction._raw(-self.num, self.den)

    def __add__(self, other) -> "ParamFraction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return normalize_fraction(self.num + other.num, self.den)
        g, d1, d2 = _gcd_parts(self.den, other.den)
        num = self.num * d2 + other.num * d1
        # coprime denominators leave the sum in lowest terms
        if g.is_one():
            return _scaled(num, self.den * other.den)
        return normalize_fraction(num, d1 * other.den)

    def __radd__(self, other) -> "ParamFraction":
        return self.__add__(other)

    def __sub__(self, other) -> "ParamFraction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "ParamFraction":
        return (-self).__add__(other)

    def __mul__(self, other) -> "ParamFraction":
        if isinstance(other, (int, Fraction)):
            if not other:
                return ParamFraction.zero(self.params)
            return ParamFraction._raw(self.num.mul_ground(Fraction(other)), self.den)
        if not isinstance(other, ParamFraction):
            return NotImplemented
        if not self.num or not other.num:
            return ParamFraction.zero(self.params)
        if self.den.is_one() and other.den.is_one():
            return ParamFraction._raw(self.num * other.num, self.den)
        _, n1, d2 = _gcd_parts(self.num, other.den)
        _, n2, d1 = _gcd_parts(other.num, self.den)
        return _scaled(n1 * n2, d1 * d2)

    def __rmul__(self, other) -> "ParamFraction":
        return self.__mul__(other)

    def invert(self) -> "ParamFraction":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return _scaled(self.den, self.num)

    def __truediv__(self, other) -> "ParamFraction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__mul__(other.invert())

    def __rtruediv__(self, other) -> "ParamFraction":
        if isinstance(other, (int, Fraction)):
            # a rational numerator only scales the inverse: no gcd is needed
            inverse = self.invert()
            return inverse if other == 1 else inverse * other
        return NotImplemented

    def __pow__(self, n: int) -> "ParamFraction":
        if n < 0:
            return self.invert() ** (-n)
        if n == 0:
            return ParamFraction.one(self.params)
        return ParamFraction._raw(self.num ** n, self.den ** n)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        num_s = str(self.num)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if any(ch in den_s for ch in "*+- "):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"ParamFraction({str(self)!r}, params={self.params!r})"


def _scaled(num: ParamPoly, den: ParamPoly) -> ParamFraction:
    """Canonicalize a fraction already known to be in lowest terms."""
    if not num:
        return ParamFraction.zero(num.params)
    c = den.content()
    if den.leading_coefficient() < 0:
        c = -c
    if c != 1:
        den = den.quo_ground(c)
        num = num.quo_ground(c)
    return ParamFraction._raw(num, den)


def normalize_fraction(num: ParamPoly, den: ParamPoly) -> ParamFraction:
    """Put num/den into canonical form; raises on a zero denominator."""
    num._check(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ParamFraction.zero(num.params)
    if den.is_one():
        return ParamFraction._raw(num, den)
    _, num, den = _gcd_parts(num, den)
    return _scaled(num, den)


# not typing.Union: its cache would keep every imported copy of this class alive
Coefficient = Fraction | ParamFraction


def _lifted(coeff: Coefficient) -> ParamFraction:
    """A coefficient as a ParamFraction; a plain Fraction becomes one over no parameters."""
    if isinstance(coeff, ParamFraction):
        return coeff
    return ParamFraction.from_fraction((), coeff)

"""Exact coefficient arithmetic: rationals and rational functions of parameters.

Coefficients live in the field Q(p1, ..., pk) of rational functions in a fixed
tuple of parameter names.  ``ParamPoly`` is a multivariate polynomial over Q in
those parameters.  ``ParamFraction`` is a quotient kept as a rational scale
times two coprime integer polynomials (``{exponents: int}`` dicts), each
primitive with a positive leading coefficient: the form the gcd in
``intgcd`` takes, so fraction arithmetic cancels with the cofactors that
``intgcd.gcd`` returns, multiplies over Z and never converts its own parts.
The form is canonical, so equality is structural.  ``_cleared`` clears the
denominators of a polynomial's coefficients on the same parts.  When there
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

from .intgcd import _exact_quotient, _mul_add, _quo_int, gcd, integer_primitive, is_constant

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


def _scale(pairs, coeff) -> tuple:
    """Every term times coeff; the order is kept."""
    return tuple((e, c * coeff) for e, c in pairs)


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
        c = _rational(c)
        if not c:
            return ParamPoly(self.params)
        return ParamPoly._make(self.params, _scale(self.terms, c))

    def quo_ground(self, c: Fraction) -> "ParamPoly":
        return self.mul_ground(1 / _rational(c))

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at the point; only parameters that occur need a value."""
        return _evaluate(self.params, self.terms, values)

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


def param_poly_gcd(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    """Gcd in Q[params], normalized primitive with positive leading rational.

    The gcd of two zero polynomials is zero; a nonzero constant is a unit, so
    any pair involving one has gcd 1.
    """
    p._check(q)
    h, _, _ = gcd(integer_primitive(p.terms)[1], integer_primitive(q.terms)[1])
    return _from_integers(p.params, h, Fraction(1))


def param_poly_lcm(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    p._check(q)
    if not p or not q:
        return ParamPoly(p.params)
    f, g = integer_primitive(p.terms)[1], integer_primitive(q.terms)[1]
    lcm = _mul_add({}, f, gcd(f, g)[2])
    return _from_integers(p.params, lcm, Fraction(1 if lcm[max(lcm)] > 0 else -1))


class ParamFraction:
    """Element of Q(params) in the canonical form ``scale * f / g``.

    ``scale`` is rational; f and g are coprime ``{exponents: int}`` dicts,
    each primitive with a positive lex-leading coefficient; zero is scale 0
    and an empty f over g = 1.  Arithmetic works on these parts, the inputs
    of ``intgcd.gcd``; ``num`` (scale * f) and ``den`` (g) are views.
    """

    __slots__ = ("params", "scale", "f", "g")

    def __init__(self, num: ParamPoly, den: ParamPoly | None = None):
        n = normalize_fraction(num, ParamPoly.constant(num.params, 1) if den is None else den)
        self.params, self.scale, self.f, self.g = n.params, n.scale, n.f, n.g

    @classmethod
    def _make(cls, params: tuple[str, ...], scale: Fraction, f: dict, g: dict) -> "ParamFraction":
        out = cls.__new__(cls)
        out.params, out.scale, out.f, out.g = params, scale, f, g
        return out

    @classmethod
    def from_fraction(cls, params: tuple[str, ...], value) -> "ParamFraction":
        value = _rational(value)
        return cls._make(tuple(params), value, _unit(params) if value else {}, _unit(params))

    @classmethod
    def parameter(cls, params: tuple[str, ...], name: str) -> "ParamFraction":
        exps = ParamPoly.parameter(params, name).leading_exponents()
        return cls._make(tuple(params), Fraction(1), {exps: 1}, _unit(params))

    @classmethod
    def zero(cls, params: tuple[str, ...]) -> "ParamFraction":
        return cls.from_fraction(params, 0)

    @classmethod
    def one(cls, params: tuple[str, ...]) -> "ParamFraction":
        return cls.from_fraction(params, 1)

    @property
    def num(self) -> ParamPoly:
        return _from_integers(self.params, self.f, self.scale)

    @property
    def den(self) -> ParamPoly:
        return _from_integers(self.params, self.g, Fraction(1))

    def __bool__(self) -> bool:
        return bool(self.f)

    def is_constant(self) -> bool:
        return not self.f or (is_constant(self.f) and is_constant(self.g))

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.scale

    @property
    def negative_lead(self) -> bool:
        """True when the display form starts with a minus sign."""
        return self.scale < 0

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        den = _evaluate(self.params, self.g.items(), values)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.scale * _evaluate(self.params, self.f.items(), values) / den

    def _coerce(self, other) -> "ParamFraction | None":
        if isinstance(other, ParamFraction):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamFraction.from_fraction(self.params, other)
        return None

    def _check(self, other: "ParamFraction") -> None:
        if self.params != other.params:
            raise ValueError("mismatched parameter tuples")

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.params, self.scale, self.f, self.g) == (
            other.params, other.scale, other.f, other.g
        )

    def __hash__(self) -> int:
        if self.is_constant():
            return hash(self.scale)
        parts = frozenset(self.f.items()), frozenset(self.g.items())
        return hash((self.params, self.scale, parts))

    def __neg__(self) -> "ParamFraction":
        return ParamFraction._make(self.params, -self.scale, self.f, self.g)

    def __add__(self, other) -> "ParamFraction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        if not other.f:
            return self
        if not self.f:
            return other
        # s1*f1/g1 + s2*f2/g2 = scale * (n1*e2 + n2*e1) / (e1*e2*h) for the cofactors
        # e1, e2 of h = gcd(g1, g2) and the integers n1, n2 of s1, s2 over scale
        if self.g == other.g:
            h = self.g
            e1 = e2 = _unit(self.params)
        else:
            h, e1, e2 = gcd(self.g, other.g)
        scale = fraction_gcd((self.scale, other.scale))
        n1, n2 = (self.scale / scale).numerator, (other.scale / scale).numerator
        num = _mul_add({}, {e: c * n1 for e, c in self.f.items()}, e2)
        num = _mul_add(num, {e: c * n2 for e, c in other.f.items()}, e1)
        if not num:
            return ParamFraction.zero(self.params)
        content = math.gcd(*num.values())
        num = _quo_int(num, content)
        if not is_constant(h):
            # Henrici's rule: num is coprime to e1 (f1 and e2 are) and to e2, so
            # it can share factors only with h, and gcd(num, h) is all that cancels
            _, num, h = gcd(num, h)
        return _canonical(self.params, scale * content, num, _mul_add({}, _mul_add({}, e1, e2), h))

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
            return ParamFraction._make(self.params, self.scale * other, self.f, self.g)
        if not isinstance(other, ParamFraction):
            return NotImplemented
        self._check(other)
        if not (self.f and other.f):
            return ParamFraction.zero(self.params)
        # cofactors of positive primitive polynomials are positive and primitive
        _, f1, g2 = gcd(self.f, other.g)
        _, f2, g1 = gcd(other.f, self.g)
        f, g = _mul_add({}, f1, f2), _mul_add({}, g1, g2)
        return ParamFraction._make(self.params, self.scale * other.scale, f, g)

    def __rmul__(self, other) -> "ParamFraction":
        return self.__mul__(other)

    def invert(self) -> "ParamFraction":
        if not self.f:
            raise ZeroDivisionError("inverse of zero")
        return ParamFraction._make(self.params, 1 / self.scale, self.g, self.f)

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
        return _power(self, n, ParamFraction.one(self.params))

    def __str__(self) -> str:
        if is_constant(self.g):
            return str(self.num)
        num_s = str(self.num)
        if len(self.f) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if any(ch in den_s for ch in "*+- "):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"ParamFraction({str(self)!r}, params={self.params!r})"


def _unit(params: tuple[str, ...]) -> dict:
    """The integer polynomial 1."""
    return {(0,) * len(params): 1}


def _canonical(params: tuple[str, ...], scale: Fraction, f: dict, g: dict) -> ParamFraction:
    """scale * f / g in canonical form, for coprime primitive integer f and g."""
    if f[max(f)] < 0:
        scale, f = -scale, _quo_int(f, -1)
    if g[max(g)] < 0:
        scale, g = -scale, _quo_int(g, -1)
    return ParamFraction._make(params, scale, f, g)


def normalize_fraction(num: ParamPoly, den: ParamPoly) -> ParamFraction:
    """Put num/den into canonical form; raises on a zero denominator."""
    num._check(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return ParamFraction.zero(num.params)
    num_scale, f = integer_primitive(num.terms)
    den_scale, g = integer_primitive(den.terms)
    _, f, g = gcd(f, g)
    return _canonical(num.params, num_scale / den_scale, f, g)


def _cleared(coeffs: list[ParamFraction]) -> list[ParamFraction]:
    """Nonzero coefficients times the one factor that clears all of them.

    The results are integer polynomials with no common factor, and the
    first one's leading coefficient is positive.
    """
    params = coeffs[0].params
    lcm = _unit(params)
    for c in coeffs:
        lcm = _mul_add({}, lcm, gcd(lcm, c.g)[2])
    parts = [_mul_add({}, c.f, _exact_quotient(lcm, c.g)) for c in coeffs]
    common = parts[0]
    for part in parts[1:]:
        if is_constant(common):
            break
        common = gcd(common, part)[0]
    if not is_constant(common):
        parts = [_exact_quotient(part, common) for part in parts]
    factor = fraction_gcd(c.scale for c in coeffs) * (1 if coeffs[0].scale > 0 else -1)
    unit = _unit(params)
    return [ParamFraction._make(params, c.scale / factor, p, unit) for c, p in zip(coeffs, parts)]


# not typing.Union: its cache would keep every imported copy of this class alive
Coefficient = Fraction | ParamFraction


def _lifted(coeff: Coefficient) -> ParamFraction:
    """A coefficient as a ParamFraction; a plain Fraction becomes one over no parameters."""
    if isinstance(coeff, ParamFraction):
        return coeff
    return ParamFraction.from_fraction((), coeff)

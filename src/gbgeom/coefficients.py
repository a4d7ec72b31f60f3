"""Exact coefficient arithmetic: rationals and rational functions of parameters.

Coefficients live in the field Q(p1, ..., pk) of rational functions in a fixed
tuple of parameter names.  ``ParamPoly`` is a multivariate polynomial over Q in
those parameters; ``ParamFraction`` is a quotient of two of them kept in a
canonical form, so equality is structural and hashing is cheap.  Plain
rationals are the k = 0 case and are handled by the same types with an empty
parameter tuple.

Everything here is immutable and exact; no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

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


def _monomial_str(names: tuple[str, ...], exponents: Exponents) -> str:
    """Power product such as ``x^2*y``; empty for the unit monomial."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e > 0
    )


class ParamPoly:
    """Polynomial over Q in a fixed tuple of parameters.

    Terms are held as a tuple of ``(exponents, coefficient)`` pairs sorted in
    descending lexicographic order of the exponent tuples, with nonzero
    Fraction coefficients.  The representation is canonical, so ``==`` and
    ``hash`` are structural.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: tuple[str, ...], terms: Iterable[tuple[Exponents, Fraction]] = ()):
        acc: dict[Exponents, Fraction] = {}
        for exps, coeff in terms:
            if not coeff:
                continue
            prev = acc.get(exps)
            total = coeff if prev is None else prev + coeff
            if total:
                acc[exps] = total
            else:
                del acc[exps]
        self.params = tuple(params)
        self.terms = tuple(sorted(acc.items(), reverse=True))

    @classmethod
    def constant(cls, params: tuple[str, ...], value) -> "ParamPoly":
        value = Fraction(value)
        if not value:
            return cls(params)
        return cls(params, [((0,) * len(params), value)])

    @classmethod
    def parameter(cls, params: tuple[str, ...], name: str) -> "ParamPoly":
        i = params.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(params)))
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
        out = ParamPoly.__new__(ParamPoly)
        out.params = self.params
        out.terms = tuple((e, -c) for e, c in self.terms)
        return out

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
        acc = dict(self.terms)
        for exps, coeff in other.terms:
            total = acc.get(exps, 0) + coeff
            if total:
                acc[exps] = total
            else:
                acc.pop(exps, None)
        out = ParamPoly.__new__(ParamPoly)
        out.params = self.params
        out.terms = tuple(sorted(acc.items(), reverse=True))
        return out

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
        acc: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exps = tuple(a + b for a, b in zip(e1, e2))
                total = acc.get(exps, 0) + c1 * c2
                if total:
                    acc[exps] = total
                else:
                    acc.pop(exps, None)
        out = ParamPoly.__new__(ParamPoly)
        out.params = self.params
        out.terms = tuple(sorted(acc.items(), reverse=True))
        return out

    def __rmul__(self, other) -> "ParamPoly":
        return self * other

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ParamPoly.constant(self.params, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def mul_ground(self, c: Fraction) -> "ParamPoly":
        if not c:
            return ParamPoly(self.params)
        out = ParamPoly.__new__(ParamPoly)
        out.params = self.params
        out.terms = tuple((e, k * c) for e, k in self.terms)
        return out

    def quo_ground(self, c: Fraction) -> "ParamPoly":
        return self.mul_ground(Fraction(1) / Fraction(c))

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at the point; only parameters that occur need a value."""
        total = Fraction(0)
        for exps, coeff in self.terms:
            term = coeff
            for name, e in zip(self.params, exps):
                if e:
                    term *= Fraction(values[name]) ** e
            total += term
        return total

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(e[index] for e, _ in self.terms)

    def coefficient_in(self, index: int, degree: int) -> "ParamPoly":
        """Coefficient of the given power of one parameter, as a polynomial."""
        picked = []
        for exps, coeff in self.terms:
            if exps[index] == degree:
                reduced = exps[:index] + (0,) + exps[index + 1:]
                picked.append((reduced, coeff))
        return ParamPoly(self.params, picked)

    def content(self) -> Fraction:
        return fraction_gcd(c for _, c in self.terms)

    def primitive(self) -> "ParamPoly":
        c = self.content()
        if not c or c == 1:
            return self
        return self.quo_ground(c)

    def exact_div(self, divisor: "ParamPoly") -> "ParamPoly":
        """Quotient self / divisor, raising ValueError unless it divides exactly."""
        self._check(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return self
        if divisor.is_constant():
            return self.quo_ground(divisor.constant_value())
        if len(divisor.terms) == 1:
            dexps, dcoeff = divisor.terms[0]
            out = []
            for exps, coeff in self.terms:
                q = tuple(a - b for a, b in zip(exps, dexps))
                if any(e < 0 for e in q):
                    raise ValueError("not exactly divisible")
                out.append((q, coeff / dcoeff))
            return ParamPoly(self.params, out)
        rem = dict(self.terms)
        quo: dict[Exponents, Fraction] = {}
        dexps, dcoeff = divisor.terms[0]
        while rem:
            exps = max(rem)
            qe = tuple(a - b for a, b in zip(exps, dexps))
            if any(e < 0 for e in qe):
                raise ValueError("not exactly divisible")
            qc = rem[exps] / dcoeff
            quo[qe] = quo.get(qe, 0) + qc
            for oe, oc in divisor.terms:
                ne = tuple(a + b for a, b in zip(qe, oe))
                nc = rem.get(ne, Fraction(0)) - qc * oc
                if nc:
                    rem[ne] = nc
                else:
                    rem.pop(ne, None)
        return ParamPoly(self.params, quo.items())

    def _check(self, other: "ParamPoly") -> None:
        if self.params != other.params:
            raise ValueError("mismatched parameter tuples")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms:
            mono = _monomial_str(self.params, exps)
            if not mono:
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = "-" + mono
            else:
                text = f"{coeff}*{mono}"
            pieces.append(text)
        out = pieces[0]
        for text in pieces[1:]:
            if text.startswith("-"):
                out += " - " + text[1:]
            else:
                out += " + " + text
        return out

    def __repr__(self) -> str:
        return f"ParamPoly({str(self)!r}, params={self.params!r})"


def _monomial_content(p: ParamPoly) -> Exponents:
    mins = list(p.terms[0][0])
    for exps, _ in p.terms[1:]:
        for i, e in enumerate(exps):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


def _normalize_sign(p: ParamPoly) -> ParamPoly:
    p = p.primitive()
    if p and p.leading_coefficient() < 0:
        p = -p
    return p


def _content_in(p: ParamPoly, index: int) -> ParamPoly:
    cont = ParamPoly(p.params)
    for degree in range(p.degree_in(index) + 1):
        c = p.coefficient_in(index, degree)
        if c:
            cont = _gcd(cont, c)
            if cont.is_constant():
                break
    return _normalize_sign(cont) if not cont.is_constant() else ParamPoly.constant(p.params, 1)


def _pseudo_rem(f: ParamPoly, g: ParamPoly, index: int) -> ParamPoly:
    dg = g.degree_in(index)
    lead_g = g.coefficient_in(index, dg)
    r = f
    while r and r.degree_in(index) >= dg:
        dr = r.degree_in(index)
        lead_r = r.coefficient_in(index, dr)
        shift_exps = tuple(dr - dg if j == index else 0 for j in range(len(f.params)))
        shift = ParamPoly(f.params, [(shift_exps, Fraction(1))])
        r = lead_g * r - lead_r * shift * g
    return r


def _gcd(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    if not p:
        return q
    if not q:
        return p
    if p.is_constant() or q.is_constant():
        return ParamPoly.constant(p.params, 1)
    if len(p.terms) == 1 or len(q.terms) == 1:
        mono = tuple(min(a, b) for a, b in zip(_monomial_content(p), _monomial_content(q)))
        return ParamPoly(p.params, [(mono, Fraction(1))])
    index = 0
    while p.degree_in(index) == 0 and q.degree_in(index) == 0:
        index += 1
    dp = p.degree_in(index)
    dq = q.degree_in(index)
    if dp == 0:
        return _gcd(p, _content_in(q, index))
    if dq == 0:
        return _gcd(_content_in(p, index), q)
    cont_p = _content_in(p, index)
    cont_q = _content_in(q, index)
    cont = _gcd(cont_p, cont_q)
    f = _normalize_sign(p.exact_div(cont_p))
    g = _normalize_sign(q.exact_div(cont_q))
    if f.degree_in(index) < g.degree_in(index):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g, index)
        if r:
            r = _normalize_sign(r.exact_div(_content_in(r, index)))
        f, g = g, r
    return cont * f


def param_poly_gcd(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    """Gcd in Q[params], normalized primitive with positive leading rational.

    The gcd of two zero polynomials is zero; a nonzero constant is a unit, so
    any pair involving one has gcd 1.
    """
    p._check(q)
    if not p and not q:
        return p
    return _normalize_sign(_gcd(p, q))


def param_poly_lcm(p: ParamPoly, q: ParamPoly) -> ParamPoly:
    p._check(q)
    if not p or not q:
        return ParamPoly(p.params)
    return _normalize_sign((p * q).exact_div(param_poly_gcd(p, q)))


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

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

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
        g = param_poly_gcd(self.den, other.den)
        if g.is_one():
            num = self.num * other.den + other.num * self.den
            return _scaled(num, self.den * other.den)
        d1 = self.den.exact_div(g)
        d2 = other.den.exact_div(g)
        return normalize_fraction(self.num * d2 + other.num * d1, d1 * d2 * g)

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
        g1 = param_poly_gcd(self.num, other.den)
        g2 = param_poly_gcd(other.num, self.den)
        num = self.num.exact_div(g1) * other.num.exact_div(g2)
        den = self.den.exact_div(g2) * other.den.exact_div(g1)
        return _scaled(num, den)

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
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced.__mul__(self.invert())

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
    g = param_poly_gcd(num, den)
    if not g.is_one():
        num = num.exact_div(g)
        den = den.exact_div(g)
    return _scaled(num, den)

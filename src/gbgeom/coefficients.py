"""Exact coefficient arithmetic: rationals and rational functions of parameters.

Coefficients live in the field Q(p1, ..., pk) of rational functions in a fixed
tuple of parameter names.  ``ParamPoly`` is a multivariate polynomial over Q in
those parameters; ``ParamFraction`` is a quotient of two of them kept in a
canonical form, so equality is structural and hashing is cheap.  When there
are no parameters (k = 0) the field is Q itself and its elements are plain
``Fraction`` values: ``VarContext.coefficient`` picks the domain from the
parameter tuple, and code shared by both domains combines coefficients only
through operators both types support (``+``, ``*``, ``1 / c``, ``c == 1``).
``_lifted`` turns a ``Fraction`` into a ``ParamFraction`` for the few places
that need a numerator and a denominator polynomial.

Everything here is immutable and exact; no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from .intgcd import common_divisor, coprime, integer_primitive, is_constant

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
    ``hash`` are structural.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: tuple[str, ...], terms: Iterable[tuple[Exponents, Fraction]] = ()):
        self.params = tuple(params)
        self.terms = _lex_sorted(_collect(terms, {}))

    @classmethod
    def _make(cls, params: tuple[str, ...], terms: tuple) -> "ParamPoly":
        out = cls.__new__(cls)
        out.params = params
        out.terms = terms
        return out

    @classmethod
    def constant(cls, params: tuple[str, ...], value) -> "ParamPoly":
        value = Fraction(value)
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

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(e[index] for e, _ in self.terms)

    def coefficient_in(self, index: int, degree: int) -> "ParamPoly":
        """Coefficient of the given power of one parameter, as a polynomial."""
        # terms that agree on one exponent stay distinct and sorted when it is zeroed
        picked = tuple(
            (e[:index] + (0,) + e[index + 1:], c) for e, c in self.terms if e[index] == degree
        )
        return ParamPoly._make(self.params, picked)

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
        dexps, dcoeff = divisor.terms[0]
        if len(divisor.terms) == 1:
            if any(e < d for exps, _ in self.terms for e, d in zip(exps, dexps)):
                raise ValueError("not exactly divisible")
            shift = tuple(-d for d in dexps)
            return ParamPoly._make(self.params, _scale(self.terms, 1 / dcoeff, shift))
        rem = dict(self.terms)
        quo = []
        while rem:
            exps = max(rem)
            qe = tuple(a - b for a, b in zip(exps, dexps))
            if any(e < 0 for e in qe):
                raise ValueError("not exactly divisible")
            qc = rem[exps] / dcoeff
            quo.append((qe, qc))  # qe falls strictly, so quo stays lex-sorted
            _collect(_scale(divisor.terms, -qc, qe), rem)
        return ParamPoly._make(self.params, tuple(quo))

    def _check(self, other: "ParamPoly") -> None:
        if self.params != other.params:
            raise ValueError("mismatched parameter tuples")

    def __str__(self) -> str:
        return _join_signed((c < 0, _term_str(self.params, e, str(abs(c)))) for e, c in self.terms)

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
        shift = tuple(dr - dg if j == index else 0 for j in range(len(f.params)))
        r = lead_g * r - lead_r * ParamPoly._make(f.params, _scale(g.terms, 1, shift))
    return r


def _heuristic_gcd(p: ParamPoly, q: ParamPoly) -> ParamPoly | None:
    """gcd(p, q) up to a unit, or None when GCDHEU finds no common divisor it can prove.

    A common divisor is the gcd when one cofactor is constant or the
    cofactors are coprime.
    """
    found = common_divisor(integer_primitive(p.terms), integer_primitive(q.terms))
    if found is None:
        return None
    h, cf, cg = found
    if not (is_constant(cf) or is_constant(cg) or coprime(cf.items(), cg.items())):
        return None
    return ParamPoly._make(p.params, _lex_sorted({e: Fraction(c) for e, c in h.items()}))


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
    if coprime(p.terms, q.terms):
        return ParamPoly.constant(p.params, 1)
    heuristic = _heuristic_gcd(p, q)
    if heuristic is not None:
        return heuristic
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
        if self.den.is_one() and other.den.is_one():
            return ParamFraction._raw(self.num * other.num, self.den)
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
    g = param_poly_gcd(num, den)
    if not g.is_one():
        num = num.exact_div(g)
        den = den.exact_div(g)
    return _scaled(num, den)


# not typing.Union: its cache would keep every imported copy of this class alive
Coefficient = Fraction | ParamFraction


def _lifted(coeff: Coefficient) -> ParamFraction:
    """A coefficient as a ParamFraction; a plain Fraction becomes one over no parameters."""
    if isinstance(coeff, ParamFraction):
        return coeff
    return ParamFraction.from_fraction((), coeff)

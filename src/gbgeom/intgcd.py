"""The gcd of the coefficient field, on sparse polynomials over Z.

Polynomials here are ``{exponents: int}`` dicts, so the code needs nothing
from the classes that use it; ``integer_primitive`` turns nonzero Fraction
terms into such a dict and the rational it was scaled by.  ``gcd`` takes two
primitive polynomials and returns their gcd, primitive with a positive
leading coefficient, together with both cofactors, so a caller that cancels
the gcd divides nothing again.  It is one ladder, and each step that decides
returns its own answer: a zero input; a constant input, whose gcd is 1;
``_monomial_gcd``, which splits off the inputs' monomial contents (a single
term is all content), so every later step sees inputs with none;
``_divisor_gcd``, which settles the pairs in which one input divides the
other, or is irreducible by its degree 1 in a parameter, with at most one
exact division per ordered pair; ``coprime``, which proves most other pairs
coprime from modular images; the heuristic gcd GCDHEU (``common_divisor``),
which counts when a cofactor is constant or ``coprime`` proves the cofactors
coprime; and the primitive remainder sequence over Z.  Every answer is
proven, never assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, le, sub

# The coprimality proof (Brown, J. ACM 18, 1971).  Map p and q to Z_P[t] for
# one parameter t, with every other parameter at a fixed point.  When neither
# leading coefficient in t vanishes there, the image of gcd(p, q) keeps its
# degree in t and divides both images (Gauss's lemma), so the degree of the
# image gcd bounds the degree in t of the true gcd from above.  An unlucky
# point only makes the bound decide nothing; it is never wrong.
PRIME = 2**61 - 1


def point_value(index: int) -> int:
    """The fixed value of the parameter at index in every image."""
    return 4 ** (index + 5) + 7


def _image(f: dict, index: int, degree: int, values: list[int]) -> list[int] | None:
    """f in Z_P[t] for the parameter t at index, dense with the constant first.

    None when the leading coefficient in t vanishes at the point, since the
    image would then lose degree.
    """
    dense = [0] * (degree + 1)
    for exps, c in f.items():
        for j, e in enumerate(exps):
            if e and j != index:
                c = c * pow(values[j], e, PRIME)
        dense[exps[index]] += c
    dense = [v % PRIME for v in dense]
    return dense if dense[-1] else None


def _image_gcd_degree(f: list[int], g: list[int]) -> int:
    """Degree of the gcd of two nonzero dense polynomials over Z_P."""
    while g:
        f = f[:]
        dg = len(g) - 1
        inverse = pow(g[-1], -1, PRIME)
        for k in range(len(f) - 1, dg - 1, -1):
            c = f[k] * inverse % PRIME
            if c:
                shift = k - dg
                for j in range(dg):  # the leading term cancels exactly
                    f[shift + j] = (f[shift + j] - c * g[j]) % PRIME
        del f[dg:]
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    return len(f) - 1


def _degrees(f: dict) -> list[int]:
    """The degree in each parameter of a nonzero polynomial."""
    return [max(column) for column in zip(*f)]


def coprime(f: dict, g: dict) -> bool:
    """True when the images prove two nonzero polynomials coprime.

    Bounds of 0 for every shared parameter prove the gcd is a constant,
    since the gcd contains no parameter that only one input contains.
    False decides nothing.
    """
    df, dg = _degrees(f), _degrees(g)
    values = [point_value(j) for j in range(len(df))]
    for i, (a, b) in enumerate(zip(df, dg)):
        if a and b:
            ff, gg = _image(f, i, a, values), _image(g, i, b, values)
            if ff is None or gg is None or _image_gcd_degree(ff, gg):
                return False
    return True


# The heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989).
# Set the last parameter to an integer xi, take the gcd of the images one
# level down, and read a candidate off the symmetric xi-adic digits of the
# image gcd (or of a cofactor image).  A candidate counts only when it
# divides both inputs exactly over Z, so every level returns a true common
# divisor.  It is the greatest one when a cofactor is constant or
# ``coprime`` proves the cofactors coprime, which ``_heuristic_gcd`` checks.
_HEURISTIC_POINTS = 6


def integer_primitive(terms) -> tuple[Fraction, dict]:
    """(c, f) for Fraction terms equal to c * f, with f primitive over Z; (0, {}) for none."""
    scale = math.lcm(*(c.denominator for _, c in terms))
    ints = {e: c.numerator * (scale // c.denominator) for e, c in terms}
    content = math.gcd(*ints.values())
    return Fraction(content, scale), _quo_int(ints, content)


def _quo_int(f: dict, c: int) -> dict:
    return f if c == 1 else {e: v // c for e, v in f.items()}


def is_constant(f: dict) -> bool:
    """True for a nonzero constant."""
    return len(f) == 1 and not any(next(iter(f)))


def _constant(like: dict, c: int = 1) -> dict:
    """The constant c, in the parameters of the nonzero polynomial like."""
    return {(0,) * len(next(iter(like))): c}


def _exact_quotient(f: dict, h: dict) -> dict | None:
    """f / h over Z when h divides f exactly, else None."""
    lead = max(h)
    lead_coeff = h[lead]
    tail = {e: c for e, c in h.items() if e != lead}
    # in an exact quotient each degree is the difference of the degrees
    room = list(map(sub, _degrees(f), _degrees(h)))
    if min(room, default=0) < 0:
        return None
    rem = dict(f)
    quo = {}
    while rem:
        exps = max(rem)
        qe = tuple(map(sub, exps, lead))
        if any(q < 0 or q > r for q, r in zip(qe, room)):
            return None
        qc, r = divmod(rem.pop(exps), lead_coeff)
        if r:
            return None
        quo[qe] = qc
        _mul_add(rem, {qe: -qc}, tail)
    return quo


def _at(f: dict, index: int, xi: int) -> dict:
    """f with the parameter at index set to xi."""
    out: dict = {}
    for exps, c in f.items():
        e = exps[index]
        if e:
            exps = exps[:index] + (0,) + exps[index + 1:]
            c *= xi**e
        out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c}


def _rebuild(image: dict, index: int, xi: int) -> dict:
    """The polynomial in the parameter at index whose coefficients are the
    symmetric xi-adic digits of the image's coefficients."""
    out = {}
    half = xi // 2
    for exps, c in image.items():
        power = 0
        while c:
            digit = c % xi
            if digit > half:
                digit -= xi
            if digit:
                out[exps[:index] + (power,) + exps[index + 1:]] = digit
            c = (c - digit) // xi
            power += 1
    return out


def _candidates(f: dict, g: dict, images: tuple, index: int, xi: int):
    """Candidate common divisors from the image gcd, then from each cofactor image."""
    h = _rebuild(images[0], index, xi)
    yield _quo_int(h, math.gcd(*h.values()))
    yield _exact_quotient(f, _rebuild(images[1], index, xi))
    yield _exact_quotient(g, _rebuild(images[2], index, xi))


def common_divisor(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f / h, g / h) for a common divisor h of nonzero f and g over Z, or None."""
    content = math.gcd(*f.values(), *g.values())
    f, g = _quo_int(f, content), _quo_int(g, content)
    if is_constant(f) or is_constant(g):
        return _constant(f, content), f, g
    index = max(i for exps in (*f, *g) for i, e in enumerate(exps) if e)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEURISTIC_POINTS):
        ff, gg = _at(f, index, xi), _at(g, index, xi)
        images = common_divisor(ff, gg) if ff and gg else None
        if images is not None:
            for h in _candidates(f, g, images, index, xi):
                cf = h and _exact_quotient(f, h)
                cg = cf and _exact_quotient(g, h)
                if cg:
                    return {e: c * content for e, c in h.items()}, cf, cg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _heuristic_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """``gcd`` from GCDHEU for primitive f and g, or None when it proves nothing.

    A common divisor is the gcd when one cofactor is constant or the
    cofactors are coprime.
    """
    found = common_divisor(f, g)
    if found is None:
        return None
    h, cf, cg = found
    if not (is_constant(cf) or is_constant(cg) or coprime(cf, cg)):
        return None
    return found if h[max(h)] > 0 else (_quo_int(h, -1), _quo_int(cf, -1), _quo_int(cg, -1))


# The fallback: the primitive remainder sequence in the first parameter t
# either input contains, over Z[other parameters].  The contents in t are
# gcds one parameter down, taken by ``gcd`` itself.


def _primitive(f: dict) -> dict:
    """Nonzero f over its integer content, with a positive leading coefficient."""
    content = math.gcd(*f.values())
    return _quo_int(f, content if f[max(f)] > 0 else -content)


def _coefficient_in(f: dict, index: int, degree: int, shift: int = 0) -> dict:
    """The coefficient of t^degree in f, for the parameter t at index, times t^shift."""
    return {e[:index] + (shift,) + e[index + 1:]: c for e, c in f.items() if e[index] == degree}


def _mul_add(acc: dict, f: dict, g: dict) -> dict:
    """acc plus f * g, in place, dropping zeros."""
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(map(add, e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2
            if not acc[key]:
                del acc[key]
    return acc


def _content_in(f: dict, index: int) -> dict:
    """The gcd of the coefficients of f in the parameter at index."""
    content: dict = {}
    for degree in {e[index] for e in f}:
        content = gcd(content, _primitive(_coefficient_in(f, index, degree)))[0]
    return content


def _remainder_sequence(f: dict, g: dict) -> dict:
    """gcd(f, g) for primitive f and g, neither constant."""
    index = min(i for exps in (*f, *g) for i, e in enumerate(exps) if e)
    contents = [_content_in(f, index), _content_in(g, index)]
    f, g = map(_exact_quotient, (f, g), contents)
    if _degrees(f)[index] < _degrees(g)[index]:
        f, g = g, f
    while g:
        # r = lc(g)^k * f reduced by g in the parameter at index, up to sign
        dg = _degrees(g)[index]
        lead_g = _quo_int(_coefficient_in(g, index, dg), -1)
        r = f
        while r and (dr := _degrees(r)[index]) >= dg:
            r = _mul_add(_mul_add({}, lead_g, r), _coefficient_in(r, index, dr, dr - dg), g)
        if r:
            r = _primitive(_exact_quotient(r, _content_in(r, index)))
        f, g = g, r
    return _primitive(_mul_add({}, gcd(*contents)[0], f))


# The exact steps before any modular image.  A monomial x^m_f that divides f
# is prime to every polynomial that no variable divides, so gcd(f, g) is x^m,
# m = min(m_f, m_g), times the gcd of f / x^m_f and g / x^m_g.  That split is
# the ladder's invariant: no later step sees an input with monomial content.
# On such inputs an input p of degree 1 in a parameter t, with t in one term
# only, is irreducible: a factor free of t divides the coefficient of t, a
# monomial, so it is a unit, and the gcd of p and q is p or 1.  Any other
# input may still divide the other one, when the degree bounds and the term
# counts allow it.  Either way one exact division decides, tried only after
# the values of both inputs at the fixed point divide as integers, as they
# must when the polynomials do.


def _shift(f: dict, m: tuple, op) -> dict:
    """f times the monomial x^m with op add, f over it with op sub."""
    return {tuple(map(op, e, m)): c for e, c in f.items()} if any(m) else f


def _monomial_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """``gcd`` when f or g has monomial content, from the gcd without it; else None."""
    mf, mg = tuple(map(min, zip(*f))), tuple(map(min, zip(*g)))
    if not (any(mf) or any(mg)):
        return None
    m = tuple(map(min, mf, mg))
    if len(f) == 1 or len(g) == 1:
        # a single term is all content, so the gcd without the contents is 1
        return {m: 1}, _shift(f, m, sub), _shift(g, m, sub)
    h, cf, cg = gcd(_shift(f, mf, sub), _shift(g, mg, sub))
    cf, cg = _shift(cf, tuple(map(sub, mf, m)), add), _shift(cg, tuple(map(sub, mg, m)), add)
    return _shift(h, m, add), cf, cg


def _value(f: dict) -> int:
    """f at the fixed point."""
    values = [point_value(j) for j in range(len(next(iter(f))))]
    total = 0
    for exps, c in f.items():
        for v, e in zip(values, exps):
            if e:
                c *= v**e
        total += c
    return total


def _divides(d: dict, m: dict) -> tuple[dict, dict, dict] | None:
    """``gcd(d, m)`` when d divides m, else None; the caller checks the degree bounds."""
    a, b = _value(d), _value(m)
    if (b % a if a else b) or (quotient := _exact_quotient(m, d)) is None:
        return None
    # the gcd is the divisor made primitive and positive; its content and
    # sign move to both cofactors
    content = math.gcd(*d.values()) * (1 if d[max(d)] > 0 else -1)
    if content != 1:
        quotient = {e: c * content for e, c in quotient.items()}
    return _quo_int(d, content), _constant(d, content), quotient


def _divisor_gcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """``gcd`` when an input divides the other or is irreducible, else None.

    Each input is tried once as the divisor, when the degree bounds allow it
    and it has no more terms than the other or is irreducible; an
    irreducible input that does not divide the other leaves the gcd 1.
    """
    df, dg = _degrees(f), _degrees(g)
    for p, q, dp, dq in ((f, g, df, dg), (g, f, dg, df)):
        irreducible = 1 in map(sum, zip(*p))
        if (irreducible or len(p) <= len(q)) and all(map(le, dp, dq)):
            found = _divides(p, q)
            if found is not None:
                return found if p is f else (found[0], found[2], found[1])
        if irreducible:
            return _constant(f), f, g
    return None


def gcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f / h, g / h) for the gcd h of primitive f and g over Z.

    h is primitive with a positive leading coefficient, which makes it
    canonical; the gcd of 0 and 0 is 0, with cofactors 0.
    """
    if not (f or g):
        return {}, {}, {}
    if not (f and g):
        h = _primitive(f or g)
    elif is_constant(f) or is_constant(g):
        return _constant(f), f, g
    elif found := _monomial_gcd(f, g) or _divisor_gcd(f, g):
        return found
    elif coprime(f, g):
        return _constant(f), f, g
    elif found := _heuristic_gcd(f, g):
        return found
    else:
        h = _remainder_sequence(f, g)
    return h, _exact_quotient(f, h), _exact_quotient(g, h)

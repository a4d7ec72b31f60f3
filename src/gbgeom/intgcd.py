"""Gcd machinery for sparse polynomials over Z, for the coefficient field.

Polynomials here are ``{exponents: int}`` dicts, or sequences of
``(exponents, coefficient)`` pairs with int or Fraction coefficients, so the
code needs nothing from the classes that use it.  ``coprime`` proves two
polynomials coprime from modular images; ``common_divisor`` finds a common
divisor and its cofactors with the heuristic gcd GCDHEU.  The caller turns
the two into a proven gcd.
"""

from __future__ import annotations

import math
from operator import add, sub

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


def _image(terms, index: int, degree: int, values: list[int]) -> list[int] | None:
    """The terms in Z_P[t] for the parameter t at index, dense with the constant first.

    Coefficients may be ints or Fractions.  None when a denominator is
    divisible by P or the leading coefficient in t vanishes at the point,
    since the image would then lose degree.
    """
    dense = [0] * (degree + 1)
    for exps, c in terms:
        den = c.denominator % PRIME
        if not den:
            return None
        v = c.numerator if den == 1 else c.numerator * pow(den, -1, PRIME)
        for j, e in enumerate(exps):
            if e and j != index:
                v = v * pow(values[j], e, PRIME)
        dense[exps[index]] += v
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


def _degrees(terms) -> list[int]:
    """The degree in each parameter of nonzero terms."""
    return [max(column) for column in zip(*(exps for exps, _ in terms))]


def coprime(p_terms, q_terms) -> bool:
    """True when the images prove two nonzero term sequences coprime.

    Bounds of 0 for every shared parameter prove the gcd is a constant,
    since the gcd contains no parameter that only one input contains.
    False decides nothing.
    """
    dp = _degrees(p_terms)
    dq = _degrees(q_terms)
    values = [point_value(j) for j in range(len(dp))]
    for i in range(len(dp)):
        if not (dp[i] and dq[i]):
            continue
        fp = _image(p_terms, i, dp[i], values)
        fq = _image(q_terms, i, dq[i], values)
        if fp is None or fq is None or _image_gcd_degree(fp, fq):
            return False
    return True


# The heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989) on
# {exponents: int} dicts.  Set the last parameter to an integer xi, take the
# gcd of the images one level down, and read a candidate off the symmetric
# xi-adic digits of the image gcd (or of a cofactor image).  A candidate
# counts only when it divides both inputs exactly over Z, so every level
# returns a true common divisor.  It is the greatest one when a cofactor is
# constant or ``coprime`` proves the cofactors coprime, which the caller checks.
_HEURISTIC_POINTS = 6


def integer_primitive(terms) -> dict:
    """Nonzero Fraction terms times the rational that makes them primitive over Z."""
    scale = math.lcm(*(c.denominator for _, c in terms))
    ints = {e: c.numerator * (scale // c.denominator) for e, c in terms}
    content = math.gcd(*ints.values())
    return {e: c // content for e, c in ints.items()}


def _quo_int(f: dict, c: int) -> dict:
    return f if c == 1 else {e: v // c for e, v in f.items()}


def is_constant(f: dict) -> bool:
    """True for a nonzero constant."""
    return len(f) == 1 and not any(next(iter(f)))


def _exact_quotient(f: dict, h: dict) -> dict | None:
    """f / h over Z when h divides f exactly, else None."""
    lead = max(h)
    lead_coeff = h[lead]
    tail = [(e, c) for e, c in h.items() if e != lead]
    # in an exact quotient each degree is the difference of the degrees
    room = list(map(sub, _degrees(f.items()), _degrees(h.items())))
    if min(room) < 0:
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
        for e, c in tail:
            key = tuple(map(add, e, qe))
            total = rem.get(key, 0) - qc * c
            if total:
                rem[key] = total
            else:
                rem.pop(key, None)
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
        return {(0,) * len(next(iter(f))): content}, f, g
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

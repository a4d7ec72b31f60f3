"""Stdlib comparison of rendered answers against oracle answers.

Both sides arrive as text.  A small parser independent of the program under
test reads each expression into N/D, a numerator polynomial over Q in all
names and a denominator that must be free of the variables, using only
products and sums, so no gcd is ever taken.  Two basis elements agree when
they are equal up to a nonzero factor in Q(params); normal forms must agree
exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

Poly = dict  # exponent tuple over (variables + parameters) -> nonzero Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[-+*/^()]))")


class CheckError(ValueError):
    """Text the checker cannot read, or a malformed oracle answer."""


def _add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = dict(p)
    for e, c in q.items():
        total = out.get(e, 0) + sign * c
        if total:
            out[e] = total
        else:
            out.pop(e, None)
    return out


def _mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            total = out.get(e, 0) + c1 * c2
            if total:
                out[e] = total
            else:
                out.pop(e, None)
    return out


class _Parser:
    def __init__(self, text: str, names: tuple[str, ...]):
        self.names = names
        self.tokens = []
        pos = 0
        text = text.strip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                raise CheckError(f"cannot read {text[pos:pos + 20]!r}")
            self.tokens.append(m.group(1) or m.group(2) or ("^" if m.group(3) == "**" else m.group(3)))
            pos = m.end()
        self.i = 0

    def const(self, c) -> tuple[Poly, Poly]:
        zero = (0,) * len(self.names)
        return ({zero: Fraction(c)} if c else {}), {zero: Fraction(1)}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise CheckError("unexpected end of expression")
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise CheckError(f"unexpected {self.peek()!r}")
        return value

    def expr(self):
        # Sum the terms per distinct denominator first: printed rational
        # functions repeat a few denominators many times, and combining them
        # term by term would multiply the same denominator in again and again.
        groups: dict[frozenset, tuple[Poly, Poly]] = {}
        sign = 1
        while True:
            n, d = self.term()
            if len(d) == 1 and not any(next(iter(d))):
                scale = sign / next(iter(d.values()))
                n, d = {e: c * scale for e, c in n.items()}, self.const(1)[1]
            elif sign < 0:
                n = {e: -c for e, c in n.items()}
            key = frozenset(d.items())
            if key in groups:
                n = _add(groups[key][0], n)
            groups[key] = (n, d)
            if self.peek() not in ("+", "-"):
                break
            sign = 1 if self.take() == "+" else -1
        (n, d), *rest = groups.values()
        for n2, d2 in rest:
            n, d = _add(_mul(n, d2), _mul(n2, d)), _mul(d, d2)
        return n, d

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            (n1, d1), (n2, d2) = value, self.unary()
            if op == "*":
                value = (_mul(n1, n2), _mul(d1, d2))
            else:
                if not n2:
                    raise CheckError("division by zero")
                value = (_mul(n1, d2), _mul(d1, n2))
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            n, d = self.unary()
            return {e: -c for e, c in n.items()}, d
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        exponent = self.exponent()
        if exponent < 0:
            if not base[0]:
                raise CheckError("negative power of zero")
            base, exponent = (base[1], base[0]), -exponent
        n, d = self.const(1)
        for _ in range(exponent):
            n, d = _mul(n, base[0]), _mul(d, base[1])
        return n, d

    def exponent(self) -> int:
        """An integer exponent: ``2``, ``(2)`` or ``(-2)``."""
        tok = self.take()
        if tok.isdigit():
            return int(tok)
        if tok == "(":
            sign = -1 if self.peek() == "-" and self.take() else 1
            tok = self.take()
            if tok.isdigit() and self.take() == ")":
                return sign * int(tok)
        raise CheckError("exponent is not an integer")

    def atom(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise CheckError("unbalanced parentheses")
            return value
        if tok.isdigit():
            return self.const(int(tok))
        if tok in self.names:
            e = tuple(int(name == tok) for name in self.names)
            return {e: Fraction(1)}, self.const(1)[1]
        raise CheckError(f"unknown name {tok!r}")


def parse(text: str, variables, params=()) -> tuple[Poly, Poly]:
    """Read ``text`` as N/D over Q; D must not involve the variables."""
    n, d = _Parser(text, tuple(variables) + tuple(params)).parse()
    nv = len(variables)
    if any(any(e[:nv]) for e in d):
        raise CheckError(f"denominator involves a variable in {text!r}")
    return n, d


def _by_monomial(n: Poly, nv: int) -> dict:
    grouped: dict = {}
    for e, c in n.items():
        grouped.setdefault(e[:nv], {})[e] = c
    return grouped


def _param_part(p: Poly, nv: int) -> Poly:
    """Coefficient polynomial of one variable monomial, as a poly in all names."""
    return {(0,) * nv + e[nv:]: c for e, c in p.items()}


def leading_monomial(text: str, variables, params=()) -> tuple[int, ...]:
    n, _ = parse(text, variables, params)
    if not n:
        raise CheckError(f"zero polynomial {text!r}")
    return max(e[: len(variables)] for e in n)


def same_up_to_scaling(left: str, right: str, variables, params=()) -> bool:
    """True when the two polynomials differ by a nonzero factor in Q(params)."""
    nv = len(variables)
    n1, _ = parse(left, variables, params)
    n2, _ = parse(right, variables, params)
    g1, g2 = _by_monomial(n1, nv), _by_monomial(n2, nv)
    if set(g1) != set(g2) or not g1:
        return False
    lead = max(g1)
    lc1, lc2 = _param_part(g1[lead], nv), _param_part(g2[lead], nv)
    return _mul(n1, lc2) == _mul(n2, lc1)


def same_value(left: str, right: str, variables, params=()) -> bool:
    """True when the two expressions are the same element of Q(params)[vars]."""
    n1, d1 = parse(left, variables, params)
    n2, d2 = parse(right, variables, params)
    return _mul(n1, d2) == _mul(n2, d1)


def same_basis(answer, reference, variables, params=()) -> bool:
    """Two reduced bases agree element by element up to scaling."""
    if len(answer) != len(reference):
        return False
    def key(text):
        return leading_monomial(text, variables, params)
    return all(
        same_up_to_scaling(a, r, variables, params)
        for a, r in zip(sorted(answer, key=key), sorted(reference, key=key))
    )


def division_identity(target: str, divisors, cofactors, remainder: str, variables, params=()) -> bool:
    """target == sum(cofactor_i * divisor_i) + remainder, checked exactly."""
    total = parse(remainder, variables, params)
    for q, g in zip(cofactors, divisors, strict=True):
        (nq, dq), (ng, dg) = parse(q, variables, params), parse(g, variables, params)
        n, d = _mul(nq, ng), _mul(dq, dg)
        total = (_add(_mul(total[0], d), _mul(n, total[1])), _mul(total[1], d))
    nt, dt = parse(target, variables, params)
    return _mul(nt, total[1]) == _mul(total[0], dt)


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def same_planes(answer, reference) -> bool:
    """Two lists of rational (A, B, C, D) vectors span the same space."""
    a = [[Fraction(c) for c in v] for v in answer]
    r = [[Fraction(c) for c in v] for v in reference]
    if len(a) != len(r):
        return False
    return not r or _rank(r) == len(r) == _rank(r + a)

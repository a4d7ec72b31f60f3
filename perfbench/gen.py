"""Seeded input generators for the benchmark.

Every generator returns system-file text (``vars:``/``params:``/``poly:``
lines), so the program under test receives only text it parses itself.
Constants are always emitted in parentheses, e.g. ``(-3)*x``, because the
expression grammar has no unary minus after a binary operator.
"""

from __future__ import annotations

import math
import random
import re

XYZ = ("x", "y", "z")
# Monomials of degree <= 2 in x, y, z as exponent tuples; degree 2 first.
QUADRIC_MONOMIALS = tuple(
    sorted(
        ((i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2),
        key=lambda e: (-sum(e), e),
    )
)
# Small parameter polynomials over Q(a, b) used as coefficients.
PARAM_COEFFS = ("a", "b", "a + 1", "a*b", "a^2", "a - b", "b - 2", "(-1)", "(2)", "(3)")
# Per-seed substitutions x -> s*x of the variables of a quadric pair.
SIGNS = (-1, 1)
# The parametric stress system over Q(a, b, c) named in ROADMAP.md.
STRESS_SYSTEM = (
    ("x", "y", "z"),
    ("a", "b", "c"),
    ("x^2/a^2 + y^2/b^2 + z^2/c^2 - 1", "x^2 + y^2 - a*x", "x*y*z - c"),
)


def system_text(variables, polys, params=()) -> str:
    lines = ["vars: " + " ".join(variables)]
    if params:
        lines.append("params: " + " ".join(params))
    lines.append("order: lex")
    lines += [f"poly: {p}" for p in polys]
    return "\n".join(lines) + "\n"


def monomial_text(exps, names) -> str:
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def coeff_text(coeff: str) -> str:
    """A coefficient as one factor: names and parenthesized constants stay bare."""
    if coeff.isalnum() or re.fullmatch(r"\(-?\d+\)", coeff):
        return coeff
    return f"({coeff})"


def term_text(coeff: str, exps, names) -> str:
    mono = monomial_text(exps, names)
    head = coeff_text(coeff)
    return f"{head}*{mono}" if mono else head


def katsura(n: int) -> str:
    """Katsura-n: u_0..u_n with sum_l u_|l| u_|m-l| = u_m for m < n, and sum_l u_|l| = 1."""
    names = tuple(f"u{i}" for i in range(n + 1))

    def u(i):
        return names[abs(i)] if abs(i) <= n else None

    polys = []
    for m in range(n):
        counts: dict[tuple[str, str], int] = {}
        for l in range(-n, n + 1):
            a, b = u(l), u(m - l)
            if a and b:
                key = tuple(sorted((a, b), key=names.index))
                counts[key] = counts.get(key, 0) + 1
        terms = [
            (f"{c}*" if c > 1 else "") + (f"{a}^2" if a == b else f"{a}*{b}")
            for (a, b), c in sorted(counts.items(), key=lambda kv: [names.index(v) for v in kv[0]])
        ]
        polys.append(" + ".join(terms) + f" - {names[m]}")
    polys.append(names[0] + "".join(f" + 2*{v}" for v in names[1:]) + " - 1")
    return system_text(names, polys)


def cyclic(n: int) -> str:
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and x_0*...*x_{n-1} = 1."""
    names = tuple(f"x{i}" for i in range(n))
    polys = [
        " + ".join("*".join(names[(i + j) % n] for j in range(k)) for i in range(n))
        for k in range(1, n)
    ]
    polys.append("*".join(names) + " - 1")
    return system_text(names, polys)


def _random_quadric(rng: random.Random, coeffs, terms: int) -> list[tuple[str, tuple]]:
    """A sparse quadric in x, y, z with at least one degree-two term."""
    while True:
        monos = rng.sample(QUADRIC_MONOMIALS, terms)
        if any(sum(e) == 2 for e in monos):
            break
    monos.sort(key=QUADRIC_MONOMIALS.index)
    return [(coeffs(rng), e) for e in monos]


def _scaled(coeff: str, factor: int) -> str:
    if factor == 1:
        return coeff
    if re.fullmatch(r"\(-?\d+\)", coeff):
        return f"({factor * int(coeff[1:-1])})"
    return f"({factor})*{coeff_text(coeff)}"


def _poly_text(terms, scales=(1, 1, 1)) -> str:
    """Terms as text, with x, y, z replaced by scales[0]*x, scales[1]*y, scales[2]*z."""
    return " + ".join(
        term_text(_scaled(c, math.prod(s ** k for s, k in zip(scales, e))), e, XYZ)
        for c, e in terms
    )


def _rational_coeff(rng: random.Random) -> str:
    return f"({rng.choice([-1, 1]) * rng.randint(1, 9)})"


def _param_coeff(rng: random.Random) -> str:
    return rng.choice(PARAM_COEFFS)


def _quadric_pair(shapes, scale, coeffs, terms: int, planar: bool) -> str:
    """One pair drawn from ``shapes``, with x, y, z replaced by scale[i] times them."""
    q1 = _poly_text(_random_quadric(shapes, coeffs, terms), scale)
    if planar:
        plane = [(coeffs(shapes), e) for e in QUADRIC_MONOMIALS if sum(e) == 1]
        plane = shapes.sample(plane, 2) + [(coeffs(shapes), (0, 0, 0))]
        q2 = f"{coeff_text(coeffs(shapes))}*({q1}) + {_poly_text(plane, scale)}"
    else:
        q2 = _poly_text(_random_quadric(shapes, coeffs, terms), scale)
    return system_text(XYZ, (q1, q2), ("a", "b") if coeffs is _param_coeff else ())


def quadric_pairs(seed: int, count: int, params: bool, terms: int = 3) -> list[str]:
    """Sparse quadric pairs in x, y, z; every other pair hides a plane in its ideal.

    A planar pair is (q1, c*q1 + L) with L a random plane, so the ideal
    contains L and the intersection lies in it; the others draw q2 freely.

    The pairs' shapes (supports and coefficients) are one draw, the same for
    every seed; the seed flips the signs of the variables of each pair,
    x -> -x, y -> -y, z -> -z independently.  A sign flip keeps every monomial
    and leading term and the size of every coefficient, so every seed gives
    new inputs whose Buchberger runs take the same path with the same amount
    of arithmetic.  A fresh draw of shapes per seed would make a run's totals
    vary more than any bound the benchmark can hold, because the cost of a
    random pair is heavy-tailed.
    """
    shapes = random.Random(f"quadric-shapes:{int(params)}:{terms}")
    signs = random.Random(f"quadric-signs:{seed}:{int(params)}")
    coeffs = _param_coeff if params else _rational_coeff
    return [
        _quadric_pair(shapes, tuple(signs.choice(SIGNS) for _ in XYZ), coeffs, terms, index % 2 == 1)
        for index in range(count)
    ]


def pinned_pairs(keys) -> list[str]:
    """Quadric pairs over Q(a, b) from the shape draws named by ``keys``.

    Each key is (draw number, terms, planar?).  The benchmark pins draws
    whose pairs are known to be slow, so the heavy tail of random pairs stays
    measured.  Like katsura-n they take no seed, so their references are
    made once, not in every set-up.
    """
    return [
        _quadric_pair(random.Random(f"heavy:{key}:{terms}"), (1, 1, 1), _param_coeff, terms, planar)
        for key, terms, planar in keys
    ]


def membership_targets(
    seed: int, system: str, count: int, degree: int, terms: int
) -> list[tuple[str, bool]]:
    """Seeded normal-form targets for a system: half ideal members, half random.

    A member is sum(q_i * g_i) over the system's generators with sparse q_i
    of the given degree; a random target is a sparse polynomial of degree
    ``degree + 2``.  As for ``quadric_pairs``, the supports and coefficient
    sizes are one draw for every seed and the seed draws the coefficients'
    signs, so the division work is nearly the same across seeds.  Returns
    (expression text, constructed member?) pairs.
    """
    shapes = random.Random(f"membership-shapes:{system}")
    signs = random.Random(f"membership:{seed}:{system}")
    names, _, polys = system_fields(system)
    n = len(names)

    def random_poly(deg):
        monos = list(_monomials(n, deg))
        picked = sorted(shapes.sample(monos, min(terms, len(monos))), reverse=True)
        return " + ".join(
            term_text(f"({signs.choice(SIGNS) * shapes.randint(1, 9)})", e, names) for e in picked
        )

    out = []
    for index in range(count):
        if index % 2 == 0:
            parts = [f"({random_poly(degree)})*({g})" for g in polys]
            out.append((" + ".join(parts), True))
        else:
            out.append((random_poly(degree + 2), False))
    return out


def _monomials(n: int, max_degree: int):
    if n == 0:
        yield ()
        return
    for e in range(max_degree + 1):
        for rest in _monomials(n - 1, max_degree - e):
            yield (e,) + rest


def system_fields(system: str) -> tuple[tuple[str, ...], tuple[str, ...], list[str]]:
    """Variables, parameters and generator texts of system-file text."""
    names: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    polys = []
    for line in system.splitlines():
        head, _, value = line.partition(":")
        head = head.strip()
        if head == "vars":
            names = tuple(value.split())
        elif head == "params":
            params = tuple(value.split())
        elif head == "poly":
            polys.append(value.strip())
    return names, params, polys

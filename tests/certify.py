"""Certify the reduced lex basis of one named system, standard library only.

Usage: ``PYTHONPATH=src:tests python tests/certify.py <name>``, with a name
from ``SYSTEMS``.  The script computes the reduced lex basis of the system's
generators, checks its number of elements, checks that it is a Groebner
basis by Buchberger's criterion (``is_groebner``) and that every generator
has normal form zero modulo it; for a system in three variables it also
checks that plane detection from the generators, which reads the basis the
pair loop completed, equals plane detection from the lex basis, and that
every degree-1 generator lies in the family detected from the generators.
It exits non-zero if any check fails.  It needs no sympy, so it certifies
the engine where the oracle tests skip.
"""

import sys

from gbgeom import detect_planes, is_groebner, normal_form, parse_expression, reduced_basis

from support import cyclic, katsura, pinned_13_5, stress_plane_system, stress_system

# name -> (the system's (context, generator texts), elements of its reduced lex basis)
SYSTEMS = {
    "katsura-4": (lambda: katsura(4), 5),
    # five variables under grevlex and lex: the packed keys' guard-bit
    # divisibility test decides every reduction step here
    "cyclic-5": (lambda: cyclic(5), 11),
    # its numerators and denominators reach about 1,400 bits: a slip in the
    # fraction-free reduction's rescaling would show here
    "katsura-5": (lambda: katsura(5), 6),
    # its lex numerators reach 6,683 bits: a slip in the integer
    # elimination's scaling or content removal would show here
    "katsura-6": (lambda: katsura(6), 7),
    # FGLM over Q(a, b, c): its elimination runs the parameter gcd's divisor
    # step, heuristic and Henrici addition; in three variables, so its planes
    # are read off the grevlex basis too
    "stress": (stress_system, 3),
    # the stress system cut by a plane: detection must find that plane, so
    # the plane checks can fail here, as they cannot on a system with none
    "stress-plane": (stress_plane_system, 3),
    # the lex pair loop over Q(a, b): its parameter gcds split off monomial
    # contents, settle irreducible inputs and run GCDHEU
    "pinned-13-5": (pinned_13_5, 4),
}


def certify(name: str) -> list[str]:
    """The checks that the named system's reduced lex basis fails; empty when certified."""
    system, size = SYSTEMS[name]
    ctx, polys = system()
    generators = [parse_expression(p, ctx) for p in polys]
    basis = reduced_basis(generators)
    failures = []
    if len(basis) != size:
        failures.append(f"{len(basis)} elements, not {size}")
    if not is_groebner(basis):
        failures.append("not a Groebner basis")
    if any(normal_form(g, basis) for g in generators):
        failures.append("a generator has a nonzero normal form")
    if len(ctx.variables) == 3:
        detection = detect_planes(generators)
        if detection != detect_planes(basis):
            failures.append("planes from the generators differ from those of the basis")
        linear = [g for g in generators if g.total_degree() == 1]
        if linear and not (detection.family and all(map(detection.family.contains, linear))):
            failures.append("a degree-1 generator is not in the detected plane family")
    return failures


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in SYSTEMS:
        sys.exit(f"usage: certify.py {{{','.join(SYSTEMS)}}}")
    name = sys.argv[1]
    failures = certify(name)
    if failures:
        sys.exit(f"{name}: " + "; ".join(failures))
    print(f"{name}: certified")

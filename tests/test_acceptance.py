"""End-to-end acceptance checks.

Each criterion pins one headline behavior against frozen expected values;
the hook in conftest.py prints one summary line per criterion. Everything
here is exact arithmetic and must finish within ten seconds per test.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from gbgeom import (
    ConoidParams,
    Monomial,
    ParamFraction,
    Polynomial,
    VarContext,
    axis_section,
    conic_constraint_basis,
    conic_constraints,
    detect_planes,
    final_verdict,
    is_groebner,
    leading_parts,
    lt_membership,
    multivariate_divide,
    normal_form,
    parse_expression,
    plane_projection,
    quintic_decomposition_check,
    read_system,
    reduced_basis,
    render,
    scan_linear,
    solve_conic_constraints,
    verify_section_lines,
)

from support import (
    lex_compare,
    random_fraction,
    random_monomial,
    random_nonzero_fraction,
    random_nonzero_polynomial,
    random_polynomial,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Projections of the quartic plane section, transcribed coefficient by
# coefficient from independent hand expansion of the substituted surface.
EXPECTED_XY_PROJECTION = (
    "(A^2*a^2/C^2 + A^2*d^2/C^2 + 2*d*h*A/C)*x^2*y^2"
    " + (2*A*B*d^2/C^2 + 2*d*h*B/C + 2*A*B*a^2/C^2)*x*y^3"
    " + (B^2*d^2/C^2 + B^2*a^2/C^2)*y^4"
    " + (2*A*h*a^2/C + 2*A*D*d^2/C^2 + 2*A*h*d^2/C + 2*d*h*D/C + 2*d*h^2"
    "    + 2*A*D*a^2/C^2)*x*y^2"
    " + (2*B*D*d^2/C^2 + 2*B*D*a^2/C^2 + 2*B*h*a^2/C + 2*B*h*d^2/C)*y^3"
    " + (h^2*b^2 - A^2*a^2*b^2/C^2)*x^2"
    " - 2*A*B*a^2*b^2/C^2*x*y"
    " + (2*D*h*a^2/C + h^2*a^2 - B^2*a^2*b^2/C^2 + D^2*a^2/C^2 + h^2*d^2"
    "    + 2*D*h*d^2/C + D^2*d^2/C^2)*y^2"
    " - (2*A*D*a^2*b^2/C^2 + 2*A*h*a^2*b^2/C)*x"
    " - (2*B*h*a^2*b^2/C + 2*B*D*a^2*b^2/C^2)*y"
    " - h^2*a^2*b^2 - 2*D*h*a^2*b^2/C - D^2*a^2*b^2/C^2"
)
EXPECTED_XZ_PROJECTION = (
    "-2*d*h*A^2/B^2*x^3*z"
    " + (a^2*A^2/B^2 + d^2*A^2/B^2)*x^2*z^2"
    " + 2*d*h^2*A^2/B^2*x^3"
    " - (4*d*h*A*D/B^2 + 2*h*a^2*A^2/B^2 + 2*h*d^2*A^2/B^2)*x^2*z"
    " + (2*a^2*A*D/B^2 + 2*d^2*A*D/B^2)*x*z^2"
    " + (4*d*h^2*A*D/B^2 + h^2*a^2*A^2/B^2 + h^2*b^2 + h^2*d^2*A^2/B^2)*x^2"
    " - (2*d*h*D^2/B^2 + 4*h*d^2*A*D/B^2 + 4*h*a^2*A*D/B^2)*x*z"
    " + (a^2*D^2/B^2 - a^2*b^2 + d^2*D^2/B^2)*z^2"
    " + (2*h^2*d^2*A*D/B^2 + 2*d*h^2*D^2/B^2 + 2*h^2*a^2*A*D/B^2)*x"
    " + (2*h*a^2*b^2 - 2*h*a^2*D^2/B^2 - 2*h*d^2*D^2/B^2)*z"
    " + h^2*d^2*D^2/B^2 + h^2*a^2*D^2/B^2 - h^2*a^2*b^2"
)


def test_criterion_01():
    """Cleared reduced basis of the paraboloid-cylinder system."""
    system = read_system(FIXTURES / "paraboloid_cylinder.sys")
    basis = reduced_basis(system.build())
    assert [render(g, "cleared") for g in basis.elements] == [
        "b*x + a*y - a*b*z",
        "2*y^2 - 2*b*y*z + b^2*z^2 - b^2*z",
    ]
    # soundness witnesses: with a = 3, b = 5 the intersection passes through
    # (a*u, b*v, u^2 + v^2) whenever u^2 + v^2 = u + v, and every basis
    # element must vanish there
    scalars = {"a": Fraction(3), "b": Fraction(5)}
    for u, v in ((0, 0), (1, 0), (0, 1), (1, 1)):
        point = {"x": 3 * u, "y": 5 * v, "z": u * u + v * v}
        for g in basis.elements:
            assert g.evaluate(point, scalars) == 0
    # flipping the z^2 sign leaves the ideal: it misses the variety point
    flipped = parse_expression("2*y^2 - 2*b*y*z - b^2*z^2 - b^2*z", system.context())
    assert flipped.evaluate({"x": 3, "y": 0, "z": 1}, scalars) == -50


def test_criterion_02():
    """Reduced basis of the quartic-cubic space curve."""
    system = read_system(FIXTURES / "cubic_curve.sys")
    basis = reduced_basis(system.build())
    ctx = system.context()
    assert basis.elements == (
        parse_expression("x + z^3 + z - 3", ctx),
        parse_expression("y - z^3 - 1", ctx),
    )
    assert [render(g, "monic") for g in basis.elements] == [
        "x + z^3 + z - 3",
        "y - z^3 - 1",
    ]


def test_criterion_03():
    """Plane detection on both intersection systems."""
    para = read_system(FIXTURES / "paraboloid_cylinder.sys").build()
    basis = reduced_basis(para)
    found = scan_linear(basis)
    assert found is not None and render(found, "cleared") == "b*x + a*y - a*b*z"
    detection = detect_planes(para)
    assert detection.status == "planes"
    assert [render(p, "cleared") for p in detection.family.as_polynomials()] == [
        "b*x + a*y - a*b*z"
    ]

    curve = read_system(FIXTURES / "cubic_curve.sys").build()
    assert scan_linear(reduced_basis(curve)) is None
    detection = detect_planes(curve)
    assert detection.status == "planes"
    assert [render(p, "cleared") for p in detection.family.as_polynomials()] == [
        "x + y + z - 4"
    ]


def test_criterion_04():
    """Leading-term membership reports for the two systems."""
    basis = reduced_basis(read_system(FIXTURES / "paraboloid_cylinder.sys").build())
    report = lt_membership(basis)
    assert report.variables == ("x", "y", "z")
    assert report.in_lt_ideal == (True, False, False)
    assert report.tail_variables_absent()

    basis = reduced_basis(read_system(FIXTURES / "cubic_curve.sys").build())
    report = lt_membership(basis)
    assert report.in_lt_ideal == (True, True, False)
    assert report.contains("y") and not report.contains("z")
    assert not report.tail_variables_absent()


def test_criterion_05():
    """Symbolic projections of the plane section onto the x-y and x-z planes."""
    sym = ConoidParams.symbolic()
    for axis_pair, expected_text in (
        ("xy", EXPECTED_XY_PROJECTION),
        ("xz", EXPECTED_XZ_PROJECTION),
    ):
        projection = plane_projection(sym, axis_pair)
        expected = parse_expression(expected_text, projection.context)
        assert len(projection.terms) == len(expected.terms) == 11
        for got, want in zip(projection.terms, expected.terms):
            assert got.monomial == want.monomial
            assert got.coefficient == want.coefficient


def test_criterion_06():
    """Conic-coefficient families annihilate the constraints; pinned basis."""
    constraints = conic_constraints()
    assert len(constraints) == 5
    families = solve_conic_constraints()
    assert [family.family_id for family in families] == ["1", "2"]
    zero = ParamFraction.zero(("a", "b", "d", "h"))
    for family in families:
        va, vb, vd = family.normalized
        for constraint in constraints:
            value = zero
            for term in constraint.terms:
                e = term.monomial.exponents
                value = value + term.coefficient * va ** e[0] * vb ** e[1] * vd ** e[2]
            assert value == zero
    one, two = families
    assert [str(c) for c in one.normalized] == ["0", "0", "-h"]
    assert [str(c) for c in two.normalized] == ["-2*d*h/(a^2 + d^2)", "0", "-h"]

    pinned = ["A^2 + 2*d*h/(a^2 + d^2)*A", "B", "D + h"]
    basis = conic_constraint_basis()
    assert [render(g, "monic") for g in basis.elements] == pinned
    assert basis.reduced and is_groebner(basis)
    rerun = conic_constraint_basis()
    assert rerun.elements == basis.elements


def test_criterion_07():
    """Final verdict: both candidate planes give double lines, none a conic."""
    verdict = final_verdict()
    first, second = verdict.family_bases
    assert [render(g, "monic") for g in first.elements] == ["x^2", "z - h"]
    assert [render(g, "cleared") for g in second.elements] == [
        "2*d*h*x - (a^2 + d^2)*z + (a^2*h + d^2*h)",
        "z^2 - 2*h*z + h^2",
    ]
    assert str(verdict.forced_zero_coefficient) == "-2*d*h*A^2/B^2"
    assert any("forcing A = 0" in branch for branch in verdict.branches)
    assert verdict.conclusion == "no plane section is a non-degenerate conic"


def test_criterion_08():
    """Quintic decomposition of the ruled surface."""
    assert quintic_decomposition_check(ConoidParams.symbolic())
    assert quintic_decomposition_check(ConoidParams.numeric(2, 1, 1, 1))


def test_criterion_09():
    """Desk-scale axis sections and symbolic section-line verification."""
    desk = ConoidParams.numeric(2, 1, 1, 1)

    section = axis_section(desk, "y", 0)
    assert section.kind == "line-pair"
    assert sorted(str(line.exact_slope) for line in section.lines) == ["-2", "2"]
    text = "\n".join(section.describe())
    assert "x = 2*(z - 1)" in text and "x = -2*(z - 1)" in text

    section = axis_section(desk, "y", 1)
    assert section.kind == "double-line"
    assert [str(line.exact_slope) for line in section.lines] == ["1"]
    assert section.discriminant == 0

    section = axis_section(desk, "y", Fraction(3, 2))
    assert section.kind == "empty"
    # 3/2 falls strictly between the strip bounds, so no real points exist
    assert section.strip_bounds == (1, 2)
    assert section.discriminant == Fraction(-35, 16)

    assert verify_section_lines(desk, 0)
    assert verify_section_lines(desk, 1)
    assert verify_section_lines(ConoidParams.symbolic(), "t")
    with pytest.raises(ValueError):
        verify_section_lines(desk, Fraction(3, 2))


def test_criterion_10():
    """Randomized engine invariants, one thousand cases per property."""
    rng = random.Random(20210817)

    # division reconstruction and remainder purity
    ctx = VarContext(("x", "y"))
    for _ in range(1000):
        f = random_polynomial(rng, ctx, max_terms=3, max_degree=3)
        divisors = [
            random_nonzero_polynomial(rng, ctx, max_terms=2, max_degree=3)
            for _ in range(rng.randint(1, 2))
        ]
        result = multivariate_divide(f, divisors)
        rebuilt = result.remainder
        for quotient, divisor in zip(result.quotients, divisors):
            rebuilt = rebuilt + quotient * divisor
        assert rebuilt == f
        leads = [leading_parts(divisor)[1] for divisor in divisors]
        for term in result.remainder.terms:
            assert not any(lm.divides(term.monomial) for lm in leads)

    # monomial-order axioms: totality, multiplicativity, 1 is minimum
    one = Monomial((0, 0, 0))
    for _ in range(1000):
        u = random_monomial(rng, 3, 4)
        v = random_monomial(rng, 3, 4)
        w = random_monomial(rng, 3, 4)
        cmp_uv = lex_compare(u, v)
        assert cmp_uv in (-1, 0, 1)
        assert cmp_uv == -lex_compare(v, u)
        assert (cmp_uv == 0) == (u == v)
        if cmp_uv < 0:
            assert lex_compare(u * w, v * w) < 0
        assert lex_compare(one, u) <= 0

    # reduced-basis invariance under permutation and rescaling, normal-form
    # linearity, and is_groebner on every produced reduced basis
    ctx3 = VarContext(("x", "y", "z"))
    for _ in range(1000):
        generators = [
            random_nonzero_polynomial(rng, ctx3, max_terms=2, max_degree=2)
            for _ in range(2)
        ]
        basis = reduced_basis(generators)
        assert is_groebner(basis)
        assert reduced_basis(list(reversed(generators))).elements == basis.elements
        scale = random_nonzero_fraction(rng)
        assert reduced_basis([g * scale for g in generators]).elements == basis.elements

        p = random_polynomial(rng, ctx3, max_terms=2, max_degree=2)
        q = random_polynomial(rng, ctx3, max_terms=2, max_degree=2)
        alpha = random_fraction(rng)
        beta = random_fraction(rng)
        combined = normal_form(p * alpha + q * beta, basis)
        assert combined == normal_form(p, basis) * alpha + normal_form(q, basis) * beta

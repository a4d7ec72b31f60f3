"""The ruled-surface case study: directrix, sections, conic analysis, verdict."""

import random
from fractions import Fraction

import pytest

from gbgeom import conoid
from gbgeom.conoid import (
    CONCLUSION,
    CONSTRAINT_MONOMIALS,
    ConoidParams,
    axis_section,
    conic_constraint_basis,
    conic_constraints,
    conoid_surface,
    egg_curve,
    final_verdict,
    plane_projection,
    quintic_decomposition_check,
    solve_conic_constraints,
    verify_section_lines,
)
from gbgeom.groebner import is_groebner
from gbgeom.polynomials import VarContext, clear_denominators, coefficient_of

DESK = ConoidParams.numeric(2, 1, 1, 1)


def random_params(rng):
    b = Fraction(rng.randint(1, 12), rng.randint(1, 6))
    gap = Fraction(rng.randint(1, 10), rng.randint(1, 5))
    a = b + gap
    d = gap * Fraction(rng.randint(1, 4), 4)
    h = Fraction(rng.randint(1, 20), rng.randint(1, 5))
    return ConoidParams.numeric(a, b, d, h)


def test_parameter_validation():
    assert ConoidParams.symbolic().parameter_names() == ("a", "b", "d", "h")
    assert not ConoidParams.symbolic().is_numeric
    assert DESK.is_numeric
    assert DESK.parameter_names() == ()
    with pytest.raises(ValueError):
        ConoidParams.numeric(1, 2, 1, 1)  # a <= b
    with pytest.raises(ValueError):
        ConoidParams.numeric(2, 1, 2, 1)  # d > a - b
    with pytest.raises(ValueError):
        ConoidParams.numeric(2, 1, 1, 0)  # h not positive
    with pytest.raises(ValueError):
        ConoidParams(a="not an identifier!")


def test_parameters_refuse_floats():
    assert ConoidParams.numeric(2, 1, Fraction(1, 2), 1).d == Fraction(1, 2)
    for value in (0.1, float("inf")):
        with pytest.raises(TypeError, match="not an exact coefficient"):
            ConoidParams.numeric(2, 1, value, 1)
    with pytest.raises(TypeError, match="not an exact coefficient"):
        ConoidParams(h=2.0)


def test_egg_curve_symbolic_form():
    params = ConoidParams.symbolic()
    ctx = params.context()
    x, y = ctx.variable("x"), ctx.variable("y")
    a, b, d = (ctx.coefficient(n) for n in ("a", "b", "d"))
    expected = (
        (x**2).scale(b * b)
        + (y**2).scale(a * a)
        + (x * y**2).scale(2 * d)
        + (y**2).scale(d * d)
        - ctx.constant(a * a * b * b)
    )
    assert egg_curve(params) == expected


def test_egg_curve_numeric_form_and_points():
    params = ConoidParams.numeric(2, 1, 1, 1)
    curve = egg_curve(params)
    ctx = curve.context
    x, y = ctx.variable("x"), ctx.variable("y")
    assert curve == x**2 + 2 * x * y**2 + 5 * y**2 - 4
    for px in (Fraction(2), Fraction(-2)):
        assert curve.evaluate({"x": px, "y": Fraction(0)}) == 0
    assert curve.evaluate({"x": Fraction(0), "y": Fraction(1)}) == 1  # (0, b) is off the curve


def test_conoid_surface_slices():
    params = ConoidParams.symbolic()
    ctx = params.context()
    surface = conoid_surface(params, ctx)
    h = ctx.coefficient("h")
    # the z = 0 slice is h^2 times the directrix
    from gbgeom.polynomials import substitute

    slice0 = substitute(surface, "z", ctx.zero())
    assert slice0 == egg_curve(params, ctx).scale(h * h)
    # (0, b, h) lies on the surface
    numeric = conoid_surface(DESK)
    assert numeric.evaluate({"x": Fraction(0), "y": Fraction(1), "z": Fraction(1)}) == 0


def test_quintic_decomposition():
    assert quintic_decomposition_check(ConoidParams.symbolic())
    assert quintic_decomposition_check(ConoidParams.numeric(2, 1, 1, 3))
    params = ConoidParams.symbolic()
    perturbed = conoid_surface(params) + params.context().one()
    assert not quintic_decomposition_check(params, perturbed)


def test_quintic_decomposition_on_random_valid_parameters():
    rng = random.Random(20210817)
    for _ in range(10):
        assert quintic_decomposition_check(random_params(rng))


def test_section_line_pair_through_the_throat():
    report = axis_section(DESK, "y", 0)
    assert report.kind == "line-pair"
    assert report.discriminant == 4
    slopes = sorted(line.exact_slope for line in report.lines)
    assert slopes == [-2, 2]
    described = {line.describe() for line in report.lines}
    assert described == {"x = 2*(z - 1)", "x = -2*(z - 1)"}


def test_section_double_line_on_strip_boundary():
    report = axis_section(DESK, "y", 1)
    assert report.kind == "double-line"
    assert report.discriminant == 0
    (line,) = report.lines
    assert line.exact_slope == 1
    assert line.describe() == "x = (z - 1)"
    outer = axis_section(DESK, "y", 2)  # the other boundary a*b/d
    assert outer.kind == "double-line"
    assert outer.lines[0].exact_slope == 4


def test_section_empty_between_the_bounds():
    report = axis_section(DESK, "y", Fraction(3, 2))
    assert report.kind == "empty"
    assert report.discriminant == Fraction(-35, 16)
    assert report.strip_bounds == (1, 2)
    assert not report.lines


def test_section_irrational_slopes_keep_surd_form():
    report = axis_section(DESK, "y", Fraction(1, 2))
    assert report.kind == "line-pair"
    assert report.discriminant == Fraction(45, 16)
    assert all(line.exact_slope is None for line in report.lines)
    assert "sqrt(45/16)" in report.lines[0].describe()


def test_section_x_cases():
    quartic = axis_section(DESK, "x", 1)
    assert quartic.kind == "quartic-curve"
    assert quartic.curve.total_degree() == 4
    locus = axis_section(DESK, "x", 0)
    assert locus.kind == "degenerate-locus"
    assert locus.strip_bounds == (1, 2)
    assert locus.line_y_squared == Fraction(4, 5)  # a^2 b^2 / (a^2 + d^2)


def test_section_z_cases():
    cubic = axis_section(DESK, "z", 0)
    assert cubic.kind == "cubic-curve"
    assert cubic.curve.total_degree() == 3
    locus = axis_section(DESK, "z", 1)
    assert locus.kind == "degenerate-locus"
    x = locus.curve.context.variable("x")
    assert locus.curve == x * x  # b^2 h^2 x^2 with b = h = 1


def test_section_argument_validation():
    with pytest.raises(ValueError):
        axis_section(ConoidParams.symbolic(), "y", 0)
    with pytest.raises(ValueError):
        axis_section(DESK, "w", 0)


def test_section_api_refuses_inexact_values():
    # 0.5 is a binary float, so Fraction would read it exactly; the package
    # takes ints and Fractions only, as ConoidParams does
    for value in (0.5, 1.0, "1/2"):
        with pytest.raises(TypeError, match="not an exact coefficient"):
            axis_section(DESK, "y", value)
    with pytest.raises(TypeError, match="not an exact coefficient"):
        verify_section_lines(DESK, 0.5)


def test_section_lines_verify_against_the_surface():
    assert verify_section_lines(DESK, 0)
    assert verify_section_lines(DESK, 1)
    assert verify_section_lines(DESK, Fraction(1, 2))
    assert verify_section_lines(ConoidParams.symbolic(), "t")
    with pytest.raises(ValueError):
        verify_section_lines(DESK, Fraction(3, 2))  # no real section there


def test_projection_spot_coefficients():
    params = ConoidParams.symbolic()
    xy = plane_projection(params, "xy")
    P = xy.context.parameters
    from gbgeom.coefficients import ParamFraction

    def pf(name):
        return ParamFraction.parameter(P, name)

    a, b, d, h = (pf(n) for n in ("a", "b", "d", "h"))
    A, B, C, D = (pf(n) for n in ("A", "B", "C", "D"))
    assert coefficient_of(xy, (0, 4, 0)) == (B * B * d * d + B * B * a * a) / (C * C)
    assert coefficient_of(xy, (2, 2, 0)) == (A * A * (a * a + d * d)) / (C * C) + 2 * d * h * A / C
    xz = plane_projection(params, "xz")
    assert coefficient_of(xz, (3, 0, 1)) == -(2 * d * h * A * A) / (B * B)
    with pytest.raises(ValueError):
        plane_projection(params, "yz")


def test_projection_degenerates_on_family_one_plane():
    # A = 0, B = 0, C = 1, D = -h turns the projection into b^2 h^2 x^2
    params = ConoidParams.symbolic()
    xy = plane_projection(params, "xy")
    point = {
        "a": Fraction(2), "b": Fraction(1), "d": Fraction(1), "h": Fraction(1),
        "A": Fraction(0), "B": Fraction(0), "C": Fraction(1), "D": Fraction(-1),
    }
    for px, py in ((Fraction(3), Fraction(5)), (Fraction(-1), Fraction(2)), (Fraction(7), Fraction(0))):
        value = xy.evaluate({"x": px, "y": py, "z": Fraction(0)}, point)
        assert value == px * px  # b^2 h^2 x^2 at b = h = 1


def test_conic_constraints_match_the_projection_coefficients():
    constraints = conic_constraints()
    ctx = constraints[0].context
    assert ctx.variables == ("A", "B", "D")
    assert ctx.parameters == ("a", "b", "d", "h")
    A, B, D = (ctx.variable(n) for n in ("A", "B", "D"))
    a, b, d, h = (ctx.coefficient(n) for n in ("a", "b", "d", "h"))
    s = a * a + d * d
    assert constraints[0] == (A * A).scale(s) + A.scale(2 * d * h)
    assert constraints[1] == (A * B).scale(2 * s) + B.scale(2 * d * h)
    assert constraints[2] == (B * B).scale(s)
    assert constraints[3] == (A * D).scale(2 * s) + A.scale(2 * h * s) + D.scale(2 * d * h) + (
        ctx.constant(2 * d * h * h)
    )
    assert constraints[4] == (B * D).scale(2 * s) + B.scale(2 * h * s)
    # the constraints are built apart from the projection: tie them to its
    # coefficients at C = 1 at seeded rational points
    projection = plane_projection(ConoidParams.symbolic(), "xy")
    rng = random.Random(14)
    for _ in range(5):
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in "abdhABD"}
        params = {n: point[n] for n in "abdh"}
        plane = {n: point[n] for n in "ABD"}
        for exps, constraint in zip(CONSTRAINT_MONOMIALS, constraints):
            expected = coefficient_of(projection, exps).evaluate(point | {"C": Fraction(1)})
            assert constraint.evaluate(plane, params) == expected


def test_constraint_basis_is_reduced_and_pinned():
    basis = conic_constraint_basis()
    assert basis.reduced
    assert is_groebner(basis)
    ctx = basis.context
    A, B, D = (ctx.variable(n) for n in ("A", "B", "D"))
    a, d, h = (ctx.coefficient(n) for n in ("a", "d", "h"))
    ratio = (2 * d * h) / (a * a + d * d)
    assert basis.elements == (A * A + A.scale(ratio), B, D + ctx.constant(h))


def test_solve_conic_constraints_family_structure():
    one, two = solve_conic_constraints()
    base = ("a", "b", "d", "h")
    from gbgeom.coefficients import ParamFraction

    h = ParamFraction.parameter(base, "h")
    zero = ParamFraction.zero(base)
    assert one.family_id == "1" and one.scale_name == "p"
    assert one.normalized == (zero, zero, -h)
    a, d = ParamFraction.parameter(base, "a"), ParamFraction.parameter(base, "d")
    assert two.normalized == (-(2 * d * h) / (a * a + d * d), zero, -h)
    # scaled coefficient vectors carry the free factors p and q
    p = ParamFraction.parameter(base + ("p",), "p")
    assert one.coefficients == (p * 0, p * 0, p, -(p * ParamFraction.parameter(base + ("p",), "h")))
    q_params = base + ("q",)
    q = ParamFraction.parameter(q_params, "q")
    aq = ParamFraction.parameter(q_params, "a")
    dq = ParamFraction.parameter(q_params, "d")
    hq = ParamFraction.parameter(q_params, "h")
    sq = aq * aq + dq * dq
    assert two.coefficients == (q, q * 0, -(sq * q) / (2 * dq * hq), (sq * q) / (2 * dq))


def test_family_plane_equations():
    one, two = solve_conic_constraints()
    assert str(one.plane_equation()) == "z - h"
    assert str(two.plane_equation()) == "2*d*h*x - (a^2 + d^2)*z + (a^2*h + d^2*h)"


def test_final_verdict_report():
    verdict = final_verdict()
    first, second = verdict.family_bases
    assert [str(g) for g in first] == ["x^2", "z - h"]
    assert [str(clear_denominators(g)) for g in second] == [
        "2*d*h*x - (a^2 + d^2)*z + (a^2*h + d^2*h)",
        "z^2 - 2*h*z + h^2",
    ]
    assert str(verdict.forced_zero_coefficient) == "-2*d*h*A^2/B^2"
    assert len(verdict.branches) == 6
    assert verdict.conclusion == CONCLUSION
    assert verdict.constraint_basis.elements == conic_constraint_basis().elements


def test_conic_analysis_refuses_a_family_off_the_constraints(monkeypatch):
    builder = conoid._plane_vector

    def shifted(family_id, params, scale):
        A, B, C, D = builder(family_id, params, scale)
        return (A, B, C, D + 1) if family_id == "1" else (A, B, C, D)

    monkeypatch.setattr(conoid, "_plane_vector", shifted)
    with pytest.raises(ArithmeticError, match="family 1 fails a conic constraint"):
        solve_conic_constraints()
    with pytest.raises(ArithmeticError, match="fails a conic constraint"):
        final_verdict()


def test_conic_analysis_refuses_a_missing_family(monkeypatch):
    # family 1 twice satisfies every constraint, but its double root A = 0
    # is not the basis's quadratic in A
    builder = conoid._plane_vector
    monkeypatch.setattr(
        conoid, "_plane_vector", lambda _, params, scale: builder("1", params, scale)
    )
    with pytest.raises(ArithmeticError, match="does not match the two-family structure"):
        solve_conic_constraints()


def test_normalized_is_the_scaled_vector_over_c():
    # at seeded points of (a, b, d, h) and of the free factor: the vector is
    # linear in the factor, and at factor 1 divided by C it is ``normalized``
    rng = random.Random(24)
    for family in solve_conic_constraints():
        for _ in range(5):
            point = {n: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for n in "abdh"}
            factor = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
            at_one = [c.evaluate(point | {family.scale_name: 1}) for c in family.coefficients]
            scaled = [c.evaluate(point | {family.scale_name: factor}) for c in family.coefficients]
            assert scaled == [factor * v for v in at_one]
            A, B, C, D = at_one
            assert [v.evaluate(point) for v in family.normalized] == [A / C, B / C, D / C]

"""Plane detection: basis scan, leading-term membership, full nullspace search."""

from fractions import Fraction

import pytest

from gbgeom import groebner, parse_expression, planarity
from gbgeom.groebner import GroebnerBasis, reduced_basis
from gbgeom.planarity import PlaneFamily, detect_planes, lt_membership, scan_linear
from gbgeom.polynomials import VarContext, clear_denominators

from support import cyclic, katsura, parsed, quadric_pair

PCTX = VarContext(("x", "y", "z"), ("a", "b"))
QCTX = VarContext(("x", "y", "z"))


def paraboloid_system():
    x, y, z = (PCTX.variable(n) for n in ("x", "y", "z"))
    a, b = PCTX.coefficient("a"), PCTX.coefficient("b")
    f1 = z - x * x.scale((a * a).invert()) - y * y.scale((b * b).invert())
    f2 = (
        x * x.scale((a * a).invert())
        + y * y.scale((b * b).invert())
        - x.scale(a.invert())
        - y.scale(b.invert())
    )
    return [f1, f2]


def curve_system():
    x, y, z = (QCTX.variable(n) for n in ("x", "y", "z"))
    return [x + y * z + y - z**4 - 4, y - z**3 - 1]


def test_scan_linear_finds_the_basis_plane():
    gb = reduced_basis(paraboloid_system())
    found = scan_linear(gb)
    a, b = PCTX.coefficient("a"), PCTX.coefficient("b")
    x, y, z = (PCTX.variable(n) for n in ("x", "y", "z"))
    assert found == x + y.scale(a / b) - z.scale(a)
    assert clear_denominators(found) == x.scale(b) + y.scale(a) - z.scale(a * b)


def test_scan_linear_misses_hidden_plane():
    gb = reduced_basis(curve_system())
    assert scan_linear(gb) is None


def test_scan_linear_reduces_unreduced_input():
    x = QCTX.variable("x")
    raw = GroebnerBasis((2 * x + 2 * QCTX.variable("y"), QCTX.variable("y")))
    assert scan_linear(raw) == x


def test_lt_membership_on_the_two_systems():
    report = lt_membership(reduced_basis(paraboloid_system()))
    assert report.variables == ("x", "y", "z")
    assert report.contains("x")
    assert not report.contains("y")
    assert not report.contains("z")
    assert report.tail_variables_absent()

    hidden = lt_membership(reduced_basis(curve_system()))
    assert hidden.contains("x")
    assert hidden.contains("y")
    assert not hidden.contains("z")
    assert not hidden.tail_variables_absent()


def test_lt_membership_requires_elements():
    with pytest.raises(ValueError):
        lt_membership(reduced_basis([]))


def test_detect_planes_parametric_single_plane():
    detection = detect_planes(paraboloid_system())
    assert detection.status == "planes"
    assert detection
    family = detection.family
    assert len(family) == 1
    a, b = PCTX.coefficient("a"), PCTX.coefficient("b")
    one, zero = PCTX.coefficient(1), PCTX.coefficient(0)
    assert family.planes[0] == (one, a / b, -a, zero)
    x, y, z = (PCTX.variable(n) for n in ("x", "y", "z"))
    cleared_plane = x.scale(b) + y.scale(a) - z.scale(a * b)
    assert family.contains(cleared_plane)
    assert not family.contains(x + y)


def test_detect_planes_finds_plane_the_scan_missed():
    detection = detect_planes(curve_system())
    assert detection.status == "planes"
    family = detection.family
    polys = family.as_polynomials()
    x, y, z = (QCTX.variable(n) for n in ("x", "y", "z"))
    assert polys == (x + y + z - 4,)


def test_detect_planes_two_dimensional_family():
    x, y = QCTX.variable("x"), QCTX.variable("y")
    detection = detect_planes([x, y])
    family = detection.family
    assert len(family) == 2
    assert family.as_polynomials() == (x, y)
    assert family.contains(x - y)
    assert not family.contains(QCTX.variable("z"))
    # a plane listed twice spans no more than itself
    twice = PlaneFamily(QCTX, (family.planes[0], family.planes[0]))
    assert twice.contains(x * 3) and not twice.contains(y)


def test_contains_refuses_a_plane_from_another_context():
    family = detect_planes(paraboloid_system()).family
    other = VarContext(("u", "v", "w"), ("a", "b"))
    u, v, w = (other.variable(n) for n in ("u", "v", "w"))
    a, b = other.coefficient("a"), other.coefficient("b")
    with pytest.raises(ValueError, match="mismatched contexts"):
        family.contains(u.scale(b) + v.scale(a) - w.scale(a * b))


def test_contains_refuses_a_coefficient_tuple_of_the_wrong_length():
    family = detect_planes([QCTX.variable("x"), QCTX.variable("y")]).family
    with pytest.raises(ValueError):
        family.contains((1, 0))
    with pytest.raises(ValueError):
        family.contains((1, 0, 0, 0, 0))


def test_contains_refuses_a_zero_plane():
    family = detect_planes([QCTX.variable("x"), QCTX.variable("y")]).family
    for plane in (QCTX.zero(), QCTX.constant(3), (0, 0, 0, 0), (0, 0, 0, 1)):
        with pytest.raises(ValueError, match="not a plane equation"):
            family.contains(plane)


def test_planes_do_not_depend_on_the_scale_of_a_generator():
    # three generators in three variables: the grevlex route and FGLM
    gens = [parse_expression(t, QCTX) for t in ("x - 1/3", "y^2 - 2/5", "z - x*y")]
    family = detect_planes(gens).family
    assert family.planes == ((0, 1, -3, 0), (1, 0, 0, Fraction(-1, 3)))
    assert all(type(c) is Fraction for plane in family.planes for c in plane)
    for i in range(3):
        for scale in (Fraction(3, 7), Fraction(-5, 2), 6):
            scaled = [g.scale(scale) if j == i else g for j, g in enumerate(gens)]
            assert detect_planes(scaled).family.planes == family.planes
    # the span: A*x + B*y - 3*B*z - A/3 = 0
    assert family.contains((Fraction(2, 3), Fraction(-1, 2), Fraction(3, 2), Fraction(-2, 9)))
    assert family.contains(parse_expression("3*x - 1", QCTX))
    assert not family.contains((1, 1, 0, 0))
    assert not family.contains((Fraction(1, 2), 0, 0, Fraction(1, 6)))


def test_detect_planes_none_for_space_curve():
    x, y, z = (QCTX.variable(n) for n in ("x", "y", "z"))
    detection = detect_planes([x * x - y, x * x * x - z])
    assert detection.status == "none"
    assert detection.family is None
    assert not detection


def test_detect_planes_empty_variety():
    x = QCTX.variable("x")
    detection = detect_planes([x, x + 1])
    assert detection.status == "empty-variety"
    assert detection.family is None


def test_detect_planes_zero_ideal_has_no_plane():
    detection = detect_planes([])
    assert detection.status == "none"


def test_detect_planes_requires_three_variables():
    ctx = VarContext(("x", "y"))
    with pytest.raises(ValueError):
        detect_planes([ctx.variable("x")])


def test_detect_planes_counts_variables_before_any_basis_work(monkeypatch):
    def refused(generators):
        raise AssertionError("basis work before the variable count")

    monkeypatch.setattr(planarity, "_completed", refused)
    # the zero ideal of two variables, and katsura-4 in five
    for gens in ([VarContext(("x", "y")).zero()], parsed(katsura(4))):
        with pytest.raises(ValueError, match="exactly three variables"):
            detect_planes(gens)


def test_detect_planes_accepts_prebuilt_reduced_basis():
    gb = reduced_basis(curve_system())
    assert detect_planes(gb).status == "planes"


def plane_cases():
    """Name -> generators: seeded quadric pairs, and systems of three generators in x, y, z."""
    cases = {}
    for seed in range(8):
        cases[f"pair-Q-{seed}"] = quadric_pair(seed, params=False)
        cases[f"pair-Qab-{seed}"] = quadric_pair(seed, params=True)
    cases["katsura-2"] = katsura(2)
    cases["cyclic-3"] = cyclic(3)
    xyz = ("x", "y", "z")
    # two points, then two curves: the twisted cubic and a circle in the plane z = x
    cases["circle-points"] = (QCTX, ["x^2 + y^2 - 1", "z", "x - y"])
    cases["twisted-cubic"] = (VarContext(xyz), ["y - x^2", "z - x^3", "z - x*y"])
    cases["plane-circle"] = (VarContext(xyz), ["x^2 + y^2 - 1", "z - x", "z*y - x*y"])
    cases["unit"] = (QCTX, ["x", "y", "x + 1"])
    return cases


PLANE_CASES = plane_cases()


@pytest.mark.parametrize("name", sorted(PLANE_CASES))
def test_generators_and_their_lex_basis_give_the_same_planes(name):
    gens = parsed(PLANE_CASES[name])
    assert detect_planes(gens) == detect_planes(reduced_basis(gens))


@pytest.mark.parametrize("name", ["katsura-2", "cyclic-3", "twisted-cubic", "plane-circle"])
def test_planes_of_three_generators_need_only_the_grevlex_loop(monkeypatch, name):
    runs = []
    loop = groebner.buchberger

    def recording(generators):
        generators = list(generators)
        runs.append(type(generators[0].context).__name__)
        return loop(generators)

    def refused(basis, context):
        raise AssertionError("FGLM in plane detection")

    monkeypatch.setattr(groebner, "buchberger", recording)
    monkeypatch.setattr(groebner, "_fglm", refused)
    gens = parsed(PLANE_CASES[name])
    detection = detect_planes(gens)
    assert runs == ["_Grevlex"]
    if name == "twisted-cubic":
        assert detection.status == "none"
        return
    # the family lives in the caller's lex context
    assert detection.family.context == gens[0].context
    linear = [g for g in gens if g.total_degree() == 1]
    assert linear and all(detection.family.contains(g) for g in linear)

"""Plane detection: basis scan, leading-term membership, full nullspace search."""

from fractions import Fraction

import pytest

from gbgeom.groebner import GroebnerBasis, reduced_basis
from gbgeom.planarity import detect_planes, lt_membership, scan_linear
from gbgeom.polynomials import VarContext, clear_denominators

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


def test_detect_planes_accepts_prebuilt_reduced_basis():
    gb = reduced_basis(curve_system())
    assert detect_planes(gb).status == "planes"

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings

from gacalc import (
    G2,
    G3,
    GradeError,
    Line,
    Multivector,
    NonBladeError,
    Plane,
    Signature,
    SingularError,
    Triangle,
    basis_vectors,
    closest_point_on_line,
    cosine_law_residual,
    cross,
    distance_to_line,
    dot,
    line_contains,
    plane_contains,
    plane_normal,
    sine_law_residual,
    triangle_area,
)

from conftest import vectors

E1, E2, E3 = basis_vectors(G3)


def vec3(x, y, z):
    return Multivector.vector(G3, [x, y, z])


# -- lines -------------------------------------------------------------------


def test_line_validation():
    with pytest.raises(SingularError):
        Line(vec3(0, 0, 0), Multivector.zero(G3))
    with pytest.raises(GradeError):
        Line(vec3(0, 0, 0), E1 * E2)


def test_line_contains():
    line = Line(vec3(0, 0, 0), E1)
    assert line_contains(line, vec3(7, 0, 0))
    assert line_contains(line, vec3(0, 0, 0))
    assert not line_contains(line, vec3(7, 0.1, 0))
    # relative tolerance scales with the offset magnitude
    assert line_contains(line, vec3(1e9, 1e-5, 0), tol=1e-12)
    assert not line_contains(line, vec3(1.0, 1e-5, 0), tol=1e-12)


def test_closest_point_and_distance_frozen():
    line = Line(vec3(0, 0, 0), E1)
    assert closest_point_on_line(line, vec3(3, 4, 0)).is_close(vec3(3, 0, 0))
    assert math.isclose(distance_to_line(line, vec3(3, 4, 0)), 4.0, abs_tol=1e-12)
    assert math.isclose(distance_to_line(line, vec3(0, 3, 4)), 5.0, abs_tol=1e-12)
    assert distance_to_line(line, vec3(2, 0, 0)) == 0.0


@pytest.mark.parametrize("c", [1e200, 1e-200, 3e-154])
def test_line_takes_a_huge_or_tiny_direction(c):
    line = Line(E1, E2 * c)
    assert distance_to_line(line, E3) == math.sqrt(2)
    assert line_contains(line, E1 + E2)
    sig = Signature(1, 1)
    with pytest.raises(SingularError):
        Line(Multivector.zero(sig), Multivector.vector(sig, [c, c]))  # null
    with pytest.raises(SingularError, match="positive square"):
        Line(Multivector.zero(sig), Multivector.vector(sig, [0, c]))


@pytest.mark.parametrize(
    "x0, a, p, expected",
    [
        (E1 * 1e200, E2, Multivector.zero(G3), 1e200),
        (E1 * 1e-200, E2, Multivector.zero(G3), 1e-200),
        (Multivector.zero(G3), E1, E2 * 3e200 + E1 * 1e200, 3e200),
    ],
)
def test_distance_to_line_takes_a_huge_or_tiny_offset(x0, a, p, expected):
    assert distance_to_line(Line(x0, a), p) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_closest_point_takes_a_huge_or_tiny_offset(c):
    foot = closest_point_on_line(Line(E1 * c, E2), E2 * (5 * c))
    assert foot.terms.keys() == {0b001, 0b010}
    assert foot.coeff(0b001) == c
    assert foot.coeff(0b010) == pytest.approx(5 * c, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("c", [1.0, 1e200, 1e-170])
@pytest.mark.parametrize("timelike", [1.0, 2.0])  # null, negative square
def test_a_timelike_or_null_rejection_is_distance_zero(c, timelike):
    sig = Signature(2, 1)
    e1, e2, e3 = basis_vectors(sig)
    # e3 squares to -1, and the offset's rejection from e1 is c (e2 + t e3)
    p = (e2 + e3 * timelike) * c
    assert distance_to_line(Line(Multivector.zero(sig), e1), p) == 0.0


def test_a_nan_offset_gives_a_nan_distance():
    assert math.isnan(distance_to_line(Line(E1, E2), E3 * math.nan))


def test_mixed_signature_distance_matches_the_pythagorean_split():
    sig = Signature(4, 1)
    rng = random.Random(41)
    checked = 0
    while checked < 1000:
        x0, a, p = (
            Multivector.vector(sig, [rng.uniform(-3.0, 3.0) for _ in range(5)])
            for _ in range(3)
        )
        if dot(a, a) <= 0.0:
            continue  # a Line needs a direction with positive square
        offset = p - x0
        along = dot(offset, a / a.norm())
        expected = math.sqrt(max(dot(offset, offset) - along * along, 0.0))
        assert abs(distance_to_line(Line(x0, a), p) - expected) <= 1e-9
        checked += 1


def test_distance_ignores_direction_scale():
    p = vec3(1, 2, 3)
    l1 = Line(vec3(0, 1, 0), vec3(1, 1, 1))
    l2 = Line(vec3(0, 1, 0), vec3(3, 3, 3))
    assert math.isclose(distance_to_line(l1, p), distance_to_line(l2, p), rel_tol=1e-12)


@settings(max_examples=60)
@given(vectors(G3), vectors(G3).filter(lambda v: v.norm() > 1e-2), vectors(G3))
# p sits 8.9e-10 from the line
@example(vec3(0.3, -0.7, 0.2), vec3(0.6, 0.5, -0.4), vec3(0.84, -0.25, -0.16 + 1e-9))
def test_closest_point_properties(x0, a, p):
    line = Line(x0, a)
    foot = closest_point_on_line(line, p)
    assert line_contains(line, foot, tol=1e-9)
    gap = (p - foot).norm()
    offset = (p - line.point).norm()
    assert abs(gap - distance_to_line(line, p)) <= 1e-12 * max(1.0, offset)
    # the offset from the foot is orthogonal to the line
    assert abs(dot(p - foot, a)) <= 1e-12 * max(1.0, offset * a.norm())


@pytest.mark.parametrize("p", [2, 3])
def test_a_null_offset_is_off_the_line(p):
    # e1 ^ (e_p + e_(p+1)) has metric norm 0 in G(p,1), but it is not nothing
    e = basis_vectors(Signature(p, 1))
    line = Line(0 * e[0], e[0])
    assert not line_contains(line, e[p - 1] + e[p])
    assert not line_contains(line, 3 * e[0] + e[p - 1] + e[p])
    assert line_contains(line, 3 * e[0])


def test_containment_past_an_overflowing_norm():
    # the offset's coefficient norm, or the wedge's, overflows to inf, so
    # the bound and the gap are compared over offset / 2^e and blade / 2^f
    x = 1.5e308 * E1 + 1.5e308 * E2
    assert not line_contains(Line(0 * E1, E1), x)
    assert line_contains(Line(0 * E1, E1 + E2), x)
    assert line_contains(Line(0 * E1, 1e-300 * (E1 + E2)), x)
    assert not line_contains(Line(0 * E1, 1e200 * E1), 1e200 * E2)
    assert line_contains(Line(0 * E1, 1e200 * E1), 1e300 * E1)
    assert plane_contains(Plane(0 * E1, E1 ^ E2), x)
    assert not plane_contains(Plane(0 * E1, E1 ^ E3), x)
    assert not plane_contains(Plane(0 * E1, 1e150 * (E1 ^ E3)), 1e200 * E2)
    assert plane_contains(Plane(0 * E1, 1e150 * (E1 ^ E3)), 1e300 * E3)
    # an infinite coefficient lies on nothing
    assert not line_contains(Line(0 * E1, E1), math.inf * E1)
    assert not line_contains(Line(0 * E1, E1), math.inf * E2)


# -- planes ------------------------------------------------------------------


def test_plane_validation():
    with pytest.raises(GradeError):
        Plane(vec3(0, 0, 0), E1)
    g4 = Signature(4, 0)
    e = basis_vectors(g4)
    with pytest.raises(NonBladeError):
        Plane(Multivector.vector(g4, [0, 0, 0, 0]), (e[0] ^ e[1]) + (e[2] ^ e[3]))


def test_plane_contains():
    plane = Plane(vec3(0, 0, 1), E1 ^ E2)  # z = 1 plane
    assert plane_contains(plane, vec3(5, -3, 1))
    assert not plane_contains(plane, vec3(0, 0, 1.01))


def test_a_null_offset_is_off_the_plane():
    e = basis_vectors(Signature(3, 1))
    plane = Plane(0 * e[0], e[0] * e[1])
    assert not plane_contains(plane, e[2] + e[3])
    assert plane_contains(plane, 2 * e[0] - 5 * e[1])


def test_plane_normal_frozen():
    assert plane_normal(Plane(vec3(0, 0, 0), E1 ^ E2)).is_close(E3)
    assert plane_normal(Plane(vec3(0, 0, 0), E2 ^ E3)).is_close(E1)


@given(
    vectors(G3).filter(lambda v: v.norm() > 1e-2),
    vectors(G3).filter(lambda v: v.norm() > 1e-2),
)
def test_plane_normal_matches_cross_of_spanning_pair(a, b):
    B = a ^ b
    if B.norm() <= 1e-4:
        return  # nearly parallel spans make no plane
    n = plane_normal(Plane(vec3(0, 0, 0), B))
    assert n.is_close(cross(a, b))
    assert abs(dot(n, a)) <= 1e-12
    assert abs(dot(n, b)) <= 1e-12


# -- triangles ----------------------------------------------------------------


def test_triangle_construction_invariant():
    a = vec3(1, 0, 0)
    b = vec3(0, 1, 0)
    tri = Triangle.from_sides(a, b)
    assert tri.c == a + b
    with pytest.raises(GradeError):
        Triangle(a, b, vec3(1, 1, 1e-18))  # not the exact sum
    p, q, r = vec3(0.1, 0.2, 0.3), vec3(1.1, -0.4, 0.5), vec3(-0.3, 0.9, 2.0)
    tri2 = Triangle.from_vertices(p, q, r)
    assert tri2.a + tri2.b == tri2.c


def test_right_triangle_laws_frozen():
    tri = Triangle.from_sides(vec3(1, 0, 0), vec3(0, 1, 0))
    assert cosine_law_residual(tri) <= 1e-15
    assert sine_law_residual(tri) <= 1e-15  # all three ratios are 1/sqrt(2)
    assert math.isclose(triangle_area(tri), 0.5, abs_tol=1e-15)


def test_345_triangle():
    tri = Triangle.from_sides(vec3(3, 0, 0), vec3(0, 4, 0))
    assert math.isclose(dot(tri.c, tri.c), 25.0, abs_tol=1e-12)
    assert math.isclose(triangle_area(tri), 6.0, abs_tol=1e-12)


def test_degenerate_triangle_rejected():
    tri = Triangle.from_sides(vec3(1, 0, 0), vec3(2, 0, 0))
    with pytest.raises(SingularError):
        sine_law_residual(tri)
    with pytest.raises(SingularError):
        sine_law_residual(Triangle.from_sides(vec3(0, 0, 0), vec3(1, 0, 0)))


@settings(max_examples=80)
@given(
    vectors(G3).filter(lambda v: v.norm() > 0.05),
    vectors(G3).filter(lambda v: v.norm() > 0.05),
)
def test_triangle_laws_hold_generically(a, b):
    tri = Triangle.from_sides(a, b)
    assert cosine_law_residual(tri) <= 1e-10
    a_hat = a / a.norm()
    b_hat = b / b.norm()
    if (a_hat ^ b_hat).norm() <= 1e-3 or tri.c.norm() <= 0.05:
        return  # too close to degenerate for the ratio comparison
    assert sine_law_residual(tri) <= 1e-10


@given(vectors(G3), vectors(G3))
def test_area_is_half_wedge_transfer(a, b):
    tri = Triangle.from_sides(a, b)
    # the wedge of any two sides gives the same doubled area
    assert abs(2 * triangle_area(tri) - (tri.c ^ tri.b).norm()) <= 1e-12
    assert abs(2 * triangle_area(tri) - (tri.a ^ tri.c).norm()) <= 1e-12


def test_triangle_works_in_g2():
    a = Multivector.vector(G2, [1, 0])
    b = Multivector.vector(G2, [0, 1])
    tri = Triangle.from_sides(a, b)
    assert math.isclose(triangle_area(tri), 0.5, abs_tol=1e-15)
    assert cosine_law_residual(tri) <= 1e-15
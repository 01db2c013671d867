from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gacalc import (
    G3,
    GradeError,
    Multivector,
    NonBladeError,
    Signature,
    SingularError,
    basis_vectors,
    compose_rotors,
    dot,
    dual,
    project,
    reflect_in_plane,
    reflect_normal,
    reject,
    rotate,
    rotor_between,
    rotor_from_reflections,
)

from conftest import vectors

E1, E2, E3 = basis_vectors(G3)
E12 = Multivector.blade(G3, 0b011)


def vec3(x, y, z):
    return Multivector.vector(G3, [x, y, z])


def unit(v):
    return v / v.norm()


nonzero_vectors = vectors(G3).filter(lambda v: v.norm() > 1e-3)
unit_vectors = nonzero_vectors.map(unit)


# -- projection and rejection ---------------------------------------------


def test_project_reject_frozen():
    x = vec3(1, 2, 3)
    assert project(x, E1) == vec3(1, 0, 0)
    assert reject(x, E1) == vec3(0, 2, 3)
    assert project(x, E1 * 5) == vec3(1, 0, 0)  # scale of a is irrelevant


def test_project_requires_nonnull_direction():
    with pytest.raises(SingularError):
        project(E1, Multivector.zero(G3))
    with pytest.raises(SingularError):
        reject(E1, Multivector.zero(G3))
    with pytest.raises(GradeError):
        project(E12, E1)


@pytest.mark.parametrize("c", [1e200, 1e-200, 3e-154, 1.5e308])
def test_project_and_reject_along_a_huge_or_tiny_direction(c):
    x = vec3(1, 2, 3)
    for a in (E1 * c, vec3(c, c, 0)):
        assert (project(x, a) + reject(x, a) - x).norm() <= 1e-15
    assert project(x, E1 * c) == vec3(1, 0, 0)
    assert reject(x, E1 * c) == vec3(0, 2, 3)
    assert project(E1 * 3e200, E1 * c).is_close(E1 * 3e200)
    null = Multivector.vector(Signature(1, 1), [c, c])
    for op in (project, reject):
        with pytest.raises(SingularError):
            op(Multivector.vector(Signature(1, 1), [1, 2]), null)


@given(nonzero_vectors, nonzero_vectors)
def test_projection_decomposition(x, a):
    x_par = project(x, a)
    x_perp = reject(x, a)
    assert (x_par + x_perp - x).norm() <= 1e-14 * max(1.0, x.norm())
    assert abs(dot(x_perp, a)) <= 1e-12
    assert (x_par ^ a).norm() <= 1e-12


# -- reflections ------------------------------------------------------------


def test_reflect_in_plane_frozen():
    # the e12 plane keeps in-plane parts, flips the normal part
    x = vec3(1, 2, 3)
    assert reflect_in_plane(x, E12).is_close(vec3(1, 2, -3))
    assert reflect_in_plane(E1, E12).is_close(E1)


def test_reflect_validation():
    with pytest.raises(NonBladeError):
        reflect_in_plane(E1, E12 * 2)  # not unit
    g4 = Signature(4, 0)
    non_blade = Multivector(g4, {0b0011: 1.0, 0b1100: 1.0})
    with pytest.raises(NonBladeError):
        reflect_in_plane(Multivector.vector(g4, [1, 0, 0, 0]), non_blade)
    with pytest.raises(GradeError):
        reflect_in_plane(E1, E2)
    with pytest.raises(GradeError):
        reflect_normal(E1, E2 * 3)  # non-unit normal


def test_reflect_normal_matches_plane_form():
    x = vec3(1, 2, 3)
    assert reflect_normal(x, E3).is_close(vec3(1, 2, -3))
    # -n x n equals the mirror in the plane dual to n
    assert reflect_normal(x, E3).is_close(reflect_in_plane(x, dual(E3)))


@given(nonzero_vectors, unit_vectors)
def test_reflection_involution_and_isometry(x, n):
    B = dual(n)
    once = reflect_in_plane(x, B)
    assert reflect_in_plane(once, B).is_close(x)
    assert abs(once.norm() - x.norm()) <= 1e-12


def test_reflect_in_plane_works_beyond_g3():
    g4 = Signature(4, 0)
    e = basis_vectors(g4)
    B = e[0] ^ e[1]
    x = Multivector.vector(g4, [1, 2, 3, 4])
    assert reflect_in_plane(x, B).is_close(Multivector.vector(g4, [1, 2, -3, -4]))


# -- rotors -----------------------------------------------------------------


def test_rotor_between_frozen():
    R = rotor_between(E1, E2)
    s = 1 / math.sqrt(2)
    assert R.is_close(Multivector(G3, {0: s, 0b011: -s}))  # cos45 - sin45 e12
    assert rotate(E1, R).is_close(E2)


def test_rotor_between_rejects_antipodes_and_non_units():
    with pytest.raises(SingularError):
        rotor_between(E1, -E1)
    with pytest.raises(GradeError):
        rotor_between(E1 * 2, E2)


def test_rotate_quarter_turn_via_exponential():
    R = Multivector.blade(G3, 0b011, -math.pi / 4).exp()
    assert rotate(E1, R).is_close(E2)


def test_rotate_validates_rotor():
    with pytest.raises(GradeError):
        rotate(E1, E2)  # a vector is not a rotor
    with pytest.raises(NonBladeError):
        rotate(E1, (1 + E1 * E2))  # right grades, wrong norm


@settings(max_examples=80)
@given(nonzero_vectors, unit_vectors, unit_vectors)
def test_rotation_is_an_isometry(x, a, b):
    if 1.0 + dot(a, b) <= 1e-6:
        return  # skip near-antipodal pairs, the plane is ill-conditioned
    R = rotor_between(a, b)
    y = rotate(x, R)
    assert abs(y.norm() - x.norm()) <= 1e-12
    assert rotate(a, R).is_close(b)


@given(unit_vectors, unit_vectors)
def test_double_cover_is_exact(a, n):
    R = rotor_from_reflections(n, unit(vec3(0.5, -0.25, 1.0)))
    assert rotate(a, R) == rotate(a, -R)


def test_two_reflections_equal_one_rotation():
    n1 = unit(vec3(1, 0, 0))
    n2 = unit(vec3(1, 1, 0))
    R = rotor_from_reflections(n1, n2)
    x = vec3(0.3, -0.8, 0.5)
    mirrored_twice = reflect_normal(reflect_normal(x, n1), n2)
    assert rotate(x, R).is_close(mirrored_twice)


def test_compose_rotors_applies_in_order():
    # quarter turn e1->e2, then quarter turn e2->e3
    R1 = rotor_between(E1, E2)
    R2 = rotor_between(E2, E3)
    R = compose_rotors(R1, R2)
    assert rotate(E1, R).is_close(E3)


def test_arc_composition_full_angle_products():
    a, b, c = E1, unit(vec3(1, 1, 0)), unit(vec3(0, 1, 1))
    assert ((a * b) * (b * c)).is_close(a * c)


def test_arc_composition_coplanar_rotors_match_direct_up_to_sign():
    # three directions on one great circle: composition equals the
    # direct rotor up to the double-cover sign
    a = E1
    b = unit(vec3(1, 1, 0))
    c = E2
    R = compose_rotors(rotor_between(a, b), rotor_between(b, c))
    direct = rotor_between(a, c)
    assert R.is_close(direct) or R.is_close(-direct)

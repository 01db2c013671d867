from __future__ import annotations

import logging
import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gacalc import (
    G2,
    G3,
    GradeError,
    Multivector,
    SignatureMismatch,
    SingularError,
    antipodal_m,
    basis_vectors,
    dot,
    prob_minus,
    prob_minus_m,
    prob_plus,
    prob_plus_m,
    rotate,
    rotation_form,
    stereo_project,
    stereo_unproject,
    to_m,
)

E1, E2, E3 = basis_vectors(G3)


def vec3(x, y, z):
    return Multivector.vector(G3, [x, y, z])


def unit(v):
    return v / v.norm()


# sphere directions bounded away from the south pole -e3
sphere_points = (
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3)
    .map(lambda c: vec3(*c))
    .filter(lambda v: v.norm() > 1e-2)
    .map(unit)
    .filter(lambda a: 1.0 + a.coeff(0b100) > 1e-6)
)

plane_points = (
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=2)
    .map(lambda c: vec3(c[0], c[1], 0.0))
)


# -- projection charts ---------------------------------------------------------


def test_stereo_project_frozen():
    assert stereo_project(E1).is_close(E1)  # equator is fixed
    assert stereo_project(E3).is_close(Multivector.zero(G3))  # pole to origin
    a = unit(vec3(1, 0, 1))
    x = stereo_project(a)
    assert abs(x.coeff(0b100)) <= 1e-12  # lands in the plane
    assert x.is_close(vec3(math.sqrt(2) - 1, 0, 0))


def test_stereo_unproject_frozen():
    # x = 2 e1 lifts to m = 2 e1 + e3 and lands at (4/5, 0, -3/5)
    assert stereo_unproject(E1 * 2).is_close(vec3(0.8, 0, -0.6))
    assert stereo_unproject(Multivector.zero(G3)).is_close(E3)
    assert stereo_unproject(E1).is_close(E1)


def test_to_m_frozen():
    m = to_m(E1)
    assert m.is_close(E1 + E3)
    assert math.isclose(dot(m, E3), 1.0, abs_tol=1e-15)


def test_projection_validation():
    with pytest.raises(GradeError):
        stereo_project(vec3(1, 1, 1))  # not unit
    with pytest.raises(GradeError):
        stereo_unproject(vec3(0, 0, 0.5))  # not in the plane
    with pytest.raises(SignatureMismatch):
        stereo_project(Multivector.vector(G2, [1, 0]))
    with pytest.raises(SingularError):
        stereo_project(-E3)
    with pytest.raises(SingularError):
        to_m(-E3)


@settings(max_examples=150)
@given(sphere_points)
def test_sphere_round_trip(a):
    assert stereo_unproject(stereo_project(a)).is_close(a, abs_tol=1e-10, rel_tol=1e-10)


def test_sphere_round_trip_near_the_south_pole():
    # a.e3 ~ -0.999998: evaluated literally, 2/(a + e3) - e3 keeps an e3
    # rounding residue of ~1e-10 here, which stereo_unproject rejects
    for a in (unit(vec3(0.0, 0.001, -0.5)), unit(vec3(1e-3, -2e-3, -1.0))):
        x = stereo_project(a)
        assert x.coeff(0b100) == 0.0
        assert stereo_unproject(x).is_close(a, abs_tol=1e-10, rel_tol=1e-10)


@settings(max_examples=150)
@given(plane_points)
def test_plane_round_trip(x):
    back = stereo_project(stereo_unproject(x))
    assert back.is_close(x, abs_tol=1e-10, rel_tol=1e-10)


@given(sphere_points)
def test_unproject_lands_on_sphere_and_m_hits_the_lifted_plane(a):
    x = stereo_project(a)
    on_sphere = stereo_unproject(x)
    assert abs(dot(on_sphere, on_sphere) - 1.0) <= 1e-12
    m = to_m(a)
    assert abs(dot(m, E3) - 1.0) <= 1e-12
    assert m.is_close(x + E3, abs_tol=1e-10, rel_tol=1e-10)


# -- rotation form --------------------------------------------------------------


def test_rotation_form_rotates_pole_onto_unprojection():
    for x in (vec3(2, 0, 0), vec3(-0.3, 0.7, 0), Multivector.zero(G3)):
        R = rotation_form(x)
        assert rotate(E3, R).is_close(stereo_unproject(x))


@given(plane_points)
def test_rotation_form_is_a_rotor(x):
    R = rotation_form(x)
    m = R * R.reverse()
    assert abs(m.scalar_part() - 1.0) <= 1e-12
    assert (m - m.scalar_part()).norm() <= 1e-12
    assert rotate(E3, R).is_close(stereo_unproject(x), abs_tol=1e-10, rel_tol=1e-10)


# -- probabilities ---------------------------------------------------------------


def test_probability_frozen_cases():
    assert prob_plus(E3, E3) == 1.0
    assert prob_minus(E3, E3) == 0.0
    assert prob_plus(E3, E1) == 0.5
    assert prob_plus(E3, -E3) == 0.0
    u = unit(vec3(1, 0, 1))
    assert math.isclose(prob_plus(E3, u), (1 + 1 / math.sqrt(2)) / 2, abs_tol=1e-15)


def test_probability_requires_unit_inputs():
    with pytest.raises(GradeError):
        prob_plus(vec3(2, 0, 0), E3)


@given(sphere_points, sphere_points)
def test_probabilities_are_complementary_exactly(a, b):
    pp = prob_plus(a, b)
    pm = prob_minus(a, b)
    assert pp + pm == 1.0
    assert 0.0 <= pp <= 1.0
    assert 0.0 <= pm <= 1.0


@given(sphere_points, sphere_points)
def test_dot_form_matches_plane_distance_form(a, b):
    assert abs(prob_minus(a, b) - prob_minus_m(a, b)) <= 1e-12
    assert abs(prob_plus(a, b) - prob_plus_m(a, b)) <= 1e-12


def test_m_form_pole_behavior():
    assert prob_plus(-E3, E3) == 0.0  # dot form is total
    with pytest.raises(SingularError):
        prob_minus_m(-E3, E3)  # the m chart has no south pole


# -- antipodes ---------------------------------------------------------------------


def test_antipodal_m_frozen():
    assert antipodal_m(E1).is_close(-E1 + E3)
    assert antipodal_m(E1 * 2).is_close(E1 * -0.5 + E3)
    with pytest.raises(SingularError):
        antipodal_m(Multivector.zero(G3))


@given(plane_points.filter(lambda x: x.norm() > 1e-3))
def test_antipodal_m_is_the_lift_of_the_antipode(x):
    a = stereo_unproject(x)
    target = to_m(-a) if 1.0 - a.coeff(0b100) > 1e-9 else None
    if target is None:
        return
    assert antipodal_m(x).is_close(target, abs_tol=1e-9, rel_tol=1e-9)


@given(sphere_points)
def test_antipodal_probability_is_certainty(a):
    if 1.0 - a.coeff(0b100) <= 1e-6:
        return  # -a would sit at the pole
    # a normalized vector's self-dot is one ulp shy of 1, so allow that
    assert math.isclose(prob_minus(a, -a), 1.0, abs_tol=1e-15)
    assert abs(prob_plus(a, -a)) <= 1e-15


def test_a_clamped_probability_is_logged(caplog):
    # a loose tol admits a direction whose dot with itself passes 1
    a = Multivector.vector(G3, [1.0 + 1e-8, 0.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="gacalc.stereo"):
        assert prob_plus(a, a, tol=1e-6) == 1.0
        assert prob_minus(a, a, tol=1e-6) == 0.0
    assert [r.name for r in caplog.records] == ["gacalc.stereo"] * 2
    assert "prob_plus clamped by 1e-08" in caplog.text

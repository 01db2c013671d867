"""The shared argument guards: each call site raises the guard's error
type, and no module reaches into another module's private names."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import gacalc
from gacalc import (
    AlgebraError,
    G2,
    G3,
    GradeError,
    Line,
    Multivector,
    NonBladeError,
    Plane,
    Signature,
    SignatureMismatch,
    SingularError,
    Triangle,
    cross,
    dot,
    dual,
    plane_normal,
    prob_plus,
    project,
    reflect_in_plane,
    reflect_normal,
    reject,
    rotate,
    rotor_between,
    stereo_project,
    stereo_unproject,
    vector_inverse,
)

G4 = Signature(4, 0)
E1, E2 = Multivector.blade(G3, 0b01), Multivector.blade(G3, 0b10)
F1, F2 = Multivector.blade(G2, 0b01), Multivector.blade(G2, 0b10)
F12 = Multivector.blade(G2, 0b11)
ZERO = Multivector.zero(G3)
# e12 + e34 squares to -2 + 2*e1234: a bivector that is not a blade
NON_BLADE = Multivector(G4, {0b0011: 1.0, 0b1100: 1.0})

GUARD_SITES = {
    # G(3,0) only
    "cross": (SignatureMismatch, lambda: cross(F1, F2)),
    "dual": (SignatureMismatch, lambda: dual(F1)),
    "plane_normal": (SignatureMismatch, lambda: plane_normal(Plane(F1, F12))),
    "stereo_project": (SignatureMismatch, lambda: stereo_project(F1)),
    "stereo_unproject": (SignatureMismatch, lambda: stereo_unproject(F1)),
    "prob_plus": (SignatureMismatch, lambda: prob_plus(F1, F2)),
    # one signature across operands
    "Line": (SignatureMismatch, lambda: Line(E1, F1)),
    "Plane": (SignatureMismatch, lambda: Plane(F1, Multivector.blade(G3, 0b11))),
    "Triangle": (SignatureMismatch, lambda: Triangle(E1, F2, E1 + E2)),
    "dot": (SignatureMismatch, lambda: dot(E1, F1)),
    "add": (SignatureMismatch, lambda: E1 + F1),
    # a direction with nonzero square
    "project": (SingularError, lambda: project(E1, ZERO)),
    "reject": (SingularError, lambda: reject(E1, ZERO)),
    "vector_inverse": (SingularError, lambda: vector_inverse(ZERO)),
    # a bivector whose square is scalar
    "exp": (NonBladeError, lambda: NON_BLADE.exp()),
    "reflect_in_plane": (
        NonBladeError,
        lambda: reflect_in_plane(Multivector.blade(G4, 0b1), NON_BLADE),
    ),
    "Plane.bivector": (NonBladeError, lambda: Plane(Multivector.blade(G4, 0b1), NON_BLADE)),
}


@pytest.mark.parametrize("site", GUARD_SITES)
def test_each_guard_site_raises_its_error_type(site):
    error, call = GUARD_SITES[site]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("site", ["exp", "reflect_in_plane", "Plane"])
@pytest.mark.parametrize("coeff", [1e200, math.nan])  # squares to -inf, nan
def test_a_non_finite_bivector_square_is_rejected(site, coeff):
    B = Multivector.blade(G3, 0b11, coeff)
    call = {
        "exp": B.exp,
        "reflect_in_plane": lambda: reflect_in_plane(E1, B),
        "Plane": lambda: Plane(E1, B),
    }[site]
    with pytest.raises(AlgebraError, match="not finite"):
        call()


NAN_GUARD_SITES = {
    "rotate": (NonBladeError, lambda: rotate(E1, Multivector.scalar(G3, math.nan))),
    "reflect_normal": (GradeError, lambda: reflect_normal(E2, E1 + E2 * math.nan)),
    "rotor_between": (GradeError, lambda: rotor_between(E1, E1 + E2 * math.nan)),
    "prob_plus": (GradeError, lambda: prob_plus(E1, E1 + E2 * math.nan)),
    "stereo_unproject": (
        GradeError,
        lambda: stereo_unproject(E1 + Multivector.blade(G3, 0b100, math.nan)),
    ),
    "Line": (SingularError, lambda: Line(E1, E2 * math.nan)),
}


@pytest.mark.parametrize("site", NAN_GUARD_SITES)
def test_a_nan_fails_the_unit_rotor_and_plane_guards(site):
    error, call = NAN_GUARD_SITES[site]
    with pytest.raises(error):
        call()


def test_no_module_imports_a_private_name_from_another():
    package = Path(gacalc.__file__).parent
    crossings = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("gacalc"):
                continue
            crossings += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert crossings == []

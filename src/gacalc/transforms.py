"""Projections, reflections, and rotor rotations.

A rotor is represented as a plain Multivector satisfying the rotor
contract: only grades {0, 2}, and R * ~R = 1 within tolerance. Every
operation that consumes a rotor validates that contract, so any unit
even multivector works, whether built here, from a bivector
exponential, or as a product of unit vectors. A rotor and its negation
act identically in the two-sided sandwich (double cover).

R * ~R is its own reverse, so for an even R it holds only grades 0, 4,
8, ...; its scalar part is ``R.norm_squared()`` bit for bit. Below
dimension 4 that is the whole product, and the check forms none. From
dimension 4 up it forms R * ~R and bounds the grade-4 residual too: in
G(4,0), (e12 + e34)/sqrt(2) has norm_squared 1 yet R * ~R = 1 - e1234,
and it is no rotor. ``blade_square`` and ``Multivector.inverse`` follow
the same rule (``reverse_square_is_scalar``).

Every sandwich here is ``sandwich(V, x)``, the vector part of V x ~V,
which sums only the vector terms of the second product and builds no
reverse: ``rotate`` is sandwich(R, x), ``reflect_normal`` -sandwich(n, x)
since ~n = n, and ``reflect_in_plane`` -sandwich(B, x) since ~B = -B.
"""

from __future__ import annotations

from gacalc.algebra import (
    DEFAULT_TOL,
    GradeError,
    Multivector,
    NonBladeError,
    SingularError,
    blade_square,
    dot,
    non_scalar_norm,
    require_unit_vector,
    require_vector,
    reverse_square_is_scalar,
    sandwich,
    vector_square,
)

__all__ = [
    "project",
    "reject",
    "reflect_in_plane",
    "reflect_normal",
    "rotor_between",
    "rotate",
    "rotor_from_reflections",
    "compose_rotors",
]


def project(x: Multivector, a: Multivector) -> Multivector:
    """Component of x along the direction a: (x.a^)a^ for unit a^,
    computed as (x.a) a / (a.a) so any nonzero scale of a works."""
    require_vector("project", x)
    # a / 2^e spans the same direction, and keeps a.a finite and nonzero
    _, a, s = vector_square("project", a)
    return a * (dot(x, a) / s)


def reject(x: Multivector, a: Multivector) -> Multivector:
    """Component of x orthogonal to a: (x^a^).a^, the vector part of the
    wedge route (x^a^)a^, so that project + reject recovering x is a real
    check rather than a bookkeeping identity."""
    require_vector("reject", x)
    _, a, s = vector_square("reject", a)
    return ((x ^ a) | a) / s


def reflect_in_plane(x: Multivector, B: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Mirror x in the plane of the unit 2-blade B: the sandwich B x B
    keeps the in-plane part and flips the orthogonal part. Works in any
    dimension."""
    require_vector("reflect_in_plane", x)
    s = blade_square("reflect_in_plane", B, tol)
    if abs(s + 1.0) > tol:
        raise NonBladeError(f"reflect_in_plane expects a unit plane: B*B = -1, got {s!r}")
    # ~B = -B, so B x B = -(B x ~B)
    return -sandwich(B, x)


def reflect_normal(x: Multivector, n: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Mirror x through the hyperplane orthogonal to the unit vector n:
    -n x n. In G(3,0) this equals reflect_in_plane(x, dual(n))."""
    require_vector("reflect_normal", x)
    require_unit_vector("reflect_normal", n, tol)
    # ~n = n
    return -sandwich(n, x)


def _check_rotor(name: str, R: Multivector, tol: float) -> None:
    if any(g not in (0, 2) for g in R.grades()):
        raise GradeError(f"{name} expects a rotor (grades 0 and 2), got grades {R.grades()}")
    # norm_squared is R * ~R's scalar part bit for bit. Written so that a
    # nan fails it
    if not abs(R.norm_squared() - 1.0) <= tol or not (
        reverse_square_is_scalar(R) or non_scalar_norm(R * R.reverse()) <= tol
    ):
        raise NonBladeError(f"{name} expects a unit rotor: R * ~R must be 1")


def rotor_between(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Rotor turning unit vector a into unit vector b through their
    common plane: (1 + b a) normalized. Antipodal inputs leave the
    rotation plane undefined and are rejected."""
    require_unit_vector("rotor_between", a, tol)
    require_unit_vector("rotor_between", b, tol)
    if 1.0 + dot(a, b) <= tol:
        raise SingularError("rotor_between is undefined for antipodal vectors")
    r = 1 + b * a
    return r / r.norm()


def rotate(x: Multivector, R: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Apply the rotor R to the vector x by the two-sided sandwich
    R x ~R. R and -R rotate identically."""
    require_vector("rotate", x)
    _check_rotor("rotate", R, tol)
    return sandwich(R, x)


def rotor_from_reflections(
    n1: Multivector, n2: Multivector, tol: float = DEFAULT_TOL
) -> Multivector:
    """Rotor equivalent to reflecting in the n1 hyperplane and then the
    n2 hyperplane: the product n2 n1. The rotation angle is twice the
    angle between the two unit normals."""
    require_unit_vector("rotor_from_reflections", n1, tol)
    require_unit_vector("rotor_from_reflections", n2, tol)
    return n2 * n1


def compose_rotors(R1: Multivector, R2: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Rotor applying R1 first and then R2: the product R2 R1,
    renormalized to keep long chains on the unit sphere of rotors."""
    _check_rotor("compose_rotors", R1, tol)
    _check_rotor("compose_rotors", R2, tol)
    r = R2 * R1
    return r / r.norm()

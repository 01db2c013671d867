"""Analytic geometry on top of the algebra kernel: lines and planes in
point-direction form, point containment and distance, and triangle
identities (Law of Cosines, Law of Sines, wedge area).

The foot of the perpendicular from a point and its length are the
projection and the rejection of the point's offset from the line's
anchor, so they inherit the scale-safe direction of ``transforms``.
Containment tests use a relative tolerance scaled by the input
magnitudes with an absolute floor, so they behave sensibly for both
tiny and large configurations. They measure every size by the
coefficient norm, whose squares do not cancel in a mixed signature;
distances and the triangle identities use the metric norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gacalc.algebra import (
    DEFAULT_TOL,
    GradeError,
    Multivector,
    NonBladeError,
    SingularError,
    blade_square,
    coefficient_norm,
    dot,
    dual,
    require_g3,
    require_same_sig,
    require_vector,
    vector_square,
)
from gacalc.transforms import project, reject

__all__ = [
    "Line",
    "Plane",
    "Triangle",
    "line_contains",
    "closest_point_on_line",
    "distance_to_line",
    "plane_contains",
    "plane_normal",
    "cosine_law_residual",
    "sine_law_residual",
    "triangle_area",
]

# |sin| of the angle between two unit sides below this counts as collinear
_DEGENERATE_SINE = 1e-10


@dataclass(frozen=True)
class Line:
    """Line through ``point`` with direction ``direction`` (nonzero,
    positive square): x(t) = point + t * direction."""

    point: Multivector
    direction: Multivector

    def __post_init__(self) -> None:
        require_vector("Line.point", self.point)
        require_same_sig(self.point, self.direction)
        # written so that a nan square fails it
        if not vector_square("Line.direction", self.direction)[2] > 0.0:
            raise SingularError("Line.direction must have positive square")


@dataclass(frozen=True)
class Plane:
    """Plane through ``point`` spanned by the 2-blade ``bivector``:
    points x with (x - point) ^ bivector = 0."""

    point: Multivector
    bivector: Multivector

    def __post_init__(self) -> None:
        require_vector("Plane.point", self.point)
        require_same_sig(self.point, self.bivector)
        if blade_square("Plane.bivector", self.bivector, DEFAULT_TOL) >= 0.0:
            raise NonBladeError("Plane.bivector must have negative square")


def _wedges_to_nothing(offset: Multivector, blade: Multivector, tol: float) -> bool:
    gap = coefficient_norm(offset ^ blade)
    bound = tol * coefficient_norm(blade) * max(1.0, coefficient_norm(offset))
    if gap == math.inf or bound == math.inf:
        # a size overflowed: take offset / 2^e and blade / 2^f, each exponent
        # from the largest coefficient as in the one rescale rule, and the
        # floor 1 as 1 / 2^e; an infinite coefficient is on nothing
        tops = [max(map(abs, v.terms.values()), default=0.0) for v in (offset, blade)]
        if math.inf in tops:
            return False
        e, f = (math.frexp(top)[1] for top in tops)
        offset, blade = offset * math.ldexp(1.0, -e), blade * math.ldexp(1.0, -f)
        gap = coefficient_norm(offset ^ blade)
        bound = tol * coefficient_norm(blade) * max(math.ldexp(1.0, -e), coefficient_norm(offset))
    return gap <= bound


def line_contains(line: Line, x: Multivector, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies on the line: the offset from the anchor wedges to
    nothing with the direction, up to a tolerance scaled by both. Every
    size is a ``coefficient_norm``, not the metric ``norm``, so a wedge
    that is null in a mixed signature still counts as off the line."""
    require_vector("line_contains", x)
    return _wedges_to_nothing(x - line.point, line.direction, tol)


def closest_point_on_line(line: Line, p: Multivector) -> Multivector:
    """Foot of the perpendicular from p: the anchor plus the projection
    of the offset onto the direction."""
    require_vector("closest_point_on_line", p)
    return line.point + project(p - line.point, line.direction)


def distance_to_line(line: Line, p: Multivector) -> float:
    """Perpendicular distance from p to the line: the norm of the offset's
    rejection from the direction, or 0 if the rejection is null or has
    negative square, which only a mixed signature allows."""
    require_vector("distance_to_line", p)
    across = reject(p - line.point, line.direction)
    try:
        # the sign of across.across, taken on across / 2^e so it cannot overflow or vanish
        s = vector_square("distance_to_line", across)[2]
    except SingularError:  # p lies on the line, or across is null
        return 0.0
    # a nan s fails the test, so a nan offset keeps its nan distance
    return 0.0 if s < 0.0 else across.norm()


def plane_contains(plane: Plane, x: Multivector, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in the plane: the offset wedges to nothing with
    the spanning bivector, up to a tolerance scaled by both, each size a
    ``coefficient_norm`` as in ``line_contains``."""
    require_vector("plane_contains", x)
    return _wedges_to_nothing(x - plane.point, plane.bivector, tol)


def plane_normal(plane: Plane) -> Multivector:
    """Normal vector of a G(3,0) plane: the negated dual -e123 B, which
    matches the cross product of any spanning pair."""
    require_g3("plane_normal", plane.bivector)
    return -dual(plane.bivector)


@dataclass(frozen=True)
class Triangle:
    """Triangle described by side vectors satisfying a + b = c exactly.

    Walking along a and then b covers the same displacement as c, so c
    is opposite the angle between a and b. Use from_sides or
    from_vertices, which construct c as the exact float sum a + b.
    """

    a: Multivector
    b: Multivector
    c: Multivector

    def __post_init__(self) -> None:
        for name, side in (("a", self.a), ("b", self.b), ("c", self.c)):
            require_vector(f"Triangle.{name}", side)
        require_same_sig(self.a, self.b)
        require_same_sig(self.a, self.c)
        if self.a + self.b != self.c:
            raise GradeError("Triangle sides must satisfy a + b = c exactly")

    @classmethod
    def from_sides(cls, a: Multivector, b: Multivector) -> "Triangle":
        return cls(a, b, a + b)

    @classmethod
    def from_vertices(cls, p: Multivector, q: Multivector, r: Multivector) -> "Triangle":
        a = q - p
        b = r - q
        return cls(a, b, a + b)


def cosine_law_residual(tri: Triangle) -> float:
    """|a|^2 + 2 a.b + |b|^2 - |c|^2, which the Law of Cosines says is
    zero (the dot term carries -2|a||b|cos of the exterior angle)."""
    return abs(
        tri.a.norm_squared() + 2.0 * dot(tri.a, tri.b) + tri.b.norm_squared()
        - tri.c.norm_squared()
    )


def sine_law_residual(tri: Triangle) -> float:
    """Largest pairwise gap between sin(angle)/opposite-side ratios,
    with each sine taken as the wedge norm of the unit sides meeting at
    the angle. Collinear (degenerate) triangles are rejected."""
    na, nb, nc = tri.a.norm(), tri.b.norm(), tri.c.norm()
    if 0.0 in (na, nb, nc):
        raise SingularError("degenerate triangle: zero-length side")
    a_hat, b_hat, c_hat = tri.a / na, tri.b / nb, tri.c / nc
    sin_c = (a_hat ^ b_hat).norm()
    if sin_c <= _DEGENERATE_SINE:
        raise SingularError("degenerate triangle: sides are collinear")
    ratios = [
        (c_hat ^ b_hat).norm() / na,
        (a_hat ^ c_hat).norm() / nb,
        sin_c / nc,
    ]
    return max(ratios) - min(ratios)


def triangle_area(tri: Triangle) -> float:
    """Half the wedge norm of two sides: the parallelogram area halved."""
    return 0.5 * (tri.a ^ tri.b).norm()

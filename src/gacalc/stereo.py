"""Stereographic projection between the unit sphere in G(3,0) and the
equatorial plane, from the north pole e3.

Three coordinate charts appear here. A sphere point is a unit grade-1
vector. A plane point x lies in the equatorial plane (x.e3 = 0). The
lifted plane point m = x + e3 satisfies m.e3 = 1 and makes the inverse
map a one-line sandwich: the unit direction of m reflects the pole back
onto the sphere. The south pole -e3 projects to infinity and is
rejected wherever it would be consumed.

The two-outcome probabilities use the dot form (1 +- a.b)/2 as the
primary computation; the squared-plane-distance form is provided
separately as an independent verification path. A probability that
rounding pushes out of [0, 1] is clamped and logged as a warning on the
``gacalc.stereo`` logger; ``logging`` is imported only on that branch,
so loading this module does not load it.
"""

from __future__ import annotations

from gacalc.algebra import (
    DEFAULT_TOL,
    G3,
    GradeError,
    Multivector,
    SingularError,
    dot,
    dual,
    require_g3,
    require_unit_vector,
    require_vector,
    sandwich,
    vector_inverse,
)

__all__ = [
    "stereo_project",
    "to_m",
    "stereo_unproject",
    "rotation_form",
    "prob_plus",
    "prob_minus",
    "prob_plus_m",
    "prob_minus_m",
    "antipodal_m",
]

# squared norm of (a + e3) below this counts as the projection pole
_POLE_EPS = 1e-24

# e3; a Multivector is immutable, so one value serves every call
_POLE = Multivector.blade(G3, 0b100)


def _require_sphere_point(name: str, a: Multivector, tol: float) -> None:
    require_g3(name, a)
    require_unit_vector(name, a, tol)


def _require_plane_point(name: str, x: Multivector, tol: float) -> None:
    require_g3(name, x)
    require_vector(name, x)
    # written so that a nan e3 part fails it
    if not abs(x.coeff(0b100)) <= tol:
        raise GradeError(f"{name} expects a point in the equatorial plane (x.e3 = 0)")


def _guard_pole(name: str, a: Multivector) -> Multivector:
    shifted = a + _POLE
    if shifted.norm_squared() < _POLE_EPS:
        raise SingularError(f"{name} is singular at the south pole -e3")
    return shifted


def stereo_project(a: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Project the unit sphere point a onto the equatorial plane:
    x = 2/(a + e3) - e3, the intersection of the plane with the ray
    from the south pole through a."""
    _require_sphere_point("stereo_project", a, tol)
    shifted = _guard_pole("stereo_project", a)
    y = 2 * vector_inverse(shifted)
    # x = y - e3 lies in the plane, but its computed e3 part y3 - 1
    # cancels two numbers near 1 and keeps a rounding residue that grows
    # like 1/(1 + a.e3) toward the south pole, past stereo_unproject's
    # plane check; so x is taken as y's in-plane part
    get = y.terms.get
    return Multivector._trusted(G3, {0b001: get(0b001, 0.0), 0b010: get(0b010, 0.0)})


def to_m(a: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Lifted plane point of a sphere point: m = (a + e3)/(1 + a.e3),
    the plane image shifted up so that m.e3 = 1."""
    _require_sphere_point("to_m", a, tol)
    shifted = _guard_pole("to_m", a)
    return shifted / (1.0 + dot(a, _POLE))


def stereo_unproject(x: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Map the plane point x back to the unit sphere: with m = x + e3,
    the sandwich m^ e3 m^ reflects the pole through the unit direction
    of m, landing exactly on the sphere."""
    _require_plane_point("stereo_unproject", x, tol)
    m = x + _POLE
    m_hat = m / m.norm()
    # ~m_hat = m_hat
    return sandwich(m_hat, _POLE)


def rotation_form(x: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Rotor R = -e123 m^ whose sandwich R e3 ~R equals
    stereo_unproject(x): a half-turn in the plane dual to m."""
    _require_plane_point("rotation_form", x, tol)
    m = x + _POLE
    m_hat = m / m.norm()
    return -dual(m_hat)


def _clamped_probability(name: str, value: float) -> float:
    clamped = min(1.0, max(0.0, value))
    if abs(clamped - value) > 1e-12:
        import logging

        logging.getLogger(__name__).warning("%s clamped by %.3g", name, abs(clamped - value))
    return clamped


def prob_plus(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> float:
    """Probability (1 + a.b)/2 of the aligned outcome for unit
    directions a and b, clamped into [0, 1]. Computed as 0.5 + 0.5*a.b
    so that prob_plus + prob_minus is exactly 1."""
    _require_sphere_point("prob_plus", a, tol)
    _require_sphere_point("prob_plus", b, tol)
    return _clamped_probability("prob_plus", 0.5 + 0.5 * dot(a, b))


def prob_minus(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> float:
    """Probability (1 - a.b)/2 of the anti-aligned outcome, clamped
    into [0, 1]; complementary to prob_plus exactly."""
    _require_sphere_point("prob_minus", a, tol)
    _require_sphere_point("prob_minus", b, tol)
    return _clamped_probability("prob_minus", 0.5 - 0.5 * dot(a, b))


def prob_minus_m(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> float:
    """Anti-aligned probability in the lifted-plane chart:
    (m_a - m_b)^2 / (m_a^2 m_b^2). An independent verification path for
    prob_minus; errors if either direction sits at the projection pole."""
    ma = to_m(a, tol)
    mb = to_m(b, tol)
    gap = ma - mb
    return gap.norm_squared() / (ma.norm_squared() * mb.norm_squared())


def prob_plus_m(a: Multivector, b: Multivector, tol: float = DEFAULT_TOL) -> float:
    """Aligned probability in the lifted-plane chart: one minus the
    squared-distance ratio. Verification path for prob_plus."""
    return 1.0 - prob_minus_m(a, b, tol)


def antipodal_m(x: Multivector, tol: float = DEFAULT_TOL) -> Multivector:
    """Lifted plane point of the sphere antipode of the point that
    projects to x: m = -1/x + e3. The origin's antipode is the pole
    itself, which has no plane image."""
    _require_plane_point("antipodal_m", x, tol)
    if x.norm_squared() < _POLE_EPS:
        raise SingularError("antipodal_m: the antipode of the origin projects to infinity")
    return -vector_inverse(x) + _POLE

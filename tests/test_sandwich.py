"""``sandwich(V, x)``, the grade-1 part of V x ~V, gives what the product
form ``(V * x * ~V).grade(1)`` gives bit for bit, and so do its call
sites ``rotate``, ``reflect_normal``, ``reflect_in_plane`` and
``stereo_unproject``."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from gacalc import (
    G3,
    AlgebraError,
    Multivector,
    Signature,
    dual,
    reflect_in_plane,
    reflect_normal,
    rotate,
    stereo_project,
    stereo_unproject,
    vector_inverse,
)
from gacalc.algebra import sandwich

from conftest import edge_coeff, multivectors, vectors

SIGS = [
    Signature(1, 0),
    Signature(3, 0),
    Signature(2, 1),
    Signature(4, 0),
    Signature(4, 1),
    Signature(3, 3),
]
E3 = Multivector.blade(G3, 0b100)


def exact(call):
    """Sorted (blade, hex) terms of call(), or the type of its error: equal
    only for the same doubles (every nan reads "nan")."""
    try:
        A = call()
    except AlgebraError as exc:
        return type(exc)
    return sorted((b, c.hex()) for b, c in A.terms.items())


def operand(data, sig):
    """x of sig, a fresh equal Signature(p, q) or another signature, as a
    vector or any value."""
    other = Signature(1, 0) if sig.dim > 1 else Signature(0, 1)
    x_sig = data.draw(st.sampled_from([sig, sig, Signature(sig.p, sig.q), other]))
    vector = multivectors(x_sig, coeff=edge_coeff, grades=(1,))
    return data.draw(st.one_of(vector, multivectors(x_sig, coeff=edge_coeff)))


@pytest.mark.parametrize("sig", SIGS, ids=str)
@settings(max_examples=60)
@given(data=st.data())
def test_sandwich_is_the_product_form_bit_for_bit(sig, data):
    V = data.draw(multivectors(sig, coeff=edge_coeff))
    x = operand(data, sig)
    assert exact(lambda: sandwich(V, x)) == exact(lambda: (V * x * ~V).grade(1))


@pytest.mark.parametrize("sig", SIGS, ids=str)
@settings(max_examples=60)
@given(data=st.data())
def test_the_reflection_sandwiches_are_their_product_forms_bit_for_bit(sig, data):
    # ~n = n for a vector and ~B = -B for a bivector
    n = data.draw(multivectors(sig, coeff=edge_coeff, grades=(1,)))
    x = operand(data, sig)
    assert exact(lambda: -sandwich(n, x)) == exact(lambda: -(n * x * n).grade(1))
    if sig.dim >= 2:
        B = data.draw(multivectors(sig, coeff=edge_coeff, grades=(2,)))
        assert exact(lambda: -sandwich(B, x)) == exact(lambda: (B * x * B).grade(1))


@settings(max_examples=100)
@given(
    x=multivectors(G3, coeff=edge_coeff, grades=(1,)),
    a=vectors(G3),
    b=vectors(G3),
    plane=st.tuples(edge_coeff, edge_coeff),
)
def test_the_call_sites_keep_the_product_form(x, a, b, plane):
    assume(a.norm() > 0.1 and b.norm() > 0.1)
    n = a / a.norm()
    R = a * b / (a.norm() * b.norm())
    assert exact(lambda: rotate(x, R)) == exact(lambda: (R * x * ~R).grade(1))
    assert exact(lambda: reflect_normal(x, n)) == exact(lambda: -(n * x * n).grade(1))
    B = dual(n)
    assert exact(lambda: reflect_in_plane(x, B)) == exact(lambda: (B * x * B).grade(1))

    p = Multivector.vector(G3, [plane[0], plane[1], 0.0])

    def old_unproject():
        m = p + E3
        m_hat = m / m.norm()
        return (m_hat * E3 * m_hat).grade(1)

    assert exact(lambda: stereo_unproject(p)) == exact(old_unproject)


@settings(max_examples=100)
@given(a=vectors(G3))
def test_stereo_project_keeps_the_in_plane_part(a):
    assume(a.norm() > 0.1)
    a = a / a.norm()
    assume(a.coeff(0b100) > -0.9)
    y = 2 * vector_inverse(a + E3)
    old = Multivector.vector(G3, [y.coeff(0b001), y.coeff(0b010), 0.0])
    assert exact(lambda: stereo_project(a)) == exact(lambda: old)
    assert list(stereo_project(a).terms) == list(old.terms)


def test_sandwich_reports_a_signature_mismatch():
    R = Multivector.scalar(G3, 1.0)
    with pytest.raises(AlgebraError, match="different algebras"):
        sandwich(R, Multivector.blade(Signature(2, 0), 0b1))
    # an equal signature built apart is the same algebra
    assert sandwich(R, Multivector.blade(Signature(3, 0), 0b1)) == Multivector.blade(G3, 0b1)
    assert math.isnan(sandwich(R, Multivector.blade(G3, 0b1, math.nan)).coeff(0b1))

"""Reverse squares without products: below dimension 4, the rotor check,
``blade_square`` and ``Multivector.inverse`` take A * ~A's scalar part
from ``norm_squared`` and form no product, and give what the product
gives bit for bit; from dimension 4 up the product and its grade-4
residual still decide."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from gacalc import (
    AlgebraError,
    DEFAULT_TOL,
    G3,
    Multivector,
    NonBladeError,
    Signature,
    SingularError,
    compose_rotors,
    rotate,
)
from gacalc.algebra import (
    _NULL_EPS,
    _pow2_divided,
    _scaled_square,
    blade_square,
    non_scalar_norm,
    reverse_square_is_scalar,
)
from gacalc.transforms import _check_rotor

from conftest import multivectors, tame_coeff, wild_coeff

LOW_SIGS = [
    Signature(1, 0),
    Signature(2, 0),
    Signature(3, 0),
    Signature(1, 1),
    Signature(2, 1),
    Signature(1, 2),
    Signature(0, 3),
]
EVEN, ODD = (0, 2), (1, 3)


def bits(x: float) -> str:
    """Equal only for the same double: +0.0 and -0.0 differ."""
    return x.hex()


def exact_terms(A):
    return {b: c.hex() for b, c in A.terms.items()}


def old_rotor_verdict(R, tol):
    """The rotor check as it read with the product at every dimension."""
    m = R * R.reverse()
    return abs(m.scalar_part() - 1.0) <= tol and non_scalar_norm(m) <= tol


def rotor_verdict(R, tol):
    try:
        _check_rotor("t", R, tol)
    except NonBladeError:
        return False
    return True


NOT_INVERTIBLE = (SingularError, "multivector is not invertible by reversal")


def unscaled_residual(m):
    """non_scalar_norm as it read before it rescaled: its squares overflow
    past ~1.3e154."""
    total = 0.0
    for b, c in m.terms.items():
        if b:
            total += -c * c if (b >> m.sig.p).bit_count() & 1 else c * c
    return math.sqrt(abs(total))


def old_inverse(A, tol=DEFAULT_TOL, residual_check=True):
    """Multivector.inverse as it read with the product at every dimension."""
    e, A, s = _scaled_square(A)
    if abs(s) <= _NULL_EPS:
        raise SingularError("multivector has no inverse: A * ~A vanishes")
    rev = A.reverse()
    if residual_check and unscaled_residual(A * rev) > tol * max(1.0, abs(s)):
        raise SingularError(NOT_INVERTIBLE[1])
    return _pow2_divided("inverse", rev / s, e)


def outcome(call):
    try:
        return exact_terms(call())
    except AlgebraError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("sig", LOW_SIGS, ids=str)
@settings(max_examples=60)
@given(data=st.data())
def test_an_even_reverse_square_is_norm_squared_bit_for_bit(sig, data):
    R = data.draw(multivectors(sig, coeff=wild_coeff, grades=EVEN))
    m = R * R.reverse()
    assert bits(R.norm_squared()) == bits(m.scalar_part())
    assert reverse_square_is_scalar(R)
    # a tame R and R scaled onto |norm_squared| = 1 keep the old verdict;
    # an R whose rounding residual nears tol may flip, as documented
    R = data.draw(multivectors(sig, coeff=tame_coeff, grades=EVEN))
    s = R.norm_squared()
    candidates = [R]
    if abs(s) > 1e-6:
        candidates.append(R / math.sqrt(abs(s)))
    for candidate in candidates:
        assume(sum(c * c for c in candidate.terms.values()) <= 4.0)
        assert rotor_verdict(candidate, DEFAULT_TOL) == old_rotor_verdict(candidate, DEFAULT_TOL)


@pytest.mark.parametrize("sig", [s for s in LOW_SIGS if s.dim >= 2], ids=str)
@settings(max_examples=60)
@given(data=st.data())
def test_blade_square_is_the_product_scalar_bit_for_bit(sig, data):
    B = data.draw(multivectors(sig, coeff=wild_coeff, grades=(2,)))
    assume(B)
    square = (B * B).scalar_part()
    if math.isfinite(square):
        assert bits(blade_square("t", B, DEFAULT_TOL)) == bits(square)
    else:
        with pytest.raises(AlgebraError, match="not finite"):
            blade_square("t", B, DEFAULT_TOL)


def test_a_null_bivector_square_is_plus_zero():
    # e12 and e13 square to -1 and +1 in G(2,1): (e12 + e13)^2 = 0.0
    B = Multivector(Signature(2, 1), {0b011: 1.0, 0b101: 1.0})
    assert bits(blade_square("t", B, DEFAULT_TOL)) == bits((B * B).scalar_part()) == bits(0.0)


@pytest.mark.parametrize("sig", LOW_SIGS, ids=str)
@pytest.mark.parametrize("parity", [EVEN, ODD], ids=["even", "odd"])
@settings(max_examples=60)
@given(data=st.data())
def test_a_one_parity_inverse_keeps_the_old_terms(sig, parity, data):
    A = data.draw(multivectors(sig, coeff=wild_coeff, grades=parity))
    old = outcome(lambda: old_inverse(A))
    if old == NOT_INVERTIBLE:
        # A * ~A is scalar here, so the old residual was rounding: of
        # products that cancel in a mixed signature, or of terms past
        # ~1.3e154 whose squares overflowed. Only that verdict changes
        old = outcome(lambda: old_inverse(A, residual_check=False))
    assert outcome(A.inverse) == old


def test_an_overflowing_old_residual_no_longer_rejects_a_g3_inverse():
    A = Multivector(G3, {0: 2.9e138, 0b011: 2.9e138, 0b101: 4.2e31, 0b110: 3.3e15})
    assert outcome(lambda: old_inverse(A)) == NOT_INVERTIBLE
    assert (A * A.inverse()).is_close(1.0)


@settings(max_examples=60)
@given(data=st.data())
def test_a_vector_inverse_keeps_the_old_terms_in_any_dimension(data):
    sig = data.draw(st.sampled_from([Signature(4, 0), Signature(4, 1), Signature(3, 3)]))
    a = data.draw(multivectors(sig, coeff=wild_coeff, grades=(1,)))
    assert reverse_square_is_scalar(a)
    assert outcome(a.inverse) == outcome(lambda: old_inverse(a))


# -- dimension 4: the grade-4 residual still decides -----------------------

G4 = Signature(4, 0)
# (e12 + e34)/sqrt(2): norm_squared 1, yet R * ~R = 1 - e1234
NOT_A_ROTOR = Multivector(G4, {0b0011: math.sqrt(0.5), 0b1100: math.sqrt(0.5)})
TURN = Multivector(G4, {0: math.sqrt(0.5), 0b0011: math.sqrt(0.5)})
F1 = Multivector.blade(G4, 0b0001)


@pytest.mark.parametrize(
    "sig, terms, scalar",
    [
        (G3, {0: 1.0, 0b001: 1.0}, False),  # (1 + e1) * ~(1 + e1) = 2 + 2*e1
        (G3, {0b001: 1.0, 0b111: 1.0}, True),  # odd: e1 and e123
        (G4, {0: 1.0, 0b0011: 1.0}, False),  # even from dimension 4 up
        (G4, {0b0001: 1.0, 0b1000: 2.0}, True),  # a vector in any dimension
    ],
)
def test_which_reverse_squares_are_scalar_by_form(sig, terms, scalar):
    assert reverse_square_is_scalar(Multivector(sig, terms)) is scalar


def test_the_dimension_4_residual_still_bites():
    assert abs(NOT_A_ROTOR.norm_squared() - 1.0) <= DEFAULT_TOL
    assert not reverse_square_is_scalar(NOT_A_ROTOR)
    assert non_scalar_norm(NOT_A_ROTOR * NOT_A_ROTOR.reverse()) == pytest.approx(1.0)
    with pytest.raises(NonBladeError, match="unit rotor"):
        rotate(F1, NOT_A_ROTOR)
    for pair in ((NOT_A_ROTOR, TURN), (TURN, NOT_A_ROTOR)):
        with pytest.raises(NonBladeError, match="unit rotor"):
            compose_rotors(*pair)
    with pytest.raises(SingularError, match="not invertible by reversal"):
        NOT_A_ROTOR.inverse()
    # a true rotor of G(4,0) passes all three
    assert rotate(F1, TURN).is_close(Multivector.blade(G4, 0b0010, -1.0))
    assert compose_rotors(TURN, TURN).is_close(Multivector.blade(G4, 0b0011))
    assert (TURN * TURN.inverse()).is_close(1.0)


def test_a_large_dimension_4_rotor_inverts():
    # unit rotors of e1..e3 times 1e153: A * ~A is ~1e306, finite, but its
    # rounding terms of ~1e290 overflowed the unscaled residual
    rng = random.Random(14)
    overflowed = 0
    for _ in range(200):
        w = [rng.gauss(0.0, 1.0) for _ in range(4)]
        k = math.sqrt(sum(c * c for c in w))
        A = Multivector(G4, dict(zip((0, 0b011, 0b101, 0b110), (1e153 * c / k for c in w))))
        overflowed += unscaled_residual(A * A.reverse()) == math.inf
        assert (A * A.inverse()).is_close(1.0)
    assert overflowed > 50
    with pytest.raises(SingularError, match="not invertible by reversal"):
        (NOT_A_ROTOR * 1e153).inverse()


def test_a_large_dimension_4_blade_is_a_blade():
    # (a ^ b) * 1e153 squares to a finite scalar near -1e306, with rounding
    # terms that overflowed the unscaled residual
    rng = random.Random(14)
    for _ in range(50):
        a, b = (Multivector.vector(G4, [rng.gauss(0.0, 1.0) for _ in range(4)]) for _ in "ab")
        B = (a ^ b) * 1e153
        assert bits(blade_square("t", B, DEFAULT_TOL)) == bits((B * B).scalar_part())


def test_an_overflowing_residual_is_rescaled():
    m = Multivector(G4, {0: 1.0, 0b0011: 1e-300, 0b1111: 3e200})
    assert non_scalar_norm(m) == 3e200
    # metric-signed squares of 4e400 and -1e400, whose unscaled sum is
    # inf - inf; the residual adds them unsigned
    mixed = Multivector(Signature(4, 1), {0: 1.0, 0b01111: 2e200, 0b10111: 1e200})
    assert math.isnan(unscaled_residual(mixed))
    assert non_scalar_norm(mixed) == pytest.approx(math.sqrt(5.0) * 1e200, rel=1e-15)
    # past the largest double the residual is inf, as norm() is
    huge = Multivector(G4, {0b0011: 1.5e308, 0b1100: 1.5e308})
    assert non_scalar_norm(huge) == huge.norm() == math.inf


def inverse_verdict(A):
    try:
        A.inverse()
    except SingularError:
        return False
    return True


def seeded_even_values(sig, seed, count=150):
    """Even values of sig: random sums of even blades, which are mostly not
    invertible by reversal, and products of two or four random vectors,
    which are."""
    rng = random.Random(f"{sig}:{seed}")
    even = [b for b in range(1 << sig.dim) if not b.bit_count() % 2]
    out = []
    for i in range(count):
        if i % 2:
            blades = rng.sample(even, rng.randint(2, 6))
            out.append(Multivector(sig, {b: rng.gauss(0.0, 1.0) for b in blades}))
        else:
            A = Multivector.scalar(sig, 1.0)
            for _ in range(rng.choice((2, 4))):
                A = A * Multivector.vector(sig, [rng.gauss(0.0, 1.0) for _ in range(sig.dim)])
            out.append(A)
    return out


@pytest.mark.parametrize("sig", [Signature(4, 0), Signature(4, 1), Signature(3, 3)], ids=str)
def test_the_inverse_verdict_does_not_depend_on_scale(sig):
    # 2^-332 and 2^332, the powers of two nearest 1e-100 and 1e100: scaling
    # by them is exact, so the verdict must agree exactly. A decimal scale
    # rounds every coefficient anew, and can move a versor whose relative
    # residual lies within rounding of tol across it
    verdicts = []
    for A in seeded_even_values(sig, 15):
        verdict = inverse_verdict(A)
        for scale in (2.0**-332, 2.0**332):
            assert inverse_verdict(A * scale) == verdict, (A, scale)
        verdicts.append(verdict)
    assert 20 < sum(verdicts) < len(verdicts) - 20


@pytest.mark.parametrize(
    "sig, terms",
    [
        # A * ~A = 1 - 2*e1234 - 2*e1235, whose metric-signed squares cancel
        (Signature(4, 1), {0b00011: 1.0, 0b01100: 1.0, 0b10100: 1.0}),
        # A * ~A = 2 - 2*e1234 times 1e-200, whose squares underflow
        (Signature(4, 0), {0b0011: 1e-100, 0b1100: 1e-100}),
    ],
)
def test_a_non_invertible_residual_is_not_lost(sig, terms):
    with pytest.raises(SingularError, match=NOT_INVERTIBLE[1]):
        Multivector(sig, terms).inverse()


def test_a_small_invertible_value_still_inverts():
    A = Multivector(Signature(4, 0), {0: 1e-100, 0b0011: 1e-100})
    assert (A * A.inverse()).is_close(1.0)


@pytest.mark.parametrize("c", [1e200, math.nan])
def test_a_non_finite_g3_rotor_stays_a_non_blade(c):
    R = Multivector(G3, {0: 0.6, 0b011: 0.8 * c})
    E1 = Multivector.blade(G3, 0b001)
    with pytest.raises(NonBladeError, match="unit rotor"):
        rotate(E1, R)
    with pytest.raises(NonBladeError, match="unit rotor"):
        compose_rotors(R, Multivector.scalar(G3, 1.0))


def test_exp_of_a_nan_g3_bivector_is_not_finite():
    B = Multivector(G3, {0b011: 0.5, 0b110: math.nan})
    with pytest.raises(AlgebraError, match="not finite"):
        B.exp()

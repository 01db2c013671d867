from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from gacalc import (
    AlgebraError,
    G1,
    G2,
    G3,
    GradeError,
    Multivector,
    NonBladeError,
    Signature,
    SignatureMismatch,
    SingularError,
    basis_vectors,
    blade_bits,
    blade_indices,
    blade_name,
    blade_product,
    canonical_blades,
    cayley_table,
    cross,
    dot,
    dot_bivector,
    dual,
    vector_inverse,
)
from gacalc.algebra import (
    _scaled_square,
    coefficient_norm,
    non_scalar_norm,
    sandwich,
    vector_square,
)

from conftest import SMALL_SIGNATURES, edge_coeff, multivectors, vectors, wild_coeff
from oracles import (
    blade_product_oracle,
    dense_table_oracle,
    exp_series,
    indices_of,
    metric_list,
)

E1, E2, E3 = basis_vectors(G3)
I3 = Multivector.blade(G3, 0b111)


def vec3(x, y, z):
    return Multivector.vector(G3, [x, y, z])


# -- signatures ---------------------------------------------------------


def test_signature_basics():
    assert G3.dim == 3
    assert G3.vector_square(0) == 1
    assert Signature(1, 1).vector_square(1) == -1
    assert str(Signature(0, 2)) == "G(0,2)"


def test_signature_rejects_bad_dimensions():
    with pytest.raises(AlgebraError):
        Signature(-1, 2)
    with pytest.raises(AlgebraError):
        Signature(0, 0)
    with pytest.raises(AlgebraError):
        Signature(13, 0)


# -- blade encoding and products ----------------------------------------


def test_blade_helpers():
    assert blade_indices(0b101) == (1, 3)
    assert blade_bits((1, 3)) == 0b101
    assert blade_name(0) == "1"
    assert blade_name(0b011) == "e12"
    with pytest.raises(AlgebraError):
        blade_bits((2, 2))


def test_blade_product_known_cases():
    assert blade_product(G3, 0b001, 0b010) == (1, 0b011)  # e1 e2 = e12
    assert blade_product(G3, 0b010, 0b001) == (-1, 0b011)  # e2 e1 = -e12
    assert blade_product(G3, 0b011, 0b011) == (-1, 0)  # e12 e12 = -1
    assert blade_product(G3, 0b111, 0b111) == (-1, 0)  # e123 squares to -1
    assert blade_product(Signature(1, 1), 0b10, 0b10) == (-1, 0)  # e2^2 = -1
    with pytest.raises(AlgebraError):
        blade_product(G3, 0b1000, 0b001)  # e4 is outside G(3,0)
    with pytest.raises(AlgebraError):
        blade_product(G3, 0b001, -1)


@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=str)
def test_blade_product_matches_bubble_sort_oracle(sig):
    oracle = dense_table_oracle(sig.p, sig.q)
    for a in range(1 << sig.dim):
        for b in range(1 << sig.dim):
            assert blade_product(sig, a, b) == oracle[(a, b)]


def test_blade_product_oracle_self_checks():
    metric = metric_list(3, 0)
    assert blade_product_oracle(metric, (1,), (2,)) == (1, (1, 2))
    assert blade_product_oracle(metric, (2,), (1,)) == (-1, (1, 2))
    assert blade_product_oracle(metric, (1, 2), (1, 2)) == (-1, ())
    assert blade_product_oracle(metric_list(1, 1), (2,), (2,)) == (-1, ())


def test_cayley_table_content():
    table = cayley_table(G1)
    assert table == [[(1, 0), (1, 1)], [(1, 1), (1, 0)]]  # e*e = 1 in G(1,0)
    order = canonical_blades(G2)
    assert order == [0, 0b01, 0b10, 0b11]
    k = order.index(0b11)
    assert cayley_table(G2)[k][k] == (-1, 0)


def test_cayley_table_dimension_cap():
    with pytest.raises(AlgebraError):
        cayley_table(Signature(4, 3))


# -- construction and canonical form ------------------------------------


def test_constructors_and_canonical_form():
    assert Multivector.zero(G3).is_zero()
    assert Multivector(G3, {0b001: 0.0}).is_zero()  # zeros dropped
    v = vec3(1, 2, 3)
    assert v.coeff(0b010) == 2.0
    assert v.grades() == (1,)
    with pytest.raises(AlgebraError):
        Multivector.vector(G3, [1, 2])
    with pytest.raises(AlgebraError):
        Multivector(G2, {0b100: 1.0})  # blade outside the algebra


BINARY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "^": lambda a, b: a ^ b,
    "|": lambda a, b: a | b,
}


@pytest.mark.parametrize("op", BINARY_OPS)
def test_signature_mismatch_raises(op):
    apply = BINARY_OPS[op]
    with pytest.raises(SignatureMismatch):
        apply(E1, Multivector.vector(G2, [1, 0]))
    with pytest.raises(SignatureMismatch):
        apply(Multivector.vector(G2, [1, 0]), E1)
    # an equal signature built apart is the same algebra
    twin = Multivector.blade(Signature(3, 0), 0b010)
    assert apply(E1, twin) == apply(E1, E2)


@pytest.mark.parametrize("op", BINARY_OPS)
def test_a_foreign_operand_is_a_type_error(op):
    apply = BINARY_OPS[op]
    for other in ("x", None, [1.0], 1j):
        with pytest.raises(TypeError):
            apply(E1, other)
        with pytest.raises(TypeError):
            apply(other, E1)


@given(multivectors(G3, coeff=wild_coeff))
def test_operations_never_store_zero_coefficients(A):
    for result in (A + A, A - A, A * A, A ^ A, -A):
        assert all(c != 0.0 for c in result.terms.values())


# -- geometric product ---------------------------------------------------


def test_geometric_product_frozen_example():
    a = vec3(1, 2, 0)
    b = vec3(3, 1, 0)
    # dot part 1*3 + 2*1 = 5, wedge part (1*1 - 2*3) e12 = -5 e12
    assert a * b == Multivector(G3, {0: 5.0, 0b011: -5.0})
    assert str(a * b) == "5 - 5*e12"


def test_unit_and_scalar_products():
    assert E1 * E2 * E3 == I3
    assert (E1 * E2) * (E1 * E2) == -1
    A = vec3(0.5, -2, 7)
    assert A * 1 == A
    assert 2 * A == A + A


@settings(max_examples=60)
@given(multivectors(G3), multivectors(G3), multivectors(G3))
def test_geometric_product_associates(A, B, C):
    assert ((A * B) * C).is_close(A * (B * C))


def test_geometric_product_associates_exactly_on_blades():
    blades = [Multivector.blade(G3, b) for b in range(8)]
    for A in blades:
        for B in blades:
            for C in blades:
                assert (A * B) * C == A * (B * C)


@settings(max_examples=60)
@given(multivectors(G3), multivectors(G3), multivectors(G3))
def test_products_distribute(A, B, C):
    assert (A * (B + C)).is_close(A * B + A * C)
    assert ((A + B) ^ C).is_close((A ^ C) + (B ^ C))


@given(vectors(G3), vectors(G3))
def test_vector_product_splits_into_dot_plus_wedge(a, b):
    split = Multivector.scalar(G3, dot(a, b)) + (a ^ b)
    assert (a * b - split).norm() <= 1e-13


def test_orthogonal_basis_vectors_anticommute_exactly():
    for i, u in enumerate(basis_vectors(G3)):
        for j, v in enumerate(basis_vectors(G3)):
            if i != j:
                assert u * v == -(v * u)


# -- outer product -------------------------------------------------------


def test_wedge_basics():
    assert (E1 ^ E1).is_zero()
    a = vec3(1, 2, 0)
    b = vec3(3, 1, 0)
    assert (a ^ b) == Multivector.blade(G3, 0b011, -5.0)
    assert (2 ^ E1) == E1 * 2  # scalars wedge by scaling


@given(vectors(G3), vectors(G3))
def test_wedge_antisymmetric_on_vectors(a, b):
    assert (a ^ b) == -(b ^ a)
    assert (a ^ a).is_zero()


@settings(max_examples=60)
@given(vectors(G3), vectors(G3), vectors(G3))
def test_wedge_associates(a, b, c):
    assert ((a ^ b) ^ c).is_close(a ^ (b ^ c))


@given(vectors(G3), vectors(G3), vectors(G3))
# a singular matrix with a subnormal entry, on which numpy's LU warns
# "divide by zero encountered in det" and still returns -0.0
@example(vec3(0, 0, 0), E1, vec3(0, 2.225073858507203e-309, 1))
def test_trivector_matches_determinant(a, b, c):
    numpy = pytest.importorskip("numpy")
    rows = [[v.coeff(1 << i) for i in range(3)] for v in (a, b, c)]
    # the oracle's floating-point warnings are not the kernel's
    with numpy.errstate(divide="ignore", invalid="ignore"):
        det = float(numpy.linalg.det(numpy.array(rows)))
    tri = (a ^ b) ^ c
    assert abs(tri.coeff(0b111) - det) <= 1e-12 * max(1.0, abs(det))
    assert tri.grades() in ((), (3,))


# -- inner products ------------------------------------------------------


def test_dot_and_contraction_cases():
    assert dot(E1, E1) == 1.0
    assert dot(E1, E2) == 0.0
    assert dot(vec3(1, 2, 3), vec3(4, 5, 6)) == 32.0
    e2neg = Multivector.vector(Signature(1, 1), [0, 1])
    assert dot(e2neg, e2neg) == -1.0
    with pytest.raises(GradeError):
        dot(E1, E1 * E2)
    # scalar conventions for the general contraction
    five = Multivector.scalar(G3, 5.0)
    assert (five | E1).is_zero()
    assert (E1 | five).is_zero()
    assert (five | five) == 25


def test_dot_bivector_frozen_cases():
    B = E1 ^ E2
    assert dot_bivector(E1, B) == E2
    assert dot_bivector(E2, B) == -E1
    assert dot_bivector(E3, B).is_zero()
    with pytest.raises(GradeError):
        dot_bivector(E1, E2)


@given(vectors(G3), vectors(G3))
def test_dot_bivector_is_antisymmetric_product_part(a, B_parts):
    B = B_parts ^ vec3(0.25, -0.5, 1.0)
    lhs = dot_bivector(a, B)
    rhs = (a * B - B * a) / 2
    assert lhs.is_close(rhs)


@given(vectors(G3), vectors(G3), vectors(G3))
def test_vector_bivector_expansion(a, b, c):
    # a . (b ^ c) = (a.b) c - (a.c) b
    lhs = dot_bivector(a, b ^ c)
    rhs = c * dot(a, b) - b * dot(a, c)
    assert lhs.is_close(rhs)


# -- grade parts, reverse, norms -----------------------------------------


def test_grade_parts():
    A = Multivector(G3, {0: 1.0, 0b001: 2.0, 0b011: 3.0, 0b111: 4.0})
    assert A.grade(0) == 1
    assert A.grade(1) == E1 * 2
    assert A.grade(2) == Multivector.blade(G3, 0b011, 3.0)
    assert A.grade(3) == Multivector.blade(G3, 0b111, 4.0)
    assert A.grade(7).is_zero()  # beyond the top grade is simply zero
    with pytest.raises(GradeError):
        A.grade(-1)


@given(multivectors(G3, coeff=wild_coeff))
def test_grade_parts_partition_exactly(A):
    total = Multivector.zero(G3)
    for k in range(4):
        total = total + A.grade(k)
    assert total == A


def test_reverse_signs():
    assert Multivector.scalar(G3, 2.0).reverse() == 2
    assert E1.reverse() == E1
    assert (E1 * E2).reverse() == -(E1 * E2)
    assert I3.reverse() == -I3
    assert ~I3 == -I3


@settings(max_examples=60)
@given(multivectors(G3), multivectors(G3))
def test_reverse_antiautomorphism(A, B):
    assert (A * B).reverse().is_close(B.reverse() * A.reverse())


def test_norms():
    assert vec3(3, 4, 0).norm() == 5.0
    assert Multivector.blade(G3, 0b011).norm() == 1.0
    assert Multivector.zero(G3).norm() == 0.0
    timelike = Multivector.vector(Signature(1, 1), [0, 2])
    assert timelike.norm_squared() == -4.0
    assert timelike.norm() == 2.0


@given(vectors(G3))
def test_vector_norm_is_euclidean(a):
    comps = [a.coeff(1 << i) for i in range(3)]
    assert math.isclose(
        a.norm(), math.sqrt(sum(c * c for c in comps)), abs_tol=1e-12, rel_tol=1e-12
    )


@given(vectors(G3), vectors(G3))
def test_bivector_square_is_negative_gram(a, b):
    B = a ^ b
    expected = -(dot(a, a) * dot(b, b) - dot(a, b) ** 2)
    sq = B * B
    assert sq.grades() in ((), (0,))
    assert abs(sq.scalar_part() - expected) <= 1e-12


# -- inverses -------------------------------------------------------------


def test_vector_inverse_frozen():
    a = E1 + E2
    assert vector_inverse(a) == a / 2
    assert (a * vector_inverse(a)).is_close(Multivector.scalar(G3, 1.0))
    with pytest.raises(SingularError):
        vector_inverse(Multivector.zero(G3))
    with pytest.raises(GradeError):
        vector_inverse(E1 * E2)


@given(vectors(G3).filter(lambda v: v.norm() > 1e-3))
def test_vector_inverse_property(a):
    assert (a * vector_inverse(a)).is_close(Multivector.scalar(G3, 1.0))


def test_general_inverse_handles_rotors_and_rejects_zero_divisors():
    R = (1 + E2 * E1) / math.sqrt(2)
    assert (R * R.inverse()).is_close(Multivector.scalar(G3, 1.0))
    with pytest.raises(SingularError):
        (1 + E1).inverse()  # (1+e1)(1-e1) = 0, a genuine zero divisor
    with pytest.raises(SingularError, match=r"A \* ~A vanishes"):
        Multivector.zero(G3).inverse()


# -- norm and inverse where the squares overflow or underflow ------------


@pytest.mark.parametrize("c", [1e200, 1e-200, 1.5e300, 5e-324, -1e-160])
def test_norm_of_a_blade_with_a_huge_or_tiny_coefficient_is_exact(c):
    for bits in (0b001, 0b011, 0b111):
        assert Multivector.blade(G3, bits, c).norm() == abs(c)


def test_norm_rescales_only_what_overflows_or_underflows():
    assert Multivector.vector(G3, [3e200, 4e200, 0]).norm() == pytest.approx(5e200, rel=1e-15)
    assert Multivector.vector(G3, [3e-200, 4e-200, 0]).norm() == pytest.approx(5e-200, rel=1e-15)
    # the squares overflow, the norm itself too
    assert Multivector.vector(G3, [1.7e308, 1.7e308, 0]).norm() == math.inf
    # norm_squared keeps its true value
    assert Multivector.blade(G3, 0b001, 1e200).norm_squared() == math.inf
    assert Multivector.blade(G3, 0b001, 1e-200).norm_squared() == 0.0
    # a null vector stays null at any scale, in mixed signatures too
    for c in (1e-200, 1.0, 1e200):
        assert Multivector.vector(Signature(1, 1), [c, c]).norm() == 0.0
    timelike = Multivector.vector(Signature(1, 1), [1e-200, 2e-200])
    assert timelike.norm() == pytest.approx(math.sqrt(3) * 1e-200, rel=1e-15)


@pytest.mark.parametrize("c", [1e200, 1e-200, 3e-170, 1e300])
def test_inverse_of_a_huge_or_tiny_blade(c):
    for bits, sign in ((0b001, 1.0), (0b011, -1.0), (0b111, -1.0)):
        inverse = Multivector.blade(G3, bits, c).inverse()
        assert dict(inverse.terms) == {bits: pytest.approx(sign / c, rel=1e-15)}


# a vector, a 2-blade and a rotor (1 + e12, up to scale): the value at
# scale 1, and its exact inverse
SCALE_SHAPES = {
    "vector": (vec3(3, 4, 0), vec3(0.12, 0.16, 0)),
    "2-blade": (Multivector.blade(G3, 0b011, 2.0), Multivector.blade(G3, 0b011, -0.5)),
    "rotor": (
        Multivector(G3, {0b000: 1.0, 0b011: 1.0}),
        Multivector(G3, {0b000: 0.5, 0b011: -0.5}),
    ),
}


@pytest.mark.parametrize("c", [1e200, 1e-200])
@pytest.mark.parametrize("shape", SCALE_SHAPES)
def test_inverse_rescales_general_values_and_keeps_null_ones_singular(shape, c):
    unit, inverse = SCALE_SHAPES[shape]
    A = unit * c
    assert (A * A.inverse()).is_close(Multivector.scalar(G3, 1.0))
    assert (A.inverse() * c).is_close(inverse)
    with pytest.raises(SingularError):
        Multivector.vector(Signature(1, 1), [c, c]).inverse()
    with pytest.raises(SingularError):
        ((1 + E1) * c).inverse()  # a zero divisor at any scale
    # the true inverse does not fit in a float
    with pytest.raises(AlgebraError, match="overflows"):
        Multivector.blade(G3, 0b001, 5e-324).inverse()


@pytest.mark.parametrize("shape", SCALE_SHAPES)
def test_vector_square_rescales_only_what_overflows_or_vanishes(shape):
    """_scaled_square, behind vector_square, norm and inverse, rescales a
    value only when its own square is not finite or vanishes."""
    unit = SCALE_SHAPES[shape][0]
    e, same, s = _scaled_square(unit)
    assert (e, s) == (0, unit.norm_squared()) and same is unit
    for c in (1e200, 1e-200, 3e-154, 1.5e308):
        A = unit * (c / max(map(abs, unit.terms.values())))
        e, scaled, s = _scaled_square(A)
        assert e == math.frexp(max(map(abs, A.terms.values())))[1]
        assert dict(scaled.terms) == {b: math.ldexp(v, -e) for b, v in A.terms.items()}
        assert s == scaled.norm_squared() and 0.25 <= s < 2.0
        if shape == "vector":
            assert vector_square("t", A) == (e, scaled, s)
    # a zero, inf or nan largest coefficient keeps e = 0
    for c in (0.0, math.inf, math.nan):
        A = unit * c  # unit * 0.0 drops every term
        e, same, s = _scaled_square(A)
        assert e == 0 and same is A
        assert s == A.norm_squared() or math.isnan(s) and math.isnan(A.norm_squared())
        assert A.norm() == math.sqrt(abs(A.norm_squared())) or math.isnan(A.norm())
    with pytest.raises(SingularError):
        vector_square("t", Multivector.zero(G3))
    # a null vector stays null at any scale
    for c in (1e-200, 1.0, 1e200):
        with pytest.raises(SingularError):
            vector_square("t", Multivector.vector(Signature(1, 1), [c, c]))


@given(st.sampled_from(SMALL_SIGNATURES).flatmap(lambda sig: vectors(sig, wild_coeff)))
def test_norm_squared_of_a_vector_is_its_dot_bit_for_bit(v):
    # the kernel squares a vector with norm_squared instead of dot(v, v)
    assert v.norm_squared().hex() == dot(v, v).hex()


@pytest.mark.parametrize("c", [1e200, 1e-200, 3e-154, -1e300])
def test_vector_inverse_of_a_huge_or_tiny_vector(c):
    inverse = vector_inverse(vec3(c, 0, 0))
    assert dict(inverse.terms) == {0b001: pytest.approx(1 / c, rel=1e-15)}
    a = vec3(3 * c, 4 * c, 0)
    assert (a * vector_inverse(a)).is_close(Multivector.scalar(G3, 1.0))


def test_vector_inverse_keeps_null_vectors_singular_and_rejects_overflow():
    with pytest.raises(SingularError):
        vector_inverse(Multivector.vector(Signature(1, 1), [1e-200, 1e-200]))
    with pytest.raises(AlgebraError, match="overflows"):
        vector_inverse(vec3(5e-324, 0, 0))


def test_division_forms():
    assert (E1 + E2) / 2 == Multivector(G3, {0b001: 0.5, 0b010: 0.5})
    assert (2 / (E1 + E3)) == E1 + E3  # (e1+e3)/|e1+e3|^2 * 2
    with pytest.raises(SingularError):
        E1 / 0


# -- dual and cross -------------------------------------------------------


def test_dual_frozen_cases():
    assert dual(E3) == E1 * E2
    assert dual(E1) == E2 * E3
    assert dual(Multivector.scalar(G3, 1.0)) == I3
    with pytest.raises(SignatureMismatch):
        dual(Multivector.vector(G2, [1, 0]))


@given(multivectors(G3, coeff=wild_coeff))
def test_dual_twice_negates_exactly(A):
    assert dual(dual(A)) == -A


@given(multivectors(G3, coeff=wild_coeff))
def test_pseudoscalar_is_central_exactly(A):
    assert I3 * A == A * I3


def test_cross_frozen_cases():
    assert cross(E1, E2) == E3
    assert cross(vec3(1, 0, 0), vec3(0, 2, 0)) == vec3(0, 0, 2)
    assert cross(E1, E1).is_zero()
    with pytest.raises(SignatureMismatch):
        cross(Multivector.vector(G2, [1, 0]), Multivector.vector(G2, [0, 1]))


@given(vectors(G3), vectors(G3))
def test_wedge_is_dual_of_cross(a, b):
    assert (a ^ b).is_close(dual(cross(a, b)))
    assert abs(cross(a, b).norm() - (a ^ b).norm()) <= 1e-12


# -- bivector exponential --------------------------------------------------


def test_exp_frozen_cases():
    assert Multivector.zero(G3).exp() == 1
    R = (Multivector.blade(G3, 0b011, math.pi / 2)).exp()
    assert R.is_close(Multivector.blade(G3, 0b011))
    with pytest.raises(GradeError):
        E1.exp()


def test_exp_rejects_non_blade_bivector():
    g4 = Signature(4, 0)
    B = Multivector(g4, {0b0011: 1.0, 0b1100: 1.0})  # e12 + e34
    with pytest.raises(NonBladeError):
        B.exp()


def test_exp_rejects_non_finite_square():
    with pytest.raises(AlgebraError, match="not finite"):
        Multivector.blade(G3, 0b011, 1e200).exp()  # square overflows to -inf


def test_exp_rejects_a_square_that_overflows_cosh():
    sig = Signature(1, 1)
    with pytest.raises(AlgebraError, match="overflows cosh"):
        Multivector.blade(sig, 0b11, 1000.0).exp()  # B*B = 1e6, cosh(1000) overflows
    near = Multivector.blade(sig, 0b11, 700.0).exp()  # cosh(700) ~ 5e303
    assert near.scalar_part() == pytest.approx(math.cosh(700.0), rel=1e-12)
    assert near.coeff(0b11) == pytest.approx(math.sinh(700.0), rel=1e-12)


def test_exp_rejects_a_coefficient_that_overflows():
    # in G(2,1), e13 squares to +1 and e12 to -1, so huge coefficients
    # can leave a moderate square: B*B ~ 4.9e5, cosh(700) is finite, but
    # 1e10 * sinh(700)/700 is not
    sig = Signature(2, 1)
    B = Multivector(sig, {0b101: 1e10, 0b011: math.sqrt(1e20 - 490000)})
    with pytest.raises(AlgebraError, match="overflows"):
        B.exp()


def test_exp_hyperbolic_branch():
    sig = Signature(1, 1)
    B = Multivector.blade(sig, 0b11, 0.75)  # B*B = +0.5625
    expected = exp_series(B)
    assert B.exp().is_close(expected, abs_tol=1e-12, rel_tol=1e-12)


@given(
    # |theta| <= 2 keeps the 20-term series truncation below 5e-13
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    vectors(G3).filter(lambda v: v.norm() > 1e-2),
)
def test_exp_matches_series_oracle(theta, axis):
    B = dual(axis / axis.norm()) * theta  # theta * unit bivector
    assert B.exp().is_close(exp_series(B), abs_tol=1e-10, rel_tol=1e-10)


# -- display and comparison ------------------------------------------------


def test_str_canonical_ordering():
    A = Multivector(G3, {0b111: 1.0, 0: -2.0, 0b010: 0.5, 0b101: -4.0})
    assert str(A) == "-2 + 0.5*e2 - 4*e13 + 1*e123"
    assert str(Multivector.zero(G3)) == "0"


def test_repr_mentions_signature():
    assert "G(3,0)" in repr(E1)


def test_equality_and_coercion():
    assert Multivector.scalar(G3, 5) == 5
    assert Multivector.scalar(G3, 5) != 4
    assert E1 != Multivector.vector(G2, [1, 0])


def test_is_close_scales():
    big = Multivector.scalar(G3, 1e6)
    assert big.is_close(1e6 + 1e-7)  # relative slack at large magnitude
    assert not Multivector.scalar(G3, 0.0).is_close(1e-6)


def test_even_subalgebra_of_g2_behaves_like_complex_numbers():
    i = Multivector.blade(G2, 0b11)
    for zr, zi, wr, wi in [(1.0, 2.0, -0.5, 3.0), (0.25, -1.5, 2.0, 0.125)]:
        z = zr + i * zi
        w = wr + i * wi
        zw = z * w
        prod = complex(zr, zi) * complex(wr, wi)
        assert math.isclose(zw.scalar_part(), prod.real, abs_tol=1e-12)
        assert math.isclose(zw.coeff(0b11), prod.imag, abs_tol=1e-12)


# -- derived values ----------------------------------------------------------
# Negation, scalar scaling, reverse, grade parts, sums and number lifts
# build their results without the public constructor's checks. Each must
# hold exactly what the checked constructor makes of the same terms.

DERIVED_SIGS = [G3, Signature(4, 1), Signature(12, 0), Signature(0, 12)]


def seeded_operands(sig, seed, count=6):
    rng = random.Random(f"{sig}:{seed}")
    out = []
    for _ in range(count):
        blades = rng.sample(range(1 << sig.dim), min(rng.randint(1, 9), 1 << sig.dim))
        out.append(Multivector(sig, {b: rng.uniform(-3.0, 3.0) for b in blades}))
    return out


def exact_terms(A):
    """Blade -> (type, hex) of each coefficient: equal only bit for bit."""
    return {b: (type(c), c.hex()) for b, c in A.terms.items()}


def sum_terms(A, B, sign):
    out = dict(A.terms)
    for b, c in B.terms.items():
        out[b] = out.get(b, 0.0) + sign * c
    return out


@pytest.mark.parametrize("sig", DERIVED_SIGS, ids=str)
def test_derived_values_match_the_checked_constructor(sig):
    operands = seeded_operands(sig, 0)
    for A, B in zip(operands, operands[1:]):
        sign = {b: -1.0 if b.bit_count() % 4 in (2, 3) else 1.0 for b in A.terms}
        cases = [
            (-A, {b: -c for b, c in A.terms.items()}),
            (A * 0.37, {b: c * 0.37 for b, c in A.terms.items()}),
            (3 * A, {b: c * 3 for b, c in A.terms.items()}),
            (A / 7, {b: c / 7 for b, c in A.terms.items()}),
            (~A, {b: c * sign[b] for b, c in A.terms.items()}),
            (A + B, sum_terms(A, B, 1.0)),
            (A - B, sum_terms(A, B, -1.0)),
            (A + 2, sum_terms(A, Multivector.scalar(sig, 2), 1.0)),
            (A - 0.5, sum_terms(A, Multivector.scalar(sig, 0.5), -1.0)),
        ]
        cases += [
            (A.grade(k), {b: c for b, c in A.terms.items() if b.bit_count() == k})
            for k in range(sig.dim + 2)
        ]
        for got, terms in cases:
            assert got.sig == sig
            assert exact_terms(got) == exact_terms(Multivector(sig, terms))


@pytest.mark.parametrize("sig", DERIVED_SIGS, ids=str)
def test_derived_values_hold_no_exact_zero(sig):
    for A in seeded_operands(sig, 1):
        assert (A - A).is_zero()
        assert (A + -A).is_zero()
        assert (A * 0.0).is_zero()
        assert (A * 1e-320 * 1e-10).is_zero()  # underflows to +-0.0
        assert (A - A.scalar_part()).scalar_part() == 0.0
        for got in (A * 1e-320, A + A.grade(1), A - A.grade(2)):
            assert 0.0 not in got.terms.values()


def test_trusted_drops_signed_zeros_and_keeps_non_finite_terms():
    terms = {0: 0.0, 0b001: -0.0, 0b010: math.nan, 0b100: math.inf, 0b011: -math.inf, 0b101: 2.0}
    got = Multivector._trusted(G3, dict(terms))
    assert list(got.terms) == [0b010, 0b100, 0b011, 0b101]
    assert math.isnan(got.terms[0b010])
    assert (got.terms[0b100], got.terms[0b011], got.terms[0b101]) == (math.inf, -math.inf, 2.0)
    # a dict without zeros becomes the value's own, unfiltered
    fresh = {0b001: 1.0, 0b010: math.nan}
    assert Multivector._trusted(G3, fresh)._terms is fresh


# wild floats and the edges of the double range
EDGE_SIGS = [G3, Signature(2, 1), Signature(4, 1)]


@pytest.mark.parametrize("sig", EDGE_SIGS, ids=str)
@settings(max_examples=60)
@given(data=st.data())
def test_derived_values_hold_no_zero_and_leave_their_operands_alone(sig, data):
    A = data.draw(multivectors(sig, coeff=edge_coeff))
    B = data.draw(multivectors(sig, coeff=edge_coeff))
    before = exact_terms(A), exact_terms(B)
    results = [A + B, A - B, A - A, A * B, A ^ B, A | B, -A, A * 0.5, 1e-300 * A, A / 3, ~A]
    results += [A + 1, 1 - A, 2 ^ A, A | 2, A.grade(1), sandwich(A, B)]
    for got in results:
        assert 0.0 not in got.terms.values()
        assert got._terms is not A._terms and got._terms is not B._terms
    assert (exact_terms(A), exact_terms(B)) == before


def test_lifted_numbers_are_stored_as_floats():
    A = Multivector.vector(G3, [1.0, 2.0, 3.0])
    for got in (A + True, A + 3, 3 + A, A - 4, 4 - A, A * True, A * 2, A / 2, A ^ 2, 2 | A):
        assert all(type(c) is float for c in got.terms.values())
    assert exact_terms(A + True) == exact_terms(Multivector(G3, {0: 1.0, 1: 1.0, 2: 2.0, 4: 3.0}))
    with pytest.raises(OverflowError):
        A + 10**400
    with pytest.raises(OverflowError):
        A * 10**400


def test_a_nonzero_null_difference_is_not_close():
    # e4 + e5 squares to 1 - 1 in G(4,1): its metric norm is 0, its
    # coefficient norm sqrt(2)
    e = basis_vectors(Signature(4, 1))
    null = e[3] + e[4]
    assert null.norm() == 0.0 and coefficient_norm(null) == math.sqrt(2.0)
    assert not null.is_close(0)
    assert not (e[0] + null).is_close(e[0])
    assert (e[0] + 1e-13 * null).is_close(e[0])


@pytest.mark.parametrize("sig", DERIVED_SIGS, ids=str)
def test_non_scalar_norm_matches_the_difference_norm(sig):
    # the norm of m minus its scalar part, with the terms' squares unsigned:
    # the metric norm of the same terms in G(dim,0), and in G(p,0) the
    # metric norm of the difference itself
    euclid = Signature(sig.dim, 0)
    for A in seeded_operands(sig, 2):
        for m in (A, A * ~A, A * A, A + 1.5, A.grade(0), A - A.scalar_part()):
            difference = m - m.scalar_part()
            assert non_scalar_norm(m) == Multivector(euclid, difference.terms).norm()
            assert coefficient_norm(m) == Multivector(euclid, m.terms).norm()
            if not sig.q:
                assert non_scalar_norm(m) == difference.norm()
                # in G(p,0) the coefficient norm is the metric norm bit for
                # bit, also where the rescale rule takes the squares again
                top = max(map(abs, m.terms.values()), default=1.0)
                for c in (1.0, 1e-200, 1e200, 1e308):
                    scaled = Multivector(sig, {b: v / top * c for b, v in m.terms.items()})
                    assert coefficient_norm(scaled) == scaled.norm()

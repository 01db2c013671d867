"""Differential test of the product kernel against the bubble-sort oracle.

Every basis-blade pair of every G(p,q) with p+q <= 6 goes through ``*``,
``^`` and ``|``; at dims 7-12 seeded sampled pairs and multi-term
operands do. The expected ``^`` and ``|`` come from the oracle product
by their grade rules: ``^`` keeps the grade-(r+s) part, ``|`` the
grade-|r-s| part when neither factor is a scalar, and scalar times
scalar. Coefficients are small integers, so every expected value is
exact whatever the order of summation.
"""

from __future__ import annotations

import operator
import random

import pytest

from gacalc import G2, Multivector, Signature, blade_product

from oracles import blade_product_oracle, bits_of, indices_of, metric_list

ALL_SMALL = [Signature(p, d - p) for d in range(1, 7) for p in range(d + 1)]
OPS = {"*": operator.mul, "^": operator.xor, "|": operator.or_}
LARGE = [
    Signature(7, 0),
    Signature(4, 3),
    Signature(5, 3),
    Signature(9, 1),
    Signature(6, 5),
    Signature(12, 0),
    Signature(0, 12),
]


def oracle(sig: Signature, a: int, b: int) -> tuple[int, int]:
    sign, rest = blade_product_oracle(metric_list(sig.p, sig.q), indices_of(a), indices_of(b))
    return sign, bits_of(rest)


def kept(op: str, a: int, b: int, bits: int) -> bool:
    """Whether the grade rule of op keeps the oracle product e_a e_b = +-e_bits."""
    r, s, g = a.bit_count(), b.bit_count(), bits.bit_count()
    if op == "*":
        return True
    if op == "^":
        return g == r + s
    return g == abs(r - s) and (r > 0 and s > 0 or r == s == 0)


def expected(sig: Signature, op: str, x: dict[int, float], y: dict[int, float]) -> dict:
    out: dict[int, float] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            sign, bits = oracle(sig, a, b)
            if kept(op, a, b, bits):
                out[bits] = out.get(bits, 0.0) + sign * ca * cb
    return {bits: c for bits, c in out.items() if c != 0.0}


@pytest.mark.parametrize("sig", ALL_SMALL, ids=str)
def test_every_blade_pair_matches_oracle(sig):
    # e_a times a dense operand: b -> a XOR b is one-to-one, so each
    # result coefficient is exactly one pair's sign times coefficient
    blades = range(1 << sig.dim)
    dense = Multivector(sig, {b: float(b + 1) for b in blades})
    for op, product in OPS.items():
        for a in blades:
            got = product(Multivector.blade(sig, a), dense).terms
            want = {}
            for b in blades:
                sign, bits = oracle(sig, a, b)
                if kept(op, a, b, bits):
                    want[bits] = float(sign * (b + 1))
            assert got == want, (op, a)


@pytest.mark.parametrize("sig", LARGE, ids=str)
def test_sampled_pairs_match_oracle(sig):
    rng = random.Random(sig.p * 100 + sig.q)
    for _ in range(300):
        a = rng.randrange(1 << sig.dim)
        b = rng.randrange(1 << sig.dim)
        sign, bits = oracle(sig, a, b)
        assert blade_product(sig, a, b) == (sign, bits)
        for op, product in OPS.items():
            got = product(Multivector.blade(sig, a), Multivector.blade(sig, b)).terms
            assert got == ({bits: float(sign)} if kept(op, a, b, bits) else {}), (op, a, b)


@pytest.mark.parametrize("sig", LARGE, ids=str)
def test_multi_term_operands_match_oracle(sig):
    rng = random.Random(sig.p * 100 + sig.q + 1)
    for size in (2, 9, 24):
        # low grades and the scalar recur, so results cancel and collide
        pool = [b for b in range(1 << sig.dim) if b.bit_count() <= 3] + [(1 << sig.dim) - 1]
        x = {b: float(rng.randint(-4, 4) or 1) for b in rng.sample(pool, size)}
        y = {b: float(rng.randint(-4, 4) or 1) for b in rng.sample(pool, size)}
        left, right = Multivector(sig, x), Multivector(sig, y)
        for op, product in OPS.items():
            assert dict(product(left, right).terms) == expected(sig, op, x, y), (op, size)


def test_products_drop_exact_zeros():
    e1, e2 = Multivector.blade(G2, 0b01), Multivector.blade(G2, 0b10)
    # e1e1 - e2e2 cancels in * and |, e1^e2 + e2^e1 in ^
    assert dict(((e1 + e2) * (e1 - e2)).terms) == {0b11: -2.0}
    assert ((e1 + e2) | (e1 - e2)).is_zero()
    assert ((e1 + e2) ^ (e1 + e2)).is_zero()

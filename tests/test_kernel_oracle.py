"""Differential test of the product kernel against the bubble-sort oracle.

Every basis-blade pair of every G(p,q) with p+q <= 6 goes through ``*``,
``^`` and ``|``; at dims 7-12 seeded sampled pairs and multi-term
operands do, and ``*`` runs on both sides of the operand size at which
it switches from the dict accumulator to the dense list one. The
expected ``^`` and ``|`` come from the oracle product by their grade
rules: ``^`` keeps the grade-(r+s) part, ``|`` the grade-|r-s| part when
neither factor is a scalar, and scalar times scalar. Finite
coefficients are small integers, so every expected value is exact
whatever the order of summation.
"""

from __future__ import annotations

import math
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


def test_every_blade_of_dimension_12_matches_oracle_on_either_side():
    # every left blade meets the full blade and a random one; the top
    # blade e_12, which squares to -1 and sits above every other factor,
    # meets every right blade, so its sign is the parity of the whole of b
    sig = Signature(7, 5)
    rng = random.Random(12)
    full, top = (1 << sig.dim) - 1, 1 << (sig.dim - 1)
    pairs = [(a, b) for a in range(full + 1) for b in (full, rng.randrange(full + 1))]
    pairs += [(top, b) for b in range(full + 1)]
    for a, b in pairs:
        assert blade_product(sig, a, b) == oracle(sig, a, b), (a, b)


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


# a * with at least 2^dim / 2 term pairs adds into a dense list
SWITCH = [
    Signature(2, 0),
    Signature(4, 1),
    Signature(7, 0),
    Signature(9, 1),
    Signature(12, 0),
    Signature(0, 12),
]


def operand_sizes(pairs: int) -> tuple[int, int]:
    """Term counts (n, m) with n * m == pairs, n the largest divisor up to the root."""
    n = max(d for d in range(1, math.isqrt(pairs) + 1) if pairs % d == 0)
    return n, pairs // n


def switch_operands(sig: Signature, pairs: int, seed: int, coeffs) -> tuple[dict, dict]:
    rng = random.Random(f"{sig}:{pairs}:{seed}")
    n, m = operand_sizes(pairs)
    blades = range(1 << sig.dim)
    x = {b: rng.choice(coeffs) for b in rng.sample(blades, n)}
    y = {b: rng.choice(coeffs) for b in rng.sample(blades, m)}
    return x, y


@pytest.mark.parametrize("sig", SWITCH, ids=str)
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_both_accumulators_match_oracle(sig, offset):
    pairs = (1 << (sig.dim - 1)) + offset
    x, y = switch_operands(sig, pairs, 0, [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    left, right = Multivector(sig, x), Multivector(sig, y)
    for op, product in OPS.items():
        got = dict(product(left, right).terms)
        want = expected(sig, op, x, y)
        assert got == want, (op, pairs)
        # the dict keeps blades in the order the pairs first reach them,
        # the dense list in ascending order: the key order shows which
        # accumulator ran
        dense = op == "*" and offset >= 0
        assert list(got) == (sorted(want) if dense else list(want)), (op, pairs)


@pytest.mark.parametrize("sig", SWITCH, ids=str)
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
def test_both_accumulators_carry_non_finite_coefficients(sig, offset):
    # expected() sums each blade in the kernel's order, so inf - inf gives
    # nan at the same blades and every other value is bit for bit the same
    pairs = (1 << (sig.dim - 1)) + offset
    coeffs = [math.inf, -math.inf, math.nan, -2.0, 1.0, 3.0]
    x, y = switch_operands(sig, pairs, 1, coeffs)
    got = (Multivector(sig, x) * Multivector(sig, y)).terms
    assert repr(sorted(got.items())) == repr(sorted(expected(sig, "*", x, y).items()))


def test_products_drop_exact_zeros():
    e1, e2 = Multivector.blade(G2, 0b01), Multivector.blade(G2, 0b10)
    # e1e1 - e2e2 cancels in * and |, e1^e2 + e2^e1 in ^
    assert dict(((e1 + e2) * (e1 - e2)).terms) == {0b11: -2.0}
    assert ((e1 + e2) | (e1 - e2)).is_zero()
    assert ((e1 + e2) ^ (e1 + e2)).is_zero()

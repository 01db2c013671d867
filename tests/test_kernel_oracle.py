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

from gacalc import G2, Multivector, Signature, algebra, blade_product
from gacalc.algebra import MAX_CAYLEY_DIM, coefficient_norm

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


def takes_list(sig: Signature, op: str, x: dict, y: dict) -> bool:
    """The accumulator rule: the dense list once the term pairs fill half
    of 2^dim (for *) or once y holds half of the 2^dim blades (for ^ and |)."""
    size = 1 << sig.dim
    return 2 * (len(x) * len(y) if op == "*" else len(y)) >= size


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
        dense = takes_list(sig, op, x, y)
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


# -- ^ and | on the dense list: the submask walks --------------------------

UP_TO_8 = [Signature(p, d - p) for d in range(1, 9) for p in range(d + 1)]
GRADED = {"^": operator.xor, "|": operator.or_}


def small_ints(rng: random.Random, blades) -> dict[int, float]:
    return {b: float(rng.choice((-3, -2, -1, 1, 2, 3))) for b in blades}


@pytest.mark.parametrize("sig", UP_TO_8, ids=str)
def test_graded_products_on_dense_operands_match_oracle(sig):
    # fully dense up to dim 6; at dims 7-8 a dense left operand meets 16
    # right terms, which keeps the oracle to 2^dim * 16 pairs
    rng = random.Random(f"dense:{sig}")
    size = 1 << sig.dim
    x = small_ints(rng, range(size))
    y = small_ints(rng, range(size) if sig.dim <= 6 else rng.sample(range(size), 16))
    left, right = Multivector(sig, x), Multivector(sig, y)
    for op, product in GRADED.items():
        got = dict(product(left, right).terms)
        want = expected(sig, op, x, y)
        assert got == want, op
        assert list(got) == (sorted(want) if takes_list(sig, op, x, y) else list(want)), op


def rule_operands(sig: Signature, op: str, side: int, seed: int, coeffs) -> tuple[dict, dict]:
    """Operands just below (side -1), at (side 0) or just above (side 1)
    the list rule: a 12-term left operand and a right operand of
    2^(dim-1) + side terms."""
    rng = random.Random(f"rule:{sig}:{op}:{seed}")
    size = 1 << sig.dim
    x = {b: rng.choice(coeffs) for b in rng.sample(range(size), 12)}
    y = {b: rng.choice(coeffs) for b in rng.sample(range(size), size // 2 + side)}
    return x, y


RULE = [Signature(5, 0), Signature(3, 3), Signature(7, 0), Signature(4, 4), Signature(0, 8)]
FINITE = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]
NON_FINITE = [math.inf, -math.inf, math.nan, -2.0, 1.0, 3.0]


@pytest.mark.parametrize("sig", RULE, ids=str)
@pytest.mark.parametrize("side", [-1, 0, 1], ids=["below", "at", "above"])
@pytest.mark.parametrize("coeffs", [FINITE, NON_FINITE], ids=["finite", "non-finite"])
def test_graded_products_either_side_of_the_list_rule_match_oracle(sig, side, coeffs):
    # expected() sums each blade in the kernel's order, so inf - inf gives
    # nan at the same blades; repr compares nan with nan, and the key
    # order shows which accumulator ran
    for op, product in GRADED.items():
        for seed in range(3):
            x, y = rule_operands(sig, op, side, seed, coeffs)
            assert takes_list(sig, op, x, y) == (side >= 0)
            got = product(Multivector(sig, x), Multivector(sig, y)).terms
            want = expected(sig, op, x, y)
            order = sorted(want) if side >= 0 else list(want)
            assert repr(list(got.items())) == repr([(b, want[b]) for b in order]), (op, seed)


@pytest.mark.parametrize("sig", [Signature(6, 0), Signature(5, 3), Signature(8, 0)], ids=str)
def test_graded_products_on_the_longest_walks_match_oracle(sig):
    # at the least dense right operand the list takes, the scalar walks
    # all 2^dim blades under ^ and the pseudoscalar the 2^dim - 1 nonzero
    # ones under |; a grade-1 blade walks 2^(dim-1) under either
    rng = random.Random(f"walks:{sig}")
    size = 1 << sig.dim
    x = small_ints(rng, [0, *(1 << i for i in range(sig.dim)), size - 1])
    y = small_ints(rng, rng.sample(range(size), size // 2))
    for op, product in GRADED.items():
        assert takes_list(sig, op, x, y), op
        got = dict(product(Multivector(sig, x), Multivector(sig, y)).terms)
        want = expected(sig, op, x, y)
        assert got == want, op
        assert list(got) == sorted(want), op


def test_small_graded_products_take_the_dict_until_the_right_operand_is_half_dense():
    # the dict keeps blades in the order the pairs first reach them, which
    # differs from the list's ascending order for every operand pair here
    sig = Signature(3, 0)
    x = {0b100: 2.0, 0b001: -1.0, 0b010: 3.0}
    y = {0b001: 1.0, 0b010: -2.0, 0b100: 3.0}
    B = {0b110: 1.0, 0b011: -2.0, 0b101: 2.0}
    f = {0b000: 2.0, 0b001: -3.0, 0b010: 1.0, 0b100: 2.0}
    for op, left, right in [("^", x, y), ("|", x, y), ("|", B, y), ("^", x, f), ("|", B, f)]:
        got = list(GRADED[op](Multivector(sig, left), Multivector(sig, right)).terms.items())
        want = expected(sig, op, left, right)
        dense = len(right) == 4
        assert takes_list(sig, op, left, right) == dense, (op, left, right)
        assert got == [(b, want[b]) for b in (sorted(want) if dense else want)], (op, left)
        assert len(want) == 1 or list(want) != sorted(want), (op, left)


# -- * and | of full operands up to MAX_CAYLEY_DIM: the column gathers -------

FULL = {"*": (operator.mul, 0), "|": (operator.or_, 2)}  # op -> (product, kind)
# Python 3.12 made sum() compensate float sums; before it, sum() adds in order
SUM_IN_ORDER = sum([1e100, 1.0, -1e100], 0.0) == 0.0


def full_operand(rng: random.Random, sig: Signature, coeffs=None) -> dict[int, float]:
    """Every blade, keys ascending; coefficients of random bits, or with
    one in ten drawn from coeffs."""
    return {
        b: rng.choice(coeffs) if coeffs and rng.random() < 0.1 else rng.uniform(-2.0, 2.0)
        for b in range(1 << sig.dim)
    }


@pytest.mark.parametrize("sig", ALL_SMALL, ids=str)
@pytest.mark.parametrize("coeffs", [None, NON_FINITE], ids=["finite", "non-finite"])
def test_full_operands_gather_the_pair_loop_bit_for_bit(sig, coeffs):
    # expected() adds each blade's pairs in the left operand's term order,
    # as the pair loop does; with ascending left terms the columns add in
    # the same order, so where sum() adds in order every bit agrees (repr
    # also compares nan with nan), and the keys ascend
    rng = random.Random(f"columns:{sig}:{coeffs is None}")
    x, y = full_operand(rng, sig, coeffs), full_operand(rng, sig, coeffs)
    for op, (product, kind) in FULL.items():
        got = product(Multivector(sig, x), Multivector(sig, y)).terms
        want = sorted(expected(sig, op, x, y).items())
        if SUM_IN_ORDER:
            assert repr(list(got.items())) == repr(want), op
        else:
            assert list(got) == [b for b, _ in want], op
            for (_, c), (_, w) in zip(got.items(), want):
                if math.isfinite(w):
                    assert math.isclose(c, w, rel_tol=1e-12, abs_tol=1e-12), op
                else:
                    assert repr(c) == repr(w), op
        assert (kind, sig.p, sig.dim) in algebra._COLUMNS, op


@pytest.mark.parametrize(
    "sig", [Signature(6, 0), Signature(3, 3), Signature(0, 6), Signature(4, 1), Signature(2, 1)],
    ids=str,
)
def test_full_operands_in_any_order_sum_over_ascending_left_blades(sig):
    # inserted in shuffled order, the left terms are no longer ascending:
    # the result may differ from the pair loop's in the last bits, and it is
    # bit for bit the sum over ascending left blades
    rng = random.Random(f"shuffled:{sig}")
    for _ in range(3):
        x, y = full_operand(rng, sig), full_operand(rng, sig)
        shuffled = list(x.items())
        rng.shuffle(shuffled)
        left = Multivector(sig, dict(shuffled))
        for op, (product, _) in FULL.items():
            got = product(left, Multivector(sig, y))
            if SUM_IN_ORDER:
                assert dict(got.terms) == expected(sig, op, x, y), op
            want = Multivector(sig, expected(sig, op, dict(shuffled), y))
            assert coefficient_norm(got - want) <= 1e-12 * coefficient_norm(want), op


def test_only_full_operands_up_to_the_cayley_limit_gather():
    rng = random.Random("no table")
    # dimension 7 is past MAX_CAYLEY_DIM: no table, whatever the density
    sig7 = Signature(7, 0)
    x7, y7 = (Multivector(sig7, full_operand(rng, sig7)) for _ in range(2))
    for product in OPS.values():
        product(x7, y7)
    assert MAX_CAYLEY_DIM == 6
    assert not [key for key in algebra._COLUMNS if key[2] > MAX_CAYLEY_DIM]
    # a dimension-6 operand that misses one blade takes the pair loop on
    # either side, and ^ takes its submask walk even on full operands
    sig = Signature(4, 2)
    for kind in (0, 1, 2):
        algebra._COLUMNS.pop((kind, sig.p, sig.dim), None)
    x, y = full_operand(rng, sig), full_operand(rng, sig)
    del x[rng.randrange(1 << sig.dim)]
    for op, product in OPS.items():
        for left, right in ((x, y), (y, x)):
            got = dict(product(Multivector(sig, left), Multivector(sig, right)).terms)
            want = expected(sig, op, left, right)
            assert got == want and list(got) == sorted(want), op
    OPS["^"](Multivector(sig, y), Multivector(sig, y))
    assert not [key for key in algebra._COLUMNS if key[1:] == (sig.p, sig.dim)]


@pytest.mark.parametrize("sig", [Signature(1, 0), Signature(0, 1)], ids=str)
def test_full_operands_of_dimension_1(sig):
    # two columns of two blades each for *, and for | one scalar column
    # (the pseudoscalar e1 keeps no pair)
    square = 1.0 if sig.p else -1.0
    x, y = Multivector(sig, {0: 2.0, 1: 3.0}), Multivector(sig, {0: 5.0, 1: 7.0})
    assert dict((x * y).terms) == {0: 10.0 + 21.0 * square, 1: 29.0}
    assert dict((x | y).terms) == {0: 10.0 + 21.0 * square}


@pytest.mark.parametrize("sig", ALL_SMALL, ids=str)
def test_inner_of_full_operands_has_no_pseudoscalar_part(sig):
    # a pseudoscalar result needs a | b with b = a ^ I, but then neither
    # blade holds the other unless one is the scalar, which | pairs only
    # with the scalar: every other blade appears
    size = 1 << sig.dim
    ones = Multivector(sig, {b: 1.0 for b in range(size)})
    got = (ones | ones).terms
    assert size - 1 not in got
    assert dict(got) == expected(sig, "|", dict(ones.terms), dict(ones.terms))

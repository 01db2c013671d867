"""Brute-force reference algebra that the benchmark checks gacalc against.

Blades are ascending tuples of 1-based basis indices. A blade product
concatenates the two factor lists, sorts them one adjacent swap at a
time (each swap flips the sign) and contracts equal neighbours through
the metric. Nothing here imports gacalc or uses its bitmask sign trick,
so a kernel defect cannot hide in the reference.

Values are plain dicts {blade tuple: coefficient}.
"""

from __future__ import annotations

import math


def bits_to_blade(bits: int) -> tuple[int, ...]:
    """Ascending 1-based indices of the set bits of a blade bitmask."""
    return tuple(i + 1 for i in range(bits.bit_length()) if (bits >> i) & 1)


def from_terms(terms) -> dict:
    """Reference value of a gacalc term map {bitmask: coefficient}."""
    return {bits_to_blade(bits): float(c) for bits, c in terms.items()}


class RefAlgebra:
    """Products and norms over G(p, q) on dict-valued multivectors."""

    def __init__(self, p: int, q: int) -> None:
        self.metric = [1] * p + [-1] * q

    def blade_mul(self, a: tuple, b: tuple) -> tuple[int, tuple]:
        seq = list(a) + list(b)
        sign = 1
        for i in range(1, len(seq)):
            j = i
            while j > 0 and seq[j - 1] > seq[j]:
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
                sign = -sign
                j -= 1
        out: list[int] = []
        for x in seq:
            if out and out[-1] == x:
                out.pop()
                sign *= self.metric[x - 1]
            else:
                out.append(x)
        return sign, tuple(out)

    def _pairs(self, A: dict, B: dict, keep) -> dict:
        out: dict = {}
        for a, ca in A.items():
            for b, cb in B.items():
                if not keep(a, b):
                    continue
                sign, r = self.blade_mul(a, b)
                out[r] = out.get(r, 0.0) + sign * ca * cb
        return out

    def gp(self, A: dict, B: dict) -> dict:
        return self._pairs(A, B, lambda a, b: True)

    def outer(self, A: dict, B: dict) -> dict:
        return self._pairs(A, B, lambda a, b: not set(a) & set(b))

    def inner(self, A: dict, B: dict) -> dict:
        """Grade-lowering inner product: <A_r B_s>_|r-s| for r, s > 0,
        the plain product for two scalars and zero for a scalar times a
        higher grade, following gacalc's documented convention."""

        def keep(a, b):
            if not a or not b:
                return not a and not b
            small, large = (a, b) if len(a) <= len(b) else (b, a)
            return set(small) <= set(large)

        return self._pairs(A, B, keep)

    def norm(self, A: dict) -> float:
        return math.sqrt(abs(scalar_part(self.gp(A, reverse(A)))))

    def inverse(self, A: dict) -> dict:
        return scale(reverse(A), 1.0 / scalar_part(self.gp(A, reverse(A))))

    def sandwich(self, R: dict, x: dict) -> dict:
        return self.gp(self.gp(R, x), reverse(R))

    def exp(self, B: dict) -> dict:
        s = scalar_part(self.gp(B, B))
        if s <= 0.0:
            theta = math.sqrt(-s)
            k = math.sin(theta) / theta if theta > 0.0 else 1.0
            return add(scale(B, k), {(): math.cos(theta)})
        phi = math.sqrt(s)
        return add(scale(B, math.sinh(phi) / phi), {(): math.cosh(phi)})

    def rotor_between(self, a: dict, b: dict) -> dict:
        r = add({(): 1.0}, self.gp(b, a))
        return scale(r, 1.0 / self.norm(r))


def scalar_part(A: dict) -> float:
    return A.get((), 0.0)


def add(A: dict, B: dict) -> dict:
    out = dict(A)
    for k, c in B.items():
        out[k] = out.get(k, 0.0) + c
    return out


def sub(A: dict, B: dict) -> dict:
    return add(A, scale(B, -1.0))


def scale(A: dict, s: float) -> dict:
    return {k: c * s for k, c in A.items()}


def reverse(A: dict) -> dict:
    return {k: (-c if len(k) % 4 in (2, 3) else c) for k, c in A.items()}


def grade(A: dict, k: int) -> dict:
    return {b: c for b, c in A.items() if len(b) == k}


def vector(comps) -> dict:
    return {(i + 1,): float(c) for i, c in enumerate(comps) if c != 0.0}


def components(A: dict, dim: int) -> list[float]:
    return [A.get((i + 1,), 0.0) for i in range(dim)]


def dot(a: dict, b: dict) -> float:
    """Euclidean dot product of two vectors given as dicts."""
    return sum(c * b.get(k, 0.0) for k, c in a.items())


def gap(A: dict, B: dict) -> float:
    """Largest coefficient difference between two values."""
    keys = set(A) | set(B)
    return max((abs(A.get(k, 0.0) - B.get(k, 0.0)) for k in keys), default=0.0)


def magnitude(A: dict) -> float:
    return max((abs(c) for c in A.values()), default=0.0)


def close(A: dict, B: dict, rel: float) -> bool:
    """Whether A and B agree to rel times the larger magnitude (floor 1)."""
    return gap(A, B) <= rel * max(1.0, magnitude(A), magnitude(B))


def parse_printed(text: str) -> dict:
    """Value of gacalc's canonical printed form, e.g. "-1.5*e12 + 2"."""
    if text == "0":
        return {}
    words = text.split(" ")
    if len(words) % 2 == 0:
        raise ValueError(f"unexpected printed form {text!r}")
    items = [("+", words[0])] if not words[0].startswith("-") else [("-", words[0][1:])]
    items += list(zip(words[1::2], words[2::2]))
    out: dict = {}
    for sign, body in items:
        if sign not in ("+", "-") or not body:
            raise ValueError(f"unexpected printed form {text!r}")
        coeff, _, name = body.partition("*")
        blade = tuple(int(ch) for ch in name[1:]) if name else ()
        if blade in out or (name and not name.startswith("e")):
            raise ValueError(f"unexpected printed form {text!r}")
        out[blade] = -float(coeff) if sign == "-" else float(coeff)
    return out

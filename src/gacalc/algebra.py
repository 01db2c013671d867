"""Core Clifford algebra kernel: metric signatures, basis blades, and
sparse multivectors with the geometric, outer, and inner products.

Basis blades are encoded as integer bitmasks: bit i (counting from 0)
set means basis vector e_(i+1) is a factor, so e13 is 0b101 and the
scalar blade is 0 (Dorst, Fontijne & Mann, *Geometric Algebra for
Computer Science*, ch. 19). Products of basis blades reorder factors
into the ascending canonical order by counting transpositions, so every
basis coefficient stays an exact +1 or -1 and shared factors contract
through the metric. Multivectors are immutable sparse maps from blade
bitmask to float; coefficients that become exactly zero are dropped,
which keeps the stored form canonical.

The sign of a blade product a*b comes from one mask per left blade a.
Merging the factor lists moves every factor j of b past the factors of
a above position j, and every factor shared at position >= p squares to
-1. So bit j of the mask is set when an odd number of a's factors sit
above j, XORed with a's factors at positions >= p (``a >> p << p``);
then a*b = (-1)^popcount(b & mask) e_(a XOR b). Two fixed tables of
2^MAX_DIM = 4096 entries, built at import and shared by every signature,
hold the suffix parities of every blade and the parity of every bitmask,
so the mask and the sign are one index each. ``^`` keeps the pairs with
no shared factor and ``|`` those where one blade contains the other (a
scalar only pairs with a scalar). A ``*`` with 2^dim / 2 term pairs,
and a ``^`` or ``|`` whose right operand holds 2^dim / 2 blades, adds
into a list of 2^dim floats indexed by result blade; there every left
blade of ``^`` and ``|`` walks the right blades it can keep. Any other
product adds into a dict. Both sum each result blade in left-term order,
so only the key order of the result differs.

Checks sit at the boundary. Values from outside enter through the
public constructor ``Multivector(sig, terms)`` or its ``scalar``,
``blade`` and ``vector`` forms, which check every blade against the
signature and pass every coefficient through ``float()``. Values the
kernel derives from such operands (products, sums and differences,
negation, scaling by a number, reverse, grade parts) are built by the
internal ``Multivector._trusted``, which skips those checks and only
drops exact zeros; a number lifted to a scalar is passed through
``float()`` first. Each argument guard is written once, here, and the
other modules call it: ``require_same_sig``, ``require_g3``,
``require_vector``, ``require_unit_vector``, ``vector_square``,
``blade_square`` and ``non_scalar_norm``.

``_scaled_square`` takes every square of one value (``norm_squared``)
again over A / 2^e when it is not finite or at most _NULL_EPS in size,
after Blue's scaled norm (ACM TOMS 1978): the one rescale rule.

All operations are pure functions of immutable values, so instances can
be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "AlgebraError",
    "SignatureMismatch",
    "GradeError",
    "SingularError",
    "NonBladeError",
    "Signature",
    "G1",
    "G2",
    "G3",
    "MAX_DIM",
    "MAX_CAYLEY_DIM",
    "DEFAULT_TOL",
    "Multivector",
    "blade_product",
    "blade_grade",
    "blade_indices",
    "blade_bits",
    "blade_name",
    "canonical_blades",
    "basis_vectors",
    "dot",
    "dot_bivector",
    "cross",
    "dual",
    "vector_inverse",
    "cayley_table",
]

DEFAULT_TOL = 1e-12
MAX_DIM = 12

# |a.a| at or below this counts as a null vector, after _scaled_square
_NULL_EPS = 1e-300


class AlgebraError(ValueError):
    """Base class for domain errors raised by the kernel."""


class SignatureMismatch(AlgebraError):
    """Operands live in different algebras."""


class GradeError(AlgebraError):
    """An operand has the wrong grade for the operation."""


class SingularError(AlgebraError):
    """The input sits on a genuine singularity (null vector, antipode, pole)."""


class NonBladeError(AlgebraError):
    """A bivector is not a blade (or not unit) where one is required."""


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q): basis vectors 1..p square to +1, the
    remaining q square to -1. Degenerate directions are not supported."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise AlgebraError(f"signature counts must be nonnegative, got ({self.p},{self.q})")
        if not 1 <= self.p + self.q <= MAX_DIM:
            raise AlgebraError(
                f"dimension {self.p + self.q} outside the supported range 1..{MAX_DIM}"
            )

    @property
    def dim(self) -> int:
        return self.p + self.q

    def vector_square(self, index: int) -> int:
        """Square (+1 or -1) of basis vector e_(index+1), index 0-based."""
        if not 0 <= index < self.dim:
            raise AlgebraError(f"basis index {index + 1} outside {self}")
        return 1 if index < self.p else -1

    def __str__(self) -> str:
        return f"G({self.p},{self.q})"


G1 = Signature(1, 0)
G2 = Signature(2, 0)
G3 = Signature(3, 0)


def blade_grade(bits: int) -> int:
    """Grade of a basis blade: the number of vector factors."""
    return bits.bit_count()


def blade_indices(bits: int) -> tuple[int, ...]:
    """1-based basis indices of a blade bitmask, ascending."""
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return tuple(out)


def blade_bits(indices: Iterable[int]) -> int:
    """Bitmask for a set of distinct 1-based basis indices."""
    bits = 0
    for i in indices:
        if i < 1:
            raise AlgebraError(f"basis indices are 1-based, got {i}")
        mask = 1 << (i - 1)
        if bits & mask:
            raise AlgebraError(f"repeated basis index {i} in blade")
        bits |= mask
    return bits


def blade_name(bits: int) -> str:
    """Canonical blade name: "1" for the scalar, else e-prefixed indices."""
    if bits == 0:
        return "1"
    idx = blade_indices(bits)
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    # indices past 9 would be ambiguous as a digit string
    return "e[" + ",".join(str(i) for i in idx) + "]"


def _check_bits(sig: Signature, bits: int) -> None:
    if not 0 <= bits < (1 << sig.dim):
        raise AlgebraError(f"blade {bin(bits)} does not fit in {sig}")


def _sign_tables(dim: int) -> tuple[list[int], bytes]:
    """For every bitmask a below 2^dim: the suffix parities of a (bit j
    set when an odd number of a's factors sit above position j) and the
    parity of a."""
    suffix, parity = [0], b"\x00"
    swap = bytes([1, 0]) + bytes(254)  # a translate table: 0 -> 1, 1 -> 0
    for t in range(dim):
        # the blades with factor t are those below it plus t, which sits
        # above positions 0..t-1 and flips the parity
        flip = (1 << t) - 1
        suffix += [m ^ flip for m in suffix]
        parity += parity.translate(swap)
    return suffix, parity


_SUFFIX, _PARITY = _sign_tables(MAX_DIM)


def _sign_mask(a: int, p: int) -> int:
    """Mask m of left blade a such that a*b has sign (-1)^_PARITY[b & m].

    Bit j is the parity of a's factors above position j (the
    transpositions factor j of b makes), XORed with a's factors at
    positions >= p (shared ones square to -1). The product loops inline
    this expression.
    """
    return _SUFFIX[a] ^ (a >> p << p)


def blade_product(sig: Signature, a: int, b: int) -> tuple[int, int]:
    """Geometric product of two basis blades as (sign, result bitmask).

    The sign counts the transpositions needed to merge the two ascending
    factor lists, times the metric square of every index the blades
    share (shared factors annihilate pairwise).
    """
    _check_bits(sig, a)
    _check_bits(sig, b)
    return (-1 if _PARITY[b & _sign_mask(a, sig.p)] else 1), a ^ b


def _sort_key(bits: int) -> tuple[int, int]:
    return (bits.bit_count(), bits)


def canonical_blades(sig: Signature) -> list[int]:
    """All blade bitmasks of the algebra, sorted by grade then index."""
    return sorted(range(1 << sig.dim), key=_sort_key)


# product kinds of Multivector._product; _GP is 0 so that one truth test
# tells ``*`` from the graded products
_GP, _OUTER, _INNER = 0, 1, 2


def _fmt_coeff(value: float) -> str:
    # 17 significant digits always round-trip an IEEE double
    return format(value, ".17g")


class Multivector:
    """Immutable sparse multivector over a fixed signature.

    Operators follow the usual geometric algebra conventions: ``*`` is
    the geometric product, ``^`` the outer (wedge) product, ``|`` the
    grade-lowering inner product, ``~`` the reverse. ``^`` and ``|``
    bind loosely in Python, so parenthesize: ``(a ^ b) | c``. Numbers
    coerce to scalar multivectors in all arithmetic.
    """

    __slots__ = ("sig", "_terms")

    def __init__(self, sig: Signature, terms: Mapping[int, float] | None = None):
        if not isinstance(sig, Signature):
            raise TypeError("sig must be a Signature")
        cleaned: dict[int, float] = {}
        for bits, coeff in (terms or {}).items():
            _check_bits(sig, bits)
            value = float(coeff)
            if value != 0.0:
                cleaned[bits] = value
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_terms", cleaned)

    @classmethod
    def _trusted(cls, sig: Signature, terms: dict[int, float]) -> "Multivector":
        """Build from float terms on blades of sig that derive from
        validated operands: skips the bit and float checks, still drops
        exact zeros. Every derived value goes through here."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "sig", sig)
        object.__setattr__(mv, "_terms", {b: c for b, c in terms.items() if c != 0.0})
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def blade(cls, sig: Signature, bits: int, coeff: float = 1.0) -> "Multivector":
        return cls(sig, {bits: coeff})

    @classmethod
    def vector(cls, sig: Signature, components: Iterable[float]) -> "Multivector":
        comps = list(components)
        if len(comps) != sig.dim:
            raise AlgebraError(
                f"expected {sig.dim} components for a {sig} vector, got {len(comps)}"
            )
        return cls(sig, {1 << i: c for i, c in enumerate(comps)})

    # -- accessors ------------------------------------------------------

    @property
    def terms(self) -> Mapping[int, float]:
        """Read-only view of the sparse blade-to-coefficient map."""
        return MappingProxyType(self._terms)

    def coeff(self, bits: int) -> float:
        _check_bits(self.sig, bits)
        return self._terms.get(bits, 0.0)

    def scalar_part(self) -> float:
        return self._terms.get(0, 0.0)

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted({bits.bit_count() for bits in self._terms}))

    def grade(self, k: int) -> "Multivector":
        """Grade-k part; grades absent from the value give zero."""
        if k < 0:
            raise GradeError(f"grade must be nonnegative, got {k}")
        return Multivector._trusted(
            self.sig, {b: c for b, c in self._terms.items() if b.bit_count() == k}
        )

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring structure -------------------------------------------------

    def _lift(self, other) -> "Multivector | None":
        if isinstance(other, Multivector):
            require_same_sig(self, other)
            return other
        if isinstance(other, (int, float)):
            # float() keeps bools out of the terms and raises OverflowError
            # on ints too large for a double, as the public constructor does
            return Multivector._trusted(self.sig, {0: float(other)})
        return None

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for bits, c in rhs._terms.items():
            out[bits] = out.get(bits, 0.0) + c
        return Multivector._trusted(self.sig, out)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for bits, c in rhs._terms.items():
            out[bits] = out.get(bits, 0.0) - c
        return Multivector._trusted(self.sig, out)

    def __rsub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        return Multivector._trusted(self.sig, {b: -c for b, c in self._terms.items()})

    def __pos__(self):
        return self

    def _product(self, rhs: "Multivector", kind: int) -> "Multivector":
        """The product loops behind ``*``, ``^`` and ``|``. A list indexed
        by result blade takes the sums of ``*`` when its term pairs fill
        half of the 2^dim entries, and those of ``^`` and ``|`` when the
        right operand holds half of the blades; a dict takes them every
        other time."""
        right = list(rhs._terms.items())
        sig = self.sig
        p = sig.p
        size = 1 << sig.dim
        n = len(right)
        suffix, parity = _SUFFIX, _PARITY
        if not kind and 2 * len(self._terms) * n >= size:
            acc = [0.0] * size
            for a, ca in self._terms.items():
                mask = suffix[a] ^ (a >> p << p)
                signed = (ca, -ca)
                for b, cb in right:
                    acc[a ^ b] += signed[parity[b & mask]] * cb
            mv = object.__new__(Multivector)
            object.__setattr__(mv, "sig", sig)
            object.__setattr__(mv, "_terms", {bits: c for bits, c in enumerate(acc) if c})
            return mv
        # ^ keeps the b that share no factor with a, | those where a or b
        # contains the other (a scalar pairs only with a scalar). With the
        # right operand at least half dense, each left blade walks the
        # blades it can keep, s = (s - 1) & m listing the submasks of m
        # downwards: at most 2^dim <= 2 |rhs| lookups, and only a scalar
        # under ^ or a pseudoscalar under | takes that many
        outer = kind == _OUTER
        if kind and 2 * n >= size:
            acc = [0.0] * size
            find = rhs._terms.get
            for a, ca in self._terms.items():
                mask = suffix[a] ^ (a >> p << p)
                signed = (ca, -ca)
                rest = (size - 1) ^ a
                if outer:
                    s = rest
                    while True:
                        cb = find(s)
                        if cb is not None:
                            acc[a | s] += signed[parity[s & mask]] * cb
                        if not s:
                            break
                        s = (s - 1) & rest
                elif a:
                    s = a  # the nonzero submasks of a
                    while s:
                        cb = find(s)
                        if cb is not None:
                            acc[a ^ s] += signed[parity[s & mask]] * cb
                        s = (s - 1) & a
                    s = rest  # a plus a nonzero submask of its complement
                    while s:
                        cb = find(a | s)
                        if cb is not None:
                            acc[s] += signed[parity[(a | s) & mask]] * cb
                        s = (s - 1) & rest
                elif 0 in rhs._terms:
                    acc[0] += ca * rhs._terms[0]
            mv = object.__new__(Multivector)
            object.__setattr__(mv, "sig", sig)
            object.__setattr__(mv, "_terms", {bits: c for bits, c in enumerate(acc) if c})
            return mv
        out: dict[int, float] = {}
        get = out.get
        for a, ca in self._terms.items():
            mask = suffix[a] ^ (a >> p << p)
            signed = (ca, -ca)
            if not kind:
                for b, cb in right:
                    bits = a ^ b
                    out[bits] = get(bits, 0.0) + signed[parity[b & mask]] * cb
            elif outer:
                for b, cb in right:
                    if not a & b:
                        bits = a | b
                        out[bits] = get(bits, 0.0) + signed[parity[b & mask]] * cb
            elif a:
                for b, cb in right:
                    common = a & b
                    if b and (common == b or common == a):
                        bits = a ^ b
                        out[bits] = get(bits, 0.0) + signed[parity[b & mask]] * cb
            elif 0 in rhs._terms:
                out[0] = get(0, 0.0) + ca * rhs._terms[0]
        return Multivector._trusted(sig, out)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            return Multivector._trusted(self.sig, {b: c * s for b, c in self._terms.items()})
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._product(rhs, _GP)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __xor__(self, other):
        """Outer (wedge) product: the grade-(r+s) parts of the product."""
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._product(rhs, _OUTER)

    def __rxor__(self, other):
        if isinstance(other, (int, float)):
            return self._lift(other) ^ self
        return NotImplemented

    def __or__(self, other):
        """Grade-lowering inner product: sums <A_r B_s>_(|r-s|).

        Mixed products with a scalar factor are zero by convention;
        scalar with scalar multiplies. On vectors this is the metric dot
        product, and on a vector with a bivector it is the antisymmetric
        part (aB - Ba)/2.
        """
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self._product(rhs, _INNER)

    def __ror__(self, other):
        if isinstance(other, (int, float)):
            return self._lift(other) | self
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            s = float(other)
            if s == 0:
                raise SingularError("division by zero")
            return Multivector._trusted(self.sig, {b: c / s for b, c in self._terms.items()})
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self.inverse() * other
        return NotImplemented

    # -- involutions and norms -------------------------------------------

    def reverse(self) -> "Multivector":
        """Reverse the factor order of every blade: grade k picks up
        the sign (-1)^(k(k-1)/2)."""
        # reversing k factors costs k(k-1)/2 transpositions, an odd
        # number exactly when k % 4 is 2 or 3, that is when bit 1 of k is set
        return Multivector._trusted(
            self.sig, {b: -c if b.bit_count() & 2 else c for b, c in self._terms.items()}
        )

    def __invert__(self):
        return self.reverse()

    def norm_squared(self) -> float:
        """Scalar part of A * reverse(A). Blade products are scalar only
        for equal blades, so this is a term-diagonal sum; it can be
        negative in mixed signatures."""
        total = 0.0
        p = self.sig.p
        for bits, c in self._terms.items():
            # a blade times its reverse is the product of its factors'
            # squares, and the factors at positions >= p square to -1
            total += -c * c if (bits >> p).bit_count() & 1 else c * c
        return total

    def norm(self) -> float:
        """sqrt(|norm_squared()|), taken over A / 2^e by ``_scaled_square``;
        inf when the norm itself overflows."""
        e, _, s = _scaled_square(self)
        try:
            return math.ldexp(math.sqrt(abs(s)), e)
        except OverflowError:
            return math.inf

    def inverse(self, tol: float = DEFAULT_TOL) -> "Multivector":
        """Inverse through reversal, defined when A * ~A is a nonzero
        scalar (vectors, blades, rotors). Zero divisors are rejected.
        A^-1 = (A/k)^-1 / k for k = 2^e from ``_scaled_square``, whose s is
        A * ~A's scalar part bit for bit: each blade meets only itself there."""
        e, A, s = _scaled_square(self)
        if abs(s) <= _NULL_EPS:
            raise SingularError("multivector has no inverse: A * ~A vanishes")
        rev = A.reverse()
        if non_scalar_norm(A * rev) > tol * max(1.0, abs(s)):
            raise SingularError("multivector is not invertible by reversal")
        return _pow2_divided("inverse", rev / s, e)

    def exp(self, tol: float = DEFAULT_TOL) -> "Multivector":
        """Exponential of a bivector blade, in closed form.

        A square B*B = -theta^2 gives cos(theta) + B sin(theta)/theta
        (a rotation generator); B*B = +phi^2 gives cosh(phi) +
        B sinh(phi)/phi; B = 0 gives 1. A bivector whose square is not
        scalar (a non-blade, possible from dimension 4 up) is rejected, and
        so is one whose square is not finite or whose exponential overflows.
        """
        if self.is_zero():
            return Multivector.scalar(self.sig, 1.0)
        s = blade_square("exp", self, tol)
        if s <= 0.0:
            theta = math.sqrt(-s)
            scale = math.sin(theta) / theta if theta > 0.0 else 1.0
            return self * scale + math.cos(theta)
        phi = math.sqrt(s)
        try:
            scale, shift = math.sinh(phi) / phi, math.cosh(phi)
        except OverflowError:
            raise AlgebraError(f"exp: the bivector square {s!r} overflows cosh") from None
        # unlike sin(theta)/theta <= 1 above, this scale can overflow a coefficient
        result = self * scale + shift
        if not all(map(math.isfinite, result._terms.values())):
            raise AlgebraError(f"exp: a coefficient overflows for the bivector square {s!r}")
        return result

    # -- comparison and display -------------------------------------------

    def is_close(
        self,
        other,
        abs_tol: float = DEFAULT_TOL,
        rel_tol: float = DEFAULT_TOL,
    ) -> bool:
        """Whether the difference norm is within abs_tol plus rel_tol
        scaled by the larger operand norm."""
        rhs = self._lift(other)
        if rhs is None:
            raise TypeError(f"cannot compare Multivector with {type(other).__name__}")
        gap = (self - rhs).norm()
        return gap <= abs_tol + rel_tol * max(self.norm(), rhs.norm())

    def __eq__(self, other):
        if isinstance(other, (int, float)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    __hash__ = None

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for bits in sorted(self._terms, key=_sort_key):
            c = self._terms[bits]
            body = _fmt_coeff(abs(c))
            if bits:
                body = f"{body}*{blade_name(bits)}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Multivector({self.sig}: {self})"


def basis_vectors(sig: Signature) -> list[Multivector]:
    """The grade-1 basis blades e1..e_dim, in order."""
    return [Multivector.blade(sig, 1 << i) for i in range(sig.dim)]


def _pow2_divided(name: str, A: Multivector, e: int) -> Multivector:
    """A / 2^e, exact for normal floats; an overflow is an AlgebraError."""
    if not e:
        return A
    try:
        return Multivector._trusted(A.sig, {b: math.ldexp(c, -e) for b, c in A._terms.items()})
    except OverflowError:
        raise AlgebraError(f"{name}: a coefficient overflows") from None


def _scaled_square(A: Multivector) -> tuple[int, Multivector, float]:
    """(e, A / 2^e, s), s the norm_squared of A / 2^e: e is 0 unless A's
    own square is not finite or at most _NULL_EPS in size, and then brings
    the largest |coefficient| into [0.5, 1) if that is finite and nonzero."""
    s = A.norm_squared()
    if _NULL_EPS < abs(s) < math.inf:
        return 0, A, s
    e = math.frexp(max(map(abs, A._terms.values()), default=0.0))[1]
    if e:
        A = _pow2_divided("rescale", A, e)
        s = A.norm_squared()
    return e, A, s


def non_scalar_norm(m: Multivector) -> float:
    """Norm of m minus its scalar part: the residual of a "square is
    scalar" check. Sums the same terms in the same order as the unscaled
    ``(m - m.scalar_part()).norm()`` without building that difference."""
    total = 0.0
    p = m.sig.p
    for bits, c in m._terms.items():
        if bits:
            total += -c * c if (bits >> p).bit_count() & 1 else c * c
    return math.sqrt(abs(total))


def require_same_sig(a: Multivector, b: Multivector) -> None:
    # `is` first: Signature's dataclass __eq__ builds two tuples
    if a.sig is not b.sig and a.sig != b.sig:
        raise SignatureMismatch(f"operands live in different algebras: {a.sig} vs {b.sig}")


def require_g3(name: str, a: Multivector) -> None:
    if a.sig is not G3 and a.sig != G3:
        raise SignatureMismatch(f"{name} is defined in G(3,0), got {a.sig}")


def require_vector(name: str, a: Multivector) -> None:
    for bits in a._terms:
        # a vector blade has exactly one bit set
        if not bits or bits & (bits - 1):
            raise GradeError(f"{name} expects a vector (grade 1), got grades {a.grades()}")


def require_unit_vector(name: str, a: Multivector, tol: float) -> None:
    require_vector(name, a)
    s = a.norm_squared()
    # written so that a nan square fails it
    if not abs(s - 1.0) <= tol:
        raise GradeError(f"{name} expects a unit vector, got squared length {s!r}")


def vector_square(name: str, a: Multivector) -> tuple[int, Multivector, float]:
    """(e, a / 2^e, s) from ``_scaled_square`` for the vector a, which
    must not be null: s is the square of a / 2^e."""
    require_vector(name, a)
    e, a, s = _scaled_square(a)
    if abs(s) <= _NULL_EPS:
        raise SingularError(f"{name} requires a vector with nonzero square")
    return e, a, s


def blade_square(name: str, B: Multivector, tol: float) -> float:
    """Square s of the 2-blade B, checked finite and scalar to tol * max(1, |s|)."""
    if B.grades() != (2,):
        raise GradeError(f"{name} expects a bivector, got grades {B.grades()}")
    square = B * B
    s = square.scalar_part()
    if not math.isfinite(s):
        raise AlgebraError(f"{name}: the bivector square {s!r} is not finite")
    if non_scalar_norm(square) > tol * max(1.0, abs(s)):
        raise NonBladeError(f"{name} expects a 2-blade: the bivector square is not scalar")
    return s


def dot(a: Multivector, b: Multivector) -> float:
    """Inner product of two vectors as a plain float: the symmetric part
    (ab + ba)/2, which reduces to the metric-weighted component sum."""
    require_vector("dot", a)
    require_vector("dot", b)
    require_same_sig(a, b)
    total = 0.0
    p = a.sig.p
    rhs = b._terms
    for bits, ca in a._terms.items():
        cb = rhs.get(bits)
        if cb is not None:
            # bits is a single factor; factors at positions >= p square to -1
            total += -ca * cb if bits >> p else ca * cb
    return total


def dot_bivector(a: Multivector, B: Multivector) -> Multivector:
    """Inner product of a vector with a bivector: the grade-1 value
    (aB - Ba)/2, the in-plane part of a rotated a quarter turn."""
    require_vector("dot_bivector", a)
    if B.grades() not in ((), (2,)):
        raise GradeError(f"dot_bivector expects a bivector, got grades {B.grades()}")
    return a | B


def cross(a: Multivector, b: Multivector) -> Multivector:
    """Classical cross product in G(3,0), by determinant expansion."""
    for v in (a, b):
        require_g3("cross", v)
        require_vector("cross", v)
    a1, a2, a3 = (a.coeff(bits) for bits in (0b001, 0b010, 0b100))
    b1, b2, b3 = (b.coeff(bits) for bits in (0b001, 0b010, 0b100))
    return Multivector.vector(
        G3,
        [a2 * b3 - a3 * b2, -(a1 * b3 - a3 * b1), a1 * b2 - a2 * b1],
    )


def dual(A: Multivector) -> Multivector:
    """Multiply by the G(3,0) pseudoscalar e123 on the left, exchanging
    each blade with its orthogonal complement (vectors with bivectors)."""
    require_g3("dual", A)
    return Multivector.blade(G3, 0b111) * A


def vector_inverse(a: Multivector) -> Multivector:
    """Inverse of a nonzero vector: a / (a.a), taken as (a/k) / ((a/k).(a/k))
    / k for k = 2^e when a.a is not finite or vanishes."""
    e, a, s = vector_square("vector_inverse", a)
    return _pow2_divided("vector_inverse", a / s, e)


# a Cayley table has 4**dim entries; dimension 6 keeps it at 64 x 64
MAX_CAYLEY_DIM = 6


def cayley_table(sig: Signature) -> list[list[tuple[int, int]]]:
    """Full multiplication table of basis blades as (sign, bits) pairs,
    rows and columns in canonical grade-then-index order. Limited to
    dimension MAX_CAYLEY_DIM."""
    if sig.dim > MAX_CAYLEY_DIM:
        raise AlgebraError(f"cayley table limited to dimension {MAX_CAYLEY_DIM}, got {sig.dim}")
    order = canonical_blades(sig)
    return [[blade_product(sig, a, b) for b in order] for a in order]

from __future__ import annotations

import math

import hypothesis.strategies as st

from gacalc import Multivector, Signature

SMALL_SIGNATURES = [
    Signature(1, 0),
    Signature(2, 0),
    Signature(3, 0),
    Signature(1, 1),
    Signature(0, 2),
]

# bounded coefficients keep absolute tolerances meaningful
tame_coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
wild_coeff = st.floats(allow_nan=False, allow_infinity=False, width=64)
# wild floats and the edges of the double range: squares of +-1e150
# overflow, products of 1e300 do, 5e-324 underflows, inf and nan propagate
edge_coeff = st.one_of(
    wild_coeff,
    st.sampled_from([1e150, -1e150, 1e300, -1e300, 5e-324, math.inf, -math.inf, math.nan]),
)


def multivectors(sig: Signature, coeff=tame_coeff, grades=None):
    """Strategy for sparse multivectors over sig, optionally grade-limited."""
    blades = [
        b for b in range(1 << sig.dim) if grades is None or b.bit_count() in grades
    ]
    return st.dictionaries(st.sampled_from(blades), coeff, max_size=len(blades)).map(
        lambda terms: Multivector(sig, terms)
    )


def vectors(sig: Signature, coeff=tame_coeff):
    return st.lists(coeff, min_size=sig.dim, max_size=sig.dim).map(
        lambda comps: Multivector.vector(sig, comps)
    )


# The five ways an expression nests: name -> (text at n repetitions, depth
# levels per repetition, coefficient of e1 in its value).
NESTINGS = {
    "parentheses": (lambda n: "(" * n + "e1" + ")" * n, 1, lambda n: 1.0),
    "calls": (lambda n: "rev(" * n + "e1" + ")" * n, 2, lambda n: 1.0),
    "sum": (lambda n: "+".join(["e1"] * (n + 1)), 1, lambda n: float(n + 1)),
    "negations": (lambda n: "-" * n + "e1", 1, lambda n: (-1.0) ** n),
    "reverses": (lambda n: "e1" + "~" * n, 1, lambda n: 1.0),
}

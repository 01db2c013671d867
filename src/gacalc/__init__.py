"""Geometric algebra kernel, Euclidean transforms, analytic geometry,
stereographic projection, and an expression calculator."""

from gacalc.algebra import (
    DEFAULT_TOL,
    MAX_DIM,
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
    blade_grade,
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
from gacalc.geometry import (
    Line,
    Plane,
    Triangle,
    closest_point_on_line,
    cosine_law_residual,
    distance_to_line,
    line_contains,
    plane_contains,
    plane_normal,
    sine_law_residual,
    triangle_area,
)
from gacalc.stereo import (
    antipodal_m,
    prob_minus,
    prob_minus_m,
    prob_plus,
    prob_plus_m,
    rotation_form,
    stereo_project,
    stereo_unproject,
    to_m,
)
from gacalc.transforms import (
    compose_rotors,
    project,
    reflect_in_plane,
    reflect_normal,
    reject,
    rotate,
    rotor_between,
    rotor_from_reflections,
)
from gacalc.expr import (
    Environment,
    EvalError,
    GaSyntaxError,
    LexError,
    ParseError,
    evaluate,
    execute_statement,
    parse_expression,
    parse_signature,
    parse_statement,
    parse_tolerance,
    repl_loop,
    tokenize,
)

__version__ = "0.1.0"

_CLI_NAMES = ("emit_cayley", "main", "multivector_json", "run_script")


def __getattr__(name: str):
    # gacalc.cli loads on first use: imported here, it would already sit in
    # sys.modules when `python -m gacalc.cli` runs it, and runpy warns
    if name in _CLI_NAMES:
        from gacalc import cli

        return getattr(cli, name)
    raise AttributeError(f"module 'gacalc' has no attribute {name!r}")

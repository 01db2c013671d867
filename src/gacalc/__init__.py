"""Geometric algebra kernel, Euclidean transforms, analytic geometry,
stereographic projection, and an expression calculator.

``import gacalc`` loads the kernel, ``gacalc.algebra``, and nothing else.
Every other public name resolves on first use through the module
``__getattr__`` (PEP 562), which imports the submodule that defines it and
caches the name here, so later lookups are plain global reads.
"""

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

__version__ = "0.1.0"

# every name that loads on first use -> the submodule that defines it; a
# submodule's own name maps to itself
_LAZY = {
    name: module
    for module, names in {
        "geometry": (
            "geometry",
            "Line",
            "Plane",
            "Triangle",
            "closest_point_on_line",
            "cosine_law_residual",
            "distance_to_line",
            "line_contains",
            "plane_contains",
            "plane_normal",
            "sine_law_residual",
            "triangle_area",
        ),
        "stereo": (
            "stereo",
            "antipodal_m",
            "prob_minus",
            "prob_minus_m",
            "prob_plus",
            "prob_plus_m",
            "rotation_form",
            "stereo_project",
            "stereo_unproject",
            "to_m",
        ),
        "transforms": (
            "transforms",
            "compose_rotors",
            "project",
            "reflect_in_plane",
            "reflect_normal",
            "reject",
            "rotate",
            "rotor_between",
            "rotor_from_reflections",
        ),
        "expr": (
            "expr",
            "Environment",
            "EvalError",
            "GaSyntaxError",
            "LexError",
            "ParseError",
            "evaluate",
            "execute_statement",
            "parse_expression",
            "parse_signature",
            "parse_statement",
            "parse_tolerance",
            "repl_loop",
            "tokenize",
        ),
        # not in __all__: importing gacalc.cli with the package would put it
        # in sys.modules before `python -m gacalc.cli` runs it, and runpy
        # would warn
        "cli": ("emit_cayley", "main", "multivector_json", "run_script"),
    }.items()
    for name in names
}

# the public globals (the kernel's names and `algebra`) and every lazy name
# but gacalc.cli's
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += [name for name, module in _LAZY.items() if module != "cli"]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'gacalc' has no attribute {name!r}")
    import importlib

    home = importlib.import_module(f"gacalc.{module}")
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

"""The package surface: what ``import gacalc`` loads, the names it offers
and the frozen ``Signature`` that the kernel defines without
``dataclasses``."""

from __future__ import annotations

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gacalc
from gacalc import AlgebraError, Signature

SRC = Path(__file__).resolve().parents[1] / "src"

# the names `from gacalc import *` bound while every submodule but
# gacalc.cli loaded with the package
PUBLIC = {
    "AlgebraError", "DEFAULT_TOL", "Environment", "EvalError", "G1", "G2", "G3",
    "GaSyntaxError", "GradeError", "LexError", "Line", "MAX_DIM", "Multivector",
    "NonBladeError", "ParseError", "Plane", "Signature", "SignatureMismatch",
    "SingularError", "Triangle", "algebra", "antipodal_m", "basis_vectors",
    "blade_bits", "blade_grade", "blade_indices", "blade_name", "blade_product",
    "canonical_blades", "cayley_table", "closest_point_on_line", "compose_rotors",
    "cosine_law_residual", "cross", "distance_to_line", "dot", "dot_bivector", "dual",
    "evaluate", "execute_statement", "expr", "geometry", "line_contains",
    "parse_expression", "parse_signature", "parse_statement", "parse_tolerance",
    "plane_contains", "plane_normal", "prob_minus", "prob_minus_m", "prob_plus",
    "prob_plus_m", "project", "reflect_in_plane", "reflect_normal", "reject",
    "repl_loop", "rotate", "rotation_form", "rotor_between", "rotor_from_reflections",
    "sine_law_residual", "stereo", "stereo_project", "stereo_unproject", "to_m",
    "tokenize", "transforms", "triangle_area", "vector_inverse",
}
SUBMODULES = ("algebra", "geometry", "stereo", "transforms", "expr")
CLI_NAMES = ("emit_cayley", "main", "multivector_json", "run_script")

# -- import footprint --------------------------------------------------------

# runs the three products and the inverse, then touches one transforms name;
# prints the modules each step added to sys.modules
FOOTPRINT = """
import sys
before = set(sys.modules)
import gacalc
sig = gacalc.Signature(4, 1)
a = gacalc.Multivector.vector(sig, [1, 2, 3, 4, 0.5])
b = gacalc.Multivector.vector(sig, [0, 1, -1, 2, 3])
for value in (a * b, a ^ b, a | b, (a * b).inverse(), a.inverse(), gacalc.G3.dim):
    pass
kernel = sorted(set(sys.modules) - before)
gacalc.rotate
print(repr((kernel, sorted(set(sys.modules) - before))))
"""

HEAVY = {"dataclasses", "inspect", "logging", "typing"}
LAZY_SUBMODULES = {f"gacalc.{name}" for name in ("expr", "geometry", "stereo", "transforms", "cli")}


def test_import_gacalc_loads_only_the_kernel():
    # -S leaves out site, whose imports (typing among them, on some hosts)
    # would hide what gacalc itself loads
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 0, done.stderr
    kernel, after_rotate = ast.literal_eval(done.stdout)
    assert {"gacalc", "gacalc.algebra"} <= set(kernel)
    assert not (HEAVY | LAZY_SUBMODULES) & set(kernel)
    loaded = set(after_rotate) - set(kernel)
    assert "gacalc.transforms" in loaded
    assert not {"gacalc.expr", "gacalc.geometry", "gacalc.stereo", "gacalc.cli"} & loaded
    assert not HEAVY & loaded


# -- names -------------------------------------------------------------------


def test_all_and_star_import_give_the_public_names():
    assert len(gacalc.__all__) == len(PUBLIC) == 71
    assert set(gacalc.__all__) == PUBLIC
    bound: dict = {}
    exec("from gacalc import *", bound)
    assert set(bound) - {"__builtins__"} == PUBLIC
    assert PUBLIC | set(CLI_NAMES) <= set(dir(gacalc))


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_is_the_defining_modules_own_object(name):
    value = getattr(gacalc, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"gacalc.{name}")
        return
    homes = [
        module
        for module in (importlib.import_module(f"gacalc.{m}") for m in SUBMODULES)
        if name in module.__all__
    ]
    assert len(homes) == 1
    assert value is getattr(homes[0], name)
    # cached in the package globals, so later lookups skip __getattr__
    assert vars(gacalc)[name] is value


@pytest.mark.parametrize("name", CLI_NAMES)
def test_the_cli_names_resolve_to_gacalc_cli(name):
    assert getattr(gacalc, name) is getattr(importlib.import_module("gacalc.cli"), name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'gacalc' has no attribute 'x'$"):
        gacalc.x
    with pytest.raises(ImportError):
        exec("from gacalc import x", {})
    assert not hasattr(gacalc, "MAX_CAYLEY_DIM")


# -- Signature ---------------------------------------------------------------


def test_signature_compares_and_hashes_by_its_counts():
    sig = Signature(3, 0)
    assert sig == Signature(3, 0) == Signature(p=3, q=0) == gacalc.G3
    assert sig != Signature(2, 1)
    assert sig != (3, 0) and not sig == (3, 0)
    assert hash(sig) == hash(Signature(3, 0)) == hash((3, 0))
    assert len({sig, Signature(3, 0), Signature(0, 3)}) == 2
    assert repr(sig) == "Signature(p=3, q=0)"
    assert str(Signature(4, 1)) == "G(4,1)"
    assert (sig.p, sig.q, sig.dim) == (3, 0, 3)


def test_signature_is_frozen():
    sig = Signature(2, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        sig.p = 3
    with pytest.raises(AttributeError):
        sig.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'q'"):
        del sig.q
    assert (sig.p, sig.q) == (2, 1)


@pytest.mark.parametrize(
    "clone",
    [lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_signature_round_trips(clone):
    sig = Signature(4, 1)
    twin = clone(sig)
    assert twin == sig and hash(twin) == hash(sig)
    assert type(twin) is Signature
    with pytest.raises(AttributeError):
        twin.q = 0


@pytest.mark.parametrize(
    "p, q, message",
    [
        (-1, 2, r"^signature counts must be nonnegative, got \(-1,2\)$"),
        (2, -1, r"^signature counts must be nonnegative, got \(2,-1\)$"),
        (0, 0, r"^dimension 0 outside the supported range 1..12$"),
        (13, 0, r"^dimension 13 outside the supported range 1..12$"),
        (7, 6, r"^dimension 13 outside the supported range 1..12$"),
    ],
)
def test_signature_validation_messages(p, q, message):
    with pytest.raises(AlgebraError, match=message):
        Signature(p, q)

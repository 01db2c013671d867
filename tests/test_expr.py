"""Lexer, parser, evaluator, and REPL behavior."""

from __future__ import annotations

import dataclasses
import io
import math
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings

import gacalc.expr
from conftest import NESTINGS, multivectors, wild_coeff
from gacalc import (
    G2,
    G3,
    Multivector,
    Signature,
    SingularError,
    basis_vectors,
    blade_bits,
    blade_name,
)
from gacalc.algebra import coefficient_norm
from gacalc.expr import (
    FUNCTIONS,
    MAX_DEPTH,
    MAX_LANGUAGE_DIM,
    AssertOutcome,
    AssertStmt,
    BinOp,
    BladeRef,
    Call,
    Environment,
    EvalError,
    ExprStmt,
    Let,
    LexError,
    Neg,
    Num,
    ParseError,
    Rev,
    Var,
    evaluate,
    execute_statement,
    parse_expression,
    parse_signature,
    parse_statement,
    parse_tolerance,
    repl_loop,
    run_line,
    tokenize,
)

E1, E2, E3 = basis_vectors(G3)


def run(text: str, env: Environment | None = None) -> Multivector:
    return evaluate(parse_expression(text), env or Environment())


# -- tokenizer -----------------------------------------------------------


def test_tokenize_blade_product():
    assert [(t.kind, t.lexeme) for t in tokenize("e1*e2")] == [
        ("ident", "e1"),
        ("operator", "*"),
        ("ident", "e2"),
    ]


def test_tokenize_number_then_wedge():
    assert [(t.kind, t.lexeme) for t in tokenize("2.5^e12")] == [
        ("number", "2.5"),
        ("operator", "^"),
        ("ident", "e12"),
    ]


def test_tokenize_spans_cover_input():
    text = "let x = 2.5 * (e1 + e23)"
    tokens = tokenize(text)
    for tok in tokens:
        assert text[tok.start : tok.end] == tok.lexeme
    for before, after in zip(tokens, tokens[1:]):
        assert before.end <= after.start
        # only whitespace may sit between adjacent tokens
        assert text[before.end : after.start].strip() == ""


def test_tokenize_signed_exponent_is_one_number():
    assert [(t.kind, t.lexeme) for t in tokenize("1e-5")] == [("number", "1e-5")]
    assert [(t.kind, t.lexeme) for t in tokenize("2.5e+10")] == [("number", "2.5e+10")]


def test_tokenize_unsigned_exponent_is_a_blade():
    # without an explicit sign the "e5" suffix stays a blade name
    assert [(t.kind, t.lexeme) for t in tokenize("1e5")] == [
        ("number", "1"),
        ("ident", "e5"),
    ]


def test_tokenize_trailing_dot_is_contraction():
    kinds = [t.kind for t in tokenize("2.e1")]
    assert kinds == ["number", "operator", "ident"]


def test_tokenize_comment_runs_to_end():
    assert [t.lexeme for t in tokenize("e1 # the rest is ignored ((( ")] == ["e1"]


def test_tokenize_rejects_noncanonical_blades():
    with pytest.raises(LexError) as err:
        tokenize("e21")
    assert err.value.span == (0, 3)
    with pytest.raises(LexError):
        tokenize("e11")
    with pytest.raises(LexError):
        tokenize("e0")


def test_tokenize_rejects_unknown_characters():
    with pytest.raises(LexError) as err:
        tokenize("e1 $ e2")
    assert err.value.span == (3, 4)


def test_tokenize_long_ascending_blade():
    assert tokenize("e123456789")[0].lexeme == "e123456789"


@pytest.mark.parametrize(
    "text, message",
    [
        ("e0", "blade index 0 in 'e0'; indices run from 1 (at 0..2)"),
        ("e10", "blade index 0 in 'e10'; indices run from 1 (at 0..3)"),
        ("e21", "non-canonical blade 'e21'; indices must strictly ascend (at 0..3)"),
        ("e11", "non-canonical blade 'e11'; indices must strictly ascend (at 0..3)"),
        ("x + 2*e98", "non-canonical blade 'e98'; indices must strictly ascend (at 6..9)"),
        ("let e132 = 1", "non-canonical blade 'e132'; indices must strictly ascend (at 4..8)"),
    ],
)
def test_bad_blade_names_keep_their_lexer_errors(text, message):
    with pytest.raises(LexError) as err:
        tokenize(text)
    assert str(err.value) == message


def test_blade_table_holds_the_canonical_names():
    table = gacalc.expr._BLADES
    assert len(table) == (1 << MAX_LANGUAGE_DIM) - 1
    for name, bits in table.items():
        assert blade_name(bits) == name
        assert blade_bits(int(digit) for digit in name[1:]) == bits
        assert [t.kind for t in tokenize(name)] == ["ident"]
        assert parse_expression(name) == BladeRef(name)
    # names that only look like blades are variables
    for name in ["e", "e1x", "e_1", "E1", "ex"]:
        assert parse_expression(name) == Var(name)


# -- parser --------------------------------------------------------------


def test_precedence_contraction_and_wedge_below_addition():
    assert parse_expression("a.b + a^b") == BinOp(
        "+",
        BinOp(".", Var("a"), Var("b")),
        BinOp("^", Var("a"), Var("b")),
    )


def test_precedence_wedge_binds_tighter_than_product():
    assert parse_expression("a^b*c") == BinOp(
        "*",
        BinOp("^", Var("a"), Var("b")),
        Var("c"),
    )


def test_precedence_unary_minus_binds_tighter_than_product():
    assert parse_expression("-a*b") == BinOp("*", Neg(Var("a")), Var("b"))


def test_parse_postfix_reverse():
    assert parse_expression("a~~") == Rev(Rev(Var("a")))
    assert parse_expression("-a~") == Neg(Rev(Var("a")))


def test_parse_left_associativity():
    assert parse_expression("a - b - c") == BinOp(
        "-", BinOp("-", Var("a"), Var("b")), Var("c")
    )
    assert parse_expression("a/b/c") == BinOp("/", BinOp("/", Var("a"), Var("b")), Var("c"))


def test_parse_parentheses_override():
    assert parse_expression("a*(b + c)") == BinOp(
        "*", Var("a"), BinOp("+", Var("b"), Var("c"))
    )


def test_parse_blades_and_numbers():
    assert parse_expression("2*e12") == BinOp("*", Num(2.0), BladeRef("e12"))


def test_parse_calls():
    assert parse_expression("rot(e1, r)") == Call("rot", (BladeRef("e1"), Var("r")))
    assert parse_expression("dist(x, a, p)") == Call(
        "dist", (Var("x"), Var("a"), Var("p"))
    )


def test_parse_rejects_unknown_function():
    with pytest.raises(ParseError):
        parse_expression("frobnicate(e1)")
    with pytest.raises(ParseError):
        parse_expression("e1(e2)")


def test_parse_rejects_bad_arity():
    with pytest.raises(ParseError):
        parse_expression("norm(e1, e2)")
    with pytest.raises(ParseError):
        parse_expression("rot(e1)")
    with pytest.raises(ParseError):
        parse_expression("norm()")


def test_parse_rejects_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_expression("(e1 + e2")
    with pytest.raises(ParseError):
        parse_expression("e1 + e2)")


def test_parse_rejects_dangling_operator():
    with pytest.raises(ParseError):
        parse_expression("e1 +")
    with pytest.raises(ParseError):
        parse_expression("* e1")


def test_parse_rejects_reserved_words_in_expressions():
    with pytest.raises(ParseError):
        parse_expression("let + 1")
    with pytest.raises(ParseError):
        parse_expression("assert")


def test_parse_error_spans_point_at_the_problem():
    with pytest.raises(ParseError) as err:
        parse_expression("e1 + )")
    assert err.value.span == (5, 6)


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_up_to_the_depth_limit_evaluates(shape):
    text, levels, coeff = NESTINGS[shape]
    for n in (50, MAX_DEPTH // levels):
        assert run(text(n)) == coeff(n) * E1, n


@pytest.mark.parametrize("shape", NESTINGS)
def test_nesting_beyond_the_depth_limit_is_a_parse_error(shape):
    text, levels, _ = NESTINGS[shape]
    for n in (MAX_DEPTH // levels + 1, 5000):
        with pytest.raises(ParseError, match="nesting exceeds") as err:
            parse_expression(text(n))
        start, end = err.value.span
        assert 0 <= start < end <= len(text(n))


SYNTAX_CLASSES = {
    gacalc.expr.Token: ("kind", "lexeme", "start", "end"),
    Num: ("value",),
    BladeRef: ("name",),
    Var: ("name",),
    Neg: ("operand",),
    Rev: ("operand",),
    BinOp: ("op", "left", "right"),
    Call: ("name", "args"),
    Let: ("name", "expr"),
    AssertStmt: ("left", "right", "tol"),
    ExprStmt: ("expr",),
}


@pytest.mark.parametrize("cls", SYNTAX_CLASSES, ids=lambda cls: cls.__name__)
def test_tokens_and_nodes_are_dataclasses_with_fixed_fields(cls):
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == SYNTAX_CLASSES[cls]


def test_distinct_node_types_never_compare_equal():
    a = Var("a")
    nodes = [Neg(a), Rev(a), a, BladeRef("a"), Num(1.0), Var("x"), ExprStmt(a), Let("a", a)]
    for i, left in enumerate(nodes):
        for j, right in enumerate(nodes):
            assert (left == right) == (i == j)
    assert Neg(Var("a")) == Neg(Var("a"))


def test_parse_let_statement():
    assert parse_statement("let x = e1 + e2") == Let(
        "x", BinOp("+", BladeRef("e1"), BladeRef("e2"))
    )


def test_parse_let_rejects_blade_and_keyword_names():
    with pytest.raises(ParseError):
        parse_statement("let e1 = 5")
    with pytest.raises(ParseError):
        parse_statement("let assert = 5")
    with pytest.raises(ParseError):
        parse_statement("let x 5")


def test_parse_assert_statement():
    stmt = parse_statement("assert a*b ~ a.b + a^b 1e-13")
    assert isinstance(stmt, AssertStmt)
    assert stmt.tol == 1e-13
    assert stmt.left == BinOp("*", Var("a"), Var("b"))


def test_parse_assert_without_tolerance():
    stmt = parse_statement("assert e1*e1 ~ 1")
    assert isinstance(stmt, AssertStmt)
    assert stmt.tol is None


def test_parse_assert_separator_skips_postfix_reverses():
    # the first "~" reverses a; the second separates the two sides
    stmt = parse_statement("assert a~ ~ b")
    assert isinstance(stmt, AssertStmt)
    assert stmt.left == Rev(Var("a"))
    assert stmt.right == Var("b")


def test_parse_assert_separator_ignores_parenthesized_reverses():
    # a "~" inside parens never separates; here it leaves the left side
    # malformed, because a postfix reverse cannot be followed by a name
    with pytest.raises(ParseError):
        parse_statement("assert (a ~ b) ~ c")
    stmt = parse_statement("assert (a~) ~ c")
    assert isinstance(stmt, AssertStmt)
    assert stmt.left == Rev(Var("a"))
    assert stmt.right == Var("c")


def test_parse_assert_requires_separator():
    with pytest.raises(ParseError):
        parse_statement("assert a + b")


def test_let_without_expression_points_at_the_end_of_the_line():
    with pytest.raises(ParseError, match="end of input") as err:
        parse_statement("let x =")
    assert err.value.span == (7, 7)


def test_assert_without_left_side_points_inside_the_line():
    text = "assert ~ e1"
    with pytest.raises(ParseError) as err:
        parse_statement(text)
    start, end = err.value.span
    assert len("assert ") <= start < end <= len(text)


def test_line_error_spans_count_from_the_start_of_the_line():
    assert run_line("  e1 + )  # note\n", Environment()).error == "unexpected ')' (at 7..8)"


def test_assert_tolerance_zero_asks_for_exact_equality():
    env = Environment()
    assert parse_statement("assert e1 ~ e1 0").tol == 0.0
    assert run_line("assert e1 ~ e1 0", env).failure is None
    assert run_line("assert e1 ~ 1.0000000001*e1 0", env).failure.startswith("assert failed:")


def test_non_finite_assert_tolerance_is_a_parse_error_at_the_literal():
    done = run_line("assert e1 ~ e2 1e+400", Environment())
    assert done.statement is None and done.value is None
    assert done.error == "assert tolerance 1e+400 is not finite (at 15..21)"


def _side(rng: random.Random, depth: int = 0) -> str:
    """Text of an expression with postfix '~', parentheses and unary minus.
    A '~' outside parentheses that meets a binary '-' would separate an
    assert's sides, so such a left operand is put in parentheses; inside
    parentheses and call arguments the pair stays."""
    roll = rng.random()
    if depth >= 4 or roll < 0.25:
        return rng.choice(["a", "b2", "e1", "e23", "2", "0.5", "1e-3"])
    if roll < 0.45:
        return _side(rng, depth + 1) + rng.choice(["~", "~~", " ~"])
    if roll < 0.55:
        return "-" + _side(rng, depth + 1)
    if roll < 0.65:
        return f"({_side(rng, depth + 1)}~ - {_side(rng, depth + 1)})"
    if roll < 0.75:
        return f"rev({_side(rng, depth + 1)} ~ - {_side(rng, depth + 1)})"
    left = _side(rng, depth + 1)
    op = rng.choice("+-*/^.")
    if op == "-" and left.endswith("~"):
        left = f"({left})"
    return f"{left} {op} {_side(rng, depth + 1)}"


def test_assert_reverse_before_a_minus_separates_unless_parenthesised():
    # "a~ - b ~ c" splits after "a", so its right side "- b~ c" is malformed
    with pytest.raises(ParseError):
        parse_statement("assert a~ - b ~ c")
    stmt = parse_statement("assert (a~ - b) ~ c")
    assert stmt == AssertStmt(parse_expression("a~ - b"), Var("c"), None)


def test_assert_separator_is_the_first_tilde_that_starts_the_right_side():
    rng = random.Random(7)
    for _ in range(500):
        left, right = _side(rng), _side(rng)
        stmt = parse_statement(f"assert {left} ~ {right}")
        assert stmt == AssertStmt(parse_expression(left), parse_expression(right), None), (
            left,
            right,
        )


def test_parse_expression_statement():
    assert parse_statement("e1*e2") == ExprStmt(BinOp("*", BladeRef("e1"), BladeRef("e2")))


def test_parse_empty_statement_rejected():
    with pytest.raises(ParseError):
        parse_statement("   # only a comment")


# -- signature parsing ---------------------------------------------------


def test_parse_signature():
    assert parse_signature("3,0") == G3
    assert parse_signature("1,1") == Signature(1, 1)
    assert parse_signature(" 4 , 2 ") == Signature(4, 2)


def test_parse_signature_rejects_bad_input():
    for text in ["3", "a,b", "3,0,1", "-1,2", "0,0", "6,4"]:
        with pytest.raises(ValueError):
            parse_signature(text)


def test_parse_tolerance():
    assert parse_tolerance("1e-3") == 1e-3
    assert parse_tolerance(" 10 ") == 10.0


@pytest.mark.parametrize("text", ["banana", "", "0", "-1e-12", "inf", "nan", "1e+400"])
def test_parse_tolerance_rejects_all_but_positive_finite_numbers(text):
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        parse_tolerance(text)


# -- evaluation ----------------------------------------------------------


def test_eval_basis_square_chain():
    assert run("e1*e2*e1*e2") == Multivector.scalar(G3, -1.0)


def test_eval_rotation_example():
    value = run("rot(e1, exp(-0.5*3.141592653589793/2*e12))")
    assert value.is_close(E2, abs_tol=1e-12)


def test_eval_orthogonal_probability():
    assert run("probp(e3, e1)") == Multivector.scalar(G3, 0.5)


def test_eval_operators_match_kernel():
    env = Environment()
    a = 0.3 * E1 - 1.2 * E2 + 0.7 * E3
    b = 1.1 * E1 + 0.4 * E2 - 0.5 * E3
    env.bindings["a"] = a
    env.bindings["b"] = b
    assert run("a + b", env) == a + b
    assert run("a - b", env) == a - b
    assert run("a * b", env) == a * b
    assert run("a / b", env) == a / b
    assert run("a ^ b", env) == (a ^ b)
    assert run("a . b", env) == (a | b)
    assert run("-a", env) == -a
    assert run("a~", env) == ~a


def test_eval_registry_functions():
    env = Environment()
    env.bindings["a"] = 0.3 * E1 - 1.2 * E2 + 0.7 * E3
    cases = {
        "rev(e12)": -Multivector.blade(G3, 0b011),
        "inv(2*e1)": 0.5 * E1,
        "grade(1 + 2*e1 + 3*e12, 1)": 2.0 * E1,
        "norm(3*e1 + 4*e2)": Multivector.scalar(G3, 5.0),
        "dual(e3)": Multivector.blade(G3, 0b011),
        "cross(e1, e2)": E3,
        "proj(a, e1)": 0.3 * E1,
        "rej(a, e1)": -1.2 * E2 + 0.7 * E3,
        "exp(0*e12)": Multivector.scalar(G3, 1.0),
        "probm(e3, e1)": Multivector.scalar(G3, 0.5),
        "dist(0*e1, e3, e1 + e2)": Multivector.scalar(G3, math.sqrt(2.0)),
    }
    for text, expected in cases.items():
        assert run(text, env).is_close(expected, abs_tol=1e-14), text


def test_eval_transform_functions():
    u = (E1 + E2) / math.sqrt(2.0)
    env = Environment()
    assert run("rot(e1, rotor(e1, (e1 + e2)/norm(e1 + e2)))", env).is_close(
        u, abs_tol=1e-12
    )
    assert run("reflect(e3, e12)", env).is_close(-E3, abs_tol=1e-14)
    assert run("reflectn(e3, e3)", env).is_close(-E3, abs_tol=1e-14)
    # two orthogonal reflections compose into a half turn of the e12 plane
    assert run("rot(e1, rotor2(e1, e2))", env).is_close(-E1, abs_tol=1e-12)
    assert run("stereo(e1)", env).is_close(E1, abs_tol=1e-12)
    assert run("unstereo(0*e1)", env).is_close(E3, abs_tol=1e-12)


@pytest.mark.parametrize(
    "text, kernel",
    [
        ("dual(e1)", "dual"),
        ("cross(e1, e2)", "cross"),
        ("proj(e1, e1)", "project"),
        ("rej(e1, e2)", "reject"),
        ("reflect(e3, e12)", "reflect_in_plane"),
        ("reflectn(e3, e3)", "reflect_normal"),
        ("rot(e1, 1)", "rotate"),
        ("rotor(e1, e2)", "rotor_between"),
        ("rotor2(e1, e2)", "rotor_from_reflections"),
        ("stereo(e1)", "stereo_project"),
        ("unstereo(0*e1)", "stereo_unproject"),
        ("probp(e3, e1)", "prob_plus"),
        ("probm(e3, e1)", "prob_minus"),
        ("dist(0*e1, e3, e1 + e2)", "distance_to_line"),
    ],
)
def test_registry_calls_the_kernel_by_module_name(monkeypatch, text, kernel):
    # rebinding the module name must reach the call, as a tracer does
    calls = []
    original = getattr(gacalc.expr, kernel)
    monkeypatch.setattr(gacalc.expr, kernel, lambda *args: calls.append(args) or original(*args))
    run(text)
    assert len(calls) == 1


def test_readme_lists_the_function_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Functions (fixed registry):", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([^`]+)`", paragraph) == [f.doc for f in FUNCTIONS.values()]
    for name, function in FUNCTIONS.items():
        assert function.doc.startswith(f"{name}(")


def test_eval_grade_selector_must_be_integer():
    with pytest.raises(EvalError):
        run("grade(e1, 0.5)")
    with pytest.raises(EvalError):
        run("grade(e1, e2)")


@pytest.mark.parametrize("selector", ["1e+300*1e+300", "1e+300*1e+300 - 1e+300*1e+300"])
def test_eval_grade_selector_must_be_finite(selector):
    done = run_line(f"grade(e1, {selector})", Environment())
    assert done.error == "grade() selector must be a finite integer"


def test_eval_unbound_variable():
    with pytest.raises(EvalError) as err:
        run("nope + 1")
    assert "nope" in str(err.value)


def test_eval_blade_outside_signature():
    env = Environment(sig=G2)
    with pytest.raises(EvalError):
        run("e3", env)
    with pytest.raises(EvalError):
        run("e123", env)


def test_blade_lookup_follows_the_environment_signature():
    node = BladeRef("e4")
    assert evaluate(node, Environment(sig=Signature(4, 1))) == Multivector.blade(
        Signature(4, 1), 0b1000
    )
    with pytest.raises(EvalError, match="does not fit"):
        evaluate(node, Environment(sig=G3))


def test_literals_match_the_checked_constructor_bit_for_bit():
    def bits(value):
        return value.sig, {b: c.hex() for b, c in value.terms.items()}

    sig = Signature(MAX_LANGUAGE_DIM, 0)
    env = Environment(sig=sig)
    for mask in range(1, 1 << sig.dim):
        name = "e" + "".join(str(i + 1) for i in range(sig.dim) if mask >> i & 1)
        assert bits(evaluate(BladeRef(name), env)) == bits(Multivector.blade(sig, mask))
    for lexeme in ["0", "0.0", "0e+5", "1", "2.5", "1e-320", "1e-400", "1.7976931348623157e+308"]:
        value = evaluate(parse_expression(lexeme), env)
        assert bits(value) == bits(Multivector.scalar(sig, float(lexeme)))
        assert 0.0 not in value.terms.values()
    # a literal that overflows is rejected at its span, not read as inf
    with pytest.raises(ParseError) as err:
        parse_expression("1e+400")
    assert err.value.span == (0, 6)


LITERAL_COEFFS = [0.0, -0.0, 5e-324, -2.5, 1e308, math.inf, math.nan]


def _terms_in_order(value):
    return [(bits, struct.pack("<d", c)) for bits, c in value.terms.items()]


@pytest.mark.parametrize("dim", range(1, MAX_LANGUAGE_DIM + 1))
def test_literal_terms_match_the_product_bit_for_bit(dim):
    env = Environment(sig=Signature(dim - dim // 2, dim // 2))
    for name, bits in gacalc.expr._BLADES.items():
        if bits >> dim:
            continue
        blade = evaluate(BladeRef(name), env)
        for c in LITERAL_COEFFS:
            num = Num(c)
            product = evaluate(num, env) * blade
            flipped = blade * evaluate(num, env)
            term = evaluate(BinOp("*", num, BladeRef(name)), env)
            assert _terms_in_order(term) == _terms_in_order(product)
            assert _terms_in_order(evaluate(BinOp("*", BladeRef(name), num), env)) == (
                _terms_in_order(flipped)
            )
            assert term.sig is env.sig


def test_parsed_literal_terms_print_as_written():
    for text in ["2.5*e13", "e13*2.5", "0*e1", "5e-324*e123", "1e-400*e2"]:
        left, right = text.split("*")
        assert str(run(text)) == str(run(left) * run(right))
    assert str(run("2.5*e13 - e2*3")) == "-3*e2 + 2.5*e13"


@pytest.mark.parametrize("text", ["2*e4", "e4*2", "e4", "0*e4"])
def test_literal_term_outside_the_signature_names_its_blade(text):
    with pytest.raises(EvalError) as err:
        run(text)
    assert str(err.value) == "blade 'e4' does not fit in G(3,0)"


@pytest.mark.parametrize("name", ["e21", "e11", "e0", "ex", "e", "e[1,10]", "x", ""])
def test_a_hand_built_blade_outside_the_table_is_an_eval_error(name):
    for node in (BladeRef(name), BinOp("*", Num(2.0), BladeRef(name)),
                 BinOp("*", BladeRef(name), Num(2.0))):
        with pytest.raises(EvalError) as err:
            evaluate(node, Environment())
        assert str(err.value) == f"unknown blade '{name}'"


@pytest.mark.parametrize(
    "line, span",
    [("1e+400*e1", (0, 6)), ("e1 + 2*1E+309", (7, 13)), ("let a = -1e+999", (9, 15))],
)
def test_an_overflowing_literal_is_a_parse_error_at_its_span(line, span):
    lexeme = line[span[0]:span[1]]
    done = run_line(line, Environment())
    assert done.statement is None
    assert done.error == f"number {lexeme} overflows to inf (at {span[0]}..{span[1]})"


def test_eval_division_errors_propagate():
    with pytest.raises(SingularError):
        run("1/(e1 + e1*e2)")
    with pytest.raises(SingularError):
        run("e1/0")


def test_environment_signature_switch_clears_bindings():
    env = Environment()
    execute_statement(parse_statement("let a = e1"), env)
    assert "a" in env.bindings
    env.set_signature(Signature(1, 1))
    assert env.bindings == {}
    assert run("e2*e2", env) == Multivector.scalar(Signature(1, 1), -1.0)


def test_execute_assert_statement():
    env = Environment()
    outcome = execute_statement(parse_statement("assert e1*e1 ~ 1"), env)
    assert isinstance(outcome, AssertOutcome)
    assert outcome.passed
    outcome = execute_statement(parse_statement("assert e1 ~ e2 0.1"), env)
    assert isinstance(outcome, AssertOutcome)
    assert not outcome.passed
    assert outcome.gap == pytest.approx(math.sqrt(2.0))
    assert outcome.tol == 0.1


@pytest.mark.parametrize(
    "line, message",
    [
        # 1e+300*1e+300 overflows in evaluation; a 1e+400 literal is a ParseError
        (
            "assert 1e+300*1e+300*e1 ~ 1e+300*1e+300*e1",
            "assert: the left side is not finite (inf*e1)",
        ),
        ("assert 1e+300*1e+300*e1 ~ e1 1e+300", "assert: the left side is not finite (inf*e1)"),
        (
            "assert e1 ~ 1e+300*1e+300*e1 - 1e+300*1e+300*e1",
            "assert: the right side is not finite (nan*e1)",
        ),
        (
            "assert e1 + 1e+300*1e+300*e2 ~ e1",
            "assert: the left side is not finite (1*e1 + inf*e2)",
        ),
    ],
)
def test_assert_with_a_non_finite_side_is_an_eval_error(line, message):
    env = Environment()
    done = run_line(line, env)
    assert isinstance(done.statement, AssertStmt)
    assert done.value is None
    assert done.error == message
    with pytest.raises(EvalError):
        execute_statement(parse_statement(line), env)


@pytest.mark.parametrize(
    "line, value",
    [
        ("norm(1e+200*e1)", 1e200),
        ("norm(3e+200*e1 + 4e+200*e2)", 5e200),
        ("norm(1e-200*e1)", 1e-200),
        ("inv(1e-200*e1)", 1e200),
        ("inv(1e+200*e1)", 1e-200),
    ],
)
def test_norm_and_inv_survive_squares_that_overflow_or_underflow(line, value):
    done = run_line(line, Environment())
    assert done.error is None
    ((bits, coeff),) = done.value.terms.items()
    assert bits == (0 if line.startswith("norm") else 0b001)
    assert coeff == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize(
    "line, bits, value",
    [
        ("proj(e1, 1e+200*e1)", 0b001, 1.0),
        ("rej(e2, 1e+200*e1)", 0b010, 1.0),
        ("proj(3e+200*e1, 2e+200*e1)", 0b001, 3e200),
        ("proj(e1, 1e-200*e1)", 0b001, 1.0),
        ("rej(e2, 1e-200*e1)", 0b010, 1.0),
        ("dist(e1, 1e-200*e2, e3)", 0, math.sqrt(2)),
        ("dist(1e+200*e1, e2, 0*e1)", 0, 1e200),
        ("dist(1e-200*e1, e2, 0*e1)", 0, 1e-200),
        ("dist(0*e1, e1, 3e+200*e2 + 1e+200*e1)", 0, 3e200),
    ],
)
def test_directions_whose_square_overflows_or_underflows(line, bits, value):
    done = run_line(line, Environment())
    assert done.error is None
    ((got_bits, coeff),) = done.value.terms.items()
    assert got_bits == bits
    assert coeff == pytest.approx(value, rel=1e-15, abs=0.0)


def test_assert_between_huge_finite_sides_reports_a_finite_gap():
    done = run_line("assert 1e+300*e1 ~ -1e+300*e1", Environment())
    assert done.failure == (
        "assert failed: |lhs - rhs| = 2.0000000000000001e+300"
        " exceeds tolerance 9.9999999999999998e-13"
    )
    assert run_line("assert 1e+300*e1 ~ 1e+300*e1", Environment()).failure is None


# differences that are null in their signature: the metric norm reads 0
NULL_ASSERTS = [
    (Signature(4, 1), "assert e4 + e5 ~ 0", math.sqrt(2.0)),
    (Signature(1, 1), "assert 1 ~ 1 + 1e+6*e1 + 1e+6*e2", math.sqrt(2e12)),
    (Signature(4, 1), "assert e12 ~ e12 + e14 + e15", math.sqrt(2.0)),
]


@pytest.mark.parametrize("sig, line, gap", NULL_ASSERTS)
def test_a_null_difference_fails_its_assert(sig, line, gap):
    done = run_line(line, Environment(sig))
    assert done.value.gap == gap
    assert done.failure == (
        f"assert failed: |lhs - rhs| = {gap:.17g} exceeds tolerance 9.9999999999999998e-13"
    )


# every signature up to dimension 6
SIGNATURES_TO_6 = [Signature(p, dim - p) for dim in range(1, 7) for p in range(dim + 1)]


@pytest.mark.parametrize("sig", SIGNATURES_TO_6, ids=str)
def test_a_nonzero_difference_fails_its_assert_in_every_signature(sig):
    """A value with a nonzero coefficient has a nonzero coefficient norm,
    also when it is null, so ``assert x ~ 0 0`` fails, and so does
    ``assert x ~ 0`` once a coefficient exceeds the tolerance."""
    rng = random.Random(str(sig))
    env = Environment(sig)
    euclid = Signature(sig.dim, 0)
    nulls = 0
    for _ in range(40):
        blades = rng.sample(range(1 << sig.dim), min(rng.randint(1, 4), 1 << sig.dim))
        c = rng.choice([5e-324, 1e-200, 1e-13, 1.0, 1e200, 1e308])
        # equal magnitudes, so that the metric squares of a mixed signature
        # often cancel
        x = Multivector(sig, {b: rng.choice((c, -c)) for b in blades})
        nulls += x.norm() == 0.0
        assert coefficient_norm(x) > 0.0
        assert coefficient_norm(x) == Multivector(euclid, x.terms).norm()
        env.bindings["x"] = x
        assert run_line("assert x ~ 0 0", env).failure.startswith("assert failed:")
        assert run_line("assert 0 ~ x 0", env).failure.startswith("assert failed:")
        if c > env.tol:
            assert run_line("assert x ~ 0", env).failure.startswith("assert failed:")
            # also where the coefficient norm of x or of x - (-x) overflows
            assert not x.is_close(0)
            assert not x.is_close(-x)
        assert x.is_close(x)
    # the draws reach null values wherever a basis vector squares to -1
    assert nulls > 0 if sig.q else nulls == 0


def test_execute_let_returns_none():
    env = Environment()
    assert execute_statement(parse_statement("let a = 5"), env) is None
    assert env.bindings["a"] == Multivector.scalar(G3, 5.0)


# -- round trip and determinism -------------------------------------------


@settings(max_examples=300)
@given(multivectors(G3, wild_coeff))
def test_print_parse_round_trip_is_exact(value):
    assert run(str(value)) == value


@given(multivectors(Signature(1, 1)))
def test_round_trip_other_signature(value):
    env = Environment(sig=Signature(1, 1))
    assert run(str(value), env) == value


def test_round_trip_of_a_dense_value_at_the_language_dimension():
    # 512 printed terms nest one level each, so the depth limit must hold them
    sig = Signature(MAX_LANGUAGE_DIM, 0)
    rng = random.Random(9)
    value = Multivector(sig, {bits: rng.uniform(-1, 1) for bits in range(1 << sig.dim)})
    assert run(str(value), Environment(sig=sig)) == value


def test_output_is_deterministic():
    text = "0.1*e1 - 7e-3*e23 + 2*e123"
    first = str(run(text))
    second = str(run(text))
    assert first == second
    assert str(run(first)) == first


# -- REPL ----------------------------------------------------------------


def repl(lines: str, env: Environment | None = None) -> tuple[int, str]:
    out = io.StringIO()
    code = repl_loop(env or Environment(), io.StringIO(lines), out)
    return code, out.getvalue()


def test_repl_binding_and_dot():
    code, out = repl("let a = e1 + 2*e2\na.a\n")
    assert code == 0
    assert out == "5\n"


def test_repl_signature_switch():
    code, out = repl(":sig 1,1\ne2*e2\n")
    assert code == 0
    assert out == "-1\n"


def test_repl_parse_error_continues():
    code, out = repl("(\ne1*e1\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("error:")
    assert lines[1] == "1"


def test_repl_quit_stops_reading():
    code, out = repl(":quit\ne1\n")
    assert code == 0
    assert out == ""


def test_repl_assert_reports():
    code, out = repl("assert e1*e1 ~ 1\nassert e1 ~ e2 0.5\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok"
    assert lines[1].startswith("assert failed:")


def test_repl_tolerance_command():
    code, out = repl(":tol 10\nassert e1 ~ e2\n")
    assert out == "ok\n"
    code, out = repl(":tol -1\n")
    assert out.startswith("error:")


def test_repl_reports_one_line_per_bad_tolerance_command():
    code, out = repl(":tol banana\n:tol 0\n:tol inf\ne1\n")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4
    assert all(line.startswith("error: tolerance must be a positive") for line in lines[:3])
    assert lines[3] == "1*e1"


def test_repl_goes_on_after_a_non_finite_assert_tolerance():
    code, out = repl("assert e1 ~ e2 1e+400\ne1\n")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("error: assert tolerance 1e+400 is not finite")
    assert lines[1] == "1*e1"


def test_repl_goes_on_after_an_assert_with_a_non_finite_side():
    code, out = repl("assert 1e+300*1e+300*e1 ~ 1e+300*1e+300*e1\nassert e1 ~ e1\ne2\n")
    assert code == 0
    assert out.splitlines() == [
        "error: assert: the left side is not finite (inf*e1)",
        "ok",
        "1*e2",
    ]


def test_repl_skips_comments_and_blank_lines():
    code, out = repl("\n   \n# a comment\ne1 # trailing\n")
    assert out == "1*e1\n"


def test_repl_reports_unknown_command_and_bad_signature():
    code, out = repl(":frob\n:sig 99,0\n:sig banana\n")
    assert code == 0
    assert out.count("error:") == 3


def test_repl_eval_error_continues():
    code, out = repl("unbound_thing\n1 + 1\n")
    lines = out.splitlines()
    assert lines[0].startswith("error:")
    assert lines[1] == "2"


def test_repl_survives_deep_nesting():
    deep = "".join(f"{text(5000)}\n" for text, _, _ in NESTINGS.values())
    code, out = repl(deep + "e1\n")
    lines = out.splitlines()
    assert code == 0 and len(lines) == len(NESTINGS) + 1
    assert all(line.startswith("error: ") for line in lines[:-1])
    assert lines[-1] == "1*e1"

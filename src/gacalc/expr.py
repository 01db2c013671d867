"""Expression language over the algebra: lexer, parser, function registry,
evaluator, statement runner and REPL.

Statements come in three forms:

    let name = expr          bind a variable
    assert expr ~ expr tol   compare two expressions (tol optional)
    expr                     evaluate and show the result

Precedence, tightest first: postfix ``~`` (reverse) and function calls,
unary ``-``, then ``^`` and ``.`` on one tier (left-associative), then
``*`` and ``/``, then ``+`` and ``-``.  Parentheses override.

Blade names are one table, ``_BLADES``: the 511 canonical names of the
language (indices 1-9, strictly ascending, as ``algebra.blade_name``
writes them) and their bitmasks. The lexer, the parser and the evaluator
all read it, so a name is a blade exactly when it is in the table. A
literal term ``c*eI`` or ``eI*c`` evaluates straight to its one term,
which is what the product of the two would give, bit for bit.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TextIO, Union

from .algebra import (
    DEFAULT_TOL,
    G3,
    AlgebraError,
    Multivector,
    Signature,
    blade_name,
    coefficient_norm,
    cross,
    dual,
)
from .geometry import Line, distance_to_line
from .stereo import prob_minus, prob_plus, stereo_project, stereo_unproject
from .transforms import (
    project,
    reflect_in_plane,
    reflect_normal,
    reject,
    rotate,
    rotor_between,
    rotor_from_reflections,
)

__all__ = [
    "AssertOutcome",
    "AssertStmt",
    "BinOp",
    "BladeRef",
    "Call",
    "Environment",
    "EvalError",
    "ExprStmt",
    "FUNCTIONS",
    "Function",
    "GaSyntaxError",
    "Let",
    "LexError",
    "LineResult",
    "MAX_DEPTH",
    "Neg",
    "Num",
    "ParseError",
    "Rev",
    "TYPED_ERRORS",
    "Token",
    "Var",
    "evaluate",
    "execute_statement",
    "parse_expression",
    "parse_signature",
    "parse_statement",
    "parse_tolerance",
    "repl_loop",
    "run_line",
    "tokenize",
]


class GaSyntaxError(ValueError):
    """Input rejected before evaluation; span gives [start, end) offsets."""

    def __init__(self, message: str, start: int, end: int) -> None:
        super().__init__(f"{message} (at {start}..{end})")
        self.span = (start, end)


class LexError(GaSyntaxError):
    pass


class ParseError(GaSyntaxError):
    pass


class EvalError(ValueError):
    """Expression is well formed but cannot be evaluated."""


# -- lexer ---------------------------------------------------------------


@dataclass(slots=True)
class Token:
    kind: str  # number | ident | operator | paren | comma | assign, or the parser's end
    lexeme: str
    start: int
    end: int


# A decimal point counts only when a digit follows, so "2." is the number 2
# and then a contraction operator. An exponent needs an explicit sign, so
# "1e-5" is one number but "1e5" is the number 1 followed by the blade e5.
# [0-9] is ASCII only; str.isdigit would let other scripts' digits through.
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-][0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BLADE_RE = re.compile(r"e[0-9]+")
# the kind of each one-character token
_SINGLE = {
    **dict.fromkeys("+-*/^.~", "operator"),
    **dict.fromkeys("()", "paren"),
    ",": "comma",
    "=": "assign",
}
_KEYWORDS = frozenset({"let", "assert"})

# blade names use one digit per basis vector, which caps the dimension
MAX_LANGUAGE_DIM = 9
# canonical blade name -> bitmask: the one table of the language's blades
_BLADES = {blade_name(bits): bits for bits in range(1, 1 << MAX_LANGUAGE_DIM)}


def _check_blade_ident(lexeme: str, start: int, end: int) -> None:
    digits = lexeme[1:]
    if "0" in digits:
        raise LexError(f"blade index 0 in '{lexeme}'; indices run from 1", start, end)
    if any(a >= b for a, b in zip(digits, digits[1:])):
        raise LexError(
            f"non-canonical blade '{lexeme}'; indices must strictly ascend", start, end
        )


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens; ``#`` starts a comment running to the end."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            break
        start = i
        if "0" <= c <= "9":
            i = _NUMBER_RE.match(text, start).end()
            tokens.append(Token("number", text[start:i], start, i))
        elif c == "_" or "a" <= c <= "z" or "A" <= c <= "Z":
            i = _IDENT_RE.match(text, start).end()
            lexeme = text[start:i]
            # a blade-shaped name that is not in the table is a bad blade
            if c == "e" and lexeme not in _BLADES and _BLADE_RE.fullmatch(lexeme):
                _check_blade_ident(lexeme, start, i)
            tokens.append(Token("ident", lexeme, start, i))
        else:
            kind = _SINGLE.get(c)
            if kind is None:
                raise LexError(f"unknown character {c!r}", i, i + 1)
            i += 1
            tokens.append(Token(kind, c, start, i))
    return tokens


# -- syntax tree ---------------------------------------------------------

# Tokens and nodes are never changed once built. They are not frozen,
# because a frozen dataclass costs about three times as much to build.

@dataclass(slots=True)
class Num:
    value: float


@dataclass(slots=True)
class BladeRef:
    name: str


@dataclass(slots=True)
class Var:
    name: str


@dataclass(slots=True)
class Neg:
    operand: "AstNode"


@dataclass(slots=True)
class Rev:
    operand: "AstNode"


@dataclass(slots=True)
class BinOp:
    op: str  # one of + - * / ^ .
    left: "AstNode"
    right: "AstNode"


@dataclass(slots=True)
class Call:
    name: str
    args: tuple["AstNode", ...]


AstNode = Union[Num, BladeRef, Var, Neg, Rev, BinOp, Call]


@dataclass(slots=True)
class Let:
    name: str
    expr: AstNode


@dataclass(slots=True)
class AssertStmt:
    left: AstNode
    right: AstNode
    tol: float | None  # None means the environment default


@dataclass(slots=True)
class ExprStmt:
    expr: AstNode


Statement = Union[Let, AssertStmt, ExprStmt]


class Function(NamedTuple):
    """A calculator function: its signature as documented, its arity, and
    its implementation, called with the environment and the evaluated
    arguments."""

    doc: str
    arity: int
    apply: Callable[..., Multivector]


def _grade_selector(arg: Multivector) -> int:
    if arg.grades() not in ((), (0,)):
        raise EvalError("grade() selector must be a number")
    k = arg.scalar_part()
    if not math.isfinite(k):
        raise EvalError("grade() selector must be a finite integer")
    if k != int(k):
        raise EvalError("grade() selector must be an integer")
    return int(k)


def _registry(*entries: tuple[str, Callable[..., Multivector]]) -> dict[str, Function]:
    # a doc reads "name(arg, ...)", so it gives both the name and the arity
    return {
        doc.partition("(")[0]: Function(doc, doc.count(",") + 1, apply) for doc, apply in entries
    }


# The fixed registry, in README order; there are no user-defined functions.
# Each implementation looks up the kernel function by its module-level name
# when it runs, so a tracer that rebinds those names sees every call.
FUNCTIONS = _registry(
    ("exp(B)", lambda env, B: B.exp(env.tol)),
    ("rev(x)", lambda env, x: ~x),
    ("inv(x)", lambda env, x: x.inverse(env.tol)),
    ("grade(x, k)", lambda env, x, k: x.grade(_grade_selector(k))),
    ("norm(x)", lambda env, x: Multivector.scalar(env.sig, x.norm())),
    ("dual(x)", lambda env, x: dual(x)),
    ("cross(a, b)", lambda env, a, b: cross(a, b)),
    ("proj(x, a)", lambda env, x, a: project(x, a)),
    ("rej(x, a)", lambda env, x, a: reject(x, a)),
    ("reflect(x, B)", lambda env, x, B: reflect_in_plane(x, B, env.tol)),
    ("reflectn(x, n)", lambda env, x, n: reflect_normal(x, n, env.tol)),
    ("rot(x, R)", lambda env, x, R: rotate(x, R, env.tol)),
    ("rotor(a, b)", lambda env, a, b: rotor_between(a, b, env.tol)),
    ("rotor2(n1, n2)", lambda env, n1, n2: rotor_from_reflections(n1, n2, env.tol)),
    ("stereo(a)", lambda env, a: stereo_project(a, env.tol)),
    ("unstereo(x)", lambda env, x: stereo_unproject(x, env.tol)),
    ("probp(a, b)", lambda env, a, b: Multivector.scalar(env.sig, prob_plus(a, b, env.tol))),
    ("probm(a, b)", lambda env, a, b: Multivector.scalar(env.sig, prob_minus(a, b, env.tol))),
    (
        "dist(x0, a, p)",
        lambda env, x0, a, p: Multivector.scalar(env.sig, distance_to_line(Line(x0, a), p)),
    ),
)


# -- parser --------------------------------------------------------------


# How deep an expression may nest. Each parenthesis pair (a call's argument
# list too), call, unary minus, postfix ~ and binary operator is one level,
# so `a + b + c` is two levels and `rev(x)` is two. 600 holds the printed
# form of every value the language can name (2**9 terms in dimension 9),
# while parsing and evaluating stay inside Python's default limit of 1000
# frames: each spends at most one frame per level.
MAX_DEPTH = 600

# binary operators: precedence tier (loosest first) and implementation
_BINARY = {
    "+": (1, operator.add),
    "-": (1, operator.sub),
    "*": (2, operator.mul),
    "/": (2, operator.truediv),
    "^": (3, operator.xor),
    ".": (3, operator.or_),
}


class _Parser:
    """One cursor over a line's tokens, which ends in an ``end`` token at
    the end-of-input offset, so ``peek`` always has a token to show."""

    def __init__(self, tokens: list[Token]) -> None:
        at = tokens[-1].end if tokens else 0
        self._tokens = [*tokens, Token("end", "", at, at)]
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def expect(self, lexemes: tuple[str, ...], expected: str) -> Token:
        tok = self.advance()
        if tok.lexeme not in lexemes:
            if tok.kind == "end":
                raise _unexpected(tok, expected)
            raise ParseError(f"expected {expected}, found {tok.lexeme!r}", tok.start, tok.end)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.lexeme!r}", tok.start, tok.end)

    def _too_deep(self, tok: Token) -> None:
        raise ParseError(f"expression nesting exceeds {MAX_DEPTH} levels", tok.start, tok.end)

    def _at_separator(self) -> bool:
        # the '~' under the cursor separates an assert's two sides when the
        # next token can start an expression; otherwise it is a reverse
        following = self._tokens[self._pos + 1]
        return following.kind in ("number", "ident") or following.lexeme in ("(", "-")

    def statement(self) -> Statement:
        head = self.peek()
        if head.lexeme == "let":
            self.advance()
            name_tok = self.advance()
            if name_tok.kind != "ident":
                raise ParseError("expected a name after 'let'", head.start, head.end)
            name = name_tok.lexeme
            if name in _KEYWORDS:
                raise ParseError(f"'{name}' is a reserved word", name_tok.start, name_tok.end)
            if name in _BLADES:
                raise ParseError(
                    f"cannot bind basis blade '{name}'", name_tok.start, name_tok.end
                )
            if self.advance().kind != "assign":
                raise ParseError("expected '=' after the name", name_tok.start, name_tok.end)
            return Let(name, self.expression())
        if head.lexeme == "assert":
            self.advance()
            left = self.parse_expr(sep=True)[0]
            self.expect(("~",), "'~' between two expressions")
            right = self.parse_expr()[0]
            tol: float | None = None
            tok = self.peek()
            if tok.kind == "number":
                self.advance()
                tol = float(tok.lexeme)
                if not math.isfinite(tol):
                    raise ParseError(
                        f"assert tolerance {tok.lexeme} is not finite", tok.start, tok.end
                    )
            self.expect_end()
            return AssertStmt(left, right, tol)
        return ExprStmt(self.expression())

    def expression(self) -> AstNode:
        node = self.parse_expr()[0]
        self.expect_end()
        return node

    def parse_expr(self, depth: int = 0, tier: int = 1, sep: bool = False) -> tuple[AstNode, int]:
        """Parse an operand and then every binary operator of ``tier`` or
        tighter (precedence climbing). ``depth`` counts the levels above
        the expression; it is returned with its height, the levels below
        its root. Each nested level costs one Python frame. With ``sep``
        set, the expression is an assert's left side and ends before the
        separating '~'; parentheses and call arguments do not pass it on."""
        tok = self.peek()
        if depth > MAX_DEPTH:
            self._too_deep(tok)
        # "-", "(" and "~" each name one token kind, so a lexeme is enough
        if tok.lexeme == "-":
            self.advance()
            # tier 4: no binary operator binds tighter than unary minus
            operand, height = self.parse_expr(depth + 1, 4, sep)
            node, height = Neg(operand), height + 1
        elif tok.lexeme == "(":
            self.advance()
            node, height = self.parse_expr(depth + 1)
            height += 1
            self.expect((")",), "')'")
        else:
            node, height = self._parse_primary(depth)
        while (tok := self.peek()).lexeme == "~" and not (sep and self._at_separator()):
            self.advance()
            node, height = Rev(node), height + 1
            if depth + height > MAX_DEPTH:
                self._too_deep(tok)
        while _BINARY.get((tok := self.peek()).lexeme, (0,))[0] >= tier:
            self.advance()
            right, right_height = self.parse_expr(depth + 1, _BINARY[tok.lexeme][0] + 1, sep)
            node, height = BinOp(tok.lexeme, node, right), 1 + max(height, right_height)
            if depth + height > MAX_DEPTH:
                self._too_deep(tok)
        return node, height

    def _parse_primary(self, depth: int) -> tuple[AstNode, int]:
        """A number, a name, or a call, whose arguments sit two levels down
        (the call and its parentheses)."""
        tok = self.advance()
        if tok.kind == "number":
            value = float(tok.lexeme)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.lexeme} overflows to inf", tok.start, tok.end)
            return Num(value), 0
        if tok.kind != "ident":
            raise _unexpected(tok, "an expression")
        name = tok.lexeme
        if name in _KEYWORDS:
            raise ParseError(f"reserved word '{name}' cannot appear here", tok.start, tok.end)
        if self.peek().lexeme != "(":
            return (BladeRef(name) if name in _BLADES else Var(name)), 0
        function = FUNCTIONS.get(name)
        if function is None:
            raise ParseError(f"unknown function '{name}'", tok.start, tok.end)
        self.advance()  # the opening paren
        args: list[AstNode] = []
        height = 0
        if self.peek().lexeme == ")":
            self.advance()
        else:
            while True:
                arg, arg_height = self.parse_expr(depth + 2)
                args.append(arg)
                height = max(height, arg_height)
                if self.expect((",", ")"), "',' or ')'").lexeme == ")":
                    break
        if len(args) != function.arity:
            raise ParseError(
                f"'{name}' takes {function.arity} argument(s), got {len(args)}",
                tok.start,
                tok.end,
            )
        return Call(name, tuple(args)), height + 2


def _unexpected(tok: Token, expected: str) -> ParseError:
    if tok.kind == "end":
        return ParseError(f"unexpected end of input; expected {expected}", tok.start, tok.end)
    return ParseError(f"unexpected {tok.lexeme!r}", tok.start, tok.end)


def parse_expression(text: str) -> AstNode:
    return _Parser(tokenize(text)).expression()


def parse_statement(text: str) -> Statement:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty statement", 0, len(text))
    return _Parser(tokens).statement()


# -- evaluation ----------------------------------------------------------


def parse_signature(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"signature must look like 'p,q', got {text!r}")
    try:
        p, q = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"signature must be two integers 'p,q', got {text!r}") from None
    try:
        sig = Signature(p, q)
    except AlgebraError as exc:
        raise ValueError(str(exc)) from None
    if sig.dim > MAX_LANGUAGE_DIM:
        raise ValueError(
            f"dimension {sig.dim} exceeds the language limit {MAX_LANGUAGE_DIM}"
        )
    return sig


def parse_tolerance(text: str) -> float:
    """A tolerance as ``GA_TOL`` and ``:tol`` give it: a positive finite
    number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # rejected below, with the same message
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"tolerance must be a positive finite number, got {text!r}")
    return value


@dataclass
class Environment:
    sig: Signature = G3
    tol: float = DEFAULT_TOL
    bindings: dict[str, Multivector] = field(default_factory=dict)

    def set_signature(self, sig: Signature) -> None:
        # bound values belong to the old algebra, so drop them
        self.sig = sig
        self.bindings.clear()


def _term(name: str, coeff: float, env: Environment) -> Multivector:
    """The term coeff*name, for a blade name of the table."""
    bits = _BLADES.get(name)
    if bits is None:
        raise EvalError(f"unknown blade '{name}'")
    if bits >> env.sig.dim:
        raise EvalError(f"blade '{name}' does not fit in {env.sig}")
    return Multivector._trusted(env.sig, {bits: coeff})


def evaluate(node: AstNode, env: Environment) -> Multivector:
    # one Python frame per nesting level, which MAX_DEPTH relies on: every
    # node type is tested here, the most frequent first, and the recursion
    # goes through the module-level name, so a tracer that rebinds it sees
    # each call
    t = type(node)
    if t is BinOp:
        left, right = node.left, node.right
        if node.op == "*":
            # a literal term c*eI or eI*c is its one term: the product's
            # 0.0 + c*1.0 is c, and a zero c drops either way
            if type(left) is Num and type(right) is BladeRef:
                return _term(right.name, left.value, env)
            if type(left) is BladeRef and type(right) is Num:
                return _term(left.name, right.value, env)
        return _BINARY[node.op][1](evaluate(left, env), evaluate(right, env))
    if t is Num:
        return Multivector._trusted(env.sig, {0: node.value})
    if t is Var:
        try:
            return env.bindings[node.name]
        except KeyError:
            raise EvalError(f"unbound variable '{node.name}'") from None
    if t is BladeRef:
        return _term(node.name, 1.0, env)
    if t is Neg:
        return -evaluate(node.operand, env)
    if t is Rev:
        return ~evaluate(node.operand, env)
    function = FUNCTIONS.get(node.name)
    if function is None:
        raise EvalError(f"unknown function '{node.name}'")
    return function.apply(env, *[evaluate(arg, env) for arg in node.args])


@dataclass(frozen=True)
class AssertOutcome:
    passed: bool
    gap: float
    tol: float


def execute_statement(
    stmt: Statement, env: Environment
) -> Multivector | AssertOutcome | None:
    """Run one statement: None for let, a value for an expression,
    an AssertOutcome for assert, whose gap is the coefficient norm of the
    difference of its sides. An assert side with a coefficient that is not
    finite raises EvalError."""
    if isinstance(stmt, Let):
        env.bindings[stmt.name] = evaluate(stmt.expr, env)
        return None
    if isinstance(stmt, AssertStmt):
        left = evaluate(stmt.left, env)
        right = evaluate(stmt.right, env)
        tol = env.tol if stmt.tol is None else stmt.tol
        gap = coefficient_norm(left - right)
        if not math.isfinite(gap):
            # an inf or nan coefficient on either side makes the gap inf or
            # nan, which measures nothing; finite sides may still overflow it
            for side, value in (("left", left), ("right", right)):
                if not all(map(math.isfinite, value.terms.values())):
                    raise EvalError(f"assert: the {side} side is not finite ({value})")
        return AssertOutcome(gap <= tol, gap, tol)
    return evaluate(stmt.expr, env)


# -- statement runner --------------------------------------------------


# the errors a statement raises on bad input; any other exception is a bug
TYPED_ERRORS = (GaSyntaxError, EvalError, AlgebraError)


@dataclass(frozen=True)
class LineResult:
    """What one input line did: the statement it held (None for a blank
    line, a command or a syntax error), the value or assert outcome it gave,
    the message of a typed error or a rejected command, and whether it was
    ``:quit``."""

    statement: Statement | None = None
    value: Multivector | AssertOutcome | None = None
    error: str | None = None
    quit: bool = False

    @property
    def failure(self) -> str | None:
        """The report of a line that failed, or None if it did not."""
        if self.error is not None:
            return f"error: {self.error}"
        if isinstance(self.value, AssertOutcome) and not self.value.passed:
            return (
                f"assert failed: |lhs - rhs| = {self.value.gap:.17g}"
                f" exceeds tolerance {self.value.tol:.17g}"
            )
        return None


def _run_command(text: str, env: Environment) -> LineResult:
    parts = text.split(None, 1)
    name = parts[0]
    arg = parts[1].strip() if len(parts) > 1 else ""
    if name == ":quit":
        return LineResult(quit=True)
    if name == ":sig":
        try:
            env.set_signature(parse_signature(arg))
        except ValueError as exc:
            return LineResult(error=str(exc))
        return LineResult()
    if name == ":tol":
        try:
            env.tol = parse_tolerance(arg)
        except ValueError as exc:
            return LineResult(error=str(exc))
        return LineResult()
    return LineResult(error=f"unknown command '{name}'")


def run_line(line: str, env: Environment) -> LineResult:
    """Run one line of a session or a script: drop its ``#`` comment, then
    run a ``:`` command or a statement. Typed errors are caught and
    returned; nothing is written."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return LineResult()
    if text.startswith(":"):
        return _run_command(text, env)
    stmt = None
    try:
        stmt = parse_statement(line)  # spans count from the start of the line
        return LineResult(stmt, execute_statement(stmt, env))
    except TYPED_ERRORS as exc:
        return LineResult(stmt, error=str(exc))


def repl_loop(env: Environment, stdin: TextIO, stdout: TextIO) -> int:
    """Read statements line by line until :quit or end of input; always 0."""
    prompt = "ga> " if stdin.isatty() else ""
    while True:
        if prompt:
            stdout.write(prompt)
            stdout.flush()
        line = stdin.readline()
        if line == "":
            return 0
        done = run_line(line, env)
        if done.quit:
            return 0
        if done.failure is not None:
            stdout.write(f"{done.failure}\n")
        elif isinstance(done.value, AssertOutcome):
            stdout.write("ok\n")
        elif done.value is not None:
            stdout.write(f"{done.value}\n")

"""Command line front end: ``ga eval``, ``ga repl``, ``ga table``, ``ga run``.

Exit codes: 0 success, 1 evaluation or assert failure, 2 usage or parse error.
The environment variable GA_TOL overrides the default tolerance 1e-12.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TextIO

from .algebra import (
    DEFAULT_TOL,
    AlgebraError,
    Multivector,
    Signature,
    blade_grade,
    blade_name,
    canonical_blades,
    cayley_table,
)
from .expr import (
    TYPED_ERRORS,
    AssertStmt,
    Environment,
    GaSyntaxError,
    evaluate,
    parse_expression,
    parse_signature,
    parse_tolerance,
    repl_loop,
    run_line,
)

__all__ = ["emit_cayley", "main", "multivector_json", "run_script"]


def multivector_json(value: Multivector) -> dict:
    """JSON-ready form: {"signature": [p, q], "terms": {blade name: coeff}}."""
    ordered = sorted(value.terms.items(), key=lambda kv: (blade_grade(kv[0]), kv[0]))
    return {
        "signature": [value.sig.p, value.sig.q],
        "terms": {blade_name(bits): coeff for bits, coeff in ordered},
    }


def emit_cayley(sig: Signature, fmt: str = "text") -> str:
    """Full blade-product table in grade-then-index order, as text or JSON."""
    table = cayley_table(sig)
    names = [blade_name(bits) for bits in canonical_blades(sig)]
    entries = [
        [("-" if sign < 0 else "") + blade_name(bits) for sign, bits in row]
        for row in table
    ]
    if fmt == "json":
        return json.dumps({"signature": [sig.p, sig.q], "blades": names, "table": entries})
    width = max(len(cell) for row in entries for cell in row)
    width = max(width, max(len(name) for name in names))
    lines = ["  ".join([" " * width] + [name.rjust(width) for name in names])]
    for name, row in zip(names, entries):
        lines.append("  ".join([name.rjust(width)] + [cell.rjust(width) for cell in row]))
    return "\n".join(lines)


def run_script(path: str, env: Environment, stdout: TextIO) -> int:
    """Execute a statement file; report failures with line numbers.

    Expression statements stay silent; only failing asserts and errors print,
    followed by a one-line summary.  Exit 0 iff every line succeeded."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        stdout.write(f"error: cannot read {path}: {exc.strerror or exc}\n")
        return 2
    assertions = 0
    failures = 0
    for lineno, line in enumerate(lines, start=1):
        done = run_line(line, env)
        if done.quit:
            break
        assertions += isinstance(done.statement, AssertStmt)
        if done.failure is not None:
            failures += 1
            stdout.write(f"{path}:{lineno}: {done.failure}\n")
    stdout.write(f"{assertions} assertions, {failures} failures\n")
    return 1 if failures else 0


def _signature_arg(text: str) -> Signature:
    # argparse drops a ValueError's message but prints an ArgumentTypeError's
    try:
        return parse_signature(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ga", description="Geometric algebra calculator."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_eval = commands.add_parser("eval", help="evaluate one expression")
    cmd_eval.add_argument("expr", help="expression to evaluate")
    cmd_eval.add_argument(
        "--sig", type=_signature_arg, default=Signature(3, 0), metavar="p,q",
        help="algebra signature (default 3,0)",
    )
    cmd_eval.add_argument("--json", action="store_true", help="emit JSON")

    cmd_repl = commands.add_parser("repl", help="interactive session")
    cmd_repl.add_argument(
        "--sig", type=_signature_arg, default=Signature(3, 0), metavar="p,q",
        help="starting signature (default 3,0)",
    )

    cmd_table = commands.add_parser("table", help="print a Cayley table")
    cmd_table.add_argument(
        "--sig", type=_signature_arg, required=True, metavar="p,q",
        help="algebra signature",
    )
    cmd_table.add_argument("--json", action="store_true", help="emit JSON")

    cmd_run = commands.add_parser("run", help="run a statement script")
    cmd_run.add_argument("path", help="script file of statements")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help
        return int(exc.code or 0)
    text = os.environ.get("GA_TOL")
    try:
        tol = DEFAULT_TOL if text is None else parse_tolerance(text)
    except ValueError as exc:
        sys.stderr.write(f"ga: GA_TOL: {exc}\n")
        return 2

    if args.command == "eval":
        env = Environment(sig=args.sig, tol=tol)
        try:
            value = evaluate(parse_expression(args.expr), env)
        except TYPED_ERRORS as exc:
            sys.stderr.write(f"ga: {exc}\n")
            return 2 if isinstance(exc, GaSyntaxError) else 1
        if args.json:
            sys.stdout.write(json.dumps(multivector_json(value)) + "\n")
        else:
            sys.stdout.write(f"{value}\n")
        return 0

    if args.command == "repl":
        return repl_loop(Environment(sig=args.sig, tol=tol), sys.stdin, sys.stdout)

    if args.command == "table":
        try:
            document = emit_cayley(args.sig, "json" if args.json else "text")
        except AlgebraError as exc:
            sys.stderr.write(f"ga: {exc}\n")
            return 2
        sys.stdout.write(document + "\n")
        return 0

    return run_script(args.path, Environment(tol=tol), sys.stdout)


if __name__ == "__main__":
    sys.exit(main())

"""Command line driver exposing the pipeline as subcommands.

parse / check / ground / solve / query each run the pipeline as far as
needed. Results go to stdout, diagnostics to stderr, and output bytes are
deterministic for a fixed input and flag set.

Exit codes: 0 success (satisfiable / query answered), 1 no answer sets,
2 lexical or syntax error, 3 restriction violation, 4 capacity or bounds
exceeded, 64 usage error, 141 (128 + SIGPIPE) stdout closed early.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import os
import sys
import warnings
from typing import Optional, Sequence

from .analysis import AnalysisResult, check_program, signature_to_text
from .errors import BoundExceeded, CapacityExceeded, LexError, ParseError
from .ground import GroundProgram, UniverseBounds, ground_program
from .lexer import tokenize
from .parser import parse_program
from .rewrite import desugar
from .solver import (
    Interpretation,
    _optimal_with_costs,
    answer_query,
    answer_sets,
    atom_order_key,
    weak_cost,  # unused here; perfbench/worker.py reads `cli.weak_cost`
)
from .syntax import (
    Program,
    Span,
    classical_atom_to_text,
    is_aux_name,
    render_aux_name,
    statement_to_text,
    term_to_text,
)

USAGE_ERROR = 64
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader gone away


class _ArgumentParser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _input_name(path: Optional[str]) -> str:
    return "<stdin>" if path in (None, "-") else path


def _read_input(path: Optional[str]) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _program_text(program: Program) -> str:
    return "\n".join(statement_to_text(s) for s in program.statements())


def _node_data(node):
    """JSON-ready structural view of an AST node."""
    if isinstance(node, enum.Enum):
        return node.value
    if isinstance(node, Span):
        # A tuple, but dumped field by field like the dataclass nodes.
        return {"type": "Span", **node._asdict()}
    if dataclasses.is_dataclass(node):
        data = {"type": type(node).__name__}
        for field in dataclasses.fields(node):
            data[field.name] = _node_data(getattr(node, field.name))
        return data
    if isinstance(node, tuple):
        return [_node_data(item) for item in node]
    if isinstance(node, str) and is_aux_name(node):
        return render_aux_name(node)
    return node


def format_interpretation(interpretation: Interpretation) -> str:
    atoms = sorted(interpretation, key=atom_order_key)
    return "{" + ", ".join(classical_atom_to_text(a) for a in atoms) + "}"


def _analysis_gate(result: AnalysisResult) -> int:
    """Report analysis diagnostics; non-zero on restriction violations."""
    for warning in result.warnings():
        print(f"warning: {warning}", file=sys.stderr)
    for violation in result.violations():
        print(f"error: {violation}", file=sys.stderr)
    return 0 if result.ok else 3


def _ground_from_args(
    args, program: Program
) -> tuple[Program, Optional[int], Optional[GroundProgram]]:
    """Desugar, gate, and ground a parsed program per the common flags.

    Returns (core, failure exit code or None, ground program or None).
    """
    core = desugar(program)
    status = _analysis_gate(check_program(core))
    if status != 0:
        return core, status, None
    bounds = UniverseBounds(max_int=args.max_int, max_nesting=args.max_nesting)
    return core, None, ground_program(core, bounds=bounds, naive=args.naive)


# --------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args) -> int:
    text = _read_input(args.path)
    if args.dump_tokens:
        tokens = tokenize(text)
        # zip stops at the end of the shorter kind column, before the EOF marker.
        columns = zip(tokens.kinds[:-1], tokens.texts, tokens.lines, tokens.columns)
        for kind, lexeme, line, column in columns:
            print(f'{kind.name} "{lexeme}" {line}:{column}')
        return 0
    program = parse_program(text)
    if args.ast:
        print(json.dumps(_node_data(program), indent=2))
        return 0
    rendered = _program_text(program)
    if rendered:
        print(rendered)
    return 0


def _cmd_check(args) -> int:
    program = parse_program(_read_input(args.path))
    core = desugar(program)
    if args.dump_core:
        rendered = _program_text(core)
        if rendered:
            print(rendered)
    result = check_program(core)
    status = _analysis_gate(result)
    if args.dump_graph:
        lines = sorted(
            f"edge {signature_to_text(a)} {signature_to_text(b)}"
            for a, b in result.graph.edges
        )
        for line in lines:
            print(line)
    return status


def _cmd_ground(args) -> int:
    _core, status, ground = _ground_from_args(args, parse_program(_read_input(args.path)))
    if status is not None:
        return status
    rendered = ground.to_text()
    if rendered:
        print(rendered)
    return 0


def _cmd_solve(args) -> int:
    _core, status, ground = _ground_from_args(args, parse_program(_read_input(args.path)))
    if status is not None:
        return status
    # weak_cost warns of non-integer weights and levels: each message is
    # reported once, as the analysis warnings are, on every call
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sets, costs = _optimal_with_costs(ground) if args.opt else (answer_sets(ground), [])
        shown = sets if args.models == 0 else sets[: args.models]
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    for index, interpretation in enumerate(shown):
        print(format_interpretation(interpretation))
        if args.opt:
            cost = costs[index]
            levels = sorted((l for l in cost if isinstance(l, int)), reverse=True)
            print(" ".join(["COSTS"] + [f"{l}={cost[l]}" for l in levels]))
    return 0 if sets else 1


def _cmd_query(args) -> int:
    program = parse_program(_read_input(args.path))
    if program.query is None:
        print("error: program contains no query", file=sys.stderr)
        return USAGE_ERROR
    core, status, ground = _ground_from_args(args, program)
    if status is not None:
        return status
    answer = answer_query(ground, core.query)
    if answer.status == "inconsistent":
        print("INCONSISTENT")
    elif answer.status == "true":
        print("TRUE")
    elif answer.status == "false":
        print("FALSE")
    else:
        for substitution in answer.substitutions:
            print(" ".join(f"{name}={term_to_text(term)}" for name, term in substitution))
    return 0


# --------------------------------------------------------------------------
# Parser wiring


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="input program file; omit or use '-' for standard input",
    )


def _add_ground_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-int",
        type=_nonnegative,
        default=1000,
        metavar="N",
        help="largest integer magnitude in the instantiation universe",
    )
    parser.add_argument(
        "--max-nesting",
        type=_nonnegative,
        default=4,
        metavar="D",
        help="deepest functional term nesting in the instantiation universe",
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="instantiate over the full universe instead of joining",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="aspcore2",
        description="ASP-Core-2 toolkit: parse, check, ground, solve, query.",
    )
    parser.add_argument("--version", action="version", version="ASP-Core-2")
    subparsers = parser.add_subparsers(
        dest="subcommand", required=True, parser_class=_ArgumentParser
    )

    parse_cmd = subparsers.add_parser("parse", help="parse and pretty-print")
    _add_input(parse_cmd)
    parse_cmd.add_argument(
        "--dump-tokens",
        action="store_true",
        help="print one token per line instead of parsing",
    )
    parse_cmd.add_argument(
        "--ast", action="store_true", help="print a JSON structural dump"
    )
    parse_cmd.set_defaults(func=_cmd_parse)

    check_cmd = subparsers.add_parser("check", help="desugar and check restrictions")
    _add_input(check_cmd)
    check_cmd.add_argument(
        "--dump-core",
        action="store_true",
        help="print the desugared core program",
    )
    check_cmd.add_argument(
        "--dump-graph",
        action="store_true",
        help="print the predicate dependency graph as edge lines",
    )
    check_cmd.set_defaults(func=_cmd_check)

    ground_cmd = subparsers.add_parser("ground", help="instantiate to a ground program")
    _add_input(ground_cmd)
    _add_ground_flags(ground_cmd)
    ground_cmd.set_defaults(func=_cmd_ground)

    solve_cmd = subparsers.add_parser("solve", help="compute answer sets")
    _add_input(solve_cmd)
    _add_ground_flags(solve_cmd)
    solve_cmd.add_argument(
        "--models",
        type=_nonnegative,
        default=0,
        metavar="N",
        help="print at most N answer sets (0 prints all)",
    )
    solve_cmd.add_argument(
        "--opt",
        action="store_true",
        help="print only optimal answer sets with their per-level costs",
    )
    solve_cmd.set_defaults(func=_cmd_solve)

    query_cmd = subparsers.add_parser("query", help="answer the program's query")
    _add_input(query_cmd)
    _add_ground_flags(query_cmd)
    query_cmd.set_defaults(func=_cmd_query)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    filename = _input_name(getattr(args, "path", None))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout is gone, as in `aspcore2 ground | head -1`.
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot fail too (the SIGPIPE note in the `signal` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (LexError, ParseError) as error:
        print(error.format(filename), file=sys.stderr)
        return 2
    except (BoundExceeded, CapacityExceeded) as error:
        print(error.format(filename), file=sys.stderr)
        return 4
    except OSError as error:
        print(f"aspcore2: error: {error}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

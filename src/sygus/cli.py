"""Command-line driver: parse, check, fmt, and solve pipelines.

Exit codes: 0 success, 1 synthesis failure (``(fail)``), 2 lex/parse/check
errors, bad option values (``E-OPT-VALUE``) and input nested too deeply to
process (``E-DEPTH``), 3 unsupported theory, 4 I/O errors.  Input is read as
bytes and must be ASCII.  Results (AST dumps, formatted programs, solutions,
``(fail)``) go to stdout; diagnostics go to stderr, each as
``path:line:col: CODE: message``, and so do progress notes.  Every error in
the input, from decoding to solving, is a ``sygus.syntax.SygusError``, which
one handler in ``_run`` reports; ``run`` reports ``E-DEPTH``.

The front end reads a file a block of lines at a time.  The input's bytes
are freed once decoded (a byte outside ASCII is the first error reported);
``sygus.lexer.blocks`` cuts the text into blocks of about 64 KB, each ending
just after a newline, ``tokenize`` lexes one block per call, and
``parse_program`` reads the chained tokens as they come.  So the parser
holds the tokens of one block beside the tree it builds, not those of the
whole file, which outweigh the tree.  Diagnostics are those of lexing the
whole text first: a lexical error later in the text is reported instead of
a parse error or of input nested too deeply.  ``_front_end`` alone decides
that, by lexing the rest of the text when the parse fails.  The lexer stays
one call of the module global ``tokenize`` per block, returning a list,
rather than a generator feeding the parser token by token, so that a
caller wrapping ``tokenize`` (as ``perfbench/tracing.py`` does) still sees
the lexer as a layer of its own, and counts its tokens.

Each subcommand loads only what it runs.  ``check_program`` below imports
``sygus.checker`` on its first call, and ``solve`` imports ``sygus.solver``,
so ``parse`` and ``fmt`` load the lexer, parser and printer alone, ``check``
adds the checker, and only ``solve`` loads the solver.

``run`` pauses Python's cyclic garbage collector once the arguments are
parsed, through the lexer, parser, checker and printer; it turns the
collector back on just before ``solve`` if the caller had it on, and
restores the caller's setting on every way out.  Tokens, syntax records,
checker tables and printed text hold no reference cycles, since a record
refers only to its children (see ``Record``), so reference counting frees
all of them, and a collection during the front end would only scan, again
and again, objects it cannot free.  The search is not held to that
invariant: it builds closures, compiled terms and tables that could refer
to one another, so ``solve`` runs with the collector as the caller set it.
Library calls such as ``parse_text`` leave the collector alone.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from itertools import chain
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from . import lexer
from .config import SolverConfig
from .lexer import LexError, blocks, tokenize
from .parser import ParseError, parse_program
from .printer import (
    print_command,
    print_fail,
    print_program,
    print_solution,
    print_term,
    render_term,
)
from .syntax import Lit, NO_POS, Pos, Program, Ref, SygusError, Term

if TYPE_CHECKING:
    from .checker import CheckedProblem
    from .solver import Fail, Solved, Valid

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_STATIC = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(c) for c in raw.split(","))


#: Solver options: name -> (``SolverConfig`` field, value type, which converts
#: the value's text, least value, help).  Each is a set-options key and, as
#: ``--name``, a flag of ``solve``; a flag wins over the file.  Other
#: set-options keys are ignored.
_OPTIONS = {
    "max-term-size": ("max_term_size", int, 1, "largest term size searched, in nodes"),
    "grid-radius": ("grid_radius", int, 0, "verify on the Int grid [-N, N]"),
    "random-samples": ("random_samples", int, 0, "random points verified after the grid"),
    "uf-model-count": ("uf_model_count", int, 1, "sampled models of uninterpreted functions"),
    "seed": ("seed", int, None, "seed of every sampled value and model"),
    "timeout-seconds": ("timeout_seconds", float, 0, "wall-clock limit on the solve, in seconds"),
    "constant-pool": (
        "constant_pool", _int_list, None, "integer constants for (Constant Int) expansions"
    ),
}
#: How ``solve --help`` writes a value of each type.
_METAVARS = {int: "N", float: "T", _int_list: "C1,C2,..."}
#: What a value that does not convert is said to need.
_VALUE_NAMES = {int: "an int", float: "a float", _int_list: "a comma-separated int"}


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """``build_arg_parser()``, built once per process, on first use:
    argparse leaves cyclic garbage as it builds a parser (each argument's
    help formatter refers back to it), and parsing with a built one leaves
    none."""
    return build_arg_parser()


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sygus",
        description="Front-end and baseline solver for SyGuS problem files.",
        epilog=(
            "exit codes: 0 success; 1 no solution found ('(fail)'); "
            "2 lex/parse/check error or bad option value; 3 unsupported theory; "
            "4 I/O error"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="path to a .sl file, or '-' for stdin")
        p.add_argument(
            "--verbose", action="store_true", help="progress notes on stderr"
        )

    add_input(sub.add_parser("parse", help="print an AST dump"))
    add_input(sub.add_parser("check", help="run static checks only"))
    add_input(sub.add_parser("fmt", help="print the canonical form"))
    solve_p = sub.add_parser("solve", help="synthesize function bodies")
    add_input(solve_p)
    defaults = SolverConfig()
    for name, (field, kind, _, about) in _OPTIONS.items():
        # Values are converted and range-checked with the set-options ones.
        default = getattr(defaults, field)
        if default is None:
            default = "none"
        elif isinstance(default, tuple):
            default = ",".join(map(str, default))
        solve_p.add_argument(
            f"--{name}", metavar=_METAVARS[kind], help=f"{about} (default: {default})"
        )
    return parser


def _join_dashed_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each solver flag joined by ``=`` to a value that starts
    with ``-`` and a digit, as in ``--constant-pool -1,2``: argparse takes
    such a value for a flag of its own unless it reads as one number."""
    flags = {f"--{name}" for name in _OPTIONS}
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in flags and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def apply_set_options(
    options: Sequence[tuple[str, str, Pos]],
    cfg: SolverConfig,
    verbose_out: Optional[TextIO] = None,
) -> SolverConfig:
    """Fold recognized option values into the configuration; a value that
    does not convert or is out of range raises ``E-OPT-VALUE`` at the
    position given with it: its ``set-options`` command's, or ``NO_POS``
    for a flag."""
    for name, raw, pos in options:
        spec = _OPTIONS.get(name)
        if spec is None:
            if verbose_out is not None:
                verbose_out.write(f"note: ignoring unrecognized option '{name}'\n")
            continue
        fieldname, kind, least, _ = spec
        try:
            value = kind(raw)
        except ValueError:
            message = f"option '{name}' needs {_VALUE_NAMES[kind]} value, got \"{raw}\""
            raise SygusError("E-OPT-VALUE", pos, message) from None
        # ``not >=`` also rejects NaN.
        if least is not None and not value >= least:
            message = f"option '{name}' needs a value >= {least}, got \"{raw}\""
            raise SygusError("E-OPT-VALUE", pos, message)
        cfg = cfg.replace(**{fieldname: value})
    return cfg


def _dump_leaf(t: Term) -> str:
    if isinstance(t, Lit):
        return f"(Lit {print_term(t)})"
    if isinstance(t, Ref):
        return f"(Ref {t.name})"
    # The four grammar shorthands dump as they print.
    return print_term(t)


def _dump_term(t: Term) -> str:
    return render_term(t, _dump_leaf, "(App ", "(Let (")


def dump_program(p: Program) -> str:
    """Structural AST dump, one command per line: the printer's layout with
    class names for keywords and every term node tagged with its kind."""
    return "".join(
        print_command(c, _dump_term, lambda cmd: type(cmd).__name__) + "\n"
        for c in p.commands
    )


def check_program(program: Program) -> CheckedProblem:
    """``sygus.checker.check_program``, importing the checker on the first
    call.  A module global that ``_run`` calls by name, so that a caller
    can wrap it as ``perfbench/tracing.py`` does.  Importing the checker
    before the file is parsed instead makes ``check`` peak higher."""
    from . import checker

    return checker.check_program(program)


def solve(problem: CheckedProblem, cfg: SolverConfig) -> Solved | Fail:
    """``sygus.solver.solve``, importing the solver on the first call.  A
    module global that ``_run`` calls by name, so that a caller can wrap it
    as ``perfbench/tracing.py`` does."""
    from . import solver

    return solver.solve(problem, cfg)


def _evidence(v: Valid) -> str:
    """What a ``Valid`` verdict rests on, in one line."""
    if v.exhaustive:
        points = "the only point" if v.grid_size == 1 else f"all {v.grid_size} points"
        return f"valid at {points} of a finite domain: proved"
    grid = f"{v.grid_points} of {v.grid_size} grid points"
    if v.grid_size == 1:
        grid = "the only grid point"
    cut = " (truncated)" if v.truncated else ""
    models = f" under each of {v.uf_models} sampled UF models" if v.uf_models else ""
    return (
        f"no counterexample at {grid}{cut}"
        f"{models}, nor at {v.random_samples} random samples: tested, not proved"
    )


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


def _ascii(data: bytes) -> str:
    """``data`` as text; the first byte outside ASCII is a lexical error."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        col = e.start - data.rfind(b"\n", 0, e.start)
        raise LexError(line, col, f"non-ASCII byte 0x{data[e.start]:02x}") from None


def _diag_line(path: str, pos: Pos, code: str, message: str) -> str:
    shown = "<stdin>" if path == "-" else path
    return f"{shown}:{pos.line}:{pos.col}: {code}: {message}\n"


def _front_end(text: str) -> Program:
    """The program ``text`` holds, parsed a block at a time (see the module
    docstring).  If the parse fails, with a ``ParseError`` or on input
    nested too deeply, a ``LexError`` later in the text wins instead."""
    names: dict[str, str] = {}
    tokens = chain.from_iterable(tokenize(block, line, names) for block, line in blocks(text))
    try:
        return parse_program(tokens)
    except ParseError:
        # Lex the blocks the parse did not reach.
        for _ in tokens:
            pass
        raise
    except RecursionError:
        # Lexing deep in the parse can overflow the stack too, which ends the
        # stream there: lex every block again up here, with ``lexer.tokenize``
        # (this pass is no lexer layer of the parse).
        for block, line in blocks(text):
            lexer.tokenize(block, line)
        raise


def run(
    argv: Sequence[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute one CLI invocation and return its exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    args = _arg_parser().parse_args(_join_dashed_values(argv))
    # Paused after argparse, whose first call builds the parser and leaves
    # cyclic garbage.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(args, out, err, collecting)
    except RecursionError:
        # The parser, checker and evaluator recurse once per level of term
        # nesting.
        err.write(_diag_line(args.input, NO_POS, "E-DEPTH", "input nests too deeply"))
        return EXIT_STATIC
    finally:
        if collecting:
            gc.enable()


def _run(args: argparse.Namespace, out: TextIO, err: TextIO, collecting: bool) -> int:
    """One invocation with the collector paused; ``collecting`` says
    whether to turn it back on for ``solve``."""
    try:
        data = _read_input(args.input)
    except OSError as e:
        err.write(f"error: cannot read {args.input}: {e.strerror}\n")
        return EXIT_IO
    try:
        # The bytes are freed once decoded, and the text once parsed: neither
        # is held through the checker, the printer and the solver.
        text = _ascii(data)
        del data
        program = _front_end(text)
        del text
        if args.subcommand == "parse":
            out.write(dump_program(program))
            return EXIT_OK
        if args.subcommand == "fmt":
            out.write(print_program(program))
            return EXIT_OK

        problem = check_program(program)
        if args.subcommand == "check":
            return EXIT_OK

        flags = {
            name: (name, getattr(args, field), NO_POS)
            for name, (field, *_) in _OPTIONS.items()
            if getattr(args, field) is not None
        }
        # A flag wins over the file: it replaces the file's pairs of its option.
        options = [o for o in problem.options if o[0] not in flags] + list(flags.values())
        cfg = apply_set_options(options, SolverConfig(), err if args.verbose else None)
        if collecting:
            gc.enable()
        result = solve(problem, cfg)
    except SygusError as e:
        err.write(_diag_line(args.input, e.pos, e.code, e.message))
        return EXIT_UNSUPPORTED if e.code == "E-THEORY-UNSUPPORTED" else EXIT_STATIC

    from .solver import Fail, Solved

    if isinstance(result, Solved):
        out.write(print_solution(result.terms, problem.synth_tasks))
        if args.verbose:
            err.write(f"note: {_evidence(result.evidence)}\n")
        return EXIT_OK
    assert isinstance(result, Fail)
    out.write(print_fail())
    if result.reason == "timeout":
        err.write("note: search stopped by timeout\n")
    else:
        err.write(f"note: search exhausted at max term size {cfg.max_term_size}\n")
    return EXIT_FAIL


def main() -> None:
    sys.exit(run(sys.argv[1:]))

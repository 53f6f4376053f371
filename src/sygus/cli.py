"""Command-line driver: parse, check, fmt, and solve pipelines.

Exit codes: 0 success, 1 synthesis failure (``(fail)``), 2 lex/parse/check
errors, bad option values (``E-OPT-VALUE``) and input nested too deeply to
process (``E-DEPTH``), 3 unsupported theory, 4 I/O errors.  Input is read as
bytes and must be ASCII.  Results (AST dumps, formatted programs, solutions,
``(fail)``) go to stdout; diagnostics and progress notes go to stderr.

Each subcommand loads only what it runs.  ``check_program`` below imports
``sygus.checker`` on its first call, and ``solve`` imports ``sygus.solver``,
so ``parse`` and ``fmt`` load the lexer, parser and printer alone, ``check``
adds the checker, and only ``solve`` loads the solver.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Sequence, TextIO

from .config import SolverConfig
from .lexer import LexError, tokenize
from .parser import ParseError, parse_program
from .printer import (
    print_command,
    print_fail,
    print_program,
    print_solution,
    print_term,
    render_term,
)
from .syntax import Lit, NO_POS, Pos, Program, Ref, Term

if TYPE_CHECKING:
    from .checker import CheckedProblem
    from .solver import Fail, Solved, Valid

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_STATIC = 2
EXIT_UNSUPPORTED = 3
EXIT_IO = 4

#: Solver options: name -> (``SolverConfig`` field, value type, least value,
#: help).  Each is a set-options key and, as ``--name``, a flag of ``solve``;
#: a flag wins over the file.  Other set-options keys are ignored.
_OPTIONS = {
    "max-term-size": ("max_term_size", int, 1, "largest term size searched, in nodes"),
    "grid-radius": ("grid_radius", int, 0, "verify on the Int grid [-N, N]"),
    "random-samples": ("random_samples", int, 0, "random points verified after the grid"),
    "uf-model-count": ("uf_model_count", int, 1, "sampled models of uninterpreted functions"),
    "seed": ("seed", int, None, "seed of every sampled value and model"),
    "timeout-seconds": ("timeout_seconds", float, 0, "wall-clock limit on the solve, in seconds"),
}


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
        solve_p.add_argument(
            f"--{name}", metavar="N" if kind is int else "T",
            help=f"{about} (default: {'none' if default is None else default})",
        )
    solve_p.add_argument(
        "--constant-pool",
        metavar="C1,C2,...",
        help="integer constants for (Constant Int) expansions",
    )
    return parser


def _bad_option(message: str):
    from .checker import CheckError, Diagnostic

    raise CheckError(Diagnostic("E-OPT-VALUE", NO_POS, message))


def apply_set_options(
    options: Sequence[tuple[str, str]],
    cfg: SolverConfig,
    verbose_out: Optional[TextIO] = None,
) -> SolverConfig:
    """Fold recognized option values into the configuration; a value that
    does not convert or is out of range raises ``CheckError``."""
    for name, raw in options:
        spec = _OPTIONS.get(name)
        if spec is None:
            if verbose_out is not None:
                verbose_out.write(f"note: ignoring unrecognized option '{name}'\n")
            continue
        fieldname, kind, least, _ = spec
        try:
            value = kind(raw)
        except ValueError:
            _bad_option(f"option '{name}' needs a {kind.__name__} value, got \"{raw}\"")
        # ``not >=`` also rejects NaN.
        if least is not None and not value >= least:
            _bad_option(f"option '{name}' needs a value >= {least}, got \"{raw}\"")
        cfg = replace(cfg, **{fieldname: value})
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
    call.  A module global that ``_checked`` calls by name, so that a caller
    can wrap it as ``perfbench/tracing.py`` does."""
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
        return f"valid at all {v.grid_size} points of a finite domain: proved"
    cut = " (truncated)" if v.truncated else ""
    models = f" under each of {v.uf_models} sampled UF models" if v.uf_models else ""
    return (
        f"no counterexample at {v.grid_points} of {v.grid_size} grid points{cut}"
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


def _front_end(path: str, data: bytes, stderr: TextIO) -> Optional[Program]:
    try:
        return parse_program(tokenize(_ascii(data)))
    except LexError as e:
        stderr.write(_diag_line(path, Pos(e.line, e.col), "E-LEX", e.message))
    except ParseError as e:
        stderr.write(
            _diag_line(
                path, e.pos, "E-PARSE", f"expected {e.expected}, found {e.found}"
            )
        )
    return None


def _checked(path: str, program: Program, stderr: TextIO) -> Optional[CheckedProblem]:
    from .checker import CheckError

    try:
        return check_program(program)
    except CheckError as e:
        d = e.diagnostic
        stderr.write(_diag_line(path, d.pos, d.code, d.message))
        return None


def run(
    argv: Sequence[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute one CLI invocation and return its exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    args = build_arg_parser().parse_args(argv)
    try:
        return _run(args, out, err)
    except RecursionError:
        # The parser, checker and evaluator recurse once per level of term
        # nesting.
        err.write(_diag_line(args.input, NO_POS, "E-DEPTH", "input nests too deeply"))
        return EXIT_STATIC


def _run(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    try:
        data = _read_input(args.input)
    except OSError as e:
        err.write(f"error: cannot read {args.input}: {e.strerror}\n")
        return EXIT_IO

    program = _front_end(args.input, data, err)
    if program is None:
        return EXIT_STATIC

    if args.subcommand == "parse":
        out.write(dump_program(program))
        return EXIT_OK
    if args.subcommand == "fmt":
        out.write(print_program(program))
        return EXIT_OK

    problem = _checked(args.input, program, err)
    if problem is None:
        return EXIT_STATIC
    if args.subcommand == "check":
        return EXIT_OK

    from .checker import CheckError

    flags = [
        (name, getattr(args, field))
        for name, (field, *_) in _OPTIONS.items()
        if getattr(args, field) is not None
    ]
    try:
        cfg = apply_set_options(
            problem.options, SolverConfig(), verbose_out=err if args.verbose else None
        )
        # CLI flags win over set-options from the file.
        cfg = apply_set_options(flags, cfg)
    except CheckError as e:
        d = e.diagnostic
        err.write(_diag_line(args.input, d.pos, d.code, d.message))
        return EXIT_STATIC
    if args.constant_pool is not None:
        try:
            pool = tuple(int(c.strip()) for c in args.constant_pool.split(","))
        except ValueError:
            err.write("error: --constant-pool expects comma-separated integers\n")
            return EXIT_STATIC
        cfg = replace(cfg, constant_pool=pool)

    from .solver import Fail, Solved, SolveError

    try:
        result = solve(problem, cfg)
    except SolveError as e:
        err.write(_diag_line(args.input, NO_POS, e.code, e.message))
        return EXIT_UNSUPPORTED if e.code == "E-THEORY-UNSUPPORTED" else EXIT_STATIC

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

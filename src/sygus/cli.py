"""Command-line driver: parse, check, fmt, and solve pipelines.

Exit codes: 0 success, 1 synthesis failure (``(fail)``), 2 lex/parse/check
errors, bad option values (``E-OPT-VALUE``) and input nested too deeply to
process (``E-DEPTH``), 3 unsupported theory, 4 I/O errors: an input that
cannot be read, or output that cannot be written (``error: cannot write
output: <reason>``, as for a full disk or a closed pipe).  Input is read as
bytes and must be ASCII.  Results (AST dumps, formatted programs, solutions,
``(fail)``) go to stdout; diagnostics go to stderr, each as
``path:line:col: CODE: message``, and so do progress notes.  Every error in
the input, from decoding to solving, is a ``sygus.syntax.SygusError``, which
one handler in ``_run`` reports; ``run`` reports ``E-DEPTH``.

How a console call ends: ``main`` flushes stdout, then stderr (the order of
the interpreter's own finalization), and ends the process with
``os._exit``.  That skips the interpreter's teardown, about 10 ms per call
after the last write: the final garbage collection, the clearing of every
module, and the exit hooks.  It is safe because sygus registers no exit
hook (``atexit``), holds no open file but the standard streams, and starts
no thread, and the OS takes the memory back; a test holds the number of
exit hooks to that of a bare interpreter.  Since ``main`` flushes by hand,
a write or flush that fails is its to report, as an I/O error.  ``run``
returns instead of exiting, so library callers, the tests and the
benchmark's in-process mode are unaffected.  Tools that do their work at
interpreter exit, such as ``coverage run`` or ``python -m cProfile``, see
nothing of a ``python -m sygus`` call; run them on ``cli.run``.

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
``sygus.checker`` on its first call, ``solve`` imports ``sygus.solver``,
and ``print_program``, ``print_solution``, ``print_fail`` and
``dump_program`` import ``sygus.printer``; ``SolverConfig`` is imported
where ``solve``'s options are read.  So ``check`` loads the lexer, parser
and checker alone, ``parse`` and ``fmt`` the lexer, parser and printer,
and only ``solve`` loads ``sygus.config``, the solver and its evaluator.
The solver imports ``sygus.prover`` at the first proof that ``verify``
attempts, a step of its grid walk once a candidate passes the first grid
chunk, so only a ``solve`` of a linear problem with more than
``solver.GRID_POINT_CAP`` rows to test, one of whose candidates passes
that chunk, loads it.

argparse runs only for help and usage errors, and for the argv forms that
only it reads: importing it, with the ``gettext`` it imports, and building
the parser take several milliseconds of each call.  ``run`` first
tries ``_plain_args``, which takes a plain argv alone:

    argv   := subcommand word*         (the words in any order)
    word   := "--verbose"
            | "--" NAME VALUE          (solve only; the last one given wins)
            | INPUT                    (exactly one)
    NAME   := a key of ``_OPTIONS``, written out in full
    VALUE  := any word that does not start with "-"
    INPUT  := "-" | any word that does not start with "-"

and makes of it the namespace that argparse would make.  Any other argv
(``-h``, ``--help``, an abbreviated flag, ``--name=value``, ``--``, a
value that starts with a dash, a missing or a second input, an unknown
flag or subcommand) goes to argparse, which writes help and every usage
error.  The grammar is a strict subset of argparse's: every word is one
that argparse reads the same way in that place (a dash-free word is a
positional or a flag's value, an exact flag is never taken for an
abbreviation), so where ``_plain_args`` accepts an argv, argparse would
accept it with the same namespace; a test checks that on generated argv
lists, exit codes and output included.

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

import functools
import gc
import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence, TextIO

from . import lexer
from .lexer import LexError, blocks, tokenize
from .parser import ParseError, parse_program
from .syntax import Lit, NO_POS, Pos, Program, Ref, SygusError, Term

if TYPE_CHECKING:
    import argparse

    from .checker import CheckedProblem, SynthTask
    from .config import SolverConfig
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
    import argparse

    from .config import SolverConfig

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


#: Each flag of ``solve`` that takes a value, and the attribute it sets.
_FLAG_FIELDS = {f"--{name}": field for name, (field, *_) in _OPTIONS.items()}


def _plain_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace that ``_arg_parser()`` makes of ``argv``, made without
    argparse if ``argv`` is plain (see the module docstring); ``None`` if it
    is not."""
    if not argv or argv[0] not in ("parse", "check", "fmt", "solve"):
        return None
    args = {"subcommand": argv[0], "verbose": False}
    flags = _FLAG_FIELDS if argv[0] == "solve" else {}
    args.update(dict.fromkeys(flags.values()))
    inputs = []
    words = iter(argv[1:])
    for word in words:
        if word == "--verbose":
            args["verbose"] = True
        elif word in flags:
            # A missing value reads as "-", which is declined.
            value = next(words, "-")
            if value[:1] == "-":
                return None
            args[flags[word]] = value
        elif word == "-" or word[:1] != "-":
            inputs.append(word)
        else:
            return None
    if len(inputs) != 1:
        return None
    return SimpleNamespace(input=inputs[0], **args)


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


def dump_program(p: Program) -> str:
    """Structural AST dump, one command per line: the printer's layout with
    class names for keywords and every term node tagged with its kind."""
    from .printer import print_command, print_term, render_term

    def leaf(t: Term) -> str:
        if isinstance(t, Lit):
            return f"(Lit {print_term(t)})"
        if isinstance(t, Ref):
            return f"(Ref {t.name})"
        # The four grammar shorthands dump as they print.
        return print_term(t)

    def term(t: Term) -> str:
        return render_term(t, leaf, "(App ", "(Let (")

    return "".join(
        print_command(c, term, lambda cmd: type(cmd).__name__) + "\n" for c in p.commands
    )


# The printer's three entry points that ``_run`` calls, each importing the
# printer on its first call and, like ``check_program``, a module global
# that a caller can wrap (``perfbench/tracing.py`` does), so ``check`` never
# loads the printer.


def print_program(p: Program) -> str:
    """``sygus.printer.print_program``, importing the printer on the first
    call."""
    from . import printer

    return printer.print_program(p)


def print_solution(candidate: dict[str, Term], tasks: tuple[SynthTask, ...]) -> str:
    """``sygus.printer.print_solution``, importing the printer on the first
    call."""
    from . import printer

    return printer.print_solution(candidate, tasks)


def print_fail() -> str:
    """``sygus.printer.print_fail``, importing the printer on the first
    call."""
    from . import printer

    return printer.print_fail()


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
    """What a ``Valid`` verdict rests on, in one line.  The grid's size can
    be longer than ``str`` writes (a huge ``--grid-radius``)."""
    from .evaluator import _decimal

    if v.proved:
        ufs = " and every interpretation of the uninterpreted functions" if v.uf_models else ""
        return f"valid for every value of the variables{ufs}: proved"
    if v.exhaustive:
        points = "the only point" if v.grid_size == 1 else f"all {v.grid_size} points"
        return f"valid at {points} of a finite domain: proved"
    grid = f"{v.grid_points} of {_decimal(v.grid_size)} grid points"
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
    args = _plain_args(argv)
    if args is None:
        # Help, a usage error or an argv that only argparse reads right.
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


def _run(
    args: SimpleNamespace | argparse.Namespace, out: TextIO, err: TextIO, collecting: bool
) -> int:
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
            return _put(out, err, dump_program(program), EXIT_OK)
        if args.subcommand == "fmt":
            return _put(out, err, print_program(program), EXIT_OK)

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
        from .config import SolverConfig

        cfg = apply_set_options(options, SolverConfig(), err if args.verbose else None)
        if collecting:
            gc.enable()
        result = solve(problem, cfg)
    except SygusError as e:
        err.write(_diag_line(args.input, e.pos, e.code, e.message))
        return EXIT_UNSUPPORTED if e.code == "E-THEORY-UNSUPPORTED" else EXIT_STATIC

    from .solver import Fail, Solved

    if isinstance(result, Solved):
        note = f"note: {_evidence(result.evidence)}\n" if args.verbose else ""
        return _put(out, err, print_solution(result.terms, problem.synth_tasks), EXIT_OK, note)
    assert isinstance(result, Fail)
    if result.reason == "timeout":
        note = "note: search stopped by timeout\n"
    else:
        note = f"note: search exhausted at max term size {cfg.max_term_size}\n"
    return _put(out, err, print_fail(), EXIT_FAIL, note)


def _put(out: TextIO, err: TextIO, text: str, code: int, note: str = "") -> int:
    """Write ``text`` to ``out``, then ``note`` to ``err``, and return
    ``code``; a failed write to ``out`` is reported instead.  A stream over
    a binary buffer is flushed and gets the encoded text through the
    buffer, written until all of it is taken: unbuffered, the buffer is
    the raw file, whose write may take only part of the text, as a pipe
    does, and the text layer would drop the rest without an error."""
    try:
        buffer = getattr(out, "buffer", None)
        if buffer is None:
            out.write(text)
        else:
            out.flush()
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[buffer.write(data):]
    except OSError as e:
        return _output_error(err, e)
    if note:
        err.write(note)
    return code


def _output_error(err: TextIO, e: OSError) -> int:
    """Report output that could not be written, if ``err`` takes it."""
    try:
        err.write(f"error: cannot write output: {e.strerror}\n")
    except OSError:
        pass
    return EXIT_IO


def main() -> NoReturn:
    """The console script: ``run`` on the process's arguments, then flush
    stdout and then stderr and end the process with ``os._exit``, skipping
    the interpreter's teardown (see the module docstring).  A usage error
    and ``--help`` leave argparse as ``SystemExit`` and end the same way;
    any other exception escaping ``run`` is a bug, and takes the normal
    way out, with its traceback."""
    try:
        code = run(sys.argv[1:])
    except SystemExit as e:
        # argparse wrote its usage or help; the code is 2 or 0.
        code = e.code
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as e:
            # An I/O error from ``run`` may be this write, reported already.
            if code != EXIT_IO:
                code = _output_error(sys.stderr, e)
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)

"""SyGuS language front-end and baseline enumerative solver.

Importing the package loads the lexer and the parser alone.  The other
names load their modules on first use (PEP 562): the printer's
(``print_program``, ``print_term``, ...) load ``sygus.printer``,
``SolverConfig`` loads ``sygus.config``, the checker's (``check_program``,
``CheckError``, ...) ``sygus.checker``, and the solver's (``solve``,
``verify``, ``Solved``, ...) ``sygus.solver`` and its evaluator.  So a
program that only parses never pays for the printer, one that only checks
never pays for the solver, and the CLI's ``check`` never loads the printer
or ``SolverConfig``.  No subcommand loads ``dataclasses`` (and the
``inspect`` it imports): the records register with it when something reads
their fields (see ``syntax.Record``).  ``fractions`` loads at the first
real literal, and ``decimal`` only for an integer too long for ``str``.
Every error about the input is a ``SygusError``: a code, a position and a
message.
"""

from .lexer import LexError, tokenize
from .parser import ParseError, parse_program, parse_text
from .syntax import SygusError


_PRINTER_NAMES = frozenset({"print_fail", "print_program", "print_solution", "print_term"})
_CHECKER_NAMES = frozenset({"CheckedProblem", "CheckError", "check_program"})


def __getattr__(name: str):
    # Only the names not imported above get here.
    if name in _PRINTER_NAMES:
        from . import printer as module
    elif name == "SolverConfig":
        from . import config as module
    elif name in _CHECKER_NAMES:
        from . import checker as module
    elif name in __all__:
        from . import solver as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "CheckedProblem",
    "CheckError",
    "Counterexample",
    "Fail",
    "LexError",
    "ParseError",
    "Solved",
    "SolveError",
    "SolverConfig",
    "SygusError",
    "Valid",
    "check_program",
    "enumerate_terms",
    "expand_shorthands",
    "parse_program",
    "parse_text",
    "print_fail",
    "print_program",
    "print_solution",
    "print_term",
    "solve",
    "tokenize",
    "verify",
]

"""SyGuS language front-end and baseline enumerative solver.

Importing the package loads the front end (lexer, parser, checker,
printer) and ``SolverConfig``.  The solver's names (``solve``, ``verify``,
``Solved``, ...) load ``sygus.solver`` and its evaluator on first use
(PEP 562), so a program that only parses, checks or prints never pays for
them.
"""

from .checker import CheckedProblem, CheckError, Diagnostic, check_program
from .config import SolverConfig
from .lexer import LexError, tokenize
from .parser import ParseError, parse_program, parse_text
from .printer import print_fail, print_program, print_solution, print_term


def __getattr__(name: str):
    # Only the names not imported above get here: the solver's.
    if name in __all__:
        from . import solver

        return getattr(solver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckedProblem",
    "CheckError",
    "Counterexample",
    "Diagnostic",
    "Fail",
    "LexError",
    "ParseError",
    "Solved",
    "SolveError",
    "SolverConfig",
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

"""SyGuS language front-end and baseline enumerative solver.

Importing the package loads the lexer, parser, printer and
``SolverConfig``.  The checker's names (``check_program``, ``CheckError``,
...) load ``sygus.checker`` on first use (PEP 562), and the solver's
(``solve``, ``verify``, ``Solved``, ...) load ``sygus.solver`` and its
evaluator, so a program that only parses or prints never pays for the
checker, and one that only checks never pays for the solver.  No
subcommand loads ``dataclasses`` (and the ``inspect`` it imports): the
records register with it when something reads their fields (see
``syntax.Record``).  ``fractions`` loads at the first real literal, and
``decimal`` only for an integer too long for ``str``.
"""

from .config import SolverConfig
from .lexer import LexError, tokenize
from .parser import ParseError, parse_program, parse_text
from .printer import print_fail, print_program, print_solution, print_term


_CHECKER_NAMES = frozenset({"CheckedProblem", "CheckError", "Diagnostic", "check_program"})


def __getattr__(name: str):
    # Only the names not imported above get here: the checker's and the
    # solver's.
    if name in _CHECKER_NAMES:
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

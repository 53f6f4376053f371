"""SyGuS language front-end and baseline enumerative solver."""

from .checker import CheckedProblem, CheckError, Diagnostic, check_program
from .lexer import LexError, tokenize
from .parser import ParseError, parse_program, parse_text
from .printer import print_fail, print_program, print_solution, print_term
from .solver import (
    Counterexample,
    Fail,
    Solved,
    SolveError,
    SolverConfig,
    Valid,
    enumerate_terms,
    expand_shorthands,
    solve,
    verify,
)

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

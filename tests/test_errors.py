"""One error type from the lexer to the solver: each layer's error is a
``SygusError`` with a code, a position and a message, raised here through
the layer's own entry point."""

import pytest

from sygus import SolverConfig, SygusError, check_program, parse_text, solve, tokenize
from sygus.checker import CheckError
from sygus.cli import apply_set_options
from sygus.evaluator import EvalEnv, EvalError, eval_term
from sygus.lexer import LexError
from sygus.parser import ParseError, parse_term
from sygus.printer import PrintError, print_solution
from sygus.solver import SolveError
from sygus.syntax import NO_POS, Pos

REALS = "(set-logic Reals)\n(declare-var x Real)\n(constraint (= x x))\n(check-synth)\n"


def print_without_a_body(problem):
    [max2, _] = problem.synth_tasks
    print_solution({"max2": max2.grammar[0].productions[0]}, problem.synth_tasks)


# (class, its entry point, given the max2_min2 problem, and the code,
# position and message of what it raises)
RAISED = [
    (SygusError, lambda _: apply_set_options([("seed", "x", Pos(3, 3))], SolverConfig()),
     "E-OPT-VALUE", Pos(3, 3), "option 'seed' needs an int value, got \"x\""),
    (LexError, lambda _: tokenize("(f\n  @)"),
     "E-LEX", Pos(2, 3), "character '@' cannot start a token"),
    (ParseError, lambda _: parse_text("(set-logic LIA)\n(constraint (= x 1)"),
     "E-PARSE", Pos(2, 19), "expected ')' closing the command, found end of input"),
    (CheckError, lambda _: check_program(parse_text("(constraint (= y 1))\n(check-synth)\n")),
     "E-UNBOUND", Pos(1, 16), "'y' is not in scope"),
    (SolveError, lambda _: solve(check_program(parse_text(REALS)), SolverConfig()),
     "E-THEORY-UNSUPPORTED", Pos(1, 1), "solving over the Reals theory is not supported"),
    (EvalError, lambda p: eval_term(parse_term(tokenize("(/ 1.0 0.0)")), {}, EvalEnv(p)),
     "E-DIV-ZERO", NO_POS, "division by zero"),
    (PrintError, print_without_a_body,
     "E-INCOMPLETE-CANDIDATE", NO_POS, "no body for synthesis function 'min2'"),
]


@pytest.mark.parametrize(
    "cls, entry, code, pos, message", RAISED, ids=[case[0].__name__ for case in RAISED]
)
def test_each_layer_raises_a_sygus_error(max2_min2_problem, cls, entry, code, pos, message):
    with pytest.raises(SygusError) as info:
        entry(max2_min2_problem)
    e = info.value
    assert type(e) is cls
    assert (e.code, e.pos, e.message) == (code, pos, message)
    assert str(e) == f"{pos}: {code}: {message}"
    if cls is LexError:
        # Read by the block and oracle tests.
        assert (e.line, e.col) == (pos.line, pos.col)


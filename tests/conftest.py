from pathlib import Path

import pytest

from sygus.checker import check_program
from sygus.parser import parse_text

FIXTURES = Path(__file__).parent / "fixtures"

# What ``print_solution`` prints: one line per define-fun.
EXPECTED_MAX2_MIN2 = """\
(define-fun max2 ((x Int) (y Int)) Int (ite (<= x y) y x))
(define-fun min2 ((x Int) (y Int)) Int (ite (<= x y) x y))
"""

FIXTURE_SOLUTIONS = {
    "max2_min2": EXPECTED_MAX2_MIN2,
    "uf_pair": "(define-fun f ((x Int) (y Int)) Bool true)\n",
    "let_grammar": "(define-fun f ((x Int) (y Int)) Int x)\n",
}

# No term of this grammar equals x + 100 on the grid, so the search runs to
# the size cap; size 9 takes several seconds.
LIA_ITE_UNSOLVABLE = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
   ((Start Int (0 1 x y (+ Start Start) (- Start Start) (ite B Start Start)))
    (B Bool ((and B B) (not B) (<= Start Start)))))
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (+ x 100)))
(check-synth)
"""

# The same target over a let grammar: only odd sizes have terms, and every
# level is filtered for terms that leak the let-bound z.
LET_SUM_UNSOLVABLE = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
   ((Start Int (x y z (+ Start Start) (let ((z Int Start)) Start)))))
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (+ x 50)))
(check-synth)
"""


def load_problem(text: str):
    return check_program(parse_text(text))


@pytest.fixture(scope="session")
def max2_min2_text() -> str:
    return (FIXTURES / "max2_min2.sl").read_text()


@pytest.fixture(scope="session")
def uf_pair_text() -> str:
    return (FIXTURES / "uf_pair.sl").read_text()


@pytest.fixture(scope="session")
def let_grammar_text() -> str:
    return (FIXTURES / "let_grammar.sl").read_text()


@pytest.fixture(scope="session")
def max2_min2_problem(max2_min2_text):
    return load_problem(max2_min2_text)


@pytest.fixture(scope="session")
def uf_pair_problem(uf_pair_text):
    return load_problem(uf_pair_text)


@pytest.fixture(scope="session")
def let_grammar_problem(let_grammar_text):
    return load_problem(let_grammar_text)


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion after the run.

_CRITERIA = {
    "c1": "golden parse of the max2/min2 specification",
    "c2": "end-to-end synthesis of max2/min2",
    "c3": "uninterpreted-function model semantics",
    "c4": "static-rule mutation suite",
    "c5": "enumeration matches the brute-force oracle",
    "c6": "evaluator semantic laws",
    "c7": "parse/print round-trip",
    "c8": "deterministic solver output",
}

_acceptance_outcomes: dict[str, bool] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    for key in _CRITERIA:
        if f"_{key}_" in f"_{name}_" or name.startswith(f"test_{key}_"):
            passed = _acceptance_outcomes.get(key, True) and report.passed
            _acceptance_outcomes[key] = passed
            break


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key, label in _CRITERIA.items():
        if key in _acceptance_outcomes:
            verdict = "PASS" if _acceptance_outcomes[key] else "FAIL"
            terminalreporter.write_line(f"{key}: {label}: {verdict}")

import gc
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from sygus import prover, solver
from sygus.checker import check_program
from sygus.parser import parse_text

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent


def child(*args):
    """The stdout lines of ``python -c *args`` in a fresh interpreter."""
    p = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60, check=True,
    )
    return p.stdout.splitlines()


@contextmanager
def collector_paused():
    """Python's cyclic garbage collector off, after a collection that
    clears the garbage of earlier tests, so that ``gc.collect()`` counts
    only the cyclic garbage made inside; on exit, on again if it was."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# What ``print_solution`` prints: one line per define-fun.
EXPECTED_MAX2_MIN2 = """\
(define-fun max2 ((x Int) (y Int)) Int (ite (<= x y) y x))
(define-fun min2 ((x Int) (y Int)) Int (ite (<= x y) x y))
"""

FIXTURE_SOLUTIONS = {
    "max2_min2": EXPECTED_MAX2_MIN2,
    "uf_pair": "(define-fun f ((x Int) (y Int)) Bool true)\n",
    "let_grammar": "(define-fun f ((x Int) (y Int)) Int x)\n",
    "nested_call": "(define-fun f ((x Int)) Int (+ x 1))\n",
    "uf_binary": "(define-fun f ((a Int) (b Int) (c Int) (d Int)) Int (- a c))\n",
}

# No term of this grammar equals x + 100 on the grid, so the search runs to
# the size cap.
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
# level is filtered for terms that leak the let-bound z.  Terms that leak it
# are never merged, so at size 13 the search outlasts a 1 s limit.
LET_SUM_UNSOLVABLE = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
   ((Start Int (x y z (+ Start Start) (let ((z Int Start)) Start)))))
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (+ x 50)))
(check-synth)
"""


# The 3-variable max over the max2 grammar with a third variable.  Its
# smallest solution has 15 nodes, out of reach of the enumerative search:
# at size 12 the search outlasts a 1 s limit.
MAX3 = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int) (z Int)) Int
   ((Start Int (0 1 x y z (+ Start Start) (- Start Start) (ite B Start Start)))
    (B Bool ((and B B) (not B) (<= Start Start)))))
(declare-var x Int)
(declare-var y Int)
(declare-var z Int)
(constraint (>= (f x y z) x))
(constraint (>= (f x y z) y))
(constraint (>= (f x y z) z))
(constraint (or (= x (f x y z)) (or (= y (f x y z)) (= z (f x y z)))))
(check-synth)
"""

# A solution of MAX3, with 16 nodes.
MAX3_SOLUTION = "(ite (<= x y) (ite (<= y z) z y) (ite (<= x z) z x))"


# The base problems of the benchmark's solver workloads with fixed names.
# Uninterpreted functions keep the benchmark's names, because a sampled
# model is a hash of the function's name.
MAX2_MIN2_BASE = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
   ((Start Int (0 1 x y (+ Start Start) (ite B Start Start)))
    (B Bool ((and B B) (not B) (<= Start Start)))))
(synth-fun g ((x Int) (y Int)) Int
   ((Start Int ((Constant Int) (Variable Int) (+ Start Start) (ite B Start Start)))
    (B Bool ((and B B) (not B) (<= Start Start)))))
(declare-var x Int)
(declare-var y Int)
(constraint (>= (f x y) x))
(constraint (>= (f x y) y))
(constraint (or (= x (f x y)) (= y (f x y))))
(constraint (= (+ (f x y) (g x y)) (+ x y)))
(check-synth)
"""

UF_SUM = """
(set-logic LIA)
(declare-fun uf (Int) Int)
(synth-fun f ((a Int) (b Int) (c Int) (d Int)) Int
   ((Start Int (a b c d (+ Start Start)))))
(declare-var a Int)
(declare-var b Int)
(declare-var c Int)
(declare-var d Int)
(constraint (= (uf (f a b c d)) (uf (+ a b))))
(check-synth)
"""

UF_DIFF = """
(set-logic LIA)
(declare-fun g (Int Int) Int)
(synth-fun f ((a Int) (b Int) (c Int) (d Int)) Int
   ((Start Int (a b c d (- Start Start)))))
(declare-var a Int)
(declare-var b Int)
(declare-var c Int)
(declare-var d Int)
(constraint (= (g (f a b c d) d) (g (- a c) d)))
(check-synth)
"""

# UF_SUM at a + c where c = d.  The prover does not rewrite an
# application's arguments by a fact, so it cannot prove that the solution
# (+ a c) gives uf (+ a d) where c = d, and verify tests it.
UF_GUARDED = """
(set-logic LIA)
(declare-fun uf (Int) Int)
(synth-fun f ((a Int) (b Int) (c Int) (d Int)) Int
   ((Start Int (a b c d (+ Start Start)))))
(declare-var a Int)
(declare-var b Int)
(declare-var c Int)
(declare-var d Int)
(constraint (=> (= c d) (= (uf (f a b c d)) (uf (+ a d)))))
(check-synth)
"""

# The Bool by (BitVec 4) grid is 2 * 16 points: all of the domain.
BOOL_BV4 = """
(set-logic BV)
(synth-fun f ((p Bool) (v (BitVec 4))) (BitVec 4)
   ((Start (BitVec 4) (v #x0 (bvadd Start Start) (ite B Start Start)))
    (B Bool (p (not B)))))
(declare-var p Bool)
(declare-var v (BitVec 4))
(constraint (= (f p v) (ite p (bvadd v v) v)))
(check-synth)
"""


def load_problem(text: str):
    return check_program(parse_text(text))


def verify_unproved(candidate, problem, cfg):
    """``solver.verify`` with the prover giving up on every candidate: the
    candidate tested on the grid and the random samples alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prover, "proves", lambda *args: False)
        return solver.verify(candidate, problem, cfg)


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
def nested_call_text() -> str:
    return (FIXTURES / "nested_call.sl").read_text()


@pytest.fixture(scope="session")
def max2_min2_problem(max2_min2_text):
    return load_problem(max2_min2_text)


@pytest.fixture(scope="session")
def uf_pair_problem(uf_pair_text):
    return load_problem(uf_pair_text)


@pytest.fixture(scope="session")
def let_grammar_problem(let_grammar_text):
    return load_problem(let_grammar_text)


@pytest.fixture(scope="session")
def nested_call_problem(nested_call_text):
    return load_problem(nested_call_text)


@pytest.fixture(scope="session")
def uf_binary_problem():
    return load_problem((FIXTURES / "uf_binary.sl").read_text())


# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion after the run.

_CRITERIA = {
    "c1": "golden parse of every fixture",
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

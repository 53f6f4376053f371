import time

import pytest

from sygus import solver
from sygus.printer import print_solution, print_term
from sygus.solver import (
    Counterexample,
    Fail,
    Solved,
    SolverConfig,
    TermTable,
    Valid,
    enumerate_terms,
    expand_shorthands,
    solve,
)
from sygus.syntax import subterms

from conftest import (
    FIXTURE_SOLUTIONS,
    LET_SUM_UNSOLVABLE,
    LIA_ITE_UNSOLVABLE,
    load_problem,
)
from oracle import oracle_terms

# Duplicates reach the table every way they can: a (Variable Int) next to
# x, a hole-free template (+ x 1) that other productions also build, a
# template with a hole-free part, a let, and a cycle of unit productions.
DUPLICATING_GRAMMAR = """
(set-logic LIA)
(synth-fun f ((x Int)) Int
   ((Start Int (x 1 (Variable Int) (+ Start 1) (+ Start Start) (- (+ x 1) Start)
                Other (let ((z Int Start)) (+ z 1))))
    (Other Int (x (+ x 1) (- Start 1) Start))))
(declare-var x Int)
(constraint (= (f x) (f x)))
(check-synth)
"""


def fixture_problem(request, name):
    return request.getfixturevalue(f"{name}_problem")


def grammars(problem):
    cfg = SolverConfig()
    return [
        (task.name, expand_shorthands(task.grammar, task, problem, cfg))
        for task in problem.synth_tasks
    ]


@pytest.mark.parametrize("name", sorted(FIXTURE_SOLUTIONS))
def test_acceptance_c2_golden_solution(request, name):
    problem = fixture_problem(request, name)
    result = solve(problem, SolverConfig())
    assert isinstance(result, Solved)
    text = print_solution(result.candidate.terms, problem.synth_tasks)
    assert text == FIXTURE_SOLUTIONS[name]


def test_acceptance_c8_two_solves_print_identical_bytes(max2_min2_problem):
    texts = []
    for _ in range(2):
        result = solve(max2_min2_problem, SolverConfig())
        texts.append(print_solution(result.candidate.terms, max2_min2_problem.synth_tasks))
    assert texts[0] == texts[1]


def test_max2_min2_verify_stream(max2_min2_problem, monkeypatch):
    calls = []
    original = solver.verify

    def recording(candidate, *args, **kwargs):
        result = original(candidate, *args, **kwargs)
        shown = {n: print_term(t) for n, t in candidate.items()}
        calls.append((shown["max2"], shown["min2"], type(result)))
        return result

    monkeypatch.setattr(solver, "verify", recording)
    solve(max2_min2_problem, SolverConfig())
    ite_max = "(ite (<= x y) y x)"
    assert calls == [
        ("0", "0", Counterexample),
        ("x", "x", Counterexample),
        ("y", "x", Counterexample),
        (ite_max, "(- -1 (+ 2 2))", Counterexample),
        (ite_max, "(ite (<= x y) x y)", Valid),
    ]


@pytest.mark.parametrize("name", sorted(FIXTURE_SOLUTIONS))
def test_acceptance_c5_enumeration_matches_oracle(request, name):
    for _, g in grammars(fixture_problem(request, name)):
        terms = list(enumerate_terms(g, "Start", 4))
        assert len(terms) == len(set(terms))
        assert set(terms) == oracle_terms(g, "Start", 4)


def test_enumeration_of_duplicating_grammar_matches_oracle():
    [(_, g)] = grammars(load_problem(DUPLICATING_GRAMMAR))
    terms = list(enumerate_terms(g, "Start", 5))
    assert len(terms) == len(set(terms))
    assert set(terms) == oracle_terms(g, "Start", 5)


def test_equal_terms_of_one_table_are_one_object():
    [(_, g)] = grammars(load_problem(DUPLICATING_GRAMMAR))
    table = TermTable(g)
    table.exact("Start", 6)
    canonical = {}
    for terms in table.tables.values():
        for term in terms:
            for node in subterms(term):
                assert canonical.setdefault(node, node) is node


def test_closed_is_the_exact_list_without_let_names(max2_min2_problem):
    [(_, g), _] = grammars(max2_min2_problem)
    table = TermTable(g)
    assert table.closed("Start", 3) is table.exact("Start", 3)


@pytest.mark.parametrize(
    "spec, max_size", [(LIA_ITE_UNSOLVABLE, 9), (LET_SUM_UNSOLVABLE, 11)]
)
def test_timeout_is_honoured_while_tables_grow(spec, max_size):
    problem = load_problem(spec)
    cfg = SolverConfig(max_term_size=max_size, timeout_seconds=1.0)
    start = time.monotonic()
    result = solve(problem, cfg)
    assert result == Fail("timeout")
    assert time.monotonic() - start < 4.0


def test_closed_filter_checks_the_deadline():
    [(_, g)] = grammars(load_problem(LET_SUM_UNSOLVABLE))
    deadline = solver._Deadline(None)
    table = TermTable(g, deadline)
    assert len(table.exact("Start", 7)) > 256
    deadline.at = time.monotonic() - 1.0
    with pytest.raises(solver._Timeout):
        table.closed("Start", 7)

"""``solve`` against the plain-table CEGIS loop of ``oracle.plain_solve``.

The solver keeps one term per class of equal values at the invocation
points; the reference enumerates every term.  Both must call ``verify`` on
the same candidates in the same order, get the same verdicts and end with
the same result.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sygus import solver
from sygus.printer import print_term
from sygus.solver import SolverConfig, enumerate_terms, expand_shorthands, solve
from sygus.syntax import App, Binding, IntConst, IntSort, Let, Lit, Ref, term_size

from conftest import FIXTURES, LET_SUM_UNSOLVABLE, load_problem
from oracle import app_heads, calls, free_refs, plain_solve


@contextmanager
def verify_calls():
    """The calls of ``solver.verify`` made inside the block: the candidate
    as printed terms, and the verdict."""
    calls = []
    original = solver.verify

    def recording(candidate, *args, **kwargs):
        result = original(candidate, *args, **kwargs)
        calls.append(({n: print_term(t) for n, t in candidate.items()}, result))
        return result

    with mock.patch.object(solver, "verify", recording):
        yield calls


def assert_same_search(text: str, cfg: SolverConfig):
    problem = load_problem(text)
    with verify_calls() as expected:
        reference = plain_solve(problem, cfg)
    with verify_calls() as got:
        result = solve(problem, cfg)
    assert got == expected
    assert result == reference
    return got


SMALL = dict(grid_radius=2, random_samples=8)

# Two invocation points per counterexample: (x, y) and (y, x).
COMMUTATIVE = """
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int
   ((Start Int (x y 0 1 (+ Start Start) (- Start Start) (ite B Start Start)))
    (B Bool ((<= Start Start) (not B)))))
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) (f y x)))
(constraint (>= (f x y) x))
(constraint (>= (f x y) y))
(check-synth)
"""

# The arguments of the outer application depend on the candidate, so the
# solver keeps every term (identity keys).
NESTED = """
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start) (- Start Start)))))
(declare-var x Int)
(constraint (= (f (f x)) {target}))
(check-synth)
"""

NESTED_THROUGH_LET = """
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start) (- Start Start)))))
(declare-var x Int)
(constraint (let ((a Int (f x))) (= (f a) (+ x 2))))
(check-synth)
"""

# A let grammar whose search lists closed terms over terms with a free z,
# such as (let ((z Int (+ x y))) (+ z z)).
LET_DOUBLE_SUM = (FIXTURES / "let_double_sum.sl").read_text()


@pytest.mark.parametrize(
    "text, max_size",
    [
        (COMMUTATIVE, 8),
        (NESTED.format(target="x"), 5),
        (NESTED.format(target="(+ x 2)"), 5),
        (NESTED_THROUGH_LET, 5),
        (LET_DOUBLE_SUM, 7),
        (LET_SUM_UNSOLVABLE, 7),
        ((FIXTURES / "let_grammar.sl").read_text(), 6),
    ],
    ids=["commutative", "nested", "nested_plus_2", "nested_through_let",
         "let_double_sum", "let_sum_unsolvable", "let_grammar"],
)
def test_same_verify_calls_as_the_plain_search(text, max_size):
    calls = assert_same_search(text, SolverConfig(max_term_size=max_size, **SMALL))
    assert calls


def test_nested_calls_are_detected():
    names = frozenset({"f"})
    nested = [NESTED.format(target="x"), NESTED_THROUGH_LET]
    flat = [COMMUTATIVE, LET_DOUBLE_SUM]
    for text in nested + flat:
        found = []
        for c in load_problem(text).constraints:
            solver._tasks_of(c, {"f": names}, names, found)
        assert bool(found) == (text in nested)


# Untyped constraint terms for the walk that sorts constraints into screens:
# the tasks f and g, built-ins and a UF as heads; universal variables, 0-ary
# task names and literals as leaves; lets whose names shadow the tasks and
# each other, and lets whose unused binding applies f.
TASKS = frozenset({"f", "g"})
LEAF_TERMS = st.one_of(
    st.sampled_from(["x", "y", "f", "g", "a"]).map(Ref),
    st.integers(0, 2).map(lambda v: Lit(IntConst(v))),
)


def _app(head, args):
    return App(head, tuple(args))


def _let(bindings, body):
    return Let(tuple(Binding(n, IntSort(), v) for n, v in bindings), body)


CONSTRAINT_TERMS = st.recursive(
    LEAF_TERMS,
    lambda sub: st.one_of(
        st.builds(_app, st.sampled_from(["f", "g", "+", "and", "uf"]),
                  st.lists(sub, min_size=1, max_size=3)),
        st.builds(_let, st.lists(st.tuples(st.sampled_from(["f", "g", "a"]), sub),
                                 min_size=1, max_size=2, unique_by=lambda b: b[0]), sub),
        st.builds(lambda arg, body: _let([("unused", App("f", (arg,)))], body), sub, sub),
    ),
    max_leaves=12,
)


def tasks_of(t, names=TASKS):
    nested = []
    found = solver._tasks_of(t, {n: frozenset((n,)) for n in names}, names, nested)
    return found, nested


@given(CONSTRAINT_TERMS)
@settings(max_examples=300, deadline=None)
def test_tasks_of_agrees_with_the_three_walks_it_replaced(t):
    found, nested = tasks_of(t)
    assert found == (app_heads(t) | free_refs(t)) & TASKS
    old = []
    calls(t, TASKS, TASKS, old)
    assert nested == old


def test_a_let_value_sees_the_outer_name():
    t = _let([("z", Ref("z"))], App("+", (Ref("z"), Ref("w"))))
    assert tasks_of(t, frozenset({"z", "w"})) == ({"z", "w"}, [])
    # So (f z) in the body applies f to the value of the task z.
    t = _let([("z", App("+", (Ref("z"), Ref("x"))))], App("f", (Ref("z"),)))
    assert tasks_of(t, frozenset({"z", "f"})) == ({"z", "f"}, [t.body])


# Small LIA grammars over x and y: a Start and an Other Int non-terminal
# that may reach each other by unit productions, and a Bool non-terminal.
# Start always has a leaf and two other productions, in any order; it may
# apply the macro inc, and may have a let with its bound name as a leaf.
LEAVES = ["x", "y", "0", "1"]
START = ["(+ Start Start)", "(- Start Start)", "(ite B Start Start)", "Other", "(+ Other 1)",
         "(inc Start)"]
LET = ["z", "(let ((z Int Start)) Start)"]
OTHER = ["x", "y", "1", "Start", "(- Other x)", "(ite B Other x)"]
BOOL = ["(<= Start Start)", "(not B)", "(and B B)", "(= Other Start)", "true"]


def productions(choices, min_size=1):
    return st.lists(st.sampled_from(choices), min_size=min_size, max_size=5, unique=True)


@st.composite
def grammar(draw, name):
    start = draw(productions(LEAVES)) + draw(productions(START, min_size=2))
    if draw(st.booleans()):
        start += LET
    start = " ".join(draw(st.permutations(start)))
    other, bool_ = (" ".join(draw(productions(p))) for p in (OTHER, BOOL))
    return (
        f"(synth-fun {name} ((x Int) (y Int)) Int\n"
        f"   ((Start Int ({start}))\n"
        f"    (Other Int ({other}))\n"
        f"    (B Bool ({bool_}))))\n"
    )


def spec(synth_funs: list[str], constraints: list[str]) -> str:
    lines = ["(set-logic LIA)", "(define-fun inc ((n Int)) Int (+ n 1))", *synth_funs]
    lines += ["(declare-var x Int)", "(declare-var y Int)"]
    lines += [f"(constraint {c})" for c in constraints]
    return "\n".join(lines + ["(check-synth)"])


@st.composite
def solo_constraints(draw, name: str, synth_fun: str):
    """Constraints on ``name``: equal to a term of its grammar of size 3 or
    4 if there is one, so that a solution exists that takes some search,
    and perhaps some others."""
    problem = load_problem(spec([synth_fun], []))
    [task] = problem.synth_tasks
    terms = list(enumerate_terms(expand_shorthands(task, problem, SolverConfig()), "Start", 4))
    target = print_term(draw(st.sampled_from([t for t in terms if term_size(t) > 2] or terms)))
    others = st.sampled_from([
        f"(>= ({name} x y) x)",
        f"(>= ({name} x y) y)",
        f"(= ({name} x y) ({name} y x))",
    ])
    return [f"(= ({name} x y) {target})"] + draw(st.lists(others, max_size=2))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_one_function_grammars_search_like_the_plain_tables(data):
    f = data.draw(grammar("f"))
    text = spec([f], data.draw(solo_constraints("f", f)))
    assert_same_search(text, SolverConfig(max_term_size=5, **SMALL))


JOINT = ["(= (+ (f x y) (g x y)) (+ x y))", "(>= (g x y) (f y x))", "(= (f x y) (g y x))"]


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_two_function_grammars_search_like_the_plain_tables(data):
    f, g = data.draw(grammar("f")), data.draw(grammar("g"))
    constraints = data.draw(solo_constraints("f", f))
    constraints += data.draw(st.lists(st.sampled_from(JOINT), min_size=1, max_size=2, unique=True))
    text = spec([f, g], constraints)
    assert_same_search(text, SolverConfig(max_term_size=4, **SMALL))

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sygus import solver
from sygus.checker import R_INT, UFDecl
from sygus.evaluator import (
    EvalEnv,
    EvalError,
    TermValues,
    UF_INT_HI,
    UF_INT_LO,
    VBool,
    VBV,
    VEnum,
    VInt,
    VReal,
    compile_term,
    eval_term,
    fresh_uf_model,
)
from sygus.lexer import tokenize
from sygus.parser import parse_term
from sygus.solver import SolverConfig, enumerate_terms, expand_shorthands

from conftest import (
    FIXTURES,
    LET_SUM_UNSOLVABLE,
    MAX2_MIN2_BASE,
    UF_DIFF,
    UF_SUM,
    load_problem,
)


def term(text):
    return parse_term(tokenize(text))


EMPTY = load_problem("(constraint true)(check-synth)")


def ev(text, assignment=None, env=None):
    return eval_term(term(text), assignment or {}, env or EvalEnv(EMPTY))


# -- core evaluation ----------------------------------------------------------


def test_let_shadows_outer_binding():
    assert ev("(let ((x Int 1)) x)", {"x": VInt(5)}) == VInt(1)


def test_parallel_let_swaps():
    # Both binding values are read from the outer environment: a=7, b=3.
    got = ev("(let ((a Int b) (b Int a)) (- a b))", {"a": VInt(3), "b": VInt(7)})
    assert got == VInt(4)


def test_conditional_picks_larger():
    got = ev("(ite (<= x y) y x)", {"x": VInt(3), "y": VInt(9)})
    assert got == VInt(9)


def test_boolean_connectives():
    assert ev("(=> false true)") == VBool(True)
    assert ev("(xor true true)") == VBool(False)
    assert ev("(or false)") == VBool(False)
    assert ev("(and true true true)") == VBool(True)
    assert ev("(distinct 1 2)") == VBool(True)


def test_real_arithmetic_is_exact():
    assert ev("(+ 0.1 0.2)") == VReal(Fraction(3, 10))
    assert ev("(/ 1.0 8.0)") == VReal(Fraction(1, 8))


def test_real_division_by_zero():
    with pytest.raises(EvalError) as exc:
        ev("(/ 1.0 0.0)")
    assert exc.value.code == "E-DIV-ZERO"


def test_bv_arithmetic_wraps():
    assert ev("(bvadd #b1111 #b0001)") == VBV(4, 0)
    assert ev("(bvsub #b0000 #b0001)") == VBV(4, 0b1111)


def test_bv_shift_beyond_width_is_zero():
    assert ev("(bvshl #b0001 #b0100)") == VBV(4, 0)
    assert ev("(bvlshr #b1000 #b0110)") == VBV(4, 0)


def test_bvadd_bvneg_cancels_exhaustively_at_width_8():
    env = EvalEnv(EMPTY)
    t = term("(bvadd v (bvneg v))")
    for a in range(256):
        assert eval_term(t, {"v": VBV(8, a)}, env) == VBV(8, 0)


def test_shadowing_law_fuzzed():
    rng = random.Random(19)
    t = term("(let ((x Int c)) x)")
    env = EvalEnv(EMPTY)
    for _ in range(1000):
        outer = VInt(rng.randint(-999, 999))
        c = VInt(rng.randint(-999, 999))
        assert eval_term(t, {"x": outer, "c": c}, env) == c


def test_parallel_let_law_fuzzed():
    rng = random.Random(23)
    lhs = term("(let ((a Int (+ x 1)) (b Int (- y 1))) (- a b))")
    env = EvalEnv(EMPTY)
    for _ in range(300):
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        got = eval_term(lhs, {"x": VInt(x), "y": VInt(y)}, env)
        assert got == VInt((x + 1) - (y - 1))


# -- uninterpreted-function models --------------------------------------------

UF_DECLS = (UFDecl("uf", (R_INT,), R_INT),)


def test_model_is_deterministic():
    a = fresh_uf_model(UF_DECLS, 42)
    b = fresh_uf_model(UF_DECLS, 42)
    points = [(VInt(i),) for i in range(-10, 11)]
    assert [a.query("uf", p) for p in points] == [b.query("uf", p) for p in points]


def test_model_query_is_memoized_and_consistent():
    m = fresh_uf_model(UF_DECLS, 7)
    first = m.query("uf", (VInt(3),))
    assert m.query("uf", (VInt(3),)) == first
    assert m.table[("uf", (VInt(3),))] == first


def test_model_results_stay_in_range():
    m = fresh_uf_model(UF_DECLS, 99)
    for i in range(-20, 21):
        v = m.query("uf", (VInt(i),))
        assert UF_INT_LO <= v.value <= UF_INT_HI


def test_models_across_seeds_disagree_with_any_constant():
    # Over 100 seeds and a small grid, some model maps some point away
    # from 5, so "the function is constantly 5" is not valid for all models.
    found = False
    for seed in range(100):
        m = fresh_uf_model(UF_DECLS, seed)
        for x in range(-5, 6):
            if m.query("uf", (VInt(x),)) != VInt(5):
                found = True
                break
        if found:
            break
    assert found


# Overloaded functions over every sampled sort and the points queried; run
# in this process and in a fresh one.
C3_SETUP = """
from sygus.checker import R_BOOL, R_INT, RBitVec, REnum, UFDecl
from sygus.evaluator import VBool, VBV, VEnum, VInt, fresh_uf_model
COLOR = REnum("Color", ("Red", "Green", "Blue"))
DECLS = (
    UFDecl("u", (R_INT,), R_INT),
    UFDecl("u", (R_BOOL,), R_BOOL),
    UFDecl("h", (R_INT, RBitVec(4)), RBitVec(4)),
    UFDecl("paint", (COLOR,), COLOR),
)
QUERIES = (
    [("u", (VInt(i),)) for i in range(-6, 7)]
    + [("u", (VBool(b),)) for b in (False, True)]
    + [("h", (VInt(i), VBV(4, w))) for i in (-1, 0, 3) for w in (0, 5, 15)]
    + [("paint", (VEnum("Color", k),)) for k in COLOR.constructors]
)
SEEDS = (0, 7, 2**64 - 1)


def model_values(seed, queries):
    model = fresh_uf_model(DECLS, seed)
    return {q: model.query(*q) for q in queries}
"""
C3 = {}
exec(C3_SETUP, C3)


def test_acceptance_c3_model_values_do_not_depend_on_query_order():
    queries = C3["QUERIES"]
    for seed in C3["SEEDS"]:
        forward = C3["model_values"](seed, queries)
        shuffled = list(queries)
        random.Random(seed).shuffle(shuffled)
        assert C3["model_values"](seed, shuffled) == forward
        assert C3["model_values"](seed, reversed(queries)) == forward


def test_acceptance_c3_model_values_repeat_in_a_fresh_process():
    script = C3_SETUP + "for s in SEEDS:\n    print(repr(list(model_values(s, QUERIES).values())))\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="1")
    p = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    here = [repr(list(C3["model_values"](s, C3["QUERIES"]).values())) for s in C3["SEEDS"]]
    assert (p.returncode, p.stdout.splitlines()) == (0, here)


def test_model_rejects_real_sorted_functions():
    from sygus.checker import R_REAL

    with pytest.raises(EvalError) as exc:
        fresh_uf_model((UFDecl("r", (R_REAL,), R_INT),), 0)
    assert exc.value.code == "E-UF-UNSUPPORTED-SORT"


def test_functional_consistency_in_terms(uf_pair_problem):
    env = EvalEnv(uf_pair_problem, candidates={"f": term("(= x y)")})
    t = uf_pair_problem.constraints[0]
    for seed in range(50):
        env.model = fresh_uf_model(uf_pair_problem.uf_decls, seed)
        for x in range(-8, 9):
            assert eval_term(t, {"x": VInt(x)}, env) == VBool(True)


# -- macros -------------------------------------------------------------------

MACRO_PROBLEM = load_problem(
    """
(define-fun double ((n Int)) Int (+ n n))
(define-fun compose ((n Int)) Int (double (double n)))
(declare-var x Int)
(constraint (= (compose x) (double (double x))))
(check-synth)
"""
)


def test_macro_application():
    env = EvalEnv(MACRO_PROBLEM)
    assert eval_term(term("(double 21)"), {}, env) == VInt(42)


def test_macro_calling_macro():
    env = EvalEnv(MACRO_PROBLEM)
    assert eval_term(term("(compose y)"), {"y": VInt(3)}, env) == VInt(12)


def test_macro_let_does_not_capture_the_argument():
    problem = load_problem(
        """
(define-fun shifty ((m Int)) Int (let ((y Int 2)) (+ m y)))
(declare-var y Int)
(constraint (= (shifty y) y))
(check-synth)
"""
    )
    env = EvalEnv(problem)
    # With capture, the caller's y would read as 2 and the result would be 4.
    assert eval_term(term("(shifty y)"), {"y": VInt(10)}, env) == VInt(12)


def test_enum_values_compare_by_sort_identity():
    problem = load_problem(
        """
(define-sort Color (Enum (Red Green)))
(define-sort Paint Color)
(declare-var c Color)
(constraint (= c Paint::Red))
(check-synth)
"""
    )
    env = EvalEnv(problem)
    got = eval_term(term("(= Color::Red Paint::Red)"), {}, env)
    assert got == VBool(True)


# -- the compiled evaluator against the walker ----------------------------------


def evaluate_both(problem, candidates, terms, points, seeds=(0, 1)):
    """Values of ``terms`` at ``points`` under the models of ``seeds``, from
    the walker and from compiled closures, with each model's query table."""
    walker, compiled = EvalEnv(problem, candidates), EvalEnv(problem, candidates)
    variables = dict(problem.universal_vars)
    closures = [compile_term(t, compiled, variables) for t in terms]
    by_walker, by_closures = [], []
    for seed in seeds:
        walker.model = fresh_uf_model(problem.uf_decls, seed)
        compiled.model = fresh_uf_model(problem.uf_decls, seed)
        for point in points:
            by_walker.append([eval_term(t, point, walker) for t in terms])
            by_closures.append([f(point) for f in closures])
        by_walker.append(walker.model.table)
        by_closures.append(compiled.model.table)
    return by_walker, by_closures


def grid_points(problem, cfg):
    names = [n for n, _ in problem.universal_vars]
    domains = [solver._grid_values(s, cfg) for _, s in problem.universal_vars]
    return [dict(zip(names, p)) for p in product(*domains)]


DIFFERENTIAL_PROBLEMS = {
    "max2_min2": (FIXTURES / "max2_min2.sl").read_text(),
    "uf_pair": (FIXTURES / "uf_pair.sl").read_text(),
    "let_grammar": (FIXTURES / "let_grammar.sl").read_text(),
    "max2_min2_base": MAX2_MIN2_BASE,
    "uf_sum": UF_SUM,
    "uf_diff": UF_DIFF,
}


def candidate_tuples(problem, cfg):
    """Every term up to size 4 of every task, the pools cycled together."""
    pools = {
        t.name: list(enumerate_terms(expand_shorthands(t, problem, cfg), "Start", 4))
        for t in problem.synth_tasks
    }
    for i in range(max(map(len, pools.values()))):
        yield {n: pool[i % len(pool)] for n, pool in pools.items()}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PROBLEMS))
def test_compiled_constraints_agree_with_the_walker(name):
    problem = load_problem(DIFFERENTIAL_PROBLEMS[name])
    # A radius-2 grid: 625 points over four variables.
    cfg = SolverConfig(grid_radius=2)
    points = grid_points(problem, cfg)
    for candidates in candidate_tuples(problem, cfg):
        walked, compiled = evaluate_both(problem, candidates, problem.constraints, points)
        assert compiled == walked


# A nested call, a macro and a 0-ary macro in the grammar, and a let
# grammar whose let-bound name is also a leaf.
NESTED_MACRO_LET = """
(set-logic LIA)
(define-fun two () Int 2)
(define-fun inc ((n Int)) Int (let ((one Int 1)) (+ n one)))
(synth-fun f ((x Int)) Int
   ((Start Int (x z two (inc Start) (- Start Start) (let ((z Int Start)) Start)))))
(declare-var x Int)
(constraint (= (f (f x)) (+ x 2)))
(check-synth)
"""

TERM_VALUE_PROBLEMS = {
    **DIFFERENTIAL_PROBLEMS,
    "let_sum": LET_SUM_UNSOLVABLE,
    "nested_macro_let": NESTED_MACRO_LET,
}


@pytest.mark.parametrize("name", sorted(TERM_VALUE_PROBLEMS))
def test_acceptance_c6_term_values_agree_with_the_walker(name):
    problem = load_problem(TERM_VALUE_PROBLEMS[name])
    cfg = SolverConfig(grid_radius=2)
    points = grid_points(problem, cfg)
    walker, env = EvalEnv(problem), EvalEnv(problem)
    # One memo per task for the whole run, as in a solve.
    values = {t.name: TermValues(t, env) for t in problem.synth_tasks}
    for task, tv in values.items():
        env.set_values(task, tv)
    variables = dict(problem.universal_vars)
    checks = [compile_term(c, env, variables) for c in problem.constraints]
    for candidates in candidate_tuples(problem, cfg):
        walker.set_candidates(candidates)
        for task, body in candidates.items():
            values[task].term = body
        for seed in (0, 1):
            walker.model = fresh_uf_model(problem.uf_decls, seed)
            env.model = fresh_uf_model(problem.uf_decls, seed)
            for point in points:
                got = [check(point) for check in checks]
                assert got == [eval_term(c, point, walker) for c in problem.constraints]
            assert env.model.table == walker.model.table


GENERATED = """
(define-sort Color (Enum (Red Green Blue)))
(declare-fun u (Int) Int)
(declare-fun h (Int Bool) Bool)
(declare-fun k ((BitVec 4)) Int)
(declare-fun paint (Color) Color)
(define-fun inc ((n Int)) Int (+ n 1))
(define-fun twice ((n Int)) Int (inc (inc n)))
(define-fun shift ((n Int) (b Bool)) Int (let ((t Int 2) (m Int (twice n))) (ite b (+ m t) m)))
(define-fun bvtwice ((w (BitVec 4))) (BitVec 4) (bvadd w w))
(synth-fun f ((n Int) (b Bool)) Int ((Start Int (n 1 (twice Start) (- Start Start) (ite b Start Start)))))
(declare-var x Int)
(declare-var y Int)
(declare-var p Bool)
(declare-var v (BitVec 4))
(declare-var c Color)
(constraint {constraint})
(check-synth)
"""
CANDIDATE = {"f": parse_term(tokenize("(ite b (twice n) (- n 1))"))}
SURFACE = {"Int": "Int", "Bool": "Bool", "BV": "(BitVec 4)", "Color": "Color"}
LITERALS = {
    "Int": st.integers(-4, 4).map(str),
    "Bool": st.sampled_from(["true", "false"]),
    "BV": st.integers(0, 15).map(lambda n: f"#b{n:04b}"),
    "Color": st.sampled_from(["Color::Red", "Color::Green", "Color::Blue"]),
}
# Rules by result sort: a head and the sorts of its arguments.
RULES = {
    "Int": [("+", "Int Int"), ("-", "Int Int"), ("ite", "Bool Int Int"),
            ("inc", "Int"), ("twice", "Int"), ("shift", "Int Bool"), ("f", "Int Bool"),
            ("u", "Int"), ("k", "BV")],
    "Bool": [("=", "Int Int"), ("=", "BV BV"), ("=", "Color Color"),
             ("distinct", "Bool Bool"), ("and", "Bool Bool Bool"), ("or", "Bool Bool"),
             ("not", "Bool"), ("=>", "Bool Bool"), ("xor", "Bool Bool"),
             ("<=", "Int Int"), ("<", "Int Int"), (">=", "Int Int"), (">", "Int Int"),
             ("bvult", "BV BV"), ("bvule", "BV BV"), ("h", "Int Bool"),
             ("ite", "Bool Bool Bool")],
    "BV": [(op, "BV BV") for op in
           ("bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvshl", "bvlshr")]
          + [("bvnot", "BV"), ("bvneg", "BV"), ("bvtwice", "BV"), ("ite", "Bool BV BV")],
    "Color": [("paint", "Color"), ("ite", "Bool Color Color")],
}
VARIABLES = {"x": "Int", "y": "Int", "p": "Bool", "v": "BV", "c": "Color"}


@st.composite
def term_text(draw, sort, depth=4, scope=None):
    """A well-sorted term of ``sort`` over ``scope``: name -> sort."""
    scope = dict(VARIABLES) if scope is None else scope
    names = [n for n, s in scope.items() if s == sort]
    kind = draw(st.sampled_from(["leaf", "app", "app", "let"] if depth else ["leaf"]))
    if kind == "leaf":
        if names and draw(st.booleans()):
            return draw(st.sampled_from(names))
        return draw(LITERALS[sort])
    if kind == "app":
        head, arg_sorts = draw(st.sampled_from(RULES[sort]))
        if head == "+" and draw(st.booleans()):
            # Linear multiplication needs a literal operand.
            head, arg_sorts = "*", "Int Int"
            args = [draw(LITERALS["Int"]), draw(term_text("Int", depth - 1, scope))]
        else:
            args = [draw(term_text(s, depth - 1, scope)) for s in arg_sorts.split()]
        return f"({head} {' '.join(args)})"
    # A parallel let of one or two names; a name already in scope keeps its
    # sort, so the let shadows it.
    bound = draw(st.lists(st.sampled_from(["x", "p", "t", "s"]), min_size=1,
                          max_size=2, unique=True))
    inner = dict(scope)
    bindings = []
    for name in bound:
        bsort = scope.get(name) or draw(st.sampled_from(sorted(SURFACE)))
        value = draw(term_text(bsort, depth - 1, scope))
        bindings.append(f"({name} {SURFACE[bsort]} {value})")
        inner[name] = bsort
    body = draw(term_text(sort, depth - 1, inner))
    return f"(let ({' '.join(bindings)}) {body})"


@st.composite
def assignments(draw):
    color = draw(st.sampled_from(["Red", "Green", "Blue"]))
    return {
        "x": VInt(draw(st.integers(-6, 6))),
        "y": VInt(draw(st.integers(-6, 6))),
        "p": VBool(draw(st.booleans())),
        "v": VBV(4, draw(st.integers(0, 15))),
        "c": VEnum("Color", color),
    }


@settings(max_examples=300, deadline=None)
@given(
    text=st.sampled_from(sorted(SURFACE)).flatmap(term_text),
    points=st.lists(assignments(), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_compiled_terms_agree_with_the_walker(text, points, seed):
    # Checking confirms that the generated term is well-sorted.
    problem = load_problem(GENERATED.format(constraint=f"(= {text} {text})"))
    [constraint] = problem.constraints
    generated = constraint.args[0]
    walked, compiled = evaluate_both(problem, CANDIDATE, [generated], points, (seed, seed + 1))
    assert compiled == walked


def test_a_call_with_no_candidate_fails_in_both_evaluators():
    problem = load_problem(GENERATED.format(constraint="(= (f x p) 0)"))
    call = problem.constraints[0].args[0]
    point = {"x": VInt(1), "p": VBool(True)}
    with pytest.raises(AssertionError, match="no semantics for 'f'"):
        eval_term(call, point, EvalEnv(problem))
    compiled = compile_term(call, EvalEnv(problem), dict(problem.universal_vars))
    with pytest.raises(AssertionError, match="no semantics for 'f'"):
        compiled(point)

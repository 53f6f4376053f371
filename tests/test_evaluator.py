import random
from fractions import Fraction

import pytest

from sygus.checker import R_INT, UFDecl, check_program
from sygus.evaluator import (
    EvalEnv,
    EvalError,
    UF_INT_HI,
    UF_INT_LO,
    VBool,
    VBV,
    VInt,
    VReal,
    eval_term,
    fresh_uf_model,
)
from sygus.lexer import tokenize
from sygus.parser import parse_term, parse_text

from conftest import load_problem


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

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import groupby, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sygus import prover, solver
from sygus.checker import R_BOOL, R_INT, R_REAL, FuncEntry, RBitVec, REnum
from sygus.evaluator import (
    EvalEnv,
    EvalError,
    Rows,
    UFModel,
    UF_INT_HI,
    UF_INT_LO,
    Value,
    _encode,
    _payload_for_sort,
    columns,
    compile_term,
    eval_term,
    stable_u64,
)
from sygus.lexer import tokenize
from sygus.parser import parse_term
from sygus.solver import (
    GRID_POINT_CAP,
    Counterexample,
    SolverConfig,
    TermTable,
    Valid,
    enumerate_terms,
    expand_shorthands,
)

from conftest import (
    FIXTURES,
    LET_SUM_UNSOLVABLE,
    MAX2_MIN2_BASE,
    MAX3,
    MAX3_SOLUTION,
    UF_DIFF,
    UF_SUM,
    load_problem,
    verify_unproved,
)
from oracle import holds_at, plain_verify


def term(text):
    return parse_term(tokenize(text))


EMPTY = load_problem("(constraint true)(check-synth)")


def ev(text, assignment=None, env=None):
    return eval_term(term(text), assignment or {}, env or EvalEnv(EMPTY))


# -- core evaluation ----------------------------------------------------------


def test_let_shadows_outer_binding():
    assert ev("(let ((x Int 1)) x)", {"x": Value(R_INT, 5)}) == Value(R_INT, 1)


def test_parallel_let_swaps():
    # Both binding values are read from the outer environment: a=7, b=3.
    got = ev("(let ((a Int b) (b Int a)) (- a b))", {"a": Value(R_INT, 3), "b": Value(R_INT, 7)})
    assert got == Value(R_INT, 4)


def test_conditional_picks_larger():
    got = ev("(ite (<= x y) y x)", {"x": Value(R_INT, 3), "y": Value(R_INT, 9)})
    assert got == Value(R_INT, 9)


def test_boolean_connectives():
    assert ev("(=> false true)") == Value(R_BOOL, True)
    assert ev("(xor true true)") == Value(R_BOOL, False)
    assert ev("(or false)") == Value(R_BOOL, False)
    assert ev("(and true true true)") == Value(R_BOOL, True)
    assert ev("(distinct 1 2)") == Value(R_BOOL, True)


def test_real_arithmetic_is_exact():
    assert ev("(+ 0.1 0.2)") == Value(R_REAL, Fraction(3, 10))
    assert ev("(/ 1.0 8.0)") == Value(R_REAL, Fraction(1, 8))


def test_real_division_by_zero():
    with pytest.raises(EvalError) as exc:
        ev("(/ 1.0 0.0)")
    assert exc.value.code == "E-DIV-ZERO"


def test_bv_arithmetic_wraps():
    assert ev("(bvadd #b1111 #b0001)") == Value(RBitVec(4), 0)
    assert ev("(bvsub #b0000 #b0001)") == Value(RBitVec(4), 0b1111)


def test_bv_shift_beyond_width_is_zero():
    assert ev("(bvshl #b0001 #b0100)") == Value(RBitVec(4), 0)
    assert ev("(bvlshr #b1000 #b0110)") == Value(RBitVec(4), 0)


def test_bvadd_bvneg_cancels_exhaustively_at_width_8():
    env = EvalEnv(EMPTY)
    t = term("(bvadd v (bvneg v))")
    for a in range(256):
        assert eval_term(t, {"v": Value(RBitVec(8), a)}, env) == Value(RBitVec(8), 0)


def test_shadowing_law_fuzzed():
    rng = random.Random(19)
    t = term("(let ((x Int c)) x)")
    env = EvalEnv(EMPTY)
    for _ in range(1000):
        outer = Value(R_INT, rng.randint(-999, 999))
        c = Value(R_INT, rng.randint(-999, 999))
        assert eval_term(t, {"x": outer, "c": c}, env) == c


def test_parallel_let_law_fuzzed():
    rng = random.Random(23)
    lhs = term("(let ((a Int (+ x 1)) (b Int (- y 1))) (- a b))")
    env = EvalEnv(EMPTY)
    for _ in range(300):
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        got = eval_term(lhs, {"x": Value(R_INT, x), "y": Value(R_INT, y)}, env)
        assert got == Value(R_INT, (x + 1) - (y - 1))


# -- uninterpreted-function models --------------------------------------------

UF_DECLS = (FuncEntry("uf", "uf", (R_INT,), R_INT, index=0),)


def test_model_is_deterministic():
    a = UFModel(UF_DECLS, 42)
    b = UFModel(UF_DECLS, 42)
    points = [(Value(R_INT, i),) for i in range(-10, 11)]
    assert [a.query(0, p) for p in points] == [b.query(0, p) for p in points]


def test_model_query_is_memoized_and_consistent():
    m = UFModel(UF_DECLS, 7)
    first = m.query(0, (Value(R_INT, 3),))
    assert m.query(0, (Value(R_INT, 3),)) == first
    # One memo per declaration index; a unary function's is keyed by the
    # bare argument payload.
    assert m.memo == [{3: first.value}]


def test_model_results_stay_in_range():
    m = UFModel(UF_DECLS, 99)
    for i in range(-20, 21):
        v = m.query(0, (Value(R_INT, i),))
        assert UF_INT_LO <= v.value <= UF_INT_HI


def test_model_query_at_a_bit_vector_past_the_int_string_limit():
    # The numeral of 2**20000 - 1 has 6,021 digits, past what str() will
    # write; the digest takes the same bytes as at any narrower value.
    wide = RBitVec(20000)
    ones = (1 << 20000) - 1
    model = UFModel((FuncEntry("u", "uf", (wide,), wide, index=0),), 3)
    u = stable_u64(3, "u", b"v20000:" + str(Decimal(ones)).encode())
    assert model.query(0, (Value(wide, ones),)) == Value(wide, u)


def test_models_across_seeds_disagree_with_any_constant():
    # Over 100 seeds and a small grid, some model maps some point away
    # from 5, so "the function is constantly 5" is not valid for all models.
    found = False
    for seed in range(100):
        m = UFModel(UF_DECLS, seed)
        for x in range(-5, 6):
            if m.query(0, (Value(R_INT, x),)) != Value(R_INT, 5):
                found = True
                break
        if found:
            break
    assert found


# Overloaded functions over every sampled sort and the points queried; run
# in this process and in a fresh one.
C3_SETUP = """
from sygus.checker import R_BOOL, R_INT, FuncEntry, RBitVec, REnum
from sygus.evaluator import UFModel, Value
COLOR = REnum("Color", ("Red", "Green", "Blue"))
DECLS = (
    FuncEntry("u", "uf", (R_INT,), R_INT, index=0),
    FuncEntry("u", "uf", (R_BOOL,), R_BOOL, index=1),
    FuncEntry("h", "uf", (R_INT, RBitVec(4)), RBitVec(4), index=2),
    FuncEntry("paint", "uf", (COLOR,), COLOR, index=3),
)
# Queries by declaration index: the two overloads of u are 0 and 1.
QUERIES = (
    [(0, (Value(R_INT, i),)) for i in range(-6, 7)]
    + [(1, (Value(R_BOOL, b),)) for b in (False, True)]
    + [(2, (Value(R_INT, i), Value(RBitVec(4), w))) for i in (-1, 0, 3) for w in (0, 5, 15)]
    + [(3, (Value(COLOR, k),)) for k in COLOR.constructors]
)
SEEDS = (0, 7, 2**64 - 1)


def model_values(seed, queries):
    model = UFModel(DECLS, seed)
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


def test_functional_consistency_in_terms(uf_pair_problem):
    env = EvalEnv(uf_pair_problem, candidates={"f": term("(= x y)")})
    t = uf_pair_problem.constraints[0]
    for seed in range(50):
        env.model = UFModel(uf_pair_problem.uf_decls, seed)
        for x in range(-8, 9):
            assert eval_term(t, {"x": Value(R_INT, x)}, env) == Value(R_BOOL, True)


# Every sampled sort, a nullary and a wide function: each result must be the
# digest of the seed, the name and the encoded arguments.
COLOR = REnum("Color", ("Red", "Green", "Blue"))
DIGEST_DECLS = (
    FuncEntry("u", "uf", (R_INT,), R_INT, index=0),
    FuncEntry("u", "uf", (R_BOOL,), R_BOOL, index=1),
    FuncEntry("h", "uf", (R_INT, RBitVec(4)), RBitVec(4), index=2),
    FuncEntry("paint", "uf", (COLOR,), COLOR, index=3),
    FuncEntry("k", "uf", (), R_INT, index=4),
    FuncEntry("wide", "uf", (RBitVec(70), R_BOOL, R_INT), RBitVec(70), index=5),
)


def payloads(sort):
    if sort == R_INT:
        return st.integers()
    if sort == R_BOOL:
        return st.booleans()
    if isinstance(sort, RBitVec):
        return st.integers(0, (1 << sort.width) - 1)
    return st.sampled_from(sort.constructors)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), data=st.data())
def test_model_results_are_the_digests_of_their_arguments(seed, data):
    # One model answers every query, so each derivation copies a digest
    # state that earlier derivations copied too.
    model = UFModel(DIGEST_DECLS, seed)
    for _ in range(data.draw(st.integers(1, 12))):
        decl = data.draw(st.sampled_from(DIGEST_DECLS))
        args = tuple(data.draw(payloads(s)) for s in decl.arg_sorts)
        u = stable_u64(seed, decl.name, *map(_encode, decl.arg_sorts, args))
        boxed = tuple(Value(s, a) for s, a in zip(decl.arg_sorts, args))
        assert model.query(decl.index, boxed) == Value(decl.ret, _payload_for_sort(decl.ret, u))


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
    assert eval_term(term("(double 21)"), {}, env) == Value(R_INT, 42)


def test_macro_calling_macro():
    env = EvalEnv(MACRO_PROBLEM)
    assert eval_term(term("(compose y)"), {"y": Value(R_INT, 3)}, env) == Value(R_INT, 12)


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
    assert eval_term(term("(shifty y)"), {"y": Value(R_INT, 10)}, env) == Value(R_INT, 12)


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
    assert got == Value(R_BOOL, True)


# A macro and a synthesis function named g, at (Color) and at (Int), and
# enum literals written through the alias sort Paint.
SHARED_NAME = """
(define-sort Color (Enum (Red Green)))
(define-sort Paint Color)
(define-fun g ((c Color)) Int (ite (= c Paint::Red) 1 2))
(synth-fun g ((x Int)) Int ((Start Int (x (g Paint::Green) (+ Start Start)))))
(declare-var x Int)
(declare-var c Color)
(constraint (= (g x) (+ x (g c))))
(check-synth)
"""


def test_a_macro_and_a_synthesis_function_share_a_name():
    problem = load_problem(SHARED_NAME)
    [task] = problem.synth_tasks
    body = term("(+ x (g Paint::Green))")
    both = term("(+ (g x) (g c))")
    points = [{"x": Value(R_INT, x), "c": Value(COLOR, c)} for x in (-1, 3) for c in ("Red", "Green")]
    expected = [p["x"].value + 2 + (1 if p["c"].value == "Red" else 2) for p in points]
    walker = EvalEnv(problem, {"g": body})
    assert [eval_term(both, p, walker) for p in points] == [Value(R_INT, e) for e in expected]
    variables = dict(problem.universal_vars)
    cols = columns(list(variables), [tuple(p[n].value for n in variables) for p in points])
    rows = Rows([(None, len(points))])
    assert compile_term(both, EvalEnv(problem, {"g": body}), variables)(cols, rows) == expected
    # The screens' bindings of g: a _Calls, which records the invocation
    # points with no term set and then reads its term's column in a table
    # at them, and the term compiled on its own.
    env = EvalEnv(problem)
    calls = solver._Calls(task, 0)
    env.bind("g", calls.__call__)
    compile_term(both, env, variables)(cols, rows)
    at = list(calls.index)
    assert at == [(-1,), (3,)]
    table = TermTable(expand_shorthands(task, problem, SolverConfig()), None, env, task.params, at)
    [listed] = [t for t in table.closed("Start", 4) if t == body]
    assert table.column(listed) == (1, 5)
    calls.columns = table._columns
    for binding in (calls, solver._ByTerm(task, problem)):
        binding.set(listed)
        env.bind("g", binding.__call__)
        assert compile_term(both, env, variables)(cols, rows) == expected


# -- the compiled evaluator against the walker ----------------------------------


def interleaved(points, seeds):
    """Each point under each seed in turn, so that neighbouring rows have
    different models."""
    return [(point, seed) for point in points for seed in seeds]


def column_values(fns, sorts, names, rows, models, batch):
    """Per row, the values of the column functions ``fns``, taken in
    batches of ``batch`` rows; a row is a point and the seed of its model,
    and neighbouring rows with one seed form a run.  Each column of payloads
    is boxed with its function's static sort, from ``sorts``."""
    out = []
    for start in range(0, len(rows), batch):
        chunk = rows[start:start + batch]
        cols = columns(names, [tuple(point[n].value for n in names) for point, _ in chunk])
        runs = Rows([
            (models[seed], len(list(run))) for seed, run in groupby(seed for _, seed in chunk)
        ])
        values = [[Value(sort, p) for p in f(cols, runs)] for f, sort in zip(fns, sorts)]
        out.extend(map(list, zip(*values)))
    return out


def walked_values(terms, rows, env, models):
    out = []
    for point, seed in rows:
        env.model = models[seed]
        out.append([eval_term(t, point, env) for t in terms])
    return out


def evaluate_both(problem, candidates, terms, sorts, points, seeds=(0, 1), batches=(1, 96)):
    """Values of ``terms``, of static sorts ``sorts``, at ``points`` under
    the models of ``seeds``, each with the memo of each model: from the
    walker, and from compiled column functions once per batch size in
    ``batches``, in batches that mix the models."""
    walker, compiled = EvalEnv(problem, candidates), EvalEnv(problem, candidates)
    variables = dict(problem.universal_vars)
    fns = [compile_term(t, compiled, variables) for t in terms]
    rows = interleaved(points, seeds)
    models = fresh_models(problem, seeds)
    walked = walked_values(terms, rows, walker, models), tables(models, seeds)
    by_columns = []
    for batch in batches:
        models = fresh_models(problem, seeds)
        values = column_values(fns, sorts, list(variables), rows, models, batch)
        by_columns.append((values, tables(models, seeds)))
    return walked, by_columns


def fresh_models(problem, seeds):
    return {seed: UFModel(problem.uf_decls, seed) for seed in seeds}


def tables(models, seeds):
    return [models[seed].memo for seed in seeds]


def grid_points(problem, cfg):
    names = list(problem.universal_vars)
    domains = [
        [Value(s, v) for v in solver._grid_values(s, cfg)[1]]
        for s in problem.universal_vars.values()
    ]
    return [dict(zip(names, p)) for p in product(*domains)]


# One name declared at Int, Bool and (BitVec 4): a model that kept one entry
# for 1, true and #x1 would answer the overloads alike.
UF_OVERLOADS = """
(declare-fun u (Int) Int)
(declare-fun u (Bool) Int)
(declare-fun u ((BitVec 4)) Int)
(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y 1 (+ Start Start)))))
(declare-var x Int)
(declare-var y Int)
(declare-var v (BitVec 4))
(constraint (= (+ (u (f x y)) (u (<= x y))) (+ (u v) (u (= (f x y) 1)))))
(check-synth)
"""

DIFFERENTIAL_PROBLEMS = {
    "max2_min2": (FIXTURES / "max2_min2.sl").read_text(),
    "uf_pair": (FIXTURES / "uf_pair.sl").read_text(),
    "let_grammar": (FIXTURES / "let_grammar.sl").read_text(),
    "max2_min2_base": MAX2_MIN2_BASE,
    "uf_sum": UF_SUM,
    "uf_diff": UF_DIFF,
    "uf_overloads": UF_OVERLOADS,
}


def candidate_tuples(problem, cfg, pools=None):
    """Every term of ``pools``, by default every term up to size 4 of every
    task, the pools cycled together."""
    if pools is None:
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
    sorts = [R_BOOL] * len(problem.constraints)
    for candidates in candidate_tuples(problem, cfg):
        walked, by_columns = evaluate_both(problem, candidates, problem.constraints, sorts, points)
        assert by_columns == [walked, walked]


# A small verification budget: a radius-2 grid under three models, then 16
# random samples.
VERIFY_CFG = SolverConfig(grid_radius=2, uf_model_count=3, random_samples=16)

# The tests below check verify's testing, which a proof would skip, against
# plain_verify, with the prover giving up (verify_unproved).


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PROBLEMS))
def test_verify_agrees_with_plain_verify(name):
    problem = load_problem(DIFFERENTIAL_PROBLEMS[name])
    for candidates in candidate_tuples(problem, VERIFY_CFG):
        got = verify_unproved(candidates, problem, VERIFY_CFG)
        assert got == plain_verify(candidates, problem, VERIFY_CFG)


def test_verify_tests_what_the_prover_cannot_prove(monkeypatch):
    # At radius 11 the grid of three Int variables is cut at 10,000 of its
    # 23 ** 3 points, so over 10,000 rows are left after the first chunk and
    # verify tries a proof.  The case y > x, z > y needs z > x, a sum of two
    # facts: the prover gives up, and verify tests the candidate.
    real, attempts = prover.proves, []

    def recording(*args):
        attempts.append(real(*args))
        return attempts[-1]

    monkeypatch.setattr(prover, "proves", recording)
    problem = load_problem(MAX3)
    candidate = {"f": term(MAX3_SOLUTION)}
    cfg = SolverConfig(grid_radius=11)
    got = solver.verify(candidate, problem, cfg)
    assert attempts == [False]
    assert got == plain_verify(candidate, problem, cfg)
    assert got == Valid(10_000, 23**3, 0, 256, False)


def uf_sum_wrong_under_the_second_model(indices, cfg=VERIFY_CFG):
    """A uf_sum candidate that is wrong at the grid points of ``indices``
    under the second sampled model of ``cfg`` only: at each it adds to
    ``(+ a b)`` an amount that the first model maps to the same value and
    the second does not."""
    problem = load_problem(UF_SUM)
    points = grid_points(problem, cfg)
    first, second = cfg.seed, cfg.seed + 1
    models = fresh_models(problem, (first, second))

    def agrees(seed, m, n):
        return models[seed].query(0, (Value(R_INT, m),)) == models[seed].query(0, (Value(R_INT, n),))

    body = "(+ a b)"
    for index in indices:
        point = points[index]
        total = point["a"].value + point["b"].value
        delta = next(
            d for d in range(1, 10_000)
            if agrees(first, total, total + d) and not agrees(second, total, total + d)
        )
        at = " ".join(f"(= {n} {v.value})" for n, v in point.items())
        body = f"(ite (and {at}) (+ (+ a b) {delta}) {body})"
    return problem, {"f": term(body)}, points


def test_verify_reports_the_first_failure_under_a_later_model():
    # The three models are one window.  A chunk holds one more point than
    # the stream has checked, up to solver.CHUNK_CAP (256), and ends at the
    # grid's last point (625 points): chunks of 1, 2, 4, ..., 256 and 114
    # points, each checked under the three models at once.  So points 300
    # and 350 both lie inside the chunk of points 255-510, off its
    # boundaries, where the second model fails at both.
    assert solver.CHUNK_CAP == 256
    problem, candidate, points = uf_sum_wrong_under_the_second_model([350, 300])
    got = verify_unproved(candidate, problem, VERIFY_CFG)
    assert got == plain_verify(candidate, problem, VERIFY_CFG)
    assert got == Counterexample(points[300], 1)


# The grid of radius 5 over four variables has 11 ** 4 points, past
# GRID_POINT_CAP: a window's chunks end at its 10,000th.
CAPPED_CFG = SolverConfig(grid_radius=5, uf_model_count=3, random_samples=16)


@pytest.mark.parametrize(
    "cfg, index",
    [(VERIFY_CFG, 0), (CAPPED_CFG, 0), (CAPPED_CFG, GRID_POINT_CAP - 1)],
    ids=["first-point", "first-point-capped", "last-capped-point"],
)
def test_verify_reports_a_failure_at_the_edge_of_a_model(cfg, index):
    # Wrong under the second model only, at the point that starts its first
    # chunk or ends its last.
    problem, candidate, points = uf_sum_wrong_under_the_second_model([index], cfg)
    got = verify_unproved(candidate, problem, cfg)
    assert got == plain_verify(candidate, problem, cfg)
    assert got == Counterexample(points[index], cfg.seed + 1)


def uf_sum_wrong_at(rows, cfg):
    """A uf_sum candidate that is wrong at exactly ``rows``: pairs of a
    sampled model's place among the models of ``cfg`` (0 for the first)
    and the index of a grid point.  The candidate is ``(+ a b)``, except at
    each of those points when uf's values at a few probe arguments are
    those of that model, which no other model of ``cfg`` shares: there it
    adds to ``(+ a b)`` an amount that the model maps to another value.
    So the candidate applies uf itself, and depends on the model."""
    problem = load_problem(UF_SUM)
    points = grid_points(problem, cfg)
    seeds = [cfg.seed + m for m in range(cfg.uf_model_count)]
    models = fresh_models(problem, seeds)

    def uf(seed, n):
        return models[seed].query(0, (Value(R_INT, n),)).value

    body = "(+ a b)"
    for place, index in rows:
        seed = seeds[place]
        probes = []
        while any(all(uf(s, n) == uf(seed, n) for n in probes) for s in seeds if s != seed):
            probes.append(1000 + len(probes))
        point = points[index]
        total = point["a"].value + point["b"].value
        delta = next(d for d in range(1, 10_000) if uf(seed, total + d) != uf(seed, total))
        at = [f"(= {n} {v.value})" for n, v in point.items()]
        at += [f"(= (uf {n}) {uf(seed, n)})" for n in probes]
        body = f"(ite (and {' '.join(at)}) (+ (+ a b) {delta}) {body})"
    return problem, {"f": term(body)}, points


def test_verify_reports_the_first_models_late_failure_over_a_later_models_early_one():
    # One window of three models: the first chunk, point 0, fails under the
    # second model only, and the first model fails only at point 600, in
    # the window's last chunk.  Model-major order puts the first model's
    # rows first.
    problem, candidate, points = uf_sum_wrong_at([(0, 600), (1, 0)], VERIFY_CFG)
    got = verify_unproved(candidate, problem, VERIFY_CFG)
    assert got == plain_verify(candidate, problem, VERIFY_CFG)
    assert got == Counterexample(points[600], VERIFY_CFG.seed)


@pytest.mark.parametrize(
    "second, third", [(500, 3), (3, 500)], ids=["third-fails-earlier", "third-fails-later"]
)
def test_verify_reports_the_earlier_of_two_failing_models(second, third):
    # Right under the first model, wrong under the second and the third at
    # one point each, in different chunks: whichever fails first, the
    # second model's failure is the result.
    rows = [(1, second), (2, third)]
    problem, candidate, points = uf_sum_wrong_at(rows, VERIFY_CFG)
    got = verify_unproved(candidate, problem, VERIFY_CFG)
    assert got == plain_verify(candidate, problem, VERIFY_CFG)
    assert got == Counterexample(points[second], VERIFY_CFG.seed + 1)


# Two full windows of models and one model more.
WINDOWS_CFG = SolverConfig(
    grid_radius=2, uf_model_count=2 * solver.MODEL_WINDOW + 1, random_samples=16
)


@pytest.mark.parametrize("index", [0, 400, 624], ids=["first-point", "inside", "last-point"])
def test_verify_reports_a_failure_in_the_last_window(index):
    last = WINDOWS_CFG.uf_model_count - 1
    problem, candidate, points = uf_sum_wrong_at([(last, index)], WINDOWS_CFG)
    got = verify_unproved(candidate, problem, WINDOWS_CFG)
    assert got == plain_verify(candidate, problem, WINDOWS_CFG)
    assert got == Counterexample(points[index], WINDOWS_CFG.seed + last)


def test_a_failure_under_the_first_model_makes_one_window_of_models(monkeypatch):
    # At the default 32 models, wrong under the first at the last point of
    # the capped grid: no model past the first window is made.
    cfg = SolverConfig(grid_radius=5, random_samples=16)
    assert cfg.uf_model_count == 32
    problem, candidate, points = uf_sum_wrong_at([(0, GRID_POINT_CAP - 1)], cfg)
    made = []

    class Counted(UFModel):
        def __init__(self, decls, seed):
            made.append(seed)
            super().__init__(decls, seed)

    monkeypatch.setattr(solver, "UFModel", Counted)
    got = verify_unproved(candidate, problem, cfg)
    assert got == Counterexample(points[GRID_POINT_CAP - 1], cfg.seed)
    assert 0 < len(made) <= solver.MODEL_WINDOW == 8


TWO_BOUNDS = """
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))
(declare-var x Int)
(constraint (<= (f x) 3))
(constraint (>= (f x) -1))
(check-synth)
"""


def test_verify_reports_the_first_row_over_all_constraints():
    # The grid x = -5..5 is taken in chunks of 1, 2, 4 and 4 rows.  The
    # first constraint fails only at x = 1, the second only at x = -1, and
    # both lie in the chunk x = -2..1.
    problem = load_problem(TWO_BOUNDS)
    candidate = {"f": term("(ite (= x 1) 10 (ite (= x -1) -10 0))")}
    got = verify_unproved(candidate, problem, SolverConfig())
    assert got == plain_verify(candidate, problem, SolverConfig())
    assert got == Counterexample({"x": Value(R_INT, -1)}, 0)


def test_verify_reports_a_random_sample_like_plain_verify(max2_min2_problem):
    # Right on the radius-2 grid, wrong wherever x > 2.
    candidate = {
        "max2": term("(ite (<= x 2) (ite (<= x y) y x) (- x 1))"),
        "min2": term("(ite (<= x y) x y)"),
    }
    got = verify_unproved(candidate, max2_min2_problem, VERIFY_CFG)
    assert got == plain_verify(candidate, max2_min2_problem, VERIFY_CFG)
    assert isinstance(got, Counterexample) and got.assignment["x"].value > 2


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
    """The values the search gives its terms, against the walker: each
    listed closed term's column in a table at the invocation points of the
    store (and at none), and the constraints with every task bound as the
    screens bind it to its current term."""
    problem = load_problem(TERM_VALUE_PROBLEMS[name])
    cfg = SolverConfig(grid_radius=2)
    rows = interleaved(grid_points(problem, cfg), (0, 1))
    # The store's rows are payloads.
    store = [(tuple(p[n].value for n in problem.universal_vars), seed) for p, seed in rows]
    # The invocation points, recorded as solve records them: each task
    # bound to a _Calls with no term, the constraints evaluated at the store.
    env = EvalEnv(problem)
    calls = {t.name: solver._Calls(t, solver._grid_values(t.ret, cfg)[1][0])
             for t in problem.synth_tasks}
    for task, binding in calls.items():
        env.bind(task, binding.__call__)
    variables = dict(problem.universal_vars)
    checks = [compile_term(c, env, variables) for c in problem.constraints]
    batch, batch_rows = solver._batch(list(variables), store, fresh_models(problem, (0, 1)).get)
    for check in checks:
        check(batch, batch_rows)
    at = {n: list(b.index) for n, b in calls.items()}
    tables, pools = {}, {}
    for task in problem.synth_tasks:
        g = expand_shorthands(task, problem, cfg)
        for points in ([], at[task.name]):
            table = tables[task.name] = TermTable(g, None, env, task.params, points)
            bindings = [
                {n: Value(s, p) for (n, s), p in zip(task.params, point)} for point in points
            ]
            for nt, size in product(g.nts, range(1, 5)):
                for t in table.closed(nt, size):
                    assert table.column(t) == tuple(eval_term(t, b, env).value for b in bindings)
        pools[task.name] = [t for size in range(1, 5) for t in table.closed("Start", size)]
    names = frozenset(tables)
    nested = []
    for c in problem.constraints:
        solver._tasks_of(c, {n: frozenset((n,)) for n in names}, names, nested)
    if nested:
        # The arguments depend on the candidate: each term is evaluated.
        bound = {t.name: solver._ByTerm(t, problem) for t in problem.synth_tasks}
        candidates = candidate_tuples(problem, cfg)
        for task, binding in bound.items():
            env.bind(task, binding.__call__)
        checks = [compile_term(c, env, variables) for c in problem.constraints]
    else:
        # The checks that recorded the points read the terms' columns now.
        bound = calls
        for n, b in calls.items():
            b.columns = tables[n]._columns
        candidates = candidate_tuples(problem, cfg, pools)
    sorts = [R_BOOL] * len(checks)
    for candidate in candidates:
        walker = EvalEnv(problem, candidate)
        for task, body in candidate.items():
            bound[task].set(body)
        walker_models = fresh_models(problem, (0, 1))
        walked = walked_values(problem.constraints, rows, walker, walker_models)
        for batch in (1, 96):
            models = fresh_models(problem, (0, 1))
            got = column_values(checks, sorts, list(variables), rows, models, batch)
            assert got == walked
            for seed in (0, 1):
                assert models[seed].memo == walker_models[seed].memo


# Every fixture, and the problems of the term-value test: the tables keyed
# by columns, a let grammar, and calls that nest (plain tables).
SCREENED_PROBLEMS = {
    **TERM_VALUE_PROBLEMS,
    "let_double_sum": (FIXTURES / "let_double_sum.sl").read_text(),
    "nested_call": (FIXTURES / "nested_call.sl").read_text(),
}


@pytest.mark.parametrize("name", sorted(SCREENED_PROBLEMS))
def test_each_verified_tuple_holds_at_every_earlier_counterexample(name, monkeypatch):
    """What lets ``verify`` skip the counterexamples of earlier calls: in a
    solve, each tuple that reaches it holds, by the walker, at every
    counterexample it returned before."""
    problem = load_problem(SCREENED_PROBLEMS[name])
    found, verified = [], []
    original = solver.verify

    def screened(candidate, problem, cfg, **kwargs):
        assert holds_at(found, candidate, problem)
        verified.append(len(found))
        result = original(candidate, problem, cfg, **kwargs)
        if isinstance(result, Counterexample):
            found.append((result.assignment, result.uf_seed))
        return result

    monkeypatch.setattr(solver, "verify", screened)
    solver.solve(problem, SolverConfig(max_term_size=7))
    assert verified


GENERATED = """
(define-sort Color (Enum (Red Green Blue)))
(declare-fun u (Int) Int)
(declare-fun u (Bool) Int)
(declare-fun h (Int Bool) Bool)
(declare-fun k ((BitVec 4)) Int)
(declare-fun k (Int) Int)
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
RESOLVED = {"Int": R_INT, "Bool": R_BOOL, "BV": RBitVec(4), "Color": REnum("Color", ())}
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
            ("u", "Int"), ("u", "Bool"), ("k", "BV"), ("k", "Int")],
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
        "x": Value(R_INT, draw(st.integers(-6, 6))),
        "y": Value(R_INT, draw(st.integers(-6, 6))),
        "p": Value(R_BOOL, draw(st.booleans())),
        "v": Value(RBitVec(4), draw(st.integers(0, 15))),
        "c": Value(COLOR, color),
    }


@settings(max_examples=300, deadline=None)
@given(
    sort_and_text=st.sampled_from(sorted(SURFACE)).flatmap(
        lambda sort: term_text(sort).map(lambda text: (sort, text))
    ),
    points=st.lists(assignments(), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
    batch=st.integers(2, 5),
)
def test_compiled_terms_agree_with_the_walker(sort_and_text, points, seed, batch):
    sort, text = sort_and_text
    # Checking confirms that the generated term is well-sorted.
    problem = load_problem(GENERATED.format(constraint=f"(= {text} {text})"))
    [constraint] = problem.constraints
    generated = constraint.args[0]
    walked, by_columns = evaluate_both(
        problem, CANDIDATE, [generated], [RESOLVED[sort]], points, (seed, seed + 1), (1, batch)
    )
    assert by_columns == [walked, walked]


# Unary and binary functions, and one name at Int, Bool and (BitVec 4): the
# payloads 1, true and #x1 are equal as Python objects, so a memo shared by
# the overloads would answer them alike.
UF_APPLICATIONS = load_problem(
    """
(declare-fun u (Int) Int)
(declare-fun u (Bool) Int)
(declare-fun u ((BitVec 4)) Int)
(declare-fun w (Int (BitVec 4)) Bool)
(declare-var x Int)
(declare-var p Bool)
(declare-var v (BitVec 4))
(constraint (w (+ (u x) (u p)) v))
(check-synth)
"""
)
UF_TERMS = [
    term("(u x)"), term("(u p)"), term("(u v)"), term("(w x v)"),
    term("(u (w (u x) v))"), term("(w (+ (u p) (u v)) (bvadd v #x1))"),
]
UF_TERM_SORTS = [R_INT, R_INT, R_INT, R_BOOL, R_INT, R_BOOL]


@settings(max_examples=150, deadline=None)
@example(rows=[(1, True, 1, 0)] * 3, one_model=True, seed=0, batch=3)
@given(
    rows=st.lists(
        st.tuples(st.integers(-2, 2), st.booleans(), st.integers(0, 15), st.integers(0, 2)),
        min_size=1, max_size=20,
    ),
    one_model=st.booleans(),
    seed=st.integers(0, 2**64 - 3),
    batch=st.integers(1, 8),
)
def test_compiled_uf_applications_agree_with_queries(rows, one_model, seed, batch):
    # A row's model is the seed plus its drawn offset, or the seed alone when
    # every row shares one model.  ``column_values`` makes neighbouring rows
    # with one model a run: one run per batch when they all share it, runs
    # of mixed lengths otherwise.
    rows = [
        ({"x": Value(R_INT, x), "p": Value(R_BOOL, p), "v": Value(RBitVec(4), v)}, seed + (0 if one_model else k))
        for x, p, v, k in rows
    ]
    seeds = sorted({s for _, s in rows})
    variables = dict(UF_APPLICATIONS.universal_vars)
    env = EvalEnv(UF_APPLICATIONS)
    fns = [compile_term(t, env, variables) for t in UF_TERMS]
    models = fresh_models(UF_APPLICATIONS, seeds)
    got = column_values(fns, UF_TERM_SORTS, list(variables), rows, models, batch)
    walker_models = fresh_models(UF_APPLICATIONS, seeds)
    assert got == walked_values(UF_TERMS, rows, EvalEnv(UF_APPLICATIONS), walker_models)
    # Each model records the points that the walker's queries record.
    assert tables(models, seeds) == tables(walker_models, seeds)


# Points for the examples below: two rows, so that a column repeated per
# model is told apart from one computed per row.
WINDOW_POINTS = [
    {"x": Value(R_INT, 1), "y": Value(R_INT, -2), "p": Value(R_BOOL, True),
     "v": Value(RBitVec(4), 3), "c": Value(COLOR, "Green")},
    {"x": Value(R_INT, -3), "y": Value(R_INT, 0), "p": Value(R_BOOL, False),
     "v": Value(RBitVec(4), 12), "c": Value(COLOR, "Red")},
]


@settings(max_examples=200, deadline=None)
# A root that applies no uninterpreted function; one applied to arguments
# that apply none; a column that applies none read by a part that does; a
# let that binds a value that depends on the model next to one that does
# not; a macro and the candidate called on arguments that depend on it.
@example(sort_and_text=("Int", "(+ x (* 2 (twice y)))"), points=WINDOW_POINTS, seed=5, k=3)
@example(sort_and_text=("Int", "(u (+ x 1))"), points=WINDOW_POINTS, seed=5, k=3)
@example(sort_and_text=("Bool", "(h (twice y) (<= (u x) y))"), points=WINDOW_POINTS, seed=5, k=3)
@example(
    sort_and_text=("Int", "(let ((t Int (u x)) (s Int (+ y 1))) (+ (* 2 t) (k (+ s x))))"),
    points=WINDOW_POINTS, seed=5, k=3,
)
@example(sort_and_text=("Int", "(shift (u x) p)"), points=WINDOW_POINTS, seed=5, k=3)
@example(sort_and_text=("Int", "(f (k v) (h x p))"), points=WINDOW_POINTS, seed=5, k=3)
@example(
    sort_and_text=("Color", "(paint (ite (h x p) c Color::Red))"), points=WINDOW_POINTS, seed=5, k=3
)
@given(
    sort_and_text=st.sampled_from(sorted(SURFACE)).flatmap(
        lambda sort: term_text(sort).map(lambda text: (sort, text))
    ),
    points=st.lists(assignments(), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
    k=st.integers(1, 4),
)
def test_a_batch_over_k_models_is_k_batches_of_one_model(sort_and_text, points, seed, k):
    # What verify's windows rest on: one batch whose Rows repeat its
    # columns once for each of k models gives what k batches of one model
    # each give, one after the other, and queries each model at the same
    # points.
    sort, text = sort_and_text
    problem = load_problem(GENERATED.format(constraint=f"(= {text} {text})"))
    generated = problem.constraints[0].args[0]
    variables = dict(problem.universal_vars)
    fn = compile_term(generated, EvalEnv(problem, CANDIDATE), variables)
    names = list(variables)
    cols = columns(names, [tuple(p[n].value for n in names) for p in points])
    seeds = [seed + i for i in range(k)]
    window, alone = fresh_models(problem, seeds), fresh_models(problem, seeds)
    got = fn(cols, Rows([(window[s], len(points)) for s in seeds], k))
    expected = []
    for s in seeds:
        expected += fn(cols, Rows([(alone[s], len(points))]))
    assert list(got) == expected
    assert tables(window, seeds) == tables(alone, seeds)


def test_a_call_with_no_candidate_fails_in_both_evaluators():
    problem = load_problem(GENERATED.format(constraint="(= (f x p) 0)"))
    call = problem.constraints[0].args[0]
    point = {"x": Value(R_INT, 1), "p": Value(R_BOOL, True)}
    with pytest.raises(AssertionError, match="no semantics for 'f'"):
        eval_term(call, point, EvalEnv(problem))
    # Payloads need every sort at compile time, so the compiler fails there.
    with pytest.raises(AssertionError, match="no semantics for 'f'"):
        compile_term(call, EvalEnv(problem), dict(problem.universal_vars))

import gc
import math
import time

import pytest

from sygus import prover, solver
from sygus.checker import R_BOOL, R_INT, RBitVec
from sygus.lexer import tokenize
from sygus.parser import parse_term
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
    verify,
)
from sygus.evaluator import EvalEnv, Value, eval_term
from sygus.syntax import subterms

from conftest import (
    BOOL_BV4,
    FIXTURE_SOLUTIONS,
    FIXTURES,
    LET_SUM_UNSOLVABLE,
    LIA_ITE_UNSOLVABLE,
    MAX2_MIN2_BASE,
    MAX3,
    UF_DIFF,
    UF_GUARDED,
    UF_SUM,
    collector_paused,
    load_problem,
    verify_unproved,
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
        (task.name, expand_shorthands(task, problem, cfg))
        for task in problem.synth_tasks
    ]


@pytest.mark.parametrize("name", sorted(FIXTURE_SOLUTIONS))
def test_acceptance_c2_golden_solution(request, name):
    problem = fixture_problem(request, name)
    result = solve(problem, SolverConfig())
    assert isinstance(result, Solved)
    text = print_solution(result.terms, problem.synth_tasks)
    assert text == FIXTURE_SOLUTIONS[name]


def test_acceptance_c8_two_solves_print_identical_bytes(max2_min2_problem):
    texts = []
    for _ in range(2):
        result = solve(max2_min2_problem, SolverConfig())
        texts.append(print_solution(result.terms, max2_min2_problem.synth_tasks))
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


def int_cex(**values):
    return Counterexample({n: Value(R_INT, v) for n, v in values.items()}, 0)


# The let path of the term tables, and the plain tables where a call of f
# sits in the arguments of another.
@pytest.mark.parametrize(
    "fixture, stream",
    [
        ("let_double_sum.sl", [
            ("x", int_cex(x=-5, y=-5)),
            ("(+ x (+ x (+ x x)))", int_cex(x=-5, y=-4)),
            ("(+ x (+ x (+ y y)))", Valid(121, 121, 0, 256, False)),
        ]),
        ("nested_call.sl", [
            ("x", int_cex(y=-5)),
            ("(+ x 1)", Valid(11, 11, 0, 256, False)),
        ]),
    ],
)
def test_one_function_verify_stream(fixture, stream, monkeypatch):
    calls = []
    original = solver.verify

    def recording(candidate, *args, **kwargs):
        result = original(candidate, *args, **kwargs)
        calls.append((print_term(candidate["f"]), result))
        return result

    monkeypatch.setattr(solver, "verify", recording)
    solve(load_problem((FIXTURES / fixture).read_text()), SolverConfig())
    assert calls == stream


@pytest.mark.parametrize("fixture", ["max2_min2.sl", "nested_call.sl"])
def test_each_constraint_compiles_once_per_solve(fixture, monkeypatch):
    # solve compiles each constraint once; verify once per call.
    problem = load_problem((FIXTURES / fixture).read_text())
    constraints = {id(c) for c in problem.constraints}
    counts = {"compiles": 0, "verifies": 0}
    compile_term, verify = solver.compile_term, solver.verify

    def compiling(t, *args):
        counts["compiles"] += id(t) in constraints
        return compile_term(t, *args)

    def verifying(*args, **kwargs):
        counts["verifies"] += 1
        return verify(*args, **kwargs)

    monkeypatch.setattr(solver, "compile_term", compiling)
    monkeypatch.setattr(solver, "verify", verifying)
    assert isinstance(solve(problem, SolverConfig()), Solved)
    if fixture == "max2_min2.sl":
        assert counts["verifies"] == 5  # so five passes
    assert counts["compiles"] == len(problem.constraints) * (1 + counts["verifies"])


def cex(a, b, c, d, uf_seed):
    values = dict(a=a, b=b, c=c, d=d)
    return {n: Value(R_INT, v) for n, v in values.items()}, uf_seed


# Each verify call of the benchmark's verify_uf problems (8 sampled models)
# and of uf_binary.sl, a binary UF like uf_diff's, at the default 32 models,
# four full windows of solver.MODEL_WINDOW: the candidate, the result type,
# and a counterexample's point and UF seed.  More than 10,000 rows are left
# after the first grid chunk, its first point under the first window of
# models, so the Valid verdict is a proof, which rests on that chunk alone.
@pytest.mark.parametrize(
    "spec, models, expected",
    [
        (UF_SUM, 8, [
            ("a", Counterexample, cex(-5, -5, -5, -5, 0)),
            ("(+ a a)", Counterexample, cex(-5, -4, -5, -5, 0)),
            ("(+ a b)", Valid, None),
        ]),
        (UF_DIFF, 8, [
            ("a", Counterexample, cex(-5, -5, -5, -4, 0)),
            ("(- a a)", Counterexample, cex(-5, -5, -4, -5, 0)),
            ("(- a c)", Valid, None),
        ]),
        ((FIXTURES / "uf_binary.sl").read_text(), 32, [
            ("a", Counterexample, cex(-5, -5, -5, -4, 0)),
            ("(- a a)", Counterexample, cex(-5, -5, -4, -5, 0)),
            ("(- a c)", Valid, None),
        ]),
    ],
    ids=["uf_sum", "uf_diff", "uf_binary"],
)
def test_verify_uf_verify_stream(spec, models, expected, monkeypatch):
    calls = []
    original = solver.verify

    def recording(candidate, *args, **kwargs):
        result = original(candidate, *args, **kwargs)
        found = None
        if isinstance(result, Counterexample):
            found = (result.assignment, result.uf_seed)
        calls.append((print_term(candidate["f"]), type(result), found))
        return result

    monkeypatch.setattr(solver, "verify", recording)
    result = solve(load_problem(spec), SolverConfig(uf_model_count=models))
    assert calls == expected
    assert result.evidence == Valid(
        grid_points=1, grid_size=11**4, uf_models=solver.MODEL_WINDOW, random_samples=0,
        exhaustive=False, proved=True,
    )
    assert result.evidence.truncated


# verify asks the prover once for each candidate whose first grid chunk
# passes, where more than GRID_POINT_CAP rows are left to test.  uf_sum's
# first candidate, a, fails at the first point (test_verify_uf_verify_stream):
# no attempt; its other two pass it.  max2_min2's grid of 121 points and
# 256 samples leave fewer rows: no attempt at all.
@pytest.mark.parametrize(
    "spec, cfg, attempted",
    [
        (UF_SUM, SolverConfig(uf_model_count=8), ["(+ a a)", "(+ a b)"]),
        ((FIXTURES / "max2_min2.sl").read_text(), SolverConfig(), []),
    ],
    ids=["uf_sum", "max2_min2"],
)
def test_verify_tries_a_proof_once_the_first_point_passes(spec, cfg, attempted, monkeypatch):
    real, attempts = prover.proves, []

    def recording(candidate, *args):
        attempts.append(" ".join(map(print_term, candidate.values())))
        return real(candidate, *args)

    monkeypatch.setattr(prover, "proves", recording)
    assert isinstance(solve(load_problem(spec), cfg), Solved)
    assert attempts == attempted


@pytest.mark.parametrize("candidate, verdict", [("(+ a c)", Valid), ("(+ a a)", Counterexample)])
def test_an_unproved_verify_tests_each_row_once(candidate, verdict, monkeypatch):
    # The first grid point passes under the first window of models, and the
    # prover cannot prove either candidate (the valid one needs the fact
    # c = d): the grid walk goes on from the second point, so each point is
    # checked once per model, and the first failing row is the one testing
    # alone finds.
    rows = []
    original = solver._first_false

    def counting(checks, names, points, batch):
        rows.append(sum(n for _, n in batch.runs))
        return original(checks, names, points, batch)

    monkeypatch.setattr(solver, "_first_false", counting)
    problem = load_problem(UF_GUARDED)
    body = {"f": parse_term(tokenize(candidate))}
    cfg = SolverConfig(uf_model_count=8)
    result = verify(body, problem, cfg)
    assert isinstance(result, verdict)
    assert not prover.proves(body, problem, solver._Deadline(None))
    tested = sum(rows)
    rows.clear()
    assert result == verify_unproved(body, problem, cfg)
    assert tested == sum(rows)
    if verdict is Valid:
        assert tested == 8 * result.grid_points + result.random_samples == 80_256


# A whole finite grid, but models of an uninterpreted function are samples.
BOOL_UF = """
(declare-fun u (Bool) Bool)
(synth-fun f ((p Bool)) Bool ((Start Bool (p (not Start)))))
(declare-var p Bool)
(constraint (= (u (f p)) (u p)))
(check-synth)
"""


@pytest.mark.parametrize(
    "spec, evidence",
    [
        (BOOL_BV4, Valid(32, 32, uf_models=0, random_samples=0, exhaustive=True)),
        (BOOL_UF, Valid(2, 2, uf_models=32, random_samples=256, exhaustive=False)),
    ],
    ids=["bool_bv4", "bool_uf"],
)
def test_valid_on_a_whole_finite_grid(spec, evidence):
    result = solve(load_problem(spec), SolverConfig())
    assert result.evidence == evidence
    assert not result.evidence.truncated


BV2, BV4, BV8, BV12 = RBitVec(2), RBitVec(4), RBitVec(8), RBitVec(12)


# Right everywhere but at #x99, which is not among the eleven sampled values
# of an 8-bit sort.
BV8_ONE_POINT = """
(set-logic BV)
(synth-fun f ((x (BitVec 8))) (BitVec 8)
   ((Start (BitVec 8) ((Constant (BitVec 8)) x (bvand Start Start) (ite B Start Start)))
    (B Bool ((= Start Start)))))
(declare-var x (BitVec 8))
(constraint (= (f x) (ite (= x #x99) #x00 x)))
(check-synth)
"""


def test_a_bit_vector_grid_under_the_cap_is_checked_whole():
    problem = load_problem(BV8_ONE_POINT)
    cfg = SolverConfig()
    assert verify(bodies(f="x"), problem, cfg) == Counterexample({"x": Value(BV8, 0x99)}, 0)
    assert verify(bodies(f="(ite (= x #x99) #x00 x)"), problem, cfg) == Valid(
        256, 256, uf_models=0, random_samples=0, exhaustive=True
    )
    assert solve(problem, SolverConfig(max_term_size=4)) == Fail("exhausted")


# Right everywhere but at x = #x02a, which is not among the eleven sampled
# values of a 12-bit sort.  The grid of two whole 12-bit domains is past the
# cap, and the room under it gives each variable 100 values.
BV12_ONE_POINT = """
(set-logic BV)
(synth-fun f ((x (BitVec 12)) (y (BitVec 12))) (BitVec 12)
   ((Start (BitVec 12) ((Constant (BitVec 12)) x y (bvand Start Start) (ite B Start Start)))
    (B Bool ((= Start Start)))))
(declare-var x (BitVec 12))
(declare-var y (BitVec 12))
(constraint (= (f x y) (ite (= x #x02a) #x000 x)))
(check-synth)
"""


def test_bit_vector_variables_get_the_room_under_the_cap():
    problem = load_problem(BV12_ONE_POINT)
    cfg = SolverConfig()
    assert verify(bodies(f="x"), problem, cfg) == Counterexample(
        {"x": Value(BV12, 0x2A), "y": Value(BV12, 0)}, 0
    )
    assert verify(bodies(f="(ite (= x #x02a) #x000 x)"), problem, cfg) == Valid(
        10_000, 10_000, uf_models=0, random_samples=256, exhaustive=False
    )
    assert solve(problem, SolverConfig(max_term_size=4)) == Fail("exhausted")


@pytest.mark.parametrize(
    "sorts, sizes",
    [
        ([BV8], [256]),
        ([BV12, BV12], [100, 100]),
        ([BV8, BV12], [100, 100]),
        # 11 Int values and 4 BV2 ones leave 227 values for the BV12.
        ([BV12, BV2, R_INT], [227, 4, 11]),
        # Ten values each would fit; a variable never gets fewer than its
        # eleven sampled values, and the cap cuts the grid instead.
        ([BV12] * 4, [11] * 4),
        ([R_INT] * 4 + [BV12], [11] * 5),
        # The BV4 keeps its whole domain of 16 values, so the BV12s get
        # 12 each: 16 * 12 * 12 * 2 * 2 = 9,216 points.
        ([BV4, BV12, BV12, R_BOOL, R_BOOL], [16, 12, 12, 2, 2]),
    ],
)
def test_bit_vector_grid_values(sorts, sizes):
    cfg = SolverConfig()
    grid = solver._grid(sorts, cfg)
    assert [size for size, _ in grid] == sizes
    sampled_sizes = [solver._grid_values(s, cfg)[0] for s in sorts]
    if math.prod(sampled_sizes) <= solver.GRID_POINT_CAP:
        assert math.prod(sizes) <= solver.GRID_POINT_CAP
    for s, (size, values) in zip(sorts, grid):
        assert len(values) == size
        if isinstance(s, RBitVec):
            sampled = solver._grid_values(s, cfg)[1]
            assert set(sampled) <= set(values)
            if size == 1 << s.width:
                assert values == list(range(size))
            else:
                # The sampled values, then the smallest values not listed.
                assert values[: len(sampled)] == sampled
                rest = sorted(set(range(size)) - set(sampled))
                assert values[len(sampled):] == rest[: size - len(sampled)]


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


def test_tables_keep_one_term_per_value_vector(monkeypatch):
    """On a spec whose one application is ``(f x y)``, the invocation points
    are the stored counterexamples themselves: no two terms of a
    non-terminal have equal values at them."""
    problem = load_problem(LIA_ITE_UNSOLVABLE)
    made = []

    class Recorded(TermTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solver, "TermTable", Recorded)
    results = []
    original = solver.verify

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(solver, "verify", recording)
    assert solve(problem, SolverConfig(max_term_size=8)) == Fail("exhausted")
    # One table per state of the store: empty, then one counterexample.
    assert len(made) == 2 and [type(r) for r in results] == [Counterexample]
    table, store = made[-1], [(r.assignment, r.uf_seed) for r in results]
    env = EvalEnv(problem)
    for nt in ("Start", "B"):
        terms = [t for s in range(1, 9) for t in table.closed(nt, s)]
        vectors = {
            tuple(eval_term(t, {n: a[n] for n in ("x", "y")}, env) for a, _ in store)
            for t in terms
        }
        assert len(vectors) == len(terms)
    assert sum(len(table.closed("Start", s)) for s in range(1, 9)) == 31


@pytest.mark.parametrize(
    "spec, max_size", [(LIA_ITE_UNSOLVABLE, 8), (MAX3, 6)], ids=["lia_ite", "max3"]
)
def test_an_oe_table_holds_only_nodes_of_listed_terms(monkeypatch, spec, max_size):
    """A table keyed by columns builds a term only once its column is new:
    every node it interns is a subterm of a term it lists."""
    made = []

    class Recorded(TermTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solver, "TermTable", Recorded)
    assert solve(load_problem(spec), SolverConfig(max_term_size=max_size)) == Fail("exhausted")
    assert len(made) >= 2
    for table in made:
        listed = {id(n) for terms in table.tables.values() for t in terms for n in subterms(t)}
        assert {id(n) for n in table._interned.values()} <= listed


@pytest.mark.parametrize(
    "spec, max_size", [(MAX3, 12), (LET_SUM_UNSOLVABLE, 13)]
)
def test_timeout_is_honoured_while_tables_grow(spec, max_size):
    problem = load_problem(spec)
    cfg = SolverConfig(max_term_size=max_size, timeout_seconds=1.0)
    start = time.monotonic()
    result = solve(problem, cfg)
    assert result == Fail("timeout")
    assert time.monotonic() - start < 4.0


# Every problem of conftest.py and of the fixtures, under a size cap that
# ends the unsolvable ones soon, and max3 once more, stopped by its deadline.
FREED_BY_REFCOUNT = {
    **{p.stem: p.read_text() for p in sorted(FIXTURES.glob("*.sl"))},
    "bool_bv4": BOOL_BV4,
    "let_sum": LET_SUM_UNSOLVABLE,
    "lia_ite": LIA_ITE_UNSOLVABLE,
    "max2_min2_base": MAX2_MIN2_BASE,
    "max3": MAX3,
    "uf_sum": UF_SUM,
    "uf_diff": UF_DIFF,
}


@pytest.mark.parametrize(
    "spec, cfg",
    [
        *[(spec, SolverConfig(max_term_size=6)) for spec in FREED_BY_REFCOUNT.values()],
        (MAX3, SolverConfig(max_term_size=20, timeout_seconds=0.5)),
    ],
    ids=[*FREED_BY_REFCOUNT, "max3_timeout"],
)
def test_solve_leaves_no_cyclic_garbage(spec, cfg):
    # The last pass's tables, bindings and compiled terms form no cycle, so
    # they are freed as solve returns, collector or not.
    problem = load_problem(spec)
    with collector_paused():
        result = solve(problem, cfg)
        assert gc.collect() == 0
    if cfg.timeout_seconds is not None:
        assert result == Fail("timeout")


def test_closed_filter_checks_the_deadline():
    [(_, g)] = grammars(load_problem(LET_SUM_UNSOLVABLE))
    deadline = solver._Deadline(None)
    table = TermTable(g, deadline)
    assert len(table.exact("Start", 7)) > 256
    deadline.at = time.monotonic() - 1.0
    with pytest.raises(solver._Timeout):
        table.closed("Start", 7)


NO_SYNTH_FUNS = """
(set-logic LIA)
(declare-var x Int)
(constraint (<= x (+ x 1)))
(check-synth)
"""


@pytest.mark.parametrize(
    "spec", [(FIXTURES / "max2_min2.sl").read_text(), NO_SYNTH_FUNS],
    ids=["max2_min2", "no_synth_funs"],
)
def test_timeout_is_honoured_while_sampling(spec, monkeypatch):
    # Where the prover gives up, ten million random samples outlast the
    # limit.
    monkeypatch.setattr(prover, "proves", lambda *args, **kwargs: False)
    cfg = SolverConfig(random_samples=10**7, timeout_seconds=1.0)
    start = time.monotonic()
    assert solve(load_problem(spec), cfg) == Fail("timeout")
    assert time.monotonic() - start < 4.0


def bodies(**texts):
    return {name: parse_term(tokenize(text)) for name, text in texts.items()}


MIN2 = "(ite (<= x y) x y)"


def test_verify_builds_only_the_capped_grid(max2_min2_problem):
    # Testing alone: verify proves this candidate after its first point.
    candidate = bodies(max2="(ite (<= x y) y x)", min2=MIN2)
    cfg = SolverConfig(grid_radius=10**9)
    start = time.monotonic()
    result = verify_unproved(candidate, max2_min2_problem, cfg)
    assert time.monotonic() - start < 1.0
    grid_size = (2 * 10**9 + 1) ** 2
    assert result == Valid(
        grid_points=10_000, grid_size=grid_size, uf_models=0,
        random_samples=256, exhaustive=False,
    )
    assert verify(candidate, max2_min2_problem, cfg) == Valid(
        grid_points=1, grid_size=grid_size, uf_models=0, random_samples=0, exhaustive=False,
        proved=True,
    )


def test_first_counterexample_is_the_last_capped_grid_point(max2_min2_problem):
    # Each Int domain has 12,001 values, so the capped grid is x = -6000
    # with y = -6000 .. 3999, and this max2 is wrong only from y = 3999 on.
    candidate = bodies(max2="(ite (<= y 3998) (ite (<= x y) y x) x)", min2=MIN2)
    result = verify(candidate, max2_min2_problem, SolverConfig(grid_radius=6000))
    assert result == Counterexample({"x": Value(R_INT, -6000), "y": Value(R_INT, 3999)}, 0)

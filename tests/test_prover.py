"""The prover that ``verify`` tries before it tests: sound against brute
force, proving the solutions of the LIA and UF specs, and refuting
nothing."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sygus import prover, solver
from sygus.lexer import tokenize
from sygus.parser import parse_term
from sygus.printer import print_term
from sygus.solver import Counterexample, Fail, SolverConfig, Valid, solve

from conftest import (
    BOOL_BV4,
    FIXTURES,
    MAX2_MIN2_BASE,
    MAX3,
    MAX3_SOLUTION,
    UF_DIFF,
    UF_GUARDED,
    UF_SUM,
    load_problem,
)
from oracle import plain_verify


def term(text):
    return parse_term(tokenize(text))


def proves(candidate, problem):
    return prover.proves(candidate, problem, solver._Deadline(None))


# ---------------------------------------------------------------------------
# Soundness against brute force

VARIABLES = ("x", "y", "z")


@st.composite
def int_terms(draw, leaves, uf, depth):
    """An Int term over the terms ``leaves``: literals, sums, differences,
    products by a literal, ites, and applications of the UF (``u`` unary,
    ``g`` binary)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return draw(st.sampled_from(leaves))
        return str(draw(st.integers(-2, 2)))
    sub = int_terms(leaves, uf, depth - 1)
    kind = draw(st.sampled_from(["+", "-", "*", "ite", "uf"]))
    if kind in ("+", "-"):
        return f"({kind} {draw(sub)} {draw(sub)})"
    if kind == "*":
        return f"(* {draw(st.integers(-2, 2))} {draw(sub)})"
    if kind == "ite":
        return f"(ite {draw(bool_terms(leaves, uf, depth - 1))} {draw(sub)} {draw(sub)})"
    if uf == "u":
        return f"(u {draw(sub)})"
    return f"(g {draw(sub)} {draw(sub)})"


@st.composite
def bool_terms(draw, leaves, uf, depth):
    """A Bool term over the Int terms ``leaves``: comparisons of Int terms
    and the Boolean connectives."""
    sub = int_terms(leaves, uf, max(depth - 1, 0))
    if depth > 0 and draw(st.integers(0, 2)) == 0:
        op = draw(st.sampled_from(["not", "and", "or", "=>"]))
        inner = bool_terms(leaves, uf, depth - 1)
        if op == "not":
            return f"(not {draw(inner)})"
        return f"({op} {draw(inner)} {draw(inner)})"
    op = draw(st.sampled_from(["<=", "<", ">=", ">", "=", "distinct"]))
    return f"({op} {draw(sub)} {draw(sub)})"


def rewritten(draw, t, names, uf):
    """A term equal to ``t`` over the integers: the same sum with its
    parts in another order and shape."""
    form = draw(st.integers(0, 4))
    if form == 0:
        return t
    if form == 1:
        return f"(+ 0 {t})"
    if form == 2:
        other = draw(int_terms(names, uf, 1))
        return f"(- (+ {other} {t}) {other})"
    if form == 3:
        return f"(+ (* 2 {t}) (* -1 {t}))"
    return f"(ite (<= {names[0]} 0) {t} (- {t} 0))"


@st.composite
def problems(draw):
    """A problem text over up to three Int variables and a unary or binary
    UF whose one constraint calls f, and a body for f over the same
    names.  A quarter of the constraints are random terms over the
    variables and the call; the rest compare f's result with a term equal
    to its body, through the UF or not, and may add 1 to one side."""
    names = VARIABLES[: draw(st.integers(1, 3))]
    uf = draw(st.sampled_from(["u", "g"]))
    body = draw(int_terms(names, uf, 3))
    args = " ".join(draw(st.permutations(names)))
    call = f"(f {args})"
    scheme = draw(st.integers(0, 3))
    if scheme == 0:
        constraint = draw(bool_terms(names + (call,), uf, 2))
    else:
        # f's parameters are the variables in declaration order, so the body
        # at the call's arguments is the body with the names permuted.
        mapping = dict(zip(names, args.split()))
        at_args = _renamed(body, mapping)
        other = rewritten(draw, at_args, names, uf)
        if draw(st.booleans()):
            other = f"(+ {other} 1)"
        if scheme == 1:
            constraint = f"(= {call} {other})"
        elif scheme == 2:
            wrapped = f"(u {call})" if uf == "u" else f"(g {call} {names[-1]})"
            unwrapped = f"(u {other})" if uf == "u" else f"(g {other} {names[-1]})"
            constraint = f"(= {wrapped} {unwrapped})"
        else:
            constraint = f"(<= {call} {other})"
    params = " ".join(f"({n} Int)" for n in names)
    decl = "(declare-fun u (Int) Int)" if uf == "u" else "(declare-fun g (Int Int) Int)"
    text = "\n".join([
        "(set-logic LIA)",
        decl,
        f"(synth-fun f ({params}) Int ((Start Int ({' '.join(names)} 0 (+ Start Start)))))",
        *[f"(declare-var {n} Int)" for n in names],
        f"(constraint {constraint})",
        "(check-synth)",
    ])
    return text, body


def _renamed(text, mapping):
    """``text`` with each variable name replaced at once by its image."""
    out = []
    for token in text.replace("(", "( ").replace(")", " )").split():
        out.append(mapping.get(token, token))
    return " ".join(out).replace("( ", "(").replace(" )", ")")


# The box [-4, 4] of each variable under four sampled models, with no random
# samples: every point of the box, each evaluated by the tree walker.
BOX = SolverConfig(grid_radius=4, uf_model_count=4, random_samples=0)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_a_proved_candidate_has_no_counterexample_on_a_box(pair):
    text, body = pair
    problem = load_problem(text)
    candidate = {"f": term(body)}
    if proves(candidate, problem):
        assert isinstance(plain_verify(candidate, problem, BOX), Valid), text


# Constraints over three Int variables, a Bool one and a unary UF, and
# whether the prover proves each.  Every one it proves is valid, and every
# one it does not is false somewhere.
DECISIONS = [
    ("(<= x (+ x 1))", True),
    ("(=> (< x y) (<= (+ x 1) y))", True),
    ("(=> (< x y) (< (+ x 1) y))", False),
    ("(not (= (* 2 x) 1))", True),
    ("(= (* 2 x) 1)", False),
    ("(=> (<= 3 (* 2 x)) (<= 2 x))", True),
    ("(=> (<= 3 (* 2 x)) (<= 3 x))", False),
    ("(or (<= x y) (<= y x))", True),
    ("(or (< x y) (< y x))", False),
    ("(=> (and (<= x y) (<= y x)) (= x y))", True),
    ("(=> (<= x y) (< x y))", False),
    ("(=> (= (+ x y) 2) (= (- (* 3 x) 6) (* -3 y)))", True),
    ("(= (u (+ x y)) (u (+ y x)))", True),
    ("(= (u x) (u y))", False),
    ("(or p (not p))", True),
    ("(=> p (= (ite p x y) x))", True),
    ("(= (ite p x y) x)", False),
    ("(xor p (not p))", True),
    ("(let ((w Int (+ x 1)) (x Int y)) (= w (+ (- w x) y)))", True),
    ("(let ((x Int y) (y Int x)) (= x y))", False),
]


@pytest.mark.parametrize("constraint, proved", DECISIONS)
def test_what_the_prover_decides(constraint, proved):
    problem = load_problem(
        "(set-logic LIA)\n(declare-fun u (Int) Int)\n"
        + "".join(f"(declare-var {n} Int)\n" for n in VARIABLES)
        + f"(declare-var p Bool)\n(constraint {constraint})\n(check-synth)\n"
    )
    assert proves({}, problem) == proved
    if not proved:
        found = plain_verify({}, problem, BOX.replace(random_samples=16))
        assert isinstance(found, Counterexample)


# ---------------------------------------------------------------------------
# Regression cases: the verify streams of the LIA and UF specs

SPECS = {
    **{f.stem: f.read_text() for f in sorted(FIXTURES.glob("*.sl"))},
    "max2_min2_base": MAX2_MIN2_BASE,
    "uf_sum": UF_SUM,
    "uf_diff": UF_DIFF,
    "uf_guarded": UF_GUARDED,
    "bool_bv4": BOOL_BV4,
}

#: The specs whose solutions the prover cannot prove: a bit-vector grid,
#: and a UF argument that equals another only by a fact.
UNPROVED = {"bool_bv4", "uf_guarded"}


def verify_stream(text, monkeypatch):
    """Each candidate that ``solve`` passes to ``verify`` on ``text``, with
    its result."""
    calls = []
    original = solver.verify

    def recording(candidate, *args, **kwargs):
        result = original(candidate, *args, **kwargs)
        calls.append((dict(candidate), result))
        return result

    monkeypatch.setattr(solver, "verify", recording)
    problem = load_problem(text)
    assert isinstance(solve(problem, SolverConfig()), solver.Solved)
    return problem, calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_solution_is_proved_and_no_refuted_candidate_is(name, monkeypatch):
    problem, calls = verify_stream(SPECS[name], monkeypatch)
    *refuted, (solution, verdict) = calls
    assert isinstance(verdict, Valid)
    assert proves(solution, problem) == (name not in UNPROVED)
    for candidate, result in refuted:
        assert isinstance(result, Counterexample)
        shown = {n: print_term(t) for n, t in candidate.items()}
        assert not proves(candidate, problem), shown


def test_max3s_solution_needs_a_sum_of_two_facts():
    # Where y > x and z > y, the solution is z, and z >= x follows from the
    # two facts together, not from either alone.
    problem = load_problem(MAX3)
    candidate = {"f": term(MAX3_SOLUTION)}
    assert isinstance(plain_verify(candidate, problem, SolverConfig()), Valid)
    assert not proves(candidate, problem)


MAX2 = {"max2": "(ite (<= x y) y x)", "min2": "(ite (<= x y) x y)"}


@pytest.mark.parametrize(
    "name, budget", [("NODE_BUDGET", 10), ("CASE_BUDGET", 2), ("MAX_DEPTH", 0)],
    ids=["nodes", "cases", "depth"],
)
def test_an_exhausted_budget_is_unknown(name, budget, max2_min2_problem, monkeypatch):
    # The max2/min2 solution is proved in three cases, one split deep: the
    # first, then x <= y and its negation.
    candidate = {n: term(t) for n, t in MAX2.items()}
    monkeypatch.setattr(prover, "MAX_DEPTH", 1)
    monkeypatch.setattr(prover, "CASE_BUDGET", 3)
    assert proves(candidate, max2_min2_problem)
    monkeypatch.setattr(prover, name, budget)
    assert not proves(candidate, max2_min2_problem)


# ---------------------------------------------------------------------------
# The deadline


def test_the_prover_reads_the_deadline(max2_min2_problem):
    candidate = {n: term(t) for n, t in MAX2.items()}
    deadline = solver._Deadline(None)
    deadline.at = time.monotonic() - 1.0
    with pytest.raises(solver._Timeout):
        prover.proves(candidate, max2_min2_problem, deadline)


def test_a_deadline_that_passes_mid_proof_is_a_timeout(monkeypatch):
    # The limit passes as the first proof starts, that of (+ a a), which the
    # first grid chunk passes: the solve stops there, as it would mid-grid.
    real = prover.proves
    stopped = []

    def expiring(candidate, problem, deadline):
        deadline.at = time.monotonic() - 1.0
        try:
            return real(candidate, problem, deadline)
        except solver._Timeout:
            stopped.append(print_term(candidate["f"]))
            raise

    monkeypatch.setattr(prover, "proves", expiring)
    cfg = SolverConfig(uf_model_count=8, timeout_seconds=60.0)
    assert solve(load_problem(UF_SUM), cfg) == Fail("timeout")
    assert stopped == ["(+ a a)"]

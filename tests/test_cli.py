import ast
import errno
import gc
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import sygus
from sygus import checker, cli, solver
from sygus.cli import EXIT_FAIL, EXIT_IO, EXIT_OK, EXIT_STATIC, EXIT_UNSUPPORTED, dump_program, run
from sygus.lexer import tokenize
from sygus.parser import parse_program
from sygus.printer import print_program
from sygus.evaluator import stable_u64

from conftest import (
    BOOL_BV4,
    FIXTURE_SOLUTIONS,
    FIXTURES,
    LIA_ITE_UNSOLVABLE,
    ROOT,
    UF_GUARDED,
    UF_SUM,
    child,
    collector_paused,
)


def run_cli(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def unsolvable_path(tmp_path):
    path = tmp_path / "unsolvable.sl"
    path.write_text(LIA_ITE_UNSOLVABLE)
    return str(path)


@pytest.mark.parametrize("name", sorted(FIXTURE_SOLUTIONS))
def test_solve_fixture(name):
    code, out, err = run_cli("solve", str(FIXTURES / f"{name}.sl"))
    assert (code, out, err) == (EXIT_OK, FIXTURE_SOLUTIONS[name], "")


def test_solve_exhausted(unsolvable_path):
    code, out, err = run_cli("solve", "--max-term-size", "4", unsolvable_path)
    assert (code, out) == (EXIT_FAIL, "(fail)\n")
    assert err == "note: search exhausted at max term size 4\n"


def test_solve_timed_out(unsolvable_path):
    code, out, err = run_cli("solve", "--timeout-seconds", "0", unsolvable_path)
    assert (code, out) == (EXIT_FAIL, "(fail)\n")
    assert err == "note: search stopped by timeout\n"


def test_timeout_is_honoured_while_verifying(tmp_path):
    # A thousand models of 10,000 grid points each, under which verify tests
    # a solution that the prover cannot prove: it checks the deadline once
    # per chunk of the grid.
    path = tmp_path / "uf_guarded.sl"
    path.write_text(UF_GUARDED)
    start = time.monotonic()
    code, out, err = run_cli(
        "solve", "--uf-model-count", "1000", "--timeout-seconds", "1", str(path)
    )
    assert time.monotonic() - start < 4.0
    assert (code, out, err) == (EXIT_FAIL, "(fail)\n", "note: search stopped by timeout\n")


# Runs the CLI and reports the child's own peak RSS, in KB, on stderr.  It
# reads VmHWM: on Linux ``ru_maxrss`` also counts the peak of the image that
# ``exec`` replaced, here the test runner's.
PEAK_RSS_CHILD = """
import sys
from sygus.cli import run
code = run(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(l.split()[1] for l in status if l.startswith("VmHWM:")), file=sys.stderr)
"""


def test_a_huge_model_count_keeps_memory_bounded(tmp_path):
    # Five million sampled models, under which verify tests a solution that
    # the prover cannot prove: their seeds are made as verify reaches them,
    # not listed up front, which would take about 200 MB before the deadline
    # is first checked.  A run at the default count peaks near 20 MB.
    path = tmp_path / "uf_guarded.sl"
    path.write_text(UF_GUARDED)
    src = str(Path(__file__).resolve().parent.parent / "src")
    p = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "solve", "--uf-model-count", "5000000",
         "--timeout-seconds", "1", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    note, peak_kb = p.stderr.splitlines()
    assert (p.returncode, p.stdout, note) == (0, "(fail)\n", "note: search stopped by timeout")
    assert int(peak_kb) < 100 * 1024



# Grids of one point: the empty assignment, and the one value of an enum.
NO_VARIABLES = """\
(set-logic LIA)
(synth-fun f () Int ((Start Int (0 1 (+ Start Start)))))
(constraint (= f 2))
(check-synth)
"""

ONE_CONSTRUCTOR = """\
(define-sort Unit (Enum (only)))
(synth-fun f ((u Unit)) Int ((Start Int (0 1 (+ Start Start)))))
(declare-var u Unit)
(constraint (= (f u) 2))
(check-synth)
"""

# Grids of one point that prove nothing: a sampled uninterpreted function,
# and an Int variable at grid radius 0.
NO_VARIABLES_UF = """\
(set-logic LIA)
(declare-fun u (Int) Int)
(synth-fun f () Int ((Start Int (0 1 (+ Start Start)))))
(constraint (= (+ f (u 0)) (u 0)))
(check-synth)
"""

ONE_INT = """\
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))
(declare-var x Int)
(constraint (= (f x) x))
(check-synth)
"""


@pytest.mark.parametrize(
    "spec, flags, note",
    [
        (FIXTURES / "uf_pair.sl", [],
         "no counterexample at 11 of 11 grid points under each of 32 sampled "
         "UF models, nor at 256 random samples: tested, not proved"),
        (UF_SUM, ["--uf-model-count", "2"],
         "valid for every value of the variables and every interpretation of the "
         "uninterpreted functions: proved"),
        (BOOL_BV4, [], "valid at all 32 points of a finite domain: proved"),
        (NO_VARIABLES, [], "valid at the only point of a finite domain: proved"),
        (ONE_CONSTRUCTOR, [], "valid at the only point of a finite domain: proved"),
        (NO_VARIABLES_UF, [],
         "no counterexample at the only grid point under each of 32 sampled UF "
         "models, nor at 256 random samples: tested, not proved"),
        (ONE_INT, ["--grid-radius", "0"],
         "no counterexample at the only grid point, nor at 256 random samples: "
         "tested, not proved"),
    ],
    ids=[
        "uf_pair", "uf_sum", "bool_bv4", "no_variables", "one_constructor", "no_variables_uf",
        "one_int_radius_0",
    ],
)
def test_verbose_solve_notes_the_evidence(tmp_path, spec, flags, note):
    path = spec
    if isinstance(spec, str):
        path = tmp_path / "spec.sl"
        path.write_text(spec)
    code, _, err = run_cli("solve", "--verbose", *flags, str(path))
    assert (code, err) == (EXIT_OK, f"note: {note}\n")

ONE_LINER = """\
(set-logic LIA)
{options}(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))
(declare-var x Int)
(constraint (= (f x) x))
(check-synth)
"""


def spec_path(tmp_path, options=""):
    path = tmp_path / "spec.sl"
    path.write_text(ONE_LINER.format(options=options))
    return str(path)


# The constraint was checked with the built-in +; evaluation would resolve
# the macro first and accept (+ x 1) for f.
BUILTIN_MACRO = """\
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 1 (+ Start Start) (- Start Start)))))
(declare-var x Int)
(constraint (= (f x) (+ x 1)))
(define-fun + ((a Int) (b Int)) Int (- a b))
(check-synth)
"""


def test_macro_named_like_a_builtin_is_rejected(tmp_path):
    path = tmp_path / "spec.sl"
    path.write_text(BUILTIN_MACRO)
    assert run_cli("solve", str(path)) == (
        EXIT_STATIC, "", f"{path}:5:1: E-CLASH-FUN: '+' is a built-in operator of the active logic\n"
    )


def solve_text(tmp_path, text, *flags):
    path = tmp_path / "spec.sl"
    path.write_text(text)
    return run_cli("solve", *flags, str(path)), str(path)


# A shorthand nested in a production, and one as a grammar let's value.
NESTED_SHORTHAND = """\
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x {production}))))
(declare-var y Int)
(constraint (= (f y) (+ y 3)))
(check-synth)
"""


@pytest.mark.parametrize(
    "production, solution",
    [
        ("(+ Start (Constant Int))", "(+ x 3)"),
        ("(let ((z Int (Constant Int))) (+ z x))", "(let ((z Int 3)) (+ z x))"),
    ],
    ids=["argument", "let-value"],
)
def test_nested_shorthand_is_expanded(tmp_path, production, solution):
    text = NESTED_SHORTHAND.format(production=production)
    (code, out, err), _ = solve_text(tmp_path, text, "--constant-pool", "3")
    assert (code, out, err) == (EXIT_OK, f"(define-fun f ((x Int)) Int {solution})\n", "")


def test_nested_shorthand_with_no_alternative_is_a_diagnostic(tmp_path):
    text = NESTED_SHORTHAND.format(production="(+ Start (LocalVariable Int))")
    result, path = solve_text(tmp_path, text)
    assert result == (
        EXIT_STATIC, "",
        f"{path}:2:52: E-EMPTY-EXPANSION: shorthand '(LocalVariable Int)' expanded to nothing\n",
    )


def test_empty_expansion_is_a_diagnostic(tmp_path):
    text = """\
(set-logic LIA)
(synth-fun f () Int ((Start Int ((InputVariable Int)))))
(constraint (= f 0))
(check-synth)
"""
    result, path = solve_text(tmp_path, text)
    assert result == (
        EXIT_STATIC, "",
        f"{path}:2:22: E-EMPTY-EXPANSION: "
        "every production of non-terminal 'Start' expanded to nothing\n",
    )


def test_two_synth_funs_of_one_name_are_rejected(tmp_path):
    path = tmp_path / "spec.sl"
    path.write_text("""\
(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x 1 (+ Start Start)))))
(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y))))
(declare-var a Int)
(constraint (= (f a) (+ a 1)))
(check-synth)
""")
    line = f"{path}:3:1: E-CLASH-FUN: 'f' is already a synthesis function\n"
    assert run_cli("check", str(path)) == (EXIT_STATIC, "", line)
    assert run_cli("solve", str(path)) == (EXIT_STATIC, "", line)


def test_synth_fun_may_share_a_name_with_a_uf_of_another_signature(tmp_path):
    text = """\
(set-logic LIA)
(declare-fun f (Int Int) Int)
(synth-fun f ((x Int)) Int ((Start Int (x 1 (+ Start Start)))))
(declare-var a Int)
(constraint (= (f a) (+ a 1)))
(check-synth)
"""
    result, _ = solve_text(tmp_path, text)
    assert result == (EXIT_OK, "(define-fun f ((x Int)) Int (+ x 1))\n", "")


# An enum behind two levels of alias: each alias names the one enum, so
# constants written through any of its names compare equal, and the
# grammar's (Constant Hue) gives the constants by the name Hue.
ENUM_ALIAS_CHAIN = """\
(set-logic LIA)
(define-sort Color (Enum (Red Green Blue)))
(define-sort Paint Color)
(define-sort Hue Paint)
(synth-fun f ((c Hue)) Hue
  ((Start Hue ((Constant Hue) c (ite B Start Start)))
   (B Bool ((= Start Start)))))
(declare-var c Hue)
(constraint (= (f c) (ite (= c Color::Red) Hue::Green Paint::Red)))
(check-synth)
"""


def test_enum_alias_chain_is_solved(tmp_path):
    result, _ = solve_text(tmp_path, ENUM_ALIAS_CHAIN, "--verbose")
    assert result == (
        EXIT_OK,
        "(define-fun f ((c Hue)) Hue (ite (= Hue::Red c) Hue::Green Hue::Red))\n",
        "note: valid at all 3 points of a finite domain: proved\n",
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("(define-sort W (BitVec 4))\n(declare-var x W)\n(constraint (= x W::a))\n"
         "(check-synth)\n",
         "3:18: E-ENUM-CONST: 'W' is not an enum sort"),
        ("(define-sort A (Array Int Nope))\n(check-synth)\n",
         "1:27: E-SORT-UNDEF: sort 'Nope' is not defined"),
    ],
    ids=["alias-of-a-bit-vector", "undefined-in-an-array"],
)
def test_sort_errors_are_reported_where_the_name_stands(tmp_path, text, message):
    result, path = solve_text(tmp_path, text)
    assert result == (EXIT_STATIC, "", f"{path}:{message}\n")
    assert run_cli("check", path) == result


# One program per branch of the solver's theory gates, its message, and the
# position it is reported at: the logic at its set-logic command, a
# universal variable or a function at its declaring command, a literal where
# it stands.  Literals in macro bodies are found in the order the macros are
# declared, whatever their names.  Grammars go through the gate too, each
# part where it stands: a non-terminal of an Array sort, whose store no
# evaluator computes; a Real one, whose division meets 0.0 once a
# counterexample is stored; a grammar let of a Real sort; and a Real
# shorthand nested in a production.  The whole of stderr is compared, so
# none ends in a traceback or a division by zero.
@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("; reals\n  (set-logic Reals)\n(declare-var x Real)\n(constraint (= x x))\n"
         "(check-synth)\n",
         "solving over the Reals theory is not supported", "2:3"),
        ("(declare-var x Int)\n  (declare-var a (Array Int Int))\n(constraint (= a a))\n"
         "(check-synth)\n",
         "universal variable 'a' has unsupported sort (Array Int Int)", "2:3"),
        ("(declare-fun r (Real) Int)\n(constraint (= (r 1.5) (r 1.5)))\n(check-synth)\n",
         "uninterpreted function 'r' has an unsupported sort", "1:1"),
        ("(synth-fun f ((x Real)) Int ((Start Int (0))))\n(constraint (= (f 1.0) 0))\n"
         "(check-synth)\n",
         "synthesis function 'f' has an unsupported sort", "1:1"),
        ("(declare-var x Int)\n(constraint (< 0.5 1.5))\n(check-synth)\n",
         "real-valued terms cannot be verified by this solver", "2:16"),
        ("(set-logic LIA)\n(define-fun f ((a Int)) Bool true)\n"
         "(define-fun g ((a Int)) Bool (= 3.5 4.5))\n(define-fun f ((a Bool)) Bool (= 0.5 0.25))\n"
         "(constraint true)\n(check-synth)\n",
         "real-valued terms cannot be verified by this solver", "3:33"),
        ("(synth-fun f ((x Int)) Bool ((Start Bool ((= A A)))"
         " (A (Array Int Bool) ((store A x true)))))\n(declare-var x Int)\n"
         "(constraint (f x))\n(check-synth)\n",
         "non-terminal 'A' has unsupported sort (Array Int Bool)", "1:53"),
        ("(synth-fun f ((x Int)) Bool ((Start Bool ((= R R) (< R R)))"
         " (R Real (0.0 (/ R R)))))\n(declare-var x Int)\n(constraint (not (f x)))\n"
         "(check-synth)\n",
         "non-terminal 'R' has unsupported sort Real", "1:61"),
        ("(synth-fun f ((x Int)) Int ((Start Int (x (let ((r Real 0.5)) x)))))\n"
         "(declare-var x Int)\n(constraint (= (f x) x))\n(check-synth)\n",
         "let binding 'r' has unsupported sort Real", "1:43"),
        ("(synth-fun f ((x Int)) Bool\n"
         "  ((Start Bool ((< (+ x 1) 2) (< (+ (Constant Real) 1.0) 2.0)))))\n"
         "(declare-var x Int)\n(constraint (f x))\n(check-synth)\n",
         "shorthand '(Constant Real)' has an unsupported sort", "2:37"),
    ],
    ids=[
        "reals-logic", "array-variable", "real-uf", "real-synth-fun", "real-literal",
        "macro-order", "array-non-terminal", "real-division", "real-let",
        "nested-real-shorthand",
    ],
)
def test_unsupported_theory_exits_3(tmp_path, text, message, pos):
    result, path = solve_text(tmp_path, text)
    assert result == (EXIT_UNSUPPORTED, "", f"{path}:{pos}: E-THEORY-UNSUPPORTED: {message}\n")


def test_unparsable_constant_pool_is_rejected(tmp_path):
    path = spec_path(tmp_path)
    code, out, err = run_cli("solve", "--constant-pool", "3,x", path)
    assert (code, out) == (EXIT_STATIC, "")
    assert err == (
        f"{path}:0:0: E-OPT-VALUE: option 'constant-pool' needs a comma-separated int value, "
        "got \"3,x\"\n"
    )
    # Past the interpreter's digit limit a constant does not convert either.
    huge = "9" * 4400
    code, out, err = run_cli("solve", f"--constant-pool=1,{huge}", path)
    assert (code, out) == (EXIT_STATIC, "")
    assert err.startswith(f"{path}:0:0: E-OPT-VALUE: option 'constant-pool' needs a ")


def test_constant_pool_may_start_with_a_negative_constant(tmp_path):
    # argparse takes "-1,2" for a flag unless it is joined to its own.
    text = NESTED_SHORTHAND.replace("(+ y 3)", "(- y 1)").format(
        production="(+ Start (Constant Int))"
    )
    result, _ = solve_text(tmp_path, text, "--constant-pool", "-1,2")
    assert result == (EXIT_OK, "(define-fun f ((x Int)) Int (+ x -1))\n", "")


def test_constant_pool_is_a_set_options_key(tmp_path):
    text = NESTED_SHORTHAND.format(production="(+ Start (Constant Int))").replace(
        "(set-logic LIA)\n", '(set-logic LIA)\n(set-options ((constant-pool "3")))\n'
    )
    result, _ = solve_text(tmp_path, text)
    assert result == (EXIT_OK, "(define-fun f ((x Int)) Int (+ x 3))\n", "")


def test_a_grid_radius_past_the_machine_word_is_counted(tmp_path):
    # The Int grid has 2 * r + 1 values, more than a range's len can count.
    # One model and no samples leave no more than 10,000 rows to test, so
    # verify tests the solution rather than prove it.
    radius = 10**20
    code, out, err = run_cli(
        "solve", "--verbose", "--grid-radius", str(radius), "--uf-model-count", "1",
        "--random-samples", "0", str(FIXTURES / "uf_pair.sl"),
    )
    assert (code, out) == (EXIT_OK, "(define-fun f ((x Int) (y Int)) Bool true)\n")
    assert err == (
        f"note: no counterexample at 10000 of {2 * radius + 1} grid points (truncated) under "
        "each of 1 sampled UF models, nor at 0 random samples: tested, not proved\n"
    )


TWO_INTS = """\
(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y))))
(declare-var x Int)
(declare-var y Int)
(constraint (= (f x y) x))
(check-synth)
"""


def test_a_grid_longer_than_str_writes_is_counted(tmp_path):
    # At radius 10**4000 - 1 the grid of two Int variables has about 8,000
    # digits, past the 4,300 that str() writes.  With no samples, no more
    # than 10,000 rows are left to test, so verify tests the solution rather
    # than prove it.
    radius = 10**4000 - 1
    path = tmp_path / "spec.sl"
    path.write_text(TWO_INTS)
    code, out, err = run_cli(
        "solve", "--verbose", "--grid-radius", "9" * 4000, "--random-samples", "0", str(path)
    )
    assert (code, out) == (EXIT_OK, "(define-fun f ((x Int) (y Int)) Int x)\n")
    size = str(Decimal((2 * radius + 1) ** 2))
    assert len(size) == 8001
    assert err == (
        f"note: no counterexample at 10000 of {size} grid points (truncated), "
        "nor at 0 random samples: tested, not proved\n"
    )


# Every bit-vector operator but the two predicates, each computed by its row
# of the checker's table of operators.
BV_OPERATORS = """\
(set-logic BV)
(synth-fun f ((x (BitVec 4)) (y (BitVec 4))) (BitVec 4)
  ((Start (BitVec 4) (x y #x1 (bvnot Start) (bvneg Start) (bvadd Start Start) (bvsub Start Start) (bvand Start Start) (bvor Start Start) (bvxor Start Start) (bvshl Start Start) (bvlshr Start Start)))))
(declare-var x (BitVec 4))
(declare-var y (BitVec 4))
(constraint (= (f x y) (bvxor (bvneg x) (bvlshr y #x1))))
(check-synth)
"""


def test_a_grammar_over_every_bv_operator_solves(tmp_path):
    result, _ = solve_text(tmp_path, BV_OPERATORS, "--verbose")
    assert result == (
        EXIT_OK,
        "(define-fun f ((x (BitVec 4)) (y (BitVec 4))) (BitVec 4) "
        "(bvxor (bvneg x) (bvlshr y #b0001)))\n",
        "note: valid at all 256 points of a finite domain: proved\n",
    )


def test_non_ascii_file_is_a_lex_error(tmp_path):
    path = tmp_path / "accent.sl"
    path.write_bytes(b"(set-logic LIA)\n; caf\xc3\xa9\n(check-synth)\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err == f"{path}:2:6: E-LEX: non-ASCII byte 0xc3\n"


def test_overlong_numeral_is_a_lex_error(tmp_path):
    path = tmp_path / "long.sl"
    path.write_text(f"(set-logic LIA)\n(declare-var x Int)\n(constraint (< x {'9' * 5000}))\n(check-synth)\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err == f"{path}:3:18: E-LEX: numeral of 5000 digits is too long\n"


LONG_NUMERAL_UF_QUERY = (
    "(set-logic LIA)\n(declare-fun uf (Int) Int)\n"
    "(synth-fun f ((x Int)) Int ((Start Int (x 0 1 (+ Start Start)))))\n"
    f"(declare-var x Int)\n(constraint (= (uf (* 10 {'7' * 4300})) (uf (f x))))\n"
    "(check-synth)\n"
)


def test_uf_query_past_the_int_string_limit_is_answered(tmp_path):
    # A 4,300-digit numeral lexes; ten times it has 4,301 digits, which the
    # interpreter will not convert with str().  The sampled model hashes it
    # all the same, and the search runs to its size cap.
    path = tmp_path / "long.sl"
    path.write_text(LONG_NUMERAL_UF_QUERY)
    assert run_cli("solve", "--max-term-size", "5", str(path)) == (
        EXIT_FAIL, "(fail)\n", "note: search exhausted at max term size 5\n"
    )


def test_uf_over_a_bit_vector_past_the_int_string_limit_is_solved(tmp_path):
    # The model hashes the numeral of each 14,400-bit argument, which has
    # more digits than str() will write.
    bv = "(BitVec 14400)"
    path = tmp_path / "wide.sl"
    path.write_text(
        f"(set-logic BV)\n(declare-fun u ({bv}) {bv})\n"
        f"(synth-fun f ((x {bv})) {bv} ((Start {bv} (x (bvnot Start)))))\n"
        f"(declare-var x {bv})\n(constraint (= (u (f x)) (u x)))\n(check-synth)\n"
    )
    assert run_cli("solve", "--uf-model-count", "1", str(path)) == (
        EXIT_OK, f"(define-fun f ((x {bv})) {bv} x)\n", ""
    )


def test_non_ascii_stdin_is_a_lex_error(monkeypatch):
    data = b"(set-logic LIA)\n; caf\xc3\xa9\n(check-synth)\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run_cli("check", "-")
    assert (code, out) == (EXIT_STATIC, "")
    assert err == "<stdin>:2:6: E-LEX: non-ASCII byte 0xc3\n"


def test_ascii_stdin_is_read(monkeypatch):
    data = ONE_LINER.format(options="").encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run_cli("solve", "-") == (EXIT_OK, "(define-fun f ((x Int)) Int x)\n", "")


DEEP_NOT = (
    "(declare-var x Int)\n(constraint " + "(not " * 3000 + "true" + ")" * 3000
    + ")\n(check-synth)\n"
)


@pytest.mark.parametrize("subcommand", ["parse", "check", "fmt", "solve"])
def test_deep_nesting_is_a_diagnostic(tmp_path, subcommand):
    path = tmp_path / "deep.sl"
    path.write_text(DEEP_NOT)
    code, out, err = run_cli(subcommand, str(path))
    assert (code, out) == (EXIT_STATIC, "")
    assert err == f"{path}:0:0: E-DEPTH: input nests too deeply\n"



def sum_chain_spec(levels):
    body = "(f x)"
    for _ in range(levels):
        body = f"(+ 1 {body})"
    return ONE_LINER.format(options="").replace("(= (f x) x)", f"(> {body} x)")


def run_in_child(*argv, text=True, stdout=subprocess.PIPE, env=None):
    """``python -m sygus *argv``: the console script's way out, and the test
    runner's own frames do not count against the interpreter's recursion
    limit.  ``env`` replaces the test runner's environment."""
    env = dict(os.environ if env is None else env, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "sygus", *map(str, argv)],
        stdout=stdout, stderr=subprocess.PIPE, text=text, env=env, timeout=60,
    )


def test_solve_handles_480_levels_of_nesting(tmp_path):
    # A child process solves up to about 980 levels on Python 3.11: the
    # checker and the solver's walks spend one frame per level, as the
    # parser does.  900 levels leave room for other Python versions.
    path = tmp_path / "chain.sl"
    path.write_text(sum_chain_spec(900))
    p = run_in_child("solve", path)
    assert (p.returncode, p.stdout, p.stderr) == (
        EXIT_OK, "(define-fun f ((x Int)) Int x)\n", ""
    )


def test_solve_on_a_far_deeper_chain_is_a_diagnostic(tmp_path):
    path = tmp_path / "chain.sl"
    path.write_text(sum_chain_spec(3000))
    p = run_in_child("solve", path)
    assert (p.returncode, p.stdout) == (EXIT_STATIC, "")
    assert p.stderr == f"{path}:0:0: E-DEPTH: input nests too deeply\n"


@pytest.mark.parametrize("subcommand", ["parse", "fmt", "check"])
def test_front_end_subcommands_handle_480_levels_of_nesting(tmp_path, subcommand):
    # The printers walk with an explicit stack, and the checker spends one
    # frame per level, as the parser does: parse, fmt and check all reach
    # about 980 levels on Python 3.11.  900 levels leave room for other
    # Python versions.
    chain = "(not " * 900 + "true" + ")" * 900
    path = tmp_path / "deep.sl"
    path.write_text(f"(declare-var x Int)\n(constraint {chain})\n(check-synth)\n")
    p = run_in_child(subcommand, path)
    assert (p.returncode, p.stderr) == (EXIT_OK, "")
    if subcommand == "fmt":
        assert p.stdout == f"(declare-var x Int)\n(constraint {chain})\n(check-synth)\n"
    if subcommand == "parse":
        assert p.stdout.count("(App not ") == 900


# Runs CLI calls one after the other, each argument the words of one call
# joined by newlines, and prints the repr of the list of their (exit code,
# stdout, stderr), argparse's help and usage errors included, and then the
# modules the interpreter holds.
CALLS_THEN_MODULES = """
import io, sys
from sygus.cli import run
results = []
for call in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = run(call.split("\\n"), out, err)
    except SystemExit as e:
        code = e.code
    sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    results.append((code, out.getvalue(), err.getvalue()))
print(repr(results))
print(*sys.modules)
"""


def calls_in_child(*calls):
    """The (exit code, stdout, stderr) of each of ``calls``, argument lists
    of the CLI, made one after the other in one fresh interpreter, and the
    modules they loaded beyond those of a bare interpreter, whose site hooks
    may load modules of their own."""
    results, loaded = child(CALLS_THEN_MODULES, *["\n".join(map(str, c)) for c in calls])
    [bare] = child("import sys; print(*sys.modules)")
    return ast.literal_eval(results), set(loaded.split()) - set(bare.split())


def modules_loaded_by(*argv):
    """The exit code of one CLI call in a fresh interpreter, and the modules
    it loaded (see ``calls_in_child``)."""
    [(code, _, _)], loaded = calls_in_child(argv)
    return code, loaded


@pytest.mark.parametrize("subcommand", ["check", "fmt", "parse"])
def test_front_end_subcommands_load_no_solver(subcommand):
    code, loaded = modules_loaded_by(subcommand, str(FIXTURES / "max2_min2.sl"))
    assert code == EXIT_OK
    assert "sygus.parser" in loaded
    assert not loaded & {"sygus.solver", "sygus.evaluator", "_hashlib"}
    # Only check runs the checker, and it prints nothing.  A plain argv is
    # read without argparse, and no front-end call reads a solver option.
    assert ("sygus.checker" in loaded) == (subcommand == "check")
    assert ("sygus.printer" in loaded) == (subcommand != "check")
    assert not loaded & {"argparse", "gettext", "sygus.config"}
    if subcommand == "check":
        ours = {m for m in loaded if m.split(".")[0] == "sygus"}
        assert ours == {
            "sygus", "sygus.syntax", "sygus.lexer", "sygus.parser", "sygus.cli", "sygus.checker"
        }


@pytest.mark.parametrize(
    "argv, code, reads_argparse",
    [
        (("solve", "FILE"), EXIT_OK, False),
        (("solve", "FILE", "--verbose", "--max-term-size", "8", "--constant-pool", "0,1"),
         EXIT_OK, False),
        (("solve", "--max-term", "8", "FILE"), EXIT_OK, True),
        (("solve", "--constant-pool", "-1,2", "FILE"), EXIT_OK, True),
        (("solve", "--help"), EXIT_OK, True),
        (("solve",), EXIT_STATIC, True),
        (("check", "--seed", "3", "FILE"), EXIT_STATIC, True),
    ],
    ids=["solve", "solve_flags", "abbreviation", "dash_value", "help", "no_input", "bad_flag"],
)
def test_only_help_and_usage_errors_load_argparse(argv, code, reads_argparse):
    path = str(FIXTURES / "max2_min2.sl")
    [(got, out, err)], loaded = calls_in_child([path if a == "FILE" else a for a in argv])
    assert got == code
    assert ("argparse" in loaded) == ("gettext" in loaded) == reads_argparse
    if code == EXIT_STATIC:
        assert err.startswith("usage: sygus ")


BAD_OPTION_THEN_MODULES = """
import sys
from sygus.cli import apply_set_options
from sygus.config import SolverConfig
from sygus.syntax import Pos, SygusError
try:
    apply_set_options([("seed", "x", Pos(3, 3))], SolverConfig())
except SygusError as e:
    print(e.code, e.pos)
print(*sys.modules)
"""


def test_an_option_error_loads_no_checker():
    raised, loaded = child(BAD_OPTION_THEN_MODULES)
    assert raised == "E-OPT-VALUE 3:3"
    assert "sygus.cli" in loaded.split()
    assert "sygus.checker" not in loaded.split()


def test_solve_loads_no_openssl():
    code, loaded = modules_loaded_by("solve", str(FIXTURES / "max2_min2.sl"))
    assert code == EXIT_OK
    assert "sygus.solver" in loaded
    assert "_hashlib" not in loaded


#: Standard-library modules that no subcommand loads for an input without
#: real literals: ``dataclasses`` (which loads ``inspect``, ``ast`` and
#: ``dis``), and ``fractions`` with ``decimal``.
NOT_AT_START_UP = {"dataclasses", "inspect", "fractions", "decimal"}


def test_subcommands_load_no_dataclasses_inspect_fractions_or_decimal():
    path = FIXTURES / "max2_min2.sl"
    results, loaded = calls_in_child(*[(sub, path) for sub in ("parse", "fmt", "check", "solve")])
    assert [code for code, _, _ in results] == [EXIT_OK] * 4
    assert results[3][1] == FIXTURE_SOLUTIONS["max2_min2"]
    assert "sygus.solver" in loaded
    assert not loaded & NOT_AT_START_UP


def test_only_a_proof_loads_the_prover(tmp_path):
    # check runs no solver, and the benchmark's lia_ite solve tries no
    # proof: its grid and samples are 377 rows.  uf_binary.sl's solution is
    # proved after the first grid chunk, with no dataclasses, inspect,
    # fractions or decimal.
    path = tmp_path / "lia_ite.sl"
    path.write_text(LIA_ITE_UNSOLVABLE)
    results, loaded = calls_in_child(("check", path), ("solve", "--max-term-size", "8", path))
    assert results == [
        (EXIT_OK, "", ""), (EXIT_FAIL, "(fail)\n", "note: search exhausted at max term size 8\n")
    ]
    assert "sygus.solver" in loaded and "sygus.prover" not in loaded
    [result], loaded = calls_in_child(("solve", "--verbose", FIXTURES / "uf_binary.sl"))
    assert result[:2] == (EXIT_OK, FIXTURE_SOLUTIONS["uf_binary"])
    assert result[2].endswith(": proved\n")
    assert "sygus.prover" in loaded
    assert not loaded & NOT_AT_START_UP


REAL_LITERALS = """(set-logic Reals)
(declare-var x Real)
(constraint (< -1.50 x))
(constraint (=> (> x 0.0) (< (* 2.0 x) 12.125)))
(constraint (distinct x (- 0.0 -0.05)))
(check-synth)
"""


def test_real_literals_load_fractions_on_first_use(tmp_path):
    # A fresh interpreter, since this one has loaded ``fractions`` already:
    # the lexer imports it at the first real literal.
    path = tmp_path / "reals.sl"
    path.write_text(REAL_LITERALS)
    (fmt, parse), loaded = calls_in_child(("fmt", path), ("parse", path))
    assert fmt == (EXIT_OK, REAL_LITERALS.replace("-1.50", "-1.5"), "")
    assert parse == (EXIT_OK, (
        "(SetLogic Reals)\n"
        "(DeclareVar x Real)\n"
        "(Constraint (App < (Lit -1.5) (Ref x)))\n"
        "(Constraint (App => (App > (Ref x) (Lit 0.0)) "
        "(App < (App * (Lit 2.0) (Ref x)) (Lit 12.125))))\n"
        "(Constraint (App distinct (Ref x) (App - (Lit 0.0) (Lit -0.05))))\n"
        "(CheckSynth)\n"
    ), "")
    assert "fractions" in loaded


def test_uf_query_past_the_int_string_limit_loads_decimal_on_first_use(tmp_path):
    # As test_uf_query_past_the_int_string_limit_is_answered, in a fresh
    # interpreter: the sampled model imports ``decimal`` to write the
    # numeral of 4,301 digits.
    path = tmp_path / "long.sl"
    path.write_text(LONG_NUMERAL_UF_QUERY)
    [result], loaded = calls_in_child(("solve", "--max-term-size", "5", path))
    assert result == (EXIT_FAIL, "(fail)\n", "note: search exhausted at max term size 5\n")
    assert "decimal" in loaded


# Prints, for ``import sygus.cli`` and then for importing the checker and
# the solver, each exec of generated source (code compiled from "<string>")
# that defines functions: the module whose body made it, and the names of
# the functions.
GENERATED_AT_IMPORT = """
import sys

def defined(code):
    names = set()
    for c in code.co_consts:
        if hasattr(c, "co_code"):
            names |= {c.co_name} | defined(c)
    return names

found = []

def hook(event, args):
    if event == "exec" and getattr(args[0], "co_filename", None) == "<string>":
        names = defined(args[0])
        frame = sys._getframe(1)
        while frame.f_code.co_name != "<module>":
            frame = frame.f_back
        if names:
            found.append((frame.f_globals["__name__"], sorted(names)))

sys.addaudithook(hook)
import sygus.cli
print(found)
found.clear()
import sygus.checker, sygus.solver
print(found)
"""


def test_no_generated_code_at_import():
    at_cli, later = map(ast.literal_eval, child(GENERATED_AT_IMPORT))
    # The records of the checker, evaluator and solver generate nothing.
    assert later == []
    ours: dict[str, set[str]] = {}
    for module, names in at_cli:
        if module.startswith("sygus"):
            ours.setdefault(module, set()).update(names)
        else:
            # Standard-library named tuples: one ``__new__`` each.
            assert names == ["<lambda>"], module
    # What is left in the package: the ``NamedTuple``s ``Token`` and
    # ``Binding``.  No record is registered with ``dataclasses`` at import,
    # so no Python version runs its code here.
    assert ours == {
        "sygus.lexer": {"<lambda>"},
        "sygus.syntax": {"<lambda>"},
    }


def test_package_names_resolve():
    namespace = {}
    exec("from sygus import *", namespace)
    assert set(sygus.__all__) <= set(namespace)
    assert sygus.verify is solver.verify
    assert sygus.SolverConfig is solver.SolverConfig
    assert sygus.check_program is checker.check_program
    assert sygus.CheckError is namespace["CheckError"] is checker.CheckError
    # perfbench/tracing.py wraps the CLI's checker call at this name.
    assert callable(cli.check_program)
    with pytest.raises(AttributeError):
        sygus.no_such_name


# Runs check, fmt and solve of one file under the benchmark's tracer, and
# prints their (exit code, stdout) pairs and then the tracer's counts.
TRACED_CALLS = """
import importlib.util, io, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from sygus.cli import run
tracer = tracing.Tracer()
results = []
with tracing.installed(tracer):
    for subcommand in ("check", "fmt", "solve"):
        out = io.StringIO()
        results.append((run([subcommand, sys.argv[2]], out, io.StringIO()), out.getvalue()))
print(repr(results))
print(repr(dict(tracer.counts)))
"""


def test_the_tracer_counts_every_layer_that_the_cli_calls():
    # perfbench/tracing.py wraps the lexer, the parser and the printer at
    # the names sygus.cli calls them by: the printer's entry points must stay
    # module globals of the CLI, or fmt and solve would print untraced.
    path = str(FIXTURES / "let_grammar.sl")
    results, counts = map(
        ast.literal_eval, child(TRACED_CALLS, str(ROOT / "perfbench" / "tracing.py"), path)
    )
    formatted = (ROOT / "tests" / "golden" / "let_grammar.fmt").read_text()
    assert results == [
        (EXIT_OK, ""), (EXIT_OK, formatted), (EXIT_OK, FIXTURE_SOLUTIONS["let_grammar"])
    ]
    assert counts["lexer.tokens"] > 0 and counts["parser.nodes"] > 0
    assert counts["printer.bytes"] == len(results[1][1]) + len(results[2][1])


@pytest.mark.parametrize(
    "parts, digest",
    [
        ((), 0xE4A6A0577479B2B4),
        ((0, "samples"), 0x64E9CB1264CDC282),
        ((7, "bv-grid", 12), 0xE35A742C0B4F00CB),
        ((2**70, -3, "f", b"i-5"), 0x3FB9162729C9EA14),
        ((b"",), 0x4E842F2F50CC089E),
    ],
)
def test_stable_digests_are_unchanged(parts, digest):
    # Digests of hashlib.blake2b: every seed, sampled model and verify
    # stream rests on them.
    assert stable_u64(*parts) == digest


def opt_value_error(path, name, value, pos="0:0"):
    """The diagnostic of an out-of-range value: at ``pos``, its
    ``set-options`` command's position, or at 0:0 for a flag."""
    least = {"max-term-size": 1, "uf-model-count": 1}.get(name, 0)
    return f"{path}:{pos}: E-OPT-VALUE: option '{name}' needs a value >= {least}, got \"{value}\"\n"


@pytest.mark.parametrize(
    "name, value",
    [
        ("max-term-size", "0"),
        ("uf-model-count", "0"),
        ("grid-radius", "-1"),
        ("random-samples", "-1"),
        ("timeout-seconds", "-0.5"),
        ("timeout-seconds", "nan"),
    ],
)
def test_out_of_range_flag_is_rejected(tmp_path, name, value):
    path = spec_path(tmp_path)
    got = run_cli("solve", f"--{name}", value, path)
    assert got == (EXIT_STATIC, "", opt_value_error(path, name, value))


# A quoted option value holds only letters, digits and dots, so a file
# cannot write a negative number.
@pytest.mark.parametrize(
    "name, value",
    [("max-term-size", "0"), ("uf-model-count", "0"), ("timeout-seconds", "nan")],
)
def test_out_of_range_set_option_is_rejected(tmp_path, name, value):
    # The set-options command is the second line of the file.
    path = spec_path(tmp_path, f'(set-options (({name} "{value}")))\n')
    got = run_cli("solve", path)
    assert got == (EXIT_STATIC, "", opt_value_error(path, name, value, "2:1"))


def test_unconvertible_option_is_rejected(tmp_path):
    path = spec_path(tmp_path)
    got = run_cli("solve", "--seed", "x", path)
    assert got == (
        EXIT_STATIC, "", f"{path}:0:0: E-OPT-VALUE: option 'seed' needs an int value, got \"x\"\n"
    )


def test_a_bad_set_option_is_reported_at_its_command(tmp_path, monkeypatch):
    # Two set-options commands; the bad value is the second pair of the
    # second, which starts at column 3 of line 3.
    options = (
        '(set-options ((grid-radius "2")))\n'
        '  (set-options ((max-term-size "3") (seed "x")))\n'
    )
    path = spec_path(tmp_path, options)
    got = run_cli("solve", path)
    assert got == (
        EXIT_STATIC, "", f"{path}:3:3: E-OPT-VALUE: option 'seed' needs an int value, got \"x\"\n"
    )
    # A flag wins over the file: the file's bad value of the same option is
    # never read, and the solve runs with the flag's value and the file's
    # other values.
    configs = []
    original = cli.solve
    monkeypatch.setattr(cli, "solve", lambda p, cfg: configs.append(cfg) or original(p, cfg))
    got = run_cli("solve", "--seed", "3", path)
    assert got == (EXIT_OK, "(define-fun f ((x Int)) Int x)\n", "")
    assert [(c.seed, c.grid_radius, c.max_term_size) for c in configs] == [(3, 2, 3)]
    monkeypatch.undo()
    # A flag's bad value has no position.
    got = run_cli("solve", "--max-term-size", "0", spec_path(tmp_path, options.replace("x", "1")))
    assert got == (EXIT_STATIC, "", opt_value_error(path, "max-term-size", "0"))


def test_flag_wins_over_the_file(tmp_path):
    path = tmp_path / "spec.sl"
    path.write_text(
        ONE_LINER.format(options='(set-options ((max-term-size "3")))\n')
        .replace("(= (f x) x)", "(= (f x) (+ x 5))")
    )
    code, out, err = run_cli("solve", "--max-term-size", "2", str(path))
    assert (code, out, err) == (
        EXIT_FAIL, "(fail)\n", "note: search exhausted at max term size 2\n"
    )


def test_smallest_legal_option_values_are_accepted(tmp_path):
    flags = ["--max-term-size", "1", "--uf-model-count", "1", "--grid-radius", "0",
             "--random-samples", "0"]
    code, out, _ = run_cli("solve", *flags, spec_path(tmp_path))
    assert (code, out) == (EXIT_OK, "(define-fun f ((x Int)) Int x)\n")


def test_solve_help_states_each_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        run_cli("solve", "--help")
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "(default: " in line] == [
        "  --max-term-size N     largest term size searched, in nodes (default: 12)",
        "  --grid-radius N       verify on the Int grid [-N, N] (default: 5)",
        "  --random-samples N    random points verified after the grid (default: 256)",
        "  --uf-model-count N    sampled models of uninterpreted functions (default: 32)",
        "  --seed N              seed of every sampled value and model (default: 0)",
        "  --timeout-seconds T   wall-clock limit on the solve, in seconds (default: none)",
        "                        integer constants for (Constant Int) expansions "
        "(default: 0,1,-1,2)",
    ]


# -- the collector policy of run ----------------------------------------------

REALS = "(set-logic Reals)\n(declare-var x Real)\n(constraint (= x x))\n(check-synth)\n"

# One invocation per way out of run: the arguments before the input path,
# the file's text (None: no file), the exit code, a piece of stderr that
# names the path taken, and the wrapped functions of cli it calls in order.
FRONT_END = ("tokenize",)
CHECKED = ("tokenize", "check_program")
SOLVED = ("tokenize", "check_program", "solve")
EXIT_PATHS = {
    "parse": (["parse"], ONE_LINER.format(options=""), EXIT_OK, "", FRONT_END),
    "fmt": (["fmt"], ONE_LINER.format(options=""), EXIT_OK, "", FRONT_END),
    "check": (["check"], ONE_LINER.format(options=""), EXIT_OK, "", CHECKED),
    "solve": (["solve"], ONE_LINER.format(options=""), EXIT_OK, "", SOLVED),
    "lex_error": (["check"], "(set-logic LIA)\n@\n", EXIT_STATIC, "E-LEX", FRONT_END),
    "parse_error": (["check"], "(set-logic LIA", EXIT_STATIC, "E-PARSE", FRONT_END),
    "check_error": (["check"], "(constraint (= y 1))\n(check-synth)\n", EXIT_STATIC,
                    "E-UNBOUND", CHECKED),
    "depth": (["parse"], DEEP_NOT, EXIT_STATIC, "E-DEPTH", FRONT_END),
    "unreadable": (["check"], None, EXIT_IO, "cannot read", ()),
    "option_value": (["solve", "--max-term-size", "0"], ONE_LINER.format(options=""),
                     EXIT_STATIC, "E-OPT-VALUE", CHECKED),
    "solve_error": (["solve"], REALS, EXIT_UNSUPPORTED, "E-THEORY-UNSUPPORTED", SOLVED),
    "fail": (["solve", "--max-term-size", "4"], LIA_ITE_UNSOLVABLE, EXIT_FAIL,
             "search exhausted", SOLVED),
}


@pytest.fixture
def collector_watch(monkeypatch):
    """Whether the collector was on at each call of the wrapped ``cli``
    functions, as (name, on) pairs in call order."""
    seen = []

    def watch(name):
        fn = getattr(cli, name)

        def wrapped(*args):
            seen.append((name, gc.isenabled()))
            return fn(*args)

        monkeypatch.setattr(cli, name, wrapped)

    for name in SOLVED:
        watch(name)
    return seen


def run_with_collector(collecting, *argv):
    """``run_cli(*argv)``, or the ``SystemExit`` it raised, with the
    collector set to ``collecting`` first, and whether the collector was
    on afterwards; the test's own setting is restored."""
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        try:
            got = run_cli(*argv)
        except SystemExit as e:
            got = e
        return got, gc.isenabled()
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize("way", sorted(EXIT_PATHS))
def test_run_pauses_the_collector_for_the_front_end_alone(
    tmp_path, collector_watch, way, collecting
):
    # The front end runs with the collector paused, solve with it as the
    # caller had it, and the caller gets its setting back on every way out.
    args, text, code, said, calls = EXIT_PATHS[way]
    path = tmp_path / "spec.sl"
    if text is not None:
        path.write_text(text)
    (got_code, _, err), after = run_with_collector(collecting, *args, str(path))
    assert (got_code, after) == (code, collecting)
    assert said in err
    assert collector_watch == [(name, collecting and name == "solve") for name in calls]


@pytest.mark.parametrize("collecting", [True, False], ids=["collector_on", "collector_off"])
def test_run_restores_the_collector_when_arguments_are_rejected(capsys, collecting):
    got, after = run_with_collector(collecting, "solve", "--no-such-flag", "spec.sl")
    assert (type(got), got.code, after) == (SystemExit, EXIT_STATIC, collecting)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["parse", "check", "fmt", "solve"])
def test_a_second_run_leaves_no_cyclic_garbage(subcommand):
    # Building the argument parser leaves cyclic garbage, so run builds it
    # once per process; the first run here may be the one that builds it.
    argv = (subcommand, str(FIXTURES / "uf_pair.sl"))
    assert run_cli(*argv)[0] == EXIT_OK
    with collector_paused():
        assert run_cli(*argv)[0] == EXIT_OK
        assert gc.collect() == 0


@pytest.mark.parametrize(
    "argv",
    [["solve", "--help"], ["--help"], ["solve", "--no-such-flag", "spec.sl"],
     ["solve", "--seed"], ["no-such-subcommand"], []],
    ids=["solve_help", "help", "unknown_flag", "missing_value", "unknown_subcommand", "empty"],
)
def test_the_parser_built_once_prints_what_a_fresh_one_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")

    def printed(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        out = capsys.readouterr()
        return stop.value.code, out.out, out.err

    fresh = printed(cli.build_arg_parser().parse_args)
    assert fresh[1] or fresh[2]
    for _ in range(2):
        assert printed(lambda a: run_cli(*a)) == fresh


def outcome(argv, stdin=b""):
    """The exit code, stdout and stderr of ``run(argv)``, argparse's usage
    errors and help included, with ``stdin`` as standard input."""
    out, err = StringIO(), StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(list(argv), out, err)
            except SystemExit as e:
                code = e.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


#: Pieces of argv lists: the subcommands, every flag of solve and a prefix
#: of each, help, forms that only argparse reads (``--name=value``, ``--``,
#: a value that starts with a dash), and inputs, one of them a missing file.
SUBCOMMANDS = ["parse", "check", "fmt", "solve"]
FLAGS = [f"--{name}" for name in cli._OPTIONS]
PREFIXES = [f"--{name[:max(2, len(name) // 2)]}" for name in cli._OPTIONS]
INPUTS = ["-", str(FIXTURES / "uf_pair.sl"), str(FIXTURES / "no_such_file.sl"), "check"]
ARGV_PIECES = [
    *SUBCOMMANDS, "--verbose", *FLAGS, *PREFIXES, "-h", "--help", "--seed=3", "--",
    "5", "-1", "-1,2", "", *INPUTS,
]
PIECES = st.sampled_from(ARGV_PIECES)
#: An option of a plain argv of solve.
OPTIONS = st.one_of(
    st.just(["--verbose"]), st.tuples(st.sampled_from(FLAGS), st.sampled_from(["5", ""])).map(list)
)


@st.composite
def argv_lists(draw):
    """Any words of ``ARGV_PIECES``, or a plain argv of solve (a subcommand,
    options and an input) with now and then a piece put in or for a word."""
    if draw(st.integers(0, 2)) == 0:
        return draw(st.lists(PIECES, max_size=6))
    words = [w for option in draw(st.lists(OPTIONS, max_size=3)) for w in option]
    words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(INPUTS)))
    words.insert(0, "solve")
    if draw(st.integers(0, 2)) == 0:
        at = draw(st.integers(0, len(words)))
        words[at:at + draw(st.integers(0, 1))] = [draw(PIECES)]
    return words


@settings(max_examples=300, deadline=None)
@given(argv_lists())
@example(["solve", str(FIXTURES / "uf_pair.sl"), "--uf-model-count", "5", "--verbose"])
@example(["solve", "--seed", "5", "--seed", "", "-"])
@example(["check", "--verbose", "check"])
@example(["fmt", "-"])
def test_the_plain_argv_parse_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    event("plain" if plain is not None else "argparse")
    if plain is not None:
        assert vars(plain) == vars(cli.build_arg_parser().parse_args(cli._join_dashed_values(argv)))
    stdin = (FIXTURES / "uf_pair.sl").read_bytes()
    got = outcome(argv, stdin)
    real = cli._plain_args
    cli._plain_args = lambda argv: None
    try:
        assert got == outcome(argv, stdin)
    finally:
        cli._plain_args = real


def large_spec():
    """A large problem over most of the language: a PBE spec of 2,000
    examples, a macro nested 300 deep, and 40 grammars with lets and
    shorthands, plus bit vectors, an enum sort, a UF and a real literal."""
    examples, depth, grammars = 2000, 300, 40
    body = "x"
    for i in range(depth):
        body = f"(ite (< x {i}) {body} (+ x {i}))"
    lines = [
        '(set-options ((grid-radius "3")))',
        "(define-sort Color (Enum (red green blue)))",
        "(declare-fun uf (Int) Int)",
        f"(define-fun deep ((x Int)) Int {body})",
        "(define-fun pick ((c Color) (v (BitVec 8))) (BitVec 8)"
        " (ite (= c Color::red) (bvadd v #x01) #b00000000))",
    ]
    for g in range(grammars):
        lines.append(
            f"(synth-fun f{g} ((x Int) (y Int)) Int ((Start Int (x y z (Constant Int)"
            " (Variable Int) (+ Start Start) (let ((z Int Start)) Start) (ite B Start Start)))"
            " (B Bool ((<= Start Start) (and B B) (not B)))))"
        )
    lines += [
        "(synth-fun h ((c Color) (v (BitVec 8))) (BitVec 8)"
        " ((Start (BitVec 8) (v #x00 (pick c Start) (bvand Start Start)))))",
        "(declare-var a Int)",
        "(declare-var c Color)",
        "(declare-var v (BitVec 8))",
    ]
    lines += [
        f"(constraint (= (f{i % grammars} {i} {-i}) (deep {i % 50})))" for i in range(examples)
    ]
    lines += [
        "(constraint (= (h c v) (pick c v)))",
        "(constraint (or (>= (uf a) 0) (< 0.5 2.5)))",
        "(check-synth)",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", [*sorted(p.stem for p in FIXTURES.glob("*.sl")), "large"])
def test_front_end_leaves_no_cyclic_garbage(name):
    # What run's policy rests on: tokens, records, the checker's tables and
    # printed text form no reference cycle, so reference counting frees
    # them all and a paused collector misses nothing.
    text = large_spec() if name == "large" else (FIXTURES / f"{name}.sl").read_text()
    with collector_paused():
        tokens = tokenize(text)
        assert gc.collect() == 0
        program = parse_program(tokens)
        del tokens
        problem = checker.check_program(program)
        printed, dumped = print_program(program), dump_program(program)
        assert gc.collect() == 0
        assert problem.constraints and printed and dumped
        del program, problem, printed, dumped
        assert gc.collect() == 0


# -- how a console call ends --------------------------------------------------

NO_SPACE = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


class FullDisk(io.StringIO):
    """A stream on a full disk: each write and flush fails or, when
    ``buffered``, only the flush."""

    def __init__(self, buffered=False):
        super().__init__()
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# A call per write of a result to stdout, before the path of its input.
WRITES = {
    "parse": ["parse"],
    "fmt": ["fmt"],
    "solved": ["solve", "--verbose"],
    "fail": ["solve", "--max-term-size", "4"],
}


@pytest.mark.parametrize("name", WRITES)
def test_a_failed_output_write_is_an_io_error(name, unsolvable_path):
    # One line on stderr and no note: the result was not given.
    path = unsolvable_path if name == "fail" else FIXTURES / "max2_min2.sl"
    err = StringIO()
    assert run([*WRITES[name], str(path)], FullDisk(), err) == EXIT_IO
    assert err.getvalue() == NO_SPACE


def test_a_failed_output_write_exits_4_where_stderr_fails_too():
    assert run(["fmt", str(FIXTURES / "max2_min2.sl")], FullDisk(), FullDisk()) == EXIT_IO


class Exited(BaseException):
    """What ``os._exit`` raises in ``main_exit``: the process ends here."""


@pytest.fixture
def main_exit(monkeypatch):
    """``cli.main`` on some arguments, returning the code it ends the
    process with, and the order in which it flushed stdout and stderr;
    ``monkeypatch`` may replace those streams first."""
    def _exit(code):
        raise Exited(code)

    monkeypatch.setattr(os, "_exit", _exit)

    def main(*argv):
        flushes = []
        for name in ("stdout", "stderr"):
            stream = getattr(sys, name)
            monkeypatch.setattr(stream, "flush", lambda name=name, flush=stream.flush: (
                flushes.append(name), flush()
            ))
        monkeypatch.setattr(sys, "argv", ["sygus", *map(str, argv)])
        with pytest.raises(Exited) as e:
            cli.main()
        return e.value.args[0], flushes

    return main


@pytest.mark.parametrize("argv, code", [
    pytest.param(["fmt", FIXTURES / "max2_min2.sl"], EXIT_OK, id="fmt"),
    pytest.param(["check", FIXTURES / "missing.sl"], EXIT_IO, id="missing"),
    # argparse's exits, a usage error and --help, end the same way.
    pytest.param(["solve"], EXIT_STATIC, id="usage_error"),
    pytest.param(["solve", "--help"], EXIT_OK, id="help"),
])
def test_main_flushes_stdout_then_stderr_and_exits(main_exit, monkeypatch, argv, code):
    out, err = StringIO(), StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    assert main_exit(*argv) == (code, ["stdout", "stderr"])
    if argv[0] == "fmt":
        assert out.getvalue() == (ROOT / "tests/golden/max2_min2.fmt").read_text()
    else:
        assert bool(out.getvalue()) == ("--help" in argv)
        assert bool(err.getvalue()) != ("--help" in argv)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_main_reports_one_output_error(main_exit, monkeypatch, buffered):
    # Buffered, the error shows at main's flush; unbuffered, at run's write,
    # and the flush fails again.  Either way it is reported once.
    err = StringIO()
    monkeypatch.setattr(sys, "stdout", FullDisk(buffered))
    monkeypatch.setattr(sys, "stderr", err)
    assert main_exit("fmt", FIXTURES / "max2_min2.sl") == (EXIT_IO, ["stdout", "stderr"])
    assert err.getvalue() == NO_SPACE


def test_main_exits_4_where_stderr_fails_too(main_exit, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullDisk(buffered=True))
    monkeypatch.setattr(sys, "stderr", FullDisk())
    assert main_exit("fmt", FIXTURES / "max2_min2.sl") == (EXIT_IO, ["stdout", "stderr"])


def test_a_bug_escaping_run_keeps_its_traceback(main_exit, monkeypatch):
    # main does not catch it: the interpreter prints it and exits 1.
    def broken(argv):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "run", broken)
    monkeypatch.setattr(sys, "argv", ["sygus", "check", "x.sl"])
    with pytest.raises(RuntimeError, match="bug"):
        cli.main()


def stdio_env(buffered):
    """The test runner's environment, with Python's stdout buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("subcommand, size, buffered", [
    # A solution fits in the buffer, so buffered it fails at main's flush.
    pytest.param("solve", "small", True, id="solve-buffered"),
    pytest.param("solve", "small", False, id="solve-unbuffered"),
    pytest.param("parse", "large", True, id="parse_large-buffered"),
])
def test_output_to_a_full_disk_exits_4(tmp_path, subcommand, size, buffered):
    path = FIXTURES / "max2_min2.sl"
    if size == "large":
        path = tmp_path / "large.sl"
        path.write_text(large_spec())
    with open("/dev/full", "w") as full:
        p = run_in_child(subcommand, path, stdout=full, env=stdio_env(buffered))
    assert (p.returncode, p.stderr) == (EXIT_IO, NO_SPACE)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_output_to_a_closed_pipe_exits_4(tmp_path, buffered):
    # The dump is far larger than a pipe holds, so the child is still
    # writing when its reader goes.  Unbuffered, a write to the pipe may
    # take part of the text; the rest must still be written, and fail.
    path = tmp_path / "large.sl"
    path.write_text(large_spec())
    env = dict(stdio_env(buffered), PYTHONPATH=str(ROOT / "src"))
    p = subprocess.Popen(
        [sys.executable, "-m", "sygus", "parse", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert p.stdout.read(1) == "("
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert (p.wait(timeout=60), err) == (
        EXIT_IO, f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"
    )


def test_check_runs_with_stdout_and_stderr_closed():
    # Python then holds no stdout and no stderr object, and main has none
    # to flush; check writes to neither.
    p = subprocess.run(
        ["sh", "-c", 'exec "$0" -m sygus check "$1" >&- 2>&-', sys.executable,
         str(FIXTURES / "max2_min2.sl")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60,
    )
    assert p.returncode == EXIT_OK


def in_process(argv, capsys):
    """``run`` on ``argv``, as the console script would: the exit code, and
    what it wrote to stdout and stderr."""
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


# Calls of the console script: the arguments before the input path, and the
# input's text (None: no such file, or no input argument at all).
PARITY = {
    **{
        f"{argv[0]}-{path.stem}": (argv, path.read_text())
        for path in sorted(FIXTURES.glob("*.sl"))
        for argv in (["solve", "--verbose"], ["fmt"])
    },
    "lex_error": (["check"], "(set-logic LIA)\n@\n"),
    "reals": (["solve"], REALS),
    "missing": (["check"], None),
    "usage_error": (["solve", "--max-term-size"], None),
    "help": (["solve", "--help"], None),
}


@pytest.mark.parametrize("name", PARITY)
def test_the_console_script_prints_what_run_prints(name, tmp_path, capsys, monkeypatch):
    # main flushes and ends the process itself: nothing it wrote may be lost,
    # so the child's stdout and stderr are buffered, as outside a test.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
    argv, text = PARITY[name]
    if name not in ("usage_error", "help"):
        path = tmp_path / "spec.sl"
        if text is not None:
            path.write_text(text)
        argv = [*argv, str(path)]
    code, out, err = in_process(argv, capsys)
    p = run_in_child(*argv, text=False, env=stdio_env(buffered=True))
    assert (p.returncode, p.stdout, p.stderr.decode()) == (code, out.encode(), err)
    assert (code, bool(out)) == {
        "lex_error": (EXIT_STATIC, False),
        "reals": (EXIT_UNSUPPORTED, False),
        "missing": (EXIT_IO, False),
        "usage_error": (EXIT_STATIC, False),
    }.get(name, (EXIT_OK, True))


# Makes CLI calls on one file, then prints how many exit hooks are registered.
EXIT_HOOKS_AFTER_CALLS = """
import atexit, io, sys
from sygus.cli import run
for subcommand in ("check", "solve"):
    assert run([subcommand, sys.argv[1]], io.StringIO(), io.StringIO()) == 0
print(atexit._ncallbacks())
"""


def test_cli_calls_register_no_exit_hook():
    # main ends the process with os._exit, which runs no exit hook: one that
    # a later import registered would be skipped without notice.
    [hooks] = child(EXIT_HOOKS_AFTER_CALLS, str(FIXTURES / "uf_pair.sl"))
    [bare] = child("import atexit; print(atexit._ncallbacks())")
    assert hooks == bare

from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sygus.cli import EXIT_OK, run
from sygus.lexer import RESERVED_WORDS, tokenize
from sygus.parser import parse_program, parse_text
from sygus.printer import (
    PrintError,
    decimal_str,
    print_program,
    print_solution,
    print_term,
)
from sygus.syntax import (
    App,
    ArraySort,
    Binding,
    BitVecSort,
    BoolConst,
    BoolSort,
    BVConst,
    CheckSynth,
    ConstantOf,
    Constraint,
    DeclareFun,
    DeclareVar,
    DefineFun,
    DefineSort,
    EnumConst,
    EnumSort,
    InputVariableOf,
    IntConst,
    IntSort,
    Let,
    Lit,
    LocalVariableOf,
    NamedSort,
    NTDef,
    Program,
    RealConst,
    RealSort,
    Ref,
    SetLogic,
    SetOptions,
    SynthFun,
    VariableOf,
)

from conftest import FIXTURES

# The ``sygus parse`` and ``sygus fmt`` output of each fixture, in
# ``tests/golden/<name>.parse`` and ``<name>.fmt``.  A field stored under the
# wrong name in any syntax record shows as a byte difference in the dump.
GOLDEN = FIXTURES.parent / "golden"
FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.sl"))

# Every command, every shorthand, a let with two bindings, a nullary
# application, enum, bit-vector and real literals, and a command after
# check-synth.
EVERY_COMMAND = """\
(set-logic LIA)
(define-sort Color (Enum (Red Green)))
(define-sort Word (BitVec 5))
(declare-fun h ((Array Int Bool) Color) Bool)
(define-fun pick ((c Color) (n Int)) Int (ite (= c Color::Red) n (- n 1)))
(define-fun three () Int 3)
(synth-fun f ((x Int) (w Word)) Int
   ((Start Int ((Constant Int) (Variable Int) (InputVariable Int) (LocalVariable Int)
                (let ((z Int Start) (b Bool true)) (+ z 1)) (pick Color::Green Start) (three)))))
(declare-var x Int)
(declare-var w Word)
(constraint (= (f x w) (let ((y Int 2)) (+ x y))))
(constraint (= w #x0a))
(set-options ((seed "3") (max-term-size "4")))
(check-synth)
(constraint (= 2.5 -0.125))
"""

EVERY_COMMAND_DUMP = """\
(SetLogic LIA)
(DefineSort Color (Enum (Red Green)))
(DefineSort Word (BitVec 5))
(DeclareFun h ((Array Int Bool) Color) Bool)
(DefineFun pick ((c Color) (n Int)) Int (App ite (App = (Ref c) (Lit Color::Red)) (Ref n) (App - (Ref n) (Lit 1))))
(DefineFun three () Int (Lit 3))
(SynthFun f ((x Int) (w Word)) Int ((Start Int ((Constant Int) (Variable Int) (InputVariable Int) (LocalVariable Int) (Let ((z Int (Ref Start)) (b Bool (Lit true))) (App + (Ref z) (Lit 1))) (App pick (Lit Color::Green) (Ref Start)) (App three)))))
(DeclareVar x Int)
(DeclareVar w Word)
(Constraint (App = (App f (Ref x) (Ref w)) (Let ((y Int (Lit 2))) (App + (Ref x) (Ref y)))))
(Constraint (App = (Ref w) (Lit #b00001010)))
(SetOptions ((seed "3") (max-term-size "4")))
(CheckSynth)
(Constraint (App = (Lit 2.5) (Lit -0.125)))
"""

EVERY_COMMAND_FMT = """\
(set-logic LIA)
(define-sort Color (Enum (Red Green)))
(define-sort Word (BitVec 5))
(declare-fun h ((Array Int Bool) Color) Bool)
(define-fun pick ((c Color) (n Int)) Int (ite (= c Color::Red) n (- n 1)))
(define-fun three () Int 3)
(synth-fun f ((x Int) (w Word)) Int ((Start Int ((Constant Int) (Variable Int) (InputVariable Int) (LocalVariable Int) (let ((z Int Start) (b Bool true)) (+ z 1)) (pick Color::Green Start) (three)))))
(declare-var x Int)
(declare-var w Word)
(constraint (= (f x w) (let ((y Int 2)) (+ x y))))
(constraint (= w #b00001010))
(set-options ((seed "3") (max-term-size "4")))
(check-synth)
(constraint (= 2.5 -0.125))
"""


def run_cli(*argv):
    out, err = StringIO(), StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def test_every_fixture_has_golden_files():
    assert len(FIXTURE_NAMES) == 6
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(
        f"{name}.{command}" for name in FIXTURE_NAMES for command in ("fmt", "parse")
    )


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_acceptance_c1_golden_parse_dump(name):
    golden = (GOLDEN / f"{name}.parse").read_text()
    assert run_cli("parse", str(FIXTURES / f"{name}.sl")) == (EXIT_OK, golden, "")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_golden_fmt(name):
    golden = (GOLDEN / f"{name}.fmt").read_text()
    assert run_cli("fmt", str(FIXTURES / f"{name}.sl")) == (EXIT_OK, golden, "")


def test_parse_dump_of_every_command(tmp_path):
    path = tmp_path / "every.sl"
    path.write_text(EVERY_COMMAND)
    assert run_cli("parse", str(path)) == (EXIT_OK, EVERY_COMMAND_DUMP, "")


def test_fmt_of_every_command(tmp_path):
    path = tmp_path / "every.sl"
    path.write_text(EVERY_COMMAND)
    assert run_cli("fmt", str(path)) == (EXIT_OK, EVERY_COMMAND_FMT, "")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_acceptance_c7_print_parse_round_trip(name):
    program = parse_text((FIXTURES / f"{name}.sl").read_text())
    assert parse_text(print_program(program)) == program


def test_print_parse_round_trip_of_every_command():
    program = parse_text(EVERY_COMMAND)
    assert parse_text(print_program(program)) == program


@pytest.mark.parametrize(
    "value, text",
    [(Fraction(3), "3.0"), (Fraction(-5, 2), "-2.5"), (Fraction(1, 8), "0.125")],
)
def test_decimal_str(value, text):
    assert decimal_str(value) == text


def test_bit_vectors_print_in_binary_at_full_width():
    assert print_term(Lit(BVConst(5, 5))) == "#b00101"
    assert print_term(Lit(BVConst(8, 0x0F))) == "#b00001111"


def test_print_solution_needs_a_body_for_every_task(max2_min2_problem):
    [max2, _] = max2_min2_problem.synth_tasks
    with pytest.raises(PrintError) as exc:
        print_solution({"max2": max2.grammar[0].productions[0]},
                       max2_min2_problem.synth_tasks)
    assert exc.value.code == "E-INCOMPLETE-CANDIDATE"


# -- the round trip on generated programs ---------------------------------------

names = st.builds(
    str.__add__, st.sampled_from("abcxyz"), st.text("abcxyz019_", max_size=3)
).filter(lambda n: n not in RESERVED_WORDS)
heads = names | st.sampled_from(["+", "-", "<=", "=>", "bvadd", "ite"])

sorts = st.recursive(
    st.one_of(
        st.builds(IntSort),
        st.builds(BoolSort),
        st.builds(RealSort),
        st.builds(BitVecSort, st.integers(1, 64)),
        st.builds(EnumSort, st.lists(names, min_size=1, max_size=3).map(tuple)),
        st.builds(NamedSort, names),
    ),
    lambda inner: st.builds(ArraySort, inner, inner),
    max_leaves=4,
)

literals = st.one_of(
    st.builds(IntConst, st.integers()),
    # Finite decimals, from whole numbers to four places.
    st.builds(
        lambda n, places: RealConst(Fraction(n, 10**places)),
        st.integers(-(10**6), 10**6), st.integers(0, 4),
    ),
    st.builds(BoolConst, st.booleans()),
    st.integers(1, 24).flatmap(
        lambda w: st.integers(0, 2**w - 1).map(lambda v: BVConst(w, v))
    ),
    st.builds(EnumConst, names, names),
)

SHORTHANDS = (ConstantOf, VariableOf, InputVariableOf, LocalVariableOf)


def terms(grammar):
    """Terms, and in a grammar the four shorthands as leaves too."""
    leaves = st.builds(Lit, literals) | st.builds(Ref, names)
    if grammar:
        leaves |= st.one_of(*[st.builds(kind, sorts) for kind in SHORTHANDS])

    def nodes(inner):
        bindings = st.lists(
            st.tuples(names, sorts, inner), min_size=1, max_size=3, unique_by=lambda b: b[0]
        ).map(lambda bs: tuple(Binding(*b) for b in bs))
        return st.builds(App, heads, st.lists(inner, max_size=3).map(tuple)) | st.builds(
            Let, bindings, inner
        )

    return st.recursive(leaves, nodes, max_leaves=6)


params = st.lists(st.tuples(names, sorts), max_size=3).map(tuple)
grammars = st.lists(
    st.builds(NTDef, names, sorts, st.lists(terms(grammar=True), min_size=1, max_size=3).map(tuple)),
    min_size=1, max_size=2,
).map(tuple)
options = st.lists(
    st.tuples(names, st.text("aZ09.", min_size=1, max_size=4)), min_size=1, max_size=2
).map(tuple)
# Deferred, which keeps the strategy's repr short.
commands = st.deferred(lambda: st.one_of(
    st.builds(DefineSort, names, sorts),
    st.builds(DeclareVar, names, sorts),
    st.builds(DeclareFun, names, st.lists(sorts, max_size=3).map(tuple), sorts),
    st.builds(DefineFun, names, params, sorts, terms(grammar=False)),
    st.builds(SynthFun, names, params, sorts, grammars),
    st.builds(Constraint, terms(grammar=False)),
    st.builds(CheckSynth),
    st.builds(SetOptions, options),
))
@st.composite
def programs(draw):
    """A program of up to seven commands; a set-logic command may come only
    first."""
    logic = draw(st.lists(st.builds(SetLogic, names), max_size=1))
    rest = draw(st.lists(commands, min_size=1 - len(logic), max_size=6))
    return Program(tuple(logic + rest))


@settings(max_examples=200, deadline=None)
@given(programs())
def test_print_parse_round_trip_of_generated_programs(program):
    assert parse_program(tokenize(print_program(program))) == program

from io import StringIO

import pytest

from sygus.cli import EXIT_STATIC, run
from sygus.lexer import tokenize
from sygus.parser import (
    ParseError,
    parse_gterm,
    parse_program,
    parse_sort_expr,
    parse_term,
    parse_text,
)
from sygus.syntax import (
    App,
    ArraySort,
    BoolSort,
    CheckSynth,
    Constraint,
    ConstantOf,
    DeclareVar,
    EnumSort,
    IntConst,
    IntSort,
    Let,
    Lit,
    Ref,
    SetLogic,
    SetOptions,
    SynthFun,
)


def sort_of(text):
    return parse_sort_expr(tokenize(text))


def term_of(text):
    return parse_term(tokenize(text))


def gterm_of(text):
    return parse_gterm(tokenize(text))


def test_smallest_program():
    p = parse_text("(check-synth)")
    assert p.commands == (CheckSynth(),)


def test_golden_program_command_shapes(max2_min2_text):
    p = parse_text(max2_min2_text)
    assert len(p.commands) == 10
    shapes = [type(c) for c in p.commands]
    assert shapes == [
        SetLogic,
        SynthFun,
        SynthFun,
        DeclareVar,
        DeclareVar,
        Constraint,
        Constraint,
        Constraint,
        Constraint,
        CheckSynth,
    ]


def test_golden_grammar_structure(max2_min2_text):
    p = parse_text(max2_min2_text)
    max2 = p.commands[1]
    assert max2.name == "max2"
    assert [(nt.name, len(nt.productions)) for nt in max2.grammar] == [
        ("Start", 7),
        ("StartBool", 3),
    ]
    min2 = p.commands[2]
    start = min2.grammar[0]
    assert len(start.productions) == 5
    assert ConstantOf(IntSort()) in start.productions
    from sygus.syntax import VariableOf

    assert VariableOf(IntSort()) in start.productions


def test_uf_program_has_six_commands(uf_pair_text):
    p = parse_text(uf_pair_text)
    assert len(p.commands) == 6


def test_constraint_requires_exactly_one_term():
    with pytest.raises(ParseError):
        parse_text("(constraint)(check-synth)")
    with pytest.raises(ParseError):
        parse_text("(constraint true false)(check-synth)")


def test_set_logic_must_come_first():
    with pytest.raises(ParseError):
        parse_text("(check-synth)(set-logic LIA)")
    with pytest.raises(ParseError):
        parse_text("(set-logic LIA)(set-logic BV)(check-synth)")


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_text("")
    with pytest.raises(ParseError):
        parse_text("; only a comment\n")


# -- sorts -------------------------------------------------------------------


def test_base_sorts():
    assert sort_of("Int") == IntSort()
    assert sort_of("Bool") == BoolSort()


def test_array_sort():
    assert sort_of("(Array Int Bool)") == ArraySort(IntSort(), BoolSort())


def test_enum_sort():
    assert sort_of("(Enum (A B C))") == EnumSort(("A", "B", "C"))


def test_bitvec_zero_width_rejected():
    with pytest.raises(ParseError):
        sort_of("(BitVec 0)")
    with pytest.raises(ParseError):
        sort_of("(BitVec -3)")


def test_named_sort_cannot_be_reserved():
    with pytest.raises(ParseError):
        sort_of("let")


# -- terms -------------------------------------------------------------------


def test_application():
    assert term_of("(+ x 1)") == App("+", (Ref("x"), Lit(IntConst(1))))


def test_nullary_application():
    assert term_of("(f)") == App("f", ())


def test_empty_application_rejected():
    with pytest.raises(ParseError):
        term_of("()")


def test_let_term():
    t = term_of("(let ((z Int 0)) z)")
    assert isinstance(t, Let)
    assert t.bindings[0].name == "z"
    assert t.body == Ref("z")


def test_let_duplicate_binding_rejected():
    with pytest.raises(ParseError):
        term_of("(let ((z Int 0) (z Int 1)) z)")


def test_let_zero_bindings_rejected():
    with pytest.raises(ParseError):
        term_of("(let () 0)")


def test_shorthand_rejected_in_constraint_position():
    with pytest.raises(ParseError):
        term_of("(Constant Int)")


def test_shorthand_allowed_in_grammar_position():
    assert gterm_of("(Constant Int)") == ConstantOf(IntSort())


def test_let_in_grammar_carries_gterms():
    g = gterm_of("(let ((z Int Start)) Start)")
    assert isinstance(g, Let)
    assert g.bindings[0].value == Ref("Start")


def test_reserved_word_rejected_as_identifier():
    with pytest.raises(ParseError):
        parse_text("(declare-var constraint Int)(check-synth)")
    with pytest.raises(ParseError):
        parse_text("(define-sort Int Bool)(check-synth)")


def test_reserved_word_rejected_in_term_position():
    with pytest.raises(ParseError):
        term_of("(+ let 1)")


def test_synth_fun_zero_arity():
    p = parse_text("(synth-fun f () Int ((Start Int (0))))(check-synth)")
    sf = p.commands[0]
    assert sf.params == ()
    assert len(sf.grammar) == 1


def test_synth_fun_requires_nonterminals():
    with pytest.raises(ParseError):
        parse_text("(synth-fun f () Int ())(check-synth)")


def test_nt_requires_productions():
    with pytest.raises(ParseError):
        parse_text("(synth-fun f () Int ((Start Int ())))(check-synth)")


def test_set_options_requires_quoted_values():
    p = parse_text('(set-options ((samples "100")))(check-synth)')
    assert p.commands[0] == SetOptions((("samples", "100"),))
    with pytest.raises(ParseError):
        parse_text("(set-options ((samples 100)))(check-synth)")
    with pytest.raises(ParseError):
        parse_text("(set-options ())(check-synth)")


def test_error_positions_inside_input():
    texts = [
        "(constraint)(check-synth)",
        "(declare-var x UnknownKeyword 3)(check-synth)",
        "(synth-fun f () Int ())(check-synth)",
    ]
    for text in texts:
        with pytest.raises(ParseError) as exc:
            parse_text(text)
        lines = text.split("\n")
        pos = exc.value.pos
        assert 1 <= pos.line <= len(lines)
        assert 1 <= pos.col <= len(lines[pos.line - 1]) + 1


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_text("(check-synth) stray")


# Malformed inputs and the exact diagnostic ``check`` prints for each, path
# prefix removed.  At the end of input the position is the last token's.
PARSE_DIAGNOSTICS = [
    # end of input in arguments
    ('(constraint (f x',
     '1:16: E-PARSE: expected a term, found end of input'),
    # end of input after a literal argument
    ('(constraint\n  (f x\n     true',
     '3:6: E-PARSE: expected a term, found end of input'),
    # end of input after the head
    ('(constraint (',
     '1:13: E-PARSE: expected an operator symbol, found end of input'),
    # empty application
    ('(constraint ())',
     "1:14: E-PARSE: expected an operator symbol in a non-empty application, found ')'"),
    # reserved word as a head
    ('(constraint (Int x))',
     "1:14: E-PARSE: expected an operator symbol, found 'Int'"),
    # literal as a head
    ('(constraint (1 x))',
     "1:14: E-PARSE: expected an operator symbol, found '1'"),
    # enum constant as a head
    ('(constraint (A::B x))',
     "1:14: E-PARSE: expected an operator symbol, found 'A::B'"),
    # shorthand outside a grammar
    ('(constraint (Constant Int))',
     "1:14: E-PARSE: expected a term, found grammar shorthand 'Constant' (only allowed in grammars)"),
    # shorthand in a let outside a grammar
    ('(constraint (let ((a Int (Variable Int))) a))',
     "1:27: E-PARSE: expected a term, found grammar shorthand 'Variable' (only allowed in grammars)"),
    # empty let binding list
    ('(constraint (let () x))',
     "1:19: E-PARSE: expected at least one binding, found ')'"),
    # duplicate let binding
    ('(constraint (let ((a Int 1) (a Int 2)) a))',
     "1:30: E-PARSE: expected distinct binding names, found duplicate 'a'"),
    # let with two bodies
    ('(constraint (let ((a Int 1)) a b))',
     "1:32: E-PARSE: expected ')' closing the let, found 'b'"),
    # end of input in a let
    ('(constraint (let ((a Int',
     '1:22: E-PARSE: expected a term, found end of input'),
    # reserved word as a term
    ('(constraint (f x let))',
     "1:18: E-PARSE: expected a term, found 'let'"),
    # quoted literal as a term
    ('(constraint (f "q"))',
     '1:16: E-PARSE: expected a term, found "q"'),
    # missing term
    ('(constraint )',
     "1:13: E-PARSE: expected a term, found ')'"),
    # zero bit width
    ('(declare-var x (BitVec 0))',
     "1:24: E-PARSE: expected a positive bit width, found '0'"),
    # unknown sort head
    ('(declare-var x (Foo 3))',
     "1:17: E-PARSE: expected 'BitVec', 'Enum', or 'Array', found 'Foo'"),
    # empty enum
    ('(declare-var x (Enum ()))',
     "1:23: E-PARSE: expected at least one constructor, found ')'"),
    # reserved word as a name
    ('(declare-var Int Int)',
     "1:14: E-PARSE: expected a variable name, found reserved word 'Int'"),
    # empty input
    ('',
     '1:1: E-PARSE: expected at least one command, found end of input'),
    # no opening paren
    ('x',
     "1:1: E-PARSE: expected '(' starting a command, found 'x'"),
    # unknown command
    ('(foo)',
     "1:2: E-PARSE: expected a command keyword, found 'foo'"),
    # unclosed command
    ('(check-synth',
     "1:2: E-PARSE: expected ')' closing the command, found end of input"),
    # second set-logic
    ('(set-logic LIA)\n(set-logic LIA)',
     "2:1: E-PARSE: expected set-logic before any other command, found 'set-logic'"),
    # two terms in a constraint
    ('(constraint (f x) (g))',
     "1:19: E-PARSE: expected ')' closing the command, found '('"),
    # empty grammar
    ('(synth-fun f ((x Int)) Int ())',
     "1:29: E-PARSE: expected at least one non-terminal definition, found ')'"),
    # empty production list
    ('(synth-fun f ((x Int)) Int ((S Int ())))',
     "1:37: E-PARSE: expected at least one production, found ')'"),
    # empty option list
    ('(set-options ())',
     "1:15: E-PARSE: expected at least one option pair, found ')'"),
    # unquoted option value
    ('(set-options ((a b)))',
     "1:18: E-PARSE: expected a quoted option value, found 'b'"),
]


@pytest.mark.parametrize("text, diagnostic", PARSE_DIAGNOSTICS)
def test_parse_diagnostics_are_exact(tmp_path, text, diagnostic):
    path = tmp_path / "bad.sl"
    path.write_text(text)
    out, err = StringIO(), StringIO()
    assert run(["check", str(path)], out, err) == EXIT_STATIC
    assert (out.getvalue(), err.getvalue()) == ("", f"{path}:{diagnostic}\n")

import random

import pytest

from mutations import BASE, LET_GRAMMAR_BASE, MUTATIONS
from sygus.checker import (
    CheckError,
    RBitVec,
    REnum,
    R_BOOL,
    R_INT,
    TermScope,
    TheorySignature,
    check_program,
    resolve_sort,
    type_of_term,
)
from sygus.evaluator import EvalEnv, UFModel, Value, eval_term
from sygus.lexer import tokenize
from sygus.parser import parse_term, parse_text
from sygus.syntax import EnumSort, IntSort, NamedSort, Pos

from conftest import load_problem


def code_of(text: str) -> str:
    with pytest.raises(CheckError) as exc:
        check_program(parse_text(text))
    return exc.value.code


# -- sort resolution ----------------------------------------------------------


def test_resolve_base_sort():
    assert resolve_sort(IntSort(), {}) == R_INT


def test_resolve_defined_alias():
    table = {"W": RBitVec(8)}
    assert resolve_sort(NamedSort("W"), table) == RBitVec(8)


def test_resolve_undefined_sort():
    with pytest.raises(CheckError) as exc:
        resolve_sort(NamedSort("Unknown"), {})
    assert exc.value.code == "E-SORT-UNDEF"


def test_enum_identity_is_the_defining_name():
    # The table holds resolved sorts, filled as check_program fills it.
    table = {}
    table["E"] = resolve_sort(EnumSort(("A", "B"), Pos(1, 1)), table, define_name="E")
    table["F"] = resolve_sort(NamedSort("E"), table, define_name="F")
    e = resolve_sort(NamedSort("E"), table)
    f = resolve_sort(NamedSort("F"), table)
    assert isinstance(e, REnum) and e.identity == "E"
    assert e == f  # aliases share the enum identity


def test_inline_enums_at_distinct_sites_differ():
    a = resolve_sort(EnumSort(("A", "B"), Pos(1, 5)), {})
    b = resolve_sort(EnumSort(("A", "B"), Pos(2, 5)), {})
    assert a != b


def test_enum_duplicate_constructor():
    with pytest.raises(CheckError) as exc:
        resolve_sort(EnumSort(("A", "A")), {})
    assert exc.value.code == "E-ENUM-DUP"


# -- whole-program checks -----------------------------------------------------


def test_golden_problem_shape(max2_min2_problem):
    p = max2_min2_problem
    assert len(p.synth_tasks) == 2
    assert len(p.universal_vars) == 2
    assert len(p.constraints) == 4


def test_uf_problem_shape(uf_pair_problem):
    p = uf_pair_problem
    assert len(p.uf_decls) == 1
    assert len(p.synth_tasks) == 1
    assert len(p.constraints) == 1


def test_let_grammar_accepted(let_grammar_problem):
    # The bare-z production is well formed: z is let-bound in a sibling
    # production and all let-bound names share one scope for typing.
    grammar = let_grammar_problem.synth_tasks[0].grammar
    assert [nt.name for nt in grammar] == ["Start"]


def test_overloading_by_argument_sorts_is_allowed():
    text = "(declare-fun g (Int) Int)(declare-fun g (Bool) Int)(constraint true)(check-synth)"
    problem = check_program(parse_text(text))
    assert len(problem.uf_decls) == 2


def test_operator_names_of_another_logic_are_free():
    text = "(set-logic LIA)(define-fun bvadd ((a Int)) Int a)(constraint (= (bvadd 1) 1))(check-synth)"
    problem = check_program(parse_text(text))
    assert [e.kind for e in problem.funcs["bvadd"]] == ["macro"]


def test_commands_after_check_synth_are_ignored():
    text = "(declare-var x Int)(constraint (= x x))(check-synth)(declare-var x Int)"
    problem = check_program(parse_text(text))
    assert len(problem.universal_vars) == 1


def test_unknown_logic():
    assert code_of("(set-logic FOO)(check-synth)") == "E-LOGIC-UNKNOWN"


def test_missing_check_synth():
    assert code_of("(declare-var x Int)(constraint (= x x))") == "E-NO-CHECK"


def test_nonlinear_multiplication_rejected():
    assert (
        code_of("(declare-var v Int)(constraint (= (* v v) v))(check-synth)")
        == "E-NONLINEAR"
    )
    check_program(
        parse_text("(declare-var v Int)(constraint (= (* 2 v) (* v 2)))(check-synth)")
    )


def test_enum_constants_check():
    text = (
        "(define-sort Color (Enum (Red Green)))"
        "(declare-var c Color)"
        "(constraint (= c Color::Red))"
        "(check-synth)"
    )
    check_program(parse_text(text))
    assert (
        code_of(text.replace("Color::Red", "Color::Blue")) == "E-ENUM-CONST"
    )


def test_mutation_originals_pass(max2_min2_text, uf_pair_text, let_grammar_text):
    for text in (max2_min2_text, uf_pair_text, let_grammar_text, BASE, LET_GRAMMAR_BASE):
        check_program(parse_text(text))


@pytest.mark.parametrize(
    "label,text,expected", MUTATIONS, ids=[m[0] for m in MUTATIONS]
)
def test_mutation_rejected_with_designated_code(label, text, expected):
    assert code_of(text) == expected


def test_acceptance_c4_every_mutation_rejected_with_designated_code():
    for label, text, expected in MUTATIONS:
        assert code_of(text) == expected, label


# -- term typing --------------------------------------------------------------


def _lia_scope(**variables):
    resolved = {n: (R_INT if s == "Int" else R_BOOL) for n, s in variables.items()}
    return TermScope(TheorySignature("LIA"), {}, resolved, {}, context="constraint")


def term(text):
    return parse_term(tokenize(text))


def test_type_of_addition():
    assert type_of_term(term("(+ x 1)"), _lia_scope(x="Int")) == R_INT


def test_type_of_conditional():
    assert (
        type_of_term(term("(ite (<= x y) y x)"), _lia_scope(x="Int", y="Int"))
        == R_INT
    )


def test_type_error_on_bad_signature():
    with pytest.raises(CheckError) as exc:
        type_of_term(term("(and x 1)"), _lia_scope(x="Bool"))
    assert exc.value.code == "E-APP-SIG"


def test_unbound_name():
    with pytest.raises(CheckError) as exc:
        type_of_term(term("(+ x nope)"), _lia_scope(x="Int"))
    assert exc.value.code == "E-UNBOUND"


def test_let_binding_sort_mismatch():
    with pytest.raises(CheckError) as exc:
        type_of_term(term("(let ((z Bool 1)) z)"), _lia_scope())
    assert exc.value.code == "E-LET-SORT"


def test_same_sort_shadowing_is_fine():
    assert (
        type_of_term(term("(let ((x Int 0)) x)"), _lia_scope(x="Int")) == R_INT
    )


def test_determinism_of_check(max2_min2_text):
    a = check_program(parse_text(max2_min2_text))
    b = check_program(parse_text(max2_min2_text))
    assert a.universal_vars == b.universal_vars
    assert a.constraints == b.constraints
    assert [t.name for t in a.synth_tasks] == [t.name for t in b.synth_tasks]


def test_checked_constraints_never_raise_sort_errors(uf_pair_problem, max2_min2_problem):
    # Soundness hand-off: fuzz assignments and models over checked fixtures.
    rng = random.Random(3)
    for problem, candidates in (
        (uf_pair_problem, {"f": term("(= x y)")}),
        (max2_min2_problem, {"max2": term("x"), "min2": term("y")}),
    ):
        env = EvalEnv(problem, candidates=candidates)
        for _ in range(300):
            assignment = {
                n: Value(R_INT, rng.randint(-50, 50)) for n in problem.universal_vars
            }
            env.model = (
                UFModel(problem.uf_decls, rng.getrandbits(64))
                if problem.uf_decls
                else None
            )
            for c in problem.constraints:
                got = eval_term(c, assignment, env)
                assert got.sort == R_BOOL and isinstance(got.value, bool)

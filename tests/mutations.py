"""Single-edit mutations of well-formed programs, each with the diagnostic
code the checker must report.  Shared by the checker tests and the
acceptance suite."""

# A small well-formed base exercising macros, UFs, variables, and a grammar.
BASE = """\
(set-logic LIA)
(define-fun inc ((a Int)) Int (+ a 1))
(declare-fun uf (Int) Int)
(declare-var v Int)
(synth-fun g ((p Int) (q Int)) Int ((Start Int (p q 0 (+ Start Start)))))
(constraint (= (g v v) (inc v)))
(check-synth)
"""

LET_GRAMMAR_BASE = """\
(synth-fun f ((x Int) (y Int)) Int
   ((Start Int (x y z
                (+ Start Start)
                (let ((z Int Start)) Start)))))
(declare-var a Int)
(constraint (= (f a a) (f a a)))
(check-synth)
"""

# (label, program text, expected diagnostic code)
MUTATIONS = [
    # declare-var clash family
    (
        "var-clashes-var",
        "(declare-var x Int)(declare-var x Int)(constraint true)(check-synth)",
        "E-CLASH-VAR",
    ),
    (
        "var-clashes-0arity-uf",
        "(declare-fun c () Int)(declare-var c Int)(constraint true)(check-synth)",
        "E-CLASH-VAR",
    ),
    (
        "var-clashes-0arity-macro",
        "(define-fun k () Int 0)(declare-var k Int)(constraint true)(check-synth)",
        "E-CLASH-VAR",
    ),
    (
        "var-clashes-0arity-synth",
        "(synth-fun s () Int ((Start Int (0))))(declare-var s Int)(constraint true)(check-synth)",
        "E-CLASH-VAR",
    ),
    # declare-fun clash family
    (
        "0arity-uf-clashes-var",
        "(declare-var w Int)(declare-fun w () Int)(constraint true)(check-synth)",
        "E-CLASH-FUN",
    ),
    (
        "uf-clashes-uf-same-signature",
        "(declare-fun u (Int) Int)(declare-fun u (Int) Bool)(constraint true)(check-synth)",
        "E-CLASH-FUN",
    ),
    (
        "uf-clashes-macro-same-signature",
        "(define-fun m ((a Int)) Int a)(declare-fun m (Int) Int)(constraint true)(check-synth)",
        "E-CLASH-FUN",
    ),
    (
        "uf-clashes-synth-same-signature",
        BASE.replace(
            "(constraint", "(declare-fun g (Int Int) Int)(constraint", 1
        ),
        "E-CLASH-FUN",
    ),
    # define-fun rule family
    (
        "macro-clashes-macro-same-signature",
        "(define-fun m ((a Int)) Int a)(define-fun m ((b Int)) Int b)(constraint true)(check-synth)",
        "E-CLASH-FUN",
    ),
    (
        "macro-duplicate-params",
        "(define-fun d ((a Int) (a Int)) Int a)(constraint true)(check-synth)",
        "E-DUP-PARAM",
    ),
    (
        "macro-let-shadows-arg",
        "(define-fun d ((a Int)) Int (let ((a Int 0)) a))(constraint true)(check-synth)",
        "E-SHADOW-ARG",
    ),
    (
        "macro-body-sees-no-universal-vars",
        "(declare-var v Int)(define-fun d () Int v)(constraint true)(check-synth)",
        "E-UNBOUND",
    ),
    (
        "macro-return-sort-mismatch",
        "(define-fun d ((a Int)) Bool (+ a 1))(constraint true)(check-synth)",
        "E-MACRO-RET",
    ),
    (
        "macro-named-like-a-builtin",
        BASE.replace(
            "(check-synth)", "(define-fun + ((a Int) (b Int)) Int (- a b))(check-synth)"
        ),
        "E-CLASH-FUN",
    ),
    (
        "uf-named-like-a-builtin",
        "(declare-fun and (Bool Bool) Bool)(constraint true)(check-synth)",
        "E-CLASH-FUN",
    ),
    # synth-fun rule family
    (
        "synth-clashes-synth-same-signature",
        BASE.replace(
            "(constraint",
            "(synth-fun g ((r Int) (s Int)) Int ((Start Int (0))))(constraint",
            1,
        ),
        "E-CLASH-FUN",
    ),
    (
        "synth-clashes-synth-other-signature",
        BASE.replace(
            "(constraint",
            "(synth-fun g ((r Int)) Int ((Start Int (0))))(constraint",
            1,
        ),
        "E-CLASH-FUN",
    ),
    (
        "synth-named-like-a-builtin",
        "(set-logic BV)(synth-fun bvneg ((b (BitVec 4))) (BitVec 4) ((Start (BitVec 4) (b))))"
        "(constraint true)(check-synth)",
        "E-CLASH-FUN",
    ),
    (
        "synth-duplicate-params",
        "(synth-fun h ((p Int) (p Int)) Int ((Start Int (p))))(constraint true)(check-synth)",
        "E-DUP-PARAM",
    ),
    (
        "grammar-let-shadows-arg",
        LET_GRAMMAR_BASE.replace("((z Int Start))", "((x Int Start))").replace(
            "(x y z", "(x y x"
        ),
        "E-SHADOW-ARG",
    ),
    (
        "grammar-duplicate-nonterminals",
        "(synth-fun h () Int ((Start Int (0)) (Start Int (1))))(constraint true)(check-synth)",
        "E-NT-DUP",
    ),
    (
        "nonterminal-clashes-0arity-macro",
        "(define-fun A () Int 0)(synth-fun h () Int ((Start Int (0 A)) (A Int (1))))(constraint true)(check-synth)",
        "E-NT-CLASH",
    ),
    (
        "nonterminal-clashes-arg",
        "(synth-fun h ((p Int)) Int ((Start Int (p)) (p Int (0))))(constraint true)(check-synth)",
        "E-NT-CLASH",
    ),
    (
        "nonterminal-clashes-let-name",
        "(synth-fun h ((x Int)) Int ((Start Int (x (let ((A Int x)) A))) (A Int (0))))(constraint true)(check-synth)",
        "E-NT-CLASH",
    ),
    (
        "grammar-let-sort-conflict",
        "(synth-fun h ((x Int)) Int ((Start Int ((let ((z Int 0)) z) (let ((z Bool true)) x)))))(constraint true)(check-synth)",
        "E-LET-SORT-CONFLICT",
    ),
    (
        "production-sort-mismatch",
        # One edit to the max2-style grammar: an Int-valued production under
        # the Bool non-terminal.
        "(synth-fun h ((x Int)) Int ((Start Int (x (ite StartBool Start Start))) (StartBool Bool ((<= Start Start) (+ Start Start)))))"
        "(constraint true)(check-synth)",
        "E-PROD-SORT",
    ),
    (
        "start-missing",
        "(synth-fun h () Int ((S Int (0))))(constraint true)(check-synth)",
        "E-START-MISSING",
    ),
    (
        "start-sort-mismatch",
        "(synth-fun h () Bool ((Start Int (0))))(constraint true)(check-synth)",
        "E-START-SORT",
    ),
    # constraint sort family
    (
        "constraint-not-bool",
        BASE.replace("(= (g v v) (inc v))", "(+ (g v v) (inc v))"),
        "E-CONSTRAINT-SORT",
    ),
    # uninterpreted-function placement family
    (
        "uf-in-grammar",
        BASE.replace("(p q 0 (+ Start Start))", "(p q 0 (uf p))"),
        "E-UF-IN-GRAMMAR",
    ),
    (
        "uf-in-macro",
        "(declare-fun uf (Int) Int)(define-fun d ((a Int)) Int (uf a))(constraint true)(check-synth)",
        "E-UF-IN-MACRO",
    ),
    # sort rules
    (
        "undefined-sort",
        "(declare-var x Undef)(constraint true)(check-synth)",
        "E-SORT-UNDEF",
    ),
    (
        "sort-redefinition",
        "(define-sort W Int)(define-sort W Bool)(constraint true)(check-synth)",
        "E-SORT-REDEF",
    ),
    # shadowing sort rule
    (
        "let-shadows-var-different-sort",
        "(declare-var v Int)(constraint (let ((v Bool true)) v))(check-synth)",
        "E-SHADOW-SORT",
    ),
    # declaration order
    (
        "var-declared-after-use",
        BASE.replace("(declare-var v Int)\n", "").replace(
            "(check-synth)", "(declare-var v Int)(check-synth)"
        ),
        "E-UNBOUND",
    ),
]

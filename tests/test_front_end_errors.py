"""The front end fails only with its own error types, on any ASCII text."""

import copy
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from sygus.checker import CheckError, check_program
from sygus.lexer import LexError, tokenize
from sygus.parser import ParseError, parse_text

from conftest import FIXTURES, MAX2_MIN2_BASE, UF_SUM
from mutations import BASE, LET_GRAMMAR_BASE

SEEDS = [
    (FIXTURES / "max2_min2.sl").read_text(),
    (FIXTURES / "uf_pair.sl").read_text(),
    (FIXTURES / "let_grammar.sl").read_text(),
    MAX2_MIN2_BASE,
    UF_SUM,
    BASE,
    LET_GRAMMAR_BASE,
    """
(set-logic BV)
(define-sort Color (Enum (Red Green)))
(define-sort Word (BitVec 4))
(set-options ((max-term-size "3")))
(declare-var c Color)
(declare-var w Word)
(synth-fun f ((v Word) (k Color)) Word
   ((Start Word ((Constant Word) (Variable Word) (bvadd Start Start)
                 (ite B Start Start) (let ((t Word Start)) t)))
    (B Bool ((= k Color::Red) (bvult Start Start) (InputVariable Bool)
             (LocalVariable Bool)))))
(constraint (= (f w c) (bvand w #x3)))
(constraint (=> (= c Color::Green) (bvule (f #b0000 c) w)))
(check-synth)
""",
]

PIECE = re.compile(r"[()]|[^\s()]+")


def tree(text: str) -> list:
    """The s-expressions of ``text``: an atom is a string, a list a list."""
    stack: list[list] = [[]]
    for piece in PIECE.findall(text):
        if piece == "(":
            stack.append([])
        elif piece == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(piece)
    return stack[0]


def untree(node) -> str:
    if isinstance(node, str):
        return node
    return "(" + " ".join(map(untree, node)) + ")"


def slots(node: list) -> list[tuple[list, int]]:
    """Every (list, index) position below ``node``."""
    out = []
    for i, child in enumerate(node):
        out.append((node, i))
        if isinstance(child, list):
            out.extend(slots(child))
    return out


SUBTREES = [parent[i] for text in SEEDS for parent, i in slots(tree(text))]
ATOMS = sorted(
    {t for t in SUBTREES if isinstance(t, str)}
    | {"Real", "Array", "2.5", "-3", "#x", "#b2", "::", '"', "|x|", "_", "BitVec"}
)

ascii_text = st.text(st.characters(min_codepoint=0, max_codepoint=127), max_size=200)


@st.composite
def edited_program(draw):
    """A well-formed program with subterms deleted, repeated or replaced by
    an atom or by a subterm of another program."""
    program = tree(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 4))):
        where = slots(program)
        if not where:
            break
        parent, i = draw(st.sampled_from(where))
        edit = draw(st.sampled_from(["delete", "repeat", "atom", "graft"]))
        if edit == "delete":
            del parent[i]
        elif edit == "repeat":
            parent.insert(i, copy.deepcopy(parent[i]))
        elif edit == "atom":
            parent[i] = draw(st.sampled_from(ATOMS))
        else:
            parent[i] = copy.deepcopy(draw(st.sampled_from(SUBTREES)))
    return "\n".join(map(untree, program))


def front_end(text: str) -> None:
    try:
        tokenize(text)
        check_program(parse_text(text))
    except (LexError, ParseError, CheckError):
        pass


@settings(max_examples=300, deadline=None)
@given(ascii_text)
def test_arbitrary_ascii_raises_only_front_end_errors(text):
    front_end(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(ATOMS + ["(", ")"]), max_size=80).map(" ".join))
def test_piece_soup_raises_only_front_end_errors(text):
    front_end(text)


@settings(max_examples=400, deadline=None)
@given(edited_program())
def test_edited_programs_raise_only_front_end_errors(text):
    front_end(text)

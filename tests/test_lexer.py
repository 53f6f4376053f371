from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sygus.lexer import LexError, TokKind, Token, tokenize

from oracle import reference_tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [(t.kind, t.value) for t in tokenize(text)]


def test_comment_is_ignored():
    toks = tokenize("; hi\n(check-synth)")
    assert [(t.kind, t.value) for t in toks] == [
        (TokKind.LPAREN, None),
        (TokKind.SYMBOL, "check-synth"),
        (TokKind.RPAREN, None),
    ]


def test_comment_runs_to_end_of_line_only():
    toks = tokenize("x ; rest is ignored ())) \ny")
    assert [t.value for t in toks] == ["x", "y"]


def test_binary_bv_constant():
    (tok,) = tokenize("#b0110")
    assert tok.kind is TokKind.BV
    assert tok.value == (4, 0b0110)


def test_hex_bv_constant():
    # a=1010, F=1111, so #xaF is the eight bits 10101111.
    (tok,) = tokenize("#xaF")
    assert tok.kind is TokKind.BV
    assert tok.value == (8, int("10101111", 2))


def test_negative_integer():
    (tok,) = tokenize("-12")
    assert (tok.kind, tok.value) == (TokKind.INT, -12)


def test_lone_minus_is_a_symbol():
    (tok,) = tokenize("-")
    assert (tok.kind, tok.value) == (TokKind.SYMBOL, "-")


def test_real_constant_reduces():
    (tok,) = tokenize("3.50")
    assert tok.kind is TokKind.REAL
    assert tok.value == Fraction(350, 100)
    assert tok.value == Fraction(7, 2)


def test_negative_real():
    (tok,) = tokenize("-0.25")
    assert tok.value == Fraction(-1, 4)


def test_bool_constants():
    assert values("true false") == [(TokKind.BOOL, True), (TokKind.BOOL, False)]


def test_enum_constant_is_one_token():
    (tok,) = tokenize("Color::Red")
    assert tok.kind is TokKind.ENUM
    assert tok.value == ("Color", "Red")


def test_symbol_munches_maximally():
    # x-1 is a single symbol; subtraction must be written (- x 1).
    (tok,) = tokenize("x-1")
    assert (tok.kind, tok.value) == (TokKind.SYMBOL, "x-1")


def test_adjacent_int_literals():
    assert values("1-2") == [(TokKind.INT, 1), (TokKind.INT, -2)]


def test_quoted_literal():
    (tok,) = tokenize('"grid.7"')
    assert (tok.kind, tok.value) == (TokKind.QUOTED, "grid.7")


def test_positions_are_one_based():
    toks = tokenize("(a\n  b)")
    assert [(t.line, t.col) for t in toks] == [(1, 1), (1, 2), (2, 3), (2, 4)]


def test_reserved_words_lex_as_symbols():
    (tok,) = tokenize("synth-fun")
    assert (tok.kind, tok.value) == (TokKind.SYMBOL, "synth-fun")


LEX_ERRORS = [
    # digit-initial but neither integer nor real
    ("1.", 1, 1, "expected digits after decimal point"),
    ("12.x", 1, 1, "expected digits after decimal point"),
    ("#b", 1, 1, "expected digits after bit-vector prefix"),
    ("#b012", 1, 1, "invalid binary digit in '#b012'"),
    ("#q1", 1, 1, "expected 'b' or 'x' after '#'"),
    ("(a\n\t\r b)\n  #", 3, 3, "expected 'b' or 'x' after '#'"),
    ('"unterminated', 1, 1, "unterminated quoted literal"),
    ('; c\n  "x', 2, 3, "unterminated quoted literal"),
    ('""', 1, 1, "quoted literal must not be empty"),
    ('"has space"', 1, 5, "character ' ' not allowed in a quoted literal"),
    ('"a\nb"', 1, 3, "character '\\n' not allowed in a quoted literal"),
    # a lone colon is in no alphabet
    ("x:y", 1, 2, "character ':' cannot start a token"),
    ("[", 1, 1, "character '[' cannot start a token"),
    ("E::", 1, 4, "expected constructor name after '::'"),
    ("A:::B", 1, 4, "expected constructor name after '::'"),
    ("E::5", 1, 4, "expected constructor name after '::'"),
]


@pytest.mark.parametrize(
    "bad, line, col, message", LEX_ERRORS, ids=[case[0] for case in LEX_ERRORS]
)
def test_lex_errors(bad, line, col, message):
    with pytest.raises(LexError) as info:
        tokenize(bad)
    assert (info.value.line, info.value.col, info.value.message) == (line, col, message)


@pytest.mark.parametrize("literal", ["7" * 5000, "-" + "7" * 5000, "1." + "0" * 5000])
def test_numeral_beyond_the_conversion_limit_is_a_lex_error(literal):
    # The interpreter converts at most 4,300 decimal digits by default.
    with pytest.raises(LexError) as info:
        tokenize(f"(f\n  {literal})")
    digits = len(literal.lstrip("-").replace(".", ""))
    assert (info.value.line, info.value.col) == (2, 3)
    assert info.value.message == f"numeral of {digits} digits is too long"


def test_long_bit_vector_constants_lex():
    (tok,) = tokenize("#x" + "f" * 5000)
    assert tok.value == (20000, (1 << 20000) - 1)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("#xAbZ", [(TokKind.BV, (8, 171), 1, 1), (TokKind.SYMBOL, "Z", 1, 5)]),
        ("true::x", [(TokKind.ENUM, ("true", "x"), 1, 1)]),
        ("--5", [(TokKind.SYMBOL, "--5", 1, 1)]),
        ("1.5.3", [(TokKind.REAL, Fraction(3, 2), 1, 1), (TokKind.SYMBOL, ".3", 1, 4)]),
        ("a\r\tb", [(TokKind.SYMBOL, "a", 1, 1), (TokKind.SYMBOL, "b", 1, 4)]),
    ],
)
def test_tokens_and_positions(text, expected):
    assert [(t.kind, t.value, t.line, t.col) for t in tokenize(text)] == expected


def test_determinism():
    text = '(synth-fun f () Int ((Start Int (0 1 #b1010 3.5 E::A "v"))))'
    assert tokenize(text) == tokenize(text)


def test_tokens_are_immutable_values():
    first, second = tokenize("x\n x")
    assert (first.kind, first.value, first.line, first.col) == (TokKind.SYMBOL, "x", 1, 1)
    assert (second.kind, second.value, second.line, second.col) == (TokKind.SYMBOL, "x", 2, 2)
    assert first == Token(TokKind.SYMBOL, "x", 1, 1)
    assert first != second
    with pytest.raises(AttributeError):
        first.value = "y"


def _lexeme(tok: Token) -> str:
    if tok.kind is TokKind.LPAREN:
        return "("
    if tok.kind is TokKind.RPAREN:
        return ")"
    if tok.kind is TokKind.SYMBOL:
        return tok.value
    if tok.kind is TokKind.INT:
        return str(tok.value)
    if tok.kind is TokKind.REAL:
        places = 1
        while (abs(tok.value) * 10**places).denominator != 1:
            places += 1
        scaled = int(abs(tok.value) * 10**places)
        digits = str(scaled).rjust(places + 1, "0")
        sign = "-" if tok.value < 0 else ""
        return f"{sign}{digits[:-places]}.{digits[-places:]}"
    if tok.kind is TokKind.BOOL:
        return "true" if tok.value else "false"
    if tok.kind is TokKind.BV:
        width, value = tok.value
        return "#b" + format(value, f"0{width}b")
    if tok.kind is TokKind.QUOTED:
        return f'"{tok.value}"'
    assert tok.kind is TokKind.ENUM
    return f"{tok.value[0]}::{tok.value[1]}"


def test_lossless_reconstruction():
    text = '(define-fun f ((a Int)) Int (+ a -3))\n(set-options ((p "1.5")))\n#b0011 2.25 -7 Col::Green true'
    toks = tokenize(text)
    rejoined = " ".join(_lexeme(t) for t in toks)
    again = tokenize(rejoined)
    assert [(t.kind, t.value) for t in toks] == [(t.kind, t.value) for t in again]


def test_position_monotonicity():
    text = "(a b\n c (d))\n(e)"
    toks = tokenize(text)
    positions = [(t.line, t.col) for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


PIECES = [
    "(", ")", "0", "12", "-3", "1.5", "-0.25", "1.", "#b01", "#xaF", "#b2",
    "#", "#q", "true", "false", "E::A", "E::", "::", ":", '"v.1"', '"', '""',
    "x", "x-1", "-", "--", ".", "synth-fun", "_+*&|!~<>=/%?$^", "[",
    " ", "\t", "\r", "\n", "; note", ";(x)\n",
]


def offset(text: str, line: int, col: int) -> int:
    """The index of 1-based ``line``:``col`` in ``text``; the end of a line
    (or of the text) is a position too."""
    lines = text.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
    return sum(len(l) + 1 for l in lines[: line - 1]) + col - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_positions_point_at_their_tokens(text):
    try:
        toks = tokenize(text)
    except LexError as e:
        offset(text, e.line, e.col)
        return
    for t in toks:
        (first, *_) = tokenize(text[offset(text, t.line, t.col):])
        assert (first.kind, first.value, first.line, first.col) == (t.kind, t.value, 1, 1)


# The lexicon's alphabet and a few characters outside it: blanks, ``\r``,
# tabs, newlines, comments, quotes, bit-vector prefixes, signs, points,
# colons, and characters that start no token.
ALPHABET = " \t\r\n;\"#bx019aFE-.:()_+<=@[,\x0b\u00e9"
ORACLE_PIECES = PIECES + [
    "E::-1", "Sort::Ctor", " Sort::Ctor", "\tA::", "-1.", "-x", "- 1", "7.x",
    "#x", "#b10 ", "; c", ";\n", "\n\n", "  \n\t", '"a b"', '"a\nb"', "@",
]


def outcome(scan, text):
    """The tokens ``scan`` gives for ``text``, or its error's position and
    message."""
    try:
        return scan(text)
    except LexError as e:
        return (e.line, e.col, e.message)


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(
        st.text(alphabet=ALPHABET, max_size=30),
        st.lists(st.sampled_from(ORACLE_PIECES), max_size=30).map("".join),
    )
)
def test_tokenize_agrees_with_the_reference_scanner(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)

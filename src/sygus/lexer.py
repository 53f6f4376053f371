"""Tokenizer for the SyGuS surface syntax.

One regular expression, ``_TOKEN``, is the lexicon: each named
alternative is one token class, a regular set, and ``tokenize`` makes one
match per token.

- ``(`` and ``)``;
- numerals ``[0-9]+`` and decimals ``[0-9]+.[0-9]+``, either one signed
  by a leading ``-``: a minus immediately followed by a digit starts a
  literal, not a symbol;
- bit-vector constants ``#b[01]+`` (one bit per digit) and
  ``#x[0-9A-Fa-f]+`` (four bits per digit);
- quoted option values ``"[A-Za-z0-9.]+"``;
- symbols: a letter or one of ``_+-*&|!~<>=/%?.$^``, then letters, digits
  and those characters; ``true`` and ``false`` are Booleans, reserved
  words stay symbols, and ``Sort::Ctor`` is one enum constant.

Whitespace separates tokens, ``;`` starts a comment running to the end of
the line, and positions are 1-based.  Only ``\\n`` terminates a line;
``\\r`` counts as plain whitespace and a tab advances the column by one.
Blanks and a comment are no match of their own but the optional prefix of
the next one; a newline is a match of its own, which counts the line.  A
malformed literal (``12.``, ``#``, ``#b2``, an unclosed quote, ``E::``)
still matches its own alternative, which reports it; a character that
starts no token matches the one-character ``bad`` alternative, and the end
of the text matches ``end``.  A decimal numeral longer than the
interpreter converts (4,300 digits by default) is an error too; bit-vector
constants have no such limit.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:
    from fractions import Fraction

#: Keywords that may never be used as identifiers.
RESERVED_WORDS = frozenset(
    {
        "set-logic",
        "define-sort",
        "declare-var",
        "declare-fun",
        "define-fun",
        "synth-fun",
        "constraint",
        "check-synth",
        "set-options",
        "BitVec",
        "Array",
        "Int",
        "Bool",
        "Enum",
        "Real",
        "Constant",
        "Variable",
        "InputVariable",
        "LocalVariable",
        "let",
        "true",
        "false",
    }
)


class TokKind(Enum):
    LPAREN = auto()
    RPAREN = auto()
    SYMBOL = auto()
    INT = auto()
    REAL = auto()
    BOOL = auto()
    BV = auto()
    QUOTED = auto()
    ENUM = auto()


TokValue = Union[None, str, int, bool, "Fraction", tuple]


class Token(NamedTuple):
    kind: TokKind
    value: TokValue
    line: int
    col: int


class LexError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


_SYMBOL_REST = r"[A-Za-z0-9_+\-*&|!~<>=/%?.$^]*"
_SYMBOL = rf"[A-Za-z_+\-*&|!~<>=/%?.$^]{_SYMBOL_REST}"
# A symbol token does not start with a minus followed by a digit: that
# starts a numeral.  A constructor name may.
_SYMBOL_TOKEN = rf"(?:[A-Za-z_+*&|!~<>=/%?.$^]|-(?![0-9])){_SYMBOL_REST}"

# Each match is an optional prefix of blanks and a comment, then one token,
# one newline or the end of the text.  A comment runs to the newline, so no
# blank follows it.  Some alternative matches after any prefix (``bad`` takes
# any other character, ``end`` the end of the text), so the search never
# backtracks into a comment.  The frequent classes come first.  The group that
# closes last names the class, so ``enum`` makes a symbol an enum constant and
# ``fraction`` makes a numeral a decimal.
_TOKEN = re.compile(
    rf"""
    [ \t\r]*(?:;[^\n]*)?
    (?:
      (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<symbol>{_SYMBOL_TOKEN})(?P<enum>::(?P<ctor>{_SYMBOL})?)?
    | (?P<newline>\n)
    | (?P<numeral>-?(?P<whole>[0-9]+))(?P<fraction>\.[0-9]*)?
    | (?P<bv>\#(?P<base>[bx]?)(?P<digits>[0-9A-Fa-f]*))
    | (?P<quoted>"(?P<chars>[A-Za-z0-9.]*)(?P<close>"?))
    | (?P<end>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

# Group numbers of the classes ``tokenize`` handles inline.
_LPAREN_G, _RPAREN_G, _SYMBOL_G, _NEWLINE_G, _NUMERAL_G, _END_G = (
    _TOKEN.groupindex[name] for name in ("lparen", "rparen", "symbol", "newline", "numeral", "end")
)
_LPAREN, _RPAREN, _SYMBOL_K, _BOOL, _INT = (
    TokKind.LPAREN, TokKind.RPAREN, TokKind.SYMBOL, TokKind.BOOL, TokKind.INT
)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``, raising ``LexError`` on any malformed input.

    Equal symbols are one string object: the tokens, and the trees built
    from them, share each name instead of holding a copy per occurrence."""
    out: list[Token] = []
    append = out.append
    names: dict[str, str] = {}
    intern = names.setdefault
    # The body of ``Token.__new__``, without its Python-level call.
    new = tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        group, end = m.lastindex, m.end()
        if group == _LPAREN_G:
            append(new(Token, (_LPAREN, None, line, end - line_start)))
        elif group == _RPAREN_G:
            append(new(Token, (_RPAREN, None, line, end - line_start)))
        elif group == _SYMBOL_G:
            word = m[group]
            col = end - len(word) - line_start + 1
            if word == "true" or word == "false":
                append(new(Token, (_BOOL, word == "true", line, col)))
            else:
                append(new(Token, (_SYMBOL_K, intern(word, word), line, col)))
        elif group == _NEWLINE_G:
            line += 1
            line_start = end
        elif group == _NUMERAL_G:
            digits = m[group]
            col = end - len(digits) - line_start + 1
            append(new(Token, (_INT, _int(digits, line, col), line, col)))
        elif group == _END_G:
            break
        else:
            append(_other_token(m, m.lastgroup, text, line, line_start))
    return out


def _int(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:
        # Past its limit (4,300 digits by default) the interpreter refuses
        # the conversion, which takes quadratic time.
        count = len(digits) - digits.startswith("-")
        raise LexError(line, col, f"numeral of {count} digits is too long") from None


def _other_token(m: re.Match, kind: str, text: str, line: int, line_start: int) -> Token:
    """The token of match ``m`` of class ``kind``, one that ``tokenize``
    does not handle inline; ``LexError`` if it is malformed or if its first
    character starts no token."""
    start = m.start("numeral" if kind == "fraction" else "symbol" if kind == "enum" else kind)
    i = m.end()
    col = start - line_start + 1
    if kind == "bad":
        raise LexError(line, col, f"character {text[start]!r} cannot start a token")
    if kind == "enum":
        if m["ctor"] is None:
            raise LexError(line, col + i - start, "expected constructor name after '::'")
        return Token(TokKind.ENUM, (m["symbol"], m["ctor"]), line, col)
    if kind == "fraction":
        whole, fraction = m["whole"], m["fraction"][1:]
        if not fraction:
            raise LexError(line, col, "expected digits after decimal point")
        # Imported here, so that a file without a real literal never loads
        # ``fractions`` and the ``decimal`` it imports.
        from fractions import Fraction

        value = Fraction(_int(whole + fraction, line, col), 10 ** len(fraction))
        return Token(TokKind.REAL, -value if text[start] == "-" else value, line, col)
    if kind == "bv":
        base, digits = m["base"], m["digits"]
        if not base:
            raise LexError(line, col, "expected 'b' or 'x' after '#'")
        if not digits:
            raise LexError(line, col, "expected digits after bit-vector prefix")
        if base == "b" and digits.strip("01"):
            raise LexError(line, col, f"invalid binary digit in '#b{digits}'")
        bits = 1 if base == "b" else 4
        return Token(TokKind.BV, (bits * len(digits), int(digits, 2**bits)), line, col)
    # quoted
    if not m["close"]:
        if i == len(text):
            raise LexError(line, col, "unterminated quoted literal")
        raise LexError(line, col + i - start,
                       f"character {text[i]!r} not allowed in a quoted literal")
    if not m["chars"]:
        raise LexError(line, col, "quoted literal must not be empty")
    return Token(TokKind.QUOTED, m["chars"], line, col)

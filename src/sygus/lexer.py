"""Tokenizer for the SyGuS surface syntax.

One regular expression, ``_TOKEN``, is the lexicon: each named
alternative is one token class, a regular set.

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
A malformed literal (``12.``, ``#``, ``#b2``, an unclosed quote, ``E::``)
still matches its own alternative, which reports it; only a character that
starts no token matches nothing.  A decimal numeral longer than the
interpreter converts (4,300 digits by default) is an error too; bit-vector
constants have no such limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from fractions import Fraction
from typing import Union

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


TokValue = Union[None, str, int, bool, Fraction, tuple]


@dataclass(frozen=True)
class Token:
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


_SYMBOL = r"[A-Za-z_+\-*&|!~<>=/%?.$^][A-Za-z0-9_+\-*&|!~<>=/%?.$^]*"

_TOKEN = re.compile(
    rf"""
      (?P<space>[ \t\r]+|;[^\n]*)
    | (?P<newline>\n[ \t\r\n]*)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<number>-?(?P<whole>[0-9]+)(?:\.(?P<fraction>[0-9]*))?)
    | (?P<bv>\#(?P<base>[bx]?)(?P<digits>[0-9A-Fa-f]*))
    | (?P<quoted>"(?P<chars>[A-Za-z0-9.]*)(?P<close>"?))
    | (?P<symbol>{_SYMBOL})(?P<enum>::(?P<ctor>{_SYMBOL})?)?
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``, raising ``LexError`` on any malformed input."""
    out: list[Token] = []
    line, line_start, i = 1, 0, 0
    match = _TOKEN.match
    while i < len(text):
        m = match(text, i)
        if m is None:
            raise LexError(line, i - line_start + 1,
                           f"character {text[i]!r} cannot start a token")
        start, i, kind = i, m.end(), m.lastgroup
        if kind == "space":
            continue
        col = start - line_start + 1
        if kind == "newline":
            line += text.count("\n", start, i)
            line_start = text.rindex("\n", start, i) + 1
        elif kind == "lparen":
            out.append(Token(TokKind.LPAREN, None, line, col))
        elif kind == "rparen":
            out.append(Token(TokKind.RPAREN, None, line, col))
        elif kind == "symbol":
            word = m["symbol"]
            if word == "true" or word == "false":
                out.append(Token(TokKind.BOOL, word == "true", line, col))
            else:
                out.append(Token(TokKind.SYMBOL, word, line, col))
        elif kind == "enum":
            if m["ctor"] is None:
                raise LexError(line, col + i - start, "expected constructor name after '::'")
            out.append(Token(TokKind.ENUM, (m["symbol"], m["ctor"]), line, col))
        elif kind == "number":
            whole, fraction = m["whole"], m["fraction"]
            if fraction == "":
                raise LexError(line, col, "expected digits after decimal point")
            digits = whole if fraction is None else whole + fraction
            try:
                value = int(digits)
            except ValueError:
                # Past its limit (4,300 digits by default) the interpreter
                # refuses the conversion, which takes quadratic time.
                raise LexError(line, col, f"numeral of {len(digits)} digits is too long") from None
            if fraction is None:
                tok_kind = TokKind.INT
            else:
                tok_kind, value = TokKind.REAL, Fraction(value, 10 ** len(fraction))
            out.append(Token(tok_kind, -value if text[start] == "-" else value, line, col))
        elif kind == "bv":
            base, digits = m["base"], m["digits"]
            if not base:
                raise LexError(line, col, "expected 'b' or 'x' after '#'")
            if not digits:
                raise LexError(line, col, "expected digits after bit-vector prefix")
            if base == "b" and digits.strip("01"):
                raise LexError(line, col, f"invalid binary digit in '#b{digits}'")
            bits = 1 if base == "b" else 4
            out.append(Token(TokKind.BV, (bits * len(digits), int(digits, 2**bits)), line, col))
        else:  # quoted
            if not m["close"]:
                if i == len(text):
                    raise LexError(line, col, "unterminated quoted literal")
                raise LexError(line, col + i - start,
                               f"character {text[i]!r} not allowed in a quoted literal")
            if not m["chars"]:
                raise LexError(line, col, "quoted literal must not be empty")
            out.append(Token(TokKind.QUOTED, m["chars"], line, col))
    return out

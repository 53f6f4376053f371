"""Recursive-descent parser from token streams to programs.

The first deviation from the command grammars aborts parsing with a
``ParseError``; there is no error recovery.  Reserved words are rejected
wherever a user identifier is required.

The parser reads its tokens from any iterable, once and in order, one token
ahead of what it has parsed; it never indexes them, so a stream made as it
is read, such as the tokens of a text's blocks chained together, is parsed
without being held whole.
"""

from __future__ import annotations

from typing import Iterable

from .lexer import RESERVED_WORDS, TokKind, Token, tokenize
from .syntax import (
    App,
    ArraySort,
    Binding,
    BitVecSort,
    BoolConst,
    BoolSort,
    BVConst,
    CheckSynth,
    Command,
    Constraint,
    ConstantOf,
    DeclareFun,
    DeclareVar,
    DefineFun,
    DefineSort,
    EnumConst,
    EnumSort,
    GTerm,
    InputVariableOf,
    IntConst,
    IntSort,
    Let,
    Lit,
    LocalVariableOf,
    NamedSort,
    NTDef,
    Pos,
    Program,
    RealConst,
    RealSort,
    Ref,
    SetLogic,
    SetOptions,
    SortExpr,
    Symbol,
    SygusError,
    SynthFun,
    Term,
    VariableOf,
)

_COMMAND_KEYWORDS = {
    "set-logic",
    "define-sort",
    "declare-var",
    "declare-fun",
    "define-fun",
    "synth-fun",
    "constraint",
    "check-synth",
    "set-options",
}

_SHORTHAND_KEYWORDS = {
    "Constant": ConstantOf,
    "Variable": VariableOf,
    "InputVariable": InputVariableOf,
    "LocalVariable": LocalVariableOf,
}


_LPAREN, _RPAREN, _SYMBOL, _INT = TokKind.LPAREN, TokKind.RPAREN, TokKind.SYMBOL, TokKind.INT


def _leaf(kind: TokKind, value, line: int, col: int) -> Term | None:
    """The term a token is on its own, or ``None`` if it is none."""
    if kind is _SYMBOL:
        return None if value in RESERVED_WORDS else Ref(value, Pos(line, col))
    if kind is _INT:
        return Lit(IntConst(value), Pos(line, col))
    if kind is TokKind.REAL:
        return Lit(RealConst(value), Pos(line, col))
    if kind is TokKind.BOOL:
        return Lit(BoolConst(value), Pos(line, col))
    if kind is TokKind.BV:
        return Lit(BVConst(*value), Pos(line, col))
    if kind is TokKind.ENUM:
        return Lit(EnumConst(*value), Pos(line, col))
    return None


class ParseError(SygusError):
    """``E-PARSE`` at ``pos``: what was ``expected`` there and ``found``."""

    def __init__(self, pos: Pos, expected: str, found: str):
        super().__init__("E-PARSE", pos, f"expected {expected}, found {found}")


def _describe(tok: Token | None) -> str:
    if tok is None:
        return "end of input"
    if tok.kind is TokKind.LPAREN:
        return "'('"
    if tok.kind is TokKind.RPAREN:
        return "')'"
    if tok.kind is TokKind.SYMBOL:
        return f"'{tok.value}'"
    if tok.kind is TokKind.QUOTED:
        return f'"{tok.value}"'
    if tok.kind is TokKind.ENUM:
        return f"'{tok.value[0]}::{tok.value[1]}'"
    if tok.kind is TokKind.BOOL:
        return "'true'" if tok.value else "'false'"
    return f"'{tok.value}'"


class _Parser:
    """One pass over a token stream, one token ahead of what it has parsed.

    ``tok`` is the lookahead, the first token not yet consumed, or ``None``
    past the end of the stream, and ``last`` is then the final token, where
    an error at the end of input is reported."""

    def __init__(self, tokens: Iterable[Token]):
        self.it = iter(tokens)
        self.last: Token | None = None
        self.tok: Token | None = next(self.it, None)

    # -- token plumbing -----------------------------------------------------

    def advance(self) -> None:
        """Consume the lookahead."""
        self.last = self.tok
        self.tok = next(self.it, None)

    def pos(self) -> Pos:
        tok = self.tok if self.tok is not None else self.last
        return Pos(tok.line, tok.col) if tok is not None else Pos(1, 1)

    def fail(self, expected: str, tok: Token | None = None):
        if tok is None:
            tok = self.tok
        pos = Pos(tok.line, tok.col) if tok is not None else self.pos()
        raise ParseError(pos, expected, _describe(tok))

    def take(self, kind: TokKind, expected: str) -> Token:
        tok = self.tok
        if tok is not None and tok[0] is kind:
            self.advance()
            return tok
        self.fail(expected)

    def identifier(self, what: str) -> tuple[Symbol, Pos]:
        tok = self.tok
        if tok is None or tok.kind is not TokKind.SYMBOL:
            self.fail(what, tok)
        if tok.value in RESERVED_WORDS:
            raise ParseError(
                Pos(tok.line, tok.col),
                what,
                f"reserved word '{tok.value}'",
            )
        self.advance()
        return tok.value, Pos(tok.line, tok.col)

    def done(self) -> bool:
        return self.tok is None

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        if self.done():
            raise ParseError(Pos(1, 1), "at least one command", "end of input")
        commands: list[Command] = []
        while not self.done():
            cmd = self.command()
            if isinstance(cmd, SetLogic) and commands:
                raise ParseError(
                    cmd.pos, "set-logic before any other command", "'set-logic'"
                )
            commands.append(cmd)
        return Program(tuple(commands))

    def command(self) -> Command:
        open_tok = self.take(TokKind.LPAREN, "'(' starting a command")
        pos = Pos(open_tok.line, open_tok.col)
        tok = self.tok
        if tok is None or tok.kind is not TokKind.SYMBOL or tok.value not in _COMMAND_KEYWORDS:
            self.fail("a command keyword", tok)
        keyword = tok.value
        self.advance()
        if keyword == "set-logic":
            name, _ = self.identifier("a logic name")
            cmd: Command = SetLogic(name, pos)
        elif keyword == "define-sort":
            name, _ = self.identifier("a sort name")
            cmd = DefineSort(name, self.sort_expr(), pos)
        elif keyword == "declare-var":
            name, _ = self.identifier("a variable name")
            cmd = DeclareVar(name, self.sort_expr(), pos)
        elif keyword == "declare-fun":
            name, _ = self.identifier("a function name")
            self.take(TokKind.LPAREN, "'(' starting the argument sort list")
            arg_sorts: list[SortExpr] = []
            while not self._at_rparen():
                arg_sorts.append(self.sort_expr())
            self.take(TokKind.RPAREN, "')'")
            cmd = DeclareFun(name, tuple(arg_sorts), self.sort_expr(), pos)
        elif keyword == "define-fun":
            name, _ = self.identifier("a function name")
            params = self.param_list()
            ret = self.sort_expr()
            cmd = DefineFun(name, params, ret, self.term(), pos)
        elif keyword == "synth-fun":
            cmd = self.synth_fun_tail(pos)
        elif keyword == "constraint":
            cmd = Constraint(self.term(), pos)
        elif keyword == "check-synth":
            cmd = CheckSynth(pos)
        else:  # set-options
            cmd = SetOptions(self.option_list(), pos)
        self.take(TokKind.RPAREN, "')' closing the command")
        return cmd

    def synth_fun_tail(self, pos: Pos) -> SynthFun:
        name, _ = self.identifier("a function name")
        params = self.param_list()
        ret = self.sort_expr()
        self.take(TokKind.LPAREN, "'(' starting the grammar")
        nts: list[NTDef] = []
        while not self._at_rparen():
            nts.append(self.nt_def())
        if not nts:
            self.fail("at least one non-terminal definition")
        self.take(TokKind.RPAREN, "')'")
        return SynthFun(name, params, ret, tuple(nts), pos)

    def nt_def(self) -> NTDef:
        open_tok = self.take(TokKind.LPAREN, "'(' starting a non-terminal definition")
        name, _ = self.identifier("a non-terminal name")
        sort = self.sort_expr()
        self.take(TokKind.LPAREN, "'(' starting the production list")
        productions: list[GTerm] = []
        while not self._at_rparen():
            productions.append(self.gterm())
        if not productions:
            self.fail("at least one production")
        self.take(TokKind.RPAREN, "')'")
        self.take(TokKind.RPAREN, "')' closing the non-terminal definition")
        return NTDef(name, sort, tuple(productions), Pos(open_tok.line, open_tok.col))

    def param_list(self) -> tuple[tuple[Symbol, SortExpr], ...]:
        self.take(TokKind.LPAREN, "'(' starting the parameter list")
        params: list[tuple[Symbol, SortExpr]] = []
        while not self._at_rparen():
            self.take(TokKind.LPAREN, "'(' starting a parameter")
            pname, _ = self.identifier("a parameter name")
            params.append((pname, self.sort_expr()))
            self.take(TokKind.RPAREN, "')'")
        self.take(TokKind.RPAREN, "')'")
        return tuple(params)

    def option_list(self) -> tuple[tuple[Symbol, str], ...]:
        self.take(TokKind.LPAREN, "'(' starting the option list")
        opts: list[tuple[Symbol, str]] = []
        while not self._at_rparen():
            self.take(TokKind.LPAREN, "'(' starting an option pair")
            oname, _ = self.identifier("an option name")
            value = self.take(TokKind.QUOTED, "a quoted option value")
            opts.append((oname, value.value))
            self.take(TokKind.RPAREN, "')'")
        if not opts:
            self.fail("at least one option pair")
        self.take(TokKind.RPAREN, "')'")
        return tuple(opts)

    def _at_rparen(self) -> bool:
        tok = self.tok
        return tok is not None and tok.kind is TokKind.RPAREN

    def sort_expr(self) -> SortExpr:
        tok = self.tok
        if tok is None:
            self.fail("a sort expression", tok)
        pos = Pos(tok.line, tok.col)
        if tok.kind is TokKind.SYMBOL:
            if tok.value == "Int":
                self.advance()
                return IntSort(pos)
            if tok.value == "Bool":
                self.advance()
                return BoolSort(pos)
            if tok.value == "Real":
                self.advance()
                return RealSort(pos)
            if tok.value in RESERVED_WORDS:
                self.fail("a sort expression", tok)
            self.advance()
            return NamedSort(tok.value, pos)
        if tok.kind is not TokKind.LPAREN:
            self.fail("a sort expression", tok)
        self.advance()
        head = self.tok
        if head is None or head.kind is not TokKind.SYMBOL:
            self.fail("'BitVec', 'Enum', or 'Array'", head)
        if head.value == "BitVec":
            self.advance()
            width = self.tok
            if width is None or width.kind is not TokKind.INT or width.value < 1:
                self.fail("a positive bit width", width)
            self.advance()
            self.take(TokKind.RPAREN, "')'")
            return BitVecSort(width.value, pos)
        if head.value == "Enum":
            self.advance()
            self.take(TokKind.LPAREN, "'(' starting the constructor list")
            ctors: list[Symbol] = []
            while not self._at_rparen():
                cname, _ = self.identifier("a constructor name")
                ctors.append(cname)
            if not ctors:
                self.fail("at least one constructor")
            self.take(TokKind.RPAREN, "')'")
            self.take(TokKind.RPAREN, "')'")
            return EnumSort(tuple(ctors), pos)
        if head.value == "Array":
            self.advance()
            domain = self.sort_expr()
            codomain = self.sort_expr()
            self.take(TokKind.RPAREN, "')'")
            return ArraySort(domain, codomain, pos)
        self.fail("'BitVec', 'Enum', or 'Array'", head)

    def term(self) -> Term:
        return self._term(allow_shorthands=False)

    def gterm(self) -> GTerm:
        return self._term(allow_shorthands=True)

    def _term(self, allow_shorthands: bool) -> Term:
        """The term at the lookahead; the token after it becomes the
        lookahead."""
        if self.tok is None:
            self.fail("a term")
        node = self._term_here(allow_shorthands)
        self.advance()
        return node

    def _term_here(self, allow_shorthands: bool) -> Term:
        """The term that starts at ``tok``, which is consumed.  On return
        ``tok`` is the term's last token, consumed too, and no token past
        it has been read, so that an application's loop reads on from the
        stream.  The hot path: the leaves of an application's arguments are
        built in its loop, not by a call."""
        tok = self.tok
        kind, value, line, col = tok
        if kind is not _LPAREN:
            node = _leaf(kind, value, line, col)
            if node is None:
                self.fail("a term", tok)
            return node
        pos = Pos(line, col)
        it = self.it
        head = next(it, None)
        if head is None:
            self.last, self.tok = tok, None
            self.fail("an operator symbol")
        self.tok = head
        kind, name = head[0], head[1]
        if kind is not _SYMBOL:
            if kind is _RPAREN:
                self.fail("an operator symbol in a non-empty application", head)
            self.fail("an operator symbol", head)
        if name in RESERVED_WORDS:
            if name == "let":
                self.advance()
                return self._let_tail(pos, allow_shorthands)
            shorthand = _SHORTHAND_KEYWORDS.get(name)
            if shorthand is None:
                self.fail("an operator symbol", head)
            if not allow_shorthands:
                raise ParseError(
                    Pos(head.line, head.col),
                    "a term",
                    f"grammar shorthand '{name}' (only allowed in grammars)",
                )
            self.advance()
            node = shorthand(self.sort_expr(), pos)
            self._closing("')'")
            return node
        args: list[Term] = []
        append = args.append
        tok = head
        for tok in it:
            kind, value, line, col = tok
            # ``_leaf``'s two most frequent cases, inline.
            if kind is _SYMBOL and value not in RESERVED_WORDS:
                append(Ref(value, Pos(line, col)))
            elif kind is _INT:
                append(Lit(IntConst(value), Pos(line, col)))
            elif kind is _RPAREN:
                self.tok = tok
                return App(name, tuple(args), pos)
            else:
                self.tok = tok
                append(self._term_here(allow_shorthands))
                # The argument's last token, should the stream end here.
                tok = self.tok
        self.last, self.tok = tok, None
        self.fail("a term")

    def _closing(self, expected: str) -> None:
        """Fail unless the lookahead is the ')' that ends a term, which
        ``_term_here`` leaves unread past."""
        if self.tok is None or self.tok[0] is not _RPAREN:
            self.fail(expected)

    def _let_tail(self, pos: Pos, allow_shorthands: bool) -> Let:
        self.take(TokKind.LPAREN, "'(' starting the binding list")
        bindings: list[Binding] = []
        seen: set[Symbol] = set()
        while not self._at_rparen():
            self.take(TokKind.LPAREN, "'(' starting a binding")
            bname, bpos = self.identifier("a binding name")
            if bname in seen:
                raise ParseError(
                    bpos, "distinct binding names", f"duplicate '{bname}'"
                )
            seen.add(bname)
            bsort = self.sort_expr()
            bvalue = self._term(allow_shorthands)
            self.take(TokKind.RPAREN, "')'")
            bindings.append(Binding(bname, bsort, bvalue))
        if not bindings:
            self.fail("at least one binding")
        self.take(TokKind.RPAREN, "')'")
        body = self._term(allow_shorthands)
        self._closing("')' closing the let")
        return Let(tuple(bindings), body, pos)


def parse_program(tokens: Iterable[Token]) -> Program:
    """Parse a complete token stream into a program.

    ``tokens`` is any iterable of tokens, such as ``tokenize``'s list or
    the tokens of a text's ``blocks`` chained together; it is read once,
    one token ahead of the parse, so a token the parser has passed can be
    freed.  The parse stops at its first error and reads no further, so a
    ``ParseError`` is raised even where a later part of the stream holds a
    lexical error (``sygus.cli`` reports that one instead)."""
    return _Parser(tokens).program()


def parse_text(text: str) -> Program:
    """Tokenize and parse source text."""
    return parse_program(tokenize(text))


def _parse_whole(tokens: Iterable[Token], method: str):
    p = _Parser(tokens)
    node = getattr(p, method)()
    if not p.done():
        p.fail("end of input")
    return node


def parse_sort_expr(tokens: Iterable[Token]) -> SortExpr:
    """Parse a token stream holding exactly one sort expression."""
    return _parse_whole(tokens, "sort_expr")


def parse_term(tokens: Iterable[Token]) -> Term:
    """Parse a token stream holding exactly one constraint term."""
    return _parse_whole(tokens, "term")


def parse_gterm(tokens: Iterable[Token]) -> GTerm:
    """Parse a token stream holding exactly one grammar term."""
    return _parse_whole(tokens, "gterm")

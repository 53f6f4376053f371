"""Recursive-descent parser from token streams to programs.

The first deviation from the command grammars aborts parsing with a
``ParseError``; there is no error recovery.  Reserved words are rejected
wherever a user identifier is required.
"""

from __future__ import annotations

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


class ParseError(Exception):
    def __init__(self, pos: Pos, expected: str, found: str):
        super().__init__(f"{pos}: expected {expected}, found {found}")
        self.pos = pos
        self.expected = expected
        self.found = found


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
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def pos(self) -> Pos:
        tok = self.peek()
        if tok is not None:
            return Pos(tok.line, tok.col)
        if self.tokens:
            last = self.tokens[-1]
            return Pos(last.line, last.col)
        return Pos(1, 1)

    def fail(self, expected: str, tok: Token | None = None):
        if tok is None:
            tok = self.peek()
        pos = Pos(tok.line, tok.col) if tok is not None else self.pos()
        raise ParseError(pos, expected, _describe(tok))

    def take(self, kind: TokKind, expected: str) -> Token:
        i, tokens = self.i, self.tokens
        if i < len(tokens) and tokens[i][0] is kind:
            self.i = i + 1
            return tokens[i]
        self.fail(expected)

    def identifier(self, what: str) -> tuple[Symbol, Pos]:
        tok = self.peek()
        if tok is None or tok.kind is not TokKind.SYMBOL:
            self.fail(what, tok)
        if tok.value in RESERVED_WORDS:
            raise ParseError(
                Pos(tok.line, tok.col),
                what,
                f"reserved word '{tok.value}'",
            )
        self.i += 1
        return tok.value, Pos(tok.line, tok.col)

    def done(self) -> bool:
        return self.i >= len(self.tokens)

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
        tok = self.peek()
        if tok is None or tok.kind is not TokKind.SYMBOL or tok.value not in _COMMAND_KEYWORDS:
            self.fail("a command keyword", tok)
        keyword = tok.value
        self.i += 1
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
        tok = self.peek()
        return tok is not None and tok.kind is TokKind.RPAREN

    def sort_expr(self) -> SortExpr:
        tok = self.peek()
        if tok is None:
            self.fail("a sort expression", tok)
        pos = Pos(tok.line, tok.col)
        if tok.kind is TokKind.SYMBOL:
            if tok.value == "Int":
                self.i += 1
                return IntSort(pos)
            if tok.value == "Bool":
                self.i += 1
                return BoolSort(pos)
            if tok.value == "Real":
                self.i += 1
                return RealSort(pos)
            if tok.value in RESERVED_WORDS:
                self.fail("a sort expression", tok)
            self.i += 1
            return NamedSort(tok.value, pos)
        if tok.kind is not TokKind.LPAREN:
            self.fail("a sort expression", tok)
        self.i += 1
        head = self.peek()
        if head is None or head.kind is not TokKind.SYMBOL:
            self.fail("'BitVec', 'Enum', or 'Array'", head)
        if head.value == "BitVec":
            self.i += 1
            width = self.peek()
            if width is None or width.kind is not TokKind.INT or width.value < 1:
                self.fail("a positive bit width", width)
            self.i += 1
            self.take(TokKind.RPAREN, "')'")
            return BitVecSort(width.value, pos)
        if head.value == "Enum":
            self.i += 1
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
            self.i += 1
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
        # The hot path: tokens are read by index, and the leaves of an
        # application's arguments are built in its loop, not by a call.
        tokens = self.tokens
        i = self.i
        if i == len(tokens):
            self.fail("a term")
        tok = tokens[i]
        kind, value, line, col = tok
        if kind is not _LPAREN:
            node = _leaf(kind, value, line, col)
            if node is None:
                self.fail("a term", tok)
            self.i = i + 1
            return node
        pos = Pos(line, col)
        i += 1
        self.i = i
        if i == len(tokens):
            self.fail("an operator symbol")
        head = tokens[i]
        kind, name = head[0], head[1]
        if kind is not _SYMBOL:
            if kind is _RPAREN:
                self.fail("an operator symbol in a non-empty application", head)
            self.fail("an operator symbol", head)
        if name in RESERVED_WORDS:
            if name == "let":
                self.i = i + 1
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
            self.i = i + 1
            node = shorthand(self.sort_expr(), pos)
            self.take(_RPAREN, "')'")
            return node
        args: list[Term] = []
        append = args.append
        n = len(tokens)
        i += 1
        while i < n:
            kind, value, line, col = tokens[i]
            # ``_leaf``'s two most frequent cases, inline.
            if kind is _SYMBOL and value not in RESERVED_WORDS:
                append(Ref(value, Pos(line, col)))
            elif kind is _INT:
                append(Lit(IntConst(value), Pos(line, col)))
            elif kind is _RPAREN:
                self.i = i + 1
                return App(name, tuple(args), pos)
            else:
                self.i = i
                append(self._term(allow_shorthands))
                i = self.i
                continue
            i += 1
        self.i = i
        self.fail("a term")

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
        self.take(TokKind.RPAREN, "')' closing the let")
        return Let(tuple(bindings), body, pos)


def parse_program(tokens: list[Token]) -> Program:
    """Parse a complete token stream into a program."""
    return _Parser(tokens).program()


def parse_text(text: str) -> Program:
    """Tokenize and parse source text."""
    return parse_program(tokenize(text))


def _parse_whole(tokens: list[Token], method: str):
    p = _Parser(tokens)
    node = getattr(p, method)()
    if not p.done():
        p.fail("end of input")
    return node


def parse_sort_expr(tokens: list[Token]) -> SortExpr:
    """Parse a token stream holding exactly one sort expression."""
    return _parse_whole(tokens, "sort_expr")


def parse_term(tokens: list[Token]) -> Term:
    """Parse a token stream holding exactly one constraint term."""
    return _parse_whole(tokens, "term")


def parse_gterm(tokens: list[Token]) -> GTerm:
    """Parse a token stream holding exactly one grammar term."""
    return _parse_whole(tokens, "gterm")

"""Core AST for SyGuS problem specifications.

Sorts, literals, constraint terms, grammar terms, commands, and whole
programs, as produced by the parser.  All nodes are frozen dataclasses;
source positions ride along for diagnostics but are excluded from equality
and hashing, so ``==`` is structural equality (name-sensitive: let-bound
names are compared literally, there is no alpha-equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple

Symbol = str


@dataclass(frozen=True)
class Pos:
    """1-based source position."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_POS = Pos(0, 0)


# ---------------------------------------------------------------------------
# Literals


class Literal:
    """Base class for literal constants."""

    __slots__ = ()


@dataclass(frozen=True)
class IntConst(Literal):
    value: int


@dataclass(frozen=True)
class RealConst(Literal):
    """Exact rational with a finite decimal expansion.

    The value always comes from a decimal literal, so the reduced
    denominator has no prime factors other than 2 and 5.
    """

    value: Fraction

    def __post_init__(self) -> None:
        den = self.value.denominator
        for p in (2, 5):
            while den % p == 0:
                den //= p
        if den != 1:
            raise ValueError(f"not a finite decimal: {self.value}")


@dataclass(frozen=True)
class BoolConst(Literal):
    value: bool


@dataclass(frozen=True)
class BVConst(Literal):
    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("bit-vector width must be positive")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} out of range for width {self.width}")

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.width}b")


@dataclass(frozen=True)
class EnumConst(Literal):
    sort_name: Symbol
    constructor: Symbol


# ---------------------------------------------------------------------------
# Sorts (surface syntax; aliases unresolved)


class SortExpr:
    """Base class for surface sort expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class IntSort(SortExpr):
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class BoolSort(SortExpr):
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class RealSort(SortExpr):
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class BitVecSort(SortExpr):
    width: int
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class EnumSort(SortExpr):
    constructors: tuple[Symbol, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class ArraySort(SortExpr):
    domain: SortExpr
    codomain: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class NamedSort(SortExpr):
    name: Symbol
    pos: Pos = field(default=NO_POS, compare=False)


# ---------------------------------------------------------------------------
# Terms and grammar terms
#
# Grammar terms reuse the constraint-term node classes and add the four
# shorthand leaves below; the parser enforces where each form is legal.


class Term:
    """Base class for term and grammar-term nodes."""

    __slots__ = ()


GTerm = Term


@dataclass(frozen=True)
class App(Term):
    head: Symbol
    args: tuple[Term, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Lit(Term):
    value: Literal
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Ref(Term):
    name: Symbol
    pos: Pos = field(default=NO_POS, compare=False)


class Binding(NamedTuple):
    name: Symbol
    sort: SortExpr
    value: Term


@dataclass(frozen=True)
class Let(Term):
    bindings: tuple[Binding, ...]
    body: Term
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class ConstantOf(Term):
    sort: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class VariableOf(Term):
    sort: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class InputVariableOf(Term):
    sort: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class LocalVariableOf(Term):
    sort: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


SHORTHANDS = (ConstantOf, VariableOf, InputVariableOf, LocalVariableOf)


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class NTDef:
    """One non-terminal of a synthesis grammar with its productions."""

    name: Symbol
    sort: SortExpr
    productions: tuple[GTerm, ...]
    pos: Pos = field(default=NO_POS, compare=False)


class Command:
    """Base class for top-level commands."""

    __slots__ = ()


@dataclass(frozen=True)
class SetLogic(Command):
    logic: Symbol
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class DefineSort(Command):
    name: Symbol
    body: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class DeclareVar(Command):
    name: Symbol
    sort: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class DeclareFun(Command):
    name: Symbol
    arg_sorts: tuple[SortExpr, ...]
    ret: SortExpr
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class DefineFun(Command):
    name: Symbol
    params: tuple[tuple[Symbol, SortExpr], ...]
    ret: SortExpr
    body: Term
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class SynthFun(Command):
    name: Symbol
    params: tuple[tuple[Symbol, SortExpr], ...]
    ret: SortExpr
    grammar: tuple[NTDef, ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Constraint(Command):
    body: Term
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class CheckSynth(Command):
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class SetOptions(Command):
    opts: tuple[tuple[Symbol, str], ...]
    pos: Pos = field(default=NO_POS, compare=False)


@dataclass(frozen=True)
class Program:
    commands: tuple[Command, ...]


# ---------------------------------------------------------------------------
# Structural utilities


def term_size(t: Term) -> int:
    """Node count of a term: every leaf and internal node counts 1.

    A let counts 1 for itself plus the sizes of all binding values and the
    body; the binding name/sort pairs are not counted.
    """
    if isinstance(t, App):
        return 1 + sum(term_size(a) for a in t.args)
    if isinstance(t, Let):
        return 1 + sum(term_size(b.value) for b in t.bindings) + term_size(t.body)
    return 1


def subterms(t: Term) -> Iterator[Term]:
    """Pre-order traversal including binding values and let bodies."""
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)
    elif isinstance(t, Let):
        for b in t.bindings:
            yield from subterms(b.value)
        yield from subterms(t.body)


def free_refs(t: Term) -> frozenset[Symbol]:
    """Names referenced by ``Ref`` nodes and not bound by an enclosing let.

    Application heads are not included; they live in the function namespace.
    """
    if isinstance(t, Ref):
        return frozenset((t.name,))
    if isinstance(t, App):
        out: frozenset[Symbol] = frozenset()
        for a in t.args:
            out |= free_refs(a)
        return out
    if isinstance(t, Let):
        # Parallel bindings: values are evaluated outside the new scope.
        out = frozenset()
        for b in t.bindings:
            out |= free_refs(b.value)
        bound = frozenset(b.name for b in t.bindings)
        return out | (free_refs(t.body) - bound)
    return frozenset()


def app_heads(t: Term) -> frozenset[Symbol]:
    """All application heads occurring anywhere in the term."""
    heads: set[Symbol] = set()
    for s in subterms(t):
        if isinstance(s, App):
            heads.add(s.head)
    return frozenset(heads)

"""Core AST for SyGuS problem specifications.

Sorts, literals, constraint terms, grammar terms, commands, and whole
programs, as produced by the parser.  All nodes are immutable records (see
``Record``); source positions ride along for diagnostics but are excluded
from equality and hashing, so ``==`` is structural equality (name-sensitive:
let-bound names are compared literally, there is no alpha-equivalence).
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

Symbol = str


# ---------------------------------------------------------------------------
# Records

#: Stores one field in a record's ``__init__``, past ``Record.__setattr__``.
set_field = object.__setattr__


class _Unregistered:
    """The ``__dataclass_fields__`` of a record class not yet registered
    with ``dataclasses``.  The first read registers the class, which puts
    the real field table in the class's ``__dict__`` in place of this
    descriptor, and returns that table."""

    __slots__ = ("cls",)

    def __init__(self, cls: type) -> None:
        self.cls = cls

    def __get__(self, instance: object, owner: type) -> dict:
        from dataclasses import dataclass

        cls = self.cls
        # Registering generates no method.  It reads the field tables of
        # the bases first, which registers them in turn.
        dataclass(init=False, repr=False, eq=False)(cls)
        return cls.__dict__["__dataclass_fields__"]


class Record:
    """An immutable record with named fields, built with no generated code.

    A record class lists its fields in ``__slots__`` and annotates them in
    the same order.  The inherited constructor takes them in that order, by
    position or by keyword, fills one left out from the class's
    ``_defaults`` (a class attribute named after the field would clash with
    its slot), and raises ``TypeError`` where a signature would.  Only a
    record that validates its fields, or that is built once per parsed node
    or value, where the inherited one would cost twice as much, writes its
    own.  A record class is not subclassed: the classes between it and
    ``Record``, such as ``Term``, have no fields.  The base then gives what
    a frozen dataclass has:

    - ``==`` between records of one class compares the fields not named in
      the class's ``_uncompared``, and ``hash`` is the hash of the tuple of
      those fields;
    - the repr is ``Name(field=value, ...)`` over every field;
    - assigning or deleting a field raises ``dataclasses``'
      ``FrozenInstanceError``;
    - ``copy`` and ``pickle`` rebuild a record by calling its class with
      its fields;
    - ``__match_args__`` lists the fields.

    A record refers only to its children, never to a parent or to itself,
    so records, like the tokens they are built from, form no reference
    cycle: reference counting frees every one of them, which is why
    ``sygus.cli.run`` pauses the cyclic garbage collector while it builds
    and prints them.

    Each class is registered with ``dataclasses`` on first use, which
    generates nothing for it here: ``dataclasses.fields``,
    ``dataclasses.is_dataclass`` and everything else that reads a class's
    ``__dataclass_fields__`` registers it.  So a program that never asks
    does not load ``dataclasses`` (nor the ``inspect`` it imports).  Each
    class has that descriptor in its own ``__dict__``: a base's
    registration must not hide the descriptor of its subclasses.
    """

    __slots__ = ()
    #: Fields that ``==`` and ``hash`` leave out.
    _uncompared = ()
    #: Values of the fields a caller may leave out, by field name.
    _defaults = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in self._defaults:
                set_field(self, name, self._defaults[name])
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            what = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{type(self).__name__}() got {what} argument {name!r}")

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        compared = [f for f in cls.__slots__ if f not in cls._uncompared]
        if len(compared) > 1:
            key = attrgetter(*compared)
        elif compared:
            get = attrgetter(*compared)
            key = lambda r: (get(r),)
        else:
            key = lambda r: ()
        #: The tuple of compared fields of a record of this class.
        cls._key = staticmethod(key)
        if cls.__doc__ is None:
            # Else ``dataclasses`` writes one from ``inspect.signature`` when
            # it registers the class, which costs more than the rest of the
            # registration.
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__slots__)})"
        cls.__match_args__ = cls.__slots__
        cls.__dataclass_fields__ = _Unregistered(cls)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple([getattr(self, f) for f in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Pos(Record):
    """1-based source position."""

    __slots__ = ("line", "col")
    line: int
    col: int

    def __init__(self, line: int, col: int) -> None:
        set_field(self, "line", line)
        set_field(self, "col", col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_POS = Pos(0, 0)


class SygusError(Exception):
    """An error in the input, from the lexer's to the solver's: a ``code``
    such as ``E-LEX``, the ``pos`` at fault (``NO_POS`` where none is known)
    and a ``message``.  Each layer raises a subclass of its own."""

    def __init__(self, code: str, pos: Pos, message: str):
        super().__init__(f"{pos}: {code}: {message}")
        self.code = code
        self.pos = pos
        self.message = message


# ---------------------------------------------------------------------------
# Literals


class Literal(Record):
    """Base class for literal constants."""

    __slots__ = ()


class IntConst(Literal):
    __slots__ = ("value",)
    value: int

    def __init__(self, value: int) -> None:
        set_field(self, "value", value)


class RealConst(Literal):
    """Exact rational with a finite decimal expansion.

    The value always comes from a decimal literal, so the reduced
    denominator has no prime factors other than 2 and 5.
    """

    __slots__ = ("value",)
    value: Fraction

    def __init__(self, value: Fraction) -> None:
        den = value.denominator
        for p in (2, 5):
            while den % p == 0:
                den //= p
        if den != 1:
            raise ValueError(f"not a finite decimal: {value}")
        set_field(self, "value", value)


class BoolConst(Literal):
    __slots__ = ("value",)
    value: bool

    def __init__(self, value: bool) -> None:
        set_field(self, "value", value)


class BVConst(Literal):
    __slots__ = ("width", "value")
    width: int
    value: int

    def __init__(self, width: int, value: int) -> None:
        if width < 1:
            raise ValueError("bit-vector width must be positive")
        if not 0 <= value < (1 << width):
            raise ValueError(f"value {value} out of range for width {width}")
        set_field(self, "width", width)
        set_field(self, "value", value)

    @property
    def bits(self) -> str:
        return format(self.value, f"0{self.width}b")


class EnumConst(Literal):
    __slots__ = ("sort_name", "constructor")
    sort_name: Symbol
    constructor: Symbol

    def __init__(self, sort_name: Symbol, constructor: Symbol) -> None:
        set_field(self, "sort_name", sort_name)
        set_field(self, "constructor", constructor)


# ---------------------------------------------------------------------------
# Sorts (surface syntax; aliases unresolved)


class SortExpr(Record):
    """Base class for surface sort expressions."""

    __slots__ = ()
    _uncompared = ("pos",)
    _defaults = {"pos": NO_POS}


class IntSort(SortExpr):
    __slots__ = ("pos",)
    pos: Pos


class BoolSort(SortExpr):
    __slots__ = ("pos",)
    pos: Pos


class RealSort(SortExpr):
    __slots__ = ("pos",)
    pos: Pos


class BitVecSort(SortExpr):
    __slots__ = ("width", "pos")
    width: int
    pos: Pos


class EnumSort(SortExpr):
    __slots__ = ("constructors", "pos")
    constructors: tuple[Symbol, ...]
    pos: Pos


class ArraySort(SortExpr):
    __slots__ = ("domain", "codomain", "pos")
    domain: SortExpr
    codomain: SortExpr
    pos: Pos


class NamedSort(SortExpr):
    __slots__ = ("name", "pos")
    name: Symbol
    pos: Pos


# ---------------------------------------------------------------------------
# Terms and grammar terms
#
# Grammar terms reuse the constraint-term node classes and add the four
# shorthand leaves below; the parser enforces where each form is legal.


class Term(Record):
    """Base class for term and grammar-term nodes."""

    __slots__ = ()
    _uncompared = ("pos",)
    _defaults = {"pos": NO_POS}


GTerm = Term


class App(Term):
    __slots__ = ("head", "args", "pos")
    head: Symbol
    args: tuple[Term, ...]
    pos: Pos

    def __init__(self, head: Symbol, args: tuple[Term, ...], pos: Pos = NO_POS) -> None:
        set_field(self, "head", head)
        set_field(self, "args", args)
        set_field(self, "pos", pos)


class Lit(Term):
    __slots__ = ("value", "pos")
    value: Literal
    pos: Pos

    def __init__(self, value: Literal, pos: Pos = NO_POS) -> None:
        set_field(self, "value", value)
        set_field(self, "pos", pos)


class Ref(Term):
    __slots__ = ("name", "pos")
    name: Symbol
    pos: Pos

    def __init__(self, name: Symbol, pos: Pos = NO_POS) -> None:
        set_field(self, "name", name)
        set_field(self, "pos", pos)


class Binding(NamedTuple):
    name: Symbol
    sort: SortExpr
    value: Term


class Let(Term):
    __slots__ = ("bindings", "body", "pos")
    bindings: tuple[Binding, ...]
    body: Term
    pos: Pos

    def __init__(self, bindings: tuple[Binding, ...], body: Term, pos: Pos = NO_POS) -> None:
        set_field(self, "bindings", bindings)
        set_field(self, "body", body)
        set_field(self, "pos", pos)


class ConstantOf(Term):
    __slots__ = ("sort", "pos")
    sort: SortExpr
    pos: Pos


class VariableOf(Term):
    __slots__ = ("sort", "pos")
    sort: SortExpr
    pos: Pos


class InputVariableOf(Term):
    __slots__ = ("sort", "pos")
    sort: SortExpr
    pos: Pos


class LocalVariableOf(Term):
    __slots__ = ("sort", "pos")
    sort: SortExpr
    pos: Pos


SHORTHANDS = (ConstantOf, VariableOf, InputVariableOf, LocalVariableOf)


# ---------------------------------------------------------------------------
# Commands


class NTDef(Record):
    """One non-terminal of a synthesis grammar with its productions."""

    __slots__ = ("name", "sort", "productions", "pos")
    _uncompared = ("pos",)
    _defaults = {"pos": NO_POS}
    name: Symbol
    sort: SortExpr
    productions: tuple[GTerm, ...]
    pos: Pos


class Command(Record):
    """Base class for top-level commands."""

    __slots__ = ()
    _uncompared = ("pos",)
    _defaults = {"pos": NO_POS}


class SetLogic(Command):
    __slots__ = ("logic", "pos")
    logic: Symbol
    pos: Pos


class DefineSort(Command):
    __slots__ = ("name", "body", "pos")
    name: Symbol
    body: SortExpr
    pos: Pos


class DeclareVar(Command):
    __slots__ = ("name", "sort", "pos")
    name: Symbol
    sort: SortExpr
    pos: Pos


class DeclareFun(Command):
    __slots__ = ("name", "arg_sorts", "ret", "pos")
    name: Symbol
    arg_sorts: tuple[SortExpr, ...]
    ret: SortExpr
    pos: Pos


class DefineFun(Command):
    __slots__ = ("name", "params", "ret", "body", "pos")
    name: Symbol
    params: tuple[tuple[Symbol, SortExpr], ...]
    ret: SortExpr
    body: Term
    pos: Pos


class SynthFun(Command):
    __slots__ = ("name", "params", "ret", "grammar", "pos")
    name: Symbol
    params: tuple[tuple[Symbol, SortExpr], ...]
    ret: SortExpr
    grammar: tuple[NTDef, ...]
    pos: Pos


class Constraint(Command):
    __slots__ = ("body", "pos")
    body: Term
    pos: Pos


class CheckSynth(Command):
    __slots__ = ("pos",)
    pos: Pos


class SetOptions(Command):
    __slots__ = ("opts", "pos")
    opts: tuple[tuple[Symbol, str], ...]
    pos: Pos


class Program(Record):
    __slots__ = ("commands",)
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

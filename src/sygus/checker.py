"""Static checking: sort resolution, symbol tables, scope and typing rules.

``check_program`` walks the command list in order, threading symbol tables,
and either produces a ``CheckedProblem`` (the state visible at the first
check-synth command) or raises ``CheckError``, a ``SygusError`` with one of
the codes below.  Checking stops at the first error.

The built-in operators are defined in one table, ``OPERATORS``: a row per
operator holds its semantics on payloads and its signatures, one per family
that declares it.  ``TheorySignature`` keeps the rows of the families a
logic loads; the checker types applications by it, and the evaluator
computes them by the same rows with every family loaded.

Error codes:

======================  =====================================================
E-LOGIC-UNKNOWN         set-logic names a logic other than LIA/BV/Reals/Arrays
E-SORT-UNDEF            a sort name with no prior define-sort
E-SORT-REDEF            define-sort reuses an existing sort name
E-ENUM-DUP              repeated constructor inside one Enum sort
E-ENUM-CONST            enum literal whose sort/constructor does not resolve
E-CLASH-VAR             declare-var name collides with an existing name
E-CLASH-FUN             function name collides at the same argument signature,
                        is a built-in operator of the active logic, or names
                        a second synth-fun
E-DUP-PARAM             repeated parameter name in a function definition
E-SHADOW-ARG            let binding shadows a formal argument
E-SHADOW-SORT           let binding shadows an outer variable at another sort
E-MACRO-RET             define-fun body sort differs from the declared sort
E-UF-IN-MACRO           uninterpreted function used inside a macro body
E-UF-IN-GRAMMAR         uninterpreted function used inside a grammar
E-CONSTRAINT-SORT       constraint term is not boolean
E-NO-CHECK              the program has no check-synth command
E-START-MISSING         grammar lacks a non-terminal named Start
E-START-SORT            Start sort differs from the function's return sort
E-NT-DUP                repeated non-terminal name
E-NT-CLASH              non-terminal name collides with macro/argument/let
E-LET-SORT-CONFLICT     same let name bound at two sorts across productions
E-PROD-SORT             production sort differs from its non-terminal's sort
E-UNBOUND               reference to a name that is not in scope
E-APP-SIG               no function signature matches the argument sorts
E-LET-SORT              binding value sort differs from the annotated sort
E-NONLINEAR             integer multiplication without a literal operand
======================  =====================================================
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from .syntax import (
    App,
    ArraySort,
    BitVecSort,
    BoolConst,
    BoolSort,
    BVConst,
    CheckSynth,
    Constraint,
    DeclareFun,
    DeclareVar,
    DefineFun,
    DefineSort,
    EnumConst,
    EnumSort,
    GTerm,
    IntConst,
    IntSort,
    Let,
    Lit,
    NamedSort,
    NO_POS,
    NTDef,
    Pos,
    Program,
    RealConst,
    RealSort,
    Record,
    Ref,
    SetLogic,
    SetOptions,
    SHORTHANDS,
    SortExpr,
    subterms,
    Symbol,
    SygusError,
    SynthFun,
    Term,
    set_field,
)

# ---------------------------------------------------------------------------
# Resolved (alias-free) sorts


class ResolvedSort(Record):
    """A sort with every alias resolved.  Resolved sorts are records and
    compare by their fields, except ``REnum``'s constructors."""

    __slots__ = ()


class RInt(ResolvedSort):
    __slots__ = ()

    def __str__(self) -> str:
        return "Int"


class RBool(ResolvedSort):
    __slots__ = ()

    def __str__(self) -> str:
        return "Bool"


class RReal(ResolvedSort):
    __slots__ = ()

    def __str__(self) -> str:
        return "Real"


class RBitVec(ResolvedSort):
    __slots__ = ("width",)
    width: int

    def __init__(self, width: int) -> None:
        set_field(self, "width", width)

    def __str__(self) -> str:
        return f"(BitVec {self.width})"


class REnum(ResolvedSort):
    """Enum sorts compare by identity: the defining sort name, or a
    definition-site tag for enums written inline."""

    __slots__ = ("identity", "constructors")
    _uncompared = ("constructors",)
    identity: str
    constructors: tuple[Symbol, ...]

    def __str__(self) -> str:
        return self.identity


class RArray(ResolvedSort):
    __slots__ = ("domain", "codomain")
    domain: ResolvedSort
    codomain: ResolvedSort

    def __str__(self) -> str:
        return f"(Array {self.domain} {self.codomain})"


R_INT = RInt()
R_BOOL = RBool()
R_REAL = RReal()


def unsupported_sort(sort: ResolvedSort) -> bool:
    """Whether ``sort`` is Real or an Array: the solver has no finite pools of
    values for them and the evaluator samples no models over them."""
    return isinstance(sort, (RReal, RArray))


# ---------------------------------------------------------------------------
# Errors


class CheckError(SygusError):
    """A static-checking error, one of the codes above."""


def _err(code: str, pos: Pos, message: str):
    raise CheckError(code, pos, message)


# ---------------------------------------------------------------------------
# Built-in operators


class ByWidth:
    """Semantics that depend on the width: ``fn`` takes the operands' mask,
    ``(1 << width) - 1``, before the payloads."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[..., int]):
        self.fn = fn


def _div(a, b):
    if b == 0:
        # Only the evaluator computes payloads, so it is loaded by now.
        from .evaluator import EvalError

        raise EvalError("E-DIV-ZERO", NO_POS, "division by zero")
    return a / b


def _bvshl(mask: int, a: int, b: int) -> int:
    # Shift amounts at or beyond the width yield the zero vector.
    return 0 if b >= mask.bit_length() else (a << b) & mask


def _fit(pattern: str, args: tuple[ResolvedSort, ...]) -> Optional[ResolvedSort]:
    """The sort that polymorphic ``pattern`` stands for at operand sorts
    ``args``, or ``None`` if they do not fit it.  ``A`` is any sort and
    ``W`` a bit-vector sort, each standing for itself; the array patterns
    stand for ``C`` where they take an index and for the array where they
    take a value too."""
    n, a = len(args), args[0] if args else None
    if pattern == "A A" or (pattern == "W W" and isinstance(a, RBitVec)):
        return a if n == 2 and args[1] == a else None
    if pattern == "Bool A A":
        return args[1] if n == 3 and a == R_BOOL and args[1] == args[2] else None
    if pattern == "Bool+":
        return R_BOOL if n and all(s == R_BOOL for s in args) else None
    if pattern == "W":
        return a if n == 1 and isinstance(a, RBitVec) else None
    if isinstance(a, RArray):
        if pattern == "(Array D C) D" and args[1:] == (a.domain,):
            return a.codomain
        if pattern == "(Array D C) D C" and args[1:] == (a.domain, a.codomain):
            return a
    return None


_INTS, _REALS, _BOOLS = (R_INT, R_INT), (R_REAL, R_REAL), (R_BOOL, R_BOOL)

#: The built-in operators, one row each: the name, the semantics on operand
#: payloads (``None`` where the evaluator has none), and a signature per
#: family that declares it: the family (``core``, loaded under every logic,
#: or a logic), the operands, and the result.  The operands are a tuple of
#: sorts or a polymorphic pattern (see ``_fit``); a result of ``None`` is
#: the sort the pattern stands for.  Int and Real arithmetic keeps the
#: payload class of its operands.
OPERATORS: tuple[tuple, ...] = (
    ("=", operator.eq, ("core", "A A", R_BOOL)),
    ("distinct", operator.ne, ("core", "A A", R_BOOL)),
    ("ite", lambda c, a, b: a if c else b, ("core", "Bool A A", None)),
    ("and", lambda *args: all(args), ("core", "Bool+", R_BOOL)),
    ("or", lambda *args: any(args), ("core", "Bool+", R_BOOL)),
    ("not", operator.not_, ("core", (R_BOOL,), R_BOOL)),
    ("=>", lambda a, b: not a or b, ("core", _BOOLS, R_BOOL)),
    ("xor", operator.ne, ("core", _BOOLS, R_BOOL)),
    ("+", operator.add, ("LIA", _INTS, R_INT), ("Reals", _REALS, R_REAL)),
    ("-", operator.sub, ("LIA", _INTS, R_INT), ("Reals", _REALS, R_REAL)),
    ("*", operator.mul, ("LIA", _INTS, R_INT), ("Reals", _REALS, R_REAL)),
    ("/", _div, ("Reals", _REALS, R_REAL)),
    ("<=", operator.le, ("LIA", _INTS, R_BOOL), ("Reals", _REALS, R_BOOL)),
    ("<", operator.lt, ("LIA", _INTS, R_BOOL), ("Reals", _REALS, R_BOOL)),
    (">=", operator.ge, ("LIA", _INTS, R_BOOL), ("Reals", _REALS, R_BOOL)),
    (">", operator.gt, ("LIA", _INTS, R_BOOL), ("Reals", _REALS, R_BOOL)),
    ("bvnot", ByWidth(lambda mask, a: ~a & mask), ("BV", "W", None)),
    ("bvneg", ByWidth(lambda mask, a: -a & mask), ("BV", "W", None)),
    ("bvadd", ByWidth(lambda mask, a, b: (a + b) & mask), ("BV", "W W", None)),
    ("bvsub", ByWidth(lambda mask, a, b: (a - b) & mask), ("BV", "W W", None)),
    ("bvand", operator.and_, ("BV", "W W", None)),
    ("bvor", operator.or_, ("BV", "W W", None)),
    ("bvxor", operator.xor, ("BV", "W W", None)),
    ("bvshl", ByWidth(_bvshl), ("BV", "W W", None)),
    # The operand is below 2**width, so a shift at or beyond the width
    # yields the zero vector here too.
    ("bvlshr", operator.rshift, ("BV", "W W", None)),
    ("bvult", operator.lt, ("BV", "W W", R_BOOL)),
    ("bvule", operator.le, ("BV", "W W", R_BOOL)),
    ("select", None, ("Arrays", "(Array D C) D", None)),
    ("store", None, ("Arrays", "(Array D C) D C", None)),
)

#: The logics that ``set-logic`` may name: every family but ``core``.
KNOWN_LOGICS = frozenset(f for _, _, *sigs in OPERATORS for f, _, _ in sigs) - {"core"}


class TheorySignature:
    """The built-in operators of a logic: the core operators (``=``,
    ``distinct``, ``ite`` and the boolean connectives) under every logic,
    SMT-LIB style, and the arithmetic, bit-vector, real and array families
    gated on the logic name.  With no set-logic command (``None``) every
    family is loaded.  ``ops`` maps each loaded operator to its loaded
    signatures, each with the row's semantics."""

    def __init__(self, logic: Optional[str] = None):
        self.logic = logic
        self.ops: dict[Symbol, list[tuple]] = {}
        for name, semantics, *sigs in OPERATORS:
            for family, args, result in sigs:
                if family == "core" or logic in (None, family):
                    self.ops.setdefault(name, []).append((args, result, semantics))

    def builtin(
        self, name: Symbol, args: tuple[ResolvedSort, ...]
    ) -> Optional[tuple[ResolvedSort, object]]:
        """The result sort and the semantics of built-in ``name`` at operand
        sorts ``args``, or ``None`` if no loaded signature fits them."""
        for pattern, result, semantics in self.ops.get(name, ()):
            if type(pattern) is tuple:
                if pattern == args:
                    return result, semantics
            else:
                sort = _fit(pattern, args)
                if sort is not None:
                    return (sort if result is None else result), semantics
        return None

    def knows(self, name: Symbol) -> bool:
        """Whether ``name`` is a built-in under the active logic (at any
        signature); used to distinguish E-APP-SIG from E-UNBOUND."""
        return name in self.ops


# ---------------------------------------------------------------------------
# Sort resolution


def resolve_sort(
    sort: SortExpr,
    table: dict[Symbol, ResolvedSort],
    define_name: Optional[Symbol] = None,
) -> ResolvedSort:
    """Expand sort aliases and validate well-formedness.

    ``table`` maps previously define-sort'd names to the sorts they resolved
    to (``CheckedProblem.sort_defs``), so a name is looked up, never
    resolved again.  ``define_name`` is set when resolving the body of a
    define-sort, so an enum written there takes the new name as its
    identity; an alias of a defined enum is that enum, so the innermost
    defining name is the identity.
    """
    if isinstance(sort, IntSort):
        return R_INT
    if isinstance(sort, BoolSort):
        return R_BOOL
    if isinstance(sort, RealSort):
        return R_REAL
    if isinstance(sort, BitVecSort):
        return RBitVec(sort.width)
    if isinstance(sort, EnumSort):
        seen: set[Symbol] = set()
        for c in sort.constructors:
            if c in seen:
                _err("E-ENUM-DUP", sort.pos, f"repeated constructor '{c}'")
            seen.add(c)
        identity = define_name if define_name is not None else f"Enum@{sort.pos}"
        return REnum(identity, sort.constructors)
    if isinstance(sort, ArraySort):
        return RArray(
            resolve_sort(sort.domain, table), resolve_sort(sort.codomain, table)
        )
    assert isinstance(sort, NamedSort)
    resolved = table.get(sort.name)
    if resolved is None:
        _err("E-SORT-UNDEF", sort.pos, f"sort '{sort.name}' is not defined")
    return resolved


# ---------------------------------------------------------------------------
# Checked problem data


class CheckedNT(Record):
    """A non-terminal; ``pos``, where it is declared, is not compared."""

    __slots__ = ("name", "sort", "productions", "pos")
    _uncompared = ("pos",)
    _defaults = {"pos": NO_POS}
    name: Symbol
    sort: ResolvedSort
    productions: tuple[GTerm, ...]
    pos: Pos


class SynthTask(Record):
    __slots__ = ("name", "params", "ret", "grammar", "surface_params", "surface_ret", "lets")
    name: Symbol
    params: tuple[tuple[Symbol, ResolvedSort], ...]
    ret: ResolvedSort
    grammar: tuple[CheckedNT, ...]
    surface_params: tuple[tuple[Symbol, SortExpr], ...]
    surface_ret: SortExpr
    #: Let-bound names of the grammar with their sorts, in first-occurrence
    #: order; a name is bound at one sort throughout.
    lets: tuple[tuple[Symbol, ResolvedSort], ...]


class FuncEntry(Record):
    """A declared function, the one record of it that the checker and the
    evaluator see: a macro has ``params`` and a ``body``, a synthesis
    function ``params``, and an uninterpreted function its ``index`` in
    ``CheckedProblem.uf_decls``.  ``pos``, that of the declaring command, is
    not compared."""

    __slots__ = ("name", "kind", "arg_sorts", "ret", "params", "body", "index", "pos")
    _uncompared = ("pos",)
    _defaults = {"params": (), "body": None, "index": None, "pos": NO_POS}
    name: Symbol
    kind: str  # "macro" | "uf" | "synth"
    arg_sorts: tuple[ResolvedSort, ...]
    ret: ResolvedSort
    params: tuple[Symbol, ...]
    body: Optional[Term]
    index: Optional[int]
    pos: Pos


class CheckedProblem(Record):
    """The state visible at the first check-synth command.  ``funcs`` is the
    table of declared functions that the checker types applications by and
    the evaluator resolves them in: by name, the entries in declaration
    order, no two at the same argument sorts (``E-CLASH-FUN``).  Each
    function has one ``FuncEntry``: ``uf_decls`` holds the entries of the
    uninterpreted functions themselves, in the order of their ``index``.
    ``universal_vars`` maps each universal variable to its sort, in
    declaration order.  ``sort_defs`` is the one table of sort names: it
    maps each defined sort name to the sort it resolved to at its
    ``define-sort``, which the checker and the evaluator look names up in.
    ``options`` holds each ``set-options`` pair in source order, with the
    position of its command.  ``logic_pos`` is the position of the
    ``set-logic`` command in force (``NO_POS`` if none), and ``var_pos``
    maps each universal variable to the position of its ``declare-var``;
    like every position, neither takes part in ``==``."""

    __slots__ = (
        "sig", "universal_vars", "uf_decls", "synth_tasks", "constraints",
        "options", "sort_defs", "funcs", "logic_pos", "var_pos",
    )
    _uncompared = ("logic_pos", "var_pos")
    sig: TheorySignature
    universal_vars: dict[Symbol, ResolvedSort]
    uf_decls: tuple[FuncEntry, ...]
    synth_tasks: tuple[SynthTask, ...]
    constraints: tuple[Term, ...]
    options: tuple[tuple[Symbol, str, Pos], ...]
    sort_defs: dict[Symbol, ResolvedSort]
    funcs: dict[Symbol, tuple[FuncEntry, ...]]
    logic_pos: Pos
    var_pos: dict[Symbol, Pos]

    def resolve(self, sort: SortExpr) -> ResolvedSort:
        return resolve_sort(sort, self.sort_defs)


# ---------------------------------------------------------------------------
# Term typing


class TermScope:
    """Typing environment for one term-checking context.

    ``context`` is one of ``constraint``, ``macro``, or ``grammar`` and
    selects which function kinds are visible and how shadowing is policed.
    """

    def __init__(
        self,
        sig: TheorySignature,
        sort_defs: dict[Symbol, ResolvedSort],
        variables: dict[Symbol, ResolvedSort],
        funcs: dict[Symbol, list[FuncEntry]],
        context: str,
        arg_names: frozenset[Symbol] = frozenset(),
    ):
        self.sig = sig
        self.sort_defs = sort_defs
        self.frames: list[dict[Symbol, ResolvedSort]] = [dict(variables)]
        self.funcs = funcs
        self.context = context
        self.arg_names = arg_names

    def lookup_var(self, name: Symbol) -> Optional[ResolvedSort]:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None

    def overloads(self, name: Symbol) -> list[FuncEntry]:
        return self.funcs.get(name, [])


def literal_sort(lit, sort_defs: dict[Symbol, ResolvedSort], pos: Pos) -> ResolvedSort:
    """The sort of a literal; an enum literal's is the sort its name has in
    ``sort_defs``."""
    if isinstance(lit, IntConst):
        return R_INT
    if isinstance(lit, RealConst):
        return R_REAL
    if isinstance(lit, BoolConst):
        return R_BOOL
    if isinstance(lit, BVConst):
        return RBitVec(lit.width)
    assert isinstance(lit, EnumConst)
    resolved = sort_defs.get(lit.sort_name)
    if resolved is None:
        _err("E-ENUM-CONST", pos, f"'{lit.sort_name}' is not a defined sort")
    if not isinstance(resolved, REnum):
        _err("E-ENUM-CONST", pos, f"'{lit.sort_name}' is not an enum sort")
    if lit.constructor not in resolved.constructors:
        _err(
            "E-ENUM-CONST",
            pos,
            f"'{lit.constructor}' is not a constructor of '{lit.sort_name}'",
        )
    return resolved


def _check_func_use(entry: FuncEntry, name: Symbol, pos: Pos, scope: TermScope) -> None:
    if entry.kind == "uf":
        if scope.context == "macro":
            _err(
                "E-UF-IN-MACRO",
                pos,
                f"uninterpreted function '{name}' may only be used in constraints",
            )
        if scope.context == "grammar":
            _err(
                "E-UF-IN-GRAMMAR",
                pos,
                f"uninterpreted function '{name}' may only be used in constraints",
            )
    elif entry.kind == "synth" and scope.context in ("macro", "grammar"):
        _err(
            "E-UNBOUND",
            pos,
            f"synthesis function '{name}' is not in scope here",
        )


def type_of_term(t: Term, scope: TermScope) -> ResolvedSort:
    """Bottom-up sort computation; raises ``CheckError`` on any violation."""
    if isinstance(t, Lit):
        return literal_sort(t.value, scope.sort_defs, t.pos)
    if isinstance(t, Ref):
        sort = scope.lookup_var(t.name)
        if sort is not None:
            return sort
        for entry in scope.overloads(t.name):
            if entry.arg_sorts == ():
                _check_func_use(entry, t.name, t.pos, scope)
                return entry.ret
        _err("E-UNBOUND", t.pos, f"'{t.name}' is not in scope")
    if isinstance(t, App):
        # A loop rather than a generator, which would spend a frame of its
        # own per level.
        sorts = []
        for a in t.args:
            sorts.append(type_of_term(a, scope))
        args = tuple(sorts)
        for entry in scope.overloads(t.head):
            if entry.arg_sorts == args:
                _check_func_use(entry, t.head, t.pos, scope)
                return entry.ret
        hit = scope.sig.builtin(t.head, args)
        if hit is not None:
            if t.head == "*" and args == (R_INT, R_INT):
                # Linear arithmetic only: one factor must be a literal.
                if not any(
                    isinstance(a, Lit) and isinstance(a.value, IntConst)
                    for a in t.args
                ):
                    _err(
                        "E-NONLINEAR",
                        t.pos,
                        "integer multiplication requires a literal operand",
                    )
            return hit[0]
        if scope.overloads(t.head) or scope.sig.knows(t.head):
            shown = ", ".join(str(a) for a in args)
            _err("E-APP-SIG", t.pos, f"no signature for '{t.head}' at ({shown})")
        _err("E-UNBOUND", t.pos, f"'{t.head}' is not in scope")
    if isinstance(t, Let):
        frame: dict[Symbol, ResolvedSort] = {}
        for b in t.bindings:
            declared = resolve_sort(b.sort, scope.sort_defs)
            actual = type_of_term(b.value, scope)
            if actual != declared:
                _err(
                    "E-LET-SORT",
                    t.pos,
                    f"binding '{b.name}' declared {declared} but its value is {actual}",
                )
            if b.name in scope.arg_names:
                _err(
                    "E-SHADOW-ARG",
                    t.pos,
                    f"let binding '{b.name}' shadows a formal argument",
                )
            outer = scope.lookup_var(b.name)
            if outer is not None and outer != declared:
                _err(
                    "E-SHADOW-SORT",
                    t.pos,
                    f"let binding '{b.name}' shadows a {outer} variable at sort {declared}",
                )
            frame[b.name] = declared
        scope.frames.append(frame)
        try:
            return type_of_term(t.body, scope)
        finally:
            scope.frames.pop()
    if isinstance(t, SHORTHANDS):
        return resolve_sort(t.sort, scope.sort_defs)
    raise AssertionError(f"unhandled term node {t!r}")


# ---------------------------------------------------------------------------
# Program checking


class _Session:
    def __init__(self) -> None:
        self.sig = TheorySignature(None)
        self.logic_pos = NO_POS
        self.sort_defs: dict[Symbol, ResolvedSort] = {}
        self.vars: dict[Symbol, ResolvedSort] = {}
        self.var_pos: dict[Symbol, Pos] = {}
        self.funcs: dict[Symbol, list[FuncEntry]] = {}
        self.ufs: list[FuncEntry] = []
        self.tasks: list[SynthTask] = []
        self.constraints: list[Term] = []
        self.options: list[tuple[Symbol, str, Pos]] = []

    def same_signature(self, name: Symbol, arg_sorts: tuple[ResolvedSort, ...]) -> bool:
        return any(e.arg_sorts == arg_sorts for e in self.funcs.get(name, []))

    def add_func(self, entry: FuncEntry) -> None:
        self.funcs.setdefault(entry.name, []).append(entry)


def _resolve_params(
    params: tuple[tuple[Symbol, SortExpr], ...],
    sort_defs: dict[Symbol, ResolvedSort],
    pos: Pos,
) -> tuple[tuple[Symbol, ResolvedSort], ...]:
    seen: set[Symbol] = set()
    out: list[tuple[Symbol, ResolvedSort]] = []
    for pname, psort in params:
        if pname in seen:
            _err("E-DUP-PARAM", pos, f"repeated parameter name '{pname}'")
        seen.add(pname)
        out.append((pname, resolve_sort(psort, sort_defs)))
    return tuple(out)


def _check_function_clashes(
    session: _Session, name: Symbol, arg_sorts: tuple[ResolvedSort, ...], pos: Pos
) -> None:
    # Evaluation resolves a user function before the built-in of that name,
    # so it would also capture the applications checked as the built-in.
    if session.sig.knows(name):
        _err(
            "E-CLASH-FUN",
            pos,
            f"'{name}' is a built-in operator of the active logic",
        )
    if not arg_sorts and name in session.vars:
        _err(
            "E-CLASH-FUN",
            pos,
            f"0-arity function '{name}' clashes with a universal variable",
        )
    if session.same_signature(name, arg_sorts):
        _err(
            "E-CLASH-FUN",
            pos,
            f"'{name}' is already declared with the same argument signature",
        )


def _let_table(
    nts: tuple[NTDef, ...],
    sort_defs: dict[Symbol, ResolvedSort],
    arg_names: frozenset[Symbol],
) -> dict[Symbol, ResolvedSort]:
    """Sorts of the let-bound names of a grammar, in first-occurrence order."""
    lets: dict[Symbol, ResolvedSort] = {}
    for nt in nts:
        for prod in nt.productions:
            for node in subterms(prod):
                if not isinstance(node, Let):
                    continue
                for b in node.bindings:
                    declared = resolve_sort(b.sort, sort_defs)
                    if b.name in arg_names:
                        _err(
                            "E-SHADOW-ARG",
                            node.pos,
                            f"let binding '{b.name}' shadows a formal argument",
                        )
                    if b.name in lets and lets[b.name] != declared:
                        _err(
                            "E-LET-SORT-CONFLICT",
                            node.pos,
                            f"let name '{b.name}' is bound at {lets[b.name]} and {declared}",
                        )
                    lets[b.name] = declared
    return lets


def check_grammar(
    sf: SynthFun,
    params: tuple[tuple[Symbol, ResolvedSort], ...],
    ret: ResolvedSort,
    session: _Session,
) -> tuple[tuple[CheckedNT, ...], dict[Symbol, ResolvedSort]]:
    """Validate the grammar of a synth-fun, whose ``params`` and ``ret``
    are resolved already; resolve the sorts of its non-terminals and of its
    let-bound names."""
    arg_names = frozenset(p for p, _ in params)

    nt_sorts: dict[Symbol, ResolvedSort] = {}
    for nt in sf.grammar:
        if nt.name in nt_sorts:
            _err("E-NT-DUP", nt.pos, f"repeated non-terminal '{nt.name}'")
        nt_sorts[nt.name] = resolve_sort(nt.sort, session.sort_defs)

    lets = _let_table(sf.grammar, session.sort_defs, arg_names)

    for nt in sf.grammar:
        if any(
            e.kind == "macro" and e.arg_sorts == ()
            for e in session.funcs.get(nt.name, [])
        ):
            _err(
                "E-NT-CLASH",
                nt.pos,
                f"non-terminal '{nt.name}' clashes with a 0-arity macro",
            )
        if nt.name in arg_names:
            _err(
                "E-NT-CLASH",
                nt.pos,
                f"non-terminal '{nt.name}' clashes with a formal argument",
            )
        if nt.name in lets:
            _err(
                "E-NT-CLASH",
                nt.pos,
                f"non-terminal '{nt.name}' clashes with a let-bound variable",
            )

    if "Start" not in nt_sorts:
        _err("E-START-MISSING", sf.pos, "grammar has no non-terminal named Start")
    if nt_sorts["Start"] != ret:
        _err(
            "E-START-SORT",
            sf.pos,
            f"Start has sort {nt_sorts['Start']} but the function returns {ret}",
        )

    # Rule scope: macros, formal arguments, every non-terminal (as an opaque
    # reference of its declared sort), and every let-bound name from every
    # production.
    base_vars: dict[Symbol, ResolvedSort] = dict(params)
    base_vars.update(nt_sorts)
    base_vars.update(lets)
    checked: list[CheckedNT] = []
    for nt in sf.grammar:
        for prod in nt.productions:
            scope = TermScope(
                session.sig,
                session.sort_defs,
                base_vars,
                session.funcs,
                context="grammar",
                arg_names=arg_names,
            )
            actual = type_of_term(prod, scope)
            if actual != nt_sorts[nt.name]:
                _err(
                    "E-PROD-SORT",
                    nt.pos,
                    f"production of '{nt.name}' has sort {actual}, expected {nt_sorts[nt.name]}",
                )
        checked.append(CheckedNT(nt.name, nt_sorts[nt.name], nt.productions, nt.pos))
    return tuple(checked), lets


def check_program(program: Program) -> CheckedProblem:
    """Enforce every static rule and capture the problem at check-synth."""
    session = _Session()
    last_pos = NO_POS
    for cmd in program.commands:
        last_pos = cmd.pos
        if isinstance(cmd, SetLogic):
            if cmd.logic not in KNOWN_LOGICS:
                _err("E-LOGIC-UNKNOWN", cmd.pos, f"unknown logic '{cmd.logic}'")
            session.sig = TheorySignature(cmd.logic)
            session.logic_pos = cmd.pos
        elif isinstance(cmd, DefineSort):
            if cmd.name in session.sort_defs:
                _err("E-SORT-REDEF", cmd.pos, f"sort '{cmd.name}' is already defined")
            session.sort_defs[cmd.name] = resolve_sort(
                cmd.body, session.sort_defs, define_name=cmd.name
            )
        elif isinstance(cmd, DeclareVar):
            sort = resolve_sort(cmd.sort, session.sort_defs)
            if cmd.name in session.vars:
                _err(
                    "E-CLASH-VAR",
                    cmd.pos,
                    f"variable '{cmd.name}' is already declared",
                )
            if session.same_signature(cmd.name, ()):
                _err(
                    "E-CLASH-VAR",
                    cmd.pos,
                    f"variable '{cmd.name}' clashes with a 0-arity function",
                )
            session.vars[cmd.name] = sort
            session.var_pos[cmd.name] = cmd.pos
        elif isinstance(cmd, DeclareFun):
            arg_sorts = tuple(
                resolve_sort(s, session.sort_defs) for s in cmd.arg_sorts
            )
            ret = resolve_sort(cmd.ret, session.sort_defs)
            _check_function_clashes(session, cmd.name, arg_sorts, cmd.pos)
            entry = FuncEntry(cmd.name, "uf", arg_sorts, ret, index=len(session.ufs), pos=cmd.pos)
            session.add_func(entry)
            session.ufs.append(entry)
        elif isinstance(cmd, DefineFun):
            params = _resolve_params(cmd.params, session.sort_defs, cmd.pos)
            names = tuple(p for p, _ in params)
            arg_sorts = tuple(s for _, s in params)
            ret = resolve_sort(cmd.ret, session.sort_defs)
            _check_function_clashes(session, cmd.name, arg_sorts, cmd.pos)
            scope = TermScope(
                session.sig,
                session.sort_defs,
                dict(params),
                session.funcs,
                context="macro",
                arg_names=frozenset(names),
            )
            body_sort = type_of_term(cmd.body, scope)
            if body_sort != ret:
                _err(
                    "E-MACRO-RET",
                    cmd.pos,
                    f"body of '{cmd.name}' has sort {body_sort}, declared {ret}",
                )
            session.add_func(
                FuncEntry(cmd.name, "macro", arg_sorts, ret, names, cmd.body, pos=cmd.pos)
            )
        elif isinstance(cmd, SynthFun):
            params = _resolve_params(cmd.params, session.sort_defs, cmd.pos)
            arg_sorts = tuple(s for _, s in params)
            ret = resolve_sort(cmd.ret, session.sort_defs)
            _check_function_clashes(session, cmd.name, arg_sorts, cmd.pos)
            # A solution defines each synthesis function once, by its name.
            if any(t.name == cmd.name for t in session.tasks):
                _err("E-CLASH-FUN", cmd.pos, f"'{cmd.name}' is already a synthesis function")
            grammar, lets = check_grammar(cmd, params, ret, session)
            names = tuple(p for p, _ in params)
            session.add_func(FuncEntry(cmd.name, "synth", arg_sorts, ret, names, pos=cmd.pos))
            session.tasks.append(
                SynthTask(
                    cmd.name, params, ret, grammar, cmd.params, cmd.ret,
                    tuple(lets.items()),
                )
            )
        elif isinstance(cmd, Constraint):
            scope = TermScope(
                session.sig,
                session.sort_defs,
                session.vars,
                session.funcs,
                context="constraint",
            )
            sort = type_of_term(cmd.body, scope)
            if sort != R_BOOL:
                _err(
                    "E-CONSTRAINT-SORT",
                    cmd.pos,
                    f"constraint has sort {sort}, expected Bool",
                )
            session.constraints.append(cmd.body)
        elif isinstance(cmd, CheckSynth):
            # Commands after the first check-synth are parse-checked only.
            return CheckedProblem(
                sig=session.sig,
                universal_vars=session.vars,
                uf_decls=tuple(session.ufs),
                synth_tasks=tuple(session.tasks),
                constraints=tuple(session.constraints),
                options=tuple(session.options),
                sort_defs=session.sort_defs,
                funcs={name: tuple(es) for name, es in session.funcs.items()},
                logic_pos=session.logic_pos,
                var_pos=session.var_pos,
            )
        elif isinstance(cmd, SetOptions):
            session.options.extend((name, raw, cmd.pos) for name, raw in cmd.opts)
        else:
            raise AssertionError(f"unhandled command {cmd!r}")
    _err("E-NO-CHECK", last_pos, "program has no check-synth command")

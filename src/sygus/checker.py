"""Static checking: sort resolution, symbol tables, scope and typing rules.

``check_program`` walks the command list in order, threading symbol tables,
and either produces a ``CheckedProblem`` (the state visible at the first
check-synth command) or raises ``CheckError``, a ``SygusError`` with one of
the codes below.  Checking stops at the first error.

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

from typing import Optional

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

KNOWN_LOGICS = ("LIA", "BV", "Reals", "Arrays")


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
# Theory signatures

_CORE_OPS = ("=", "distinct", "ite", "and", "or", "not", "=>", "xor")
_COMPARISONS = ("<=", "<", ">=", ">")
_LIA_ARITH = ("+", "-", "*")
_REAL_ARITH = ("+", "-", "*", "/")
_BV_BINOPS = ("bvadd", "bvsub", "bvand", "bvor", "bvxor", "bvshl", "bvlshr")
_BV_UNOPS = ("bvnot", "bvneg")
_BV_PREDS = ("bvult", "bvule")
_ARRAY_OPS = ("select", "store")

#: The operator names of each logic-gated family.
_FAMILIES = {
    "LIA": _LIA_ARITH + _COMPARISONS,
    "Reals": _REAL_ARITH + _COMPARISONS,
    "BV": _BV_BINOPS + _BV_UNOPS + _BV_PREDS,
    "Arrays": _ARRAY_OPS,
}


class TheorySignature:
    """Result sorts for the built-in function symbols of a logic.

    The core operators (``=``, ``distinct``, ``ite`` and the boolean
    connectives) are loaded for every logic, SMT-LIB style; the arithmetic,
    bit-vector, real, and array families are gated on the logic name.
    When no set-logic command is present all families are loaded.
    """

    def __init__(self, logic: Optional[str] = None):
        self.logic = logic

    def _loaded(self, family: str) -> bool:
        return self.logic is None or self.logic == family

    def lookup(self, name: Symbol, args: tuple[ResolvedSort, ...]) -> Optional[ResolvedSort]:
        n = len(args)
        if name in ("=", "distinct"):
            return R_BOOL if n == 2 and args[0] == args[1] else None
        if name == "ite":
            if n == 3 and args[0] == R_BOOL and args[1] == args[2]:
                return args[1]
            return None
        if name in ("and", "or"):
            return R_BOOL if n >= 1 and all(a == R_BOOL for a in args) else None
        if name == "not":
            return R_BOOL if args == (R_BOOL,) else None
        if name in ("=>", "xor"):
            return R_BOOL if args == (R_BOOL, R_BOOL) else None
        if self._loaded("LIA"):
            if name in _LIA_ARITH and args == (R_INT, R_INT):
                return R_INT
            if name in _COMPARISONS and args == (R_INT, R_INT):
                return R_BOOL
        if self._loaded("Reals"):
            if name in _REAL_ARITH and args == (R_REAL, R_REAL):
                return R_REAL
            if name in _COMPARISONS and args == (R_REAL, R_REAL):
                return R_BOOL
        if self._loaded("BV") and n >= 1 and isinstance(args[0], RBitVec):
            w = args[0]
            if name in _BV_BINOPS and args == (w, w):
                return w
            if name in _BV_UNOPS and n == 1:
                return w
            if name in _BV_PREDS and args == (w, w):
                return R_BOOL
        if self._loaded("Arrays"):
            if name == "select" and n == 2 and isinstance(args[0], RArray):
                if args[1] == args[0].domain:
                    return args[0].codomain
            if name == "store" and n == 3 and isinstance(args[0], RArray):
                if args[1] == args[0].domain and args[2] == args[0].codomain:
                    return args[0]
        return None

    def knows(self, name: Symbol) -> bool:
        """Whether ``name`` is a built-in under the active logic (at any
        signature); used to distinguish E-APP-SIG from E-UNBOUND."""
        return name in _CORE_OPS or any(
            name in ops and self._loaded(family) for family, ops in _FAMILIES.items()
        )


# ---------------------------------------------------------------------------
# Sort resolution


def resolve_sort(
    sort: SortExpr,
    table: dict[Symbol, SortExpr],
    define_name: Optional[Symbol] = None,
) -> ResolvedSort:
    """Expand sort aliases and validate well-formedness.

    ``table`` maps previously define-sort'd names to their surface bodies.
    ``define_name`` is set when resolving the body of a define-sort, so an
    enum defined there takes the new name as its identity.
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
    body = table.get(sort.name)
    if body is None:
        _err("E-SORT-UNDEF", sort.pos, f"sort '{sort.name}' is not defined")
    if isinstance(body, EnumSort):
        # The innermost defining name is the enum's identity.
        return resolve_sort(body, table, define_name=sort.name)
    return resolve_sort(body, table)


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
    declaration order.  ``enums`` maps each defined sort name that resolves
    to an enum to that enum.  ``options`` holds each ``set-options`` pair in
    source order, with the position of its command.  ``logic_pos`` is the
    position of the ``set-logic`` command in force (``NO_POS`` if none), and
    ``var_pos`` maps each universal variable to the position of its
    ``declare-var``; like every position, neither takes part in ``==``."""

    __slots__ = (
        "sig", "universal_vars", "uf_decls", "synth_tasks", "constraints",
        "options", "sort_defs", "funcs", "enums", "logic_pos", "var_pos",
    )
    _uncompared = ("logic_pos", "var_pos")
    sig: TheorySignature
    universal_vars: dict[Symbol, ResolvedSort]
    uf_decls: tuple[FuncEntry, ...]
    synth_tasks: tuple[SynthTask, ...]
    constraints: tuple[Term, ...]
    options: tuple[tuple[Symbol, str, Pos], ...]
    sort_defs: dict[Symbol, SortExpr]
    funcs: dict[Symbol, tuple[FuncEntry, ...]]
    enums: dict[Symbol, REnum]
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
        sort_defs: dict[Symbol, SortExpr],
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


def _literal_sort(lit, sort_defs: dict[Symbol, SortExpr], pos: Pos) -> ResolvedSort:
    if isinstance(lit, IntConst):
        return R_INT
    if isinstance(lit, RealConst):
        return R_REAL
    if isinstance(lit, BoolConst):
        return R_BOOL
    if isinstance(lit, BVConst):
        return RBitVec(lit.width)
    assert isinstance(lit, EnumConst)
    body = sort_defs.get(lit.sort_name)
    if body is None:
        _err("E-ENUM-CONST", pos, f"'{lit.sort_name}' is not a defined sort")
    resolved = resolve_sort(NamedSort(lit.sort_name, pos), sort_defs)
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
        return _literal_sort(t.value, scope.sort_defs, t.pos)
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
        ret = scope.sig.lookup(t.head, args)
        if ret is not None:
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
            return ret
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
        self.sort_defs: dict[Symbol, SortExpr] = {}
        self.enums: dict[Symbol, REnum] = {}
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
    sort_defs: dict[Symbol, SortExpr],
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
    sort_defs: dict[Symbol, SortExpr],
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
    sf: SynthFun, session: _Session
) -> tuple[tuple[CheckedNT, ...], dict[Symbol, ResolvedSort]]:
    """Validate the grammar of a synth-fun; resolve the sorts of its
    non-terminals and of its let-bound names."""
    params = _resolve_params(sf.params, session.sort_defs, sf.pos)
    ret = resolve_sort(sf.ret, session.sort_defs)
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
            resolved = resolve_sort(cmd.body, session.sort_defs, define_name=cmd.name)
            if isinstance(resolved, REnum):
                session.enums[cmd.name] = resolved
            session.sort_defs[cmd.name] = cmd.body
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
            grammar, lets = check_grammar(cmd, session)
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
                sort_defs=dict(session.sort_defs),
                funcs={name: tuple(es) for name, es in session.funcs.items()},
                enums=dict(session.enums),
                logic_pos=session.logic_pos,
                var_pos=session.var_pos,
            )
        elif isinstance(cmd, SetOptions):
            session.options.extend((name, raw, cmd.pos) for name, raw in cmd.opts)
        else:
            raise AssertionError(f"unhandled command {cmd!r}")
    _err("E-NO-CHECK", last_pos, "program has no check-synth command")

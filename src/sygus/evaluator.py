"""Evaluation of checked terms and sampled models of uninterpreted functions.

Arithmetic is exact: arbitrary-precision integers, ``Fraction`` for reals,
and modular arithmetic for bit-vectors.  Uninterpreted functions are
evaluated against finite sampled models: a model is a pure function of
(declarations, seed), derived per query from a keyed blake2 digest, so the
same tuple always maps to the same value regardless of query order or
process.

A value is a ``Value`` object, which carries its sort, or a bare payload
(see ``Payload``): an ``int`` for Int and for a bit-vector, a ``bool``, a
``Fraction`` for Real, or an enum's constructor name.  A payload means a
value only together with a sort known from elsewhere.  Values are what
the public interface takes and gives: ``eval_term``, ``Assignment``,
``UFModel.query``, ``TermValues`` (but for its class keys), and the
solver's counterexamples.
Payloads are what compiled terms compute with: ``compile_term`` resolves
every node's sort once, so a column holds payloads of one sort, and the
caller unboxes the columns it passes in (``Value.value``) and boxes the
columns it reads back (``boxer``).

A term can be evaluated three ways, with one semantics: ``THEORY_OPS`` holds
the meaning of every built-in operator as a function of payloads,
``EvalEnv.resolve`` decides what an application calls, and every
evaluator is call-by-value, so they make the same uninterpreted-function
queries.

- ``eval_term`` walks the term at every evaluation and resolves each
  application by the sorts of its argument values; it unboxes the
  arguments of each built-in operator and boxes its result.  It is the
  reference that the other two are tested against.
- ``compile_term`` resolves every application once, from the sorts of the
  checked term, and returns one column function per node: it maps a batch
  of rows, each an assignment with its own sampled model, to the node's
  payloads at every row, with one list operation per node.  Operators are
  mapped over their argument columns, so ``+`` on Int is ``operator.add``
  mapped over two lists of ints in C; an uninterpreted function looks
  each row up in its model's memo by payloads; macro and candidate bodies
  are compiled once per environment and take their argument columns as
  variables.  The only boxing inside a compiled term is at an application
  bound by ``EvalEnv.set_values``, whose function takes and gives values.
  Compiling costs more than one walk, but each later batch skips the walk,
  the dispatch and the operator lookup, and pays each node's call once per
  batch rather than once per row.  The solver runs every constraint
  evaluation this way: ``verify`` on chunks of its grid, the screens on
  the stored counterexamples.  The compiler keeps its work on an explicit
  stack, so a deep term costs it no interpreter stack; a compiled term
  then nests about one call per level.
- ``TermValues`` evaluates the enumerated bodies of a synthesis function
  bound into compiled constraints (``EvalEnv.set_values``).  It takes and
  gives values, and inside memoizes each node's payload per binding of the
  function's parameters, so a hash-consed term is computed from its
  subterms' stored payloads, which suits many terms built from shared
  subterms and evaluated at a few points: the solver keys its term tables
  by these payloads and screens its enumerated terms this way.
"""

from __future__ import annotations

import operator
from _blake2 import blake2b  # hashlib.blake2b itself; hashlib loads OpenSSL too
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import repeat
from typing import Callable, Mapping, Optional, Sequence, Union

from .checker import (
    CheckedProblem,
    RBitVec,
    REnum,
    RInt,
    RBool,
    RReal,
    R_BOOL,
    R_INT,
    R_REAL,
    ResolvedSort,
    SynthTask,
    TheorySignature,
    UFDecl,
    unsupported_sort,
)
from .syntax import (
    App,
    BoolConst,
    BVConst,
    EnumConst,
    IntConst,
    Let,
    Lit,
    RealConst,
    Ref,
    Symbol,
    Term,
)

# Sampled uninterpreted-function results: integers are drawn uniformly from
# this small window so collisions (and hence counterexamples) show up fast.
UF_INT_LO = -8
UF_INT_HI = 8


class EvalError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


#: What a compiled term carries for a value: an ``int`` for Int and for a
#: bit-vector, a ``bool`` for Bool, a ``Fraction`` for Real, and the
#: constructor name for an enum.  The sort is known statically, so the
#: payload alone determines the value.
Payload = Union[int, bool, Fraction, Symbol]


# ---------------------------------------------------------------------------
# Runtime values


class Value:
    """A theory value.  Every value class has a ``value``: its payload."""

    __slots__ = ()


@dataclass(frozen=True)
class VInt(Value):
    value: int


@dataclass(frozen=True)
class VBool(Value):
    value: bool


@dataclass(frozen=True)
class VReal(Value):
    value: Fraction


@dataclass(frozen=True)
class VBV(Value):
    width: int
    value: int


@dataclass(frozen=True)
class VEnum(Value):
    identity: str
    constructor: Symbol

    @property
    def value(self) -> Symbol:
        return self.constructor


Assignment = dict[Symbol, Value]

#: The two Bool values; boxing a Bool payload returns one of these rather
#: than build a new one, which is safe because values are immutable.
_TRUTH = (VBool(False), VBool(True))


def sort_of_value(v: Value) -> ResolvedSort:
    if isinstance(v, VInt):
        return R_INT
    if isinstance(v, VBool):
        return R_BOOL
    if isinstance(v, VReal):
        return R_REAL
    if isinstance(v, VBV):
        return RBitVec(v.width)
    assert isinstance(v, VEnum)
    return REnum(v.identity, ())


def boxer(sort: ResolvedSort) -> Callable[[Payload], Value]:
    """The function from a payload of ``sort`` to its value."""
    if isinstance(sort, RInt):
        return VInt
    if isinstance(sort, RBool):
        return _TRUTH.__getitem__
    if isinstance(sort, RReal):
        return VReal
    if isinstance(sort, RBitVec):
        return partial(VBV, sort.width)
    assert isinstance(sort, REnum), f"no values of sort {sort}"
    return partial(VEnum, sort.identity)


# ---------------------------------------------------------------------------
# Uninterpreted-function models


def _decimal(n: int) -> str:
    """The decimal numeral of ``n``.  ``str`` refuses an int past the
    interpreter's digit limit (4,300 by default), which arithmetic on long
    numerals can reach; ``Decimal`` converts it exactly, with no limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _encode(sort: ResolvedSort, p: Payload) -> bytes:
    """The bytes that stand for the value of payload ``p`` of ``sort`` in a
    model's digest."""
    if isinstance(sort, RInt):
        return b"i" + _decimal(p).encode()
    if isinstance(sort, RBool):
        return b"b1" if p else b"b0"
    if isinstance(sort, RBitVec):
        return b"v" + f"{sort.width}:{p}".encode()
    if isinstance(sort, REnum):
        return b"e" + f"{sort.identity}::{p}".encode()
    raise AssertionError(f"unhashable sort {sort}")


def stable_u64(*parts: Union[int, str, bytes]) -> int:
    """Order- and process-independent 64-bit digest of the parts."""
    h = blake2b(digest_size=8)
    for p in parts:
        if isinstance(p, int):
            chunk = str(p).encode()
        elif isinstance(p, str):
            chunk = p.encode()
        else:
            chunk = p
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)
    return int.from_bytes(h.digest(), "big")


def _payload_for_sort(sort: ResolvedSort, u: int) -> Payload:
    if isinstance(sort, RInt):
        return UF_INT_LO + u % (UF_INT_HI - UF_INT_LO + 1)
    if isinstance(sort, RBool):
        return bool(u & 1)
    if isinstance(sort, RBitVec):
        return u % (1 << sort.width)
    if isinstance(sort, REnum):
        return sort.constructors[u % len(sort.constructors)]
    raise AssertionError(f"no sampled values for sort {sort}")


class UFModel:
    """Memoized finite model of the declared uninterpreted functions.

    Functionally consistent by construction: results are a pure function of
    (seed, function name, argument tuple).  ``memo`` records every queried
    point, keyed by payloads: the key of an application is the index of its
    declaration in ``decls`` followed by the argument payloads, and the
    entry is the result's payload.  The index tells overloads apart, so
    payloads that are equal as Python objects but not as values (``1``,
    ``True`` and a bit-vector ``1``) never share an entry.  A compiled term
    looks its rows up in ``memo`` directly (see ``_uf_query``); ``query`` is
    the same lookup with values at both ends.
    """

    def __init__(self, decls: tuple[UFDecl, ...], seed: int):
        self.decls = decls
        self.seed = seed
        self.memo: dict[tuple, Payload] = {}

    def query(self, name: Symbol, args: tuple[Value, ...]) -> Value:
        arg_sorts = tuple(map(sort_of_value, args))
        index = next(
            i for i, d in enumerate(self.decls) if d.name == name and d.arg_sorts == arg_sorts
        )
        key = (index, *[a.value for a in args])
        result = self.memo.get(key)
        if result is None:
            result = self._derive(key)
        return boxer(self.decls[index].ret)(result)

    def _derive(self, key: tuple) -> Payload:
        """The result at ``key``, a memo key that is not in ``memo`` yet,
        drawn from the digest of the seed, the name and the arguments, and
        recorded."""
        decl = self.decls[key[0]]
        u = stable_u64(self.seed, decl.name, *map(_encode, decl.arg_sorts, key[1:]))
        result = self.memo[key] = _payload_for_sort(decl.ret, u)
        return result


#: A batch of rows: each variable's payloads, one per row.
Columns = dict[Symbol, list[Payload]]
#: Each row's sampled model; ``None`` where there are no uninterpreted
#: functions.
Models = Sequence[Optional[UFModel]]
#: A compiled term: its payload at each row of a batch.
Compiled = Callable[[Columns, Models], list[Payload]]


def fresh_uf_model(decls: tuple[UFDecl, ...], seed: int) -> UFModel:
    """Deterministic sampled model for the given declarations and seed."""
    for d in decls:
        if any(map(unsupported_sort, d.arg_sorts + (d.ret,))):
            raise EvalError(
                "E-UF-UNSUPPORTED-SORT",
                f"cannot sample models for '{d.name}' over Real or Array sorts",
            )
    return UFModel(decls, seed)


# ---------------------------------------------------------------------------
# Evaluation environment


@dataclass(frozen=True)
class _Callable:
    kind: str  # "macro" | "cand" | "uf" | "values"
    arg_sorts: tuple[ResolvedSort, ...]
    ret: ResolvedSort
    params: tuple[Symbol, ...]
    body: Optional[Term]
    #: What a "values" entry calls with the argument values.
    fn: Optional[Callable[..., Value]] = None
    #: A "uf" entry's index among the problem's declarations, which is
    #: where its results are memoized (see ``UFModel``).
    index: int = 0


class EvalEnv:
    """Function tables and enum registry shared across evaluations.

    The bodies of the synthesis functions are swappable, so one environment
    can screen many candidates without rebuilding its tables.
    """

    def __init__(
        self,
        problem: CheckedProblem,
        candidates: Optional[dict[Symbol, Term]] = None,
    ):
        #: The sampled model that ``eval_term`` evaluates uninterpreted
        #: functions in; compiled terms take a model per row instead.
        self.model: Optional[UFModel] = None
        self.enums = problem.enum_registry()
        self.funcs: dict[Symbol, list[_Callable]] = {}
        for m in problem.macros:
            self._add(
                m.name,
                _Callable(
                    "macro",
                    tuple(s for _, s in m.params),
                    m.ret,
                    tuple(p for p, _ in m.params),
                    m.body,
                ),
            )
        for i, d in enumerate(problem.uf_decls):
            self._add(d.name, _Callable("uf", d.arg_sorts, d.ret, (), None, index=i))
        #: Parameters, argument sorts and result sort of each synthesis function.
        self._task_info = {
            t.name: (
                tuple(p for p, _ in t.params),
                tuple(s for _, s in t.params),
                t.ret,
            )
            for t in problem.synth_tasks
        }
        self._cands: dict[Symbol, _Callable] = {}
        #: Compiled macro and candidate bodies, by the identity of the entry.
        self._compiled: dict[int, tuple[_Callable, Compiled]] = {}
        if candidates:
            self.set_candidates(candidates)

    def _add(self, name: Symbol, c: _Callable) -> None:
        self.funcs.setdefault(name, []).append(c)

    def set_candidate(self, name: Symbol, body: Term) -> None:
        params, arg_sorts, ret = self._task_info[name]
        self._cands[name] = _Callable("cand", arg_sorts, ret, params, body)

    def set_candidates(self, mapping: dict[Symbol, Term]) -> None:
        for name, body in mapping.items():
            self.set_candidate(name, body)

    def set_values(self, name: Symbol, fn: Callable[..., Value]) -> None:
        """Make an application of synthesis function ``name`` call ``fn``
        with its argument values, in place of a candidate body."""
        params, arg_sorts, ret = self._task_info[name]
        self._cands[name] = _Callable("values", arg_sorts, ret, params, None, fn)

    def resolve(
        self, name: Symbol, arg_sorts: tuple[ResolvedSort, ...]
    ) -> Optional[_Callable]:
        """What an application of ``name`` at ``arg_sorts`` calls: a macro
        or uninterpreted function of that signature, else the candidate of
        that signature; ``None`` means the theory operator."""
        for e in self.funcs.get(name, ()):
            if e.arg_sorts == arg_sorts:
                return e
        cand = self._cands.get(name)
        if cand is not None and cand.arg_sorts == arg_sorts:
            return cand
        return None


# ---------------------------------------------------------------------------
# Term evaluation


def _literal(lit, enums: dict[Symbol, REnum]) -> tuple[Payload, ResolvedSort]:
    """The payload and the sort of a literal."""
    if isinstance(lit, IntConst):
        return lit.value, R_INT
    if isinstance(lit, RealConst):
        return lit.value, R_REAL
    if isinstance(lit, BoolConst):
        return lit.value, R_BOOL
    if isinstance(lit, BVConst):
        return lit.value, RBitVec(lit.width)
    assert isinstance(lit, EnumConst)
    return lit.constructor, enums[lit.sort_name]


def eval_term(t: Term, assignment: Assignment, env: EvalEnv) -> Value:
    """Call-by-value evaluation of a checked term."""
    if isinstance(t, Lit):
        payload, sort = _literal(t.value, env.enums)
        return boxer(sort)(payload)
    if isinstance(t, Ref):
        v = assignment.get(t.name)
        if v is not None:
            return v
        return _apply(t.name, (), env)
    if isinstance(t, App):
        args = tuple(eval_term(a, assignment, env) for a in t.args)
        return _apply(t.head, args, env)
    assert isinstance(t, Let)
    # Parallel semantics: all binding values are evaluated in the outer
    # environment before any becomes visible.
    values = [(b.name, eval_term(b.value, assignment, env)) for b in t.bindings]
    inner = dict(assignment)
    inner.update(values)
    return eval_term(t.body, inner, env)


def _apply(name: Symbol, args: tuple[Value, ...], env: EvalEnv) -> Value:
    sorts = tuple(map(sort_of_value, args))
    entry = env.resolve(name, sorts)
    if entry is None:
        op, ret = _builtin(name, sorts)
        return boxer(ret)(op(*[a.value for a in args]))
    if entry.kind == "uf":
        assert env.model is not None, "uninterpreted function without a model"
        return env.model.query(name, args)
    if entry.kind == "values":
        return entry.fn(*args)
    return eval_term(entry.body, dict(zip(entry.params, args)), env)


def _ite(cond: bool, then: Payload, other: Payload) -> Payload:
    return then if cond else other


def _div(a: Fraction, b: Fraction) -> Fraction:
    if b == 0:
        raise EvalError("E-DIV-ZERO", "division by zero")
    return a / b


class _ByWidth:
    """A bit-vector operator whose payload function takes the operands'
    mask, ``(1 << width) - 1``, before the payloads."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[..., int]):
        self.fn = fn


def _bvshl(mask: int, a: int, b: int) -> int:
    # Shift amounts at or beyond the width yield the zero vector.
    return 0 if b >= mask.bit_length() else (a << b) & mask


#: The semantics of every built-in operator, as a function of the operand
#: payloads (see ``Payload``).  Int and Real arithmetic keeps the payload
#: class of its operands.  An operator whose meaning depends on the width
#: is a ``_ByWidth``, given its operands' mask when it is resolved.
THEORY_OPS: dict[Symbol, Union[Callable[..., Payload], _ByWidth]] = {
    "=": operator.eq,
    "distinct": operator.ne,
    "ite": _ite,
    "and": lambda *args: all(args),
    "or": lambda *args: any(args),
    "not": operator.not_,
    "=>": lambda a, b: not a or b,
    "xor": operator.ne,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "bvnot": _ByWidth(lambda mask, a: ~a & mask),
    "bvneg": _ByWidth(lambda mask, a: -a & mask),
    "bvadd": _ByWidth(lambda mask, a, b: (a + b) & mask),
    "bvsub": _ByWidth(lambda mask, a, b: (a - b) & mask),
    "bvand": operator.and_,
    "bvor": operator.or_,
    "bvxor": operator.xor,
    "bvshl": _ByWidth(_bvshl),
    # The operand is below 2**width, so a shift at or beyond the width
    # yields the zero vector here too.
    "bvlshr": operator.rshift,
    "bvult": operator.lt,
    "bvule": operator.le,
}

#: Result sorts of the built-in operators.  Every family is loaded, because
#: evaluation, unlike checking, is not gated on the logic.
_THEORY = TheorySignature()


def _builtin(
    name: Symbol, sorts: tuple[ResolvedSort, ...]
) -> tuple[Callable[..., Payload], ResolvedSort]:
    """The payload function and the result sort of built-in operator
    ``name`` at operand sorts ``sorts``."""
    op = THEORY_OPS.get(name)
    ret = _THEORY.lookup(name, sorts)
    if op is None or ret is None:
        raise AssertionError(f"no semantics for '{name}' at ({' '.join(map(str, sorts))})")
    if isinstance(op, _ByWidth):
        op = partial(op.fn, (1 << sorts[0].width) - 1)
    return op, ret


# ---------------------------------------------------------------------------
# Compilation to column functions

# Steps of the compiler's explicit stack.
_NODE, _APP, _LET_BODY, _LET = range(4)

_Part = tuple[Compiled, ResolvedSort]

# A column function calls its children from its own frame, in a loop rather
# than a comprehension, which would be a frame of its own: a compiled term
# nests one call per level, so it reaches as deep as the checker does.


def columns(names: Sequence[Symbol], points: Sequence[tuple[Payload, ...]]) -> Columns:
    """The columns of a batch of ``points``, each a tuple of the payloads of
    ``names``."""
    return {n: [p[i] for p in points] for i, n in enumerate(names)}


def compile_term(
    t: Term, env: EvalEnv, variables: Mapping[Symbol, ResolvedSort]
) -> Compiled:
    """``t`` as a function of a batch of rows.

    A row is an assignment to ``variables`` and the sampled model that
    uninterpreted functions are evaluated in at that row.  The function
    takes the batch's columns of payloads (see ``columns``) and its list of
    models, one per row, and returns the term's payload at each row.  Every
    node's sort is resolved here, so the payloads of a column share one
    sort, which the caller knows from the term: ``boxer`` of it turns the
    column into values.  On a checked term whose free names are
    ``variables``, with their sorts, the value at a row is what
    ``eval_term`` gives at the row's assignment with ``env.model`` set to
    the row's model, and each model is queried at the points ``eval_term``
    queries it at.  Applications are resolved against the candidates that
    ``env`` holds now; one with no meaning at the sorts of its arguments,
    such as a synthesis function with no candidate, raises the
    ``AssertionError`` that ``eval_term`` raises when it reaches it.
    """
    return _compile(t, env, variables)[0]


def _compile(
    root: Term, env: EvalEnv, variables: Mapping[Symbol, ResolvedSort]
) -> _Part:
    """The column function of ``root`` and its sort.  Nodes are compiled in
    post-order from an explicit stack; ``done`` holds the compiled children
    waiting for their parent."""
    done: list[_Part] = []
    todo: list[tuple] = [(_NODE, root, variables)]
    while todo:
        step, node, scope = todo.pop()
        if step == _NODE:
            if isinstance(node, Lit):
                payload, sort = _literal(node.value, env.enums)
                done.append((lambda c, m, p=payload: [p] * len(m), sort))
            elif isinstance(node, Ref):
                sort = scope.get(node.name)
                if sort is not None:
                    done.append((lambda c, m, n=node.name: c[n], sort))
                else:
                    done.append(_call(node.name, [], env))
            elif isinstance(node, App):
                todo.append((_APP, node, scope))
                todo.extend((_NODE, a, scope) for a in reversed(node.args))
            else:
                assert isinstance(node, Let)
                # Parallel semantics: the values are compiled in the outer
                # scope, the body in the scope they extend.
                todo.append((_LET_BODY, node, scope))
                todo.extend((_NODE, b.value, scope) for b in reversed(node.bindings))
        elif step == _APP:
            cut = len(done) - len(node.args)
            parts = done[cut:]
            del done[cut:]
            done.append(_call(node.head, parts, env))
        elif step == _LET_BODY:
            cut = len(done) - len(node.bindings)
            parts = done[cut:]
            del done[cut:]
            inner = dict(scope)
            inner.update((b.name, sort) for b, (_, sort) in zip(node.bindings, parts))
            names = [b.name for b in node.bindings]
            todo.append((_LET, (names, [f for f, _ in parts]), None))
            todo.append((_NODE, node.body, inner))
        else:
            names, fns = node
            body, sort = done.pop()
            done.append((_parallel_let(names, fns, body), sort))
    [result] = done
    return result


def _call(head: Symbol, parts: list[_Part], env: EvalEnv) -> _Part:
    """An application of ``head`` to compiled arguments, resolved now by
    the rule ``eval_term`` applies at every call: ``EvalEnv.resolve``."""
    fns = [f for f, _ in parts]
    sorts = tuple(s for _, s in parts)
    entry = env.resolve(head, sorts)
    if entry is None:
        op, ret = _builtin(head, sorts)
        return _map_call(op, fns), ret
    if entry.kind == "uf":
        return _uf_query(entry.index, fns), entry.ret
    if entry.kind == "values":
        return _map_call(_over_payloads(entry.fn, sorts), fns), entry.ret
    return _call_by_value(_compiled_body(entry, env), entry.params, fns), entry.ret


def _compiled_body(entry: _Callable, env: EvalEnv) -> Compiled:
    """The body of a macro or candidate, compiled once per environment."""
    hit = env._compiled.get(id(entry))
    if hit is None or hit[0] is not entry:
        assert entry.body is not None
        scope = dict(zip(entry.params, entry.arg_sorts))
        hit = env._compiled[id(entry)] = (entry, _compile(entry.body, env, scope)[0])
    return hit[1]


def _over_payloads(
    fn: Callable[..., Value], sorts: tuple[ResolvedSort, ...]
) -> Callable[..., Payload]:
    """``fn``, a function of values of ``sorts``, as a function of their
    payloads."""
    boxers = [boxer(s) for s in sorts]
    return lambda *args: fn(*[b(a) for b, a in zip(boxers, args)]).value


def _map_call(fn: Callable[..., Payload], fns: list[Compiled]) -> Compiled:
    """``fn`` called at each row with the argument payloads."""
    if not fns:
        return lambda c, m: [fn() for _ in m]
    if len(fns) == 1:
        [f0] = fns
        return lambda c, m: list(map(fn, f0(c, m)))
    if len(fns) == 2:
        f0, f1 = fns
        return lambda c, m: list(map(fn, f0(c, m), f1(c, m)))

    def call(c: Columns, m: Models) -> list[Payload]:
        args = []
        for f in fns:
            args.append(f(c, m))
        return list(map(fn, *args))

    return call


def _uf_query(index: int, fns: list[Compiled]) -> Compiled:
    """A query of each row's model at the argument payloads, for the
    declaration at ``index`` (see ``UFModel``), which was resolved when the
    term was compiled.  A row is one lookup of the key ``(index,
    *payloads)`` in its model's memo, a tuple hash with no value built; only
    a miss calls into the model, which derives the result from the digest
    of the same bytes that ``UFModel.query`` hashes."""

    def call(c: Columns, m: Models) -> list[Payload]:
        args = []
        for f in fns:
            args.append(f(c, m))
        out = []
        for model, key in zip(m, zip(repeat(index), *args)):
            p = model.memo.get(key)
            out.append(model._derive(key) if p is None else p)
        return out

    return call


def _call_by_value(body: Compiled, params: tuple[Symbol, ...], fns: list[Compiled]) -> Compiled:
    """A call by value: the argument columns are the body's variables."""
    pairs = tuple(zip(params, fns))

    def call(c: Columns, m: Models) -> list[Payload]:
        args = {}
        for p, f in pairs:
            args[p] = f(c, m)
        return body(args, m)

    return call


def _parallel_let(names: list[Symbol], fns: list[Compiled], body: Compiled) -> Compiled:
    pairs = tuple(zip(names, fns))

    def let(c: Columns, m: Models) -> list[Payload]:
        # Every value is taken in the outer columns before any is bound.
        values = []
        for n, f in pairs:
            values.append((n, f(c, m)))
        inner = dict(c)
        inner.update(values)
        return body(inner, m)

    return let


# ---------------------------------------------------------------------------
# Values of enumerated terms


class TermValues:
    """One synthesis function's enumerated terms as the function that its
    applications call (see ``EvalEnv.set_values``), memoized per node.

    ``term`` is the body an application evaluates; it is set before each
    evaluation.  Values cross the boundary: ``__call__`` takes and gives
    values, and ``at`` takes values.  Inside, a node's value is kept as its
    payload, and its sort as a number, by the node's identity.  A binding
    (the parameters' payloads, extended inside a let body with the
    let-bound names' payloads) keys a memo from ``id(node)`` to the node's
    payload.  A node missing from it is computed from its children's
    memoized payloads by the rules ``eval_term`` applies, so a term whose
    subterms were evaluated before costs one application per new binding.
    What an application computes is resolved once per head and tuple of
    argument sorts; a tuple of sort numbers hashes in C.  A binding needs
    no sampled model as part of its key, because grammars and macros may
    not call uninterpreted functions.

    The terms must come from a hash-consed ``TermTable`` that outlives this
    memo, so that no identity is reused.
    """

    def __init__(self, task: SynthTask, env: EvalEnv):
        self.term: Optional[Term] = None
        self._env = env
        named = list(task.params) + list(task.lets)
        #: A binding is a tuple of payloads, one slot per name; a let-bound
        #: name outside its let body holds ``None``.
        self._slots = {n: i for i, (n, _) in enumerate(named)}
        self._unbound = (None,) * len(task.lets)
        self._memos: dict[tuple, dict[int, Payload]] = {}
        #: The sorts met so far, by number.
        self._sorts: list[ResolvedSort] = []
        self._numbers: dict[ResolvedSort, int] = {}
        self._slot_sorts = [self._number(s) for _, s in named]
        self._box = boxer(task.ret)
        #: Each evaluated node's sort number, by identity.
        self._sort_of: dict[int, int] = {}
        #: What an application computes from its argument payloads, and
        #: its sort number, by its head and its arguments' sort numbers.
        self._ops: dict[tuple, tuple[Callable[..., Payload], int]] = {}

    def __call__(self, *args: Value) -> Value:
        binding = tuple([a.value for a in args]) + self._unbound
        return self._box(self._value(self.term, *self._memo(binding)))

    def at(self, points: list[tuple[Value, ...]]) -> Callable[[Term], tuple[Payload, ...]]:
        """The function from a term with no free let-bound name to its
        payloads at each argument tuple of ``points``: a class key.  Terms
        of one sort have equal keys exactly when they have equal values,
        and the key's payloads hash in C, where boxed values would be built
        and hashed in Python for every key."""
        memos = [self._memo(tuple([a.value for a in args]) + self._unbound) for args in points]
        value = self._value
        return lambda t: tuple([value(t, binding, memo) for binding, memo in memos])

    def _number(self, sort: ResolvedSort) -> int:
        number = self._numbers.get(sort)
        if number is None:
            number = self._numbers[sort] = len(self._sorts)
            self._sorts.append(sort)
        return number

    def _memo(self, binding: tuple) -> tuple[tuple, dict[int, Payload]]:
        memo = self._memos.get(binding)
        if memo is None:
            memo = self._memos[binding] = {}
        return binding, memo

    def _value(self, t: Term, binding: tuple, memo: dict[int, Payload]) -> Payload:
        key = id(t)
        v = memo.get(key)
        if v is not None:
            return v
        sort_of = self._sort_of
        if isinstance(t, App):
            args = [memo.get(id(a)) for a in t.args]
            if None in args:
                args = [self._value(a, binding, memo) for a in t.args]
            signature = (t.head, *[sort_of[id(a)] for a in t.args])
            op, number = self._ops.get(signature) or self._op(signature)
            v = op(*args)
        elif isinstance(t, Ref):
            slot = self._slots.get(t.name)
            v = None if slot is None else binding[slot]
            if v is None:
                op, number = self._ops.get((t.name,)) or self._op((t.name,))
                v = op()
            else:
                number = self._slot_sorts[slot]
        elif isinstance(t, Lit):
            v, sort = _literal(t.value, self._env.enums)
            number = self._number(sort)
        else:
            assert isinstance(t, Let)
            # Parallel semantics: every value is taken in the outer binding.
            inner = list(binding)
            for b in t.bindings:
                inner[self._slots[b.name]] = self._value(b.value, binding, memo)
            v = self._value(t.body, *self._memo(tuple(inner)))
            number = sort_of[id(t.body)]
        # One key object serves both tables.
        sort_of[key] = number
        memo[key] = v
        return v

    def _op(self, signature: tuple) -> tuple[Callable[..., Payload], int]:
        """What an application of ``signature[0]`` to arguments of the sort
        numbers ``signature[1:]`` computes from their payloads, and its
        sort number, resolved and kept in ``_ops``: a built-in, or a
        macro's body compiled once per environment.  Grammars call nothing
        else."""
        name, sorts = signature[0], tuple(self._sorts[n] for n in signature[1:])
        env = self._env
        entry = env.resolve(name, sorts)
        if entry is None:
            op, ret = _builtin(name, sorts)
        else:
            assert entry.kind == "macro", f"a grammar calls '{name}'"
            body, params, ret = _compiled_body(entry, env), entry.params, entry.ret
            op = lambda *args: body({p: [a] for p, a in zip(params, args)}, [None])[0]
        hit = self._ops[signature] = (op, self._number(ret))
        return hit

"""Evaluation of checked terms and sampled models of uninterpreted functions.

Arithmetic is exact: arbitrary-precision integers, ``Fraction`` for reals,
and modular arithmetic for bit-vectors.  Uninterpreted functions are
evaluated against finite sampled models: a model is a pure function of
(declarations, seed), derived per query from a keyed blake2 digest, so the
same tuple always maps to the same value regardless of query order or
process.

A term can be evaluated three ways, with one semantics: ``THEORY_OPS`` holds
the meaning of every built-in operator, ``EvalEnv.resolve`` decides what an
application calls, and every evaluator is call-by-value, so they make the
same uninterpreted-function queries.

- ``eval_term`` walks the term at every evaluation and resolves each
  application by the sorts of its argument values.  It is the reference
  that the other two are tested against.
- ``compile_term`` resolves every application once, from the sorts of the
  checked term, and returns one column function per node: it maps a batch
  of rows, each an assignment with its own sampled model, to the node's
  values at every row, with one list operation per node.  Operators are
  mapped over their argument columns; an uninterpreted function is queried
  once per distinct model and argument tuple of the batch; macro and
  candidate bodies are compiled once per environment and take their
  argument columns as variables.  Compiling costs more than one walk, but
  each later batch skips the walk, the dispatch and the operator lookup,
  and pays each node's call once per batch rather than once per row.  The
  solver runs every constraint evaluation this way: ``verify`` on chunks of
  its grid, the screens on the stored counterexamples.  The compiler keeps
  its work on an explicit stack, so a deep term costs it no interpreter
  stack; a compiled term then nests about one call per level.
- ``TermValues`` evaluates the enumerated bodies of a synthesis function
  bound into compiled constraints (``EvalEnv.set_values``).  It memoizes
  each node's value per binding of the function's parameters, so a
  hash-consed term is computed from its subterms' stored values, which
  suits many terms built from shared subterms and evaluated at a few
  points: the solver keys its term tables and screens its enumerated terms
  this way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Mapping, Optional, Sequence, Union

from .checker import (
    CheckedProblem,
    RBitVec,
    REnum,
    RInt,
    RBool,
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


# ---------------------------------------------------------------------------
# Runtime values


class Value:
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


Assignment = dict[Symbol, Value]


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


def _encode_value(v: Value) -> bytes:
    if isinstance(v, VInt):
        return b"i" + _decimal(v.value).encode()
    if isinstance(v, VBool):
        return b"b1" if v.value else b"b0"
    if isinstance(v, VBV):
        return b"v" + f"{v.width}:{v.value}".encode()
    if isinstance(v, VEnum):
        return b"e" + f"{v.identity}::{v.constructor}".encode()
    raise AssertionError(f"unhashable value {v!r}")


def stable_u64(*parts: Union[int, str, bytes]) -> int:
    """Order- and process-independent 64-bit digest of the parts."""
    h = hashlib.blake2b(digest_size=8)
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


def _value_for_sort(sort: ResolvedSort, u: int) -> Value:
    if isinstance(sort, RInt):
        return VInt(UF_INT_LO + u % (UF_INT_HI - UF_INT_LO + 1))
    if isinstance(sort, RBool):
        return VBool(bool(u & 1))
    if isinstance(sort, RBitVec):
        return VBV(sort.width, u % (1 << sort.width))
    if isinstance(sort, REnum):
        return VEnum(sort.identity, sort.constructors[u % len(sort.constructors)])
    raise AssertionError(f"no sampled values for sort {sort}")


class UFModel:
    """Memoized finite model of the declared uninterpreted functions.

    Functionally consistent by construction: results are a pure function of
    (seed, function name, argument tuple).  The memo table records every
    queried point, which is what a counterexample report shows.
    """

    def __init__(self, decls: tuple[UFDecl, ...], seed: int):
        self.decls = decls
        self.seed = seed
        self._by_name: dict[Symbol, list[UFDecl]] = {}
        for d in decls:
            self._by_name.setdefault(d.name, []).append(d)
        self.table: dict[tuple[Symbol, tuple[Value, ...]], Value] = {}

    def query(self, name: Symbol, args: tuple[Value, ...]) -> Value:
        key = (name, args)
        hit = self.table.get(key)
        if hit is not None:
            return hit
        arg_sorts = tuple(sort_of_value(a) for a in args)
        decl = next(
            d for d in self._by_name[name] if d.arg_sorts == arg_sorts
        )
        u = stable_u64(self.seed, name, *map(_encode_value, args))
        result = _value_for_sort(decl.ret, u)
        self.table[key] = result
        return result


#: A batch of rows: each variable's values, one per row.
Columns = dict[Symbol, list[Value]]
#: Each row's sampled model; ``None`` where there are no uninterpreted
#: functions.
Models = Sequence[Optional[UFModel]]
#: A compiled term: its value at each row of a batch.
Compiled = Callable[[Columns, Models], list[Value]]


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
        for d in problem.uf_decls:
            self._add(d.name, _Callable("uf", d.arg_sorts, d.ret, (), None))
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


def _lit_value(lit, enums: dict[Symbol, REnum]) -> Value:
    if isinstance(lit, IntConst):
        return VInt(lit.value)
    if isinstance(lit, RealConst):
        return VReal(lit.value)
    if isinstance(lit, BoolConst):
        return VBool(lit.value)
    if isinstance(lit, BVConst):
        return VBV(lit.width, lit.value)
    assert isinstance(lit, EnumConst)
    return VEnum(enums[lit.sort_name].identity, lit.constructor)


def eval_term(t: Term, assignment: Assignment, env: EvalEnv) -> Value:
    """Call-by-value evaluation of a checked term."""
    if isinstance(t, Lit):
        return _lit_value(t.value, env.enums)
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
    entry = None
    if name in env.funcs or name in env._cands:
        entry = env.resolve(name, tuple(map(sort_of_value, args)))
    if entry is None:
        op = THEORY_OPS.get(name)
        if op is None:
            raise AssertionError(f"no semantics for '{name}' at {args!r}")
        return op(*args)
    if entry.kind == "uf":
        assert env.model is not None, "uninterpreted function without a model"
        return env.model.query(name, args)
    if entry.kind == "values":
        return entry.fn(*args)
    return eval_term(entry.body, dict(zip(entry.params, args)), env)


def _ite(cond: Value, then: Value, other: Value) -> Value:
    assert isinstance(cond, VBool)
    return then if cond.value else other


def _div(a: VReal, b: VReal) -> VReal:
    if b.value == 0:
        raise EvalError("E-DIV-ZERO", "division by zero")
    return VReal(a.value / b.value)


def _mask(a: VBV) -> int:
    return (1 << a.width) - 1


def _bvshl(a: VBV, b: VBV) -> VBV:
    # Shift amounts at or beyond the width yield the zero vector.
    if b.value >= a.width:
        return VBV(a.width, 0)
    return VBV(a.width, (a.value << b.value) & _mask(a))


def _bvlshr(a: VBV, b: VBV) -> VBV:
    if b.value >= a.width:
        return VBV(a.width, 0)
    return VBV(a.width, a.value >> b.value)


#: The two Bool values; an operator returns one of these rather than build
#: a new one, which is safe because values are immutable.
_TRUTH = (VBool(False), VBool(True))

#: The semantics of every built-in operator, called with the operand values.
#: Int and Real arithmetic keeps the value class of its operands.
THEORY_OPS: dict[Symbol, Callable[..., Value]] = {
    "=": lambda a, b: _TRUTH[a == b],
    "distinct": lambda a, b: _TRUTH[a != b],
    "ite": _ite,
    "and": lambda *args: _TRUTH[all(a.value for a in args)],
    "or": lambda *args: _TRUTH[any(a.value for a in args)],
    "not": lambda a: _TRUTH[not a.value],
    "=>": lambda a, b: _TRUTH[not a.value or b.value],
    "xor": lambda a, b: _TRUTH[a.value != b.value],
    "+": lambda a, b: type(a)(a.value + b.value),
    "-": lambda a, b: type(a)(a.value - b.value),
    "*": lambda a, b: type(a)(a.value * b.value),
    "/": _div,
    "<=": lambda a, b: _TRUTH[a.value <= b.value],
    "<": lambda a, b: _TRUTH[a.value < b.value],
    ">=": lambda a, b: _TRUTH[a.value >= b.value],
    ">": lambda a, b: _TRUTH[a.value > b.value],
    "bvnot": lambda a: VBV(a.width, ~a.value & _mask(a)),
    "bvneg": lambda a: VBV(a.width, -a.value & _mask(a)),
    "bvadd": lambda a, b: VBV(a.width, (a.value + b.value) & _mask(a)),
    "bvsub": lambda a, b: VBV(a.width, (a.value - b.value) & _mask(a)),
    "bvand": lambda a, b: VBV(a.width, a.value & b.value),
    "bvor": lambda a, b: VBV(a.width, a.value | b.value),
    "bvxor": lambda a, b: VBV(a.width, a.value ^ b.value),
    "bvshl": _bvshl,
    "bvlshr": _bvlshr,
    "bvult": lambda a, b: _TRUTH[a.value < b.value],
    "bvule": lambda a, b: _TRUTH[a.value <= b.value],
}


# ---------------------------------------------------------------------------
# Compilation to column functions

#: Result sorts of the built-in operators.  Every family is loaded, because
#: evaluation, unlike checking, is not gated on the logic.
_THEORY = TheorySignature()

# Steps of the compiler's explicit stack.
_NODE, _APP, _LET_BODY, _LET = range(4)

_Part = tuple[Compiled, Optional[ResolvedSort]]

# A column function calls its children from its own frame, in a loop rather
# than a comprehension, which would be a frame of its own: a compiled term
# nests one call per level, so it reaches as deep as the checker does.


def columns(names: Sequence[Symbol], points: Sequence[tuple[Value, ...]]) -> Columns:
    """The columns of a batch of ``points``, each a tuple of the values of
    ``names``."""
    return {n: [p[i] for p in points] for i, n in enumerate(names)}


def compile_term(
    t: Term, env: EvalEnv, variables: Mapping[Symbol, ResolvedSort]
) -> Compiled:
    """``t`` as a function of a batch of rows.

    A row is an assignment to ``variables`` and the sampled model that
    uninterpreted functions are evaluated in at that row.  The function
    takes the batch's columns (see ``columns``) and its list of models, one
    per row, and returns the term's value at each row.  On a checked term
    whose free names are ``variables``, with their sorts, that value is what
    ``eval_term`` gives at the row's assignment with ``env.model`` set to
    the row's model, and each model is queried at the points ``eval_term``
    queries it at.  Applications are resolved against the candidates that
    ``env`` holds now.
    """
    return _compile(t, env, variables)[0]


def _compile(
    root: Term, env: EvalEnv, variables: Mapping[Symbol, ResolvedSort]
) -> _Part:
    """The column function of ``root`` and its sort; ``None`` for a sort
    that is only known at run time, and then the function dispatches like
    ``eval_term``.  Nodes are compiled in post-order from an explicit stack;
    ``done`` holds the compiled children waiting for their parent."""
    done: list[_Part] = []
    todo: list[tuple] = [(_NODE, root, variables)]
    while todo:
        step, node, scope = todo.pop()
        if step == _NODE:
            if isinstance(node, Lit):
                value = _lit_value(node.value, env.enums)
                done.append((lambda c, m, v=value: [v] * len(m), sort_of_value(value)))
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
    if None not in sorts:
        entry = env.resolve(head, sorts)
        if entry is None:
            op = THEORY_OPS.get(head)
            ret = _THEORY.lookup(head, sorts)
            if op is not None and ret is not None:
                return _map_call(op, fns), ret
        elif entry.kind == "uf":
            return _uf_query(head, sorts, fns), entry.ret
        elif entry.kind == "values":
            return _map_call(entry.fn, fns), entry.ret
        else:
            return _call_by_value(_compiled_body(entry, env), entry.params, fns), entry.ret
    # Left to run time, as ``eval_term`` would: only an ill-sorted term or
    # a call of a synthesis function with no candidate comes here.
    def unresolved(c: Columns, m: Models) -> list[Value]:
        args = []
        for f in fns:
            args.append(f(c, m))
        return [_apply(head, tuple([a[i] for a in args]), env) for i in range(len(m))]

    return unresolved, None


def _compiled_body(entry: _Callable, env: EvalEnv) -> Compiled:
    """The body of a macro or candidate, compiled once per environment."""
    hit = env._compiled.get(id(entry))
    if hit is None or hit[0] is not entry:
        assert entry.body is not None
        scope = dict(zip(entry.params, entry.arg_sorts))
        hit = env._compiled[id(entry)] = (entry, _compile(entry.body, env, scope)[0])
    return hit[1]


def _map_call(fn: Callable[..., Value], fns: list[Compiled]) -> Compiled:
    """``fn`` called at each row with the argument values."""
    if not fns:
        return lambda c, m: [fn() for _ in m]
    if len(fns) == 1:
        [f0] = fns
        return lambda c, m: list(map(fn, f0(c, m)))
    if len(fns) == 2:
        f0, f1 = fns
        return lambda c, m: list(map(fn, f0(c, m), f1(c, m)))

    def call(c: Columns, m: Models) -> list[Value]:
        args = []
        for f in fns:
            args.append(f(c, m))
        return list(map(fn, *args))

    return call


def _uf_query(name: Symbol, sorts: tuple[ResolvedSort, ...], fns: list[Compiled]) -> Compiled:
    """A query of each row's model at the argument values, asked once per
    distinct model and argument tuple of the batch.  Argument tuples are
    told apart by their raw payloads, which is unambiguous because the
    argument sorts are static; equal payloads are equal values."""
    payloads = [attrgetter("constructor" if isinstance(s, REnum) else "value") for s in sorts]

    def call(c: Columns, m: Models) -> list[Value]:
        args = []
        for f in fns:
            args.append(f(c, m))
        keys = list(zip(m, *[map(p, a) for p, a in zip(payloads, args)]))
        points = zip(*args) if args else [()] * len(m)
        results = {k: k[0].query(name, point) for k, point in dict(zip(keys, points)).items()}
        return list(map(results.__getitem__, keys))

    return call


def _call_by_value(body: Compiled, params: tuple[Symbol, ...], fns: list[Compiled]) -> Compiled:
    """A call by value: the argument columns are the body's variables."""
    pairs = tuple(zip(params, fns))

    def call(c: Columns, m: Models) -> list[Value]:
        args = {}
        for p, f in pairs:
            args[p] = f(c, m)
        return body(args, m)

    return call


def _parallel_let(names: list[Symbol], fns: list[Compiled], body: Compiled) -> Compiled:
    pairs = tuple(zip(names, fns))

    def let(c: Columns, m: Models) -> list[Value]:
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
    evaluation.  A binding (the parameters' values, extended inside a let
    body with the let-bound names' values) keys a memo from ``id(node)`` to
    the node's value.  A node missing from it is computed from its
    children's memoized values by the rules ``eval_term`` applies, so a
    term whose subterms were evaluated before costs one application per new
    binding.  A binding needs no sampled model as part of its key, because
    grammars and macros may not call uninterpreted functions.

    The terms must come from a hash-consed ``TermTable`` that outlives this
    memo, so that no identity is reused.  Values are interned, so each
    distinct value is stored once.
    """

    def __init__(self, task: SynthTask, env: EvalEnv):
        self.term: Optional[Term] = None
        self._env = env
        names = [p for p, _ in task.params] + [n for n, _ in task.lets]
        #: A binding is a tuple of values, one slot per name; a let-bound
        #: name outside its let body holds ``None``.
        self._slots = {n: i for i, n in enumerate(names)}
        self._unbound = (None,) * len(task.lets)
        self._memos: dict[tuple, dict[int, Value]] = {}
        self._interned: dict[Value, Value] = {}

    def __call__(self, *args: Value) -> Value:
        return self._value(self.term, *self._memo(args + self._unbound))

    def at(self, points: list[tuple[Value, ...]]) -> Callable[[Term], tuple[Value, ...]]:
        """The function from a term with no free let-bound name to its
        values at each argument tuple of ``points``."""
        memos = [self._memo(args + self._unbound) for args in points]
        value = self._value
        return lambda t: tuple([value(t, binding, memo) for binding, memo in memos])

    def _memo(self, binding: tuple) -> tuple[tuple, dict[int, Value]]:
        memo = self._memos.get(binding)
        if memo is None:
            memo = self._memos[binding] = {}
        return binding, memo

    def _value(self, t: Term, binding: tuple, memo: dict[int, Value]) -> Value:
        v = memo.get(id(t))
        if v is not None:
            return v
        env = self._env
        if isinstance(t, App):
            # Values are never false, so ``or`` only computes a missing one.
            args = [memo.get(id(a)) or self._value(a, binding, memo) for a in t.args]
            head = t.head
            op = THEORY_OPS.get(head)
            if op is not None and head not in env.funcs and head not in env._cands:
                v = op(*args)
            else:
                v = self._call(head, tuple(args))
        elif isinstance(t, Ref):
            slot = self._slots.get(t.name)
            v = None if slot is None else binding[slot]
            if v is None:
                v = self._call(t.name, ())
        elif isinstance(t, Lit):
            v = _lit_value(t.value, env.enums)
        else:
            assert isinstance(t, Let)
            # Parallel semantics: every value is taken in the outer binding.
            inner = list(binding)
            for b in t.bindings:
                inner[self._slots[b.name]] = self._value(b.value, binding, memo)
            v = self._value(t.body, *self._memo(tuple(inner)))
        v = self._interned.setdefault(v, v)
        memo[id(t)] = v
        return v

    def _call(self, name: Symbol, args: tuple[Value, ...]) -> Value:
        """``_apply``, with a macro's body compiled once per environment."""
        env = self._env
        if name in env.funcs or name in env._cands:
            entry = env.resolve(name, tuple(map(sort_of_value, args)))
            if entry is not None and entry.kind == "macro":
                body = _compiled_body(entry, env)
                return body({p: [a] for p, a in zip(entry.params, args)}, [None])[0]
        return _apply(name, args, env)

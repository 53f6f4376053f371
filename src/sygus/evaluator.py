"""Evaluation of checked terms and sampled models of uninterpreted functions.

Arithmetic is exact: arbitrary-precision integers, ``Fraction`` for reals,
and modular arithmetic for bit-vectors.  Uninterpreted functions are
evaluated against finite sampled models: a model is a pure function of
(declarations, seed), derived at the first query of each point from a keyed
blake2 digest and kept in one memo per declaration (``UFModel.memo``), so
the same tuple always maps to the same value regardless of query order or
process.

A value is a ``Value(sort, value)``: a resolved sort and a payload (see
``Payload``), which is an ``int`` for Int and for a bit-vector, a
``bool``, a ``Fraction`` for Real, or an enum's constructor name.  A
payload means a value only together with a sort known from elsewhere.
Values are what the public edge takes and gives: ``eval_term``,
``Assignment``, ``UFModel.query``, and the solver's counterexamples.
Everything inside computes with payloads: ``compile_term`` resolves every
node's sort once, so a column holds payloads of one sort, and a compiled
term never boxes; a column function bound by ``EvalEnv.bind`` takes and
gives columns of payloads too.  A payload that leaves for the public edge
is boxed with the sort it was computed at.

A term can be evaluated two ways, with one semantics: the row of each
built-in operator in the checker's table (``checker.OPERATORS``) holds its
meaning as a function of payloads, read here with every family loaded,
``EvalEnv.resolve`` decides what an application calls, and both
evaluators are call-by-value, so they make the same uninterpreted-function
queries.  ``resolve`` looks the application's name and argument sorts up
in the checker's table of declared functions (``CheckedProblem.funcs``),
where a synthesis function calls its one binding in the environment: a
candidate body, or a column function of its parameters' columns
(``EvalEnv.bind``), which only compiled terms call.

- ``eval_term`` walks the term at every evaluation and resolves each
  application by the sorts of its argument values; it unboxes the
  arguments of each built-in operator and boxes its result.  It is the
  reference that ``compile_term`` is tested against, and the search does
  not call it.
- ``compile_term`` resolves every application once, from the sorts of the
  checked term, and returns one column function per node: it maps a batch
  of rows to the node's payloads at every row, with one list operation per
  node.  A batch is each variable's column of payloads and its ``Rows``:
  the row count, the runs of rows that share a sampled model, and how many
  times the batch repeats its columns, once per model.  Operators are
  mapped over their argument columns, so ``+`` on Int is ``operator.add``
  mapped over two lists of ints in C; an uninterpreted function builds its
  rows' memo keys in C and maps the memo of its declaration in each run's
  model over the run's keys (``_uf_query``), so only a model's first query
  of a point steps into Python; macro and candidate bodies are compiled
  once per environment, and they and a bound column function are called
  by value, with the argument columns as the parameters' columns.
  Compiling costs more than one walk, but each later batch skips the walk,
  the dispatch and the operator lookup, and pays each node's call once per
  batch rather than once per row.
- The compiler marks each node that depends on the model: one under which
  an uninterpreted function is applied.  On a batch that repeats its
  columns k times, one copy per model, every other node is computed once
  per point, its column repeated only where a node that depends on the
  model reads it, and an uninterpreted function whose arguments do not
  depend on the model builds its keys once for all k models.  The result
  is that of the k models one after another.
- The solver runs every evaluation compiled: ``verify`` on chunks of its
  grid, each under a window of models at once, and on its random rows,
  each a run of one row; the screens on the stored counterexamples; and
  the term tables on the invocation points, where a production compiled
  with its holes as variables gives a new term's column from its
  children's columns (see ``solver.TermTable``).  Only ``verify``'s grid
  repeats its columns.  The compiler keeps its work on an explicit stack,
  so a deep term costs it no interpreter stack; a compiled term then nests
  about one call per level.
"""

from __future__ import annotations

from _blake2 import blake2b  # hashlib.blake2b itself; hashlib loads OpenSSL too
from functools import partial
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .checker import (
    ByWidth,
    CheckedProblem,
    FuncEntry,
    RBitVec,
    REnum,
    RInt,
    RBool,
    ResolvedSort,
    TheorySignature,
    literal_sort,
)
from .syntax import (
    App,
    EnumConst,
    Let,
    Lit,
    NO_POS,
    Record,
    Ref,
    SygusError,
    Symbol,
    Term,
    set_field,
)

if TYPE_CHECKING:
    from fractions import Fraction

# Sampled uninterpreted-function results: integers are drawn uniformly from
# this small window so collisions (and hence counterexamples) show up fast.
UF_INT_LO = -8
UF_INT_HI = 8


class EvalError(SygusError):
    """An error evaluating a term, such as ``E-DIV-ZERO``."""


#: What a compiled term carries for a value: an ``int`` for Int and for a
#: bit-vector, a ``bool`` for Bool, a ``Fraction`` for Real, and the
#: constructor name for an enum.  The sort is known statically, so the
#: payload alone determines the value.
Payload = Union[int, bool, "Fraction", Symbol]


# ---------------------------------------------------------------------------
# Runtime values


class Value(Record):
    """A theory value: its resolved sort and its payload (see ``Payload``)."""

    __slots__ = ("sort", "value")
    sort: ResolvedSort
    value: Payload

    def __init__(self, sort: ResolvedSort, value: Payload) -> None:
        set_field(self, "sort", sort)
        set_field(self, "value", value)


Assignment = dict[Symbol, Value]


# ---------------------------------------------------------------------------
# Uninterpreted-function models


def _decimal(n: int) -> str:
    """The decimal numeral of ``n``.  ``str`` refuses an int past the
    interpreter's digit limit (4,300 by default), which arithmetic on long
    numerals can reach; ``Decimal`` converts it exactly, with no limit,
    and is imported only then."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def _encode(sort: ResolvedSort, p: Payload) -> bytes:
    """The bytes that stand for the value of payload ``p`` of ``sort`` in a
    model's digest."""
    if isinstance(sort, RInt):
        return b"i" + _decimal(p).encode()
    if isinstance(sort, RBool):
        return b"b1" if p else b"b0"
    if isinstance(sort, RBitVec):
        return b"v" + f"{sort.width}:{_decimal(p)}".encode()
    if isinstance(sort, REnum):
        return b"e" + f"{sort.identity}::{p}".encode()
    raise AssertionError(f"unhashable sort {sort}")


def _absorb(h: blake2b, chunks: Iterable[bytes]) -> None:
    """Feed each of ``chunks`` to ``h``, after its length."""
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)


def _bytes(part: Union[int, str, bytes]) -> bytes:
    if isinstance(part, int):
        return str(part).encode()
    if isinstance(part, str):
        return part.encode()
    return part


def _digest(*parts: Union[int, str, bytes]) -> blake2b:
    """The digest state after ``parts`` (see ``stable_u64``)."""
    h = blake2b(digest_size=8)
    _absorb(h, map(_bytes, parts))
    return h


def stable_u64(*parts: Union[int, str, bytes]) -> int:
    """Order- and process-independent 64-bit digest of the parts."""
    return int.from_bytes(_digest(*parts).digest(), "big")


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


class _Memo(dict):
    """The memo of one declaration in one model: argument key -> result
    payload.  A missing key derives its result (``__missing__``) from the
    digest of the seed, the name and the encoded arguments, and records it,
    so a lookup mapped in C over many keys steps into Python only at the
    keys it misses.  The seed and the name are hashed once, at the first
    derivation; each key hashes a copy of that state."""

    __slots__ = ("decl", "seed", "prefix")

    def __init__(self, decl: FuncEntry, seed: int):
        self.decl = decl
        self.seed = seed
        self.prefix: Optional[blake2b] = None

    def __missing__(self, key: Hashable) -> Payload:
        decl = self.decl
        if self.prefix is None:
            self.prefix = _digest(self.seed, decl.name)
        h = self.prefix.copy()
        _absorb(h, map(_encode, decl.arg_sorts, (key,) if len(decl.arg_sorts) == 1 else key))
        result = self[key] = _payload_for_sort(decl.ret, int.from_bytes(h.digest(), "big"))
        return result


class UFModel:
    """Memoized finite model of the declared uninterpreted functions.

    ``decls`` are the functions' entries (``CheckedProblem.uf_decls``), each
    at its declaration ``index``.  Functionally consistent by construction:
    a result is a pure function of the seed, the entry's ``name``,
    ``arg_sorts`` and ``ret``, and the argument tuple, drawn from
    ``stable_u64(seed, name, *encoded arguments)``.  ``memo`` records every
    queried point, keyed by payloads: ``memo[index]`` is the memo of the
    declaration at ``index``, keyed by the argument's payload for a unary
    function and by the tuple of argument payloads otherwise, and an entry
    is the result's payload; indexing a memo at a key it lacks derives the
    entry.  One memo per declaration tells overloads apart, so payloads
    that are equal as Python objects but not as values (``1``, ``True`` and
    a bit-vector ``1``) never share an entry, and a unary lookup builds no
    tuple.  A compiled term maps a memo's ``__getitem__`` over a run of
    rows (see ``_uf_query``); ``query`` is the same lookup of one point with
    values at both ends.
    """

    def __init__(self, decls: tuple[FuncEntry, ...], seed: int):
        self.decls = decls
        self.memo = [_Memo(d, seed) for d in decls]

    def query(self, index: int, args: tuple[Value, ...]) -> Value:
        """The value of the function declared at ``index`` at ``args``."""
        key = args[0].value if len(args) == 1 else tuple([a.value for a in args])
        return Value(self.decls[index].ret, self.memo[index][key])


#: A batch of rows: each variable's payloads, one per row.
Columns = dict[Symbol, Sequence[Payload]]


class Rows:
    """What a batch holds besides its columns: the number of rows, their
    sampled models as runs of rows that share one, ``(model, row count)``
    pairs in row order, and how many times the batch repeats its columns.
    A model is ``None`` where there are no uninterpreted functions.

    With ``repeat`` 1, each column holds a payload per row.  With
    ``repeat`` k > 1, the batch is the columns' ``points`` rows under each
    of k models in turn: ``runs`` is k runs of ``points`` rows, one per
    model, and a column holds one payload per point, the same under every
    model.  A compiled term then computes a part under which no
    uninterpreted function is applied once per point, and only the others
    once per row (see ``compile_term``).  Only a batch of a problem with
    uninterpreted functions repeats: without them there is one model,
    ``None``."""

    __slots__ = ("runs", "repeat", "points")

    def __init__(self, runs: list[tuple[Optional[UFModel], int]], repeat: int = 1):
        self.runs = runs
        self.repeat = repeat
        #: The length of a column: the rows of one model's copy.
        self.points = sum([n for _, n in runs]) // repeat


#: A compiled term: its payload at each row of a batch.
Compiled = Callable[[Columns, Rows], Sequence[Payload]]


# ---------------------------------------------------------------------------
# Evaluation environment


class EvalEnv:
    """What the applications of a checked problem call.

    The function table is the checker's (``CheckedProblem.funcs``), and so
    is the table of sort names that enum literals name
    (``CheckedProblem.sort_defs``).  Each synthesis function has one
    binding: a candidate body, given to the constructor, or a column
    function, which ``bind`` swaps in.  Both are called by value.  A column
    function can answer for any candidate, so one environment, and the
    terms compiled in it, can screen many candidates.
    """

    def __init__(
        self,
        problem: CheckedProblem,
        candidates: Optional[dict[Symbol, Term]] = None,
    ):
        #: The sampled model that ``eval_term`` evaluates uninterpreted
        #: functions in; compiled terms take a model per row instead.
        self.model: Optional[UFModel] = None
        self.funcs = problem.funcs
        self.has_ufs = bool(problem.uf_decls)
        self.sort_defs = problem.sort_defs
        #: What each synthesis function is bound to: a body or a column
        #: function.
        self._bound: dict[Symbol, Union[Term, Compiled]] = dict(candidates or ())
        #: Compiled macro and candidate bodies, by the identities of the
        #: entry and the body, which the value keeps alive, with whether
        #: each depends on the model.
        self._compiled: dict[tuple[int, int], tuple[FuncEntry, Term, Compiled, bool]] = {}

    def bind(self, name: Symbol, fn: Compiled) -> None:
        """Make an application of synthesis function ``name`` call ``fn``
        in place of a candidate body.  ``fn`` is a column function of the
        parameters' columns, as a compiled body is: it takes the argument
        columns, by parameter name, and the batch's ``Rows``, and gives
        the result's payload at each row.  Terms compiled afterwards call
        it once per batch; ``eval_term`` cannot call it."""
        self._bound[name] = fn

    def resolve(
        self, name: Symbol, arg_sorts: tuple[ResolvedSort, ...]
    ) -> Optional[tuple[FuncEntry, Union[Term, Compiled, None]]]:
        """What an application of ``name`` at ``arg_sorts`` calls: the
        function of that signature, with a macro's body, a synthesis
        function's binding, or ``None`` for an uninterpreted function.
        ``None`` means the theory operator, as it does for a synthesis
        function bound to nothing."""
        for e in self.funcs.get(name, ()):
            if e.arg_sorts == arg_sorts:
                if e.kind != "synth":
                    return e, e.body
                bound = self._bound.get(name)
                return None if bound is None else (e, bound)
        return None


# ---------------------------------------------------------------------------
# Term evaluation


def _literal(lit, env: EvalEnv) -> tuple[Payload, ResolvedSort]:
    """The payload and the sort of a literal, the sort the checker gives
    it."""
    payload = lit.constructor if isinstance(lit, EnumConst) else lit.value
    return payload, literal_sort(lit, env.sort_defs, NO_POS)


def eval_term(t: Term, assignment: Assignment, env: EvalEnv) -> Value:
    """Call-by-value evaluation of a checked term."""
    if isinstance(t, Lit):
        payload, sort = _literal(t.value, env)
        return Value(sort, payload)
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
    sorts = tuple([a.sort for a in args])
    hit = env.resolve(name, sorts)
    if hit is None:
        op, ret = _builtin(name, sorts)
        return Value(ret, op(*[a.value for a in args]))
    entry, body = hit
    if entry.kind == "uf":
        assert env.model is not None, "uninterpreted function without a model"
        return env.model.query(entry.index, args)
    return eval_term(body, dict(zip(entry.params, args)), env)


#: Every built-in operator, whatever the logic: evaluation, unlike checking,
#: is not gated on it.
_BUILTINS = TheorySignature()


def _builtin(
    name: Symbol, sorts: tuple[ResolvedSort, ...]
) -> tuple[Callable[..., Payload], ResolvedSort]:
    """The payload function and the result sort of built-in operator
    ``name`` at operand sorts ``sorts``: its row of ``checker.OPERATORS``,
    a ``ByWidth`` given the operands' mask."""
    hit = _BUILTINS.builtin(name, sorts)
    if hit is None or hit[1] is None:
        raise AssertionError(f"no semantics for '{name}' at ({' '.join(map(str, sorts))})")
    ret, op = hit
    if isinstance(op, ByWidth):
        op = partial(op.fn, (1 << sorts[0].width) - 1)
    return op, ret


# ---------------------------------------------------------------------------
# Compilation to column functions

# Steps of the compiler's explicit stack.
_NODE, _APP, _LET_BODY, _LET = range(4)

#: A compiled node: its column function, its sort, and whether it depends on
#: the model, which it does when an uninterpreted function is applied under
#: it.  Under a ``Rows`` with ``repeat`` k, a part that depends on the model
#: gives a payload per row, and any other part one per point.
_Part = tuple[Compiled, ResolvedSort, bool]

#: No let-bound name whose value depends on the model.
_MODEL_FREE: frozenset[Symbol] = frozenset()

# A column function calls its children from its own frame, in a loop rather
# than a comprehension, which would be a frame of its own: a compiled term
# nests one call per level, so it reaches as deep as the checker does.


def columns(names: Sequence[Symbol], points: Sequence[tuple[Payload, ...]]) -> Columns:
    """The columns of a batch of ``points``, each a tuple of the payloads of
    ``names``, transposed in C; with no points, each column is empty."""
    return dict(zip(names, zip(*points) if points else repeat(())))


def compile_term(
    t: Term, env: EvalEnv, variables: Mapping[Symbol, ResolvedSort]
) -> Compiled:
    """``t`` as a function of a batch of rows.

    A row is an assignment to ``variables`` and the sampled model that
    uninterpreted functions are evaluated in at that row.  The function
    takes the batch's columns of payloads (see ``columns``) and its
    ``Rows``: the row count, the runs of rows that share a model, and the
    repeat count, and returns the term's payload at each row.  Every
    node's sort is resolved here, so the payloads of a column share one
    sort, which the caller knows from the term and boxes a payload with.
    On a checked term whose free names are
    ``variables``, with their sorts, the value at a row is what
    ``eval_term`` gives at the row's assignment with ``env.model`` set to
    the row's model, and each model is queried at the points ``eval_term``
    queries it at.  Applications are resolved against the candidates that
    ``env`` holds now; one with no meaning at the sorts of its arguments,
    such as a synthesis function with no candidate, raises the
    ``AssertionError`` that ``eval_term`` raises when it reaches it.

    A node depends on the model only if an uninterpreted function is
    applied under it.  On a batch that repeats its columns k times (one
    copy per model, see ``Rows``), a node that does not is computed once
    per point, and its column is repeated k times (``col * k``) only
    where a node that depends on the model reads it; an uninterpreted
    function whose arguments do not depend on the model builds its memo
    keys once and maps each model's memo over them.  So on k models the
    result is that of k batches of one model each, one after the other,
    and the work that no model touches is done once.  A term that applies
    no uninterpreted function gives its column repeated k times.
    """
    fn, _, dep = _compile(t, env, variables)
    # Without uninterpreted functions no batch repeats: there is one model.
    return fn if dep or not env.has_ufs else _repeated(fn)


def _compile(
    root: Term, env: EvalEnv, variables: Mapping[Symbol, ResolvedSort]
) -> _Part:
    """The part of ``root``.  Nodes are compiled in post-order from an
    explicit stack; ``done`` holds the compiled children waiting for their
    parent.  Each step carries the scope's sorts and the let-bound names in
    it whose values depend on the model."""
    done: list[_Part] = []
    todo: list[tuple] = [(_NODE, root, variables, _MODEL_FREE)]
    while todo:
        step, node, scope, dependent = todo.pop()
        if step == _NODE:
            if isinstance(node, Lit):
                payload, sort = _literal(node.value, env)
                done.append((lambda c, r, p=payload: [p] * r.points, sort, False))
            elif isinstance(node, Ref):
                sort = scope.get(node.name)
                if sort is not None:
                    done.append((lambda c, r, n=node.name: c[n], sort, node.name in dependent))
                else:
                    done.append(_call(node.name, (), env))
            elif isinstance(node, App):
                todo.append((_APP, node, scope, dependent))
                todo.extend((_NODE, a, scope, dependent) for a in reversed(node.args))
            else:
                assert isinstance(node, Let)
                # Parallel semantics: the values are compiled in the outer
                # scope, the body in the scope they extend.
                todo.append((_LET_BODY, node, scope, dependent))
                todo.extend((_NODE, b.value, scope, dependent) for b in reversed(node.bindings))
        elif step == _APP:
            cut = len(done) - len(node.args)
            parts = done[cut:]
            del done[cut:]
            done.append(_call(node.head, parts, env))
        elif step == _LET_BODY:
            cut = len(done) - len(node.bindings)
            parts = done[cut:]
            del done[cut:]
            fns, sorts, deps = zip(*parts)
            names = [b.name for b in node.bindings]
            inner = dict(scope)
            inner.update(zip(names, sorts))
            if dependent or True in deps:
                dependent = dependent.difference(names).union(
                    [n for n, dep in zip(names, deps) if dep]
                )
            todo.append((_LET, (names, fns), None, None))
            todo.append((_NODE, node.body, inner, dependent))
        else:
            names, fns = node
            body, sort, dep = done.pop()
            done.append((_parallel_let(names, fns, body), sort, dep))
    [result] = done
    return result


def _call(head: Symbol, parts: Sequence[_Part], env: EvalEnv) -> _Part:
    """An application of ``head`` to compiled arguments, resolved now by
    the rule ``eval_term`` applies at every call: ``EvalEnv.resolve``.
    Where some arguments depend on the model and some do not, the others
    are repeated, so that each argument column has a payload per row."""
    fns, sorts, deps = zip(*parts) if parts else ((), (), ())
    dep = True in deps
    if dep and False in deps:
        fns = [f if d else _repeated(f) for f, d in zip(fns, deps)]
    hit = env.resolve(head, sorts)
    if hit is None:
        op, ret = _builtin(head, sorts)
        return _map_call(op, fns), ret, dep
    entry, body = hit
    if entry.kind == "uf":
        return _uf_query(entry.index, fns, dep), entry.ret, True
    inner = False
    if isinstance(body, Term):
        body, inner = _compiled_body(entry, body, env)
    return _call_by_value(body, entry.params, fns, dep), entry.ret, dep or inner


def _compiled_body(entry: FuncEntry, body: Term, env: EvalEnv) -> tuple[Compiled, bool]:
    """``body``, that of a macro or a candidate for ``entry``, compiled once
    per environment with parameters that do not depend on the model, and
    whether it depends on the model."""
    key = (id(entry), id(body))
    hit = env._compiled.get(key)
    if hit is None:
        scope = dict(zip(entry.params, entry.arg_sorts))
        fn, _, dep = _compile(body, env, scope)
        hit = env._compiled[key] = (entry, body, fn, dep)
    return hit[2], hit[3]


def _repeated(f: Compiled) -> Compiled:
    """``f``, the function of a part that does not depend on the model,
    read where a part that does reads it: its column once per model of a
    batch that repeats its columns."""

    def call(c: Columns, r: Rows) -> Sequence[Payload]:
        col = f(c, r)
        return col if r.repeat == 1 else col * r.repeat

    return call


def _map_call(fn: Callable[..., Payload], fns: Sequence[Compiled]) -> Compiled:
    """``fn`` called at each row with the argument payloads."""
    if len(fns) == 1:
        [f0] = fns
        return lambda c, r: list(map(fn, f0(c, r)))
    if len(fns) == 2:
        f0, f1 = fns
        return lambda c, r: list(map(fn, f0(c, r), f1(c, r)))

    def call(c: Columns, r: Rows) -> list[Payload]:
        args = []
        for f in fns:
            args.append(f(c, r))
        return list(map(fn, *args))

    return call


def _uf_query(index: int, fns: Sequence[Compiled], dep: bool) -> Compiled:
    """A query of each row's model at the argument payloads, for the
    declaration at ``index`` (see ``UFModel``), which was resolved when the
    term was compiled.  A unary function's memo key is its argument's
    payload, a wider one's the argument columns zipped.  Where an argument
    depends on the model (``dep``), the rows' keys stream in C and each run
    of rows that share a model maps its memo's ``__getitem__`` over the
    run's keys.  Where none does, the keys are the same under every model
    of a batch that repeats its columns, so they are built once and each
    model's memo is mapped over all of them.  Only a miss steps into
    Python, to derive the result from the digest of the same bytes that
    ``UFModel.query`` hashes."""

    def call(c: Columns, r: Rows) -> list[Payload]:
        args = []
        for f in fns:
            args.append(f(c, r))
        if len(args) == 1:
            keys = args[0]
        elif args:
            keys = zip(*args)
        else:
            keys = repeat((), r.points)
        out: list[Payload] = []
        if r.repeat == 1 or dep:
            keys = iter(keys)
            for model, n in r.runs:
                out += map(model.memo[index].__getitem__, islice(keys, n))
        else:
            if len(args) != 1:
                keys = list(keys)
            for model, _ in r.runs:
                out += map(model.memo[index].__getitem__, keys)
        return out

    return call


def _call_by_value(
    body: Compiled, params: tuple[Symbol, ...], fns: Sequence[Compiled], dep: bool
) -> Compiled:
    """A call by value of ``body``, a compiled body or a bound column
    function: the argument columns are its parameters' columns.  It takes
    parameters that do not depend on the model, so where an argument does
    (``dep``), it takes the batch's rows one model after another, not as
    repeats, each argument column a payload per row."""
    pairs = tuple(zip(params, fns))

    def call(c: Columns, r: Rows) -> Sequence[Payload]:
        args = {}
        for p, f in pairs:
            args[p] = f(c, r)
        if dep and r.repeat > 1:
            r = Rows(r.runs)
        return body(args, r)

    return call


def _parallel_let(names: list[Symbol], fns: list[Compiled], body: Compiled) -> Compiled:
    pairs = tuple(zip(names, fns))

    def let(c: Columns, r: Rows) -> Sequence[Payload]:
        # Every value is taken in the outer columns before any is bound.
        values = []
        for n, f in pairs:
            values.append((n, f(c, r)))
        inner = dict(c)
        inner.update(values)
        return body(inner, r)

    return let

"""Baseline enumerative synthesizer.

Grammar shorthands are expanded into concrete alternatives, candidate terms
are enumerated per synthesis function in term-size order, and candidate
tuples are screened against accumulated counterexamples before full
verification (CEGIS-lite).

Enumeration keeps one term per class of observationally equivalent terms,
the pruning of the classic enumerative SyGuS solvers (Alur et al.,
"Syntax-Guided Synthesis", FMCAD 2013; Udupa et al., TRANSIT, PLDI 2013):

- **Class key.**  An *invocation point* of a synthesis function is the
  argument tuple of one of its applications in the constraints, evaluated
  at one stored counterexample (an assignment and a UF seed).  The class
  key of a term with no free let-bound name is its *column*: the tuple of
  its payloads at the function's invocation points (the terms a
  non-terminal lists share its sort), so each non-terminal of a
  ``TermTable`` lists only the first term in canonical order with each
  column.  The table computes a candidate's column from its children's
  with its production compiled once, and builds the term only if the
  column is new.
- **Rebuild on a counterexample.**  The keys hold for one state of the
  store.  Each time ``verify`` returns a new counterexample, ``solve``
  stores it, builds its tables afresh and walks the rounds again from the
  first; every tuple walked before fails at a stored counterexample, so the
  walk goes on from the same tuple as before.
- **Why the output is unchanged.**  Evaluation is strict, so every
  application is evaluated at every counterexample, and a term's screens
  depend on it only through its values at the invocation points.  A term's
  value at a binding is computed from its children's, so replacing a
  subterm by the first term of its class keeps the value and gives a term
  no later in canonical order.  So the first tuple that passes the screens
  in the plain enumeration is made of class representatives, the tables
  list exactly those in the same order, and ``verify`` sees the tuples it
  would see without the pruning.
- **Identity keys.**  The key is the term's own identity, so the table is
  the plain one, for ``enumerate_terms``; for a term with a free let-bound
  name, whose value depends on the let around it; and for a problem where
  an application of a synthesis function sits in the arguments of one,
  directly or through a let of the constraints, where the arguments depend
  on the candidate.

Verification is testing, not proof: candidates are checked on a finite grid
over the universal variables, a batch of sampled models for uninterpreted
functions, and a batch of random assignments.  A ``Valid`` verdict therefore
means "no counterexample found within the configured budget", and it records
that budget; it is a proof only when it is ``exhaustive``.

Inside the solver a value is its payload (see ``evaluator``), and no
compiled term boxes one.  Every evaluation runs on terms compiled into
column functions, which map a batch of rows, columns of payloads with the
runs of rows that share a sampled model (``Rows``), to the payloads at
every row: a constraint's column is a sequence of ``bool``, which
``_first_false`` and the screens read as it is.  ``verify`` compiles the
constraints once per call with the candidate inlined and evaluates chunks
of up to ``CHUNK_CAP`` points of two streams, the grid and the random
samples, whose values are drawn as payloads.  A grid chunk is checked under
a window of up to ``MODEL_WINDOW`` models at once, one run per model: its
points stream from ``itertools.product`` and are transposed to columns in
C once for the window, the parts of a constraint that apply no
uninterpreted function are computed once for the window too, and each
uninterpreted-function application on it is one memo lookup per model
mapped in C over its keys.  A random row has a model of its own and is a
run of one row.  The screens compile
the constraints once per pass, with each synthesis function's
applications bound to its current term (``EvalEnv.set_values``), and
evaluate them on one batch: the store's rows, each a point of payloads and
a UF seed.  An application reads the term's column at the index of its
argument tuple among the invocation points, so a screen evaluates no
enumerated term; where calls nest, it evaluates the term, compiled once
per table term, at its arguments.  ``verify`` does not check the store:
each constraint belongs to one screen, and a tuple reaches ``verify`` only
once its screens hold at every stored row.  Values appear only at the
public edge: a ``Counterexample`` holds an ``Assignment``, boxed from the
failing row, and ``solve`` unboxes it once into a row of the store.

Multi-function search runs in lockstep budget rounds: round ``b`` visits
every candidate tuple whose largest component has size exactly ``b`` (all
components at most ``b``), ordered by total size, then by size vector, then
by per-function enumeration order.  This grows all functions uniformly
instead of racing one function through ever-larger terms.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from itertools import count, islice, product
from typing import Callable, Hashable, Iterator, Mapping, Optional, Sequence, Union

from .checker import (
    CheckedNT,
    CheckedProblem,
    RBitVec,
    RBool,
    REnum,
    RInt,
    ResolvedSort,
    SynthTask,
    unsupported_sort,
)
from .config import SolverConfig
from .evaluator import (
    Assignment,
    Columns,
    Compiled,
    EvalEnv,
    Payload,
    Rows,
    UFModel,
    Value,
    columns,
    compile_term,
    eval_term,  # not called here: the benchmark's tracer counts calls by this name
    stable_u64,
)
from .printer import print_term
from .syntax import (
    App,
    Binding,
    BoolConst,
    BVConst,
    ConstantOf,
    EnumConst,
    GTerm,
    InputVariableOf,
    IntConst,
    Let,
    Lit,
    LocalVariableOf,
    NamedSort,
    RealConst,
    Record,
    Ref,
    SHORTHANDS,
    SygusError,
    Symbol,
    Term,
    VariableOf,
    app_heads,
    free_refs,
    subterms,
    term_size,
)

_MASK64 = (1 << 64) - 1

#: Grid points checked per sampled model; the grid is cut beyond this.
GRID_POINT_CAP = 10_000
#: Most points ``verify`` evaluates in one batch: grid points, each under
#: every live model of a window, or random samples.
CHUNK_CAP = 256
#: Most sampled models ``verify`` checks a grid chunk under in one batch.
MODEL_WINDOW = 8
#: Random Int samples are drawn from [-SAMPLE_RANGE, SAMPLE_RANGE].
SAMPLE_RANGE = 1 << 16
#: Seeded draws added to 0, 1 and all-ones for bit-vectors wider than 4.
BV_SAMPLE_COUNT = 8


class SolveError(SygusError):
    """A checked problem the solver cannot take, such as
    ``E-THEORY-UNSUPPORTED`` or ``E-EMPTY-EXPANSION``."""


# ---------------------------------------------------------------------------
# Shorthand expansion


class ExpandedGrammar(Record):
    """A grammar whose productions hold no shorthands."""

    __slots__ = ("nts", "let_names")
    nts: dict[Symbol, CheckedNT]
    let_names: frozenset[Symbol]


def _bv_values(width: int, seed: int, tag: str) -> list[int]:
    """Every value up to width 4; beyond, 0, 1, all-ones and
    ``BV_SAMPLE_COUNT`` draws seeded by ``tag``."""
    if width <= 4:
        return list(range(1 << width))
    values = [0, 1, (1 << width) - 1]
    rng = random.Random(stable_u64(seed, tag, width))
    for _ in range(BV_SAMPLE_COUNT):
        v = rng.randrange(1 << width)
        if v not in values:
            values.append(v)
    return values


def _constant_alternatives(
    sort: ResolvedSort, surface, cfg: SolverConfig
) -> list[GTerm]:
    if isinstance(sort, RInt):
        return [Lit(IntConst(c)) for c in cfg.constant_pool]
    if isinstance(sort, RBool):
        return [Lit(BoolConst(True)), Lit(BoolConst(False))]
    if isinstance(sort, RBitVec):
        w = sort.width
        return [Lit(BVConst(w, v)) for v in _bv_values(w, cfg.seed, "bv-pool")]
    if isinstance(sort, REnum) and isinstance(surface, NamedSort):
        # Enum constants need a nameable sort; inline enums have none.
        return [Lit(EnumConst(surface.name, c)) for c in sort.constructors]
    return []


def expand_shorthands(
    task: SynthTask, problem: CheckedProblem, cfg: SolverConfig
) -> ExpandedGrammar:
    """Replace the four grammar shorthands of ``task``'s grammar by concrete
    alternatives: constants of the sort, and the task's parameters and the
    grammar's let-bound names of the sort, in declaration and
    first-occurrence order.  A shorthand that is a whole production is
    replaced by its alternatives; one nested in a production, by a reference
    to a non-terminal whose productions they are, named by the shorthand's
    printed form (``(Constant Int)``, which no symbol can spell) and listed
    after the grammar's own."""

    def alternatives(shorthand: GTerm) -> list[GTerm]:
        want = problem.resolve(shorthand.sort)
        if isinstance(shorthand, ConstantOf):
            return _constant_alternatives(want, shorthand.sort, cfg)
        out: list[GTerm] = []
        if isinstance(shorthand, (InputVariableOf, VariableOf)):
            out += [Ref(p) for p, s in task.params if s == want]
        if isinstance(shorthand, (LocalVariableOf, VariableOf)):
            out += [Ref(n) for n, s in task.lets if s == want]
        return out

    nts: dict[Symbol, CheckedNT] = {}
    fresh: dict[Symbol, CheckedNT] = {}
    for nt in task.grammar:
        productions: list[GTerm] = []
        for prod in nt.productions:
            if isinstance(prod, SHORTHANDS):
                productions.extend(alternatives(prod))
            else:
                productions.append(_nested(prod, alternatives, fresh, problem))
        if not productions:
            raise SolveError(
                "E-EMPTY-EXPANSION",
                nt.pos,
                f"every production of non-terminal '{nt.name}' expanded to nothing",
            )
        nts[nt.name] = CheckedNT(nt.name, nt.sort, tuple(productions))
    nts.update(fresh)
    return ExpandedGrammar(nts, frozenset(n for n, _ in task.lets))


def _nested(
    t: GTerm,
    alternatives: Callable[[GTerm], list[GTerm]],
    fresh: dict[Symbol, CheckedNT],
    problem: CheckedProblem,
) -> GTerm:
    """``t`` with each shorthand inside it replaced by a reference to the
    non-terminal of its ``alternatives``, which is added to ``fresh`` on
    the shorthand's first occurrence."""
    if isinstance(t, SHORTHANDS):
        name = print_term(t)
        if name not in fresh:
            productions = alternatives(t)
            if not productions:
                message = f"shorthand '{name}' expanded to nothing"
                raise SolveError("E-EMPTY-EXPANSION", t.pos, message)
            fresh[name] = CheckedNT(name, problem.resolve(t.sort), tuple(productions))
        return Ref(name, t.pos)
    if isinstance(t, App):
        args = tuple([_nested(a, alternatives, fresh, problem) for a in t.args])
        return App(t.head, args, t.pos)
    if isinstance(t, Let):
        bindings = tuple([
            Binding(b.name, b.sort, _nested(b.value, alternatives, fresh, problem))
            for b in t.bindings
        ])
        return Let(bindings, _nested(t.body, alternatives, fresh, problem), t.pos)
    return t


# ---------------------------------------------------------------------------
# Term enumeration


class _Timeout(Exception):
    pass


class _Deadline:
    """Wall-clock limit for one solve; ``None`` seconds means no limit.

    Hot loops call ``tick`` once per unit of work; the clock is read every
    256 ticks, so a loop pays for a counter rather than a clock read.
    """

    def __init__(self, seconds: Optional[float]):
        self.at = None if seconds is None else time.monotonic() + seconds
        self._ticks = 0

    def tick(self) -> None:
        self._ticks += 1
        if self._ticks & 255 == 0:
            self.check()

    def check(self) -> None:
        if self.at is not None and time.monotonic() > self.at:
            raise _Timeout()


class _Prod(Record):
    """A production of a ``TermTable``: its template, the non-terminals of
    its holes in fill order, its size without them, the let-bound names
    bound around each hole, the template's own free let-bound names, and,
    in a table with invocation points, its column as a function of its
    holes' columns (``None`` where the template itself is open)."""

    __slots__ = ("template", "holes", "own_size", "bound", "free", "column")
    template: GTerm
    holes: tuple[Symbol, ...]
    own_size: int
    bound: tuple[frozenset[Symbol], ...]
    free: frozenset[Symbol]
    column: Optional[Callable[[list], Sequence[Payload]]]

    @property
    def is_unit(self) -> bool:
        return self.own_size == 0


def _shape(
    template: GTerm, nt_names: frozenset[Symbol], let_names: frozenset[Symbol]
) -> tuple[tuple[Symbol, ...], tuple[frozenset[Symbol], ...], frozenset[Symbol]]:
    """The holes of ``template`` in fill order, the let-bound names bound
    around each, and the let-bound names free in the template itself."""
    holes: list[Symbol] = []
    bound: list[frozenset[Symbol]] = []
    free: set[Symbol] = set()
    # Nodes in pre-order, each with the names bound around it; children are
    # pushed last first.
    todo: list[tuple[GTerm, frozenset[Symbol]]] = [(template, frozenset())]
    while todo:
        node, scope = todo.pop()
        if isinstance(node, Ref):
            if node.name in nt_names:
                holes.append(node.name)
                bound.append(scope)
            elif node.name in let_names and node.name not in scope:
                free.add(node.name)
        elif isinstance(node, App):
            todo.extend((a, scope) for a in reversed(node.args))
        elif isinstance(node, Let):
            # Parallel bindings: the values are outside the names' scope.
            todo.append((node.body, scope | {b.name for b in node.bindings}))
            todo.extend((b.value, scope) for b in reversed(node.bindings))
    return tuple(holes), tuple(bound), frozenset(free)


def _fill(
    template: GTerm, fills: Iterator[Term], nt_names: frozenset[Symbol], interned: dict
) -> Term:
    """``template`` with its holes replaced by ``fills`` in order, each node
    interned in ``interned`` under its head (or, for a leaf, its value) plus
    the identities of its children; given an empty dict, a term built
    afresh."""
    if isinstance(template, Ref) and template.name in nt_names:
        return next(fills)
    if isinstance(template, App):
        args = tuple([_fill(a, fills, nt_names, interned) for a in template.args])
        key = (template.head, *map(id, args))
        term = interned.get(key)
        if term is None:
            term = interned[key] = App(template.head, args, template.pos)
        return term
    if isinstance(template, Let):
        bindings = tuple([
            Binding(b.name, b.sort, _fill(b.value, fills, nt_names, interned))
            for b in template.bindings
        ])
        body = _fill(template.body, fills, nt_names, interned)
        key = [Let, id(body)]
        for b in bindings:
            key += (b.name, b.sort, id(b.value))
        key = tuple(key)
        term = interned.get(key)
        if term is None:
            term = interned[key] = Let(bindings, body, template.pos)
        return term
    # A leaf is its own key; hashing one does not recurse.
    return interned.setdefault(template, template)


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-tuples of positive integers summing to total, first part ascending."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


class TermTable:
    """Size-indexed memo of grammar derivations, hash-consed, one term per
    class.

    ``exact(nt, s)`` lists derivable terms of size exactly ``s`` in
    canonical order: production index, then leftmost argument varying
    slowest.  Unit productions (a production that is a bare reference to
    another non-terminal) are closed by fixpoint after the structural
    productions of each size level.  A non-terminal lists a term only if it
    lists no earlier term, of any size, with the same *class key*:

    - in a table given invocation ``points``, the *column* of a term with
      no free let-bound name: its payloads at the argument tuples of
      ``points``, a tuple (an empty one when there are no points).  Two
      terms that agree on it are one class: observational equivalence.
      Each production is compiled once with ``compile_term`` in ``env``,
      with the task's ``params`` as variables, whose columns are the
      points', and its holes as variables of their non-terminals' sorts.
      A term whose children are all closed gets its column from one call
      on the children's columns; a closed term over an open child, such as
      a grammar ``let`` whose body uses the bound name, from its own
      compiled function;
    - otherwise the term's identity, so every distinct term is listed once.
      A term with a free let-bound name is open: its value depends on the
      let that binds the name, so it is never merged with another.  A table
      without points, as ``enumerate_terms`` and problems with nested calls
      use, keys every term so.

    A column is computed before its term is built, and the term is built
    only if its non-terminal lists no term of that column, so the table
    holds no node outside its listed terms.  Every node the table builds is
    interned under its head (or, for a leaf, its value) plus the identities
    of its children, so structurally equal terms are one object: ``is``
    decides equality, and a memo may be keyed by ``id(term)`` while the
    table is alive.  Each listed term that has free let-bound names has
    them recorded, computed from its children's.
    """

    def __init__(
        self,
        g: ExpandedGrammar,
        deadline: Optional[_Deadline] = None,
        env: Optional[EvalEnv] = None,
        params: Sequence[tuple[Symbol, ResolvedSort]] = (),
        points: Optional[Sequence[tuple[Payload, ...]]] = None,
    ):
        self.g = g
        self._nt_names = frozenset(g.nts)
        self._deadline = deadline if deadline is not None else _Deadline(None)
        self._interned: dict[object, Term] = {}
        #: The free let-bound names of each listed term that has any, by
        #: identity; equal name sets are one object.
        self._free: dict[int, frozenset[Symbol]] = {}
        self._name_sets: dict[frozenset[Symbol], frozenset[Symbol]] = {}
        #: The class keys of the terms each non-terminal lists.
        self._classes: dict[Symbol, set[Hashable]] = {name: set() for name in g.nts}
        #: The column of each listed closed term, by identity.
        self._columns: dict[int, tuple[Payload, ...]] = {}
        self._env = env
        self._params = dict(params)
        #: Whether closed terms are keyed by their columns: an
        #: observational-equivalence (OE) table.
        self._oe = points is not None
        if self._oe:
            self._batch = columns(list(self._params), points)
            self._rows = Rows([(None, len(points))])
        self.prods: dict[Symbol, list[_Prod]] = {}
        for name in g.nts:
            self.prods[name] = [self._prod(t) for t in g.nts[name].productions]
        self.tables: dict[tuple[Symbol, int], list[Term]] = {}
        self._built = 0
        self._closed: dict[tuple[Symbol, int], list[Term]] = {}

    def _prod(self, template: GTerm) -> _Prod:
        holes, bound, free = _shape(template, self._nt_names, self.g.let_names)
        column = None
        if self._oe and not free:
            # Hole i is the variable "(hole i)", which no symbol spells.
            names = [f"(hole {i})" for i in range(len(holes))]
            variables = dict(self._params)
            variables.update((n, self.g.nts[h].sort) for n, h in zip(names, holes))
            body = _fill(template, map(Ref, names), self._nt_names, {})
            compiled = compile_term(body, self._env, variables)
            batch, rows = self._batch, self._rows

            def column(cols: list[tuple[Payload, ...]]) -> Sequence[Payload]:
                batch.update(zip(names, cols))
                return compiled(batch, rows)

        own_size = term_size(template) - len(holes)
        return _Prod(template, holes, own_size, bound, free, column)

    def exact(self, nt: Symbol, size: int) -> list[Term]:
        while self._built < size:
            self._build_level(self._built + 1)
        return self.tables[(nt, size)]

    def closed(self, nt: Symbol, size: int) -> list[Term]:
        """Like ``exact`` but without terms leaking a free let-bound name."""
        if not self.g.let_names:
            return self.exact(nt, size)
        key = (nt, size)
        if key not in self._closed:
            tick = self._deadline.tick
            kept = []
            for t in self.exact(nt, size):
                tick()
                if id(t) not in self._free:
                    kept.append(t)
            self._closed[key] = kept
        return self._closed[key]

    def column(self, term: Term) -> tuple[Payload, ...]:
        """The column of ``term``, a listed closed term of a table with
        invocation points."""
        return self._columns[id(term)]

    def _offer(self, nt: Symbol, out: list[Term], prod: _Prod, picks: tuple[Term, ...]) -> None:
        """List the term of ``prod`` with ``picks`` in its holes in ``nt``,
        unless ``nt`` lists its class; build it only then."""
        free, over_open = prod.free, False
        if self._free:
            for p, bound in zip(picks, prod.bound):
                names = self._free.get(id(p))
                if names:
                    over_open = True
                    free = free | (names - bound)
        classes = self._classes[nt]
        if free or not self._oe:
            term = _fill(prod.template, iter(picks), self._nt_names, self._interned)
            key: Hashable = id(term)
            if key in classes:
                return
            if free:
                self._free[key] = self._name_sets.setdefault(free, free)
        else:
            if over_open:
                whole = _fill(prod.template, iter(picks), self._nt_names, {})
                column = compile_term(whole, self._env, self._params)(self._batch, self._rows)
            else:
                cols = self._columns
                column = prod.column([cols[id(p)] for p in picks])
            key = tuple(column)
            if key in classes:
                return
            term = _fill(prod.template, iter(picks), self._nt_names, self._interned)
            self._columns[id(term)] = key
        classes.add(key)
        out.append(term)

    def _build_level(self, size: int) -> None:
        tick = self._deadline.tick
        for name in self.g.nts:
            out = self.tables[(name, size)] = []
            for prod in self.prods[name]:
                k = len(prod.holes)
                if prod.is_unit or size < prod.own_size + k:
                    continue
                for comp in _compositions(size - prod.own_size, k):
                    pools = [self.tables[(h, c)] for h, c in zip(prod.holes, comp)]
                    for picks in product(*pools):
                        tick()
                        self._offer(name, out, prod, picks)
        # Close unit productions at this level until stable: a listed term
        # keeps its class key in every non-terminal.
        changed = True
        while changed:
            changed = False
            for name in self.g.nts:
                out = self.tables[(name, size)]
                classes = self._classes[name]
                for prod in self.prods[name]:
                    if not prod.is_unit:
                        continue
                    for t in list(self.tables[(prod.holes[0], size)]):
                        tick()
                        key = self._columns.get(id(t), id(t))
                        if key not in classes:
                            classes.add(key)
                            out.append(t)
                            changed = True
        self._built = size


def enumerate_terms(g: ExpandedGrammar, from_nt: Symbol, max_size: int) -> Iterator[Term]:
    """All derivations of ``from_nt`` up to ``max_size``, smallest first,
    each exactly once, never with a free let-bound name."""
    table = TermTable(g)
    for size in range(1, max_size + 1):
        yield from table.closed(from_nt, size)


# ---------------------------------------------------------------------------
# Verification


class Valid(Record):
    """No counterexample was found; the fields say where none was looked
    for."""

    __slots__ = ("grid_points", "grid_size", "uf_models", "random_samples", "exhaustive")
    #: Grid points checked under each model, and the points of the whole
    #: grid; ``GRID_POINT_CAP`` cuts the first.
    grid_points: int
    grid_size: int
    #: Sampled models of the uninterpreted functions; 0 when there are none.
    uf_models: int
    #: Random points checked; 0 when the grid is exhaustive.
    random_samples: int
    #: Every universal sort is finite and its whole domain was checked, and
    #: there are no uninterpreted functions: the verdict is a proof.
    exhaustive: bool

    @property
    def truncated(self) -> bool:
        return self.grid_points < self.grid_size


class Counterexample(Record):
    __slots__ = ("assignment", "uf_seed")
    assignment: Assignment
    uf_seed: int


VerificationResult = Union[Valid, Counterexample]

#: A point: the payloads of the universal variables, in declaration order.
_Point = tuple[Payload, ...]
#: A stored counterexample: its point and its UF seed.
_Row = tuple[_Point, int]


class Solved(Record):
    """A tuple of bodies that passed verification, by synthesis function
    name (empty when the problem has no synthesis functions), and the
    verdict that passed them."""

    __slots__ = ("terms", "evidence")
    terms: dict[Symbol, Term]
    evidence: Valid


class Fail(Record):
    __slots__ = ("reason",)
    reason: str  # "exhausted" or "timeout"


def _theory_gate(problem: CheckedProblem) -> None:
    """Raise ``E-THEORY-UNSUPPORTED`` unless the solver can sample and
    evaluate every sort and literal of ``problem``."""
    gate = "E-THEORY-UNSUPPORTED"
    if problem.sig.logic in ("Reals", "Arrays"):
        raise SolveError(
            gate, problem.logic_pos, f"solving over the {problem.sig.logic} theory is not supported"
        )
    for name, sort in problem.universal_vars.items():
        if unsupported_sort(sort):
            message = f"universal variable '{name}' has unsupported sort {sort}"
            raise SolveError(gate, problem.var_pos[name], message)
    # The declared functions in source order; ``funcs`` groups overloads by
    # name.
    entries = sorted(
        (e for es in problem.funcs.values() for e in es), key=lambda e: (e.pos.line, e.pos.col)
    )
    for kind, what in (("uf", "uninterpreted function"), ("synth", "synthesis function")):
        for e in entries:
            if e.kind == kind and any(map(unsupported_sort, e.arg_sorts + (e.ret,))):
                raise SolveError(gate, e.pos, f"{what} '{e.name}' has an unsupported sort")
    for term in problem.constraints + tuple(e.body for e in entries if e.kind == "macro"):
        for n in subterms(term):
            if isinstance(n, Lit) and isinstance(n.value, RealConst):
                raise SolveError(gate, n.pos, "real-valued terms cannot be verified by this solver")


def _grid(sorts: list[ResolvedSort], cfg: SolverConfig) -> list[tuple[int, list[Payload]]]:
    """``_grid_values`` of each of ``sorts``, the universal variables' sorts
    in order, except that each bit-vector sort gets the room the cap
    leaves: the largest count of values, equal for all of them (or a whole
    domain, if that is smaller), that keeps the grid at most
    ``GRID_POINT_CAP`` points, and never fewer than its sampled values.
    Where even the sampled values pass the cap, each bit-vector sort keeps
    just those, and the cap cuts the grid.  A whole domain is listed in
    order; a part of one lists the sampled values first, then the smallest
    values not yet listed."""
    grid = [_grid_values(s, cfg) for s in sorts]
    # A domain of 2 ** 14 values is past the cap on its own, so no wider
    # one is counted.
    cut = GRID_POINT_CAP.bit_length()

    def bv_size(n: int, s: RBitVec, sampled: int) -> int:
        return max(min(n, 1 << min(s.width, cut)), sampled)

    bvs = [(s, size) for s, (size, _) in zip(sorts, grid) if isinstance(s, RBitVec)]
    rest = math.prod(size for s, (size, _) in zip(sorts, grid) if not isinstance(s, RBitVec))
    room = bisect_right(
        range(1, GRID_POINT_CAP + 1), GRID_POINT_CAP,
        key=lambda n: rest * math.prod(bv_size(n, s, size) for s, size in bvs),
    )
    return [
        _bv_grid(s.width, bv_size(room, s, size), values)
        if isinstance(s, RBitVec) else (size, values)
        for s, (size, values) in zip(sorts, grid)
    ]


def _bv_grid(width: int, size: int, sampled: list[int]) -> tuple[int, list[int]]:
    """``size`` grid values of a bit-vector sort whose sampled values are
    ``sampled``."""
    if size == 1 << width:
        return size, list(range(size))
    listed = set(sampled)
    more = islice((v for v in count() if v not in listed), size - len(sampled))
    return size, sampled + list(more)


def _grid_values(sort: ResolvedSort, cfg: SolverConfig) -> tuple[int, list[Payload]]:
    """How many grid values ``sort`` has, and the payloads of the first
    ``GRID_POINT_CAP`` of them: no later one is in the first
    ``GRID_POINT_CAP`` grid points."""
    if isinstance(sort, RInt):
        # ``len`` of the range would overflow past sys.maxsize values.
        ints = range(-cfg.grid_radius, cfg.grid_radius + 1)
        return 2 * cfg.grid_radius + 1, list(ints[:GRID_POINT_CAP])
    if isinstance(sort, RBool):
        values = [False, True]
    elif isinstance(sort, RBitVec):
        values = _bv_values(sort.width, cfg.seed, "bv-grid")
    else:
        assert isinstance(sort, REnum)
        values = list(sort.constructors)
    return len(values), values[:GRID_POINT_CAP]


def _random_value(sort: ResolvedSort, rng: random.Random) -> Payload:
    """The payload of a random value of ``sort``."""
    if isinstance(sort, RInt):
        return rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE)
    if isinstance(sort, RBool):
        return bool(rng.getrandbits(1))
    if isinstance(sort, RBitVec):
        return rng.randrange(1 << sort.width)
    assert isinstance(sort, REnum)
    return rng.choice(sort.constructors)


def _whole_domain(sort: ResolvedSort, size: int) -> bool:
    """Whether the ``size`` grid values of ``sort`` are all of its values."""
    if isinstance(sort, RBitVec):
        return size == 1 << sort.width
    return isinstance(sort, (RBool, REnum))


def _first_false(
    checks: list[Compiled], names: list[Symbol], points: Sequence[_Point], rows: Rows
) -> Optional[int]:
    """The index of the first row of the batch of ``points`` and ``rows``
    at which some check is false."""
    batch = columns(names, points)
    first = None
    for check in checks:
        flags = check(batch, rows)
        if not all(flags):
            at = flags.index(False)
            first = at if first is None else min(first, at)
    return first


def verify(
    candidate: Mapping[Symbol, Term],
    problem: CheckedProblem,
    cfg: SolverConfig,
    _deadline: Optional[_Deadline] = None,
) -> VerificationResult:
    """Check a candidate, given as a body per synthesis function name,
    against the grid and random samples.

    The result is the first row, in a fixed order, at which a constraint
    is false.  The order is the grid model-major (every point of the capped
    grid under the first sampled model, then under the next), then the
    random samples, each with its own model.

    The grid is evaluated in another order: point-major over windows of up
    to ``MODEL_WINDOW`` consecutive models.  Each chunk of points is checked
    under every live model of the window in one batch, whose ``Rows``
    repeat the chunk's columns once per model.  So the work that no model
    touches is done once per chunk, not once per model: the points and
    their columns, each part of a constraint under which no uninterpreted
    function is applied (the candidate's, often), and the memo keys of an
    application whose arguments are such parts (see ``compile_term``).
    The first failing row of a chunk, in model-major order, is the first
    failing point of its model, whose earlier chunks passed.  The models
    after that one are dropped, since each of their rows comes after it in
    the result's order, and the models before it go on to the end of the
    grid.  So a window's result is the failure of its first model that
    fails; a window with none passes on to the next.  A window's models are
    made when the stream reaches it, so at most ``MODEL_WINDOW`` are live.

    Each of the two streams is evaluated in chunks of one point more than
    the stream has checked so far, up to ``CHUNK_CAP`` points, so their
    sizes double from 1.  A grid chunk also ends at the capped grid's last
    point; a point counts once per window, whatever the number of models
    it is checked under, and the next window's chunks start at the size
    reached.  A random sample has a model of its own, so it is a run of one
    row, and a counterexample at the k-th sample costs fewer than
    ``min(2k, k + CHUNK_CAP)`` rows.  Only one chunk is live at a time: the
    grid is never built whole.  On a grid chunk each node of a constraint
    costs a few list operations in C and no Python step per row, except a
    model's first query of a point, which derives its result.  The
    deadline is checked once per chunk.

    The cost of a window of ``w`` models whose result is the p-th point of
    its i-th model: the whole capped grid under each of the ``i - 1``
    models before that one, as in model-major order, and fewer than
    ``min(2p, p + CHUNK_CAP)`` points under each of the other ``w - i + 1``
    (fewer than ``p + CHUNK_CAP`` after the first window).  Model-major
    order checks about p points under the i-th model alone, so a window
    checks up to ``w - i`` times as many rows more, and does its shared
    work once.  A window that passes checks the capped grid under each of
    its models.

    The rows that a chunk evaluates past the result, those after the
    failing point and those of the models after the failing one, cannot be
    observed: evaluation is pure (the models and the sample generator
    belong to this call) and total (``_theory_gate`` admits no real
    division, and a model encodes every value it is queried at), so those
    rows change no result and raise nothing.

    The counterexamples of earlier calls are not checked again: ``solve``
    passes a tuple on only once its screens hold at every one of them.  No
    random sample is drawn after an exhaustive grid: it could only repeat a
    grid point.
    """
    _theory_gate(problem)
    deadline = _deadline if _deadline is not None else _Deadline(None)
    env = EvalEnv(problem, candidate)
    variables = problem.universal_vars
    names = list(variables)
    checks = [compile_term(c, env, variables) for c in problem.constraints]
    has_ufs = bool(problem.uf_decls)

    def model_for(seed: int) -> Optional[UFModel]:
        return UFModel(problem.uf_decls, seed) if has_ufs else None

    grid = _grid(list(variables.values()), cfg)
    grid_size = math.prod(size for size, _ in grid)
    exhaustive = not has_ufs and grid_size <= GRID_POINT_CAP and all(
        _whole_domain(s, size) for s, (size, _) in zip(variables.values(), grid)
    )
    sample_count = 0 if exhaustive else cfg.random_samples
    if has_ufs:
        model_seeds = ((cfg.seed + m) & _MASK64 for m in range(cfg.uf_model_count))
    else:
        model_seeds = iter([cfg.seed])

    def grid_failure() -> Optional[_Row]:
        """The first failing row of the capped grid, in model-major order,
        checked point-major over each window of models in turn."""
        done = 0
        while window := list(islice(model_seeds, MODEL_WINDOW)):
            live = [(seed, model_for(seed)) for seed in window]
            found = None
            points = islice(product(*[values for _, values in grid]), GRID_POINT_CAP)
            while chunk := list(islice(points, min(done + 1, CHUNK_CAP))):
                done += len(chunk)
                rows = Rows([(model, len(chunk)) for _, model in live], len(live))
                at = _first_false(checks, names, chunk, rows)
                if at is not None:
                    first, point = divmod(at, len(chunk))
                    found = chunk[point], live[first][0]
                    if first == 0:
                        return found
                    del live[first:]
                deadline.check()
            if found is not None:
                return found
        return None

    def sample_failure() -> Optional[_Row]:
        """The first failing random sample; each has a model of its own."""
        rng = random.Random(stable_u64(cfg.seed, "samples"))

        def sample() -> _Row:
            point = tuple([_random_value(s, rng) for s in variables.values()])
            return point, rng.getrandbits(64) if has_ufs else cfg.seed

        samples = (sample() for _ in range(sample_count))
        done = 0
        while chunk := list(islice(samples, min(done + 1, CHUNK_CAP))):
            done += len(chunk)
            points, seeds = zip(*chunk)
            at = _first_false(checks, names, points, Rows([(model_for(s), 1) for s in seeds]))
            if at is not None:
                return chunk[at]
            deadline.check()
        return None

    found = grid_failure() or sample_failure()
    if found is not None:
        point, seed = found
        return Counterexample(
            {n: Value(s, p) for (n, s), p in zip(variables.items(), point)}, seed
        )

    return Valid(
        grid_points=min(grid_size, GRID_POINT_CAP),
        grid_size=grid_size,
        uf_models=cfg.uf_model_count if has_ufs else 0,
        random_samples=sample_count,
        exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
# Search


def _mentioned_tasks(term: Term, task_names: frozenset[Symbol]) -> frozenset[Symbol]:
    return (app_heads(term) | free_refs(term)) & task_names


def _nested_calls(constraints: tuple[Term, ...], task_names: frozenset[Symbol]) -> bool:
    """Whether an application of a synthesis function sits in the arguments
    of one, directly or through a let of the constraints that binds its
    value.  A ``Ref`` to a task's name is a 0-ary application unless a let
    binds the name."""
    nested: list[App] = []
    for c in constraints:
        _calls(c, task_names, task_names, nested)
    return bool(nested)


def _calls(
    t: Term, tainted: frozenset[Symbol], task_names: frozenset[Symbol], nested: list[App]
) -> bool:
    """Whether ``t``'s value depends on a synthesis function; a name in
    ``tainted`` stands for such a value.  Each application of one in ``t``
    whose arguments depend on one is added to ``nested``."""
    if isinstance(t, Ref):
        return t.name in tainted
    # Loops rather than comprehensions, which would spend a frame of their
    # own per level.
    if isinstance(t, App):
        inner = False
        for a in t.args:
            inner = _calls(a, tainted, task_names, nested) or inner
        if t.head in task_names:
            if inner:
                nested.append(t)
            return True
        return inner
    if isinstance(t, Let):
        carried = []
        for b in t.bindings:
            carried.append(_calls(b.value, tainted, task_names, nested))
        bound = frozenset(b.name for b in t.bindings)
        inner = (tainted - bound) | {b.name for b, c in zip(t.bindings, carried) if c}
        return _calls(t.body, inner, task_names, nested) or any(carried)
    return False


class _InvocationPoints:
    """The argument tuples each synthesis function is applied to when the
    constraints are evaluated at the stored counterexamples.

    Each application is bound to a recorder that keys its argument payloads
    as a tuple and returns the payload of an arbitrary value of the
    function's sort.  Evaluation is strict, so every application is
    evaluated at every counterexample, and when no application sits in the
    arguments of another (see ``_nested_calls``) no argument depends on the
    recorders' results.  A task has one signature, so equal payload tuples
    are equal argument tuples.
    """

    def __init__(self, problem: CheckedProblem, cfg: SolverConfig, model_for):
        env = EvalEnv(problem)
        #: Per task, the argument tuples in first-seen order.
        self._seen: dict[Symbol, dict[tuple[Payload, ...], Payload]] = {}
        for t in problem.synth_tasks:
            seen = self._seen[t.name] = {}
            # Any value of the sort will do.
            anything = _grid_values(t.ret, cfg)[1][0]
            env.set_values(t.name, lambda *args, seen=seen, v=anything: seen.setdefault(args, v))
        variables = problem.universal_vars
        self._names = list(variables)
        self._checks = [compile_term(c, env, variables) for c in problem.constraints]
        self._model_for = model_for
        self._done = 0

    def at(self, store: list[_Row]) -> dict[Symbol, list[tuple[Payload, ...]]]:
        """Each task's invocation points at ``store``, which has grown since
        the last call or not at all."""
        new = store[self._done:]
        if new:
            batch, rows = _batch(self._names, new, self._model_for)
            for check in self._checks:
                check(batch, rows)
        self._done = len(store)
        return {name: list(seen) for name, seen in self._seen.items()}


def _batch(
    names: list[Symbol], rows: list[_Row], model_for: Callable[[int], Optional[UFModel]]
) -> tuple[Columns, Rows]:
    """The columns and ``Rows`` of stored counterexamples, each row a run
    of its own."""
    points = [point for point, _ in rows]
    return columns(names, points), Rows([(model_for(seed), 1) for _, seed in rows])


class _ByColumn:
    """A synthesis function bound to the current term of its table with
    invocation points: an application at an argument tuple reads the
    term's column at the index of that tuple among the points."""

    def __init__(self, table: TermTable, points: list[tuple[Payload, ...]]):
        # The columns, not the table, which refers to the environment that
        # this binding is bound in: no cycle keeps a pass's tables alive.
        self._columns = table._columns
        self._index = {args: i for i, args in enumerate(points)}
        self._column: tuple[Payload, ...] = ()

    def set(self, term: Term) -> None:
        self._column = self._columns[id(term)]

    def __call__(self, *args: Payload) -> Payload:
        return self._column[self._index[args]]


#: One row with no sampled model: grammar terms call no uninterpreted
#: function.
_ONE_ROW = Rows([(None, 1)])


class _ByTerm:
    """A synthesis function bound to the current term of its plain table,
    where calls nest and so its argument tuples depend on the candidate: an
    application evaluates the term at its arguments.  Each term is compiled
    once, over the task's parameters; the terms must be those of a table
    that outlives this binding, so that no identity is reused.  A grammar
    term applies no synthesis function, so the terms are compiled in an
    environment of their own with nothing bound, not in the one this
    binding is bound in, which would then refer back to it."""

    def __init__(self, task: SynthTask, problem: CheckedProblem):
        self._env = EvalEnv(problem)
        self._params = dict(task.params)
        self._compiled: dict[int, Compiled] = {}
        self._term: Optional[Compiled] = None

    def set(self, term: Term) -> None:
        compiled = self._compiled.get(id(term))
        if compiled is None:
            compiled = self._compiled[id(term)] = compile_term(term, self._env, self._params)
        self._term = compiled

    def __call__(self, *args: Payload) -> Payload:
        return self._term(dict(zip(self._params, zip(args))), _ONE_ROW)[0]


def solve(problem: CheckedProblem, cfg: SolverConfig) -> Union[Solved, Fail]:
    """Search candidate tuples in budget rounds; deterministic for a fixed
    problem and configuration.

    The search runs in passes, one per state of the counterexample store,
    which holds each counterexample as a payload row: its point and its UF
    seed.  A pass builds the term tables afresh, keyed by the columns at
    the store's invocation points (tables keyed by identity are built
    once), and walks the rounds from the first.  Each tuple whose screens
    hold at every stored row goes to ``verify``, until ``verify`` either
    passes one or returns a new counterexample, which is unboxed into the
    store.  Every tuple walked before it then fails at a stored
    counterexample, so the next pass reaches the same next tuple that
    walking on would.  Each constraint is evaluated by exactly one screen:
    the solo screen of the one task it mentions, or else the joint one.
    """
    _theory_gate(problem)
    tasks = problem.synth_tasks
    deadline = _Deadline(cfg.timeout_seconds)
    if not tasks:
        try:
            result = verify({}, problem, cfg, _deadline=deadline)
        except _Timeout:
            return Fail("timeout")
        return Solved({}, result) if isinstance(result, Valid) else Fail("exhausted")

    grammars = [expand_shorthands(t, problem, cfg) for t in tasks]
    names = [t.name for t in tasks]
    name_set = frozenset(names)

    solo: dict[Symbol, list[Term]] = {n: [] for n in names}
    joint: list[Term] = []
    for c in problem.constraints:
        mentioned = _mentioned_tasks(c, name_set)
        if len(mentioned) == 1:
            solo[next(iter(mentioned))].append(c)
        else:
            joint.append(c)

    has_ufs = bool(problem.uf_decls)
    models: dict[int, Optional[UFModel]] = {}

    def model_for(seed: int) -> Optional[UFModel]:
        if seed not in models:
            models[seed] = UFModel(problem.uf_decls, seed) if has_ufs else None
        return models[seed]

    variables = problem.universal_vars
    store: list[_Row] = []
    # The tables compile their productions, and the screens the constraints,
    # in one environment; each pass binds the tasks anew.
    env = EvalEnv(problem)
    points = plain = None
    if _nested_calls(problem.constraints, name_set):
        # Identity keys do not depend on the store: one table, and one
        # binding of compiled terms, serves every pass.
        plain = [TermTable(g, deadline) for g in grammars]
        by_term = [_ByTerm(t, problem) for t in tasks]
    else:
        points = _InvocationPoints(problem, cfg, model_for)

    def search() -> Union[Solved, Fail, None]:
        """One pass: a solution, ``Fail("exhausted")`` once every tuple is
        walked, or ``None`` once the store has grown."""
        if plain is not None:
            tables, bound = plain, by_term
        else:
            at = points.at(store)
            tables = [
                TermTable(g, deadline, env, t.params, at[t.name])
                for g, t in zip(grammars, tasks)
            ]
            bound = [_ByColumn(table, at[t.name]) for table, t in zip(tables, tasks)]
        for t, b in zip(tasks, bound):
            env.set_values(t.name, b)
        solo_checks = [[compile_term(c, env, variables) for c in solo[n]] for n in names]
        joint_checks = [compile_term(c, env, variables) for c in joint]
        # Within a pass the store is fixed: one batch of its rows.
        batch, batch_rows = _batch(list(variables), store, model_for)

        def holds(checks: list[Compiled], picks) -> bool:
            """Whether ``checks`` hold at every stored counterexample with
            each task of ``picks`` bound to its term."""
            if not store:
                return True
            for b, term in picks:
                b.set(term)
            return all(all(check(batch, batch_rows)) for check in checks)

        # Each task's terms of a size that pass its own constraints; within
        # a pass the store is fixed, so a term is screened once.
        pools: dict[tuple[int, int], list[Term]] = {}

        def pool(i: int, size: int) -> list[Term]:
            if (i, size) not in pools:
                kept = []
                for term in tables[i].closed("Start", size):
                    deadline.tick()
                    if holds(solo_checks[i], [(bound[i], term)]):
                        kept.append(term)
                pools[(i, size)] = kept
            return pools[(i, size)]

        for budget in range(1, cfg.max_term_size + 1):
            deadline.check()
            vectors = sorted(
                (
                    v
                    for v in product(range(1, budget + 1), repeat=len(tasks))
                    if max(v) == budget
                ),
                key=lambda v: (sum(v), v),
            )
            for vec in vectors:
                row = [pool(i, s) for i, s in enumerate(vec)]
                if not all(row):
                    continue
                for picks in product(*row):
                    deadline.tick()
                    if joint_checks and not holds(joint_checks, zip(bound, picks)):
                        continue
                    terms = dict(zip(names, picks))
                    result = verify(terms, problem, cfg, _deadline=deadline)
                    if isinstance(result, Valid):
                        return Solved(terms, result)
                    cex = result.assignment
                    store.append((tuple([cex[n].value for n in variables]), result.uf_seed))
                    return None
        return Fail("exhausted")

    try:
        while True:
            result = search()
            if result is not None:
                return result
    except _Timeout:
        return Fail("timeout")

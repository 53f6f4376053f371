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
  key of a term with no free let-bound name is the tuple of its values at
  the function's invocation points, as payloads (the terms a non-terminal
  lists share its sort), so each non-terminal of a ``TermTable`` lists
  only the first term in canonical order with each tuple.
- **Rebuild on a counterexample.**  The keys hold for one state of the
  store.  Each time ``verify`` stores a new counterexample, ``solve``
  builds its tables afresh and walks the rounds again from the first; every
  tuple walked before fails at a stored counterexample, so the walk goes on
  from the same tuple as before.
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

Every constraint evaluation runs on the constraints compiled into column
functions (see ``evaluator``), which map a batch of rows, each an
assignment with its own sampled model, to the payloads at every row: a
constraint's column is a list of ``bool``, which ``_first_false`` and the
screens read as it is.  ``verify`` compiles them once per call with the
candidate inlined and evaluates chunks of up to ``CHUNK_CAP`` rows of the
stored counterexamples, the grid and the random samples.  Its rows hold
payloads: the grid is built from the payloads of each sort's grid values,
and only a counterexample is boxed back into an ``Assignment``.  The
tables and screens evaluate each of many enumerated terms at the few
invocation points, so they compile the constraints once per pass, with
each synthesis function's applications bound to its ``TermValues``, and
evaluate them on one batch: the store's rows, unboxed once per pass.  A
term's value at a binding of its parameters comes from its subterms'
memoized values, so a hash-consed term costs one operator application per
new node and point.

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
from dataclasses import dataclass
from itertools import chain, count, islice, product, repeat
from typing import Callable, Hashable, Iterator, Mapping, Optional, Union

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
    TermValues,
    UFModel,
    VBool,
    VBV,
    VEnum,
    VInt,
    Value,
    boxer,
    columns,
    compile_term,
    eval_term,  # not called here: the benchmark's tracer counts calls by this name
    fresh_uf_model,
    stable_u64,
)
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
    Ref,
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
#: Most rows ``verify`` evaluates in one batch.
CHUNK_CAP = 256
#: Random Int samples are drawn from [-SAMPLE_RANGE, SAMPLE_RANGE].
SAMPLE_RANGE = 1 << 16
#: Seeded draws added to 0, 1 and all-ones for bit-vectors wider than 4.
BV_SAMPLE_COUNT = 8


class SolveError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# Shorthand expansion


@dataclass(frozen=True)
class ExpandedGrammar:
    """A grammar whose productions hold no shorthands."""

    nts: dict[Symbol, CheckedNT]
    order: tuple[Symbol, ...]
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
    first-occurrence order."""

    def expand(prod: GTerm) -> list[GTerm]:
        if isinstance(prod, ConstantOf):
            return _constant_alternatives(problem.resolve(prod.sort), prod.sort, cfg)
        if isinstance(prod, InputVariableOf):
            want = problem.resolve(prod.sort)
            return [Ref(p) for p, s in task.params if s == want]
        if isinstance(prod, LocalVariableOf):
            want = problem.resolve(prod.sort)
            return [Ref(n) for n, s in task.lets if s == want]
        if isinstance(prod, VariableOf):
            want = problem.resolve(prod.sort)
            out = [Ref(p) for p, s in task.params if s == want]
            out.extend(Ref(n) for n, s in task.lets if s == want)
            return out
        return [prod]

    nts: dict[Symbol, CheckedNT] = {}
    for nt in task.grammar:
        productions: list[GTerm] = []
        for prod in nt.productions:
            productions.extend(expand(prod))
        if not productions:
            raise SolveError(
                "E-EMPTY-EXPANSION",
                f"every production of non-terminal '{nt.name}' expanded to nothing",
            )
        nts[nt.name] = CheckedNT(nt.name, nt.sort, tuple(productions))
    return ExpandedGrammar(nts, tuple(nts), frozenset(n for n, _ in task.lets))


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


@dataclass(frozen=True)
class _Prod:
    template: GTerm
    holes: tuple[Symbol, ...]
    own_size: int

    @property
    def is_unit(self) -> bool:
        return self.own_size == 0


def _find_holes(template: GTerm, nt_names: frozenset[Symbol]) -> tuple[Symbol, ...]:
    out: list[Symbol] = []

    def walk(node: GTerm) -> None:
        if isinstance(node, Ref):
            if node.name in nt_names:
                out.append(node.name)
        elif isinstance(node, App):
            for a in node.args:
                walk(a)
        elif isinstance(node, Let):
            for b in node.bindings:
                walk(b.value)
            walk(node.body)

    walk(template)
    return tuple(out)


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

    - ``key(term)`` for a term with no free let-bound name, when a ``key``
      function is given.  The solver gives the term's values at the
      invocation points, as payloads (see ``solve``), so two terms that
      agree on them are one class: observational equivalence;
    - otherwise the term's identity, so every distinct term is listed once.
      A term with a free let-bound name is open: its value depends on the
      let that binds the name, so it is never merged with another.

    Every node the table builds is interned under its head (or, for a
    leaf, its value) plus the identities of its children, so structurally
    equal terms are one object: ``is`` decides equality, and a memo may be
    keyed by ``id(term)`` while the table is alive.  Each interned node
    that has free let-bound names has them recorded, computed from its
    children's when it is built.
    """

    def __init__(
        self,
        g: ExpandedGrammar,
        deadline: Optional[_Deadline] = None,
        key: Optional[Callable[[Term], Hashable]] = None,
    ):
        self.g = g
        self._nt_names = frozenset(g.nts)
        self._deadline = deadline if deadline is not None else _Deadline(None)
        self._key = key
        self._interned: dict[object, Term] = {}
        #: The free let-bound names of each interned node that has any, by
        #: identity; equal name sets are one object.
        self._free: dict[int, frozenset[Symbol]] = {}
        self._name_sets: dict[frozenset[Symbol], frozenset[Symbol]] = {}
        #: The class keys of the terms each non-terminal lists.
        self._classes: dict[Symbol, set[Hashable]] = {name: set() for name in g.order}
        self.prods: dict[Symbol, list[_Prod]] = {}
        for name in g.order:
            compiled = []
            for template in g.nts[name].productions:
                holes = _find_holes(template, self._nt_names)
                compiled.append(_Prod(template, holes, term_size(template) - len(holes)))
            self.prods[name] = compiled
        self.tables: dict[tuple[Symbol, int], list[Term]] = {}
        self._built = 0
        self._closed: dict[tuple[Symbol, int], list[Term]] = {}

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

    def _new(self, key: object, term: Term) -> Term:
        """Intern ``term`` under ``key`` and record its free let-bound
        names, which its children's give."""
        self._interned[key] = term
        if isinstance(term, App):
            free = self._free_in(term.args)
        elif isinstance(term, Let):
            # Parallel bindings: the values are outside the names' scope.
            bound = frozenset(b.name for b in term.bindings)
            free = self._free_in([b.value for b in term.bindings])
            free |= self._free_in([term.body]) - bound
        elif isinstance(term, Ref) and term.name in self.g.let_names:
            free = frozenset((term.name,))
        else:
            return term
        if free:
            self._free[id(term)] = self._name_sets.setdefault(free, free)
        return term

    def _free_in(self, terms: list[Term]) -> frozenset[Symbol]:
        free = self._free
        if not free:
            return frozenset()
        return frozenset().union(*[free.get(id(t), ()) for t in terms])

    def _fill(self, template: GTerm, fills: Iterator[Term]) -> Term:
        """Intern ``template`` with its holes replaced by ``fills`` in order."""
        if isinstance(template, Ref) and template.name in self._nt_names:
            return next(fills)
        if isinstance(template, App):
            args = tuple([self._fill(a, fills) for a in template.args])
            key = (template.head, *map(id, args))
            term = self._interned.get(key)
            return term or self._new(key, App(template.head, args, template.pos))
        if isinstance(template, Let):
            bindings = tuple(
                Binding(b.name, b.sort, self._fill(b.value, fills))
                for b in template.bindings
            )
            body = self._fill(template.body, fills)
            key = [Let, id(body)]
            for b in bindings:
                key += (b.name, b.sort, id(b.value))
            key = tuple(key)
            return self._interned.get(key) or self._new(key, Let(bindings, body, template.pos))
        # A leaf is its own key; hashing one does not recurse.
        return self._interned.get(template) or self._new(template, template)

    def _list(self, nt: Symbol, out: list[Term], term: Term) -> bool:
        """Append ``term`` to ``out`` unless ``nt`` lists its class."""
        if self._key is None or id(term) in self._free:
            key: Hashable = id(term)
        else:
            key = self._key(term)
        classes = self._classes[nt]
        if key in classes:
            return False
        classes.add(key)
        out.append(term)
        return True

    def _build_level(self, size: int) -> None:
        tick = self._deadline.tick
        for name in self.g.order:
            out = self.tables[(name, size)] = []
            for prod in self.prods[name]:
                k = len(prod.holes)
                if prod.is_unit or size < prod.own_size + k:
                    continue
                for comp in _compositions(size - prod.own_size, k):
                    pools = [self.tables[(h, c)] for h, c in zip(prod.holes, comp)]
                    for picks in product(*pools):
                        tick()
                        self._list(name, out, self._fill(prod.template, iter(picks)))
        # Close unit productions at this level until stable.
        changed = True
        while changed:
            changed = False
            for name in self.g.order:
                out = self.tables[(name, size)]
                for prod in self.prods[name]:
                    if not prod.is_unit:
                        continue
                    for t in list(self.tables[(prod.holes[0], size)]):
                        tick()
                        changed |= self._list(name, out, t)
        self._built = size


def enumerate_terms(g: ExpandedGrammar, from_nt: Symbol, max_size: int) -> Iterator[Term]:
    """All derivations of ``from_nt`` up to ``max_size``, smallest first,
    each exactly once, never with a free let-bound name."""
    table = TermTable(g)
    for size in range(1, max_size + 1):
        yield from table.closed(from_nt, size)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class Valid:
    """No counterexample was found; the fields say where none was looked
    for."""

    #: Grid points checked under each model, and the points of the whole
    #: grid; ``GRID_POINT_CAP`` cuts the first.
    grid_points: int
    grid_size: int
    #: Sampled models of the uninterpreted functions; 0 when there are none.
    uf_models: int
    random_samples: int
    #: Every universal sort is finite and its whole domain was checked, and
    #: there are no uninterpreted functions: the verdict is a proof.
    exhaustive: bool

    @property
    def truncated(self) -> bool:
        return self.grid_points < self.grid_size


@dataclass(frozen=True)
class Counterexample:
    assignment: Assignment
    uf_seed: int


VerificationResult = Union[Valid, Counterexample]

#: A row ``verify`` checks: the payloads of the universal variables, in
#: declaration order, and a UF seed with its model.
_Row = tuple[tuple[Payload, ...], int, Optional[UFModel]]


@dataclass(frozen=True)
class Solved:
    """A tuple of bodies that passed verification, by synthesis function
    name (empty when the problem has no synthesis functions), and the
    verdict that passed them."""

    terms: dict[Symbol, Term]
    evidence: Valid


@dataclass(frozen=True)
class Fail:
    reason: str  # "exhausted" or "timeout"


def _theory_gate(problem: CheckedProblem) -> None:
    if problem.sig.logic in ("Reals", "Arrays"):
        raise SolveError(
            "E-THEORY-UNSUPPORTED",
            f"solving over the {problem.sig.logic} theory is not supported",
        )
    for name, sort in problem.universal_vars:
        if unsupported_sort(sort):
            raise SolveError(
                "E-THEORY-UNSUPPORTED",
                f"universal variable '{name}' has unsupported sort {sort}",
            )
    for d in problem.uf_decls:
        if any(map(unsupported_sort, d.arg_sorts + (d.ret,))):
            raise SolveError(
                "E-THEORY-UNSUPPORTED",
                f"uninterpreted function '{d.name}' has an unsupported sort",
            )
    for task in problem.synth_tasks:
        sorts = tuple(s for _, s in task.params) + (task.ret,)
        if any(map(unsupported_sort, sorts)):
            raise SolveError(
                "E-THEORY-UNSUPPORTED",
                f"synthesis function '{task.name}' has an unsupported sort",
            )
    bodies = problem.constraints + tuple(m.body for m in problem.macros)
    for term in bodies:
        for node in subterms(term):
            if isinstance(node, Lit) and isinstance(node.value, RealConst):
                raise SolveError(
                    "E-THEORY-UNSUPPORTED",
                    "real-valued terms cannot be verified by this solver",
                )


def _grid(sorts: list[ResolvedSort], cfg: SolverConfig) -> list[tuple[int, list[Value]]]:
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


def _bv_grid(width: int, size: int, sampled: list[Value]) -> tuple[int, list[Value]]:
    """``size`` grid values of a bit-vector sort whose sampled values are
    ``sampled``."""
    if size == 1 << width:
        return size, [VBV(width, v) for v in range(size)]
    listed = {v.value for v in sampled}
    more = islice((v for v in count() if v not in listed), size - len(sampled))
    return size, sampled + [VBV(width, v) for v in more]


def _grid_values(sort: ResolvedSort, cfg: SolverConfig) -> tuple[int, list[Value]]:
    """How many grid values ``sort`` has, and the first ``GRID_POINT_CAP`` of
    them: no later one is in the first ``GRID_POINT_CAP`` grid points."""
    if isinstance(sort, RInt):
        ints = range(-cfg.grid_radius, cfg.grid_radius + 1)
        return len(ints), [VInt(i) for i in ints[:GRID_POINT_CAP]]
    if isinstance(sort, RBool):
        values = [VBool(False), VBool(True)]
    elif isinstance(sort, RBitVec):
        w = sort.width
        values = [VBV(w, v) for v in _bv_values(w, cfg.seed, "bv-grid")]
    else:
        assert isinstance(sort, REnum)
        values = [VEnum(sort.identity, c) for c in sort.constructors]
    return len(values), values[:GRID_POINT_CAP]


def _random_value(sort: ResolvedSort, rng: random.Random) -> Value:
    if isinstance(sort, RInt):
        return VInt(rng.randint(-SAMPLE_RANGE, SAMPLE_RANGE))
    if isinstance(sort, RBool):
        return VBool(bool(rng.getrandbits(1)))
    if isinstance(sort, RBitVec):
        return VBV(sort.width, rng.randrange(1 << sort.width))
    assert isinstance(sort, REnum)
    return VEnum(sort.identity, rng.choice(sort.constructors))


def _whole_domain(sort: ResolvedSort, size: int) -> bool:
    """Whether the ``size`` grid values of ``sort`` are all of its values."""
    if isinstance(sort, RBitVec):
        return size == 1 << sort.width
    return isinstance(sort, (RBool, REnum))


def _first_false(checks: list[Compiled], names: list[Symbol], rows: list[_Row]) -> Optional[int]:
    """The index of the first of ``rows`` at which some check is false."""
    batch = columns(names, [point for point, _, _ in rows])
    models = [model for _, _, model in rows]
    first = None
    for check in checks:
        flags = check(batch, models)
        if not all(flags):
            at = flags.index(False)
            first = at if first is None else min(first, at)
    return first


def verify(
    candidate: Mapping[Symbol, Term],
    problem: CheckedProblem,
    cfg: SolverConfig,
    cex_store: Optional[list[tuple[Assignment, int]]] = None,
    _deadline: Optional[_Deadline] = None,
) -> VerificationResult:
    """Check a candidate, given as a body per synthesis function name,
    against stored counterexamples, the grid, and random samples; a novel
    counterexample is appended to ``cex_store``.

    Rows are checked in a fixed order: the stored counterexamples, then
    the grid model-major (every point of the capped grid under the first
    sampled model, then under the next), then the random samples, each
    with its own model.  The result is the first row at which a constraint
    is false.  Each of the three streams is evaluated in chunks whose size
    doubles from 1 up to ``CHUNK_CAP`` rows, and checking stops at the
    first chunk with a false constraint, so a counterexample at the k-th
    row of a stream costs fewer than ``min(2k, k + CHUNK_CAP)`` rows, and
    only one chunk is live at a time.  The deadline is checked once per
    chunk.  The rows of that chunk after the first failing one are
    evaluated too, and this cannot be observed: evaluation is pure (the
    models and the sample generator belong to this call) and total
    (``_theory_gate`` admits no real division, and a model encodes every
    value it is queried at), so those rows change no result and raise
    nothing.
    """
    _theory_gate(problem)
    if cex_store is None:
        cex_store = []
    deadline = _deadline if _deadline is not None else _Deadline(None)
    env = EvalEnv(problem, candidates=dict(candidate))
    variables = dict(problem.universal_vars)
    names = list(variables)
    boxers = [boxer(s) for s in variables.values()]
    checks = [compile_term(c, env, variables) for c in problem.constraints]
    has_ufs = bool(problem.uf_decls)

    def model_for(seed: int) -> Optional[UFModel]:
        return fresh_uf_model(problem.uf_decls, seed) if has_ufs else None

    def first_failure(rows: Iterator[_Row]) -> Optional[_Row]:
        size = 1
        while chunk := list(islice(rows, size)):
            at = _first_false(checks, names, chunk)
            if at is not None:
                return chunk[at]
            deadline.check()
            size = min(2 * size, CHUNK_CAP)
        return None

    def assignment(point: tuple[Payload, ...]) -> Assignment:
        return {n: box(p) for n, box, p in zip(names, boxers, point)}

    stored = (
        (tuple([a[n].value for n in names]), seed, model_for(seed)) for a, seed in cex_store
    )
    found = first_failure(stored)
    if found is not None:
        point, seed, _ = found
        return Counterexample(assignment(point), seed)

    grid = _grid(list(variables.values()), cfg)
    domains = [[v.value for v in values] for _, values in grid]
    if has_ufs:
        model_seeds = ((cfg.seed + m) & _MASK64 for m in range(cfg.uf_model_count))
    else:
        model_seeds = [cfg.seed]
    # Each seed and its model are made when the stream reaches them, and the
    # model is dropped after its last chunk.
    grid_rows = chain.from_iterable(
        zip(islice(product(*domains), GRID_POINT_CAP), repeat(seed), repeat(model_for(seed)))
        for seed in model_seeds
    )

    def sample_rows() -> Iterator[_Row]:
        rng = random.Random(stable_u64(cfg.seed, "samples"))
        for _ in range(cfg.random_samples):
            point = tuple([_random_value(s, rng).value for s in variables.values()])
            seed = rng.getrandbits(64) if has_ufs else cfg.seed
            yield point, seed, model_for(seed)

    found = first_failure(grid_rows) or first_failure(sample_rows())
    if found is not None:
        point, seed, _ = found
        cex = assignment(point)
        cex_store.append((cex, seed))
        return Counterexample(cex, seed)

    grid_size = math.prod(size for size, _ in grid)
    whole = all(
        _whole_domain(s, size) for s, (size, _) in zip(variables.values(), grid)
    )
    return Valid(
        grid_points=min(grid_size, GRID_POINT_CAP),
        grid_size=grid_size,
        uf_models=cfg.uf_model_count if has_ufs else 0,
        random_samples=cfg.random_samples,
        exhaustive=whole and grid_size <= GRID_POINT_CAP and not has_ufs,
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
    nested = False

    def calls(t: Term, tainted: frozenset[Symbol]) -> bool:
        """Whether ``t``'s value depends on a synthesis function; a name in
        ``tainted`` stands for such a value."""
        nonlocal nested
        if isinstance(t, Ref):
            return t.name in tainted
        if isinstance(t, App):
            inner = [calls(a, tainted) for a in t.args]
            if t.head in task_names:
                nested = nested or any(inner)
                return True
            return any(inner)
        if isinstance(t, Let):
            carried = [calls(b.value, tainted) for b in t.bindings]
            bound = frozenset(b.name for b in t.bindings)
            inner = (tainted - bound) | {b.name for b, c in zip(t.bindings, carried) if c}
            return calls(t.body, inner) or any(carried)
        return False

    for c in constraints:
        calls(c, task_names)
    return nested


class _InvocationPoints:
    """The argument tuples each synthesis function is applied to when the
    constraints are evaluated at the stored counterexamples.

    Each application is bound to a recorder that returns an arbitrary value
    of the function's sort.  Evaluation is strict, so every application is
    evaluated at every counterexample, and when no application sits in the
    arguments of another (see ``_nested_calls``) no argument depends on the
    recorders' results.
    """

    def __init__(self, problem: CheckedProblem, cfg: SolverConfig, model_for):
        env = EvalEnv(problem)
        #: Per task, the argument tuples in first-seen order.
        self._seen: dict[Symbol, dict[tuple[Value, ...], Value]] = {}
        for t in problem.synth_tasks:
            seen = self._seen[t.name] = {}
            # Any value of the sort will do.
            anything = _grid_values(t.ret, cfg)[1][0]
            env.set_values(t.name, lambda *args, seen=seen, v=anything: seen.setdefault(args, v))
        variables = dict(problem.universal_vars)
        self._names = list(variables)
        self._checks = [compile_term(c, env, variables) for c in problem.constraints]
        self._model_for = model_for
        self._done = 0

    def at(self, store: list[tuple[Assignment, int]]) -> dict[Symbol, list[tuple[Value, ...]]]:
        """Each task's invocation points at ``store``, which has grown since
        the last call or not at all."""
        new = store[self._done:]
        if new:
            batch, models = _batch(self._names, new, self._model_for)
            for check in self._checks:
                check(batch, models)
        self._done = len(store)
        return {name: list(seen) for name, seen in self._seen.items()}


def _batch(
    names: list[Symbol],
    rows: list[tuple[Assignment, int]],
    model_for: Callable[[int], Optional[UFModel]],
) -> tuple[Columns, list[Optional[UFModel]]]:
    """The columns and models of stored counterexamples."""
    points = [tuple([a[n].value for n in names]) for a, _ in rows]
    return columns(names, points), [model_for(seed) for _, seed in rows]


def solve(problem: CheckedProblem, cfg: SolverConfig) -> Union[Solved, Fail]:
    """Search candidate tuples in budget rounds; deterministic for a fixed
    problem and configuration.

    The search runs in passes, one per state of the counterexample store.
    A pass builds the term tables afresh, keyed by the values at the
    store's invocation points (tables keyed by identity are built once),
    and walks the rounds from the first until ``verify`` either passes a
    tuple or stores a new counterexample.  Every tuple walked before it
    then fails at a stored counterexample, so the next pass reaches the
    same next tuple that walking on would.
    """
    _theory_gate(problem)
    tasks = problem.synth_tasks
    cex_store: list[tuple[Assignment, int]] = []
    deadline = _Deadline(cfg.timeout_seconds)
    if not tasks:
        try:
            result = verify({}, problem, cfg, cex_store, _deadline=deadline)
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
            models[seed] = fresh_uf_model(problem.uf_decls, seed) if has_ufs else None
        return models[seed]

    variables = dict(problem.universal_vars)
    points = plain = None
    if _nested_calls(problem.constraints, name_set):
        # Identity keys do not depend on the store: one table serves every
        # pass.
        plain = [TermTable(g, deadline) for g in grammars]
    else:
        points = _InvocationPoints(problem, cfg, model_for)

    def search() -> Optional[Solved]:
        """One pass: a solution, or ``None`` once the store has grown or
        every tuple is walked."""
        # One environment binds every task to its term values, whose memos
        # the screens share and which die with the pass's tables.
        env = EvalEnv(problem)
        values = [TermValues(t, env) for t in tasks]
        for t, tv in zip(tasks, values):
            env.set_values(t.name, tv)
        if plain is not None:
            tables = plain
        else:
            at = points.at(cex_store)
            tables = [
                TermTable(g, deadline, tv.at(at[t.name]))
                for g, t, tv in zip(grammars, tasks, values)
            ]
        solo_checks = [[compile_term(c, env, variables) for c in solo[n]] for n in names]
        joint_checks = [compile_term(c, env, variables) for c in joint]
        # Within a pass the store is fixed: one batch of its rows.
        batch, batch_models = _batch(list(variables), cex_store, model_for)

        def holds(checks: list[Compiled], picks) -> bool:
            """Whether ``checks`` hold at every stored counterexample with
            each task of ``picks`` bound to its term."""
            if not cex_store:
                return True
            for tv, term in picks:
                tv.term = term
            return all(all(check(batch, batch_models)) for check in checks)

        # Each task's terms of a size that pass its own constraints; within
        # a pass the store is fixed, so a term is screened once.
        pools: dict[tuple[int, int], list[Term]] = {}

        def pool(i: int, size: int) -> list[Term]:
            if (i, size) not in pools:
                kept = []
                for term in tables[i].closed("Start", size):
                    deadline.tick()
                    if holds(solo_checks[i], [(values[i], term)]):
                        kept.append(term)
                pools[(i, size)] = kept
            return pools[(i, size)]

        stored = len(cex_store)
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
                    if joint_checks and not holds(joint_checks, zip(values, picks)):
                        continue
                    terms = dict(zip(names, picks))
                    result = verify(terms, problem, cfg, cex_store, _deadline=deadline)
                    if isinstance(result, Valid):
                        return Solved(terms, result)
                    if len(cex_store) > stored:
                        return None
        return None

    try:
        while True:
            stored = len(cex_store)
            found = search()
            if found is not None:
                return found
            if len(cex_store) == stored:
                return Fail("exhausted")
    except _Timeout:
        return Fail("timeout")

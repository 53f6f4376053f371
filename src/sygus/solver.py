"""Baseline enumerative synthesizer.

Grammar shorthands are expanded into concrete alternatives, candidate terms
are enumerated per synthesis function in term-size order, and candidate
tuples are screened against accumulated counterexamples before full
verification (CEGIS-lite).  The term tables are hash-consed, so equal terms
are one object and the screens memoize per term by identity; terms already
known to fail a stored counterexample are dropped from the inner pools
before the pools' product is walked.

Verification is testing, not proof: candidates are checked on a finite grid
over the universal variables, a batch of sampled models for uninterpreted
functions, and a batch of random assignments.  A ``Valid`` verdict therefore
means "no counterexample found within the configured budget", and it records
that budget; it is a proof only when it is ``exhaustive``.

Both phases run the constraints compiled into closures (see
``evaluator``).  ``verify`` evaluates one candidate at up to
``GRID_POINT_CAP`` points per model, so it compiles them once per call with
the candidate inlined.  The screens evaluate each of many enumerated terms
at the few stored counterexamples, so they compile them once per solve,
with each synthesis function's applications bound to its ``TermValues``: a
term's value at a binding of its parameters comes from its subterms'
memoized values, so a hash-consed term whose subterms were screened before
costs one operator application per binding.

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
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator, Mapping, Optional, Union

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
from .evaluator import (
    Assignment,
    Compiled,
    EvalEnv,
    TermValues,
    UFModel,
    VBool,
    VBV,
    VEnum,
    VInt,
    Value,
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
#: Random Int samples are drawn from [-SAMPLE_RANGE, SAMPLE_RANGE].
SAMPLE_RANGE = 1 << 16
#: Seeded draws added to 0, 1 and all-ones for bit-vectors wider than 4.
BV_SAMPLE_COUNT = 8


class SolveError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass
class SolverConfig:
    """Search and verification budgets.

    ``constant_pool`` supplies the alternatives for integer ``(Constant _)``
    shorthands; bit-vector pools are exhaustive up to width 4 and otherwise
    use 0, 1, all-ones plus ``BV_SAMPLE_COUNT`` seeded draws; enum pools are
    all constructors.  Verification checks the integer grid of radius
    ``grid_radius`` (cut at ``GRID_POINT_CAP`` points) under each of
    ``uf_model_count`` sampled models, then ``random_samples`` random points.
    ``timeout_seconds`` bounds the whole solve; ``None`` means no limit, and
    ``0`` is a limit that has already passed.
    """

    max_term_size: int = 12
    grid_radius: int = 5
    random_samples: int = 256
    uf_model_count: int = 32
    seed: int = 0
    constant_pool: tuple[int, ...] = (0, 1, -1, 2)
    timeout_seconds: Optional[float] = None


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
    """Size-indexed memo of grammar derivations, hash-consed.

    ``exact(nt, s)`` lists every derivable term of size exactly ``s`` once,
    in canonical order: production index, then leftmost argument varying
    slowest.  Unit productions (a production that is a bare reference to
    another non-terminal) are closed by fixpoint after the structural
    productions of each size level.

    Every node the table builds is interned under its head (or, for a
    leaf, its value) plus the identities of its children, so structurally
    equal terms are one object: ``is`` decides equality, and a memo may be
    keyed by ``id(term)`` while the table is alive.
    """

    def __init__(self, g: ExpandedGrammar, deadline: Optional[_Deadline] = None):
        self.g = g
        self._nt_names = frozenset(g.nts)
        self._deadline = deadline if deadline is not None else _Deadline(None)
        self._interned: dict[object, Term] = {}
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
        lets = self.g.let_names
        if not lets:
            return self.exact(nt, size)
        key = (nt, size)
        if key not in self._closed:
            tick = self._deadline.tick
            kept = []
            for t in self.exact(nt, size):
                tick()
                if not (free_refs(t) & lets):
                    kept.append(t)
            self._closed[key] = kept
        return self._closed[key]

    def _app(self, head: Symbol, args: tuple[Term, ...], pos) -> Term:
        key = (head, *map(id, args))
        term = self._interned.get(key)
        if term is None:
            term = self._interned[key] = App(head, args, pos)
        return term

    def _fill(self, template: GTerm, fills: Iterator[Term]) -> Term:
        """Intern ``template`` with its holes replaced by ``fills`` in order."""
        if isinstance(template, Ref) and template.name in self._nt_names:
            return next(fills)
        if isinstance(template, App):
            args = tuple(self._fill(a, fills) for a in template.args)
            return self._app(template.head, args, template.pos)
        if isinstance(template, Let):
            bindings = tuple(
                Binding(b.name, b.sort, self._fill(b.value, fills))
                for b in template.bindings
            )
            body = self._fill(template.body, fills)
            key = [Let, id(body)]
            for b in bindings:
                key += (b.name, b.sort, id(b.value))
            return self._interned.setdefault(tuple(key), Let(bindings, body, template.pos))
        # A leaf is its own key; hashing one does not recurse.
        return self._interned.setdefault(template, template)

    def _build_level(self, size: int) -> None:
        tick = self._deadline.tick
        # Ids of the terms listed per non-terminal at this level.
        listed: dict[Symbol, set[int]] = {name: set() for name in self.g.order}
        for name in self.g.order:
            out = self.tables[(name, size)] = []
            seen = listed[name]
            for prod in self.prods[name]:
                k = len(prod.holes)
                if prod.is_unit or size < prod.own_size + k:
                    continue
                for comp in _compositions(size - prod.own_size, k):
                    pools = [self.tables[(h, c)] for h, c in zip(prod.holes, comp)]
                    for picks in product(*pools):
                        tick()
                        term = self._fill(prod.template, iter(picks))
                        if id(term) not in seen:
                            seen.add(id(term))
                            out.append(term)
        # Close unit productions at this level until stable.
        changed = True
        while changed:
            changed = False
            for name in self.g.order:
                out, seen = self.tables[(name, size)], listed[name]
                for prod in self.prods[name]:
                    if not prod.is_unit:
                        continue
                    for t in list(self.tables[(prod.holes[0], size)]):
                        tick()
                        if id(t) not in seen:
                            seen.add(id(t))
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


def _falsifies(checks: list[Compiled], env: EvalEnv, assignment: Assignment,
               model: Optional[UFModel]) -> bool:
    """Whether some check is false at ``assignment`` under ``model``."""
    env.model = model
    for check in checks:
        if not check(assignment).value:
            return True
    return False


def verify(
    candidate: Mapping[Symbol, Term],
    problem: CheckedProblem,
    cfg: SolverConfig,
    cex_store: Optional[list[tuple[Assignment, int]]] = None,
    _deadline: Optional[_Deadline] = None,
) -> VerificationResult:
    """Check a candidate, given as a body per synthesis function name,
    against stored counterexamples, the grid, and random samples; a novel
    counterexample is appended to ``cex_store``."""
    _theory_gate(problem)
    if cex_store is None:
        cex_store = []
    deadline = _deadline if _deadline is not None else _Deadline(None)
    env = EvalEnv(problem, candidates=dict(candidate))
    variables = dict(problem.universal_vars)
    checks = [compile_term(c, env, variables) for c in problem.constraints]
    has_ufs = bool(problem.uf_decls)

    def model_for(seed: int) -> Optional[UFModel]:
        return fresh_uf_model(problem.uf_decls, seed) if has_ufs else None

    for assignment, uf_seed in cex_store:
        if _falsifies(checks, env, assignment, model_for(uf_seed)):
            return Counterexample(assignment, uf_seed)

    names = [n for n, _ in problem.universal_vars]
    grid = [_grid_values(s, cfg) for _, s in problem.universal_vars]
    domains = [values for _, values in grid]
    if has_ufs:
        model_seeds = ((cfg.seed + m) & _MASK64 for m in range(cfg.uf_model_count))
    else:
        model_seeds = (cfg.seed,)
    for model_seed in model_seeds:
        model = model_for(model_seed)
        for point in islice(product(*domains), GRID_POINT_CAP):
            assignment = dict(zip(names, point))
            if _falsifies(checks, env, assignment, model):
                cex_store.append((assignment, model_seed))
                return Counterexample(assignment, model_seed)
        deadline.check()

    rng = random.Random(stable_u64(cfg.seed, "samples"))
    for _ in range(cfg.random_samples):
        deadline.tick()
        assignment = {
            n: _random_value(s, rng) for n, s in problem.universal_vars
        }
        sample_seed = rng.getrandbits(64) if has_ufs else cfg.seed
        if _falsifies(checks, env, assignment, model_for(sample_seed)):
            cex_store.append((assignment, sample_seed))
            return Counterexample(assignment, sample_seed)

    grid_size = math.prod(size for size, _ in grid)
    whole = all(
        _whole_domain(s, size) for (_, s), (size, _) in zip(problem.universal_vars, grid)
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


class _Screen:
    """Lazy per-term screening against the shared counterexample store.

    For each enumerated term we track how many stored counterexamples its
    single-function constraints survive; a term is revisited only when the
    store has grown since it was last screened.  Terms come from a
    hash-consed ``TermTable``, so the memo is keyed by identity.  The
    constraints are compiled once, with the task's applications bound to
    its ``TermValues``.
    """

    def __init__(
        self,
        checks: list[Compiled],
        env: EvalEnv,
        values: TermValues,
        store: list[tuple[Assignment, int]],
        model_for,
    ):
        self.checks = checks
        self.env = env
        self.values = values
        self.store = store
        self.model_for = model_for
        self.progress: dict[int, int] = {}
        #: How many terms this screen has found dead so far.
        self.deaths = 0

    def known_dead(self, term: Term) -> bool:
        """Whether ``term`` already failed a stored counterexample; a lookup
        that evaluates nothing."""
        return self.progress.get(id(term), 0) < 0

    def alive(self, term: Term) -> bool:
        if not self.checks:
            return True
        done = self.progress.get(id(term), 0)
        if done < 0:
            return False
        if done == len(self.store):
            return True
        self.values.term = term
        while done < len(self.store):
            assignment, uf_seed = self.store[done]
            model = self.model_for(uf_seed)
            if _falsifies(self.checks, self.env, assignment, model):
                self.progress[id(term)] = -1
                self.deaths += 1
                return False
            done += 1
        self.progress[id(term)] = done
        return True


def solve(problem: CheckedProblem, cfg: SolverConfig) -> Union[Solved, Fail]:
    """Search candidate tuples in budget rounds; deterministic for a fixed
    problem and configuration."""
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

    grammars = {t.name: expand_shorthands(t, problem, cfg) for t in tasks}
    tables = {t.name: TermTable(grammars[t.name], deadline) for t in tasks}
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

    # One environment binds every task to its term values, whose memos the
    # screens and the joint check share and which die with the tables.
    env = EvalEnv(problem)
    values = [TermValues(t, env) for t in tasks]
    for t, tv in zip(tasks, values):
        env.set_values(t.name, tv)
    variables = dict(problem.universal_vars)

    def compiled(constraints: list[Term]) -> list[Compiled]:
        return [compile_term(c, env, variables) for c in constraints]

    screens = [
        _Screen(compiled(solo[t.name]), env, tv, cex_store, model_for)
        for t, tv in zip(tasks, values)
    ]
    joint_checks = compiled(joint)

    def joint_ok(picks: tuple[Term, ...]) -> bool:
        if not joint_checks or not cex_store:
            return True
        for tv, term in zip(values, picks):
            tv.term = term
        return not any(
            _falsifies(joint_checks, env, assignment, model_for(uf_seed))
            for assignment, uf_seed in cex_store
        )

    def live(pools: list[list[Term]]) -> list[list[Term]]:
        """The inner pools without the terms already known dead.  Nothing is
        evaluated here: the product's own ``alive`` checks screen the rest,
        in the order and against the store they always did."""
        out = []
        for screen, pool in zip(screens[1:], pools):
            kept = []
            for term in pool:
                deadline.tick()
                if not screen.known_dead(term):
                    kept.append(term)
            out.append(kept)
        return out

    try:
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
                pools = [tables[t.name].closed("Start", s) for t, s in zip(tasks, vec)]
                if not all(pools):
                    continue
                # Dead terms stay dead, so dropping them from the inner pools
                # skips only tuples the product would reject by a lookup.
                # The pools are refiltered once a row has found more of them.
                inner, deaths = None, -1
                for first in pools[0]:
                    deadline.tick()
                    if not screens[0].alive(first):
                        continue
                    if deaths != sum(s.deaths for s in screens[1:]):
                        deaths = sum(s.deaths for s in screens[1:])
                        inner = live(pools[1:])
                    for rest in product(*inner):
                        deadline.tick()
                        picks = (first, *rest)
                        # Screens terms not yet checked against the whole
                        # store, including terms killed by a counterexample
                        # found earlier in this product.
                        if not all(s.alive(t) for s, t in zip(screens, picks)):
                            continue
                        if not joint_ok(picks):
                            continue
                        terms = dict(zip(names, picks))
                        result = verify(
                            terms, problem, cfg, cex_store, _deadline=deadline
                        )
                        if isinstance(result, Valid):
                            return Solved(terms, result)
    except _Timeout:
        return Fail("timeout")
    return Fail("exhausted")

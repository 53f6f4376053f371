"""Reference implementations for the solver's tests.

``oracle_terms`` is a brute-force derivation closure for enumeration tests.
It is deliberately written as a naive fixpoint over sets, independent of
the solver's size-indexed tables: keep substituting already-derived terms
into production templates until nothing new appears under the size bound.

``plain_solve`` is the search without observational-equivalence pruning:
the plain tables of ``enumerate_terms``, every candidate tuple in lockstep
order, screens by the tree-walking ``eval_term``.

``plain_verify`` is ``verify`` one point at a time on ``eval_term``, and
``holds_at`` the screens' test of a candidate at stored counterexamples.

``free_refs``, ``app_heads`` and ``calls`` are the three walks that
``solver._tasks_of`` replaced: which tasks a constraint mentions, and
whether an application of one sits in the arguments of one.

``reference_tokenize`` is a scanner with one ``match`` per blank run,
comment and token, each token class tested in turn; ``sygus.lexer.tokenize``
must agree with it on every text, tokens and errors alike.

``reference_lookup`` and ``reference_knows`` are the signatures of the
built-in operators as an if-chain over name lists per family, the shape
they had before the checker's table of operators (``checker.OPERATORS``);
``TheorySignature`` must agree with them under every logic.
"""

import math
import random
import re
from fractions import Fraction
from itertools import islice, product

from sygus import solver
from sygus.checker import R_BOOL, R_INT, R_REAL, RArray, RBitVec
from sygus.evaluator import EvalEnv, UFModel, Value, eval_term, stable_u64
from sygus.lexer import LexError, TokKind, Token
from sygus.solver import (
    GRID_POINT_CAP,
    Counterexample,
    ExpandedGrammar,
    Fail,
    Solved,
    Valid,
    enumerate_terms,
    expand_shorthands,
)
from sygus.syntax import App, Binding, Let, Lit, Ref, Term, subterms, term_size


def oracle_terms(g: ExpandedGrammar, from_nt: str, max_size: int) -> set[Term]:
    sets: dict[str, set[Term]] = {name: set() for name in g.nts}
    changed = True
    while changed:
        changed = False
        for name in g.nts:
            for template in g.nts[name].productions:
                for t in _instances(template, g, sets, max_size):
                    if t not in sets[name]:
                        sets[name].add(t)
                        changed = True
    return {
        t
        for t in sets[from_nt]
        if not (_free_names(t, frozenset()) & g.let_names)
    }


def _instances(template, g, sets, max_size: int) -> list[Term]:
    if isinstance(template, Ref):
        if template.name in g.nts:
            return [t for t in sets[template.name] if term_size(t) <= max_size]
        return [template]
    if isinstance(template, App):
        child_lists = [_instances(a, g, sets, max_size) for a in template.args]
        out = []
        for combo in product(*child_lists):
            t = App(template.head, tuple(combo), template.pos)
            if term_size(t) <= max_size:
                out.append(t)
        return out
    if isinstance(template, Let):
        value_lists = [_instances(b.value, g, sets, max_size) for b in template.bindings]
        body_list = _instances(template.body, g, sets, max_size)
        out = []
        for combo in product(*value_lists):
            bindings = tuple(
                Binding(b.name, b.sort, v)
                for b, v in zip(template.bindings, combo)
            )
            for body in body_list:
                t = Let(bindings, body, template.pos)
                if term_size(t) <= max_size:
                    out.append(t)
        return out
    assert isinstance(template, Lit)
    return [template]


def _free_names(t: Term, bound: frozenset) -> set[str]:
    if isinstance(t, Ref):
        return set() if t.name in bound else {t.name}
    if isinstance(t, App):
        out: set[str] = set()
        for a in t.args:
            out |= _free_names(a, bound)
        return out
    if isinstance(t, Let):
        out = set()
        for b in t.bindings:
            out |= _free_names(b.value, bound)
        inner = bound | {b.name for b in t.bindings}
        return out | _free_names(t.body, inner)
    return set()


def free_refs(t: Term) -> frozenset:
    """Names referenced by ``Ref`` nodes and not bound by an enclosing let."""
    return frozenset(_free_names(t, frozenset()))


def app_heads(t: Term) -> frozenset:
    """All application heads occurring anywhere in the term."""
    return frozenset(s.head for s in subterms(t) if isinstance(s, App))


def calls(t: Term, tainted: frozenset, task_names: frozenset, nested: list) -> bool:
    """Whether ``t``'s value depends on a synthesis function; a name in
    ``tainted`` stands for such a value.  Each application of one in ``t``
    whose arguments depend on one is added to ``nested``."""
    if isinstance(t, Ref):
        return t.name in tainted
    if isinstance(t, App):
        inner = False
        for a in t.args:
            inner = calls(a, tainted, task_names, nested) or inner
        if t.head in task_names:
            if inner:
                nested.append(t)
            return True
        return inner
    if isinstance(t, Let):
        carried = [calls(b.value, tainted, task_names, nested) for b in t.bindings]
        bound = frozenset(b.name for b in t.bindings)
        inner = (tainted - bound) | {b.name for b, c in zip(t.bindings, carried) if c}
        return calls(t.body, inner, task_names, nested) or any(carried)
    return False


def plain_solve(problem, cfg):
    """A CEGIS loop over the plain tables: each tuple that holds at every
    stored counterexample goes to ``solver.verify``, looked up at each call
    so that a test can record the calls, and each counterexample it returns
    is stored."""
    tasks = problem.synth_tasks
    pools = []
    for task in tasks:
        by_size = {s: [] for s in range(1, cfg.max_term_size + 1)}
        g = expand_shorthands(task, problem, cfg)
        for t in enumerate_terms(g, "Start", cfg.max_term_size):
            by_size[term_size(t)].append(t)
        pools.append(by_size)
    store = []
    for budget in range(1, cfg.max_term_size + 1):
        vectors = [
            v for v in product(range(1, budget + 1), repeat=len(tasks)) if max(v) == budget
        ]
        for vec in sorted(vectors, key=lambda v: (sum(v), v)):
            for picks in product(*[p[s] for p, s in zip(pools, vec)]):
                candidate = {t.name: term for t, term in zip(tasks, picks)}
                if not holds_at(store, candidate, problem):
                    continue
                result = solver.verify(candidate, problem, cfg)
                if isinstance(result, Valid):
                    return Solved(candidate, result)
                store.append((result.assignment, result.uf_seed))
    return Fail("exhausted")


def holds_at(store, candidate, problem) -> bool:
    """Whether every constraint holds at each ``(assignment, uf_seed)`` of
    ``store`` with ``candidate``'s bodies, by ``eval_term``."""
    env = EvalEnv(problem, candidates=candidate)
    for assignment, uf_seed in store:
        env.model = UFModel(problem.uf_decls, uf_seed) if problem.uf_decls else None
        if not all(eval_term(c, assignment, env).value for c in problem.constraints):
            return False
    return True


def plain_verify(candidate, problem, cfg):
    """``solver.verify`` as a loop over single points: the grid
    model-major, then the random samples unless the grid is exhaustive,
    each point evaluated by ``eval_term`` and the first failing one
    reported."""
    env = EvalEnv(problem, candidates=dict(candidate))
    has_ufs = bool(problem.uf_decls)

    def model_for(seed):
        return UFModel(problem.uf_decls, seed) if has_ufs else None

    def falsified(assignment, model):
        env.model = model
        return not all(eval_term(c, assignment, env).value for c in problem.constraints)

    names = list(problem.universal_vars)
    sorts = list(problem.universal_vars.values())
    grid = solver._grid(sorts, cfg)
    domains = [[Value(s, v) for v in values] for s, (_, values) in zip(sorts, grid)]
    seeds = [cfg.seed]
    if has_ufs:
        seeds = [(cfg.seed + m) % 2**64 for m in range(cfg.uf_model_count)]
    for seed in seeds:
        model = model_for(seed)
        for point in islice(product(*domains), GRID_POINT_CAP):
            assignment = dict(zip(names, point))
            if falsified(assignment, model):
                return Counterexample(assignment, seed)
    grid_size = math.prod(size for size, _ in grid)
    whole = all(
        solver._whole_domain(s, size) for s, (size, _) in zip(sorts, grid)
    )
    exhaustive = whole and grid_size <= GRID_POINT_CAP and not has_ufs
    # Random samples after a whole domain can only repeat grid points.
    samples = 0 if exhaustive else cfg.random_samples
    rng = random.Random(stable_u64(cfg.seed, "samples"))
    for _ in range(samples):
        assignment = {
            n: Value(s, solver._random_value(s, rng)) for n, s in problem.universal_vars.items()
        }
        seed = rng.getrandbits(64) if has_ufs else cfg.seed
        if falsified(assignment, model_for(seed)):
            return Counterexample(assignment, seed)
    return Valid(
        grid_points=min(grid_size, GRID_POINT_CAP),
        grid_size=grid_size,
        uf_models=cfg.uf_model_count if has_ufs else 0,
        random_samples=samples,
        exhaustive=exhaustive,
    )


_REF_SYMBOL = r"[A-Za-z_+\-*&|!~<>=/%?.$^][A-Za-z0-9_+\-*&|!~<>=/%?.$^]*"

_REF_TOKEN = re.compile(
    rf"""
      (?P<space>[ \t\r]+|;[^\n]*)
    | (?P<newline>\n[ \t\r\n]*)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<number>-?(?P<whole>[0-9]+)(?:\.(?P<fraction>[0-9]*))?)
    | (?P<bv>\#(?P<base>[bx]?)(?P<digits>[0-9A-Fa-f]*))
    | (?P<quoted>"(?P<chars>[A-Za-z0-9.]*)(?P<close>"?))
    | (?P<symbol>{_REF_SYMBOL})(?P<enum>::(?P<ctor>{_REF_SYMBOL})?)?
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[Token]:
    """Tokenize ``text``, raising ``LexError`` on any malformed input."""
    out: list[Token] = []
    line, line_start, i = 1, 0, 0
    match = _REF_TOKEN.match
    while i < len(text):
        m = match(text, i)
        if m is None:
            raise LexError(line, i - line_start + 1,
                           f"character {text[i]!r} cannot start a token")
        start, i, kind = i, m.end(), m.lastgroup
        if kind == "space":
            continue
        col = start - line_start + 1
        if kind == "newline":
            line += text.count("\n", start, i)
            line_start = text.rindex("\n", start, i) + 1
        elif kind == "lparen":
            out.append(Token(TokKind.LPAREN, None, line, col))
        elif kind == "rparen":
            out.append(Token(TokKind.RPAREN, None, line, col))
        elif kind == "symbol":
            word = m["symbol"]
            if word == "true" or word == "false":
                out.append(Token(TokKind.BOOL, word == "true", line, col))
            else:
                out.append(Token(TokKind.SYMBOL, word, line, col))
        elif kind == "enum":
            if m["ctor"] is None:
                raise LexError(line, col + i - start, "expected constructor name after '::'")
            out.append(Token(TokKind.ENUM, (m["symbol"], m["ctor"]), line, col))
        elif kind == "number":
            whole, fraction = m["whole"], m["fraction"]
            if fraction == "":
                raise LexError(line, col, "expected digits after decimal point")
            digits = whole if fraction is None else whole + fraction
            try:
                value = int(digits)
            except ValueError:
                # Past its limit (4,300 digits by default) the interpreter
                # refuses the conversion, which takes quadratic time.
                raise LexError(line, col, f"numeral of {len(digits)} digits is too long") from None
            if fraction is None:
                tok_kind = TokKind.INT
            else:
                tok_kind, value = TokKind.REAL, Fraction(value, 10 ** len(fraction))
            out.append(Token(tok_kind, -value if text[start] == "-" else value, line, col))
        elif kind == "bv":
            base, digits = m["base"], m["digits"]
            if not base:
                raise LexError(line, col, "expected 'b' or 'x' after '#'")
            if not digits:
                raise LexError(line, col, "expected digits after bit-vector prefix")
            if base == "b" and digits.strip("01"):
                raise LexError(line, col, f"invalid binary digit in '#b{digits}'")
            bits = 1 if base == "b" else 4
            out.append(Token(TokKind.BV, (bits * len(digits), int(digits, 2**bits)), line, col))
        else:  # quoted
            if not m["close"]:
                if i == len(text):
                    raise LexError(line, col, "unterminated quoted literal")
                raise LexError(line, col + i - start,
                               f"character {text[i]!r} not allowed in a quoted literal")
            if not m["chars"]:
                raise LexError(line, col, "quoted literal must not be empty")
            out.append(Token(TokKind.QUOTED, m["chars"], line, col))
    return out


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

#: Every built-in operator name, core ones first.
REFERENCE_OPERATORS = tuple(dict.fromkeys(_CORE_OPS + sum(_FAMILIES.values(), ())))


def _loaded(logic, family: str) -> bool:
    return logic is None or logic == family


def reference_lookup(logic, name, args):
    """The result sort of built-in ``name`` at operand sorts ``args`` under
    ``logic`` (``None``: every family), or ``None``."""
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
    if _loaded(logic, "LIA"):
        if name in _LIA_ARITH and args == (R_INT, R_INT):
            return R_INT
        if name in _COMPARISONS and args == (R_INT, R_INT):
            return R_BOOL
    if _loaded(logic, "Reals"):
        if name in _REAL_ARITH and args == (R_REAL, R_REAL):
            return R_REAL
        if name in _COMPARISONS and args == (R_REAL, R_REAL):
            return R_BOOL
    if _loaded(logic, "BV") and n >= 1 and isinstance(args[0], RBitVec):
        w = args[0]
        if name in _BV_BINOPS and args == (w, w):
            return w
        if name in _BV_UNOPS and n == 1:
            return w
        if name in _BV_PREDS and args == (w, w):
            return R_BOOL
    if _loaded(logic, "Arrays"):
        if name == "select" and n == 2 and isinstance(args[0], RArray):
            if args[1] == args[0].domain:
                return args[0].codomain
        if name == "store" and n == 3 and isinstance(args[0], RArray):
            if args[1] == args[0].domain and args[2] == args[0].codomain:
                return args[0]
    return None


def reference_knows(logic, name) -> bool:
    """Whether ``name`` is a built-in under ``logic`` at any signature."""
    return name in _CORE_OPS or any(
        name in ops and _loaded(logic, family) for family, ops in _FAMILIES.items()
    )

"""Reference implementations for the solver's tests.

``oracle_terms`` is a brute-force derivation closure for enumeration tests.
It is deliberately written as a naive fixpoint over sets, independent of
the solver's size-indexed tables: keep substituting already-derived terms
into production templates until nothing new appears under the size bound.

``plain_solve`` is the search without observational-equivalence pruning:
the plain tables of ``enumerate_terms``, every candidate tuple in lockstep
order, screens by the tree-walking ``eval_term``.

``plain_verify`` is ``verify`` one point at a time on ``eval_term``.

``reference_tokenize`` is a scanner with one ``match`` per blank run,
comment and token, each token class tested in turn; ``sygus.lexer.tokenize``
must agree with it on every text, tokens and errors alike.
"""

import math
import random
import re
from fractions import Fraction
from itertools import islice, product

from sygus import solver
from sygus.evaluator import EvalEnv, eval_term, fresh_uf_model, stable_u64
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
from sygus.syntax import App, Binding, Let, Lit, Ref, Term, term_size


def oracle_terms(g: ExpandedGrammar, from_nt: str, max_size: int) -> set[Term]:
    sets: dict[str, set[Term]] = {name: set() for name in g.nts}
    changed = True
    while changed:
        changed = False
        for name in g.order:
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


def plain_solve(problem, cfg):
    """A CEGIS loop over the plain tables: each tuple that holds at every
    stored counterexample goes to ``solver.verify``, looked up at each call
    so that a test can record the calls."""
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
                if not _holds_at(store, candidate, problem):
                    continue
                result = solver.verify(candidate, problem, cfg, store)
                if isinstance(result, Valid):
                    return Solved(candidate, result)
    return Fail("exhausted")


def _holds_at(store, candidate, problem) -> bool:
    env = EvalEnv(problem, candidates=candidate)
    for assignment, uf_seed in store:
        env.model = fresh_uf_model(problem.uf_decls, uf_seed) if problem.uf_decls else None
        if not all(eval_term(c, assignment, env).value for c in problem.constraints):
            return False
    return True


def plain_verify(candidate, problem, cfg, store):
    """``solver.verify`` as a loop over single points: the stored
    counterexamples, the grid model-major, then the random samples, each
    point evaluated by ``eval_term`` and the first failing one reported."""
    env = EvalEnv(problem, candidates=dict(candidate))
    has_ufs = bool(problem.uf_decls)

    def model_for(seed):
        return fresh_uf_model(problem.uf_decls, seed) if has_ufs else None

    def falsified(assignment, model):
        env.model = model
        return not all(eval_term(c, assignment, env).value for c in problem.constraints)

    for assignment, seed in store:
        if falsified(assignment, model_for(seed)):
            return Counterexample(assignment, seed)
    names = [n for n, _ in problem.universal_vars]
    grid = solver._grid([s for _, s in problem.universal_vars], cfg)
    seeds = [cfg.seed]
    if has_ufs:
        seeds = [(cfg.seed + m) % 2**64 for m in range(cfg.uf_model_count)]
    for seed in seeds:
        model = model_for(seed)
        for point in islice(product(*[values for _, values in grid]), GRID_POINT_CAP):
            assignment = dict(zip(names, point))
            if falsified(assignment, model):
                store.append((assignment, seed))
                return Counterexample(assignment, seed)
    rng = random.Random(stable_u64(cfg.seed, "samples"))
    for _ in range(cfg.random_samples):
        assignment = {n: solver._random_value(s, rng) for n, s in problem.universal_vars}
        seed = rng.getrandbits(64) if has_ufs else cfg.seed
        if falsified(assignment, model_for(seed)):
            store.append((assignment, seed))
            return Counterexample(assignment, seed)
    grid_size = math.prod(size for size, _ in grid)
    whole = all(
        solver._whole_domain(s, size) for (_, s), (size, _) in zip(problem.universal_vars, grid)
    )
    return Valid(
        grid_points=min(grid_size, GRID_POINT_CAP),
        grid_size=grid_size,
        uf_models=cfg.uf_model_count if has_ufs else 0,
        random_samples=cfg.random_samples,
        exhaustive=whole and grid_size <= GRID_POINT_CAP and not has_ufs,
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

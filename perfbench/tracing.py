"""In-process tracing of one pass through ``sygus.cli.run``.

The tracer wraps public functions at the names their callers look them up
(``from .x import y`` binds a copy in the caller's module, so a lexer call
made by the CLI goes through ``sygus.cli.tokenize``).  The program's
sources are not modified; the wrappers are removed when a pass ends.

Spans (name, start, end, parent, invocation) are kept in memory and written
out by the caller.  ``eval_term`` runs millions of times per pass, so it is
counted and timed in aggregate instead of getting a span of its own.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# A span: [name, start, end, parent index or -1, invocation index].
Span = list


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.eval_s = 0.0
        self.table_max_size = 0
        self.invocation = -1
        self._stack: list[int] = []
        self._tables: dict[int, object] = {}

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``after(args, result)`` then
        takes the layer's counts, outside the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_eval(self, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(t, assignment, env):
            t0 = perf_counter()
            try:
                return fn(t, assignment, env)
            finally:
                self.eval_s += perf_counter() - t0
                # verify opens no child spans, so the innermost span tells
                # whether this evaluation is part of a verification.
                if stack and spans[stack[-1]][0] == "solver.verify":
                    counts["solver.verify_evals"] += 1
                else:
                    counts["solver.search_evals"] += 1

        return counted

    # -- counters taken at the layer boundaries ---------------------------

    def _tokens(self, args, tokens) -> None:
        self.counts["lexer.tokens"] += len(tokens)

    def _nodes(self, args, program) -> None:
        self.counts["parser.nodes"] += count_nodes(program)

    def _printed(self, args, text) -> None:
        self.counts["printer.bytes"] += len(text.encode())

    def _table_used(self, args, result) -> None:
        table = args[0]
        self._tables[id(table)] = table

    def _verified(self, args, result) -> None:
        self.counts["solver.verify_calls"] += 1
        if type(result).__name__ == "Valid":
            self.counts["solver.verify_valid"] += 1

    def _solved(self, args, result) -> None:
        for table in self._tables.values():
            self.counts["solver.table_terms"] += sum(len(v) for v in table.tables.values())
            sizes = [size for _, size in table.tables]
            self.table_max_size = max([self.table_max_size] + sizes)
        self._tables.clear()


def count_nodes(program) -> int:
    """Syntax-tree nodes below a program: dataclass instances, positions
    excluded.  Iterative, because terms nest hundreds of levels deep."""
    count = 0
    stack = [program]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node) and type(node).__name__ != "Pos":
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route the CLI's and the solver's layer calls through ``tracer``."""
    from sygus import cli, solver

    patches = [
        (cli, "tokenize", tracer.wrap("lexer", cli.tokenize, tracer._tokens)),
        (cli, "parse_program", tracer.wrap("parser", cli.parse_program, tracer._nodes)),
        (cli, "check_program", tracer.wrap("checker", cli.check_program)),
        (cli, "print_program", tracer.wrap("printer", cli.print_program, tracer._printed)),
        (cli, "print_solution", tracer.wrap("printer", cli.print_solution, tracer._printed)),
        (cli, "print_fail", tracer.wrap("printer", cli.print_fail, tracer._printed)),
        (cli, "solve", tracer.wrap("solver.solve", cli.solve, tracer._solved)),
        (solver, "expand_shorthands",
         tracer.wrap("solver.expand", solver.expand_shorthands)),
        (solver.TermTable, "exact",
         tracer.wrap("solver.table", solver.TermTable.exact, tracer._table_used)),
        (solver.TermTable, "closed",
         tracer.wrap("solver.table", solver.TermTable.closed, tracer._table_used)),
        (solver, "verify", tracer.wrap("solver.verify", solver.verify, tracer._verified)),
        (solver, "eval_term", tracer.wrap_eval(solver.eval_term)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass."""
    spans = tracer.spans
    own = self_times(spans)
    busy: Counter[str] = Counter()
    total: Counter[str] = Counter()
    for (name, start, end, _, _), s in zip(spans, own):
        busy[name] += s
        total[name] += end - start
    c = tracer.counts
    evals = c["solver.search_evals"] + c["solver.verify_evals"]
    return {
        "lexer.s": busy["lexer"],
        "lexer.tokens": c["lexer.tokens"],
        "lexer.tokens_per_s": _ratio(c["lexer.tokens"], busy["lexer"]),
        "parser.s": busy["parser"],
        "parser.nodes": c["parser.nodes"],
        "parser.nodes_per_s": _ratio(c["parser.nodes"], busy["parser"]),
        "checker.s": busy["checker"],
        "printer.s": busy["printer"],
        "printer.bytes": c["printer.bytes"],
        "solver.solve_s": total["solver.solve"],
        "solver.expand_s": busy["solver.expand"],
        "solver.table_s": busy["solver.table"],
        "solver.table_terms": c["solver.table_terms"],
        "solver.table_terms_per_s": _ratio(c["solver.table_terms"], busy["solver.table"]),
        "solver.table_max_size": tracer.table_max_size,
        "solver.search_self_s": busy["solver.solve"],
        "solver.search_evals": c["solver.search_evals"],
        "solver.verify_s": busy["solver.verify"],
        "solver.verify_calls": c["solver.verify_calls"],
        "solver.verify_valid_ratio": _ratio(c["solver.verify_valid"], c["solver.verify_calls"]),
        "solver.verify_evals": c["solver.verify_evals"],
        "evaluator.calls": evals,
        "evaluator.us_per_call": _ratio(tracer.eval_s * 1e6, evals),
    }

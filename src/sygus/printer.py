"""Canonical text rendering of terms, sorts, programs, and solutions.

Every command prints on one line with single spaces between siblings, so
golden files are byte-exact and ``parse(print(p))`` is structurally equal
to ``p``.  Bit-vectors always print in binary, reals with their minimal
decimal expansion.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable

from .syntax import (
    App,
    ArraySort,
    BitVecSort,
    BoolConst,
    BoolSort,
    BVConst,
    CheckSynth,
    Command,
    Constraint,
    ConstantOf,
    DeclareFun,
    DeclareVar,
    DefineFun,
    DefineSort,
    EnumConst,
    EnumSort,
    InputVariableOf,
    IntConst,
    IntSort,
    Let,
    Lit,
    Literal,
    LocalVariableOf,
    NamedSort,
    NO_POS,
    Program,
    RealConst,
    RealSort,
    Ref,
    SetLogic,
    SetOptions,
    SortExpr,
    SygusError,
    SynthFun,
    Term,
    VariableOf,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .checker import SynthTask


class PrintError(SygusError):
    """A candidate that cannot be printed, such as ``E-INCOMPLETE-CANDIDATE``."""


def decimal_str(value: Fraction) -> str:
    """Finite decimal rendering with at least one digit on each side."""
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    den = mag.denominator
    places = 0
    while den % 2 == 0:
        den //= 2
        places += 1
    twos = places
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    places = max(twos, fives, 1)
    scaled = mag.numerator * 10**places // mag.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def print_literal(lit: Literal) -> str:
    if isinstance(lit, IntConst):
        return str(lit.value)
    if isinstance(lit, RealConst):
        return decimal_str(lit.value)
    if isinstance(lit, BoolConst):
        return "true" if lit.value else "false"
    if isinstance(lit, BVConst):
        return "#b" + lit.bits
    assert isinstance(lit, EnumConst)
    return f"{lit.sort_name}::{lit.constructor}"


def print_sort(sort: SortExpr) -> str:
    if isinstance(sort, IntSort):
        return "Int"
    if isinstance(sort, BoolSort):
        return "Bool"
    if isinstance(sort, RealSort):
        return "Real"
    if isinstance(sort, BitVecSort):
        return f"(BitVec {sort.width})"
    if isinstance(sort, EnumSort):
        return f"(Enum ({' '.join(sort.constructors)}))"
    if isinstance(sort, ArraySort):
        return f"(Array {print_sort(sort.domain)} {print_sort(sort.codomain)})"
    assert isinstance(sort, NamedSort)
    return sort.name


def _leaf(t: Term) -> str:
    if isinstance(t, Lit):
        return print_literal(t.value)
    if isinstance(t, Ref):
        return t.name
    if isinstance(t, ConstantOf):
        return f"(Constant {print_sort(t.sort)})"
    if isinstance(t, VariableOf):
        return f"(Variable {print_sort(t.sort)})"
    if isinstance(t, InputVariableOf):
        return f"(InputVariable {print_sort(t.sort)})"
    assert isinstance(t, LocalVariableOf)
    return f"(LocalVariable {print_sort(t.sort)})"


def render_term(t: Term, leaf: Callable[[Term], str], app: str, let: str) -> str:
    """``t`` in the printer's layout: ``leaf`` renders a node that is not
    an ``App`` or a ``Let``, ``app`` opens an application before its head,
    and ``let`` opens a let before its bindings.  The walk keeps its work on
    an explicit stack, so a deep term costs no interpreter stack."""
    out: list[str] = []
    # Pending nodes and text, the next one on top.
    todo: list = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, App):
            out.append(app + node.head)
            todo.append(")")
            for a in reversed(node.args):
                todo.append(a)
                todo.append(" ")
        elif isinstance(node, Let):
            out.append(let)
            todo += (")", node.body, ") ")
            for i in reversed(range(len(node.bindings))):
                b = node.bindings[i]
                gap = " " if i else ""
                todo += (")", b.value, f"{gap}({b.name} {print_sort(b.sort)} ")
        else:
            out.append(leaf(node))
    return "".join(out)


def print_term(t: Term) -> str:
    return render_term(t, _leaf, "(", "(let (")


def _print_params(params) -> str:
    return "(" + " ".join(f"({n} {print_sort(s)})" for n, s in params) + ")"


def _keyword(cmd: Command) -> str:
    """The surface keyword: the command's class name in kebab case."""
    return "-".join(re.findall("[A-Z][a-z]*", type(cmd).__name__)).lower()


def print_command(
    cmd: Command,
    term: Callable[[Term], str] = print_term,
    keyword: Callable[[Command], str] = _keyword,
) -> str:
    """One command on one line; ``term`` renders the terms inside it and
    ``keyword`` names it."""
    if isinstance(cmd, SetLogic):
        parts = [cmd.logic]
    elif isinstance(cmd, DefineSort):
        parts = [cmd.name, print_sort(cmd.body)]
    elif isinstance(cmd, DeclareVar):
        parts = [cmd.name, print_sort(cmd.sort)]
    elif isinstance(cmd, DeclareFun):
        sorts = " ".join(print_sort(s) for s in cmd.arg_sorts)
        parts = [cmd.name, f"({sorts})", print_sort(cmd.ret)]
    elif isinstance(cmd, DefineFun):
        parts = [cmd.name, _print_params(cmd.params), print_sort(cmd.ret), term(cmd.body)]
    elif isinstance(cmd, SynthFun):
        nts = " ".join(
            f"({nt.name} {print_sort(nt.sort)} ({' '.join(map(term, nt.productions))}))"
            for nt in cmd.grammar
        )
        parts = [cmd.name, _print_params(cmd.params), print_sort(cmd.ret), f"({nts})"]
    elif isinstance(cmd, Constraint):
        parts = [term(cmd.body)]
    elif isinstance(cmd, CheckSynth):
        parts = []
    else:
        assert isinstance(cmd, SetOptions)
        opts = " ".join(f'({name} "{value}")' for name, value in cmd.opts)
        parts = [f"({opts})"]
    return f"({' '.join([keyword(cmd), *parts])})"


def print_program(p: Program) -> str:
    """One command per line, canonical spacing, trailing newline."""
    return "".join(print_command(c) + "\n" for c in p.commands)


def print_solution(candidate: dict[str, Term], tasks: tuple[SynthTask, ...]) -> str:
    """One define-fun per synthesis task, in declaration order."""
    lines = []
    for task in tasks:
        body = candidate.get(task.name)
        if body is None:
            raise PrintError(
                "E-INCOMPLETE-CANDIDATE", NO_POS, f"no body for synthesis function '{task.name}'"
            )
        lines.append(
            f"(define-fun {task.name} {_print_params(task.surface_params)} "
            f"{print_sort(task.surface_ret)} {print_term(body)})\n"
        )
    return "".join(lines)


def print_fail() -> str:
    return "(fail)\n"

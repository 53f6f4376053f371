"""Evaluation of checked terms and sampled models of uninterpreted functions.

Arithmetic is exact: arbitrary-precision integers, ``Fraction`` for reals,
and modular arithmetic for bit-vectors.  Uninterpreted functions are
evaluated against finite sampled models: a model is a pure function of
(declarations, seed), derived per query from a keyed blake2 digest, so the
same tuple always maps to the same value regardless of query order or
process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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


def _encode_value(v: Value) -> bytes:
    if isinstance(v, VInt):
        return b"i" + str(v.value).encode()
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
    kind: str  # "macro" | "cand" | "uf"
    arg_sorts: tuple[ResolvedSort, ...]
    params: tuple[Symbol, ...]
    body: Optional[Term]


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
        #: The sampled model that uninterpreted functions are evaluated in.
        self.model: Optional[UFModel] = None
        self.enums = problem.enum_registry()
        self.funcs: dict[Symbol, list[_Callable]] = {}
        for m in problem.macros:
            self._add(
                m.name,
                _Callable(
                    "macro",
                    tuple(s for _, s in m.params),
                    tuple(p for p, _ in m.params),
                    m.body,
                ),
            )
        for d in problem.uf_decls:
            self._add(d.name, _Callable("uf", d.arg_sorts, (), None))
        self._task_info: dict[Symbol, tuple[tuple[Symbol, ...], tuple[ResolvedSort, ...]]] = {
            t.name: (
                tuple(p for p, _ in t.params),
                tuple(s for _, s in t.params),
            )
            for t in problem.synth_tasks
        }
        self._cands: dict[Symbol, _Callable] = {}
        if candidates:
            self.set_candidates(candidates)

    def _add(self, name: Symbol, c: _Callable) -> None:
        self.funcs.setdefault(name, []).append(c)

    def set_candidate(self, name: Symbol, body: Term) -> None:
        params, arg_sorts = self._task_info[name]
        self._cands[name] = _Callable("cand", arg_sorts, params, body)

    def set_candidates(self, mapping: dict[Symbol, Term]) -> None:
        for name, body in mapping.items():
            self.set_candidate(name, body)

    def dispatch(self, name: Symbol, args: tuple[Value, ...]) -> Optional[_Callable]:
        arg_sorts = None
        entries = self.funcs.get(name)
        if entries:
            arg_sorts = tuple(sort_of_value(a) for a in args)
            for e in entries:
                if e.arg_sorts == arg_sorts:
                    return e
        cand = self._cands.get(name)
        if cand is not None:
            if arg_sorts is None:
                arg_sorts = tuple(sort_of_value(a) for a in args)
            if cand.arg_sorts == arg_sorts:
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
    entry = env.dispatch(name, args)
    if entry is not None:
        if entry.kind == "uf":
            assert env.model is not None, "uninterpreted function without a model"
            return env.model.query(name, args)
        return eval_term(entry.body, dict(zip(entry.params, args)), env)
    return _theory_op(name, args)


def _theory_op(name: Symbol, args: tuple[Value, ...]) -> Value:
    if name == "=":
        return VBool(args[0] == args[1])
    if name == "distinct":
        return VBool(args[0] != args[1])
    if name == "ite":
        cond = args[0]
        assert isinstance(cond, VBool)
        return args[1] if cond.value else args[2]
    if name == "and":
        return VBool(all(a.value for a in args))
    if name == "or":
        return VBool(any(a.value for a in args))
    if name == "not":
        return VBool(not args[0].value)
    if name == "=>":
        return VBool(not args[0].value or args[1].value)
    if name == "xor":
        return VBool(args[0].value != args[1].value)
    a = args[0]
    if isinstance(a, VInt):
        b = args[1]
        if name == "+":
            return VInt(a.value + b.value)
        if name == "-":
            return VInt(a.value - b.value)
        if name == "*":
            return VInt(a.value * b.value)
        return _compare(name, a.value, b.value)
    if isinstance(a, VReal):
        b = args[1]
        if name == "+":
            return VReal(a.value + b.value)
        if name == "-":
            return VReal(a.value - b.value)
        if name == "*":
            return VReal(a.value * b.value)
        if name == "/":
            if b.value == 0:
                raise EvalError("E-DIV-ZERO", "division by zero")
            return VReal(a.value / b.value)
        return _compare(name, a.value, b.value)
    if isinstance(a, VBV):
        return _bv_op(name, a, args)
    raise AssertionError(f"no semantics for '{name}' at {args!r}")


def _compare(name: Symbol, a, b) -> VBool:
    if name == "<=":
        return VBool(a <= b)
    if name == "<":
        return VBool(a < b)
    if name == ">=":
        return VBool(a >= b)
    if name == ">":
        return VBool(a > b)
    raise AssertionError(f"no semantics for '{name}'")


def _bv_op(name: Symbol, a: VBV, args: tuple[Value, ...]) -> Value:
    mask = (1 << a.width) - 1
    if name == "bvnot":
        return VBV(a.width, ~a.value & mask)
    if name == "bvneg":
        return VBV(a.width, -a.value & mask)
    b = args[1]
    assert isinstance(b, VBV)
    if name == "bvadd":
        return VBV(a.width, (a.value + b.value) & mask)
    if name == "bvsub":
        return VBV(a.width, (a.value - b.value) & mask)
    if name == "bvand":
        return VBV(a.width, a.value & b.value)
    if name == "bvor":
        return VBV(a.width, a.value | b.value)
    if name == "bvxor":
        return VBV(a.width, a.value ^ b.value)
    if name == "bvshl":
        # Shift amounts at or beyond the width yield the zero vector.
        if b.value >= a.width:
            return VBV(a.width, 0)
        return VBV(a.width, (a.value << b.value) & mask)
    if name == "bvlshr":
        if b.value >= a.width:
            return VBV(a.width, 0)
        return VBV(a.width, a.value >> b.value)
    if name == "bvult":
        return VBool(a.value < b.value)
    if name == "bvule":
        return VBool(a.value <= b.value)
    raise AssertionError(f"no semantics for '{name}'")

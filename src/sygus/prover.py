"""Proofs that a candidate meets a linear integer problem, which
``solver.verify`` tries before it tests the rest of its grid.

A proof covers every value of the universal variables and every
interpretation of the uninterpreted functions, where testing covers a
finite grid under a few sampled models.  It is a case analysis over linear
normal forms (``proves``):

- **Inlining.**  The constraints are evaluated symbolically, call by value:
  an application of a synthesis function evaluates the candidate's body, a
  macro's its body, with the parameters bound to the arguments' values, and
  a ``let`` binds its names to its values' (in parallel, as the evaluator
  does).  So the candidate, the macros and the lets are inlined.
- **Normal forms.**  The value of an Int term is a *linear form*: a
  constant plus integer coefficients over *atoms*.  An atom is a universal
  Int variable, or an application of an uninterpreted function keyed by
  its declaration and its arguments' values.  ``+``, ``-`` and
  multiplication by a constant (the checker admits no other product)
  combine forms exactly, and ``ite`` takes the form of the branch its
  condition picks.  The value of a Bool term is true or false; a Bool
  atom, a universal Bool variable or an application of an uninterpreted
  function to Bool, is decided by the case.
- **Deciding.**  A comparison becomes a literal: a linear form that is at
  least zero or is zero, divided by the gcd of its coefficients (over the
  integers the two say the same), or a Bool atom.  It is decided when its
  form is a constant, or when it follows from one of the case's facts: a
  form ``e`` differs from a fact's form ``l`` by ``m * l + c``, and ``l >=
  0`` or ``l = 0`` fixes the sign of ``e`` or whether it is zero.
- **Cases.**  A literal that is not decided splits the case in two: one
  where it holds and one where it does not, each with it as one more fact.
  The split is on the first undecided literal that evaluation reaches, to a
  depth of ``MAX_DEPTH`` splits.  A case is closed when every constraint
  is true in it; the candidate is proved when every case is closed.

Why it is sound: the leaves of the case tree cover every assignment, since
each split is on a literal and its negation.  In a leaf every decision
follows from the facts of the leaf, which hold there, and a linear form
equals its term's value over the integers.  Two atoms with one key are one
value, since a function gives equal results at equal arguments
(congruence: Nelson and Oppen, "Fast Decision Procedures Based on
Congruence Closure", JACM 1980); two atoms with different keys may take any
values, which is all an uninterpreted function allows.  So what holds for
every value of the atoms holds for every assignment and interpretation.

The prover never guesses and never reports a counterexample.  A constraint
false in a case, a case past ``MAX_DEPTH``, more than ``CASE_BUDGET`` cases
or ``NODE_BUDGET`` evaluated nodes, a sort other than Int or Bool, an
operator it does not know and a term nested past the interpreter's stack
all end the attempt as "unknown".  It reads the solve's deadline: once per
case, and on its every 256th node, as the grid does on its chunks, so a
timeout inside a proof is a timeout of the solve.  The prover is
incomplete: ``max3``'s solution, for one, needs ``z > x`` from ``z > y``
and ``y > x``, a sum of two facts.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping, Optional, Union

from .checker import R_BOOL, R_INT, CheckedProblem, RBool, RInt
from .evaluator import EvalEnv
from .syntax import App, BoolConst, IntConst, Let, Lit, Ref, Symbol, Term

#: Most case splits on one path from the first case.
MAX_DEPTH = 8
#: Most cases one attempt examines.
CASE_BUDGET = 256
#: Most term nodes one attempt evaluates, over all of its cases.
NODE_BUDGET = 5_000

#: A linear form: its constant, and its atoms' numbers ascending, each with
#: its coefficient, none zero.
Linear = tuple[int, tuple[tuple[int, int], ...]]
#: A literal: ``("ge", e)`` for ``e >= 0``, ``("eq", e)`` for ``e = 0``, each
#: with ``e`` divided by the gcd of its coefficients (and, for ``eq``, its
#: first coefficient positive), or ``("atom", n)`` for Bool atom ``n``.
Literal = tuple[str, Union[Linear, int]]
#: A fact of a case: a literal, and whether it holds.  A ``ge`` literal that
#: does not hold is the fact ``-e - 1 >= 0`` instead.
Fact = tuple[Literal, bool]


class _GiveUp(Exception):
    """The attempt ends with no proof."""


class _Split(Exception):
    """The case must be split on ``literal``, which its facts do not
    decide."""

    def __init__(self, literal: Literal):
        self.literal = literal


class _BoolVar:
    """The value of a universal Bool variable, a Bool atom: decided in each
    case by its facts."""

    __slots__ = ("literal",)

    def __init__(self, literal: Literal):
        self.literal = literal


def proves(candidate: Mapping[Symbol, Term], problem: CheckedProblem, deadline) -> bool:
    """Whether every constraint of ``problem``, with each synthesis function
    given its body in ``candidate``, holds for every value of the universal
    variables and every interpretation of the uninterpreted functions.
    ``False`` means unknown: the prover gave up (see the module docstring).
    ``deadline`` is the solve's ``solver._Deadline``, whose timeout is
    raised through."""
    try:
        _Prover(candidate, problem, deadline).case((), 0)
    except (_GiveUp, RecursionError):
        return False
    return True


def _combine(x: Linear, y: Linear, k: int) -> Linear:
    """``x + k * y``."""
    if not y[1]:
        return x[0] + k * y[0], x[1]
    coeffs = dict(x[1])
    for atom, c in y[1]:
        coeffs[atom] = coeffs.get(atom, 0) + k * c
    return x[0] + k * y[0], tuple(sorted([(a, c) for a, c in coeffs.items() if c]))


def _divided(e: Linear, g: int) -> Linear:
    """``e`` with its constant and coefficients floor-divided by ``g``."""
    return e[0] // g, tuple([(a, c // g) for a, c in e[1]])


def _offset(e: Linear, l: Linear) -> Optional[tuple[int, int]]:
    """``(m, c)`` with ``m`` a nonzero integer and ``e = m * l + c``, if there
    are such; ``l`` is not a constant."""
    atom, k = l[1][0]
    m, rest = divmod(dict(e[1]).get(atom, 0), k)
    if rest or not m:
        return None
    d = _combine(e, l, -m)
    return None if d[1] else (m, d[0])


def _decided(literal: Literal, facts: tuple[Fact, ...]) -> Optional[bool]:
    """Whether ``literal`` holds where one of ``facts`` decides it, else
    ``None``; an ``eq`` literal is also true where ``e >= 0`` and ``-e >=
    0`` each are."""
    kind, e = literal
    if kind == "atom":
        for (k, n), holds in facts:
            if k == "atom" and n == e:
                return holds
        return None
    for (k, l), holds in facts:
        if k == "atom":
            continue
        off = _offset(e, l)
        if off is None:
            continue
        m, c = off
        if k == "eq":
            if holds:
                # e = c here.
                return c >= 0 if kind == "ge" else c == 0
            if kind == "eq" and c == 0:
                # l != 0, so e = m * l != 0.
                return False
        elif kind == "ge":
            # l >= 0: e >= c where m > 0, e <= c where m < 0.
            if m > 0 and c >= 0:
                return True
            if m < 0 and c < 0:
                return False
        elif (m > 0 and c > 0) or (m < 0 and c < 0):
            # e = 0 is out of reach of e's sign.
            return False
    if kind == "eq" and _decided(("ge", e), facts):
        if _decided(("ge", _combine((0, ()), e, -1)), facts):
            return True
    return None


class _Prover:
    """One attempt: the environment the candidate is bound in, the atoms
    numbered so far, the budgets left, and the facts of the current
    case."""

    def __init__(self, candidate, problem, deadline):
        self.env = EvalEnv(problem, dict(candidate))
        self.constraints = problem.constraints
        self.deadline = deadline
        self.cases = CASE_BUDGET
        self.nodes = NODE_BUDGET
        #: Each atom's number, by its key.
        self.atoms: dict[tuple, int] = {}
        self.facts: tuple[Fact, ...] = ()
        #: The universal variables' values.
        self.top: dict[Symbol, object] = {}
        for name, sort in problem.universal_vars.items():
            if isinstance(sort, RInt):
                self.top[name] = (0, ((self._number(("var", name)), 1),))
            elif isinstance(sort, RBool):
                self.top[name] = _BoolVar(("atom", self._number(("var", name))))
            else:
                raise _GiveUp

    def _number(self, key: tuple) -> int:
        return self.atoms.setdefault(key, len(self.atoms))

    def case(self, facts: tuple[Fact, ...], depth: int) -> None:
        """Close the case of ``facts``, ``depth`` splits from the first, or
        give up."""
        self.cases -= 1
        if self.cases < 0:
            raise _GiveUp
        self.deadline.check()
        self.facts = facts
        try:
            for c in self.constraints:
                if self.value(c, self.top) is not True:
                    raise _GiveUp
        except _Split as split:
            if depth == MAX_DEPTH:
                raise _GiveUp from None
            literal = split.literal
            kind, e = literal
            if kind == "ge":
                # Over the integers, not e >= 0 is -e - 1 >= 0.
                negation = (("ge", _combine((-1, ()), e, -1)), True)
            else:
                negation = (literal, False)
            self.case(facts + ((literal, True),), depth + 1)
            self.case(facts + (negation,), depth + 1)

    def truth(self, literal: Literal) -> bool:
        value = _decided(literal, self.facts)
        if value is None:
            raise _Split(literal)
        return value

    def value(self, t: Term, scope: Mapping[Symbol, object]):
        """The value of ``t`` in this case: a ``Linear`` for Int, a ``bool``
        for Bool.  ``scope`` maps the names in scope to their values."""
        self.nodes -= 1
        if self.nodes < 0:
            raise _GiveUp
        self.deadline.tick()
        if isinstance(t, Ref):
            v = scope.get(t.name)
            if v is None:
                return self.apply(t.name, [])
            return self.truth(v.literal) if type(v) is _BoolVar else v
        if isinstance(t, App):
            head, args = t.head, t.args
            # The core operators, which no declared function can shadow,
            # evaluate only the operands they need.
            if head == "ite":
                return self.value(args[1] if self.value(args[0], scope) else args[2], scope)
            if head == "and":
                return not self.some([(a, False) for a in args], scope)
            if head == "or":
                return self.some([(a, True) for a in args], scope)
            if head == "=>":
                return self.some([(args[0], False), (args[1], True)], scope)
            return self.apply(head, [self.value(a, scope) for a in args])
        if isinstance(t, Lit):
            lit = t.value
            if isinstance(lit, IntConst):
                return lit.value, ()
            if isinstance(lit, BoolConst):
                return lit.value
            raise _GiveUp
        if isinstance(t, Let):
            # Parallel bindings: the values are taken in the outer scope.
            inner = dict(scope)
            inner.update([(b.name, self.value(b.value, scope)) for b in t.bindings])
            return self.value(t.body, inner)
        raise _GiveUp

    def some(self, parts: list[tuple[Term, bool]], scope) -> bool:
        """Whether some term of ``parts`` has the value it is paired with.
        A term this case does not decide is passed over while another
        might settle the answer; if none does, the case splits on the first
        such term's literal."""
        split = None
        for term, wanted in parts:
            try:
                if self.value(term, scope) == wanted:
                    return True
            except _Split as s:
                split = split or s
        if split is not None:
            raise split
        return False

    def apply(self, head: Symbol, args: list):
        """The value of an application of ``head`` to the values ``args``,
        resolved as the evaluator resolves it."""
        ints = [type(a) is tuple for a in args]
        sorts = tuple([R_INT if i else R_BOOL for i in ints])
        hit = self.env.resolve(head, sorts)
        if hit is not None:
            entry, body = hit
            if entry.kind != "uf":
                return self.value(body, dict(zip(entry.params, args)))
            n = self._number(("uf", entry.index, tuple(args)))
            if isinstance(entry.ret, RInt):
                return 0, ((n, 1),)
            if isinstance(entry.ret, RBool):
                return self.truth(("atom", n))
            raise _GiveUp
        if len(args) == 2 and ints[0] == ints[1]:
            a, b = args
            if head in ("=", "distinct"):
                equal = a == b if not ints[0] else self.zero(_combine(a, b, -1))
                return equal == (head == "=")
            if ints[0]:
                if head == "+":
                    return _combine(a, b, 1)
                if head == "-":
                    return _combine(a, b, -1)
                # The checker lets no product go without a literal factor
                # (E-NONLINEAR).
                if head == "*" and not a[1]:
                    return _combine((0, ()), b, a[0])
                if head == "*" and not b[1]:
                    return _combine((0, ()), a, b[0])
                compare = _COMPARISONS.get(head)
                if compare is not None:
                    return self.nonnegative(compare(a, b))
            elif head == "xor":
                return a != b
        elif head == "not" and ints == [False]:
            return not args[0]
        raise _GiveUp

    def nonnegative(self, e: Linear) -> bool:
        """Whether ``e >= 0`` in this case."""
        const, coeffs = e
        if not coeffs:
            return const >= 0
        g = gcd(*[c for _, c in coeffs])
        return self.truth(("ge", _divided(e, g) if g > 1 else e))

    def zero(self, e: Linear) -> bool:
        """Whether ``e = 0`` in this case."""
        const, coeffs = e
        if not coeffs:
            return const == 0
        g = gcd(*[c for _, c in coeffs])
        if const % g:
            return False
        if coeffs[0][1] < 0:
            g = -g
        return self.truth(("eq", _divided(e, g) if g != 1 else e))


#: Each Int comparison ``a op b`` as ``e >= 0``.
_COMPARISONS = {
    "<=": lambda a, b: _combine(b, a, -1),
    "<": lambda a, b: _combine(_combine(b, a, -1), (1, ()), -1),
    ">=": lambda a, b: _combine(a, b, -1),
    ">": lambda a, b: _combine(_combine(a, b, -1), (1, ()), -1),
}

"""The table of built-in operators (``checker.OPERATORS``): its signatures
against the reference if-chain of ``oracle.reference_lookup`` under every
logic, and the payload semantics the evaluator reads from it against
references written here: bit-vector rows bit by bit, the others by
Python's own operators."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sygus.checker import (
    KNOWN_LOGICS,
    OPERATORS,
    R_BOOL,
    R_INT,
    R_REAL,
    RArray,
    RBitVec,
    REnum,
    TheorySignature,
)
from sygus.evaluator import EvalError, _builtin

from oracle import REFERENCE_OPERATORS, reference_knows, reference_lookup

LOGICS = (None, "LIA", "BV", "Reals", "Arrays")
SORTS = (
    R_INT, R_BOOL, R_REAL, RBitVec(1), RBitVec(4),
    REnum("Color", ("red", "green")), RArray(R_INT, R_INT),
)
OPERAND_TUPLES = [args for n in range(4) for args in product(SORTS, repeat=n)]
NAMES = REFERENCE_OPERATORS + ("f", "bvmul")


def test_each_operator_has_one_row_and_the_logics_are_its_families():
    names = [row[0] for row in OPERATORS]
    assert sorted(names) == sorted(set(names)) == sorted(REFERENCE_OPERATORS)
    assert sorted(KNOWN_LOGICS) == sorted(LOGICS[1:])


@pytest.mark.parametrize("logic", LOGICS, ids=str)
def test_signatures_match_the_reference(logic):
    sig = TheorySignature(logic)
    for name in NAMES:
        assert sig.knows(name) == reference_knows(logic, name), name
        for args in OPERAND_TUPLES:
            hit = sig.builtin(name, args)
            got = None if hit is None else hit[0]
            assert got == reference_lookup(logic, name, args), (name, args)


def test_every_signature_without_a_logic_has_semantics():
    for name in REFERENCE_OPERATORS:
        for args in OPERAND_TUPLES:
            if reference_lookup(None, name, args) is None:
                continue
            if name in ("select", "store"):
                with pytest.raises(AssertionError, match="no semantics"):
                    _builtin(name, args)
            else:
                op, ret = _builtin(name, args)
                assert callable(op)
                assert ret == reference_lookup(None, name, args)


# ---------------------------------------------------------------------------
# Bit-vector rows against a bit-by-bit reference: a vector is its list of
# bits, least significant first.


def bits(x, w):
    return [(x >> i) & 1 for i in range(w)]


def value(bs):
    return sum(b << i for i, b in enumerate(bs))


def ripple_add(a, b):
    out, carry = [], 0
    for x, y in zip(a, b):
        out.append(x ^ y ^ carry)
        carry = (x & y) | (carry & (x ^ y))
    return out


def bit_not(a):
    return [1 - x for x in a]


def bit_neg(a):
    return ripple_add(bit_not(a), [1] + [0] * (len(a) - 1))


def shift_left(a, k):
    k = min(k, len(a))
    return [0] * k + a[: len(a) - k]


def shift_right(a, k):
    k = min(k, len(a))
    return a[k:] + [0] * k


def unsigned_less(a, b):
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


BV_REFERENCE = {
    "bvnot": bit_not,
    "bvneg": bit_neg,
    "bvadd": ripple_add,
    "bvsub": lambda a, b: ripple_add(a, bit_neg(b)),
    "bvand": lambda a, b: [x & y for x, y in zip(a, b)],
    "bvor": lambda a, b: [x | y for x, y in zip(a, b)],
    "bvxor": lambda a, b: [x ^ y for x, y in zip(a, b)],
    # A shift amount is the whole second operand, so it may pass the width.
    "bvshl": lambda a, b: shift_left(a, value(b)),
    "bvlshr": lambda a, b: shift_right(a, value(b)),
    "bvult": unsigned_less,
    "bvule": lambda a, b: unsigned_less(a, b) or a == b,
}


@st.composite
def bv_operands(draw, arity):
    w = draw(st.integers(1, 8))
    return w, [draw(st.integers(0, (1 << w) - 1)) for _ in range(arity)]


def test_the_bv_reference_covers_every_bv_row():
    assert sorted(BV_REFERENCE) == sorted(row[0] for row in OPERATORS if row[2][0] == "BV")


@pytest.mark.parametrize("name", sorted(BV_REFERENCE))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bv_rows_compute_bit_by_bit(name, data):
    arity = BV_REFERENCE[name].__code__.co_argcount
    w, xs = data.draw(bv_operands(arity))
    op, ret = _builtin(name, (RBitVec(w),) * arity)
    expected = BV_REFERENCE[name](*[bits(x, w) for x in xs])
    if isinstance(expected, bool):
        assert ret == R_BOOL
        assert op(*xs) == expected
    else:
        assert ret == RBitVec(w)
        assert op(*xs) == value(expected)


# ---------------------------------------------------------------------------
# Core, LIA and Reals rows against Python's own operators.

ints = st.integers(-(10**30), 10**30)
fractions = st.fractions(max_denominator=10**6)
bools = st.booleans()

PYTHON = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


@pytest.mark.parametrize("name", sorted(PYTHON))
@settings(max_examples=100, deadline=None)
@given(a=ints, b=ints, p=fractions, q=fractions)
def test_arithmetic_rows_are_pythons_operators(name, a, b, p, q):
    op, _ = _builtin(name, (R_INT, R_INT))
    got = op(a, b)
    assert got == PYTHON[name](a, b) and type(got) is type(PYTHON[name](a, b))
    op, _ = _builtin(name, (R_REAL, R_REAL))
    got = op(p, q)
    assert got == PYTHON[name](p, q) and type(got) is type(PYTHON[name](p, q))


@settings(max_examples=100, deadline=None)
@given(p=fractions, q=fractions)
def test_real_division_is_pythons_and_zero_raises(p, q):
    op, ret = _builtin("/", (R_REAL, R_REAL))
    assert ret == R_REAL
    if q == 0:
        with pytest.raises(EvalError) as info:
            op(p, q)
        assert (info.value.code, info.value.message) == ("E-DIV-ZERO", "division by zero")
    else:
        assert op(p, q) == p / q


@settings(max_examples=100, deadline=None)
@given(a=bools, b=bools, xs=st.lists(bools, min_size=1, max_size=5))
def test_boolean_rows_are_pythons_operators(a, b, xs):
    assert _builtin("not", (R_BOOL,))[0](a) == (not a)
    assert _builtin("=>", (R_BOOL, R_BOOL))[0](a, b) == ((not a) or b)
    assert _builtin("xor", (R_BOOL, R_BOOL))[0](a, b) == (a != b)
    assert _builtin("and", (R_BOOL,) * len(xs))[0](*xs) == all(xs)
    assert _builtin("or", (R_BOOL,) * len(xs))[0](*xs) == any(xs)


COLOR = REnum("Color", ("red", "green", "blue"))
PAYLOADS = {
    R_INT: ints,
    R_BOOL: bools,
    R_REAL: fractions,
    RBitVec(3): st.integers(0, 7),
    COLOR: st.sampled_from(COLOR.constructors),
}


@pytest.mark.parametrize("sort", list(PAYLOADS), ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_equality_and_ite_rows_are_pythons_operators(sort, data):
    a, b = data.draw(PAYLOADS[sort]), data.draw(PAYLOADS[sort])
    cond = data.draw(bools)
    eq, ret = _builtin("=", (sort, sort))
    assert ret == R_BOOL
    assert eq(a, b) == (a == b)
    assert _builtin("distinct", (sort, sort))[0](a, b) == (a != b)
    op, ret = _builtin("ite", (R_BOOL, sort, sort))
    assert ret == sort
    assert op(cond, a, b) == (a if cond else b)

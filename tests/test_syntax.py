import random

import pytest

from sygus.syntax import (
    App,
    Binding,
    BoolConst,
    BVConst,
    IntConst,
    IntSort,
    Let,
    Lit,
    Pos,
    RealConst,
    Ref,
    subterms,
    term_size,
)
from fractions import Fraction


def test_term_size_single_leaf():
    assert term_size(Ref("x")) == 1


def test_term_size_application():
    assert term_size(App("+", (Ref("x"), Lit(IntConst(1))))) == 3


def test_term_size_let():
    # One let node + one binding value (size 1) + one body (size 1).
    t = Let((Binding("z", IntSort(), Lit(IntConst(0))),), Ref("z"))
    assert term_size(t) == 3


def test_structural_eq_identical():
    a = App("+", (Ref("x"), Ref("y")))
    b = App("+", (Ref("x"), Ref("y")))
    assert a == b


def test_structural_eq_argument_order():
    a = App("+", (Ref("x"), Ref("y")))
    b = App("+", (Ref("y"), Ref("x")))
    assert a != b


def test_structural_eq_is_name_sensitive():
    # No alpha-equivalence: differently named bindings are different terms.
    a = Let((Binding("z", IntSort(), Lit(IntConst(0))),), Ref("z"))
    b = Let((Binding("w", IntSort(), Lit(IntConst(0))),), Ref("w"))
    assert a != b


def test_structural_eq_ignores_positions():
    a = Ref("x", Pos(1, 1))
    b = Ref("x", Pos(99, 42))
    assert a == b
    assert hash(a) == hash(b)


def _random_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [Ref("x"), Ref("y"), Lit(IntConst(rng.randrange(-3, 4)))]
        )
    if rng.random() < 0.2:
        return Let(
            (Binding("z", IntSort(), _random_term(rng, depth - 1)),),
            _random_term(rng, depth - 1),
        )
    return App(
        rng.choice(["+", "-"]),
        (_random_term(rng, depth - 1), _random_term(rng, depth - 1)),
    )


def test_structural_eq_is_an_equivalence():
    rng = random.Random(11)
    terms = [_random_term(rng, 3) for _ in range(60)]
    for t in terms:
        assert t == t
    for a in terms:
        for b in terms:
            assert (a == b) == (b == a)
            if a == b:
                for c in terms:
                    if b == c:
                        assert a == c


def test_term_size_exceeds_children():
    rng = random.Random(7)
    for _ in range(200):
        t = _random_term(rng, 4)
        assert term_size(t) >= 1
        for child in subterms(t):
            if child is not t:
                assert term_size(t) > term_size(child)


def test_bv_const_validation():
    assert BVConst(4, 6).bits == "0110"
    with pytest.raises(ValueError):
        BVConst(0, 0)
    with pytest.raises(ValueError):
        BVConst(2, 4)


def test_real_const_requires_finite_decimal():
    RealConst(Fraction(7, 2))
    RealConst(Fraction(7, 100))
    with pytest.raises(ValueError):
        RealConst(Fraction(1, 3))

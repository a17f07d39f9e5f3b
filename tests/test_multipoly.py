"""MultiPoly arithmetic, divided differences, exact binomial division."""

import random

import pytest

from macdet.multipoly import MultiPoly, divide_exact_binomial
from macdet.qt import Q, QtRat, T


def x(m: int, i: int) -> MultiPoly:
    return MultiPoly.variable(m, i)


def rand_multipoly(rng: random.Random, m: int, max_deg: int = 3,
                   max_terms: int = 5) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(m))
        coef = QtRat.from_int(rng.randint(-3, 3))
        if exps in terms:
            terms[exps] = terms[exps] + coef
        else:
            terms[exps] = coef
    return MultiPoly(m, {e: c for e, c in terms.items() if c})


def test_divided_difference_basics():
    assert x(2, 1).divided_difference(1) == MultiPoly.const(2, 1)
    assert (x(2, 1) * x(2, 2)).divided_difference(1).is_zero()
    assert (x(2, 1) ** 2).divided_difference(1) == x(2, 1) + x(2, 2)


def test_divided_difference_antisymmetric_input():
    f = x(2, 2)
    assert f.divided_difference(1) == MultiPoly.const(2, -1)


def test_divided_difference_index_range():
    with pytest.raises(ValueError):
        x(2, 1).divided_difference(2)
    with pytest.raises(ValueError):
        x(2, 1).divided_difference(0)


def test_divided_difference_matches_quotient_definition():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(2, 4)
        f = rand_multipoly(rng, m)
        i = rng.randint(1, m - 1)
        direct = f.divided_difference(i)
        diff = f - f.swap_vars(i, i + 1)
        if diff.is_zero():
            assert direct.is_zero()
        else:
            assert divide_exact_binomial(diff, i, i + 1) == direct
        assert direct.symmetric_in(i, i + 1)


def test_divide_exact_binomial_round_trip():
    rng = random.Random(12)
    for _ in range(60):
        m = rng.randint(2, 4)
        g = rand_multipoly(rng, m)
        a = rng.randint(1, m)
        b = rng.randint(1, m)
        if a == b:
            continue
        f = g * (x(m, a) - x(m, b))
        assert divide_exact_binomial(f, a, b) == g


def test_divide_exact_binomial_rejects_inexact():
    with pytest.raises(ArithmeticError):
        divide_exact_binomial(x(2, 1) * x(2, 2), 1, 2)


def test_scale_var():
    f = (x(2, 1) + x(2, 2)) ** 2
    g = f.scale_var(1, Q)
    assert g.coefficient((2, 0)) == QtRat(Q * Q)
    assert g.coefficient((1, 1)) == QtRat(2) * Q


def test_symmetry_checks():
    e2 = x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)
    assert e2.is_symmetric(3)
    assert not (e2 + x(3, 1)).is_symmetric(3)


def test_extend_embedding():
    f = x(2, 1) * x(2, 2)
    g = f.extend(4)
    assert g.m == 4
    assert g.coefficient((1, 1, 0, 0)) == QtRat.from_int(1)


def test_constant_coercion_and_scalar_mul():
    f = MultiPoly.const(3, T)
    assert f * 2 == MultiPoly.const(3, QtRat(T * 2))
    assert (f - f).is_zero()
    assert f.constant_value() == QtRat(T)

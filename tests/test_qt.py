"""Exact (q,t) arithmetic: GCDs, reduced fractions, canonical text form."""

import os
import random
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import macdet

import macdet.qt as qt_module
from macdet.qt import (Q, QT_ONE, QT_ZERO, PackedPoly, QtPoly, QtRat, T, dense_divide,
                       dense_row, exact_div, gcd_cofactors, pack, pack_width, packed_text,
                       relayout, unpack)

from conftest import rand_poly, rand_rat


def test_gcd_one_minus_q_powers():
    assert gcd_cofactors(QT_ONE - Q**2, QT_ONE - Q)[0] == QT_ONE - Q


def test_gcd_coprime_variables():
    assert gcd_cofactors(Q, T)[0] == QT_ONE


def test_gcd_shared_bivariate_factor():
    a = (QT_ONE - Q) * (QT_ONE - Q * T)
    b = (QT_ONE - Q * T) * (QT_ONE - T)
    assert gcd_cofactors(a, b)[0] == QT_ONE - Q * T


def test_gcd_integer_content():
    assert gcd_cofactors(QtPoly.const(6) * Q, QtPoly.const(4) * Q * T)[0] == QtPoly.const(2) * Q


def test_gcd_zero_operands():
    assert gcd_cofactors(QT_ZERO, QT_ONE - Q)[0] == QT_ONE - Q
    assert gcd_cofactors(-(QT_ONE - Q), QT_ZERO)[0] == QT_ONE - Q
    with pytest.raises(ValueError):
        gcd_cofactors(QT_ZERO, QT_ZERO)


def test_rat_reduction_with_sign_normalization():
    num = (T - Q) * (QT_ONE - Q)
    den = -(QT_ONE - Q) * (QT_ONE - Q * T)
    r = QtRat(num, den)
    assert r.num == Q - T
    assert r.den == QT_ONE - Q * T


def test_gcd_sign_pins_one_minus_qt():
    a = (QT_ONE - Q) * (Q * T - QT_ONE)
    b = (Q * T - QT_ONE) * (QT_ONE - T)
    assert gcd_cofactors(a, b)[0] == QT_ONE - Q * T


def test_rat_equality_is_structural():
    a = QtRat(QT_ONE - Q**2, (QT_ONE - Q) * (QT_ONE - T))
    b = QtRat(QT_ONE + Q, QT_ONE - T)
    assert a == b
    assert hash(a) == hash(b)


def test_exact_div_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng, nonzero=True)
        assert exact_div(a * b, b) == a


def test_exact_div_rejects_inexact():
    assert exact_div(Q + T, Q) is None
    assert exact_div(QtPoly.const(3), QtPoly.const(2)) is None
    # q - t^2 -> x^3 - x^2 = x^2 (x - 1) with span 3: exact in one variable,
    # but the quotient t^2 is past the t-degree bound
    assert exact_div(Q - T**2, T - QT_ONE) is None
    assert exact_div(Q, T) is None
    assert exact_div(Q * 2, Q * 3) is None


def test_exact_div_matches_sympy_div():
    sympy = pytest.importorskip("sympy")
    sq, st = sympy.symbols("q t")

    def to_sympy(p):
        return sympy.Poly(dict(p.terms) or {(0, 0): 0}, sq, st, domain="ZZ")

    rng = random.Random(2011)
    exact = inexact = 0
    for _ in range(300):
        a = rand_poly(rng, max_deg=4)
        b = rand_poly(rng, max_deg=3, nonzero=True)
        num = a * b
        if rng.random() < 0.5:
            num = num + rand_poly(rng, max_deg=5, max_terms=2)
        quo, rem = to_sympy(num).div(to_sympy(b), auto=False)  # in ZZ, not QQ
        ours = exact_div(num, b)
        if rem.is_zero:
            exact += 1
            assert ours == QtPoly({k: int(c) for k, c in quo.terms() if c}), (num, b)
        else:
            inexact += 1
            assert ours is None, (num, b)
    assert exact > 100 and inexact > 50


def test_exact_div_and_dense_divide_of_zero():
    assert exact_div(QT_ZERO, QT_ONE - Q * T) == QT_ZERO
    assert dense_divide([0] * 6, 3, T - QT_ONE) == {}


def _dense_row(p):
    """p laid out as dense_divide reads it, with its span."""
    span = max(kt for _, kt in p.terms) + 1
    row = [0] * ((max(kq for kq, _ in p.terms) + 1) * span)
    for (kq, kt), c in p.terms.items():
        row[kq * span + kt] = c
    return row, span


def test_exact_div_by_a_monomial_is_a_shift(monkeypatch):
    """p * c*q^a*t^b divides back to p without a dense row, and the
    quotient is the one dense_divide finds on the same input."""
    dense = qt_module.dense_divide
    rows = []
    monkeypatch.setattr("macdet.qt.dense_divide", lambda *args: rows.append(1) or dense(*args))
    rng = random.Random(1212)
    for _ in range(200):
        p = rand_poly(rng, max_deg=4, max_terms=6, nonzero=True)
        mono = QtPoly.monomial(rng.choice((-6, -3, -1, 1, 2, 5)), rng.randint(0, 3),
                               rng.randint(0, 3))
        num = p * mono
        assert exact_div(num, mono) == p, (p, mono)
        assert dense(*_dense_row(num), mono) == p.terms, (p, mono)
    assert rows == []


def test_exact_div_by_a_monomial_rejects_and_raises():
    two_qt = QtPoly.monomial(2, 1, 1)
    assert exact_div(QtPoly.monomial(3, 1, 1), two_qt) is None  # remainder 1
    assert exact_div(2 * Q * T + 3 * Q**2 * T, two_qt) is None  # in one term only
    assert exact_div(2 * Q * T + 2 * Q**2, two_qt) is None      # t-degree 0 < 1
    assert exact_div(2 * T, two_qt) is None                     # q-degree 0 < 1
    assert exact_div(QT_ZERO, two_qt) == QT_ZERO
    assert exact_div(-4 * Q**2 * T, -two_qt) == 2 * Q
    with pytest.raises(ZeroDivisionError):
        exact_div(two_qt, QT_ZERO)


def test_rat_inexact_gcd_division_raises(monkeypatch):
    over_q = QtRat(QT_ONE, Q)
    over_qt = QtRat(QT_ONE, Q * T)
    monkeypatch.setattr("macdet.qt.exact_div", lambda num, den: None)
    with pytest.raises(ArithmeticError):
        QtRat(Q * T, Q)
    with pytest.raises(ArithmeticError):
        over_q + over_qt
    with pytest.raises(ArithmeticError):
        QtRat(Q) * over_qt


def test_ring_axioms_random():
    rng = random.Random(202)
    for _ in range(80):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + QT_ZERO == a
        assert a * QT_ONE == a


def test_gcd_divides_both_random():
    rng = random.Random(303)
    for _ in range(60):
        a = rand_poly(rng, max_deg=2)
        b = rand_poly(rng, max_deg=2, nonzero=True)
        g = gcd_cofactors(a, b)[0]
        assert exact_div(a, g) is not None
        assert exact_div(b, g) is not None


def test_lcm_fold_starts_from_the_first_denominator(monkeypatch):
    """_lcm of one denominator, or of it with units and repeats, is that
    denominator with no gcd_cofactors call; each further one costs one."""
    calls = []
    real = qt_module.gcd_cofactors
    monkeypatch.setattr(qt_module, "gcd_cofactors", lambda *args: calls.append(args) or real(*args))
    d = QT_ONE - Q * T
    assert qt_module._lcm([d]) == d
    assert qt_module._lcm([QT_ONE, d, d, QT_ONE]) == d
    assert qt_module._lcm([]) == QT_ONE and calls == []
    assert qt_module._lcm([d, QT_ONE - T, d]) == d * (QT_ONE - T) and len(calls) == 2


def test_gcd_reflects_known_common_factor():
    rng = random.Random(404)
    for _ in range(40):
        common = rand_poly(rng, max_deg=1, nonzero=True)
        a = rand_poly(rng, max_deg=1, nonzero=True) * common
        b = rand_poly(rng, max_deg=1, nonzero=True) * common
        g = gcd_cofactors(a, b)[0]
        assert exact_div(g, common) is not None


def test_rat_field_axioms_random():
    rng = random.Random(505)
    for _ in range(50):
        a, b, c = (rand_rat(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_rat_cross_multiplication_equality():
    rng = random.Random(606)
    for _ in range(60):
        a = rand_rat(rng)
        b = rand_rat(rng)
        assert (a == b) == (a.num * b.den == b.num * a.den)


def test_rat_laurent_monomial_denominator():
    r = QtRat(QT_ONE, T**2)
    assert r.den == T**2
    assert (r * T**2).is_one()


def test_poly_power_and_swap():
    p = (QT_ONE - Q * T**2) ** 3
    assert p.swap_qt() == (QT_ONE - T * Q**2) ** 3
    assert (Q**2).subs_t_eq_q() == (T**2).subs_t_eq_q()


def test_render_canonical_examples():
    assert str(QT_ZERO) == "0"
    assert str(QT_ONE - Q * T) == "1 - q*t"
    assert str(QtPoly.const(-3) * T**4 + Q) == "q - 3*t^4"
    assert str(QtRat(Q - T, QT_ONE - Q * T)) == "(-t + q)/(1 - q*t)"


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QtPoly({(-1, 0): 1})


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QtRat(QT_ONE, QT_ZERO)


def test_rat_power_and_inverse():
    r = QtRat(QT_ONE - Q, QT_ONE - T)
    assert r ** 0 == QtRat.from_int(1)
    assert r ** -2 == (r.inverse()) ** 2
    assert r * r.inverse() == QtRat.from_int(1)


def test_subs_t_eq_q_on_rat():
    r = QtRat(QT_ONE - T, QT_ONE - Q)
    assert QtRat(r.num.subs_t_eq_q(), r.den.subs_t_eq_q()) == QtRat.from_int(1)


def test_gcd_and_reduction_match_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    sq, stv = sympy.symbols("q t")

    polys = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3), max_size=4).map(QtPoly)

    def to_sympy(p):
        return sympy.Poly(dict(p.terms) or {(0, 0): 0},
                          sq, stv, domain="ZZ")

    def from_sympy(poly):
        return QtPoly({k: int(c) for k, c in poly.terms() if c})

    def up_to_sign(ours, theirs):
        return ours == theirs or ours == -theirs

    @hypothesis.settings(max_examples=200, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(polys, polys, polys)
    @hypothesis.example(QT_ONE + T, QtPoly.const(2), QT_ONE)
    def check(a, b, c):
        hypothesis.assume(not c.is_zero() and not b.is_zero())
        ac, bc = a * c, b * c
        g = gcd_cofactors(ac, bc)[0]
        assert up_to_sign(g, from_sympy(to_sympy(ac).gcd(to_sympy(bc))))
        assert g.content_sign() > 0
        r = QtRat(ac, bc)
        num, den = (from_sympy(p) for p in
                    to_sympy(ac).cancel(to_sympy(bc), include=True))
        assert (r.num, r.den) in ((num, den), (-num, -den))
        assert r.den.content_sign() > 0

    check()


def _gcd_cases():
    """Pairs with nontrivial gcds: the known-factor examples above and
    seeded draws sharing a random factor."""
    cases = [
        (QT_ONE - Q**2, QT_ONE - Q),
        ((QT_ONE - Q) * (QT_ONE - Q * T), (QT_ONE - Q * T) * (QT_ONE - T)),
        ((QT_ONE - Q) * (Q * T - QT_ONE), (Q * T - QT_ONE) * (QT_ONE - T)),
        (QtPoly.const(6) * Q, QtPoly.const(4) * Q * T),
    ]
    rng = random.Random(909)
    for _ in range(60):
        common = rand_poly(rng, max_deg=2, nonzero=True)
        cases.append((rand_poly(rng, max_deg=2, nonzero=True) * common,
                      rand_poly(rng, max_deg=2, nonzero=True) * common))
    return cases


def test_gcd_prs_fallback_matches_heuristics(monkeypatch):
    cases = _gcd_cases()
    want = [gcd_cofactors(a, b)[0] for a, b in cases]
    calls = {"t": 0, "b": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr("macdet.qt._t_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._b_gcd_heu", lambda *args: None)
    prs = qt_module._prs
    monkeypatch.setattr("macdet.qt._prs", lambda f, g: counted(
        "b" if _has_t(f, g) else "t", prs)(f, g))
    assert [gcd_cofactors(a, b)[0] for a, b in cases] == want
    assert calls["t"] and calls["b"]


def _has_t(*polys):
    return any(kt for p in polys for _, kt in p.terms)


def _t_mul(a, b):
    """Product of two t-polynomials held as little-endian tuples."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return qt_module._t_trim(out)


def _assert_cofactors(a, b):
    g, a_g, b_g = gcd_cofactors(a, b)
    assert g * a_g == a and g * b_g == b, (a, b)
    assert g == gcd_cofactors(b, a)[0], (a, b)
    assert g.content_sign() > 0, (a, b)


def _t_only(rng):
    """A polynomial in t alone with at least two terms."""
    return QtPoly({(0, 0): rng.choice((-2, -1, 1, 2)), (0, rng.randint(1, 3)): rng.randint(1, 3)})


def _path_cases():
    """Pairs for each gcd path before the heuristic: its smallest case
    first, then seeded draws."""
    rng = random.Random(1111)
    draws = [rand_poly(rng, max_deg=2, nonzero=True) for _ in range(20)]
    return {
        "zero": [(QT_ZERO, Q - QT_ONE), (QT_ONE - Q, QT_ZERO)]
                + [(QT_ZERO, d) for d in draws[:5]] + [(d, QT_ZERO) for d in draws[5:10]],
        "monomial": [(QtPoly.const(6) * Q, QtPoly.const(4) * Q * T), (-Q, Q - Q * T),
                     (QtPoly.monomial(-3, 2, 0), QtPoly.monomial(-6, 1, 4)), (T, QT_ONE)]
                    + [(QtPoly.monomial(rng.randint(-3, 3) or 1, rng.randint(0, 2),
                                        rng.randint(0, 2)), d) for d in draws],
        "equal": [(Q - QT_ONE, Q - QT_ONE)] + [(d, d) for d in draws if not d.is_monomial()],
        "one row": [(QT_ONE - T, Q - Q * T)]
                   + [(_t_only(rng) * (QT_ONE + T), d * (QT_ONE + T)) for d in draws],
    }


def test_gcd_cofactors_zero_monomial_equal_and_one_row():
    for cases in _path_cases().values():
        for a, b in cases:
            _assert_cofactors(a, b)
            _assert_cofactors(b, a)
    with pytest.raises(ValueError):
        gcd_cofactors(QT_ZERO, QT_ZERO)


def test_gcd_cofactors_heuristic_hit(monkeypatch):
    hits = []
    heuristic = qt_module._b_gcd_heu

    def spy(*args):
        out = heuristic(*args)
        hits.append(out is not None)
        return out

    monkeypatch.setattr("macdet.qt._b_gcd_heu", spy)
    cases = _gcd_cases()
    _assert_cofactors(*cases[1])  # (1-q)(1-qt) and (1-qt)(1-t)
    assert hits and all(hits)
    for a, b in cases:
        _assert_cofactors(a, b)
    assert sum(hits) > len(cases) // 2


def test_gcd_cofactors_prs_fallback(monkeypatch):
    cases = _gcd_cases()
    calls = []
    prs = qt_module._prs
    monkeypatch.setattr("macdet.qt._b_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._prs", lambda *args: calls.append(1) or prs(*args))
    _assert_cofactors(*cases[1])
    assert calls
    for a, b in cases + _path_cases()["one row"]:
        _assert_cofactors(a, b)
        _assert_cofactors(b, a)
    assert len(calls) > len(cases) // 2


def _content_by_fold(f):
    g = ()
    for row in f:
        g = qt_module._t_gcd(g, row)
    return g


def test_content_read_off_a_monomial_row():
    cases = [
        [(0, 2)],                          # 2t alone
        [(0, 0, 3), (0, 6, 3)],            # 3t^2 and 6t + 3t^2: 3t
        [(), (4,), (2, 6)],                # a constant row: integer content
        [(1, -1), (0, 0, 5)],              # 1 - t and 5t^2: 1
    ]
    rng = random.Random(1313)
    for _ in range(300):
        common = qt_module._t_trim([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]) or (1,)
        rows = [_t_mul(qt_module._t_trim(
                    [rng.choice((0, rng.randint(-4, 4))) for _ in range(rng.randint(0, 3))]),
                    common if rng.random() < 0.7 else (1,))
                for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            k = rng.randrange(len(rows))
            rows[k] = (0,) * rng.randint(0, 2) + (rng.choice((-3, -2, 2, 6)),)
        if any(rows):
            cases.append(rows)
    monomial_rows = 0
    for f in cases:
        monomial_rows += any(r and sum(1 for c in r if c) == 1 for r in f)
        poly = QtPoly({(kq, kt): c for kq, row in enumerate(f) for kt, c in enumerate(row)})
        assert qt_module._q_content(poly) == _content_by_fold(f), f
    assert monomial_rows > len(cases) // 3


def test_rat_sum_reduces_against_shared_denominator():
    one_minus = [QT_ONE - Q, QT_ONE - T, QT_ONE - Q * T, QT_ONE - Q**2 * T]
    cases = [(QtRat(QT_ONE, one_minus[0] * one_minus[1]),
              QtRat(-QT_ONE, one_minus[0] * one_minus[2]))]
    rng = random.Random(1414)
    for _ in range(80):
        shared = rng.choice(one_minus) ** rng.randint(1, 2)
        a = QtRat(rand_poly(rng, max_deg=2), shared * rng.choice(one_minus))
        b = QtRat(rand_poly(rng, max_deg=2), shared * rng.choice(one_minus))
        cases += [(a, b), (a, -a), (a, shared * rand_rat(rng))]
    for a, b in cases:
        want = QtRat(a.num * b.den + b.num * a.den, a.den * b.den)
        assert a + b == want, (a, b)
        assert b + a == want, (a, b)


def _t_poly_cases():
    """Seeded pairs of t-polynomials (little-endian integer tuples) with
    a known common factor, and the factor."""
    trim = qt_module._t_trim
    factors = [
        (1, 0, 1),        # t^2 + 1: an interior zero coefficient
        (3, -2, 0, -5),   # negative leading coefficient
        (6, 4, -2),       # integer content 2
        (2, 1),
    ]
    cases = [((4,), (6, 2), (2,)),       # a constant operand
             ((1, 0, 1), (6,), (1,))]
    rng = random.Random(2121)
    for _ in range(60):
        common = rng.choice(factors)
        a = b = ()
        while not a or not b:
            a, b = (_t_mul(common, trim([rng.randint(-4, 4)
                                         for _ in range(rng.randint(1, 4))]))
                    for _ in range(2))
        cases.append((a, b, common))
    return cases


def test_univariate_prs_fallback(monkeypatch):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    cases = _t_poly_cases()

    def as_qt(a):
        return QtPoly({(0, k): c for k, c in enumerate(a)})

    want = [qt_module._t_gcd(a, b) for a, b, _ in cases]
    want_qt = [gcd_cofactors(as_qt(a) * Q, as_qt(b) * (Q + T))[0] for a, b, _ in cases]
    calls = []
    prs = qt_module._prs
    monkeypatch.setattr("macdet.qt._t_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._prs", lambda f, g: calls.append((f, g)) or prs(f, g))
    for (a, b, common), heuristic, heuristic_qt in zip(cases, want, want_qt):
        got = qt_module._t_gcd(a, b)
        assert got == heuristic, (a, b)
        ref = sympy.gcd(sympy.Poly(a[::-1], t), sympy.Poly(b[::-1], t))
        assert got == tuple(int(c) for c in ref.all_coeffs()[::-1]), (a, b)
        for divisible, divisor in ((a, got), (b, got), (got, common)):
            assert qt_module._t_divides(divisible, divisor), (divisible, divisor)
        assert gcd_cofactors(as_qt(a) * Q, as_qt(b) * (Q + T))[0] == heuristic_qt, (a, b)
    # the PRS ran, and only on inputs with no t: the bivariate heuristic
    # stayed live
    assert len(calls) > len(cases) // 2
    assert not any(_has_t(*pair) for pair in calls)


def _t_factor_cases():
    """Seeded pairs sharing a factor in Z[t] alone.  Each input has its
    own factor in Z[t], its own integer content and a product of
    (1 - q^a t^b) factors like the oracle's denominators."""
    shared = [(QT_ONE - T) ** 2, QT_ONE + T**2, QtPoly.const(3) * (QT_ONE - T)]
    own = [QT_ONE, QT_ONE + T, QT_ONE - T**3, QtPoly.const(2) - T]
    rng = random.Random(2525)
    cases = []
    while len(cases) < 60:
        common = rng.choice(shared)
        a, b = (common * rng.choice(own) * rng.choice((1, 2, 3, 6, -4))
                * (QT_ONE - Q**rng.randint(1, 3) * T**rng.randint(0, 2))
                * (QT_ONE - Q**rng.randint(0, 2) * T**rng.randint(1, 2)) ** rng.randint(0, 2)
                for _ in range(2))
        if a != b:
            cases.append((a, b))
    return cases


def test_gcd_heuristic_carries_a_common_factor_in_t(monkeypatch):
    sympy = pytest.importorskip("sympy")
    sq, st = sympy.symbols("q t")

    def sympy_gcd(a, b):
        g = sympy.Poly(a.terms, sq, st, domain="ZZ").gcd(sympy.Poly(b.terms, sq, st, domain="ZZ"))
        return QtPoly({k: int(c) for k, c in g.terms()})

    cases = _t_factor_cases()
    folds, hits = [], []
    fold, heuristic = qt_module._q_content, qt_module._b_gcd_heu
    monkeypatch.setattr("macdet.qt._q_content", lambda f: folds.append(f) or fold(f))
    monkeypatch.setattr("macdet.qt._b_gcd_heu",
                        lambda *args: hits.append(heuristic(*args)) or hits[-1])
    got = [gcd_cofactors(a, b) for a, b in cases]
    assert len(hits) == len(cases) and all(hits)
    assert folds == []  # the content in Z[t] is never split off on a hit
    monkeypatch.setattr("macdet.qt._b_gcd_heu", lambda *args: None)
    assert [gcd_cofactors(a, b) for a, b in cases] == got
    assert folds
    for (a, b), (g, a_g, b_g) in zip(cases, got):
        assert g * a_g == a and g * b_g == b, (a, b)
        assert g in (sympy_gcd(a, b), -sympy_gcd(a, b)), (a, b)


def _denominator_factor(rng, min_t):
    """One factor 1 - q^a t^b like those of the oracle's denominators."""
    return QT_ONE - Q**rng.randint(1, 3) * T**rng.randint(min_t, 2)


def _denominator_pair(rng, min_t=0):
    """Two products of such factors sharing some of them."""
    def product(n):
        p = QT_ONE
        for _ in range(n):
            p = p * _denominator_factor(rng, min_t)
        return p
    shared = product(rng.randint(0, 3))
    return shared * product(rng.randint(1, 3)), shared * product(rng.randint(1, 3))


def test_univariate_fallback_on_evaluated_denominators(monkeypatch):
    """The PRS one level down on what _b_gcd_heu hands _t_gcd: products
    of (1 - q^a t^b) at t = xi above 2^64, so q-polynomials whose
    coefficients run to 20 digits and more."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    calls = []
    prs = qt_module._prs
    monkeypatch.setattr("macdet.qt._t_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._prs", lambda f, g: calls.append(1) or prs(f, g))
    rng = random.Random(2727)
    start = perf_counter()
    nontrivial = 0
    for _ in range(40):
        xi = 2**64 + rng.randint(1, 2**40)
        pa, pb = _denominator_pair(rng, min_t=1)
        a, b = qt_module._q_at(pa, xi), qt_module._q_at(pb, xi)
        assert max(map(abs, a + b)) >= 10**19
        got = qt_module._t_gcd(a, b)
        ref = sympy.gcd(sympy.Poly(a[::-1], x), sympy.Poly(b[::-1], x))
        assert got == tuple(int(c) for c in ref.all_coeffs()[::-1]), (pa, pb)
        nontrivial += len(got) > 1
    elapsed = perf_counter() - start
    assert len(calls) >= 40 and nontrivial > 10
    assert elapsed < 30.0, f"evaluated-denominator gcds took {elapsed:.1f}s"


def test_gcd_cofactors_fallback_with_integer_content(monkeypatch):
    """Both heuristics off: t-only, q-only and mixed pairs with integer
    contents above 1, through the PRS in q and, for the contents in Z[t],
    the PRS with t swapped into q."""
    sympy = pytest.importorskip("sympy")
    sq, st = sympy.symbols("q t")

    def sympy_gcd(a, b):
        g = sympy.Poly(a.terms, sq, st, domain="ZZ").gcd(sympy.Poly(b.terms, sq, st, domain="ZZ"))
        return QtPoly({k: int(c) for k, c in g.terms()})

    monkeypatch.setattr("macdet.qt._t_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._b_gcd_heu", lambda *args: None)
    rng = random.Random(2828)
    start = perf_counter()
    cases = {"t only": [], "q only": [], "mixed": []}
    while min(map(len, cases.values())) < 20:
        pa, pb = _denominator_pair(rng)
        own_t = (QT_ONE, QT_ONE - T, QT_ONE - T**2)
        pa = pa * rng.choice((2, 4, 6, -6)) * rng.choice(own_t)
        pb = pb * rng.choice((2, 3, 6, -4)) * rng.choice(own_t)
        kind = rng.choice(list(cases))
        if kind == "t only":
            pa, pb = pa.subs_t_eq_q().swap_qt(), pb.subs_t_eq_q().swap_qt()
        elif kind == "q only":
            pa, pb = pa.subs_t_eq_q(), pb.subs_t_eq_q()
        if pa.is_monomial() or pb.is_monomial() or pa == pb:
            continue
        cases[kind].append((pa, pb))
    for kind, pairs in cases.items():
        for a, b in pairs:
            g, a_g, b_g = gcd_cofactors(a, b)
            assert g * a_g == a and g * b_g == b, (kind, a, b)
            assert g.content_sign() > 0, (kind, a, b)
            assert g in (sympy_gcd(a, b), -sympy_gcd(a, b)), (kind, a, b)
    elapsed = perf_counter() - start
    assert elapsed < 30.0, f"fallback gcds took {elapsed:.1f}s"


def _t_gcd_by_prs(a, b):
    """gcd of nonzero t-polynomials by the remainder sequence alone: the
    primitive parts with t swapped into q, times the gcd of the contents."""
    ca, cb = qt_module._igcd(*a), qt_module._igcd(*b)
    f, g = (qt_module._t_poly(tuple(c // cont for c in x)).swap_qt()
            for x, cont in ((a, ca), (b, cb)))
    base = qt_module._q_at(qt_module._prs(f, g), 0)
    return qt_module._t_abs(tuple(c * qt_module._igcd(ca, cb) for c in base))


def test_t_gcd_of_a_monomial_matches_prs():
    """c * t^k against any t-polynomial gives t^min(k, v) times the gcd
    of c and the other's content, v the other's least t-degree; a
    constant is the case k = 0."""
    cases = [((0, 0, 6), (0, 4, 2)), ((5,), (0, 10)), ((0, -3), (9, 0, 3)),
             ((0, 0, 0, 2), (0, 0, 0, 4))]
    rng = random.Random(2727)
    for _ in range(300):
        mono = (0,) * rng.randint(0, 4) + (rng.choice((-6, -3, -2, -1, 1, 2, 4, 6)),)
        other = qt_module._t_trim([rng.choice((0, 0, rng.randint(-6, 6)))
                                   for _ in range(rng.randint(1, 6))])
        if other:
            cases.append((mono, other))
    singles = 0
    for a, b in cases:
        singles += sum(1 for c in b if c) == 1
        want = _t_gcd_by_prs(a, b)
        assert qt_module._t_gcd(a, b) == want, (a, b)
        assert qt_module._t_gcd(b, a) == want, (a, b)
    assert singles > 10  # both inputs monomial in some draws


def test_pack_width_sequence():
    assert [pack_width(b) for b in (0, 1, 127, 128, 2**15 - 1, 2**15, 2**31,
                                    2**63 - 1, 2**63, 2**127 - 1, 2**127)] == [
        8, 8, 8, 16, 16, 32, 64, 64, 128, 128, 192]


def _image(terms, span, width):
    """The polynomial evaluated at t = 2^width, q = 2^(width*span)."""
    q, t = 2 ** (width * span), 2 ** width
    return sum(c * q ** kq * t ** kt for (kq, kt), c in terms.items())


def test_pack_unpack_round_trip_random():
    rng = random.Random(2828)
    for bound in (1, 100, 2**12, 2**40, 2**70, 2**150):
        for _ in range(20):
            span = rng.randint(1, 6)
            terms = {(rng.randint(0, 5), rng.randrange(span)): rng.randint(-bound, bound)
                     for _ in range(rng.randint(0, 12))}
            terms = {k: c for k, c in terms.items() if c}
            width = pack_width(bound)
            packed = pack(terms, span, width)
            assert packed == _image(terms, span, width)
            assert unpack(packed, span, width) == terms


def test_unpack_is_exact_at_the_chosen_width_and_not_below():
    """A polynomial whose coefficients reach the bound decodes right at
    pack_width(bound) and wrong at the next narrower width, where its
    top coefficient is no longer a balanced digit."""
    widths = [8, 16, 32, 64, 128, 192]
    for bound in (128, 2**15 - 1, 2**15, 2**31 - 1, 2**40, 2**63, 2**127 - 1):
        width = pack_width(bound)
        narrower = widths[widths.index(width) - 1]
        for span in (1, 3):
            terms = {(0, 0): -bound, (1, span - 1): bound, (2, 0): 1, (3, 0): bound}
            assert unpack(pack(terms, span, width), span, width) == terms
            assert unpack(_image(terms, span, narrower), span, narrower) != terms


# digits at the edges of 64-bit words; each width takes those below half its base
WORD_EDGE_DIGITS = (2**63 - 1, 2**64 - 1, 2**64, 2**127 - 1)


def word_boundary_cases():
    """(terms, span, width) at widths 64, 128 and 192: every digit that
    fits, with both signs, between a 0 and a -1, so that the borrows of
    the negative digits cross word boundaries."""
    cases = []
    for width in (64, 128, 192):
        row = []
        for d in WORD_EDGE_DIGITS:
            if d < 1 << (width - 1):
                row += [0, d, -1, 0, -d, -1]
        for span in (1, 3, 4):
            cases.append(({divmod(i, span): c for i, c in enumerate(row) if c}, span, width))
    return cases


def test_unpack_across_word_boundaries():
    cases = word_boundary_cases()
    assert {width for _, _, width in cases} == {64, 128, 192}
    for terms, span, width in cases:
        packed = pack(terms, span, width)
        assert packed == _image(terms, span, width)
        assert unpack(packed, span, width) == terms, (span, width)


def test_unpack_across_word_boundaries_under_optimize():
    code = "\n".join([
        "import ast, sys",
        "from macdet.qt import pack, unpack",
        "cases = ast.literal_eval(sys.stdin.read())",
        "print(sys.flags.optimize, sum(unpack(pack(t, s, w), s, w) == t for t, s, w in cases))",
    ])
    cases = word_boundary_cases()
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, input=repr(cases),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", str(len(cases))]


class _OtherEndianView:
    """memoryview as a host of the other byte order reads a buffer: each
    word of the cast comes out byte-swapped."""

    def __init__(self, buf):
        self.buf = buf

    def cast(self, fmt):
        words = array(fmt, self.buf)
        words.byteswap()
        return words


def test_unpack_on_a_host_of_the_other_byte_order(monkeypatch):
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(qt_module, "sys", SimpleNamespace(byteorder=other))
    monkeypatch.setattr(qt_module, "memoryview", _OtherEndianView, raising=False)
    rng = random.Random(3030)
    cases = word_boundary_cases()
    for bound in (100, 2**12, 2**20, 2**40):
        terms = {(rng.randint(0, 4), rng.randrange(3)): rng.randint(-bound, bound)
                 for _ in range(10)}
        cases.append(({k: c for k, c in terms.items() if c}, 3, pack_width(bound)))
    assert {width for _, _, width in cases} == {8, 16, 32, 64, 128, 192}
    for terms, span, width in cases:
        assert unpack(pack(terms, span, width), span, width) == terms, (span, width)


WIDTHS = (8, 16, 32, 64, 128, 192)


def packed_cases(seed):
    """(terms, span, width): seeded polynomials at every width whose
    coefficients include the extreme balanced digits +-(2^(width-1) - 1),
    plus the word-boundary cases."""
    rng = random.Random(seed)
    cases = word_boundary_cases()
    for width in WIDTHS:
        top = (1 << (width - 1)) - 1
        for _ in range(40):
            span = rng.randint(1, 7)
            terms = {(rng.randint(0, 6), rng.randrange(span)):
                     rng.choice([top, -top, 1, -1, 2, -2, rng.randint(-top, top)])
                     for _ in range(rng.randint(0, 15))}
            cases.append(({k: c for k, c in terms.items() if c}, span, width))
    return cases


def test_packed_text_is_the_canonical_text_in_both_orientations():
    cases = packed_cases(3434)
    assert {width for _, _, width in cases} == set(WIDTHS)
    extremes = 0
    for terms, span, width in cases:
        poly, value = QtPoly(terms), pack(terms, span, width)
        extremes += (1 << (width - 1)) - 1 in map(abs, terms.values())
        assert packed_text(value, span, width) == str(poly), (terms, span, width)
        assert packed_text(value, span, width, True) == str(poly.swap_qt()), (terms, span, width)
        assert unpack(value, span, width, True) == poly.swap_qt().terms
    assert extremes > len(WIDTHS) * 10


def test_a_cached_layout_is_built_whole_and_never_written():
    """_layout returns a tuple whose texts are built with it; decoding
    and writing the text of values on that layout leave the cached
    object as it was."""
    macdet.clear_caches()
    for terms, span, width in [case for case in packed_cases(3939) if case[0]][:40]:
        value = pack(terms, span, width)
        rows = qt_module._rows(value, span, width)
        for swap in (False, True):
            layout = qt_module._layout(rows, span, swap)
            assert isinstance(layout, tuple)
            _, keys, texts = layout
            assert texts == tuple(map(qt_module._monomial_text, keys))
            packed_text(value, span, width, swap)
            packed_text(-value, span, width, swap)
            unpack(value, span, width, swap)
            assert qt_module._layout(rows, span, swap) is layout


def test_dense_row_is_the_dense_layout_at_every_width():
    """dense_row reads a packed polynomial, of either sign and with the
    extreme balanced digits, as the row dense_divide takes: index
    a*span + b holds the coefficient of q^a t^b."""
    cases = packed_cases(3636)
    assert {width for _, _, width in cases} == set(WIDTHS)
    for terms, span, width in cases:
        for sign in (1, -1):
            row = dense_row(sign * pack(terms, span, width), width)
            assert {divmod(i, span): sign * c for i, c in enumerate(row) if c} == terms


def test_packed_poly_reads_its_value_and_decodes_terms_once():
    for terms, span, width in packed_cases(3535)[:60]:
        poly = QtPoly(terms)
        for swap, expected in ((False, poly), (True, poly.swap_qt())):
            packed = PackedPoly(pack(terms, span, width), span, width, 0, swap)
            assert str(packed) == str(expected) and bool(packed) == bool(expected)
            assert packed.is_zero() == expected.is_zero()
            assert packed == expected and hash(packed) == hash(expected)
            assert packed.terms is packed.terms
            assert str(QtRat(packed)) == str(QtRat(expected))
    with pytest.raises(AttributeError):
        PackedPoly(1, 1, 8, 1).other


def test_packed_swap_flips_the_digit_keys_and_decodes_nothing(monkeypatch):
    """PackedPoly.swap_qt reads the same value with the other keys: it
    decodes nothing, twice it is the original, and it equals the swap of
    the decoded polynomial; QtRat.swap_qt keeps a unit denominator."""
    decoded = []
    read = PackedPoly.__getattr__
    monkeypatch.setattr(PackedPoly, "__getattr__",
                        lambda self, name: decoded.append(self) or read(self, name))
    for terms, span, width in [case for case in packed_cases(3838) if case[0]][:60]:
        top = max(map(abs, terms.values()))
        for swap in (False, True):
            packed = PackedPoly(pack(terms, span, width), span, width, top, swap)
            once = packed.swap_qt()
            twice = once.swap_qt()
            rat = QtRat(packed).swap_qt()
            assert decoded == []
            assert isinstance(once, PackedPoly) and isinstance(rat.num, PackedPoly)
            assert ((twice.value, twice.span, twice.width, twice.bound, twice.swap)
                    == (packed.value, span, width, top, swap))
            assert rat.den is QT_ONE
            assert once == QtPoly(packed.terms).swap_qt() == rat.num
            assert twice == packed
            del decoded[:]


def test_relayout_moves_every_digit_to_the_new_width():
    """relayout equals repacking at the new width, wider or narrower,
    whenever every coefficient fits the narrower of the two widths; at the
    narrower width one notch below that, it does not."""
    rng = random.Random(3636)
    for terms, span, width in packed_cases(3737):
        value = pack(terms, span, width)
        for new in WIDTHS + (256,):
            if new >= width:
                assert relayout(value, width, new) == pack(terms, span, new), (width, new)
    for low, high in zip(WIDTHS, WIDTHS[1:]):
        top = (1 << (low - 1)) - 1
        terms = {(0, 0): -top, (1, 2): top, (3, 1): rng.randint(-top, top), (4, 0): -1}
        value = pack(terms, 3, high)
        assert relayout(value, high, low) == pack(terms, 3, low)
        assert unpack(relayout(value, high, low), 3, low) == terms
        over = {**terms, (2, 0): top + 1}
        assert unpack(relayout(pack(over, 3, high), high, low), 3, low) != over

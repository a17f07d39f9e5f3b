"""Exact (q,t) arithmetic: GCDs, reduced fractions, canonical text form."""

import random

import pytest

import macdet.qt as qt_module
from macdet.qt import Q, QT_ONE, QT_ZERO, QtPoly, QtRat, T, exact_div, qt_gcd

from conftest import rand_poly, rand_rat


def test_gcd_one_minus_q_powers():
    assert qt_gcd(QT_ONE - Q**2, QT_ONE - Q) == QT_ONE - Q


def test_gcd_coprime_variables():
    assert qt_gcd(Q, T) == QT_ONE


def test_gcd_shared_bivariate_factor():
    a = (QT_ONE - Q) * (QT_ONE - Q * T)
    b = (QT_ONE - Q * T) * (QT_ONE - T)
    assert qt_gcd(a, b) == QT_ONE - Q * T


def test_gcd_integer_content():
    assert qt_gcd(QtPoly.const(6) * Q, QtPoly.const(4) * Q * T) == QtPoly.const(2) * Q


def test_gcd_zero_operands():
    assert qt_gcd(QT_ZERO, QT_ONE - Q) == QT_ONE - Q
    assert qt_gcd(-(QT_ONE - Q), QT_ZERO) == QT_ONE - Q
    with pytest.raises(ValueError):
        qt_gcd(QT_ZERO, QT_ZERO)


def test_rat_reduction_with_sign_normalization():
    num = (T - Q) * (QT_ONE - Q)
    den = -(QT_ONE - Q) * (QT_ONE - Q * T)
    r = QtRat(num, den)
    assert r.num == Q - T
    assert r.den == QT_ONE - Q * T


def test_gcd_sign_pins_one_minus_qt():
    a = (QT_ONE - Q) * (Q * T - QT_ONE)
    b = (Q * T - QT_ONE) * (QT_ONE - T)
    assert qt_gcd(a, b) == QT_ONE - Q * T


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
        g = qt_gcd(a, b)
        assert exact_div(a, g) is not None
        assert exact_div(b, g) is not None


def test_gcd_reflects_known_common_factor():
    rng = random.Random(404)
    for _ in range(40):
        common = rand_poly(rng, max_deg=1, nonzero=True)
        a = rand_poly(rng, max_deg=1, nonzero=True) * common
        b = rand_poly(rng, max_deg=1, nonzero=True) * common
        g = qt_gcd(a, b)
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


def test_render_parse_round_trip_random():
    rng = random.Random(707)
    for _ in range(150):
        p = rand_poly(rng, max_deg=4, max_terms=6)
        assert QtPoly.parse(str(p)) == p
        r = rand_rat(rng)
        assert QtRat.parse(str(r)) == r


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
    assert r.subs_t_eq_q() == QtRat.from_int(1)


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
        g = qt_gcd(ac, bc)
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
    want = [qt_gcd(a, b) for a, b in cases]
    calls = {"t": 0, "b": 0}

    def counted(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)
        return run

    monkeypatch.setattr("macdet.qt._t_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._b_gcd_heu", lambda *args: None)
    monkeypatch.setattr("macdet.qt._t_gcd_prs", counted("t", qt_module._t_gcd_prs))
    monkeypatch.setattr("macdet.qt._b_gcd_prs", counted("b", qt_module._b_gcd_prs))
    assert [qt_gcd(a, b) for a, b in cases] == want
    assert calls["t"] and calls["b"]

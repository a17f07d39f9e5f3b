"""MultiPoly arithmetic, divided differences, exact binomial division."""

import copy
import os
import random
import subprocess
import sys
from operator import add
from pathlib import Path
from time import perf_counter

import pytest

import macdet
from macdet.multipoly import MultiPoly, divide_exact_binomial
from macdet.qt import Q, QT_ONE, QT_RAT_ZERO, QtPoly, QtRat, T, gcd_cofactors

from conftest import rand_poly


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
    assert g.terms.get((2, 0), QT_RAT_ZERO) == QtRat(Q * Q)
    assert g.terms.get((1, 1), QT_RAT_ZERO) == QtRat(2) * Q


def test_scale_var_rejects_an_index_outside_its_variables():
    for f in (x(2, 2), MultiPoly.zero(2)):
        for i in (0, -1, 3):
            with pytest.raises(ValueError, match="out of range"):
                f.scale_var(i, Q)


def test_symmetry_checks():
    e2 = x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)
    assert e2.is_symmetric(3)
    assert not (e2 + x(3, 1)).is_symmetric(3)


def test_extend_embedding():
    f = x(2, 1) * x(2, 2)
    g = f.extend(4)
    assert g.m == 4
    assert g.terms.get((1, 1, 0, 0), QT_RAT_ZERO) == QtRat.from_int(1)


def test_constant_coercion_and_scalar_mul():
    f = MultiPoly.const(3, T)
    assert f * 2 == MultiPoly.const(3, QtRat(T * 2))
    assert (f - f).is_zero()
    assert f.constant_value() == QtRat(T)


# -- fractional coefficients against per-coefficient QtRat arithmetic -------

_DENOMINATORS = (QT_ONE, T, T ** 3, Q - QT_ONE, Q ** 2 - QT_ONE, T * (Q - QT_ONE),
                 T ** 2 * (Q ** 3 - QT_ONE), (Q - QT_ONE) * (Q ** 2 - QT_ONE))


def rand_fraction(rng: random.Random) -> QtRat:
    return QtRat(rand_poly(rng, 2, 3), rng.choice(_DENOMINATORS))


def rand_fractional(rng: random.Random, m: int) -> dict:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[tuple(rng.randint(0, 2) for _ in range(m))] = rand_fraction(rng)
    return terms


def _nonzero(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def _ref_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, QT_RAT_ZERO) + c
    return _nonzero(out)


def _ref_scale(f: dict, c: QtRat) -> dict:
    return _nonzero({e: v * c for e, v in f.items()})


def _ref_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, QT_RAT_ZERO) + ca * cb
    return _nonzero(out)


def _ref_scale_var(f: dict, i: int, c: QtRat) -> dict:
    return _nonzero({e: v * c ** e[i - 1] for e, v in f.items()})


def _ref_divided_difference(f: dict, i: int) -> dict:
    out: dict = {}
    for exps, coef in f.items():
        a, b = exps[i - 1], exps[i]
        sign = 1 if a > b else -1
        lo, hi = min(a, b), max(a, b)
        for e in range(lo, hi):
            lst = list(exps)
            lst[i - 1], lst[i] = e, hi + lo - 1 - e
            key = tuple(lst)
            out[key] = out.get(key, QT_RAT_ZERO) + coef * sign
    return _nonzero(out)


def _assert_matches(got: MultiPoly, want: dict) -> None:
    assert dict(got.terms) == want
    for coef in got.terms.values():
        assert isinstance(coef, QtRat)
        assert gcd_cofactors(coef.num, coef.den)[0].is_one()
        assert coef.den.content_sign() > 0
    rebuilt = MultiPoly(got.m, want)
    assert rebuilt == got
    assert hash(rebuilt) == hash(got)


def test_fractional_arithmetic_matches_reference():
    rng = random.Random(606)
    over_t = QtRat(QT_ONE, T)
    for _ in range(40):
        m = rng.randint(2, 3)
        raw_f, raw_g = rand_fractional(rng, m), rand_fractional(rng, m)
        f, g = MultiPoly(m, raw_f), MultiPoly(m, raw_g)
        ref_f, ref_g = dict(f.terms), dict(g.terms)
        assert ref_f == _nonzero(raw_f) and ref_g == _nonzero(raw_g)
        c = rand_fraction(rng)
        i = rng.randint(1, m - 1)
        _assert_matches(f + g, _ref_add(ref_f, ref_g))
        _assert_matches(f - g, _ref_add(ref_f, _ref_scale(ref_g, QtRat(-1))))
        _assert_matches(f * g, _ref_mul(ref_f, ref_g))
        _assert_matches(f * c, _ref_scale(ref_f, c))
        _assert_matches(f.scale_var(i, Q), _ref_scale_var(ref_f, i, QtRat(Q)))
        _assert_matches(f.scale_var(i, over_t), _ref_scale_var(ref_f, i, over_t))
        _assert_matches(f.divided_difference(i), _ref_divided_difference(ref_f, i))
        a, b = rng.sample(range(1, m + 1), 2)
        _assert_matches(divide_exact_binomial(g * (x(m, a) - x(m, b)), a, b), ref_g)


def test_same_value_built_two_ways_is_equal():
    rng = random.Random(707)
    for _ in range(40):
        m = rng.randint(2, 3)
        f = MultiPoly(m, rand_fractional(rng, m))
        g = MultiPoly(m, rand_fractional(rng, m))
        c = rand_fraction(rng)
        if not c:
            continue
        for other in ((f * c) * c.inverse(), (f + g) - g, f.swap_vars(1, 2).swap_vars(1, 2)):
            assert other == f
            assert hash(other) == hash(f)
            assert dict(other.terms) == dict(f.terms)


def test_from_parts_reduces_and_fixes_sign():
    # (t*x1 - t*q*x2) / (-t^2) = (-x1 + q*x2) / t
    got = MultiPoly.from_parts(2, {(1, 0): {(0, 1): 1}, (0, 1): {(1, 1): -1}}, -(T * T))
    want = MultiPoly(2, {(1, 0): QtRat(-1) / T, (0, 1): QtRat(Q, T)})
    assert got == want
    assert hash(got) == hash(want)
    assert got.den == T


# -- the fused loops: products, one-term scalars, divided differences and the
# reduction by a monomial denominator, against per-coefficient QtRat arithmetic

_MONOMIAL_DENOMINATORS = (QT_ONE, T, -2 * T ** 3, Q * T, -QT_ONE, 3 * Q ** 2 * T)
_ONE_TERM_SCALARS = (QtRat(1), QtRat(-1), QtRat(T ** 2), QtRat(-T), QtRat(QT_ONE, T),
                     QtRat(6), QtRat(-2 * Q, 3 * T ** 3), QtRat(4 * T, -2 * Q * T))
_MULTI_TERM_SCALARS = (QtRat(QT_ONE - Q, T), QtRat(Q + T, -2 * T),
                       QtRat(2 - 4 * Q * T, 6 * Q), QtRat(QT_ONE - Q * T, QT_ONE - T))


def rand_over_monomial(rng: random.Random, m: int) -> dict:
    """Coefficients content * p / d on few exponent vectors, d a monomial
    denominator, so that sums cancel and reductions happen."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        num = rand_poly(rng, 2, 3) * rng.choice((1, 2, 6))
        terms[tuple(rng.randint(0, 2) for _ in range(m))] = QtRat(
            num, rng.choice(_MONOMIAL_DENOMINATORS))
    return terms


def _check_fused(got: MultiPoly, want: dict) -> None:
    _assert_matches(got, want)
    assert got.den.content_sign() > 0


def _fused_loops_match_reference() -> None:
    rng = random.Random(2424)
    seen = dict.fromkeys(("product cancels", "zero result", "one-term scalar",
                          "multi-term scalar", "reduced", "content above 1"), 0)
    for _ in range(250):
        m = rng.randint(2, 3)
        i = rng.randint(1, m - 1)
        f = MultiPoly(m, rand_over_monomial(rng, m))
        g = MultiPoly(m, rand_over_monomial(rng, m))
        ref_f, ref_g = dict(f.terms), dict(g.terms)
        swapped = f.swap_vars(i, i + 1)
        plus, minus = f + swapped, f - swapped  # (f + s)(f - s) = f^2 - s^2
        for a, b in ((f, g), (g, f), (plus, minus)):
            got = a * b
            _check_fused(got, _ref_mul(dict(a.terms), dict(b.terms)))
            keys = {tuple(map(add, ea, eb)) for ea in a.num for eb in b.num}
            seen["product cancels"] += len(got.num) < len(keys)
            seen["zero result"] += bool(a.num and b.num) and got.is_zero()
        for c in (rng.choice(_ONE_TERM_SCALARS), rng.choice(_MULTI_TERM_SCALARS)):
            _check_fused(f * c, _ref_scale(ref_f, c))
            _check_fused(c * g, _ref_scale(ref_g, c))
            seen["one-term scalar" if len(c.num.terms) == 1 else "multi-term scalar"] += 1
        for h in (f, plus, minus):
            got = h.divided_difference(i)
            _check_fused(got, _ref_divided_difference(dict(h.terms), i))
            seen["zero result"] += bool(h.num) and got.is_zero()
        content = rng.choice((1, 2, 6))
        num = {e: (QtPoly._of(p) * content).terms for e, p in (f * g).numerator().num.items()}
        den = rng.choice(_MONOMIAL_DENOMINATORS) * rng.choice((1, -2, 3))
        got = MultiPoly.from_parts(m, num, den)
        _check_fused(got, _nonzero({e: QtRat(QtPoly._of(p), den) for e, p in num.items()}))
        seen["reduced"] += bool(num) and got.den != den
        seen["content above 1"] += content > 1 and bool(num)
    assert min(seen.values()) >= 10, seen


def test_fused_loops_match_reference():
    start = perf_counter()
    _fused_loops_match_reference()
    elapsed = perf_counter() - start
    assert elapsed < 30.0, f"fused-loop property test took {elapsed:.1f}s"


def test_fused_loops_match_reference_under_optimize():
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    test = f"{Path(__file__).resolve()}::test_fused_loops_match_reference"
    done = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           test], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "1 passed" in done.stdout


def test_inexact_gcd_division_raises(monkeypatch):
    over_t = MultiPoly.const(2, QtRat(QT_ONE, T))
    over_t3 = MultiPoly.const(2, QtRat(QT_ONE, T ** 3))
    monkeypatch.setattr("macdet.multipoly.exact_div", lambda num, den: None)
    monkeypatch.setattr("macdet.qt.exact_div", lambda num, den: None)
    with pytest.raises(ArithmeticError):
        over_t * T
    with pytest.raises(ArithmeticError):
        over_t + over_t3


def test_inexact_division_raises_under_optimize():
    code = "\n".join([
        "import sys",
        "import macdet.multipoly as mp",
        "import macdet.qt",
        "from macdet.qt import QT_ONE, QtRat, T",
        "print(sys.flags.optimize)",
        "x1, x2 = mp.MultiPoly.variable(2, 1), mp.MultiPoly.variable(2, 2)",
        "try:",
        "    mp.divide_exact_binomial(x1 * x2 * QtRat(QT_ONE, T), 1, 2)",
        "except ArithmeticError:",
        "    print('binomial')",
        "over_t = mp.MultiPoly.const(2, QtRat(QT_ONE, T))",
        "mp.exact_div = macdet.qt.exact_div = lambda num, den: None",
        "try:",
        "    over_t * T",
        "except ArithmeticError:",
        "    print('gcd')",
    ])
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "binomial", "gcd"]


def test_str_golden():
    # verify reports print this text as counterexample detail
    f = (x(2, 1) - x(2, 2) * QtRat(T, Q - QT_ONE)) * x(2, 1) \
        + MultiPoly.const(2, QtRat(QT_ONE, T * T))
    assert str(f) == "x1^2 + ((t)/(1 - q))*x1*x2 + ((1)/(t^2))"
    assert str(f * QtRat(Q - QT_ONE, T)) == \
        "((-1 + q)/(t))*x1^2 + (-1)*x1*x2 + ((-1 + q)/(t^3))"


def _apply_all_ops(f: MultiPoly, g: MultiPoly, rng: random.Random) -> list:
    """Every operation under test on operands f and g; returns the results."""
    m = f.m
    i = rng.randint(1, m - 1)
    a, b = rng.sample(range(1, m + 1), 2)
    h = g * (x(m, a) - x(m, b))
    kept = [(p, copy.deepcopy(p.num)) for p in (f, g, h)]
    results = [f + g, g + f, f - g, g - f, f * g, g * f,
               f * rand_fraction(rng), f * 3, f.scale_var(i, Q),
               f.scale_var(i, QtRat(QT_ONE, T)), f.divided_difference(i),
               divide_exact_binomial(h, a, b)]
    for p, num in kept:
        assert p.num == num
    return results


def test_operations_never_mutate_operands():
    # numerator dicts are shared between MultiPolys (a result may hold an
    # operand's dicts), so no operation may write into an operand's
    rng = random.Random(808)
    for _ in range(30):
        m = rng.randint(2, 3)
        f = MultiPoly(m, rand_fractional(rng, m))
        g = MultiPoly(m, rand_fractional(rng, m))
        results = _apply_all_ops(f, g, rng)
        _apply_all_ops(results[0], results[4], rng)  # f + g and f * g


def _swap_by_terms(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """swap_vars as it was written before relabel: exchange two exponents
    term by term and rebuild through the public constructor."""
    out = {}
    for exps, coef in f.terms.items():
        lst = list(exps)
        lst[i - 1], lst[j - 1] = lst[j - 1], lst[i - 1]
        out[tuple(lst)] = coef
    return MultiPoly(f.m, out)


def test_relabel_matches_swap_chains():
    rng = random.Random(1616)
    for _ in range(200):
        m = rng.randint(1, 5)
        f = MultiPoly(m, rand_fractional(rng, m))
        chained = by_terms = f
        where = list(range(1, m + 1))  # where[p]: the variable now holding x_{p+1}'s exponent
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randint(1, m), rng.randint(1, m)
            chained = chained.swap_vars(i, j)
            by_terms = _swap_by_terms(by_terms, i, j)
            where = [j if w == i else i if w == j else w for w in where]
        assert f.relabel(where) == chained == by_terms


def test_relabel_inverts_and_matches_constructor():
    rng = random.Random(1717)
    for _ in range(200):
        m = rng.randint(1, 5)
        f = MultiPoly(m, rand_fractional(rng, m))
        target = rng.sample(range(1, m + 1), m)
        inverse = [target.index(k) + 1 for k in range(1, m + 1)]
        moved = f.relabel(target)
        built = {}
        for exps, coef in f.terms.items():
            lst = [0] * m
            for p, e in enumerate(exps):
                lst[target[p] - 1] = e
            built[tuple(lst)] = coef
        assert moved == MultiPoly(m, built)
        assert hash(moved) == hash(MultiPoly(m, built))
        assert moved.relabel(inverse) == f
    with pytest.raises(ValueError):
        x(3, 1).relabel((1, 1, 2))


def test_numerator_keeps_numerators_over_one():
    rng = random.Random(1818)
    for _ in range(50):
        m = rng.randint(1, 4)
        f = MultiPoly(m, rand_fractional(rng, m))
        assert f.numerator() == f * QtRat(f.den)
        assert f.numerator().den == QT_ONE

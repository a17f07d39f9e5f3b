import random
from itertools import combinations, combinations_with_replacement
from time import perf_counter

import pytest

from macdet import clear_caches
from macdet.divdiff import (
    _omega_rotate,
    _pairwise,
    block_word,
    chi_block,
    chi_omega,
    chi_slot,
    complete_of,
    dd_scalar_product,
    divided_difference_word,
    e_product_dual_basis,
    elementary_poly,
    longest_word,
    raw_creation_op,
    raw_macdonald_op,
    resultant,
    slot_word,
    sylvester_sum,
    t_factorial,
    t_slot_image,
    theta_subst,
    xbar_monomial,
)
from macdet.multipoly import MultiPoly, divide_exact_binomial
from macdet.partitions import partitions_of
from macdet.qt import QT_ONE, QT_RAT_ONE, Q, QtRat, T
from macdet.symfunc import SymExpansion, monomial_poly, realize_in_variables
from macdet.verify import _rand_symmetric

from conftest import rand_rat


def _x(m, i):
    return MultiPoly.variable(m, i)


def _rand_poly_vars(rng, m, max_deg=2, terms=3):
    out = MultiPoly.zero(m)
    for _ in range(terms):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(m))
        out = out + MultiPoly.monomial(m, exps, rng.choice([-2, -1, 1, 2, 3]))
    return out


def _block_symmetric_sample(rng, k, n, m):
    """Random polynomial symmetric in x_1..x_k and in x_{k+1}..x_n."""
    out = MultiPoly.zero(m)
    for _ in range(rng.randrange(1, 3)):
        term = MultiPoly.const(m, rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, 3)):
            e = rng.randrange(1, k + 1)
            term = term * elementary_poly(e, range(1, k + 1), m)
        for _ in range(rng.randrange(0, 3)):
            if n - k == 0:
                break
            e = rng.randrange(1, n - k + 1)
            term = term * elementary_poly(e, range(k + 1, n + 1), m)
        out = out + term
    return out


def test_words():
    assert slot_word(1, 3) == [1, 2]
    assert slot_word(3, 3) == []
    assert block_word(2, 4) == [2, 3, 1, 2]
    assert longest_word(3) == [1, 2, 1]
    assert longest_word(1) == []


def test_resultant_basic():
    m = 3
    one = QT_RAT_ONE
    r = resultant((one, (1,)), (one, (2,)), m)
    assert r == _x(m, 1) - _x(m, 2)
    scaled = resultant((QtRat(T), (1,)), (one, (2, 3)), m)
    assert scaled == (_x(m, 1) * QtRat(T) - _x(m, 2)) * (_x(m, 1) * QtRat(T) - _x(m, 3))
    # both scales non-trivial: (q x_1 - x_2/t)(q x_3 - x_2/t)
    inv_t = QtRat(QT_ONE, T)
    both = resultant((QtRat(Q), (1, 3)), (inv_t, (2,)), m)
    assert both == (_x(m, 1) * QtRat(Q) - _x(m, 2) * inv_t) \
        * (_x(m, 3) * QtRat(Q) - _x(m, 2) * inv_t)
    assert both != resultant((inv_t, (1, 3)), (QtRat(Q), (2,)), m)
    with pytest.raises(ValueError):
        resultant((one, (1, 2)), (one, (2, 3)), m)


def test_coxeter_relations():
    rng = random.Random(7)
    for _ in range(40):
        f = _rand_poly_vars(rng, 3, max_deg=3)
        a = divided_difference_word(f, [1, 2, 1])
        b = divided_difference_word(f, [2, 1, 2])
        assert a == b
        assert divided_difference_word(f, [1, 1]).is_zero()
    for _ in range(20):
        f = _rand_poly_vars(rng, 4, max_deg=2)
        assert divided_difference_word(f, [1, 3]) == divided_difference_word(f, [3, 1])


def test_chi_images_of_one():
    assert chi_omega(MultiPoly.const(2, 1), 2) == MultiPoly.const(2, 1) * (QT_ONE + QtRat(QT_ONE, T))
    for n in (2, 3, 4):
        one = MultiPoly.const(n, 1)
        for k in range(1, n + 1):
            img = chi_slot(one, k, n)
            assert img == MultiPoly.const(n, 1) * t_slot_image(k, n)
    assert chi_slot(MultiPoly.const(3, 1), 3, 3) == MultiPoly.const(3, 1)


def test_chi_slot_and_block_agree_on_the_first_letter():
    # At k = 1 the slot and the block are both x_1, with the same word.
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(4):
            f = _rand_poly_vars(rng, n, max_deg=2)
            assert chi_slot(f, 1, n) == chi_block(f, 1, n), (n, f)


def test_chi_omega_image_is_t_factorial():
    for k in (1, 2, 3):
        one = MultiPoly.const(k, 1)
        assert chi_omega(one, k) == one * t_factorial(k)


def test_theta_subst():
    m = 2
    f = _x(m, 1) ** 2 * _x(m, 2)
    from macdet.qt import Q

    assert theta_subst(f, 1) == f * QtRat(Q ** 2)
    with pytest.raises(ValueError):
        theta_subst(f, 3)


def test_scalar_product_duality_small():
    for m in (2, 3):
        rho = tuple(range(m))
        vectors = [()]
        for j in range(m):
            vectors = [v + (i,) for v in vectors for i in range(j + 1)]
        for I in vectors:
            for J in vectors:
                if sum(I) < sum(J):
                    sp = dd_scalar_product(
                        xbar_monomial(I, m),
                        e_product_dual_basis(tuple(r - j for r, j in zip(rho, J)), m),
                        m,
                    )
                    assert sp.is_zero()
                elif sum(I) == sum(J):
                    sp = dd_scalar_product(
                        xbar_monomial(I, m),
                        e_product_dual_basis(tuple(r - j for r, j in zip(rho, J)), m),
                        m,
                    )
                    assert sp == (1 if I == J else 0)


def test_scalar_product_pinned_value():
    f4 = realize_in_variables(SymExpansion.single("m", (2, 1, 1)), 4)
    sp6 = dd_scalar_product(xbar_monomial((0, 1, 2, 3, 0, 5), 6), f4, 6)
    assert sp6 == -3
    sp8 = dd_scalar_product(xbar_monomial((0, 1, 2, 3, 0, 5, 6, 7), 8), f4, 8)
    assert sp8 == -3


def test_scalar_product_degree_mismatch_flag():
    m = 3
    f = _x(m, 1) ** 4 * _x(m, 2) ** 2
    sp = dd_scalar_product(f, MultiPoly.const(m, 1), m)
    assert not sp.is_constant()


def test_sylvester_subset_sum_matches_word():
    rng = random.Random(19)
    for n in (2, 3, 4):
        for k in range(1, min(2, n) + 1):
            for _ in range(8):
                f = _block_symmetric_sample(rng, k, n, n)
                lhs = divided_difference_word(f, block_word(k, n))
                assert lhs == sylvester_sum(f, k, n)


def test_lagrange_subset_sum_matches_word():
    rng = random.Random(23)
    for n in (2, 3):
        for _ in range(10):
            tail = _block_symmetric_sample(rng, 1, n, n) if n > 1 else MultiPoly.const(n, 1)
            f = _x(n, 1) ** rng.randrange(3) * tail
            lhs = divided_difference_word(f, slot_word(1, n))
            assert lhs == sylvester_sum(f, 1, n)


def test_macdonald_operator_on_constant():
    one = MultiPoly.const(2, 1)
    expect = MultiPoly.const(2, 1) * QtRat(T + QT_ONE)
    assert raw_macdonald_op(one, 1, 2, route="subset") == expect
    assert raw_macdonald_op(one, 1, 2, route="dd") == expect


def test_macdonald_routes_agree():
    for n in (2, 3):
        samples = [MultiPoly.const(n, 1)]
        for w in (1, 2):
            for lam in partitions_of(w):
                if len(lam) <= n:
                    samples.append(monomial_poly(n, lam))
        for f in samples:
            for k in range(1, n + 1):
                a = raw_macdonald_op(f, k, n, route="subset")
                b = raw_macdonald_op(f, k, n, route="dd")
                assert a == b, (n, k, str(f))


def test_macdonald_rejects_asymmetric():
    f = _x(2, 1)
    with pytest.raises(ValueError):
        raw_macdonald_op(f, 1, 2)


def test_creation_on_empty():
    one = MultiPoly.const(1, 1)
    expect = _x(1, 1) * QtRat(QT_ONE - T)
    assert raw_creation_op(one, 1, 1, route="subset") == expect
    assert raw_creation_op(one, 1, 1, route="chi") == expect


def test_creation_routes_agree():
    for n in (2, 3):
        samples = [MultiPoly.const(n, 1)]
        for lam in [(1,), (2,), (1, 1)]:
            if len(lam) <= n:
                samples.append(monomial_poly(n, lam))
        for f in samples:
            for k in range(1, n + 1):
                a = raw_creation_op(f, k, n, route="subset")
                b = raw_creation_op(f, k, n, route="chi")
                assert a == b, (n, k, str(f))


def test_creation_rejects_asymmetric():
    # the subset route relabels one product per subset, which is exact
    # only for an input symmetric in x_1..x_n
    for route in ("subset", "chi"):
        with pytest.raises(ValueError):
            raw_creation_op(_x(2, 1), 1, 2, route=route)
        with pytest.raises(ValueError):
            raw_creation_op(_x(3, 2) ** 2 + _x(3, 1), 2, 3, route=route)


def test_routes_agree_at_four_variables():
    clear_caches()
    rng = random.Random(44)
    samples = [MultiPoly.const(4, 1)] + [monomial_poly(4, lam) for lam in [(1,), (2,), (1, 1)]]
    samples += [_rand_symmetric(rng, 4, 2) for _ in range(2)]
    start = perf_counter()
    for op, routes in ((raw_macdonald_op, ("subset", "dd")),
                       (raw_creation_op, ("subset", "chi"))):
        for f in samples:
            for k in range(1, 5):
                a, b = (op(f, k, 4, route=route) for route in routes)
                assert a == b, (op.__name__, k, str(f))
    elapsed = perf_counter() - start
    assert elapsed < 10.0, f"routes at n = 4 took {elapsed:.1f}s"


def _sylvester_per_subset(f, k, n):
    """The subset sum with one product per subset: f moved by subset + rest,
    times the subset's sign and Vandermonde cofactor, over V(x_1..x_n)."""
    m = f.m
    universe, tail = tuple(range(1, n + 1)), tuple(range(n + 1, m + 1))
    total = MultiPoly.zero(m)
    for subset in combinations(universe, k):
        rest = tuple(i for i in universe if i not in subset)
        inversions = sum(1 for i in subset for r in rest if r < i)
        cofactor = _vandermonde_by_loop(subset, m) * _vandermonde_by_loop(rest, m)
        total = total + f.relabel(subset + rest + tail) * cofactor * (-1) ** inversions
    for a, b in combinations(universe, 2):
        total = divide_exact_binomial(total, a, b)
    return total


def test_sylvester_sum_matches_per_subset_products():
    rng = random.Random(4343)
    for n in range(1, 5):
        for m in (n, n + 1):
            for k in range(1, n + 1):
                front = resultant((QT_RAT_ONE, tuple(range(1, k + 1))),
                                  (QT_RAT_ONE, tuple(range(k + 1, n + 1))), m)
                for _ in range(3):
                    # block-symmetric, and R(X_1..k, X_k+1..n) times anything,
                    # whose sum is divisible by the Vandermonde too
                    for f in (_block_symmetric_sample(rng, k, n, m),
                              front * _rand_poly_vars(rng, m)):
                        assert sylvester_sum(f, k, n) == _sylvester_per_subset(f, k, n), \
                            (n, m, k, str(f))


def test_cold_subset_creation_product_ceiling(monkeypatch):
    # 120 products of two MultiPolys when each of the C(4, 2) subsets, and
    # each nested Macdonald subset, was multiplied by its own cofactor
    calls = []
    real = MultiPoly.__mul__

    def counted(a, b):
        if isinstance(b, MultiPoly):
            calls.append(None)
        return real(a, b)

    f = monomial_poly(4, (1, 1))
    clear_caches()
    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    out = raw_creation_op(f, 2, 4, route="subset")
    monkeypatch.undo()
    assert len(calls) <= 17
    assert out == raw_creation_op(f, 2, 4, route="chi")


def test_complete_of_basics():
    m = 3
    letters = (1, 2, 3)
    one = QtRat(1)
    for j in range(4):
        assert complete_of(j, [(1, one, letters)], m) == realize_in_variables(
            SymExpansion.single("h", (j,) if j else ()), m
        )
    assert complete_of(2, [(-1, one, letters)], m) == elementary_poly(2, letters, m)
    assert complete_of(3, [(-1, one, letters)], m) == -elementary_poly(3, letters, m)
    t = QtRat(T)
    single = (1,)
    for j in range(1, 5):
        got = complete_of(j, [(1, t, single), (-1, one, single)], 1)
        want = MultiPoly.monomial(1, (j,), 1) * QtRat(T ** (j - 1) * (T - QT_ONE), QT_ONE)
        assert got == want
    rng = random.Random(3)
    for _ in range(10):
        j = rng.randrange(4)
        split = complete_of(
            j, [(1, one, (1,)), (1, one, (2, 3))], m
        )
        assert split == complete_of(j, [(1, one, letters)], m)


def _direct_component(e, comp, m):
    """Complete function of degree e of one signed scaled alphabet, from
    the monomials of h_e (sign +1) or e_e (sign -1) of its letters."""
    sign, scale, letters = comp
    out = MultiPoly.zero(m)
    picks = combinations_with_replacement if sign > 0 else combinations
    for pick in picks(letters, e):
        exps = [0] * m
        for i in pick:
            exps[i - 1] += 1
        out = out + MultiPoly.monomial(m, tuple(exps))
    return out * (scale if sign > 0 else -scale) ** e


def _direct_complete(j, components, m):
    """Degree-by-degree convolution of the component complete functions."""
    acc = [MultiPoly.const(m, 1)] + [MultiPoly.zero(m)] * j
    for comp in components:
        pieces = [_direct_component(e, comp, m) for e in range(j + 1)]
        acc = [sum((acc[d] * pieces[total - d] for d in range(total + 1)), MultiPoly.zero(m))
               for total in range(j + 1)]
    return acc[j]


def _rand_components(rng, m):
    scales = [QtRat(1), QtRat(T), QtRat(QT_ONE, T), QtRat(T ** 2)]
    comps = []
    for _ in range(rng.randint(1, 3)):
        letters = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        comps.append((rng.choice([1, -1]), rng.choice(scales), letters))
    return comps


def test_complete_of_matches_direct_convolution():
    clear_caches()
    rng = random.Random(15)
    for _ in range(40):
        m = rng.randint(1, 4)
        comps = _rand_components(rng, m)
        for j in range(6):
            want = _direct_complete(j, comps, m)
            assert complete_of(j, comps, m) == want, (j, comps, m)
            assert complete_of(j, tuple(comps), m) == want, (j, comps, m)
    for m in range(1, 5):
        for scale in (QtRat(1), QtRat(T)):
            letters = tuple(range(1, m + 1))
            for j in range(1, 6):
                assert complete_of(j, [(1, scale, letters), (-1, scale, letters)], m).is_zero()


def test_cached_complete_of_survives_arithmetic():
    clear_caches()
    m = 3
    comps = [(1, QtRat(T), (1, 2)), (-1, QtRat(1), (2, 3))]
    first = complete_of(4, comps, m)
    want = _direct_complete(4, comps, m)
    mixed = (first * first + first - first.scale_var(1, Q)).divided_difference(1)
    mixed = -(mixed * QtRat(QT_ONE, T - QT_ONE)) + first.swap_vars(1, 3)
    assert not mixed.is_zero()
    assert complete_of(4, tuple(comps), m) is first
    assert first == want
    clear_caches()
    fresh = complete_of(4, comps, m)
    assert fresh is not first
    assert (fresh.num, fresh.den) == (first.num, first.den) and fresh == want


@pytest.mark.parametrize("den", [Q - QT_ONE, QT_ONE - Q * T,
                                 (Q ** 2 - QT_ONE) * (T - QT_ONE)],
                         ids=["q-1", "1-qt", "(q^2-1)(t-1)"])
def test_raw_operators_commute_with_a_denominator(den):
    inv = QtRat(QT_ONE, den)
    rng = random.Random(9)
    routes = [(raw_macdonald_op, "subset"), (raw_macdonald_op, "dd"),
              (raw_creation_op, "subset"), (raw_creation_op, "chi")]
    for n in (1, 2, 3):
        for _ in range(2):
            f = _rand_symmetric(rng, n, 2)
            scaled = f * inv
            assert scaled.den == den or scaled.den == -den
            for op, route in routes:
                for k in range(1, n + 1):
                    assert op(scaled, k, n, route=route) == op(f, k, n, route=route) * inv, \
                        (op.__name__, route, n, k, str(f))


def test_t_factorial_values():
    assert t_factorial(0) == QtRat(1)
    assert t_factorial(1) == QtRat(1)
    assert t_factorial(2) == QtRat(T + QT_ONE, T)
    assert t_slot_image(2, 4) == QtRat(T ** 2 + T + QT_ONE, T ** 2)


def _rand_rational_vars(rng, m):
    """Up to five terms of degree at most 2 per letter, rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[tuple(rng.randint(0, 2) for _ in range(m))] = rand_rat(rng)
    return MultiPoly(m, terms)


def _omega_rotate_by_swaps(f, k):
    """The cycle as it was written before relabel: k - 1 adjacent swaps."""
    out = theta_subst(f, k)
    for j in range(k - 1, 0, -1):
        out = out.swap_vars(j, j + 1)
    return out


def test_omega_rotate_matches_adjacent_swaps():
    rng = random.Random(1919)
    for _ in range(150):
        m = rng.randint(1, 5)
        k = rng.randint(1, m)
        f = _rand_rational_vars(rng, m)
        assert _omega_rotate(f, k) == _omega_rotate_by_swaps(f, k)


def _vandermonde_by_loop(indices, m):
    out = MultiPoly.const(m, 1)
    for a, b in combinations(indices, 2):
        out = out * (MultiPoly.variable(m, a) - MultiPoly.variable(m, b))
    return out


def _chi_omega_product_by_loop(k, m):
    inv_t = QtRat(QT_ONE, T)
    res = MultiPoly.const(m, 1)
    for i in range(1, k + 1):
        xi = MultiPoly.variable(m, i)
        for j in range(i + 1, k + 1):
            res = res * (xi - MultiPoly.variable(m, j) * inv_t)
    return res


def test_pairwise_matches_vandermonde_and_chi_omega_products():
    rng = random.Random(2020)
    for _ in range(60):
        m = rng.randint(1, 5)
        indices = tuple(rng.sample(range(1, m + 1), rng.randint(0, m)))
        assert _pairwise(indices, QT_RAT_ONE, m) == _vandermonde_by_loop(indices, m)
        scale = rand_rat(rng)
        want = MultiPoly.const(m, 1)
        for a, b in combinations(indices, 2):
            want = want * (_x(m, a) - _x(m, b) * scale)
        assert _pairwise(indices, scale, m) == want
    for m in range(1, 6):
        for k in range(1, m + 1):
            assert (_pairwise(tuple(range(1, k + 1)), QtRat(QT_ONE, T), m)
                    == _chi_omega_product_by_loop(k, m))

"""Basis expansions: ordered expansion, conversions, and plethystic
realization."""

import hashlib
import json
import random
from itertools import permutations
from time import perf_counter

import pytest

import macdet
from macdet.cli import compute_expansion
from macdet.multipoly import MultiPoly
from macdet.partitions import pad, partition, partitions_of, z_factor
import macdet.symfunc as symfunc_module
from macdet.qt import QT_ONE, QT_RAT_ZERO, PackedPoly, Q, QtPoly, QtRat, T, pack, pack_width
from macdet.symfunc import (
    _INTEGER_TABLES,
    BASIS_TAGS,
    _ROUTES,
    SymExpansion,
    _convert_step,
    _s_to_h,
    convert_basis,
    expansion_by_shape,
    monomial_poly,
    ordered_expansion,
    realize_in_variables,
    sym_to_json,
)

from conftest import rand_poly


def signed_permutation_support(mu, n):
    """Oracle for ordered_expansion: permutations of mu + staircase."""
    rho = tuple(range(n - 1, -1, -1))
    v = tuple(a + b for a, b in zip(pad(mu, n), rho))
    out = {}
    for sigma in permutations(range(n)):
        w = tuple(v[sigma[i]] for i in range(n))
        alpha = tuple(w[i] - rho[i] for i in range(n))
        if any(a < 0 for a in alpha):
            continue
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if sigma[i] > sigma[j])
        out[alpha] = -1 if inv % 2 else 1
    return out


def test_ordered_expansion_pinned_hook_example():
    assert ordered_expansion((3, 1, 1), 3) == {
        (3, 1, 1): 1, (0, 4, 1): -1, (0, 0, 5): 1, (3, 0, 2): -1}


def test_ordered_expansion_small_examples():
    assert ordered_expansion((2,), 2) == {(2, 0): 1}
    assert ordered_expansion((1, 1), 2) == {(1, 1): 1, (0, 2): -1}


def test_ordered_expansion_rejects_short_length():
    with pytest.raises(ValueError):
        ordered_expansion((1, 1, 1), 2)


def test_ordered_expansion_matches_permutation_expansion():
    for w in range(6):
        for mu in partitions_of(w):
            for n in (len(mu), len(mu) + 1):
                if n == 0:
                    continue
                assert ordered_expansion(mu, n) == signed_permutation_support(mu, n)


def test_ordered_expansion_is_one_cached_read_only_mapping():
    """A second call returns the same mapping, which refuses writes, and
    its keys ascend lexicographically, as _creation_walk's prefix
    sharing needs."""
    macdet.clear_caches()
    for w in range(8):
        for mu in partitions_of(w):
            for n in (max(len(mu), 1), len(mu) + 2):
                table = ordered_expansion(mu, n)
                assert ordered_expansion(mu, n) is table
                keys = list(table)
                assert keys == sorted(keys), (mu, n)
                with pytest.raises(TypeError):
                    table[keys[0]] = 0
                with pytest.raises(TypeError):
                    table[(w + 1,) + (0,) * (n - 1)] = 1


def _s_to_h_by_sorting(mu):
    """s -> h as the signed sum over the ordered expansion of mu in
    len(mu) variables, each composition sorted into a partition."""
    out = {}
    for alpha, sign in ordered_expansion(mu, len(mu)).items():
        key = partition(sorted(alpha, reverse=True))
        out[key] = out.get(key, 0) + sign
    return tuple(sorted((k, v) for k, v in out.items() if v))


def test_s_to_h_sums_the_expansion_by_shape():
    for w in range(9):
        for mu in partitions_of(w):
            assert _s_to_h(mu) == _s_to_h_by_sorting(mu), mu


def test_expansion_by_shape_groups_the_ordered_expansion():
    for w in range(7):
        for mu in partitions_of(w):
            for n in (max(len(mu), 1), len(mu) + 2):
                grouped = expansion_by_shape(mu, n)
                pairs = [(alpha, sign) for cell in grouped.values() for sign, alpha in cell]
                assert sorted(pairs) == sorted(ordered_expansion(mu, n).items()), (mu, n)
                for shape, cell in grouped.items():
                    alphas = [alpha for _, alpha in cell]
                    assert alphas == sorted(alphas, reverse=True)
                    assert all(partition(sorted(a, reverse=True)) == shape for a in alphas)


def test_convert_examples():
    s11 = SymExpansion.single("s", (1, 1))
    assert convert_basis(s11, "h").terms == {
        (1, 1): QtRat.from_int(1), (2,): QtRat.from_int(-1)}
    m1 = SymExpansion.single("m", (1,))
    assert convert_basis(m1, "s").terms == {(1,): QtRat.from_int(1)}
    h2 = SymExpansion.single("h", (2,))
    assert convert_basis(h2, "m").terms == {
        (2,): QtRat.from_int(1), (1, 1): QtRat.from_int(1)}


def test_convert_round_trips():
    for w in range(7):
        for lam in partitions_of(w):
            for a, b in (("s", "h"), ("m", "s"), ("p", "h"), ("m", "p")):
                f = SymExpansion.single(a, lam)
                back = convert_basis(convert_basis(f, b), a)
                assert back == f, (lam, a, b)


def test_convert_modified_pair():
    f = SymExpansion.single("s-mod", (2, 1))
    g = convert_basis(f, "h-mod")
    assert g.basis == "h-mod"
    assert convert_basis(g, "s-mod") == f
    with pytest.raises(ValueError):
        convert_basis(f, "s")
    with pytest.raises(ValueError):
        convert_basis(SymExpansion.single("s", (1,)), "h-mod")


def test_convert_to_the_same_basis_is_the_expansion_itself():
    for tag in BASIS_TAGS:
        f = SymExpansion(tag, 3, {(2, 1): QtRat(QT_ONE - Q), (3,): QtRat(T, QT_ONE + Q)})
        assert convert_basis(f, tag) is f, tag


def term_by_term_conversion(f, target):
    """convert_basis along the same route, with every table entry times
    its coefficient added into the output as a QtRat on its own, and the
    number of sums that cancelled to zero on the way."""
    terms, source, cancelled = f.terms, f.basis[0], 0
    for step in _ROUTES[(source, target[0])]:
        out = {}
        for lam, c in terms.items():
            for rho, k in _INTEGER_TABLES[(source, step)](lam):
                out[rho] = out.get(rho, QT_RAT_ZERO) + c * k
        if step == "p":
            out = {rho: c / z_factor(rho) for rho, c in out.items()}
        cancelled += sum(1 for c in out.values() if not c)
        terms, source = {rho: c for rho, c in out.items() if c}, step
    return SymExpansion(target, f.weight, terms), cancelled


def test_conversion_sums_match_term_by_term_sums():
    """Expansions with polynomial and rational coefficients over a few
    shared denominators convert along every route, and the modified
    pair, as the term-by-term QtRat sums do."""
    macdet.clear_caches()
    rng = random.Random(28)
    nums = (QT_ONE, -QT_ONE, Q, -T, Q - T, QT_ONE + QT_ONE)
    dens = (QT_ONE, QT_ONE, Q - QT_ONE, T - QT_ONE, Q * T - QT_ONE)
    pairs = list(_ROUTES) + [("s-mod", "h-mod"), ("h-mod", "s-mod")]
    cancelled = shared = mixed = 0
    start = perf_counter()
    for w in range(1, 6):
        shapes = partitions_of(w)
        for source, target in pairs:
            for _ in range(3):
                drawn = rng.sample(shapes, rng.randint(1, len(shapes)))
                f = SymExpansion(source, w, {lam: QtRat(rng.choice(nums), rng.choice(dens))
                                             for lam in drawn})
                rational = [c.den for c in f.terms.values() if not c.is_polynomial()]
                shared += len(set(rational)) < len(rational)
                mixed += 0 < len(rational) < len(f.terms)
                want, zeros = term_by_term_conversion(f, target)
                cancelled += zeros
                assert convert_basis(f, target) == want, (f, target)
    elapsed = perf_counter() - start
    assert cancelled and shared and mixed
    assert elapsed < 3.0, f"conversions took {elapsed:.1f}s"


def test_conversion_of_large_coefficients_matches_term_by_term(monkeypatch):
    """Coefficients around 2^40, 2^70 and 2^150 over shared denominators
    convert along every route, and the modified pair, as the term-by-term
    QtRat sums do, and pack at widths 64, 128 and 192.  Every other input
    is a target-basis expansion taken back to the source by the
    reference, so that converting it forward cancels most sums."""
    widths = set()
    monkeypatch.setattr("macdet.symfunc.pack_width",
                        lambda bound: widths.add(pack_width(bound)) or pack_width(bound))
    rng = random.Random(30)
    dens = (QT_ONE, Q - QT_ONE, Q * T - QT_ONE)
    pairs = list(_ROUTES) + [("s-mod", "h-mod"), ("h-mod", "s-mod")]
    shapes = partitions_of(4)
    cancelled = shared = 0

    def draw(basis, scale):
        drawn = rng.sample(shapes, rng.randint(1, len(shapes)))
        return SymExpansion(basis, 4, {
            lam: QtRat(QtPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                               rng.choice((-1, 1)) * (scale + rng.randrange(scale))
                               for _ in range(3)}), rng.choice(dens))
            for lam in drawn})

    for scale in (2**40, 2**70, 2**150):
        for source, target in pairs:
            back, _ = term_by_term_conversion(draw(target, scale), source)
            for f in (draw(source, scale), back):
                dens_used = [c.den for c in f.terms.values()]
                shared += len(set(dens_used)) < len(dens_used)
                want, zeros = term_by_term_conversion(f, target)
                cancelled += zeros
                assert convert_basis(f, target) == want, (scale, source, target)
    assert cancelled and shared
    assert {64, 128, 192} <= widths


def test_conversion_width_bound_covers_every_output(monkeypatch):
    """The bound each step packs a denominator group at is at least every
    output coefficient.  The inputs are polynomial, so each step packs one
    group: the Schur expansions of J that the creation route converts to
    monomials, and random expansions on every table."""
    bounds = []
    monkeypatch.setattr("macdet.symfunc.pack_width",
                        lambda bound: bounds.append(bound) or pack_width(bound))
    rng = random.Random(31)
    cases = [(compute_expansion(lam, "schur", "creation").terms, "s", "m")
             for w in range(1, 8) for lam in partitions_of(w)]
    for w in range(1, 7):
        shapes = partitions_of(w)
        for source, target in _INTEGER_TABLES:
            for _ in range(3):
                drawn = rng.sample(shapes, rng.randint(1, len(shapes)))
                cases.append(({lam: QtRat(rand_poly(rng, coeff_bound=100, nonzero=True))
                               for lam in drawn}, source, target))
    for terms, source, target in cases:
        del bounds[:]
        out = _convert_step(terms, source, target)
        assert len(bounds) == 1, (source, target)
        top = max((abs(c) for coef in out.values() for c in coef.num.terms.values()), default=0)
        assert top <= bounds[0], (source, target)
    macdet.clear_caches()


def test_conversion_is_exact_at_the_bound_and_not_below(monkeypatch):
    """An output coefficient that meets the bound converts right at
    pack_width(bound) and wrong at the next narrower width, where it is no
    longer a balanced digit: the bound is what makes the decode exact."""
    widths = [8, 16, 32, 64, 128, 192]
    row = dict(_INTEGER_TABLES[("p", "h")]((4,)))
    top = max(map(abs, row.values()))
    for low in (2**15, 2**63, 2**127):
        c = -(-low // top)
        terms = {(4,): QtRat(QtPoly({(0, 0): c, (1, 1): -c, (2, 0): 1}))}
        want = {rho: QtRat(terms[(4,)].num * k) for rho, k in row.items()}
        got = _convert_step(terms, "p", "h")
        assert got == want
        out_top = max(abs(v) for coef in got.values() for v in coef.num.terms.values())
        assert out_top == c * top >= low
        with monkeypatch.context() as patch:
            patch.setattr("macdet.symfunc.pack_width",
                          lambda bound: widths[widths.index(pack_width(bound)) - 1])
            assert _convert_step(terms, "p", "h") != want, low


def _packed(poly, span, width, swap=False):
    """poly as a PackedPoly at (span, width), or with swap poly.swap_qt()
    held swapped, bound by its largest coefficient."""
    terms = (poly.swap_qt() if swap else poly).terms
    return PackedPoly(pack(terms, span, width), span, width,
                      max(map(abs, terms.values()), default=0), swap)


def test_packed_groups_keep_their_layout_and_mixed_groups_are_packed_again(monkeypatch):
    """A denominator group of PackedPoly numerators on one (span, swap)
    sums on that layout, at any mix of widths, with no pack call and no
    input decoded; a group of two spans or of both key orders, or one
    that mixes a swapped and an unswapped PackedPoly, another span and a
    plain QtPoly, is scanned and packed.  All match the term-by-term
    sums on every table."""
    packs, decoded = [], []
    monkeypatch.setattr("macdet.symfunc.pack",
                        lambda *args: packs.append(1) or pack(*args))
    read = PackedPoly.__getattr__
    monkeypatch.setattr(PackedPoly, "__getattr__",
                        lambda self, name: decoded.append(self) or read(self, name))
    rng = random.Random(32)
    shapes = partitions_of(5)
    fallbacks = 0
    for source, target in _INTEGER_TABLES:
        for trial in range(6):
            drawn = rng.sample(shapes, rng.randint(4, len(shapes)))
            rats = {lam: QtRat(rand_poly(rng, max_deg=4, coeff_bound=100, nonzero=True),
                               QT_ONE - Q * T) for lam in drawn}
            swap = trial % 2 == 1
            kinds = range(len(rats))
            groups = {
                "one layout": [(5, rng.choice((8, 16, 64, 128)), swap) for _ in kinds],
                "two spans": [(9 if i % 2 else 5, 64, swap) for i in kinds],
                "both keys": [(5, 64, i % 2 == 1) for i in kinds],
                "mixed": [None if i % 4 == 3 else (9 if i % 4 == 2 else 5, 128, i % 4 == 1)
                          for i in kinds],
            }
            want, _ = term_by_term_conversion(SymExpansion(source, 5, rats), target)
            for name, layouts in groups.items():
                terms = {lam: QtRat(r.num if layout is None else _packed(r.num, *layout), r.den,
                                    _reduced=True)
                         for (lam, r), layout in zip(rats.items(), layouts)}
                del packs[:], decoded[:]
                got = _convert_step(terms, source, target)
                if name == "one layout":
                    inputs = {id(c.num) for c in terms.values()}
                    assert packs == [] and not inputs & set(map(id, decoded)), (source, target)
                else:
                    fallbacks += bool(packs)
                assert got == want.terms, (source, target, name)
    assert fallbacks == 3 * 6 * len(_INTEGER_TABLES)


def test_every_conversion_output_is_within_its_bound(monkeypatch):
    """Every PackedPoly a conversion step returns, before the division by
    z_rho on the edge into p, carries a bound at least each of its
    coefficients: the bound the packed path sums instead of scanning.  The
    inputs are the Schur coefficients of J through weight 7, as packed
    sums with swapped keys and as plain polynomials, on every table."""
    divided = []
    over_int = symfunc_module._over_int
    monkeypatch.setattr("macdet.symfunc._over_int",
                        lambda c, z: divided.append(c) or over_int(c, z))
    checked = 0
    for w in range(1, 8):
        for lam in partitions_of(w):
            packed = compute_expansion(lam, "schur", "creation").terms
            assert all(c.num.swap for c in packed.values())
            plain = {mu: QtRat(QtPoly(c.num.terms)) for mu, c in packed.items()}
            for terms in (packed, plain):
                for source, target in _INTEGER_TABLES:
                    del divided[:]
                    out = _convert_step(terms, source, target)
                    for coef in (divided if target == "p" else out.values()):
                        assert isinstance(coef.num, PackedPoly), (lam, source, target)
                        top = max(map(abs, coef.num.terms.values()))
                        assert top <= coef.num.bound, (lam, source, target)
                        checked += 1
    assert checked > 1000
    macdet.clear_caches()


# sha256 of the sorted-key JSON of J_lam by the creation route in the Schur
# basis and then in the monomial basis, for every shape of each weight in
# partitions_of order, as computed before the conversion ran on packed
# integers.
CONVERSION_SHA256 = {
    1: "5445b1c193287038fa16e958056c7d2165452184d984820ec92324e9a2749017",
    2: "eca9340cc8df308a919ba06c5079cf030ca3f28e5d4c41d11d51508259cb53d8",
    3: "32457bb44aa77c04be6472a5386a5f80dc7038060bba1972a3b7c7174934edbd",
    4: "4885facf5d98921e10c787f44d0f1e613b447d8c6fb399a5b493ad9ca28b46e0",
    5: "befb2569c14fa6c57bf3545737c5d80b53f7c9f80ac558b67daefda045cf95b9",
    6: "ea460e43798c300726be5ed014fd35b71f8f502be483c25c379f3fb6363c3dd4",
    7: "2d811b6438a760c5a4a96c4cfd0e856174903f2c7bb76686138aa621e8fe1ff9",
    8: "0e57f0be4b61df0b30a4082f8ec177a1bf95f790d3b14fb5a08a4fce2667f4db",
    9: "831ca01a589b512f5e22a22a53fab550bfa288489db526413cf4a732040e9856",
    10: "a26de4493b0c9f4b280b1ad8845a64f44fbba5cb46da47b6586e261290bdbc75",
}


def test_creation_conversions_pinned_through_weight_10():
    for w, pinned in CONVERSION_SHA256.items():
        digest = hashlib.sha256()
        for basis in ("schur", "monomial"):
            for lam in partitions_of(w):
                record = sym_to_json(compute_expansion(lam, basis, "creation"))
                digest.update(json.dumps(record, sort_keys=True).encode())
        assert digest.hexdigest() == pinned, w
    macdet.clear_caches()


def test_mixed_basis_arithmetic_rejected():
    a = SymExpansion.single("s", (1,))
    b = SymExpansion.single("h", (1,))
    with pytest.raises(ValueError):
        _ = a + b


def ssyt_polynomial(lam, mu, n):
    """Sum of content monomials over column-strict skew fillings."""
    lam = partition(lam)
    mu = pad(partition(mu), len(lam))
    rows = [(mu[i], lam[i]) for i in range(len(lam))]
    total = MultiPoly.zero(n)
    grid: dict[tuple[int, int], int] = {}

    def fill(i: int, j: int) -> None:
        nonlocal total
        if i == len(rows):
            exps = [0] * n
            for value in grid.values():
                exps[value - 1] += 1
            total = total + MultiPoly.monomial(n, tuple(exps))
            return
        start, stop = rows[i]
        if j >= stop:
            fill(i + 1, rows[i + 1][0] if i + 1 < len(rows) else 0)
            return
        lo = 1
        if j > start:
            lo = max(lo, grid[(i, j - 1)])
        if i > 0 and (i - 1, j) in grid:
            lo = max(lo, grid[(i - 1, j)] + 1)
        for value in range(lo, n + 1):
            grid[(i, j)] = value
            fill(i, j + 1)
            del grid[(i, j)]

    if len(lam) == 0:
        return MultiPoly.const(n, 1)
    fill(0, rows[0][0])
    return total


def ssyt_count(lam, mu):
    """Semistandard tableaux of shape lam and content mu, filled cell by
    cell along the rows."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    left = list(mu)
    grid = {}

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = max(grid.get((i, j - 1), 1), grid.get((i - 1, j), 0) + 1)
        total = 0
        for value in range(lo, len(mu) + 1):
            if left[value - 1]:
                left[value - 1] -= 1
                grid[(i, j)] = value
                total += fill(k + 1)
                del grid[(i, j)]
                left[value - 1] += 1
        return total

    return fill(0)


def test_integer_tables_match_ssyt_counts():
    # the Kostka number K_{lam,mu} is both [m_mu] s_lam and [s_lam] h_mu,
    # and s_lam = sum over mu of K_{lam,mu} m_mu read back through m -> s
    for w in range(8):
        shapes = partitions_of(w)
        m_to_s = {mu: convert_basis(SymExpansion.single("m", mu), "s")
                  for mu in shapes}
        for lam in shapes:
            s_lam = convert_basis(SymExpansion.single("s", lam), "m")
            rebuilt = SymExpansion("s", w)
            for mu in shapes:
                kostka = ssyt_count(lam, mu)
                h_mu = convert_basis(SymExpansion.single("h", mu), "s")
                assert s_lam.terms.get(mu, QT_RAT_ZERO) == QtRat.from_int(kostka), (lam, mu)
                assert h_mu.terms.get(lam, QT_RAT_ZERO) == QtRat.from_int(kostka), (lam, mu)
                rebuilt = rebuilt + m_to_s[mu] * kostka
            assert rebuilt == SymExpansion.single("s", lam), lam


def power_sum_monomial_count(rho, mu):
    """Maps from the parts of rho to positions 1..len(mu) whose position
    sums are mu: the coefficient of x^mu, hence of m_mu, in p_rho."""

    def count(j, room):
        if j == len(rho):
            return int(not any(room))
        return sum(count(j + 1, room[:i] + (r - rho[j],) + room[i + 1:])
                   for i, r in enumerate(room) if r >= rho[j])

    return count(0, tuple(mu))


def test_power_sum_tables_match_map_counts():
    # p -> m runs through Newton's p -> h; m -> p is its z-scaled
    # transpose, so the two must be inverse matrices
    for w in range(8):
        shapes = partitions_of(w)
        p_to_m = {rho: convert_basis(SymExpansion.single("p", rho), "m")
                  for rho in shapes}
        m_to_p = {mu: convert_basis(SymExpansion.single("m", mu), "p")
                  for mu in shapes}
        for rho in shapes:
            for mu in shapes:
                count = power_sum_monomial_count(rho, mu)
                assert p_to_m[rho].terms.get(mu, QT_RAT_ZERO) == QtRat.from_int(count), (rho, mu)
        for mu in shapes:
            for nu in shapes:
                total = QtRat.from_int(0)
                for rho, c in m_to_p[mu].terms.items():
                    total = total + c * p_to_m[rho].terms.get(nu, QT_RAT_ZERO)
                assert total == QtRat.from_int(int(mu == nu)), (mu, nu)


def test_realize_examples():
    x1 = MultiPoly.variable(2, 1)
    x2 = MultiPoly.variable(2, 2)
    assert realize_in_variables(SymExpansion.single("s", (1,)), 2) == x1 + x2
    assert realize_in_variables(SymExpansion.single("m", (1, 1)), 1).is_zero()
    assert realize_in_variables(SymExpansion.single("h", (2,)), 2) == (
        x1 ** 2 + x1 * x2 + x2 ** 2)


def test_realize_schur_matches_ssyt():
    for w in range(1, 6):
        for lam in partitions_of(w):
            for n in (2, 3, 4):
                got = realize_in_variables(SymExpansion.single("s", lam), n)
                assert got == ssyt_polynomial(lam, (), n), (lam, n)


def test_realize_monomial_round_trip():
    for lam in partitions_of(4):
        f = SymExpansion.single("s", lam)
        realized = realize_in_variables(f, 4)
        m_form = convert_basis(f, "m")
        rebuilt = MultiPoly.zero(4)
        for mu, coef in m_form.terms.items():
            rebuilt = rebuilt + monomial_poly(4, mu) * coef
        assert realized == rebuilt


def test_complete_addition_law_on_split_alphabets():
    for k in range(6):
        for a, b in ((1, 2), (2, 2), (3, 1)):
            m = a + b
            lhs = realize_in_variables(
                SymExpansion.single("h", (k,)) if k else SymExpansion.single("h", ()), m)
            rhs = MultiPoly.zero(m)
            for j in range(k + 1):
                left = SymExpansion.single("h", (j,)) if j else SymExpansion.single("h", ())
                right = (SymExpansion.single("h", (k - j,)) if k - j
                         else SymExpansion.single("h", ()))
                fa = realize_in_variables(left, a).extend(m)
                g = realize_in_variables(right, b)
                fb = MultiPoly.from_parts(
                    m, {(0,) * a + e: p for e, p in g.num.items()}, g.den)
                rhs = rhs + fa * fb
            assert lhs == rhs, (k, a, b)


def test_realize_modified_single_letter():
    f = SymExpansion.single("s-mod", (1,))
    got = realize_in_variables(f, 1)
    assert got.terms.get((1,), QT_RAT_ZERO) == QtRat(T - QT_ONE, Q - QT_ONE)
    unit = SymExpansion.single("h-mod", ())
    assert realize_in_variables(unit, 2) == MultiPoly.const(2, 1)


def test_realize_modified_degree_two_single_letter():
    f = SymExpansion.single("h-mod", (2,))
    got = realize_in_variables(f, 1)
    r1 = QtRat(T - QT_ONE, Q - QT_ONE)
    r2 = QtRat(T ** 2 - QT_ONE, Q ** 2 - QT_ONE)
    half = QtRat(1, 2)
    assert got.terms.get((2,), QT_RAT_ZERO) == half * (r1 * r1 + r2)


def test_modified_q_shift_law():
    # substituting x_l -> q x_l in the realization of a modified complete
    # function inserts single-letter complete functions of (t-1)x_l
    for j in range(1, 5):
        for n in (1, 2, 3):
            f = SymExpansion.single("h-mod", (j,))
            realized = realize_in_variables(f, n)
            for ell in range(1, n + 1):
                lhs = realized.scale_var(ell, Q)
                rhs = MultiPoly.zero(n)
                for d in range(j + 1):
                    if d == 0:
                        tail = realized
                    else:
                        rest = (SymExpansion.single("h-mod", (j - d,))
                                if j - d else SymExpansion.single("h-mod", ()))
                        letter = MultiPoly.variable(n, ell) ** d
                        scale = QtRat((T - QT_ONE) * T ** (d - 1))
                        tail = realize_in_variables(rest, n) * scale * letter
                    rhs = rhs + tail
                assert lhs == rhs, (j, n, ell)


def test_json_round_trip():
    f = convert_basis(SymExpansion.single("s", (2, 1)), "h") * QtRat(Q, T)
    data = sym_to_json(f)
    assert data["basis"] == "h"
    assert data["weight"] == 3
    parts = [tuple(item["partition"]) for item in data["terms"]]
    assert parts == sorted(parts, key=lambda p: (-sum(i * x for i, x in enumerate(p)), p))

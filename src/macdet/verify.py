"""Randomized and exhaustive checks behind the verify command.

Four suites: eigen (eigenvalue relations for the symbolic operator
action), oracle (every construction route compared symbolically with
what jpoly --method oracle serves), cross (route-against-route agreement
and symbolic-versus-concrete operator actions), and appendix (the
divided difference, alphabet and determinant identities the
construction rests on).  Routes come from macdonald.compute_expansion,
as for jpoly.  Every check is a generator of (passed, context) outcomes,
and one tally turns them into its CheckResult: the instance and failure
counts (an instance that raises fails) and the first failure's context.
Every sampled check draws from a seeded generator, so a run is
reproducible from its seed; only the appendix suite samples, so run_all
can run the other three in a forked child with an unchanged report.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable, Iterator, NamedTuple

from . import fork_join, usable_cpus
from .divdiff import (
    block_word,
    chi_block,
    chi_omega,
    chi_slot,
    complete_of,
    dd_scalar_product,
    divided_difference_word,
    e_product_dual_basis,
    elementary_poly,
    raw_creation_op,
    raw_macdonald_op,
    resultant,
    slot_word,
    sylvester_sum,
    t_factorial,
    t_slot_image,
    xbar_monomial,
)
from .macdonald import (
    EntryMatrix,
    bordered_expansion,
    compute_expansion,
    creation_step,
    eigenvalue,
    macdonald_op_action,
)
from .multipoly import MultiPoly
from .partitions import Partition, conjugate, pad, partitions_of, weight
from .qt import QT_RAT_ONE, QtPoly, QtRat, T
from .symfunc import (
    SymExpansion,
    convert_basis,
    monomial_poly,
    ordered_expansion,
    realize_in_variables,
)

ONE = QT_RAT_ONE

Outcomes = Iterator[tuple[bool, str]]


class CheckResult(NamedTuple):
    """Report entry of one named identity check; only _tally makes one."""
    name: str
    instances: int
    failures: int
    sampled: bool
    detail: str

    @property
    def passed(self) -> bool:
        return self.failures == 0


def summarize(results: list[CheckResult]) -> dict:
    return {"passed": all(r.passed for r in results),
            "checks": [r._asdict() for r in results]}


def _shapes(max_weight: int) -> list[Partition]:
    """Every partition of weight 0..max_weight, in order of weight."""
    return [lam for w in range(max_weight + 1) for lam in partitions_of(w)]


# ---------------------------------------------------------------------------
# shared generators and small determinants

def _rand_poly(rng: random.Random, m: int, max_deg: int = 2, terms: int = 3) -> MultiPoly:
    out = MultiPoly.zero(m)
    for _ in range(terms):
        exps = tuple(rng.randrange(max_deg + 1) for _ in range(m))
        out = out + MultiPoly.monomial(m, exps, rng.choice([-2, -1, 1, 2, 3]))
    return out


def _rand_symmetric(rng: random.Random, n: int, max_weight: int = 2) -> MultiPoly:
    out = MultiPoly.const(n, rng.choice([-1, 1, 2]))
    for lam in _shapes(max_weight):
        if lam and len(lam) <= n and rng.random() < 0.5:
            out = out + monomial_poly(n, lam) * rng.choice([-2, -1, 1, 2])
    return out


def _block_symmetric(rng: random.Random, k: int, n: int, m: int) -> MultiPoly:
    """Random polynomial symmetric in x_1..x_k and in x_{k+1}..x_n."""
    out = MultiPoly.zero(m)
    for _ in range(rng.randrange(1, 3)):
        term = MultiPoly.const(m, rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(0, 3)):
            term = term * elementary_poly(rng.randrange(1, k + 1), range(1, k + 1), m)
        for _ in range(rng.randrange(0, 3)):
            if n == k:
                break
            term = term * elementary_poly(rng.randrange(1, n - k + 1), range(k + 1, n + 1), m)
        out = out + term
    return out


def _poly_det(mat: list[list[MultiPoly]]) -> MultiPoly:
    size = len(mat)
    if size == 1:
        return mat[0][0]
    out = MultiPoly.zero(mat[0][0].m)
    for j in range(size):
        if mat[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(size) if c != j] for row in mat[1:]]
        term = mat[0][j] * _poly_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _jt_det(vec: tuple[int, ...], comps: list, m: int,
            shifts: list[int] | None = None) -> MultiPoly:
    """Schur function of an integer vector as the determinant of complete
    functions of the given component alphabet, with optional per-column
    subscript shifts."""
    k = len(vec)
    if k == 0:
        return MultiPoly.const(m, 1)
    sh = shifts or [0] * k
    mat = [[complete_of(vec[i] - (i + 1) + (j + 1) + sh[j], comps, m)
            for j in range(k)] for i in range(k)]
    return _poly_det(mat)


def _box_partitions(parts: int, cap: int) -> list[tuple[int, ...]]:
    """Weakly decreasing vectors with the given number of parts, each at
    most cap, in decreasing lex order."""
    return list(combinations_with_replacement(range(cap, -1, -1), parts))


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Vectors of parts nonnegative integers summing to total, in lex order."""
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def _g_factory(y: int, n: int):
    """Builder for the column entries of the creation determinants: the
    complete function of the base alphabet extra + X_{1..n} minus a
    t-power times the complete function of extra + t*X_{1..width} +
    X_{width+1..n}.  Returns the builder and the ambient variable count
    n + y."""
    m = n + y
    extra = [(1, ONE, tuple(range(n + 1, m + 1)))] if y else []

    def g(j: int, r: int, width: int) -> MultiPoly:
        if j < 0:
            return MultiPoly.zero(m)
        plain = complete_of(j, extra + [(1, ONE, tuple(range(1, n + 1)))], m)
        scaled = [(1, QtRat(T), tuple(range(1, width + 1)))] if width else []
        rest = [(1, ONE, tuple(range(width + 1, n + 1)))] if width < n else []
        aug = complete_of(j, extra + scaled + rest, m)
        return plain - aug * QtRat(T ** r)

    return g, m


# ---------------------------------------------------------------------------
# appendix suite: operator and alphabet identities

def _check_braid_relations(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(max(samples * 3 // 5, 1)):
        f = _rand_poly(rng, 3, max_deg=3)
        yield (
            divided_difference_word(f, [1, 2, 1]) == divided_difference_word(f, [2, 1, 2]),
            f"braid on {f}")
        i = rng.choice([1, 2])
        yield divided_difference_word(f, [i, i]).is_zero(), f"square i={i} on {f}"
    for _ in range(max(samples * 3 // 10, 1)):
        f = _rand_poly(rng, 4, max_deg=2)
        yield (
            divided_difference_word(f, [1, 3]) == divided_difference_word(f, [3, 1]),
            f"distant commute on {f}")


def _check_slot_image_of_one() -> Outcomes:
    for n in range(1, 6):
        one = MultiPoly.const(n, 1)
        for k in range(1, n + 1):
            yield chi_slot(one, k, n) == one * t_slot_image(k, n), f"k={k} n={n}"


def _check_omega_image_of_one() -> Outcomes:
    for k in range(1, 6):
        one = MultiPoly.const(k, 1)
        yield chi_omega(one, k) == one * t_factorial(k), f"k={k}"


def _check_omega_block_factorization(rng: random.Random, samples: int) -> Outcomes:
    configs = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
    per = max(samples // len(configs) + 1, 1)
    for k, ell in configs:
        for _ in range(per):
            f = _block_symmetric(rng, ell, k, k)
            lhs = chi_omega(f, k)
            rhs = chi_block(f, ell, k) * (t_factorial(ell) * t_factorial(k - ell))
            yield lhs == rhs, f"k={k} ell={ell} f={f}"


def _check_chi_factorization(rng: random.Random, samples: int) -> Outcomes:
    configs = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]
    per = max(samples // len(configs) + 1, 1)
    for k, n in configs:
        for _ in range(per):
            f = _rand_poly(rng, n, max_deg=2)
            lhs = f
            for i in range(k - 1, 0, -1):
                lhs = chi_slot(lhs, i, k)
            lhs = chi_block(lhs, k, n)
            rhs = f
            for i in range(k, 0, -1):
                rhs = chi_slot(rhs, i, n)
            yield lhs == rhs, f"k={k} n={n} f={f}"


def _check_slot_alphabet_splitting(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        y = rng.randint(0, 2)
        j = rng.randint(0, 4)
        m = n + y
        extra = tuple(range(n + 1, n + 1 + y))

        def aug(width: int) -> list:
            comps = [(1, ONE, extra)] if extra else []
            if width:
                letters = tuple(range(1, width + 1))
                comps += [(1, QtRat(T), letters), (-1, ONE, letters)]
            return comps

        lhs = chi_slot(complete_of(j, aug(k), m), k, n)
        c_k = t_slot_image(k, n) - ONE
        rhs = complete_of(j, aug(k - 1), m) * c_k + complete_of(j, aug(n), m)
        yield lhs == rhs, f"j={j} k={k} n={n} y={y}"


def _check_letter_sum_convolution(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        m = rng.randint(2, 4)
        letters = list(range(1, m + 1))
        rng.shuffle(letters)
        cut = rng.randint(0, m)
        a, b = tuple(sorted(letters[:cut])), tuple(sorted(letters[cut:]))
        scale = QtRat(T) if rng.random() < 0.3 else ONE
        j = rng.randint(0, 4)
        whole = complete_of(j, [(1, scale, tuple(sorted(letters)))], m)
        conv = MultiPoly.zero(m)
        for i in range(j + 1):
            conv = conv + complete_of(i, [(1, scale, a)], m) * complete_of(j - i, [(1, scale, b)], m)
        yield whole == conv, f"j={j} split={a}|{b}"
        if j:
            gone = complete_of(j, [(1, scale, a), (-1, scale, a)], m)
            yield gone.is_zero(), f"cancellation j={j} letters={a}"


def _check_lagrange_subset_sum(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        n = rng.randint(2, 4)
        f = MultiPoly.variable(n, 1) ** rng.randint(0, 3) * _block_symmetric(rng, 1, n, n)
        lhs = divided_difference_word(f, slot_word(1, n))
        yield lhs == sylvester_sum(f, 1, n), f"n={n} f={f}"


def _check_sylvester_subset_sum(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        f = _block_symmetric(rng, k, n, n)
        lhs = divided_difference_word(f, block_word(k, n))
        yield lhs == sylvester_sum(f, k, n), f"n={n} k={k} f={f}"


def _check_newton_interpolation(rng: random.Random, samples: int) -> Outcomes:
    per = max(samples // 2 + 1, 1)
    for n in (2, 3):
        for _ in range(per):
            funcs = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
                     for _ in range(n)]

            def univariate(coeffs: list[int], var: int) -> MultiPoly:
                out = MultiPoly.zero(n)
                for d, c in enumerate(coeffs):
                    if c:
                        exps = [0] * n
                        exps[var - 1] = d
                        out = out + MultiPoly.monomial(n, tuple(exps), c)
                return out

            lhs = _poly_det([
                [divided_difference_word(univariate(funcs[i], 1), list(range(1, j + 1)))
                 for j in range(n)]
                for i in range(n)])
            rhs = _poly_det([[univariate(funcs[i], j + 1) for j in range(n)]
                             for i in range(n)])
            delta = MultiPoly.const(n, 1)
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    delta = delta * (MultiPoly.variable(n, b) - MultiPoly.variable(n, a))
            yield lhs * delta == rhs, f"n={n} coeffs={funcs}"


def _check_schur_two_alphabet_det(rng: random.Random, samples: int) -> Outcomes:
    shapes = _shapes(3)
    for _ in range(samples):
        n = rng.choice([2, 2, 3])
        k = rng.randint(1, n)
        y = rng.randint(0, 1)
        m = n + y
        extra = tuple(range(n + 1, n + 1 + y))
        lam = rng.choice([p for p in shapes if len(p) <= n])
        padded = pad(lam, n)
        alpha = [padded[i] - (i + 1) + 1 for i in range(n)]
        xk = tuple(range(1, k + 1))
        xkc = tuple(range(k + 1, n + 1))
        union = [(1, ONE, extra + tuple(range(1, n + 1)))]
        lhs = resultant((ONE, xk), (ONE, xkc), m) * _jt_det(padded, union, m)
        first = [(1, ONE, extra + xk)]
        second = [(1, ONE, extra + xkc)]
        mat = []
        for i in range(n):
            row = [complete_of(alpha[i] - k + n + j, first, m) for j in range(k)]
            row += [complete_of(alpha[i] + k + j, second, m) for j in range(n - k)]
            mat.append(row)
        yield lhs == _poly_det(mat), f"lam={lam} n={n} k={k} y={y}"


def _check_block_symmetrizer_expansion(rng: random.Random, samples: int) -> Outcomes:
    configs = [(2, 1), (3, 1), (3, 2)]
    t_rat = QtRat(T)
    for step in range(samples):
        n, k = configs[step % len(configs)]
        na, nb = rng.randint(0, 1), rng.randint(0, 1)
        m = n + na + nb
        a_letters = tuple(range(n + 1, n + 1 + na))
        b_letters = tuple(range(n + 1 + na, n + 1 + na + nb))
        alpha = tuple(sorted((rng.randint(0, 3) for _ in range(k)), reverse=True))
        beta = tuple(sorted((rng.randint(0, 3) for _ in range(n - k)), reverse=True))
        xk = tuple(range(1, k + 1))
        xkc = tuple(range(k + 1, n + 1))
        xn = tuple(range(1, n + 1))
        lhs_f = _jt_det(alpha, [(1, ONE, a_letters), (1, t_rat, xk)], m) \
            * _jt_det(beta, [(1, ONE, b_letters), (1, ONE, xkc)], m)
        lhs = divided_difference_word(lhs_f, block_word(k, n))
        rhs = MultiPoly.zero(m)
        for box in _box_partitions(k, n - k):
            box_conj = pad(conjugate(box), n - k)
            first = _jt_det(alpha, [(1, ONE, a_letters), (1, t_rat, xn)], m,
                            shifts=[-n + k + box[k - 1 - j] for j in range(k)])
            second = _jt_det(beta, [(1, ONE, b_letters), (1, ONE, xn)], m,
                             shifts=[-box_conj[j] for j in range(n - k)])
            depth = sum(box)
            coeff = QtRat(QtPoly.monomial((-1) ** depth, 0, 0), T ** depth)
            rhs = rhs + first * second * coeff
        rhs = rhs * QtRat(T ** (k * (n - k)))
        yield lhs == rhs, f"n={n} k={k} alpha={alpha} beta={beta} a={na} b={nb}"


def _check_adjoint_bases_duality(rng: random.Random, samples: int) -> Outcomes:
    def pairing_ok(vec_i: tuple[int, ...], vec_j: tuple[int, ...], m: int) -> bool:
        rho = range(m)
        sp = dd_scalar_product(
            xbar_monomial(vec_i, m),
            e_product_dual_basis(tuple(r - j for r, j in zip(rho, vec_j)), m),
            m)
        return sp == MultiPoly.const(m, 1 if vec_i == vec_j else 0)

    exhaustive = 0
    for m in (2, 3):
        vectors = [()]
        for j in range(m):
            vectors = [v + (i,) for v in vectors for i in range(j + 1)]
        exhaustive += len(vectors) ** 2
        for vec_i in vectors:
            for vec_j in vectors:
                yield pairing_ok(vec_i, vec_j, m), f"m={m} I={vec_i} J={vec_j}"
    for _ in range(max(samples - exhaustive, 0)):
        m = 4
        vec_i = tuple(rng.randint(0, j) for j in range(m))
        vec_j = tuple(rng.randint(0, j) for j in range(m))
        yield pairing_ok(vec_i, vec_j, m), f"m={m} I={vec_i} J={vec_j}"


def _check_adjoint_schur_pairing() -> Outcomes:
    for n in (2, 3, 4, 5):
        for k in (range(1, n) if n < 5 else (1, 4)):
            xk = tuple(range(1, k + 1))
            xkc = tuple(range(k + 1, n + 1))
            box = _box_partitions(k, n - k)
            rights = [_jt_det(vec_j, [(1, ONE, xk)], n) for vec_j in box]
            for vec_i in box:
                left = _jt_det(vec_i, [(-1, ONE, xkc)], n)
                for vec_j, right in zip(box, rights):
                    got = divided_difference_word(left * right, block_word(k, n))
                    match = vec_i == tuple(n - k - vec_j[k - 1 - a] for a in range(k))
                    yield (got == MultiPoly.const(n, 1 if match else 0),
                           f"n={n} k={k} I={vec_i} J={vec_j}")


def _check_ordered_expansion_pairing() -> Outcomes:
    for n in (2, 3):
        limit = 4 if n == 2 else 3
        for lam in [p for p in _shapes(limit) if p and len(p) <= n and p[0] <= n]:
            table = ordered_expansion(lam, n)
            s_conj = realize_in_variables(SymExpansion.single("s", conjugate(lam)), n)
            m = 2 * n
            for comp in _compositions(weight(lam), n):
                if any(comp[j] > n + j for j in range(n)):
                    yield table.get(comp, 0) == 0, f"out-of-box lam={lam} alpha={comp}"
                    continue
                vec = tuple(range(n)) + tuple(n + j - comp[j] for j in range(n))
                sp = dd_scalar_product(xbar_monomial(vec, m), s_conj.extend(m), m)
                yield sp == table.get(comp, 0), f"lam={lam} alpha={comp}"


def _check_creation_row_reduction(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        k = rng.choice([1, 2, 2, 3])
        y = rng.randint(0, 1)
        g, m = _g_factory(y, k)
        rows = [rng.randint(0, 4) for _ in range(k)]
        # det of the left matrix, entries g(rows[i] + c + 1, k - c - 1, k),
        # equals x_1..x_k times det of the right, entries g(rows[i] + c,
        # k - c, k).  Right column c + 1 is left column c, so expanding the
        # left along its last column and the right along its first gives
        # left - x_1..x_k * right as one sum over the shared minors.
        shared = [[g(r + c + 1, k - c - 1, k) for c in range(k - 1)] for r in rows]
        xprod = MultiPoly.monomial(m, (1,) * k + (0,) * y)
        diff = MultiPoly.zero(m)
        for i, r in enumerate(rows):
            minor = (_poly_det(shared[:i] + shared[i + 1:]) if k > 1
                     else MultiPoly.const(m, 1))
            column = g(r + k, 0, k) * (-1) ** (k - 1) - xprod * g(r, k, k)
            diff = diff - minor * column if i % 2 else diff + minor * column
        yield diff.is_zero(), f"k={k} rows={rows} y={y}"


def _check_alphabet_growth(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        k = rng.choice([1, 2, 2])
        ell = rng.randint(k, 3)
        y = rng.randint(0, 1)
        g, m = _g_factory(y, ell)
        rows = [rng.randint(0, 4) for _ in range(k)]
        lhs = _poly_det([[g(rows[i] + c + 1, k - c - 1, ell) for c in range(k)]
                         for i in range(k)])
        rhs = _poly_det([[g(rows[i] + c + 1, k - c - 1, k - c) for c in range(k)]
                         for i in range(k)])
        for slot in range(k, 0, -1):
            rhs = chi_slot(rhs, slot, ell)
        yield lhs == rhs, f"k={k} ell={ell} rows={rows} y={y}"


def _check_slot_recursion(rng: random.Random, samples: int) -> Outcomes:
    for _ in range(samples):
        ell = rng.randint(1, 3)
        k = rng.randint(1, ell)
        y = rng.randint(0, 1)
        g, m = _g_factory(y, ell)
        j = rng.randint(0, 4)
        r = rng.randint(0, 2)
        c_k = t_slot_image(k, ell) - ONE
        lhs = g(j, r, ell)
        rhs = chi_slot(g(j, r, k), k, ell) - g(j, r, k - 1) * c_k
        yield lhs == rhs, f"j={j} r={r} k={k} ell={ell} y={y}"


def _check_operator_routes(op, routes: tuple[str, str], rng: random.Random,
                           samples: int) -> Outcomes:
    """Two routes of one raw operator agree on random symmetric inputs."""
    configs = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
    per = max(samples // len(configs) + 1, 1)
    first, second = routes
    for n, k in configs:
        for _ in range(per):
            f = _rand_symmetric(rng, n, 2)
            a = op(f, k, n, route=first)
            b = op(f, k, n, route=second)
            yield a == b, f"n={n} k={k} f={f}"


def _tally(name: str, sampled: bool, outcomes: Outcomes) -> CheckResult:
    """The report entry of one check from its (passed, context) outcomes:
    how many there were, how many failed, and the first failure's context.
    An instance that raises ArithmeticError or ValueError is one more
    failure, named by its exception, and ends the check."""
    instances = failures = 0
    detail = ""
    try:
        for ok, context in outcomes:
            instances += 1
            if not ok:
                failures += 1
                detail = detail or context
    except (ArithmeticError, ValueError) as exc:
        instances += 1
        failures += 1
        detail = detail or f"{type(exc).__name__}: {exc}"
    return CheckResult(name, instances, failures, sampled, detail)


def run_appendix_suite(seed: int = 0, samples: int = 100) -> list[CheckResult]:
    """Identity checks for the operator calculus; checks marked sampled
    draw `samples` random instances from the given seed.  Each check is
    a generator run to its end before the next starts, so the random
    draws come in report order."""
    rng = random.Random(seed)
    checks = (
        ("braid-relations", True, _check_braid_relations(rng, samples)),
        ("slot-image-of-one", False, _check_slot_image_of_one()),
        ("omega-image-of-one", False, _check_omega_image_of_one()),
        ("omega-factors-through-block", True, _check_omega_block_factorization(rng, samples)),
        ("chi-factorization", True, _check_chi_factorization(rng, samples)),
        ("slot-alphabet-splitting", True, _check_slot_alphabet_splitting(rng, samples)),
        ("letter-sum-convolution", True, _check_letter_sum_convolution(rng, samples)),
        ("lagrange-subset-sum", True, _check_lagrange_subset_sum(rng, samples)),
        ("sylvester-subset-sum", True, _check_sylvester_subset_sum(rng, samples)),
        ("newton-interpolation-det", True, _check_newton_interpolation(rng, samples)),
        ("schur-two-alphabet-det", True, _check_schur_two_alphabet_det(rng, samples)),
        ("block-symmetrizer-product-expansion", True,
         _check_block_symmetrizer_expansion(rng, samples)),
        ("adjoint-bases-duality", True, _check_adjoint_bases_duality(rng, samples)),
        ("adjoint-schur-pairing", False, _check_adjoint_schur_pairing()),
        ("ordered-expansion-as-pairing", False, _check_ordered_expansion_pairing()),
        ("creation-row-reduction", True, _check_creation_row_reduction(rng, samples)),
        ("alphabet-growth", True, _check_alphabet_growth(rng, samples)),
        ("slot-recursion", True, _check_slot_recursion(rng, samples)),
        ("creation-subset-vs-factored", True,
         _check_operator_routes(raw_creation_op, ("subset", "chi"), rng, samples)),
        ("macdonald-subset-vs-word", True,
         _check_operator_routes(raw_macdonald_op, ("subset", "dd"), rng, samples)),
    )
    return [_tally(*check) for check in checks]


# ---------------------------------------------------------------------------
# eigen suite

def _check_eigenvalues(cases: Iterator[tuple[Partition, int, int, str]]) -> Outcomes:
    """For each (lam, k, n, context): the degree-k operator in n variables
    scales J_lam by eigenvalue(lam, k, n), e_k of its bracket spectrum."""
    for lam, k, n, context in cases:
        jp = compute_expansion(lam, "smod", "determinant")
        acted = SymExpansion("h-mod", jp.weight, {})
        for mu, coef in jp.terms.items():
            acted = acted + coef * macdonald_op_action(mu, k, n)
        target = convert_basis(jp, "h-mod") * eigenvalue(lam, k, n)
        yield acted.terms == target.terms, context


def run_eigen_suite(max_weight: int = 6) -> list[CheckResult]:
    """Eigenvalue relations for the symbolic operator action on the
    constructed polynomials: the first operator on every shape, the
    higher ones on shapes of 2 or 3 parts through weight 5."""
    first = ((lam, 1, max(len(lam), 1), f"lam={lam}") for lam in _shapes(max_weight))
    higher = ((lam, k, len(lam), f"lam={lam} k={k}")
              for lam in _shapes(min(max_weight, 5)) if 2 <= len(lam) <= 3
              for k in range(2, len(lam) + 1))
    return [_tally("eigen-first-operator", False, _check_eigenvalues(first)),
            _tally("eigen-higher-operators", False, _check_eigenvalues(higher))]


# ---------------------------------------------------------------------------
# oracle suite

@lru_cache(maxsize=None)
def _oracle(lam: Partition, basis: str) -> SymExpansion:
    """What jpoly --method oracle serves for lam in the given CLI basis."""
    return compute_expansion(lam, basis, "oracle")


# (check name, CLI basis, method) in report order.  Each compares with duality
# on one side at most: the oracle's s-mod form, or the Schur determinant.
_ORACLE_ROUTES = (
    ("modified-determinant-vs-oracle", "smod", "determinant"),
    ("creation-vs-oracle", "smod", "creation"),
    ("schur-determinant-vs-oracle", "schur", "determinant"),
    ("monomial-determinant-vs-oracle", "monomial", "determinant"),
)


def _check_against_oracle(basis: str, method: str, shapes: list[Partition]) -> Outcomes:
    for lam in shapes:
        yield compute_expansion(lam, basis, method) == _oracle(lam, basis), f"lam={lam}"


def run_oracle_suite(max_weight: int = 6) -> list[CheckResult]:
    """Compare every construction route with the inner-product reference,
    symbolically, in the route's own basis.  For weight w, equality there
    is equivalent to equality of the realizations in w variables."""
    shapes = _shapes(max_weight)
    return [_tally(name, False, _check_against_oracle(basis, method, shapes))
            for name, basis, method in _ORACLE_ROUTES]


# ---------------------------------------------------------------------------
# cross suite

Route = Callable[[Partition], SymExpansion]

# (check name, first route, second route) in report order: two routes to
# one expansion, compared shape by shape.
_CROSS_ROUTES = (
    ("schur-routes-agree",
     lambda lam: bordered_expansion(EntryMatrix.build(lam, "s")),
     lambda lam: compute_expansion(lam, "schur", "determinant")),
    ("creation-matches-determinant",
     lambda lam: compute_expansion(lam, "smod", "creation"),
     lambda lam: compute_expansion(lam, "smod", "determinant")),
    ("monomial-matches-schur-conversion",
     lambda lam: convert_basis(compute_expansion(lam, "schur", "determinant"), "m"),
     lambda lam: compute_expansion(lam, "monomial", "determinant")),
)


def _check_routes_agree(first: Route, second: Route, shapes: list[Partition]) -> Outcomes:
    for lam in shapes:
        yield first(lam) == second(lam), f"lam={lam}"


def _check_symbolic_vs_raw_macdonald() -> Outcomes:
    for n in (2, 3):
        for mu in _shapes(3):
            if len(mu) > n:
                continue
            concrete = realize_in_variables(SymExpansion.single("s-mod", mu), n)
            for k in range(1, n + 1):
                sym = realize_in_variables(macdonald_op_action(mu, k, n), n)
                yield sym == raw_macdonald_op(concrete, k, n), f"mu={mu} k={k} n={n}"


def _check_symbolic_vs_raw_creation() -> Outcomes:
    for lam, k in [((), 1), ((), 2), ((1,), 1), ((1,), 2), ((2,), 2), ((1, 1), 2)]:
        jp = compute_expansion(lam, "smod", "determinant")
        n = weight(lam) + k
        sym = realize_in_variables(creation_step(jp, k), n)
        yield sym == raw_creation_op(realize_in_variables(jp, n), k, n), f"lam={lam} k={k}"


def run_cross_suite(max_weight: int = 5) -> list[CheckResult]:
    """Route-against-route agreement and symbolic-versus-concrete
    operator actions."""
    shapes = _shapes(max_weight)
    checks = [(name, _check_routes_agree(first, second, shapes))
              for name, first, second in _CROSS_ROUTES]
    checks += [("symbolic-vs-raw-macdonald", _check_symbolic_vs_raw_macdonald()),
               ("symbolic-vs-raw-creation", _check_symbolic_vs_raw_creation())]
    return [_tally(name, False, outcomes) for name, outcomes in checks]


def _unseeded_suites(max_weight: int) -> tuple[list[CheckResult], list[CheckResult]]:
    """The eigen results, and the cross then oracle results."""
    return (run_eigen_suite(max_weight=max_weight),
            run_cross_suite(max_weight=min(max_weight, 5)) + run_oracle_suite(max_weight=max_weight))


def run_all(max_weight: int = 5, seed: int = 0, samples: int = 100) -> list[CheckResult]:
    """Eigen, appendix, cross and oracle results, in that order.  On two
    or more usable CPUs a forked child runs the unseeded suites while
    this process runs the appendix, so the seeded draws never leave it.
    Only the appendix's caches stay warm for a rerun in this process:
    the caches the child fills leave with it, so a rerun repeats eigen,
    cross and oracle from cold caches.  A child's exception is raised
    here after the child has exited."""
    parts = [lambda: run_appendix_suite(seed=seed, samples=samples),
             lambda: _unseeded_suites(max_weight)]
    run = fork_join if usable_cpus() > 1 else map  # map runs the appendix first
    appendix, (eigen, rest) = run(lambda part: part(), parts)
    return eigen + appendix + rest

"""Acceptance sweep: ten end-to-end checks, one test per criterion.

Each test states its full claim and, where a runtime budget applies,
asserts it with a wall-clock measurement of a cold run: the test empties
every module-level cache first, so the budget does not depend on which
tests ran before it.  Everything here is exact arithmetic; no
tolerances anywhere.
"""

from time import perf_counter

from macdet import clear_caches
from macdet.divdiff import dd_scalar_product, xbar_monomial
from macdet.macdonald import (
    EntryMatrix,
    c_lambda,
    jpoly_determinant,
    macdonald_op_action,
    monomial_cell,
)
from macdet.partitions import conjugate, partitions_of
from macdet.qt import QT_RAT_ZERO, Q, QtRat, T
from macdet.symfunc import SymExpansion, monomial_poly, ordered_expansion
from macdet.verify import run_appendix_suite, run_eigen_suite, run_oracle_suite


def test_criterion_01_operator_action_golden():
    clear_caches()
    start = perf_counter()
    got = macdonald_op_action((5, 2), 1, 2)
    elapsed = perf_counter() - start
    assert got.basis == "h-mod"
    assert got.terms == {
        (5, 2): QtRat(T * Q**5 + Q**2),
        (6, 1): QtRat(-(T * Q + Q**6)),
    }
    assert elapsed < 1.0, f"operator action took {elapsed:.2f}s"


def test_criterion_02_ordered_expansion_golden():
    assert ordered_expansion((3, 1, 1), 3) == {
        (3, 1, 1): 1,
        (0, 4, 1): -1,
        (0, 0, 5): 1,
        (3, 0, 2): -1,
    }


def test_criterion_03_entry_matrix_golden():
    clear_caches()
    start = perf_counter()
    em = EntryMatrix.build((2, 2, 1))
    assert em.columns == ((2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,))
    assert em.rows == ((3, 1, 1), (3, 2), (4, 1), (5,))
    expected = {
        ((3, 1, 1), (2, 2, 1)): ((-1, (1, 3, 1)),),
        ((3, 1, 1), (3, 1, 1)): ((1, (3, 1, 1)),),
        ((3, 2), (2, 2, 1)): ((-1, (2, 0, 3)),),
        ((3, 2), (3, 1, 1)): ((-1, (3, 0, 2)),),
        ((3, 2), (3, 2)): ((1, (3, 2, 0)),),
        ((4, 1), (2, 2, 1)): ((1, (1, 0, 4)),),
        ((4, 1), (3, 1, 1)): ((-1, (0, 4, 1)),),
        ((4, 1), (3, 2)): ((-1, (1, 4, 0)),),
        ((4, 1), (4, 1)): ((1, (4, 1, 0)),),
        ((5,), (3, 1, 1)): ((1, (0, 0, 5)),),
        ((5,), (4, 1)): ((-1, (0, 5, 0)),),
        ((5,), (5,)): ((1, (5, 0, 0)),),
    }
    for r, nu in enumerate(em.rows):
        for c, mu in enumerate(em.columns):
            assert em.cells[r][c] == expected.get((nu, mu), ()), (nu, mu)
    elapsed = perf_counter() - start
    assert elapsed < 5.0, f"entry matrix took {elapsed:.2f}s"


def test_criterion_04_monomial_matrix_and_pairing():
    expected = {
        ((3, 1), (2, 2)): ((-1, (3, 1)), (-1, (1, 3))),
        ((3, 1), (2, 1, 1)): ((1, (3, 1)),),
        ((3, 1), (1, 1, 1, 1)): (),
        ((4,), (2, 2)): ((1, (4, 0)), (1, (0, 4))),
        ((4,), (2, 1, 1)): ((-3, (4, 0)), (-1, (0, 4))),
        ((4,), (1, 1, 1, 1)): ((1, (4, 0)),),
    }
    for (nu_c, mu), cell in expected.items():
        assert monomial_cell(mu, nu_c, 2) == cell, (nu_c, mu)
    pairing = dd_scalar_product(
        xbar_monomial((0, 1, 2, 3, 0, 5), 6),
        monomial_poly(4, (2, 1, 1)).extend(6), 6)
    assert pairing == QtRat(-3)


def test_criterion_05_oracle_equivalence_weight_6():
    clear_caches()
    start = perf_counter()
    results = run_oracle_suite(max_weight=6)
    elapsed = perf_counter() - start
    failing = [r.name + ": " + r.detail for r in results if not r.passed]
    assert failing == []
    assert all(r.instances == 30 for r in results)
    assert elapsed < 120.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_06_eigen_relation_weight_6():
    clear_caches()
    start = perf_counter()
    results = run_eigen_suite(max_weight=6)
    elapsed = perf_counter() - start
    failing = [r.name + ": " + r.detail for r in results if not r.passed]
    assert failing == []
    assert elapsed < 120.0, f"eigen sweep took {elapsed:.1f}s"


def test_criterion_07_appendix_identity_suite():
    clear_caches()
    start = perf_counter()
    results = run_appendix_suite(seed=0, samples=100)
    elapsed = perf_counter() - start
    failing = [r.name + ": " + r.detail for r in results if not r.passed]
    assert failing == []
    for r in results:
        if r.sampled:
            assert r.instances >= 100, r.name
    assert elapsed < 300.0, f"appendix suite took {elapsed:.1f}s"


def test_criterion_08_integral_monomial_coefficients():
    for w in range(7):
        for lam in partitions_of(w):
            for mu, coef in jpoly_determinant(lam, "m").terms.items():
                assert coef.den.is_one(), (lam, mu, coef)


def test_criterion_09_leading_coefficients():
    for w in range(7):
        for lam in partitions_of(w):
            smod_lead = jpoly_determinant(lam, "s-mod").terms.get(lam, QT_RAT_ZERO)
            assert smod_lead == QtRat(c_lambda(conjugate(lam)).swap_qt()), lam
            mono_lead = jpoly_determinant(lam, "m").terms.get(lam, QT_RAT_ZERO)
            assert mono_lead == QtRat(c_lambda(lam)), lam


def test_criterion_10_schur_specialization_q_equals_t():
    for w in range(6):
        for lam in partitions_of(w):
            f = jpoly_determinant(lam, "s")
            specialized = SymExpansion(f.basis, f.weight, {
                mu: QtRat(c.num.subs_t_eq_q(), c.den.subs_t_eq_q()) for mu, c in f.terms.items()})
            target = SymExpansion.single(
                "s", lam, c_lambda(lam).subs_t_eq_q())
            assert specialized == target, lam

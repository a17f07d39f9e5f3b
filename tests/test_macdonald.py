import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path
from time import perf_counter

import pytest

import macdet
import macdet.qt as qt_module
from macdet.cli import latex_matrix, record_json, result_record
from macdet.macdonald import (
    BASIS_TAG,
    EntryMatrix,
    bordered_expansion,
    bracket_spectrum,
    c_lambda,
    cell_poly,
    compute_expansion,
    creation_step,
    dual_transport,
    eigenvalue,
    jpoly_determinant,
    jpoly_via_creation,
    macdonald_op_action,
    monomial_cell,
)
from macdet.partitions import (
    arm_leg_cells,
    conjugate,
    distinct_permutations,
    dominance_upset,
    partition,
    partitions_of,
)
from macdet.qt import QT_ONE, QT_RAT_ZERO, PackedPoly, Q, QtPoly, QtRat, T, add_product, pack_width
from macdet.symfunc import (
    SymExpansion,
    convert_basis,
    expansion_by_shape,
    ordered_expansion,
    sym_to_json,
)

from conftest import dominated_by


def test_bracket_values():
    assert eigenvalue((2, 2, 1), 1, 3) == Q**2 * T**2 + Q**2 * T + Q
    assert eigenvalue((2, 2, 1), 1, 3).swap_qt() == T**2 * Q**2 + T**2 * Q + T
    assert eigenvalue((0, 4, 1), 1, 3) == T**2 + Q**4 * T + Q
    assert eigenvalue((), 1, 2) == T + QT_ONE
    assert eigenvalue((1, 0, 0), 1, 1) == Q
    with pytest.raises(ValueError, match="does not fit in 1 variables"):
        eigenvalue((1, 2), 1, 1)


def test_eigenvalue_matches_spectrum():
    spec = bracket_spectrum((3, 1), 3)
    assert spec == (Q**3 * T**2, Q * T, QT_ONE)
    assert eigenvalue((3, 1), 1, 3) == Q**3 * T**2 + Q * T + QT_ONE
    assert eigenvalue((), 1, 2) == T + QT_ONE
    assert eigenvalue((), 2, 2) == T
    assert eigenvalue((3, 1), 2, 3) == (
        Q**3 * T**2 * Q * T + Q**3 * T**2 + Q * T
    )
    assert bracket_spectrum((0, 4, 1), 3) == (T**2, Q**4 * T, Q)
    assert eigenvalue((0, 4, 1), 2, 3) == T**2 * Q**4 * T + T**2 * Q + Q**4 * T * Q
    assert eigenvalue((0, 4, 1, 0), 1, 3).swap_qt() == (T**2 + Q**4 * T + Q).swap_qt()


def test_c_lambda_values():
    assert c_lambda((1,)) == QT_ONE - T
    assert c_lambda((1,)).swap_qt() == QT_ONE - Q
    assert c_lambda((2,)) == (QT_ONE - Q * T) * (QT_ONE - T)
    assert c_lambda((1, 1)).swap_qt() == (QT_ONE - Q**2) * (QT_ONE - Q)
    assert c_lambda(()) == QT_ONE


def v_lambda(lam, n=None):
    """Product of ([|lam|] - [|mu|]) over mu strictly above lam."""
    lam = partition(lam)
    if n is None:
        n = max(len(lam), 1)
    out = QT_ONE
    for mu in dominance_upset(lam)[1:]:
        out = out * (eigenvalue(lam, 1, n) - eigenvalue(mu, 1, n))
    return out


def test_scaling_factors():
    lam = (2, 1)
    v = v_lambda(lam, 2)
    expect = (eigenvalue(lam, 1, 2) - eigenvalue((3,), 1, 2))
    assert v == expect
    u = v_lambda(conjugate(lam), lam[0]).swap_qt()
    expect_u = eigenvalue((2, 1), 1, 2).swap_qt() - eigenvalue((3,), 1, 2).swap_qt()
    assert u == expect_u
    assert v_lambda(()) == QT_ONE


def test_entry_matrix_display_golden():
    em = EntryMatrix.build((2, 2, 1))
    assert em.n == 3
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
    lam_brk = eigenvalue((2, 2, 1), 1, 3)

    def poly(r, c):
        return cell_poly(em.cells[r][c], em.top, em.n)

    assert poly(0, 0) == -(lam_brk - eigenvalue((1, 3, 1), 1, 3))
    assert poly(3, 1) == lam_brk - eigenvalue((0, 0, 5), 1, 3)
    assert poly(0, 2).is_zero()


def test_entry_triangularity():
    for w in (3, 4, 5):
        for lam in partitions_of(w):
            n = max(len(lam), 1)
            for mu in partitions_of(w):
                if len(mu) > n:
                    continue
                for nu in partitions_of(w):
                    if len(nu) > n:
                        continue
                    if not dominated_by(mu, nu):
                        cell = expansion_by_shape(mu, n).get(nu, ())
                        assert cell_poly(cell, lam, n).is_zero()


def test_minimal_jpolys():
    assert jpoly_determinant((), "s-mod").terms == {(): QtRat(1)}
    assert jpoly_determinant((1,), "s-mod").terms == {(1,): QtRat(QT_ONE - Q)}
    assert jpoly_determinant((2,), "s-mod").terms == {
        (2,): QtRat((QT_ONE - Q) * (QT_ONE - Q**2))
    }


def test_jpoly_determinant_schur_weight_two():
    got = jpoly_determinant((2,), "s")
    c2 = (QT_ONE - T) * (QT_ONE - Q * T)
    c11 = (QT_ONE - T) * (Q - T)
    assert got.terms == {(2,): QtRat(c2), (1, 1): QtRat(c11)}
    got11 = jpoly_determinant((1, 1), "s")
    d11 = (QT_ONE - T) * (QT_ONE - T**2)
    assert got11.terms[(1, 1)] == QtRat(d11)
    assert (2,) not in got11.terms


def test_jpoly_determinant_monomial_small():
    assert jpoly_determinant((1,), "m").terms == {(1,): QtRat(QT_ONE - T)}
    got = jpoly_determinant((2,), "m")
    c2 = (QT_ONE - T) * (QT_ONE - Q * T)
    c11 = (QT_ONE - T) * (QT_ONE - T) * (QT_ONE + Q)
    assert got.terms == {(2,): QtRat(c2), (1, 1): QtRat(c11)}


def test_monomial_display_golden():
    lam = (2, 2)
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
    lam_brk = eigenvalue((2, 2), 1, 2).swap_qt()
    cell = monomial_cell((2, 1, 1), conjugate((1, 1, 1, 1)), 2)
    got = cell_poly(cell, conjugate(lam), 2).swap_qt()
    want = (-(lam_brk - eigenvalue((4, 0), 1, 2).swap_qt()) * 3
            - (lam_brk - eigenvalue((0, 4), 1, 2).swap_qt()))
    assert got == want


def _permutation_monomial_cell(mu, nu_c, width):
    """The monomial cell by a loop over every distinct permutation alpha
    of nu_c, weighting the signed ordered expansions of the conjugate
    Schur shapes by the Schur coefficients of m_mu."""
    schur = convert_basis(SymExpansion.single("m", mu), "s")
    assert all(coef.is_polynomial() for coef in schur.terms.values())
    eps_maps = [(coef.num.constant_value(),
                 ordered_expansion(conjugate(kappa), width))
                for kappa, coef in schur.terms.items()]
    pieces = []
    for alpha in distinct_permutations(nu_c, width):
        coef = sum(d * eps.get(alpha, 0) for d, eps in eps_maps)
        if coef:
            pieces.append((coef, alpha))
    return tuple(pieces)


def test_monomial_cells_match_permutation_sum():
    reference = {}
    for w in range(1, 9):
        for lam in partitions_of(w):
            em = EntryMatrix.build(lam, "m")
            for nu in em.rows:
                for mu in em.columns:
                    key = (mu, conjugate(nu), lam[0])
                    if key not in reference:
                        reference[key] = _permutation_monomial_cell(*key)
                    assert monomial_cell(*key) == reference[key], (lam, mu, nu)


def test_inexact_pivot_division_raises(monkeypatch):
    monkeypatch.setattr("macdet.macdonald.dense_divide", lambda row, span, den: None)
    for basis in ("s-mod", "s", "m"):
        macdet.clear_caches()
        with pytest.raises(ArithmeticError, match="inexact pivot division"):
            jpoly_determinant((2, 1), basis)
    macdet.clear_caches()


def test_inexact_pivot_division_raises_under_optimize():
    code = "\n".join([
        "import sys",
        "import macdet.macdonald as md",
        "print(sys.flags.optimize)",
        "md.dense_divide = lambda row, span, den: None",
        "for name in ('s-mod', 's', 'm'):",
        "    try:",
        "        md.jpoly_determinant((2, 1), name)",
        "    except ArithmeticError as exc:",
        "        print(name, 'inexact pivot' in str(exc))",
    ])
    src = str(Path(macdet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "s-mod", "True", "s", "True", "m", "True"]


def test_jpoly_smod_is_variable_count_free():
    for w in range(1, 6):
        for lam in partitions_of(w):
            for basis in ("s-mod", "s", "m"):
                base = jpoly_determinant(lam, basis)
                least = EntryMatrix.build(lam, basis).n
                assert least == (len(lam) if basis == "s-mod" else lam[0])
                for n in (least + 1, least + 2):
                    em = EntryMatrix.build(lam, basis, n)
                    assert bordered_expansion(em).terms == base.terms, (lam, basis, n)


def test_entry_matrix_rejects_too_few_variables_and_unknown_bases():
    for lam in [(1,), (2, 1), (3, 1), (2, 2, 1), (1, 1, 1)]:
        for basis, least in (("s-mod", len(lam)), ("s", lam[0]), ("m", lam[0])):
            assert EntryMatrix.build(lam, basis, least).n == least
            with pytest.raises(ValueError, match="does not fit"):
                EntryMatrix.build(lam, basis, least - 1)
    for basis in ("h", "smod", "schur", "monomial"):
        with pytest.raises(ValueError, match="unknown determinant basis"):
            EntryMatrix.build((2, 1), basis)
        with pytest.raises(ValueError, match="unknown determinant basis"):
            jpoly_determinant((), basis)


def test_schur_matrix_solves_to_the_transported_schur_expansion():
    macdet.clear_caches()
    for w in range(8):
        for lam in partitions_of(w):
            solved = bordered_expansion(EntryMatrix.build(lam, "s"))
            assert solved == jpoly_determinant(lam, "s"), lam
    macdet.clear_caches()


def test_schur_determinant_solves_no_schur_matrix(monkeypatch):
    solved = []

    def recording(em):
        solved.append(em.basis)
        return bordered_expansion(em)

    monkeypatch.setattr("macdet.macdonald.bordered_expansion", recording)
    macdet.clear_caches()
    for w in range(1, 6):
        for lam in partitions_of(w):
            jpoly_determinant(lam, "s")
    macdet.clear_caches()
    assert solved and set(solved) == {"s-mod"}


def test_bordered_matrices_are_lower_hessenberg():
    for w in range(1, 8):
        for lam in partitions_of(w):
            cases = []
            for basis in ("s-mod", "s", "m"):
                least = EntryMatrix.build(lam, basis).n
                cases += [EntryMatrix.build(lam, basis, n) for n in (least, least + 1)]
            for em in cases:
                scale = v_lambda(em.top, em.n)
                product = QT_ONE
                for r, row in enumerate(em.cells):
                    assert not any(row[r + 2:]), (lam, em.basis, r)
                    pivot = cell_poly(row[r + 1], em.top, em.n)
                    assert not pivot.is_zero(), (lam, em.basis, r)
                    product = product * pivot
                assert product in (scale, -scale), (lam, em.basis, em.n)


def test_determinants_match_creation_weight_7():
    for lam in partitions_of(7):
        creation = jpoly_via_creation(lam)
        assert jpoly_determinant(lam, "s-mod") == creation, lam
        schur = dual_transport(jpoly_via_creation(conjugate(lam)), lam)
        assert jpoly_determinant(lam, "s") == schur, lam
        assert jpoly_determinant(lam, "m") == convert_basis(schur, "m"), lam


def test_determinants_match_creation_weight_8():
    for lam in partitions_of(8):
        creation = jpoly_via_creation(lam)
        assert jpoly_determinant(lam, "s-mod") == creation, lam
        schur = dual_transport(jpoly_via_creation(conjugate(lam)), lam)
        assert jpoly_determinant(lam, "s") == schur, lam
        assert jpoly_determinant(lam, "m") == convert_basis(schur, "m"), lam


def test_one_row_and_one_column_of_weight_60_cost_their_interval():
    """Each determinant has one column, as the dominance interval of (60)
    or (1^60) is that shape alone, so neither enumerates p(60) shapes."""
    for lam, basis in (((1,) * 60, "schur"), ((60,), "smod")):
        macdet.clear_caches()
        start = perf_counter()
        got = compute_expansion(lam, basis, "determinant")
        elapsed = perf_counter() - start
        assert got == compute_expansion(lam, basis, "creation"), basis
        assert elapsed < 1.0, f"the {basis} determinant of weight 60 took {elapsed:.2f}s"
    macdet.clear_caches()


def test_determinants_match_creation_weight_9():
    macdet.clear_caches()
    start = perf_counter()
    for lam in partitions_of(9):
        creation = jpoly_via_creation(lam)
        assert jpoly_determinant(lam, "s-mod") == creation, lam
        schur = dual_transport(jpoly_via_creation(conjugate(lam)), lam)
        assert jpoly_determinant(lam, "s") == schur, lam
        assert jpoly_determinant(lam, "m") == convert_basis(schur, "m"), lam
    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"weight-9 determinants took {elapsed:.1f}s"


def test_determinants_match_creation_weight_10():
    macdet.clear_caches()
    start = perf_counter()
    for lam in partitions_of(10):
        creation = jpoly_via_creation(lam)
        assert jpoly_determinant(lam, "s-mod") == creation, lam
        schur = dual_transport(jpoly_via_creation(conjugate(lam)), lam)
        assert jpoly_determinant(lam, "s") == schur, lam
        assert jpoly_determinant(lam, "m") == convert_basis(schur, "m"), lam
    elapsed = perf_counter() - start
    assert elapsed < 300.0, f"weight-10 determinants took {elapsed:.1f}s"


def test_determinants_match_creation_weight_11():
    """s-mod and Schur at weight 11; the monomial determinants of weight
    11 stay out of this test for their time."""
    macdet.clear_caches()
    start = perf_counter()
    for lam in partitions_of(11):
        assert jpoly_determinant(lam, "s-mod") == jpoly_via_creation(lam), lam
        schur = dual_transport(jpoly_via_creation(conjugate(lam)), lam)
        assert jpoly_determinant(lam, "s") == schur, lam
    elapsed = perf_counter() - start
    macdet.clear_caches()
    assert elapsed < 120.0, f"weight-11 determinants took {elapsed:.1f}s"


def test_row_sum_width_holds_and_one_width_narrower_does_not(monkeypatch):
    """Each row sum of the determinant solve is packed at the width of a
    bound that covers every coefficient of the row sum recomputed on term
    dicts; the same solves one width narrower give a wrong expansion, or
    an inexact division, for some shape."""
    macdet.clear_caches()
    start = perf_counter()
    matrices = []
    for w in range(1, 9):
        for lam in partitions_of(w):
            for basis in ("s-mod", "m"):
                least = EntryMatrix.build(lam, basis).n
                matrices += [EntryMatrix.build(lam, basis, n) for n in (least, least + 1)]
    for em in matrices:
        c_lambda(conjugate(em.top))
    bounds = []
    monkeypatch.setattr("macdet.macdonald.pack_width",
                        lambda bound: bounds.append(bound) or pack_width(bound))
    solved = []
    for em in matrices:
        del bounds[:]
        out = bordered_expansion(em)
        solved.append(out)
        assert len(bounds) == len(em.cells), (em.lam, em.basis, em.n)
        z = [(coef.num if em.basis == "s-mod" else coef.num.swap_qt()).terms
             if (coef := out.terms.get(mu)) else {} for mu in em.columns]
        for r, row in enumerate(em.cells):
            acc = {}
            for c in range(r + 1):
                add_product(acc, cell_poly(row[c], em.top, em.n).terms, z[c])
            top = max(map(abs, acc.values()), default=0)
            assert top <= bounds[r], (em.lam, em.basis, em.n, r)
    widths = [8, 16, 32, 64, 128, 192]
    monkeypatch.setattr("macdet.macdonald.pack_width",
                        lambda bound: widths[max(widths.index(pack_width(bound)) - 1, 0)])
    wrong = []
    for em, out in zip(matrices, solved):
        try:
            if bordered_expansion(em) != out:
                wrong.append(em.lam)
        except ArithmeticError:
            wrong.append(em.lam)
    elapsed = perf_counter() - start
    macdet.clear_caches()
    assert wrong
    assert elapsed < 60.0, f"the row-sum widths through weight 8 took {elapsed:.1f}s"


def test_dual_transport_rejects_a_rescaled_source():
    for lam in [(), (1,), (2, 1), (3, 1), (2, 2, 1)]:
        smod = jpoly_determinant(conjugate(lam), "s-mod")
        assert dual_transport(smod, lam) == jpoly_determinant(lam, "s")
        with pytest.raises(ArithmeticError, match="leading coefficient"):
            dual_transport(smod * Q, lam)
        headless = SymExpansion("s-mod", smod.weight,
                                {mu: c for mu, c in smod.terms.items() if mu != conjugate(lam)})
        with pytest.raises(ArithmeticError, match="leading coefficient 0,"):
            dual_transport(headless, lam)
        schur = jpoly_determinant(conjugate(lam), "s")
        assert dual_transport(schur, lam) == jpoly_determinant(lam, "s-mod")
        with pytest.raises(ArithmeticError, match="leading coefficient"):
            dual_transport(schur * Q, lam)


def test_dual_transport_rejects_sources_outside_s_and_s_mod():
    for lam in [(), (1,), (2, 1), (3, 1)]:
        mono = jpoly_determinant(conjugate(lam), "m")
        hmod = convert_basis(jpoly_determinant(conjugate(lam), "s-mod"), "h-mod")
        for source in (mono, hmod):
            with pytest.raises(ValueError, match="no duality transport"):
                dual_transport(source, lam)


def test_leading_coefficients():
    for w in range(1, 5):
        for lam in partitions_of(w):
            smod = jpoly_determinant(lam, "s-mod")
            assert smod.terms.get(lam, QT_RAT_ZERO) == QtRat(c_lambda(conjugate(lam)).swap_qt())
            mono = jpoly_determinant(lam, "m")
            assert mono.terms.get(lam, QT_RAT_ZERO) == QtRat(c_lambda(lam))


def test_macdonald_op_golden():
    got = macdonald_op_action((5, 2), 1, 2)
    assert got.basis == "h-mod"
    assert got.terms == {
        (5, 2): QtRat(T * Q**5 + Q**2),
        (6, 1): QtRat(-(T * Q + Q**6)),
    }


def test_macdonald_op_on_unit():
    got = macdonald_op_action((), 1, 2)
    assert got.terms == {(): QtRat(T + QT_ONE)}
    got2 = macdonald_op_action((), 2, 2)
    assert got2.terms == {(): QtRat(T)}


def _op_action_by_permutations(lam, k, n):
    """The k-th Macdonald operator on S_lam[X^{tq}] as a sum over every
    k-subset of columns and all n! permutations: row i in column sigma_i
    has degree lam_i - i + sigma_i, a negative degree kills the term,
    and the marked columns carry q^degree t^(n - column)."""
    padded = lam + (0,) * (n - len(lam))
    acc = {}
    for subset in combinations(range(1, n + 1), k):
        for sigma in permutations(range(1, n + 1)):
            degrees = [padded[i - 1] - i + j for i, j in enumerate(sigma, start=1)]
            if min(degrees) < 0:
                continue
            q_power = sum(d for d, j in zip(degrees, sigma) if j in subset)
            t_power = sum(n - j for j in subset)
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if sigma[a] > sigma[b])
            sign = -1 if inversions % 2 else 1
            shape = tuple(sorted((d for d in degrees if d), reverse=True))
            acc[shape] = acc.get(shape, QtRat(0)) + QtRat(
                QtPoly.monomial(sign, q_power, t_power))
    return SymExpansion("h-mod", sum(lam), acc)


def test_macdonald_op_action_matches_permutation_sum():
    for w in range(7):
        for mu in partitions_of(w):
            for n in range(max(len(mu), 1), 6):
                for k in range(1, n + 1):
                    assert macdonald_op_action(mu, k, n) == \
                        _op_action_by_permutations(mu, k, n), (mu, k, n)


def test_eigen_relation_small_weights():
    for w in range(1, 5):
        for lam in partitions_of(w):
            n = max(len(lam), 1)
            jp = jpoly_determinant(lam, "s-mod")
            acted = SymExpansion("h-mod", w, {})
            for mu, coef in jp.terms.items():
                acted = acted + coef * macdonald_op_action(mu, 1, n)
            target = convert_basis(jp, "h-mod") * eigenvalue(lam, 1, n)
            assert acted.terms == target.terms, lam


def test_creation_single_step():
    start = SymExpansion.single("s-mod", ())
    assert creation_step(start, 1).terms == {(1,): QtRat(QT_ONE - Q)}
    with pytest.raises(ValueError):
        creation_step(SymExpansion.single("s-mod", (2, 1)), 1)
    with pytest.raises(ValueError):
        creation_step(SymExpansion.single("s", (1,)), 1)


def _creation_by_permutations(f, k):
    """The creation operator as a sum over all k! permutations: row i
    in column sigma_i has degree lam_i + sigma_i - i (rows from 1) and
    factor 1 - q^d t^(k - sigma_i); a negative degree kills the term."""
    acc = {}
    for lam, coef in f.terms.items():
        padded = lam + (0,) * (k - len(lam))
        for sigma in permutations(range(1, k + 1)):
            degrees = [padded[i - 1] + j - i + 1
                       for i, j in enumerate(sigma, start=1)]
            if min(degrees, default=0) < 0:
                continue
            factor = QT_ONE
            for d, j in zip(degrees, sigma):
                factor = factor * (QT_ONE - QtPoly.monomial(1, d, k - j))
            inversions = sum(1 for a in range(k) for b in range(a + 1, k)
                             if sigma[a] > sigma[b])
            if inversions % 2:
                factor = -factor
            shape = tuple(sorted((d for d in degrees if d), reverse=True))
            acc[shape] = acc.get(shape, QtRat(0)) + coef * QtRat(factor)
    return convert_basis(SymExpansion("h-mod", f.weight + k, acc), "s-mod")


def test_creation_step_matches_permutation_sum():
    for w in range(5):
        for mu in partitions_of(w):
            f = SymExpansion.single("s-mod", mu)
            for k in range(len(mu), 6):
                assert creation_step(f, k) == _creation_by_permutations(f, k), (mu, k)
    j21 = jpoly_via_creation((2, 1))
    assert len(j21.terms) > 1
    for k in range(2, 6):
        assert creation_step(j21, k) == _creation_by_permutations(j21, k), k


def test_creation_step_rejects_a_fraction():
    """Every J is integral, so no caller passes a fraction; one passed
    anyway is refused rather than packed."""
    for coef in (QtRat(QT_ONE, QT_ONE - Q), QtRat(QT_ONE, Q), QtRat(QT_ONE, QtPoly.const(2))):
        f = SymExpansion("s-mod", 2, {(2,): QtRat(QT_ONE), (1, 1): coef})
        with pytest.raises(ValueError):
            creation_step(f, 2)


def test_creation_width_bound_covers_every_output(monkeypatch):
    """The bound each step packs at is at least every output coefficient."""
    bounds = []
    monkeypatch.setattr("macdet.macdonald.pack_width",
                        lambda bound: bounds.append(bound) or pack_width(bound))
    for w in range(1, 8):
        for lam in partitions_of(w):
            lam_c = conjugate(lam)
            inner = jpoly_via_creation(conjugate(lam_c[1:]))
            del bounds[:]
            out = creation_step(inner, lam_c[0])
            assert len(bounds) == 1, lam
            top = max(abs(c) for coef in out.terms.values() for c in coef.num.terms.values())
            assert top <= bounds[0], lam


def test_creation_h_sum_width_holds_and_one_width_narrower_does_not(monkeypatch):
    """Each creation step packs its h-mod sums at the width of the
    largest shape norm and hands them to convert_basis: every h-mod
    coefficient of the step's output, read back through convert_basis, is
    at most the bound its sum carries, below 2^(W-1).  Of the 66 steps
    of J through weight 8, 50 pack their h-sums at the least width, 8,
    which has no narrower width, and 16 at 16, the first being (1^5)
    with bound 128; so the steps are also run on J scaled by 2^24 (the
    step is linear), where one width narrower gives a wrong expansion,
    or raises ArithmeticError, for some shape."""
    macdet.clear_caches()
    start = perf_counter()
    steps = []
    for w in range(1, 11):
        for lam in partitions_of(w):
            lam_c = conjugate(lam)
            inner, out = jpoly_via_creation(conjugate(lam_c[1:])), jpoly_via_creation(lam)
            steps += [(lam, inner * scale, lam_c[0], out * scale) for scale in (1, 1 << 24)]
    widths, h_mods = [], []
    monkeypatch.setattr("macdet.macdonald.convert_basis",
                        lambda f, target: h_mods.append(f) or convert_basis(f, target))
    monkeypatch.setattr("macdet.macdonald.pack_width",
                        lambda bound: widths.append(pack_width(bound)) or widths[-1])
    for lam, inner, k, out in steps:
        if sum(lam) > 9:
            continue
        del widths[:], h_mods[:]
        assert creation_step(inner, k) == out, lam
        assert len(widths) == 1 and len(h_mods) == 1, lam
        (h_mod,) = h_mods
        assert h_mod.basis == "h-mod" and h_mod == convert_basis(out, "h-mod"), lam
        for shape, coef in h_mod.terms.items():
            num = coef.num
            assert isinstance(num, PackedPoly) and num.width == widths[0], (lam, shape)
            top = max(map(abs, num.terms.values()))
            assert top <= num.bound < 1 << (widths[0] - 1), (lam, shape)
    ladder = [8, 16, 32, 64, 128, 192]
    monkeypatch.setattr("macdet.macdonald.pack_width",
                        lambda bound: ladder[max(ladder.index(pack_width(bound)) - 1, 0)])
    wrong = []
    for lam, inner, k, out in steps:
        try:
            if creation_step(inner, k) != out:
                wrong.append(lam)
        except ArithmeticError:
            wrong.append(lam)
    elapsed = perf_counter() - start
    macdet.clear_caches()
    assert wrong
    assert elapsed < 30.0, f"the h-sum widths through weight 10 took {elapsed:.1f}s"


# sha256 of the sorted-key JSON of J_lam by the creation route, for every
# shape of each weight in partitions_of order, as computed by the
# term-dict creation step before the step ran on packed integers.
CREATION_SHA256 = {
    1: "310e6ac927e62da1ac6d96e10784ec2d4834fa6ffbad7cb74e48cdd958c79547",
    2: "763b493c2431c284de0d871571e1c67df29f5b868b6a7b288313c780a9152f1a",
    3: "0d12983ca774e18fa94aa9ecae4abd4f79016e27f46cc8aa565e7ad54e30b5d4",
    4: "7805cf02600d8e9cd1e469df4268a240877287d05061b135ada36923d7a539ff",
    5: "8984bc579ff1b748e8d95e02cbe562f4cebcc72857f910a2a4eb795f0b905d44",
    6: "207ca72d5766cb9be4c7da6526b7949e36e406643dcde20c8d59a78bc857ce1c",
    7: "249271931fbd33eae76dfa0764a935329f2d4a039e8741c999afcf1150f956b9",
    8: "3792c7020f815be2e5b04e062bd3b0ac0e2b38f56324af92f079225f405a3b0c",
    9: "b88f8440a2b4a71e4fbdab22fb52c31539360d8e2c87e894f1dd60d203ede8fd",
    10: "6cbbe9bfa6f3f8529661f57ab755d17bb4e61f27c355f576dfb1ded1dd284648",
    11: "bdec33e32703494bb7d041140294cce93b533bfacf13a16c6dbc16a2a89b73e4",
}


def test_creation_outputs_pinned_through_weight_11():
    for w, pinned in CREATION_SHA256.items():
        digest = hashlib.sha256()
        for lam in partitions_of(w):
            digest.update(json.dumps(sym_to_json(jpoly_via_creation(lam)), sort_keys=True).encode())
        assert digest.hexdigest() == pinned, w
    macdet.clear_caches()


def test_creation_sweep_through_weight_12_budget():
    """Every shape of weights 1-12 by the creation route, cold; each
    weight-12 result carries the leading coefficient c_{lam'}(t,q) that
    dual_transport checks."""
    macdet.clear_caches()
    start = perf_counter()
    for w in range(1, 13):
        for lam in partitions_of(w):
            jpoly_via_creation(lam)
    elapsed = perf_counter() - start
    for lam in partitions_of(12):
        dual_transport(jpoly_via_creation(lam), conjugate(lam))
    macdet.clear_caches()
    assert elapsed < 10.0, f"weights 1-12 by creation took {elapsed:.1f}s"


def test_c_lambda_is_the_cell_by_cell_product_through_weight_10():
    for w in range(11):
        for lam in partitions_of(w):
            expected = QT_ONE
            for cell in arm_leg_cells(lam):
                expected = expected * (QT_ONE - QtPoly.monomial(1, cell.arm, cell.leg + 1))
            assert c_lambda(lam) == expected, lam


def test_a_cold_determinant_request_builds_no_packed_layout():
    """c_lambda is a product of term dicts, and the determinant solve
    reads its packed row sums as dense rows, so no record of the
    determinant route, written out as jpoly writes it, lays out digits."""
    for w in range(7):
        for lam in partitions_of(w):
            for basis in BASIS_TAG:
                macdet.clear_caches()
                expansion = compute_expansion(lam, basis, "determinant")
                record_json(result_record(lam, basis, "determinant", expansion))
                assert qt_module._layout.cache_info().currsize == 0, (lam, basis)


def _term_dict_expansion(lam, tag):
    """J_lam by creation in basis tag, composed on term dicts: the s-mod
    expansion of lam or lam' with every coefficient decoded into a plain
    QtPoly, then dual_transport and convert_basis."""
    if tag == "s-mod":
        source = jpoly_via_creation(lam)
    else:
        source = jpoly_via_creation(conjugate(lam))
    plain = SymExpansion("s-mod", source.weight,
                         {mu: QtRat(QtPoly(c.num.terms)) for mu, c in source.terms.items()})
    if tag == "s-mod":
        return plain
    schur = dual_transport(plain, lam)
    return schur if tag == "s" else convert_basis(schur, "m")


def test_monomial_width_holds_every_output_and_one_width_narrower_does_not(monkeypatch):
    """The creation route's monomial sums decode exactly at the width of
    their bound, which covers every output coefficient; the same sums laid
    out one width narrower give a wrong record for some shape."""
    macdet.clear_caches()
    shapes = [lam for w in range(1, 10) for lam in partitions_of(w)]
    reference = {lam: sym_to_json(_term_dict_expansion(lam, "m")) for lam in shapes}
    bounds = []
    monkeypatch.setattr("macdet.symfunc.pack_width",
                        lambda bound: bounds.append(bound) or pack_width(bound))
    for lam in shapes:
        c_lambda(lam)
        del bounds[:]
        out = compute_expansion(lam, "monomial", "creation")
        assert len(bounds) == 1, lam
        assert sym_to_json(out) == reference[lam], lam
        top = max(abs(c) for coef in out.terms.values() for c in coef.num.terms.values())
        assert top <= bounds[0], lam
    widths = [8, 16, 32, 64, 128, 192]
    monkeypatch.setattr("macdet.symfunc.pack_width",
                        lambda bound: widths[max(widths.index(pack_width(bound)) - 1, 0)])
    wrong = [lam for lam in shapes
             if sym_to_json(compute_expansion(lam, "monomial", "creation")) != reference[lam]]
    assert wrong
    macdet.clear_caches()


def test_planted_lead_in_the_creation_memo_fails_the_schur_and_monomial_records():
    """A creation memo whose lead is off by one, times t, or missing
    makes the Schur and monomial records of the conjugate shape raise."""
    for lam in ((1,), (2, 1), (3, 2, 1), (4, 1, 1), (3, 3)):
        lam_c = conjugate(lam)
        for plant in ("plus one", "times t", "missing"):
            macdet.clear_caches()
            terms = jpoly_via_creation(lam_c).terms
            lead = terms[lam_c].num
            if plant == "missing":
                del terms[lam_c]
            else:
                value = lead.value + 1 if plant == "plus one" else lead.value << lead.width
                terms[lam_c] = QtRat(PackedPoly(value, lead.span, lead.width, lead.bound))
            for basis in ("schur", "monomial"):
                with pytest.raises(ArithmeticError, match="leading coefficient"):
                    compute_expansion(lam, basis, "creation")
    macdet.clear_caches()
    for lam in ((1,), (2, 1), (3, 2, 1), (4, 1, 1), (3, 3)):
        for basis, tag in (("schur", "s"), ("monomial", "m")):
            assert compute_expansion(lam, basis, "creation") == _term_dict_expansion(lam, tag)
    macdet.clear_caches()


def test_creation_matches_determinant():
    for w in range(1, 6):
        for lam in partitions_of(w):
            a = jpoly_via_creation(lam)
            b = jpoly_determinant(lam, "s-mod")
            assert a.terms == b.terms, lam


def test_q_equals_t_collapse():
    for w in range(1, 5):
        for lam in partitions_of(w):
            jp = jpoly_determinant(lam, "s")
            at_q = {mu: QtRat(coef.num.subs_t_eq_q(), coef.den.subs_t_eq_q())
                    for mu, coef in jp.terms.items()}
            collapsed = {mu: coef for mu, coef in at_q.items() if not coef.is_zero()}
            expect = QtRat(c_lambda(lam).subs_t_eq_q())
            assert collapsed == {lam: expect}, lam


def test_latex_renderers_smoke():
    em = EntryMatrix.build((2, 2))
    text = latex_matrix(em)
    assert "S_{2,2}[X^{tq}]" in text and r"\begin{array}" in text
    mono = latex_matrix(EntryMatrix.build((2, 2), "m"))
    assert "m_{2,2}[X_{4}]" in mono and "-3[4,0]-[0,4]" in mono


# sha256 of the sym_to_json of jpoly_determinant(lam, basis), one sorted-key
# JSON line each, over every shape of weight 0..7 (partitions_of order) and
# basis s-mod, s, m; and of latex_matrix(EntryMatrix.build(lam, basis)), one
# line each, over every nonempty shape through weight 6.  Pinned from the
# code that carried a (t,q) bracket order for the Schur and monomial
# matrices.
DETERMINANTS_SHA256 = "eca86927ab3ae64053e312084298cbc2e284be9403ff8066127ed70bfefb0c53"
MATRICES_LATEX_SHA256 = "d3d272f5c0499622925a7f5d9c11f6f92f8b33677770b1d71ed9615a959fbd03"


def test_determinant_outputs_and_matrices_are_pinned():
    macdet.clear_caches()
    start = perf_counter()
    bases = ("s-mod", "s", "m")
    expansions = "".join(
        json.dumps(sym_to_json(jpoly_determinant(lam, basis)), sort_keys=True) + "\n"
        for w in range(8) for lam in partitions_of(w) for basis in bases)
    matrices = "".join(
        latex_matrix(EntryMatrix.build(lam, basis)) + "\n"
        for w in range(1, 7) for lam in partitions_of(w) for basis in bases)
    elapsed = perf_counter() - start
    assert hashlib.sha256(expansions.encode()).hexdigest() == DETERMINANTS_SHA256
    assert hashlib.sha256(matrices.encode()).hexdigest() == MATRICES_LATEX_SHA256
    assert elapsed < 30.0, f"pinned determinants took {elapsed:.1f}s"


# sha256 of the sym_to_json of jpoly_determinant(lam, basis), one sorted-key
# JSON line each, over every shape of weight 8 (partitions_of order) and
# basis s-mod, s, m.  Pinned from the code whose row sums were term dicts
# and whose pivot division was the sparse-heap exact_div.
DETERMINANTS_WEIGHT_8_SHA256 = "fe8350751fc4eeeb6d8c6257cefed6f411a425d3d7e4677bd3167dae2077999d"


def test_determinants_at_weight_8_are_pinned():
    macdet.clear_caches()
    start = perf_counter()
    expansions = "".join(
        json.dumps(sym_to_json(jpoly_determinant(lam, basis)), sort_keys=True) + "\n"
        for lam in partitions_of(8) for basis in ("s-mod", "s", "m"))
    elapsed = perf_counter() - start
    macdet.clear_caches()
    assert hashlib.sha256(expansions.encode()).hexdigest() == DETERMINANTS_WEIGHT_8_SHA256
    assert elapsed < 30.0, f"weight-8 determinants took {elapsed:.1f}s"

"""Gram-Schmidt reference construction: pairing, orthogonality, rescaling."""

import ast
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

import macdet
import macdet.qt

from macdet import oracle
from macdet.oracle import (
    integral_form,
    monic_form,
    orthogonal_basis,
    power_sum_pairing,
    z_factor,
)
from macdet.partitions import arm_leg_cells, extension_key, partitions_of
from macdet.qt import QT_ONE, QT_RAT_ZERO, Q, QtPoly, QtRat, T
from macdet.symfunc import SymExpansion, convert_basis, sym_to_json


def inner_product(f: SymExpansion, g: SymExpansion) -> QtRat:
    """Deformed scalar product of two expansions of equal weight."""
    if f.weight != g.weight:
        raise ValueError("inner product needs equal weights")
    fp = convert_basis(f, "p")
    gp = convert_basis(g, "p")
    total = QT_RAT_ZERO
    for lam, coeff in fp.terms.items():
        other = gp.terms.get(lam, QT_RAT_ZERO)
        if not other.is_zero():
            total = total + coeff * other * power_sum_pairing(lam, lam)
    return total


def test_z_factor_values():
    assert z_factor(()) == 1
    assert z_factor((1,)) == 1
    assert z_factor((2,)) == 2
    assert z_factor((1, 1)) == 2
    assert z_factor((2, 1)) == 2
    assert z_factor((1, 1, 1)) == 6
    assert z_factor((2, 2)) == 8
    assert z_factor((3, 2, 1)) == 6


def test_power_sum_pairing_values():
    two = QtPoly.const(2)
    assert power_sum_pairing((2,), (2,)) == QtRat(two * (QT_ONE - Q**2),
                                                  QT_ONE - T**2)
    assert power_sum_pairing((1, 1), (1, 1)) == QtRat(
        two * (QT_ONE - Q) ** 2, (QT_ONE - T) ** 2)
    assert power_sum_pairing((2,), (1, 1)) == QT_RAT_ZERO


def test_power_sum_pairing_is_the_gcd_reduced_fraction_through_weight_10():
    # QtRat equality is structural, so the pairing built with no GCD must
    # already be the fraction that reduction would make
    for w in range(1, 11):
        for rho in partitions_of(w):
            num, den = QtPoly.const(z_factor(rho)), QT_ONE
            for part in rho:
                num, den = num * (QT_ONE - Q**part), den * (QT_ONE - T**part)
            want = QtRat(num, den)
            got = power_sum_pairing(rho, rho)
            assert (got.num, got.den) == (want.num, want.den), rho


def test_inner_product_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        inner_product(SymExpansion.single("m", (2,)),
                      SymExpansion.single("m", (1,)))


def test_monic_forms_weight_two():
    assert monic_form(()) == SymExpansion.single("m", ())
    assert monic_form((1,)) == SymExpansion.single("m", (1,))
    assert monic_form((1, 1)) == SymExpansion.single("m", (1, 1))
    ratio = QtRat((QT_ONE + Q) * (QT_ONE - T), QT_ONE - Q * T)
    expected = SymExpansion("m", 2, {(2,): QtRat(1), (1, 1): ratio})
    assert monic_form((2,)) == expected


def test_integral_forms_small():
    assert integral_form((1,)) == SymExpansion.single("m", (1,), QT_ONE - T)
    expected_two = SymExpansion("m", 2, {
        (2,): QtRat((QT_ONE - T) * (QT_ONE - Q * T)),
        (1, 1): QtRat((QT_ONE + Q) * (QT_ONE - T) ** 2),
    })
    assert integral_form((2,)) == expected_two
    expected_col = SymExpansion.single(
        "m", (1, 1), (QT_ONE - T) * (QT_ONE - T**2))
    assert integral_form((1, 1)) == expected_col


def test_orthogonality_up_to_weight_five():
    for w in range(6):
        shapes = partitions_of(w)
        for i, lam in enumerate(shapes):
            for mu in shapes[i + 1:]:
                value = inner_product(monic_form(lam), monic_form(mu))
                assert value.is_zero(), (lam, mu)
                assert not inner_product(monic_form(lam),
                                         monic_form(lam)).is_zero()


def test_integral_form_coefficients_are_polynomial():
    for w in range(5):
        for lam in partitions_of(w):
            for mu, coeff in integral_form(lam).terms.items():
                assert coeff.is_polynomial(), (lam, mu)


def test_collapse_at_equal_parameters():
    for w in range(5):
        for lam in partitions_of(w):
            scale = QtRat(1)
            for cell in arm_leg_cells(lam):
                scale = scale * QtRat(QT_ONE - Q ** (cell.arm + cell.leg + 1))
            expected = convert_basis(
                SymExpansion.single("s", lam), "m") * scale
            f = integral_form(lam)
            collapsed = SymExpansion(f.basis, f.weight,
                                     {mu: QtRat(c.num.subs_t_eq_q(), c.den.subs_t_eq_q())
                                      for mu, c in f.terms.items()})
            assert collapsed == expected, lam


def test_matches_determinant_route_small():
    from macdet.macdonald import jpoly_determinant

    for w in range(4):
        for lam in partitions_of(w):
            assert integral_form(lam) == jpoly_determinant(lam, "m"), lam


def test_cold_monic_form_matches_cold_basis():
    for w in range(7):
        macdet.clear_caches()
        basis = orthogonal_basis(w)
        for lam in partitions_of(w):
            macdet.clear_caches()
            got = monic_form(lam)
            assert got == basis[lam], lam
            assert list(got.terms.items()) == list(basis[lam].terms.items()), lam


def classical_gram_schmidt(w: int) -> tuple[dict, dict]:
    """The orthogonalization with a full weighted p-form and a norm for
    every member: (basis, weighted forms)."""
    basis, weighted, norms = {}, {}, {}
    for lam in sorted(partitions_of(w), key=extension_key):
        current = SymExpansion.single("m", lam)
        mp = convert_basis(current, "p").terms
        for mu in basis:
            overlap = QT_RAT_ZERO
            for rho, c in mp.items():
                if rho in weighted[mu]:
                    overlap = overlap + weighted[mu][rho] * c
            if not overlap.is_zero():
                current = current + basis[mu] * (-overlap / norms[mu])
        basis[lam] = current
        weighted[lam] = {rho: c * power_sum_pairing(rho, rho)
                         for rho, c in convert_basis(current, "p").terms.items()}
        norms[lam] = sum((weighted[lam].get(rho, QT_RAT_ZERO) * c for rho, c in mp.items()),
                         QT_RAT_ZERO)
    return basis, weighted


def test_read_sets_build_the_classical_basis_term_for_term():
    for w in range(7):
        macdet.clear_caches()
        got = orthogonal_basis(w)
        want, _ = classical_gram_schmidt(w)
        assert list(got) == list(want), w
        for lam in want:
            assert list(got[lam].terms.items()) == list(want[lam].terms.items()), lam


@pytest.mark.parametrize("w", [4, 5, 6])
def test_a_read_set_missing_a_read_power_sum_changes_the_basis(w, monkeypatch):
    # Negative control: drop p_(w-1,1), which the overlap of the shape
    # (w-1, 1) reads, from the read set of the member two places before
    # the last.
    shapes = sorted(partitions_of(w), key=extension_key)
    mu, later = shapes[-3], shapes[-2]
    rho = later
    want, weighted = classical_gram_schmidt(w)
    assert rho in convert_basis(SymExpansion.single("m", later), "p").terms
    assert not weighted[mu][rho].is_zero()
    read_sets = oracle._read_sets

    def mutant(shapes, fresh):
        reads = read_sets(shapes, fresh)
        return {**reads, mu: reads[mu] - {rho}}

    monkeypatch.setattr(oracle, "_read_sets", mutant)
    got = orthogonal_basis.__wrapped__(w)
    assert got[later] != want[later]
    assert all(got[lam] == want[lam] for lam in shapes[:-2])


def test_cold_orthogonal_basis_6_gcd_ceiling(monkeypatch):
    # 2,466 gcd_cofactors calls when every member had a full weighted
    # form and a norm, and the pairing was reduced by GCD
    calls = []
    real = macdet.qt.gcd_cofactors

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    macdet.clear_caches()
    monkeypatch.setattr(macdet.qt, "gcd_cofactors", counted)
    orthogonal_basis(6)
    assert len(calls) <= 1987


ORTHOGONAL_BASIS_SHA256 = "e80c3cc752a8494983887bf9bf529bb1280568c371ed5d36fb7a6bca0dc0ac42"


def test_orthogonal_basis_pinned_through_weight_7():
    # A common divisor that is not the greatest leaves a fraction
    # unreduced, which changes its text and so this digest.
    macdet.clear_caches()
    start = perf_counter()
    chunks = [json.dumps(sym_to_json(orthogonal_basis(w)[lam]), sort_keys=True)
              for w in range(8) for lam in partitions_of(w)]
    elapsed = perf_counter() - start
    assert hashlib.sha256("\n".join(chunks).encode()).hexdigest() == ORTHOGONAL_BASIS_SHA256
    assert elapsed < 30.0, f"cold basis through weight 7 took {elapsed:.1f}s"


def _cache_sizes() -> tuple[int, ...]:
    """Entries held by every module-level lru_cache of the package."""
    return tuple(obj.cache_info().currsize
                 for name, module in sorted(sys.modules.items())
                 if name.startswith("macdet.")
                 for obj in vars(module).values() if hasattr(obj, "cache_info"))


def test_monic_form_builds_the_same_basis_for_every_shape():
    # A cold request costs the same whatever the shape's place in the
    # order of orthogonalization: it always builds the whole basis.
    sizes = set()
    for lam in partitions_of(6):
        macdet.clear_caches()
        monic_form(lam)
        sizes.add(_cache_sizes())
    assert len(sizes) == 1
    column, row = (1,) * 6, (6,)
    macdet.clear_caches()
    row_first = {row: monic_form(row), column: monic_form(column)}
    macdet.clear_caches()
    column_first = {column: monic_form(column), row: monic_form(row)}
    assert row_first == column_first


def _package_imports(module: str) -> set[str]:
    """Names of the macdet modules that one source module imports."""
    package = Path(macdet.__file__).parent
    tree = ast.parse((package / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["macdet" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in dotted if name.startswith("macdet."))
    return {name for name in found if (package / f"{name}.py").exists()}


def test_oracle_imports_only_partitions_qt_symfunc():
    assert _package_imports("oracle") == {"partitions", "qt", "symfunc"}
    reachable, frontier = set(), ["oracle"]
    while frontier:
        for name in _package_imports(frontier.pop()) - reachable:
            reachable.add(name)
            frontier.append(name)
    assert not reachable & {"macdonald", "divdiff", "verify"}

"""Gram-Schmidt reference construction: pairing, orthogonality, rescaling."""

import ast
import hashlib
import json
import math
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
from macdet.qt import (QT_ONE, QT_RAT_ZERO, PackedPoly, Q, QtPoly, QtRat, T, add_product,
                       pack_width)
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


def test_weights_share_the_closed_form_lcm_of_the_pairing_denominators():
    """L = prod_{k <= w} (1 - t^k) is what a gcd fold over the pairing's
    denominators gives through weight 10, and <p_rho, p_rho> is
    z_rho w_rho / L for the w_rho of _weights."""
    for w in range(1, 11):
        shapes = partitions_of(w)
        common = math.prod((QT_ONE - T**k for k in range(1, w + 1)), start=QT_ONE)
        assert macdet.qt._lcm(power_sum_pairing(rho, rho).den for rho in shapes) == common, w
        for rho, terms in oracle._weights(list(shapes)).items():
            weighted = QtRat(QtPoly(terms) * QtPoly.const(z_factor(rho)), common)
            assert weighted == power_sum_pairing(rho, rho), rho


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


@pytest.mark.parametrize("w, ceiling", [(5, 230), (6, 800)])
def test_cold_orthogonal_basis_takes_one_gcd_per_projection(w, ceiling, monkeypatch):
    # 593 and 1,987 gcd_cofactors calls at weights 5 and 6 when every
    # overlap summed weighted QtRat products; 223 and 794 with the
    # overlaps summed on integers and one GCD per projection
    calls = []
    real = macdet.qt.gcd_cofactors

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    macdet.clear_caches()
    monkeypatch.setattr(macdet.qt, "gcd_cofactors", counted)
    start = perf_counter()
    orthogonal_basis(w)
    elapsed = perf_counter() - start
    assert len(calls) <= ceiling
    assert elapsed < 10.0, f"cold basis of weight {w} took {elapsed:.1f}s"


class _Misdecoded(Exception):
    """An overlap or norm that decodes to something other than its sum."""


def _check_overlaps(monkeypatch, w: int) -> None:
    """Build the basis of weight w, checking as each member's images are
    made, before any projection reads them, that its norm and its overlap
    N_lam,mu with every later shape decode to the term-dict sum of
    k_lam,rho s_rho y_rho w_rho; raise _Misdecoded at the first that
    does not."""
    shapes = sorted(partitions_of(w), key=extension_key)
    weights = oracle._weights(shapes)
    rows = {lam: {rho: (c * z_factor(rho)).num.constant_value() for rho, c in
                  convert_basis(SymExpansion.single("m", lam), "p").terms.items()}
            for lam in shapes}
    p_forms, checked = [], []
    step, images_of = oracle._convert_step, oracle._images

    def checked_images(*args):
        images, layout = images_of(*args)
        later, p_form = shapes[len(checked):], p_forms[-1]
        common = math.lcm(*(c.den.constant_value() for c in p_form.values()))
        for lam in later:
            want = {}
            for rho, c in p_form.items():
                k = rows[lam].get(rho, 0) * common // c.den.constant_value()
                add_product(want, c.num.terms, {key: k * v for key, v in weights[rho].items()})
            value = sum(k * images.get(rho, 0) for rho, k in rows[lam].items())
            if PackedPoly(value, *layout).terms != want:
                raise _Misdecoded(w, later[0], lam)
        checked.append(later[0])
        return images, layout

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_convert_step",
                      lambda *args: p_forms.append(step(*args)) or p_forms[-1])
        patch.setattr(oracle, "_images", checked_images)
        orthogonal_basis.__wrapped__(w)
    assert checked == shapes[:-1], w


def test_overlap_width_holds_and_one_width_narrower_does_not(monkeypatch):
    """At the proven width every norm and overlap of every member through
    weight 7 decodes to its term-dict sum; one width narrower, some
    overlap of some weight does not, so its projection would be wrong.
    The check stops at the first wrong decode: a wrong projection feeds
    fractions whose reduction can outrun any budget."""
    start = perf_counter()
    for w in range(2, 8):
        _check_overlaps(monkeypatch, w)

    def narrower(bound):
        width = pack_width(bound)
        return width if width == 8 else width // 2 if width <= 64 else width - 64

    monkeypatch.setattr(oracle, "pack_width", narrower)
    wrong = []
    for w in range(2, 8):
        try:
            _check_overlaps(monkeypatch, w)
        except _Misdecoded as exc:
            wrong.append(exc.args)
    assert wrong
    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"overlap widths through weight 7 took {elapsed:.1f}s"


@pytest.mark.parametrize("w", [4, 5])
def test_a_weight_missing_its_lcm_factor_changes_the_basis(w, monkeypatch):
    # Negative control: w_(w) without its factor L / (1 - t^w), so p_(w),
    # which every overlap reads, is weighted over the wrong denominator.
    want, _ = classical_gram_schmidt(w)
    rho = (w,)
    weights_of = oracle._weights

    def mutant(shapes):
        pairing = power_sum_pairing(rho, rho)
        dropped = {key: c // z_factor(rho) for key, c in pairing.num.terms.items()}
        return {**weights_of(shapes), rho: dropped}

    monkeypatch.setattr(oracle, "_weights", mutant)
    start = perf_counter()
    got = orthogonal_basis.__wrapped__(w)
    elapsed = perf_counter() - start
    assert got != want
    assert elapsed < 10.0, f"mutant basis of weight {w} took {elapsed:.1f}s"


def test_pairing_step_converts_once_per_member_with_no_qtrat_arithmetic(monkeypatch):
    """orthogonal_basis converts each member but the last m -> p with one
    _convert_step, and its pairing step (_images) runs no QtRat operator:
    the overlaps are integer sums."""
    start = perf_counter()
    steps, inside = [], []
    step, images_of = oracle._convert_step, oracle._images

    def pairing(*args):
        inside.append(None)
        try:
            return images_of(*args)
        finally:
            inside.pop()

    def guarded(name):
        real = getattr(QtRat, name)

        def operator(*args):
            if inside:
                raise AssertionError(f"QtRat.{name} in the pairing step")
            return real(*args)
        return operator

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse"):
        monkeypatch.setattr(QtRat, name, guarded(name))
    monkeypatch.setattr(oracle, "_convert_step", lambda *args: steps.append(args[1:3]) or step(*args))
    monkeypatch.setattr(oracle, "_images", pairing)
    for w in range(1, 7):
        del steps[:]
        orthogonal_basis.__wrapped__(w)
        assert steps == [("m", "p")] * (len(partitions_of(w)) - 1), w
    elapsed = perf_counter() - start
    assert elapsed < 10.0, f"weights 1 to 6 took {elapsed:.1f}s"


ORTHOGONAL_BASIS_8_SHA256 = "c7cd0cd9e906cdbddb11d65735922f1df6267d6c405c2245830618d2668f8c4a"


def test_orthogonal_basis_8_pinned_in_key_and_term_order():
    # Taken from the construction whose overlaps were sums of weighted
    # QtRat products: the members in their dict order, each member's terms
    # in their dict order, and every coefficient's text.
    macdet.clear_caches()
    start = perf_counter()
    text = "\n".join(
        json.dumps([list(lam), [[list(mu), str(c.num), str(c.den)] for mu, c in f.terms.items()]])
        for lam, f in orthogonal_basis(8).items())
    elapsed = perf_counter() - start
    assert hashlib.sha256(text.encode()).hexdigest() == ORTHOGONAL_BASIS_8_SHA256
    assert elapsed < 60.0, f"cold basis of weight 8 took {elapsed:.1f}s"


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

"""Independent reference construction by Gram-Schmidt orthogonalization.

The integral forms built elsewhere in this package all go through the
same bracket arithmetic, so agreement among them would not catch a
systematic error in that arithmetic.  This module builds the same
polynomials along a disjoint route: orthogonalize the monomial basis
with respect to the deformed power-sum pairing, then rescale by the
hook-style product read off the diagram.  Nothing here imports the
determinant or operator machinery, and the only conversion the
orthogonalization makes, m -> p, comes from Newton's identity rather
than the ordered expansion that the determinant cells read.

The orthogonalization computes only what a later step reads (see
orthogonal_basis), and the diagonal pairing is built reduced, with no GCD.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import (
    Partition,
    arm_leg_cells,
    extension_key,
    partition,
    partitions_of,
    weight,
    z_factor,
)
from .qt import QT_ONE, QT_RAT_ONE, QT_RAT_ZERO, Q, QtPoly, QtRat, T
from .symfunc import SymExpansion, _convert_step, convert_basis


def power_sum_pairing(lam: Partition, mu: Partition) -> QtRat:
    """Deformed pairing of p_lam with p_mu; diagonal in the power sums.

    The diagonal value z_lam prod (1 - q^k) / prod (1 - t^k), over the
    parts k of lam, is built reduced with no GCD: a polynomial in q alone
    and one in t alone share no nonconstant factor, and the denominator
    has integer content 1 and constant term 1, its first term in
    canonical order, so it is already sign-normalized.
    """
    if lam != mu:
        return QT_RAT_ZERO
    num, den = QtPoly.const(z_factor(lam)), QT_ONE
    for part in lam:
        num = num * (QT_ONE - Q**part)
        den = den * (QT_ONE - T**part)
    return QtRat(num, den, _reduced=True)


@lru_cache(maxsize=None)
def orthogonal_basis(w: int) -> dict[Partition, SymExpansion]:
    """Monic orthogonal family of weight w in the monomial basis.

    Classical Gram-Schmidt against the power-sum pairing.  Partitions
    are processed along an order refining dominance.  Each member is
    carried as one m-form.  The overlap of a fresh m_lam (constant
    p-coefficients) with an earlier member is a sum of constant multiples
    of that member's weighted p-form, its p-coefficients times the
    diagonal pairing.  The norm of the new member is its overlap with
    m_lam, since it differs from m_lam by earlier members, all orthogonal
    to it.  Unitriangularity over the monomials makes the result
    independent of how ties between incomparable partitions are broken.

    A finished member's weighted form is read only by its own norm and by
    the overlaps of later shapes, that is, at the power sums of its read
    set (_read_sets).  So its m -> p conversion computes, and weights,
    only those entries, and the last member gets no weighted form and no
    norm; every sum reads exactly the entries it read before, so the
    basis is the same term for term.
    """
    shapes = sorted(partitions_of(w), key=extension_key)
    fresh = {lam: convert_basis(SymExpansion.single("m", lam), "p").terms for lam in shapes}
    reads = _read_sets(shapes, fresh)
    pairings = {rho: power_sum_pairing(rho, rho) for rho in shapes}
    basis: dict[Partition, SymExpansion] = {}
    weighted: dict[Partition, dict[Partition, QtRat]] = {}
    norms: dict[Partition, QtRat] = {}
    for lam in shapes:
        mp = fresh[lam]
        current = SymExpansion.single("m", lam)
        for mu in basis:
            overlap = _overlap(mp, weighted[mu])
            if not overlap.is_zero():
                current = current + basis[mu] * (-overlap / norms[mu])
        basis[lam] = current
        if lam != shapes[-1]:
            p_form = _convert_step(current.terms, "m", "p", reads[lam])
            weighted[lam] = {rho: c * pairings[rho] for rho, c in p_form.items()}
            norms[lam] = _overlap(mp, weighted[lam])
    return basis


def _read_sets(shapes: list[Partition],
               fresh: dict[Partition, dict[Partition, QtRat]]) -> dict[Partition, frozenset]:
    """For each shape lam, the union of the p-supports of m_lam and of
    every shape after it.  These are the keys of the integer m -> p
    table's rows, so each set is exact: the power sums that lam's norm or
    an overlap with a later shape can read, and no others.  Every set
    holds p_(w), which every row of that table has."""
    reads: dict[Partition, frozenset] = {}
    seen: frozenset = frozenset()
    for lam in reversed(shapes):
        seen = seen | fresh[lam].keys()
        reads[lam] = seen
    return reads


def _overlap(mp: dict[Partition, QtRat], weighted: dict[Partition, QtRat]) -> QtRat:
    """Pairing of a constant-coefficient p-form with a weighted p-form."""
    total = QT_RAT_ZERO
    for rho, c in mp.items():
        other = weighted.get(rho)
        if other is not None:
            total = total + other * c
    return total


def monic_form(lam: Partition) -> SymExpansion:
    """Monic orthogonal polynomial for lam, in the monomial basis.

    Builds the whole basis of lam's weight, not only the members up to
    lam, so a cold request costs the same for every shape of a weight
    rather than depending on the shape's place in the order.
    """
    lam = partition(lam)
    return orthogonal_basis(weight(lam))[lam]


def _diagram_scale(lam: Partition) -> QtRat:
    """Product over cells of 1 - q^arm t^(leg+1)."""
    scale = QT_RAT_ONE
    for cell in arm_leg_cells(lam):
        scale = scale * QtRat(QT_ONE - Q**cell.arm * T ** (cell.leg + 1))
    return scale


def integral_form(lam: Partition) -> SymExpansion:
    """Integral form for lam in the monomial basis, via orthogonalization."""
    lam = partition(lam)
    return monic_form(lam) * _diagram_scale(lam)

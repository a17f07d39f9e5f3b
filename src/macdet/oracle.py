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

The pairing's denominators lie in Z[t], so the overlaps are sums of
packed integer polynomials over one denominator, and each projection
takes one GCD (see orthogonal_basis).  The pairing is built reduced.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod

from .partitions import (
    Partition,
    arm_leg_cells,
    extension_key,
    partition,
    partitions_of,
    weight,
    z_factor,
)
from .qt import (QT_ONE, QT_RAT_ONE, QT_RAT_ZERO, PackedPoly, Q, QtPoly, QtRat, T, Terms, _lcm,
                 exact_div, pack, pack_width)
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

    Classical Gram-Schmidt against the power-sum pairing, along an order
    refining dominance, which unitriangularity makes immaterial between
    incomparable shapes.  A member's norm is its overlap with its m_mu.

    Overlaps are integer sums.  With k the integer m -> p table, m_lam has
    p-coefficients k_lam,rho / z_rho; the pairing is z_rho w_rho / L
    (_weights); a finished member over one denominator D_mu has
    p-coefficients y_rho / (e_rho D_mu), y_rho in Z[q,t] (_images).  So
    lcm(e) D_mu L <m_lam, P_mu> = N_lam,mu = sum_rho k_lam,rho s_rho y_rho
    w_rho, s_rho = lcm(e) / e_rho, and a projection is -N_lam,mu / N_mu,mu,
    one GCD; the m-form updates, and so the basis, are as before, term for
    term.  Width proof for the packed products s_rho y_rho w_rho: no term
    reaches t^span, span = 1 + max deg_t y + max deg_t w; a product's
    coefficients are at most one factor's largest times the other's
    1-norm, so at W = pack_width(B), B = sum_rho max_lam |k_lam,rho| s_rho
    ||y_rho||_inf ||w_rho||_1, every N decodes exactly, with bound B.

    Images are made only at the power sums of a member's read set
    (_read_sets), which its norm and the later overlaps read; the last
    member gets none.
    """
    shapes = sorted(partitions_of(w), key=extension_key)
    fresh = {lam: convert_basis(SymExpansion.single("m", lam), "p").terms for lam in shapes}
    reads = _read_sets(shapes, fresh)
    rows = {lam: {rho: c.num.constant_value() * z_factor(rho) // c.den.constant_value()
                  for rho, c in mp.items()} for lam, mp in fresh.items()}
    tops = {rho: max(abs(row.get(rho, 0)) for row in rows.values()) for rho in shapes}
    weights = _weights(shapes)
    basis: dict[Partition, SymExpansion] = {}
    members: dict[Partition, tuple] = {}  # mu -> (images, (span, width, bound), norm)
    for lam in shapes:
        row = rows[lam]
        current = SymExpansion.single("m", lam)
        for mu, (images, layout, norm) in members.items():
            overlap = sum(k * images.get(rho, 0) for rho, k in row.items())
            if overlap:
                current = current + basis[mu] * QtRat(PackedPoly(-overlap, *layout), norm)
        basis[lam] = current
        if lam != shapes[-1]:
            images, layout = _images(current, reads[lam], weights, tops)
            norm = sum(k * images.get(rho, 0) for rho, k in row.items())
            members[lam] = images, layout, PackedPoly(norm, *layout)
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


def _weights(shapes: list[Partition]) -> dict[Partition, Terms]:
    """w_rho in Z[q,t] with <p_rho, p_rho> = z_rho w_rho / L, L the lcm of
    the pairing's denominators over the weight w, prod_{k <= w} (1 - t^k):
    Phi_d divides floor(w / d) of its factors and as many parts of rho at most."""
    pairings = {rho: power_sum_pairing(rho, rho) for rho in shapes}
    common = prod((QT_ONE - T**k for k in range(1, weight(shapes[0]) + 1)), start=QT_ONE)
    return {rho: (exact_div(p.num, QtPoly.const(z_factor(rho))) * exact_div(common, p.den)).terms
            for rho, p in pairings.items()}


def _images(member: SymExpansion, keep: frozenset[Partition], weights: dict[Partition, Terms],
            tops: dict[Partition, int]) -> tuple[dict[Partition, int], tuple[int, int, int]]:
    """A member's packed images s_rho y_rho w_rho at the rho in keep, and
    their (span, width, bound); tops holds max_lam |k_lam,rho|."""
    den = _lcm(c.den for c in member.terms.values())
    nums = {lam: QtRat(c.num if c.den == den else c.num * exact_div(den, c.den), QT_ONE,
                       _reduced=True) for lam, c in member.terms.items()}
    p_form = _convert_step(nums, "m", "p", keep)
    common = lcm(*(c.den.constant_value() for c in p_form.values()))
    scales = {rho: common // c.den.constant_value() for rho, c in p_form.items()}
    span = 1 + max(kt for c in p_form.values() for _, kt in c.num.terms) + max(
        kt for rho in p_form for _, kt in weights[rho])
    bound = sum(tops[rho] * scales[rho] * max(map(abs, c.num.terms.values()))
                * sum(map(abs, weights[rho].values())) for rho, c in p_form.items())
    width = pack_width(bound)
    images = {rho: scales[rho] * pack(c.num.terms, span, width) * pack(weights[rho], span, width)
              for rho, c in p_form.items()}
    return images, (span, width, bound)


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


@lru_cache(maxsize=None)
def integral_form(lam: Partition) -> SymExpansion:
    """Integral form for lam in the monomial basis, via orthogonalization.
    Cached per shape, so the requests for one shape in every basis share
    one; callers only read it."""
    lam = partition(lam)
    return monic_form(lam) * _diagram_scale(lam)

"""Construction of the Macdonald J polynomials by determinants and
creation operators.

The central objects are the eigenvalue brackets [|alpha|], the signed
entry sums [lam]_{mu,nu} obtained from ordered expansions, and the
bordered determinant that gives the expansion of J_lam in the modified
Schur, Schur, or monomial basis.  Brackets live in one (q,t) frame: the
Schur and monomial determinants are the modified Schur construction for
lam' (Macdonald, ch. VI).  The three bases differ only in column order
(dominance upset or downset), top shape (lam or lam') and cells, so one
EntryMatrix.build makes all three matrices and one bordered_expansion
solves any of them.  The Schur cells of lam are the modified Schur cells
of lam', so jpoly_determinant serves the Schur expansion by duality
transport of the lam' solve; monomial cells are integer sums of Schur
cells, and that matrix is solved and swapped in q and t.  Dominance
order makes each numeric block lower Hessenberg, each superdiagonal
entry a single nonzero bracket difference, so one forward substitution
expands the determinant along its top row.
Every coefficient of J_lam in these bases lies in Z[q,t], so the
substitution runs on lead-scaled unknowns and stays in Z[q,t]: one
exact division per row, no fractions, of a row sum formed as one
big integer of Kronecker-packed products.  A second route iterates
column-adding creation operators on the modified Schur basis, each step
one computation on Kronecker-packed integers whose h-mod sums it keeps
packed (qt.PackedPoly) and hands to convert_basis for s-mod, as every
route converts.  Its Schur and monomial expansions of lam are
dual_transport of the sums of lam' and convert_basis of that, as on the
other routes; on packed sums these swap digit keys and sum on one
layout, and decode no term dict.  Both operator actions, the Macdonald
operators and the creation operators, are sums over the ordered
expansion that the determinant cells read.
compute_expansion, the route table that jpoly, table and every verify
suite read, serves each CLI basis by every route, the Gram-Schmidt
oracle included.  All arithmetic is exact; there is no display code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from typing import Iterator, NamedTuple

from .partitions import (
    Composition,
    Partition,
    arm_leg_cells,
    conjugate,
    dominance_downset,
    dominance_upset,
    partition,
    weight,
)
from .qt import (QT_ONE, QT_RAT_ZERO, PackedPoly, QtPoly, QtRat, Terms, add_scaled, dense_divide,
                 dense_row, pack, pack_width)
from .oracle import integral_form
from .symfunc import (Cell, SymExpansion, _m_to_s, convert_basis, expansion_by_shape,
                      ordered_expansion)


# ---------------------------------------------------------------------------
# brackets and scalars

def _bracket_exponents(alpha: Composition, n: int) -> Iterator[tuple[int, int]]:
    """The (q, t) exponents of q^{alpha_i} t^{n-i}, i = 1..n; alpha is
    padded with zeros to length n and may carry trailing zeros past it."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        if any(alpha[n:]):
            raise ValueError(f"vector {alpha} does not fit in {n} variables")
        alpha = alpha[:n]
    alpha += (0,) * (n - len(alpha))
    return zip(alpha, range(n - 1, -1, -1))


def bracket_spectrum(alpha: Composition, n: int) -> tuple[QtPoly, ...]:
    """The n monomials q^{alpha_i} t^{n-i}, whose sum is the eigenvalue
    bracket [|alpha|]."""
    return tuple(QtPoly({key: 1}) for key in _bracket_exponents(alpha, n))


def eigenvalue(alpha: Composition, k: int, n: int) -> QtPoly:
    """Elementary symmetric function e_k of the bracket spectrum of
    alpha, which may be any vector that bracket_spectrum takes; e_1 is
    the bracket [|alpha|] itself."""
    spectrum = bracket_spectrum(alpha, n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    e = [QT_ONE] + [QtPoly()] * k
    for x in spectrum:
        for j in range(k, 0, -1):
            e[j] = e[j] + e[j - 1] * x
    return e[k]


@lru_cache(maxsize=None)
def c_lambda(lam: Partition) -> QtPoly:
    """Product over cells of (1 - q^arm t^{leg+1}), one cell at a time."""
    out = QT_ONE
    for cell in arm_leg_cells(partition(lam)):
        out = out - out * QtPoly.monomial(1, cell.arm, cell.leg + 1)
    return out


# ---------------------------------------------------------------------------
# cells of the bordered determinants

@lru_cache(maxsize=None)
def monomial_cell(mu: Partition, nu_c: Partition, width: int) -> Cell:
    """Signed vectors (coef, alpha) with alpha running over permutations
    of the conjugate row shape nu_c, in descending order; coef is the
    scalar product of the dual monomial against m_mu.  With
    m_mu = sum of d_kappa s_kappa (integer d_kappa), the cell is the
    integer sum of d_kappa times the Schur cell of kappa at nu_c."""
    coefs: dict[Composition, int] = {}
    for kappa, d in _m_to_s(mu):
        for sign, alpha in expansion_by_shape(conjugate(kappa), width).get(nu_c, ()):
            coefs[alpha] = coefs.get(alpha, 0) + d * sign
    return tuple((c, alpha) for alpha, c in sorted(coefs.items(), reverse=True) if c)


# ---------------------------------------------------------------------------
# bordered determinants

class EntryMatrix(NamedTuple):
    """One bordered determinant for J_lam: a top row of basis elements
    over a numeric block.

    Column c is headed by the basis element indexed by columns[c] (lam
    first); rows run over columns[1:].  cells[r][c] lists pairs
    (coef, alpha) and entry (r, c) is the sum of
    coef * ([|top|] - [|alpha|]), brackets in n variables.  Every matrix
    is the modified Schur matrix of top in the (q,t) frame; the Schur and
    monomial solutions are swapped in q and t once solved.
    """

    lam: Partition
    n: int
    columns: tuple[Partition, ...]
    cells: tuple[tuple[Cell, ...], ...]
    basis: str
    top: Partition

    @property
    def rows(self) -> tuple[Partition, ...]:
        return self.columns[1:]

    @classmethod
    def build(cls, lam: Partition, basis: str = "s-mod", n: int | None = None) -> "EntryMatrix":
        """The bordered determinant of J_lam in basis "s-mod", "s" or "m".

        The modified Schur matrix has columns over the dominance upset
        of lam and brackets of lam; the Schur and monomial matrices have
        columns over the dominance downset and brackets of the conjugate
        shape, and their cells are the modified Schur cells of the
        conjugates (Schur) or integer sums of them (monomial).  n defaults
        to, and must be at least, the length of the top shape: l(lam) or lam_1.
        """
        lam = partition(lam)
        if basis == "s-mod":
            columns, top = dominance_upset(lam), lam
        elif basis in ("s", "m"):
            columns, top = dominance_downset(lam), conjugate(lam)
        else:
            raise ValueError(f"unknown determinant basis {basis!r}")
        if n is None:
            n = max(len(top), 1)
        elif n < len(top):
            raise ValueError(f"partition {top} does not fit in {n} variables")

        def cell(mu: Partition, nu: Partition) -> Cell:
            if basis == "m":
                return monomial_cell(mu, conjugate(nu), n)
            if basis == "s":
                mu, nu = conjugate(mu), conjugate(nu)
            return expansion_by_shape(mu, n).get(nu, ())

        cells = tuple(tuple(cell(mu, nu) for mu in columns) for nu in columns[1:])
        return cls(lam, n, columns, cells, basis, top)


def cell_poly(cell: Cell, top: Composition, n: int) -> QtPoly:
    """The numeric entry of one cell: the sum of
    coef * ([|top|] - [|alpha|]) over its pairs.

    The sum runs in place in one term dict: each bracket term of alpha
    loses coef, and each bracket term of top gains the sum of the coefs.
    """
    acc: Terms = {}
    for coef, alpha in cell:
        add_scaled(acc, zip(_bracket_exponents(alpha, n), repeat(1)), -coef)
    total = sum(coef for coef, _ in cell)
    add_scaled(acc, zip(_bracket_exponents(top, n), repeat(1)), total)
    return QtPoly._of(acc)


def _deg_t(terms: Terms) -> int:
    """The t-degree of a term dict; 0 when it is empty."""
    return max((kt for _, kt in terms), default=0)


def bordered_expansion(em: EntryMatrix) -> SymExpansion:
    """Expand the bordered determinant of em along its top row.

    The ordered expansion of a column's shape only reaches rows that
    dominate it, so row r vanishes beyond column r+1, where its entry
    is a single nonzero bracket difference.  The top-row cofactors span
    the kernel of the numeric block, and the coefficient c_{top'}(t,q)
    of S_top in J_top fixes the scale.  Every coefficient lies in
    Z[q,t], so forward substitution runs on the scaled unknowns: z_top
    is c_{top'}(t,q), and z_{r+1} is minus the row sum over c <= r of
    entry (r, c) times z_c, divided exactly by the superdiagonal entry.

    Each row sum is one integer under qt.pack's map t -> 2^W,
    q -> 2^(W*span): entries are packed from their cells' bracket
    exponents, -coef * [|alpha|] per pair plus (sum of coefs) * [|top|],
    and each z_c once per (span, W).  qt.dense_row reads minus the sum
    into the dense list, index a*span + b for q^a t^b, that dense_divide
    divides in place; a remainder raises ArithmeticError.  A bracket in
    n variables has n unit terms of t-degree below n, so every product
    has t-degree below span = max_c deg_t(z_c) + n, and every row-sum
    coefficient is at most B = sum_c ||A[r][c]||_1 * ||z_c||_inf, where
    ||A[r][c]||_1 <= 2n * sum of the cell's |coef|; B < 2^(W-1) for
    W = pack_width(B), so the balanced digits are the row's.  Schur and
    monomial unknowns are then swapped in q and t.  jpoly_determinant
    hands it no Schur matrix; one is solved only when a caller builds it.
    """
    n, top = em.n, em.top
    z = [c_lambda(conjugate(top)).swap_qt().terms]
    deg_t, norm = _deg_t(z[0]), [max(map(abs, z[0].values()))]
    images: dict[tuple[int, int, int], int] = {}
    for r, row in enumerate(em.cells):
        if any(row[r + 2:]):
            raise ArithmeticError(f"row {em.rows[r]} reaches past the superdiagonal")
        pivot = cell_poly(row[r + 1], top, n)
        if pivot.is_zero():
            raise ArithmeticError(f"zero superdiagonal entry in row {em.rows[r]}")
        parts = [c for c in range(r + 1) if row[c] and z[c]]
        span = deg_t + n
        width = pack_width(sum(2 * n * sum(abs(coef) for coef, _ in row[c]) * norm[c]
                               for c in parts))

        def bracket_image(alpha: Composition) -> int:
            return sum(1 << width * (a * span + b) for a, b in _bracket_exponents(alpha, n))

        top_image, acc = bracket_image(top), 0
        for c in parts:
            zc = images.get((c, span, width))
            if zc is None:
                zc = images[c, span, width] = pack(z[c], span, width)
            acc += sum(coef * (bracket_image(alpha) - top_image) for coef, alpha in row[c]) * zc
        quotient = dense_divide(dense_row(acc, width), span, pivot)
        if quotient is None:
            raise ArithmeticError(f"inexact pivot division in row {em.rows[r]}")
        z.append(quotient)
        deg_t = max(deg_t, _deg_t(quotient))
        norm.append(max(map(abs, quotient.values()), default=0))
    polys = [QtPoly._of(zc) for zc in z]
    if em.basis != "s-mod":
        polys = [zc.swap_qt() for zc in polys]
    terms = {mu: QtRat(zc) for mu, zc in zip(em.columns, polys) if zc}
    return SymExpansion(em.basis, weight(em.lam), terms)


@lru_cache(maxsize=None)
def jpoly_determinant(lam: Partition, basis: str) -> SymExpansion:
    """Expansion of J_lam in basis "s-mod", "s" or "m" from its bordered
    determinant; the empty partition gives the unit expansion.

    The Schur matrix of lam has the cells of the modified Schur matrix of
    lam', so the Schur expansion is the dual transport of that solve
    (which checks its leading coefficient): one solve per conjugate pair.
    """
    if basis == "s":
        return dual_transport(jpoly_determinant(conjugate(partition(lam)), "s-mod"), lam)
    return bordered_expansion(EntryMatrix.build(lam, basis))


# ---------------------------------------------------------------------------
# duality transport

def dual_transport(source: SymExpansion, lam: Partition) -> SymExpansion:
    """Carry J of the conjugate shape across q/t duality: a modified
    Schur expansion of J_{lam'} becomes the Schur expansion of J_lam,
    and a Schur expansion of J_{lam'} the modified Schur one.

    Conjugates every key and swaps q with t in every coefficient, a
    packed one by its digit keys alone.  The leading term must then
    carry the normalization of the target: c_lam(q,t) in the Schur
    basis, c_{lam'}(t,q) in the modified Schur basis.  A source in any
    other basis raises ValueError; a lost or differently scaled leading
    term raises ArithmeticError.
    """
    to = {"s-mod": "s", "s": "s-mod"}.get(source.basis)
    if to is None:
        raise ValueError(f"no duality transport from basis {source.basis!r}")
    lam = partition(lam)
    expected = QtRat(c_lambda(lam) if to == "s" else c_lambda(conjugate(lam)).swap_qt())
    terms = {conjugate(mu): coef.swap_qt() for mu, coef in source.terms.items()}
    lead = terms.get(lam, QT_RAT_ZERO)
    if lead != expected:
        raise ArithmeticError(
            f"duality transport gave the leading coefficient {lead}, expected {expected}")
    return SymExpansion(to, weight(lam), terms)


# ---------------------------------------------------------------------------
# operator actions on the modified Schur basis

@lru_cache(maxsize=None)
def macdonald_op_action(lam: Partition, k: int, n: int) -> SymExpansion:
    """Action of the k-th Macdonald operator on S_lam[X^{tq}], expanded
    in products of complete functions of the modified alphabet: the sum
    over the ordered expansion of lam in n variables of
    sign * e_k([|alpha|]) * h_alpha."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    lam = partition(lam)
    terms = {}
    for shape, cell in expansion_by_shape(lam, n).items():
        acc: Terms = {}
        for sign, alpha in cell:
            add_scaled(acc, eigenvalue(alpha, k, n).terms.items(), sign)
        terms[shape] = QtRat(QtPoly._of(acc))
    return SymExpansion("h-mod", weight(lam), terms)


@lru_cache(maxsize=None)
def _creation_walk(lam: Partition, k: int) -> tuple[tuple, dict[Partition, int]]:
    """The creation operator on S_lam[X^{tq}] with k rows is, in h-mod,
    the sum over the ordered expansion of lam + 1^k in k variables of
    sign * prod_j (1 - q^{alpha_j} t^{k-j}) * h_alpha.  Returns the
    vectors as a walk down their prefix tree, one step per vector: the
    length of the prefix it shares with the vector before, its factors
    (alpha_j, k-j) past that prefix, its shape and its sign; and the
    number of vectors of each shape.

    A vector with alpha_k = 0 has a zero last factor and is skipped.
    The ordered expansion comes in lexicographic order, so consecutive
    vectors share a prefix and the products of its factors are reused.
    The same (lam, k) recurs across the shapes of a sweep, so the walk
    is cached; callers only read it.
    """
    shifted = tuple(part + 1 for part in lam) + (1,) * (k - len(lam))
    steps = []
    counts: dict[Partition, int] = {}
    prev: Composition = ()
    for alpha, sign in ordered_expansion(shifted, k).items():
        if k and not alpha[-1]:
            continue
        same = 0
        while same < len(prev) and alpha[same] == prev[same]:
            same += 1
        prev = alpha
        shape = tuple(sorted(filter(None, alpha), reverse=True))
        counts[shape] = counts.get(shape, 0) + 1
        steps.append((same, tuple((alpha[j], k - 1 - j) for j in range(same, k)), shape, sign))
    return tuple(steps), counts


def creation_step(f: SymExpansion, k: int) -> SymExpansion:
    """Apply the k-row column-adding creation operator to a modified
    Schur expansion; every supported shape must have at most k parts and
    every coefficient must be a polynomial, else ValueError.

    The step is one integer computation under the map t -> 2^W,
    q -> 2^(W*span) of qt.pack.  Each input coefficient is packed once
    and walked down the prefix tree of _creation_walk, where a factor
    1 - q^a t^b turns a prefix product p into p - (p << W*(a*span + b));
    each vector's product is added with its sign to the h-mod sum of its
    shape, kept packed with its bound norm_shape below as one
    qt.PackedPoly.  No polynomial product is formed.  convert_basis takes
    the h-mod sums to s-mod as on every route; _convert_step proves that
    width.

    The map is exact on Z[q,t], and unpack inverts it when span and W
    are wide enough.  T_{lam,shape}, the h-mod coefficient of the
    operator on S_lam, is a signed sum over the vectors of that shape of
    k factors 1 - q^a t^b, so ||T||_1 <= (vectors of that shape) * 2^k
    and deg_t T <= k(k-1)/2.  So every h-sum has t-degree below
    span = max deg_t(coef) + k(k-1)/2 + 1, and every coefficient of the
    h-sum of a shape is at most norm_shape = sum_lam ||coef_lam||_inf *
    ||T_{lam,shape}||_1 < 2^(W-1) for W = pack_width(max_shape
    norm_shape): its balanced digits, and so the decode, are unique.
    """
    if f.basis != "s-mod":
        raise ValueError("creation_step expects an s-mod expansion")
    norms: dict[Partition, int] = {}
    deg_t = 0
    for lam, coef in f.terms.items():
        if len(lam) > k:
            raise ValueError(f"shape {lam} has more than {k} parts")
        if not coef.is_polynomial():
            raise ValueError(f"coefficient {coef} of {lam} is not a polynomial")
        terms = coef.num.terms
        deg_t = max(deg_t, _deg_t(terms))
        top = max(map(abs, terms.values()))
        for shape, count in _creation_walk(lam, k)[1].items():
            norms[shape] = norms.get(shape, 0) + (top * count << k)
    span = deg_t + k * (k - 1) // 2 + 1
    width = pack_width(max(norms.values(), default=0))
    h_sums: dict[Partition, int] = {}
    for lam, coef in f.terms.items():
        prefix = [pack(coef.num.terms, span, width)]
        for same, factors, shape, sign in _creation_walk(lam, k)[0]:
            del prefix[same + 1:]
            p = prefix[-1]
            for a, b in factors:
                p -= p << width * (a * span + b)
                prefix.append(p)
            acc = h_sums.get(shape, 0)
            h_sums[shape] = acc + p if sign > 0 else acc - p
    sums = {shape: QtRat(PackedPoly(value, span, width, norms[shape]))
            for shape, value in h_sums.items() if value}
    return convert_basis(SymExpansion("h-mod", f.weight + k, sums), "s-mod")


@lru_cache(maxsize=None)
def jpoly_via_creation(lam: Partition) -> SymExpansion:
    """Build J_lam one column at a time: the creation step for the first
    column, lam'_1 rows, applied to J of lam without that column.  The
    recursion runs through this cache, so a sweep over many shapes does
    one creation step per shape."""
    lam = partition(lam)
    if not lam:
        return SymExpansion("s-mod", 0, {(): QtRat(PackedPoly(1, 1, 8, 1))})
    lam_c = conjugate(lam)
    return creation_step(jpoly_via_creation(conjugate(lam_c[1:])), lam_c[0])


# ---------------------------------------------------------------------------
# route table

# CLI basis names and the basis tags of the expansions they name.
BASIS_TAG = {"smod": "s-mod", "schur": "s", "monomial": "m"}


def compute_expansion(lam: Partition, basis: str, method: str) -> SymExpansion:
    """J_lam in the requested basis by the requested construction route.

    Every method serves every basis.  The creation route carries its
    packed sums of J_lam' to the Schur basis by dual_transport and then
    to the monomial basis by convert_basis; the oracle reaches the
    modified Schur basis by dual_transport.  A basis or method that the
    CLI does not name raises ValueError.
    """
    lam = partition(lam)
    if basis not in BASIS_TAG:
        raise ValueError(f"unknown basis {basis!r}")
    tag = BASIS_TAG[basis]
    if method == "determinant":
        return jpoly_determinant(lam, tag)
    if method == "creation":
        if tag == "s-mod":
            return jpoly_via_creation(lam)
        return convert_basis(dual_transport(jpoly_via_creation(conjugate(lam)), lam), tag)
    if method == "oracle":
        if tag == "s-mod":
            return dual_transport(convert_basis(integral_form(conjugate(lam)), "s"), lam)
        return convert_basis(integral_form(lam), tag)
    raise ValueError(f"unknown method {method!r}")

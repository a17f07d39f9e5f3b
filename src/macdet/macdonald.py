"""Construction of the Macdonald J polynomials by determinants and
creation operators.

The central objects are the eigenvalue brackets [|alpha|], the signed
entry sums [lam]_{mu,nu} obtained from ordered expansions, and the
bordered determinants that give the expansion of J_lam in the modified
Schur, Schur, and monomial bases.  Monomial cells are integer sums of
Schur cells.  Dominance order makes each numeric block lower
Hessenberg, so one forward substitution expands all three along their
top row.  Every coefficient of J_lam in these bases lies in Z[q,t], so
the substitution runs on lead-scaled unknowns and stays in Z[q,t]: one
exact division per row, no fractions.  A fourth route iterates
column-adding creation operators on the modified Schur basis.  All
coefficient arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from .partitions import (
    Partition,
    arm_leg_cells,
    conjugate,
    dominance_downset,
    dominance_upset,
    format_partition,
    partition,
    weight,
)
from .qt import QT_ONE, QT_RAT_ZERO, QtPoly, QtRat, exact_div
from .symfunc import SymExpansion, _m_to_s, convert_basis, ordered_expansion

Vector = tuple[int, ...]
Cell = tuple[tuple[int, Vector], ...]


# ---------------------------------------------------------------------------
# brackets and scalars

def bracket(alpha: Vector, n: int, order: str = "qt") -> QtPoly:
    """The eigenvalue bracket [|alpha|]: sum of q^{alpha_i} t^{n-i}."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        if any(alpha[n:]):
            raise ValueError(f"vector {alpha} does not fit in {n} variables")
        alpha = alpha[:n]
    alpha = alpha + (0,) * (n - len(alpha))
    terms: dict[tuple[int, int], int] = {}
    for i, a in enumerate(alpha):
        key = (a, n - 1 - i) if order == "qt" else (n - 1 - i, a)
        terms[key] = terms.get(key, 0) + 1
    if order not in ("qt", "tq"):
        raise ValueError(f"unknown bracket order {order!r}")
    return QtPoly(terms)


def bracket_spectrum(lam: Partition, n: int, order: str = "qt") -> tuple[QtPoly, ...]:
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} does not fit in {n} variables")
    padded = lam + (0,) * (n - len(lam))
    out = []
    for i, a in enumerate(padded):
        dq, dt = (a, n - 1 - i) if order == "qt" else (n - 1 - i, a)
        out.append(QtPoly.monomial(1, dq, dt))
    return tuple(out)


def eigenvalue(lam: Partition, k: int, n: int, order: str = "qt") -> QtPoly:
    """Elementary symmetric function e_k of the bracket spectrum."""
    spectrum = bracket_spectrum(lam, n, order)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= {n}, got {k}")
    total = QtPoly()
    for combo in combinations(spectrum, k):
        prod = QtPoly.const(1)
        for factor in combo:
            prod = prod * factor
        total = total + prod
    return total


def c_lambda(lam: Partition, order: str = "qt") -> QtPoly:
    """Product over cells of (1 - q^arm t^{leg+1}), or with q,t swapped."""
    lam = partition(lam)
    out = QtPoly.const(1)
    for cell in arm_leg_cells(lam):
        if order == "qt":
            factor = QtPoly.const(1) - QtPoly.monomial(1, cell.arm, cell.leg + 1)
        elif order == "tq":
            factor = QtPoly.const(1) - QtPoly.monomial(1, cell.leg + 1, cell.arm)
        else:
            raise ValueError(f"unknown order {order!r}")
        out = out * factor
    return out


def v_lambda(lam: Partition, n: int | None = None, order: str = "qt") -> QtPoly:
    """Product of ([|lam|] - [|mu|]) over mu strictly above lam."""
    lam = partition(lam)
    if n is None:
        n = max(len(lam), 1)
    lam_bracket = bracket(lam, n, order)
    out = QtPoly.const(1)
    for mu in dominance_upset(lam)[1:]:
        out = out * (lam_bracket - bracket(mu, n, order))
    return out


def u_lambda(lam: Partition, order: str = "tq") -> QtPoly:
    """Product of ([|lam'|] - [|mu'|]) over mu strictly below lam,
    with brackets in the conjugate variable count."""
    lam = partition(lam)
    if not lam:
        return QtPoly.const(1)
    width = lam[0]
    lam_bracket = bracket(conjugate(lam), width, order)
    out = QtPoly.const(1)
    for mu in dominance_downset(lam)[1:]:
        out = out * (lam_bracket - bracket(conjugate(mu), width, order))
    return out


# ---------------------------------------------------------------------------
# cells of the bordered determinants

@lru_cache(maxsize=None)
def _expansion_by_shape(mu: Partition, n: int) -> dict[Partition, Cell]:
    grouped: dict[Partition, list[tuple[int, Vector]]] = {}
    for alpha, sign in ordered_expansion(mu, n).items():
        shape = tuple(sorted(alpha, reverse=True))
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        grouped.setdefault(shape, []).append((sign, alpha))
    return {shape: tuple(sorted(pairs, key=lambda p: p[1], reverse=True))
            for shape, pairs in grouped.items()}


@lru_cache(maxsize=None)
def monomial_cell(mu: Partition, nu_c: Partition, width: int) -> Cell:
    """Signed vectors (coef, alpha) with alpha running over permutations
    of the conjugate row shape nu_c, in descending order; coef is the
    scalar product of the dual monomial against m_mu.  With
    m_mu = sum of d_kappa s_kappa (integer d_kappa), the cell is the
    integer sum of d_kappa times the Schur cell of kappa at nu_c."""
    coefs: dict[Vector, int] = {}
    for kappa, d in _m_to_s(mu):
        for sign, alpha in _expansion_by_shape(conjugate(kappa), width).get(nu_c, ()):
            coefs[alpha] = coefs.get(alpha, 0) + d * sign
    return tuple((c, alpha) for alpha, c in sorted(coefs.items(), reverse=True) if c)


# ---------------------------------------------------------------------------
# bordered determinants

@dataclass(frozen=True)
class EntryMatrix:
    """One bordered determinant for J_lam: a top row of basis elements
    over a numeric block.

    Column c is headed by the basis element indexed by columns[c] (lam
    first); rows run over columns[1:].  cells[r][c] lists pairs
    (coef, alpha) and entry (r, c) is the sum of
    coef * ([|top|] - [|alpha|]), brackets in n variables and the given
    order.  lead is the coefficient of the lam term in J_lam.
    """

    lam: Partition
    n: int
    columns: tuple[Partition, ...]
    rows: tuple[Partition, ...]
    cells: tuple[tuple[Cell, ...], ...]
    basis: str
    top: Partition
    order: str
    lead: QtPoly

    @classmethod
    def build(cls, lam: Partition, n: int | None = None) -> "EntryMatrix":
        """The modified Schur determinant: columns over the dominance
        upset of lam, (q,t)-ordered brackets of lam in n variables."""
        lam = partition(lam)
        if n is None:
            n = max(len(lam), 1)
        elif n < len(lam):
            raise ValueError(f"partition {lam} does not fit in {n} variables")
        columns = tuple(dominance_upset(lam))
        cells = tuple(
            tuple(_expansion_by_shape(mu, n).get(nu, ()) for mu in columns)
            for nu in columns[1:]
        )
        return cls(lam, n, columns, columns[1:], cells, "s-mod", lam, "qt",
                   c_lambda(conjugate(lam), "tq"))

    @classmethod
    def build_dual(cls, lam: Partition, basis: str) -> "EntryMatrix":
        """The Schur ("s") or monomial ("m") determinant: columns over
        the dominance downset of lam, (t,q)-ordered brackets of the
        conjugate shape in lam_1 variables."""
        lam = partition(lam)
        width = lam[0]
        if basis == "s":
            def cell(mu: Partition, nu: Partition) -> Cell:
                return _expansion_by_shape(conjugate(mu), width).get(conjugate(nu), ())
        elif basis == "m":
            def cell(mu: Partition, nu: Partition) -> Cell:
                return monomial_cell(mu, conjugate(nu), width)
        else:
            raise ValueError(f"unsupported dual basis {basis!r}")
        columns = tuple(dominance_downset(lam))
        cells = tuple(tuple(cell(mu, nu) for mu in columns) for nu in columns[1:])
        return cls(lam, width, columns, columns[1:], cells, basis,
                   conjugate(lam), "tq", c_lambda(lam, "qt"))


def cell_poly(cell: Cell, top: Vector, n: int, order: str) -> QtPoly:
    """The numeric entry of one cell: the sum of
    coef * ([|top|] - [|alpha|]) over its pairs."""
    top_bracket = bracket(top, n, order)
    out = QtPoly()
    for coef, alpha in cell:
        out = out + (top_bracket - bracket(alpha, n, order)) * coef
    return out


def bordered_expansion(em: EntryMatrix) -> SymExpansion:
    """Expand the bordered determinant of em along its top row.

    The ordered expansion of a column's shape only reaches rows that
    dominate it, so row r vanishes beyond column r+1, where its entry
    is a single nonzero bracket difference.  The top-row cofactors span
    the kernel of the numeric block, and the leading coefficient fixes
    the scale.  Every coefficient of J_lam lies in Z[q,t], so forward
    substitution runs on the scaled unknowns z_c = lead * x_c: z_lam is
    lead, and z_{r+1} is minus the row sum over c <= r of entry (r, c)
    times z_c, divided exactly by the superdiagonal entry.  A division
    that leaves a remainder raises ArithmeticError.
    """
    z = [em.lead]
    for r, row in enumerate(em.cells):
        if any(row[r + 2:]):
            raise ArithmeticError(f"row {em.rows[r]} reaches past the superdiagonal")
        pivot = cell_poly(row[r + 1], em.top, em.n, em.order)
        if pivot.is_zero():
            raise ArithmeticError(f"zero superdiagonal entry in row {em.rows[r]}")
        acc = QtPoly()
        for c in range(r + 1):
            if row[c] and z[c]:
                acc = acc + z[c] * cell_poly(row[c], em.top, em.n, em.order)
        quotient = exact_div(-acc, pivot)
        if quotient is None:
            raise ArithmeticError(f"inexact pivot division in row {em.rows[r]}")
        z.append(quotient)
    terms = {mu: QtRat(zc) for mu, zc in zip(em.columns, z) if zc}
    return SymExpansion(em.basis, weight(em.lam), terms)


@lru_cache(maxsize=None)
def jpoly_modified_schur(lam: Partition, n: int | None = None) -> SymExpansion:
    """Expansion of J_lam in the S_mu[X^{tq}] basis."""
    lam = partition(lam)
    if not lam:
        return SymExpansion.unit("s-mod")
    return bordered_expansion(EntryMatrix.build(lam, n))


@lru_cache(maxsize=None)
def jpoly_monomial(lam: Partition) -> SymExpansion:
    """Expansion of J_lam in the monomial basis."""
    lam = partition(lam)
    if not lam:
        return SymExpansion.unit("m")
    return bordered_expansion(EntryMatrix.build_dual(lam, "m"))


# ---------------------------------------------------------------------------
# J polynomial: Schur basis (dual determinant, and duality transport)

def dual_transport(source: SymExpansion, lam: Partition, to: str = "s") -> SymExpansion:
    """Carry an expansion of the conjugate shape across q/t duality.

    Conjugates every key, swaps q with t in every coefficient, and
    rescales so the leading term carries the right normalization:
    c_lam(q,t) when landing in the Schur basis, c_{lam'}(t,q) when
    landing in the modified Schur basis.
    """
    lam = partition(lam)
    if to == "s":
        expected = QtRat(c_lambda(lam, "qt"))
    elif to == "s-mod":
        expected = QtRat(c_lambda(conjugate(lam), "tq"))
    else:
        raise ValueError(f"unsupported transport target {to!r}")
    if not lam:
        return SymExpansion.unit(to)
    terms = {conjugate(mu): coef.swap_qt() for mu, coef in source.terms.items()}
    lead = terms.get(lam)
    if lead is None:
        raise ArithmeticError("duality transport lost the leading term")
    if lead != expected:
        factor = expected / lead
        terms = {mu: coef * factor for mu, coef in terms.items()}
    return SymExpansion(to, weight(lam), terms)


@lru_cache(maxsize=None)
def jpoly_schur(lam: Partition, route: str = "duality") -> SymExpansion:
    """Expansion of J_lam in the Schur basis.

    route "duality" transports the modified Schur expansion of the
    conjugate shape; route "direct" evaluates the dual bordered
    determinant with (t,q)-ordered brackets.
    """
    lam = partition(lam)
    if not lam:
        return SymExpansion.unit("s")
    if route == "duality":
        return dual_transport(jpoly_modified_schur(conjugate(lam)), lam, "s")
    if route == "direct":
        return bordered_expansion(EntryMatrix.build_dual(lam, "s"))
    raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# operator action on the modified Schur basis

@lru_cache(maxsize=None)
def macdonald_op_action(lam: Partition, k: int, n: int) -> SymExpansion:
    """Action of the k-th Macdonald operator on S_lam[X^{tq}], expanded
    in products of complete functions of the modified alphabet."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam} does not fit in {n} variables")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    padded = lam + (0,) * (n - len(lam))
    w = weight(lam)
    total = SymExpansion("h-mod", w, {})
    for subset in combinations(range(1, n + 1), k):
        t_power = sum(n - i for i in subset)
        marked = set(subset)
        acc: dict[Partition, QtRat] = {}
        for sigma in permutations(range(1, n + 1)):
            degrees = []
            q_power = 0
            valid = True
            for i, j in enumerate(sigma, start=1):
                d = padded[i - 1] - i + j
                if d < 0:
                    valid = False
                    break
                if j in marked:
                    q_power += d
                degrees.append(d)
            if not valid:
                continue
            inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                             if sigma[a] > sigma[b])
            sign = -1 if inversions % 2 else 1
            shape = tuple(sorted((d for d in degrees if d), reverse=True))
            coef = QtRat(QtPoly.monomial(sign, q_power, t_power))
            acc[shape] = acc.get(shape, QtRat(0)) + coef
        piece = SymExpansion("h-mod", w, {s: c for s, c in acc.items() if not c.is_zero()})
        total = total + piece
    return total


# ---------------------------------------------------------------------------
# creation operators on the modified Schur basis

def _creation_terms(lam: Partition, k: int) -> dict[Partition, QtPoly]:
    """The creation operator on S_lam[X^{tq}] with k rows, in h-mod.

    Row i (from 0) of a permutation sigma of 1..k contributes the
    degree d = lam_i + sigma_i - i and the factor (1 - q^d t^(k-sigma_i));
    the term is the signed product of the factors, filed under the shape
    of the nonzero degrees.  A depth-first search places the rows from
    the last one up and visits only columns with d >= 0.  The lowest
    admissible column i - lam_i falls strictly as i falls, so every
    partial placement completes and the search never backtracks empty.
    The sign is the parity of the used columns below each choice, and
    the factor product is carried down the tree, one multiply per node.
    A branch stops at d = 0 in column k, whose factor is zero.
    """
    padded = lam + (0,) * (k - len(lam))
    sums: dict[Partition, dict[tuple[int, int], int]] = {}
    used = [False] * (k + 1)

    def place(i: int, prefix: QtPoly, negative: bool, degrees: Vector) -> None:
        if i < 0:
            shape = tuple(sorted((d for d in degrees if d), reverse=True))
            acc = sums.setdefault(shape, {})
            for key, c in prefix.terms.items():
                acc[key] = acc.get(key, 0) + (-c if negative else c)
            return
        below = 0
        for j in range(1, k + 1):
            if used[j]:
                below += 1
                continue
            d = padded[i] + j - i
            if d < 0 or (d == 0 and j == k):
                continue
            used[j] = True
            factor = QT_ONE - QtPoly.monomial(1, d, k - j)
            place(i - 1, prefix * factor, negative ^ (below % 2 == 1),
                  degrees + (d,))
            used[j] = False

    place(k - 1, QT_ONE, False, ())
    return {shape: QtPoly(acc) for shape, acc in sums.items()}


def creation_step(f: SymExpansion, k: int) -> SymExpansion:
    """Apply the k-row column-adding creation operator to a modified
    Schur expansion; every supported shape must have at most k parts.

    Each input shape is expanded in h-mod by _creation_terms, which
    visits only the permutations that contribute; the integer sums are
    scaled once by the input coefficient and converted back to s-mod.
    """
    if f.basis != "s-mod":
        raise ValueError("creation_step expects an s-mod expansion")
    acc: dict[Partition, QtRat] = {}
    for lam, coef in f.terms.items():
        if len(lam) > k:
            raise ValueError(f"shape {lam} has more than {k} parts")
        for shape, poly in _creation_terms(lam, k).items():
            acc[shape] = acc.get(shape, QT_RAT_ZERO) + coef * poly
    return convert_basis(SymExpansion("h-mod", f.weight + k, acc), "s-mod")


@lru_cache(maxsize=None)
def jpoly_via_creation(lam: Partition) -> SymExpansion:
    """Build J_lam one column at a time: the creation step for the first
    column, lam'_1 rows, applied to J of lam without that column.  The
    recursion runs through this cache, so a sweep over many shapes does
    one creation step per shape."""
    lam = partition(lam)
    if not lam:
        return SymExpansion.unit("s-mod")
    lam_c = conjugate(lam)
    return creation_step(jpoly_via_creation(conjugate(lam_c[1:])), lam_c[0])


# ---------------------------------------------------------------------------
# display helpers

def _vector_cell_latex(pairs: Cell) -> str:
    if not pairs:
        return "0"
    chunks = []
    for coef, alpha in pairs:
        body = "[" + ",".join(str(a) for a in alpha) + "]"
        if coef == 1:
            piece = body
        elif coef == -1:
            piece = "-" + body
        else:
            piece = f"{coef}{body}"
        if chunks and not piece.startswith("-"):
            chunks.append("+" + piece)
        else:
            chunks.append(piece)
    return "".join(chunks)


_LATEX_HEADER = {
    "s-mod": "S_{{{0}}}[X^{{tq}}]",
    "m": "m_{{{0}}}[X_{{{1}}}]",
}


def latex_matrix(em: EntryMatrix) -> str:
    """Render a bordered matrix as a LaTeX array in bracket shorthand."""
    header = [_LATEX_HEADER[em.basis].format(format_partition(mu), weight(em.lam))
              for mu in em.columns]
    lines = [" & ".join(header) + r" \\"]
    for row in em.cells:
        lines.append(" & ".join(_vector_cell_latex(cell) for cell in row) + r" \\")
    body = "\n".join(lines)
    cols = "c" * len(em.columns)
    return (r"\left|\begin{array}{" + cols + "}\n" + body
            + "\n" + r"\end{array}\right|")

"""Symmetric functions as exact basis expansions.

A SymExpansion is a homogeneous symmetric function written in one basis:
monomial (m), complete (h), Schur (s), power sum (p), or the modified
pair s-mod / h-mod, whose members are Schur and complete functions of
the substituted alphabet X(t-1)/(q-1).  Coefficients are QtRat.

The module owns the signed h-expansion of a Schur function (the ordered
expansion, generated by the bar moves that send adjacent components
(a, b) to (b-1, a+1) with a sign flip), conversions among the bases,
and plethystic realization on a concrete alphabet x_1..x_n.

Every conversion is a walk over integer tables.  Four come from the
ordered expansion: s -> h is the expansion itself, h -> s its
unitriangular inverse, and, because m is Hall-dual to h and s to
itself, s -> m and m -> s are the transposes of h -> s and s -> h.
Newton's identity gives p -> h, and since p is self-dual up to
<p_rho, p_rho> = z_rho, m -> p is its transpose divided by z_rho.
Each step sums on Kronecker-packed integers (qt.pack): the numerators
that share a denominator are added, times their table entries, into one
integer per output partition, kept as a qt.PackedPoly with its own
bound.  Numerators packed on one layout, such as the creation route's,
are relaid (qt.relayout), not scanned and packed again.  The modified
pair converts as s and h do; realization reads it on the alphabet
X(t-1)/(q-1).  Every route converts here, the creation step's packed
h-mod sums to s-mod included.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Callable, Mapping

from .multipoly import MultiPoly
from .partitions import (
    Composition,
    Partition,
    distinct_permutations,
    extension_key,
    format_partition,
    pad,
    partition,
    partitions_of,
    z_factor,
)
from .qt import (QT_ONE, QT_RAT_ONE, PackedPoly, Q, QtPoly, QtRat, T, pack, pack_width,
                 relayout)

BASIS_TAGS = ("m", "h", "s", "p", "s-mod", "h-mod")
_MODIFIED = ("s-mod", "h-mod")


class SymExpansion:
    """Homogeneous symmetric function in a single declared basis."""

    __slots__ = ("basis", "weight", "terms")

    def __init__(self, basis: str, weight: int,
                 terms: dict[Partition, QtRat] | None = None):
        if basis not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {basis!r}")
        if weight < 0:
            raise ValueError("negative weight")
        clean: dict[Partition, QtRat] = {}
        if terms:
            for lam, coef in terms.items():
                if sum(lam) != weight:
                    raise ValueError(
                        f"partition {lam} has weight {sum(lam)}, expected {weight}")
                if coef:
                    clean[lam] = coef
        self.basis = basis
        self.weight = weight
        self.terms = clean

    @classmethod
    def single(cls, basis: str, lam: Partition,
               coeff: "QtRat | QtPoly | int" = 1) -> "SymExpansion":
        lam = partition(lam)
        c = QtRat._coerce(coeff)
        if c is None:
            raise TypeError(f"bad coefficient {coeff!r}")
        return cls(basis, sum(lam), {lam: c})

    def support(self) -> tuple[Partition, ...]:
        return tuple(sorted(self.terms, key=extension_key))

    def sorted_terms(self) -> list[tuple[Partition, QtRat]]:
        return [(lam, self.terms[lam]) for lam in self.support()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymExpansion):
            return NotImplemented
        return (self.basis == other.basis and self.weight == other.weight
                and self.terms == other.terms)

    def __add__(self, other: "SymExpansion") -> "SymExpansion":
        if not isinstance(other, SymExpansion):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError(f"basis mismatch: {self.basis} vs {other.basis}")
        if self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")
        out = dict(self.terms)
        for lam, coef in other.terms.items():
            _add_rat(out, lam, coef)
        return SymExpansion(self.basis, self.weight, out)

    def __neg__(self) -> "SymExpansion":
        return SymExpansion(self.basis, self.weight,
                            {lam: -c for lam, c in self.terms.items()})

    def __mul__(self, scalar: "QtRat | QtPoly | int") -> "SymExpansion":
        c = QtRat._coerce(scalar)
        if c is None:
            return NotImplemented
        if c.is_zero():
            return SymExpansion(self.basis, self.weight)
        return SymExpansion(self.basis, self.weight,
                            {lam: coef * c for lam, coef in self.terms.items()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        tag = self.basis
        chunks = []
        for lam, coef in self.sorted_terms():
            label = f"{tag}[{format_partition(lam)}]"
            if coef.is_one():
                chunks.append(label)
            else:
                chunks.append(f"({coef})*{label}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"SymExpansion({self})"


# ---------------------------------------------------------------------------
# ordered expansion

@lru_cache(maxsize=None)
def ordered_expansion(mu: Partition, n: int) -> Mapping[Composition, int]:
    """Signed h-indexing compositions of the Schur determinant for mu.

    The support is generated from mu (padded to length n) by the signed
    moves (a, b) -> (b-1, a+1) on adjacent components, discarding vectors
    with a negative component; each surviving composition carries the
    parity of moves needed to reach it.  The result is cached and
    read-only, its keys in ascending lexicographic order.
    """
    mu = partition(mu)
    if len(mu) > n:
        raise ValueError(f"partition {mu} longer than n={n}")
    start = pad(mu, n)
    seen: dict[Composition, int] = {start: 1}
    frontier = [start]
    while frontier:
        fresh = []
        for alpha in frontier:
            sign = seen[alpha]
            for i in range(n - 1):
                lo = alpha[i + 1] - 1
                if lo < 0:
                    continue
                beta = alpha[:i] + (lo, alpha[i] + 1) + alpha[i + 2:]
                if beta not in seen:
                    seen[beta] = -sign
                    fresh.append(beta)
        frontier = fresh
    return MappingProxyType(dict(sorted(seen.items())))


# signed compositions (sign or integer coefficient, alpha), alpha descending
Cell = tuple[tuple[int, Composition], ...]


@lru_cache(maxsize=None)
def expansion_by_shape(mu: Partition, n: int) -> dict[Partition, Cell]:
    """The ordered expansion of mu in n variables grouped by the shape
    of each composition: shape -> pairs (sign, alpha), alpha descending.
    The result is cached; callers only read it."""
    grouped: dict[Partition, list[tuple[int, Composition]]] = {}
    for alpha, sign in ordered_expansion(mu, n).items():
        shape = tuple(sorted((a for a in alpha if a), reverse=True))
        grouped.setdefault(shape, []).append((sign, alpha))
    return {shape: tuple(sorted(pairs, key=lambda p: p[1], reverse=True))
            for shape, pairs in grouped.items()}


# ---------------------------------------------------------------------------
# integer transition tables among m, h, s, p

IntExpansion = dict[Partition, int]
IntRow = tuple[tuple[Partition, int], ...]


def _concat(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


@lru_cache(maxsize=None)
def _s_to_h(mu: Partition) -> IntRow:
    """The ordered expansion of s_mu summed by shape: h_mu with
    coefficient 1, every other h_nu with nu strictly dominating mu."""
    sums = ((nu, sum(sign for sign, _ in pairs))
            for nu, pairs in expansion_by_shape(mu, len(mu)).items())
    return tuple(sorted((nu, c) for nu, c in sums if c))


@lru_cache(maxsize=None)
def _h_to_s(lam: Partition) -> IntRow:
    """The unitriangular inverse of _s_to_h.  From s_lam = h_lam plus
    a_{lam,mu} h_mu over the strictly dominating mu, h_lam is s_lam minus
    that sum, each h_mu expanded by this function in turn."""
    out: IntExpansion = {lam: 1}
    for mu, a in _s_to_h(lam):
        if mu == lam:
            continue
        for rho, c in _h_to_s(mu):
            out[rho] = out.get(rho, 0) - a * c
    return tuple(sorted((k, v) for k, v in out.items() if v))


def _transpose(table: Callable[[Partition], IntRow], lam: Partition) -> IntRow:
    """Row lam of the transpose of an integer table: (mu, table(mu)[lam])."""
    column = ((mu, dict(table(mu)).get(lam, 0)) for mu in partitions_of(sum(lam)))
    return tuple(sorted((mu, c) for mu, c in column if c))


@lru_cache(maxsize=None)
def _s_to_m(lam: Partition) -> IntRow:
    # the Kostka number K_{lam,mu} is the coefficient of s_lam in h_mu
    return _transpose(_h_to_s, lam)


@lru_cache(maxsize=None)
def _m_to_s(mu: Partition) -> IntRow:
    # m is Hall-dual to h and s to itself, so m -> s is s -> h transposed
    return _transpose(_s_to_h, mu)


@lru_cache(maxsize=None)
def _p_to_h(rho: Partition) -> IntRow:
    """Newton's identity p_k = k h_k - sum over 0 < i < k of h_i p_{k-i},
    multiplied out over the parts of rho."""
    if not rho:
        return (((), 1),)
    out: IntExpansion = {}
    if len(rho) == 1:
        k = rho[0]
        out[rho] = k
        for i in range(1, k):
            for mu, c in _p_to_h((k - i,)):
                key = _concat(mu, (i,))
                out[key] = out.get(key, 0) - c
    else:
        for mu, a in _p_to_h(rho[:1]):
            for nu, b in _p_to_h(rho[1:]):
                key = _concat(mu, nu)
                out[key] = out.get(key, 0) + a * b
    return tuple(sorted((k, v) for k, v in out.items() if v))


@lru_cache(maxsize=None)
def _m_to_p(mu: Partition) -> IntRow:
    # <h_lam, m_mu> and <p_rho, p_sigma>/z_rho are both the identity, so
    # z_rho times the coefficient of p_rho in m_mu is p -> h transposed
    return _transpose(_p_to_h, mu)


RatExpansion = dict[Partition, QtRat]


def _add_rat(out: RatExpansion, key: Partition, val: QtRat) -> None:
    """out[key] += val, in place, dropping the entry when it cancels."""
    cur = out.get(key)
    if cur is not None:
        val = cur + val
    if val:
        out[key] = val
    else:
        out.pop(key, None)


# ---------------------------------------------------------------------------
# public conversion

_INTEGER_TABLES = {
    ("s", "h"): _s_to_h,
    ("h", "s"): _h_to_s,
    ("s", "m"): _s_to_m,
    ("m", "s"): _m_to_s,
    ("p", "h"): _p_to_h,
    ("m", "p"): _m_to_p,
}


def _convert_step(terms: RatExpansion, source: str, target: str,
                  keep: frozenset[Partition] | None = None) -> RatExpansion:
    """One edge of the conversion graph on plain tags m, h, s, p; with
    keep, only the output partitions in keep, their table rows restricted
    once per call (keep must meet the rows of each denominator's terms).

    The numerators over each denominator sum on one Kronecker layout
    (qt.pack): a table entry k adds k times a numerator's image into one
    integer per output partition rho, which becomes a qt.PackedPoly over
    that denominator, on the edge into p divided by z_rho.  Sums of
    multiples raise no t-degree, and no output coefficient of rho exceeds
    B_rho = sum_lam |table(lam)[rho]| * top_lam, top_lam bounding num_lam,
    so at W = pack_width(max_rho B_rho) each decodes exactly, with bound
    B_rho.  Numerators that are all PackedPoly on one (span, swap) keep
    it, top_lam their bound, each relaid at W (qt.relayout, exact since
    top_lam <= B_rho for each rho of its row) with no term read; others
    are scanned for top_lam and packed at span = 1 + the largest t-degree.
    """
    table = _INTEGER_TABLES[(source, target)]
    if keep is not None:
        rows = {lam: tuple((rho, k) for rho, k in table(lam) if rho in keep) for lam in terms}
        table = rows.__getitem__
    groups: dict[QtPoly, list[tuple[Partition, QtPoly]]] = {}
    for lam, c in terms.items():
        groups.setdefault(c.den, []).append((lam, c.num))
    out: RatExpansion = {}
    for den, group in groups.items():
        head = group[0][1]
        packed = all(isinstance(num, PackedPoly) and num.span == head.span
                     and num.swap == head.swap for _, num in group)
        if packed:
            span, swap, tops = head.span, head.swap, [num.bound for _, num in group]
        else:
            span, swap = 1 + max(kt for _, num in group for _, kt in num.terms), False
            tops = [max(map(abs, num.terms.values())) for _, num in group]
        bounds: dict[Partition, int] = {}
        for (lam, _), top in zip(group, tops):
            for rho, k in table(lam):
                bounds[rho] = bounds.get(rho, 0) + abs(k) * top
        width = pack_width(max(bounds.values()))
        sums: dict[Partition, int] = {}
        for lam, num in group:
            if not packed:
                value = pack(num.terms, span, width)
            else:
                value = num.value if num.width == width else relayout(num.value, num.width, width)
            for rho, k in table(lam):
                sums[rho] = sums.get(rho, 0) + k * value
        unit = den.is_one()
        for rho, value in sums.items():
            if value:
                _add_rat(out, rho, QtRat(PackedPoly(value, span, width, bounds[rho], swap), den,
                                         _reduced=unit))
    if target == "p":
        out = {rho: _over_int(c, z_factor(rho)) for rho, c in out.items()}
    return out


def _over_int(c: QtRat, z: int) -> QtRat:
    """c / z for c != 0 and an integer z > 0: c is reduced, so only the
    integer content of its numerator can cancel against z."""
    g = gcd(z, *c.num.terms.values())
    num = QtPoly._of({key: v // g for key, v in c.num.terms.items()})
    return QtRat(num, c.den * (z // g), _reduced=True)


_ROUTES: dict[tuple[str, str], tuple[str, ...]] = {
    ("s", "h"): ("h",), ("h", "s"): ("s",),
    ("s", "m"): ("m",), ("m", "s"): ("s",),
    ("m", "p"): ("p",), ("p", "h"): ("h",),
    ("h", "m"): ("s", "m"), ("m", "h"): ("s", "h"),
    ("s", "p"): ("m", "p"), ("p", "s"): ("h", "s"),
    ("h", "p"): ("s", "m", "p"), ("p", "m"): ("h", "s", "m"),
}


def convert_basis(f: SymExpansion, target: str) -> SymExpansion:
    """Re-express f exactly in another basis.

    Conversions stay within {m, h, s, p} or within {s-mod, h-mod}; the
    modified/unmodified boundary is crossed only by realization.  The
    modified pair converts as s and h do, on the same coefficients.
    """
    if target not in BASIS_TAGS:
        raise ValueError(f"unknown basis tag {target!r}")
    if f.basis == target:
        return f
    if (f.basis in _MODIFIED) != (target in _MODIFIED):
        raise ValueError(f"no conversion path {f.basis} -> {target}")
    terms = f.terms
    source = f.basis[0]
    for step in _ROUTES[(source, target[0])]:
        terms = _convert_step(terms, source, step)
        source = step
    return SymExpansion(target, f.weight, terms)


# ---------------------------------------------------------------------------
# realization on a concrete alphabet

@lru_cache(maxsize=None)
def monomial_poly(n: int, lam: Partition) -> MultiPoly:
    """The monomial symmetric polynomial m_lam(x_1..x_n)."""
    if len(lam) > n:
        return MultiPoly.zero(n)
    terms = {}
    for alpha in distinct_permutations(lam, n):
        terms[alpha] = QT_RAT_ONE
    return MultiPoly(n, terms)


@lru_cache(maxsize=None)
def _powersum_product(n: int, mu: Partition) -> MultiPoly:
    prod = MultiPoly.const(n, 1)
    for part in mu:
        prod = prod * monomial_poly(n, (part,))  # p_k = m_(k)
    return prod


@lru_cache(maxsize=None)
def modified_part_scale(k: int) -> QtRat:
    """(t^k - 1)/(q^k - 1): the factor p_k picks up on the alphabet X(t-1)/(q-1)."""
    return QtRat(T ** k - QT_ONE, Q ** k - QT_ONE)


def realize_in_variables(f: SymExpansion, n: int) -> MultiPoly:
    """Evaluate f on x_1..x_n as one sum of its power-sum form.  An s-mod
    or h-mod f lives on the alphabet X(t-1)/(q-1), so there each p_k is
    first multiplied by modified_part_scale(k)."""
    modified = f.basis in _MODIFIED
    plain = SymExpansion(f.basis[0], f.weight, f.terms) if modified else f
    pairs = []
    for mu, coef in convert_basis(plain, "p").terms.items():
        if modified:
            for part in mu:
                coef = coef * modified_part_scale(part)
        pairs.append((_powersum_product(n, mu), coef))
    return MultiPoly.linear_combination(n, pairs)


# ---------------------------------------------------------------------------
# JSON form

def sym_to_json(f: SymExpansion) -> dict:
    return {
        "basis": f.basis,
        "weight": f.weight,
        "terms": [
            {
                "partition": list(lam),
                "coeff_num": str(coef.num),
                "coeff_den": str(coef.den),
            }
            for lam, coef in f.sorted_terms()
        ],
    }


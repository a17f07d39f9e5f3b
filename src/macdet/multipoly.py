"""Sparse polynomials in x_1..x_m with coefficients in the (q,t) field.

The carrier type for the operator calculus: divided differences, variable
permutations and rescalings, and exact division by binomials x_a - x_b.
Exponent vectors are tuples of length m.

A MultiPoly stores integer polynomials in q and t as numerators,
``num = {x-exponents: {(i, j): int}}``, over one common denominator ``den``
(a QtPoly).  The pair is kept canonical: gcd(den, all numerators) = 1 and
den has positive content sign, so equal polynomials are structurally
equal.  Products and sums run in plain integer arithmetic on the
numerators and write only into fresh result numerators, never into an
operand's (MultiPolys share them).  A product of two MultiPolys adds each
pair of numerators into its result numerator with one qt.add_product
call; a scalar with a one-term numerator shifts and scales every
numerator in one comprehension.  A sum over two different denominators
reads both cofactors off one qt.gcd_cofactors call; linear_combination
sums many products over the lcm of their denominators and reduces once.
The re-reduction after an operation does nothing while the denominator
is 1, which it usually is; a monomial denominator finds its gcd with the
numerators in one scan of their terms, any other folds gcd_cofactors
over them, and qt.exact_div divides the gcd out.  ``terms`` presents
the coefficients as reduced QtRat values.  ``relabel`` permutes the
variables and ``numerator`` drops the denominator, so no caller outside
this module reads or rebuilds the numerators.
"""

from __future__ import annotations

from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .qt import (QT_ONE, QT_RAT_ONE, QT_RAT_ZERO, QtPoly, QtRat, Terms, add_product,
                 add_scaled, exact_div, gcd_cofactors, monomial_gcd)

Exps = tuple[int, ...]
Numerators = dict[Exps, Terms]


def _coerce_coeff(value: "QtRat | QtPoly | int") -> QtRat:
    out = QtRat._coerce(value)
    if out is None:
        raise TypeError(f"cannot use {value!r} as a coefficient")
    return out


def _exact(num: QtPoly, den: QtPoly) -> QtPoly:
    out = exact_div(num, den)
    if out is None:
        raise ArithmeticError("inexact division by the gcd")
    return out


def _pruned(raw: Numerators) -> Numerators:
    """Drop the exponent vectors whose accumulator cancelled to nothing."""
    return {exps: p for exps, p in raw.items() if p}


def _normalize(num: Numerators, den: QtPoly) -> tuple[Numerators, QtPoly]:
    """Divide out gcd(den, all numerators) and make den's content sign
    positive.  Nothing to do while den is 1.  A monomial den meets the
    numerators in one monomial_gcd scan and divides out by a shift; any
    other folds gcd_cofactors over them until the gcd is 1."""
    if den.is_one():
        return num, den
    if not num:
        return num, QT_ONE
    if den.is_monomial():
        g = monomial_gcd(den, num.values())
    else:
        g = den
        for p in num.values():
            g = gcd_cofactors(g, QtPoly._of(p))[0]
            if g.is_one():
                break
    if not g.is_one():
        den = _exact(den, g)
        num = {e: _exact(QtPoly._of(p), g).terms for e, p in num.items()}
    if den.content_sign() < 0:
        den = -den
        num = {e: {k: -c for k, c in p.items()} for e, p in num.items()}
    return num, den


def _times(num: Numerators, factor: Terms) -> Numerators:
    """Every numerator times one nonzero polynomial; a one-term factor
    shifts and scales each numerator in one comprehension."""
    if len(factor) > 1:
        return {e: add_product({}, p, factor) for e, p in num.items()}
    ((fq, ft), fc), = factor.items()
    return {e: {(q + fq, t + ft): c * fc for (q, t), c in p.items()}
            for e, p in num.items()}


def _den_mul(a: QtPoly, b: QtPoly) -> QtPoly:
    return b if a.is_one() else a if b.is_one() else a * b


def _lcm(dens: Iterable[QtPoly]) -> QtPoly:
    out = QT_ONE
    for d in dens:
        if d != out and not d.is_one():
            out = out * gcd_cofactors(out, d)[2]
    return out


def _wrap(m: int, num: Numerators, den: QtPoly) -> "MultiPoly":
    """A MultiPoly over already canonical parts."""
    out = object.__new__(MultiPoly)
    out.m = m
    out.num = num
    out.den = den
    out._terms = None
    return out


class MultiPoly:
    """Polynomial in x_1..x_m over the field of rational functions in q,t.

    Immutable.  ``num`` maps each exponent vector to a nonzero integer
    polynomial in q, t (a dict of (q-degree, t-degree) -> int), and every
    coefficient is num[exps] / den.
    """

    __slots__ = ("m", "num", "den", "_terms")

    def __init__(self, m: int, terms: "Mapping[Exps, QtRat] | None" = None):
        if m < 0:
            raise ValueError("negative variable count")
        coefs: dict[Exps, QtRat] = {}
        if terms:
            for exps, coef in terms.items():
                if len(exps) != m:
                    raise ValueError(f"exponent vector {exps} not of length {m}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                coef = _coerce_coeff(coef)
                if coef:
                    coefs[exps] = coef
        # den is the lcm of reduced denominators, so gcd(den, numerators) = 1
        den = _lcm(c.den for c in coefs.values())
        self.m = m
        self.num = {e: (c.num.terms if c.den == den else
                        (c.num * _exact(den, c.den)).terms)
                    for e, c in coefs.items()}
        self.den = den
        self._terms: dict[Exps, QtRat] | None = None

    @classmethod
    def from_parts(cls, m: int, num: Numerators, den: QtPoly) -> "MultiPoly":
        """The polynomial sum of num[exps]/den * x^exps, reduced.

        Every value of num must be a nonzero polynomial with no zero
        coefficient; the dicts are kept, not copied, and never mutated.
        """
        return _wrap(m, *_normalize(num, den))

    @classmethod
    def linear_combination(cls, m: int,
                           pairs: "Sequence[tuple[MultiPoly, QtRat]]") -> "MultiPoly":
        """The sum of poly * coef over the pairs, over one denominator."""
        dens = [_den_mul(poly.den, coef.den) for poly, coef in pairs]
        den = _lcm(dens)
        raw: Numerators = {}
        for (poly, coef), d in zip(pairs, dens):
            scale = (coef.num if d == den else coef.num * _exact(den, d)).terms
            for exps, p in poly.num.items():
                add_product(raw.setdefault(exps, {}), p, scale)
        return cls.from_parts(m, _pruned(raw), den)

    @classmethod
    def zero(cls, m: int) -> "MultiPoly":
        return cls(m)

    @classmethod
    def const(cls, m: int, value: "QtRat | QtPoly | int") -> "MultiPoly":
        return cls(m, {(0,) * m: _coerce_coeff(value)})

    @classmethod
    def variable(cls, m: int, i: int) -> "MultiPoly":
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} out of range 1..{m}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(m))
        return cls(m, {exps: QT_RAT_ONE})

    @classmethod
    def monomial(cls, m: int, exps: Exps, coef: "QtRat | QtPoly | int" = 1) -> "MultiPoly":
        return cls(m, {tuple(exps): _coerce_coeff(coef)})

    @property
    def terms(self) -> Mapping[Exps, QtRat]:
        """Read-only view {exps: reduced QtRat coefficient}."""
        if self._terms is None:
            self._terms = {e: QtRat(QtPoly._of(p), self.den) for e, p in self.num.items()}
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return not self.num or (len(self.num) == 1 and (0,) * self.m in self.num)

    def constant_value(self) -> QtRat:
        if not self.num:
            return QT_RAT_ZERO
        if self.is_constant():
            return self.terms[(0,) * self.m]
        raise ValueError("not a constant polynomial")

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.m == other.m and self.den == other.den and self.num == other.num
        if isinstance(other, (QtRat, QtPoly, int)):
            return self.is_constant() and self.constant_value() == _coerce_coeff(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.den,
                     frozenset((e, frozenset(p.items())) for e, p in self.num.items())))

    def _check_same(self, other: "MultiPoly") -> None:
        if self.m != other.m:
            raise ValueError(f"variable counts differ: {self.m} vs {other.m}")

    def __neg__(self) -> "MultiPoly":
        return _wrap(self.m, {e: {k: -c for k, c in p.items()} for e, p in self.num.items()},
                     self.den)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        if not other.num:
            return self
        if not self.num:
            return other
        na, nb, den = self.num, other.num, self.den
        if other.den != den:
            _, fb, fa = gcd_cofactors(self.den, other.den)
            na, nb = _times(na, fa.terms), _times(nb, fb.terms)
            den = den * fa
        if len(na) < len(nb):
            na, nb = nb, na
        out = dict(na)  # shares the numerators of na, which are only read
        for exps, p in nb.items():
            cur = out.get(exps)
            out[exps] = p if cur is None else add_scaled(dict(cur), p.items())
        return MultiPoly.from_parts(self.m, _pruned(out), den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "MultiPoly | QtRat | QtPoly | int") -> "MultiPoly":
        if isinstance(other, (QtRat, QtPoly, int)):
            coef = _coerce_coeff(other)
            if coef.is_zero():
                return MultiPoly(self.m)
            return MultiPoly.from_parts(self.m, _times(self.num, coef.num.terms),
                                        _den_mul(self.den, coef.den))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        raw: Numerators = {}
        for ea, pa in self.num.items():
            for eb, pb in other.num.items():
                add_product(raw.setdefault(tuple(map(add, ea, eb)), {}), pa, pb)
        return MultiPoly.from_parts(self.m, _pruned(raw), _den_mul(self.den, other.den))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "MultiPoly":
        if exp < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.m, 1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    # -- variable plumbing --------------------------------------------------
    # A relabelling keeps the set of numerators, so they stay reduced.

    def extend(self, m_new: int) -> "MultiPoly":
        """Embed into a larger variable ring (new letters unused)."""
        if m_new < self.m:
            raise ValueError("cannot shrink by extend")
        padding = (0,) * (m_new - self.m)
        return _wrap(m_new, {e + padding: p for e, p in self.num.items()}, self.den)

    def relabel(self, target: Sequence[int]) -> "MultiPoly":
        """Move the exponent of x_p to x_{target[p-1]}, for a permutation
        target of 1..m."""
        if sorted(target) != list(range(1, self.m + 1)):
            raise ValueError(f"{target} is not a permutation of 1..{self.m}")
        source = sorted(range(self.m), key=target.__getitem__)
        return _wrap(self.m, {tuple(map(exps.__getitem__, source)): p
                              for exps, p in self.num.items()}, self.den)

    def swap_vars(self, i: int, j: int) -> "MultiPoly":
        if i == j:
            return self
        target = list(range(1, self.m + 1))
        target[i - 1], target[j - 1] = j, i
        return self.relabel(target)

    def numerator(self) -> "MultiPoly":
        """self times its denominator: the same numerators over 1."""
        return self if self.den.is_one() else _wrap(self.m, self.num, QT_ONE)

    def scale_var(self, i: int, factor: "QtRat | QtPoly | int") -> "MultiPoly":
        """Substitute x_i -> factor * x_i.

        With factor = c.num/c.den and top the largest power of x_i, a term
        with x_i^e gains c.num^e * c.den^(top-e) and den gains c.den^top.
        """
        if not 1 <= i <= self.m:
            raise ValueError(f"variable index {i} out of range 1..{self.m}")
        c = _coerce_coeff(factor)
        if not self.num:
            return self
        top = max(exps[i - 1] for exps in self.num)
        mults: dict[int, Terms] = {}
        out: Numerators = {}
        for exps, p in self.num.items():
            e = exps[i - 1]
            mult = mults.get(e)
            if mult is None:
                mult = mults[e] = (c.num ** e * c.den ** (top - e)).terms
            if mult:
                out[exps] = p if mult == {(0, 0): 1} else add_product({}, p, mult)
        return MultiPoly.from_parts(self.m, out, _den_mul(self.den, c.den ** top))

    def symmetric_in(self, i: int, j: int) -> bool:
        return self.swap_vars(i, j).num == self.num

    def is_symmetric(self, n: int) -> bool:
        """Symmetric under the full symmetric group on x_1..x_n."""
        return all(self.symmetric_in(i, i + 1) for i in range(1, n))

    # -- divided differences ------------------------------------------------

    def divided_difference(self, i: int) -> "MultiPoly":
        """Apply (f - swap_i f)/(x_i - x_{i+1}), exactly.

        Computed termwise: a single monomial pair x_i^a x_{i+1}^b with
        a > b contributes the telescoping sum of monomials of degree
        a+b-1 in those two letters, so no division ever happens.
        """
        if not 1 <= i <= self.m - 1:
            raise ValueError(f"divided difference index {i} out of range")
        ia, ib = i - 1, i
        raw: Numerators = {}
        for exps, p in self.num.items():
            a, b = exps[ia], exps[ib]
            if a == b:
                continue
            sign = 1
            if a < b:
                a, b, sign = b, a, -1
            lst = list(exps)
            for e in range(b, a):
                lst[ia], lst[ib] = e, a + b - 1 - e
                key = tuple(lst)
                acc = raw.get(key)
                if acc is None:
                    raw[key] = dict(p) if sign > 0 else {k: -c for k, c in p.items()}
                else:
                    add_scaled(acc, p.items(), sign)
        return MultiPoly.from_parts(self.m, _pruned(raw), self.den)

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        chunks = []
        for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            coef = terms[exps]
            mono = "*".join(
                (f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}")
                for k, e in enumerate(exps) if e)
            if not mono:
                chunks.append(f"({coef})")
            elif coef.is_one():
                chunks.append(mono)
            else:
                chunks.append(f"({coef})*{mono}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly(m={self.m}, {len(self.num)} terms)"


def divide_exact_binomial(f: MultiPoly, a: int, b: int) -> MultiPoly:
    """Exact quotient f / (x_a - x_b); raises ArithmeticError if inexact."""
    if a == b or not (1 <= a <= f.m and 1 <= b <= f.m):
        raise ValueError(f"bad binomial variables ({a}, {b})")
    if f.is_zero():
        return f
    ia, ib = a - 1, b - 1
    by_deg: dict[int, Numerators] = {}
    for exps, p in f.num.items():
        e = exps[ia]
        lst = list(exps)
        lst[ia] = 0
        by_deg.setdefault(e, {})[tuple(lst)] = p
    top = max(by_deg)
    quo: Numerators = {}
    carry: Numerators = {}
    for e in range(top, 0, -1):
        for exps, p in by_deg.get(e, {}).items():
            cur = carry.get(exps)  # also a numerator of quo or f: sum into a copy
            carry[exps] = p if cur is None else add_scaled(dict(cur), p.items())
        carry = _pruned(carry)
        for exps, p in carry.items():
            lst = list(exps)
            lst[ia] = e - 1
            quo[tuple(lst)] = p
        # carry*x_b feeds the next lower x_a-degree
        nxt: Numerators = {}
        for exps, p in carry.items():
            lst = list(exps)
            lst[ib] += 1
            nxt[tuple(lst)] = p
        carry = nxt
    rem: Numerators = {}
    for part in (by_deg.get(0, {}), carry):
        for exps, p in part.items():
            add_scaled(rem.setdefault(exps, {}), p.items())
    if any(rem.values()):
        raise ArithmeticError(f"inexact division by x{a} - x{b}")
    # each numerator of f is one of the quotient's or a difference of two, so
    # a common factor of den and the quotient's would divide f's: none does
    return _wrap(f.m, quo, f.den)

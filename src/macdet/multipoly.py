"""Sparse polynomials in x_1..x_m with coefficients in the (q,t) field.

The carrier type for the operator calculus: divided differences, variable
permutations and rescalings, and exact division by binomials x_a - x_b.
Exponent vectors are tuples of length m; coefficients are QtRat.
"""

from __future__ import annotations

from .qt import QT_RAT_ONE, QT_RAT_ZERO, QtPoly, QtRat

Exps = tuple[int, ...]


def _coerce_coeff(value: "QtRat | QtPoly | int") -> QtRat:
    out = QtRat._coerce(value)
    if out is None:
        raise TypeError(f"cannot use {value!r} as a coefficient")
    return out


class MultiPoly:
    """Polynomial in x_1..x_m over the field of rational functions in q,t."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: dict[Exps, QtRat] | None = None):
        if m < 0:
            raise ValueError("negative variable count")
        self.m = m
        clean: dict[Exps, QtRat] = {}
        if terms:
            for exps, coef in terms.items():
                if len(exps) != m:
                    raise ValueError(f"exponent vector {exps} not of length {m}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coef:
                    clean[exps] = coef
        self.terms = clean

    @classmethod
    def zero(cls, m: int) -> "MultiPoly":
        return cls(m)

    @classmethod
    def const(cls, m: int, value: "QtRat | QtPoly | int") -> "MultiPoly":
        coef = _coerce_coeff(value)
        if coef.is_zero():
            return cls(m)
        return cls(m, {(0,) * m: coef})

    @classmethod
    def variable(cls, m: int, i: int) -> "MultiPoly":
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} out of range 1..{m}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(m))
        return cls(m, {exps: QT_RAT_ONE})

    @classmethod
    def monomial(cls, m: int, exps: Exps, coef: "QtRat | QtPoly | int" = 1) -> "MultiPoly":
        return cls(m, {tuple(exps): _coerce_coeff(coef)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.m}

    def constant_value(self) -> QtRat:
        if not self.terms:
            return QT_RAT_ZERO
        if self.is_constant():
            return self.terms[(0,) * self.m]
        raise ValueError("not a constant polynomial")

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exps: Exps) -> QtRat:
        return self.terms.get(tuple(exps), QT_RAT_ZERO)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.m == other.m and self.terms == other.terms
        if isinstance(other, (QtRat, QtPoly, int)):
            return self.is_constant() and self.constant_value() == _coerce_coeff(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, frozenset(self.terms.items())))

    def _check_same(self, other: "MultiPoly") -> None:
        if self.m != other.m:
            raise ValueError(f"variable counts differ: {self.m} vs {other.m}")

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.m, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        out = dict(big)
        for exps, coef in small.items():
            val = out.get(exps)
            val = coef if val is None else val + coef
            if val:
                out[exps] = val
            else:
                out.pop(exps, None)
        return MultiPoly(self.m, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "MultiPoly | QtRat | QtPoly | int") -> "MultiPoly":
        if isinstance(other, (QtRat, QtPoly, int)):
            coef = _coerce_coeff(other)
            if coef.is_zero():
                return MultiPoly(self.m)
            return MultiPoly(self.m, {e: c * coef for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Exps, QtRat] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                val = ca * cb
                cur = out.get(key)
                val = val if cur is None else cur + val
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return MultiPoly(self.m, out)

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

    def extend(self, m_new: int) -> "MultiPoly":
        """Embed into a larger variable ring (new letters unused)."""
        if m_new < self.m:
            raise ValueError("cannot shrink by extend")
        padding = (0,) * (m_new - self.m)
        return MultiPoly(m_new, {e + padding: c for e, c in self.terms.items()})

    def shift_vars(self, offset: int, m_new: int) -> "MultiPoly":
        """Embed with letters renamed x_i -> x_{i+offset}."""
        if self.m + offset > m_new:
            raise ValueError("target ring too small for shift")
        pre = (0,) * offset
        post = (0,) * (m_new - self.m - offset)
        return MultiPoly(m_new, {pre + e + post: c for e, c in self.terms.items()})

    def swap_vars(self, i: int, j: int) -> "MultiPoly":
        if i == j:
            return self
        a, b = i - 1, j - 1
        out = {}
        for exps, coef in self.terms.items():
            lst = list(exps)
            lst[a], lst[b] = lst[b], lst[a]
            out[tuple(lst)] = coef
        return MultiPoly(self.m, out)

    def scale_var(self, i: int, factor: "QtRat | QtPoly | int") -> "MultiPoly":
        """Substitute x_i -> factor * x_i."""
        c = _coerce_coeff(factor)
        out: dict[Exps, QtRat] = {}
        powers: dict[int, QtRat] = {0: QT_RAT_ONE}
        for exps, coef in self.terms.items():
            e = exps[i - 1]
            if e not in powers:
                powers[e] = c ** e
            val = coef * powers[e]
            if val:
                out[exps] = val
        return MultiPoly(self.m, out)

    def symmetric_in(self, i: int, j: int) -> bool:
        return self.swap_vars(i, j).terms == self.terms

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
        out: dict[Exps, QtRat] = {}
        for exps, coef in self.terms.items():
            a, b = exps[ia], exps[ib]
            if a == b:
                continue
            neg = a < b
            if neg:
                a, b = b, a
            lst = list(exps)
            for e in range(b, a):
                lst[ia], lst[ib] = e, a + b - 1 - e
                key = tuple(lst)
                val = -coef if neg else coef
                cur = out.get(key)
                val = val if cur is None else cur + val
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)
        return MultiPoly(self.m, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coef = self.terms[exps]
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
        return f"MultiPoly(m={self.m}, {len(self.terms)} terms)"


def divide_exact_binomial(f: MultiPoly, a: int, b: int) -> MultiPoly:
    """Exact quotient f / (x_a - x_b); raises ArithmeticError if inexact."""
    if a == b or not (1 <= a <= f.m and 1 <= b <= f.m):
        raise ValueError(f"bad binomial variables ({a}, {b})")
    if f.is_zero():
        return f
    ia, ib = a - 1, b - 1
    by_deg: dict[int, dict[Exps, QtRat]] = {}
    for exps, coef in f.terms.items():
        e = exps[ia]
        lst = list(exps)
        lst[ia] = 0
        by_deg.setdefault(e, {})[tuple(lst)] = coef
    top = max(by_deg)
    quo: dict[Exps, QtRat] = {}
    carry: dict[Exps, QtRat] = {}
    for e in range(top, 0, -1):
        level = by_deg.get(e, {})
        for exps, coef in level.items():
            cur = carry.get(exps)
            val = coef if cur is None else cur + coef
            if val:
                carry[exps] = val
            else:
                carry.pop(exps, None)
        for exps, coef in carry.items():
            lst = list(exps)
            lst[ia] = e - 1
            quo[tuple(lst)] = coef
        # carry*x_b feeds the next lower x_a-degree
        nxt: dict[Exps, QtRat] = {}
        for exps, coef in carry.items():
            lst = list(exps)
            lst[ib] += 1
            nxt[tuple(lst)] = coef
        carry = nxt
    rem = dict(by_deg.get(0, {}))
    for exps, coef in carry.items():
        cur = rem.get(exps)
        val = coef if cur is None else cur + coef
        if val:
            rem[exps] = val
        else:
            rem.pop(exps, None)
    if rem:
        raise ArithmeticError(f"inexact division by x{a} - x{b}")
    return MultiPoly(f.m, quo)

"""Exact arithmetic in Z[q,t] and its fraction field.

QtPoly is a sparse integer polynomial in the two formal parameters q and t.
QtRat is a reduced fraction of two QtPolys; Laurent monomials in q, t appear
as fractions with a monomial denominator.  Both types are immutable and
hashable, and render to a canonical text form, which is written and never
read back.

A polynomial's terms are a dict {(q-degree, t-degree): int} holding no
zero.  Every sum of such dicts, here and in the modules above, runs in
place on one accumulator through add_scaled (acc += scale * p) or
add_product (acc += a * b), which keep it free of zeros and write into
nothing else; QtPoly._of wraps the finished accumulator.

Exact division is exact_div.  A monomial divisor c*q^a*t^b shifts every
exponent down by (a, b) and divides each coefficient by c; any other
goes to dense_divide, which reads a polynomial as a dense list whose
index a*span + b holds the coefficient of q^a t^b, every t-degree below
span (Kronecker's substitution), and divides that list in place as a
polynomial in one variable.  A quotient whose t-degrees all stay below
span - deg_t(den) is certified: den times it has t-degrees below span
too, and so equals the dividend, which has the same image.  The
determinant solve reads each packed row sum (below) into such a list.

pack and unpack carry a polynomial to one integer and back under the
ring map t -> 2^W, q -> 2^(W*span), which commutes with sums and
products, so work in Z[q,t] that divides nothing, such as the creation
step and the basis conversions, can run on big integers.  Balanced
base-2^W digits are unique, so unpack inverts the map below the span and
the width of pack_width.  It reads the digits as machine words through
one memoryview cast, for every width pack_width returns, and walks them
through a cached layout: their permutation into the grlex order of
their keys, the keys and their monomial texts, built at once and never
written.  Read with swapped keys, the same integer is the polynomial
with q and t swapped.  packed_text reads the canonical text off the
digits in the same walk, with no term dict and no sort, and relayout
moves every digit of a value to another width in one strided byte copy
per byte.  PackedPoly is a QtPoly held as such a value, whose terms
unpack decodes on their first read and whose swap_qt flips the keys.

Monomial order everywhere is graded lex with q before t: compare total
degree first, then q-degree.  Canonical text lists terms in ascending
order (constant first), and sign canonicalization makes the coefficient
of the first rendered term of a denominator or GCD positive, so equality
of fractions is plain structural equality and 1-q*t stays written that
way rather than as q*t-1.

The GCD has one entry point, gcd_cofactors, which returns g, a/g and
b/g on every path; QtRat and MultiPoly reduce with it.  A zero, equal
or monomial input needs no heuristic; a monomial gcd's cofactors are
shifts.  Otherwise a polynomial is read as one in q over Z[t].  Two
inputs lose only their integer contents before a heuristic runs on
them: evaluate t at a large integer, lift the gcd in Z[q] back, and
certify it by exact_div, whose quotients are the cofactors.  A factor
they share in Z[t] alone rides through the evaluation and the lift.
The same heuristic runs one level down on t-polynomials held as integer
tuples, where the certificate is a divisibility test on the tuples.
When a heuristic fails, one primitive polynomial remainder sequence in
q, written on QtPoly, takes over: at the top on the inputs with their
contents in Z[t] split off, one level down on the t-polynomials with t
swapped into q, whose coefficients are then integers.  No floating
point anywhere.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import compress
from math import gcd as _igcd
from operator import itemgetter
from typing import Iterable, Sequence

Monomial = tuple[int, int]  # (q-degree, t-degree), both >= 0
Terms = dict[Monomial, int]


def add_scaled(acc: Terms, terms: Iterable[tuple[Monomial, int]],
               scale: int = 1) -> Terms:
    """acc += scale * (sum of the (monomial, coefficient) pairs), in place.

    A coefficient that cancels is removed, so acc stays free of zeros;
    nothing but acc is written.  Returns acc.
    """
    get = acc.get
    for key, coef in terms:
        val = get(key, 0) + scale * coef
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def add_product(acc: Terms, a: Terms, b: Terms) -> Terms:
    """acc += a * b, in place, with the same zero rule as add_scaled;
    a and b are only read.  Returns acc."""
    if len(a) > len(b):
        a, b = b, a
    b_items = b.items()
    get = acc.get
    for (aq, at), ac in a.items():
        for (bq, bt), bc in b_items:
            key = (aq + bq, at + bt)
            val = get(key, 0) + ac * bc
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)
    return acc


def _grlex(key: Monomial) -> tuple[int, int]:
    return (key[0] + key[1], key[0])


class QtPoly:
    """Sparse polynomial in q and t with integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Terms | None = None):
        clean: Terms = {}
        if terms:
            for key, coef in terms.items():
                if coef:
                    if key[0] < 0 or key[1] < 0:
                        raise ValueError(f"negative exponent in monomial {key}")
                    clean[key] = coef
        self.terms = clean
        self._hash: int | None = None

    @classmethod
    def _of(cls, acc: Terms) -> "QtPoly":
        """Wrap a term dict with no zero coefficient and no negative
        exponent, such as a finished accumulator, kept not copied and
        not checked again.  acc must not be written afterwards."""
        out = object.__new__(cls)
        out.terms = acc
        out._hash = None
        return out

    @classmethod
    def const(cls, value: int) -> "QtPoly":
        return cls({(0, 0): value}) if value else cls()

    @classmethod
    def monomial(cls, coef: int, dq: int, dt: int) -> "QtPoly":
        return cls({(dq, dt): coef}) if coef else cls()

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if set(self.terms) == {(0, 0)}:
            return self.terms[(0, 0)]
        raise ValueError(f"not a constant: {self}")

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QtPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __neg__(self) -> "QtPoly":
        return QtPoly._of({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "QtPoly | int") -> "QtPoly":
        if isinstance(other, int):
            other = QtPoly.const(other)
        if not isinstance(other, QtPoly):
            return NotImplemented
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        return QtPoly._of(add_scaled(dict(big), small.items()))

    __radd__ = __add__

    def __sub__(self, other: "QtPoly | int") -> "QtPoly":
        if isinstance(other, int):
            other = QtPoly.const(other)
        if not isinstance(other, QtPoly):
            return NotImplemented
        return QtPoly._of(add_scaled(dict(self.terms), other.terms.items(), -1))

    def __rsub__(self, other: "QtPoly | int") -> "QtPoly":
        if isinstance(other, int):
            return QtPoly.const(other) - self
        return NotImplemented

    def __mul__(self, other: "QtPoly | int") -> "QtPoly":
        if isinstance(other, int):
            if not other:
                return QtPoly()
            return QtPoly._of({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, QtPoly):
            return NotImplemented
        return QtPoly._of(add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "QtPoly":
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        result = QT_ONE
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def swap_qt(self) -> "QtPoly":
        """Exchange the roles of q and t."""
        return QtPoly._of({(k[1], k[0]): c for k, c in self.terms.items()})

    def subs_t_eq_q(self) -> "QtPoly":
        """Substitute t = q, collapsing to a polynomial in q alone."""
        return QtPoly._of(add_scaled(
            {}, (((dq + dt, 0), c) for (dq, dt), c in self.terms.items())))

    def content_sign(self) -> int:
        """Sign of the first term in canonical order; 0 for zero."""
        if not self.terms:
            return 0
        key = min(self.terms, key=_grlex)
        return 1 if self.terms[key] > 0 else -1

    def __str__(self) -> str:
        keys = sorted(self.terms, key=_grlex)
        return _terms_text(map(self.terms.__getitem__, keys), map(_monomial_text, keys))

    def __repr__(self) -> str:
        return f"QtPoly({self})"


def _terms_text(coefs: Iterable[int], texts: Iterable[tuple[str, str]]) -> str:
    """The canonical text of a polynomial from its nonzero coefficients
    in grlex order and the _monomial_text of each one's key."""
    chunks: list[str] = []
    for coef, (unit, suffix) in zip(coefs, texts):
        if coef > 0:
            chunks.append(" + " + unit if coef == 1 else f" + {coef}{suffix}")
        else:
            chunks.append(" - " + unit if coef == -1 else f" - {-coef}{suffix}")
    if not chunks:
        return "0"
    # the first term takes its sign with no spaces around it
    text = "".join(chunks)
    return text[3:] if text[1] == "+" else "-" + text[3:]


@lru_cache(maxsize=None)
def _monomial_text(key: Monomial) -> tuple[str, str]:
    """The text of q^dq t^dt with the coefficient 1, and the text that
    follows any other coefficient: "*" and the powers, or "" for (0, 0)."""
    dq, dt = key
    q = "" if not dq else "q" if dq == 1 else f"q^{dq}"
    t = "" if not dt else "t" if dt == 1 else f"t^{dt}"
    text = q + "*" + t if q and t else q + t
    return (text, "*" + text) if text else ("1", "")


QT_ZERO = QtPoly()
QT_ONE = QtPoly.const(1)
Q = QtPoly.monomial(1, 1, 0)
T = QtPoly.monomial(1, 0, 1)


# ---------------------------------------------------------------------------
# exact division and GCD

def dense_divide(row: list[int], span: int, den: QtPoly) -> Terms | None:
    """Quotient row/den when den divides row exactly in Z[q,t], else None.

    row is dense: index a*span + b holds the coefficient of q^a t^b, and
    every t-degree in it is below span.  Under this Kronecker map row
    and den become polynomials in one variable, and univariate division
    by the image of den runs in place on row.  The quotient is returned
    only when the remainder is zero and every quotient t-degree is below
    span - deg_t(den): then den * quotient has every t-degree below
    span too, so its image equals row's only if it equals row.  An exact
    quotient always meets that bound, so None means den does not divide
    row.  An all-zero row gives the empty quotient.
    """
    terms = den.terms
    if not terms:
        raise ZeroDivisionError("polynomial division by zero")
    bound = span - max(kt for _, kt in terms)
    if bound <= 0:
        # deg_t(den) is past every t-degree of row: only zero is divisible
        return None if any(row) else {}
    top, lead = max((kq * span + kt, c) for (kq, kt), c in terms.items())
    tail = [(top - kq * span - kt, c) for (kq, kt), c in terms.items()
            if kq * span + kt != top]
    quo: Terms = {}
    for i in range(len(row) - 1, top - 1, -1):
        c = row[i]
        if c:
            coef, r = divmod(c, lead)
            if r:
                return None
            kq, kt = divmod(i - top, span)
            if kt >= bound:
                return None
            quo[(kq, kt)] = coef
            for off, dc in tail:
                row[i - off] -= coef * dc
    return None if any(row[:top]) else quo


def exact_div(num: QtPoly, den: QtPoly) -> QtPoly | None:
    """Quotient num/den when den divides num exactly, else None: a shift
    for a monomial den, else num laid out densely for dense_divide."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return QT_ZERO
    if den.is_one():
        return num
    if den.is_monomial():
        ((dq, dt), dc), = den.terms.items()
        quo: Terms = {}
        for (kq, kt), c in num.terms.items():
            coef, r = divmod(c, dc)
            if r or kq < dq or kt < dt:
                return None
            quo[(kq - dq, kt - dt)] = coef
        return QtPoly._of(quo)
    span = max(kt for _, kt in num.terms) + 1
    row = [0] * ((max(kq for kq, _ in num.terms) + 1) * span)
    for (kq, kt), c in num.terms.items():
        row[kq * span + kt] = c
    quo = dense_divide(row, span, den)
    return None if quo is None else QtPoly._of(quo)


# ---------------------------------------------------------------------------
# Kronecker packing into one integer

def pack_width(bound: int) -> int:
    """The least W in 8, 16, 32, 64, then multiples of 64, with
    2^(W-1) > bound: the width at which unpack inverts pack on every
    polynomial with coefficients at most bound in absolute value."""
    width = 8
    while bound >> (width - 1):
        width = width * 2 if width < 64 else width + 64
    return width


def pack(terms: Terms, span: int, width: int) -> int:
    """The image of a polynomial under t -> 2^width, q -> 2^(width*span),
    summed term by term."""
    return sum(c << width * (kq * span + kt) for (kq, kt), c in terms.items())


def _digits(value: int, width: int, count: int) -> Sequence[int]:
    """The count lowest balanced base-2^width digits of value, each plus
    half the base, lowest first, for width a multiple of 8 and count past
    the top digit.  Adding half the base to every digit makes them all
    nonnegative, and one to_bytes lays them out in the host's byte order,
    which one memoryview cast reads as words of min(width/8, 8) bytes; a
    big-endian host walks them from the end.  A digit of k > 1 words is
    folded from them, most significant first: linear time."""
    size, half = width // 8, 1 << (width - 1)
    k = max(size // 8, 1)  # words per digit
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    order = sys.byteorder
    words = memoryview((value + offset).to_bytes(count * size, order))
    words = words.cast("BHIQ"[(size // k).bit_length() - 1])[::-1 if order == "big" else 1]
    digits = words[k - 1::k]
    for j in range(k - 2, -1, -1):
        digits = list(map(lambda high, low: high << 64 | low, digits, words[j::k]))
    return digits


def _rows(value: int, span: int, width: int) -> int:
    """The rows of a span-wide digit layout that reach past the top digit
    of value: one more than its balanced digits can fill."""
    return (value.bit_length() // width + 2) // span + 1


def dense_row(value: int, width: int) -> list[int]:
    """The balanced base-2^width digits of value, lowest first: the dense
    row that dense_divide reads of the polynomial that pack maps to value."""
    half = 1 << (width - 1)
    return list(map(half.__rsub__, _digits(value, width, value.bit_length() // width + 2)))


def unpack(value: int, span: int, width: int, swap: bool = False) -> Terms:
    """The balanced base-2^width digits of value, digit i read as the
    coefficient of q^(i // span) t^(i % span), or with swap of
    q^(i % span) t^(i // span), for width a multiple of 8.  Balanced
    digits are unique, so this inverts pack on polynomials with t-degrees
    below span and coefficients below 2^(width-1) in absolute value.
    The terms come in grlex order."""
    rows, half = _rows(value, span, width), 1 << (width - 1)
    pick, keys, _ = _layout(rows, span, swap)
    return {key: d - half for key, d in zip(keys, pick(_digits(value, width, rows * span)))
            if d != half}


def packed_text(value: int, span: int, width: int, swap: bool = False) -> str:
    """str(QtPoly(unpack(value, span, width, swap))), read off the digits
    in the grlex order of their keys: no term dict, no sort."""
    rows, half = _rows(value, span, width), 1 << (width - 1)
    pick, _, texts = _layout(rows, span, swap)
    ordered = pick(_digits(value, width, rows * span))
    nonzero = list(map(half.__ne__, ordered))
    return _terms_text(map(half.__rsub__, compress(ordered, nonzero)), compress(texts, nonzero))


def relayout(value: int, width: int, new_width: int) -> int:
    """The image under pack at new_width of the polynomial whose image at
    width is value, with the same span: each balanced digit moves from
    its width-bit slot to a new_width-bit one.  Exact when every digit is
    below 2^(min(width, new_width) - 1) in absolute value.  Half of the
    smaller base is added to every digit, making each fit the smaller
    slot; the bytes of each digit move in one strided copy per byte, and
    the offset comes off again in the new layout."""
    size, new_size = width // 8, new_width // 8
    low = min(size, new_size)
    half = (1 << (8 * low - 1)).to_bytes(low, "little")
    count = value.bit_length() // width + 2
    old = (value + int.from_bytes(half.ljust(size, b"\0") * count, "little")).to_bytes(
        count * size, "little")
    new = bytearray(count * new_size)
    for j in range(low):
        new[j::new_size] = old[j::size]
    return int.from_bytes(new, "little") - int.from_bytes(half.ljust(new_size, b"\0") * count,
                                                          "little")


@lru_cache(maxsize=None)
def _layout(rows: int, span: int, swap: bool) -> tuple:
    """The digits of a rows-by-span layout in the grlex order of their
    keys, (q-degree, t-degree) or with swap (t-degree, q-degree): an
    itemgetter of their indices, the keys, and each key's monomial text,
    all built here and never written after.  Every decode and text of
    the layout shares them, and so allocates no key and sorts nothing.
    A layout has at least two digits, so the itemgetter always returns a
    tuple."""
    nq, nt = (span, rows) if swap else (rows, span)  # the q- and t-degrees
    keys = tuple((kq, d - kq) for d in range(nq + nt - 1)
                 for kq in range(max(0, d - nt + 1), min(d, nq - 1) + 1))
    index = [kt * span + kq for kq, kt in keys] if swap else [kq * span + kt for kq, kt in keys]
    return itemgetter(*index), keys, tuple(map(_monomial_text, keys))


class PackedPoly(QtPoly):
    """A QtPoly held as value, its image under pack at (span, width),
    with bound, at least every absolute coefficient.  With swap set the
    digit keys read (t-degree, q-degree): the polynomial is the image's
    with q and t swapped.  The terms slot stays unset until its first
    read, which decodes it once; the text and the zero tests read value."""

    __slots__ = ("value", "span", "width", "bound", "swap")

    def __init__(self, value: int, span: int, width: int, bound: int, swap: bool = False):
        self.value, self.span, self.width, self.bound, self.swap = value, span, width, bound, swap
        self._hash = None

    def __getattr__(self, name: str) -> Terms:
        # only reached while the terms slot is unset
        if name != "terms":
            raise AttributeError(name)
        self.terms = terms = unpack(self.value, self.span, self.width, self.swap)
        return terms

    def is_zero(self) -> bool:
        return not self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __str__(self) -> str:
        return packed_text(self.value, self.span, self.width, self.swap)

    def swap_qt(self) -> "PackedPoly":
        """The same value read with the other digit keys: no digit moves
        and nothing is decoded."""
        return PackedPoly(self.value, self.span, self.width, self.bound, not self.swap)


# t-polynomials: little-endian integer tuples with no trailing zeros

def _t_trim(coeffs: list) -> tuple:
    """coeffs without its trailing zeros, as a tuple."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _t_scale_down(a: tuple[int, ...], c: int) -> tuple[int, ...]:
    return tuple(v // c for v in a)


def _t_eval(a: tuple[int, ...], xi: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * xi + c
    return value


def _balanced_digits(value: int, xi: int) -> list[int]:
    """Little-endian base-xi digits drawn from (-xi/2, xi/2]."""
    digits = []
    half = xi // 2
    while value:
        r = value % xi
        if r > half:
            r -= xi
        digits.append(r)
        value = (value - r) // xi
    return digits


def _t_gcd_heu(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...] | None:
    """Heuristic gcd of primitive t-polynomials, certified by division.

    Evaluates both at a large integer, lifts the integer gcd back to a
    candidate via balanced digits, and accepts only when the candidate
    divides both inputs.  Returns None when the attempts run out.
    """
    bound = 2 * min(max(abs(c) for c in f), max(abs(c) for c in g)) + 29
    xi = bound
    for _ in range(6):
        ef, eg = _t_eval(f, xi), _t_eval(g, xi)
        if ef and eg:
            cand = _t_trim(_balanced_digits(_igcd(ef, eg), xi))
            if cand == (1,):
                return cand
            if cand:
                content = _igcd(*cand)
                if content > 1:
                    cand = _t_scale_down(cand, content)
                cand = _t_abs(cand)
                if _t_divides(f, cand) and _t_divides(g, cand):
                    return cand
        xi = xi * 73794 // 27011 + 17
    return None


def _t_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return _t_abs(b)
    if not b:
        return _t_abs(a)
    for mono, other in ((a, b), (b, a)):
        k = len(mono) - 1
        if not any(mono[:k]):
            # c * t^k against a polynomial of least t-degree v
            v = next(i for i, c in enumerate(other) if c)
            return (0,) * min(k, v) + (_igcd(mono[k], *other),)
    ca, cb = _igcd(*a), _igcd(*b)
    f = _t_scale_down(a, ca)
    g = _t_scale_down(b, cb)
    if f == g or f == tuple(-c for c in g):
        base = f
    else:
        base = _t_gcd_heu(f, g)
        if base is None:
            # t swapped into q: constant coefficients, integer contents
            base = _q_at(_prs(_t_poly(f).swap_qt(), _t_poly(g).swap_qt()), 0)
    cont = _igcd(ca, cb)
    return _t_abs(tuple(c * cont for c in base))


def _t_abs(a: tuple[int, ...]) -> tuple[int, ...]:
    if a and a[-1] < 0:
        return tuple(-c for c in a)
    return a


def _t_divides(f: tuple[int, ...], g: tuple[int, ...]) -> bool:
    """Whether g != 0 divides f exactly in Z[t]."""
    work = list(f)
    lg, n = g[-1], len(g)
    for pos in range(len(f) - n, -1, -1):
        c, r = divmod(work[pos + n - 1], lg)
        if r:
            return False
        if c:
            for i, gi in enumerate(g):
                work[pos + i] -= c * gi
    return not any(work)


# bivariate level: QtPolys read as polynomials in q over Z[t]

def _q_at(p: QtPoly, xi: int) -> tuple[int, ...]:
    """p with t set to xi: a polynomial in q, as a little-endian tuple."""
    out: dict[int, int] = {}
    get = out.get
    for (kq, kt), c in p.terms.items():
        out[kq] = get(kq, 0) + c * xi ** kt
    return _t_trim([get(k, 0) for k in range(max(out) + 1)])


def _b_gcd_heu(pf: QtPoly, pg: QtPoly) -> tuple[QtPoly, QtPoly, QtPoly] | None:
    """Heuristic gcd of polynomials with integer content 1, certified by
    division.

    Evaluates t at a large integer, takes the gcd of the two resulting
    q-polynomials, lifts each big coefficient back into a t-polynomial
    via balanced digits and divides out the integer content.  A factor
    the inputs share in Z[t] alone rides through the evaluation and the
    lift like any other.  The candidate is accepted only when it divides
    pf and pg; returns it with the two quotients of that check, or None
    when the attempts run out.
    """
    xi = 2 * min(max(map(abs, pf.terms.values())),
                 max(map(abs, pg.terms.values()))) + 29
    for _ in range(6):
        ef, eg = _q_at(pf, xi), _q_at(pg, xi)
        if ef and eg:
            cand = {(kq, kt): c for kq, value in enumerate(_t_gcd(ef, eg))
                    for kt, c in enumerate(_balanced_digits(value, xi)) if c}
            if cand:
                _, cpoly = _int_primitive(QtPoly._of(cand))
                if cpoly.is_one():
                    return cpoly, pf, pg
                qf = exact_div(pf, cpoly)
                if qf is not None:
                    qg = exact_div(pg, cpoly)
                    if qg is not None:
                        return cpoly, qf, qg
        xi = xi * 73794 // 27011 + 17
    return None


def _t_poly(a: tuple[int, ...]) -> QtPoly:
    return QtPoly._of({(0, kt): c for kt, c in enumerate(a) if c})


def _q_content(p: QtPoly) -> tuple[int, ...]:
    """gcd in Z[t] of the coefficients of p != 0 in q, with a positive
    leading coefficient."""
    span = max(kt for _, kt in p.terms) + 1
    rows: dict[int, list[int]] = {}
    for (kq, kt), c in p.terms.items():
        rows.setdefault(kq, [0] * span)[kt] = c
    g: tuple[int, ...] = ()
    for row in rows.values():
        g = _t_gcd(g, _t_trim(row))
        if g == (1,):
            break
    return g


def _q_deg(p: QtPoly) -> int:
    return max(kq for kq, _ in p.terms)


def _prs(f: QtPoly, g: QtPoly) -> QtPoly:
    """gcd up to sign of f, g != 0, primitive in q over Z[t]: the last
    nonzero remainder of their primitive remainder sequence in q.  When
    deg f < deg g the first step only swaps them."""
    while g:
        dg = _q_deg(g)
        lg = QtPoly._of({(0, kt): c for (kq, kt), c in g.terms.items() if kq == dg})
        r = f
        while r and (dr := _q_deg(r)) >= dg:
            lr = QtPoly._of({(dr - dg, kt): c for (kq, kt), c in r.terms.items() if kq == dr})
            r = r * lg - lr * g
        if r:
            cont = _q_content(r)
            if cont != (1,):
                r = exact_div(r, _t_poly(cont))
        f, g = g, r
    return f


def monomial_gcd(mono: QtPoly, term_dicts: Iterable[Terms]) -> QtPoly:
    """gcd of the monomial mono and the polynomials with these term dicts:
    the least q-degree, the least t-degree and the integer gcd, found in
    one scan of their terms that stops once the gcd is 1."""
    ((gq, gt), gc), = mono.terms.items()
    for p in term_dicts:
        gc = _igcd(gc, *p.values())
        for q, t in p:
            if q < gq:
                gq = q
            if t < gt:
                gt = t
        if gc == 1 and not gq and not gt:
            break
    return QtPoly.monomial(gc, gq, gt)


def _int_primitive(p: QtPoly) -> tuple[int, QtPoly]:
    """(c, p / c) for c the positive gcd of the coefficients of p != 0."""
    c = _igcd(*p.terms.values())
    return c, (p if c == 1 else QtPoly._of({k: v // c for k, v in p.terms.items()}))


def gcd_cofactors(a: QtPoly, b: QtPoly) -> tuple[QtPoly, QtPoly, QtPoly]:
    """(g, a/g, b/g) for g the gcd of a and b in Z[q,t], sign-normalized;
    raises ValueError on two zero inputs.  A heuristic hit hands back the
    quotients that certified it, times the part of each input's integer
    content the other does not share; the other paths divide by g with
    exact_div, and a remainder there raises ArithmeticError."""
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials")
    qa = qb = None
    if a.is_zero() or b.is_zero():
        g, qa, qb = (b, QT_ZERO, QT_ONE) if a.is_zero() else (a, QT_ONE, QT_ZERO)
    elif a.is_monomial():
        g = monomial_gcd(a, (b.terms,))
    elif b.is_monomial():
        g = monomial_gcd(b, (a.terms,))
    elif a == b:
        g, qa, qb = a, QT_ONE, QT_ONE
    else:
        (ia, pa), (ib, pb) = _int_primitive(a), _int_primitive(b)
        hit = _b_gcd_heu(pa, pb)
        if hit is None:
            ca, cb = _q_content(a), _q_content(b)
            g = _prs(exact_div(a, _t_poly(ca)), exact_div(b, _t_poly(cb)))
            g = g * _t_poly(_t_gcd(ca, cb))
        else:
            # a = (ia/cont) * qa * (cont * g), likewise b
            g, qa, qb = hit
            cont = _igcd(ia, ib)
            if cont > 1:
                g = g * cont
            if ia > cont:
                qa = qa * (ia // cont)
            if ib > cont:
                qb = qb * (ib // cont)
    if g.content_sign() < 0:
        g = -g
        if qa is not None:
            qa, qb = -qa, -qb
    if qa is None:
        qa, qb = exact_div(a, g), exact_div(b, g)
        if qa is None or qb is None:
            raise ArithmeticError("inexact division by the gcd")
    return g, qa, qb


def _lcm(dens: Iterable[QtPoly]) -> QtPoly:
    """The lcm of nonzero sign-normalized polynomials, folded one
    gcd_cofactors call at a time; 1 for none."""
    out = QT_ONE
    for d in dens:
        if d != out and not d.is_one():
            out = d if out.is_one() else out * gcd_cofactors(out, d)[2]
    return out


# ---------------------------------------------------------------------------
# the fraction field

class QtRat:
    """Reduced fraction of two QtPolys.

    Invariants: gcd(num, den) = 1 and the leading coefficient of den is
    positive, so equal values are structurally equal.  Construct via
    QtRat(num, den) from QtPoly or int operands.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: QtPoly | int, den: QtPoly | int = QT_ONE,
                 _reduced: bool = False):
        if isinstance(num, int):
            num = QtPoly.const(num)
        if isinstance(den, int):
            den = QtPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = QT_ZERO, QT_ONE
        elif not _reduced:
            if not den.is_one():
                _, num, den = gcd_cofactors(num, den)
            if den.content_sign() < 0:
                num, den = -num, -den
        self.num = num
        self.den = den
        self._hash: int | None = None

    @classmethod
    def from_int(cls, value: int) -> "QtRat":
        return cls(QtPoly.const(value), QT_ONE, _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QtRat):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (QtPoly, int)):
            return self.den.is_one() and self.num == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __neg__(self) -> "QtRat":
        return QtRat(-self.num, self.den, _reduced=True)

    @staticmethod
    def _coerce(value: "QtRat | QtPoly | int") -> "QtRat | None":
        if isinstance(value, QtRat):
            return value
        if isinstance(value, QtPoly):
            return QtRat(value, QT_ONE, _reduced=True)
        if isinstance(value, int):
            return QtRat.from_int(value)
        return None

    def __add__(self, other: "QtRat | QtPoly | int") -> "QtRat":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.den == rhs.den:
            return QtRat(self.num + rhs.num, self.den)
        if self.den.is_one():
            return QtRat(self.num * rhs.den + rhs.num, rhs.den, _reduced=True)
        if rhs.den.is_one():
            return QtRat(self.num + rhs.num * self.den, self.den, _reduced=True)
        g, da, db = gcd_cofactors(self.den, rhs.den)
        num = self.num * db + rhs.num * da
        if num.is_zero():
            return QT_RAT_ZERO
        # num is prime to da and to db, so only g can share a factor with it
        _, num, gh = gcd_cofactors(num, g)
        return QtRat(num, da * gh * db, _reduced=True)

    __radd__ = __add__

    def __sub__(self, other: "QtRat | QtPoly | int") -> "QtRat":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "QtRat | QtPoly | int") -> "QtRat":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: "QtRat | QtPoly | int") -> "QtRat":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.num.is_zero() or rhs.num.is_zero():
            return QT_RAT_ZERO
        if self.den.is_one() and rhs.den.is_one():
            return QtRat(self.num * rhs.num, QT_ONE, _reduced=True)
        # cross-reduce before multiplying to keep intermediates small
        _, na, db = gcd_cofactors(self.num, rhs.den)
        _, nb, da = gcd_cofactors(rhs.num, self.den)
        return QtRat(na * nb, da * db, _reduced=True)

    __rmul__ = __mul__

    def inverse(self) -> "QtRat":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        if den.content_sign() < 0:
            num, den = -num, -den
        return QtRat(num, den, _reduced=True)

    def __truediv__(self, other: "QtRat | QtPoly | int") -> "QtRat":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: "QtRat | QtPoly | int") -> "QtRat":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exp: int) -> "QtRat":
        if exp < 0:
            return self.inverse() ** (-exp)
        return QtRat(self.num ** exp, self.den ** exp, _reduced=True)

    def swap_qt(self) -> "QtRat":
        num = self.num.swap_qt()
        if self.den.is_one():
            return QtRat(num, self.den, _reduced=True)
        den = self.den.swap_qt()
        if den.content_sign() < 0:
            num, den = -num, -den
        return QtRat(num, den, _reduced=True)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"QtRat({self})"


QT_RAT_ZERO = QtRat.from_int(0)
QT_RAT_ONE = QtRat.from_int(1)

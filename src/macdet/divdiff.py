"""Divided-difference operator calculus on concrete polynomials.

Words of divided differences, resultants of scaled alphabets, the chi
symmetrizing operators, q-shift substitutions, the scalar product
<f, g> = (longest divided-difference word applied to f*g), and the raw
subset-sum forms of the Macdonald and creation operators.

An alphabet here is a (scale, letters) pair: the concrete letters x_i
for i in letters, each multiplied by one nonzero scalar.  Resultants
take two such pairs; a component of a signed sum carries a sign in
front, (sign, scale, letters).  Formal extra alphabets in identities
are realized as extra trailing variables.  The lambda-ring complete
function of a signed sum of scaled alphabets (complete_of) is the
workhorse for the identity test harness in the verify module.

Complete functions, resultants and Vandermonde-type pairwise products
are memoized per process (MultiPoly is immutable, so a cached value can
be shared).  A subset sum forms one product, for the first subset, and
relabels it for every other subset; nothing per subset is memoized.  The
raw operators are linear over Q(q,t): they run on the integer numerator
of their input and divide by its denominator once, at the end.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .multipoly import MultiPoly, divide_exact_binomial
from .qt import QT_ONE, QT_RAT_ONE, Q, QtPoly, QtRat, T

Alphabet = tuple[QtRat, tuple[int, ...]]  # (scale, letters)


@lru_cache(maxsize=None)
def resultant(a: Alphabet, b: Alphabet, m: int) -> MultiPoly:
    """Product of (alpha - beta) over letters alpha of a, beta of b."""
    (scale_a, letters_a), (scale_b, letters_b) = a, b
    if set(letters_a) & set(letters_b):
        raise ValueError("resultant needs disjoint alphabets")
    out = MultiPoly.const(m, 1)
    for i in letters_a:
        xi = MultiPoly.variable(m, i) * scale_a
        for j in letters_b:
            out = out * (xi - MultiPoly.variable(m, j) * scale_b)
    return out


# ---------------------------------------------------------------------------
# divided differences and words

def divided_difference_word(f: MultiPoly, word: Sequence[int]) -> MultiPoly:
    for i in word:
        f = f.divided_difference(i)
    return f


def longest_word(size: int) -> list[int]:
    """A reduced word for the longest element of the symmetric group."""
    return [i for width in range(1, size) for i in range(width, 0, -1)]


def slot_word(k: int, n: int) -> list[int]:
    """Word moving the single letter x_k across x_{k+1}..x_n."""
    return list(range(k, n))


def block_word(k: int, n: int) -> list[int]:
    """Word moving the block x_1..x_k across x_{k+1}..x_n."""
    out: list[int] = []
    for r in range(k):
        out.extend(range(k - r, n - r))
    return out


# ---------------------------------------------------------------------------
# chi operators (resultant multiplication followed by a word)

def _chi(f: MultiPoly, front: tuple[int, ...], k: int, n: int,
         word: list[int]) -> MultiPoly:
    """Multiply by R(front, X_{k+1..n}/t), then apply the word."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if f.m < n:
        raise ValueError(f"polynomial has {f.m} variables, needs at least {n}")
    res = resultant((QT_RAT_ONE, front),
                    (QtRat(QT_ONE, T), tuple(range(k + 1, n + 1))), f.m)
    return divided_difference_word(f * res, word)


def chi_slot(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Symmetrize the slot at position k against x_{k+1}..x_n."""
    return _chi(f, (k,), k, n, slot_word(k, n))


def chi_block(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Symmetrize the block x_1..x_k against x_{k+1}..x_n."""
    return _chi(f, tuple(range(1, k + 1)), k, n, block_word(k, n))


def chi_omega(f: MultiPoly, k: int) -> MultiPoly:
    """Antisymmetrize-and-normalize within x_1..x_k (full symmetrizer)."""
    if k < 1 or f.m < k:
        raise ValueError(f"bad chi_omega parameters k={k}, m={f.m}")
    res = _pairwise(tuple(range(1, k + 1)), QtRat(QT_ONE, T), f.m)
    return divided_difference_word(f * res, longest_word(k))


def t_factorial(k: int) -> QtRat:
    """The t-factorial k_t! = product of (1 + 1/t + ... + 1/t^{i-1})."""
    num = QT_ONE
    for i in range(1, k + 1):
        num = num * sum((T ** j for j in range(i)), QtPoly())
    return QtRat(num, T ** (k * (k - 1) // 2))


def t_slot_image(k: int, n: int) -> QtRat:
    """1 + t^{-1} + ... + t^{k-n}: the slot operator's image of 1."""
    num = sum((T ** j for j in range(n - k + 1)), QtPoly())
    return QtRat(num, T ** (n - k))


# ---------------------------------------------------------------------------
# substitutions

def theta_subst(f: MultiPoly, ell: int) -> MultiPoly:
    """The q-shift x_ell -> q * x_ell."""
    return f.scale_var(ell, Q)


def _theta_subset(f: MultiPoly, subset: Iterable[int]) -> MultiPoly:
    for i in subset:
        f = f.scale_var(i, Q)
    return f


# ---------------------------------------------------------------------------
# scalar product and adjoint bases

def dd_scalar_product(f: MultiPoly, g: MultiPoly, m: int) -> MultiPoly:
    """Longest-word divided difference of f*g over x_1..x_m: a constant
    when the degrees balance, a polynomial in x_1..x_m otherwise."""
    return divided_difference_word(f.extend(m) * g.extend(m), longest_word(m))


def xbar_monomial(exps: Sequence[int], m: int) -> MultiPoly:
    """The product of (-x_i)^{e_i}: the monomial dual to the e-products."""
    exps = tuple(exps)
    if len(exps) > m:
        raise ValueError("exponent vector longer than variable count")
    exps = exps + (0,) * (m - len(exps))
    sign = -1 if sum(exps) % 2 else 1
    return MultiPoly.monomial(m, exps, sign)


def elementary_poly(e: int, letters: Sequence[int], m: int) -> MultiPoly:
    """Elementary symmetric polynomial of degree e in the given letters."""
    return _e_letters(e, tuple(letters), m)


def e_product_dual_basis(exps: Sequence[int], m: int) -> MultiPoly:
    """Product over j of e_{exps_j}(x_1..x_{j-1}): the basis adjoint to
    the xbar monomials under the longest-word scalar product."""
    exps = tuple(exps)
    if len(exps) > m:
        raise ValueError("index vector longer than variable count")
    out = MultiPoly.const(m, 1)
    for j, e in enumerate(exps, start=1):
        out = out * elementary_poly(e, range(1, j), m)
        if out.is_zero():
            break
    return out


# ---------------------------------------------------------------------------
# lambda-ring complete functions of signed scaled alphabets

Component = tuple[int, QtRat, tuple[int, ...]]  # (sign, scale, letters)


@lru_cache(maxsize=None)
def _h_letters(e: int, letters: tuple[int, ...], m: int) -> MultiPoly:
    if e == 0:
        return MultiPoly.const(m, 1)
    if not letters:
        return MultiPoly.zero(m)
    head, tail = letters[-1], letters[:-1]
    x = MultiPoly.variable(m, head)
    out = MultiPoly.zero(m)
    power = MultiPoly.const(m, 1)
    for d in range(e + 1):
        out = out + power * _h_letters(e - d, tail, m)
        power = power * x
    return out


@lru_cache(maxsize=None)
def _e_letters(e: int, letters: tuple[int, ...], m: int) -> MultiPoly:
    if e == 0:
        return MultiPoly.const(m, 1)
    if e < 0 or e > len(letters):
        return MultiPoly.zero(m)
    head, tail = letters[-1], letters[:-1]
    return _e_letters(e, tail, m) + MultiPoly.variable(m, head) * _e_letters(e - 1, tail, m)


@lru_cache(maxsize=None)
def _component_complete(e: int, comp: Component, m: int) -> MultiPoly:
    sign, scale, letters = comp
    if e == 0:
        return MultiPoly.const(m, 1)
    if sign > 0:
        base = _h_letters(e, letters, m)
        factor = scale ** e
    else:
        base = _e_letters(e, letters, m)
        factor = (-scale) ** e
    if base.is_zero():
        return base
    return base * factor


def complete_of(j: int, components: Sequence[Component], m: int) -> MultiPoly:
    """Complete function of degree j of a signed sum of scaled alphabets.

    Each component (sign, scale, letters) contributes the alphabet
    scale*(x_letters) with multiplicity sign (+1 or -1); degrees are
    convolved across components.
    """
    return _complete_of(j, tuple(components), m)


@lru_cache(maxsize=None)
def _complete_of(j: int, components: tuple[Component, ...], m: int) -> MultiPoly:
    if j < 0:
        return MultiPoly.zero(m)
    acc: list[MultiPoly] = [MultiPoly.const(m, 1)] + [MultiPoly.zero(m)] * j
    for comp in components:
        pieces = [_component_complete(e, comp, m) for e in range(j + 1)]
        nxt = [MultiPoly.zero(m) for _ in range(j + 1)]
        for d in range(j + 1):
            if acc[d].is_zero():
                continue
            for e, piece in enumerate(pieces[:j + 1 - d]):
                if not piece.is_zero():
                    nxt[d + e] = nxt[d + e] + acc[d] * piece
        acc = nxt
    return acc[j]


# ---------------------------------------------------------------------------
# Vandermonde bookkeeping for subset-sum operators

@lru_cache(maxsize=None)
def _pairwise(indices: tuple[int, ...], scale: QtRat, m: int) -> MultiPoly:
    """Product of (x_a - scale * x_b) over a before b in indices; the
    Vandermonde product at scale 1."""
    out = MultiPoly.const(m, 1)
    for a, b in combinations(indices, 2):
        out = out * (MultiPoly.variable(m, a) - MultiPoly.variable(m, b) * scale)
    return out


def _subset_sum(universe: tuple[int, ...], k: int, m: int, first: MultiPoly) -> MultiPoly:
    """The sum over k-subsets I of universe, with rest the letters not in
    I, of term(I, rest) / R(X_I, X_rest), given first = term(universe[:k],
    universe[k:]).

    Contract: term must be equivariant, term(I, rest) = sigma_I(first) for
    the permutation sigma_I sending universe[j] to (I + rest)[j] and fixing
    every other letter.  Then term(I, rest) * V(X_I) * V(X_rest) is sigma_I
    of one product, which is formed once, and the subset's sign is that of
    sigma_I (R(X_I, X_rest) * V(X_I) * V(X_rest) = sign * V(universe)).  The
    total is divided exactly by the Vandermonde V(universe)."""
    product = first * (_pairwise(universe[:k], QT_RAT_ONE, m)
                       * _pairwise(universe[k:], QT_RAT_ONE, m))
    total = MultiPoly.zero(m)
    positions = range(len(universe))
    for chosen in combinations(positions, k):
        target = list(range(1, m + 1))
        for a, p in zip(universe, chosen + tuple(p for p in positions if p not in chosen)):
            target[a - 1] = universe[p]
        moved = product.relabel(target)
        # sum(chosen) - k(k-1)/2 pairs put a letter of rest before one of I
        total = total + (-moved if (sum(chosen) - k * (k - 1) // 2) % 2 else moved)
    for a, b in combinations(universe, 2):
        total = divide_exact_binomial(total, a, b)
    return total


def sylvester_sum(f: MultiPoly, k: int, n: int) -> MultiPoly:
    """Subset-summation form of the block symmetrizer.

    Valid for f symmetric separately in x_1..x_k and x_{k+1}..x_n; the
    sum of C_I f / R(X_I, X_rest) is computed exactly over the common
    Vandermonde denominator.  Its terms C_I f are relabellings of f, so
    _subset_sum's contract holds for any f.
    """
    if not 1 <= k <= n or f.m < n:
        raise ValueError(f"bad sylvester parameters k={k}, n={n}, m={f.m}")
    return _subset_sum(tuple(range(1, n + 1)), k, f.m, f)


# ---------------------------------------------------------------------------
# raw Macdonald and creation operators

def _require_symmetric(f: MultiPoly, n: int, who: str) -> None:
    if not f.is_symmetric(n):
        raise ValueError(f"{who} needs input symmetric in x_1..x_{n}")


def _divided_by(out: MultiPoly, den: QtPoly) -> MultiPoly:
    return out if den.is_one() else out * QtRat(QT_ONE, den)


def _macdonald_on_letters(f: MultiPoly, k: int, letters: tuple[int, ...]) -> MultiPoly:
    """Subset-sum Macdonald operator over an arbitrary letter set, for f
    symmetric in those letters: each subset's term is then the first
    subset's term relabelled, as _subset_sum requires."""
    m, subset = f.m, letters[:k]
    first = resultant((QtRat(T), subset), (QT_RAT_ONE, letters[k:]), m) * _theta_subset(f, subset)
    return _subset_sum(letters, k, m, first) * QtRat(T ** (k * (k - 1) // 2))


def raw_macdonald_op(f: MultiPoly, k: int, n: int, route: str = "subset") -> MultiPoly:
    """The k-th Macdonald operator on a symmetric polynomial in x_1..x_n.

    route "subset" is the defining subset sum with resultant ratios;
    route "dd" is the equivalent block-symmetrizer composition.
    """
    if not 1 <= k <= n or f.m < n:
        raise ValueError(f"bad operator parameters k={k}, n={n}, m={f.m}")
    _require_symmetric(f, n, "raw_macdonald_op")
    den, f = f.den, f.numerator()
    if route == "subset":
        out = _macdonald_on_letters(f, k, tuple(range(1, n + 1)))
    elif route == "dd":
        g = _theta_subset(f, range(1, k + 1))
        res = resultant((QtRat(T), tuple(range(1, k + 1))),
                        (QT_RAT_ONE, tuple(range(k + 1, n + 1))), f.m)
        out = divided_difference_word(g * res, block_word(k, n))
        out = out * QtRat(T ** (k * (k - 1) // 2))
    else:
        raise ValueError(f"unknown route {route!r}")
    return _divided_by(out, den)


def _omega_rotate(f: MultiPoly, k: int) -> MultiPoly:
    """Apply the leftward cycle sending the x_k slot content to x_1."""
    return theta_subst(f, k).relabel((*range(2, k + 1), 1, *range(k + 1, f.m + 1)))


def raw_creation_op(f: MultiPoly, k: int, n: int, route: str = "subset") -> MultiPoly:
    """The k-th creation operator on a symmetric polynomial in x_1..x_n.

    route "subset": sum over k-subsets of x^I times a resultant ratio
    times the alternating t-sum of sub-alphabet Macdonald operators.
    route "chi": the factored form through the chi operators.
    """
    if not 1 <= k <= n or f.m < n:
        raise ValueError(f"bad operator parameters k={k}, n={n}, m={f.m}")
    _require_symmetric(f, n, "raw_creation_op")
    den, f = f.den, f.numerator()
    m = f.m
    if route == "subset":
        subset = tuple(range(1, k + 1))
        g = MultiPoly.zero(m)
        t_pow = QT_RAT_ONE
        for ell in range(k + 1):
            piece = _macdonald_on_letters(f, ell, subset) if ell else f
            g = g + piece * t_pow
            t_pow = t_pow * QtRat(-T)
        x_subset = MultiPoly.monomial(m, (1,) * k + (0,) * (m - k))
        first = x_subset * resultant((QT_RAT_ONE, subset),
                                     (QtRat(QT_ONE, T), tuple(range(k + 1, n + 1))), m) * g
        out = _subset_sum(tuple(range(1, n + 1)), k, m, first)
    elif route == "chi":
        g = f
        for i in range(1, k + 1):
            g = g - _omega_rotate(g, k) * QtRat(T ** i)
        for i in range(1, k + 1):
            g = g * MultiPoly.variable(m, i)
        g = chi_omega(g, k)
        g = chi_block(g, k, n)
        out = g * t_factorial(k).inverse()
    else:
        raise ValueError(f"unknown route {route!r}")
    return _divided_by(out, den)

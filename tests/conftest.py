"""Shared helpers for the test suite: seeded random generators and the
reference dominance predicate."""

from __future__ import annotations

import random
from itertools import accumulate, zip_longest

from macdet.qt import QtPoly, QtRat


def rand_poly(rng: random.Random, max_deg: int = 3, max_terms: int = 4,
              coeff_bound: int = 4, nonzero: bool = False) -> QtPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        coef = rng.randint(-coeff_bound, coeff_bound)
        terms[key] = terms.get(key, 0) + coef
    poly = QtPoly(terms)
    if nonzero and poly.is_zero():
        return QtPoly({(0, 0): 1})
    return poly


def rand_rat(rng: random.Random, max_deg: int = 2, max_terms: int = 3) -> QtRat:
    num = rand_poly(rng, max_deg, max_terms)
    den = rand_poly(rng, max_deg, max_terms, nonzero=True)
    return QtRat(num, den)


def dominated_by(lam: tuple, mu: tuple) -> bool:
    """Reference dominance for partitions of one weight: lam <= mu when
    every prefix sum of lam is at most mu's of the same length."""
    return all(a <= b for a, b in zip_longest(accumulate(lam), accumulate(mu),
                                              fillvalue=sum(lam)))

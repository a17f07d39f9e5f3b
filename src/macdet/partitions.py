"""Integer partitions and compositions: dominance order, conjugation,
arm/leg cell statistics, enumeration helpers.

Partitions are plain tuples of weakly decreasing positive ints (the empty
tuple is the empty partition); compositions are tuples of non-negative
ints of some declared length.  Diagrams use the French picture: row 1 is
the bottom row of length lambda_1, the arm of a cell counts cells
strictly east of it, the leg counts cells strictly north.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, permutations as _permutations
from math import factorial
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize to a canonical partition tuple; reject bad part lists."""
    seq = tuple(int(p) for p in parts)
    if any(p < 0 for p in seq):
        raise ValueError(f"negative part in {seq}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError(f"parts not weakly decreasing: {seq}")
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return seq


def weight(lam: Partition) -> int:
    return sum(lam)


def pad(lam: Partition, n: int) -> Composition:
    """View lam as a length-n vector with trailing zeros."""
    if len(lam) > n:
        raise ValueError(f"partition {lam} longer than n={n}")
    return lam + (0,) * (n - len(lam))


@lru_cache(maxsize=None)
def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def dominated_by(lam: Partition, mu: Partition) -> bool:
    """True when lam <= mu in dominance (weak): every prefix sum of lam
    is at most the matching prefix sum of mu.  The weights must agree."""
    if sum(lam) != sum(mu):
        raise ValueError(f"weights differ: {lam} vs {mu}")
    n = max(len(lam), len(mu))
    return all(a <= b for a, b in zip(accumulate(pad(lam, n)), accumulate(pad(mu, n))))


@lru_cache(maxsize=None)
def partitions_of(w: int) -> tuple[Partition, ...]:
    """All partitions of w, in descending lex order."""
    if w < 0:
        raise ValueError("negative weight")

    def gen(remaining: int, cap: int) -> list[Partition]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                out.append((first,) + rest)
        return out

    return tuple(gen(w, w))


def extension_key(lam: Partition) -> tuple[int, Partition]:
    """Sort key realizing a fixed linear extension of dominance.

    Sorting a dominance upset ascending by this key puts the base
    partition first and dominance-larger partitions later; ties between
    incomparable partitions break lexicographically.
    """
    nstat = sum(i * part for i, part in enumerate(lam))
    return (-nstat, lam)


def dominance_upset(lam: Partition) -> tuple[Partition, ...]:
    """All mu >= lam of the same weight, lam first, in a fixed extension."""
    ups = [mu for mu in partitions_of(sum(lam)) if dominated_by(lam, mu)]
    ups.sort(key=extension_key)
    return tuple(ups)


def dominance_downset(lam: Partition) -> tuple[Partition, ...]:
    """All mu <= lam of the same weight, lam first, then downward."""
    downs = [mu for mu in partitions_of(sum(lam)) if dominated_by(mu, lam)]
    downs.sort(key=extension_key, reverse=True)
    return tuple(downs)


def distinct_permutations(nu: Composition, n: int) -> tuple[Composition, ...]:
    """All distinct length-n rearrangements of nu, descending lex order."""
    positive = tuple(sorted((p for p in nu if p > 0), reverse=True))
    if any(p < 0 for p in nu):
        raise ValueError(f"negative entry in {nu}")
    if len(positive) > n:
        raise ValueError(f"{nu} has more than n={n} positive entries")
    padded = positive + (0,) * (n - len(positive))
    return tuple(sorted(set(_permutations(padded)), reverse=True))


def z_factor(lam: Partition) -> int:
    """Centralizer size of a permutation with cycle type lam."""
    out = 1
    for part in set(lam):
        mult = lam.count(part)
        out *= part**mult * factorial(mult)
    return out


class CellStat(NamedTuple):
    row: int
    col: int
    arm: int
    leg: int


def arm_leg_cells(lam: Partition) -> list[CellStat]:
    """Arm (east count) and leg (north count) for every diagram cell."""
    conj = conjugate(lam)
    cells = []
    for i, row_len in enumerate(lam, start=1):
        for j in range(1, row_len + 1):
            cells.append(CellStat(i, j, row_len - j, conj[j - 1] - i))
    return cells


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"


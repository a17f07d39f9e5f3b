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
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Normalize to a canonical partition tuple; reject bad part lists."""
    seq = tuple(int(p) for p in parts)
    if any(p < 0 for p in seq):
        raise ValueError(f"negative part in {seq}")
    if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
        raise ValueError(f"parts not weakly decreasing: {seq}")
    return tuple(p for p in seq if p)


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


def _dominating(lam: Partition) -> Iterator[Partition]:
    """Every mu >= lam of the same weight, in descending lex order.

    Parts go largest first; a branch is cut once its prefix sum falls
    below lam's, as any smaller next part would too.  The cut is not
    exact: (3, 1) passes both tests under (2, 2, 2) but has no completion,
    and a dead branch can fork: (8, 2) under (3^7) tries 9 prefixes of up
    to 6 parts.  A head short of the weight is shorter than lam, so floor
    covers it.  The recursion depth is the number of parts.
    """
    w, floor = sum(lam), tuple(accumulate(lam))

    def extend(head: Partition, total: int) -> Iterator[Partition]:
        if total == w:
            yield head
        for part in range(min(w - total, head[-1] if head else w), 0, -1):
            if total + part < floor[len(head)]:
                break
            yield from extend(head + (part,), total + part)

    return extend((), 0)


@lru_cache(maxsize=None)
def partitions_of(w: int) -> tuple[Partition, ...]:
    """All partitions of w, in descending lex order; each dominates (1^w)."""
    if w < 0:
        raise ValueError("negative weight")
    return tuple(_dominating((1,) * w))


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
    return tuple(sorted(_dominating(lam), key=extension_key))


def dominance_downset(lam: Partition) -> tuple[Partition, ...]:
    """All mu <= lam of the same weight, lam first, then downward: the
    conjugates of the upset of lam' (Macdonald, ch. I (1.11))."""
    return tuple(sorted(map(conjugate, _dominating(conjugate(lam))),
                        key=extension_key, reverse=True))


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


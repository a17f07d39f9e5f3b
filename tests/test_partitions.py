"""Partition combinatorics: conjugation, dominance, cells, enumeration."""

from time import perf_counter

import pytest

import macdet
from macdet.partitions import (
    CellStat,
    arm_leg_cells,
    conjugate,
    distinct_permutations,
    dominance_downset,
    dominance_upset,
    extension_key,
    format_partition,
    partition,
    partitions_of,
)

from conftest import dominated_by


def test_conjugate_examples():
    assert conjugate((3, 1, 1)) == (3, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_involution_up_to_weight_10():
    for w in range(11):
        for lam in partitions_of(w):
            assert conjugate(conjugate(lam)) == lam


def test_dominance_examples():
    assert (dominated_by((2, 2), (3, 1)), dominated_by((3, 1), (2, 2))) == (True, False)
    assert (dominated_by((3, 1, 1, 1), (2, 2, 2)),
            dominated_by((2, 2, 2), (3, 1, 1, 1))) == (False, False)
    assert dominated_by((3, 1), (3, 1))
    assert (dominated_by((3, 1), (2, 2)), dominated_by((2, 2), (3, 1))) == (False, True)


def test_dominance_reverses_under_conjugation():
    for w in range(9):
        parts = partitions_of(w)
        for lam in parts:
            for mu in parts:
                verdict = (dominated_by(lam, mu), dominated_by(mu, lam))
                flipped = (dominated_by(conjugate(mu), conjugate(lam)),
                           dominated_by(conjugate(lam), conjugate(mu)))
                assert verdict == flipped


# p(w) for w = 0..20
PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
                    297, 385, 490, 627)


def test_partitions_of_has_the_partition_counts_in_descending_lex_order():
    partitions_of.cache_clear()
    start = perf_counter()
    found = [partitions_of(w) for w in range(len(PARTITION_COUNTS))]
    elapsed = perf_counter() - start
    for w, parts in enumerate(found):
        assert len(parts) == PARTITION_COUNTS[w], w
        assert all(a > b for a, b in zip(parts, parts[1:])), w
        assert all(partition(lam) == lam and sum(lam) == w for lam in parts), w
    assert elapsed < 0.5, f"partitions of weights 0-20 took {elapsed:.2f}s"


def test_intervals_equal_the_reference_filter_in_order_through_weight_14():
    shapes = [lam for w in range(15) for lam in partitions_of(w)]
    macdet.clear_caches()
    start = perf_counter()
    intervals = [(dominance_upset(lam), dominance_downset(lam)) for lam in shapes]
    elapsed = perf_counter() - start
    for lam, (ups, downs) in zip(shapes, intervals):
        whole = partitions_of(sum(lam))
        assert ups == tuple(sorted((mu for mu in whole if dominated_by(lam, mu)),
                                   key=extension_key)), lam
        assert downs == tuple(sorted((mu for mu in whole if dominated_by(mu, lam)),
                                     key=extension_key, reverse=True)), lam
    assert elapsed < 1.0, f"the intervals of weights 0-14 took {elapsed:.2f}s"


def test_upset_matches_pinned_column_order():
    assert dominance_upset((2, 2, 1)) == (
        (2, 2, 1), (3, 1, 1), (3, 2), (4, 1), (5,))


def test_upset_extremes():
    assert dominance_upset((4,)) == ((4,),)
    assert dominance_upset((1, 1, 1)) == ((1, 1, 1), (2, 1), (3,))
    assert set(dominance_upset((1, 1, 1))) == set(partitions_of(3))


def test_downset_mirrors_upset():
    downs = dominance_downset((5,))
    assert downs[0] == (5,)
    assert set(downs) == set(partitions_of(5))
    assert dominance_downset((1, 1, 1)) == ((1, 1, 1),)


def test_distinct_permutations_examples():
    assert distinct_permutations((2, 0), 2) == ((2, 0), (0, 2))
    assert distinct_permutations((1, 1), 2) == ((1, 1),)
    assert len(distinct_permutations((2, 1, 0), 3)) == 6


def test_distinct_permutations_rejects_too_long():
    with pytest.raises(ValueError):
        distinct_permutations((1, 1, 1), 2)


def test_arm_leg_examples():
    assert arm_leg_cells((1,)) == [CellStat(1, 1, 0, 0)]
    assert [(c.arm, c.leg) for c in arm_leg_cells((2,))] == [(1, 0), (0, 0)]
    assert [(c.arm, c.leg) for c in arm_leg_cells((2, 1))] == [
        (1, 1), (0, 0), (0, 0)]


def test_cell_count_is_weight():
    for w in range(9):
        for lam in partitions_of(w):
            assert len(arm_leg_cells(lam)) == sum(lam)


def test_partition_validation():
    assert partition([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_format_partition():
    assert format_partition((2, 2, 1)) == "2,2,1"
    assert format_partition(()) == "0"

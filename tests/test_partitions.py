import itertools

import pytest
from hypothesis import given, strategies as st

from snorder import dominance_check, gdod, gdod_vector, merge_desc
from snorder.errors import NotDominated
from snorder.partitions import Partition, as_partition


def prefix(p: Partition, j: int) -> int:
    """Sum of the first j parts, with zero padding past the end: the
    definition that the running sums of snorder.partitions are checked
    against."""
    if j < 0:
        raise ValueError("prefix length must be nonnegative")
    return sum(p[:j])


def partitions_up_to(total_max):
    """All partitions with total <= total_max, including the empty one."""
    out = [()]
    def rec(remaining, cap, acc):
        for part in range(min(remaining, cap), 0, -1):
            out.append(tuple(acc + [part]))
            rec(remaining - part, part, acc + [part])
    rec(total_max, total_max, [])
    # include partitions of every total, not just total_max
    return sorted(set(out))


def test_as_partition_validation():
    assert as_partition([3, 1]) == (3, 1)
    with pytest.raises(ValueError):
        as_partition([1, 3])
    with pytest.raises(ValueError):
        as_partition([2, 0])


def test_worked_dominance_example():
    assert dominance_check((3, 2), (4, 2))
    assert gdod((3, 2), (4, 2), 1) == 1
    assert gdod((3, 2), (4, 2), 2) == 1
    assert gdod_vector((3, 2), (4, 2)) == (1, 1)


def test_unequal_totals_and_lengths():
    # zero padding: (2,2) vs (5,): prefixes 2<=5, 4<=5
    assert dominance_check((2, 2), (5,))
    assert gdod_vector((2, 2), (5,)) == (3, 1)
    assert not dominance_check((5,), (2, 2))


def test_gdod_requires_dominance():
    with pytest.raises(NotDominated):
        gdod((4,), (2, 2), 1)


def test_merge_desc():
    assert merge_desc((2, 2), (2, 1), (1, 1)) == (2, 2, 2, 1, 1, 1)
    assert merge_desc((), (3,)) == (3,)
    assert merge_desc() == ()


def test_dominance_axioms_exhaustive():
    parts = partitions_up_to(6)
    rel = {}
    for p, q in itertools.product(parts, repeat=2):
        rel[p, q] = dominance_check(p, q)
    for p in parts:
        assert rel[p, p]
    for p, q in itertools.product(parts, repeat=2):
        if rel[p, q] and rel[q, p]:
            # mutual dominance pins every prefix sum, hence the partition
            assert p == q
    for p, q, r in itertools.product(parts, repeat=3):
        if rel[p, q] and rel[q, r]:
            assert rel[p, r]


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=6),
       st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=6))
def test_merge_is_canonical_and_total_preserving(a, b):
    pa = tuple(sorted(a, reverse=True))
    pb = tuple(sorted(b, reverse=True))
    m = merge_desc(pa, pb)
    assert sum(m) == sum(a) + sum(b)
    assert all(x >= y for x, y in zip(m, m[1:]))
    assert sorted(m) == sorted(a + b)


PARTITIONS_TO_10 = partitions_up_to(10)


@given(st.sampled_from(PARTITIONS_TO_10), st.sampled_from(PARTITIONS_TO_10),
       st.none() | st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_dominance_and_gaps_match_their_prefix_definitions(p, q, length, j):
    n = max(len(p), len(q))
    dominated = all(prefix(p, i) <= prefix(q, i) for i in range(1, n + 1))
    assert dominance_check(p, q) is dominated
    stop = n if length is None else length
    want = tuple(prefix(q, i) - prefix(p, i) for i in range(1, stop + 1))
    if dominated:
        assert gdod_vector(p, q, length) == want
        assert gdod(p, q, j) == prefix(q, j) - prefix(p, j)
        return
    # The two j = 0 edges: an empty gap vector checks nothing, but gdod
    # checks dominance even at j = 0.
    if stop == 0:
        assert gdod_vector(p, q, length) == ()
    else:
        with pytest.raises(NotDominated):
            gdod_vector(p, q, length)
    with pytest.raises(NotDominated):
        gdod(p, q, j)

"""Integer partitions under the dominance order, generalized to operands
with different totals.  Every prefix-sum comparison of partitions reads
``prefix_gaps``, one running sum over the zero-padded parts."""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from operator import sub
from reprlib import repr as shown
from typing import Iterable, Sequence

from .errors import NotDominated

Partition = tuple


def as_partition(parts: Iterable[int]) -> Partition:
    p = tuple(int(v) for v in parts)
    if any(v <= 0 for v in p):
        raise ValueError(f"partition parts must be positive: {shown(p)}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"partition must be non-increasing: {shown(p)}")
    return p


def prefix_gaps(p: Partition, q: Partition, length: int | None = None) -> tuple:
    """The gaps sum(q[:j]) - sum(p[:j]) for j = 1..length (default: the
    longer of p and q), in one pass over the zero-padded parts."""
    if length is None:
        length = max(len(p), len(q))
    steps = map(sub, chain(q, repeat(0)), chain(p, repeat(0)))
    return tuple(accumulate(islice(steps, length)))


def dominance_check(p: Partition, q: Partition) -> bool:
    """p is dominated by q: every prefix sum of p is <= the matching prefix
    sum of q (zero-padded, totals may differ)."""
    return all(g >= 0 for g in prefix_gaps(p, q))


def gdod(p: Partition, q: Partition, j: int) -> int:
    """Prefix-sum gap sum(q[:j]) - sum(p[:j]); requires p dominated by q."""
    gaps = gdod_vector(p, q, max(len(p), len(q), 1))
    if j < 0:
        raise ValueError("prefix length must be nonnegative")
    return (0, *gaps)[min(j, len(gaps))]


def gdod_vector(p: Partition, q: Partition, length: int | None = None) -> tuple:
    """gdod(p, q, j) for j = 1..length; an empty range checks nothing."""
    if length is None:
        length = max(len(p), len(q))
    if length <= 0:
        return ()
    gaps = prefix_gaps(p, q, max(length, len(p), len(q)))
    if min(gaps) < 0:
        raise NotDominated(f"{p} is not dominated by {q}")
    return gaps[:length]


def merge_desc(*parts: Sequence[int]) -> Partition:
    """Multiset union of partitions, canonicalized non-increasing."""
    merged = []
    for p in parts:
        merged.extend(p)
    return tuple(sorted(merged, reverse=True))

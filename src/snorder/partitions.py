"""Integer partitions under the dominance order, generalized to operands
with different totals, plus the prefix-sum gap function used throughout the
Jordan-structure analysis."""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import NotDominated

Partition = tuple


def as_partition(parts: Iterable[int]) -> Partition:
    p = tuple(int(v) for v in parts)
    if any(v <= 0 for v in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"partition must be non-increasing: {p}")
    return p


def prefix(p: Partition, j: int) -> int:
    """Sum of the first j parts, with zero padding past the end."""
    if j < 0:
        raise ValueError("prefix length must be nonnegative")
    return sum(p[:j])


def dominance_check(p: Partition, q: Partition) -> bool:
    """p is dominated by q: every prefix sum of p is <= the matching prefix
    sum of q (zero-padded, totals may differ)."""
    for j in range(1, max(len(p), len(q)) + 1):
        if prefix(p, j) > prefix(q, j):
            return False
    return True


def gdod(p: Partition, q: Partition, j: int) -> int:
    """Prefix-sum gap sum(q[:j]) - sum(p[:j]); requires p dominated by q."""
    if not dominance_check(p, q):
        raise NotDominated(f"{p} is not dominated by {q}")
    return prefix(q, j) - prefix(p, j)


def gdod_vector(p: Partition, q: Partition, length: int | None = None) -> tuple:
    if length is None:
        length = max(len(p), len(q))
    return tuple(gdod(p, q, j) for j in range(1, length + 1))


def merge_desc(*parts: Sequence[int]) -> Partition:
    """Multiset union of partitions, canonicalized non-increasing."""
    merged = []
    for p in parts:
        merged.extend(p)
    return tuple(sorted(merged, reverse=True))

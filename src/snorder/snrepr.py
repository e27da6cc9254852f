"""Spectral-and-nilpotent (SN) representations of square matrices and the
partial order built from them.

A representation stores the distinct eigenvalues (strictly decreasing under
the complex total order) together with one Jordan block-size partition per
eigenvalue.  Eigenvalues are caller-supplied throughout: structure recovery
only needs ranks of powers of A = X - lambda*I, never a general eigensolver.
One loop serves both backends: it never forms A^k but multiplies a basis of
the row space of A^k by A, formed only when the chain asks for A^(k+1)
(exact: pivot rows on Gaussian integers, read from X's integer form over one
denominator with the eigenvalues; float: right singular vectors by SVD).
Exact recovery reads X's nonzero pattern once, by
:func:`linalg.principal_blocks`, and runs per diagonal block, since X and
every A^k are permutation-similar to direct sums of those blocks; a
triangular block visits only the eigenvalues on its diagonal, so its chains
run only at one it holds more than once and stop once that count decides
the rest.  A block's shift is built from X's integer rows only for a chain.
Float stays whole-matrix, as its one rank cut sees every value.
"""

from __future__ import annotations

import enum
from functools import partial
from itertools import chain, zip_longest
from operator import gt, lt
from typing import Iterable, Optional, Sequence

from .errors import (
    BackendMismatch,
    DimensionMismatch,
    EmptySpec,
    SpectrumMismatch,
)
from .linalg import (
    SVD_TOL,
    Matrix,
    gaussian_int_matmul,
    principal_blocks,
    row_basis_exact,
    row_basis_float,
    spectral_norm,
)
from .majorization import prefix_outcomes, running_pairs
from .partitions import Partition, as_partition, dominance_check, merge_desc
from .scalar import (
    EXACT, FLOAT, OrderOutcome, TotalComplex, Value, cmp_total, common_denominator, numerators,
    set_field, sort_desc_items,
)


class SNOVerdict(enum.Enum):
    EQUAL = "equal"
    STRICT_LESS = "strict_less"
    WEAK_LESS = "weak_less"
    INCOMPARABLE = "incomparable"


class JordanSpec(Value):
    """Raw (eigenvalue, block sizes) pairs; duplicates allowed."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple):  # of (TotalComplex, Partition)
        if not blocks:
            raise EmptySpec("at least one eigenvalue block is required")
        if not all(sizes for _, sizes in blocks):
            raise EmptySpec("every eigenvalue block needs at least one size")
        set_field(self, "blocks", blocks)

    @staticmethod
    def of(*pairs) -> "JordanSpec":
        return JordanSpec(tuple((lam, as_partition(sizes)) for lam, sizes in pairs))

    @property
    def dimension(self) -> int:
        return sum(sum(sizes) for _, sizes in self.blocks)


class SNRepresentation(Value):
    """Canonical form: eigenvalues strictly decreasing, partitions
    non-increasing, aligned index-wise; :func:`merge_equal` makes it
    independent of the order of the blocks."""

    __slots__ = ("eigenvalues", "partitions", "_prefix")
    _fields = ("eigenvalues", "partitions")

    def __init__(self, eigenvalues: tuple, partitions: tuple):
        set_field(self, "eigenvalues", eigenvalues)  # distinct, strictly decreasing
        set_field(self, "partitions", partitions)  # one Partition per eigenvalue

    @staticmethod
    def from_groups(groups) -> "SNRepresentation":
        """From :func:`merge_equal` groups [(head, [partitions])]."""
        return SNRepresentation(tuple(lam for lam, _ in groups), tuple(
            parts[0] if len(parts) == 1 else merge_desc(*parts) for _, parts in groups))

    @property
    def dimension(self) -> int:
        return sum(sum(p) for p in self.partitions)

    def repeated(self, values) -> list:
        """One value per eigenvalue, each repeated by its algebraic multiplicity."""
        return [v for v, part in zip(values, self.partitions) for _ in range(sum(part))]

    @property
    def spectral_vector(self) -> tuple:
        return tuple(self.repeated(self.eigenvalues))

    def _int_prefix(self):
        """(d, :func:`majorization.running_pairs` of the spectral vector's
        :func:`scalar.numerators` pairs over d), None on the float backend;
        computed once, in a slot outside _fields that ==, hash, repr and JSON skip."""
        try:
            return self._prefix
        except AttributeError:
            cleared = numerators(self.eigenvalues)
        set_field(self, "_prefix", cleared and (
            cleared[0], tuple(running_pairs(self.repeated(cleared[1])))))
        return self._prefix


def merge_keyed(triples: Iterable[tuple]) -> list:
    """:func:`merge_equal` for (key, value, item) triples, keyed by numerators
    pairs over one denominator: groups of equal keys, keys decreasing."""
    groups = {}
    for key, lam, item in triples:
        groups.setdefault(key, (lam, []))[1].append(item)
    return [groups[key] for key in sorted(groups, reverse=True)]


def merge_equal(pairs: Iterable[tuple]) -> list:
    """[(head, [items])] for (value, item) pairs in any order: the one place
    eps merges eigenvalues; exact ones group by :func:`merge_keyed`.  Float
    pairs are sorted by sort_desc_items, and a value joins the current group
    when cmp_total(head, value) is EQUAL; the head is its first value.  Float
    eps-equality is not transitive, so a merged head can sit out of order
    among the other heads: when any pair merged, the groups are sorted once
    more, so the heads are a fixed point of sort_desc whatever the order."""
    pairs = list(pairs)
    cleared = numerators(lam for lam, _ in pairs)
    if cleared is not None:
        return merge_keyed((key, lam, item) for key, (lam, item) in zip(cleared[1], pairs))
    pairs = sort_desc_items(pairs)
    groups = []
    for lam, item in pairs:
        if groups and cmp_total(groups[-1][0], lam) is OrderOutcome.EQUAL:
            groups[-1][1].append(item)
        else:
            groups.append((lam, [item]))
    return sort_desc_items(groups) if len(groups) < len(pairs) else groups


def canonical_repr(spec: JordanSpec) -> SNRepresentation:
    """Merge equal eigenvalues (:func:`merge_equal`) and their partitions."""
    return SNRepresentation.from_groups(
        merge_equal((lam, as_partition(sizes)) for lam, sizes in spec.blocks))


def block_sizes_from_ranks(ranks: Iterable[int], m: int, hits: Optional[int] = None) -> Partition:
    """Jordan block sizes at one eigenvalue of an m x m matrix X, read off
    the ranks of (X - lambda I)^s for s = 1, 2, ...: the number of blocks of
    size >= s is rank((X - lambda I)^(s-1)) - rank((X - lambda I)^s).
    Consumes ranks until they stop falling; given lambda's multiplicity hits,
    only until 0 or 1 is left or a count is 1, as the rest are then 1s."""
    counts = []  # counts[s-1] = number of blocks of size >= s
    r_prev = m
    for r in ranks:
        c = r_prev - r
        if c == 0:
            break
        counts.append(c)
        r_prev = r
        if len(counts) > m:
            raise SpectrumMismatch("rank sequence failed to stabilize")
        if hits is not None:
            left = hits - sum(counts)
            if left < 0:
                raise SpectrumMismatch(f"block counts exceed the multiplicity {hits}")
            if left <= 1 or c == 1:
                counts += [1] * left
                break
    counts.append(0)
    return tuple(
        s for s in range(len(counts) - 1, 0, -1) for _ in range(counts[s - 1] - counts[s])
    )


def _image_chain(shift, row_basis, times):
    """Ranks of the powers of A = X - lambda I without forming them: with
    B_k a basis of the row space of A^k, rank(A^(k+1)) = rank(B_k A).
    row_basis gives a rank and a call forming B_k, made if the chain goes on."""
    rows = shift
    while True:
        rank, basis = row_basis(rows)
        yield rank
        rows = times(basis(), shift)


def _int_shift(x_int, idx, lam):
    """d (X - lambda I) on the rows and columns idx, from the Gaussian
    integers d X and d lambda = lam, :func:`scalar.numerators` pairs over
    one common denominator d."""
    shift = [[row[j] for j in idx] for row in map(x_int.__getitem__, idx)]
    for k, row in enumerate(shift):
        row[k] = (row[k][0] - lam[0], row[k][1] - lam[1])
    return shift


def repr_from_matrix(x: Matrix, eigenvalues: Sequence[TotalComplex]) -> SNRepresentation:
    """Recover the SN representation from ranks of powers of (X - lambda*I),
    one image chain per eigenvalue on either backend.

    An exact X is read in its integer form, the eigenvalues are cleared once
    and merged on their integer keys, and both are scaled to one common
    denominator, the integers of clearing X and the eigenvalues together;
    one pass over its nonzeros splits it into diagonal blocks.  A block
    triangular in its index order has its diagonal as spectrum and visits
    only the lambda there: one on it once is one 1 x 1 block, and only one
    on it more than once runs a chain, cut short by that count; other blocks
    run a full chain at every lambda.  Float ranks use one cut over all of X,
    SVD_TOL * max(||X||_2, |lambda|), so a product that is all round-off
    reads as rank 0.  Raises BackendMismatch when an entry or eigenvalue is
    not of X's backend, and SpectrumMismatch when the eigenvalues, merged
    by :func:`merge_equal`, do not exhaust x.
    """
    m, n = x.shape
    if m != n:
        raise DimensionMismatch("square matrix required")
    if x.backend == EXACT:
        if x.int_form is None:
            raise BackendMismatch("exact kernel given a float entry")
        dx, x_int = x.int_form
        eigenvalues = list(eigenvalues)
        cleared = numerators(eigenvalues)
        if cleared is None:
            raise BackendMismatch("exact matrix with a float eigenvalue")
        heads = dict(zip(cleared[1], eigenvalues))  # equal keys, equal values
        keys = sorted(heads, reverse=True)
        lams = [heads[key] for key in keys]
        _, (sx, sl) = common_denominator(dx, cleared[0])
        if sx != 1:
            x_int = [[(a * sx, b * sx) for a, b in row] for row in x_int]
        by_key = {(a * sl, b * sl): [] for a, b in keys}
        for idx, counts in principal_blocks(x_int):
            # a triangular block visits only the lambda on its diagonal, and
            # a simple one there is one 1 x 1 block, built from no entry
            for key, hits in (dict.fromkeys(by_key) if counts is None else counts).items():
                if key in by_key:
                    by_key[key].append((1,) if hits == 1 else block_sizes_from_ranks(
                        _image_chain(_int_shift(x_int, idx, key), row_basis_exact,
                                     gaussian_int_matmul), len(idx), hits))
        parts = list(by_key.values())
    else:
        lams = [lam for lam, _ in merge_equal((lam, None) for lam in eigenvalues)]
        if any(z.backend != FLOAT for z in [a for row in x.rows for a in row] + lams):
            raise BackendMismatch("float matrix with an exact entry or eigenvalue")
        import numpy as np

        a = x.to_numpy()
        norm = spectral_norm(a)
        parts = []
        for lam in lams:
            z = lam.to_complex()
            basis = partial(row_basis_float, cut=SVD_TOL * max(norm, abs(z)))
            ranks = _image_chain(a - z * np.eye(m), basis, np.matmul)
            parts.append([block_sizes_from_ranks(ranks, m)])
    covered = sum(map(sum, chain.from_iterable(parts)))
    if covered != m:
        raise SpectrumMismatch(
            f"eigenvalues account for dimension {covered} of {m}"
        )
    return SNRepresentation.from_groups([(lam, p) for lam, p in zip(lams, parts) if any(p)])


def compare_nilpotent(a: Sequence[Partition], b: Sequence[Partition]) -> SNOVerdict:
    """Lexicographic dominance comparison of aligned partition lists.

    Shorter lists are padded with empty partitions.  At the first index whose
    partitions differ, strict dominance decides; anything else is
    incomparable in the <= direction (call with swapped arguments to probe
    the other direction).
    """
    for pa, pb in zip_longest(a, b, fillvalue=()):
        if tuple(pa) == tuple(pb):
            continue
        if dominance_check(pa, pb):
            return SNOVerdict.STRICT_LESS
        return SNOVerdict.INCOMPARABLE
    return SNOVerdict.EQUAL


def compare_spectra(rx: SNRepresentation, ry: SNRepresentation) -> Optional[SNOVerdict]:
    """The spectral level of :func:`compare_sno`, None for equal spectra.
    Exact forms compare running pairs (a*d_y, b*d_y) with (c*d_x, e*d_x) as
    tuples, up to the first prefix that decides; equal spectra have equal
    forms.  Float and mixed pairs read :func:`majorization.prefix_outcomes`;
    float eps acts on sums, not entries, so float spectra are compared
    entry by entry."""
    px, py = rx._int_prefix(), ry._int_prefix()
    if px is None or py is None:
        sx, sy = rx.spectral_vector, ry.spectral_vector
        if len(sx) != len(sy):
            raise DimensionMismatch(f"dimension {len(sx)} vs {len(sy)}")
        outcomes = prefix_outcomes(sx, sy)
        if all(cmp_total(a, b) is OrderOutcome.EQUAL for a, b in zip(sx, sy)):
            return None
        if OrderOutcome.GREATER in outcomes:
            return SNOVerdict.INCOMPARABLE
        below = all(c is OrderOutcome.LESS for c in outcomes)
        return SNOVerdict.STRICT_LESS if below else SNOVerdict.WEAK_LESS
    (dx, sx), (dy, sy) = px, py
    if len(sx) != len(sy):
        raise DimensionMismatch(f"dimension {len(sx)} vs {len(sy)}")
    if px == py:
        return None
    if dx != dy:
        sx, sy = [(a * dy, b * dy) for a, b in sx], [(c * dx, e * dx) for c, e in sy]
    if any(map(gt, sx, sy)):
        return SNOVerdict.INCOMPARABLE
    return SNOVerdict.STRICT_LESS if all(map(lt, sx, sy)) else SNOVerdict.WEAK_LESS


def compare_sno(rx: SNRepresentation, ry: SNRepresentation) -> SNOVerdict:
    """Spectral-then-nilpotent order.

    Spectral vectors decide first via weak majorization; equal spectra defer
    to the nilpotent comparison.  STRICT_LESS on the spectral level is
    reserved for strictly smaller prefix sums at every index.
    """
    spectral = compare_spectra(rx, ry)
    return compare_nilpotent(rx.partitions, ry.partitions) if spectral is None else spectral

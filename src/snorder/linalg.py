"""Small dense matrices over total-order complex scalars.

An exact matrix holds rows of Fraction-backed scalars, its
:func:`scalar.numerators` form (d, rows of (re, im) integer pairs), or both:
built from either (``from_rows``, ``from_numerators``), it derives the other
once, on first read.  Exact kernels work on the integer rows, on which
products, fraction-free (Bareiss) ranks and row-space bases need no Fraction
arithmetic: ``row_basis_exact`` takes a rank from one elimination and forms
the basis only when asked; ``principal_blocks`` reads the nonzero pattern
once into index sets of diagonal blocks, with the diagonal counts of the
triangular ones, and builds no block.  Float ranks and bases
(``row_basis_float``) come from numpy's SVD, which only the float helpers
import, so exact work never loads numpy.  ``toeplitz_rows`` lays out f(J),
a block-diagonal upper triangular Toeplitz matrix.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from math import gcd
from operator import add, mul, sub
from typing import TYPE_CHECKING, Sequence

from .errors import DimensionMismatch, RankAmbiguous
from .scalar import EXACT, TotalComplex, as_scalar, from_numerators, numerators

if TYPE_CHECKING:
    import numpy as np

SVD_TOL = 1e-8
SVD_GAP = 10.0


class Matrix:
    """A matrix, never changed once built.  Built from its rows or its
    integer form, it derives the other on first read and keeps it; matrices
    compare and hash by their rows, whichever form built them."""

    def __init__(self, rows: tuple):
        if len({len(r) for r in rows}) > 1:
            raise DimensionMismatch("ragged rows")
        self.rows = rows

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[TotalComplex]]) -> "Matrix":
        return Matrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def from_numerators(d: int, rows) -> "Matrix":
        """The exact matrix of entries (re + i im) / d for the (re, im)
        integer pairs of rows; d > 0 need not be the least denominator."""
        rows = tuple(map(tuple, rows))
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatch("ragged rows")
        g = gcd(d, *chain.from_iterable(chain.from_iterable(rows))) if d != 1 else 1
        m = Matrix.__new__(Matrix)
        m.int_form = d // g, rows if g == 1 else tuple(
            tuple((a // g, b // g) for a, b in row) for row in rows)
        return m

    @staticmethod
    def identity(n: int, backend: str = EXACT) -> "Matrix":
        zero, one = as_scalar(0, backend), as_scalar(1, backend)
        return Matrix(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    # -- the two forms ----------------------------------------------------

    @cached_property
    def rows(self) -> tuple:
        d, rows = self.int_form
        return tuple(from_numerators(d, row) for row in rows)

    @cached_property
    def int_form(self):
        """(d, rows of (re, im) integer pairs): the :func:`scalar.numerators`
        form of the entries, row by row; None unless every entry is exact."""
        cleared = numerators(chain.from_iterable(self.rows))
        if cleared is None:
            return None
        n, pairs = self.shape[1], cleared[1]
        return cleared[0], tuple(tuple(pairs[i * n:i * n + n]) for i in range(len(self.rows)))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix(rows={self.rows!r})"

    # -- shape ----------------------------------------------------------

    @property
    def shape(self) -> tuple:
        rows = self.rows if "rows" in vars(self) else self.int_form[1]
        return (len(rows), len(rows[0]) if rows else 0)

    @property
    def is_square(self) -> bool:
        m, n = self.shape
        return m == n

    @property
    def backend(self) -> str:
        return self.rows[0][0].backend if "rows" in vars(self) else EXACT

    # -- arithmetic -------------------------------------------------------

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")
        return Matrix(tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        cols = list(zip(*other.rows))
        return Matrix(tuple(tuple(reduce(add, map(mul, row, col)) for col in cols)
                            for row in self.rows))

    def scale(self, c: TotalComplex) -> "Matrix":
        return Matrix(tuple(tuple(c * a for a in row) for row in self.rows))

    # -- conversions --------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        import numpy as np

        return np.array([[a.to_complex() for a in row] for row in self.rows], dtype=complex)


def toeplitz_rows(heads, zero) -> list:
    """Rows of the block-diagonal matrix whose blocks are the upper
    triangular Toeplitz blocks t[:size], one per size of each partition, for
    the (first row t, partition) heads: row i of a block is i zeros, then
    t[:size - i].  A t shorter than its largest size is padded with zero,
    which also fills every entry off the blocks.  The entries are whatever
    the heads hold: scalars, or the integer pairs of an integer form."""
    n = sum(sum(part) for _, part in heads)
    rows, off = [], 0
    for t, part in heads:
        t = tuple(t) + (zero,) * (max(part) - len(t))
        for size in part:
            rows += [(zero,) * (off + i) + t[:size - i] + (zero,) * (n - off - size)
                     for i in range(size)]
            off += size
    return rows


# -- exact rank via fraction-free elimination over Z[i] -------------------


def principal_blocks(rows) -> list:
    """(index set, counts) for each connected component, by least index, of
    the pattern i ~ j when entry (i, j) or (j, i) of the square rows is
    nonzero, found in one pass: rows is permutation-similar to the direct
    sum of the principal blocks on the index sets, none of which is built.
    counts maps each diagonal value of a block triangular in its index
    order (its spectrum) to its multiplicity; it is None for other blocks."""
    owner = list(range(len(rows)))
    above, below = set(), set()  # rows with a nonzero right, left of the diagonal
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            if z != (0, 0) and j != i:
                (above if j > i else below).add(i)
                a, b = owner[i], owner[j]
                if a != b:
                    owner = [a if o == b else o for o in owner]
    mixed = {owner[i] for i in above} & {owner[i] for i in below}
    comps = {}
    for i, o in enumerate(owner):
        idx, counts = comps.setdefault(o, ([], None if o in mixed else {}))
        idx.append(i)
        if counts is not None:
            counts[rows[i][i]] = counts.get(rows[i][i], 0) + 1
    return list(comps.values())


def gaussian_int_matmul(a, b):
    """Product of an r x m and an m x n matrix of (re, im) Gaussian-integer
    pairs.  Zero entries of a are skipped: structure recovery multiplies
    sparse, block-diagonal shifts."""
    n = len(b[0])
    out = []
    for ai in a:
        sr, si = [0] * n, [0] * n
        for (xr, xi), bk in zip(ai, b):
            if xr or xi:
                for j, (yr, yi) in enumerate(bk):
                    sr[j] += xr * yr - xi * yi
                    si[j] += xr * yi + xi * yr
        out.append(list(zip(sr, si)))
    return out


def rank_gaussian_int_rows(rows) -> int:
    """Bareiss fraction-free rank of a matrix of (re, im) integer pairs.
    Mutates rows.  Divides by the previous pivot q, by q*conj(q) if not real."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    qa, qb = 1, 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pa, pb = pr[c]
        den = qa * qa + qb * qb if qb else qa
        for i in range(r + 1, m):
            ri = rows[i]
            ta, tb = ri[c]
            for j in range(c + 1, n):
                xa, xb = ri[j]
                ya, yb = pr[j]
                na = pa * xa - pb * xb - ta * ya + tb * yb
                nb = pa * xb + pb * xa - ta * yb - tb * ya
                if qb:
                    na, nb = na * qa + nb * qb, nb * qa - na * qb
                (ua, ra), (ub, rb) = divmod(na, den), divmod(nb, den)
                if ra or rb:
                    raise ArithmeticError("non-exact Gaussian-integer division in Bareiss step")
                ri[j] = (ua, ub)
            ri[c] = (0, 0)
        qa, qb = pa, pb
        r += 1
        if r == m:
            break
    return r


def row_basis_exact(rows) -> tuple:
    """(rank, basis) of rows from one rank_gaussian_int_rows pass on copies:
    basis() forms the input rows, in input order, whose copies became
    pivots, a basis of the row space whose entries, unlike echelon rows, do
    not grow along a chain of products.  Most chains never ask for it."""
    copies = [list(row) for row in rows]
    pivots = copies[:]
    rank = rank_gaussian_int_rows(pivots)
    return rank, lambda: [r for r, c in zip(rows, copies) if any(c is p for p in pivots[:rank])]


def row_basis_float(rows: np.ndarray, cut: float) -> tuple:
    """(rank, basis) of rows: basis() gives the right singular vectors whose
    singular values exceed cut, an orthonormal row-space basis.  RankAmbiguous
    unless the smallest kept and largest dropped ones differ by SVD_GAP x."""
    import numpy as np

    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    r = int((s > cut).sum())
    if 0 < r < s.size and s[r] > 0.0 and s[r - 1] / s[r] < SVD_GAP:
        raise RankAmbiguous(
            f"singular values straddle the threshold: {s[r - 1]:.3e} vs {s[r]:.3e}"
        )
    return r, lambda: vh[:r]


def spectral_norm(a: np.ndarray) -> float:
    import numpy as np

    return float(np.linalg.norm(a, 2))

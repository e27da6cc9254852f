"""Reference helpers the tests share: an exact rank, float matrices from
numpy arrays, a block-diagonal direct sum, the components of a nonzero
pattern, and the rank oracle for the block split."""

import numpy as np

from snorder import Matrix, approx, exact, repr_from_matrix
from snorder.errors import BackendMismatch
from snorder.linalg import rank_gaussian_int_rows
from snorder.matfunc import PolynomialFunction, f_jordan_block
from snorder.scalar import as_scalar


def gaussian_int_rows(mat):
    """(rows, mul): mat scaled by mul, the least common denominator of its
    entries, as fresh lists of :func:`scalar.numerators` pairs read from its
    integer form, so a kernel that mutates them leaves mat as it was.
    Scaling by a nonzero constant changes no rank, of mat or of its powers."""
    form = mat.int_form
    if form is None:
        raise BackendMismatch("exact kernel given a float entry")
    mul, rows = form
    return [list(row) for row in rows], mul


def diagonal_blocks(rows):
    """Ascending index sets, by least index, of the connected components of
    the pattern i ~ j when entry (i, j) or (j, i) is nonzero: the matrix is
    permutation-similar to the direct sum of these principal submatrices.
    The reference for :func:`linalg.principal_blocks`."""
    owner = list(range(len(rows)))
    for i, row in enumerate(rows):
        for j, z in enumerate(row):
            if z != (0, 0) and owner[i] != owner[j]:
                owner = [owner[i] if o == owner[j] else o for o in owner]
    return [[i for i, o in enumerate(owner) if o == b] for b in dict.fromkeys(owner)]


def rank_exact(mat):
    return rank_gaussian_int_rows(gaussian_int_rows(mat)[0])


def matrix_from_numpy(a):
    return Matrix.from_rows(
        [[approx(float(z.real), float(z.imag)) for z in row] for row in np.atleast_2d(a)])


def block_diag(blocks):
    """The direct sum of square blocks, entry by entry: the reference that
    the Toeplitz layout of f(J) and of Jordan matrices is checked against."""
    n = sum(b.shape[0] for b in blocks)
    zero = as_scalar(0, blocks[0].backend)
    rows = [[zero] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[off + i][off:off + len(row)] = row
        off += len(b.rows)
    return Matrix.from_rows(rows)


def rank_oracle_split(n, kappa):
    """Independent check of split_block: build the generic n x n banded
    matrix whose lowest nonzero superdiagonal sits at offset kappa, and read
    the block sizes off its rank sequence."""
    if kappa >= n:
        return tuple([1] * n)
    coeffs = [exact(0)] * kappa + [exact(1)] * (n - kappa)
    m = f_jordan_block(PolynomialFunction(tuple(coeffs)), exact(0), n)
    return repr_from_matrix(m, [exact(0)]).partitions[0]

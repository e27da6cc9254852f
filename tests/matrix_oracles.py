"""Reference helpers the tests share: an exact rank, float matrices from
numpy arrays, a block-diagonal direct sum, Jordan matrices and their
similarity transforms U J U^-1, the components of a nonzero pattern, and the
rank oracle for the block split."""

import numpy as np

from snorder import Matrix, approx, canonical_repr, exact, repr_from_matrix
from snorder.errors import BackendMismatch, DimensionMismatch, SnorderError
from snorder.linalg import rank_gaussian_int_rows, toeplitz_rows
from snorder.matfunc import PolynomialFunction, f_jordan_block
from snorder.scalar import as_scalar, one_like, zero_like


class SingularTransform(SnorderError):
    """The transform U of :func:`assemble` has no inverse."""


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


def inverse(mat):
    """Gauss-Jordan inverse; raises SingularTransform when singular."""
    if not mat.is_square:
        raise DimensionMismatch("inverse of non-square matrix")
    n = mat.shape[0]
    aug = [list(row) + list(irow) for row, irow in
           zip(mat.rows, Matrix.identity(n, mat.backend).rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not aug[r][col].is_zero()), None)
        if piv is None:
            raise SingularTransform("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [a / p for a in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return Matrix.from_rows([row[n:] for row in aug])


def jordan_matrix(spec):
    """Direct sum of Jordan blocks in canonical order: the Toeplitz blocks
    of first row (lambda, 1)."""
    rep = canonical_repr(spec)
    one, zero = one_like(rep.eigenvalues[0]), zero_like(rep.eigenvalues[0])
    return Matrix.from_rows(toeplitz_rows(
        [((lam, one), part) for lam, part in zip(rep.eigenvalues, rep.partitions)], zero))


def assemble(spec, u):
    """Similarity transform U J U^{-1} of the canonical Jordan matrix."""
    j = jordan_matrix(spec)
    if u.shape != j.shape:
        raise DimensionMismatch(f"transform {u.shape} vs spec dimension {j.shape}")
    return u @ j @ inverse(u)


def rank_oracle_split(n, kappa):
    """Independent check of split_block: build the generic n x n banded
    matrix whose lowest nonzero superdiagonal sits at offset kappa, and read
    the block sizes off its rank sequence."""
    if kappa >= n:
        return tuple([1] * n)
    coeffs = [exact(0)] * kappa + [exact(1)] * (n - kappa)
    m = f_jordan_block(PolynomialFunction(tuple(coeffs)), exact(0), n)
    return repr_from_matrix(m, [exact(0)]).partitions[0]

"""Reference helpers the tests share: an exact rank, float matrices from
numpy arrays, and the rank oracle for the block split."""

import numpy as np

from snorder import Matrix, approx, exact, repr_from_matrix
from snorder.linalg import gaussian_int_rows, rank_gaussian_int_rows
from snorder.matfunc import PolynomialFunction, f_jordan_block


def rank_exact(mat):
    return rank_gaussian_int_rows(gaussian_int_rows(mat)[0])


def matrix_from_numpy(a):
    return Matrix.from_rows(
        [[approx(float(z.real), float(z.imag)) for z in row] for row in np.atleast_2d(a)])


def rank_oracle_split(n, kappa):
    """Independent check of split_block: build the generic n x n banded
    matrix whose lowest nonzero superdiagonal sits at offset kappa, and read
    the block sizes off its rank sequence."""
    if kappa >= n:
        return tuple([1] * n)
    coeffs = [exact(0)] * kappa + [exact(1)] * (n - kappa)
    m = f_jordan_block(PolynomialFunction(tuple(coeffs)), exact(0), n)
    return repr_from_matrix(m, [exact(0)]).partitions[0]

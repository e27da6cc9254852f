import collections
import itertools
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from snorder import (
    JordanSpec,
    OrderOutcome,
    Matrix,
    SNOVerdict,
    approx,
    canonical_repr,
    cmp_total,
    compare_nilpotent,
    compare_sno,
    exact,
    poly,
    repr_from_matrix,
)
from snorder.errors import (
    BackendMismatch,
    DimensionMismatch,
    EmptySpec,
    RankAmbiguous,
    SnorderError,
    SpectrumMismatch,
)
from snorder.linalg import (
    SVD_TOL,
    gaussian_int_matmul,
    principal_blocks,
    rank_gaussian_int_rows,
    row_basis_exact,
    row_basis_float,
)
from snorder import matfunc, scalar
from snorder.majorization import prefix_outcomes
from snorder.matfunc import f_of_jordan_spec, repr_of_fx
from snorder.partitions import as_partition
from snorder.serialization import InputFormatError, jordan_spec_from_json, snrepr_to_json
from snorder.snrepr import block_sizes_from_ranks

from matrix_oracles import (
    SingularTransform,
    assemble,
    block_diag,
    diagonal_blocks,
    gaussian_int_rows,
    jordan_matrix,
    matrix_from_numpy,
    rank_exact,
)


def test_canonical_repr_merges_and_sorts():
    spec = JordanSpec.of(
        (exact(1), (2,)),
        (exact(0, 1), (3, 1)),
        (exact(1), (3,)),
    )
    rep = canonical_repr(spec)
    assert [e.to_complex() for e in rep.eigenvalues] == [1, 1j]
    assert rep.partitions == ((3, 2), (3, 1))
    assert rep.dimension == 9
    assert rep.spectral_vector[0].to_complex() == 1
    assert len(rep.spectral_vector) == 9


def test_empty_spec_rejected():
    with pytest.raises(EmptySpec):
        JordanSpec(())


def test_empty_jordan_block_rejected():
    assert as_partition(()) == ()  # the empty partition itself stays valid
    with pytest.raises(EmptySpec):
        JordanSpec.of((exact(1), ()))
    with pytest.raises(EmptySpec):
        JordanSpec.of((exact(1), (2,)), (exact(0), ()))


def test_jordan_spec_from_json_rejects_empty_sizes():
    block = {"eigenvalue": {"re": "1", "im": "0"}, "sizes": []}
    with pytest.raises(InputFormatError):
        jordan_spec_from_json({"blocks": [block]}, "exact")


def test_rank_exact_known_values():
    m = Matrix.from_rows([
        [exact(1), exact(2), exact(3)],
        [exact(2), exact(4), exact(6)],
        [exact(0), exact(0, 1), exact(1)],
    ])
    assert rank_exact(m) == 2
    n = Matrix.from_rows([[exact(Fraction(1, 3)), exact(0)], [exact(0), exact(0)]])
    assert rank_exact(n) == 1


@st.composite
def numerator_forms(draw):
    """(d, rows, values): one square matrix as (re, im) integer pairs over d
    and as exact values.  d is a drawn base times a drawn factor, so it is
    often not the least denominator, and the entries reduce to mixed
    denominators; half the draws are upper triangular."""
    n = draw(st.integers(1, 4))
    base, factor = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    pair = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    rows = draw(st.lists(st.lists(pair, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[p if j >= i else (0, 0) for j, p in enumerate(row)] for i, row in enumerate(rows)]
    values = [[exact(Fraction(a, base), Fraction(b, base)) for a, b in row] for row in rows]
    return base * factor, [[(a * factor, b * factor) for a, b in row] for row in rows], values


def _recovered(x, eigenvalues):
    try:
        return repr_from_matrix(x, eigenvalues)
    except SnorderError as err:
        return type(err)


@settings(max_examples=150, deadline=None)
@given(numerator_forms())
def test_matrix_from_numerators_agrees_with_from_rows(form):
    d, int_rows, values = form
    x, y = Matrix.from_numerators(d, int_rows), Matrix.from_rows(values)
    least, pairs = scalar.numerators(z for row in values for z in row)
    n = len(values)
    want = [pairs[i * n:i * n + n] for i in range(n)], least
    # The integer reads come first, before x derives its rows.
    assert gaussian_int_rows(x) == gaussian_int_rows(y) == want
    rows, _ = gaussian_int_rows(x)
    rank_gaussian_int_rows(rows)  # mutates what it is given, not the matrix
    assert gaussian_int_rows(x) == want
    diagonal = [values[i][i] for i in range(n)]
    assert _recovered(x, diagonal) == _recovered(y, diagonal)
    assert (x.shape, x.backend) == (y.shape, y.backend) == ((n, n), "exact")
    assert x.rows == y.rows
    assert x == y and hash(x) == hash(y)


def test_exact_f_of_j_recovery_clears_only_the_eigenvalues(monkeypatch):
    """f(J) is laid out from the integers of the Taylor shift, so recovering
    it clears the merged eigenvalues, never the n x n entries."""
    f = poly([Fraction(1, 2), exact(-1, Fraction(1, 3)), 1])
    rx = rep_of((exact(Fraction(1, 2), 1), (3, 1)), (exact(Fraction(-1, 3)), (2,)),
                (exact(0, Fraction(1, 6)), (1, 1)))
    images = list(dict.fromkeys(f(lam) for lam in rx.eigenvalues))
    want = repr_of_fx(f, rx)[0]
    calls, numerators = [], scalar.numerators

    def counting(values):
        calls.append(tuple(values))
        return numerators(calls[-1])

    # Every module that reads numerators, so no route to it goes uncounted.
    for mod in [m for name, m in sys.modules.items() if name.startswith("snorder")]:
        if getattr(mod, "numerators", None) is numerators:
            monkeypatch.setattr(mod, "numerators", counting)
    matfunc._expansion.cache_clear()
    x = f_of_jordan_spec(f, rx)
    shifted = len(calls)
    assert repr_from_matrix(x, images) == want
    allowed = set(rx.eigenvalues) | set(images) | set(f.coefficients)
    assert all(set(values) <= allowed for values in calls)
    assert calls[shifted:] == [tuple(images)]


def _sparse_gaussian_int_rows(rng, m, n=None):
    return [[(rng.choice([0, 0, rng.randint(-4, 4)]), rng.choice([0, rng.randint(-4, 4)]))
             for _ in range(m if n is None else n)] for _ in range(m)]


def _as_matrix(rows):
    return Matrix.from_rows([[exact(re, im) for re, im in row] for row in rows])


def test_gaussian_int_matmul_matches_matrix_product():
    rng = random.Random(3)
    # square shapes, then r x m times m x n as in the image chain
    shapes = [(n, n, n) for n in range(1, 7)] + [(1, 3, 3), (2, 5, 5), (4, 2, 3), (3, 4, 1)]
    for r, m, n in shapes:
        a, b = _sparse_gaussian_int_rows(rng, r, m), _sparse_gaussian_int_rows(rng, m, n)
        product = _as_matrix(a) @ _as_matrix(b)
        assert gaussian_int_matmul(a, b) == [[(z.re, z.im) for z in row] for row in product.rows]


@pytest.mark.parametrize("seed", range(20))
def test_row_basis_exact_is_a_subset_of_input_rows(seed):
    rng = random.Random(seed)
    r, n = rng.randint(1, 6), rng.randint(1, 6)
    rows = _sparse_gaussian_int_rows(rng, r, n)
    if r > 1:  # make the last row a Gaussian-integer combination of earlier ones
        c = (rng.randint(-2, 2), rng.randint(-2, 2))
        rows[-1] = [(xr + c[0] * yr - c[1] * yi, xi + c[0] * yi + c[1] * yr)
                    for (xr, xi), (yr, yi) in zip(rows[0], rows[1 % (r - 1)])]
    before = [list(row) for row in rows]
    rank, basis = row_basis_exact(rows)
    basis = basis()
    assert rows == before  # the input is not touched
    assert rank == len(basis) == rank_exact(_as_matrix(rows))
    # the basis rows are input rows, in input order
    positions = [next(i for i, row in enumerate(rows) if row is b) for b in basis]
    assert positions == sorted(set(positions))
    if basis:
        assert rank_exact(_as_matrix(basis)) == len(basis)


def test_row_basis_float_gap_check():
    a = np.diag([1.0, 1e-3, 1e-12])
    rank, basis = row_basis_float(a, SVD_TOL)
    assert rank == len(basis()) == 2
    with pytest.raises(RankAmbiguous):
        # values straddling the cutoff with ratio < 10
        row_basis_float(np.diag([1.0, 3e-8, 0.5e-8]), SVD_TOL)


def test_repr_from_matrix_recovers_jordan_structure():
    spec = JordanSpec.of((exact(0), (2, 1)), (exact(1, 1), (2,)))
    j = jordan_matrix(spec)
    rep = repr_from_matrix(j, [exact(0), exact(1, 1)])
    assert rep == canonical_repr(spec)


def test_repr_from_matrix_under_similarity():
    rng = random.Random(5)
    spec = JordanSpec.of((exact(2), (3, 1)), (exact(0, -1), (2,)))
    n = spec.dimension
    while True:
        u = Matrix.from_rows([
            [exact(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(n)]
            for _ in range(n)
        ])
        if rank_exact(u) == n:
            break
    x = assemble(spec, u)
    rep = repr_from_matrix(x, [exact(2), exact(0, -1)])
    assert rep == canonical_repr(spec)


RATIONAL_EIGENVALUES = (
    exact(Fraction(1, 3), Fraction(1, 2)),
    exact(Fraction(1, 3), Fraction(-1, 2)),
    exact(Fraction(-2, 5)),
    exact(0, Fraction(3, 4)),
    exact(Fraction(5, 6), Fraction(1, 4)),
)


def _rational_spec(rng, max_dim=6):
    while True:
        lams = rng.sample(RATIONAL_EIGENVALUES, rng.randint(1, 3))
        spec = JordanSpec.of(*(
            (lam, sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 2))), reverse=True))
            for lam in lams
        ))
        if spec.dimension <= max_dim:
            return spec, lams


def _rational_transform(rng, n):
    while True:
        u = Matrix.from_rows([
            [exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                   Fraction(rng.randint(-1, 1), rng.randint(1, 2))) for _ in range(n)]
            for _ in range(n)
        ])
        if rank_exact(u) == n:
            return u


@pytest.mark.parametrize("seed", range(12))
def test_repr_from_matrix_rational_eigenvalues(seed):
    rng = random.Random(seed)
    spec, lams = _rational_spec(rng)
    x = assemble(spec, _rational_transform(rng, spec.dimension))
    expected = canonical_repr(spec)
    assert repr_from_matrix(x, lams) == expected
    # permuted, duplicated (as distinct equal objects) and padded with a
    # value that is not an eigenvalue: the verdict must not change
    shuffled = list(lams)
    rng.shuffle(shuffled)
    assert repr_from_matrix(x, shuffled) == expected
    duplicated = shuffled + [exact(lam.re, lam.im) for lam in lams]
    rng.shuffle(duplicated)
    assert repr_from_matrix(x, duplicated) == expected
    others = [lam for lam in RATIONAL_EIGENVALUES if lam not in lams]
    assert repr_from_matrix(x, [others[0]] + shuffled) == expected


def test_repr_from_matrix_rational_eigenvalue_missing():
    lam = exact(Fraction(1, 3), Fraction(1, 2))
    spec = JordanSpec.of((lam, (2,)), (exact(Fraction(-2, 5)), (1,)))
    x = assemble(spec, _rational_transform(random.Random(1), spec.dimension))
    with pytest.raises(SpectrumMismatch):
        repr_from_matrix(x, [lam])


def test_repr_from_matrix_spectrum_mismatch():
    j = jordan_matrix(JordanSpec.of((exact(0), (2,)), (exact(1), (1,))))
    with pytest.raises(SpectrumMismatch):
        repr_from_matrix(j, [exact(0)])


def test_repr_from_matrix_backend_mismatch():
    from snorder import approx

    j = jordan_matrix(JordanSpec.of((exact(1), (2,))))
    with pytest.raises(BackendMismatch):
        repr_from_matrix(j, [approx(1.0)])


def test_repr_from_matrix_ignores_eigenvalue_order():
    # 0 and 1.6e-9 are 1.6 eps apart, 0.8e-9 is within eps of both: the merge
    # must not depend on which of them the caller lists first.
    j = jordan_matrix(JordanSpec.of((approx(0.0), (2,))))
    outcomes = set()
    for lams in itertools.permutations([approx(0.0), approx(0.8e-9), approx(1.6e-9)]):
        try:
            outcomes.add(repr_from_matrix(j, list(lams)))
        except (SpectrumMismatch, RankAmbiguous) as e:
            outcomes.add((type(e), str(e)))
    assert len(outcomes) == 1


def test_repr_from_matrix_merges_round_off_below_a_larger_imaginary_part():
    # 1+5e-10 and 1 are tolerance-equal; 1+3i lies between them on the exact
    # key, yet must not split them into two eigenvalues.
    x = jordan_matrix(JordanSpec.of((approx(1.0), (1,)), (approx(1.0, 3.0), (1,))))
    for lams in itertools.permutations([approx(1.0), approx(1 + 5e-10), approx(1.0, 3.0)]):
        assert repr_from_matrix(x, list(lams)).partitions == ((1,), (1,))


def _pattern(n, *edges):
    """n x n (re, im) rows, nonzero on the diagonal and at the given (i, j)."""
    return [[(1, 0) if i == j or (i, j) in edges else (0, 0) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("rows, blocks", [
    ([[(2, 1), (0, -1)], [(3, 0), (0, 0)]], [[0, 1]]),             # irreducible, dense
    (_pattern(3, (0, 1), (1, 2), (2, 0)), [[0, 1, 2]]),            # irreducible cycle
    (_pattern(5, (0, 3), (4, 2)), [[0, 3], [1], [2, 4]]),          # permuted direct sum
    (_pattern(5, (4, 3), (0, 1), (1, 3)), [[0, 1, 3, 4], [2]]),    # one direction suffices
    ([[(0, 0)]], [[0]]),
    ([[(5, -2)]], [[0]]),
    ([[(0, 0)] * 3 for _ in range(3)], [[0], [1], [2]]),           # all zero
])
def test_diagonal_blocks(rows, blocks):
    assert diagonal_blocks(rows) == blocks
    assert [idx for idx, _ in principal_blocks(rows)] == blocks


def _triangular_counts(block):
    """Diagonal value counts of a block upper or lower triangular in its
    index order, else None: the reference read of a block's spectrum."""
    n = len(block)
    if (all(block[i][j] == (0, 0) for i in range(n) for j in range(i))
            or all(block[i][j] == (0, 0) for i in range(n) for j in range(i + 1, n))):
        return dict(collections.Counter(block[i][i] for i in range(n)))
    return None


GAUSSIAN_PAIRS = st.tuples(st.sampled_from([0, 0, 1, -2, 3]), st.sampled_from([0, 0, -1, 2]))


@st.composite
def sparse_patterns(draw):
    """Square (re, im) rows: the indices fall into groups with entries only
    inside each group, which is upper or lower triangular, or neither, in
    a drawn order of its indices, ascending or not; entries are sparse and
    diagonal values repeat, so groups split and triangular counts exceed 1."""
    n = draw(st.integers(1, 8))
    perm = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    rows = [[(0, 0)] * n for _ in range(n)]
    for lo, hi in zip([0] + cuts, cuts + [n]):
        idx = perm[lo:hi] if draw(st.booleans()) else sorted(perm[lo:hi])
        kind = draw(st.sampled_from(["upper", "lower", "full"]))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                if a == b or kind == "full" or (a < b) == (kind == "upper"):
                    rows[i][j] = draw(GAUSSIAN_PAIRS)
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_patterns())
def test_principal_blocks_match_the_reference(rows):
    """The one-pass split gives the reference components, and the diagonal
    counts of exactly those whose principal block is triangular."""
    want = [(idx, [[rows[i][j] for j in idx] for i in idx]) for idx in diagonal_blocks(rows)]
    assert principal_blocks(rows) == [(idx, _triangular_counts(block)) for idx, block in want]


EXACT_EIGENVALUES = (exact(0), exact(1), exact(-2), exact(0, 1), exact(1, 1)) + RATIONAL_EIGENVALUES
SPLIT_POLYNOMIALS = (
    poly([0, 1]),                               # z: X itself
    poly([0, 0, 1]),                            # z^2
    poly([0, exact(-1, -1), exact(1)]),         # z^2 - (1+i)z: image collision
    poly([-1, 3, -3, 1]),                       # (z-1)^3: kappa 3 at 1
    poly([Fraction(1, 3), 0, Fraction(-1, 2)]),  # rational coefficients
)


@st.composite
def exact_specs(draw, max_eigenvalues, max_size, max_dim):
    lams = draw(st.lists(st.sampled_from(EXACT_EIGENVALUES), min_size=1,
                         max_size=max_eigenvalues, unique=True))
    spec = JordanSpec.of(*((lam, sorted(draw(st.lists(st.integers(1, max_size), min_size=1,
                                                       max_size=2)), reverse=True))
                           for lam in lams))
    assume(spec.dimension <= max_dim)
    return spec


def _permuted(x, perm):
    """P X P^T: entry (i, j) is X[perm[i]][perm[j]]."""
    return Matrix.from_rows([[x.rows[i][j] for j in perm] for i in perm])


def _reference_repr(x, lams):
    """Partitions from rank_exact of explicit powers of the whole X - lambda I:
    rank(A^(s-1)) - rank(A^s) blocks have size >= s."""
    n = x.shape[0]
    pairs = []
    for lam in {(lam.re, lam.im): lam for lam in lams}.values():
        a = x - Matrix.identity(n).scale(lam)
        power, ranks = a, [n, rank_exact(a)]
        while ranks[-1] != ranks[-2]:
            power = power @ a
            ranks.append(rank_exact(power))
        at_least = [r - s for r, s in zip(ranks, ranks[1:])]
        sizes = [s for s in range(1, len(at_least)) for _ in range(at_least[s - 1] - at_least[s])]
        if sizes:
            pairs.append((lam, sorted(sizes, reverse=True)))
    return canonical_repr(JordanSpec.of(*pairs))


@settings(max_examples=100, deadline=None)
@given(exact_specs(3, 4, 7), st.sampled_from(SPLIT_POLYNOMIALS),
       st.one_of(st.none(), exact_specs(2, 2, 3)), st.data())
def test_exact_recovery_per_diagonal_block(spec, f, dense_spec, data):
    """f(J) under a permutation that interleaves its blocks, alone or beside
    a dense U J U^-1 block: per-block recovery equals the repr_of_fx
    prediction and the ranks of explicit powers of the whole matrix."""
    rep = canonical_repr(spec)
    expected, _ = repr_of_fx(f, rep)
    x = f_of_jordan_spec(f, rep)
    lams = [f(lam) for lam in rep.eigenvalues]
    if dense_spec is not None:
        u = _rational_transform(data.draw(st.randoms(use_true_random=False)),
                                dense_spec.dimension)
        x = block_diag([assemble(dense_spec, u), x])
        lams += [lam for lam, _ in dense_spec.blocks]
        expected = canonical_repr(JordanSpec(
            dense_spec.blocks + tuple(zip(expected.eigenvalues, expected.partitions))))
    x = _permuted(x, data.draw(st.permutations(range(x.shape[0]))))
    assert repr_from_matrix(x, lams) == expected
    assert _reference_repr(x, lams) == expected


TRIANGULAR_DIAGONAL = (exact(0), exact(1), exact(0, 1), exact(-2),
                       exact(Fraction(1, 3), Fraction(1, 2)), exact(Fraction(-2, 5)))
OFF_DIAGONAL = (exact(0), exact(0), exact(1), exact(-1, 2), exact(Fraction(1, 2)),
                exact(0, Fraction(-3, 4)))
NON_EIGENVALUES = (exact(3), exact(Fraction(7, 2), -1))


@st.composite
def triangular_block(draw):
    """(block, its diagonal): upper or lower triangular in index order."""
    diag = draw(st.lists(st.sampled_from(TRIANGULAR_DIAGONAL), min_size=1, max_size=4))
    lower = draw(st.booleans())
    n = len(diag)
    return Matrix.from_rows([
        [diag[i] if i == j else draw(st.sampled_from(OFF_DIAGONAL))
         if (j < i if lower else j > i) else exact(0) for j in range(n)]
        for i in range(n)]), diag


@st.composite
def mixed_direct_sums(draw):
    """(X, eigenvalues): triangular and dense U J U^-1 blocks, summed and,
    half the time, permuted as a whole."""
    blocks, lams = [], []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            spec = draw(exact_specs(2, 2, 3))
            block = assemble(spec, _rational_transform(
                draw(st.randoms(use_true_random=False)), spec.dimension))
            lams += [lam for lam, _ in spec.blocks]
        else:
            block, diag = draw(triangular_block())
            lams += diag
        blocks.append(block)
    x = block_diag(blocks)
    assume(x.shape[0] <= 8)
    if draw(st.booleans()):
        x = _permuted(x, draw(st.permutations(range(x.shape[0]))))
    return x, list({(lam.re, lam.im): lam for lam in lams}.values())


@settings(max_examples=100, deadline=None)
@given(mixed_direct_sums(), st.data())
def test_exact_recovery_skips_lambda_off_a_triangular_diagonal(case, data):
    """Triangular blocks answer from their diagonal (nothing, or one 1 x 1
    block for a simple eigenvalue) where other blocks run the chain; both
    must equal the ranks of explicit powers, drop a listed non-eigenvalue
    and refuse a list that misses an eigenvalue."""
    x, lams = case
    expected = _reference_repr(x, lams)
    assert repr_from_matrix(x, lams) == expected
    outsider = data.draw(st.sampled_from(NON_EIGENVALUES))
    assert repr_from_matrix(x, lams + [outsider]) == expected
    missing = data.draw(st.sampled_from(lams))
    with pytest.raises(SpectrumMismatch):
        repr_from_matrix(x, [lam for lam in lams if lam != missing])


def test_triangular_blocks_run_chains_only_at_repeated_diagonal_values(monkeypatch):
    """diag(1, 2) beside the upper triangular [[3, 1, 0], [0, 0, 1], [0, 0, 3]]:
    only 3, twice on one diagonal, takes rank work (and finds J_2(3)).  z^2
    on J_6(0) is two J_3(0) components: one rank each gives a count of 1
    against three zeros on the diagonal, so (1, 1, 1) is forced, with no
    product formed."""
    import snorder.linalg as linalg
    import snorder.snrepr as snrepr

    calls, products = [], []
    rank = linalg.rank_gaussian_int_rows
    monkeypatch.setattr(linalg, "rank_gaussian_int_rows", lambda rows: calls.append(
        len(rows[0])) or rank(rows))
    monkeypatch.setattr(snrepr, "gaussian_int_matmul", lambda a, b: products.append(
        len(a)) or gaussian_int_matmul(a, b))
    x = block_diag([jordan_matrix(JordanSpec.of((exact(1), (1,)), (exact(2), (1,)))),
                    Matrix.from_rows([[exact(v) for v in row]
                                      for row in ([3, 1, 0], [0, 0, 1], [0, 0, 3])])])
    rep = repr_from_matrix(x, [exact(v) for v in (0, 1, 2, 3)])
    assert rep == canonical_repr(JordanSpec.of(
        (exact(1), (1,)), (exact(2), (1,)), (exact(3), (2,)), (exact(0), (1,))))
    assert calls == [3] and products == []  # the 3 x 3 block only: a count of 1 decides

    calls.clear()
    f, rx = poly([0, 0, 1]), canonical_repr(JordanSpec.of((exact(0), (6,))))
    x = f_of_jordan_spec(f, rx)
    assert [len(idx) for idx, _ in principal_blocks(x.int_form[1])] == [3, 3]
    assert repr_from_matrix(x, [exact(0)]) == repr_of_fx(f, rx)[0] == canonical_repr(
        JordanSpec.of((exact(0), (3, 3))))
    assert calls == [3, 3] and products == []


def test_recovery_builds_only_what_its_answer_reads(monkeypatch):
    """A simple eigenvalue on a triangular diagonal builds no block, a chain
    that stops at its first rank forms no row basis, and a chain that goes
    on forms one basis per further power, the left factor of its product."""
    import snorder.snrepr as snrepr

    shifts, bases, products = [], [], []
    int_shift, row_basis = snrepr._int_shift, snrepr.row_basis_exact

    def counting_basis(rows):
        rank, basis = row_basis(rows)
        return rank, lambda: bases.append(rank) or basis()

    monkeypatch.setattr(snrepr, "_int_shift", lambda x_int, idx, lam: shifts.append(
        len(idx)) or int_shift(x_int, idx, lam))
    monkeypatch.setattr(snrepr, "row_basis_exact", counting_basis)
    monkeypatch.setattr(snrepr, "gaussian_int_matmul", lambda a, b: products.append(
        len(a)) or gaussian_int_matmul(a, b))

    def recovered(rows, eigenvalues):
        shifts.clear(), bases.clear(), products.clear()
        x = Matrix.from_rows([[exact(v) for v in row] for row in rows])
        return repr_from_matrix(x, [exact(v) for v in eigenvalues])

    # simple eigenvalues: three 1 x 1 blocks and a 2 x 2 triangular one
    rep = recovered([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 5], [0, 0, 0, 4]], [1, 2, 3, 4])
    assert rep.partitions == ((1,),) * 4
    assert (shifts, bases, products) == ([], [], [])
    # 3 twice on a triangular diagonal: one rank decides, with no basis
    rep = recovered([[3, 1, 0], [0, 0, 1], [0, 0, 3]], [0, 3])
    assert rep == canonical_repr(JordanSpec.of((exact(3), (2,)), (exact(0), (1,))))
    assert (shifts, bases, products) == ([3], [], [])
    # e2 -> e0 -> e1 -> 0, neither triangular: ranks 2, 1, 0, 0 of the powers
    rep = recovered([[0, 0, 1], [1, 0, 0], [0, 0, 0]], [0])
    assert rep == canonical_repr(JordanSpec.of((exact(0), (3,))))
    assert (shifts, bases, products) == ([3], [2, 1, 0], [2, 1, 0])


def _ranks_of_counts(m, counts):
    """Ranks of A, A^2, ... for an m x m A whose counts of blocks of size
    >= s at its eigenvalue are counts, then constant, one per call."""
    r = m
    for c in list(counts) + [0] * 4:
        r -= c
        yield r


@pytest.mark.parametrize("counts, read", [
    ((3,), 1),           # 0 left
    ((2, 2), 2),         # 2 left after a count of 2: keeps going, then 0 left
    ((2, 1), 1),         # 1 left after a count >= 2
    ((4, 1), 1),
    ((3, 3, 1), 2),      # keeps going past 3, then 1 left
    ((2, 2, 2), 3),      # keeps going twice, then 0 left
    ((1, 1, 1), 1),      # a count of 1
    ((2, 1, 1, 1), 2),
    ((3, 2, 1, 1), 3),
])
def test_block_sizes_stop_once_the_multiplicity_forces_the_counts(counts, read):
    """Given the multiplicity, the chain stops where the counts left are
    forced, and gives the sizes of the full chain; m exceeds it by 2, the
    dimension of the other eigenvalues."""
    m = sum(counts) + 2
    want = block_sizes_from_ranks(_ranks_of_counts(m, counts), m)
    assert sum(want) == sum(counts)
    ranks = _ranks_of_counts(m, counts)
    assert block_sizes_from_ranks(ranks, m, sum(counts)) == want
    assert len(counts) + 4 - read == len(list(ranks))


@pytest.mark.parametrize("counts, hits", [((3,), 2), ((3, 3), 5), ((3, 3, 3), 8)])
def test_block_counts_beyond_the_multiplicity_raise(counts, hits):
    m = sum(counts) + 2
    with pytest.raises(SpectrumMismatch):
        block_sizes_from_ranks(_ranks_of_counts(m, counts), m, hits)


@st.composite
def repeated_count_specs(draw):
    """Specs whose every partition has two parts >= 2, so some count of
    blocks of size >= s repeats a value >= 2: (2, 2), (3, 3), (3, 2, 2)."""
    lams = draw(st.lists(st.sampled_from(TRIANGULAR_DIAGONAL), min_size=1, max_size=2,
                         unique=True))
    pairs = []
    for lam in lams:
        sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=2))
        sizes += draw(st.lists(st.integers(1, 2), max_size=1))
        pairs.append((lam, sorted(sizes, reverse=True)))
    spec = JordanSpec.of(*pairs)
    assume(spec.dimension <= 8)
    return spec


@settings(max_examples=60, deadline=None)
@given(repeated_count_specs(), st.data())
def test_stopped_chains_recover_unitriangular_similarities(spec, data):
    """T = U J U^-1 with U upper unitriangular over Z[i]: U^-1 is integral
    and T is upper triangular with J's diagonal, so its chains stop early;
    permuted, it runs full chains.  Both equal the spec and the ranks of
    explicit powers."""
    n = spec.dimension
    entry = st.builds(exact, st.integers(-2, 2), st.integers(-1, 1))
    u = Matrix.from_rows([[exact(1) if i == j else data.draw(entry) if j > i else exact(0)
                           for j in range(n)] for i in range(n)])
    t = assemble(spec, u)
    j = jordan_matrix(spec)
    assert all(t.rows[i][k] == (j.rows[i][k] if i == k else exact(0))
               for i in range(n) for k in range(i + 1))
    lams = [lam for lam, _ in spec.blocks]
    want = canonical_repr(spec)
    for x in (t, _permuted(t, data.draw(st.permutations(range(n))))):
        assert repr_from_matrix(x, lams) == want == _reference_repr(x, lams)


def test_float_rank_cut_spans_the_whole_matrix():
    """At 0, the singular values 2e-8 and 5e-9 straddle the one cut
    SVD_TOL * ||X||_2 = 1e-8 within a factor of 10, so recovery refuses.
    Each lies in a 1 x 1 diagonal block of its own, where a per-block check
    would keep one, drop the other and answer."""
    x = Matrix.from_rows([[approx(v if i == j else 0.0) for j in range(3)]
                          for i, v in enumerate([1.0, 2e-8, 5e-9])])
    with pytest.raises(RankAmbiguous):
        repr_from_matrix(x, [approx(1.0), approx(0.0)])


def test_assemble_rejects_singular_transform():
    spec = JordanSpec.of((exact(1), (2,)))
    u = Matrix.from_rows([[exact(1), exact(1)], [exact(1), exact(1)]])
    with pytest.raises(SingularTransform):
        assemble(spec, u)


def test_float_backend_repr_from_matrix():
    from snorder import approx

    j = jordan_matrix(JordanSpec.of((approx(2.0), (2, 1))))
    rep = repr_from_matrix(j, [approx(2.0)])
    assert rep.partitions == ((2, 1),)


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _float_transform(rng, n, unitary):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(g)[0] if unitary else g


def _float_similar(spec, u):
    """U J U^-1 as a float Matrix, for a spec with float eigenvalues."""
    return matrix_from_numpy(u @ jordan_matrix(spec).to_numpy() @ np.linalg.inv(u))


@pytest.mark.parametrize("unitary", [True, False])
def test_float_recovery_single_eigenvalue(unitary):
    # every power of X - lambda I beyond the largest block is round-off; the
    # all-ones partitions give X = lambda I up to round-off
    rng = np.random.default_rng(7)
    lam = approx(1.0, 0.5)
    for n in range(1, 9):
        for part in _partitions(n):
            spec = JordanSpec.of((lam, part))
            x = _float_similar(spec, _float_transform(rng, n, unitary))
            assert repr_from_matrix(x, [lam]) == canonical_repr(spec)


@pytest.mark.parametrize("lam", [approx(0.0), approx(2.0, -1.0), approx(1e-3, 1e-3)])
def test_float_recovery_of_scalar_matrix(lam):
    spec = JordanSpec.of((lam, (1, 1, 1)))
    assert repr_from_matrix(jordan_matrix(spec), [lam]).partitions == ((1, 1, 1),)


FLOAT_EIGENVALUES = (approx(1.0, 0.5), approx(-0.5, 2.0), approx(0.25, -1.0),
                     approx(2.0), approx(0.0), approx(-1.5, -0.5))


@st.composite
def float_specs(draw):
    lams = draw(st.lists(st.sampled_from(FLOAT_EIGENVALUES), min_size=1, max_size=3,
                         unique=True))
    blocks = [(lam, sorted(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
                           reverse=True)) for lam in lams]
    spec = JordanSpec.of(*blocks)
    assume(spec.dimension <= 8)
    return spec


@settings(max_examples=150, deadline=None)
@given(float_specs(), st.booleans(), st.integers(0, 2**32 - 1))
def test_float_recovery_property(spec, unitary, seed):
    """Float recovery of U J U^-1 gives the spec or refuses with
    RankAmbiguous: never a wrong partition, never SpectrumMismatch."""
    u = _float_transform(np.random.default_rng(seed), spec.dimension, unitary)
    lams = [lam for lam, _ in spec.blocks]
    try:
        rep = repr_from_matrix(_float_similar(spec, u), lams)
    except RankAmbiguous:
        return
    assert rep == canonical_repr(spec)


@pytest.mark.parametrize("seed", range(8))
def test_exact_and_float_recovery_agree(seed):
    rng = random.Random(100 + seed)
    spec, lams = _rational_spec(rng)
    while True:
        u = _rational_transform(rng, spec.dimension)
        if np.linalg.cond(u.to_numpy()) < 100:
            break
    x = assemble(spec, u)
    exact_rep = repr_from_matrix(x, lams)
    float_rep = repr_from_matrix(matrix_from_numpy(x.to_numpy()),
                                 [approx(*(float(c) for c in (lam.re, lam.im))) for lam in lams])
    assert exact_rep == canonical_repr(spec)
    assert float_rep.partitions == exact_rep.partitions
    assert [z.to_complex() for z in float_rep.eigenvalues] == \
        [z.to_complex() for z in exact_rep.eigenvalues]


# -- nilpotent comparison -----------------------------------------------------


def test_compare_nilpotent_basics():
    assert compare_nilpotent([(2, 1)], [(3,)]) is SNOVerdict.STRICT_LESS
    assert compare_nilpotent([(3,)], [(2, 1)]) is SNOVerdict.INCOMPARABLE
    assert compare_nilpotent([(2, 2)], [(2, 2)]) is SNOVerdict.EQUAL


def test_compare_nilpotent_padding():
    # shorter list padded with empty partitions at the end
    assert compare_nilpotent([(1,)], [(1,), (2,)]) is SNOVerdict.STRICT_LESS
    assert compare_nilpotent([(1,), (2,)], [(1,)]) is SNOVerdict.INCOMPARABLE


def test_compare_nilpotent_first_difference_decides():
    assert compare_nilpotent([(2,), (3,)], [(2,), (2, 1)]) is SNOVerdict.INCOMPARABLE
    assert compare_nilpotent([(2,), (2, 1)], [(2,), (3,)]) is SNOVerdict.STRICT_LESS


# -- SN order ------------------------------------------------------------------


def rep_of(*pairs):
    return canonical_repr(JordanSpec.of(*pairs))


def test_compare_sno_spectral_weak():
    rx = rep_of((exact(2), (1,)), (exact(1), (1,)))
    ry = rep_of((exact(3), (1,)), (exact(0), (1,)))
    assert compare_sno(rx, ry) is SNOVerdict.WEAK_LESS


def test_compare_sno_all_strict_prefixes():
    rx = rep_of((exact(1), (1,)), (exact(0), (1,)))
    ry = rep_of((exact(3), (1,)), (exact(2), (1,)))
    assert compare_sno(rx, ry) is SNOVerdict.STRICT_LESS


def test_compare_sno_nilpotent_tiebreak():
    rx = rep_of((exact(1), (2, 1)))
    ry = rep_of((exact(1), (3,)))
    assert compare_sno(rx, ry) is SNOVerdict.STRICT_LESS
    assert compare_sno(ry, rx) is SNOVerdict.INCOMPARABLE
    assert compare_sno(rx, rx) is SNOVerdict.EQUAL


def test_compare_sno_incomparable_spectra():
    rx = rep_of((exact(5), (1,)), (exact(-5), (1,)))
    ry = rep_of((exact(1), (1,)), (exact(0), (1,)))
    assert compare_sno(rx, ry) is SNOVerdict.INCOMPARABLE


def test_compare_sno_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compare_sno(rep_of((exact(0), (1,))), rep_of((exact(0), (2,))))


# -- compare_sno on the integer prefix form ---------------------------------


def reference_compare(rx, ry):
    """compare_sno as decided from the spectral vectors themselves:
    prefix_outcomes on them, and equal spectra read entry by entry on float,
    from all-EQUAL outcomes on exact."""
    sx, sy = rx.spectral_vector, ry.spectral_vector
    if len(sx) != len(sy):
        raise DimensionMismatch(f"dimension {len(sx)} vs {len(sy)}")
    outcomes = prefix_outcomes(sx, sy)
    if sx and sx[0].backend == "float":
        same = all(cmp_total(a, b) is OrderOutcome.EQUAL for a, b in zip(sx, sy))
    else:
        same = all(c is OrderOutcome.EQUAL for c in outcomes)
    if same:
        return compare_nilpotent(rx.partitions, ry.partitions)
    if OrderOutcome.GREATER in outcomes:
        return SNOVerdict.INCOMPARABLE
    if all(c is OrderOutcome.LESS for c in outcomes):
        return SNOVerdict.STRICT_LESS
    return SNOVerdict.WEAK_LESS


def verdict_or_error(compare, rx, ry):
    try:
        return compare(rx, ry)
    except (BackendMismatch, DimensionMismatch) as err:
        return type(err), str(err)


_PARTS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]))
_EIGENVALUES = st.builds(exact, _PARTS, st.one_of(st.just(Fraction(0)), _PARTS))


@st.composite
def partition_of(draw, n):
    parts = []
    while sum(parts) < n:
        parts.append(draw(st.integers(1, n - sum(parts))))
    return tuple(sorted(parts, reverse=True))


@st.composite
def exact_spec_pairs(draw):
    """Two exact specs of one dimension over a shared pool of eigenvalues with
    mixed denominators; half the time the second has the first's spectrum
    with each multiplicity split anew."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(_EIGENVALUES, min_size=1, max_size=3))

    def spec():
        return JordanSpec.of(*[(draw(st.sampled_from(pool)), (s,)) for s in draw(partition_of(n))])

    x = spec()
    if draw(st.booleans()):
        rep = canonical_repr(x)
        return x, JordanSpec.of(*[(lam, draw(partition_of(sum(part))))
                                  for lam, part in zip(rep.eigenvalues, rep.partitions)])
    return x, spec()


def as_float_spec(spec):
    return JordanSpec(tuple((approx(float(lam.re), float(lam.im)), sizes)
                            for lam, sizes in spec.blocks))


def simple_spec(*entries):
    """One 1 x 1 block at each exact entry, given as re or (re, im)."""
    return JordanSpec.of(*[(exact(*e) if isinstance(e, tuple) else exact(e), (1,))
                           for e in entries])


@settings(max_examples=150, deadline=None)
@given(pair=exact_spec_pairs(), x_first=st.booleans())
# Prefixes decided by the imaginary part alone, each way round: 1+i, 1 below
# 1+2i, 1 at both prefixes; 2, 1+i below 2+i, 1 at the first and tied at
# the last, so WEAK_LESS.
@example(pair=(simple_spec((1, 1), 1), simple_spec((1, 2), 1)), x_first=True)
@example(pair=(simple_spec(2, (1, 1)), simple_spec((2, 1), 1)), x_first=False)
# Every prefix below but the last, which ties: WEAK_LESS, never STRICT_LESS.
@example(pair=(simple_spec(1, 1), simple_spec(2, 0)), x_first=True)
# Unequal denominators: 1/2, 0 against 2/3, -1/6, and i/2 against i/3.
@example(pair=(simple_spec(Fraction(1, 2), 0), simple_spec(Fraction(2, 3), Fraction(-1, 6))),
         x_first=True)
@example(pair=(simple_spec((0, Fraction(1, 2))), simple_spec((0, Fraction(1, 3)))),
         x_first=True)
# Equal spectra, different partitions: the nilpotent level decides.
@example(pair=(JordanSpec.of((exact(1), (2, 1))), JordanSpec.of((exact(1), (3,)))),
         x_first=True)
@example(pair=(JordanSpec.of((exact(1), (1,)), (exact(1), (1,)), (exact(0), (1,))),
               JordanSpec.of((exact(1), (2,)), (exact(0), (1,)))), x_first=False)
# Length 1: equal, and above by the imaginary part alone.
@example(pair=(simple_spec(1), simple_spec(1)), x_first=True)
@example(pair=(simple_spec((0, 1)), simple_spec(0)), x_first=True)
def test_exact_compare_matches_the_spectral_vector_reference(pair, x_first):
    sx, sy = pair
    expected = tuple(reference_compare(*p) for p in (
        (canonical_repr(sx), canonical_repr(sy)), (canonical_repr(sy), canonical_repr(sx))))
    rx, ry = canonical_repr(sx), canonical_repr(sy)
    before = [(hash(r), snrepr_to_json(r)) for r in (rx, ry)]
    if x_first:  # whichever representation's form is read first
        got = compare_sno(rx, ry), compare_sno(ry, rx)
    else:
        got = tuple(reversed((compare_sno(ry, rx), compare_sno(rx, ry))))
    assert got == expected
    assert rx == canonical_repr(sx) and ry == canonical_repr(sy)
    assert [(hash(r), snrepr_to_json(r)) for r in (rx, ry)] == before


@settings(max_examples=40, deadline=None)
@given(pair=exact_spec_pairs())
def test_float_mixed_and_unequal_pairs_answer_as_the_reference_does(pair):
    sx, sy = pair
    wider = JordanSpec(sx.blocks + ((exact(0), (1,)),))
    specs = [sx, sy, as_float_spec(sx), as_float_spec(sy), wider, as_float_spec(wider)]
    for a, b in itertools.permutations(specs, 2):
        rx, ry = canonical_repr(a), canonical_repr(b)
        got = verdict_or_error(compare_sno, rx, ry)
        assert got == verdict_or_error(reference_compare, canonical_repr(a), canonical_repr(b))
        assert isinstance(got, SNOVerdict) or got[0] in (BackendMismatch, DimensionMismatch)


def test_compare_clears_each_exact_representation_once(monkeypatch):
    rx = rep_of((exact(Fraction(1, 2), 1), (2, 1)), (exact(Fraction(-1, 3)), (1,)))
    ry = rep_of((exact(Fraction(3, 4)), (2,)), (exact(0, Fraction(1, 6)), (1, 1)))
    calls, numerators = [], scalar.numerators

    def counting(values):
        calls.append(tuple(values))
        return numerators(calls[-1])

    # Every module that reads numerators, so no route to it goes uncounted.
    for mod in [m for name, m in sys.modules.items() if name.startswith("snorder")]:
        if getattr(mod, "numerators", None) is numerators:
            monkeypatch.setattr(mod, "numerators", counting)
    verdicts = {(compare_sno(rx, ry), compare_sno(ry, rx)) for _ in range(50)}
    assert verdicts == {(SNOVerdict.INCOMPARABLE, SNOVerdict.INCOMPARABLE)}
    assert len(calls) <= 2

import random
from fractions import Fraction

import numpy as np
import pytest

from snorder import (
    JordanSpec,
    Matrix,
    SNOVerdict,
    assemble,
    canonical_repr,
    compare_nilpotent,
    compare_sno,
    exact,
    repr_from_matrix,
)
from snorder.errors import (
    BackendMismatch,
    DimensionMismatch,
    EmptySpec,
    RankAmbiguous,
    SingularTransform,
    SpectrumMismatch,
)
from snorder.linalg import gaussian_int_matmul, rank_exact, rank_float
from snorder.partitions import as_partition
from snorder.serialization import InputFormatError, jordan_spec_from_json
from snorder.snrepr import jordan_matrix


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


def _sparse_gaussian_int_rows(rng, n):
    return [[(rng.choice([0, 0, rng.randint(-4, 4)]), rng.choice([0, rng.randint(-4, 4)]))
             for _ in range(n)] for _ in range(n)]


def _as_matrix(rows):
    return Matrix.from_rows([[exact(re, im) for re, im in row] for row in rows])


def test_gaussian_int_matmul_matches_matrix_product():
    rng = random.Random(3)
    for n in range(1, 7):
        a, b = _sparse_gaussian_int_rows(rng, n), _sparse_gaussian_int_rows(rng, n)
        product = _as_matrix(a) @ _as_matrix(b)
        assert gaussian_int_matmul(a, b) == [[(z.re, z.im) for z in row] for row in product.rows]


def test_rank_float_gap_check():
    a = np.diag([1.0, 1e-3, 1e-12])
    assert rank_float(a) == 2
    with pytest.raises(RankAmbiguous):
        # values straddling the cutoff with ratio < 10
        rank_float(np.diag([1.0, 3e-8, 0.5e-8]))


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

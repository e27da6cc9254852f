import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from snorder import (
    Majorization,
    OrderOutcome,
    TTransform,
    cmp_total,
    exact,
    gds_check,
    gds_from_transforms,
    majorize_check,
    sort_desc,
    t_transform_apply,
    t_transform_decompose,
)
from snorder.errors import BackendMismatch, DimensionMismatch, NotMajorized, SnorderError
from snorder.linalg import Matrix
from snorder.majorization import (
    apply_row_vector, majorize_sorted, prefix_outcomes, t_transform_decompose_trace,
)
from snorder.scalar import EXACT, FLOAT, approx, one_like

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=4)
scalars = st.builds(exact, rationals, rationals)


def vec(*vals):
    return tuple(exact(*v) if isinstance(v, tuple) else exact(v) for v in vals)


def assert_vec_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert cmp_total(x, y) is OrderOutcome.EQUAL


def test_worked_majorization_example():
    x = vec(4, (1, 1), 3)
    y = vec((2, 1), 5, 1)
    assert majorize_check(x, y) is Majorization.STRICT


def test_weak_but_not_strict():
    assert majorize_check(vec(1, 0), vec(3, 1)) is Majorization.WEAK


def test_not_majorized():
    assert majorize_check(vec(5, 0), vec(3, 1)) is Majorization.NONE


def test_float_majorize_reads_real_near_ties_by_im():
    # y sorts as (1, 4), (1+5e-10, 0) under cmp_total; on the exact key alone
    # the ulp-larger real part would come first and the verdict would be NONE.
    x = [approx(1 + 2.5e-10, 2.0)] * 2
    y = [approx(1 + 5e-10, 0.0), approx(1.0, 4.0)]
    assert majorize_check(x, y) is Majorization.STRICT
    exact_x = [exact(1, 2)] * 2
    assert majorize_check(exact_x, [exact(1, 0), exact(1, 4)]) is Majorization.STRICT


def test_reflexive_strict():
    v = vec((2, 1), 1)
    assert majorize_check(v, v) is Majorization.STRICT


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        majorize_check(vec(1), vec(1, 2))


def test_majorization_axioms_exhaustive_small_ints():
    # all non-increasing integer vectors, n = 3, entries 0..4
    vecs = [
        vec(*entries)
        for entries in itertools.combinations_with_replacement(range(4, -1, -1), 3)
    ]
    rel = [[majorize_check(a, b) is not Majorization.NONE for b in vecs] for a in vecs]
    n = len(vecs)
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            if i != j and rel[i][j] and rel[j][i]:
                # mutual weak majorization forces equal sorted vectors,
                # impossible for distinct canonical representatives
                pytest.fail(f"antisymmetry violated for {vecs[i]} / {vecs[j]}")
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_t_transform_apply_midpoint():
    v = vec(3, 1)
    out = t_transform_apply(v, TTransform(0, 1, exact(Fraction(1, 2))))
    assert_vec_equal(out, vec(2, 2))


def test_t_transform_affine_beta_flag():
    assert TTransform(0, 1, exact(Fraction(1, 2))).beta_in_unit_interval
    assert not TTransform(0, 1, exact(2)).beta_in_unit_interval
    assert not TTransform(0, 1, exact(Fraction(1, 2), 1)).beta_in_unit_interval


def test_t_transform_index_validation():
    with pytest.raises(DimensionMismatch):
        TTransform(1, 1, exact(0))
    with pytest.raises(IndexError):
        t_transform_apply(vec(1, 2), TTransform(0, 5, exact(0)))


def test_decompose_simple():
    x, y = vec(2, 2), vec(3, 1)
    ts = t_transform_decompose(x, y)
    w = sort_desc(y)
    for t in ts:
        w = t_transform_apply(w, t)
    assert_vec_equal(w, x)


def test_decompose_permutation_case_is_swaps_only():
    x = vec(1, 3, 2)
    y = vec(3, 2, 1)
    ts = t_transform_decompose(x, y)
    assert all(t.beta.is_zero() for t in ts)
    w = sort_desc(y)
    for t in ts:
        w = t_transform_apply(w, t)
    assert_vec_equal(w, x)


def test_decompose_requires_strict():
    with pytest.raises(NotMajorized) as weak:
        t_transform_decompose(vec(1, 0), vec(3, 1))
    assert weak.value.verdict is Majorization.WEAK
    with pytest.raises(NotMajorized) as none:
        t_transform_decompose(vec(5, 0), vec(3, 1))
    assert none.value.verdict is Majorization.NONE


def _random_pair(rng, n, complex_entries):
    y = tuple(
        exact(
            Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 4)) if complex_entries else 0,
        )
        for _ in range(n)
    )
    x = list(y)
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.sample(range(n), 2))
        x = list(t_transform_apply(x, TTransform(i, j, exact(Fraction(rng.randint(0, 12), 12)))))
    return tuple(x), y


def test_decompose_intermediates_stay_sandwiched():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        x, y = _random_pair(rng, n, complex_entries=True)
        ts, intermediates = t_transform_decompose_trace(x, y)
        for v in intermediates:
            assert majorize_check(x, v) is Majorization.STRICT
            assert majorize_check(v, y) is Majorization.STRICT
        p = gds_from_transforms(ts, n)
        assert gds_check(p)
        assert_vec_equal(apply_row_vector(sort_desc(y), p), x)


@pytest.mark.parametrize("xs, ys", [
    ([(-2, Fraction(-5, 3)), (1, Fraction(1, 12)), (1, Fraction(2, 3)), (1, Fraction(5, 4))],
     [(-2, Fraction(-5, 3)), (4, 6), (1, Fraction(-1, 2)), (-2, Fraction(-7, 2))]),
    ([(Fraction(11, 3), Fraction(8, 3)), (Fraction(11, 3), Fraction(25, 6)),
      (Fraction(11, 3), Fraction(25, 6))],
     [(2, 4), (7, 0), (2, 7)]),
])
def test_float_decompose_survives_round_off_in_real_ties(xs, ys):
    # Mixing gives real parts such as 0.9999999999999998 next to targets with
    # real part 1.0; sorted on the exact key they would sit below those ties.
    x = [approx(float(a), float(b)) for a, b in xs]
    y = [approx(float(a), float(b)) for a, b in ys]
    ts, intermediates = t_transform_decompose_trace(x, y)
    for v in intermediates:
        assert majorize_check(x, v) is Majorization.STRICT
        assert majorize_check(v, y) is Majorization.STRICT
    p = gds_from_transforms(ts, len(x))
    assert gds_check(p)
    assert_vec_equal(apply_row_vector(sort_desc(y), p), x)


# Float near-ties, where equality within eps is not transitive: majorize_check
# reads STRICT, but the decomposition finds no pair of entries to mix (first
# pair) or no entry to swap into place (second).
@pytest.mark.parametrize("xs, ys", [
    ([0.7500000007500001, 0.24999999985000002, 6e-10, 0.0], [-6e-10, 1.0000000012, 6e-10, 0.0]),
    ([0.2499999988, 0.25], [0.2499999994, 0.2499999988]),
])
def test_float_decompose_refuses_near_ties_it_cannot_step(xs, ys):
    x, y = [approx(v) for v in xs], [approx(v) for v in ys]
    assert majorize_check(x, y) is Majorization.STRICT
    with pytest.raises(NotMajorized) as err:
        t_transform_decompose_trace(x, y)
    assert err.value.verdict is None


def test_gds_check_rejects_non_square():
    m = Matrix.from_rows([[exact(1), exact(0)]])
    with pytest.raises(DimensionMismatch):
        gds_check(m)


def test_gds_closure_under_product():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        mats = []
        for _ in range(2):
            # random GDS built from random affine transforms
            ts = [
                TTransform(
                    *sorted(rng.sample(range(n), 2)),
                    exact(Fraction(rng.randint(-6, 6), 3), Fraction(rng.randint(-6, 6), 3)),
                )
                for _ in range(3)
            ]
            mats.append(gds_from_transforms(ts, n))
        assert gds_check(mats[0])
        assert gds_check(mats[1])
        assert gds_check(mats[0] @ mats[1])


@settings(max_examples=40)
@given(st.lists(scalars, min_size=2, max_size=5), st.data())
def test_transform_preserves_majorization_below(entries, data):
    y = tuple(entries)
    beta = exact(Fraction(data.draw(st.integers(min_value=0, max_value=8)), 8))
    i = data.draw(st.integers(min_value=0, max_value=len(y) - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(y) - 1))
    x = t_transform_apply(y, TTransform(i, j, beta))
    assert majorize_check(x, y) is Majorization.STRICT


def _t_matrix(t, n):
    """Dense matrix of t: the identity with beta at (i, i) and (j, j) and
    1 - beta at (i, j) and (j, i)."""
    rows = [list(r) for r in Matrix.identity(n, t.beta.backend).rows]
    comp = one_like(t.beta) - t.beta
    rows[t.i][t.i] = rows[t.j][t.j] = t.beta
    rows[t.i][t.j] = rows[t.j][t.i] = comp
    return Matrix.from_rows(rows)


def _bits(m):
    """Exact entries as Fractions, float entries as their exact bit patterns
    (float.hex tells -0.0 from 0.0)."""
    return [[tuple(c.hex() if isinstance(c, float) else c for c in (z.re, z.im)) for z in row]
            for row in m.rows]


float_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)
betas = {
    EXACT: st.one_of(st.sampled_from([exact(0), exact(1)]), scalars),
    FLOAT: st.one_of(st.sampled_from([approx(0.0), approx(1.0)]),
                     st.builds(approx, float_parts, float_parts)),
}


@st.composite
def t_transforms(draw, n, backend):
    i = draw(st.integers(min_value=0, max_value=n - 2))
    j = draw(st.integers(min_value=i + 1, max_value=n - 1))
    return TTransform(i, j, draw(betas[backend]))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gds_from_transforms_matches_dense_product(backend, data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    ts = data.draw(st.lists(t_transforms(n, backend), max_size=8))
    expected = Matrix.identity(n, backend if ts else EXACT)
    for t in ts:
        expected = expected @ _t_matrix(t, n)
    assert _bits(gds_from_transforms(ts, n)) == _bits(expected)


def test_gds_from_transforms_rejects_index_beyond_size():
    with pytest.raises(DimensionMismatch):
        gds_from_transforms([TTransform(0, 3, exact(Fraction(1, 2)))], 3)


def test_gds_from_transforms_makes_no_matrix_product(monkeypatch):
    def no_matmul(a, b):
        raise AssertionError("dense matrix product")

    monkeypatch.setattr(Matrix, "__matmul__", no_matmul)
    ts = t_transform_decompose(vec(4, (1, 1), 3), vec((2, 1), 5, 1))
    assert gds_check(gds_from_transforms(ts, 3))


def test_decompose_sorts_each_input_once(monkeypatch):
    import snorder.majorization as majorization

    calls = []
    real_sort = majorization.sort_desc

    def counting(v):
        calls.append(v)
        return real_sort(v)

    monkeypatch.setattr(majorization, "sort_desc", counting)
    x, y = (exact(2), exact(2)), (exact(1), exact(3))
    _, intermediates = t_transform_decompose_trace(x, y)
    assert len(intermediates) == 1
    # x and y once each, then one re-sort per mixing step
    assert len(calls) == 2 + len(intermediates)


# -- prefix_outcomes: integer sums against TotalComplex sums -------------------


def _reference_outcomes(sx, sy):
    return list(map(cmp_total, itertools.accumulate(sx), itertools.accumulate(sy)))


fine_rationals = st.builds(Fraction, st.integers(-3200, 3200), st.integers(1, 64))


@st.composite
def exact_prefix_pairs(draw):
    n = draw(st.integers(1, 8))
    ims = fine_rationals if draw(st.booleans()) else st.just(Fraction(0))
    entry = st.builds(exact, fine_rationals, ims)
    sx = draw(st.lists(entry, min_size=n, max_size=n))
    sy = draw(st.lists(entry, min_size=n, max_size=n))
    k = draw(st.integers(0, n))  # sy starts with sx[:k]: k equal prefixes
    sy[:k] = sx[:k]
    if draw(st.booleans()):  # equal totals
        sy[-1] = sy[-1] + (reduce(add, sx) - reduce(add, sy))
    return sx, sy


@settings(max_examples=200, deadline=None)
@given(exact_prefix_pairs())
# Running sums: x 1/3, 1, 1 + i/64, i/64; y 1/3, 1 - i, 1 + i, i/64, so the
# outcomes are EQUAL, GREATER and LESS on the imaginary tie-break, EQUAL.
@example((vec(Fraction(1, 3), Fraction(2, 3), (0, Fraction(1, 64)), -1),
          vec(Fraction(1, 3), (Fraction(2, 3), -1), (0, 2), (-1, Fraction(-63, 64)))))
def test_prefix_outcomes_matches_total_complex_sums(pair):
    sx, sy = pair
    want = _reference_outcomes(sx, sy)
    assert prefix_outcomes(sx, sy) == want
    fx = [z.to_float_backend() for z in sx]
    fy = [z.to_float_backend() for z in sy]
    assert prefix_outcomes(fx, fy) == _reference_outcomes(fx, fy)


@settings(max_examples=100, deadline=None)
@given(exact_prefix_pairs(), st.data())
def test_prefix_outcomes_refuses_mixed_backends(pair, data):
    sx, sy = pair
    v = data.draw(st.sampled_from([0, 1]))
    k = data.draw(st.integers(0, len(sx) - 1))
    mixed = [list(sx), list(sy)]
    mixed[v][k] = mixed[v][k].to_float_backend()
    with pytest.raises(BackendMismatch):
        prefix_outcomes(*mixed)
    with pytest.raises(BackendMismatch):
        prefix_outcomes(sx, [z.to_float_backend() for z in sy])


# -- majorize_check: integer sort and sums against sort_desc and TotalComplex --


def _reference_check(x, y):
    """majorize_check on TotalComplex sorts and sums."""
    return majorize_sorted(sort_desc(x), sort_desc(y))


def _verdict_or_error(check, x, y):
    try:
        return check(x, y)
    except SnorderError as err:
        return type(err), str(err)


@st.composite
def exact_unsorted_pairs(draw):
    """Exact x and y of one length in 1..8 over denominators 1..64, shuffled:
    entries drawn from a small pool (ties), y a permutation of x (a quarter
    of the pairs) or sharing its first k entries, half of those with equal
    totals."""
    n = draw(st.integers(1, 8))
    ims = fine_rationals if draw(st.booleans()) else st.just(Fraction(0))
    entry = st.builds(exact, fine_rationals, ims)
    pool = draw(st.lists(entry, min_size=1, max_size=n))
    x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        y = list(x)
    else:
        y = draw(st.lists(st.sampled_from(pool) | entry, min_size=n, max_size=n))
        k = draw(st.integers(0, n))
        y[:k] = x[:k]
        if draw(st.booleans()):
            y[-1] = y[-1] + (reduce(add, x) - reduce(add, y))
    return draw(st.permutations(x)), draw(st.permutations(y))


@settings(max_examples=300, deadline=None)
@given(exact_unsorted_pairs())
def test_majorize_check_matches_total_complex_reference(pair):
    x, y = pair
    assert majorize_check(x, y) is _reference_check(x, y)


@settings(max_examples=100, deadline=None)
@given(exact_unsorted_pairs(), st.data())
def test_majorize_check_errors_match_reference(pair, data):
    x, y = pair
    mixed = [list(x), list(y)]
    v = data.draw(st.sampled_from([0, 1]))
    k = data.draw(st.integers(0, len(x) - 1))
    mixed[v][k] = mixed[v][k].to_float_backend()
    cases = [mixed, [x, [z.to_float_backend() for z in y]], [x, y[:-1]], [x[1:], y], [(), ()],
             [x, ()]]
    for a, b in cases:
        want = _verdict_or_error(_reference_check, a, b)
        assert isinstance(want, tuple)
        assert _verdict_or_error(majorize_check, a, b) == want

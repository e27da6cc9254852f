import hashlib
import itertools
import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

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
    apply_row_vector, majorize_sorted, prefix_outcomes, running_pairs,
    t_transform_decompose_trace,
)
from snorder.scalar import EXACT, FLOAT, approx, from_numerators, numerators, one_like, zero_like

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


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_gds_of_no_transforms_is_the_identity_of_the_named_backend(backend):
    assert _bits(gds_from_transforms([], 3, backend)) == _bits(Matrix.identity(3, backend))
    assert _bits(gds_from_transforms([], 3)) == _bits(Matrix.identity(3, EXACT))
    # The betas name the backend of a product with steps.
    t = TTransform(0, 1, approx(0.25))
    assert _bits(gds_from_transforms([t], 2, EXACT)) == _bits(gds_from_transforms([t], 2))


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
    x, y = (approx(2.0), approx(2.0)), (approx(1.0), approx(3.0))
    _, intermediates = t_transform_decompose_trace(x, y)
    assert len(intermediates) == 1
    # x and y once each, then one re-sort per mixing step
    assert len(calls) == 2 + len(intermediates)


# -- running_pairs and prefix_outcomes: integer sums against TotalComplex sums --


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
    d, pairs = numerators((*sx, *sy))
    rx, ry = running_pairs(pairs[:len(sx)]), running_pairs(pairs[len(sx):])
    assert from_numerators(d, rx) == tuple(itertools.accumulate(sx))
    assert from_numerators(d, ry) == tuple(itertools.accumulate(sy))
    # tuple order on the running pairs is the total order of the sums
    got = [OrderOutcome((a > b) - (a < b)) for a, b in zip(rx, ry)]
    assert got == _reference_outcomes(sx, sy)
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
# A first prefix decided by the imaginary part alone, above (NONE) and below
# (STRICT on the last-prefix tie, WEAK without it).
@example((vec((2, 1), 0), vec(2, (1, 1))))
@example((vec(2, (1, 1)), vec((2, 1), 1)))
@example((vec(2, 1), vec((2, 1), 1)))
# The last prefix ties (STRICT) or stays below (WEAK).
@example((vec(1, 1), vec(2, 0)))
@example((vec(1, 1), vec(2, 1)))
# Unequal denominators: 1/2, 1/3 against 5/6, 0 and 5/6, 1/6.
@example((vec(Fraction(1, 2), Fraction(1, 3)), vec(Fraction(5, 6), 0)))
@example((vec(Fraction(1, 2), Fraction(1, 3)), vec(Fraction(5, 6), Fraction(1, 6))))
# Length 1: equal, and above by the imaginary part alone.
@example((vec(1), vec(1)))
@example((vec((0, 1)), vec(0)))
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


# -- exact decomposition, GDS product, replay and check: integers against Fractions --


def _reference_swap_steps(current, target):
    swaps = []
    cur = list(current)
    zero = zero_like(cur[0]) if cur else None
    for pos in range(len(cur)):
        if cmp_total(cur[pos], target[pos]) is OrderOutcome.EQUAL:
            continue
        src = next((k for k in range(pos + 1, len(cur))
                    if cmp_total(cur[k], target[pos]) is OrderOutcome.EQUAL), None)
        if src is None:
            raise NotMajorized("decomposition found no entry to swap into place", None)
        swaps.append(TTransform(pos, src, zero))
        cur[pos], cur[src] = cur[src], cur[pos]
    return swaps


def _reference_decompose_trace(x, y):
    """t_transform_decompose_trace on TotalComplex sorts and arithmetic."""
    sx, sy = sort_desc(x), sort_desc(y)
    verdict = majorize_sorted(sx, sy)
    if verdict is not Majorization.STRICT:
        raise NotMajorized("decomposition requires strict majorization", verdict)
    target, w = list(sx), list(sy)
    n = len(w)
    transforms, intermediates = [], []
    one = one_like(w[0])
    for _ in range(n * n + n + 1):
        if all(cmp_total(a, b) is OrderOutcome.EQUAL for a, b in zip(w, target)):
            break
        i = max((k for k in range(n) if cmp_total(target[k], w[k]) is OrderOutcome.LESS),
                default=-1)
        j = min((k for k in range(i + 1, n)
                 if cmp_total(target[k], w[k]) is OrderOutcome.GREATER), default=None)
        if i < 0 or j is None:
            raise NotMajorized("decomposition found no pair of entries to mix", None)
        gap_i = w[i] - target[i]
        gap_j = target[j] - w[j]
        eps_step = gap_i if cmp_total(gap_i, gap_j) is not OrderOutcome.GREATER else gap_j
        step = TTransform(i, j, one - eps_step / (w[i] - w[j]))
        transforms.append(step)
        w = list(t_transform_apply(w, step))
        resorted = list(sort_desc(w))
        transforms.extend(_reference_swap_steps(w, resorted))
        w = resorted
        intermediates.append(tuple(w))
    else:
        raise NotMajorized("decomposition failed to converge")
    transforms.extend(_reference_swap_steps(w, list(x)))
    return transforms, intermediates


def _reference_gds_check(m):
    one = one_like(m.rows[0][0])
    return all(cmp_total(reduce(add, line), one) is OrderOutcome.EQUAL
               for line in itertools.chain(m.rows, zip(*m.rows)))


def _reference_gds(transforms, n):
    backend = transforms[0].beta.backend if transforms else EXACT
    rows = [list(r) for r in Matrix.identity(n, backend).rows]
    for t in transforms:
        comp = one_like(t.beta) - t.beta
        for row in rows:
            a, b = row[t.i], row[t.j]
            row[t.i], row[t.j] = a * t.beta + b * comp, a * comp + b * t.beta
    return Matrix.from_rows(rows)


def _reference_apply(v, m):
    return tuple(reduce(add, map(mul, v, col)) for col in zip(*m.rows))


def _chain(decompose, gds, apply, check, x, y):
    """The decomposition of (x, y), its GDS rows, the replay on sort_desc(y)
    and the check, or the verdict of a refused pair."""
    try:
        ts, intermediates = decompose(x, y)
    except NotMajorized as err:
        return "refused", err.verdict
    p = gds(ts, len(x))
    return ts, intermediates, p.rows, apply(sort_desc(y), p), check(p)


def _ours(x, y):
    return _chain(t_transform_decompose_trace, gds_from_transforms, apply_row_vector,
                  gds_check, x, y)


def _reference(x, y):
    return _chain(_reference_decompose_trace, _reference_gds, _reference_apply,
                  _reference_gds_check, x, y)


@st.composite
def decomposition_pairs(draw):
    """Exact x and y of one length in 1..8 over denominators 1..64, entries
    from a small pool (ties): x is y after T-transforms with beta in [0, 1]
    (strict), or that x with one entry lowered (weak), or drawn at random
    (mostly refused); both shuffled."""
    n = draw(st.integers(1, 8))
    ims = fine_rationals if draw(st.booleans()) else st.just(Fraction(0))
    entry = st.builds(exact, fine_rationals, ims)
    pool = draw(st.lists(entry, min_size=1, max_size=n))
    y = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["strict", "weak", "random"]))
    if kind == "random":
        x = draw(st.lists(st.sampled_from(pool) | entry, min_size=n, max_size=n))
    else:
        x = list(y)
        for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
            i = draw(st.integers(0, n - 2))
            j = draw(st.integers(i + 1, n - 1))
            beta = exact(Fraction(draw(st.integers(0, 12)), 12))
            x = list(t_transform_apply(x, TTransform(i, j, beta)))
        if kind == "weak":
            k = draw(st.integers(0, n - 1))
            x[k] = x[k] - exact(draw(fine_rationals.filter(lambda q: q > 0)))
    return tuple(draw(st.permutations(x))), tuple(draw(st.permutations(y)))


@settings(max_examples=300, deadline=None)
@given(decomposition_pairs())
@example((vec(Fraction(7, 2), (1, 1), (1, 1)), vec((1, 3), 4, (Fraction(3, 2), -1))))
def test_exact_decomposition_chain_matches_fraction_reference(pair):
    x, y = pair
    assert _ours(x, y) == _reference(x, y)
    # The same values as floats keep their bits (repr tells -0.0 from 0.0)
    # and their errors.
    fx, fy = ([z.to_float_backend() for z in v] for v in pair)
    assert repr(_verdict_or_error(_ours, fx, fy)) == repr(_verdict_or_error(_reference, fx, fy))


@st.composite
def exact_square_matrices(draw):
    """(v, m): an exact n x n matrix, n in 1..6, over mixed denominators, and
    an exact vector of length n.  The last column makes every row sum to one,
    the last row every column, both (a GDS matrix), or neither."""
    n = draw(st.integers(1, 6))
    ims = fine_rationals if draw(st.booleans()) else st.just(Fraction(0))
    entry = st.builds(exact, fine_rationals, ims)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    fix, one = draw(st.sampled_from(["neither", "rows", "columns", "both"])), exact(1)
    for row in {"rows": rows, "both": rows[:-1]}.get(fix, []):
        row[-1] = one - reduce(add, row[:-1], exact(0))
    if fix in ("columns", "both"):
        rows[-1] = [one - reduce(add, (row[k] for row in rows[:-1]), exact(0))
                    for k in range(n)]
    return tuple(draw(st.lists(entry, min_size=n, max_size=n))), Matrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(exact_square_matrices())
def test_gds_check_and_replay_match_fraction_reference(pair):
    v, m = pair
    assert gds_check(m) is _reference_gds_check(m)
    assert apply_row_vector(v, m) == _reference_apply(v, m)


def _decomposition_corpus(count=2000, seed=23):
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 6))

    for _ in range(count):
        n = rng.randint(1, 8)
        complex_entries = rng.random() < 0.5
        pool = [exact(q(), q() if complex_entries else 0) for _ in range(rng.randint(1, n))]
        y = [rng.choice(pool) for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 3:
            x = [rng.choice(pool) if rng.random() < 0.5 else exact(q()) for _ in range(n)]
        else:
            x = list(y)
            for _ in range(rng.randint(0, 4) if n > 1 else 0):
                i, j = sorted(rng.sample(range(n), 2))
                beta = exact(Fraction(rng.randint(0, 12), 12))
                x = list(t_transform_apply(x, TTransform(i, j, beta)))
            if kind == 2:
                k = rng.randrange(n)
                x[k] = x[k] - exact(Fraction(rng.randint(1, 8), rng.randint(1, 6)))
        rng.shuffle(x)
        rng.shuffle(y)
        yield tuple(x), tuple(y)


def _chain_text(result):
    if result[0] == "refused":
        return f"refused {result[1]}"
    ts, intermediates, rows, replay, ok = result
    return repr(([(t.i, t.j, t.beta) for t in ts], intermediates, rows, replay, ok))


def test_decomposition_corpus_digest_is_pinned():
    """2,000 seeded decompositions with their GDS rows, replays and checks:
    the same bytes as the TotalComplex implementation gave."""
    h = hashlib.sha256()
    for x, y in _decomposition_corpus():
        h.update((_chain_text(_ours(x, y)) + "\n").encode())
    assert h.hexdigest() == DECOMPOSITION_DIGEST


DECOMPOSITION_DIGEST = "9d62ccf8ad32c1b180769d15e37658f3261d4d61e8932a424a435581dedf103c"


# -- mixed backends and what the exact chain calls ---------------------------------


@pytest.mark.parametrize("order", [1, -1])
def test_gds_from_transforms_refuses_mixed_betas(order):
    ts = [TTransform(0, 1, exact(Fraction(1, 2))), TTransform(0, 1, approx(0.5))][::order]
    with pytest.raises(BackendMismatch):
        gds_from_transforms(ts, 2)


def test_apply_row_vector_refuses_mixed_backends():
    m = Matrix.identity(2, EXACT)
    f = Matrix.identity(2, FLOAT)
    with pytest.raises(BackendMismatch):
        apply_row_vector(vec(1, 2), f)
    with pytest.raises(BackendMismatch):
        apply_row_vector((approx(1.0), approx(2.0)), m)


def test_exact_chain_makes_no_sort_compare_or_total_complex_arithmetic(monkeypatch):
    """Exact decompose -> GDS -> replay -> check runs on integers: no
    sort_desc, no cmp_total and no TotalComplex + - * / anywhere."""
    import snorder.majorization as majorization
    import snorder.scalar as scalar

    y = vec((4, 2), Fraction(1, 2), 1, (1, 1))
    x = t_transform_apply(y, TTransform(0, 2, exact(Fraction(1, 3))))
    x = t_transform_apply(x, TTransform(1, 3, exact(Fraction(3, 4))))[::-1]
    sy = sort_desc(y)
    want = _reference(x, y)

    def forbidden(*args):
        raise AssertionError("TotalComplex sort, compare or arithmetic")

    for mod in (majorization, scalar):
        monkeypatch.setattr(mod, "sort_desc", forbidden)
        monkeypatch.setattr(mod, "cmp_total", forbidden)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(scalar.TotalComplex, op, forbidden)
    ts, intermediates = t_transform_decompose_trace(x, y)
    p = gds_from_transforms(ts, len(x))
    got = ts, intermediates, p.rows, apply_row_vector(sy, p), gds_check(p)
    assert got[1] and any(not t.beta.is_zero() for t in ts)
    monkeypatch.undo()
    assert got == want
